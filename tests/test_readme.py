"""The README's examples run as written: its Python blocks as doctests, and
each `polydisc ...` line of its CLI block through `cli.main`, which must exit
0 and print the output that a `# -> ...` comment names."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from polydisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
CLI_LINES = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("polydisc ")]


def test_python_examples():
    results = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert results.attempted and not results.failed


def test_cli_block_names_outputs():
    assert CLI_LINES and any("# -> " in line for line in CLI_LINES)


@pytest.mark.parametrize("line", CLI_LINES, ids=[line.split("#")[0].strip() for line in CLI_LINES])
def test_cli_example(capsys, line):
    assert main(shlex.split(line, comments=True)[1:]) == 0
    expected = re.search(r"# -> (.*)$", line)
    if expected:
        assert capsys.readouterr().out == expected.group(1) + "\n"
