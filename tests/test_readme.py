"""The README's examples run as written: its Python blocks as doctests, and
each `polydisc ...` line of its CLI block through `cli.main`, which must exit
0 and print the output that a `# -> ...` comment names. Every backticked
dotted name it points to, such as `discriminator._death_time`, resolves."""

import doctest
import importlib
import re
import shlex
from pathlib import Path

import pytest

from polydisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
CLI_LINES = [line for line in TEXT.splitlines() if line.startswith("polydisc ")]
# `polydisc.x.y` or `module.y`, closed by a backtick or a call's parenthesis
POINTERS = re.findall(r"`((?:polydisc|poly|ntheory|discriminator|closedform|analysis|cli)(?:\.\w+)+)[`(]", TEXT)


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


def test_dotted_pointers_resolve():
    unresolved = []
    for name in POINTERS:
        root, *path = name.split(".")
        target = importlib.import_module(root if root == "polydisc" else f"polydisc.{root}")
        for attr in path:
            target = getattr(target, attr, None)
        if target is None:
            unresolved.append(name)
    assert POINTERS and unresolved == []
