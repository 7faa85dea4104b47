"""tools/code_lines.py: the code-line count that tracks the package's size."""

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines_module)
code_lines = code_lines_module.code_lines


def count(source):
    return code_lines(textwrap.dedent(source))


def test_blank_and_comment_lines_do_not_count():
    assert count("") == 0
    assert count("\n\n   \n# a comment\n    # an indented one\n") == 0
    assert count("x = 1\n\n# note\ny = 2  # trailing comment\n") == 2


def test_docstrings_of_modules_classes_and_functions_do_not_count():
    source = '''\
        """Module docstring,
        over two lines."""

        class A:
            """Class docstring."""

            def f(self):
                """Function docstring,

                with a blank line."""
                return 1

        async def g():
            """Async function docstring."""
            return 2
        '''
    assert count(source) == 5  # class, def, return, async def, return


def test_other_strings_count():
    source = '''\
        x = 1
        """not a docstring: the module's first statement is x = 1"""

        def f():
            y = """a string
            over two lines"""
            return y
        '''
    assert count(source) == 6


def test_the_script_prints_each_module_and_their_total():
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    counts = {name: int(n.replace(",", "")) for name, n in (line.split() for line in out)}
    total = counts.pop("total")
    src = TOOL.parent.parent / "src" / "polydisc"
    assert set(counts) == {path.name for path in src.glob("*.py")}
    assert counts == {name: code_lines((src / name).read_text(encoding="utf-8")) for name in counts}
    assert total == sum(counts.values())
