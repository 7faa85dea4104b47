"""Print the code lines of each module in src/polydisc, then their total.

A code line is one that is not blank, not a comment alone and not inside a
docstring. Run with `python3 tools/code_lines.py`; stdlib only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polydisc"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = enumerate(text.splitlines(), 1)
    return sum(1 for i, line in lines if line.strip()[:1] not in ("", "#") and i not in docstrings)


if __name__ == "__main__":
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:5,}")
    print(f"{'total':20} {total:5,}")
