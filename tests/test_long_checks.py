"""tools/long_checks.py: every long check is a CLI run the parser accepts, pinned by a sha256."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polydisc.cli import build_parser

TOOL = Path(__file__).resolve().parent.parent / "tools" / "long_checks.py"
spec = importlib.util.spec_from_file_location("long_checks", TOOL)
long_checks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(long_checks)


@pytest.mark.parametrize("check", long_checks.CHECKS, ids=lambda check: " ".join(check.argv))
def test_entry_parses_and_pins_a_digest(check):
    build_parser().parse_args(check.argv)
    assert re.fullmatch("[0-9a-f]{64}", check.stdout_sha256)


def test_the_list_imports_with_the_standard_library_alone():
    # a stdlib-only script can read CHECKS: under python -S no site-packages
    # directory is on the path, and loading the file imports no pytest
    code = (
        "import importlib.util, sys; "
        "spec = importlib.util.spec_from_file_location('long_checks', sys.argv[1]); "
        "module = importlib.util.module_from_spec(spec); spec.loader.exec_module(module); "
        "print('pytest' in sys.modules, len(module.CHECKS))"
    )
    run = subprocess.run([sys.executable, "-S", "-c", code, str(TOOL)], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "False 14\n")
