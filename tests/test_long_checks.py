"""tools/long_checks.py: every long check is a CLI run the parser accepts, pinned by a sha256."""

import importlib.util
import re
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
