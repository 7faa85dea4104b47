"""The benchmark's workloads: the CLI invocations of one operation and the
checks every invocation's output must pass.

Each stdout is compared with the SHA-256 of the bytes the CLI printed at the
commit that introduced the benchmark. Where an independent reference exists
the output is also checked against it: the paper's x(29x - 1) table for
`table`, the CLI's own formula-vs-oracle cross-check (exit 2 on mismatch) for
`primes`, and the PASS/FAIL verdict for `verify`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the digest of the stdout it must print."""

    argv: tuple[str, ...]
    sha256: str
    check: Optional[Check] = None

    def problem(self, code: int, stdout: str, stderr: str) -> Optional[str]:
        """None when the output is right, else a one-line reason."""
        if code != 0:
            return f"exit code {code}: {stderr.strip()[-300:]}"
        if stderr:
            return f"unexpected stderr: {stderr.strip()[-300:]}"
        if self.check is not None:
            reason = self.check(stdout)
            if reason:
                return reason
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != self.sha256:
            return f"stdout sha256 {digest[:16]}... differs from the recorded {self.sha256[:16]}..."
        return None


def load_table3(root: Path) -> list[tuple[int, int, int]]:
    """The paper's run-length table for x(29x - 1), n <= 500, from tests/tables.py.

    The file is executed from its text so that nothing is written next to it.
    """
    path = root / "tests" / "tables.py"
    namespace: dict = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace["TABLE3"]


def _decode_runs(rows) -> list[int]:
    values: list[int] = []
    for n_low, n_high, value in rows:
        values += [value] * (n_high - n_low + 1)
    return values


def matches_table3(table3: list[tuple[int, int, int]]) -> Check:
    """Check that a `table` CSV gives the paper's D(n) wherever both define it."""
    expected = _decode_runs(table3)

    def check(stdout: str) -> Optional[str]:
        try:
            rows = [line.split(",") for line in stdout.splitlines()[1:]]
            got = _decode_runs((int(lo), int(hi), int(value)) for lo, hi, value, _ in rows)
        except ValueError:
            return "table CSV is malformed"
        k = min(len(got), len(expected))
        if k == 0 or got[:k] != expected[:k]:
            return "D(n) differs from the paper's x(29x-1) table"
        return None

    return check


def all_pass(stdout: str) -> Optional[str]:
    verdicts = [line for line in stdout.splitlines() if not line.startswith("note: ")]
    if not verdicts or not all(line.startswith("PASS: ") for line in verdicts):
        return f"verify did not pass: {stdout.strip()[-300:]}"
    return None


# stdout of a passing theorem 4 run, which does not depend on the seed
THEOREM4_PASS = "3735d4a1a9a115f20faeea4c635fa2529fecf3a55a8acb9e57fe6dbc446d838f"


@dataclass(frozen=True)
class Workload:
    """The invocations of one operation, at full size and at smoke size."""

    full: tuple[Call, ...]
    smoke: tuple[Call, ...]
    # True when every is_discriminating call comes from compute or scan, so
    # the traced candidate total must equal the traced check count.
    search_only: bool = True


def workloads(table3: list[tuple[int, int, int]]) -> dict[str, Workload]:
    """Every workload by name. `{seed}` in an argv stands for the run's seed."""
    golden = matches_table3(table3)
    return {
        # One long warm-started scan; accepted full-length residue passes
        # dominate and all values fit in int64.
        "table": Workload(
            full=(Call(("table", "--family", "p=29,r=1", "--n-max", "3000"),
                       "d55cd2dd962e308ef2df3e47ca27238aec51fa79cced9fdabc49ec1771cdd2bc", golden),),
            smoke=(Call(("table", "--family", "p=29,r=1", "--n-max", "200"),
                        "fcf8efa909ebb210f404a8743a14c1f601ee94c55ca5af879ec251c5e7c493fe", golden),),
        ),
        # Hundreds of cold compute calls, each restarting at m = n: the cost
        # is per call and per candidate, and a warm start does not apply.
        "primes": Workload(
            full=(Call(("primes", "--family", "4x4x1", "--count", "80"),
                       "78233968cae7b9f6fff7eb2c3771e2829b3c158fb5468e305f89ba63bbc3a443"),),
            smoke=(Call(("primes", "--family", "4x4x1", "--count", "5"),
                        "d9058c8792e79b0f5a3e5c5a0cf6502f054812c0f40a365e2d37e2cc197c259f"),),
        ),
        # Many small problems across ntheory, closedform and analysis, with
        # random polynomials (zero and constant ones too) from the seed.
        "verify": Workload(
            full=(
                Call(("verify", "--theorem", "1", "--n-max", "729"),
                     "476419edf041f8d0b1e897d2b923d5782a52e8bb0c5d395cc32a8881cd37586d", all_pass),
                Call(("verify", "--theorem", "2", "--n-max", "512"),
                     "e74b27887d32111803ac95f299ece28e753d03d2c1905a7b8f1a35141b489265", all_pass),
                Call(("verify", "--theorem", "3"),
                     "c55a5e1615ffc014fa71125ac7a853122fcfdf042839e121d2a31db86cb2dcf5", all_pass),
                Call(("verify", "--theorem", "4", "--seed", "{seed}"), THEOREM4_PASS, all_pass),
                Call(("verify", "--theorem", "5", "--n-max", "150"),
                     "4a2844506c210eb872ba89c3be2cce065b9923d9a2ac8dddacab91ae1959a9a6", all_pass),
            ),
            smoke=(
                Call(("verify", "--theorem", "1", "--n-max", "27"),
                     "aad2e8dc2637579c2f38e397176982280dd1b1a7a49836005df5800b34e90878", all_pass),
                Call(("verify", "--theorem", "2", "--n-max", "16"),
                     "8cc85a1a6fbcdf78b1321f50648a3e79ad5429abf217a1d9972a964dd471abf8", all_pass),
                Call(("verify", "--theorem", "3", "--n-max", "20"),
                     "2d2a2dbef5555620d1950114843cfb1779f6874247be6735f929c5ba62a2eb82", all_pass),
                Call(("verify", "--theorem", "4", "--seed", "{seed}"), THEOREM4_PASS, all_pass),
                Call(("verify", "--theorem", "5", "--n-max", "12"),
                     "966c1956f24644191adeb207c6677d9606144a1bebeb3f38f9823bef2d11c654", all_pass),
            ),
            search_only=False,
        ),
        # The only parsed expression; degree 8, values beyond int64, and D far
        # above n, so any int64 fast path is bypassed.
        "wide": Workload(
            full=(Call(("scan", "--poly", "(x^2+x+41)^4", "--n-max", "700"),
                       "1212bbf1534c678a4dec3ed7e8b33bfd2c890d240eff71b1d34e1045832ddb18"),),
            smoke=(Call(("scan", "--poly", "(x^2+x+41)^4", "--n-max", "30"),
                        "06e7c6ab5f36659965c63b505d6097a94d7bd874176b99f31b8c4e09d5977c19"),),
        ),
    }


def operation(workload: Workload, seed: int, smoke: bool) -> list[Call]:
    """The calls of one operation with the seed filled in."""
    calls = workload.smoke if smoke else workload.full
    return [
        Call(tuple(arg.format(seed=seed) for arg in call.argv), call.sha256, call.check)
        for call in calls
    ]
