"""The paper's checks at scale: each is one CLI run whose stdout is pinned by its sha256.

    python -m pytest -q -W error tools/long_checks.py --durations=0

runs every entry of CHECKS as `python -m polydisc.cli ARGV` against this
checkout's src tree and prints each run's seconds. A check passes when its
run ends within its time limit, exits 0, writes nothing to stderr and prints
the pinned bytes: every table row, note and verdict line. A check is added by
adding an entry; tests/test_long_checks.py, in tier-1, checks that every
entry parses. Tier-1 does not collect this file, since its runs take seconds
to minutes. The module-level pytest_generate_tests hook parametrizes
test_check over CHECKS, so the file imports with the standard library alone
and a stdlib-only script can read CHECKS.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Check(NamedTuple):
    argv: tuple[str, ...]
    time_limit_s: int
    stdout_sha256: str
    why: str


CHECKS = (
    Check(
        ("verify", "--theorem", "2", "--n-max", "1000000"),
        300,
        "d6c35d4c89a9877ea829ff4395d3b8eafbdcf20112f044e540360da879d4cfb2",
        "Sun's Theorem 2 for d in {2, 4, 8, 16}: four quadratic scans to 10^6, decided by"
        " death-time arithmetic and the u = 1 sieve",
    ),
    Check(
        ("verify", "--theorem", "1", "--n-max", "1000000"),
        120,
        "352033c74da7f13fe6e089f66203c0704bb663993461a37ea80631f0598be430",
        "Sun's Theorem 1 for d = 3: one quadratic scan of x(3x-1) to 10^6",
    ),
    Check(
        ("verify", "--theorem", "3", "--n-max", "100000"),
        120,
        "dd9f220d894f6102f72a8aa93da5101a53cd533957f0c27687e1eea87237a855",
        "every m <= 2.4n that discriminates x(x-1) is checked and walked on the value path,"
        " on one stamp table sized for the largest m",
    ),
    Check(
        ("verify", "--theorem", "5", "--n-max", "10000"),
        120,
        "ebaff77e12dfe4a179c87f9e591bfa2f3ec11d7cb44266163e0e6a10c8eb4cac",
        "the power formula for x^j, j in {2, 3, 4, 5, 6, 9}, against the oracle; for odd j"
        " bsw_discriminator factors every k from n up, and the nine known small-n exceptions"
        " print as note: lines",
    ),
    Check(
        ("table", "--family", "p=29,r=1", "--n-max", "1000000"),
        120,
        "9ea24de9b133d41ed802122974c4841516cc4f7a2819fd979ab946fbe9f3275a",
        "the u = 1 sieve drops about 95% of the candidates before any death-time test;"
        " 3,534 lines, the last 999853,1000000,2071471,prime",
    ),
    Check(
        ("table", "--family", "p=100003,r=1", "--n-max", "1000000"),
        120,
        "0c2e8ccfc67e779a5dbe8c2eda62ef23f98f843a86c0332540779662255f1bfa",
        "a = 100,003: the u = 1 sieve's table of a cofactors, built because n_max >= 7a + b + 1,"
        " entered by each search without a copy; 914 lines, the last 998005,1000000,2002877,prime",
    ),
    Check(
        ("scan", "--poly", "x^2-x", "--n-max", "100000"),
        120,
        "9218ce1d5b3b5ecef21e14cf7097b8a58a65f66743be0b6bdc610088defdd7ed",
        "a = 1 gets no help from the u = 1 sieve, so every candidate reaches the divisor stage;"
        " 17,995 lines, the last 99985,100000,199999,prime",
    ),
    Check(
        ("scan", "--poly", "x^2-x", "--n-max", "1000000"),
        120,
        "cf052ab641a13e8256a0a9815aa9093aae8d1ac1fb51b5a5d4bc8f84e6da47a2",
        "where the divisor walk works hardest: a = 1 gets no u = 1 sieve, a prime m that survives"
        " u = 1 is passed by ntheory.is_prime unwalked, and only a composite one is walked to sqrt(m);"
        " 148,947 lines, the last 999998,1000000,2000003,prime",
    ),
    Check(
        ("scan", "--poly", "(x^2+x+41)^4", "--n-max", "1500"),
        120,
        "7659fda464c803e8cd724566ed316d3172b785068bc485b6f135aee11a0b546a",
        "the value path beyond tier-1: 240 divides every difference, so the class table, of period"
        " 7,200, drops moduli from the first search on, and the last value, 147,419 > 64 * 1481,"
        " is walked in a dict;"
        " 49 lines, the last 1481,1500,147419,prime",
    ),
    Check(
        ("primes", "--family", "2xx1", "--count", "10000"),
        120,
        "c777dcd81428e6ef219700a7351efa3d6718f5d4686988e8ba46f2e274c30dae",
        "Sun's prime family 2x(x-1): 10,000 formula primes, walked one per prime, and one"
        " oracle scan to n = 52,382 compared with them run by run; the last prime is 104,773",
    ),
    Check(
        ("primes", "--family", "4x4x1", "--count", "10000"),
        120,
        "e74ce2e12b3dccc68a61274bfd7c531429011f2550e07884995c475ab820080a",
        "Sun's prime family 4x(4x-1): 10,000 formula primes, walked one per prime, and one"
        " oracle scan to n = 84,457 compared with them run by run; the last prime is 225,221",
    ),
    Check(
        ("primes", "--family", "18x3x1", "--count", "10000"),
        120,
        "d344011e0fec779ec4e2fb6c4f073e5bbfffb7b89a71be5f0dae277386e67aeb",
        "Sun's prime family 18x(3x-1): 10,000 formula primes, walked one per prime, and one"
        " oracle scan to n = 75,075 compared with them run by run; the last prime is 225,241",
    ),
    Check(
        ("primes", "--family", "4x4x1", "--count", "100000"),
        120,
        "5b4b7ae6731173c6fdbacf0d37daa6e83c27878ae8a3be8d7cf55006756e073f",
        "Sun's prime family 4x(4x-1) at ten times the count: 100,000 formula primes, and most"
        " of the time goes to the one oracle scan to n = 1,032,195; the last prime is 2,752,601",
    ),
    Check(
        ("conjecture", "--family", "p=2,r=1", "--n-max", "1000000"),
        120,
        "9b2551cd215974bed99e59cc7aefa30fcff13142c215d27c7d11c97c67532f16",
        "Conjecture 1 for x(2x-1) to 10^6: 21 runs, D(1) = 1 and then 2^k for k = 1..20, each"
        " non-prime one compared with 2^max(1, ceil(log2 n)) at its two ends; the one exception"
        " printed is n=1 value=1",
    ),
)


def pytest_generate_tests(metafunc):
    if "check" in metafunc.fixturenames:
        metafunc.parametrize("check", CHECKS, ids=[" ".join(check.argv) for check in CHECKS])


def test_check(check):
    run = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", *check.argv],
        capture_output=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=check.time_limit_s,
    )
    lines = run.stdout.decode(errors="replace").splitlines()
    got = (run.returncode, run.stderr.decode(errors="replace"), hashlib.sha256(run.stdout).hexdigest())
    assert got == (0, "", check.stdout_sha256), (
        f"{check.why}; last stdout line: {lines[-1] if lines else '(none)'!r}"
    )
