import ast
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polydisc
from polydisc import analysis, closedform, ntheory, scan
from polydisc.cli import main

from tables import TABLE3, perturbed_scan


def run(capsys, *argv):
    try:
        status = main(list(argv))
    except SystemExit as exc:  # argparse exits after printing --help
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestCompute:
    def test_table1_value(self, capsys):
        status, out, _ = run(capsys, "compute", "--poly", "x*(27*x-1)", "--n", "95")
        assert status == 0 and out == "D = 223\n"

    def test_theorem2_value(self, capsys):
        status, out, _ = run(capsys, "compute", "--poly", "x*(4*x-1)", "--n", "5")
        assert status == 0 and out == "D = 8\n"

    def test_trivial(self, capsys):
        status, out, _ = run(capsys, "compute", "--poly", "x^2 - x", "--n", "1")
        assert status == 0 and out == "D = 1\n"

    def test_infinity(self, capsys):
        status, out, _ = run(capsys, "compute", "--poly", "7", "--n", "2")
        assert status == 0 and out == "D = infinity\n"

    def test_coeffs_form(self, capsys):
        status, out, _ = run(capsys, "compute", "--poly", "coeffs:0,-1,29", "--n", "5")
        assert status == 0 and out == "D = 15\n"


class TestScanAndTable:
    def test_scan_csv(self, capsys):
        status, out, _ = run(capsys, "scan", "--poly", "x*(29*x-1)", "--n-max", "10")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "n_low,n_high,value,class"
        assert "6,10,19,prime" in lines

    def test_scan_latex(self, capsys):
        status, out, _ = run(
            capsys, "scan", "--poly", "x*(29*x-1)", "--n-max", "10",
            "--format", "latex",
        )
        assert status == 0 and "\\begin{tabular}{| c | c | c | c |}" in out

    def test_scan_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "t.csv"
        status, out, _ = run(
            capsys, "scan", "--poly", "x*(29*x-1)", "--n-max", "5",
            "--out", str(out_file),
        )
        assert status == 0 and out == ""
        assert out_file.read_text().startswith("n_low,n_high,value,class\n")

    def test_table_matches_table3(self, capsys):
        status, out, _ = run(capsys, "table", "--family", "p=29,r=1", "--n-max", "500")
        assert status == 0
        rows = [
            tuple(int(x) for x in line.split(",")[:3])
            for line in out.splitlines()[1:]
        ]
        assert rows == TABLE3

    def test_table_bad_family(self, capsys):
        status, _, err = run(capsys, "table", "--family", "p=6,r=1", "--n-max", "10")
        assert status == 1 and "not prime" in err

    def test_determinism(self, capsys):
        argv = ("table", "--family", "p=7,r=2", "--n-max", "60")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestVerify:
    @pytest.mark.parametrize("theorem,n_max", [(1, 81), (2, 64), (4, None), (5, 30)])
    def test_pass(self, capsys, theorem, n_max):
        argv = ["verify", "--theorem", str(theorem)]
        if n_max is not None:
            argv += ["--n-max", str(n_max)]
        status, out, _ = run(capsys, *argv)
        assert status == 0 and "PASS" in out

    def test_theorem3_pass(self, capsys):
        status, out, _ = run(capsys, "verify", "--theorem", "3", "--n-max", "50")
        assert status == 0 and "PASS" in out

    def test_seeded_determinism(self, capsys):
        argv = ("verify", "--theorem", "4", "--seed", "42")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestConjecture:
    def test_table3_output(self, capsys):
        status, out, _ = run(capsys, "conjecture", "--family", "p=29,r=1", "--n-max", "500")
        assert status == 0
        assert out.splitlines() == [
            "n=1 value=1 class=unit",
            "n=5 value=15 class=composite_other",
        ]


class TestPrimes:
    def test_four_x_family(self, capsys):
        status, out, err = run(capsys, "primes", "--family", "4x4x1", "--count", "3")
        assert status == 0 and err == ""
        primes = [int(line) for line in out.splitlines()]
        assert len(primes) == 3
        assert all(p % 4 == 1 for p in primes)

    def test_two_x_family(self, capsys):
        status, out, err = run(capsys, "primes", "--family", "2xx1", "--count", "5")
        assert status == 0 and err == ""
        primes = [int(line) for line in out.splitlines()]
        assert primes == sorted(set(primes)) and len(primes) == 5

    def test_unknown_family(self, capsys):
        status, _, _ = run(capsys, "primes", "--family", "nope", "--count", "1")
        assert status == 1


class TestExitCodes:
    def test_bad_polynomial(self, capsys):
        status, _, err = run(capsys, "compute", "--poly", "x + *", "--n", "3")
        assert status == 1 and "error" in err

    def test_huge_exponent(self, capsys):
        status, out, err = run(capsys, "compute", "--poly", "x^99999999", "--n", "3")
        assert (status, out) == (1, "")
        assert err == "error: bad polynomial: exponent exceeds the cap 1000 (at position 2)\n"

    def test_pseudoprime_p_rejected(self, capsys):
        status, out, err = run(
            capsys, "conjecture", "--family", "p=3317044064679887385961981,r=1", "--n-max", "1"
        )
        assert (status, out) == (1, "")
        assert err == "error: p=3317044064679887385961981 is not prime\n"

    def test_bad_flag_value(self, capsys):
        status, _, _ = run(capsys, "compute", "--poly", "x", "--n", "notanint")
        assert status == 1

    def test_missing_subcommand(self, capsys):
        status, _, _ = run(capsys)
        assert status == 1

    def test_integer_literal_beyond_the_int_digit_limit(self, capsys, int_digit_limit):
        int_digit_limit(4300)
        status, out, err = run(capsys, "compute", "--poly", "7" * 5000 + "*x", "--n", "3")
        assert (status, out) == (1, "")
        assert err == (
            "error: bad polynomial: integer literal of 5000 digits exceeds the interpreter's "
            "limit for int() (at position 0)\n"
        )

    def test_exponent_cap_is_inclusive(self, capsys):
        status, out, _ = run(capsys, "conjecture", "--family", "p=2,r=1000", "--n-max", "20")
        assert (status, out) == (0, "n=1 value=1 class=unit\n")
        status, _, err = run(capsys, "table", "--family", "p=2,r=1001", "--n-max", "2")
        assert (status, err) == (1, "error: r=1001 exceeds the cap 1000\n")

    def test_coeffs_literal_beyond_the_int_digit_limit(self, capsys, int_digit_limit):
        int_digit_limit(4300)
        status, out, err = run(capsys, "compute", "--poly", "coeffs:" + "7" * 5000, "--n", "3")
        assert (status, out) == (1, "")
        assert err == (
            "error: bad polynomial: integer literal of 5000 digits exceeds the interpreter's "
            "limit for int() (at position 7)\n"
        )

    def test_printed_coefficient_beyond_the_int_digit_limit(self, capsys, int_digit_limit):
        int_digit_limit(4300)
        argv = ("scan", "--poly", "(10^1000)^5*x", "--n-max", "3")
        assert run(capsys, *argv, "--format", "latex") == (
            1, "", "error: coefficient of x^1 exceeds the interpreter's digit limit for str()\n"
        )
        assert run(capsys, *argv) == (0, "n_low,n_high,value,class\n1,1,1,unit\n2,3,3,prime\n", "")

    @pytest.mark.parametrize("theorem", [1, 2, 3, 5])
    def test_verify_n_max_below_one(self, capsys, theorem):
        status, out, err = run(capsys, "verify", "--theorem", str(theorem), "--n-max", "0")
        assert (status, out, err) == (1, "", "error: n_max must be >= 1\n")


class TestFailurePaths:
    def test_verify_counterexample_exits_2(self, capsys, monkeypatch):
        real = analysis.sun_power_formula
        monkeypatch.setattr(analysis, "sun_power_formula", lambda d, n: real(d, n) + (n == 10))
        status, out, err = run(capsys, "verify", "--theorem", "1", "--n-max", "27")
        assert status == 2 and err == ""
        assert out == "FAIL: counterexample d=3 n=10: oracle 27, formula 28\n"

    def test_primes_mismatch_exits_2(self, capsys, monkeypatch):
        # the formula is read at run ends only, so the oracle's runs are perturbed
        monkeypatch.setattr(closedform, "scan", perturbed_scan(closedform.scan, lambda n: n == 6))
        status, out, err = run(capsys, "primes", "--family", "2xx1", "--count", "3")
        assert status == 2
        assert out == "11\n13\n17\n"
        assert err == "mismatch at n=6: formula 11, oracle 12\n"

    @pytest.mark.parametrize("theorem,n_max,name,perturb,line", [
        (3, 20, "check_theorem3", lambda real: lambda n_max: real(n_max) + [(20, 21)],
         "FAIL: counterexample n=20 m=21: discriminating but neither prime nor 2^k\n"),
        # the third of the seeded trials is reported as failing
        (4, 1, "sample_sandwich_trials",
         lambda real: lambda count, seed: (
             r._replace(holds=False) if i == 2 else r for i, r in enumerate(real(count, seed))
         ),
         "FAIL: counterexample f=9*x^3 - 8*x^2 - 3*x + 5 p=3 n=30: D_f=87, D_pf=145\n"),
        (5, 12, "bsw_discriminator", lambda real: lambda j, n: real(j, n) + (n == 10),
         "FAIL: counterexample j=2 n=10: oracle 22, formula 23\n"),
    ], ids=["theorem3", "theorem4", "theorem5"])
    def test_verify_counterexample_of_each_check_exits_2(
        self, capsys, monkeypatch, theorem, n_max, name, perturb, line
    ):
        monkeypatch.setattr(analysis, name, perturb(getattr(analysis, name)))
        status, out, err = run(capsys, "verify", "--theorem", str(theorem), "--n-max", str(n_max))
        assert (status, err) == (2, "")
        assert out.splitlines(keepends=True)[-1] == line


SCAN_CSV = (
    "n_low,n_high,value,class\n1,1,1,unit\n2,2,3,prime\n3,4,7,prime\n"
    "5,5,15,composite_other\n6,10,19,prime\n11,12,29,prime\n"
)

TABLE_7_2 = (
    "n_low,n_high,value,class\n1,1,1,unit\n2,2,3,prime\n3,7,7,prime\n"
    "8,8,16,prime_power_other\n9,9,21,composite_other\n10,17,37,prime\n"
    "18,18,41,prime\n19,49,49,power_of_p\n50,60,131,prime\n"
)

# 10000000000000000051 * 30000000000000000041: no trial division the labels
# need reaches either factor
TWO_20_DIGIT_PRIMES = 10000000000000000051 * 30000000000000000041
SCAN_CSV_20_DIGIT = (
    "n_low,n_high,value,class\n1,1,1,unit\n2,2,3,prime\n3,3,5,prime\n"
    "4,4,12,composite_other\n5,5,15,composite_other\n6,9,19,prime\n"
    "10,10,31,prime\n11,12,41,prime\n"
)

# lcm(1..200) * x(29x - 1): D = 211 is found at n = 2, above the flat-table
# bound of 64 n, and carried until f(65) and f(66) collide mod 211
LCM_200 = math.lcm(*range(1, 201))
SCAN_CSV_LCM_200 = (
    "n_low,n_high,value,class\n1,1,1,unit\n2,65,211,prime\n66,112,233,prime\n"
    "113,120,271,prime\n"
)

COMPUTE_HELP = (
    "usage: polydisc compute [-h] --poly POLY --n N\n\n"
    "options:\n  -h, --help   show this help message and exit\n  --poly POLY\n  --n N\n"
)

# Stdout, stderr and exit code of each invocation, recorded before the theorem
# checks moved out of the CLI; the bytes must not drift.
PINNED = [
    (("compute", "--poly", "x*(27*x-1)", "--n", "95"), 0, "D = 223\n", ""),
    (("compute", "--poly", "x*(4*x-1)", "--n", "5"), 0, "D = 8\n", ""),
    (("compute", "--poly", "coeffs:0,-1,29", "--n", "5"), 0, "D = 15\n", ""),
    (("compute", "--poly", "7", "--n", "2"), 0, "D = infinity\n", ""),
    (("scan", "--poly", "x*(29*x-1)", "--n-max", "12"), 0, SCAN_CSV, ""),
    (("scan", "--poly", "x*(29*x-1)", "--n-max", "12", "--format", "latex"), 0,
     "\\begin{table}[ht]\n"
     "\\caption{Discriminator values for $f(x) = 29*x^2 - x$, $n = 1, \\ldots, 12$.}\n"
     "\\centering\n\\begin{tabular}{| c | c | c | c |}\n\\hline\n"
     "$n$ & $D_f(n)$ & $n$ & $D_f(n)$ \\\\\n\\hline\n"
     "1 & 1 & 5 & 15 \\\\\n2 & 3 & 6 - 10 & 19 \\\\\n3 - 4 & 7 & 11 - 12 & 29 \\\\\n"
     "\\hline\n\\end{tabular}\n\\end{table}\n", ""),
    (("table", "--family", "p=29,r=1", "--n-max", "80"), 0,
     "n_low,n_high,value,class\n1,1,1,unit\n2,2,3,prime\n3,4,7,prime\n"
     "5,5,15,composite_other\n6,10,19,prime\n11,29,29,prime\n30,34,73,prime\n"
     "35,43,97,prime\n44,47,109,prime\n48,61,131,prime\n62,62,151,prime\n"
     "63,72,167,prime\n73,75,199,prime\n76,80,233,prime\n", ""),
    (("table", "--family", "p=7,r=2", "--n-max", "60"), 0, TABLE_7_2, ""),
    (("verify", "--theorem", "1", "--n-max", "27"), 0,
     "PASS: d=3: oracle equals 3^ceil(log3 n) for all n <= 27\n", ""),
    (("verify", "--theorem", "2", "--n-max", "16"), 0,
     "PASS: d in {2,4,8,16}: oracle equals 2^ceil(log2 n) for all n <= 16\n", ""),
    (("verify", "--theorem", "3", "--n-max", "20"), 0,
     "PASS: no non-prime, non-power-of-two discriminating m <= 2.4n for 15 <= n <= 20\n", ""),
    (("verify", "--theorem", "3", "--n-max", "1000"), 0,
     "PASS: no non-prime, non-power-of-two discriminating m <= 2.4n for 15 <= n <= 1000\n", ""),
    (("verify", "--theorem", "3", "--n-max", "3000"), 0,
     "PASS: no non-prime, non-power-of-two discriminating m <= 2.4n for 15 <= n <= 3000\n", ""),
    (("verify", "--theorem", "4", "--seed", "7"), 0,
     "PASS: sandwich D_f <= D_pf <= p*D_f held for 200 random (f, p, n)\n", ""),
    (("verify", "--theorem", "4", "--seed", "42"), 0,
     "PASS: sandwich D_f <= D_pf <= p*D_f held for 200 random (f, p, n)\n", ""),
    (("verify", "--theorem", "5", "--n-max", "12"), 0,
     "note: known small-n exception j=2 n=1: oracle 1, formula 3\n"
     "note: known small-n exception j=2 n=2: oracle 2, formula 4\n"
     "note: known small-n exception j=2 n=4: oracle 9, formula 10\n"
     "note: known small-n exception j=4 n=1: oracle 1, formula 3\n"
     "note: known small-n exception j=4 n=2: oracle 2, formula 4\n"
     "note: known small-n exception j=4 n=4: oracle 9, formula 11\n"
     "note: known small-n exception j=4 n=8: oracle 18, formula 19\n"
     "note: known small-n exception j=6 n=1: oracle 1, formula 3\n"
     "note: known small-n exception j=6 n=2: oracle 2, formula 4\n"
     "PASS: power formula matched the oracle for n <= 12 outside 9 known small-n exceptions\n",
     ""),
    (("conjecture", "--family", "p=29,r=1", "--n-max", "100"), 0,
     "n=1 value=1 class=unit\nn=5 value=15 class=composite_other\n", ""),
    (("primes", "--family", "2xx1", "--count", "5"), 0, "11\n13\n17\n19\n23\n", ""),
    (("primes", "--family", "4x4x1", "--count", "5"), 0, "13\n17\n29\n37\n41\n", ""),
    (("primes", "--family", "18x3x1", "--count", "5"), 0, "19\n31\n37\n43\n61\n", ""),
    (("compute", "--poly", "x + *", "--n", "3"), 1, "",
     "error: bad polynomial: unexpected token '*' (at position 4)\n"),
    # a superscript passes str.isdigit() but is no decimal digit
    (("compute", "--poly", "x^²", "--n", "3"), 1, "",
     "error: bad polynomial: unexpected character '²' (at position 2)\n"),
    (("compute", "--poly", "x", "--n", "notanint"), 1, "",
     "error: argument --n: invalid int value: 'notanint'\n"),
    # after a space, a polynomial that starts with '-' reads as an option; README gives the '=' form
    (("compute", "--poly", "-3*x^2+x", "--n", "5"), 1, "", "error: argument --poly: expected one argument\n"),
    ((), 1, "", "error: the following arguments are required: command\n"),
    (("table", "--family", "p=6,r=1", "--n-max", "10"), 1, "", "error: p=6 is not prime\n"),
    # compute has no --lower or --upper: every search starts at n (pigeonhole)
    (("compute", "--poly", "x", "--n", "5", "--lower", "10"), 1, "",
     "error: unrecognized arguments: --lower 10\n"),
    (("compute", "--poly", "x", "--n", "5", "--upper", "3"), 1, "",
     "error: unrecognized arguments: --upper 3\n"),
    (("compute", "--help"), 0, COMPUTE_HELP, ""),
    # either flag, alone or with the other, is refused whatever its value
    *((argv, 1, "", f"error: unrecognized arguments: {' '.join(argv[5:])}\n") for argv in [
        ("compute", "--poly", "coeffs:0,-1,29", "--n", "5", "--lower", "1", "--upper", "100"),
        ("compute", "--poly", "coeffs:0,-1,29", "--n", "5", "--lower", "16"),
        ("compute", "--poly", "x", "--n", "5", "--lower", "10", "--upper", "4"),
        ("compute", "--poly", "x", "--n", "5", "--lower", "0"),
        ("compute", "--poly", "x", "--n", "5", "--lower", "0", "--upper", "-5"),
        ("compute", "--poly", "x", "--n", "5", "--lower", "3", "--upper", "3"),
        ("compute", "--poly", "x", "--n", "5", "--lower", "1000"),
        ("compute", "--poly", "2*x", "--n", "2", "--lower", "6"),
        ("compute", "--poly", "7", "--n", "2", "--upper", "3"),
    ]),
    # a scan labels its CSV against the leading coefficient's largest prime, 7 here
    (("scan", "--poly", "x*(49*x-1)", "--n-max", "60"), 0, TABLE_7_2, ""),
    (("scan", "--poly", f"x*({TWO_20_DIGIT_PRIMES}*x-1)", "--n-max", "12"), 0, SCAN_CSV_20_DIGIT, ""),
    (("scan", "--poly", f"{29 * LCM_200}*x^2-{LCM_200}*x", "--n-max", "120"), 0, SCAN_CSV_LCM_200, ""),
    # rejected at once: a repeated --family key, an r above poly.MAX_EXPONENT
    (("table", "--family", "p=29,r=1,p=7", "--n-max", "8"), 1, "",
     "error: --family must give exactly p and r, got 'p=29,r=1,p=7'\n"),
    (("table", "--family", "p=29,r=10000000", "--n-max", "3"), 1, "",
     "error: r=10000000 exceeds the cap 1000\n"),
    (("conjecture", "--family", "p=29,r=10000000", "--n-max", "3"), 1, "",
     "error: r=10000000 exceeds the cap 1000\n"),
    # each refusal comes from the library function that takes the value
    (("compute", "--poly", "x", "--n", "0"), 1, "", "error: n must be >= 1\n"),
    (("scan", "--poly", "x", "--n-max", "0"), 1, "", "error: n_max must be >= 1\n"),
    (("scan", "--poly", "7", "--n-max", "3"), 1, "",
     "error: D is nonexistent at n=2; run-length table undefined\n"),
    (("primes", "--family", "2xx1", "--count", "0"), 1, "", "error: count must be >= 1\n"),
    (("conjecture", "--family", "p=4,r=1", "--n-max", "3"), 1, "", "error: p=4 is not prime\n"),
    (("verify", "--theorem", "4", "--n-max", "0"), 1, "", "error: n_max must be >= 1\n"),
    # a --family spec is comma-separated key=int fields
    (("table", "--family", "p29,r=1", "--n-max", "5"), 1, "",
     "error: bad --family spec 'p29,r=1', expected p=<prime>,r=<int>\n"),
    (("table", "--family", "p=x,r=1", "--n-max", "5"), 1, "", "error: bad --family value 'x'\n"),
    (("compute", "--poly=(x+1", "--n", "3"), 1, "", "error: bad polynomial: expected ')' (at position 4)\n"),
    # a coefficient entry is a sign and decimal digits, as in the expression form
    (("compute", "--poly", "coeffs:1_0", "--n", "3"), 1, "",
     "error: bad polynomial: bad coefficient list: invalid literal for int() with base 10: '1_0'"
     " (at position 7)\n"),
]


@pytest.mark.parametrize("argv,status,out,err", PINNED, ids=[" ".join(c[0]) or "<none>" for c in PINNED])
def test_pinned_bytes(capsys, monkeypatch, argv, status, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
    assert run(capsys, *argv) == (status, out, err)


def test_scan_labels_follow_the_full_factorization():
    p, q = 10000000000000000051, 30000000000000000041
    assert ntheory.is_prime(p) and ntheory.is_prime(q)
    rows = analysis.run_length_table(scan(closedform.x_dx_minus_1(p * q), 12))
    assert analysis.emit_csv(rows, q) == SCAN_CSV_20_DIGIT


def test_pinned_scan_out(capsys, tmp_path):
    out_file = tmp_path / "t.csv"
    argv = ("scan", "--poly", "x*(29*x-1)", "--n-max", "12")
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes().decode() == SCAN_CSV


def test_pinned_value_path_scan(capsys):
    # x^5 is not quadratic, so each of its 850 searches checks f(1..n) and
    # walks the accepted modulus on to its death
    status, out, err = run(capsys, "scan", "--poly", "x^5", "--n-max", "2000")
    assert (status, err) == (0, "")
    assert len(out.splitlines()) == 851 and out.splitlines()[-1] == "2000,2000,2001,composite_other"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ede171b822a514de315595592006fba151e8974d7bdceec3d411d88b9283a347"
    )


@pytest.mark.parametrize("command", [
    ("scan", "--poly", "x*(29*x-1)"),
    ("table", "--family", "p=29,r=1"),
])
def test_out_path_that_cannot_be_written(capsys, tmp_path, command):
    argv = command + ("--n-max", "5", "--out")
    assert run(capsys, *argv, str(tmp_path)) == (
        1, "", f"error: cannot write {tmp_path}: Is a directory\n"
    )
    missing = tmp_path / "missing" / "t.csv"
    assert run(capsys, *argv, str(missing)) == (
        1, "", f"error: cannot write {missing}: No such file or directory\n"
    )


SRC = os.path.dirname(os.path.dirname(polydisc.__file__))

CLOSED_STDOUT_RUNS = [
    ("compute", "--poly", "x*(27*x-1)", "--n", "95"),
    ("scan", "--poly", "x*(29*x-1)", "--n-max", "12"),
    ("table", "--family", "p=29,r=1", "--n-max", "12"),
    ("verify", "--theorem", "1", "--n-max", "9"),
    ("conjecture", "--family", "p=29,r=1", "--n-max", "12"),
    ("primes", "--family", "2xx1", "--count", "5"),
]


def run_child(argv, unbuffered, stdout):
    """Run the CLI in a child that writes to `stdout`; -> (status, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.run(
        [sys.executable, "-m", "polydisc.cli", *argv], stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    return child.returncode, child.stderr


def run_with_closed_stdout(argv, unbuffered):
    """Run the CLI in a child whose stdout is a pipe with no reader; -> (status, stderr)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return run_child(argv, unbuffered, write_end)
    finally:
        os.close(write_end)


# buffered, a write to the closed pipe fails at the flush; unbuffered, at the first print
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CLOSED_STDOUT_RUNS, ids=[argv[0] for argv in CLOSED_STDOUT_RUNS])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    assert run_with_closed_stdout(argv, unbuffered) == (1, "error: [Errno 32] Broken pipe\n")


def test_help_to_a_closed_unbuffered_stdout_exits_0_silently():
    # argparse drops the error of its own write
    assert run_with_closed_stdout(("compute", "--help"), unbuffered=True) == (0, "")


def test_help_to_a_closed_buffered_stdout_exits_1_without_a_traceback():
    # argparse writes the help into the buffer and exits before the command's flush
    assert run_with_closed_stdout(("scan", "--help"), unbuffered=False) == (1, "error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_1_without_a_traceback(unbuffered):
    with open("/dev/full", "w") as full:
        status = run_child(("compute", "--poly", "x", "--n", "3"), unbuffered, full)
    assert status == (1, "error: [Errno 28] No space left on device\n")


def test_cli_import_leaves_out_dataclasses_and_its_imports():
    # every CLI run imports polydisc.cli; `dataclasses` would bring these with it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import polydisc.cli; print(*sorted(set(sys.modules) - before))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded)
    # the benchmark's tracer looks up every layer it wraps in sys.modules, so
    # importing any of them lazily, per command, would break its traced runs
    layers = ("poly", "discriminator", "ntheory", "closedform", "analysis", "cli")
    assert {f"polydisc.{layer}" for layer in layers} <= set(loaded)


def count_proofs(monkeypatch):
    """Wrap ntheory.is_prime; the returned list collects every number it is asked about."""
    real, proofs = ntheory.is_prime, []

    def counted(n):
        proofs.append(n)
        return real(n)

    monkeypatch.setattr(ntheory, "is_prime", counted)
    return proofs


@pytest.fixture(scope="module")
def big_prime():
    """The least prime above 10^299: one Baillie-PSW test costs more than a run's scan."""
    return ntheory.next_prime_satisfying(10 ** 299, 0, 1)


def test_a_conjecture_run_proves_its_prime_once(capsys, monkeypatch, big_prime):
    p, proofs = big_prime, count_proofs(monkeypatch)
    status, out, err = run(capsys, "conjecture", "--family", f"p={p},r=1", "--n-max", "20")
    assert (status, err) == (0, "") and out.startswith("n=1 value=1 class=unit\n")
    assert proofs.count(p) == 1


def test_a_csv_table_run_proves_its_prime_once(capsys, monkeypatch, big_prime):
    # the family check proves p; the CSV labels its rows against csv_prime's
    # prime, which for a p above every row's square root is a small one
    p, proofs = big_prime, count_proofs(monkeypatch)
    status, out, err = run(capsys, "table", "--family", f"p={p},r=1", "--n-max", "20")
    assert (status, err) == (0, "") and out.startswith("n_low,n_high,value,class\n1,1,1,unit\n")
    assert proofs.count(p) == 1


# `table --family p=<the least prime above 10^299>,r=1000 --n-max 200`, whose
# values f(i) = i(p^1000 i - 1) have about 300,000 digits each
HUGE_FAMILY_TABLE = "n_low,n_high,value,class\n" + "".join(f"{row}\n" for row in (
    "1,1,1,unit", "2,2,3,prime", "3,3,5,prime", "4,4,8,prime_power_other", "5,6,11,prime",
    "7,8,16,prime_power_other", "9,9,17,prime", "10,10,19,prime", "11,11,29,prime", "12,16,31,prime",
    "17,21,41,prime", "22,31,61,prime", "32,37,73,prime", "38,45,97,prime", "46,51,101,prime",
    "52,57,113,prime", "58,61,137,prime", "62,76,151,prime", "77,78,163,prime", "79,81,167,prime",
    "82,82,173,prime", "83,96,227,prime", "97,126,251,prime", "127,129,257,prime", "130,136,271,prime",
    "137,148,331,prime", "149,153,349,prime", "154,170,359,prime", "171,200,401,prime",
))


def test_a_huge_quadratic_table_reads_no_value(capsys, monkeypatch, big_prime):
    # a quadratic's moduli are decided from its coefficients, reduced mod m
    # once per candidate, so no value of f is ever computed
    def refuse(*args):
        raise AssertionError("the quadratic path computed a value of f")

    monkeypatch.setattr(polydisc.Polynomial, "values", refuse)
    monkeypatch.setattr(polydisc.Polynomial, "evaluate", refuse)
    argv = ("table", "--family", f"p={big_prime},r=1000", "--n-max", "200")
    assert run(capsys, *argv) == (0, HUGE_FAMILY_TABLE, "")


def test_cli_does_no_mathematics():
    # the CLI parses and prints; primality and every range rule live in the library
    with open(os.path.join(os.path.dirname(polydisc.__file__), "cli.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"ntheory", "MAX_EXPONENT"} & imported
    assert not {"ntheory", "is_prime", "MAX_EXPONENT"} & names


# Random command lines: each command with a random subset of its own flags,
# plus a stray flag now and then, every value drawn from valid and malformed
# text. Sizes stay near 300 or below, and a drawn polynomial has degree at
# most about 1,000, so no run takes more than a fraction of a second.
POLY_PARTS = (
    "x", "x^2", "x^3", "2", "27", "-", "+", "*", "(", ")", "^", "0", "-1", " ",
    "coeffs:", ",", "y", "x^1001", "1_0", "10" * 16,
)
SIZES = st.one_of(st.integers(1, 300).map(str), st.sampled_from(["0", "-2", "", "x", "1.5", "1e3", "-0", "0x10"]))
FAMILY_SPECS = st.one_of(
    st.sampled_from(["p=2,r=1", "p=3,r=2", "p=29,r=1", "p=97,r=1", *sorted(closedform.FAMILIES)]),
    st.sampled_from(["p=4,r=1", "p=2", "r=1,p=3", "p=2,r=0", "p=2,r=1001", "p=x,r=1", "p=2,r=1,q=3", "p=2,,r=1", ""]),
    st.builds("p={},r={}".format, st.integers(-3, 300), st.integers(-2, 5)),
)
FLAG_VALUES = {
    "--poly": st.one_of(
        st.sampled_from(["x", "x^2-x", "x*(27*x-1)", "(x^2+x+41)^4", "x^5", "coeffs:0,-1,2", "0", "7"]),
        st.lists(st.sampled_from(POLY_PARTS), max_size=7).map("".join),
    ),
    "--n": SIZES,
    "--n-max": SIZES,
    "--count": SIZES,
    "--seed": st.one_of(SIZES, st.just("10" * 20)),
    "--family": FAMILY_SPECS,
    "--theorem": st.integers(-1, 6).map(str),
    "--format": st.sampled_from(["csv", "latex", "tex", ""]),
    "--out": st.sampled_from(["dir", "missing", "file"]),
}
COMMAND_FLAGS = {
    "compute": ("--poly", "--n"),
    "scan": ("--poly", "--n-max", "--format", "--out"),
    "table": ("--family", "--n-max", "--format", "--out"),
    "verify": ("--theorem", "--n-max", "--seed"),
    "conjecture": ("--family", "--n-max"),
    "primes": ("--family", "--count"),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from([*COMMAND_FLAGS, "bogus", ""]))
    flags = [flag for flag in COMMAND_FLAGS.get(command, ()) if draw(st.sampled_from((True, True, True, False)))]
    flags += draw(st.lists(st.sampled_from([*FLAG_VALUES, "--help", "--bogus"]), max_size=1))
    argv = [command] if command or draw(st.booleans()) else []
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in FLAG_VALUES:
            argv.append(draw(FLAG_VALUES[flag]))
    return argv


@pytest.fixture(scope="module")
def out_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {"dir": str(root), "missing": str(root / "missing" / "t.csv"), "file": str(root / "t.csv")}


@settings(max_examples=300, deadline=None)
@given(argv=cli_argv())
def test_any_command_line_exits_0_1_or_2_without_a_traceback(out_paths, argv):
    argv = [out_paths.get(arg, arg) if prev == "--out" else arg for prev, arg in zip([None, *argv], argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            status = exc.code
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if status == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
