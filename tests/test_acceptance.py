"""Acceptance suite: one pass/fail line per criterion, run with `pytest -s`."""

import random
import time

from polydisc import (
    Polynomial,
    bsw_discriminator,
    check_conjecture1,
    check_theorem3,
    compute,
    is_discriminating,
    parse_polynomial,
    run_length_table,
    scan,
    sun_power_formula,
    x_dx_minus_1,
)
from polydisc.closedform import FAMILIES, lemma1_bound, sun_prime_discriminator
from polydisc.cli import main
from polydisc.analysis import Kind, sample_sandwich_trials

from tables import (
    POWER_FORMULA_SMALL_N,
    TABLE1_CERTIFICATES,
    TABLE1_CORRECTED,
    TABLE1_PUBLISHED,
    TABLE2,
    TABLE3,
    per_n,
)

SEED = 20260824
PR_MATRIX = ((2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 2), (7, 2), (29, 1))


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def table_rows_from_cli(capsys, family, n_max):
    status = main(["table", "--family", family, "--n-max", str(n_max)])
    out = capsys.readouterr().out
    assert status == 0
    return [tuple(int(x) for x in line.split(",")[:3]) for line in out.splitlines()[1:]]


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    rows1 = table_rows_from_cli(capsys, "p=3,r=3", 300)
    rows2 = table_rows_from_cli(capsys, "p=7,r=2", 300)
    rows3 = table_rows_from_cli(capsys, "p=29,r=1", 500)

    # The published table 1 has two impossible rows: each certificate gives a
    # colliding pair (k, l) with (l - k)(27(l + k) - 1) divisible by the row's
    # modulus, so that modulus cannot extend as far as printed.
    f27 = x_dx_minus_1(27)
    for (k, l), m, cofactor in TABLE1_CERTIFICATES:
        assert 27 * (l + k) - 1 == cofactor * m
        assert (f27.evaluate(l) - f27.evaluate(k)) % m == 0
        assert not is_discriminating(f27.values(l), m)
    published_reachable = [
        row for row in TABLE1_PUBLISHED if row in TABLE1_CORRECTED
    ]
    assert len(TABLE1_PUBLISHED) - len(published_reachable) == 4  # 2 boundaries, 4 rows

    elapsed = time.perf_counter() - start
    ok = rows1 == TABLE1_CORRECTED and rows2 == TABLE2 and rows3 == TABLE3 and elapsed < 60
    report(
        1,
        ok,
        "tables for (3,3,300), (7,2,300), (29,1,500) reproduced "
        f"({len(rows1)}/{len(rows2)}/{len(rows3)} rows, {elapsed:.1f}s); published "
        "table 1 boundary errors at m=223 (ends n=95, not 97) and m=659 (ends "
        "n=268, not 270) proven impossible by divisibility certificates",
    )


def test_criterion_2_theorem2():
    start = time.perf_counter()
    bad = []
    for d in (2, 4, 8, 16):
        for n, value in per_n(scan(x_dx_minus_1(d), 512)):
            if value != sun_power_formula(d, n):
                bad.append((d, n, value))
    elapsed = time.perf_counter() - start
    report(
        2,
        not bad and elapsed < 30,
        f"d in {{2,4,8,16}}, n <= 512: oracle equals 2^ceil(log2 n), "
        f"{len(bad)} mismatches ({elapsed:.1f}s)",
    )


def test_criterion_3_theorem1():
    start = time.perf_counter()
    bad = [
        (n, value)
        for n, value in per_n(scan(x_dx_minus_1(3), 729))
        if value != sun_power_formula(3, n)
    ]
    elapsed = time.perf_counter() - start
    report(
        3,
        not bad and elapsed < 30,
        f"d=3, n <= 729: oracle equals 3^ceil(log3 n), {len(bad)} mismatches ({elapsed:.1f}s)",
    )


def test_criterion_4_lemma1_corollary1():
    violations = []
    for p, r in PR_MATRIX:
        for n, value in per_n(scan(x_dx_minus_1(p ** r), 300)):
            bound = lemma1_bound(p, r, n)
            if value > bound:
                violations.append((p, r, n, "bound"))
            if n > 1 and _is_power_of(n, p) and value != n:
                violations.append((p, r, n, "corollary"))
    report(
        4,
        not violations,
        f"D <= p^ceil(log_p n) with equality at powers of p for {len(PR_MATRIX)} "
        f"(p, r) pairs, n <= 300: {len(violations)} violations",
    )


def _is_power_of(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_criterion_5_theorem4_sandwich():
    start = time.perf_counter()
    failures = [r for r in sample_sandwich_trials(200, SEED, 40) if not r.holds]
    elapsed = time.perf_counter() - start
    report(
        5,
        not failures and elapsed < 60,
        f"sandwich D_f <= D_pf <= p*D_f on 200 seeded (f, p, n): "
        f"{len(failures)} violations ({elapsed:.1f}s)",
    )


def test_criterion_6_theorem5_bsw():
    mismatches = {}
    for j in (2, 3, 4, 5, 6, 9):
        f = Polynomial.from_coeffs([0] * j + [1])
        for n in range(1, 101):
            oracle = compute(f, n).value
            formula = bsw_discriminator(j, n)
            if oracle != formula:
                mismatches.setdefault(j, []).append((n, oracle, formula))
    expected = {j: list(v) for j, v in POWER_FORMULA_SMALL_N.items()}
    ok = mismatches == expected
    # Open Question resolution: at j even, n = 2 the formula admits k = 4 = 2*2
    # literally and returns 4 while the oracle returns 2; for n >= 3 we have
    # 2n >= 6 > 4, so the k = 4 edge case never matters in the theorem's
    # validity range (all residual mismatches sit at n <= 8, the small-n domain
    # the paper itself flags as "n > 4" for the square).
    detail = (
        "power formula equals oracle for n <= 100 except the frozen small-n set "
        + "; ".join(
            f"j={j}: {[(n, o, fo) for n, o, fo in v]}" for j, v in sorted(mismatches.items())
        )
        + " (k=4 admission at n=2 resolves the even-branch open question)"
    )
    report(6, ok, detail)


def test_criterion_7_prime_families():
    notes = []
    ok = True
    for name, family in FAMILIES.items():
        for n, value in per_n(scan(family.polynomial, 200)):
            formula = sun_prime_discriminator(family, n)
            if n >= 5:
                if formula != value:
                    ok = False
            elif formula != value:
                notes.append(f"{name} n={n} oracle={value} formula={formula}")
    for n in range(5, 201):
        p4 = sun_prime_discriminator(FAMILIES["4x4x1"], n)
        if not (3 * p4 > 8 * n - 4 and p4 < 8 * n):
            ok = False
        p18 = sun_prime_discriminator(FAMILIES["18x3x1"], n)
        if not (3 * n < p18 < 54 * n):
            ok = False
    report(
        7,
        ok,
        "all three prime families equal the oracle for 5 <= n <= 200 and sit in "
        f"their size windows; logged small-n disagreements: {notes}",
    )


def test_criterion_8_theorem3():
    violations = check_theorem3(200)
    report(8, violations == [], f"check_theorem3(200): {len(violations)} violations")


def test_criterion_9_conjecture1_table3():
    got = check_conjecture1(29, 1, 500)
    expected = [(1, 1, Kind.UNIT), (5, 15, Kind.COMPOSITE_OTHER)]
    report(
        9,
        got == expected,
        f"conjecture exceptions for (29, 1, 500) are exactly n=1 (value 1) and "
        f"n=5 (value 15); got {got}",
    )


def test_criterion_10_parser_and_plumbing():
    rng = random.Random(SEED)
    ok = True
    for _ in range(500):
        coeffs = [rng.randint(-99, 99) for _ in range(rng.randint(0, 7))]
        f = Polynomial.from_coeffs(coeffs)
        if parse_polynomial(str(f)) != f:
            ok = False
    refused = 0
    for _ in range(100):
        # a table read n by n gives compute's D(n); values that repeat refuse
        # the table at the first n where D is nonexistent
        f = Polynomial.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        n = rng.randint(1, 30)
        expected = [compute(f, k).value for k in range(1, n + 1)]
        try:
            rows = run_length_table(scan(f, n))
        except ValueError as exc:
            refused += 1
            first = expected.index(None) + 1 if None in expected else None
            ok = ok and str(exc) == f"D is nonexistent at n={first}; run-length table undefined"
        else:
            ok = ok and [v for n_low, n_high, v in rows for _ in range(n_low, n_high + 1)] == expected
    ok = ok and 0 < refused < 100
    for _ in range(50):
        f = Polynomial.from_coeffs([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        n = rng.randint(1, 20)
        m = rng.randint(1, 50)
        values = [f.evaluate(i) for i in range(1, n + 1)]
        naive = all(
            (values[a] - values[b]) % m != 0
            for a in range(n)
            for b in range(a + 1, n)
        )
        if is_discriminating(f.values(n), m) != naive:
            ok = False
    report(
        10,
        ok,
        f"500 parse/print round trips, 100 random scans' run-length tables read n by n "
        f"against compute ({refused} refused for repeated values), 50 early-exit vs "
        f"all-pairs equivalences",
    )
