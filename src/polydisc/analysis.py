"""The paper's statements checked against the brute-force oracle, and the
tables that print its runs.

Every formula of `closedform` is compared with the oracle's runs in one
place, `_mismatches`: Theorems 1, 2 and 5 (`verify_theorem`), Conjecture 1
(`check_conjecture1`) and the prime families (`family_primes`). Theorem 3
has no formula and is checked modulus by modulus (`check_theorem3`), and
Theorem 4 by seeded random instances of `closedform.check_theorem4`. The
tables are run-length rows (`run_length_table`), classified against a prime
(`classify_value`) and printed as CSV or LaTeX.
"""

from __future__ import annotations

import bisect
import enum
import math
import random
from functools import cache, partial
from itertools import zip_longest
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from . import ntheory
from .closedform import PrimeFamily, SandwichReport, bsw_discriminator, check_theorem4, prime_power_family
from .closedform import sun_power_formula, sun_prime_discriminator, x_dx_minus_1
from .discriminator import Run, _first_repeat, _scramble, is_discriminating, scan
from .poly import Polynomial


class Kind(enum.Enum):
    UNIT = "unit"
    PRIME = "prime"
    POWER_OF_P = "power_of_p"
    PRIME_POWER_OTHER = "prime_power_other"
    COMPOSITE_OTHER = "composite_other"


def classify_value(value: int, p: int) -> Kind:
    """The value's cell relative to a family prime p, exactly one of: unit,
    prime, p^k (k>=2), q^k (q != p, k>=2), other composite.

    The value is factored, so it must be below ntheory.FACTOR_LIMIT.
    """
    if not ntheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _classify(value, p)


def _classify(value: int, p: int) -> Kind:
    """classify_value for a p already proven prime: a table classifies all its
    rows against one p, and proving a 300-digit p takes longer than
    classifying a small value."""
    if value < 1:
        raise ValueError("value must be >= 1")
    if value == 1:
        return Kind.UNIT
    factors = ntheory.factorize(value)
    if len(factors) == 1:
        base, exp = factors[0]
        if exp == 1:
            return Kind.PRIME
        if base == p:
            return Kind.POWER_OF_P
        return Kind.PRIME_POWER_OTHER
    return Kind.COMPOSITE_OTHER


def run_length_table(runs: Sequence[Run]) -> list[tuple[int, int, int]]:
    """The (n_low, n_high, value) rows of `runs`, such as `scan`'s: one row
    per run, as given. Every value must be finite; a run of value None
    raises ValueError naming its n_low."""
    rows = []
    for n_low, n_high, value, _ in runs:
        if value is None:
            raise ValueError(f"D is nonexistent at n={n_low}; run-length table undefined")
        rows.append((n_low, n_high, value))
    return rows


def csv_prime(f: Polynomial, rows: Sequence[tuple[int, int, int]]) -> int:
    """The prime a CSV of f's (n_low, n_high, value) `rows` labels them
    against: the largest prime factor P of f's leading coefficient (2 when
    that is +-1).

    Only a row q^k with k >= 2 reads the prime, and q <= B = isqrt(value).
    Dividing out every q <= B leaves 1 exactly when P <= B; otherwise P is no
    row's base, and the least prime above B labels every row as P would. The
    work is bounded by the rows' values, not by the coefficient's size: a
    value must be below ntheory.FACTOR_LIMIT, as emit_csv's classes require,
    so B < 10^6.
    """
    top = max(value for _, _, value in rows)
    if top >= ntheory.FACTOR_LIMIT:
        raise ValueError(f"csv_prime requires every value < {ntheory.FACTOR_LIMIT:,}")
    lead = abs(f.coeffs[-1]) if f.coeffs else 1
    bound = math.isqrt(top)
    largest = 2
    for q in range(2, bound + 1):
        while lead % q == 0:
            largest, lead = q, lead // q
    return largest if lead == 1 else ntheory.next_prime_satisfying(bound, 0, 1)


def emit_csv(rows: Sequence[tuple[int, int, int]], p: int) -> str:
    """CSV `n_low,n_high,value,class` of (n_low, n_high, value) `rows`, such
    as `run_length_table`'s, with the class column keyed to prime p.

    Each value is classified, so it must be below ntheory.FACTOR_LIMIT.
    """
    if not ntheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    lines = ["n_low,n_high,value,class"]
    for n_low, n_high, value in rows:
        lines.append(f"{n_low},{n_high},{value},{_classify(value, p).value}")
    return "\n".join(lines) + "\n"


def _cell(n_low: int, n_high: int) -> str:
    return str(n_low) if n_low == n_high else f"{n_low} - {n_high}"


def emit_latex(rows: Sequence[tuple[int, int, int]], poly_text: str, n_max: int) -> str:
    """LaTeX tabular of (n_low, n_high, value) `rows`, such as
    `run_length_table`'s, in the two-column-pair `{| c | c | c | c |}` layout."""
    half = (len(rows) + 1) // 2
    lines = [
        "\\begin{table}[ht]",
        f"\\caption{{Discriminator values for $f(x) = {poly_text}$, $n = 1, \\ldots, {n_max}$.}}",
        "\\centering",
        "\\begin{tabular}{| c | c | c | c |}",
        "\\hline",
        "$n$ & $D_f(n)$ & $n$ & $D_f(n)$ \\\\",
        "\\hline",
    ]
    # an odd row count leaves the last right half empty: _cell("", "") is ""
    for (a_low, a_high, a), (b_low, b_high, b) in zip_longest(rows[:half], rows[half:], fillvalue=("", "", "")):
        lines.append(f"{_cell(a_low, a_high)} & {a} & {_cell(b_low, b_high)} & {b} \\\\")
    lines += ["\\hline", "\\end{tabular}", "\\end{table}"]
    return "\n".join(lines) + "\n"


def _mismatches(runs: Iterable[Run], formula: Callable[[int], int]) -> Iterator[tuple[int, int, int]]:
    """(n, value, formula(n)) for each n of `runs` where `formula` differs
    from the value of the run that holds n, in the runs' order.

    The formula must be nondecreasing in n, while a run holds one value. So
    where the formula equals that value at both ends of a run, it is
    squeezed to it at every n between, and the run is read at its ends
    only; only a run that differs at an end is read n by n.
    """
    for n_low, n_high, value, _ in runs:
        if formula(n_high) == value and (n_low == n_high or formula(n_low) == value):
            continue
        for n in range(n_low, n_high + 1):
            expected = formula(n)
            if expected != value:
                yield n, value, expected


def check_conjecture1(p: int, r: int, n_max: int) -> list[tuple[int, int, Kind]]:
    """Exceptions to "D is prime or p^ceil(log_p n)" for f = x(p^r x - 1), as
    (n, D_f(n), its `classify_value` Kind) triples in order of n.

    The conjectured form is read as a genuine prime power, p^max(1,
    ceil(log_p n)), so the unit value 1 (D at n = 1 only) is always reported
    as an exception even though it equals p^0. Each non-prime run of the
    oracle scan is compared with that form by `_mismatches`: the form is
    nondecreasing in n, so a run that matches it at both ends matches at
    every n. A run's value is classified once, at its first exception. An
    empty tail is evidence, never proof. The family comes from
    `closedform.prime_power_family`, which proves p prime (once per call) and
    caps r before anything is scanned.
    """
    runs = (run for run in scan(prime_power_family(p, r), n_max) if not ntheory.is_prime(run.value))
    kind = cache(partial(_classify, p=p))  # run values differ, so one classification per run
    # lemma1_bound(p, r, n) from n = 2 on, without proving p prime again
    exceptions = _mismatches(runs, lambda n: max(p, ntheory.ceil_power(p, n)))
    return [(n, value, kind(value)) for n, value, _ in exceptions]


# The prime-family formulas are verified from this n onward; the 4x(4x-1)
# and 18x(3x-1) forms disagree with the oracle below it.
FAMILY_VALID_FROM = 5


def _formula_runs(family: PrimeFamily, n: int) -> Iterator[tuple[int, int]]:
    """(n_low, p) for each run of the formula from `n` on, one per prime: p
    is the formula's value from n_low up to the next run's n_low.

    The threshold floor((a n + b) / c) does not decrease, and p exceeds it
    exactly while a n <= c p - b - 1. So p holds from n_low through
    (c p - b - 1) // a, and the next prime's run starts one past that.
    """
    while True:
        p = sun_prime_discriminator(family, n)
        yield n, p
        n = (family.c * p - family.b - 1) // family.a + 1


def family_primes(
    family: PrimeFamily, count: int
) -> tuple[list[int], list[tuple[int, int, Optional[int]]]]:
    """The first `count` distinct formula values from n = FAMILY_VALID_FROM on.

    The formula is walked prime by prime (`_formula_runs`), so it is
    evaluated once per prime, and one oracle scan runs to the first n of the
    last prime. The oracle's runs, clipped to n >= FAMILY_VALID_FROM, are
    compared by `_mismatches` with the formula as read off the walk: the
    prime of the walked run that holds n. That reading is nondecreasing in
    n, so an oracle run that matches it at both ends matches at every n.
    Returns the primes and the (n, formula, oracle) mismatches, which the
    theorem predicts are none.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    runs = [run for _, run in zip(range(count), _formula_runs(family, FAMILY_VALID_FROM))]
    primes = [p for _, p in runs]

    def formula(n: int) -> int:
        return primes[bisect.bisect_right(runs, n, key=itemgetter(0)) - 1]

    oracle = (run for run in scan(family.polynomial, runs[-1][0]) if run.n_high >= FAMILY_VALID_FROM)
    clipped = (run._replace(n_low=max(run.n_low, FAMILY_VALID_FROM)) for run in oracle)
    return primes, [(n, expected, value) for n, value, expected in _mismatches(clipped, formula)]


def check_theorem3(n_max: int) -> list[tuple[int, int]]:
    """Violations of: any m <= 2.4n discriminating x(x-1) at n >= 15 is prime or 2^k.

    Returns every offending (n, m) in order; the theorem predicts none. The
    threshold is compared exactly as 10m <= 24n. An m that discriminates
    f(1..n) discriminates every prefix, so each m is checked once at its
    least allowed n, on one prefix that only grows since that n never falls
    as m rises, and then walked on to its death. The prefix is read in the
    searches' fixed scrambled order (`discriminator._scramble`), so a
    rejected m stops after a few values. The ascending moduli share one
    stamp table with the walks (`discriminator._first_repeat`), sized once
    for the largest m: every m <= 2.4n lies below the flat-table bound
    FLAT_TABLE_FACTOR * n, so no modulus needs a dict.
    """
    if n_max < 15:
        raise ValueError("check_theorem3 requires n_max >= 15")
    values = Polynomial.from_coeffs([0, -1, 1]).values(n_max)
    violations: list[tuple[int, int]] = []
    prefix: list[int] = []  # values[:n] scrambled
    stamps = [0] * (24 * n_max // 10 + 1)
    for m in range(1, len(stamps)):
        if ntheory.is_prime(m) or m & (m - 1) == 0:
            continue
        n = max(15, -(-10 * m // 24))
        if is_discriminating(_scramble(values, prefix, n), m, stamps):
            violations.extend((k, m) for k in range(n, _first_repeat(values, m, stamps, n) + 1))
    return sorted(violations)


# Known small-n disagreements between the even-exponent power formula and the
# oracle, keyed by exponent j: (n, oracle value, formula value). The formula's
# validity threshold is n > 4 for j = 2 and n > 8 for j = 4; verification
# treats these as documented exceptions, not failures.
KNOWN_POWER_FORMULA_EXCEPTIONS = {
    2: ((1, 1, 3), (2, 2, 4), (4, 9, 10)),
    4: ((1, 1, 3), (2, 2, 4), (4, 9, 11), (8, 18, 19)),
    6: ((1, 1, 3), (2, 2, 4)),
}

DEFAULT_SEED = 20260824


class Verdict(NamedTuple):
    """Outcome of one theorem check: a one-line summary plus documented notes."""

    ok: bool
    message: str
    notes: tuple[str, ...] = ()


def _check_formulas(cases: Sequence[tuple[str, Polynomial, Callable[[int], int]]], n_max: int, claim: str) -> Verdict:
    """Theorems 1, 2 and 5: scan each (label, f, formula) case to n_max and
    compare its runs with the formula. A mismatch is a note only when its
    exact (j, n, oracle, formula) is listed in KNOWN_POWER_FORMULA_EXCEPTIONS;
    any other is the counterexample. A pass reports `claim` formatted with
    n_max and the number of notes."""
    known = {(f"j={j}", *entry) for j, entries in KNOWN_POWER_FORMULA_EXCEPTIONS.items() for entry in entries}
    notes = []
    for label, f, formula in cases:
        for n, value, expected in _mismatches(scan(f, n_max), formula):
            detail = f"{label} n={n}: oracle {value}, formula {expected}"
            if (label, n, value, expected) not in known:
                return Verdict(False, f"counterexample {detail}")
            notes.append(f"known small-n exception {detail}")
    return Verdict(True, claim.format(n_max=n_max, notes=len(notes)), tuple(notes))


SANDWICH_MAX_DEGREE = 3
SANDWICH_COEFF_BOUND = 9
SANDWICH_PRIMES = (2, 3, 5)


def sample_sandwich_trials(count: int, seed: int, n_max: int) -> Iterator[SandwichReport]:
    """`count` seeded random sandwich checks (`closedform.check_theorem4`):
    f of degree at most SANDWICH_MAX_DEGREE with coefficients in
    +-SANDWICH_COEFF_BOUND, p from SANDWICH_PRIMES and n in 1..n_max."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(0, SANDWICH_MAX_DEGREE)
        coeffs = [rng.randint(-SANDWICH_COEFF_BOUND, SANDWICH_COEFF_BOUND) for _ in range(degree + 1)]
        f = Polynomial.from_coeffs(coeffs)
        p = rng.choice(SANDWICH_PRIMES)
        n = rng.randint(1, n_max)
        yield check_theorem4(f, p, n)


def verify_theorem(theorem: int, n_max: Optional[int] = None, seed: int = DEFAULT_SEED) -> Verdict:
    """Check one of the paper's Theorems 1-5 against the brute-force oracle.

    `n_max` (default per theorem, >= 1) bounds n: Theorems 1, 2 and 5 scan
    their families to it, Theorem 3 checks 15 <= n <= max(15, n_max), where
    the theorem starts, and Theorem 4 draws each of its 200 seeded (f, p, n)
    with n <= n_max.
    """
    if theorem not in (1, 2, 3, 4, 5):
        raise ValueError(f"unknown theorem {theorem}")
    if n_max is None:
        n_max = {1: 243, 2: 128, 3: 200, 4: 40, 5: 100}[theorem]
    elif n_max < 1:
        raise ValueError("n_max must be >= 1")
    if theorem == 3:
        n_max = max(15, n_max)
        violations = check_theorem3(n_max)
        if violations:
            n, m = violations[0]
            return Verdict(False, f"counterexample n={n} m={m}: discriminating but neither prime nor 2^k")
        return Verdict(True, f"no non-prime, non-power-of-two discriminating m <= 2.4n for 15 <= n <= {n_max}")
    if theorem == 4:
        trials = 200
        for report in sample_sandwich_trials(trials, seed, n_max):
            if not report.holds:
                return Verdict(False, (
                    f"counterexample f={report.f} p={report.p} n={report.n}: "
                    f"D_f={report.d_f}, D_pf={report.d_pf}"
                ))
        return Verdict(True, f"sandwich D_f <= D_pf <= p*D_f held for {trials} random (f, p, n)")
    if theorem == 5:
        js = (2, 3, 4, 5, 6, 9)
        cases = [(f"j={j}", Polynomial.from_coeffs([0] * j + [1]), partial(bsw_discriminator, j)) for j in js]
        return _check_formulas(
            cases, n_max, "power formula matched the oracle for n <= {n_max} outside {notes} known small-n exceptions"
        )
    if theorem == 1:
        ds, claim = (3,), "d=3: oracle equals 3^ceil(log3 n)"
    else:
        ds, claim = (2, 4, 8, 16), "d in {{2,4,8,16}}: oracle equals 2^ceil(log2 n)"
    cases = [(f"d={d}", x_dx_minus_1(d), partial(sun_power_formula, d)) for d in ds]
    return _check_formulas(cases, n_max, claim + " for all n <= {n_max}")
