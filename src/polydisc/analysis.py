"""Value classification, run-length tables, and empirical theorem checks."""

from __future__ import annotations

import enum
import math
from functools import partial
from typing import NamedTuple, Optional, Sequence

from . import ntheory
from .closedform import _mismatches, bsw_discriminator, prime_power_family, sample_sandwich_trials, sun_power_formula, x_dx_minus_1
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
    for i in range(half):
        left = rows[i]
        cells = [_cell(left[0], left[1]), str(left[2])]
        if i + half < len(rows):
            right = rows[i + half]
            cells += [_cell(right[0], right[1]), str(right[2])]
        else:
            cells += ["", ""]
        lines.append(" & ".join(cells) + " \\\\")
    lines += ["\\hline", "\\end{tabular}", "\\end{table}"]
    return "\n".join(lines) + "\n"


def check_conjecture1(p: int, r: int, n_max: int) -> list[tuple[int, int, Kind]]:
    """Exceptions to "D is prime or p^ceil(log_p n)" for f = x(p^r x - 1), as
    (n, D_f(n), its `classify_value` Kind) triples in order of n.

    The conjectured form is read as a genuine prime power, p^max(1,
    ceil(log_p n)), so the unit value 1 (D at n = 1 only) is always reported
    as an exception even though it equals p^0. Each non-prime run of the
    oracle scan is compared with that form by `closedform._mismatches`: the
    form is nondecreasing in n, so a run that matches it at both ends matches
    at every n. An empty tail is evidence, never proof. The family comes from
    `closedform.prime_power_family`, which proves p prime (once per call) and
    caps r before anything is scanned.
    """
    exceptions: list[tuple[int, int, Kind]] = []
    for run in scan(prime_power_family(p, r), n_max):
        if ntheory.is_prime(run.value):
            continue
        kind = _classify(run.value, p)
        # lemma1_bound(p, r, n) from n = 2 on, without proving p prime again
        exceptions += [
            (n, run.value, kind) for n, _ in _mismatches(run, lambda n: p ** max(1, ntheory.ceil_log(p, n)))
        ]
    return exceptions


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


def _check_power_family(ds: Sequence[int], n_max: int, claim: str) -> Verdict:
    """Theorems 1 and 2: the oracle equals sun_power_formula for x(dx - 1)."""
    for d in ds:
        for run in scan(x_dx_minus_1(d), n_max):
            for n, expected in _mismatches(run, partial(sun_power_formula, d)):
                return Verdict(False, f"counterexample d={d} n={n}: oracle {run.value}, formula {expected}")
    return Verdict(True, f"{claim} for all n <= {n_max}")


def _check_theorem5(n_max: int) -> Verdict:
    """Bremser-Schumer-Washington for x^j: one warm-started scan per exponent."""
    notes = []
    for j in (2, 3, 4, 5, 6, 9):
        known = KNOWN_POWER_FORMULA_EXCEPTIONS.get(j, ())
        for run in scan(Polynomial.from_coeffs([0] * j + [1]), n_max):
            for n, formula in _mismatches(run, partial(bsw_discriminator, j)):
                detail = f"j={j} n={n}: oracle {run.value}, formula {formula}"
                if (n, run.value, formula) not in known:
                    return Verdict(False, f"counterexample {detail}")
                notes.append(f"known small-n exception {detail}")
    return Verdict(
        True,
        f"power formula matched the oracle for n <= {n_max} outside {len(notes)} known small-n exceptions",
        tuple(notes),
    )


def verify_theorem(theorem: int, n_max: Optional[int] = None, seed: int = DEFAULT_SEED) -> Verdict:
    """Check one of the paper's Theorems 1-5 against the brute-force oracle.

    `n_max` (default per theorem, >= 1) rises to 15 for Theorem 3, where the
    theorem starts; Theorem 4 checks it but samples 200 seeded (f, p, n).
    """
    if theorem not in (1, 2, 3, 4, 5):
        raise ValueError(f"unknown theorem {theorem}")
    if n_max is None:
        n_max = {1: 243, 2: 128, 3: 200, 5: 100}.get(theorem)
    elif n_max < 1:
        raise ValueError("n_max must be >= 1")
    if theorem == 1:
        return _check_power_family((3,), n_max, "d=3: oracle equals 3^ceil(log3 n)")
    if theorem == 2:
        return _check_power_family((2, 4, 8, 16), n_max, "d in {2,4,8,16}: oracle equals 2^ceil(log2 n)")
    if theorem == 3:
        n_max = max(15, n_max)
        violations = check_theorem3(n_max)
        if violations:
            n, m = violations[0]
            return Verdict(False, f"counterexample n={n} m={m}: discriminating but neither prime nor 2^k")
        return Verdict(True, f"no non-prime, non-power-of-two discriminating m <= 2.4n for 15 <= n <= {n_max}")
    if theorem == 4:
        trials = 200
        for report in sample_sandwich_trials(trials, seed):
            if not report.holds:
                return Verdict(False, (
                    f"counterexample f={report.f} p={report.p} n={report.n}: "
                    f"D_f={report.d_f}, D_pf={report.d_pf}"
                ))
        return Verdict(True, f"sandwich D_f <= D_pf <= p*D_f held for {trials} random (f, p, n)")
    return _check_theorem5(n_max)
