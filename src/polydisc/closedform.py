"""Closed-form discriminator formulas and bounds, all oracle-checkable."""

from __future__ import annotations

import bisect
import itertools
import random
from math import gcd, prod
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional

from . import ntheory
from .discriminator import Run, compute, scan
from .poly import MAX_EXPONENT, Polynomial


def x_dx_minus_1(d: int) -> Polynomial:
    """The quadratic family x(dx - 1) as coefficients [0, -1, d]."""
    return Polynomial.from_coeffs([0, -1, d])


def prime_power_family(p: int, r: int) -> Polynomial:
    """x(p^r x - 1), the family of Sun's Theorem 1 and Conjecture 1.

    Refuses a non-prime p and an r outside 1..poly.MAX_EXPONENT: p^r is built
    exactly, so the exponent has the parser's cap.
    """
    if not ntheory.is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r > MAX_EXPONENT:
        raise ValueError(f"r={r} exceeds the cap {MAX_EXPONENT}")
    return x_dx_minus_1(p ** r)


def sun_power_formula(d: int, n: int) -> int:
    """D for x(dx - 1): d^ceil(log_d n) when d in {2, 3}, 2^ceil(log2 n) when d = 2^r.

    Refuses any other d; the formula is only proven for these families.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if d in (2, 3):
        return d ** ntheory.ceil_log(d, n)
    if d >= 2 and d & (d - 1) == 0:
        return 2 ** ntheory.ceil_log(2, n)
    raise ValueError(f"no proven closed form for d={d} (need d in {{2, 3}} or d = 2^r)")


def lemma1_bound(p: int, r: int, n: int) -> int:
    """Upper bound p^ceil(log_p n) on D for x(p^r x - 1); independent of r."""
    if not ntheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or n < 1:
        raise ValueError("r and n must be >= 1")
    return p ** ntheory.ceil_log(p, n)


def bsw_discriminator(j: int, n: int) -> int:
    """D for x^j by the Bremser-Schumer-Washington characterization.

    Odd j: least squarefree k >= n with gcd(phi(k), j) = 1.
    Even j: least k >= 2n of the form q or 2q (q prime) with gcd(phi(k), j) = 2.
    The even branch admits k = 4 = 2*2 literally. Each k is factored, so a k
    at or above ntheory.FACTOR_LIMIT raises ValueError.
    """
    if j < 1 or n < 1:
        raise ValueError("j and n must be >= 1")
    if j % 2 == 1:
        for k in itertools.count(n):
            factors = ntheory.factorize(k)  # squarefree k: phi(k) = prod(p - 1)
            if all(e == 1 for _, e in factors) and gcd(prod(p - 1 for p, _ in factors), j) == 1:
                return k
    for k in itertools.count(2 * n):
        if ntheory.is_prime(k) or (k % 2 == 0 and ntheory.is_prime(k // 2)):
            if gcd(ntheory.euler_phi(k), j) == 2:
                return k


class PrimeFamily(NamedTuple):
    """A polynomial whose discriminator is the least prime past a threshold.

    The threshold is the exact rational (a*n + b) / c, with a, c > 0 so that
    it rises with n; the progression constraint is p = residue (mod modulus).
    """

    tag: str
    polynomial: Polynomial
    a: int
    b: int
    c: int
    residue: int
    modulus: int

    def threshold_floor(self, n: int) -> int:
        # p > (a*n + b)/c  <=>  p > floor((a*n + b)/c)  for integer p
        return (self.a * n + self.b) // self.c


TWO_X_XMINUS1 = PrimeFamily(
    "2x(x-1)", Polynomial.from_coeffs([0, -2, 2]), a=2, b=-2, c=1, residue=0, modulus=1
)
FOUR_X_4XMINUS1 = PrimeFamily(
    "4x(4x-1)", Polynomial.from_coeffs([0, -4, 16]), a=8, b=-4, c=3, residue=1, modulus=4
)
EIGHTEEN_X_3XMINUS1 = PrimeFamily(
    "18x(3x-1)", Polynomial.from_coeffs([0, -18, 54]), a=3, b=0, c=1, residue=1, modulus=3
)

FAMILIES = {
    "2xx1": TWO_X_XMINUS1,
    "4x4x1": FOUR_X_4XMINUS1,
    "18x3x1": EIGHTEEN_X_3XMINUS1,
}


def sun_prime_discriminator(family: PrimeFamily, n: int) -> int:
    """Least prime past the family threshold in the family's residue class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ntheory.next_prime_satisfying(
        family.threshold_floor(n), family.residue, family.modulus
    )


# The prime-family formulas are verified from this n onward; the 4x(4x-1)
# and 18x(3x-1) forms disagree with the oracle below it.
FAMILY_VALID_FROM = 5


def _mismatches(run: Run, formula: Callable[[int], int]) -> Iterator[tuple[int, int]]:
    """(n, formula(n)) for each n of `run` where `formula` differs from the
    run's value, in order of n.

    The formula must be nondecreasing in n, while a run holds one value. So
    where the formula equals that value at both ends of the run, it is
    squeezed to it at every n between, and the run is read at its ends
    only; only a run that differs at an end is read n by n.
    """
    n_low, n_high, value, _ = run
    if formula(n_high) == value and (n_low == n_high or formula(n_low) == value):
        return
    for n in range(n_low, n_high + 1):
        expected = formula(n)
        if expected != value:
            yield n, expected


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
    last prime. Each oracle run, clipped to n >= FAMILY_VALID_FROM, is
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
    return primes, [(n, expected, run.value) for run in clipped for n, expected in _mismatches(run, formula)]


class SandwichReport(NamedTuple):
    """Outcome of checking D_f(n) <= D_{pf}(n) <= p * D_f(n) via the oracle."""

    f: Polynomial
    p: int
    n: int
    d_f: Optional[int]
    d_pf: Optional[int]
    holds: bool


def check_theorem4(f: Polynomial, p: int, n: int) -> SandwichReport:
    """Oracle-computed sandwich check for f versus p*f.

    Both sides come from the brute-force oracle, never a closed form, so the
    check cannot be circular. Nonexistent D_f implies nonexistent D_{pf}
    (the same value collisions survive scaling) and counts as holding.

    The sandwich rests on one identity: with c dividing every difference,
    f(1..n) collide mod m exactly when (f(i) - f(1)) / c collide mod
    m / gcd(m, c). The D_pf search uses that identity itself: the moduli
    with one m / gcd(m, c) share a fate, so it skips each m whose class has
    a smaller member, already settled (`discriminator._least_modulus`). Here
    the oracle leans on the reasoning it checks; the all-pairs differential
    tests over scaled polynomials, which use neither, keep it honest.
    """
    if not ntheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    r_f = compute(f, n)
    r_pf = compute(f.scale(p), n)
    if r_f.value is None:
        holds = r_pf.value is None
    else:
        holds = r_pf.value is not None and r_f.value <= r_pf.value <= p * r_f.value
    return SandwichReport(f, p, n, r_f.value, r_pf.value, holds)


SANDWICH_MAX_DEGREE = 3
SANDWICH_COEFF_BOUND = 9
SANDWICH_PRIMES = (2, 3, 5)
SANDWICH_N_MAX = 40


def sample_sandwich_trials(count: int, seed: int) -> Iterator[SandwichReport]:
    """Seeded random (f, p, n) sandwich checks for property testing."""
    rng = random.Random(seed)
    for _ in range(count):
        degree = rng.randint(0, SANDWICH_MAX_DEGREE)
        coeffs = [rng.randint(-SANDWICH_COEFF_BOUND, SANDWICH_COEFF_BOUND) for _ in range(degree + 1)]
        f = Polynomial.from_coeffs(coeffs)
        p = rng.choice(SANDWICH_PRIMES)
        n = rng.randint(1, SANDWICH_N_MAX)
        yield check_theorem4(f, p, n)
