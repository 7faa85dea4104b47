"""The paper's statements in closed form, each a function of n to check
against the brute-force oracle.

Sun's (2013) D = d^ceil(log_d n) for x(dx - 1) with d in {2, 3}, and its
d = 2^r extension (`sun_power_formula`); Lemma 1's bound (`lemma1_bound`);
the Bremser-Schumer-Washington characterization for x^j
(`bsw_discriminator`); and the three prime families behind the paper's
method for generating primes (`FAMILIES`, `sun_prime_discriminator`).
Theorem 4's sandwich has no closed form, so `check_theorem4` checks one
instance with two oracle calls. The checks that compare these formulas with
the oracle's runs live in `analysis`.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from typing import NamedTuple, Optional

from . import ntheory
from .discriminator import compute
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
        return ntheory.ceil_power(d, n)
    if d >= 2 and d & (d - 1) == 0:
        return ntheory.ceil_power(2, n)
    raise ValueError(f"no proven closed form for d={d} (need d in {{2, 3}} or d = 2^r)")


def lemma1_bound(p: int, r: int, n: int) -> int:
    """Upper bound p^ceil(log_p n) on D for x(p^r x - 1); independent of r."""
    if not ntheory.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 1 or n < 1:
        raise ValueError("r and n must be >= 1")
    return ntheory.ceil_power(p, n)


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


FAMILIES = {
    "2xx1": PrimeFamily("2x(x-1)", Polynomial.from_coeffs([0, -2, 2]), a=2, b=-2, c=1, residue=0, modulus=1),
    "4x4x1": PrimeFamily("4x(4x-1)", Polynomial.from_coeffs([0, -4, 16]), a=8, b=-4, c=3, residue=1, modulus=4),
    "18x3x1": PrimeFamily("18x(3x-1)", Polynomial.from_coeffs([0, -18, 54]), a=3, b=0, c=1, residue=1, modulus=3),
}


def sun_prime_discriminator(family: PrimeFamily, n: int) -> int:
    """Least prime past the family threshold in the family's residue class."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # p > (a*n + b)/c  <=>  p > floor((a*n + b)/c)  for integer p
    return ntheory.next_prime_satisfying((family.a * n + family.b) // family.c, family.residue, family.modulus)


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
