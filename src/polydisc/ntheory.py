"""Elementary number theory: primality, factorization, totient, progressions."""

from __future__ import annotations

from itertools import accumulate, chain, count, cycle
from math import gcd, isqrt

# The trial divisors of is_prime, and the witness set of the ladder's top row.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Deterministic Miller-Rabin witness sets (threshold, bases): each set is
# proven correct for every n below its threshold. The last threshold is the
# least strong pseudoprime to all 13 of its bases; at and above it is_prime
# runs BPSW instead.
_MR_LADDER = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_317_044_064_679_887_385_961_981, _SMALL_PRIMES),
)

# factorize trial-divides, so it refuses n at and above this bound: its
# slowest input, the prime 999,999,999,989, takes about 0.03 s (CPython 3.11,
# one core of a 2-vCPU Xeon VM). A search visits every modulus up to the D
# it finds, so no run reaches the bound.
FACTOR_LIMIT = 10 ** 12


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: odd n > 2 is a strong probable prime to base a."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1; P = 1 and
    Q = (1 - D) / 4. Writing n + 1 = d * 2^s, n passes when U_d = 0 or
    V_(d * 2^r) = 0 for some 0 <= r < s (all mod n).
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4

    def half(v: int) -> int:
        v %= n
        return (v + n) // 2 if v % 2 else v // 2

    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # U_1 = 1, V_1 = P = 1; double and add along the bits of k
    u, v, qk = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = half(u + v), half(d * u + v)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test, deterministic below 3_317_044_064_679_887_385_961_981.

    Below that bound Miller-Rabin runs with witness sets proven correct for
    the range. From it on, the test is Baillie-PSW (Miller-Rabin to base 2
    plus a strong Lucas test): no known counterexample, but not a proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    for threshold, bases in _MR_LADDER:
        if n < threshold:
            return all(_strong_probable_prime(n, a) for a in bases)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as ascending (prime, exponent) pairs; 1 -> [].

    Trial division by 2, 3, 5 and then the mod-30 wheel from 7, one itertools
    chain walked up to sqrt(n), so 1 <= n < FACTOR_LIMIT is required.
    """
    if not 1 <= n < FACTOR_LIMIT:
        raise ValueError(f"factorize requires 1 <= n < {FACTOR_LIMIT:,}")
    factors = []
    for d in chain((2, 3, 5), accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7)):
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
    if n > 1:  # no factor up to its square root: a prime
        factors.append((n, 1))
    return factors


def euler_phi(n: int) -> int:
    """Euler totient via factorization."""
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def ceil_log(base: int, n: int) -> int:
    """Smallest e >= 0 with base**e >= n, exact integer arithmetic."""
    if base < 2:
        raise ValueError("ceil_log requires base >= 2")
    if n < 1:
        raise ValueError("ceil_log requires n >= 1")
    e = 0
    power = 1
    while power < n:
        power *= base
        e += 1
    return e


def next_prime_satisfying(lower: int, residue: int, modulus: int) -> int:
    """Smallest prime p > lower with p = residue (mod modulus).

    Terminates by Dirichlet when gcd(residue, modulus) = 1 or modulus = 1;
    an infeasible residue class contains at most one prime (the gcd itself),
    which is tried before failing.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    residue %= modulus
    g = gcd(residue, modulus)
    if g > 1:
        if g > lower and g % modulus == residue and is_prime(g):
            return g
        raise ValueError(
            f"residue class {residue} mod {modulus} contains no prime > {lower}"
        )
    start = lower + 1 + (residue - lower - 1) % modulus
    return next(filter(is_prime, count(start, modulus)))
