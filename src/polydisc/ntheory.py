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


def _odd_part(k: int) -> tuple[int, int]:
    """(d, s) with k = d * 2^s and d odd, for k > 0."""
    s = (k & -k).bit_length() - 1
    return k >> s, s


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    """Miller-Rabin: odd n > 2 is a strong probable prime to every base a.

    Writing n - 1 = d * 2^s, once for all bases, n passes base a when
    a^d = 1 or a^(d * 2^r) = -1 for some 0 <= r < s (all mod n).
    """
    d, s = _odd_part(n - 1)
    for a in bases:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    return True


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
    Q = (1 - D) / 4. Writing n + 1 = k * 2^s, n passes when U_k = 0 or
    V_(k * 2^r) = 0 for some 0 <= r < s (all mod n).

    Only the V sequence is computed. Since D U_k = 2 V_(k+1) - P V_k and
    (D/n) = -1 makes D a unit mod n, U_k = 0 exactly when 2 V_(k+1) = V_k.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    k, s = _odd_part(n + 1)
    # (V_j, V_(j+1), Q^j) from j = 0; each bit b of k, high to low, takes j
    # to 2j + b by V_2j = V_j^2 - 2Q^j and V_(2j+1) = V_j V_(j+1) - Q^j
    v, w, qj = 2, 1, 1
    for bit in bin(k)[2:]:
        if bit == "1":
            v, w, qj = (v * w - qj) % n, (w * w - 2 * qj * q) % n, qj * qj * q % n
        else:
            v, w, qj = (v * v - 2 * qj) % n, (v * w - qj) % n, qj * qj % n
    if 2 * w % n == v:
        return True  # U_k = 0
    for _ in range(s):
        if v == 0:
            return True
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
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
            return _miller_rabin(n, bases)
    return _miller_rabin(n, (2,)) and _strong_lucas_probable_prime(n)


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


def ceil_power(base: int, n: int) -> int:
    """The least power base^e >= n (e >= 0), in exact integer arithmetic.

    It is the quantity the paper's closed forms name: Sun's (2013)
    d^ceil(log_d n) for x(dx - 1) with d in {2, 3}, 2^ceil(log2 n) for
    d = 2^r, Lemma 1's bound p^ceil(log_p n) and Conjecture 1's form.
    """
    if base < 2:
        raise ValueError("ceil_power requires base >= 2")
    if n < 1:
        raise ValueError("ceil_power requires n >= 1")
    power = 1
    while power < n:
        power *= base
    return power


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
