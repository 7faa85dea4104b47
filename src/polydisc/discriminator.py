"""Brute-force discriminator oracle.

D_f(n) is the least positive m under which f(1), ..., f(n) are pairwise
distinct mod m, or nonexistent when the values themselves collide. Each
search computes the exact values f(1..n) once and checks candidate moduli m
by reducing those integers mod m, read in one fixed scrambled order
(`_scramble`) so that a rejected candidate stops after a few values.

Every search starts where each smaller modulus is settled, meaning known
to fail: compute at n, below which n values cannot be distinct (pigeonhole),
and each of scan's searches just above the modulus that has just died. So a
search can skip the candidates that a smaller modulus decides. Holding
f(1..N), it takes c as the gcd of f(k) - f(1) over 1 < k <= min(N, deg f +
1), or 1 when all of those are 0. By Newton's forward differences every
f(l) - f(k) is an integer combination of f(2) - f(1), ..., f(deg f + 1) -
f(1), so c divides every difference of f(1..N). Let g = gcd(m, c) and x = m /
g. As gcd(x, c / g) = 1, for every integer e

    m | c e  <=>  x | (c / g) e  <=>  x | e,

so f(1..n) collide mod m exactly when the integers (f(i) - f(1)) / c
collide mod x: the identity behind Theorem 4's sandwich D_f <= D_pf <= p D_f.
When g > 1 (so x < m, and x is settled), m fails without a check if x < n,
since n integers share a residue mod x, or if gcd(x, c) = 1, since then
x | c e <=> x | e as well and m fails exactly when x does. Either way a
skipped m inherits a witness: a pair (k, l) with x | (f(l) - f(k)) / c, so
m | f(l) - f(k); in the second case it is x's own witness pair.

A quadratic f = a x^2 + b x + e names a colliding pair itself: f(l) - f(k) =
(l - k)(a(l + k) + b), so m fails once it divides a s + b for some s = l + k
that two indices in 1..n can make. That congruence is solvable exactly when
h = gcd(a, m) divides b, with s = (-b / h)(a / h)^-1 (mod m / h)
(`_quadratic_pair`). An odd s is made by the neighbours ((s - 1) / 2,
(s + 1) / 2), with f(l) - f(k) = a s + b, and an even s by (s / 2 - 1,
s / 2 + 1), with f(l) - f(k) = 2(a s + b); so the least solution s >= 3
gives a pair in range exactly when s <= 2n - 1. A search skips such an m,
unchecked, once the pair also collides in the exact values, so the algebra
can cost a check but never change an answer. Otherwise, as for the accepting
modulus, a pair splitting m across both factors, h not dividing b, or f of
another degree, m is checked.

A walk (`_first_repeat`) carries an accepting check at m on past its n
values to the modulus's death. It goes on from the shared stamp table when
m <= FLAT_TABLE_FACTOR * n, where the check left f(1..n) marked, and above
that, where the check marked a dict of its own, walks a fresh dict from f(1).
"""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import count, repeat
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .poly import Polynomial


class DiscriminatorResult(NamedTuple):
    """Minimal discriminating modulus (None = nonexistent) plus search stats."""

    value: Optional[int]
    n: int
    candidates_tested: int  # moduli checked in full; 0 when scan confirms D(n-1) by one lookup

    @property
    def exists(self) -> bool:
        return self.value is not None


# A search's check at m marks the residues it has seen in a table of m slots
# while m <= FLAT_TABLE_FACTOR * len(values), and in a dict above that, so its
# memory grows with len(values), not with m; indexing a slot is cheaper than
# hashing an int. A standalone check, which has no table to share, marks a
# dict at any m: an early exit allocates next to nothing, and a full walk
# takes 62 to 77 bytes per value for 256 to 10,000 values on CPython 3.11
# (dict entries plus the int objects).
# A search shares one stamp table across its candidates instead of allocating
# one for each: a list whose slot r holds the last modulus that saw residue
# r. A check marks r with m and rejects on a slot equal to m. A table must
# never see the same m twice; its moduli only increase, so a stale stamp never
# equals the current m and nothing is cleared between checks. A list, since a
# stamp is a whole modulus and CPython 3.11 specialises list[int] loads and
# stores, not byte-array ones. A slot is an 8-byte pointer, at most 512 bytes
# per value, plus one int object per modulus that still owns a slot.
# Only the checks and `_first_repeat`, which walks on from one, touch a slot.
FLAT_TABLE_FACTOR = 64

# Every search reads f(1..n) in one fixed scrambled order. For x(dx - 1),
# f(l) - f(k) = (l - k)(d(l + k) - 1), so mod a prime m above n two values
# collide only where l + k = 1/d mod m: read in natural order, a rejected
# check first meets such a pair near l = m/4; read in a scrambled order, it
# meets one of the about n/4 colliding pairs after about 2 sqrt(n) values (the
# birthday bound). Whether values are distinct mod m does not depend on the
# order, so the order moves only where a rejection stops. The position for
# index i is hash((_SCRAMBLE_SEED, i)) % (i + 1): CPython salts str and bytes
# hashes with PYTHONHASHSEED but not int and tuple ones, so on a given
# interpreter the scrambled order of values[:n] depends on n alone, and
# nothing is kept between calls.
_SCRAMBLE_SEED = 0x5EED


def is_discriminating(values: Sequence[int], m: int, stamps: Optional[list[int]] = None) -> bool:
    """True iff the integers in `values` are pairwise distinct mod m.

    Exits on the first repeated residue. The residues seen are marked m in
    one of two tables: `stamps`, a search's shared table, grown to m slots
    when shorter, when it is given and m <= FLAT_TABLE_FACTOR * len(values);
    otherwise a fresh dict of at most len(values) entries, and `stamps` is
    untouched. So memory grows with len(values), not with m. A shared table
    must never see the same m twice: every m passed with it must exceed every
    stamp already in it. A modulus that is not an integer raises TypeError on
    any path. The order of `values` sets only where a rejection stops, never
    the answer; the searches pass them in `_scramble`'s order.
    """
    m = operator.index(m)
    if not values or m < 1:
        raise ValueError("values must be nonempty and m must be >= 1")
    if stamps is None or m > FLAT_TABLE_FACTOR * len(values):
        table = defaultdict(int)
    else:
        table = stamps
        if len(stamps) < m:
            stamps.extend(repeat(0, m - len(stamps)))
    for v in values:
        r = v % m
        if table[r] == m:
            return False
        table[r] = m
    return True


def _first_repeat(values: Sequence[int], m: int, stamps: list[int], start: int) -> int:
    """Index of the first value whose residue mod m repeats an earlier one,
    looked for from values[start] on, or len(values). When start > 0, an
    accepting check `is_discriminating(values[:start], m, stamps)`, in any
    order, must come first. The walk picks its table as the module docstring
    says and marks each new residue m."""
    table = stamps
    if m > FLAT_TABLE_FACTOR * start:
        table, start = defaultdict(int), 0
    for i in range(start, len(values)):
        r = values[i] % m
        if table[r] == m:
            return i
        table[r] = m
    return len(values)


def _scramble(values: Sequence[int], order: list[int], n: int) -> list[int]:
    """Extend `order`, the scrambled values[:len(order)], to the scrambled
    values[:n] and return it.

    Inside-out Fisher-Yates: value i is appended and swapped with the one at
    position hash((_SCRAMBLE_SEED, i)) % (i + 1), which depends on i alone.
    So every prefix is a scrambled permutation, each value costs O(1), and
    extending in several steps gives the same list as in one.
    """
    for i in range(len(order), n):
        j = hash((_SCRAMBLE_SEED, i)) % (i + 1)
        order.append(values[i])
        order[i], order[j] = order[j], order[i]
    return order


def trivial_upper_bound(values: Sequence[int]) -> Optional[int]:
    """max - min + 1 of `values` when they are distinct, else None.

    Any m at or above the spread fits the distinct values into distinct
    residues, so the minimal discriminating m exists at or below this bound.
    """
    if not values:
        raise ValueError("values must be nonempty")
    if len(set(values)) < len(values):
        return None
    return max(values) - min(values) + 1


def _first_equal(values: Sequence[int]) -> int:
    """Index of the first value equal to an earlier one, or len(values)."""
    seen: set[int] = set()
    for i, v in enumerate(values):
        if v in seen:
            return i
        seen.add(v)
    return len(values)


def _quadratic_pair(a: int, b: int, m: int, n: int) -> Optional[tuple[int, int]]:
    """The pair (k, l), 1 <= k < l <= n, that the least s = l + k >= 3 with
    m | a s + b makes (see the module docstring), so that m | f(l) - f(k) for
    f = a x^2 + b x + e; None when gcd(a, m) does not divide b or that s
    exceeds 2n - 1. `a` must be nonzero."""
    h = gcd(a, m)
    if b % h:
        return None
    step = m // h
    s = 3 + (-(b // h) * pow(a // h, -1, step) - 3) % step
    if s >= 2 * n:
        return None
    return ((s - 1) // 2, (s + 1) // 2) if s & 1 else (s // 2 - 1, s // 2 + 1)


def _least_modulus(
    values: Sequence[int], lower: int, stamps: list[int], f: Polynomial, exact: Sequence[int]
) -> DiscriminatorResult:
    """The least m >= lower under which the distinct integers `values`,
    f(1..n) in any order, are pairwise distinct, where `exact` holds f(1..N)
    in order and N >= n.

    The candidates it checks share the stamp table `stamps`, whose moduli
    must all lie below `lower`. Callers pass the values in `_scramble`'s
    order, so a rejected candidate stops after a few of them; any order
    gives the same answer and count.

    A candidate is skipped, unchecked and uncounted, by the rules of the
    module docstring: for its c, a modulus x = m / gcd(m, c) that is settled,
    meaning known to fail, and for a quadratic f, a colliding pair. Every
    modulus below `lower` must be settled, as it is when the search starts at
    n (pigeonhole) or just above a modulus that has just died, in a scan. So
    `candidates_tested` counts is_discriminating calls.

    Two distinct values differ by some d with 0 < |d| <= max - min, and no m
    above that spread divides d, so every such m discriminates and the count
    ends without a cap.
    """
    n, tested = len(values), 0
    c = gcd(*(v - exact[0] for v in exact[1:len(f.coeffs)])) or 1
    quadratic = f.degree == 2
    if quadratic:
        _, b, a = f.coeffs
    for m in count(lower):
        g = gcd(m, c)
        if g > 1:
            x = m // g
            if x < n or gcd(x, c) == 1:
                continue
        if quadratic:
            pair = _quadratic_pair(a, b, m, n)
            if pair is not None and (exact[pair[1] - 1] - exact[pair[0] - 1]) % m == 0:
                continue
        tested += 1
        if is_discriminating(values, m, stamps):
            return DiscriminatorResult(m, n, tested)


def compute(f: Polynomial, n: int) -> DiscriminatorResult:
    """The least m that discriminates f(1..n), or value None when those values
    collide.

    The search starts at n, below which no modulus discriminates
    (pigeonhole), reads f(1..n) in `_scramble`'s order and skips candidates
    by the module docstring's rules.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = f.values(n)
    if _first_equal(values) < n:
        return DiscriminatorResult(None, n, 0)
    return _least_modulus(_scramble(values, [], n), n, [], f, values)


def scan(f: Polynomial, n_max: int) -> list[DiscriminatorResult]:
    """compute(f, n) for n = 1..n_max, walking each m = D(n-1) to its death.

    D_f(n) >= D_f(n-1), so m holds until f(n) repeats a residue mod m: one
    lookup per surviving n, one search above m per death. Each search reads
    f(1..n) in `_scramble`'s order, one list extended from death to death,
    and the searches and walks share one stamp table. A repeated value
    collides mod every m, so it is looked for only at a death; from there on
    D(n) is undefined.

    A search starts at m + 1, which is at least n since m = D(n-1) >= n-1.
    Every modulus below it is settled, as the module docstring's skip rules
    ask: below n by pigeonhole, below m since m was least for f(1..n-1), and
    m itself by its death.

    The first exact repeat is found once, by one set pass (`_first_equal`);
    a death at its index ends the scan.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = f.values(n_max)
    repeat_at = _first_equal(values)
    order: list[int] = []  # f(1..n) scrambled, for the last search's n
    results: list[DiscriminatorResult] = []
    stamps: list[int] = []
    m, start = 1, 0  # m accepted f(1..start); m = 1 discriminates the empty prefix
    while True:
        death = _first_repeat(values, m, stamps, start)
        results.extend(DiscriminatorResult(m, k, 0) for k in range(len(results) + 1, death + 1))
        if death == n_max:
            return results
        n = death + 1
        if death == repeat_at:
            return results + [DiscriminatorResult(None, k, 0) for k in range(n, n_max + 1)]
        order = _scramble(values, order, n)
        results.append(_least_modulus(order, m + 1, stamps, f, values))
        m, start = results[-1].value, n
