"""Brute-force discriminator oracle.

D_f(n) is the least positive m under which f(1), ..., f(n) are pairwise
distinct mod m, or nonexistent when the values themselves collide. Write
T(m), the death time of m, for the least l at which f(1..l) collide mod m:
D_f(n) is the least m with T(m) > n. A search tries candidates m upward and
asks each one test, its death at n: T(m) - 1, the last n' at which f(1..n')
are distinct mod m, when m is alive at n (T(m) > n), and some number below
n otherwise. So the search that accepts m also hands scan the last n of
m's run. A path answers the test in one of two ways.

A quadratic f = a x^2 + b x + e is decided by arithmetic, reading no value
of f. With d = l - k and s = l + k, f(l) - f(k) = d (a s + b), and for u =
gcd(m, d) m divides it exactly when m / u divides a s + b. A pair with d a
multiple of u and d >= 3u has a twin with the same s, d - 2u and a smaller
l, so T(m) is the least l = k + d over the divisors u of m, d in {u, 2u}
and k >= 1 with m / u | 2a k + a d + b (`_pair_time`); u = m gives the
pigeonhole bound T(m) <= m + 1. `_death_time` tries u = 1, then the part of
m built from a's primes, then, for a composite m, every divisor u with u + 1
below the least l found so far, in pairs (u, m / u) by one walk up to
sqrt(m), and a rejection stops at the first l <= n. The values collide
exactly when a s + b = 0 for an integer s >= 3, from n = s // 2 + 1 on.

Most candidates die at u = 1, where l = s // 2 + 1 for the least s >= 3
with m | a s + b. Once m > 3a + b >= 1 (with a > 0, negating f if need be),
that s has a s + b = j m for some j in [1, a], and whether a | j m - b
depends on m only through m mod a. So one table of a cofactors
(`_cofactors`) gives the least s of every such m, and a scan's searches
drop the moduli it shows dead without calling `_death_time`
(`_Quadratic.candidates`). Whether the table is built is read off f and
n_max alone: when 3a + b >= 1 and n_max >= 7a + b + 1, so it never holds
more than n_max / 4 entries.

Any other f is decided by its values: each search computes f(1..n) once and
checks candidate moduli m by reducing those integers mod m, read in one
fixed scrambled order (`_scramble`) so that a rejected candidate stops
after a few values.

Either way, every search starts where each smaller modulus is settled,
meaning known to fail: compute at n, below which n values cannot be
distinct (pigeonhole), and each of scan's searches just above the modulus
that has just died. So a search can skip the candidates that a smaller
modulus decides. Let c divide every difference of f(1..n): the gcd of f(k)
- f(1) over 1 < k <= min(n, deg f + 1), or 1 when all of those are 0, since
by Newton's forward differences every f(l) - f(k) is an integer combination
of f(2) - f(1), ..., f(deg f + 1) - f(1); for a quadratic, gcd(3a + b, 2a).
Let g = gcd(m, c) and x = m / g. As gcd(x, c / g) = 1, for every integer e

    m | c e  <=>  x | (c / g) e  <=>  x | e,

so f(1..n) collide mod m exactly when the integers (f(i) - f(1)) / c
collide mod x: the identity behind Theorem 4's sandwich D_f <= D_pf <= p D_f.
So every modulus with the same x shares m's fate, and the least of them
is x times the part of c built from x's primes. m fails without a check
when that fate is settled: when x < n, since n integers share a residue
mod x, or when some prime of g does not divide x, since then the least
modulus of the class lies below m and is settled. x^k mod g, for k =
g.bit_length() above every exponent in g, is 0 exactly when every prime
of g divides x. A skipped m inherits a witness: a pair (k, l) with
x | (f(l) - f(k)) / c, so m | f(l) - f(k), the pair that witnesses the
least modulus of its class in the second case.

The prime test reads m only through m mod c rad(c), where rad(c) is the
product of c's primes: a prime p of c, p^e || c, divides g but not x
exactly when p divides m and p^(e + 1) does not. So the value path drops
the moduli it fails before they reach Python, by a periodic byte table
(`_classes`) read inside itertools; the prime test then passes every
survivor, and only the x < n test skips one. Whether the table is built is
read off f and n_max alone, once, when the path is built (`_Values`): when
c rad(c) <= FLAT_TABLE_FACTOR * n_max, the stamp list's own bound, so the
table's memory grows with n, not with m. Each search only enters its cycle
at lower mod its period. A quadratic's searches, which the u = 1 sieve
already thins, run the whole rule on each candidate.

On the value path the test of m at n picks m's residue table once: the
search's shared stamp list when m <= FLAT_TABLE_FACTOR * n, a fresh dict
above that. The list grows in steps, to min(2m, FLAT_TABLE_FACTOR * n)
slots when m passes its length, not by one slot per candidate. A check of
f(1..n) marks the table and answers 0 when it rejects; when it accepts, a
walk (`_first_repeat`) carries on in the same table, where the check left
f(1..n) marked, from f(n + 1) to the modulus's death. So each accepted
modulus is walked once, by the search that accepts it, and no value is
read twice.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from itertools import chain, compress, count, cycle, repeat
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional, Sequence

from .ntheory import factorize, is_prime
from .poly import Polynomial


class Run(NamedTuple):
    """D_f(n) = value for n_low <= n <= n_high (None = nonexistent), and the
    candidates that the search which found the value tested."""

    n_low: int
    n_high: int
    value: Optional[int]
    candidates_tested: int  # is_discriminating calls; 0 for a quadratic, decided by arithmetic


# The value path's test of m at n (`_Values.at`), the one place that picks a
# residue table, marks the search's shared list, grown in steps to at least m
# and at most FLAT_TABLE_FACTOR * n slots, while m <= FLAT_TABLE_FACTOR * n,
# and a fresh dict above that, so its memory grows with n, not with m;
# indexing a slot is cheaper than hashing an int. A dict takes 62 to 77 bytes
# per value for 256 to 10,000 values on CPython 3.11 (dict entries plus the
# int objects), and a check that exits early allocates next to nothing. The
# list is a stamp table, shared across a search's candidates instead of
# allocated for each: slot r holds the last modulus that saw residue r. A
# check marks r with m and rejects on a slot equal to m. A table must never
# see the same m twice; its moduli only increase, so a stale stamp never
# equals the current m and nothing is cleared between checks. A list, since a
# stamp is a whole modulus and CPython 3.11 specialises list[int] loads and
# stores, not byte-array ones. A slot is an 8-byte pointer, at most 512 bytes
# per value, plus one int object per modulus that still owns a slot. Only the
# checks and `_first_repeat`, which walks on from one, touch a slot.
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

def is_discriminating(values: Sequence[int], m: int, stamps: list[int] | dict[int, int] | None = None) -> bool:
    """True iff the integers in `values` are pairwise distinct mod m.

    Exits on the first repeated residue. The residues seen are marked m in
    `stamps`, a list of at least m slots or a dict, or in a fresh dict of at
    most len(values) entries when `stamps` is None. A table is marked as
    given, never grown or swapped; the value path's test picks it (see
    FLAT_TABLE_FACTOR). A shared table must never see the same m twice:
    every m passed with it must exceed every stamp already in it. A modulus
    that is not an integer raises TypeError. The order of `values` sets only
    where a rejection stops, never the answer; the searches pass them in
    `_scramble`'s order.
    """
    m = operator.index(m)
    if not values or m < 1:
        raise ValueError("values must be nonempty and m must be >= 1")
    table = defaultdict(int) if stamps is None else stamps
    for v in values:
        r = v % m
        if table[r] == m:
            return False
        table[r] = m
    return True


def _first_repeat(values: Sequence[int], m: int, table: list[int] | dict[int, int], start: int) -> int:
    """Index of the first value whose residue mod m repeats an earlier one,
    looked for from values[start] on, or len(values). An accepting check
    `is_discriminating(values[:start], m, table)`, in any order, must come
    first, on the same table; its two callers, `_Values.at` and
    `analysis.check_theorem3`, each make that check just before the walk.
    The walk marks each new residue m in that table."""
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


def _pair_time(a: int, b: int, m: int, u: int) -> int:
    """The least l = k + d over d in {u, 2u} and k >= 1 with
    m / u | 2a k + a d + b, or m + 1 when there is none; u must divide m."""
    step = m // u
    h = gcd(2 * a, step)
    step //= h
    inverse = pow(2 * a // h, -1, step)
    best = m + 1
    for d in (u, 2 * u):
        e = -(a * d + b)
        if e % h == 0:
            best = min(best, d + 1 + (e // h * inverse - 1) % step)
    return best


def _cofactors(a: int, b: int) -> list[int]:
    """J[r], for 0 <= r < a, is the least j >= 1 with a | j r - b, or 2a + 1,
    above every such j, when there is none; a >= 1.

    With h = gcd(a, r), a | j r - b exactly when h | b and j = (b/h)
    (r/h)^-1 mod a/h. Let m > 3a + b >= 1. The s >= 3 with m | a s + b
    repeat with a period dividing m, so the least is at most m + 2, and
    0 < a s + b <= a m + 2a + b < (a + 1) m: a s + b = j m with 1 <= j <= a.
    As s grows with j, and a | j m - b depends on m only through r = m mod
    a, the least s is (J[m mod a] m - b) / a, and there is none when
    J[m mod a] is 2a + 1."""
    J = [2 * a + 1] * a
    for r in range(a):
        h = gcd(a, r)
        if b % h == 0:
            step = a // h
            J[r] = (b // h * pow(r // h, -1, step) - 1) % step + 1
    return J


def _death_time(a: int, b: int, m: int, n: int) -> int:
    """T(m) for f = a x^2 + b x + e when T(m) > n, else some l <= n at which
    f(1..l) collide mod m, by the module docstring's stages. n = 0 gives T(m).
    a and b are reduced mod m once per call, so a coefficient of 300,000
    digits costs its digits once per candidate, not once per value.

    Let best0 be the least l after the u = 1 and a-part stages. A prime m
    has no divisor in 2..sqrt(m), so `ntheory.is_prime` ends its test there
    and the walk runs on composites alone. The walk takes u from 2 to
    min(isqrt(m), best0 - 2), odd u alone when m is odd, and tries each
    divisor v in (u, m / u) while v + 1 < best, as d >= v gives l >= v + 1.
    It misses no divisor that could lower best: a v with v + 1 < best <=
    best0 is either such a u, when v <= sqrt(m), or the cofactor of one, as
    m / v < v <= best0 - 2 when v > sqrt(m)."""
    a, b = a % m, b % m
    h, best = gcd(a, m), m + 1
    if b % h == 0:  # u = 1: l = s // 2 + 1 for the least s = l + k >= 3 with m | a s + b
        step = m // h
        best = (3 + (-(b // h) * pow(a // h, -1, step) - 3) % step) // 2 + 1
        if best <= n:
            return best
    rest = m  # m without a's primes
    while (g := gcd(rest, a)) > 1:
        rest //= g
    if rest < m:
        best = min(best, _pair_time(a, b, m, m // rest))
        if best <= n:
            return best
    if is_prime(m):  # no divisor in 2..sqrt(m) to walk
        return best
    # the divisor pairs (u, m / u), u <= sqrt(m); an odd m has odd divisors alone
    for u in (u for u in range(2 + m % 2, min(isqrt(m), best - 2) + 1, 1 + m % 2) if m % u == 0):
        for v in (u, m // u):
            if v + 1 < best:  # l >= d + 1 >= v + 1
                best = min(best, _pair_time(a, b, m, v))
                if best <= n:
                    return best
    return best


def _classes(period: int, primes: list[tuple[int, int]]) -> memoryview:
    """The common-difference rule's prime test as a table of its period,
    c rad(c) for the c > 1 whose factorization is `primes`: keep[r] is 1
    when every m = r mod the period passes, and 0 when the rule skips every
    such m.

    m passes when each prime p of c, p^e || c, has p not dividing m or
    p^(e + 1) dividing m, and p^(e + 1) divides the period. So each prime
    clears the multiples of p but puts back the marks, set by the other
    primes, of the multiples of p^(e + 1): three slice assignments in C.
    `_Values` builds it once per path, when the period is at most
    FLAT_TABLE_FACTOR * n_max, so its bytes grow with n_max, not with m."""
    keep = bytearray(b"\1") * period
    for p, e in primes:
        q = p ** (e + 1)
        kept = keep[::q]
        keep[::p] = bytes(period // p)
        keep[::q] = kept
    return memoryview(keep)


class _Values:
    """The value path: f(1..n_max) exactly, their scrambled prefix for the
    last search, the stamp table that searches and walks share, and the
    class table (`_classes`) when its period fits the stamp list's bound. A
    test at n returns 0 for a rejected m and, for an accepted one, the index
    of the first repeat mod m, len(values) = n_max when there is none.

    The class table is decided here, from f and n_max, never inside a
    search. With flat = FLAT_TABLE_FACTOR * n_max, c is factored only when
    2c <= flat, as c rad(c) >= 2c for c > 1, and the table is built only
    when c rad(c) <= flat: at most flat bytes, an eighth of the stamp
    list's bound, in O(flat) steps in C. c <= 32 n_max stays below
    ntheory.FACTOR_LIMIT: the path holds a list of n_max values, 8 bytes a
    slot at least, so n_max is far below FACTOR_LIMIT / 32, about 3 * 10^10
    (250 GB of slots), and the wheel's sqrt(32 n_max) steps are fewer than
    the n_max values the path computes once n_max >= 32. The table skips
    exactly the moduli that `_least_modulus`'s prime test skips, so whether
    it is built changes no search's answer or count, only where the test
    runs.
    """

    def __init__(self, f: Polynomial, n_max: int):
        self.values = f.values(n_max)
        self.repeat = _first_equal(self.values)
        self.c = c = gcd(*(v - self.values[0] for v in self.values[1:len(f.coeffs)])) or 1
        self.order: list[int] = []
        self.stamps: list[int] = []
        self.tested = 0
        self.keep: Optional[memoryview] = None
        flat = FLAT_TABLE_FACTOR * n_max
        if 1 < c and 2 * c <= flat:
            primes = factorize(c)
            period = c * prod(p for p, _ in primes)
            if period <= flat:
                self.keep = _classes(period, primes)

    def candidates(self, lower: int, n: int):
        """The moduli from `lower` up, less, when the path has a class table,
        those whose residue mod its period fails the prime test. The search
        enters the table's cycle at lower mod its period without copying it,
        and neither factors nor builds anything."""
        if (keep := self.keep) is None:
            return count(lower)
        return compress(count(lower), chain(keep[lower % len(keep):], cycle(keep)))

    def at(self, n: int):
        """The death of m at n: a check of the scrambled f(1..n), counted in
        `tested`, then, when it accepts, the walk on to the first repeat, both
        on the table that FLAT_TABLE_FACTOR picks for m. The shared list grows
        in steps: a test of an m past its length extends it to
        min(2m, FLAT_TABLE_FACTOR * n) slots, at least m and never more than
        the bound, so most tests find it long enough."""
        values, stamps, flat = self.values, self.stamps, FLAT_TABLE_FACTOR * n
        order = _scramble(values, self.order, n)

        def death(m: int) -> int:
            self.tested += 1
            if m > flat:
                table = defaultdict(int)
            else:
                table = stamps
                if len(stamps) < m:
                    stamps.extend(repeat(0, min(2 * m, flat) - len(stamps)))
            return _first_repeat(values, m, table, n) if is_discriminating(order, m, table) else 0

        return death


class _Quadratic:
    """The arithmetic path for f = a x^2 + b x + e: no value of f is read and
    no candidate is checked in full, so `tested` stays 0. A test at n returns
    `_death_time` less 1: T(m) - 1, not capped at n_max, when T(m) > n, as
    the accepting test takes the exact minimum over the divisors of m. So
    the death needs no second computation, and no modulus's divisors are
    walked twice.

    The path keeps a > 0, negating a and b when a < 0, since -f has the same
    collisions mod every m.

    The u = 1 sieve. Let start = 3a + b + 1. When start >= 2, `_cofactors`
    gives every m >= start its least s at u = 1, (J m - b) / a. A search at
    n from lower >= start then drops, inside itertools, each m with J m <= a
    (2n - 1) + b, that is s <= 2n - 1, which dies at u = 1 by n;
    `_death_time` decides the rest. As m >= n and m > 3a + b, a (2n - 1) + b
    < (2a + 1) m, so J = 2a + 1, for no s, keeps m. J costs about one u = 1
    test per residue, so it is built only when n_max >= start + 4a: a scan
    to n_max visits every modulus up to D(n_max) >= n_max, at least 4a of
    them above start, while a compute at a smaller n, such as Theorem 4's
    sandwich trials, ends within a few dozen candidates. Every other search
    tests each candidate from u = 1. A search enters the cycle of J at
    lower mod a without copying it, so its cost does not grow with a.
    """

    tested = 0

    def __init__(self, f: Polynomial, n_max: int):
        _, b, a = f.coeffs
        if a < 0:
            a, b = -a, -b
        s = -b // a
        self.a, self.b = a, b
        self.repeat = min(s // 2, n_max) if a * s + b == 0 and s >= 3 else n_max
        self.c = gcd(3 * a + b, 2 * a)
        self.start = 3 * a + b + 1
        sieved = 2 <= self.start and self.start + 4 * a <= n_max
        self.cofactors = _cofactors(a, b) if sieved else None

    def candidates(self, lower: int, n: int):
        """The moduli from `lower` up, less those the sieve shows dead by n."""
        J, a = self.cofactors, self.a
        if J is None or lower < self.start:
            return count(lower)
        J = chain(map(J.__getitem__, range(lower % a, a)), cycle(J))
        bound = a * (2 * n - 1) + self.b
        return compress(count(lower), map(bound.__lt__, map(operator.mul, J, count(lower))))

    def at(self, n: int):
        """The death of m at n, T(m) - 1 when T(m) > n, by `_death_time`."""
        return lambda m: _death_time(self.a, self.b, m, n) - 1


def _path(f: Polynomial, n_max: int):
    """How searches on f(1..n), n <= n_max, decide a modulus."""
    return (_Quadratic if f.degree == 2 else _Values)(f, n_max)


def _least_modulus(path, lower: int, n: int) -> tuple[int, int, int]:
    """(m, death, tested): the least m >= lower alive at n, decided by
    `path`, its death (T(m) - 1, capped at n_max on the value path alone)
    and the candidates the search checked in full.

    The path lists the candidates, leaving out those it already knows dead
    (a quadratic's u = 1 sieve) or skipped (the value path's class table).
    A candidate is skipped, unchecked and uncounted, by the module
    docstring's common-difference rule. Every
    modulus below `lower` must be settled, as it is when the search starts
    at n (pigeonhole) or just above a modulus that has just died, in a scan.
    So `tested` counts the path's full checks: is_discriminating calls on
    the value path.

    Two distinct values differ by some d with 0 < |d| <= max - min, and no m
    above that spread divides d, so every such m discriminates and the count
    ends without a cap.
    """
    death_of, c, tested = path.at(n), path.c, path.tested
    for m in path.candidates(lower, n):
        g = gcd(m, c)
        if g > 1 and ((x := m // g) < n or pow(x, g.bit_length(), g)):
            continue
        if (death := death_of(m)) >= n:
            return m, death, path.tested - tested


def compute(f: Polynomial, n: int) -> Run:
    """D_f(n) as the one-n run Run(n, n, m, tested): the least m that
    discriminates f(1..n) and the candidates its search tested, or
    Run(n, n, None, 0) when those values collide.

    The search starts at n, below which no modulus discriminates
    (pigeonhole), and decides candidates by the module docstring's rules.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    path = _path(f, n)
    if path.repeat < n:
        return Run(n, n, None, 0)
    m, _, tested = _least_modulus(path, n, n)
    return Run(n, n, m, tested)


def scan(f: Polynomial, n_max: int) -> list[Run]:
    """D_f(n) for n = 1..n_max as runs, walking each m = D(n-1) to its death.

    D_f(n) >= D_f(n-1), so m holds until it dies: one run per value, the
    values strictly increasing, and one search above m per death. The
    search that accepts m returns its death, the last n of its run, capped
    here at n_max; the first run is m = 1, under which only f(1) is
    distinct. A quadratic's death is T(m) - 1; on the value path a walk
    reads each value once, and the searches and walks share one stamp
    table. A repeated value collides mod every m, so from the death at the
    first one on D(n) is undefined: a last run with value None. The runs
    tile 1..n_max, so `analysis.run_length_table` takes them as they are.

    A search starts at m + 1, which is at least n since m = D(n-1) >= n-1.
    Every modulus below it is settled, as the module docstring's skip rules
    ask: below n by pigeonhole, below m since m was least for f(1..n-1), and
    m itself by its death.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    path = _path(f, n_max)
    runs: list[Run] = []
    n, m, death, tested = 1, 1, 1, 0  # mod 1 only f(1) is distinct
    while True:
        runs.append(Run(n, min(death, n_max), m, tested))
        if death >= n_max:
            return runs
        n = death + 1
        if death == path.repeat:
            return runs + [Run(n, n_max, None, 0)]
        m, death, tested = _least_modulus(path, m + 1, n)
