import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from itertools import count, takewhile
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polydisc import (
    Polynomial,
    Run,
    analysis,
    check_theorem3,
    compute,
    discriminator,
    is_discriminating,
    ntheory,
    parse_polynomial,
    scan,
    trivial_upper_bound,
    x_dx_minus_1,
)

from tables import per_n


def P(*coeffs):
    return Polynomial.from_coeffs(coeffs)


def d_values(runs):
    """D(1), D(2), ... from scan's runs."""
    return [value for _, value in per_n(runs)]


@contextmanager
def value_path():
    """While open, every search decides its moduli from f's values, a
    quadratic's too, instead of by death-time arithmetic."""
    with mock.patch.object(discriminator, "_path", discriminator._Values):
        yield


class TestResultRecord:
    def test_repr_and_frozen_fields(self):
        # a quadratic is decided by arithmetic: no candidate is checked in full
        # compute's record is scan's, for one n
        result = compute(P(0, -1, 29), 5)
        assert repr(result) == "Run(n_low=5, n_high=5, value=15, candidates_tested=0)"
        assert result == Run(5, 5, 15, 0) == scan(P(0, -1, 29), 5)[-1]
        with pytest.raises(AttributeError):
            result.value = 16


class TestIsDiscriminating:
    def test_hand_example(self):
        # f(1..5) = 3, 14, 33, 60, 95 -> 3, 6, 1, 4, 7 mod 8
        assert is_discriminating(x_dx_minus_1(4).values(5), 8)

    def test_single_value_mod_one(self):
        assert is_discriminating(P(5, 1).values(1), 1)

    def test_two_values_mod_one(self):
        assert not is_discriminating(P(5, 1).values(2), 1)

    def test_matches_naive_all_pairs(self):
        rng = random.Random(7)
        for _ in range(50):
            f = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            n = rng.randint(1, 20)
            m = rng.randint(1, 50)
            values = [f.evaluate(i) for i in range(1, n + 1)]
            naive = all(
                (values[a] - values[b]) % m != 0
                for a in range(n)
                for b in range(a + 1, n)
            )
            assert is_discriminating(f.values(n), m) == naive

    def test_not_monotone_in_m(self):
        # distinctness mod m does not imply distinctness mod m+1; witness from
        # the d = 49 family around its 16 -> 21 -> 37 jumps
        f = x_dx_minus_1(49)
        witnesses = [
            m
            for m in range(16, 40)
            if is_discriminating(f.values(8), m) and not is_discriminating(f.values(8), m + 1)
        ]
        assert witnesses


def all_pairs_distinct(values, m):
    return all((b - a) % m for i, a in enumerate(values) for b in values[i + 1:])


# degree 8: f(40) = 1681^4, about 8.0e12, fits in int64, and f(235), about
# 9.5e18, is the first value beyond it; f(400) is about 6.6e20. The prefixes
# of up to 400 values that TestValueSequence draws reach past int64, and the
# other draws, of up to 40, stay within it
WIDE_VALUES = parse_polynomial("(x^2+x+41)^4").values(400)
BIG = 10 ** 40
BIG_REPEAT = [-BIG, 7, -BIG]


def flat_table_bound(values):
    """The largest m whose test on the value path at n = len(values) marks the
    search's stamp list rather than a dict of its own."""
    return discriminator.FLAT_TABLE_FACTOR * len(values)


def with_modulus(values):
    # small m, huge m, and m within 3 of the flat-table bound, where the
    # value path's test turns to a dict; a standalone check marks a dict on
    # both sides of it
    bound = flat_table_bound(values)
    moduli = st.one_of(st.integers(1, 60), st.integers(1, 10 ** 30), st.integers(bound - 3, bound + 3))
    return st.tuples(st.just(values), moduli)


class TestValueSequence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-20, 20), min_size=1, max_size=30),  # repeats, negatives
            st.lists(st.integers(-BIG, BIG), min_size=1, max_size=30),
            st.integers(1, 400).map(lambda n: WIDE_VALUES[:n]),
        ).flatmap(with_modulus)
    )
    @example(([5], 1))
    @example(([3, 3], 10 ** 30))
    @example(([-1, 1], 2))
    @example((WIDE_VALUES, 10 ** 30))
    @example((WIDE_VALUES, flat_table_bound(WIDE_VALUES)))
    @example((WIDE_VALUES, flat_table_bound(WIDE_VALUES) + 1))
    @example((BIG_REPEAT, flat_table_bound(BIG_REPEAT)))
    @example((BIG_REPEAT, flat_table_bound(BIG_REPEAT) + 1))
    def test_matches_all_pairs(self, case):
        values, m = case
        assert is_discriminating(values, m) == all_pairs_distinct(values, m)

    @pytest.mark.parametrize(
        "values, m", [([], 5), ([1, 2], 0), ([1, 2], -3), ([1, 2], 2.5), ([1, 2], 10.0 ** 30)]
    )
    def test_rejects_empty_values_and_bad_modulus(self, values, m):
        # a float modulus is refused on both sides of the flat-table bound
        with pytest.raises(TypeError if isinstance(m, float) else ValueError):
            is_discriminating(values, m)

    def test_trivial_upper_bound_rejects_empty(self):
        with pytest.raises(ValueError):
            trivial_upper_bound([])


def check_peak_bytes(values, m):
    """Peak bytes allocated during one is_discriminating(values, m) call."""
    is_discriminating(values, m)  # first-call allocations are not the check's
    tracemalloc.start()
    try:
        is_discriminating(values, m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckMemory:
    """A check's memory follows len(values), not m, on both sides of the bound."""

    def test_two_values_at_a_huge_modulus(self):
        assert check_peak_bytes([-1, 2], 10 ** 30) < 2048

    def test_above_the_bound_an_early_exit_allocates_no_table(self):
        values = [7] * 256
        assert check_peak_bytes(values, flat_table_bound(values) + 1) < 2048

    def test_at_the_bound_an_early_exit_allocates_no_table(self):
        # a standalone check has no m-slot table to zero, even where a
        # search's check would mark its stamp list
        values = [7] * 256
        assert check_peak_bytes(values, flat_table_bound(values)) < 2048

    @pytest.mark.parametrize("m", ["bound", 10 ** 30], ids=["at_the_bound", "at_10**30"])
    def test_a_full_walk_allocates_per_value(self, m):
        # distinct mod either m: a full walk marks a dict of 256 residues.
        # CPython 3.10-3.13 peak at 74-76 bytes per value at the bound, where
        # each residue is a new int, and 55 at 10**30, where it is the value
        values = list(range(1000, 1256))
        m = flat_table_bound(values) if m == "bound" else m
        assert check_peak_bytes(values, m) <= 78 * len(values)


class TestTrivialUpperBound:
    def test_identity(self):
        assert trivial_upper_bound(P(0, 1).values(10)) == 10

    def test_square(self):
        assert trivial_upper_bound(P(0, 0, 1).values(3)) == 9

    def test_distinct_quadratic(self):
        # f = x(x-2): values -1, 0, 3 -> spread 5
        assert trivial_upper_bound(P(0, -2, 1).values(3)) == 5

    def test_collision_gives_none(self):
        # f = x(x-3): f(1) = -2 = f(2)
        assert trivial_upper_bound(P(0, -3, 1).values(2)) is None

    def test_any_m_at_bound_discriminates(self):
        f = P(3, -5, 2)
        n = 12
        b = trivial_upper_bound(f.values(n))
        assert b is not None and is_discriminating(f.values(n), b)


class TestCompute:
    def test_paper_rows(self):
        assert compute(x_dx_minus_1(49), 8).value == 16
        assert compute(x_dx_minus_1(29), 5).value == 15

    def test_n_one(self):
        assert compute(P(7, -3, 2), 1).value == 1

    def test_nonexistent(self):
        assert compute(P(4), 3) == Run(3, 3, None, 0)  # constant polynomial

    def test_minimality_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            f = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            n = rng.randint(1, 30)
            result = compute(f, n)
            if result.value is None:
                values = [f.evaluate(i) for i in range(1, n + 1)]
                assert len(set(values)) < n
                continue
            assert is_discriminating(f.values(n), result.value)
            for m in range(1, result.value):
                assert not is_discriminating(f.values(n), m)

    def test_pigeonhole_lower_bound(self):
        rng = random.Random(13)
        for _ in range(40):
            f = P(*[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
            n = rng.randint(1, 25)
            result = compute(f, n)
            if result.value is not None:
                assert result.value >= n

    def test_candidates_tested_counts_scan(self):
        # the search runs from n = 5 to 15, and every difference of f(1..5) is
        # even (c = 2): 6 and 8 reduce to 3 and 4, below n; 10 and 14 to 5 and
        # 7, odd and already rejected. On the value path 5, 7, 9, 11, 12, 13
        # and 15 are checked in full; f is quadratic, so compute decides them
        # by their death times and checks none
        f = x_dx_minus_1(29)
        assert compute(f, 5) == Run(5, 5, 15, 0)
        with recorded_checks() as checked, value_path():
            assert compute(f, 5) == Run(5, 5, 15, 7)
        assert checked == [5, 7, 9, 11, 12, 13, 15]


class TestScan:
    def test_table3_prefix(self):
        assert scan(x_dx_minus_1(29), 10) == [
            Run(1, 1, 1, 0), Run(2, 2, 3, 0), Run(3, 4, 7, 0), Run(5, 5, 15, 0), Run(6, 10, 19, 0)
        ]

    def test_identity_polynomial(self):
        assert d_values(scan(P(0, 1), 5)) == [1, 2, 3, 4, 5]

    def test_power_of_two_family(self):
        assert d_values(scan(x_dx_minus_1(4), 8)) == [1, 2, 4, 4, 8, 8, 8, 8]

    def test_monotone(self):
        for d in (5, 12, 29):
            runs = scan(x_dx_minus_1(d), 200)
            assert all(a.n_high + 1 == b.n_low and a.value < b.value for a, b in zip(runs, runs[1:]))

    def test_equals_independent_compute(self):
        f = x_dx_minus_1(29)
        for n, value in per_n(scan(f, 100)):
            assert value == compute(f, n).value

    def test_nonexistent_tail(self):
        # f = x(x-3) collides at n = 2 and stays collided
        assert scan(P(0, -3, 1), 4) == [Run(1, 1, 1, 0), Run(2, 4, None, 0)]

    @pytest.mark.parametrize(
        "f, repeat_n",
        [(P(0, -60, 1), 31), (P(-3, 1) * P(-20, 1) * P(-35, 1), 20)],
        ids=["x(x-60)", "(x-3)(x-20)(x-35)"],
    )
    def test_repeat_after_several_deaths(self, f, repeat_n):
        # f(29) = f(31) for x(x - 60), f(3) = f(20) for the cubic: the first
        # exact repeat ends the scan only at the death at its index
        values = d_values(scan(f, 40))
        assert values == [naive_discriminator(f, n) for n in range(1, 41)]
        assert values.index(None) == repeat_n - 1 and len(set(values[: repeat_n - 1])) >= 8
        assert discriminator._first_equal(f.values(40)) == repeat_n - 1


def lcm_family(k, coeffs):
    """lcm(1..k) * g for g with coefficients `coeffs`: every m <= k divides each
    difference of its values, so D lies above k and, at small n, above the
    flat-table bound."""
    lcm = math.lcm(*range(1, k + 1))
    return Polynomial.from_coeffs([lcm * c for c in coeffs])


class TestScanCarriesSurvivors:
    @pytest.mark.parametrize(
        "f, n_max",
        [
            (x_dx_minus_1(29), 500),
            (parse_polynomial("(x^2+x+41)^4"), 60),
            (P(0, -3, 1), 6),
            (lcm_family(200, [0, -1, 29]), 120),  # carries D = 211 above the flat-table bound
            (parse_polynomial("(x^2+x+41)^4"), 300),  # period 7,200 <= 64 * 300: every search takes the class table
        ],
        ids=["x(29x-1)", "(x^2+x+41)^4", "x(x-3)", "lcm(1..200)x(29x-1)", "(x^2+x+41)^4 to 300"],
    )
    def test_candidates_count_full_checks(self, monkeypatch, f, n_max):
        # the bench's invariant: every modulus counted is one is_discriminating call, and back
        calls = []

        def counted(values, m, stamps=None):
            calls.append(m)
            return is_discriminating(values, m, stamps)

        monkeypatch.setattr(discriminator, "is_discriminating", counted)
        assert sum(r.candidates_tested for r in scan(f, n_max)) == len(calls)

    @pytest.mark.parametrize("d", range(2, 61))
    def test_equals_cold_compute_through_deaths(self, d):
        f = x_dx_minus_1(d)
        assert d_values(scan(f, 300)) == [compute(f, n).value for n in range(1, 301)]


class TestScrambledOrder:
    """Every search reads f(1..n) in one fixed scrambled order (`_scramble`)."""

    VALUES = [7, -3, 7] + x_dx_minus_1(29).values(297)  # a repeat, a negative

    def test_every_prefix_is_a_permutation(self):
        for n in range(len(self.VALUES) + 1):
            assert sorted(discriminator._scramble(self.VALUES, [], n)) == sorted(self.VALUES[:n])
        assert discriminator._scramble(self.VALUES, [], 300) != self.VALUES

    def test_two_calls_give_the_same_order(self):
        # one call here, after other tests asked for other lengths, and one in
        # a fresh process under each of two fixed hash seeds: the order may
        # depend on n alone
        src = os.path.dirname(os.path.dirname(discriminator.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); from polydisc import discriminator; "
            "print(discriminator._scramble(list(range(300)), [], 300))"
        )
        expected = f"{discriminator._scramble(list(range(300)), [], 300)}\n"
        for hash_seed in ("0", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", code, src], capture_output=True, text=True, check=True, timeout=60,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            ).stdout
            assert out == expected, hash_seed

    def test_extending_in_steps_equals_extending_at_once(self):
        order = []
        for n in (0, 1, 2, 17, 17, 150, 300):
            assert discriminator._scramble(self.VALUES, order, n) is order
        assert order == discriminator._scramble(self.VALUES, [], 300)

    def test_rejected_checks_stop_early(self, monkeypatch):
        # values each check of the value path reads before it exits: 242,575
        # here, 51,950 of them by the 53 accepting checks; read in natural
        # order, the same 4,521 checks read 994,053
        reads = []

        def counted(values, m, stamps=None):
            seen = set()
            for i, v in enumerate(values):
                if v % m in seen:
                    reads.append(i + 1)
                    break
                seen.add(v % m)
            else:
                reads.append(len(values))
            return is_discriminating(values, m, stamps)

        monkeypatch.setattr(discriminator, "is_discriminating", counted)
        with value_path():
            runs = scan(x_dx_minus_1(29), 3000)
        assert len(reads) == sum(r.candidates_tested for r in runs) == 4521
        assert sum(reads) < 250_000


# Every value drawn for the table contract: repeats, negatives, values beyond
# int64, and prefixes of a degree-8 polynomial's values.
VALUE_LISTS = st.one_of(
    st.lists(st.integers(-20, 20), min_size=1, max_size=30),
    st.lists(st.integers(-BIG, BIG), min_size=1, max_size=30),
    st.integers(1, 40).map(lambda n: WIDE_VALUES[:n]),
)


class ReadLog(list):
    """A list that records the index of every item read by subscript."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = []

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)


class TestStampTable:
    """A search's checks share one stamp table; they must agree with fresh checks."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_increasing_moduli_on_one_dirty_table(self, data):
        step = data.draw(st.sampled_from([60, 10 ** 30]), label="step")
        checks, prev = [], 0
        for _ in range(data.draw(st.integers(1, 8), label="checks")):
            m = data.draw(st.integers(prev + 1, prev + step), label="m")
            checks.append((data.draw(VALUE_LISTS, label="values"), m))
            prev = m
        # stale stamps left by earlier, smaller moduli, in a dict and, when
        # the moduli are small, in a list the caller sized for the largest
        stale = data.draw(st.lists(st.integers(0, checks[0][1] - 1), max_size=200), label="stamps")
        tables = [defaultdict(int, enumerate(stale))]
        if step == 60:
            tables.append(stale + [0] * (prev - len(stale)))
        for values, m in checks:
            expected = all_pairs_distinct(values, m)
            assert is_discriminating(values, m) == expected
            for table in tables:
                assert is_discriminating(values, m, table) == expected
                if expected:
                    assert all(table[v % m] == m for v in values)
        if step == 60:
            assert len(tables[1]) == max(prev, len(stale))  # never grown

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=5),
        st.integers(1, 6),
        st.integers(0, 40),
        st.booleans(),
    )
    @example([0, 0, 0, 1], 2, 40, False)  # x^3 at n = 2: m = 128 accepts, f(12) = f(4) mod 128
    @example([0, 0, 0, 1], 2, 40, True)  # m = 129 accepts, f(8) = f(5) mod 129
    @example([0, 1], 3, 10, True)  # x: m = 193 accepts and no repeat follows
    @example([5], 1, 5, True)  # a constant: m = 65 accepts f(1), and f(2) repeats it
    def test_walk_picks_its_table_at_the_bound(self, coeffs, n, extra, above):
        # the value path's test of m at n picks the shared stamp list at
        # m = 64 n and a dict at 64 n + 1; its check and walk share that table
        path = discriminator._Values(P(*coeffs), n + extra)
        m = flat_table_bound(range(n)) + above
        tables, first_repeat = [], discriminator._first_repeat

        def check(values, m, table):
            tables.append(table)
            return is_discriminating(values, m, table)

        def walk(values, m, table, start):
            tables.append(table)
            return first_repeat(values, m, table, start)

        with mock.patch.object(discriminator, "is_discriminating", check), \
                mock.patch.object(discriminator, "_first_repeat", walk):
            death = path.at(n)(m)
        residues = [v % m for v in path.values]
        first = next((i for i, r in enumerate(residues) if r in residues[:i]), len(residues))
        assert death == (first if first >= n else 0)
        table = tables[0]
        assert tables == [table] * (2 if death else 1)
        if above:
            assert isinstance(table, dict) and path.stamps == []
        else:
            assert table is path.stamps and len(table) == m
        if death:  # the check and the walk marked f(1..death) in that one table
            assert all(table[r] == m for r in residues[:death])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(1, 30), st.data())
    def test_the_shared_list_holds_m_to_64n_slots(self, coeffs, n_max, data):
        # after a test of m <= 64 n the list holds at least m slots and at most
        # 64 n, for n never falling between tests, as in a scan; a test above
        # the bound leaves it as it was
        path = discriminator._Values(P(*coeffs), n_max)
        n, m = 1, 0
        for _ in range(data.draw(st.integers(1, 12), label="tests")):
            n = data.draw(st.integers(n, n_max), label="n")
            bound = flat_table_bound(range(n))
            m = data.draw(st.one_of(st.integers(m + 1, m + 3), st.integers(m + 1, max(m + 1, bound + 2))), label="m")
            before = len(path.stamps)
            path.at(n)(m)
            if m <= bound:
                assert m <= len(path.stamps) <= bound
            else:
                assert len(path.stamps) == before

    def test_scan_crosses_the_flat_table_bound(self):
        # D = 211 from n = 2, above 64n and kept in a dict, until f(65) and
        # f(66) collide mod 211 (65 + 66 = 131 = 1/29 mod 211); the searches
        # after that run on the flat table
        f, n_max = lcm_family(200, [0, -1, 29]), 120
        with value_path():
            runs = scan(f, n_max)
        searched = runs[1:]
        assert searched[0].value > flat_table_bound(range(searched[0].n_low))
        assert any(r.value <= flat_table_bound(range(r.n_low)) for r in searched[1:])
        assert d_values(runs) == [compute(f, n).value for n in range(1, n_max + 1)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(20, 200), st.lists(st.integers(-9, 9), min_size=2, max_size=4), st.integers(2, 80))
    @example(200, [0, -1, 29], 80)
    @example(60, [0, 1, 0, 1], 80)
    # D = 211 from n = 2, above the bound; it dies at n = 14 on a value from
    # before its acceptance: 14^3 = 1 + 13 * 211, so f(14) = f(1) mod 211
    @example(200, [0, 0, 0, 1], 40)
    def test_scan_equals_cold_compute_across_the_bound(self, k, coeffs, n_max):
        f = lcm_family(k, coeffs)
        with value_path():
            assert d_values(scan(f, n_max)) == [compute(f, n).value for n in range(1, n_max + 1)]

    @pytest.mark.parametrize(
        "run",
        [
            lambda: scan(x_dx_minus_1(29), 400),
            lambda: scan(parse_polynomial("(x^2+x+41)^4"), 60),
            lambda: scan(lcm_family(200, [0, -1, 29]), 120),
            lambda: compute(x_dx_minus_1(29), 60),
            lambda: compute(parse_polynomial("(x^2+x+41)^4"), 40),
            lambda: check_theorem3(200),
        ],
        ids=[
            "scan x(29x-1)", "scan (x^2+x+41)^4", "scan lcm(1..200)x(29x-1)",
            "compute x(29x-1)", "compute (x^2+x+41)^4", "theorem 3",
        ],
    )
    def test_each_table_sees_strictly_increasing_moduli(self, monkeypatch, run):
        tables = {}  # id -> (table, moduli passed with it); holding the table keeps its id unique

        def checked(values, m, stamps=None):
            if stamps is not None:
                moduli = tables.setdefault(id(stamps), (stamps, []))[1]
                # no stamp, from a check or from a caller's own lookups, equals m
                # yet; a dict's stamps are its values, its keys are residues
                marks = stamps.values() if isinstance(stamps, dict) else stamps
                assert all(m > seen for seen in moduli) and m not in marks
                moduli.append(m)
            return is_discriminating(values, m, stamps)

        monkeypatch.setattr(discriminator, "is_discriminating", checked)
        monkeypatch.setattr(analysis, "is_discriminating", checked)
        with value_path():  # x(29x-1) and its lcm multiple are quadratics
            run()
        assert tables

    def test_a_search_far_above_the_bound_allocates_for_n_not_m(self):
        # f(1) = 0 and f(2) = lcm(1..10000): every m up to 10006 divides their
        # difference, so of the 10,006 tests at n = 2 of m = 2..10007 on one
        # value path only the prime 10007, far above the bound 128, accepts
        lcm = math.lcm(*range(1, 10001))
        path = discriminator._Values(P(-lcm, lcm), 2)
        death = path.at(2)
        bound = flat_table_bound(range(2))
        death(1)  # first-call allocations are not the tests'
        tracemalloc.start()
        try:
            accepted = [m for m in range(2, 10008) if death(m) >= 2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert accepted == [10007]
        # a list of at most 128 slots of 8 bytes, one dict of two residues and
        # the loop's ints, against 80 KB for a list grown to 10,007 slots
        assert len(path.stamps) <= bound
        assert peak < 8 * bound + 2048

    def test_a_walk_above_the_bound_reads_only_the_values_after_n(self):
        # D = 211 from n = 2, above 64 n = 128, until f(65) and f(66) collide
        # mod 211: its walk goes on in the dict its check marked, so it reads
        # f(3..66), values[2..65], and never f(1..2) again
        path = discriminator._Values(lcm_family(200, [0, -1, 29]), 120)
        path.values = ReadLog(path.values)
        death = path.at(2)  # scrambles f(1..2) before the test reads a value
        path.values.reads.clear()
        assert death(211) == 65
        assert path.values.reads == list(range(2, 66))


class TestCommonDifference:
    """A search takes c, the gcd of every f(k) - f(1), from f(1..deg f + 1)
    alone: by Newton's forward differences the later values add no factor."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-9, 9), st.integers(-10 ** 30, 10 ** 30)), max_size=7),
        st.integers(1, 40),
    )
    @example([], 5)  # zero polynomial: every difference is 0
    @example([0, -1, 29], 40)  # x(29x-1): c = 2
    # 720 x^6: f(2..6) - f(1) share the factor 7 * 720, and f(7) - f(1) = 720 (7^6 - 1) drops the 7
    @example([0, 0, 0, 0, 0, 0, 720], 40)
    @example([0, 1, 1], 1)  # one value, no difference
    def test_the_first_differences_give_the_gcd_of_all(self, coeffs, n):
        f = P(*coeffs)
        values = f.values(n)
        head = values[:len(f.coeffs)]  # f(1..deg f + 1), or fewer when n is smaller
        assert math.gcd(*(v - values[0] for v in head)) == math.gcd(*(v - values[0] for v in values))


def naive_discriminator(f, n):
    """Least m with no pairwise difference of f(1..n) divisible by m, or None."""
    values = [f.evaluate(i) for i in range(1, n + 1)]
    diffs = [b - a for i, a in enumerate(values) for b in values[i + 1:]]
    if 0 in diffs:
        return None
    m = 1
    while any(d % m == 0 for d in diffs):
        m += 1
    return m


@contextmanager
def recorded_checks():
    """The moduli passed to discriminator.is_discriminating while open, in order."""
    moduli = []

    def recorded(values, m, stamps=None):
        moduli.append(m)
        return is_discriminating(values, m, stamps)

    with mock.patch.object(discriminator, "is_discriminating", recorded):
        yield moduli


def least_of_class(m, c):
    """m with every prime power p^e || gcd(m, c), p not dividing m / gcd(m, c),
    divided out: the least modulus with the same m / gcd(m, c), by trial
    division."""
    g = math.gcd(m, c)
    x, least = m // g, m
    for p in range(2, g + 1):
        while g % p == 0:
            g //= p
            if x % p:
                least //= p
    return least


def assert_checks(values, lower, result, checked, quadratic, c):
    """`result`, a compute result or a scan run, came from checking the
    moduli `checked` of one search from `lower`, on a path whose common
    difference is `c`: it counts them, they lie in [lower, value] and end at
    the value, and every modulus skipped between them fails the all-pairs
    oracle, either by pigeonhole on m / gcd(m, c) or because a smaller
    modulus of its class fails it too. A `quadratic` is decided by arithmetic
    and checks none. When `values` have no common difference c > 1, so that
    no skip applies, none is skipped."""
    assert result.candidates_tested == len(checked)
    if quadratic:
        assert checked == []
        return
    assert all(lower <= m <= result.value for m in checked) and checked[-1] == result.value
    skipped = set(range(lower, result.value)).difference(checked)
    assert not any(all_pairs_distinct(values, m) for m in skipped)
    for m in skipped:
        if m // math.gcd(m, c) >= len(values):
            least = least_of_class(m, c)
            assert least < m and not all_pairs_distinct(values, least)
    if math.gcd(*(v - values[0] for v in values)) <= 1:
        assert result.candidates_tested == result.value - lower + 1


def assert_searches_agree(f, n_max):
    """scan and compute equal the all-pairs oracle on f(1..n) for every
    n <= n_max, and every modulus they skip fails it. scan's runs tile
    1..n_max with strictly increasing finite values, and a None run comes
    only last: `analysis.run_length_table` takes them as they are."""
    quadratic = f.degree == 2
    with recorded_checks() as scanned:
        runs = scan(f, n_max)
    assert runs[0].n_low == 1 and runs[-1].n_high == n_max
    assert all(run.n_low <= run.n_high for run in runs)
    assert all(a.n_high + 1 == b.n_low for a, b in zip(runs, runs[1:]))
    finite = [run.value for run in (runs[:-1] if runs[-1].value is None else runs)]
    assert None not in finite and finite == sorted(set(finite))
    for n, value in per_n(runs):
        expected = naive_discriminator(f, n)
        with recorded_checks() as cold_checked:
            cold = compute(f, n)
        assert value == cold.value == expected
        if expected is None:
            assert cold.candidates_tested == 0
        else:
            assert_checks(f.values(n), n, cold, cold_checked, quadratic, discriminator._path(f, n).c)
    assert runs[0] == Run(1, runs[0].n_high, 1, 0)
    c = discriminator._path(f, n_max).c
    for prev, run in zip(runs, runs[1:]):
        if run.value is None:
            assert run.candidates_tested == 0
        else:
            # one search above the value that died; a scan's moduli only increase
            first = prev.value + 1
            checked = [m for m in scanned if first <= m <= run.value]
            assert_checks(f.values(run.n_low), first, run, checked, quadratic, c)


class TestSearchDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 14))
    @example([], 3)  # zero polynomial
    @example([4], 3)  # constant
    @example([0, -3, 1], 6)  # x(x-3): f(1) = f(2)
    @example([0, -40, 1], 40)  # x(x-40): survivors, then f(19) = f(21)
    def test_scan_compute_and_all_pairs_agree(self, coeffs, n_max):
        assert_searches_agree(P(*coeffs), n_max)

    @settings(max_examples=200, deadline=None)
    # k f has every difference divisible by k, so c > 1 and the searches skip
    @given(st.lists(st.integers(-9, 9), max_size=4), st.integers(2, 30), st.integers(1, 14))
    @example([0, -1, 29], 2, 5)  # 2x(29x-1): c = 4
    @example([0, 1], 6, 9)  # 6x: c = 6 from n = 2
    @example([1, 1, 1], 30, 12)  # 30(x^2+x+1): c = 60
    @example([1, 0, 0, 1], 30, 12)  # 30(x^3+1): c = 30, three primes
    @example([0, 1], 210, 12)  # 210x: c = 210, four primes
    @example([3, 1, 1, 1], 240, 10)  # 240(x^3+x^2+x+3): c = 240
    @example([0, -1, 29], 210, 14)  # 210x(29x-1): c = 420
    @example([0, 1, 1], 240, 12)  # 240x(x+1): c = 480
    @example([-8, 9, -4, 4, 3], 8, 14)  # c = 16, period 32: a class table on every path with c = 16
    @example([-6, 8, -4, -2, -1], 9, 14)  # c = 9, period 27: a class table on every path with c = 9
    @example([7, 0, 0, 1], 64, 12)  # 64(x^3+7): c = 64, period 128: a table from n_max = 2 on
    @example([2, -9, 8, 8, 2], 567, 12)  # c = 567 = 3^4 7
    def test_scaled_polynomials_agree(self, coeffs, k, n_max):
        assert_searches_agree(P(*coeffs).scale(k), n_max)

    def test_wide_scan_checks(self):
        # c = 240 for (x^2+x+41)^4, and D(700) = 31,051: checking every
        # candidate took 31,050 checks; the skipped moduli leave 10,616
        results = scan(parse_polynomial("(x^2+x+41)^4"), 700)
        assert results[-1].value == 31051
        assert sum(r.candidates_tested for r in results) == 10616


def radical(c):
    """The product of c's primes, by trial division."""
    r, p = 1, 2
    while p * p <= c:
        if c % p == 0:
            r *= p
            while c % p == 0:
                c //= p
        p += 1
    return r * c if c > 1 else r


def admitted(m, c, n):
    """Whether the common-difference rule, restated for one modulus, leaves m
    to a search's check at n: g = gcd(m, c) is 1, or m / g >= n and no
    smaller modulus shares m's class."""
    g = math.gcd(m, c)
    return g == 1 or (m // g >= n and least_of_class(m, c) == m)


# scale factors with repeated primes, so that the prime test skips moduli
# the pigeonhole test keeps: 4 = 2^2, 8 = 2^3, 9 = 3^2, 64 = 2^6,
# 240 = 2^4 3 5, 567 = 3^4 7
REPEATED = st.sampled_from([4, 8, 9, 64, 240, 567])


def searched(path, lower, n, width):
    """The moduli below lower + width that a search on `path` from `lower` at
    n checks in full, when every check below lower + width rejects and the
    first one past it accepts."""
    end, checked = lower + width, []

    def death(m):
        checked.append(m)
        return n if m >= end else 0

    path.at = lambda _: death
    discriminator._least_modulus(path, lower, n)
    return [m for m in checked if m < end]


class TestClassTable:
    """A value path for n_max has a periodic table that drops the moduli
    whose prime test fails exactly when its period c rad(c) is at most
    FLAT_TABLE_FACTOR * n_max, decided when the path is built; every search
    must still check exactly the moduli the per-modulus rule admits."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(REPEATED, st.lists(st.integers(-9, 9), min_size=2, max_size=5)),
            st.tuples(st.just("lcm"), st.lists(st.integers(-9, 9), min_size=2, max_size=4)),
        ),
        st.integers(1, 40),
        st.one_of(st.integers(0, 200), st.integers(0, 30000)),
        st.integers(1, 300),
    )
    @example((240, [41, 1, 1]), 30, 7170, 100)  # c = 480, period 14,400 above 64 * 30: factored, no table
    @example((240, [3, 1, 1, 1]), 10, 7190, 300)  # c = 240, period 7,200 above 64 * 10: no table
    @example((240, [3, 1, 1, 1]), 113, 7000, 300)  # 7,200 <= 64 * 113: a table, entered at 7,113, wrapping at 7,200
    @example((64, [7, 0, 0, 1]), 1, 100, 300)  # c = 64: 2c = 128 above 64 * 1, so c is not factored
    @example((64, [7, 0, 0, 1]), 2, 100, 300)  # period 128 = 64 * 2, the bound itself: a table, entered at 102
    @example((64, [7, 0, 0, 1]), 5, 200, 300)  # a table, entered at 205 mod 128 = 77
    @example((8, [0, 1, 0, 1]), 5, 30, 200)  # c = 16, period 32: a table, entered at 35 mod 32 = 3
    @example((567, [0, 1, 0, 0, 1]), 40, 30000, 300)  # c = 1,134 = 2 3^4 7, period 47,628: no table
    @example((9, [1, 0, 0, 1]), 20, 100, 150)  # c = 63 = 3^2 7, period 1,323 above 64 * 20: no table
    @example((9, [1, 0, 0, 1]), 21, 1302, 150)  # 1,323 <= 64 * 21: a table, entered at lower = 1,323, its start
    @example(("lcm", [0, 1, 0, 1]), 3, 30000, 200)  # c of 91 digits, never factored
    # 240(x^2+x+41): c = 480 from n = 3 on, period 480 * 30 = 14,400
    @example((240, [41, 1, 1]), 14, 14376, 300)  # 2c = 960 above 64 * 14: c is not factored
    @example((240, [41, 1, 1]), 224, 14176, 300)  # 14,400 above 64 * 224 = 14,336: no table
    @example((240, [41, 1, 1]), 225, 14000, 300)  # 14,400 = 64 * 225: a table, wrapping at 14,400
    def test_a_search_checks_exactly_the_moduli_the_rule_admits(self, family, n, extra, width):
        k, coeffs = family
        f = lcm_family(200, coeffs) if k == "lcm" else P(*coeffs).scale(k)
        flat, lower = discriminator.FLAT_TABLE_FACTOR * n, n + extra
        with mock.patch.object(discriminator, "factorize", wraps=discriminator.factorize) as factorize:
            path = discriminator._Values(f, n)
        c = path.c
        assert all(2 * call.args[0] <= flat for call in factorize.call_args_list)
        # the path decides its table when it is built: a search factors and builds nothing
        with mock.patch.object(discriminator, "factorize", side_effect=AssertionError("factored")), \
                mock.patch.object(discriminator, "_classes", side_effect=AssertionError("built")):
            checked = searched(path, lower, n, width)
        assert checked == [m for m in range(lower, lower + width) if admitted(m, c, n)]
        # c <= flat first, so that a c of 91 digits is never factored by trial division
        built = 1 < c <= flat and c * radical(c) <= flat
        assert (path.keep is not None) == built
        if built:  # never longer than the stamp list's bound
            assert len(path.keep) == c * radical(c) <= flat

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 80))
    @example(240)  # 2^4 3 5, period 7,200
    @example(64)  # one prime
    @example(2)  # period 4
    def test_the_table_is_the_prime_test(self, c):
        # the skip line would mend a table that keeps too much, so the table
        # itself must be exact: r marked 1 exactly when m = r mod its period
        # is the least of its class. c x has common difference c, and a path
        # for n_max >= c rad(c) / 64 builds the table.
        period = c * radical(c)
        keep = discriminator._Values(P(0, c), max(2, -(-period // discriminator.FLAT_TABLE_FACTOR))).keep
        assert len(keep) == period
        assert list(keep) == [least_of_class(period + r, c) == period + r for r in range(period)]

    @pytest.mark.parametrize(
        "f, n_max",
        [
            (parse_polynomial("(x^2+x+41)^4"), 300),  # c = 240, period 7,200 <= 64 * 300: every search enters the table
            (P(-8, 9, -4, 4, 3).scale(8), 14),  # c = 16, period 32
            (P(-6, 8, -4, -2, -1).scale(9), 14),  # c = 9, period 27
        ],
        ids=["(x^2+x+41)^4", "8(3x^4+4x^3-4x^2+9x-8)", "9(-x^4-2x^3-4x^2+8x-6)"],
    )
    def test_scans_with_and_without_the_table_agree(self, f, n_max):
        # the same runs and counts as a search that lists every modulus and
        # leaves the whole rule to the skip line
        with mock.patch.object(discriminator, "_classes", wraps=discriminator._classes) as classes:
            runs = scan(f, n_max)
        assert classes.call_count == 1
        with mock.patch.object(discriminator._Values, "candidates", lambda self, lower, n: count(lower)):
            assert scan(f, n_max) == runs


def death_time(f, m):
    """The least l at which f(1..l) collide mod m, by reading residues."""
    seen = set()
    for l in count(1):
        r = f.evaluate(l) % m
        if r in seen:
            return l
        seen.add(r)


def reference_death_time(a, b, m, n):
    """`_death_time` by stages: u = 1, the part of m built from a's primes,
    the divisors below 24 by trial division, then every other divisor of m
    from its factorization, in rising order."""
    a, b = a % m, b % m
    h, best = math.gcd(a, m), m + 1
    if b % h == 0:
        step = m // h
        best = (3 + (-(b // h) * pow(a // h, -1, step) - 3) % step) // 2 + 1
        if best <= n:
            return best
    rest = m
    while (g := math.gcd(rest, a)) > 1:
        rest //= g
    if rest < m:
        best = min(best, discriminator._pair_time(a, b, m, m // rest))
        if best <= n:
            return best
    for u in range(2, min(24, best - 1)):
        if m % u == 0:
            best = min(best, discriminator._pair_time(a, b, m, u))
            if best <= n:
                return best
    divisors = [1]
    for p, e in ntheory.factorize(m):
        divisors += [q * p ** i for q in divisors for i in range(1, e + 1)]
    for u in sorted(u for u in divisors if u >= 24):
        if u + 1 >= best:
            break
        best = min(best, discriminator._pair_time(a, b, m, u))
        if best <= n:
            break
    return best


NONZERO = st.integers(-60, 60).filter(bool)
HUGE = st.integers(-10 ** 30, 10 ** 30)


class TestDeathTime:
    """A quadratic's moduli are decided by their death times T(m), computed
    from a, b and the divisors of m, before any value is read."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(NONZERO, HUGE.filter(bool)),
        st.one_of(st.integers(-60, 60), HUGE),
        st.integers(1, 400),
        st.integers(0, 80),
    )
    @example(29, -1, 5, 5)  # x(29x-1): f(1) = f(3) mod 5, by u = 1
    @example(-29, 1, 13, 5)  # negative a: f(4) = f(5) mod 13
    @example(6, 3, 9, 10)  # h = gcd(6, 9) = 3 divides b
    @example(6, 1, 4, 10)  # gcd(6, 4) = 2 never divides b: only u = 4 = m, the pigeonhole l = 5
    @example(1, -40, 41, 20)  # x(x-40): s = 40, the pair (19, 21)
    @example(3, 0, 1, 0)  # m = 1 divides everything: T = 2
    @example(1, -3, 7, 0)  # x(x-3): f(1) = f(2), an exact repeat
    @example(29, -1, 841, 0)  # 29^2: no s at u = 1; u = 841, the part built from a's primes, gives 842
    @example(1, -1, 2 ** 7 * 3 ** 2 * 5, 0)  # x(x-1) at a smooth m: every divisor is tried
    @example(2, -1, 196, 0)  # u = 4, the a-part, gives 39; 28, the walk's cofactor of u = 7, gives 30
    @example(2, -1, 196, 35)  # the same, as a rejection: 39 > 35 does not stop the test
    def test_equals_the_first_repeated_residue(self, a, b, m, n):
        # T(m) when it exceeds n, else some l <= n at which f(1..l) collide
        f = P(7, b, a)
        expected = death_time(f, m)
        got = discriminator._death_time(a, b, m, n)
        if expected > n:
            assert got == expected
        else:
            assert expected <= got <= n

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(NONZERO, HUGE.filter(bool)),
        st.one_of(st.integers(-60, 60), HUGE),
        st.one_of(st.integers(1, 10 ** 4), st.integers(1, 10 ** 9)),
        st.one_of(st.integers(0, 80), st.integers(0, 10 ** 9)),
    )
    @example(1, -1, 999983, 0)  # a prime m: no divisor but 1 and m
    @example(2, -1, 999983 ** 2, 0)  # u * u == m: the walk meets 999,983 as u and as its own cofactor
    @example(2, -1, 2 * 999983, 0)  # the walk's only divisor pair below sqrt(m) is (2, 999,983)
    @example(1, -1, 4849845, 0)  # 3 * 5 * 7 * ... * 19: odd and smooth, so the walk steps by 2
    @example(1, -1, 2 ** 20, 0)  # a prime power: every u the walk tries is a power of 2
    @example(3, -1, 2 * 3 ** 12, 0)  # the a-part, 3^12, is the largest divisor below m, the cofactor of u = 2
    @example(1, -10, 4, 0)  # x(x-10): u = 1 gives 4, and u = 2, at both ends of the walk, gives T = 3
    @example(3 * 1009, -1, 1009, 0)  # a prime that divides a: the a-part, m itself, then the primality gate
    @example(1, -1, 1000003, 1000000)  # a prime just above n, alive at n: the gate returns T(m) unwalked
    def test_agrees_with_the_staged_reference(self, a, b, m, n):
        # moduli up to 10^9, far past reading residues: the exact T(m) when it
        # exceeds n, else an l <= n no earlier than T(m)
        expected = reference_death_time(a, b, m, n)
        got = discriminator._death_time(a, b, m, n)
        if expected > n:
            assert got == expected
        else:
            assert reference_death_time(a, b, m, 0) <= got <= n

    def test_a_prime_modulus_is_not_walked(self, monkeypatch):
        # a prime has no divisor in 2..sqrt(m), so its test ends before the walk's isqrt
        expected = reference_death_time(1, -1, 999983, 0)

        def refuse(m):
            raise AssertionError(f"walked the divisors of {m}")

        monkeypatch.setattr(discriminator, "isqrt", refuse)
        assert discriminator._death_time(1, -1, 999983, 0) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(st.integers(-30, 30), HUGE).filter(bool),
        # b, or the s >= 3 with a s + b = 0, where f(1..n) repeat exactly
        st.one_of(st.integers(-30, 30), HUGE, st.integers(3, 30).map(lambda s: ("s", s))),
        st.integers(-30, 30),
        st.integers(1, 6),
        st.integers(1, 14),
    )
    @example(-29, 1, 0, 1, 14)  # -x(29x-1): negative a
    @example(29, -1, 0, 1, 14)  # x(29x-1): negative b
    @example(6, 3, 0, 1, 14)  # gcd(a, b) = 3, and c = 3
    @example(6, 1, 0, 1, 14)  # gcd(6, m) = 2 never divides b = 1
    @example(1, 1, 1, 30, 12)  # 30(x^2+x+1): c = 60
    @example(29, -1, 0, 2, 14)  # 2x(29x-1): c = 4
    @example(1, -40, 0, 1, 40)  # x(x-40): survivors, then f(19) = f(21)
    @example(2, -14, 0, 1, 14)  # 2x^2 - 14x: 2s - 14 = 0 at s = 7, so f(3) = f(4)
    @example(-3, 24, 5, 3, 14)  # -9x^2 + 72x + 15: s = 8, so f(3) = f(5)
    @example(10 ** 30, -(10 ** 30) * 9, 1, 1, 8)  # s = 9 with 31-digit coefficients
    @example(10 ** 30 + 1, 1, 0, 1, 8)  # 31-digit a, no exact repeat
    def test_searches_agree_with_the_value_path_and_all_pairs(self, a, b, e, k, n_max):
        if isinstance(b, tuple):
            b = -a * b[1]
        f = P(e, b, a).scale(k)
        assert_searches_agree(f, n_max)
        with value_path():
            runs = scan(f, n_max)
            cold = [compute(f, n).value for n in range(1, n_max + 1)]
        assert [run[:3] for run in scan(f, n_max)] == [run[:3] for run in runs]
        assert [compute(f, n).value for n in range(1, n_max + 1)] == cold

    def test_quadratics_read_no_value_and_check_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a quadratic search read a value")

        for name in ("_scramble", "_first_repeat", "_first_equal", "is_discriminating"):
            monkeypatch.setattr(discriminator, name, refuse)
        monkeypatch.setattr(Polynomial, "evaluate", refuse)
        monkeypatch.setattr(Polynomial, "values", refuse)
        assert d_values(scan(x_dx_minus_1(29), 40)) == d_values(scan(P(5, -1, 29), 40))
        assert compute(P(0, 24, -3), 5) == Run(5, 5, None, 0)  # f(3) = f(5)

    def test_a_quadratic_search_factors_no_modulus(self):
        # the divisor walk finds every divisor it needs, and the accepting
        # test's death time is the walk's: no modulus reaches _death_time twice
        for f, n_max in ((x_dx_minus_1(29), 3000), (P(0, -1, 1), 2000), (P(0, -1, 2), 2000)):
            with mock.patch.object(discriminator, "factorize", side_effect=AssertionError("factored")), \
                    mock.patch.object(discriminator, "_death_time", wraps=discriminator._death_time) as death:
                runs = scan(f, n_max)
                walked = [call.args[2] for call in death.call_args_list]
                compute(f, n_max)
            assert len(walked) == len(set(walked))
            assert {run.value for run in runs} - {1} <= set(walked)

    def test_other_degrees_never_take_a_death_time(self):
        with mock.patch.object(discriminator, "_death_time", side_effect=AssertionError) as death:
            scan(parse_polynomial("(x^2+x+41)^4"), 60)
            scan(P(0, 1), 30)
            compute(P(0, 3, 0, 1), 20)
        assert not death.called


class TestPathTest:
    """A path's test of m at n returns m's death: T(m) - 1, the last n' at
    which f(1..n') are distinct mod m, when T(m) > n, and a number below n
    otherwise. The value path caps the death at n_max, the values it holds."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), max_size=5),
        st.integers(1, 14),
        st.integers(1, 14),
        # m, or ("above", k) for m = 64 n + 1 + k, where a check marks a dict
        st.one_of(st.integers(1, 60), st.integers(0, 80).map(lambda k: ("above", k))),
    )
    @example([], 3, 3, 5)  # zero polynomial: T(m) = 2
    @example([4], 3, 2, 1)  # constant
    @example([0, -3, 1], 6, 1, 7)  # x(x-3): f(1) = f(2)
    @example([0, -40, 1], 40, 18, 41)  # x(x-40): alive at 18, f(19) = f(21)
    @example([0, -1, 29], 1, 1, 1)  # n_max = 1
    @example([0, 0, 0, 0, 0, 1], 1, 1, 3)  # n_max = 1 on the value path
    @example([0, -1, 29], 12, 3, ("above", 0))  # m = 193, above 64 n
    @example([0, 0, 0, 1], 14, 2, ("above", 82))  # m = 211: 14^3 = 1 + 13 * 211
    def test_returns_the_death(self, coeffs, n_max, n, m):
        f, n = P(*coeffs), min(n, n_max)
        if isinstance(m, tuple):
            m = 64 * n + 1 + m[1]
        expected = death_time(f, m) - 1
        paths = [discriminator._path(f, n_max)]
        if f.degree == 2:
            with value_path():
                paths.append(discriminator._path(f, n_max))
        for path in paths:  # fresh paths: no stamp table has seen m
            got = path.at(n)(m)
            if expected < n:
                assert got < n
            elif isinstance(path, discriminator._Values):
                assert got == min(expected, n_max)
            else:
                assert got == expected


def least_s(a, b, m):
    """The least s >= 3 with m | a s + b, or None: with h = gcd(a, m) there is
    one when h | b, and then s = (-b/h)(a/h)^-1 mod m/h, one modular inverse."""
    h = math.gcd(a, m)
    if b % h:
        return None
    step = m // h
    return 3 + (-(b // h) * pow(a // h, -1, step) - 3) % step


def sieve_applies(f, lower, n_max):
    """Whether a search of f from `lower` within n <= n_max takes the u = 1
    sieve: by the rule in `_Quadratic`, restated from a and b."""
    _, b, a = f.coeffs
    a, b = (a, b) if a > 0 else (-a, -b)
    start = 3 * a + b + 1
    return 2 <= start <= lower and start + 4 * a <= n_max


class TestSieve:
    """A quadratic's moduli m > 3a + b >= 1 get their least s at u = 1 from a
    table of a cofactors, and a scan's searches drop, untested, those that
    die at u = 1 by n."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(-60, 60), HUGE), st.integers(-300, 300), st.integers(1, 120))
    @example(0, 5, 7)  # a = 0 mod every m: an s only when m | b
    @example(6, 3, 10)  # h = 2 does not divide b
    def test_least_s_equals_trying_one_period(self, a, b, m):
        # the oracle below solves for s; the s >= 3 with m | a s + b repeat
        # with a period dividing m, so one period of trials finds the least
        tried = next((s for s in range(3, m + 3) if (a * s + b) % m == 0), None)
        assert least_s(a, b, m) == tried

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-300, 300).filter(bool),
        st.integers(-2000, 2000),
        st.integers(1, 5000),
        st.integers(1, 200),
    )
    @example(29, -1, 87, 50)  # x(29x-1) from start = 3a + b + 1 = 87
    @example(6, 3, 10, 200)  # gcd(a, b) = 3: only the j with gcd(6, j) | 3
    @example(6, 1, 5, 100)  # gcd(6, m) = 2 never divides 1: even m have no s
    @example(1, -1, 3, 100)  # a = 1: j = 1, s = m - b for every m
    @example(-7, 2, 20, 100)  # negative a: the table is built for 7x^2 - 2x
    def test_cofactors_give_the_least_s(self, a, b, lo, width):
        a, b = (a, b) if a > 0 else (-a, -b)
        assume(3 * a + b >= 1)
        J = discriminator._cofactors(a, b)
        assert len(J) == a
        for m in range(max(lo, 3 * a + b + 1), lo + width):
            j = J[m % a]
            if j == 2 * a + 1:
                assert least_s(a, b, m) is None
            else:
                assert 1 <= j <= a and (j * m - b) % a == 0
                assert (j * m - b) // a == least_s(a, b, m)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.integers(-40, 40), HUGE).filter(bool),
        st.one_of(st.integers(-300, 300), HUGE),
        st.integers(1, 600),
        st.integers(0, 600),
        st.integers(1, 120),
        st.integers(1, 2000),
    )
    @example(29, -1, 100, 10, 200, 3000)  # x(29x-1): sieved
    @example(29, -1, 50, 10, 200, 3000)  # starts below start = 87: every candidate is tested
    @example(29, -1, 100, 10, 200, 100)  # n_max < start + 4a: no table is built
    @example(5000, -1, 20000, 100, 100, 10 ** 6)  # a = 5000: sieved
    @example(8191, -1, 30000, 100, 100, 60000)  # a = 8191 from start = 24,573
    @example(8191, -1, 32714, 0, 100, 60000)  # lower = 4a - 50: the window wraps the table
    @example(100003, -1, 400000, 0, 200, 10 ** 6)  # a = 100,003 from start = 300,009
    @example(100003, -1, 299999, 10, 200, 10 ** 6)  # lower = 300,009 = start: the first sieved search
    @example(3, -9, 40, 0, 50, 1000)  # 3a + b = 0: f(1) = f(2), nothing sieved
    @example(10 ** 30, 1, 100, 0, 50, 1000)  # 31-digit a
    def test_a_search_drops_exactly_the_moduli_dead_at_u1(self, a, b, n, extra, width, n_max):
        # the candidates below lower + width: when the sieve applies, every m
        # but those with a least s <= 2n - 1; otherwise every m
        f = P(0, b, a)
        lower = n + extra  # a search starts at or above n
        path = discriminator._Quadratic(f, max(n, n_max))
        got = list(takewhile(lambda m: m < lower + width, path.candidates(lower, n)))
        window = range(lower, lower + width)
        if sieve_applies(f, lower, max(n, n_max)):
            assert got == [m for m in window if (least_s(a, b, m) or 2 * n) > 2 * n - 1]
        else:
            assert got == list(window)

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(-5, 5).filter(bool),
        # b, or the s >= 3 with a s + b = 0, where f(1..n) repeat exactly
        st.one_of(st.integers(-60, 60), HUGE, st.integers(3, 40).map(lambda s: ("s", s))),
        st.integers(-30, 30),
        st.integers(1, 3),
        st.integers(20, 60),
    )
    @example(1, -1, 0, 1, 60)  # x(x-1): a = 1, every m > 2 has s = m + 1
    @example(2, -1, 0, 1, 60)  # x(2x-1)
    @example(4, -1, 0, 1, 60)  # x(4x-1): the primes family
    @example(3, 3, 0, 2, 60)  # 6x^2 + 6x: gcd(a, b) = 6 and c = 12
    @example(2, -6, 1, 1, 60)  # b = -3a: 3a + b = 0, f(1) = f(2)
    @example(2, -9, 1, 1, 60)  # b < -3a: nothing sieved
    @example(-3, 5, 7, 1, 60)  # negative a
    @example(10 ** 30, -(10 ** 30) * 9, 1, 1, 30)  # s = 9 with 31-digit coefficients
    def test_sieved_searches_agree_with_the_value_path_and_all_pairs(self, a, b, e, k, n_max):
        if isinstance(b, tuple):
            b = -a * b[1]
        f = P(e, b, a).scale(k)
        runs = scan(f, n_max)
        cold = [compute(f, n).value for n in range(1, n_max + 1)]
        with value_path():
            assert [run[:3] for run in scan(f, n_max)] == [run[:3] for run in runs]
            assert [compute(f, n).value for n in range(1, n_max + 1)] == cold
        assert d_values(runs) == cold
        assert cold[-1] == naive_discriminator(f, n_max)

    def test_sieved_examples_take_the_sieve(self):
        # the differential examples above that the rule sieves do sieve
        for a, b, k in ((1, -1, 1), (2, -1, 1), (4, -1, 1), (3, 3, 2), (-3, 5, 1)):
            path = discriminator._Quadratic(P(0, b, a).scale(k), 60)
            assert path.cofactors is not None, (a, b, k)

    def test_a_table_scan_tests_few_moduli(self):
        # scan(x(29x-1), 3000) calls _death_time 4,521 times without the sieve;
        # 421 of those moduli live past u = 1. The sieve leaves 470: the 53
        # moduli below start = 87 and the 4 above it in the search that
        # crosses 87, which are tested from u = 1, and 413 survivors above
        with mock.patch.object(discriminator, "_death_time", wraps=discriminator._death_time) as death:
            runs = scan(x_dx_minus_1(29), 3000)
        moduli = [call.args[2] for call in death.call_args_list]
        assert len(moduli) == 470 and sum(m < 87 for m in moduli) == 53
        with mock.patch.object(discriminator._Quadratic, "candidates", lambda self, lower, n: count(lower)):
            with mock.patch.object(discriminator, "_death_time", wraps=discriminator._death_time) as death:
                assert scan(x_dx_minus_1(29), 3000) == runs
        assert death.call_count == 4521

    def test_a_long_scan_keeps_its_memory_small(self):
        tracemalloc.start()
        try:
            scan(x_dx_minus_1(29), 10 ** 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_a_large_a_scan_keeps_its_memory_small(self):
        # a = 8,191: the table holds a cofactors and no search copies it
        tracemalloc.start()
        try:
            scan(x_dx_minus_1(8191), 60000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

