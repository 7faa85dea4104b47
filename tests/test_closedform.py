import bisect
import functools
import itertools
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydisc import (
    FAMILIES,
    Polynomial,
    Run,
    bsw_discriminator,
    check_theorem4,
    compute,
    lemma1_bound,
    prime_power_family,
    scan,
    sun_power_formula,
    sun_prime_discriminator,
    x_dx_minus_1,
)
from polydisc import closedform, ntheory
from polydisc.closedform import (
    EIGHTEEN_X_3XMINUS1,
    FAMILY_VALID_FROM,
    FOUR_X_4XMINUS1,
    TWO_X_XMINUS1,
    _formula_runs,
    _mismatches,
    family_primes,
    sample_sandwich_trials,
)

from tables import POWER_FORMULA_SMALL_N, per_n, perturbed_scan


def x_power(j):
    return Polynomial.from_coeffs([0] * j + [1])


class TestPrimePowerFamily:
    def test_builds_x_prs_x_minus_1(self):
        assert prime_power_family(7, 2) == x_dx_minus_1(49)
        assert prime_power_family(2, 1000) == x_dx_minus_1(2 ** 1000)  # the cap is inclusive

    @pytest.mark.parametrize("p,r,message", [
        (6, 1, "p=6 is not prime"),
        (3317044064679887385961981, 1, "p=3317044064679887385961981 is not prime"),  # a strong pseudoprime
        (2, 0, "r must be >= 1"),
        (2, 1001, "r=1001 exceeds the cap 1000"),
    ])
    def test_refuses(self, p, r, message):
        with pytest.raises(ValueError) as exc:
            prime_power_family(p, r)
        assert str(exc.value) == message


class TestInputChecks:
    @pytest.mark.parametrize("call,args,message", [
        (sun_power_formula, (2, 0), "n must be >= 1"),
        (bsw_discriminator, (0, 5), "j and n must be >= 1"),
        (lemma1_bound, (29, 0, 5), "r and n must be >= 1"),
        (sun_prime_discriminator, (FAMILIES["2xx1"], 0), "n must be >= 1"),
        (bsw_discriminator, (3, 10 ** 12), "factorize requires 1 <= n < 1,000,000,000,000"),
    ], ids=["sun_power_formula", "bsw_discriminator", "lemma1_bound", "sun_prime_discriminator", "bsw_discriminator-limit"])
    def test_refuses(self, call, args, message):
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == message


class TestSunPowerFormula:
    def test_examples(self):
        assert sun_power_formula(3, 10) == 27
        assert sun_power_formula(4, 5) == 8
        assert sun_power_formula(2, 1) == 1

    def test_rejects_unproven_d(self):
        for d in (5, 6, 7, 12, 29):
            with pytest.raises(ValueError):
                sun_power_formula(d, 10)

    def test_agrees_with_oracle(self):
        for d in (2, 3, 4, 8, 16):
            for n, value in per_n(scan(x_dx_minus_1(d), 200)):
                assert value == sun_power_formula(d, n), (d, n)


class TestLemma1:
    def test_examples(self):
        assert lemma1_bound(3, 3, 98) == 243
        assert lemma1_bound(7, 2, 49) == 49
        assert lemma1_bound(29, 1, 500) == 841

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            lemma1_bound(6, 1, 10)

    def test_bounds_oracle(self):
        for p, r in ((2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 2), (7, 2), (29, 1)):
            for n, value in per_n(scan(x_dx_minus_1(p ** r), 300)):
                assert value <= lemma1_bound(p, r, n), (p, r, n)

    def test_corollary_equality_at_powers(self):
        for p, r in ((2, 1), (2, 2), (3, 1), (3, 3), (5, 1), (5, 2), (7, 2), (29, 1)):
            pk = p
            while pk <= 300:
                assert compute(x_dx_minus_1(p ** r), pk).value == pk, (p, r, pk)
                pk *= p


class TestBSW:
    def test_examples(self):
        assert bsw_discriminator(2, 5) == 10
        assert bsw_discriminator(3, 5) == 5
        assert bsw_discriminator(3, 1) == 1

    def test_oracle_equivalence_odd(self):
        for j in (3, 5, 9):
            for n in range(1, 101):
                assert bsw_discriminator(j, n) == compute(x_power(j), n).value, (j, n)

    def test_oracle_equivalence_even_with_known_small_n(self):
        for j in (2, 4, 6):
            known = {(n, o, f) for n, o, f in POWER_FORMULA_SMALL_N[j]}
            for n in range(1, 101):
                oracle = compute(x_power(j), n).value
                formula = bsw_discriminator(j, n)
                if oracle != formula:
                    assert (n, oracle, formula) in known, (j, n, oracle, formula)

    def test_odd_branch_factors_each_k_once(self, monkeypatch):
        # phi of a squarefree k comes from its one factorization
        factored = []

        def factorize(k):
            factored.append(k)
            return real(k)

        real = ntheory.factorize
        monkeypatch.setattr(ntheory, "factorize", factorize)
        assert (bsw_discriminator(3, 100), bsw_discriminator(9, 1000)) == (101, 1002)
        assert factored == [100, 101, 1000, 1001, 1002]

    def test_odd_radical_invariance(self):
        for n in range(1, 201):
            v = bsw_discriminator(3, n)
            assert bsw_discriminator(9, n) == v
            assert bsw_discriminator(27, n) == v

    def test_composition_identity_same_radical(self):
        # D is invariant under composing odd powers whose exponents share the
        # same prime factors: x^3 o x^9 = x^27 and radical(27) = radical(3)
        cube, composed = x_power(3), x_power(27)
        for n in range(1, 61):
            assert compute(composed, n).value == compute(cube, n).value, n

    def test_composition_differs_across_radicals(self):
        # x^3 o x^5 = x^15 has radical {3, 5}, not {3}, so the identity does
        # not apply: phi(11) = 10 is coprime to 3 but shares 5 with 15
        fifteenth = x_power(15)
        assert compute(x_power(3), 11).value == 11
        assert compute(fifteenth, 11).value == 15


WALK_N_MAX = 10 ** 5


@functools.cache
def walked_runs(tag):
    """`_formula_runs` of a family from n = 1 on, through the run past WALK_N_MAX."""
    runs = []
    for run in _formula_runs(FAMILIES[tag], 1):
        runs.append(run)
        if run[0] > WALK_N_MAX:
            return runs


class TestPrimeFamilies:
    def test_examples(self):
        assert sun_prime_discriminator(TWO_X_XMINUS1, 4) == 7
        assert sun_prime_discriminator(FOUR_X_4XMINUS1, 4) == 13
        assert sun_prime_discriminator(EIGHTEEN_X_3XMINUS1, 3) == 13

    def test_family_registry(self):
        assert set(FAMILIES) == {"2xx1", "4x4x1", "18x3x1"}
        assert FAMILIES["2xx1"].polynomial == Polynomial.from_coeffs([0, -2, 2])
        assert FAMILIES["4x4x1"].polynomial == Polynomial.from_coeffs([0, -4, 16])
        assert FAMILIES["18x3x1"].polynomial == Polynomial.from_coeffs([0, -18, 54])

    def test_threshold_is_exact(self):
        # p > (8n-4)/3 compared without floating point: at n = 5 the threshold
        # is 12, and 13 = 1 mod 4 qualifies while 12 does not exceed itself
        assert FOUR_X_4XMINUS1.threshold_floor(5) == 12
        assert sun_prime_discriminator(FOUR_X_4XMINUS1, 5) == 13

    def test_oracle_equivalence_from_5(self, capsys):
        for family in FAMILIES.values():
            for n, value in per_n(scan(family.polynomial, 200)):
                formula = sun_prime_discriminator(family, n)
                if n >= 5:
                    assert formula == value, (family.tag, n)
                elif formula != value:
                    # small-n disagreements are recorded, not failed
                    print(f"small-n disagreement {family.tag} n={n}: oracle {value}, formula {formula}")

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_family_primes_match_cold_computes(self, monkeypatch, tag, perturbed):
        # the per-n loop family_primes replaced: one cold compute from m = n
        # for every n. family_primes reads the formula at run ends only, so
        # the mismatches to compare come from a perturbed oracle: D + 1 at
        # every n with n % 7 == 0, in scan's runs and the cold computes alike
        family = FAMILIES[tag]
        bump = (lambda n: n % 7 == 0) if perturbed else (lambda n: 0)
        monkeypatch.setattr(closedform, "scan", perturbed_scan(closedform.scan, bump))
        formula = closedform.sun_prime_discriminator
        oracle = {}
        for count in range(1, 61):
            primes, mismatches = [], []
            n = FAMILY_VALID_FROM
            while len(primes) < count:
                if n not in oracle:
                    oracle[n] = compute(family.polynomial, n).value + bump(n)
                if formula(family, n) != oracle[n]:
                    mismatches.append((n, formula(family, n), oracle[n]))
                if not primes or formula(family, n) != primes[-1]:
                    primes.append(formula(family, n))
                n += 1
            assert family_primes(family, count) == (primes, mismatches), count
            assert bool(mismatches) == (perturbed and n > 7)

    def test_an_oracle_run_reaching_below_the_valid_range_is_compared_from_it(self, monkeypatch):
        # the oracle's run of 11 is made to reach down to n = 4, where the
        # formula is not claimed, so only its n >= FAMILY_VALID_FROM count
        monkeypatch.setattr(closedform, "scan", perturbed_scan(closedform.scan, lambda n: 4 * (n == 4)))
        assert closedform.scan(TWO_X_XMINUS1.polynomial, 8)[3] == Run(4, 6, 11, 0)
        assert family_primes(TWO_X_XMINUS1, 3) == ([11, 13, 17], [])

    @pytest.mark.parametrize("count", [0, -1])
    def test_family_primes_refuses_a_count_below_one(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            family_primes(TWO_X_XMINUS1, count)

    def test_size_windows(self):
        for n in range(5, 201):
            p4 = sun_prime_discriminator(FOUR_X_4XMINUS1, n)
            assert 3 * p4 > 8 * n - 4 and p4 < 8 * n, n
            p18 = sun_prime_discriminator(EIGHTEEN_X_3XMINUS1, n)
            assert 3 * n < p18 < 54 * n, n

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, WALK_N_MAX))
    def test_the_walk_holds_the_formula(self, tag, n):
        # the walked run that holds n has the formula's prime at n, and its
        # last n is the last at which the formula gives that prime
        family = FAMILIES[tag]
        runs = walked_runs(tag)
        i = bisect.bisect_right(runs, n, key=itemgetter(0)) - 1
        (n_low, p), (next_low, next_p) = runs[i], runs[i + 1]
        assert sun_prime_discriminator(family, n) == p
        assert sun_prime_discriminator(family, n_low) == sun_prime_discriminator(family, next_low - 1) == p
        assert sun_prime_discriminator(family, next_low) == next_p > p


@st.composite
def step_formula_and_run(draw):
    """A nondecreasing step formula, as its values at n = 1, 2, ..., and a
    run inside those n, of a value the formula takes in it or near it."""
    values = list(itertools.accumulate(draw(st.lists(st.integers(0, 2), min_size=1, max_size=30))))
    n_low = draw(st.integers(1, len(values)))
    n_high = draw(st.one_of(st.just(n_low), st.integers(n_low, len(values))))
    value = draw(st.one_of(
        st.sampled_from(values[n_low - 1:n_high]), st.integers(values[0] - 1, values[-1] + 1)
    ))
    return values, Run(n_low, n_high, value, 0)


class TestMismatches:
    @settings(max_examples=500, deadline=None)
    @given(case=step_formula_and_run())
    @example(case=([3], Run(1, 1, 3, 0)))  # one n, matching
    @example(case=([3], Run(1, 1, 4, 0)))  # one n, not matching
    @example(case=([1, 2, 2, 2, 3], Run(2, 4, 2, 0)))  # matching at both ends
    @example(case=([1, 2, 2, 2, 3], Run(1, 4, 2, 0)))  # differing at the low end only
    @example(case=([1, 2, 2, 2, 3], Run(2, 5, 2, 0)))  # differing at the high end only
    @example(case=([1, 2, 2, 2, 3], Run(1, 5, 4, 0)))  # differing everywhere
    def test_equals_a_per_n_comparison(self, case):
        values, run = case
        calls = []

        def formula(n):
            calls.append(n)
            return values[n - 1]

        expected = [(n, values[n - 1]) for n in range(run.n_low, run.n_high + 1) if values[n - 1] != run.value]
        assert list(_mismatches(run, formula)) == expected
        if values[run.n_low - 1] == values[run.n_high - 1] == run.value:
            # a run that matches at both ends is read at its ends only
            assert sorted(set(calls)) == sorted({run.n_low, run.n_high})


class TestTheorem4:
    def test_hand_example(self):
        report = check_theorem4(Polynomial.from_coeffs([0, -1, 1]), 2, 4)
        assert report.d_f == 7 and report.d_pf == 7 and report.holds

    def test_identity_polynomial(self):
        report = check_theorem4(Polynomial.from_coeffs([0, 1]), 3, 5)
        assert report.d_f == 5 and 5 <= report.d_pf <= 15 and report.holds

    def test_power_of_two_family(self):
        report = check_theorem4(x_dx_minus_1(4), 2, 8)
        assert report.d_f == 8 and report.holds

    def test_nonexistent_case(self):
        report = check_theorem4(Polynomial.from_coeffs([5]), 3, 4)
        assert report.d_f is None and report.d_pf is None and report.holds

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_zero_polynomial(self, p, n):
        # p * 0 = 0: D_pf is D_f, 1 at n = 1 and nonexistent after
        zero = Polynomial.from_coeffs([])
        d = 1 if n == 1 else None
        assert check_theorem4(zero, p, n) == (zero, p, n, d, d, True)

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            check_theorem4(Polynomial.from_coeffs([0, 1]), 4, 5)

    def test_random_sandwich(self):
        reports = list(sample_sandwich_trials(200, seed=20260824))
        assert len(reports) == 200
        assert all(r.holds for r in reports)
