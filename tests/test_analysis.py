import random

import pytest

from polydisc import analysis
from polydisc import (
    Kind,
    Polynomial,
    Run,
    check_conjecture1,
    check_theorem3,
    classify_value,
    emit_csv,
    emit_latex,
    run_length_table,
    scan,
    x_dx_minus_1,
)
from polydisc.ntheory import FACTOR_LIMIT, factorize, is_prime, next_prime_satisfying

from tables import POWER_FORMULA_SMALL_N


class TestInputChecks:
    @pytest.mark.parametrize("call,args,message", [
        (analysis.verify_theorem, (6,), "unknown theorem 6"),
        (emit_csv, ([(1, 1, 5)], 4), "4 is not prime"),
        (classify_value, (0, 3), "value must be >= 1"),
        (classify_value, (FACTOR_LIMIT, 2), "factorize requires 1 <= n < 1,000,000,000,000"),
        (emit_csv, ([(1, 1, 5), (2, 2, FACTOR_LIMIT)], 2), "factorize requires 1 <= n < 1,000,000,000,000"),
        (analysis.csv_prime, (x_dx_minus_1(3), [(1, 1, 5), (2, 2, FACTOR_LIMIT)]),
         "csv_prime requires every value < 1,000,000,000,000"),
    ], ids=["verify_theorem", "emit_csv", "classify_value", "classify_value-limit", "emit_csv-limit", "csv_prime-limit"])
    def test_refuses(self, call, args, message):
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == message


class TestClassifyValue:
    def test_examples(self):
        assert classify_value(841, 29) is Kind.POWER_OF_P
        assert classify_value(15, 29) is Kind.COMPOSITE_OTHER
        assert classify_value(1, 7) is Kind.UNIT
        assert classify_value(16, 7) is Kind.PRIME_POWER_OTHER

    def test_partition(self):
        for p in (2, 3, 7, 29):
            for v in range(1, 10 ** 4 + 1):
                kind = classify_value(v, p)
                factors = factorize(v)
                expected = (
                    Kind.UNIT if v == 1
                    else Kind.PRIME if is_prime(v)
                    else Kind.POWER_OF_P if len(factors) == 1 and factors[0][0] == p
                    else Kind.PRIME_POWER_OTHER if len(factors) == 1
                    else Kind.COMPOSITE_OTHER
                )
                assert kind is expected, (v, p)

    def test_rejects_composite_family_prime(self):
        with pytest.raises(ValueError):
            classify_value(10, 6)

    def test_a_table_proves_its_prime_once(self, monkeypatch):
        # proving a 31-digit p runs BPSW; a CSV or a Conjecture 1 check
        # classifies many values against it but proves it once
        p = next_prime_satisfying(10 ** 30, 0, 1)
        proofs = []

        def counted(n):
            proofs.append(n)
            return is_prime(n)

        monkeypatch.setattr(analysis.ntheory, "is_prime", counted)
        rows = run_length_table(scan(x_dx_minus_1(p), 60))
        assert len(rows) > 2
        emit_csv(rows, p)
        assert proofs.count(p) == 1
        proofs.clear()
        assert check_conjecture1(p, 1, 60)
        assert proofs.count(p) == 1


class TestRunTable:
    def test_single_run(self):
        assert run_length_table([Run(1, 3, 5, 0)]) == [(1, 3, 5)]

    def test_paper_rows_present(self):
        t1 = run_length_table(scan(x_dx_minus_1(27), 300))
        assert (82, 95, 223) in t1 and (96, 243, 243) in t1
        t2 = run_length_table(scan(x_dx_minus_1(49), 300))
        assert (9, 9, 21) in t2 and (153, 300, 343) in t2

    def test_round_trip_random(self):
        # random runs tiling 1..n with increasing values: each row is its
        # run's (n_low, n_high, value), so reading the rows n by n gives back
        # the sequence the runs encode
        rng = random.Random(3)
        for _ in range(100):
            runs, seq = [], []
            v = rng.randint(1, 5)
            for _ in range(rng.randint(1, 12)):
                length = rng.randint(1, 6)
                runs.append(Run(len(seq) + 1, len(seq) + length, v, rng.randint(0, 9)))
                seq += [v] * length
                v += rng.randint(1, 9)
            rows = run_length_table(runs)
            assert rows == [run[:3] for run in runs]
            assert [value for n_low, n_high, value in rows for _ in range(n_low, n_high + 1)] == seq

    def test_rows_contiguous_and_distinct(self):
        rows = run_length_table(scan(x_dx_minus_1(29), 500))
        for (a_lo, a_hi, a_v), (b_lo, b_hi, b_v) in zip(rows, rows[1:]):
            assert b_lo == a_hi + 1
            assert a_v != b_v
        assert rows[0][0] == 1

    def test_rejects_nonexistent(self):
        with pytest.raises(ValueError):
            run_length_table([Run(1, 1, None, 0)])

    def test_nonexistent_error_names_the_first_n(self):
        # f = 7: D(1) = 1, and from n = 2 on the values themselves collide
        with pytest.raises(ValueError) as exc:
            run_length_table(scan(Polynomial.from_coeffs([7]), 4))
        assert str(exc.value) == "D is nonexistent at n=2; run-length table undefined"


class TestEmitCsv:
    def test_table3_line(self):
        text = emit_csv(run_length_table(scan(x_dx_minus_1(29), 500)), 29)
        assert "5,5,15,composite_other" in text.splitlines()

    def test_table1_power_line(self):
        rows = run_length_table(scan(x_dx_minus_1(27), 300))
        assert "96,243,243,power_of_p" in emit_csv(rows, 3).splitlines()

    def test_shape(self):
        text = emit_csv([(1, 3, 5)], 5)
        lines = text.split("\n")
        assert lines[0] == "n_low,n_high,value,class"
        assert lines[1] == "1,3,5,prime"
        assert lines[-1] == ""  # single trailing newline, no blank line
        assert not text.endswith("\n\n")


class TestCsvPrime:
    def test_labels_match_the_largest_prime_factor(self):
        rng = random.Random(5)
        primes = [q for q in range(2, 60) if is_prime(q)] + [1009, 10 ** 9 + 7]
        for _ in range(300):
            lead, full = rng.choice((1, -1)), 2  # full: the largest prime in lead, 2 for +-1
            for _ in range(rng.randint(0, 4)):
                q = rng.choice(primes)
                lead, full = lead * q ** rng.randint(1, 3), max(full, q)
            values = sorted(
                rng.choice(primes[:8]) ** rng.randint(1, 6) if rng.random() < 0.6 else rng.randint(1, 5000)
                for _ in range(rng.randint(1, 12))
            )
            rows = [(n, n, value) for n, value in enumerate(values, 1)]
            f = Polynomial.from_coeffs([0, -1, lead])
            assert emit_csv(rows, analysis.csv_prime(f, rows)) == emit_csv(rows, full), (lead, values)

    def test_exact_when_a_row_has_the_prime_as_base(self):
        # 98 = 2 * 7^2: the row 49 = 7^2 reads the prime, and 7 is exact
        assert analysis.csv_prime(x_dx_minus_1(98), [(1, 1, 1), (2, 2, 16), (3, 3, 49)]) == 7
        assert analysis.csv_prime(Polynomial.from_coeffs([]), [(1, 1, 1)]) == 2


class TestEmitLatex:
    def test_layout(self):
        text = emit_latex(run_length_table(scan(x_dx_minus_1(29), 500)), "x*(29*x - 1)", 500)
        assert "\\begin{tabular}{| c | c | c | c |}" in text
        assert "$n$ & $D_f(n)$ & $n$ & $D_f(n)$ \\\\" in text
        assert "5 & 15" in text
        assert "386 - 500 & 841" in text


class TestConjecture1:
    def test_table3_exceptions(self):
        exceptions = check_conjecture1(29, 1, 500)
        assert [(n, v) for n, v, _ in exceptions] == [(1, 1), (5, 15)]
        assert exceptions[0][2] is Kind.UNIT
        assert exceptions[1][2] is Kind.COMPOSITE_OTHER

    def test_table2_exceptions(self):
        exceptions = {(n, v): kind for n, v, kind in check_conjecture1(7, 2, 300)}
        assert exceptions[(8, 16)] is Kind.PRIME_POWER_OTHER
        assert exceptions[(9, 21)] is Kind.COMPOSITE_OTHER

    def test_power_of_two_family_only_unit(self):
        assert [(n, v) for n, v, _ in check_conjecture1(2, 1, 64)] == [(1, 1)]

    @pytest.mark.parametrize("p,r,message", [
        (6, 1, "p=6 is not prime"),
        (2, 0, "r must be >= 1"),
        (2, 1001, "r=1001 exceeds the cap 1000"),
    ])
    def test_refuses_the_family_before_it_scans(self, monkeypatch, p, r, message):
        monkeypatch.setattr(analysis, "scan", lambda f, n_max: pytest.fail("scanned a refused family"))
        with pytest.raises(ValueError) as exc:
            check_conjecture1(p, r, 5)
        assert str(exc.value) == message


class TestTheorem3:
    def test_empty_at_15(self):
        assert check_theorem3(15) == []

    def test_empty_at_100(self):
        assert check_theorem3(100) == []

    def test_empty_at_3000(self):
        assert check_theorem3(3000) == []

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            check_theorem3(14)

    @pytest.mark.parametrize("n_max", [15, 16, 40, 100])
    def test_matches_the_double_loop_with_violations(self, monkeypatch, n_max):
        # the n x m double loop the walk replaced; with no m counted as prime,
        # every discriminating m that is not a power of two offends
        monkeypatch.setattr(analysis.ntheory, "is_prime", lambda m: False)
        values = Polynomial.from_coeffs([0, -1, 1]).values(n_max)
        reference = [
            (n, m)
            for n in range(15, n_max + 1)
            for m in range(1, 24 * n // 10 + 1)
            if not analysis.ntheory.is_prime(m)
            and m & (m - 1) != 0
            and len({v % m for v in values[:n]}) == n
        ]
        assert reference
        assert check_theorem3(n_max) == reference


class TestVerifyTheorem:
    def test_verdict_repr_and_frozen_fields(self):
        verdict = analysis.verify_theorem(1, 9)
        assert repr(verdict) == (
            "Verdict(ok=True, message='d=3: oracle equals 3^ceil(log3 n) for all n <= 9', notes=())"
        )
        with pytest.raises(AttributeError):
            verdict.ok = False

    def test_counterexample_fails(self, monkeypatch):
        real = analysis.sun_power_formula
        monkeypatch.setattr(analysis, "sun_power_formula", lambda d, n: real(d, n) + (n == 10))
        verdict = analysis.verify_theorem(1, 27)
        assert not verdict.ok
        assert verdict.message == "counterexample d=3 n=10: oracle 27, formula 28"

    def test_a_known_exception_excuses_only_its_exact_mismatch(self, monkeypatch):
        # (8, 18, 19) is listed for j = 4; a formula reading 20 there is not
        real = analysis.bsw_discriminator
        monkeypatch.setattr(analysis, "bsw_discriminator", lambda j, n: 20 if (j, n) == (4, 8) else real(j, n))
        verdict = analysis.verify_theorem(5, 12)
        assert verdict == (False, "counterexample j=4 n=8: oracle 18, formula 20", ())

    def test_theorem5_notes_are_the_exception_table(self):
        verdict = analysis.verify_theorem(5, 100)
        assert verdict.ok and len(verdict.notes) == 9
        table = {j: list(v) for j, v in analysis.KNOWN_POWER_FORMULA_EXCEPTIONS.items()}
        assert table == POWER_FORMULA_SMALL_N
