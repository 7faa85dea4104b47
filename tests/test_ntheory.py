from math import isqrt

import pytest

from polydisc import ntheory


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


class TestIsPrime:
    def test_paper_values(self):
        assert ntheory.is_prime(223)
        assert not ntheory.is_prime(1)
        assert not ntheory.is_prime(841)  # 29^2

    def test_small_cases(self):
        assert [n for n in range(20) if ntheory.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_agrees_with_sieve_to_million(self):
        flags = sieve(10 ** 6)
        for n in range(10 ** 6 + 1):
            assert ntheory.is_prime(n) == bool(flags[n]), n

    def test_large_primes(self):
        assert ntheory.is_prime(2 ** 61 - 1)
        assert not ntheory.is_prime((2 ** 31 - 1) * (2 ** 61 - 1))

    def test_strong_pseudoprime_to_every_ladder_base(self):
        # the least strong pseudoprime to the 13 bases of the top witness set
        n = 3_317_044_064_679_887_385_961_981
        p, q = 1_287_836_182_261, 2_575_672_364_521
        assert n == p * q
        assert ntheory.is_prime(p) and ntheory.is_prime(q)
        assert not ntheory.is_prime(n)

    @pytest.mark.parametrize("n,factor", [
        (2_047, 23),
        (1_373_653, 829),
        (9_080_191, 2_131),
        (25_326_001, 2_251),
        (3_215_031_751, 151),
        (4_759_123_141, 48_781),
        (341_550_071_728_321, 10_670_053),
        (3_825_123_056_546_413_051, 149_491),
        (318_665_857_834_031_151_167_461, 399_165_290_221),
        (3_317_044_064_679_887_385_961_981, 1_287_836_182_261),
    ])
    def test_refuses_each_published_witness_set_bound(self, n, factor):
        # each is the least strong pseudoprime to one published witness set
        # (Jaeschke 1993; Sorenson & Webster 2015), composite by its factor
        assert n % factor == 0 and 1 < factor < n
        assert not ntheory.is_prime(n)

    @pytest.mark.parametrize("centre", [1_373_653, 3_215_031_751])
    def test_agrees_with_a_segmented_sieve_across_a_ladder_bound(self, centre):
        low, high = centre - 50_000, centre + 50_000
        flags = bytearray([1]) * (high - low + 1)
        small = sieve(isqrt(high))
        for p in range(2, isqrt(high) + 1):
            if small[p]:
                start = max(p * p, -(-low // p) * p)
                flags[start - low :: p] = bytearray(len(flags[start - low :: p]))
        for n in range(low, high + 1):
            assert ntheory.is_prime(n) == bool(flags[n - low]), n

    def test_beyond_the_ladder(self):
        assert ntheory.is_prime(2 ** 89 - 1)
        assert ntheory.is_prime(2 ** 127 - 1)
        assert not ntheory.is_prime(2 ** 101 - 1)  # 7432339208719 * 341117531003194129
        assert not ntheory.is_prime((2 ** 61 - 1) * (2 ** 89 - 1))
        assert not ntheory.is_prime((2 ** 61 - 1) ** 2)

    def test_strong_lucas_pseudoprimes(self):
        # odd composites below 30000 passing the Selfridge strong Lucas test
        # (OEIS A217255); it must pass every odd prime
        flags = sieve(30000)
        passing = [n for n in range(3, 30000, 2) if ntheory._strong_lucas_probable_prime(n)]
        assert [n for n in passing if not flags[n]] == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
        assert [n for n in passing if flags[n]] == [n for n in range(3, 30000, 2) if flags[n]]


class TestFactorize:
    def test_examples(self):
        assert ntheory.factorize(841) == [(29, 2)]
        assert ntheory.factorize(1) == []
        assert ntheory.factorize(60) == [(2, 2), (3, 1), (5, 1)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ntheory.factorize(0)

    def test_product_reconstruction(self):
        for n in range(1, 10 ** 5 + 1):
            product = 1
            prev_p = 0
            for p, e in ntheory.factorize(n):
                assert p > prev_p
                prev_p = p
                product *= p ** e
            assert product == n

    @pytest.mark.parametrize("n,factors", [
        (999_983 ** 2, [(999_983, 2)]),  # a loop on d * d < n would call it prime
        (999_979 * 999_983, [(999_979, 1), (999_983, 1)]),
        (999_999_999_989, [(999_999_999_989, 1)]),  # the largest prime below the bound
        (ntheory.FACTOR_LIMIT - 1, [(3, 3), (7, 1), (11, 1), (13, 1), (37, 1), (101, 1), (9_901, 1)]),
    ], ids=["square", "semiprime", "prime", "limit-1"])
    def test_near_the_bound(self, n, factors):
        assert ntheory.factorize(n) == factors


class TestInputChecks:
    @pytest.mark.parametrize("call,args,message", [
        (ntheory.euler_phi, (0,), "euler_phi requires n >= 1"),
        (ntheory.ceil_log, (1, 5), "ceil_log requires base >= 2"),
        (ntheory.next_prime_satisfying, (1, 0, 0), "modulus must be >= 1"),
        (ntheory.factorize, (ntheory.FACTOR_LIMIT,), "factorize requires 1 <= n < 1,000,000,000,000"),
        (ntheory.euler_phi, (ntheory.FACTOR_LIMIT,), "factorize requires 1 <= n < 1,000,000,000,000"),
    ], ids=["euler_phi", "ceil_log", "next_prime_satisfying", "factorize-limit", "euler_phi-limit"])
    def test_refuses(self, call, args, message):
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == message


class TestEulerPhi:
    def test_examples(self):
        assert ntheory.euler_phi(1) == 1
        assert ntheory.euler_phi(10) == 4
        assert ntheory.euler_phi(49) == 42

    def test_prime_arguments(self):
        for p in range(2, 10 ** 4):
            if ntheory.is_prime(p):
                assert ntheory.euler_phi(p) == p - 1


class TestCeilLog:
    def test_examples(self):
        assert ntheory.ceil_log(2, 5) == 3
        assert ntheory.ceil_log(3, 81) == 4
        assert ntheory.ceil_log(3, 1) == 0

    def test_bracketing(self):
        for base in range(2, 11):
            for n in range(2, 10 ** 4 + 1):
                e = ntheory.ceil_log(base, n)
                assert base ** (e - 1) < n <= base ** e


class TestNextPrimeSatisfying:
    def test_examples(self):
        assert ntheory.next_prime_satisfying(6, 0, 1) == 7
        assert ntheory.next_prime_satisfying(12, 1, 4) == 13
        assert ntheory.next_prime_satisfying(9, 1, 3) == 13

    def test_strict_lower(self):
        assert ntheory.next_prime_satisfying(13, 1, 4) == 17

    def test_infeasible_class_with_its_one_prime(self):
        # class 2 mod 4 contains exactly one prime
        assert ntheory.next_prime_satisfying(1, 2, 4) == 2
        with pytest.raises(ValueError):
            ntheory.next_prime_satisfying(2, 2, 4)

    def test_infeasible_class_without_primes(self):
        with pytest.raises(ValueError):
            ntheory.next_prime_satisfying(10, 0, 4)
