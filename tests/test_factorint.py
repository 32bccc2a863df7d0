"""Reference factorization utilities: primality, roots, rho."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import factorint
from orderlab.factorint import (
    FactorizationTimeout,
    factorize,
    iroot,
    is_probable_prime,
    perfect_power,
)


def sieve(limit: int) -> set[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return {i for i, f in enumerate(flags) if f}


def strong_probable_prime(n: int, a: int) -> bool:
    """n passes the Miller-Rabin round with base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def floor_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) by bisection, independent of iroot."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def perfect_power_all_k(n: int) -> tuple[int, int] | None:
    """Least k >= 2 (any k, prime or not) with n a k-th power, and its base."""
    for k in range(2, n.bit_length() + 1):
        b = floor_root(n, k)
        if b >= 2 and b ** k == n:
            return b, k
    return None


class TestIsProbablePrime:
    def test_against_sieve(self):
        primes = sieve(20000)
        for n in range(20000):
            assert is_probable_prime(n) == (n in primes)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_probable_prime(n)

    def test_large_known(self):
        assert is_probable_prime(2 ** 61 - 1)
        assert is_probable_prime(2 ** 89 - 1)
        assert not is_probable_prime(2 ** 67 - 1)  # 193707721 * 761838257287

    def test_deterministic_verdicts(self):
        n = 2 ** 61 - 1
        assert is_probable_prime(n) == is_probable_prime(n)

    @pytest.mark.parametrize(
        "n, fooled",
        [
            (3825123056546413051, 11),  # strong pseudoprime to 2 .. 31
            (318665857834031151167461, 12),  # to 2 .. 37
            (3317044064679887385961981, 13),  # to 2 .. 41, the exactness limit
        ],
    )
    def test_strong_pseudoprimes_rejected(self, n, fooled):
        verdicts = [strong_probable_prime(n, a) for a in sorted(sieve(43))]
        assert verdicts == [True] * fooled + [False] * (len(verdicts) - fooled)
        assert not is_probable_prime(n)

    def test_exact_bases_match_seeded_rounds(self, monkeypatch):
        primes = sieve(10 ** 5)
        exact = [is_probable_prime(n) for n in range(10 ** 5)]
        monkeypatch.setattr(factorint, "_MR_EXACT_LIMIT", 0)
        seeded = [is_probable_prime(n) for n in range(10 ** 5)]
        assert exact == seeded
        assert exact == [n in primes for n in range(10 ** 5)]


class TestIroot:
    @given(st.integers(0, 10 ** 30), st.integers(1, 80))
    @settings(max_examples=300)
    def test_floor_property(self, n, k):
        b = iroot(n, k)
        assert b ** k <= n
        assert (b + 1) ** k > n

    def test_exact_powers(self):
        assert iroot(10 ** 30, 3) == 10 ** 10
        assert iroot(2 ** 64, 2) == 2 ** 32

    def test_validation(self):
        with pytest.raises(ValueError):
            iroot(-1, 2)
        with pytest.raises(ValueError):
            iroot(4, 0)


class TestPerfectPower:
    def test_finds_powers(self):
        assert perfect_power(8) == (2, 3)
        assert perfect_power(3 ** 7) == (3, 7)
        assert perfect_power(36) == (6, 2)
        base, k = perfect_power(2 ** 60)
        assert base ** k == 2 ** 60 and k >= 2

    def test_rejects_non_powers(self):
        for n in (2, 3, 6, 12, 2 ** 61 - 1, 10 ** 10 + 1):
            assert perfect_power(n) is None

    def test_matches_all_k_oracle(self):
        rnd = random.Random(2017)
        ns = {b ** k for b in range(2, 61) for k in range(2, 31)}
        ns.update(range(5000))
        ns.update((1 << 47) | (rnd.getrandbits(47) << 1) | 1 for _ in range(300))  # 48-bit odd
        for n in sorted(ns):
            assert perfect_power(n) == perfect_power_all_k(n), n

    @given(st.integers(2, 10 ** 6), st.integers(2, 12))
    @settings(max_examples=200)
    def test_round_trip(self, base, k):
        got = perfect_power(base ** k)
        assert got is not None
        b, e = got
        assert b ** e == base ** k


class TestFactorize:
    @given(st.integers(1, 10 ** 6))
    @settings(max_examples=300)
    def test_product_and_primality(self, n):
        f = factorize(n)
        assert math.prod(p ** e for p, e in f.items()) == n
        assert all(is_probable_prime(p) for p in f)
        assert all(e >= 1 for e in f.values())

    def test_semiprimes_beyond_trial_division(self):
        rnd = random.Random(42)
        primes = []
        while len(primes) < 6:
            cand = rnd.getrandbits(28) | (1 << 27) | 1
            if is_probable_prime(cand):
                primes.append(cand)
        for a, b in zip(primes[::2], primes[1::2]):
            assert factorize(a * b) == ({a: 2} if a == b else {a: 1, b: 1})

    def test_prime_power_beyond_trial_division(self):
        p = 1_000_003  # a prime far above the trial-division table (primes below 2**10)
        assert factorize(p * p) == {p: 2}
        assert factorize(p ** 3) == {p: 3}

    def test_mixed_structure(self):
        n = 2 ** 5 * 3 * 1_000_003 ** 2 * (2 ** 31 - 1)
        assert factorize(n) == {2: 5, 3: 1, 1_000_003: 2, 2 ** 31 - 1: 1}

    def test_least_factor_above_table(self):
        # prime factors in (2**10, 10**6], the band the old trial division
        # reached and rho now covers, alone and next to small primes
        band = sorted(p for p in sieve(10 ** 6) if p > 1 << 10)
        rnd = random.Random(1031)
        cases = [
            {1031: 1, 1033: 1},
            {1031: 2},
            {1031: 3},
            {999983: 2},
            {65537: 3},
            {1031: 1, 999983: 1},
            {2: 5, 1031: 2, 1033: 1},
            {3: 4, 1021: 1, 1031: 1, 999983: 2},
            {1031: 1, 1033: 1, 1039: 1, 1049: 1},
        ]
        for _ in range(20):
            a, b = rnd.sample(band, 2)
            cases += [{a: 1, b: 1}, {a: 2}, {a: 3}, {a: 2, b: 1}]
        for want in cases:
            assert factorize(math.prod(p ** e for p, e in want.items())) == want

    def test_cofactor_just_above_table(self):
        assert factorize(1031) == {1031: 1}
        assert factorize(1021 * 1031) == {1021: 1, 1031: 1}
        assert factorize(1021 ** 2) == {1021: 2}
        assert factorize(1031 ** 2) == {1031: 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            factorize(0)
        assert factorize(1) == {}

    def test_timeout_raises(self):
        # two 40-bit primes: rho needs ~2**20 iterations, far over a budget of 100
        a, b = 1099511627791, 1099511627803
        with pytest.raises(FactorizationTimeout):
            factorize(a * b, rho_budget=100)
