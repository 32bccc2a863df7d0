"""Reference factorization utilities: primality, roots, Lehman, rho."""

import math
import random
import types

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from orderlab import bounds, factorint
from orderlab.factorint import (
    FactorizationTimeout,
    factorize,
    iroot,
    is_probable_prime,
    perfect_power,
)
from orderlab.recovery import primes_up_to

LIMIT = factorint._LEHMAN_LIMIT


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


# OEIS A014233: psi_k, the least strong pseudoprime to all of the first
# k primes, for k = 1 .. 13
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def reference_is_prime(n: int) -> bool:
    """Miller-Rabin on all 13 primes 2 .. 41, for odd n > 41."""
    return all(strong_probable_prime(n, a) for a in FIRST_13_PRIMES)


class TestIsProbablePrime:
    def test_bands_are_the_least_k_of_each_psi(self):
        want = tuple((psi, PSI.index(psi) + 1) for psi in sorted(set(PSI)))
        assert factorint._MR_BANDS == want
        assert factorint._MR_EXACT_LIMIT == PSI[-1]

    def test_each_psi_is_rejected(self):
        # psi_k fools every one of the first k bases, so a band that took
        # k bases up to psi_k inclusive would call it prime: the bound is strict
        for k, psi in enumerate(PSI, start=1):
            assert all(strong_probable_prime(psi, a) for a in FIRST_13_PRIMES[:k]), k
            assert not is_probable_prime.__wrapped__(psi), k

    def test_bands_match_all_13_bases(self):
        # a few hundred odd n from each band [psi_(k-1), psi_k), 43 .. 2047 first
        test = is_probable_prime.__wrapped__
        rnd = random.Random(14233)
        limits = sorted(set(PSI))
        for lo, hi in zip([43] + limits, limits):
            ns = [rnd.randrange(lo, hi) | 1 for _ in range(300)]
            verdicts = [test(n) for n in ns]
            assert verdicts == [reference_is_prime(n) for n in ns], (lo, hi)
            assert any(verdicts) and not all(verdicts), (lo, hi)

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
        # the uncached test, so that no verdict of the exact bases is
        # read back from the cache once the limit is patched
        test = is_probable_prime.__wrapped__
        primes = sieve(10 ** 5)
        exact = [test(n) for n in range(10 ** 5)]
        monkeypatch.setattr(factorint, "_MR_EXACT_LIMIT", 0)
        seeded = [test(n) for n in range(10 ** 5)]
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

    def test_rho_stream_is_seeded_only_for_rho(self, monkeypatch):
        # below 2**50 no cofactor reaches rho, so no stream is seeded
        def forbidden(seed):
            raise AssertionError(f"seeded a stream with {seed}")

        monkeypatch.setattr(factorint, "random", types.SimpleNamespace(Random=forbidden))
        assert factorize(16777213 * 16777199) == {16777199: 1, 16777213: 1}
        assert factorize(3 * 1031 ** 2 * 1033) == {3: 1, 1031: 2, 1033: 1}

    def test_lehman_ignores_rho_budget(self):
        # below 2**50 the split is Lehman's bounded search, which takes no budget
        p, q = 16777213, 16777199
        assert factorize(p * q, rho_budget=1) == {p: 1, q: 1}


def reference_factorize(n: int) -> dict[int, int]:
    """factorize with Brent rho on every composite cofactor, as it was
    before the Lehman split."""
    out: dict[int, int] = {}
    for p in factorint._SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if p * p > n:
        out[n] = out.get(n, 0) + 1
        return out
    budget = [1 << 40]
    rng = random.Random(n ^ 0xD1B54A32D192ED03)
    stack = [n]
    while stack:
        v = stack.pop()
        if is_probable_prime(v):
            out[v] = out.get(v, 0) + 1
        elif (pp := perfect_power(v)) is not None:
            stack += [pp[0]] * pp[1]
        else:
            f = None
            while f is None:
                f = factorint._brent_rho(v, rng, budget)
            stack += [f, v // f]
    return out


def reference_lehman(v: int) -> tuple[int, int, int]:
    """_lehman in Python ints, as (k, a, factor): the least prime factor
    in (2**10, v**(1/3)] with k = a = 0, else the first proper
    gcd(a + b, v) in (k, a) order over k = 1..floor(v**(1/3)) and
    the a >= sqrt(4 k v) with a**2 - 4 k v = b**2 <= D."""
    third = iroot(v, 3)
    for p in range(1 << 10, third + 1):
        if v % p == 0:
            return 0, 0, p
    D = int(v ** (2 / 3) + v ** (1 / 3) / 16) + 1
    for k in range(1, third + 1):
        a = math.isqrt(4 * k * v - 1) + 1
        while (d := a * a - 4 * k * v) <= D:
            b = math.isqrt(d)
            if b * b == d and 1 < math.gcd(a + b, v) < v:
                return k, a, math.gcd(a + b, v)
            a += 1
    raise AssertionError(f"no factor of {v}")


def reference_hart(v: int) -> tuple[int, int, int] | None:
    """_hart in Python ints, as (i, s, factor): the first proper
    gcd(s - t, v) in i order over i = 1..floor(v**(1/3)), with
    s = ceil(sqrt(480 v i)) and s**2 - 480 v i = t**2, or None."""
    for i in range(1, iroot(v, 3) + 1):
        n = 480 * v * i
        s = math.isqrt(n - 1) + 1
        t = math.isqrt(s * s - n)
        if t * t == s * s - n and 1 < math.gcd(s - t, v) < v:
            return i, s, math.gcd(s - t, v)
    return None


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def prev_prime(n: int) -> int:
    while not is_probable_prime(n):
        n -= 1
    return n


def factor_op_moduli(seed: int, count: int = 240) -> list[int]:
    """The moduli of the `factor` benchmark's op list at seed, drawn as
    perfbench/workloads.py draws them: products of two distinct 24-bit
    primes that have 48 bits."""
    rnd = random.Random(f"factor:{seed}")

    def prime():
        while True:
            p = rnd.getrandbits(24) | (1 << 23) | 1
            if is_probable_prime(p):
                return p

    out = []
    while len(out) < count:
        p, q = prime(), prime()
        if p != q and (p * q).bit_length() == 48:
            out.append(p * q)
            rnd.getrandbits(32)  # the op's seed
    return out


def expected(*primes: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in primes:
        out[p] = out.get(p, 0) + 1
    return out


class TestLehmanSplit:
    """Composite cofactors below 2**50 are split by Hart's method, or by
    Lehman's when Hart's finds nothing; the factorization equals the
    rho-only reference's."""

    @given(st.lists(st.integers(1 << 10, 1 << 25), min_size=2, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_products_of_two_or_three_primes(self, starts):
        primes = [next_prime(x) for x in starts]
        n = math.prod(primes)
        assume(n < LIMIT)
        assert factorize(n) == reference_factorize(n) == expected(*primes)
        if len(primes) == 3:
            # Hart splits n inside factorize; Lehman's trial division finds
            # the least prime, which is at most n**(1/3)
            assert factorint._lehman(n) == reference_lehman(n)[2]

    @given(st.integers(1 << 10, 1 << 25), st.integers(1 << 10, 1 << 25))
    @settings(max_examples=100, deadline=None)
    def test_split_matches_int_reference(self, x, y):
        # the numpy sweep returns the same first factor as the sweep in ints
        p, q = next_prime(x), next_prime(y)
        assume(p != q and p * q < LIMIT)
        assert factorint._lehman(p * q) == reference_lehman(p * q)[2]

    def test_prime_squares_and_cubes(self):
        rnd = random.Random(1974)
        squares = [1031, 1033, prev_prime(1 << 25)] + [next_prime(rnd.getrandbits(25)) for _ in range(20)]
        cubes = [1031, prev_prime(iroot(LIMIT - 1, 3))] + [next_prime(rnd.getrandbits(16)) for _ in range(20)]
        for p in squares:
            if p > 1 << 10:
                assert factorize(p * p) == reference_factorize(p * p) == {p: 2}
        for p in cubes:
            if p > 1 << 10:
                assert factorize(p ** 3) == reference_factorize(p ** 3) == {p: 3}
        # p**2 q is no perfect power; its least prime factor is at most v**(1/3)
        p, q = 1031, prev_prime(LIMIT // 1031 ** 2)
        assert factorize(p * p * q) == reference_factorize(p * p * q) == {p: 2, q: 1}
        assert factorint._lehman(p * p * q) == reference_lehman(p * p * q)[2]

    def test_trial_division_branch(self):
        for q in (next_prime(1 << 26), prev_prime((LIMIT - 1) // 1031)):
            p = 1031  # just above 2**10
            assert reference_lehman(p * q) == (0, 0, p)
            assert factorint._lehman(p * q) == p
            assert factorize(p * q) == reference_factorize(p * q) == {p: 1, q: 1}
        # with q prime, p <= (p q)**(1/3) exactly when p * p <= q
        for q in (next_prime(1 << 26), prev_prime(1 << 33)):
            p = prev_prime(math.isqrt(q))  # just below v**(1/3): trial division
            assert factorint._lehman(p * q) == p
            assert factorize(p * q) == reference_factorize(p * q) == {p: 1, q: 1}
            p = next_prime(math.isqrt(q) + 1)  # just above v**(1/3): the sweep
            assert p ** 3 > p * q
            assert factorint._lehman(p * q) == reference_lehman(p * q)[2]
            assert factorize(p * q) == reference_factorize(p * q) == {p: 1, q: 1}

    def test_balanced_and_unbalanced_semiprimes(self):
        rnd = random.Random(28)
        cases = []
        for _ in range(10):
            p = next_prime(rnd.getrandbits(23) | 1 << 24)
            cases.append((p, next_prime(p + 2)))  # balanced: q just above p
            cases.append((p, next_prime(p + rnd.getrandbits(20))))
            small = next_prime(rnd.randrange(1 << 10, 1 << 12))
            cases.append((small, prev_prime((LIMIT - 1) // small)))  # very unbalanced
        for p, q in cases:
            assert p * q < LIMIT
            assert factorize(p * q) == reference_factorize(p * q) == {p: 1, q: 1}
            assert factorint._lehman(p * q) in (p, q)

    def test_either_side_of_the_cutoff(self, monkeypatch):
        # below 2**50 Hart splits first and Lehman only after Hart finds
        # nothing, never rho; from 2**50 up only rho.  The balanced product
        # below the cutoff is split by Hart, the unbalanced one by Lehman.
        p = prev_prime(1 << 25)
        below = [(p, prev_prime((LIMIT - 1) // p), ["hart"]),
                 (1031, prev_prime((LIMIT - 1) // 1031), ["hart", "lehman"])]
        above = [(p, next_prime(LIMIT // p + 1)), (1031, next_prime(LIMIT // 1031 + 1))]
        cases = below + [(p, q, ["rho"]) for p, q in above]
        for p, q, _ in cases:
            assert reference_factorize(p * q) == {p: 1, q: 1}
        calls = []

        def spy(name, real):
            def call(v, *a):
                out = real(v, *a)
                calls.append((name, v, out))
                return out
            return call

        for name, attr in (("hart", "_hart"), ("lehman", "_lehman"), ("rho", "_brent_rho")):
            monkeypatch.setattr(factorint, attr, spy(name, getattr(factorint, attr)))
        for p, q, methods in cases:
            calls.clear()
            assert (p * q < LIMIT) == (methods[0] == "hart")
            assert factorize(p * q) == {p: 1, q: 1}
            assert {v for _, v, _ in calls} == {p * q}
            names = [m for m, _, _ in calls]
            if p * q < LIMIT:
                # Hart first, Lehman only after Hart returns None, never rho
                assert names == (["hart"] if calls[0][2] else ["hart", "lehman"]) == methods
            else:
                assert set(names) == {"rho"}

    def test_factor_op_moduli_and_their_carmichael_values(self):
        for n in factor_op_moduli(8000):
            f = factorize(n)
            assert f == reference_factorize(n)
            lam = bounds.carmichael_value(f)
            assert factorize(lam) == reference_factorize(lam)

    def test_every_product_of_two_primes_to_2_13(self):
        primes = [p for p in primes_up_to(1 << 13) if p > 1 << 10]
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                assert factorint._lehman(p * q) in (p, q), (p, q)

    def test_top_of_the_range_at_k_1(self):
        # at k = 1 the hit is a = p + q, b = q - p, inside Lehman's range
        # exactly when (q - p)**2 <= v**(2/3) + v**(1/3)/16; these pairs
        # overshoot v**(2/3) by most of the v**(1/3)/16 term
        for p, q in ((108587, 110879), (124351, 126859)):
            v = p * q
            assert v ** (2 / 3) + v ** (1 / 3) / 16 - 50 < (q - p) ** 2 <= v ** (2 / 3) + v ** (1 / 3) / 16
            assert reference_lehman(v) == (1, p + q, q)
            assert factorint._lehman(v) == q

    def test_first_a_just_above_the_root(self, monkeypatch):
        # q and p = 2 q + 1 prime: at k = 2, a = p + 2 q gives b = 1, and
        # sqrt(8 v) = sqrt(a**2 - 1) lies 1 / (2 a) below a, so float64
        # rounds it to a; the sweep must still start at a, not a + 1.  Its
        # multiples at k = 2 t**2 give the same factor, so the spy on gcd
        # tells which a + b the sweep tried first.
        tried = []

        def gcd(x, y):
            tried.append(x)
            return math.gcd(x, y)

        monkeypatch.setattr(factorint, "math", types.SimpleNamespace(
            gcd=gcd, isqrt=math.isqrt, sqrt=math.sqrt
        ))
        for q in (23726429, 23726063):
            p = 2 * q + 1
            v = p * q
            assert v < LIMIT and math.sqrt(8 * v) == p + 2 * q
            assert reference_lehman(v) == (2, p + 2 * q, p)
            tried.clear()
            assert factorint._lehman(v) == p
            assert tried == [p + 2 * q + 1]

    def test_largest_k_and_a_at_the_cutoff(self):
        # p / q is near 246 / 419, whose continued fraction has only 1s and
        # 2s, so the first hit is at k = 246 * 419, next to the last k; there
        # a**2 and 4 k v pass 2**64 and the uint64 difference wraps
        p, q = 25708741, 43788467
        v = p * q
        assert v < LIMIT and iroot(v, 3) + 1 == 104028
        k, a, f = reference_lehman(v)
        assert (k, a, f) == (246 * 419, 21543925361, q)
        assert a.bit_length() == 35 and (a * a).bit_length() > 64 and (4 * k * v).bit_length() > 64
        assert factorint._lehman(v) == q
        assert factorize(v) == {p: 1, q: 1}


class TestHartSplit:
    """Hart's one-line method with multiplier 480 returns exactly the first
    proper factor of the Python-int reference, or None."""

    @given(st.lists(st.integers(1 << 10, 1 << 25), min_size=2, max_size=3))
    @example([1031, 1092046466383])  # q = prev_prime((LIMIT - 1) // 1031): Hart finds nothing
    @settings(max_examples=100, deadline=None)
    def test_matches_int_reference(self, starts):
        v = math.prod(next_prime(x) for x in starts)
        assume(v < LIMIT)
        found = reference_hart(v)
        assert factorint._hart(v) == (found[2] if found else None)

    def test_finds_every_factor_op_modulus(self):
        # the fast path of the `factor` benchmark: Hart splits each N alone
        for seed in (8000, 9000):
            for n in factor_op_moduli(seed):
                f = factorint._hart(n)
                assert f is not None and 1 < f < n and n % f == 0, n

    def test_largest_i_at_the_cutoff(self):
        # the first hit is at i = 83226 of 104031, in the 21st block; there
        # 480 v i and s**2 pass 2**64 and the uint64 difference wraps
        p, q = 28030627, 40166761
        v = p * q
        assert v < LIMIT and iroot(v, 3) == 104031
        i, s, f = reference_hart(v)
        assert (i, s, f) == (83226, 212080110981, p)
        assert (480 * v * i).bit_length() > 64 and (s * s).bit_length() > 64
        assert factorint._hart(v) == p
        assert factorize(v) == {p: 1, q: 1}

    def test_float_ceiling_one_above_the_root(self, monkeypatch):
        # at each first hit float64 rounds sqrt(480 v i) up past the integer
        # s, and the row must still be tried at s, not s + 1.  First,
        # q = 120 i p + 1 and s = 240 i p + 1 give 480 v i = s**2 - 1, t = 1.
        # Second, v = p**2 q and i = 30 q make 480 v i = (120 p q)**2 a
        # square, t = 0 and gcd(s, v) = p q; at the float ceiling s + 1 the
        # row reads m = 2 s + 1 = 2 (s + 1) - 1, the edge of the flag.  The
        # spy on gcd tells which s - t the sweep tried last.
        tried = []

        def gcd(x, y):
            tried.append(x)
            return math.gcd(x, y)

        p, q, i = 359137, 3102943681, 72
        assert q == 120 * i * p + 1
        p2, q2 = 1043213, 1033
        cases = [(p * q, i, 240 * i * p + 1, 1, p), (p2 * p2 * q2, 30 * q2, 120 * p2 * q2, 0, p2 * q2)]
        for v, i, s, t, f in cases:
            assert v < LIMIT and 480 * v * i == s * s - t * t
            assert math.ceil(math.sqrt(i * float(480 * v))) == s + 1
            assert reference_hart(v) == (i, s, f)
        monkeypatch.setattr(factorint, "math", types.SimpleNamespace(gcd=gcd, isqrt=math.isqrt))
        for v, i, s, t, f in cases:
            tried.clear()
            assert factorint._hart(v) == f
            assert tried[-1] == s - t
