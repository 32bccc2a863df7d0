"""Continued-fraction expansion and the square-root threshold solver."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orderlab.cf import solve_cf, solve_cf_window
from orderlab.model import Params, peak


def cf_expand(num: int, den: int) -> list[tuple[int, int]]:
    """Convergents of num/den in lowest terms, from 0/1 up to the value itself.

    Plain Euclidean recurrence: p_k = a_k p_{k-1} + p_{k-2} and likewise
    for q_k, so successive convergents satisfy the determinant identity
    p_k q_{k-1} - p_{k-1} q_k = (-1)^(k+1).
    """
    if den <= 0 or num < 0:
        raise ValueError(f"need num >= 0 and den > 0, got {num}/{den}")
    p_prev, q_prev = 1, 0
    p, q = num // den, 1
    out = [(p, q)]
    a, b = num % den, den
    while a:
        # invariant: remaining tail equals a/b with gcd preserved
        quot, rem = divmod(b, a)
        p_prev, p = p, quot * p + p_prev
        q_prev, q = q, quot * q + q_prev
        out.append((p, q))
        a, b = rem, a
    return out


def _solve_cf_reference(j: int, params: Params) -> int:
    """The per-offset solver: Euclid on j / 2**n alone, keeping the last
    denominator q with q*q < 2**n."""
    N = params.two_n
    if not 0 <= j < N:
        raise ValueError(f"frequency {j} outside [0, {N})")
    best = 1
    p_prev, q_prev = 1, 0
    p, q = j // N, 1
    a, b = j % N, N
    while True:
        if q * q < N:
            best = q
        else:
            break
        if not a:
            break
        quot, rem = divmod(b, a)
        p_prev, p = p, quot * p + p_prev
        q_prev, q = q, quot * q + q_prev
        a, b = rem, a
    return best


def _window_reference(j: int, B: int, params: Params) -> list[int]:
    return [_solve_cf_reference((j + k) % params.two_n, params) for k in range(-B, B + 1)]


def convergent_admissibility(j: int, z: int, r: int, params: Params) -> bool:
    """Whether z/r is guaranteed to appear among the convergents of j/2**n,
    i.e. |j/2**n - z/r| < 1/(2 r**2).  Exact integer comparison."""
    N = params.two_n
    return 2 * r * abs(j * r - z * N) < N


class TestCfExpand:
    def test_examples(self):
        assert cf_expand(0, 1) == [(0, 1)]
        assert cf_expand(1, 3) == [(0, 1), (1, 3)]
        assert cf_expand(355, 113) == [(3, 1), (22, 7), (355, 113)]

    def test_validation(self):
        with pytest.raises(ValueError):
            cf_expand(1, 0)
        with pytest.raises(ValueError):
            cf_expand(-1, 2)

    @given(st.integers(0, 10 ** 9), st.integers(1, 10 ** 9))
    @settings(max_examples=200)
    def test_recurrence_invariants(self, num, den):
        conv = cf_expand(num, den)
        # final convergent is the value itself, reduced
        g = math.gcd(num, den)
        assert conv[-1] == (num // g if g else 0, den // g if g else 1)
        # determinant identity between consecutive convergents
        for k in range(1, len(conv)):
            p, q = conv[k]
            pp, qp = conv[k - 1]
            assert p * qp - pp * q in (1, -1)
        # denominators never decrease, strictly increase from index 2 on
        qs = [q for _, q in conv]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(a < b for a, b in zip(qs[1:], qs[2:]))

    @given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 6))
    @settings(max_examples=100)
    def test_convergents_alternate_around_value(self, num, den):
        x = Fraction(num, den)
        conv = cf_expand(num, den)
        for k, (p, q) in enumerate(conv[:-1]):
            side = Fraction(p, q) - x
            assert (side <= 0) if k % 2 == 0 else (side >= 0)


def _solve_reference(j: int, params: Params) -> int:
    best = 1
    for _, q in cf_expand(j, params.two_n):
        if q * q < params.two_n:
            best = q
        else:
            break
    return best


class TestSolveCf:
    def test_validation(self):
        p = Params(r=5, m=3, ell=3)
        with pytest.raises(ValueError):
            solve_cf(-1, p)
        with pytest.raises(ValueError):
            solve_cf(p.two_n, p)

    def test_degenerate_frequencies(self):
        p = Params(r=5, m=3, ell=3)
        assert solve_cf(0, p) == 1
        # j = N - 1: value just below 1, last small-denominator convergent
        assert solve_cf(p.two_n - 1, p) == _solve_reference(p.two_n - 1, p)

    @given(st.integers(2, 120), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_expansion_reference(self, r, data):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        j = data.draw(st.integers(0, p.two_n - 1))
        assert solve_cf(j, p) == _solve_reference(j, p)

    def test_threshold_is_strict(self):
        # q*q < N, not <=: engineered value with a denominator exactly sqrt(N)
        p = Params(r=3, m=2, ell=2)  # N = 16, threshold q < 4
        # 1/4 has convergents 0/1, 1/4; q = 4 fails 16 > 16 false -> stays 1
        assert solve_cf(4, p) == 1

    def test_recovers_reduced_order_at_peaks(self):
        for r in (7, 12, 30, 41):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                want = r // math.gcd(r, z)
                assert solve_cf(peak(z, p).j0 % p.two_n, p) == want


class TestAdmissibility:
    def test_peak_frequency_always_admissible(self):
        for r in (5, 13, 64, 99):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                assert convergent_admissibility(peak(z, p).j0 % p.two_n, z, r, p)

    def test_admissible_implies_convergent_membership(self):
        # |j/N - z/r| < 1/(2 r^2) with gcd(z, r) = 1 forces z/r into the
        # convergent list (the solver may still stop on a later denominator)
        for r in (11, 23, 37):
            m = r.bit_length()
            p = Params(r=r, m=m, ell=m)
            for j in range(p.two_n):
                for z in range(r):
                    if math.gcd(z, r) == 1 and convergent_admissibility(j, z, r, p):
                        assert (z, r) in cf_expand(j, p.two_n)

    def test_integer_comparison(self):
        # |j/N - z/r| < 1/(2 r^2) as exact integers: boundary case not admissible
        p = Params(r=4, m=3, ell=3)
        N = p.two_n
        # choose j with |j*4 - 1*64| = 8 so 2*4*8 = 64 == N: strict inequality fails
        assert not convergent_admissibility(14, 1, 4, p)
        assert convergent_admissibility(15, 1, 4, p)


class TestSolveCfWindow:
    def test_validation(self):
        p = Params(r=5, m=3, ell=3)
        with pytest.raises(ValueError):
            solve_cf_window(-1, 1, p)
        with pytest.raises(ValueError):
            solve_cf_window(p.two_n, 1, p)
        with pytest.raises(ValueError):
            solve_cf_window(0, -1, p)

    @given(st.integers(2, 120), st.integers(1, 6), st.integers(0, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_small_geometries(self, r, ell, B, data):
        p = Params(r=r, m=r.bit_length(), ell=ell)
        j = data.draw(st.integers(0, p.two_n - 1))
        assert solve_cf_window(j, B, p) == _window_reference(j, B, p)

    def test_every_window_of_small_registers(self):
        # every frequency and every B <= 3, wrapping windows included, and
        # at n <= 5 every window of 2B + 1 <= 3 * 2**n offsets: one run
        # lo..lo + 2B that may pass 2**n or wrap more than once.  j = B
        # gives lo = 0, and j = 2**n - B with B < 2**(n-2) gives hi = 2**n
        # with lo > 2**(n-1), whose ends share one step of quotient 1
        for n in range(3, 11):
            p = Params(r=3, m=2, ell=n - 2)
            per_offset = [_solve_cf_reference(o, p) for o in range(p.two_n)]
            for B in range(3 * p.two_n // 2 if n <= 5 else 4):
                for j in range(p.two_n):
                    want = [per_offset[(j + k) % p.two_n] for k in range(-B, B + 1)]
                    assert solve_cf_window(j, B, p) == want, (n, B, j)

    def test_matches_reference_at_256_bits(self):
        # half the windows sit on a peak of a 128-bit order, where the
        # shared prefix runs deep; the other half are random, some of
        # them wrapping past 0 or 2**n
        rng = random.Random(10)
        for i in range(1000):
            r = rng.getrandbits(128) | (1 << 127) | 1
            p = Params(r=r, m=128, ell=128)
            N = p.two_n
            B = 100 if i % 50 == 0 else rng.randrange(11)
            if i % 2 == 0:
                j = peak(rng.randrange(r), p).j0 % N
            elif i % 10 == 1:
                j = rng.randrange(-B, B + 1) % N
            else:
                j = rng.randrange(N)
            assert solve_cf_window(j, B, p) == _window_reference(j, B, p), (r, j, B)

    @pytest.mark.parametrize("n", [9, 10, 93, 94, 255, 256, 257])
    def test_threshold_at_isqrt(self, n):
        # q*q < 2**n is q <= isqrt(2**n - 1): a frequency rounded from z/Q
        # has z/Q among its convergents, and Q = isqrt(2**n - 1) is the
        # largest denominator kept, Q + 1 the smallest dropped
        p = Params(r=3, m=2, ell=n - 2)
        N = p.two_n
        top = math.isqrt(N - 1)
        for Q, kept in ((top, True), (top + 1, False)):
            zs = [z for z in (1, 2, 3, 5, Q // 3, Q // 2 + 1, Q - 1) if math.gcd(z, Q) == 1]
            assert len(zs) >= 3
            for z in zs:
                j = (2 * z * N + Q) // (2 * Q)
                assert (z, Q) in cf_expand(j, N), (n, Q, z)
                got = solve_cf_window(j, 0, p)[0]
                assert got == _solve_cf_reference(j, p), (n, Q, z)
                assert (got == Q) == kept, (n, Q, z, got)

    @pytest.mark.parametrize("ell", [46, 47])
    def test_matches_reference_at_factor_registers(self, ell):
        # m = 47 and n = 93, 94 as factor uses for 48-bit moduli; windows
        # near peaks and at random j, B = 0..10, some wrapping past 0 or 2**n
        rng = random.Random(ell)
        for i in range(150):
            r = rng.getrandbits(47) | (1 << 46) | 1
            p = Params(r=r, m=47, ell=ell)
            N = p.two_n
            B = i % 11
            if i % 3 == 0:
                j = peak(rng.randrange(r), p).j0 % N
            elif i % 3 == 1:
                j = rng.randrange(-B, B + 1) % N
            else:
                j = rng.randrange(N)
            assert solve_cf_window(j, B, p) == _window_reference(j, B, p), (r, j, B)
