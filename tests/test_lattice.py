"""Lattice reduction, short-vector enumeration, and the structured filter."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from orderlab.bounds import enumeration_budget
from orderlab.lattice import (
    EnumerationBudgetExceeded,
    Vec,
    basis_for,
    dot4,
    enumerate_candidates,
    lagrange_reduce,
    norm4,
    reduce_offset_range,
    solve_shortest,
    structured_filter_precompute,
    structured_power,
)
from orderlab.model import Params, Rng, SimulatedGroup, peak


def vec_from_multiples(mult, b1: Vec, b2: Vec) -> Vec:
    return Vec(mult[0] * b1.x + mult[1] * b2.x, mult[0] * b1.y2 + mult[1] * b2.y2)


class TestNormAndBasis:
    def test_norm4_dot4(self):
        a, b = Vec(3, 5), Vec(-2, 1)
        assert norm4(a) == 4 * 9 + 25
        assert dot4(a, b) == 4 * 3 * -2 + 5

    def test_basis(self):
        p = Params(r=5, m=3, ell=4)
        b1, b2 = basis_for(p.two_n + 3, p)
        assert b1 == Vec(3, 1)
        assert b2 == Vec(p.two_n, 0)


class TestLagrangeReduce:
    @given(st.integers(2, 14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reduction_invariants(self, n_half, data):
        p = Params(r=3, m=2, ell=max(1, n_half - 2))
        j = data.draw(st.integers(0, p.two_n - 1))
        rb = lagrange_reduce(j, p)
        b1, b2 = basis_for(j, p)
        u1, u2 = rb.multiples
        # multiples are unimodular and reproduce the reduced vectors
        assert u1[0] * u2[1] - u1[1] * u2[0] in (1, -1)
        assert vec_from_multiples(u1, b1, b2) == rb.s1
        assert vec_from_multiples(u2, b1, b2) == rb.s2
        # reduced: |s1| <= |s2| <= |s2 + s1|, |s2 - s1|
        assert norm4(rb.s1) <= norm4(rb.s2)
        plus = Vec(rb.s2.x + rb.s1.x, rb.s2.y2 + rb.s1.y2)
        minus = Vec(rb.s2.x - rb.s1.x, rb.s2.y2 - rb.s1.y2)
        assert norm4(rb.s2) <= norm4(plus)
        assert norm4(rb.s2) <= norm4(minus)
        # determinant of the lattice is preserved (doubled coordinates)
        assert abs(rb.s1.x * rb.s2.y2 - rb.s2.x * rb.s1.y2) == p.two_n

    def test_first_minimum_bound(self):
        # Lagrange s1 meets the 2-d Hermite bound: |s1|^2 <= (2/sqrt(3)) det
        for j in (0, 1, 77, 200, 255):
            p = Params(r=5, m=3, ell=5)
            rb = lagrange_reduce(j, p)
            assert 3 * norm4(rb.s1) ** 2 <= 16 * p.two_n ** 2

    @given(st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=100, deadline=None)
    def test_seeded_reaches_same_norms(self, j):
        p = Params(r=7, m=3, ell=9)
        cold = lagrange_reduce(j, p)
        warm = lagrange_reduce(j, p, seed=((5, 1), (4, 1)))
        assert norm4(warm.s1) == norm4(cold.s1)
        assert norm4(warm.s2) == norm4(cold.s2)

    def test_seed_must_be_unimodular(self):
        p = Params(r=5, m=3, ell=3)
        with pytest.raises(ValueError):
            lagrange_reduce(1, p, seed=((2, 0), (0, 2)))


class TestSolveShortest:
    def test_degenerate_zero(self):
        p = Params(r=5, m=3, ell=3)
        assert solve_shortest(0, p) == 1

    def test_recovers_reduced_order_at_peaks(self):
        for r in (7, 12, 30, 41, 60):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                want = r // math.gcd(r, z)
                assert solve_shortest(peak(z, p).j0 % p.two_n, p) == want

    def test_agrees_with_cf_at_peaks(self):
        from orderlab.cf import solve_cf

        for r in (13, 21, 100):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                j = peak(z, p).j0 % p.two_n
                assert solve_shortest(j, p) == solve_cf(j, p)


def brute_short_candidates(j: int, params: Params) -> set[int]:
    """Scan every lattice vector in the candidate disc directly."""
    N = params.two_n
    m = params.m
    R4 = 1 << (2 * m + 1)
    x_cap = 1 << m
    jm = j % N
    out = set()
    for y2 in range(1, x_cap):
        rem = R4 - y2 * y2
        if rem <= 0:
            break
        lim = math.isqrt((rem - 1) // 4)  # largest |x| with 4 x^2 < rem
        b_lo = -(lim + y2 * jm) // N
        b_hi = (lim - y2 * jm) // N
        for b in range(b_lo - 1, b_hi + 2):
            x = y2 * jm + b * N
            if 4 * x * x + y2 * y2 < R4 and 2 * abs(x) < x_cap:
                out.add(y2)
                break
    return out


class TestEnumeration:
    def test_case1_returns_single_candidate(self):
        p = Params(r=13, m=4, ell=4)
        res = enumerate_candidates(peak(1, p).j0, p, delta=0)
        assert res.case == 1
        assert res.candidates == [13]
        assert res.visited == 1

    @given(st.integers(2, 100), st.integers(1, 5), st.data())
    @settings(max_examples=120, deadline=None)
    def test_candidates_match_bruteforce(self, r, delta, data):
        m = r.bit_length() + data.draw(st.integers(0, 2))
        if m - delta < 1:
            delta = m - 1
        p = Params(r=r, m=m, ell=m - delta)
        j = data.draw(st.integers(0, p.two_n - 1))
        res = enumerate_candidates(j, p, delta=delta)
        assert res.visited <= res.budget == enumeration_budget(delta)
        brute = brute_short_candidates(j, p)
        if res.case == 2:
            assert set(res.candidates) == brute
        else:
            # certificate: every short vector is a multiple of s1
            base = res.candidates[0]
            assert all(c % base == 0 for c in brute)

    def test_true_order_among_candidates_at_peaks(self):
        for r in (21, 47, 96):
            m = r.bit_length() + 2
            for delta in (1, 3):
                p = Params(r=r, m=m, ell=m - delta)
                for z in range(0, r, 5):
                    res = enumerate_candidates(peak(z, p).j0 % p.two_n, p)
                    assert r // math.gcd(r, z) in res.candidates


class TestOffsetRange:
    def test_matches_cold_reductions(self):
        p = Params(r=29, m=5, ell=5)
        j = peak(11, p).j0 % p.two_n
        B = 4
        chain = reduce_offset_range(j, B, p)
        assert len(chain) == 2 * B + 1
        for k, rb in zip(range(-B, B + 1), chain):
            cold = lagrange_reduce((j + k) % p.two_n, p)
            assert norm4(rb.s1) == norm4(cold.s1)
            assert norm4(rb.s2) == norm4(cold.s2)
            assert abs(rb.s1.x * rb.s2.y2 - rb.s2.x * rb.s1.y2) == p.two_n

    def test_wraps_modulo(self):
        p = Params(r=5, m=3, ell=3)
        chain = reduce_offset_range(1, 2, p)  # touches j = -1 mod N
        cold = lagrange_reduce(p.two_n - 1, p)
        assert norm4(chain[0].s1) == norm4(cold.s1)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduce_offset_range(1, -1, Params(r=5, m=3, ell=3))


class TestStructuredFilter:
    @given(st.integers(2, 10 ** 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_power_identity(self, r, data):
        group = SimulatedGroup(r)
        x = group.random_element(Rng(data.draw(st.integers(0, 999))))
        p = Params(r=5, m=3, ell=5)
        j = data.draw(st.integers(0, p.two_n - 1))
        rb = lagrange_reduce(j, p)
        x1, x2 = structured_filter_precompute(group, x, rb)
        m1 = data.draw(st.integers(-6, 6))
        m2 = data.draw(st.integers(-6, 6))
        w_y2 = m1 * rb.s1.y2 + m2 * rb.s2.y2
        assert structured_power(group, x1, x2, m1, m2) == group.pow(x, w_y2)
