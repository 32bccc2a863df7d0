"""Lattice reduction and short-vector enumeration."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab.bounds import enumeration_budget
from orderlab.lattice import (
    EnumerationResult,
    ReducedBasis,
    Vec,
    dot4,
    enumerate_candidates,
    lagrange_reduce,
    norm4,
    reduce_window,
    solve_shortest,
    window_candidates,
)
from orderlab.model import Params, peak


def canonical(rb: ReducedBasis, n: int) -> ReducedBasis:
    """The canonical form of a reduced basis, as the lattice module
    docstring states it: each second coordinate negative, or 0 with a
    negative first coordinate; at o = 2**(n-1), where s1 = (0, -2),
    s2 = (2**(n-1), -1) of the two reduced choices (+-2**(n-1), -1)."""

    def negative(v: Vec) -> Vec:
        return v if (v.y2, v.x) < (0, 0) else Vec(-v.x, -v.y2)

    s1, s2 = negative(rb.s1), negative(rb.s2)
    if s1 == Vec(0, -2):
        half = 1 << (n - 1)
        assert s2 in (Vec(half, -1), Vec(-half, -1))
        s2 = Vec(half, -1)
    return ReducedBasis(s1=s1, s2=s2)


class TestNormAndBasis:
    def test_norm4_dot4(self):
        a, b = Vec(3, 5), Vec(-2, 1)
        assert norm4(a) == 4 * 9 + 25
        assert dot4(a, b) == 4 * 3 * -2 + 5

    def test_basis(self):
        # the reduction starts from (j mod 2**n, 1), (2**n, 0)
        n = 7
        assert lagrange_reduce((1 << n) + 3, n) == lagrange_reduce(3, n)
        assert lagrange_reduce(3, n) == canonical(reference_lagrange_reduce(3, n), n)


class TestLagrangeReduce:
    @given(st.integers(2, 14), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reduction_invariants(self, n_half, data):
        p = Params(r=3, m=2, ell=max(1, n_half - 2))
        j = data.draw(st.integers(0, p.two_n - 1))
        rb = lagrange_reduce(j, p.n)
        # s_i = a_i (o, 1) + b_i (2**n, 0): a_i is the doubled second
        # coordinate, b_i an exact quotient, and the multiples are unimodular
        (a1, b1), (a2, b2) = (
            (s.y2, (s.x - s.y2 * j) // p.two_n) for s in (rb.s1, rb.s2)
        )
        assert rb.s1.x == a1 * j + b1 * p.two_n
        assert rb.s2.x == a2 * j + b2 * p.two_n
        assert a1 * b2 - a2 * b1 in (1, -1)
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
            rb = lagrange_reduce(j, p.n)
            assert 3 * norm4(rb.s1) ** 2 <= 16 * p.two_n ** 2


class TestCanonicalBasis:
    """The uniqueness theorem of the lattice module docstring: norm4(s1) <
    norm4(s2) and 2 |dot4(s1, s2)| < norm4(s1), except at o = 2**(n-1),
    where 2 |dot4| = norm4(s1) and s1 = (0, -2); so every reduced basis
    has the same canonical form."""

    def assert_unique(self, o: int, p: Params, rb: ReducedBasis):
        a, b, c = norm4(rb.s1), 2 * dot4(rb.s1, rb.s2), norm4(rb.s2)
        assert a < c, (p.n, o)
        others = [
            ReducedBasis(s1=Vec(e1 * rb.s1.x, e1 * rb.s1.y2), s2=Vec(e2 * rb.s2.x, e2 * rb.s2.y2))
            for e1 in (1, -1)
            for e2 in (1, -1)
        ]
        if o == p.two_n // 2:
            assert abs(b) == a and rb.s1 == Vec(0, -2), (p.n, o)
            # the tie's alternative s2 -+ s1 is reduced too
            k = -1 if b > 0 else 1
            alt = Vec(rb.s2.x + k * rb.s1.x, rb.s2.y2 + k * rb.s1.y2)
            assert norm4(alt) == c and 2 * abs(dot4(rb.s1, alt)) == a
            others.append(ReducedBasis(s1=rb.s1, s2=alt))
        else:
            assert abs(b) < a, (p.n, o)
        assert all(canonical(other, p.n) == rb for other in others), (p.n, o)

    def test_every_offset_of_small_registers(self):
        # every o at every register width n <= 12; the reduction takes n only
        for n in range(3, 13):
            p = Params(r=3, m=2, ell=n - 2)
            for o in range(p.two_n):
                self.assert_unique(o, p, lagrange_reduce(o, n))

    @pytest.mark.parametrize("n", [248, 256])
    def test_random_offsets_at_large_registers(self, n):
        rng = random.Random(n)
        p = Params(r=3, m=128, ell=n - 128)
        N = p.two_n
        for o in (0, 1, N // 2 - 1, N // 2, N // 2 + 1, N - 1, *(rng.randrange(N) for _ in range(300))):
            self.assert_unique(o, p, lagrange_reduce(o, p.n))


class TestSolveShortest:
    def test_degenerate_zero(self):
        p = Params(r=5, m=3, ell=3)
        assert solve_shortest(0, p.n) == 1

    def test_recovers_reduced_order_at_peaks(self):
        for r in (7, 12, 30, 41, 60):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                want = r // math.gcd(r, z)
                assert solve_shortest(peak(z, p).j0 % p.two_n, p.n) == want

    def test_agrees_with_cf_at_peaks(self):
        from orderlab.cf import solve_cf

        for r in (13, 21, 100):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            for z in range(r):
                j = peak(z, p).j0 % p.two_n
                assert solve_shortest(j, p.n) == solve_cf(j, p.n)


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
        j = peak(1, p).j0
        res = enumerate_candidates(lagrange_reduce(j, p.n), p.m, p.ell)
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
        res = enumerate_candidates(lagrange_reduce(j, p.n), p.m, p.ell)
        assert res.visited <= enumeration_budget(delta)
        brute = brute_short_candidates(j, p)
        assert len(set(res.candidates)) == len(res.candidates)
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
                    j = peak(z, p).j0 % p.two_n
                    res = enumerate_candidates(lagrange_reduce(j, p.n), p.m, p.ell)
                    assert r // math.gcd(r, z) in res.candidates


def reference_lagrange_reduce(j: int, n: int) -> ReducedBasis:
    """Lagrange reduction on Vec values, recomputing every norm, from the
    basis (j mod 2**n, 1), (2**n, 0)."""
    v1, v2 = Vec(j % (1 << n), 1), Vec(1 << n, 0)
    if norm4(v1) > norm4(v2):
        v1, v2 = v2, v1
    while True:
        t = (2 * dot4(v2, v1) + norm4(v1)) // (2 * norm4(v1))
        if t:
            v2 = Vec(v2.x - t * v1.x, v2.y2 - t * v1.y2)
        if norm4(v2) < norm4(v1):
            v1, v2 = v2, v1
        else:
            return ReducedBasis(s1=v1, s2=v2)


def reference_enumerate_candidates(
    j: int, params: Params, rb: ReducedBasis | None = None
) -> EnumerationResult:
    """Visit every vector of a padded range per row, deduplicating by a set,
    around rb (by default the canonical reference basis of j)."""
    m, n = params.m, params.n
    if rb is None:
        rb = canonical(reference_lagrange_reduce(j, n), n)
    A = norm4(rb.s1)
    if 1 << (2 * n) >= A << (2 * m - 1):
        return EnumerationResult(candidates=[abs(rb.s1.y2)], visited=1, case=1)
    Bc = dot4(rb.s1, rb.s2)
    R4 = 1 << (2 * m + 1)
    x_cap = 1 << m
    m2_max = math.isqrt(((A << (2 * m - 1)) - 1) >> (2 * n))
    candidates: list[int] = []
    seen: set[int] = set()
    visited = 0
    for m2 in range(-m2_max, m2_max + 1):
        c = -Bc * m2
        disc = A * R4 - ((m2 * m2) << (2 * n + 2))
        if disc < 0:
            continue
        s = math.isqrt(disc)
        for m1 in range((c - s) // A - 1, (c + s) // A + 2):
            w = Vec(m1 * rb.s1.x + m2 * rb.s2.x, m1 * rb.s1.y2 + m2 * rb.s2.y2)
            if w.y2 < 0 or norm4(w) >= R4:
                continue
            visited += 1
            if w.y2 == 0 or w.y2 >= x_cap or 2 * abs(w.x) >= x_cap:
                continue
            if w.y2 not in seen:
                seen.add(w.y2)
                candidates.append(w.y2)
    return EnumerationResult(candidates=candidates, visited=visited, case=2)


def assert_like_reference(got: EnumerationResult, want: EnumerationResult) -> None:
    """The same candidate set, visited and case, and got's candidates
    distinct and descending."""
    assert got.candidates == sorted(set(got.candidates), reverse=True)
    assert sorted(got.candidates) == sorted(want.candidates)
    assert (got.visited, got.case) == (want.visited, want.case)


class TestAgainstReference:
    """The strip's candidates, the closed-form row counts and the bare-int
    reduction match the per-vector reference's results, in canonical form,
    visited included."""

    def assert_same(self, j: int, params: Params) -> EnumerationResult:
        rb = lagrange_reduce(j, params.n)
        assert rb == canonical(reference_lagrange_reduce(j, params.n), params.n)
        res = enumerate_candidates(rb, params.m, params.ell)
        assert_like_reference(res, reference_enumerate_candidates(j, params))
        return res

    @given(st.integers(2, 300), st.integers(0, 3), st.data())
    @settings(max_examples=400, deadline=None)
    def test_small_geometries(self, r, extra_bits, data):
        m = r.bit_length() + extra_bits
        p = Params(r=r, m=m, ell=data.draw(st.integers(1, m)))
        self.assert_same(data.draw(st.integers(0, p.two_n - 1)), p)

    def test_every_frequency_of_one_geometry(self):
        p = Params(r=3, m=7, ell=3)
        assert {self.assert_same(j, p).case for j in range(p.two_n)} == {1, 2}

    def test_near_peaks_at_128_bits(self):
        rnd = random.Random(20221)
        for _ in range(10):
            r = rnd.getrandbits(128) | (1 << 127)
            p = Params(r=r, m=128, ell=120)
            j0 = peak(rnd.randrange(r), p).j0
            for offset in range(-10, 11):  # 210 frequencies in all
                self.assert_same((j0 + offset) % p.two_n, p)

    def test_every_offset_of_benchmark_windows(self):
        # m = 128, ell = 120, B = 10: every offset of 12 windows, each
        # enumerated from its reduce_window basis.  _triangle takes the
        # orientation sign of the basis, so both signs of (s1)_2 must occur
        # among the enumerated bases: the canonical basis has (s1)_2 < 0,
        # and each is also enumerated negated, against the reference on
        # that same basis.
        rng = random.Random(128120)
        signs = set()
        for i in range(12):
            r = rng.getrandbits(128) | (1 << 127) | 1
            p = Params(r=r, m=128, ell=120)
            j = peak(rng.randrange(r), p).j0 % p.two_n if i % 3 else rng.randrange(p.two_n)
            offsets = [(j + k) % p.two_n for k in range(-10, 11)]
            for o, rb in zip(offsets, reduce_window(j, 10, p.n)):
                got = enumerate_candidates(rb, p.m, p.ell)
                assert_like_reference(got, reference_enumerate_candidates(o, p))
                negated = ReducedBasis(s1=Vec(-rb.s1.x, -rb.s1.y2), s2=Vec(-rb.s2.x, -rb.s2.y2))
                got_negated = enumerate_candidates(negated, p.m, p.ell)
                assert_like_reference(got_negated, reference_enumerate_candidates(o, p, negated))
                assert got_negated.candidates == got.candidates
                if got.case == 2:
                    signs.update(b.s1.y2 > 0 for b in (rb, negated))
        assert signs == {True, False}


class TestBudgetTheorem:
    """The budget theorem of the lattice module docstring, step by step:
    in case 2, norm4(s1) > 2**(2 ell + 1) (lambda1 > 2**(ell - 1/2)) and
    visited < (3 + 2/sqrt(3)) 2**delta + 1, below the budget; if ell > m,
    always case 1."""

    @staticmethod
    def assert_within(j: int, p: Params, rb: ReducedBasis) -> EnumerationResult:
        res = enumerate_candidates(rb, p.m, p.ell)
        delta = p.m - p.ell
        assert res.visited <= enumeration_budget(max(0, delta)), (p, j)
        if delta < 0:
            assert (res.case, res.visited) == (1, 1), (p, j)
            return res
        if res.case == 2:
            assert norm4(rb.s1) > 1 << (2 * p.ell + 1), (p, j)
        excess = res.visited - 1 - 3 * (1 << delta)  # below (2/sqrt(3)) 2**delta
        assert excess < 0 or 3 * excess * excess < 4 << (2 * delta), (p, j, res.visited)
        return res

    def test_every_offset_of_small_registers(self):
        # every j at every split m + ell = n <= 12 with ell >= 1 (and so
        # m >= 2): 73,736 offsets; the reduction takes n only
        cases, offsets = set(), 0
        for n in range(3, 13):
            bases = [lagrange_reduce(o, n) for o in range(1 << n)]
            for m in range(2, n):
                p = Params(r=3, m=m, ell=n - m)
                cases.update(self.assert_within(o, p, rb).case for o, rb in enumerate(bases))
                offsets += len(bases)
        assert offsets == 73_736
        assert cases == {1, 2}

    @given(st.integers(-4, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_offsets_up_to_256_bits(self, delta, data):
        m = data.draw(st.integers(max(2, delta + 1), (256 + delta) // 2))
        p = Params(r=3, m=m, ell=m - delta)
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, p.two_n - 1))
        else:  # near a peak of a random order below 2**m
            q = Params(r=data.draw(st.integers(2, (1 << m) - 1)), m=m, ell=p.ell)
            z = data.draw(st.integers(0, q.r - 1))
            j = (peak(z, q).j0 + data.draw(st.integers(-10, 10))) % p.two_n
        self.assert_within(j, p, lagrange_reduce(j, p.n))


def window_reference(j: int, B: int, params: Params) -> list[ReducedBasis]:
    """lagrange_reduce of each offset of the window, one at a time."""
    return [lagrange_reduce((j + k) % params.two_n, params.n) for k in range(-B, B + 1)]


class TestReduceWindow:
    """reduce_window starts each offset from its left neighbour's sheared
    basis and returns exactly the per-offset ReducedBasis of each offset."""

    def test_validation(self):
        p = Params(r=5, m=3, ell=3)
        with pytest.raises(ValueError):
            reduce_window(-1, 1, p.n)
        with pytest.raises(ValueError):
            reduce_window(p.two_n, 1, p.n)
        with pytest.raises(ValueError):
            reduce_window(0, -1, p.n)

    @given(st.integers(2, 120), st.integers(1, 6), st.integers(0, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_small_geometries(self, r, ell, B, data):
        # B up to 12 makes some windows longer than the register
        p = Params(r=r, m=r.bit_length(), ell=ell)
        j = data.draw(st.integers(0, p.two_n - 1))
        assert reduce_window(j, B, p.n) == window_reference(j, B, p)

    def test_every_window_of_small_registers(self):
        # every frequency and every B <= 3, wrapping windows included
        for n in range(3, 11):
            p = Params(r=3, m=2, ell=n - 2)
            per_offset = [lagrange_reduce(o, p.n) for o in range(p.two_n)]
            for B in range(4):
                for j in range(p.two_n):
                    want = [per_offset[(j + k) % p.two_n] for k in range(-B, B + 1)]
                    assert reduce_window(j, B, p.n) == want, (n, B, j)

    @pytest.mark.parametrize("B", [1, 3, 10])
    def test_wrapping_windows(self, B):
        # windows that reach past 0 or 2**n
        for p in (Params(r=5, m=3, ell=4), Params(r=3, m=128, ell=128)):
            N = p.two_n
            for j in [*range(B + 1), *range(N - B - 1, N)]:
                assert reduce_window(j, B, p.n) == window_reference(j, B, p), (N, j)

    def test_single_offset(self):
        # B = 0 is the first offset alone
        rng = random.Random(0)
        for n in (3, 10, 93, 248, 256):
            p = Params(r=3, m=2, ell=n - 2)
            for j in (0, 1, p.two_n - 1, *(rng.randrange(p.two_n) for _ in range(20))):
                assert reduce_window(j, 0, p.n) == [lagrange_reduce(j, p.n)], (n, j)

    @pytest.mark.parametrize("ell", [120, 128])
    def test_matches_reference_at_large_registers(self, ell):
        # 200 windows each at n = 248 and 256, B = 10: half centred on a
        # peak of a random 128-bit order, half at random j
        rng = random.Random(ell)
        for i in range(200):
            r = rng.getrandbits(128) | (1 << 127) | 1
            p = Params(r=r, m=128, ell=ell)
            if i % 2:
                j = peak(rng.randrange(r), p).j0 % p.two_n
            else:
                j = rng.randrange(p.two_n)
            assert reduce_window(j, 10, p.n) == window_reference(j, 10, p), (r, j)


class TestWindowCandidates:
    """window_candidates, the window's cones and slivers, gives the union of
    enumerate_candidates over the window's offsets, and no candidate twice
    when every offset is case 2 and 2B + 1 < 2**ell."""

    @staticmethod
    def assert_union(j: int, B: int, p: Params) -> list[ReducedBasis]:
        window = reduce_window(j, B, p.n)
        got = window_candidates(window, p.m, p.ell)
        want, cases = set(), []
        for k in range(-B, B + 1):
            o = (j + k) % p.two_n
            res = enumerate_candidates(lagrange_reduce(o, p.n), p.m, p.ell)
            want.update(res.candidates)
            cases.append(res.case)
        assert set(got) == want, (p, B, j)
        if set(cases) == {2} and 2 * B + 1 < 1 << p.ell:
            assert len(got) == len(want), (p, B, j)
        # descending within each cone, case-1 candidate and run of slivers
        runs = sum(case == 2 for case, _ in itertools.groupby(cases))
        assert sum(a < b for a, b in zip(got, got[1:])) <= 2 * B + runs, (p, B, j)
        return window

    @given(st.integers(3, 14), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_geometries(self, n, B, data):
        # every split n = m + ell with ell >= 1, ell > m included; B up to 6
        # makes some windows longer than 2**ell, or than the register
        m = data.draw(st.integers(2, n - 1))
        p = Params(r=3, m=m, ell=n - m)
        edge = data.draw(st.integers(0, B + 1))
        j = data.draw(st.sampled_from([edge, p.two_n - 1 - edge, data.draw(
            st.integers(0, p.two_n - 1))]))
        self.assert_union(j, B, p)

    def test_every_window_of_small_registers(self):
        # every j at every split of n = 5..8, for B = 0 (one cone and both
        # slivers of one offset) and B = 2; the windows include case-1
        # offsets, windows wrapping past 0 and 2**n, and case-2 offsets with
        # s1 = (0, y), whose slivers' walls x = +-2**(m-1) run along s1 (a
        # bound with m1 coefficient 0)
        seen = set()
        for n in range(5, 9):
            for m in range(2, n):
                p = Params(r=3, m=m, ell=n - m)
                for B in (0, 2):
                    for j in range(p.two_n):
                        for rb in self.assert_union(j, B, p):
                            case2 = 1 << (2 * n) < norm4(rb.s1) << (2 * m - 1)
                            seen.add((case2, case2 and rb.s1.x == 0))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_peak_windows_at_128_bits(self):
        # 20 windows of the benchmark geometry, m = 128, ell = 120, B = 10,
        # each centred on a peak of a random 128-bit order
        rng = random.Random(27)
        for _ in range(20):
            r = rng.getrandbits(128) | (1 << 127) | 1
            p = Params(r=r, m=128, ell=120)
            self.assert_union(peak(rng.randrange(r), p).j0 % p.two_n, 10, p)
