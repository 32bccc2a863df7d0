"""Exact measurement distribution, its oracles, and the sampler."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderlab.distribution import (
    Sampler,
    approx_prob,
    bruteforce_distribution,
    envelope,
    full_distribution,
    prob,
    prob_array,
    prob_bruteforce,
    prob_zero,
    window_mass,
)
from orderlab.distribution import _unit_circle_tables
from orderlab.model import Params, Rng, derive, frequency_argument, peak


def rel_close(a, b, tol, floor=0.0):
    a = float(a)
    b = float(b)
    return abs(a - b) <= tol * max(abs(a), abs(b), floor)


class TestProbZero:
    @given(st.integers(2, 300), st.integers(1, 6))
    def test_two_closed_forms_agree(self, r, ell):
        p = Params(r=r, m=r.bit_length(), ell=ell)
        d = derive(p)
        N = p.two_n
        direct = Fraction(d.L * d.L * r + (2 * d.L + 1) * d.beta, N * N)
        rearranged = Fraction(1, r) + Fraction(d.beta * (r - d.beta), N * N * r)
        assert prob_zero(p) == direct == rearranged

    def test_exact_when_r_divides(self):
        p = Params(r=8, m=4, ell=4)
        assert prob_zero(p) == Fraction(1, 8)

    def test_matches_prob(self):
        for r in (3, 7, 12, 31):
            p = Params(r=r, m=r.bit_length(), ell=r.bit_length())
            assert rel_close(prob(0, p), prob_zero(p), 1e-25)


class TestClosedFormAgainstDirectSum:
    @pytest.mark.parametrize("r", [2, 3, 5, 6, 12, 13, 21])
    def test_all_frequencies(self, r):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        N = p.two_n
        dist = bruteforce_distribution(p)
        floor_ = 2.0 ** (-2 * p.n)
        for j in range(N):
            assert rel_close(prob(frequency_argument(j, p), p), dist[j], 1e-13, floor_)

    def test_bulk_matches_per_frequency(self):
        p = Params(r=13, m=4, ell=4)
        dist = bruteforce_distribution(p)
        for j in range(0, p.two_n, 17):
            assert rel_close(dist[j], prob_bruteforce(j, p), 1e-15, 2.0 ** (-2 * p.n))

    def test_direct_sum_normalizes(self):
        for r in (5, 24, 100):
            p = Params(r=r, m=r.bit_length(), ell=3)
            total = bruteforce_distribution(p).sum()
            assert abs(float(total) - 1.0) < 1e-14


class TestSymmetryAndArray:
    @given(st.integers(2, 200), st.data())
    def test_even_in_argument(self, r, data):
        p = Params(r=r, m=r.bit_length(), ell=4)
        alpha = data.draw(st.integers(1, p.two_n // 2 - 1))
        assert rel_close(prob(alpha, p), prob(-alpha, p), 1e-25)

    def test_prob_array_matches_scalar(self):
        p = Params(r=11, m=4, ell=5)
        alphas = np.arange(-(p.two_n // 2), p.two_n // 2)
        arr = prob_array(alphas, p)
        for idx in range(0, len(alphas), 13):
            a = int(alphas[idx])
            assert rel_close(arr[idx], prob(a, p), 1e-15, 2.0 ** (-2 * p.n))

    def test_full_distribution_layout(self):
        p = Params(r=9, m=4, ell=4)
        dist = full_distribution(p)
        assert dist.shape == (p.two_n,)
        assert abs(float(dist.sum()) - 1.0) < 1e-12
        for j in (0, 1, 57, 200, p.two_n - 1):
            assert rel_close(dist[j], prob(frequency_argument(j, p), p), 1e-14)

    def test_domain_validation(self):
        p = Params(r=5, m=3, ell=3)
        with pytest.raises(ValueError):
            prob(p.two_n // 2, p)  # alpha = N/2 is outside the signed range
        prob(-(p.two_n // 2), p)  # -N/2 is inside


PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def closed_form_three_sines(p):
    """Per-entry closed form with three long-double sines per frequency."""
    N = p.two_n
    d = derive(p)
    def sin2(k):
        k = np.minimum(k, N - k)
        s = np.sin(PI_LD * (k.astype(np.longdouble) / np.longdouble(N)))
        return s * s

    a = (p.r * np.arange(N, dtype=np.int64)) % N
    nz = a != 0
    s_hi = sin2((a * (d.L + 1)) % N)
    s_lo = sin2((a * d.L) % N)
    s_den = sin2(a)
    out = np.empty(N, dtype=np.longdouble)
    NN = np.longdouble(N) * np.longdouble(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[nz] = (d.beta * s_hi[nz] + (p.r - d.beta) * s_lo[nz]) / (s_den[nz] * NN)
    p0 = prob_zero(p)
    out[~nz] = np.longdouble(p0.numerator) / np.longdouble(p0.denominator)
    return out


# r with 2-adic valuation from 0 up to m - 1, at n = 3 and n = 13
TABLE_GEOMETRIES = [(2, 2, 1), (3, 2, 1)] + [
    (r, 8, 5) for r in (3, 4, 6, 8, 12, 48, 64, 96, 128)
]


class TestTablesAndPeriod:
    @pytest.mark.parametrize("r,m,ell", TABLE_GEOMETRIES)
    def test_full_distribution_bit_identical_to_three_sines(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        assert np.array_equal(full_distribution(p), closed_form_three_sines(p))

    @pytest.mark.parametrize("r", [2, 4, 8, 16, 24, 48, 64, 96])
    def test_bruteforce_high_valuation_matches_per_frequency(self, r):
        p = Params(r=r, m=7, ell=4)
        dist = bruteforce_distribution(p)
        for j in range(0, p.two_n, 7):
            assert rel_close(dist[j], prob_bruteforce(j, p), 1e-15, 2.0 ** (-2 * p.n))

    @pytest.mark.parametrize("n", range(3, 17))
    def test_quarter_wave_tables_match_direct(self, n):
        N = 1 << n
        cos_table, sin_table = _unit_circle_tables(N)
        angle = (2 * PI_LD / np.longdouble(N)) * np.arange(N).astype(np.longdouble)
        assert np.max(np.abs(cos_table - np.cos(angle))) <= 1e-18
        assert np.max(np.abs(sin_table - np.sin(angle))) <= 1e-18

    @pytest.mark.parametrize("r,m,ell", TABLE_GEOMETRIES)
    def test_distributions_repeat_with_period(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        v = (r & -r).bit_length() - 1
        period = p.two_n >> v
        for dist in (full_distribution(p), bruteforce_distribution(p)):
            assert dist.shape == (p.two_n,)
            assert np.array_equal(dist[period:], dist[:-period])


class TestApproximations:
    def test_approx_prob_formula(self):
        p = Params(r=13, m=4, ell=4)
        for alpha in (1, 5, 40, 100):
            with mpmath.workprec(80):
                want = (
                    p.r
                    * mpmath.sinpi(mpmath.mpf(alpha) / p.r) ** 2
                    / (mpmath.pi * alpha) ** 2
                )
            assert rel_close(approx_prob(alpha, p), want, 1e-20)

    def test_envelope_formula(self):
        p = Params(r=13, m=4, ell=4)
        N = p.two_n
        for alpha in (1, 7, 90):
            with mpmath.workprec(80):
                want = (
                    p.r
                    * mpmath.sinpi(mpmath.mpf(alpha) / p.r) ** 2
                    / (N ** 2 * mpmath.sinpi(mpmath.mpf(alpha) / N) ** 2)
                )
            assert rel_close(envelope(alpha, p), want, 1e-20)

    def test_multiples_of_r_vanish(self):
        p = Params(r=8, m=4, ell=4)
        assert approx_prob(16, p) == 0
        assert envelope(16, p) == 0


class TestWindowMass:
    @pytest.mark.parametrize("r", [3, 10, 29])
    def test_matches_termwise_sum(self, r):
        p = Params(r=r, m=r.bit_length(), ell=r.bit_length() + 3)
        B = 3
        for z in range(r):
            alpha0 = peak(z, p).alpha0
            with mpmath.workprec(120):
                want = mpmath.fsum(
                    prob(alpha0 + r * t, p, 120) for t in range(-B, B + 1)
                )
            assert rel_close(window_mass(z, p, B), want, 1e-20)

    def test_windows_cover_at_most_everything(self):
        p = Params(r=7, m=3, ell=4)
        d = derive(p)
        total = mpmath.fsum(window_mass(z, p, d.B_max_floor) for z in range(p.r))
        assert float(total) <= 1.0 + 1e-12

    def test_window_grows_with_width(self):
        p = Params(r=13, m=4, ell=6)
        masses = [float(window_mass(5, p, B)) for B in (1, 2, 4, 8)]
        assert masses == sorted(masses)


class TestSampler:
    def test_determinism(self):
        p = Params(r=13, m=4, ell=4)
        s1 = Sampler(p)
        s2 = Sampler(p)
        draws1 = [s1.sample(Rng(900 + i)) for i in range(30)]
        draws2 = [s2.sample(Rng(900 + i)) for i in range(30)]
        assert draws1 == draws2

    def test_draws_are_valid(self):
        p = Params(r=12, m=4, ell=4)
        s = Sampler(p)
        rng = Rng(77)
        for _ in range(200):
            res = s.sample(rng)
            assert 0 <= res.z < p.r
            if res.tail:
                assert res.j is None and res.t is None
            else:
                assert 0 <= res.j < p.two_n
                assert abs(res.t) <= s.t_cap
                assert res.j == (peak(res.z, p).j0 + res.t) % p.two_n

    def test_tiny_budget_produces_tails(self):
        p = Params(r=13, m=4, ell=4)
        s = Sampler(p, t_max=1)
        rng = Rng(5)
        results = [s.sample(rng) for _ in range(600)]
        assert any(res.tail for res in results)
        assert all(abs(res.t) <= 1 for res in results if not res.tail)

    def test_exact_order_power_of_two(self):
        # r | 2**n: every draw must land exactly on its peak
        p = Params(r=8, m=4, ell=4)
        s = Sampler(p)
        rng = Rng(9)
        for _ in range(100):
            res = s.sample(rng)
            assert not res.tail
            assert res.t == 0

    def test_goodness_of_fit(self):
        import scipy.stats

        p = Params(r=3, m=2, ell=10)
        n_draws = 100_000
        s = Sampler(p)
        rng = Rng(20240817)
        counts = np.zeros(p.two_n + 1, dtype=np.int64)  # last slot: sampler tail
        for _ in range(n_draws):
            res = s.sample(rng)
            counts[p.two_n if res.tail else res.j] += 1
        expected = np.append(full_distribution(p), 0.0) * n_draws
        expected[-1] = max(n_draws - expected[:-1].sum(), 0.0)
        # merge every bin with expected count < 5 into the tail slot
        keep = expected >= 5.0
        keep[-1] = False
        obs = np.append(counts[keep], counts[~keep].sum()).astype(np.float64)
        exp = np.append(expected[keep], expected[~keep].sum()).astype(np.float64)
        exp *= obs.sum() / exp.sum()
        stat, pvalue = scipy.stats.chisquare(obs, exp)
        assert pvalue > 1e-3, f"chi-square p={pvalue} (stat={stat}, bins={len(obs)})"
