"""Exact measurement distribution, its oracles, and the sampler."""

import bisect
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orderlab.distribution as distribution
from orderlab.distribution import (
    SampleResult,
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
from orderlab.distribution import (
    _MASS_REL_ERR,
    _float_mass,
    _sin2_table,
    _unit_circle,
    _unit_circle_tables,
)
from orderlab.model import Params, Rng, derive, peak
from orderlab.pipeline import RunConfig


def argument(j: int, params: Params) -> int:
    """The signed argument {r j} mod 2**n, in [-2**(n-1), 2**(n-1)),
    that the distribution of frequency j is read at."""
    half = params.two_n // 2
    return (params.r * j + half) % params.two_n - half


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
            assert rel_close(prob(argument(j, p), p), dist[j], 1e-13, floor_)

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
            assert rel_close(dist[j], prob(argument(j, p), p), 1e-14)

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


def bruteforce_from_period_tables(p):
    """The double sum with terms read from the separate cos and sin
    tables of one period, M = 2**n >> v, 1024 rows at a time."""
    N = p.two_n
    d = derive(p)
    v = (p.r & -p.r).bit_length() - 1
    M = N >> v
    cos_table, sin_table = _unit_circle_tables(M)
    alpha = ((p.r >> v) * np.arange(M, dtype=np.int64)) % M
    out = np.empty(M, dtype=np.longdouble)
    for lo in range(0, M, 1024):
        theta = (alpha[lo : lo + 1024, None] * np.arange(d.L + 1)) % M
        cre, cim = cos_table[theta], sin_table[theta]
        c_lo, s_lo = cre[:, :-1].sum(axis=1), cim[:, :-1].sum(axis=1)
        c_hi, s_hi = c_lo + cre[:, -1], s_lo + cim[:, -1]
        out[lo : lo + 1024] = (
            d.beta * (c_hi * c_hi + s_hi * s_hi) + (p.r - d.beta) * (c_lo * c_lo + s_lo * s_lo)
        ) / (np.longdouble(N) * np.longdouble(N))
    return np.tile(out, N // M)


# r with 2-adic valuation from 0 up to m - 1, at n = 3 and n = 13, and
# an odd 11-bit r at n = 16, the width the dist_exact benchmark runs at
TABLE_GEOMETRIES = [(2, 2, 1), (3, 2, 1)] + [
    (r, 8, 5) for r in (3, 4, 6, 8, 12, 48, 64, 96, 128)
] + [(1531, 11, 5)]


class TestTablesAndPeriod:
    @pytest.mark.parametrize("r,m,ell", TABLE_GEOMETRIES)
    def test_full_distribution_bit_identical_to_three_sines(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        assert np.array_equal(full_distribution(p), closed_form_three_sines(p))

    @pytest.mark.parametrize("r,m,ell", TABLE_GEOMETRIES)
    def test_bruteforce_bit_identical_to_period_tables(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        assert np.array_equal(bruteforce_distribution(p), bruteforce_from_period_tables(p))

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

    @pytest.mark.parametrize("n", range(3, 17))
    def test_circle_at_multiples_is_the_period_table(self, n):
        # 2 pi / (2**n >> v) is 2**v times 2 pi / 2**n exactly, so entry
        # k 2**v of the 2**n circle is entry k of the period table
        N = 1 << n
        circle = _unit_circle(N)
        for v in range(n - 1):
            cos_table, sin_table = _unit_circle_tables(N >> v)
            assert np.array_equal(circle.real[:: 1 << v], cos_table)
            assert np.array_equal(circle.imag[:: 1 << v], sin_table)

    @pytest.mark.parametrize("n", range(3, 17))
    def test_sin2_table_at_multiples_is_the_step_table(self, n):
        N = 1 << n
        table = _sin2_table(N)
        for v in range(n - 1):
            k = np.arange(0, N // 2 + 1, 1 << v, dtype=np.int64)
            s = np.sin(PI_LD * (k.astype(np.longdouble) / np.longdouble(N)))
            assert np.array_equal(table[:: 1 << v], s * s)

    def test_bruteforce_at_benchmark_width_matches_per_frequency(self):
        p = Params(r=1531, m=11, ell=5)
        dist = bruteforce_distribution(p)
        for j in random.Random(16).sample(range(p.two_n), 30):
            assert rel_close(dist[j], prob_bruteforce(j, p), 1e-15, 2.0 ** (-2 * p.n))

    @pytest.mark.parametrize("r,m,ell", TABLE_GEOMETRIES)
    def test_distributions_repeat_with_period(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        v = (r & -r).bit_length() - 1
        period = p.two_n >> v
        for dist in (full_distribution(p), bruteforce_distribution(p)):
            assert dist.shape == (p.two_n,)
            assert np.array_equal(dist[period:], dist[:-period])


class TestTableCache:
    def test_tables_are_read_only_and_reused(self):
        N = 1 << 10
        for build in (_sin2_table, _unit_circle):
            table = build(N)
            assert build(N) is table
            with pytest.raises(ValueError):
                table[1] = 0

    def test_only_the_latest_width_is_kept(self):
        for build in (_sin2_table, _unit_circle):
            table = build(1 << 8)
            assert build(1 << 8) is table
            other = build(1 << 9)
            assert other is not table and build(1 << 9) is other
            rebuilt = build(1 << 8)
            assert rebuilt is not table and np.array_equal(rebuilt, table)

    def test_wide_tables_are_built_but_not_kept(self):
        N = 2 << distribution._TABLE_WIDTH_LIMIT
        kept = _sin2_table(1 << 10)
        table = _sin2_table(N)  # 16 MB of long doubles
        assert table.shape == (N // 2 + 1,) and not table.flags.writeable
        k = np.array([1, N // 6, N // 2])
        s = np.sin(PI_LD * (k.astype(np.longdouble) / np.longdouble(N)))
        assert np.array_equal(table[k], s * s)
        assert _sin2_table(N) is not table
        assert _sin2_table(1 << 10) is kept


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
        s1 = Sampler(p, t_max=RunConfig.t_max)
        s2 = Sampler(p, t_max=RunConfig.t_max)
        draws1 = [s1.sample(Rng(900 + i)) for i in range(30)]
        draws2 = [s2.sample(Rng(900 + i)) for i in range(30)]
        assert draws1 == draws2

    def test_draws_are_valid(self):
        p = Params(r=12, m=4, ell=4)
        s = Sampler(p, t_max=RunConfig.t_max)
        rng = Rng(77)
        for _ in range(200):
            res = s.sample(rng)
            assert 0 <= res.z < p.r
            if res.t is None:
                assert res.j is None
            else:
                assert 0 <= res.j < p.two_n
                assert abs(res.t) <= s.t_cap
                assert res.j == (peak(res.z, p).j0 + res.t) % p.two_n

    def test_tiny_budget_produces_tails(self):
        p = Params(r=13, m=4, ell=4)
        s = Sampler(p, t_max=1)
        rng = Rng(5)
        results = [s.sample(rng) for _ in range(600)]
        assert any(res.t is None for res in results)
        assert all(abs(res.t) <= 1 for res in results if res.t is not None)

    def test_exact_order_power_of_two(self):
        # r | 2**n: every draw must land exactly on its peak
        p = Params(r=8, m=4, ell=4)
        s = Sampler(p, t_max=RunConfig.t_max)
        rng = Rng(9)
        for _ in range(100):
            res = s.sample(rng)
            assert res.t == 0

    def test_goodness_of_fit(self):
        import scipy.stats

        p = Params(r=3, m=2, ell=10)
        n_draws = 100_000
        s = Sampler(p, t_max=RunConfig.t_max)
        rng = Rng(20240817)
        counts = np.zeros(p.two_n + 1, dtype=np.int64)  # last slot: sampler tail
        for _ in range(n_draws):
            res = s.sample(rng)
            counts[p.two_n if res.t is None else res.j] += 1
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


def _offset(i: int) -> int:
    # outward walk order: 0, +1, -1, +2, -2, ...
    k = (i + 1) // 2
    return k if i % 2 == 1 else -k


def _sample_reference(params: Params, t_max: int, rng) -> SampleResult:
    """The sampler as it was before the float64 walk: the cumulative
    masses r * P added up in mpmath at n + 64 bits, and the first index
    whose total reaches the exact target U / 2**(n + 48), found with
    bisect_left.  The old per-peak cache only replayed these same
    totals, so a fresh walk per draw gives the same draws."""
    t_cap = min(t_max, derive(params).B_max_floor)
    prec = params.n + 64
    z = rng.randrange(params.r)
    bits = params.n + 48
    U = rng.getrandbits(bits)
    with mpmath.workprec(prec):
        target = mpmath.mpf(U) / 2**bits
        cum = []
        total = mpmath.mpf(0)
        alpha0 = peak(z, params).alpha0
        while len(cum) < 2 * t_cap + 1 and total < target:
            t = _offset(len(cum))
            total += params.r * prob(alpha0 + params.r * t, params, prec)
            cum.append(total)
        if total < target:
            return SampleResult(z=z, t=None, j=None)
        t = _offset(bisect.bisect_left(cum, target))
        return SampleResult(z=z, t=t, j=(peak(z, params).j0 + t) % params.two_n)


class StubRng:
    """Hands the sampler a chosen peak z and a chosen integer U, the
    target U / 2**(n + 48)."""

    def __init__(self, z: int, U: int, params: Params):
        self.z, self.U, self.params = z, U, params

    def randrange(self, stop):
        assert stop == self.params.r
        return self.z

    def getrandbits(self, bits):
        assert bits == self.params.n + 48
        return self.U


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the draws that fall back to the mpmath walk."""
    calls = []
    walk = distribution._mpmath_walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(distribution, "_mpmath_walk", counted)
    return calls


def assert_draws_match(params: Params, t_max: int, seed: int, draws: int):
    sampler = Sampler(params, t_max=t_max)
    for k in range(draws):
        got = sampler.sample(Rng(seed + k))
        assert got == _sample_reference(params, t_max, Rng(seed + k)), (params, t_max, seed + k)


def random_order(rnd: random.Random, m: int) -> int:
    return rnd.getrandbits(m) | (1 << (m - 1)) | 1


class TestFloatWalkMatchesReference:
    def test_seeded_draws_at_256_bits(self, fallbacks):
        rnd = random.Random(11)
        for k in range(150):
            p = Params(r=random_order(rnd, 128), m=128, ell=128)
            assert_draws_match(p, RunConfig.t_max, 5000 + 3 * k, 2)
        assert fallbacks == []

    def test_seeded_draws_at_factor_size(self, fallbacks):
        rnd = random.Random(12)
        for k in range(100):
            p = Params(r=random_order(rnd, 48), m=48, ell=48)
            assert_draws_match(p, RunConfig.t_max, 7000 + 3 * k, 2)
        assert fallbacks == []

    @pytest.mark.parametrize("r", [3, 5, 8, 12, 13])
    @pytest.mark.parametrize("t_max", [1, RunConfig.t_max])
    def test_seeded_draws_at_small_geometries(self, r, t_max):
        m = r.bit_length()
        for ell in (1, 3, 6):
            assert_draws_match(Params(r=r, m=m, ell=ell), t_max, 100 * ell + r, 60)

    @given(st.integers(2, 200), st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_small_geometries(self, r, ell, t_max, seed):
        assert_draws_match(Params(r=r, m=r.bit_length(), ell=ell), t_max, seed, 5)

    def test_tails_at_t_max_one(self):
        p = Params(r=13, m=4, ell=4)
        sampler = Sampler(p, t_max=1)
        draws = [sampler.sample(Rng(300 + k)) for k in range(400)]
        assert any(d.t is None for d in draws)
        assert draws == [_sample_reference(p, 1, Rng(300 + k)) for k in range(400)]

    @pytest.mark.parametrize("r,m,ell", [(13, 4, 4), (3, 2, 10), (2**40 + 15, 41, 41)])
    def test_u_zero(self, r, m, ell):
        p = Params(r=r, m=m, ell=ell)
        for z in (0, 1, r // 2, r - 1):
            rng = StubRng(z, 0, p)
            got = Sampler(p, t_max=RunConfig.t_max).sample(rng)
            assert got == _sample_reference(p, RunConfig.t_max, rng)
            assert got.t == 0

    def test_z_zero(self):
        rnd = random.Random(13)
        for r, m, ell in ((13, 4, 4), (5, 3, 9), (random_order(rnd, 128), 128, 128)):
            p = Params(r=r, m=m, ell=ell)
            for _ in range(20):
                rng = StubRng(0, rnd.getrandbits(p.n + 48), p)
                got = Sampler(p, t_max=RunConfig.t_max).sample(rng)
                assert got == _sample_reference(p, RunConfig.t_max, rng)

    @pytest.mark.parametrize("r,m,ell", [(8, 4, 4), (4, 3, 1), (2**20, 21, 30)])
    def test_order_divides_register(self, r, m, ell, fallbacks):
        # r * P(0) = 1 exactly, so every target below 1 stops at t = 0; the
        # target one step below 1 is inside the band, and the fallback agrees
        p = Params(r=r, m=m, ell=ell)
        bits = p.n + 48
        for z, U in enumerate((0, 3 << (bits - 3), (1 << bits) - 1)):
            rng = StubRng(z, U, p)
            got = Sampler(p, t_max=RunConfig.t_max).sample(rng)
            assert got == _sample_reference(p, RunConfig.t_max, rng)
            assert got.t == 0
        assert len(fallbacks) == 1


class TestForcedFallback:
    @pytest.mark.parametrize("r,m,ell", [(13, 4, 4), (2**127 + 1235, 128, 128)])
    def test_target_on_a_cumulative_boundary(self, r, m, ell, fallbacks):
        p = Params(r=r, m=m, ell=ell)
        bits = p.n + 48
        z = 5
        alpha0 = peak(z, p).alpha0
        prec = p.n + 64
        steps = []  # the U whose target is nearest below each of the first three totals
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            for i in range(3):
                total += r * prob(alpha0 + r * _offset(i), p, prec)
                steps.append(int(mpmath.floor(total * 2**bits)))
        for i, k in enumerate(steps):
            outcomes = set()
            for step in (-1, 0, 1):
                rng = StubRng(z, k + step, p)
                before = len(fallbacks)
                got = Sampler(p, t_max=RunConfig.t_max).sample(rng)
                assert got == _sample_reference(p, RunConfig.t_max, rng)
                assert len(fallbacks) == before + 1
                outcomes.add(got.t)
            assert outcomes == {_offset(i), _offset(i + 1)}

    def test_wide_register_walks_in_mpmath(self, fallbacks):
        # n = 600 three times, and n = 300, just past _FLOAT_WIDTH_LIMIT
        rnd = random.Random(14)
        for k, m in enumerate((300, 300, 300, 150)):
            p = Params(r=random_order(rnd, m), m=m, ell=m)
            assert_draws_match(p, RunConfig.t_max, 40 + k, 1)
        assert len(fallbacks) == 4


class TestFloatMass:
    @pytest.mark.parametrize("m,ell", [(5, 3), (40, 24), (128, 128)])
    def test_within_documented_bound(self, m, ell):
        rnd = random.Random(m)
        for _ in range(40):
            p = Params(r=random_order(rnd, m), m=m, ell=ell)
            d = derive(p)
            z = rnd.randrange(p.r)
            alpha0 = peak(z, p).alpha0
            offsets = {0, 1, -1, 2, -5, 17, d.B_max_floor, -d.B_max_floor}
            alphas = {alpha0 + p.r * t for t in offsets if abs(t) <= d.B_max_floor}
            alphas |= {0, rnd.randrange(-(p.two_n // 2), p.two_n // 2)}
            for alpha in alphas:
                with mpmath.workprec(p.n + 64):
                    want = p.r * prob(alpha, p)
                got = _float_mass(alpha, p, d)
                if want == 0:
                    assert got == 0.0
                else:
                    assert abs(mpmath.mpf(got) - want) <= _MASS_REL_ERR * want, (p, alpha)
