"""Acceptance suite: the fourteen headline guarantees, one test per criterion.

Each test prints one `criterion NN PASS` line on success (visible with
pytest -s); the pytest -v status line per test is the canonical marker.
Criteria with stated runtime budgets assert elapsed wall time too.
"""

import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from orderlab.bounds import (
    carmichael_value,
    cos_inequalities,
    dyadic_band_bound,
    enumeration_budget,
    success_bound_table,
    trigamma_reference,
    trigamma_upper,
    window_inverse_square_closed,
    window_inverse_square_sum,
    window_mass_lower_bound,
)
from orderlab.cf import solve_cf
from orderlab.distribution import (
    bruteforce_distribution,
    full_distribution,
    approx_prob,
    envelope,
    prob,
    window_mass,
)
from orderlab.factorint import is_probable_prime
from orderlab.lattice import enumerate_candidates, lagrange_reduce, solve_shortest
from orderlab.model import Params, SimulatedGroup, derive, peak
from orderlab.pipeline import RunConfig, factor_completely, monte_carlo
from orderlab.recovery import (
    ExponentMeter,
    SmoothnessContext,
    filter_candidates,
    filter_exponent_budget,
    multiple_recovery_exponent_budget,
    recover_multiple,
    recover_order_stack,
    recover_order_tree,
    stack_recovery_exponent_budget,
    tree_recovery_exponent_budget,
)

EXPECTED_TABLE = [
    ["0.56765", "0.83887", "0.85539", "0.85696", "0.85712", "0.85714"],
    ["0.65584", "0.96920", "0.98829", "0.99011", "0.99029", "0.99030"],
    ["0.65998", "0.97532", "0.99453", "0.99636", "0.99654", "0.99656"],
    ["0.66177", "0.97797", "0.99723", "0.99906", "0.99924", "0.99926"],
    ["0.66208", "0.97842", "0.99769", "0.99953", "0.99971", "0.99973"],
    ["0.66217", "0.97856", "0.99783", "0.99967", "0.99985", "0.99987"],
    ["0.66222", "0.97863", "0.99790", "0.99973", "0.99992", "0.99993"],
]


def signed_arguments(params: Params) -> np.ndarray:
    """alpha(j) for every frequency j, as signed residues of r*j."""
    N = params.two_n
    j = np.arange(N, dtype=np.int64)
    return ((params.r * j + N // 2) % N) - N // 2


def test_criterion_01_reference_table():
    start = time.perf_counter()
    table = success_bound_table()
    elapsed = time.perf_counter() - start
    assert table == EXPECTED_TABLE
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    print(f"criterion 01 PASS: 42/42 table entries exact, {elapsed:.3f}s")


def test_criterion_02_closed_form_vs_direct_sum():
    start = time.perf_counter()
    worst = 0.0
    triples = 0
    for m in range(2, 12):
        for ell in range(1, 13 - m):
            for r in range(2, 1 << m):
                p = Params(r=r, m=m, ell=ell)
                closed = full_distribution(p)
                direct = bruteforce_distribution(p)
                scale = np.maximum(
                    np.maximum(np.abs(closed), np.abs(direct)),
                    np.longdouble(2.0) ** (-2 * p.n),
                )
                dev = float(np.max(np.abs(closed - direct) / scale))
                worst = max(worst, dev)
                assert dev <= 1e-12, f"(r={r}, m={m}, ell={ell}): {dev}"
                triples += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(
        f"criterion 02 PASS: {triples} parameter triples, worst relative "
        f"deviation {worst:.3e}, {elapsed:.1f}s"
    )


def test_criterion_03_normalization():
    start = time.perf_counter()
    worst = 0.0
    for r in range(2, 65):
        m = r.bit_length()
        for ell in (1, m):
            p = Params(r=r, m=m, ell=ell)
            total = float(full_distribution(p).sum())
            worst = max(worst, abs(total - 1.0))
            assert abs(total - 1.0) <= 1e-9, f"(r={r}, ell={ell}): {total}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 03 PASS: sums within {worst:.3e} of 1, {elapsed:.1f}s")


def test_criterion_04_pointwise_approximation_bounds():
    checked = 0
    for r in range(2, 33):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        N = p.two_n
        with mpmath.workprec(128):
            cap_pt = mpmath.mpf(3) * mpmath.pi ** 2 / 4 / N
            cap_ta = mpmath.pi ** 2 * r / 12 / (mpmath.mpf(N) ** 2)
            cap_pa = mpmath.pi ** 2 / N
            for alpha in range(-(N // 2), N // 2):
                if alpha == 0:
                    continue
                P = prob(alpha, p, 128)
                T = envelope(alpha, p, 128)
                A = approx_prob(alpha, p, 128)
                assert abs(P - T) < cap_pt, (r, alpha, "exact vs envelope")
                assert abs(T - A) <= cap_ta, (r, alpha, "envelope vs approx")
                assert abs(P - A) < cap_pa, (r, alpha, "exact vs approx")
                checked += 1
    print(f"criterion 04 PASS: 3 pointwise bounds at {checked} arguments")


def test_criterion_05_window_mass_lower_bound():
    checked = 0
    for r in range(2, 65):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        d = derive(p)
        widths = {1, 2, 3, d.B_max_floor - 1}
        for B in sorted(widths):
            if B < 1 or r * (2 * B + 1) >= p.two_n:
                continue
            bound = window_mass_lower_bound(p, B)
            for z in range(r):
                assert window_mass(z, p, B) >= bound, (r, B, z)
                checked += 1
    print(f"criterion 05 PASS: window mass >= bound at {checked} (r, B, z) points")


def test_criterion_06_solver_exactness_at_peaks():
    start = time.perf_counter()
    checked = 0
    for r in range(2, 101):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        for z in range(r):
            j = peak(z, p).j0 % p.two_n
            want = r // math.gcd(r, z)
            assert solve_cf(j, p.n) == want, (r, z, "cf")
            assert solve_shortest(j, p.n) == want, (r, z, "lattice")
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 06 PASS: both solvers exact at {checked} peaks, {elapsed:.1f}s")


def test_criterion_07_enumeration_contains_order():
    checked = 0
    for r in range(2, 101):
        for delta in range(1, 6):
            m = max(r.bit_length(), delta + 1)
            p = Params(r=r, m=m, ell=m - delta)
            budget = enumeration_budget(delta)
            for z in range(r):
                j = peak(z, p).j0 % p.two_n
                res = enumerate_candidates(lagrange_reduce(j, p.n), p.m, p.ell)
                r_tilde = r // math.gcd(r, z)
                assert r_tilde in res.candidates, (r, delta, z)
                assert res.visited <= budget, (r, delta, z, res.visited)
                checked += 1
    print(f"criterion 07 PASS: order candidate found at {checked} peak/width points")


def test_criterion_08_traces_and_recovery_agreement():
    group = SimulatedGroup(12)
    ctx = SmoothnessContext.build(1, 4)
    trace1: list = []
    got1 = recover_multiple(group, group.generator(), 1, ctx, trace=trace1)
    assert got1 == 12 and trace1 == [1, 4, 12]
    trace2: list = []
    got2 = recover_order_stack(group, group.generator(), 1, ctx, trace=trace2)
    assert got2 == 12 and trace2 == [1, 3, 6, 12]

    rnd = random.Random(0xA11CE)
    agreements = 0
    for _ in range(10_000):
        r = rnd.randrange(2, 4096)
        m = r.bit_length()
        ctx_i = SmoothnessContext.build(rnd.choice([1, 1.5, 2, 3, 5]), m)
        g_i = SimulatedGroup(r)
        gen = g_i.element(rnd.randrange(r))
        r_tilde = rnd.randrange(1, 1 << m)
        assert recover_order_stack(g_i, gen, r_tilde, ctx_i) == recover_order_tree(
            g_i, gen, r_tilde, ctx_i
        )
        agreements += 1
    print(f"criterion 08 PASS: golden traces exact, {agreements} stack/tree agreements")


def test_criterion_09_exponent_budgets():
    rnd = random.Random(0xB0B)
    cases = 0
    for _ in range(3000):
        r = rnd.randrange(2, 4096)
        m = r.bit_length()
        ctx = SmoothnessContext.build(rnd.choice([1, 1.5, 2, 5, 10]), m)
        group = SimulatedGroup(r)
        g = group.element(rnd.randrange(r))
        r_tilde = rnd.randrange(1, 1 << m)

        meter = ExponentMeter()
        recover_multiple(group, g, r_tilde, ctx, meter)
        assert meter.total_bits <= multiple_recovery_exponent_budget(ctx)

        meter = ExponentMeter()
        recover_order_stack(group, g, r_tilde, ctx, meter)
        assert meter.total_bits <= stack_recovery_exponent_budget(ctx)

        meter = ExponentMeter()
        recover_order_tree(group, g, r_tilde, ctx, meter)
        assert meter.total_bits <= tree_recovery_exponent_budget(ctx)

        meter = ExponentMeter()
        cands = [rnd.randrange(1, 1 << m) for _ in range(8)]
        filter_candidates(group, g, cands, ctx, meter)
        assert meter.total_bits <= filter_exponent_budget(ctx, len(cands))
        cases += 1
    print(f"criterion 09 PASS: meter within proof budgets on {cases} cases x 4 meters")


def test_criterion_10_monte_carlo_meets_reference_bounds():
    points = [
        (10, 10.0, 0.96920),
        (100, 25.0, 0.99453),
    ]
    summaries = []
    for B, c, ref in points:
        config = RunConfig(m=128, ell=128, B=B, c=c)
        report = monte_carlo(config, trials=1000, seed=0xC0FFEE)
        threshold = ref - 3 * math.sqrt(ref * (1 - ref) / 1000)
        assert report.rate >= threshold, (B, c, report.rate, threshold)
        assert report.to_dict()["pass"] is True, (B, c)
        summaries.append(f"B={B},c={c}: rate {report.rate:.4f} >= {threshold:.4f}")
    print(f"criterion 10 PASS: {'; '.join(summaries)}")


def test_criterion_11_dyadic_band_bounds():
    rnd = random.Random(0xD1AD)
    checked = 0
    for m in range(2, 11):
        if m <= 7:
            orders = range(1 << (m - 1), 1 << m)
        else:
            orders = sorted(rnd.sample(range(1 << (m - 1), 1 << m), 32))
        for r in orders:
            if r < 2:
                continue
            p = Params(r=r, m=m, ell=m)
            dist = full_distribution(p)
            absa = np.abs(signed_arguments(p))
            for t in range(1, p.n + 1):
                lo, hi = 1 << (t - 1), 1 << t
                mass = float(dist[(absa >= lo) & (absa < hi)].sum())
                assert mass <= float(dyadic_band_bound(t, m)), (r, m, t, mass)
                checked += 1
    print(f"criterion 11 PASS: {checked} dyadic band masses within bounds")


def test_criterion_12_group_exponent_inequality():
    from orderlab.recovery import primes_up_to

    pool = [q for q in primes_up_to(100_000) if q > 2]
    rnd = random.Random(0x5EED)
    for i in range(1000):
        n_primes = 2 + i % 3
        primes = rnd.sample(pool, n_primes)
        fac = {q: rnd.randrange(1, 4) for q in primes}
        N = math.prod(q ** e for q, e in fac.items())
        lam = carmichael_value(fac)
        # lambda(N) < 2**(1-n) N, exactly, in integers
        assert (1 << (n_primes - 1)) * lam < N, fac
    print("criterion 12 PASS: exponent inequality exact on 1000 constructed moduli")


def test_criterion_13_factoring_demo():
    def complete(report):
        assert report.factors is not None
        assert math.prod(q ** e for q, e in report.factors.items()) == report.N
        assert all(is_probable_prime(q) for q in report.factors)
        assert all(e >= 1 for e in report.factors.values())

    for N in (15, 21, 105, 255):
        report = factor_completely(N, seed=2024)
        assert report.success, N
        complete(report)

    rnd = random.Random(0xFAC7)
    semiprimes = []
    while len(semiprimes) < 100:
        a = rnd.getrandbits(24) | (1 << 23) | 1
        b = rnd.getrandbits(24) | (1 << 23) | 1
        if a != b and is_probable_prime(a) and is_probable_prime(b):
            N = a * b
            if N.bit_length() == 48:
                semiprimes.append((N, a, b))
    wins = 0
    for k, (N, a, b) in enumerate(semiprimes):
        report = factor_completely(N, seed=k)
        if report.success:
            complete(report)
            assert report.factors == {min(a, b): 1, max(a, b): 1}
            wins += 1
    assert wins >= 90, f"only {wins}/100 semiprimes factored"
    print(f"criterion 13 PASS: {wins}/100 semiprimes, 4/4 classic moduli")


def test_criterion_14_inequality_oracles():
    xs = [0.5] + list(range(1, 1001))
    for x in xs:
        assert trigamma_upper(float(x)) > trigamma_reference(float(x), terms=10 ** 5)

    for i in range(10_000):
        phi = -math.pi + i * (2 * math.pi / 9999)
        phi = max(-math.pi, min(math.pi, phi))
        margins = cos_inequalities(phi)
        assert margins.lower >= -1e-15, phi
        assert margins.upper >= -1e-15, phi
        assert margins.quartic >= -1e-15, phi

    rnd = random.Random(0x7516)
    for _ in range(1000):
        r = rnd.randrange(2, 300)
        B = rnd.randrange(1, 100)
        # alpha0 strictly inside (0, r/2), away from 0 to keep the sum finite
        alpha0 = mpmath.mpf(rnd.randrange(1, 1000)) / 1000 * r / 2
        if alpha0 == 0:
            continue
        direct = window_inverse_square_sum(alpha0, r, B)
        closed = window_inverse_square_closed(alpha0, r, B)
        assert abs(direct - closed) <= 1e-10 * abs(closed), (r, B, alpha0)
    print(
        "criterion 14 PASS: trigamma bound on 1001 points, cosine margins on "
        "10000 points, window identity on 1000 triples"
    )
