"""End-to-end runs, Monte Carlo reporting, and the factoring pipeline."""

import itertools
import json
import math
import random
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orderlab import cf, cli, factorint, lattice, pipeline
from orderlab.bounds import carmichael_value, single_run_success_bound
from orderlab.factorint import factorize
from orderlab.model import Params, Rng, SimulatedGroup, peak
from orderlab.pipeline import (
    FAILURE_REASONS,
    STRATEGIES,
    FactorReport,
    RunConfig,
    analytic_bound,
    default_order_sampler,
    dumps_report,
    factor_completely,
    monte_carlo,
    post_process,
    report_to_csv,
    run_once,
    true_order,
    wilson_interval,
)
from orderlab.pipeline import _carmichael_primes, _register_for_modulus, _split_with_order
from orderlab.recovery import _RECOVERY, ExponentMeter, SmoothnessContext
from test_factorint import factor_op_moduli


def peak_frequency(z: int, params: Params) -> int:
    """The frequency of peak z, where a measurement lands most often."""
    return peak(z, params).j0 % params.two_n


def centre_out(B: int) -> list[int]:
    """The window's offsets k in the order the strategies visit them:
    0, +1, -1, ..., +B, -B."""
    return [0] + [sign * k for k in range(1, B + 1) for sign in (1, -1)]


def blind(group, j: int, params: Params, cfg: RunConfig):
    """post_process at j with a fresh meter: (order, reason, bits metered)."""
    meter = ExponentMeter()
    order, reason = post_process(group, group.generator(), j, params, cfg, meter)
    return order, reason, meter.total_bits


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(m=8, ell=8, B=4, c=10, strategy="newton")
        with pytest.raises(ValueError):
            RunConfig(m=8, ell=8, B=4, c=10, recovery="greedy")
        with pytest.raises(ValueError):
            RunConfig(m=8, ell=8, B=0, c=10)
        with pytest.raises(ValueError):
            RunConfig(m=8, ell=8, B=4, c=10, t_max=2)
        with pytest.raises(ValueError, match="ell"):
            RunConfig(m=4, ell=1, B=1, c=2)
        with pytest.raises(ValueError, match="c must be >= 1"):
            RunConfig(m=8, ell=8, c=0.5)
        with pytest.raises(ValueError, match="delta=3 inconsistent with m-ell=0"):
            RunConfig(m=8, ell=8, delta=3)


class TestRunOnce:
    def test_success_all_strategies(self):
        group = SimulatedGroup(210)  # 2 * 3 * 5 * 7, very smooth
        for strategy, recovery in itertools.product(STRATEGIES, _RECOVERY):
            delta = 2 if strategy == "enumerate" else None
            ell = 8 if delta is None else 8 - delta
            cfg = RunConfig(
                m=8, ell=ell, B=2, c=10.0, strategy=strategy, recovery=recovery, delta=delta
            )
            out = run_once(group, group.generator(), 210, cfg, Rng(3))
            assert out.success, (strategy, recovery)
            assert out.recovered == 210
            assert out.reason is None
            assert out.exponent_bits > 0

    def test_window_solver_looked_up_per_trial(self, monkeypatch):
        # the cf entry reaches the window solver through pipeline.cf at
        # call time, once for the whole window
        calls = []

        def counting(j, B, params):
            calls.append((j, B))
            return cf.solve_cf_window(j, B, params)

        monkeypatch.setattr(pipeline, "cf", types.SimpleNamespace(solve_cf_window=counting))
        params = Params(r=210, m=8, ell=8, B=3)
        cfg = RunConfig(m=8, ell=8, B=3, c=10.0, strategy="cf")
        j = peak_frequency(5, params)
        blind(SimulatedGroup(210), j, params, cfg)
        assert calls == [(j, 3)]

    def test_window_reduced_once_per_trial(self, monkeypatch):
        # the enumerate entry reduces the window through pipeline.lattice
        # once and takes its candidates from that one reduction, never
        # enumerating an offset on its own
        reduced, taken, enumerated = [], [], []

        def counting_reduce(j, B, params):
            window = lattice.reduce_window(j, B, params)
            reduced.append(((j, B), window))
            return window

        def counting_candidates(params, window):
            taken.append(window)
            return lattice.window_candidates(params, window)

        def counting_enumerate(j, params, rb):
            enumerated.append(j)
            return lattice.enumerate_candidates(j, params, rb)

        monkeypatch.setattr(pipeline, "lattice", types.SimpleNamespace(
            reduce_window=counting_reduce,
            window_candidates=counting_candidates,
            enumerate_candidates=counting_enumerate,
        ))
        params = Params(r=210, m=8, ell=6, B=3)
        cfg = RunConfig(m=8, ell=6, B=3, c=10.0, strategy="enumerate", delta=2)
        j = peak_frequency(5, params)
        blind(SimulatedGroup(210), j, params, cfg)
        assert [call for call, _ in reduced] == [(j, 3)]
        assert len(taken) == 1 and taken[0] is reduced[0][1]
        assert enumerated == []

    def test_cf_entry_permutes_the_window_centre_out(self):
        # solve_cf_window lists the offsets -B..B; the entry yields the same
        # solutions with k = 0, +1, -1, ..., +B, -B, also where the window
        # wraps past 0 or 2**n
        p = Params(r=3, m=16, ell=16, B=4)
        for j in (0, 2, 9, 1234, p.two_n - 3, p.two_n - 1):
            per_offset = dict(zip(range(-p.B, p.B + 1), cf.solve_cf_window(j, p.B, p)))
            got = STRATEGIES["cf"].candidates(j, p)
            assert got == [per_offset[k] for k in centre_out(p.B)], j

    def test_lattice_window_reduced_once_per_trial(self, monkeypatch):
        # the lattice entry reduces the window through pipeline.lattice once
        # and takes each offset's shortest vector, never solve_shortest
        calls = []

        def counting(j, B, params):
            calls.append((j, B))
            return lattice.reduce_window(j, B, params)

        monkeypatch.setattr(pipeline, "lattice", types.SimpleNamespace(reduce_window=counting))
        params = Params(r=210, m=8, ell=8, B=3)
        cfg = RunConfig(m=8, ell=8, B=3, c=10.0, strategy="lattice")
        j = peak_frequency(5, params)
        blind(SimulatedGroup(210), j, params, cfg)
        assert calls == [(j, 3)]

    def test_tail_outcome(self):
        cfg = RunConfig(m=4, ell=4, B=1, c=10.0, t_max=1)
        group = SimulatedGroup(13)
        seen_tail = False
        for seed in range(300):
            out = run_once(group, group.generator(), 13, cfg, Rng(seed))
            if out.reason == "tail":
                seen_tail = True
                assert not out.success
                assert out.j is None and out.t is None
                assert out.exponent_bits == 0
                break
        assert seen_tail

    def test_no_candidate_outcome(self):
        # at j=13 (r=13, m=4, ell=4) the shortest vectors of all three
        # window frequencies have doubled second coordinate >= 2**m
        params = Params(r=13, m=4, ell=4, B=1)
        cfg = RunConfig(m=4, ell=4, B=1, c=10.0, strategy="lattice")
        assert blind(SimulatedGroup(13), 13, params, cfg) == (None, "no_candidate", 0)

    def test_unsmooth_outcome(self):
        # z = 29 gives candidate r~ = 2 whose cofactor 29 is not 6-smooth:
        # post_process finds no order, and run_once books that as unsmooth_d
        params = Params(r=58, m=6, ell=6, B=1)
        cfg = RunConfig(m=6, ell=6, B=1, c=1.0)
        group = SimulatedGroup(58)
        order, reason, bits = blind(group, peak_frequency(29, params), params, cfg)
        assert (order, reason) == (None, None) and bits > 0
        for seed in range(1000):
            out = run_once(group, group.generator(), 58, cfg, Rng(seed))
            if out.reason == "unsmooth_d":
                break
        assert not out.success
        assert out.recovered is None
        assert (None, None, out.exponent_bits) == blind(group, out.j, params, cfg)

    def test_smoothness_context_built_once_per_c_m(self, monkeypatch):
        import orderlab.pipeline as pipeline_mod
        from orderlab.recovery import SmoothnessContext

        builds = []
        real_build = SmoothnessContext.build

        def counting_build(c, m):
            builds.append((c, m))
            return real_build(c, m)

        monkeypatch.setattr(SmoothnessContext, "build", staticmethod(counting_build))
        pipeline_mod._smoothness_context.cache_clear()
        group = SimulatedGroup(210)
        cfg = RunConfig(m=8, ell=8, B=2, c=10.0)
        outs = [run_once(group, group.generator(), 210, cfg, Rng(s)) for s in range(30)]
        assert sum(out.exponent_bits > 0 for out in outs) >= 10  # reached recovery
        assert builds == [(10.0, 8)]
        run_once(group, group.generator(), 210, RunConfig(m=8, ell=8, B=2, c=5.0), Rng(3))
        assert builds == [(10.0, 8), (5.0, 8)]

    def test_reasons_are_catalogued(self):
        assert set(FAILURE_REASONS) == {"tail", "no_candidate", "unsmooth_d", "budget"}


def _all_pairs(m: int, ell: int):
    """RunConfigs of every strategy x recovery pair at order register m:
    enumerate with delta = 2, the others at the given ell.

    c = 1 keeps the smoothness base small, so that some windows fail."""
    return [
        RunConfig(m=m, ell=m - 2, B=2, c=1.0, strategy=strategy, recovery=rec, delta=2)
        if strategy == "enumerate" else
        RunConfig(m=m, ell=ell, B=2, c=1.0, strategy=strategy, recovery=rec)
        for strategy, rec in itertools.product(STRATEGIES, _RECOVERY)
    ]


# (m, ell, orders)
POST_GEOMETRIES = [(4, 4, (6, 12)), (5, 4, (12, 29, 30))]


class TestPostProcess:
    def test_blind_to_params_r(self):
        # the same window, group and meter whatever order params claims
        for m, ell, orders in POST_GEOMETRIES:
            for r in orders:
                group = SimulatedGroup(r)
                for cfg in _all_pairs(m, ell):
                    true = Params(r=r, m=m, ell=cfg.ell, B=2)
                    fake = Params(r=3, m=m, ell=cfg.ell, B=2)
                    for j in range(0, true.two_n, 4):
                        assert blind(group, j, true, cfg) == blind(group, j, fake, cfg), (
                            cfg, r, j)

    def test_success_is_per_candidate(self):
        # post_process finds r at j exactly when one in-range window
        # candidate recovers r on its own
        outcomes = set()
        for m, ell, orders in POST_GEOMETRIES:
            ctx = SmoothnessContext.build(1.0, m)
            for r in orders:
                group = SimulatedGroup(r)
                g = group.generator()
                for cfg in _all_pairs(m, ell):
                    params = Params(r=r, m=m, ell=cfg.ell, B=2)
                    recover = _RECOVERY[cfg.recovery]
                    for j in range(params.two_n):
                        order, reason, _ = blind(group, j, params, cfg)
                        assert reason in (None, "no_candidate")
                        candidates = STRATEGIES[cfg.strategy].candidates(j, params)
                        hit = any(
                            recover(group, g, cand, ctx) == r
                            for cand in candidates if 1 <= cand < 1 << m
                        )
                        assert hit == (order == r), (cfg, r, j)
                        outcomes.add(hit)
        assert outcomes == {True, False}


class TestLatticeStrategy:
    """The lattice entry gives solve_shortest of each offset, centre-out,
    from one reduction of the window."""

    @staticmethod
    def assert_per_offset(j: int, params: Params):
        got = list(STRATEGIES["lattice"].candidates(j, params))
        window = [(j + k) % params.two_n for k in centre_out(params.B)]
        assert got == [lattice.solve_shortest(o, params) for o in window], j

    @given(st.integers(2, 300), st.integers(0, 3), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_small_geometries(self, r, extra_bits, B, data):
        m = r.bit_length() + extra_bits
        ell = data.draw(st.integers(1, m))
        B = min(B, ((1 << (m + ell)) - r) // (2 * r))  # run_once's clamp
        assume(B >= 1)
        p = Params(r=r, m=m, ell=ell, B=B)
        self.assert_per_offset(data.draw(st.integers(0, p.two_n - 1)), p)

    def test_near_peaks_at_128_bits(self):
        rnd = random.Random(20222)
        for _ in range(20):
            r = rnd.getrandbits(128) | (1 << 127)
            p = Params(r=r, m=128, ell=128, B=10)
            self.assert_per_offset(peak(rnd.randrange(r), p).j0 % p.two_n, p)
        # windows that wrap past 0 and 2**n
        p = Params(r=3, m=128, ell=128, B=10)
        for j in (0, 5, p.two_n - 3):
            self.assert_per_offset(j, p)


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(950, 1000)
        assert abs(lo - 0.9290930273094662) < 1e-15
        assert abs(hi - 0.9649749242774674) < 1e-15

    def test_edges(self):
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=100)
    def test_contains_point_estimate(self, trials, data):
        successes = data.draw(st.integers(0, trials))
        p = successes / trials
        lo, hi = wilson_interval(successes, trials)
        # one-ulp slack: center and half-width round independently
        assert 0.0 <= lo <= p + 1e-12
        assert p - 1e-12 <= hi <= 1.0


class TestOrderSampler:
    def test_m_two(self):
        assert default_order_sampler(Rng(0), 2) == 3

    @given(st.integers(3, 128), st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_exact_bit_length_and_odd(self, m, seed):
        r = default_order_sampler(Rng(seed), m)
        assert r.bit_length() == m
        assert r % 2 == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_order_sampler(Rng(0), 1)


class TestMonteCarlo:
    def test_deterministic_and_consistent(self):
        cfg = RunConfig(m=10, ell=10, B=4, c=10.0)
        rep1 = monte_carlo(cfg, trials=60, seed=5)
        rep2 = monte_carlo(cfg, trials=60, seed=5)
        assert dumps_report(rep1.to_dict()) == dumps_report(rep2.to_dict())
        d = rep1.to_dict()
        assert d["successes"] + sum(d["failure_counts"].values()) == d["trials"]
        assert d["rate"] == rep1.successes / rep1.trials
        assert rep1.bound == analytic_bound(cfg)

    def test_seed_changes_draws(self):
        cfg = RunConfig(m=10, ell=10, B=4, c=10.0)
        rep1 = monte_carlo(cfg, trials=40, seed=5)
        rep2 = monte_carlo(cfg, trials=40, seed=6)
        # same config, different randomness: reports differ somewhere
        assert dumps_report(rep1.to_dict()) != dumps_report(rep2.to_dict())

    def test_custom_order_sampler(self):
        cfg = RunConfig(m=8, ell=8, B=4, c=10.0)
        rep = monte_carlo(cfg, trials=25, seed=1, r_sampler=lambda rng: 210)
        assert rep.successes == 25  # 210 is smooth, every run succeeds

    def test_analytic_bound_composition(self):
        cf_cfg = RunConfig(m=16, ell=16, B=4, c=10.0)
        assert analytic_bound(cf_cfg) == float(
            single_run_success_bound(16, 16, 4, 10.0, elimination="sqrt")
        )
        en_cfg = RunConfig(m=16, ell=12, B=4, c=10.0, strategy="enumerate", delta=4)
        assert analytic_bound(en_cfg) == float(
            single_run_success_bound(16, 12, 4, 10.0, elimination="pow2ell")
        )


class TestReportSerialization:
    def test_json_shape_and_parseability(self):
        cfg = RunConfig(m=8, ell=8, B=2, c=10.0)
        rep = monte_carlo(cfg, trials=10, seed=2)
        text = dumps_report(rep.to_dict())
        parsed = json.loads(text)
        assert list(parsed) == [
            "config", "trials", "successes", "rate", "wilson99",
            "bound", "slack", "pass", "failure_counts", "exponent_bits",
        ]
        assert list(parsed["config"]) == [
            "m", "ell", "B", "c", "delta", "strategy", "recovery", "t_max", "seed",
        ]
        assert parsed["trials"] == 10

    def test_primitive_formatting(self):
        assert dumps_report(True) == "true"
        assert dumps_report(None) == "null"
        assert dumps_report(0.1) == "0.1"
        assert dumps_report([1, "a", None]) == '[1, "a", null]'
        assert dumps_report({"k": 2}) == '{"k": 2}'
        with pytest.raises(TypeError):
            dumps_report(object())

    def test_csv_layout(self):
        cfg = RunConfig(m=8, ell=8, B=2, c=10.0)
        rep = monte_carlo(cfg, trials=10, seed=2)
        text = report_to_csv(rep)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",") == [
            "m", "ell", "B", "c", "delta", "strategy", "recovery", "t_max", "seed",
            "trials", "successes", "rate", "wilson99_low", "wilson99_high",
            "bound", "slack", "pass",
            "fail_tail", "fail_no_candidate", "fail_unsmooth_d", "fail_budget",
            "exponent_bits_mean", "exponent_bits_max",
        ]
        assert len(lines[1].split(",")) == 23


class TestGoldenReports:
    """Report bytes of small seeded runs, pinned so that speed-ups of the
    lattice, recovery and sampling layers cannot change them unnoticed."""

    ENUMERATE_TREE = (
        '{"config": {"m": 32, "ell": 28, "B": 10, "c": 10, "delta": 4'
        ', "strategy": "enumerate", "recovery": "tree", "t_max": 16777216, "seed": 2024}'
        ', "trials": 300, "successes": 294, "rate": 0.98, "wilson99": [0.946549348115'
        ', 0.992678388821], "bound": 0.966927653976, "slack": 0.0309734883177, "pass": true'
        ', "failure_counts": {"tail": 0, "no_candidate": 0, "unsmooth_d": 6, "budget": 0}'
        ', "exponent_bits": {"mean": 9606.98333333, "max": 513911}}'
    )
    LATTICE_STACK = (
        '{"config": {"m": 32, "ell": 32, "B": 10, "c": 10, "delta": null'
        ', "strategy": "lattice", "recovery": "stack", "t_max": 16777216, "seed": 2024}'
        ', "trials": 300, "successes": 298, "rate": 0.993333333333'
        ', "wilson99": [0.966620057795, 0.9986973385], "bound": 0.966928369131'
        ', "slack": 0.0309731648853, "pass": true, "failure_counts": {"tail": 0'
        ', "no_candidate": 0, "unsmooth_d": 2, "budget": 0}'
        ', "exponent_bits": {"mean": 588.54, "max": 9098}}'
    )
    LATTICE_STACK_CSV = (
        "m,ell,B,c,delta,strategy,recovery,t_max,seed,trials,successes,rate"
        ",wilson99_low,wilson99_high,bound,slack,pass,fail_tail,fail_no_candidate"
        ",fail_unsmooth_d,fail_budget,exponent_bits_mean,exponent_bits_max\n"
        "32,32,10,10,,lattice,stack,16777216,2024,300,298,0.993333333333"
        ",0.966620057795,0.9986973385,0.966928369131,0.0309731648853,true,0,0,2,0"
        ",588.54,9098\n"
    )

    CF_STACK = (
        '{"config": {"m": 32, "ell": 32, "B": 10, "c": 10, "delta": null'
        ', "strategy": "cf", "recovery": "stack", "t_max": 16777216, "seed": 2024}'
        ', "trials": 300, "successes": 298, "rate": 0.993333333333'
        ', "wilson99": [0.966620057795, 0.9986973385], "bound": 0.966928369131'
        ', "slack": 0.0309731648853, "pass": true, "failure_counts": {"tail": 0'
        ', "no_candidate": 0, "unsmooth_d": 2, "budget": 0}'
        ', "exponent_bits": {"mean": 593.166666667, "max": 10517}}'
    )
    CF_STACK_CSV = (
        "m,ell,B,c,delta,strategy,recovery,t_max,seed,trials,successes,rate"
        ",wilson99_low,wilson99_high,bound,slack,pass,fail_tail,fail_no_candidate"
        ",fail_unsmooth_d,fail_budget,exponent_bits_mean,exponent_bits_max\n"
        "32,32,10,10,,cf,stack,16777216,2024,300,298,0.993333333333"
        ",0.966620057795,0.9986973385,0.966928369131,0.0309731648853,true,0,0,2,0"
        ",593.166666667,10517\n"
    )
    CF_TREE = (
        '{"config": {"m": 32, "ell": 32, "B": 10, "c": 10, "delta": null'
        ', "strategy": "cf", "recovery": "tree", "t_max": 16777216, "seed": 2024}'
        ', "trials": 300, "successes": 298, "rate": 0.993333333333'
        ', "wilson99": [0.966620057795, 0.9986973385], "bound": 0.966928369131'
        ', "slack": 0.0309731648853, "pass": true, "failure_counts": {"tail": 0'
        ', "no_candidate": 0, "unsmooth_d": 2, "budget": 0}'
        ', "exponent_bits": {"mean": 3529.34666667, "max": 24062}}'
    )
    # `orderlab sample` with the walk capped at one offset: draws 2 and 7 are tails
    SAMPLE_TAILS = (
        "z,t,j,tail\n"
        "3,0,59,false\n"
        "2,,,true\n"
        "9,0,177,false\n"
        "9,0,177,false\n"
        "0,0,0,false\n"
        "7,0,138,false\n"
        "3,,,true\n"
        "11,0,217,false\n"
        "8,0,158,false\n"
        "10,0,197,false\n"
        "3,0,59,false\n"
        "8,-1,157,false\n"
    )

    def test_cf_stack(self):
        cfg = RunConfig(m=32, ell=32, B=10, c=10.0)
        report = monte_carlo(cfg, trials=300, seed=2024)
        assert dumps_report(report.to_dict()) == self.CF_STACK
        assert report_to_csv(report) == self.CF_STACK_CSV

    def test_cf_tree(self):
        cfg = RunConfig(m=32, ell=32, B=10, c=10.0, recovery="tree")
        report = monte_carlo(cfg, trials=300, seed=2024)
        assert dumps_report(report.to_dict()) == self.CF_TREE

    def test_sample_with_tails(self, capsys):
        argv = ["sample", "--r", "13", "--m", "4", "--ell", "4",
                "--trials", "12", "--seed", "3", "--tmax", "1"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == self.SAMPLE_TAILS

    def test_enumerate_tree(self):
        cfg = RunConfig(m=32, ell=28, B=10, c=10.0, strategy="enumerate", recovery="tree", delta=4)
        report = monte_carlo(cfg, trials=300, seed=2024)
        assert dumps_report(report.to_dict()) == self.ENUMERATE_TREE

    def test_lattice_stack(self):
        cfg = RunConfig(m=32, ell=32, B=10, c=10.0, strategy="lattice", recovery="stack")
        report = monte_carlo(cfg, trials=300, seed=2024)
        assert dumps_report(report.to_dict()) == self.LATTICE_STACK
        assert report_to_csv(report) == self.LATTICE_STACK_CSV


def brute_force_orders(moduli) -> dict[tuple[int, int], int]:
    """{(N, g): the least d >= 1 with g**d == 1 mod N} for every unit g
    of every N in moduli (all below 2**15), stepping the powers of all
    units together.  A unit's power is set to 0 at its first 1, where it
    stays, and the finished units are dropped every 32 steps."""
    pairs = [(N, g) for N in moduli for g in range(1, N) if math.gcd(g, N) == 1]
    mod = np.array([N for N, _ in pairs], dtype=np.int32)
    g = np.array([g for _, g in pairs], dtype=np.int32)
    index = np.arange(len(pairs))
    y = g.copy()
    orders = np.zeros(len(pairs), dtype=np.int64)
    d = 1
    while index.size:
        done = np.flatnonzero(y == 1)
        orders[index[done]] = d
        y[done] = 0
        if d % 32 == 0:
            keep = y != 0
            index, y, g, mod = index[keep], y[keep], g[keep], mod[keep]
        y *= g
        y %= mod
        d += 1
    return dict(zip(pairs, orders.tolist()))


class TestTrueOrder:
    def test_against_brute_force(self):
        # every odd N in [5, 2**11), prime powers and their products included
        moduli = range(5, 1 << 11, 2)
        factorizations = {N: factorize(N) for N in moduli}
        for (N, g), order in brute_force_orders(moduli).items():
            assert true_order(factorizations[N], g) == order, (N, g)

    def test_minimal_on_48_bit_semiprimes(self):
        def prime_factors(n):
            out, f = set(), 2
            while f * f <= n:
                while n % f == 0:
                    out.add(f)
                    n //= f
                f += 1
            return out | ({n} if n > 1 else set())

        def prime_24_bit():
            while True:
                p = rnd.getrandbits(24) | (1 << 23) | 1
                if prime_factors(p) == {p}:
                    return p

        rnd = random.Random(48)
        for _ in range(6):
            p, q = prime_24_bit(), prime_24_bit()
            N = p * q
            g = rnd.randrange(2, N - 1)
            if p == q or math.gcd(g, N) != 1:
                continue
            r = true_order({p: 1, q: 1}, g)
            assert math.lcm(p - 1, q - 1) % r == 0
            assert pow(g, r, N) == 1
            for f in prime_factors(p - 1) | prime_factors(q - 1):
                if r % f == 0:
                    assert pow(g, r // f, N) != 1

    @staticmethod
    def order_by_factoring_lambda(N: int, g: int) -> int:
        """The least divisor d of lambda(N) with g**d == 1 mod N, with the
        divisors taken from factorize(lambda(N))."""
        divisors = [1]
        for q, e in factorize(carmichael_value(factorize(N))).items():
            divisors = [d * q ** i for d in divisors for i in range(e + 1)]
        return next(d for d in sorted(divisors) if pow(g, d, N) == 1)

    @pytest.mark.parametrize(
        "factorization",
        [{3: 2, 5: 1}, {3: 4, 5: 1, 7: 1}, {3: 3, 11: 2}, {7: 3}, {1031: 2, 1033: 1}],
    )
    def test_prime_powers(self, factorization):
        # the p**(e-1) term of lambda: each p with e >= 2 is a prime of lambda(N)
        N = math.prod(p ** e for p, e in factorization.items())
        assert factorize(N) == factorization
        assert _carmichael_primes(factorization) == set(factorize(carmichael_value(factorization)))
        rnd = random.Random(N)
        gs = range(2, N - 1) if N < 5000 else [rnd.randrange(2, N - 1) for _ in range(200)]
        for g in gs:
            if math.gcd(g, N) != 1:
                continue
            got = true_order(factorization, g)
            assert got == self.order_by_factoring_lambda(N, g), g
            if N < 5000:
                y, k = g, 1
                while y != 1:
                    y, k = y * g % N, k + 1
                assert got == k, g

    @pytest.mark.parametrize("seed", [8000, 9000])
    def test_carmichael_primes_of_the_factor_op_moduli(self, seed):
        for N in factor_op_moduli(seed):
            f = factorize(N)
            assert _carmichael_primes(f) == set(factorize(carmichael_value(f))), N

    def test_register_split(self):
        # every odd N in [7, 2**14) and a few large ones: the least ell with
        # 2**(m+ell) >= N**2 / 4 is at least 2, as RunConfig asks (the
        # docstring's proof)
        for N in (*range(7, 1 << 14, 2), 2 ** 48 - 1, 10 ** 12 + 39):
            m, ell = _register_for_modulus(N)
            assert m == N.bit_length() - 1 and ell >= 2, N
            assert 4 * 2 ** (m + ell) >= N * N > 4 * 2 ** (m + ell - 1), N


class TestFactorCompletely:
    @pytest.mark.parametrize("N", [15, 21, 105, 255])
    def test_classics(self, N):
        rep = factor_completely(N, seed=7)
        assert rep.success
        assert math.prod(p ** e for p, e in rep.factors.items()) == N
        from orderlab.factorint import is_probable_prime

        assert all(is_probable_prime(p) for p in rep.factors)
        assert list(rep.factors) == sorted(rep.factors)

    def test_prime_power_times_prime(self):
        rep = factor_completely(45, seed=3)
        assert rep.success and rep.factors == {3: 2, 5: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            factor_completely(22, seed=0)  # even
        with pytest.raises(ValueError):
            factor_completely(9, seed=0)  # perfect power
        with pytest.raises(ValueError):
            factor_completely(13, seed=0)  # prime
        with pytest.raises(ValueError):
            factor_completely(3233, seed=0, split_iterations=-1)
        with pytest.raises(ValueError):
            factor_completely(3, seed=0)
        with pytest.raises(TypeError):
            factor_completely(15, seed=0, delta=3)  # N fixes the register split
        with pytest.raises(TypeError):
            factor_completely(15, 0, 10)  # run options are keyword-only

    def test_small_semiprime_batch(self):
        import random

        rnd = random.Random(99)
        wins = 0
        for _ in range(5):
            while True:
                from orderlab.factorint import is_probable_prime

                a = rnd.getrandbits(12) | (1 << 11) | 1
                b = rnd.getrandbits(12) | (1 << 11) | 1
                if a != b and is_probable_prime(a) and is_probable_prime(b):
                    break
            rep = factor_completely(a * b, seed=rnd.getrandbits(30))
            if rep.success:
                assert rep.factors == {min(a, b): 1, max(a, b): 1}
                wins += 1
        assert wins >= 4

    @pytest.mark.parametrize("N", [15, 21, 105, 255, 3233, 14441893 * 15194519])
    def test_split_never_factors(self, N, monkeypatch):
        # the split shares primality and perfect-power verdicts with
        # factorize but never calls it: with factorize gone after the true
        # order is known, the split still finds every prime (from a g of
        # order lambda(N), which every split of N can use)
        want = factorize(N)
        lam = carmichael_value(want)
        g = next(g for g in range(2, N) if math.gcd(g, N) == 1 and true_order(want, g) == lam)

        def forbidden(*args, **kwargs):
            raise AssertionError("the split must not factor")

        monkeypatch.setattr(pipeline, "factorize", forbidden)
        monkeypatch.setattr(factorint, "factorize", forbidden)
        assert _split_with_order(N, lam, Rng(N), 32) == want

    def test_report_dict(self):
        rep = factor_completely(15, seed=7)
        d = rep.to_dict()
        assert d["N"] == 15
        assert d["factors"] == {"3": 1, "5": 1}
        assert isinstance(rep, FactorReport)

    @pytest.mark.parametrize(
        "N, seed, split_iterations, want",
        [
            (3233, 3, 32, '{"N": 3233, "success": true, "order": 52, "factors": {"53": 1'
                          ', "61": 1}, "reason": null, "seed": 3, "split_iterations": 32}'),
            (10403, 22, 32, '{"N": 10403, "success": false, "order": 392700, "factors": null'
                            ', "reason": "unsmooth_d", "seed": 22, "split_iterations": 32}'),
            (3233, 3, 0, '{"N": 3233, "success": false, "order": 52, "factors": null'
                         ', "reason": "split_incomplete", "seed": 3, "split_iterations": 0}'),
        ],
    )
    def test_golden_report(self, N, seed, split_iterations, want):
        rep = factor_completely(N, seed, split_iterations=split_iterations)
        assert dumps_report(rep.to_dict()) == want


class StubRng:
    """Stands in for the split's Rng: randrange(N - 2) + 2 draws the given
    xs in turn."""

    def __init__(self, *xs: int):
        self.xs = iter(xs)

    def randrange(self, n: int) -> int:
        return next(self.xs) - 2


def level(x: int, u: int, p: int) -> int | None:
    """The level of the unit x at the prime p: the least i with
    x**(u 2**i) = 1 mod p, or None when there is none (infinity), read
    off the order of x**u mod p, which is found by stepping through its
    powers."""
    base = pow(x, u, p)
    y, k = base, 1
    while y != 1:
        y, k = y * base % p, k + 1
    return k.bit_length() - 1 if k & (k - 1) == 0 else None


def odd_part(k: int) -> int:
    return k >> ((k & -k).bit_length() - 1)


class TestSplitLevels:
    """The split's law for one x (the _split_with_order docstring): a unit
    x groups the primes of a squarefree N by level, and completes the
    factorization with one draw exactly when its levels are pairwise
    distinct."""

    MODULI = (15, 21, 33, 35, 105, 255, 561, 1105, 1155, 15015)

    @pytest.mark.parametrize("N", MODULI)
    def test_one_x_completes_exactly_on_distinct_levels(self, N):
        want = factorize(N)
        lam = carmichael_value(want)
        orders = [lam] + [lam // q for q in factorize(lam) if q > 2]
        for order in orders:
            u = odd_part(order)
            for x in range(2, N):
                if math.gcd(x, N) != 1:
                    continue
                levels = [level(x, u, p) for p in want]
                distinct = len(set(levels)) == len(levels)
                got = _split_with_order(N, order, StubRng(x), 1)
                assert got == (want if distinct else None), (order, x, levels)
                assert got is None or list(got) == sorted(got)

    @pytest.mark.parametrize("N", MODULI)
    def test_half_the_units_separate_each_pair(self, N):
        # the paper's pairwise lemma at order lambda(N), counted through the
        # split itself: by CRT the units of N fall evenly on those of pq, and
        # the levels at p and q read x mod p and mod q alone, so the share of
        # units of N that separate p and q is that of the units of pq that
        # one draw of the split at pq completes (x = 1 separates nothing)
        lam = carmichael_value(factorize(N))
        for p, q in itertools.combinations(sorted(factorize(N)), 2):
            M = p * q
            separating = sum(
                _split_with_order(M, lam, StubRng(x), 1) is not None
                for x in range(2, M) if math.gcd(x, M) == 1
            )
            assert 2 * separating >= (p - 1) * (q - 1), (p, q, separating)

    @pytest.mark.parametrize(
        "x, want",
        [
            (3, {3: 2, 5: 1}),  # gcd 3 parts off 15, whose 5 has level 2
            (6, {3: 2, 5: 1}),  # gcd 3 parts off 15, whose 5 has level 0
            (5, {3: 2, 5: 1}),  # gcd 5 leaves 9, a power of 3
            (15, None),  # gcd 15 leaves 3 and 15; every x**(u 2**i) is 0 mod 5
        ],
    )
    def test_non_unit_x(self, x, want):
        # lambda(45) = 12, u = 3: a non-unit is split by gcd(x, N) and by
        # the levels of the primes it misses, with the same one draw
        assert _split_with_order(45, 12, StubRng(x), 1) == want
