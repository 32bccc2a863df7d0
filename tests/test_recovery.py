"""Smooth-order recovery algorithms, candidate filtering, exponent metering."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from orderlab import recovery
from orderlab.bounds import carmichael_value
from orderlab.factorint import factorize
from orderlab.lattice import reduce_window, window_candidates
from orderlab.model import ModNGroup, Params, SimulatedGroup, peak
from orderlab.pipeline import true_order
from orderlab.recovery import (
    _BLOCK,
    ExponentMeter,
    SmoothnessContext,
    _split_smooth,
    exponent_length,
    filter_candidates,
    filter_exponent_budget,
    multiple_recovery_exponent_budget,
    primes_up_to,
    recover_multiple,
    recover_order_stack,
    recover_order_tree,
    solve_candidate_set,
    stack_recovery_exponent_budget,
    tree_recovery_exponent_budget,
)


class CountingGroup(SimulatedGroup):
    """A SimulatedGroup that counts the powers applied to it."""

    def __init__(self, r: int):
        super().__init__(r)
        self.powers = 0

    def pow(self, a: int, k: int) -> int:
        self.powers += 1
        return super().pow(a, k)


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]
        assert primes_up_to(4) == [2, 3]
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_million(self):
        assert len(primes_up_to(10 ** 6)) == 78498


class TestSmoothnessContext:
    def test_build_small(self):
        ctx = SmoothnessContext.build(1, 4)
        assert ctx.primes == (2, 3)
        assert ctx.exponents == {2: 2, 3: 1}
        assert ctx.smooth_exponent == 12
        assert ctx.exponent_bits == 2

    def test_exponents_read_only(self):
        ctx = SmoothnessContext.build(1, 4)
        with pytest.raises(TypeError):
            ctx.exponents[2] = 3
        assert ctx.exponents == {2: 2, 3: 1}

    def test_caps_are_tight(self):
        for c, m in ((1, 4), (2, 2), (1.5, 7), (5, 12), (10, 128)):
            ctx = SmoothnessContext.build(c, m)
            cm = c * m
            for q in ctx.primes:
                e = ctx.exponents[q]
                assert q ** e <= cm < q ** (e + 1)

    def test_exponent_bits_non_integer(self):
        # cm = 2.5: largest prime power <= 2.5 is 2, budget ceil(log2 2.5) = 2
        ctx = SmoothnessContext.build(2.5, 1)
        assert ctx.exponent_bits == 2
        assert SmoothnessContext.build(1, 4).exponent_bits == 2
        assert SmoothnessContext.build(1, 5).exponent_bits == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothnessContext.build(0.5, 4)
        with pytest.raises(ValueError):
            SmoothnessContext.build(1, 1)  # cm = 1 < 2


class TestExponentLength:
    def test_values(self):
        assert exponent_length(0) == 0
        assert exponent_length(1) == 0
        assert exponent_length(2) == 1
        assert exponent_length(3) == 2
        assert exponent_length(4) == 2
        assert exponent_length(1023) == 10
        assert exponent_length(1024) == 10
        assert exponent_length(1025) == 11
        assert exponent_length(-8) == 3

    @given(st.integers(2, 10 ** 12))
    def test_is_log_ceiling(self, k):
        e = exponent_length(k)
        assert 2 ** (e - 1) < k <= 2 ** e


class TestGoldenTraces:
    def test_multiple_recovery_trace(self):
        group = SimulatedGroup(12)
        ctx = SmoothnessContext.build(1, 4)
        meter = ExponentMeter()
        trace: list[int] = []
        got = recover_multiple(group, group.generator(), 1, ctx, meter, trace)
        assert got == 12
        assert trace == [1, 4, 12]
        assert meter.total_bits <= multiple_recovery_exponent_budget(ctx)

    def test_stack_recovery_trace(self):
        group = SimulatedGroup(12)
        ctx = SmoothnessContext.build(1, 4)
        meter = ExponentMeter()
        trace: list[int] = []
        got = recover_order_stack(group, group.generator(), 1, ctx, meter, trace)
        assert got == 12
        assert trace == [1, 3, 6, 12]
        assert meter.total_bits <= stack_recovery_exponent_budget(ctx)

    def test_unsmooth_cofactor_fails(self):
        # order 96 = 2**5 * 3 with caps from c*m = 4: 2**5 does not fit
        group = SimulatedGroup(96)
        ctx = SmoothnessContext.build(2, 2)
        assert recover_multiple(group, group.generator(), 3, ctx) is None
        assert recover_order_stack(group, group.generator(), 3, ctx) is None
        assert recover_order_tree(group, group.generator(), 3, ctx) is None

    def test_tree_single_prime_base(self):
        group = SimulatedGroup(2)
        ctx = SmoothnessContext.build(1, 2)
        assert recover_order_tree(group, group.generator(), 1, ctx) == 2

    def test_tree_cap_exceeded(self):
        # order 8 = 2**3 but caps from c*m = 4 allow only 2**2
        group = SimulatedGroup(8)
        ctx = SmoothnessContext.build(1, 4)
        assert recover_order_tree(group, group.generator(), 1, ctx) is None

    def test_exact_candidate_returns_immediately(self):
        group = CountingGroup(12)
        ctx = SmoothnessContext.build(1, 4)
        assert recover_order_stack(group, group.generator(), 12, ctx) == 12
        assert group.powers == 1  # just the initial power

    def test_out_of_range_candidates(self):
        group = SimulatedGroup(12)
        ctx = SmoothnessContext.build(1, 4)
        g = group.generator()
        assert recover_order_stack(group, g, 0, ctx) is None
        assert recover_order_stack(group, g, 1 << ctx.m, ctx) is None
        assert recover_multiple(group, g, 0, ctx) is None
        assert recover_order_tree(group, g, -3, ctx) is None


def cap_smooth(order: int, ctx: SmoothnessContext) -> bool:
    return all(
        q in ctx.exponents and e <= ctx.exponents[q]
        for q, e in factorize(order).items()
    )


class TestRecoveryRandomized:
    @given(
        st.integers(2, 4000),
        st.sampled_from([1, 1.5, 2, 5]),
        st.data(),
    )
    @settings(max_examples=250, deadline=None)
    def test_soundness_completeness_and_agreement(self, r, c, data):
        m = r.bit_length()
        ctx = SmoothnessContext.build(c, m)
        group = SimulatedGroup(r)
        g = group.generator()
        r_tilde = data.draw(st.integers(1, (1 << m) - 1))
        residual = r // math.gcd(r, r_tilde)  # order of g**r_tilde

        m_stack = ExponentMeter()
        m_tree = ExponentMeter()
        m_mult = ExponentMeter()
        got_stack = recover_order_stack(group, g, r_tilde, ctx, m_stack)
        got_tree = recover_order_tree(group, g, r_tilde, ctx, m_tree)
        got_mult = recover_multiple(group, g, r_tilde, ctx, m_mult)

        assert got_stack == got_tree
        if cap_smooth(residual, ctx):
            assert got_stack == r_tilde * residual
            assert got_mult is not None and got_mult % r == 0
            assert got_mult % r_tilde == 0
        else:
            assert got_stack is None
            assert got_mult is None

        assert m_stack.total_bits <= stack_recovery_exponent_budget(ctx)
        assert m_tree.total_bits <= tree_recovery_exponent_budget(ctx)
        assert m_mult.total_bits <= multiple_recovery_exponent_budget(ctx)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=150, deadline=None)
    def test_constructed_smooth_cofactor_recovers_exactly(self, r_tilde, data):
        ctx = SmoothnessContext.build(2, 6)  # cm = 12
        # build a cofactor within the caps, so recovery must succeed
        d = 1
        for q in ctx.primes:
            d *= q ** data.draw(st.integers(0, ctx.exponents[q]))
        r = r_tilde * d
        group = SimulatedGroup(r)
        m = max(ctx.m, r_tilde.bit_length() + (0 if r_tilde < (1 << r_tilde.bit_length()) else 1))
        # keep candidates in range by rebuilding the context on a wide m
        ctx_wide = SmoothnessContext.build(2, max(6, r_tilde.bit_length() + 1))
        got = recover_order_stack(group, group.generator(), r_tilde, ctx_wide)
        if all(
            q in ctx_wide.exponents and e <= ctx_wide.exponents[q]
            for q, e in factorize(d).items()
        ):
            assert got == r


class TestFilter:
    def test_definition(self):
        group = SimulatedGroup(20)
        ctx = SmoothnessContext.build(2, 5)  # cm = 10, covers cofactors of 20
        g = group.generator()
        candidates = list(range(-3, 40))
        survivors, mu = filter_candidates(group, g, candidates, ctx)
        x = group.pow(g, ctx.smooth_exponent)
        want = [
            cand
            for cand in candidates
            if 1 <= cand < (1 << ctx.m)
            and group.is_identity(group.pow(x, cand))
        ]
        assert survivors == want
        assert mu > 0

    def test_vacuous_when_order_is_smooth(self):
        # order 20 divides the smooth exponent, so x is the identity and
        # every in-range candidate survives
        group = SimulatedGroup(20)
        ctx = SmoothnessContext.build(2, 5)
        survivors, _ = filter_candidates(group, group.generator(), [7, 31], ctx)
        assert survivors == [7, 31]

    def test_dedup_and_state_reuse(self):
        # order 220 = 2**2 * 5 * 11 with cm = 10: x has order 11, so a
        # candidate survives exactly when 11 divides it
        group = SimulatedGroup(220)
        ctx = SmoothnessContext.build(2, 5)
        g = group.generator()
        survivors, _ = filter_candidates(group, g, [11, 11, 22, 3], ctx)
        assert survivors == [11, 22]
        # within one call, a repeated candidate and a repeated dismissed
        # reduction cost no further power: one for x, then 11, 22 and 3
        group = CountingGroup(220)
        survivors, _ = filter_candidates(group, g, [11, 3, 22, 11, 3], ctx)
        assert survivors == [11, 22]
        assert group.powers == 4

    def test_repeat_dismissed_before_the_first_acceptance(self):
        # order 143 = 11 * 13 with cm = 10: 33 is dismissed, 286 accepted,
        # and the second 33, whose reduction gcd(33, 286) = 11 was never
        # dismissed, is skipped as a repeat all the same
        ctx = SmoothnessContext.build(1, 10)
        runs = []
        for cands in ([33, 286, 33], [33, 286]):
            group, meter = CountingGroup(143), ExponentMeter()
            survivors, mu = filter_candidates(group, 1, cands, ctx, meter)
            runs.append((survivors, mu, group.powers, meter.total_bits))
        assert runs[0] == runs[1]
        assert runs[0][0] == [286] and runs[0][2:] == (3, 27)

    def test_mu_reduction_preserves_verdicts(self):
        group = SimulatedGroup(360)
        ctx = SmoothnessContext.build(3, 4)  # cm = 12
        g = group.generator()
        candidates = list(range(1, 16)) + [360 // 8, 360 // 4, 120, 90]
        # fresh state per candidate: no mu, no caches
        lone = []
        for cand in candidates:
            s, _ = filter_candidates(group, g, [cand], ctx)
            lone.extend(s)
        pooled, _ = filter_candidates(group, g, candidates, ctx)
        assert pooled == sorted(set(lone), key=candidates.index)

    def test_meter_within_budget(self):
        group = SimulatedGroup(96)
        ctx = SmoothnessContext.build(2, 7)
        g = group.generator()
        meter = ExponentMeter()
        cands = list(range(1, 100))
        filter_candidates(group, g, cands, ctx, meter)
        assert meter.total_bits <= filter_exponent_budget(ctx, len(cands))


class TestSolveCandidateSet:
    def test_min_rule_recovers_order(self):
        group = SimulatedGroup(20)
        ctx = SmoothnessContext.build(2, 5)
        g = group.generator()
        assert solve_candidate_set(group, g, [5, 10, 20], ctx) == 20
        assert filter_candidates(group, g, [5, 10, 20], ctx)[0] == [5, 10, 20]

    def test_empty_candidates(self):
        group = SimulatedGroup(20)
        ctx = SmoothnessContext.build(2, 5)
        assert solve_candidate_set(group, group.generator(), [], ctx) is None
        assert filter_candidates(group, group.generator(), [], ctx)[0] == []

    def test_junk_candidates_do_not_mislead(self):
        group = SimulatedGroup(36)
        ctx = SmoothnessContext.build(2, 6)
        g = group.generator()
        # 36 divides smooth_exponent = 27720, so every candidate survives;
        # each recovers a multiple of 36, and 9 recovers 36 itself
        assert filter_candidates(group, g, [7, 11, 9, 25], ctx)[0] == [7, 11, 9, 25]
        assert [recover_order_tree(group, g, c, ctx) for c in (7, 11, 9, 25)] == [252, 396, 36, 900]
        assert solve_candidate_set(group, g, [7, 11, 9, 25], ctx, algorithm="tree") == 36

    def test_unknown_algorithm(self):
        group = SimulatedGroup(6)
        ctx = SmoothnessContext.build(2, 3)
        with pytest.raises(KeyError):
            solve_candidate_set(group, group.generator(), [3], ctx, algorithm="other")


class TestBudgetFormulas:
    def test_small_context_values(self):
        ctx = SmoothnessContext.build(1, 4)  # primes (2, 3), bits 2
        assert multiple_recovery_exponent_budget(ctx) == 4 + 2 * 2
        assert stack_recovery_exponent_budget(ctx) == 4 + (2 + 4 + 2 * 1) + (2 + 4 + 1 * 2)
        # levels = 1 for two primes
        assert tree_recovery_exponent_budget(ctx) == 4 + 1 * 2 * 2 + (2 * 1 + 1 * 2)
        assert filter_exponent_budget(ctx, 3) == 2 * 2 + 3 * 4

    def test_single_prime_tree_has_no_split_term(self):
        ctx = SmoothnessContext.build(1, 3)  # cm = 3: primes (2, 3)? no: 2, 3
        ctx2 = SmoothnessContext.build(1, 2)  # cm = 2: single prime 2
        assert len(ctx2.primes) == 1
        assert tree_recovery_exponent_budget(ctx2) == 2 + 0 + 1 * 1
        assert len(ctx.primes) == 2


def _ref_pow(group, x, k: int, meter: ExponentMeter | None):
    if meter is not None:
        meter.total_bits += exponent_length(k)
    return group.pow(x, k)


def reference_recover_multiple(group, g, r_tilde, ctx, meter=None, trace=None):
    """recover_multiple metering every power through _ref_pow."""
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    r_prime = r_tilde
    if trace is not None:
        trace.append(r_prime)
    x = _ref_pow(group, g, r_tilde, meter)
    for q in ctx.primes:
        if group.is_identity(x):
            return r_prime
        e = ctx.exponents[q]
        x = _ref_pow(group, x, q ** e, meter)
        r_prime *= q ** e
        if trace is not None:
            trace.append(r_prime)
    if not group.is_identity(x):
        return None
    return r_prime


def reference_recover_order_stack(group, g, r_tilde, ctx, meter=None, trace=None):
    """recover_order_stack metering every power through _ref_pow."""
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    x = _ref_pow(group, g, r_tilde, meter)
    if group.is_identity(x):
        return r_tilde
    stack = []
    for q in ctx.primes:
        e = ctx.exponents[q]
        stack.append((x, q, e))
        x = _ref_pow(group, x, q ** e, meter)
        if group.is_identity(x):
            break
    if not group.is_identity(x):
        return None
    d = 1
    if trace is not None:
        trace.append(d)
    while stack:
        x, q, e = stack.pop()
        x = _ref_pow(group, x, d, meter)
        for _ in range(e):
            if group.is_identity(x):
                break
            x = _ref_pow(group, x, q, meter)
            d *= q
            if trace is not None:
                trace.append(d)
    return d * r_tilde


def reference_recover_order_tree(group, g, r_tilde, ctx, meter=None):
    """recover_order_tree with a recursive split and per-power metering."""
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    x = _ref_pow(group, g, r_tilde, meter)

    def split(x, node):
        if len(node) == 1:
            return [(node[0], x)]
        d_left, left, d_right, right = node
        return split(_ref_pow(group, x, d_left, meter), left) + split(
            _ref_pow(group, x, d_right, meter), right
        )

    d = 1
    for q, leaf in split(x, ctx.split_tree):
        cap = ctx.exponents[q]
        taken = 0
        while not group.is_identity(leaf):
            if taken == cap:
                return None
            leaf = _ref_pow(group, leaf, q, meter)
            d *= q
            taken += 1
    return d * r_tilde


def reference_filter_candidates(group, g, candidates, ctx, meter=None):
    """filter_candidates with per-power metering, in one loop: each
    candidate is reduced through the gcd G of those accepted so far
    (gcd(cand, 0) = cand before the first), and tested at most once."""
    x = _ref_pow(group, g, ctx.smooth_exponent, meter)
    G = 0
    tested, dismissed, survivors = set(), set(), []
    for cand in candidates:
        if not 1 <= cand < (1 << ctx.m) or cand in tested:
            continue
        reduced = math.gcd(cand, G)
        if reduced in dismissed:
            continue
        tested.add(cand)
        if group.is_identity(_ref_pow(group, x, reduced, meter)):
            G = reduced
            survivors.append(cand)
        else:
            dismissed.add(reduced)
    return survivors, G * ctx.smooth_exponent


def reference_filter_smooth_mu(group, g, candidates, ctx):
    """The filter that reduced each candidate through gcd(cand, mu), where
    mu carries the smooth exponent: mu = cand * smooth_exponent at the
    first acceptance, then gcd(cand * smooth_exponent, mu) at each one
    after.  Unmetered; it pins filter_candidates' survivors and mu."""
    x = group.pow(g, ctx.smooth_exponent)
    top = 1 << ctx.m
    mu = 0
    accepted, dismissed, survivors = set(), set(), []
    rest = iter(candidates)
    for cand in rest:
        if not 1 <= cand < top or cand in dismissed:
            continue
        if group.is_identity(group.pow(x, cand)):
            accepted.add(cand)
            mu = cand * ctx.smooth_exponent
            survivors.append(cand)
            break
        dismissed.add(cand)
    for cand in rest:
        if not 1 <= cand < top or cand in accepted:
            continue
        reduced = math.gcd(cand, mu)
        if reduced in dismissed:
            continue
        if group.is_identity(group.pow(x, reduced)):
            accepted.add(cand)
            mu = math.gcd(cand * ctx.smooth_exponent, mu)
            survivors.append(cand)
        else:
            dismissed.add(reduced)
    return survivors, mu


def assert_meters_like_reference(fn, reference, *args):
    """Same result and total_bits as the reference, and the same result
    with meter=None; returns the result."""
    got_meter, want_meter = ExponentMeter(), ExponentMeter()
    got = fn(*args, meter=got_meter)
    want = reference(*args, meter=want_meter)
    assert got == want
    assert got_meter.total_bits == want_meter.total_bits
    assert fn(*args) == want
    return got


def group_and_element(kind: str, data):
    """A SimulatedGroup of order below 5000 or a ModNGroup of an odd
    modulus below 20000, an element of it and its register width m."""
    if kind == "simulated":
        r = data.draw(st.integers(2, 5000))
        group = SimulatedGroup(r)
        return group, group.element(data.draw(st.integers(0, r - 1))), r.bit_length()
    N = data.draw(st.integers(2, 10_000)) * 2 + 1
    x = data.draw(st.integers(2, N - 1))
    while math.gcd(x, N) != 1:
        x += 1
    return ModNGroup(N, carmichael_value(factorize(N))), x % N, N.bit_length()


class TestMeterOracle:
    """The recovery functions keep their exponent totals in locals; each
    gives the per-power reference's result, survivors, mu and total_bits."""

    @given(st.sampled_from(["simulated", "modn"]), st.sampled_from([1, 1.5, 2, 5, 10]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_recovery_matches_reference(self, kind, c, data):
        group, g, m = group_and_element(kind, data)
        ctx = SmoothnessContext.build(c, m)
        r_tilde = data.draw(st.integers(-2, (1 << m) + 2))
        assert_meters_like_reference(
            recover_order_tree, reference_recover_order_tree, group, g, r_tilde, ctx
        )
        for fn, reference in (
            (recover_order_stack, reference_recover_order_stack),
            (recover_multiple, reference_recover_multiple),
        ):
            assert_meters_like_reference(fn, reference, group, g, r_tilde, ctx)
            trace: list[int] = []
            want: list[int] = []
            fn(group, g, r_tilde, ctx, trace=trace)
            reference(group, g, r_tilde, ctx, trace=want)
            assert trace == want

    @given(st.sampled_from(["simulated", "modn"]), st.sampled_from([1, 1.5, 2, 5, 10]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_filter_matches_reference(self, kind, c, data):
        group, g, m = group_and_element(kind, data)
        ctx = SmoothnessContext.build(c, m)
        # repeats and out-of-range values run the skip paths
        candidates = data.draw(st.lists(st.integers(-2, (1 << m) + 2), max_size=40))
        candidates += data.draw(st.lists(st.sampled_from(candidates), max_size=10)) if candidates else []
        assert_meters_like_reference(
            filter_candidates, reference_filter_candidates, group, g, candidates, ctx
        )

    @given(st.sampled_from(["simulated", "modn"]), st.sampled_from([1, 1.5, 2, 5, 10]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_filter_matches_the_smooth_mu_filter(self, kind, c, data):
        # survivors and mu, not bits: the G-reduced filter tests other
        # exponents than the one that carried the smooth exponent in mu
        group, g, m = group_and_element(kind, data)
        ctx = SmoothnessContext.build(c, m)
        order = group.r // math.gcd(group.r, g) if kind == "simulated" else true_order(factorize(group.N), g)
        multiples = st.integers(1, ((1 << m) - 1) // order).map(lambda k: k * order)
        candidates = data.draw(st.lists(
            st.one_of(st.integers(-2, (1 << m) + 2), multiples), max_size=40
        ))
        candidates += data.draw(st.lists(st.sampled_from(candidates), max_size=10)) if candidates else []
        assert filter_candidates(group, g, candidates, ctx) == reference_filter_smooth_mu(
            group, g, candidates, ctx
        )

    def test_unsmooth_early_exits(self):
        # every r_tilde of every order below 130 at c = 1: the forward
        # pass of the stack and a leaf of the tree run out of prime powers
        # on the unsmooth ones, and both outcomes occur
        outcomes = set()
        for r in range(2, 130):
            group = SimulatedGroup(r)
            ctx = SmoothnessContext.build(1, max(2, r.bit_length()))
            for r_tilde in range(1, 1 << ctx.m):
                got = assert_meters_like_reference(
                    recover_order_tree, reference_recover_order_tree, group, 1, r_tilde, ctx
                )
                assert got == assert_meters_like_reference(
                    recover_order_stack, reference_recover_order_stack, group, 1, r_tilde, ctx
                )
                outcomes.add(got is None)
        assert outcomes == {True, False}

    @staticmethod
    def assert_context_like_reference(ctx, cofactors, rng, elements=(1,)):
        """For each cofactor d, a group of order r~ d and the candidates r~,
        a random m-bit value and r~ d: filter, tree, stack and multiple
        match the references from each of the given elements."""
        for cofactor in cofactors:
            r_tilde = rng.getrandbits(100) | 1
            group = SimulatedGroup(r_tilde * cofactor)
            cands = [r_tilde, rng.getrandbits(ctx.m), r_tilde * cofactor, r_tilde]
            for g in elements:
                assert_meters_like_reference(
                    filter_candidates, reference_filter_candidates, group, g, cands, ctx
                )
                for cand in cands:
                    assert_meters_like_reference(
                        recover_order_tree, reference_recover_order_tree, group, g, cand, ctx
                    )
                    assert_meters_like_reference(
                        recover_order_stack, reference_recover_order_stack, group, g, cand, ctx
                    )
                    assert_meters_like_reference(
                        recover_multiple, reference_recover_multiple, group, g, cand, ctx
                    )

    def test_at_the_monte_carlo_context(self):
        # m = 128, c = 25 (cm = 3200): the split tree of 450 primes and
        # candidates r / d for smooth d, for the prime 3203 > cm, and for
        # 2**13 beyond the cap 2**11
        self.assert_context_like_reference(
            SmoothnessContext.build(25.0, 128),
            (1, 3, 5 * 7, 2 ** 11 * 3001, 3203, 2 ** 13),
            random.Random(14),
        )

    def test_at_the_enumerate_context(self):
        # m = 128, c = 10 (cm = 1280): candidates r / d for the smooth
        # d = 1, 3 * 5 and 2**10 * 1021 (2**10 is the cap of 2), for the
        # unsmooth 2**11 and 1283 > cm, and from g = 0, the identity,
        # where the tree's root is the identity whatever the candidate
        self.assert_context_like_reference(
            SmoothnessContext.build(10.0, 128),
            (1, 3 * 5, 2 ** 10 * 1021, 2 ** 11, 1283),
            random.Random(18),
            elements=(1, 0),
        )


class TestBlockCertificate:
    """filter_candidates' block certificate, which reduces a block of
    candidates through the context's part Gs of G once the product of the
    block is prime to the rest Gb, pinned to the per-candidate reference
    at m = 128."""

    @staticmethod
    def order(ctx: SmoothnessContext, beyond: int, with_rb: bool, rnd: random.Random) -> int:
        """An order r = r's * r'b * d of 100 to 128 bits, d | smooth_exponent,
        so that x = g**smooth has order r' = r's * r'b: r's is made of
        `beyond` context primes beyond their caps, and r'b > 1, prime to
        the context, exactly when with_rb."""
        qs = rnd.sample(ctx.primes, 30)
        r = math.prod(q ** (ctx.exponents[q] + rnd.randint(1, 2)) for q in qs[:beyond])
        if with_rb:  # at most 128 bits with the primes beyond their caps
            r_b = rnd.getrandbits(min(rnd.randint(30, 90), 128 - r.bit_length())) | 1
            while (common := math.gcd(r_b, ctx.smooth_exponent)) > 1:
                r_b //= common
            r *= r_b
        for q in qs[beyond:]:
            if r.bit_length() >= 100 or (r * q ** ctx.exponents[q]).bit_length() > 128:
                break
            r *= q ** ctx.exponents[q]
        return r

    # (primes beyond their caps, r'b > 1, k0, kinds left out, kinds kept)
    # for the cases each list shape is built to reach; "free" draws them all
    SHAPES = {
        # a prime k0 above cm divides G and some non-survivors: their
        # blocks fail the certificate and reduce through G
        "failed certificate": (None, None, "above cm", (), ("k0 multiple",)),
        # r' | Gs and Gb = k0: a survivor is accepted inside a certified block
        "certified acceptance": (st.integers(1, 3), False, "above cm", ("k0 multiple",), ("survivor",)),
        # G made of context primes alone
        "Gb = 1": (st.integers(1, 3), False, None, (), ()),
        # an accepted survivor drops the smooth k0 from G, and so from Gs,
        # before later blocks meet multiples of k0's prime
        "shrinking Gs": (None, None, "smooth", (), ("survivor", "context primes")),
        "free": (None, None, None, (), ()),
    }

    @given(
        st.sampled_from([10.0, 25.0]),
        st.sampled_from(sorted(SHAPES)),
        st.integers(0, 3),
        st.integers(-1, 1),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_at_128_bits(self, c, shape, blocks, extra, data):
        beyond, with_rb, k0, left_out, kept = self.SHAPES[shape]
        ctx = SmoothnessContext.build(c, 128)
        rnd = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
        beyond = data.draw(st.integers(0, 3) if beyond is None else beyond, label="primes beyond their caps")
        with_rb = data.draw(st.booleans(), label="r'b > 1") if with_rb is None else with_rb
        group = SimulatedGroup(self.order(ctx, beyond, with_rb, rnd))
        r_prime = group.r // math.gcd(group.r, ctx.smooth_exponent)
        top = 1 << ctx.m
        # the first survivor is r' * k0: a prime k0 above cm joins Gb, a
        # smooth one joins Gs
        if k0 is None:
            k0 = data.draw(st.sampled_from(["one", "smooth"] + ["above cm"] * (shape == "free")), label="k0")
        k0 = {
            "one": 1,
            "smooth": rnd.choice(ctx.primes[:6]) ** rnd.randint(1, 3),
            "above cm": rnd.choice([q for q in primes_up_to(1 << 14) if q > c * 128]),
        }[k0]
        if r_prime * k0 >= top:
            k0 = 1

        def multiple(k):
            return k * rnd.randrange(1, (top - 1) // k + 1)

        draws = {
            "survivor": lambda: multiple(r_prime),
            "k0 multiple": lambda: multiple(k0),
            "context primes": lambda: multiple(rnd.choice(ctx.primes[:6]) ** rnd.randint(1, 4)),
            "out of range": lambda: rnd.choice((0, -1, -r_prime, top, top + r_prime)),
            "repeat": lambda: rnd.choice(candidates),
            "random": lambda: rnd.randrange(1, top),
        }
        kinds = data.draw(st.sets(st.sampled_from(sorted(set(draws) - set(left_out)))), label="kinds")
        kinds = sorted(kinds | set(kept)) or ["random"]
        candidates: list[int] = []
        for _ in range(rnd.randint(0, 4)):  # rejected before the first survivor
            candidates.append(rnd.choice((0, -3, top, rnd.randrange(1, top))))
        candidates.append(r_prime * k0)
        # lengths just below, at and above a multiple of the block size
        for _ in range(max(0, blocks * _BLOCK + extra)):
            candidates.append(draws[rnd.choice(kinds)]())
        survivors, mu = assert_meters_like_reference(
            filter_candidates, reference_filter_candidates, group, 1, candidates, ctx
        )
        meter, want = ExponentMeter(), ExponentMeter()
        generator = (cand for cand in candidates)
        assert filter_candidates(group, 1, generator, ctx, meter) == (survivors, mu)
        reference_filter_candidates(group, 1, candidates, ctx, want)
        assert meter.total_bits == want.total_bits

    @given(st.lists(st.integers(0, 12), min_size=4, max_size=4), st.integers(1, 1 << 40))
    @settings(max_examples=50, deadline=None)
    def test_split_takes_every_context_prime(self, powers, rest):
        # every power of 2, 3, 5 and 1279 <= cm = 1280 goes to Gs, however
        # far beyond its cap, so that Gb is prime to the context
        smooth = SmoothnessContext.build(10.0, 128).smooth_exponent
        G = math.prod(q ** e for q, e in zip((2, 3, 5, 1279), powers)) * rest
        Gs, Gb = _split_smooth(G, smooth)
        assert Gs * Gb == G
        assert math.gcd(Gb, smooth) == 1
        assert max(factorize(Gs), default=1) <= 1280

    def test_peak_windows_of_the_benchmark_geometry(self):
        # 20 enumerate windows, m = 128, ell = 120, B = 10, each centred on
        # a peak of a random 128-bit order, as the pipeline makes them
        ctx = SmoothnessContext.build(10.0, 128)
        rng = random.Random(29)
        for _ in range(20):
            r = rng.getrandbits(128) | (1 << 127) | 1
            p = Params(r=r, m=128, ell=120, B=10)
            j = peak(rng.randrange(r), p).j0 % p.two_n
            candidates = window_candidates(p, reduce_window(j, 10, p))
            counts = []
            for filt in (filter_candidates, reference_filter_candidates):
                group = CountingGroup(r)
                meter = ExponentMeter()
                counts.append((filt(group, 1, candidates, ctx, meter), meter.total_bits, group.powers))
            assert counts[0] == counts[1]
            assert counts[0][0][0]  # the peak's candidates hold a survivor

    @pytest.mark.parametrize("first", [0, 1, 62, 63, 64, 65, 127, 128])
    @pytest.mark.parametrize("after", [0, 1, 63, 64, 65, 130, 200])
    def test_first_survivor_at_each_block_position(self, first, after, monkeypatch):
        # blocks start at the list's start, so the first acceptance may
        # fall anywhere in a block; G is split at the first whole block
        # after it, once, and never with fewer than _BLOCK candidates after it
        ctx = SmoothnessContext.build(10.0, 128)
        rnd = random.Random(first * 1000 + after)
        group = SimulatedGroup(self.order(ctx, 1, True, rnd))
        r_prime = group.r // math.gcd(group.r, ctx.smooth_exponent)
        top = 1 << ctx.m
        before: list[int] = []  # out of range or dismissed, with repeats
        while len(dict.fromkeys(before)) < first:
            before.append(rnd.choice((
                -rnd.randrange(top), top + rnd.randrange(top), 0, rnd.randrange(1, top),
                *before[-3:],
            )))
        tail = [rnd.choice((r_prime * rnd.randrange(1, top // r_prime), rnd.randrange(1, top),
                            -rnd.randrange(1, top)))
                for _ in range(after)]
        candidates = before + [r_prime * rnd.randrange(1, top // r_prime)] + tail
        distinct = list(dict.fromkeys(candidates))
        assert distinct.index(candidates[len(before)]) == first
        splits = []

        def spy(G, smooth):
            splits.append(G)
            return _split_smooth(G, smooth)

        monkeypatch.setattr(recovery, "_split_smooth", spy)
        survivors, _ = assert_meters_like_reference(
            filter_candidates, reference_filter_candidates, group, 1, candidates, ctx
        )
        assert survivors[0] == candidates[len(before)]
        splits.clear()
        filter_candidates(group, 1, candidates, ctx)
        next_block = (first // _BLOCK + 1) * _BLOCK
        assert len(splits) == (next_block + _BLOCK <= len(distinct))
        if len(distinct) - first - 1 < _BLOCK:
            assert not splits

    @pytest.mark.parametrize("length", [2 * _BLOCK, 2 * _BLOCK + 1, 3 * _BLOCK + 7])
    def test_blocks_without_a_survivor(self, length, monkeypatch):
        ctx = SmoothnessContext.build(10.0, 128)
        rnd = random.Random(length)
        group = SimulatedGroup(self.order(ctx, 2, True, rnd))
        top = 1 << ctx.m
        candidates = [rnd.choice((rnd.randrange(1, top), top + rnd.randrange(top), -rnd.randrange(top)))
                      for _ in range(length)]
        assert len(set(candidates)) == length
        splits = []
        monkeypatch.setattr(recovery, "_split_smooth", lambda *args: splits.append(args))
        survivors, mu = assert_meters_like_reference(
            filter_candidates, reference_filter_candidates, group, 1, candidates, ctx
        )
        assert (survivors, mu) == ([], 0)
        assert not splits


class TestTreePruning:
    """recover_order_tree enters no subtree whose element is the identity,
    while its meter still charges the whole split."""

    ctx = SmoothnessContext.build(10.0, 128)

    def test_split_charge_is_the_full_tree(self):
        def inner(node):
            if len(node) == 1:
                return 0, 0
            d_left, left, d_right, right = node
            (lb, lp), (rb, rp) = inner(left), inner(right)
            return exponent_length(d_left) + exponent_length(d_right) + lb + rb, 2 + lp + rp

        for c, m in ((1, 2), (1, 4), (2, 5), (10, 128), (25, 128)):
            ctx = SmoothnessContext.build(c, m)
            assert (ctx.split_bits, 2 * (len(ctx.primes) - 1)) == inner(ctx.split_tree)

    def test_exact_candidate_makes_one_power(self):
        r = random.Random(1).getrandbits(127) | (1 << 127) | 1
        group = CountingGroup(r)
        meter = ExponentMeter()
        assert recover_order_tree(group, 1, r, self.ctx, meter) == r
        assert group.powers == 1
        assert meter.total_bits == (r - 1).bit_length() + self.ctx.split_bits

    def test_two_prime_cofactor_visits_two_paths(self):
        # d = 3 * 5: at most two elements per level differ from the
        # identity, two powers each, then one strip for each prime
        levels = (len(self.ctx.primes) - 1).bit_length()
        r_tilde = random.Random(2).getrandbits(100) | 1
        group = CountingGroup(r_tilde * 15)
        assert recover_order_tree(group, 1, r_tilde, self.ctx) == r_tilde * 15
        assert group.powers <= 2 * 2 * levels + 1 + 2
