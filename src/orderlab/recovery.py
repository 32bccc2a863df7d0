"""Recovery of the full order from a candidate divisor.

A post-processing solver hands back r~ = r/d for an unknown cofactor d.
When every prime power in d is at most c*m, the algorithms here rebuild
r from r~ using only group operations: a forward pass multiplies in the
prime powers of the smoothness bound, and the backtracking variants
then strip the surplus to land on r exactly.

Every exponentiation is optionally metered by the length of its
exponent, ceil(log2 k): the number of doublings a square-and-multiply
ladder performs for exponent k.  Each function sums the lengths of its
powers in a local and charges the total once.  Closed-form budgets for
each algorithm are provided so runs can be checked against the cost
analysis they came with; the budgets hold for every run, not just
asymptotically.
"""

from __future__ import annotations

import math
import types
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction


def primes_up_to(bound: int) -> list[int]:
    """Primes <= bound by sieve; empty for bound < 2."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, v in enumerate(sieve) if v]


@dataclass(frozen=True)
class SmoothnessContext:
    """Primes q <= c*m with their capped exponents e_q = floor(log_q(c*m)).

    smooth_exponent is the product of all q**e_q: the largest integer
    whose prime powers all stay within the smoothness bound.  split_tree
    halves the primes recursively for tree recovery: a leaf is (q,), an
    inner node (d_left, left, d_right, right), where each half's d is
    the product of the other half's full prime powers.  split_bits is
    the exponent length of the tree's 2 (|primes| - 1) split powers,
    the sum of (d_left - 1).bit_length() + (d_right - 1).bit_length()
    over its inner nodes, which tree recovery charges once per call.
    Contexts are shared between runs, so exponents is a read-only
    mapping.
    """

    c: float
    m: int
    primes: tuple[int, ...]
    exponents: Mapping[int, int]
    smooth_exponent: int
    split_tree: tuple
    split_bits: int

    @classmethod
    def build(cls, c: float, m: int) -> "SmoothnessContext":
        if c < 1 or m < 1:
            raise ValueError(f"need c >= 1 and m >= 1, got c={c}, m={m}")
        cm = Fraction(c) * m
        if cm < 2:
            raise ValueError(f"smoothness bound c*m={float(cm)} below 2")
        primes = tuple(primes_up_to(math.floor(cm)))
        exponents = {}
        smooth = 1
        for q in primes:
            e = 1
            while q ** (e + 1) <= cm:
                e += 1
            exponents[q] = e
            smooth *= q ** e
        tree = _split_tree(primes, exponents)
        return cls(
            c=c,
            m=m,
            primes=primes,
            exponents=types.MappingProxyType(exponents),
            smooth_exponent=smooth,
            split_tree=tree,
            split_bits=_split_bits(tree),
        )

    @property
    def exponent_bits(self) -> int:
        """ceil(log2(c*m)): exponent length of any prime power <= c*m."""
        cm = Fraction(self.c) * self.m
        cm_ceil = -((-cm.numerator) // cm.denominator)
        return (cm_ceil - 1).bit_length()


def _split_tree(qs: tuple[int, ...], exponents: Mapping[int, int]) -> tuple:
    if len(qs) == 1:
        return qs
    half = len(qs) // 2
    left, right = qs[:half], qs[half:]
    return (
        math.prod(q ** exponents[q] for q in right), _split_tree(left, exponents),
        math.prod(q ** exponents[q] for q in left), _split_tree(right, exponents),
    )


def _split_bits(node: tuple) -> int:
    """The exponent lengths of every split power below node."""
    if len(node) == 1:
        return 0
    d_left, left, d_right, right = node
    return (
        (d_left - 1).bit_length() + _split_bits(left)
        + (d_right - 1).bit_length() + _split_bits(right)
    )


def exponent_length(k: int) -> int:
    """ceil(log2 |k|): doublings in a square-and-multiply ladder for k.

    Zero for |k| <= 1; one less than the bit length when |k| is an
    exact power of two.
    """
    a = abs(k)
    return (a - 1).bit_length() if a > 1 else 0


@dataclass
class ExponentMeter:
    """The total exponent length, in bits, of the powers applied to the
    group: the figure the budgets below bound.  Each function here adds
    its own total once, through _charge."""

    total_bits: int = 0


def _charge(meter: ExponentMeter | None, bits: int) -> None:
    """Add a call's exponent-length total to the meter.

    The recovery loops below keep that total in a local: every exponent
    they apply is at least 1, where exponent_length(k) = (k - 1).bit_length().
    """
    if meter is not None:
        meter.total_bits += bits


def recover_multiple(
    group,
    g,
    r_tilde: int,
    ctx: SmoothnessContext,
    meter: ExponentMeter | None = None,
    trace: list[int] | None = None,
) -> int | None:
    """Forward pass only: some multiple of the order, or None.

    Multiplies r~ by full prime powers q**e_q until g to the running
    product is the identity.  The result is a multiple of the order
    whose cofactor is smooth; it is generally not the order itself.
    When trace is given, the successive values of the running product
    are appended to it, starting with r~.  The exponent lengths of the
    powers applied are charged to the meter once, at the end.
    """
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    pow_, is_identity = group.pow, group.is_identity
    r_prime = r_tilde
    if trace is not None:
        trace.append(r_prime)
    x = pow_(g, r_tilde)
    bits = (r_tilde - 1).bit_length()
    for q in ctx.primes:
        if is_identity(x):
            break
        qe = q ** ctx.exponents[q]
        x = pow_(x, qe)
        bits += (qe - 1).bit_length()
        r_prime *= qe
        if trace is not None:
            trace.append(r_prime)
    _charge(meter, bits)
    return r_prime if is_identity(x) else None


def recover_order_stack(
    group,
    g,
    r_tilde: int,
    ctx: SmoothnessContext,
    meter: ExponentMeter | None = None,
    trace: list[int] | None = None,
) -> int | None:
    """Order recovery with a backtracking stack.

    The forward pass records the group element before each prime power
    is applied; the backtracking pass replays them newest-first,
    raising each to the cofactor d found so far and then stripping the
    surplus powers of its own prime one multiplication at a time.
    Returns d * r~ = r, or None when the cofactor is not smooth.
    When trace is given, the successive values of the accumulated
    cofactor d are appended to it, starting with 1.
    """
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    pow_, is_identity = group.pow, group.is_identity
    x = pow_(g, r_tilde)
    bits = (r_tilde - 1).bit_length()
    if is_identity(x):
        _charge(meter, bits)
        return r_tilde
    stack: list[tuple[object, int, int]] = []
    for q in ctx.primes:
        e = ctx.exponents[q]
        stack.append((x, q, e))
        x = pow_(x, q ** e)
        bits += (q ** e - 1).bit_length()
        if is_identity(x):
            break
    else:
        _charge(meter, bits)
        return None
    d = 1
    if trace is not None:
        trace.append(d)
    while stack:
        x, q, e = stack.pop()
        x = pow_(x, d)
        bits += (d - 1).bit_length()
        for _ in range(e):
            if is_identity(x):
                break
            x = pow_(x, q)
            bits += (q - 1).bit_length()
            d *= q
            if trace is not None:
                trace.append(d)
    _charge(meter, bits)
    return d * r_tilde


def recover_order_tree(
    group, g, r_tilde: int, ctx: SmoothnessContext, meter: ExponentMeter | None = None
) -> int | None:
    """Order recovery by binary splitting.

    The prime set is halved recursively: each half receives the element
    raised to the other half's full prime powers, so each leaf holds an
    element whose non-identity part is a power of a single prime.  The
    leaf exponents are then read off one multiplication at a time, left
    to right; a leaf that fails to reach the identity within its cap
    means the cofactor was not smooth.

    A subtree whose element is already the identity is not entered:
    every leaf below it is the identity and needs no stripping.  The
    meter is still charged every split power of the tree, once per call
    (ctx.split_bits), so the metered totals are those of the full split
    that the budget analyses.
    """
    if not 1 <= r_tilde < (1 << ctx.m):
        return None
    pow_, is_identity = group.pow, group.is_identity
    bits = (r_tilde - 1).bit_length() + ctx.split_bits
    leaves: list[tuple[int, object]] = []
    nodes = [(pow_(g, r_tilde), ctx.split_tree)]
    while nodes:  # depth first, left child popped first
        x, node = nodes.pop()
        if is_identity(x):
            continue
        if len(node) == 1:
            leaves.append((node[0], x))
            continue
        d_left, left, d_right, right = node
        nodes.append((pow_(x, d_right), right))
        nodes.append((pow_(x, d_left), left))
    d = 1
    for q, leaf in leaves:
        cap, step = ctx.exponents[q], (q - 1).bit_length()
        for _ in range(cap):
            leaf = pow_(leaf, q)
            bits += step
            d *= q
            if is_identity(leaf):
                break
        else:
            _charge(meter, bits)
            return None
    _charge(meter, bits)
    return d * r_tilde


# Candidates per coprimality certificate in filter_candidates.  On the
# m = 128 enumerate windows, blocks of 64 ran the filter in 0.50-0.56 of
# the per-candidate gcd loop's time, 32 in 0.52-0.59 and 128 in
# 0.49-0.56; about 1% of the blocks of 64 fail their certificate.
_BLOCK = 64


def _split_smooth(G: int, smooth: int) -> tuple[int, int]:
    """G = Gs * Gb, where Gs holds every prime power of G whose prime
    divides smooth and Gb is coprime to smooth (so to Gs as well)."""
    Gs, d = 1, math.gcd(G, smooth)
    while d > 1:
        Gs *= d
        G //= d
        d = math.gcd(G, d)
    return Gs, G


def _prime_to(block: list[int], Gb: int) -> bool:
    """Whether every number of the block is prime to Gb, by one gcd of
    their product, kept below Gb."""
    P = 1
    for cand in block:
        P = P * cand % Gb
    return math.gcd(P, Gb) == 1


def filter_candidates(
    group,
    g,
    candidates,
    ctx: SmoothnessContext,
    meter: ExponentMeter | None = None,
) -> tuple[list[int], int]:
    """Keep the candidates r~ in [1, 2**m) with x**r~ = identity,
    where x = g to the full smooth exponent.

    A candidate passes exactly when the order divides r~ times a smooth
    cofactor, so every surviving candidate is worth running recovery on.
    The candidates are taken once each, in first-seen order.  Returns
    the survivors, in that order, and mu = G * smooth_exponent, a
    multiple of the order, where G is the gcd of the survivors (mu = 0
    when none survives).

    Each candidate r~ is tested through the exponent gcd(r~, G), where G
    is the gcd of the candidates accepted so far, and an acceptance sets
    G to it.  G = 0 until the first acceptance, and gcd(r~, 0) = r~, so
    until then each candidate is tested as it is; from then on the
    exponent has at most m bits.  This gives the verdicts of testing r~
    itself.  With r the order of g, x has order
    r' = r / gcd(r, smooth_exponent), and r~ passes exactly when r' | r~.
    Every accepted candidate is a multiple of r', so G is too, and
    r' | gcd(r~, G) exactly when r' | r~.  The smooth exponent need not
    ride along in the gcd: gcd(r~ * smooth_exponent, mu) is
    gcd(r~, G) * smooth_exponent, so mu is the same value that
    reducing through mu itself would reach.

    A reduction equal to a dismissed one is skipped: every dismissed d
    has r' not dividing d, so a later gcd(r~, G) = d would be rejected
    too, however far G has shrunk.

    Most gcd(r~, G) are found without a gcd against G.  The loop keeps
    G = Gs * Gb with coprime Gs and Gb, and takes the candidates in
    blocks of _BLOCK from the start of the list.  A block whose product
    P has gcd(P, Gb) = 1 is certified: it reduces each candidate through
    Gs alone.  Any other block reduces through G.  Until the first whole
    block that starts after the first acceptance, Gs = G and Gb = 1
    (G = 0 before the first acceptance), which certifies every block
    without a product.  At that block, once per call, G is split: Gs
    becomes the part of G made of the context's primes, a few bits long,
    and Gb the rest, which is prime to almost every block's product.  So
    G is never split when fewer than _BLOCK candidates follow the first
    acceptance, as in one window's 2B + 1 cf candidates.  Every
    reduction equals gcd(r~, G), so every tested exponent, verdict,
    survivor, mu and metered bit is the same, by three facts, which hold
    at G = Gs = 0, Gb = 1 too, since every number divides 0:

    - gcd(c, G) = gcd(c, Gs) * gcd(c, Gb).  A prime p dividing G divides
      exactly one of the coprime Gs and Gb, and the power of p in
      gcd(c, G) is min(v_p(c), v_p(G)), which the factor holding p
      gives while the other gives no p.
    - gcd(P, Gb) = 1 exactly when gcd(c, Gb) = 1 for every factor c of
      P: a prime divides a product exactly when it divides a factor.
      So in a certified block gcd(c, G) = gcd(c, Gs).
    - A certificate outlives a shrinking G.  An acceptance sets G to
      G' = gcd(c, G), a divisor of G, and then Gs' = gcd(G', Gs) and
      Gb' = G' / Gs' = gcd(G', Gb), a coprime split of G' again, whose
      Gs' is made of the context's primes when Gs is.  Gb' divides Gb, so a
      factor prime to Gb is prime to Gb', and the rest of the block
      needs no new product.  In a certified block G' divides Gs, so
      there Gs' = G', Gb' = 1 and reducing through G' is reducing
      through Gs'.
    """
    pow_, is_identity = group.pow, group.is_identity
    smooth = ctx.smooth_exponent
    x = pow_(g, smooth)
    bits = (smooth - 1).bit_length()
    top = 1 << ctx.m
    G = Gs = 0
    Gb = 1
    split = False
    dismissed: set[int] = set()
    survivors: list[int] = []
    cands = list(dict.fromkeys(candidates))
    for i in range(0, len(cands), _BLOCK):
        block = cands[i : i + _BLOCK]
        if G and not split and len(block) == _BLOCK:
            Gs, Gb = _split_smooth(G, smooth)
            split = True
        H = Gs if Gb == 1 or _prime_to(block, Gb) else G
        for cand in block:
            reduced = math.gcd(cand, H)
            # most reductions are a dismissed 1, so that skip comes first
            if reduced in dismissed or not 1 <= cand < top:
                continue
            bits += (reduced - 1).bit_length()
            if is_identity(pow_(x, reduced)):
                G = H = reduced
                survivors.append(cand)
                Gs = math.gcd(G, Gs)
                Gb = G // Gs
            else:
                dismissed.add(reduced)
    _charge(meter, bits)
    return survivors, G * smooth


_RECOVERY = {
    "stack": recover_order_stack,
    "tree": recover_order_tree,
}


def solve_candidate_set(
    group,
    g,
    candidates,
    ctx: SmoothnessContext,
    algorithm: str = "stack",
    meter: ExponentMeter | None = None,
) -> int | None:
    """Filter the candidates, recover from each survivor, and return the
    least recovered value, or None when no survivor recovers.

    Every successful recovery returns a positive multiple of the order,
    and the survivor r/d with smooth d recovers the order itself, so the
    minimum over successes is the order whenever any survivor is good.
    """
    recover = _RECOVERY[algorithm]
    survivors, _ = filter_candidates(group, g, candidates, ctx, meter)
    best: int | None = None
    for cand in survivors:
        got = recover(group, g, cand, ctx, meter)
        if got is not None and (best is None or got < best):
            best = got
    return best


def multiple_recovery_exponent_budget(ctx: SmoothnessContext) -> int:
    """Exponent-length budget for recover_multiple:
    m + ceil(log2 cm) * |primes|."""
    return ctx.m + ctx.exponent_bits * len(ctx.primes)


def stack_recovery_exponent_budget(ctx: SmoothnessContext) -> int:
    """Exponent-length budget for recover_order_stack:

    m for the initial power, then per prime the forward power
    (ceil(log2 cm)), the backtracking cofactor power (at most m, since
    the cofactor divides an order below 2**m), and the stripping powers
    (e_q single-prime multiplications of length ceil(log2 q) each).
    """
    return ctx.m + sum(
        ctx.exponent_bits + ctx.m + ctx.exponents[q] * exponent_length(q)
        for q in ctx.primes
    )


def tree_recovery_exponent_budget(ctx: SmoothnessContext) -> int:
    """Exponent-length budget for recover_order_tree:

    m for the initial power; each of the ceil(log2 |primes|) split
    levels applies every prime power at most once across the level; the
    leaf-stripping powers match the stack variant.
    """
    k = len(ctx.primes)
    levels = (k - 1).bit_length() if k >= 2 else 0
    return (
        ctx.m
        + levels * ctx.exponent_bits * k
        + sum(ctx.exponents[q] * exponent_length(q) for q in ctx.primes)
    )


def filter_exponent_budget(ctx: SmoothnessContext, n_candidates: int) -> int:
    """Exponent-length budget for filter_candidates: the one-off smooth
    power plus at most m per candidate tested."""
    return ctx.exponent_bits * len(ctx.primes) + n_candidates * ctx.m
