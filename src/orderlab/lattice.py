"""Two-dimensional lattice post-processing of a measured frequency.

For frequency j the lattice is spanned by (j, 1/2) and (2**n, 0); when
j is the optimal frequency of peak z, the vector (alpha0(z)/d, r~/2)
with r~ = r/gcd(r, z) is unusually short, so the order candidate drops
out of a reduced basis (or a short enumeration around it).

Vectors carry half-integer second coordinates, so they are stored with
the second coordinate doubled: Vec(x, y2) means the point (x, y2/2).
Squared norms are then (4 x^2 + y2^2)/4, and all comparisons below use
the integer quantity norm4 = 4 x^2 + y2^2.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import Params


class EnumerationBudgetExceeded(RuntimeError):
    """The enumeration visited more vectors than the analysis allows."""


class Vec(NamedTuple):
    x: int
    y2: int  # doubled second coordinate


def norm4(v: Vec) -> int:
    """4 |v|^2, an exact integer."""
    return 4 * v.x * v.x + v.y2 * v.y2


def dot4(a: Vec, b: Vec) -> int:
    """4 <a, b>, an exact integer."""
    return 4 * a.x * b.x + a.y2 * b.y2


def basis_for(j: int, params: Params) -> tuple[Vec, Vec]:
    N = params.two_n
    return Vec(j % N, 1), Vec(N, 0)


Multiples = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class ReducedBasis:
    """Lagrange-reduced basis with its expression in the original basis.

    s1 is the shorter vector; multiples has determinant +-1 and satisfies
    s_i = multiples[i][0] * b1 + multiples[i][1] * b2.  swap_steps counts
    the swaps the reduction performed (instrumentation for warm starts).
    """

    s1: Vec
    s2: Vec
    multiples: Multiples
    swap_steps: int


def _round_ratio(num: int, den: int) -> int:
    """round(num/den) for den > 0, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def lagrange_reduce(j: int, params: Params, seed: Multiples | None = None) -> ReducedBasis:
    """Gauss/Lagrange reduction of the frequency lattice for j.

    With seed given, reduction starts from the seeded combination of the
    basis vectors instead of the basis itself; the result is expressed
    in the original (unseeded) basis either way.  Exact arithmetic.
    """
    b1, b2 = basis_for(j, params)
    if seed is None:
        u1, u2 = (1, 0), (0, 1)
    else:
        u1, u2 = seed
        if u1[0] * u2[1] - u1[1] * u2[0] not in (-1, 1):
            raise ValueError(f"seed multiples are not unimodular: {seed}")
    v1 = Vec(u1[0] * b1.x + u1[1] * b2.x, u1[0] * b1.y2 + u1[1] * b2.y2)
    v2 = Vec(u2[0] * b1.x + u2[1] * b2.x, u2[0] * b1.y2 + u2[1] * b2.y2)
    steps = 0
    if norm4(v1) > norm4(v2):
        v1, v2, u1, u2 = v2, v1, u2, u1
        steps += 1
    while True:
        t = _round_ratio(dot4(v2, v1), norm4(v1))
        if t:
            v2 = Vec(v2.x - t * v1.x, v2.y2 - t * v1.y2)
            u2 = (u2[0] - t * u1[0], u2[1] - t * u1[1])
        if norm4(v2) < norm4(v1):
            v1, v2, u1, u2 = v2, v1, u2, u1
            steps += 1
        else:
            break
    return ReducedBasis(s1=v1, s2=v2, multiples=(u1, u2), swap_steps=steps)


def solve_shortest(j: int, params: Params) -> int:
    """Order candidate from the shortest reduced vector: 2 |(s1)_2|.

    The frequency lattice never has a shortest vector on the x axis
    (those vectors are multiples of (2**n, 0), far above the reduction
    bound), so the candidate is a positive integer; j = 0 degenerates
    to candidate 1.
    """
    rb = lagrange_reduce(j, params)
    cand = abs(rb.s1.y2)
    assert cand != 0, "shortest vector on the x axis cannot happen for this lattice"
    return cand


@dataclass(frozen=True)
class EnumerationResult:
    """Candidates from enumerating short vectors around a reduced basis.

    candidates keeps first-seen order, deduplicated; visited counts the
    vectors w = m1 s1 + m2 s2 tried inside the circle.
    case 1 means the single reduced vector already decided the answer.
    """

    candidates: list[int]
    visited: int
    case: int
    budget: int


def enumerate_candidates(j: int, params: Params, delta: int | None = None) -> EnumerationResult:
    """All order candidates 2 w_2 from lattice vectors with |w| < 2**(m-1/2).

    If the reduced basis certifies that only multiples of s1 can be that
    short (case 1), the single candidate 2 |(s1)_2| is returned without
    enumeration.  Otherwise vectors w = m1 s1 + m2 s2 inside the circle
    are enumerated, restricted to the top semicircle (w_2 >= 0) and to
    the coordinate box |w_1| < 2**(m-1), 0 <= w_2 < 2**(m-1) that any
    true order vector satisfies.  The number of vectors visited is
    hard-checked against the budget ceil(6 sqrt(3) 2**delta).
    """
    from .bounds import enumeration_budget

    m = params.m
    if delta is None:
        delta = params.delta if params.delta is not None else max(0, m - params.ell)
    budget = enumeration_budget(max(0, delta))
    rb = lagrange_reduce(j, params)
    A = norm4(rb.s1)

    # case 1: lambda2_perp >= 2**(m - 1/2), i.e. 2**(2n) / A >= 2**(2m-1)
    if 1 << (2 * params.n) >= A << (2 * m - 1):
        return EnumerationResult(
            candidates=[abs(rb.s1.y2)],
            visited=1,
            case=1,
            budget=budget,
        )

    Bc = dot4(rb.s1, rb.s2)
    R4 = 1 << (2 * m + 1)  # norm4(w) < R4  <=>  |w| < 2**(m - 1/2)
    x_cap = 1 << m         # |w_1| < 2**(m-1)  <=>  2|w.x| < 2**m
    # outer range: m2^2 * 2**(2n) < 2**(2m-1) * A  (lambda2_perp bound)
    m2_max = math.isqrt(((A << (2 * m - 1)) - 1) >> (2 * params.n))
    candidates: list[int] = []
    seen: set[int] = set()
    visited = 0
    for m2 in range(-m2_max, m2_max + 1):
        c = -Bc * m2
        disc = A * R4 - ((m2 * m2) << (2 * params.n + 2))
        if disc < 0:
            continue
        s = math.isqrt(disc)
        lo = (c - s) // A - 1
        hi = (c + s) // A + 1
        for m1 in range(lo, hi + 1):
            w = Vec(
                m1 * rb.s1.x + m2 * rb.s2.x,
                m1 * rb.s1.y2 + m2 * rb.s2.y2,
            )
            if w.y2 < 0:
                continue  # top semicircle only; mirrors carry the same candidate
            if norm4(w) >= R4:
                continue  # boundary probe from the padded integer range
            visited += 1
            if visited > budget:
                raise EnumerationBudgetExceeded(
                    f"enumeration for j={j} exceeded {budget} vectors"
                )
            if w.y2 == 0 or w.y2 >= x_cap or 2 * abs(w.x) >= x_cap:
                continue
            if w.y2 not in seen:
                seen.add(w.y2)
                candidates.append(w.y2)
    return EnumerationResult(
        candidates=candidates, visited=visited, case=2, budget=budget
    )


def reduce_offset_range(j: int, B: int, params: Params) -> list[ReducedBasis]:
    """Reduced bases for frequencies j-B .. j+B, warm-started from neighbors.

    The reduced multiples of each frequency seed the reduction of the
    next one over; reduced bases of adjacent frequencies differ little,
    so the chained reductions do less work than 2B+1 cold starts while
    producing bases of the same lattices with the same norms.
    """
    if B < 0:
        raise ValueError(f"B must be >= 0, got {B}")
    N = params.two_n
    center = lagrange_reduce(j % N, params)
    up: list[ReducedBasis] = []
    prev = center
    for k in range(1, B + 1):
        prev = lagrange_reduce((j + k) % N, params, seed=prev.multiples)
        up.append(prev)
    down: list[ReducedBasis] = []
    prev = center
    for k in range(1, B + 1):
        prev = lagrange_reduce((j - k) % N, params, seed=prev.multiples)
        down.append(prev)
    return list(reversed(down)) + [center] + up


def structured_filter_precompute(group, x, rb: ReducedBasis):
    """Group elements x^(2 (s1)_2), x^(2 (s2)_2) for the reduced basis.

    Any enumerated vector w = m1 s1 + m2 s2 then has
        x^(2 w_2) = x1^m1 * x2^m2,
    so candidate identity tests cost two small powers instead of one
    full-width one.
    """
    return group.pow(x, rb.s1.y2), group.pow(x, rb.s2.y2)


def structured_power(group, x1, x2, m1: int, m2: int):
    """x^(2 w_2) for w = m1 s1 + m2 s2, from the precomputed pair."""
    return group.mul(group.pow(x1, m1), group.pow(x2, m2))
