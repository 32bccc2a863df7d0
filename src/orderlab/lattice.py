"""Two-dimensional lattice post-processing of a measured frequency.

For frequency j the lattice is spanned by (j, 1/2) and (2**n, 0); when
j is the optimal frequency of peak z, the vector (alpha0(z)/d, r~/2)
with r~ = r/gcd(r, z) is unusually short, so the order candidate drops
out of a reduced basis (or a short enumeration around it).

Vectors carry half-integer second coordinates, so they are stored with
the second coordinate doubled: Vec(x, y2) means the point (x, y2/2).
Squared norms are then (4 x^2 + y2^2)/4, and all comparisons below use
the integer quantity norm4 = 4 x^2 + y2^2.  Everything is exact.

A window j-B..j+B shares most of its reduction (reduce_window).  Every
vector met is a (o, 1) + b (2**n, 0), and Lagrange's steps act on the
multiples (a, b) alone, so on a run of offsets o = lo + u, u = 0..w,
with the same multiples, a vector is (x + a u, a): x its first
coordinate at lo, affine in u with slope a, and y2 = a constant.  A step
on (s1, s2) takes t = floor((2 num + den) / (2 den)), num = dot4(s1, s2),
den = norm4(s1) > 0, and swaps when norm4(s2 - t s1) < norm4(s1).  So
offset lo + u takes the same t exactly when

    P(u) = 2 num + (1 - 2t) den >= 0  and  Q(u) = (1 + 2t) den - 2 num - 1 >= 0,

and the same swap decision exactly when D(u) = norm4(s1) - norm4(s2 - t s1)
has the sign of D(0): D - 1 >= 0 or -D >= 0.  P, Q and D are quadratics
in u whose integer coefficients come from the values at lo and the
slopes a_i.  A quadratic c0 + c1 u + c2 u**2 is >= 0 at every integer of
[0, w] if the cheap bound c0 + min(0, c1 w) + min(0, c2) w**2 is >= 0;
otherwise exactly if it is >= 0 at u = 0, at u = w and, when c2 > 0 and
the vertex -c1 / (2 c2) lies in (0, w), at the two integers around the
vertex: a convex quadratic is smallest over the integers next to its
vertex, a concave or linear one at an end.  When the certificates of a
step hold, every offset of the run takes that step, the multiples stay
shared, and the induction goes on.  At the first step they do not
prove, each offset finishes alone from the shared pair, which is where
lagrange_reduce would be at that step (after a proven t, its next
rounding is 0).  So reduce_window returns lagrange_reduce of every
offset, step for step.

The enumeration counts each row m2 of w = m1 s1 + m2 s2 in closed form:
with A = norm4(s1) the Gram determinant 2**(2n+2) gives
A norm4(w) = (A m1 + m2 dot4(s1, s2))**2 + 2**(2n+2) m2**2, so a row
meets the circle in one interval of m1, clipped by the half plane and
the coordinate box.  Candidates need no deduplication: two box vectors
with the same w_2 would differ by a nonzero multiple of (2**n, 0),
longer than the box is wide (2**m, and n >= m + 1).

Rows m2 and -m2 are mirror images under w -> -w, which maps
(m1, m2) to (-m1, -m2).  The discriminant depends on m2**2 only, so
row -m2's interval inside the circle is the negation of row m2's; the
box |w_1| < 2**(m-1) is symmetric; and row -m2's half plane w_2 >= 0
and box 0 < w_2 < 2**(m-1) are row m2's w_2 <= 0 and
-2**(m-1) < w_2 < 0.  So each pair of rows takes one square root and
one set of clips: row -m2's candidates are -w_2 over row m2's
w_2 <= -1 part, read with m1 descending.  A lattice vector with
w_2 = 0 is a multiple of (2**n, 0), and only 0 is inside the circle,
so for m2 != 0 the two rows visit row m2's interval exactly once
between them.  Likewise (s1)_2 != 0, since the reduced s1 is shorter
than (2**n, 0): every row's candidates step by (s1)_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import bounds
from .model import Params, window_runs


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
    s_i = multiples[i][0] * b1 + multiples[i][1] * b2.
    """

    s1: Vec
    s2: Vec
    multiples: Multiples


def _round_ratio(num: int, den: int) -> int:
    """round(num/den) for den > 0, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def _lagrange(x1: int, a1: int, b1: int, x2: int, a2: int, b2: int) -> ReducedBasis:
    """Lagrange's loop from s1 = (x1, a1), s2 = (x2, a2), where
    s_i = a_i (o, 1) + b_i (2**n, 0): a vector's doubled second coordinate
    is its a_i."""
    n1 = 4 * x1 * x1 + a1 * a1
    n2 = 4 * x2 * x2 + a2 * a2
    while True:
        t = _round_ratio(4 * x2 * x1 + a2 * a1, n1)
        if t:
            x2 -= t * x1
            a2 -= t * a1
            b2 -= t * b1
            n2 = 4 * x2 * x2 + a2 * a2
        if n2 < n1:
            x1, a1, b1, n1, x2, a2, b2, n2 = x2, a2, b2, n2, x1, a1, b1, n1
        else:
            break
    return ReducedBasis(s1=Vec(x1, a1), s2=Vec(x2, a2), multiples=((a1, b1), (a2, b2)))


def lagrange_reduce(j: int, params: Params) -> ReducedBasis:
    """Gauss/Lagrange reduction of the frequency lattice for j.

    Exact arithmetic on bare ints, from the basis with multiples (1, 0)
    and (0, 1).  The start needs no swap: with o = j mod 2**n,
    norm4((o, 1)) = 4 o**2 + 1 < 4 * 2**(2n) = norm4((2**n, 0)).
    """
    (x1, a1), (x2, a2) = basis_for(j, params)
    return _lagrange(x1, a1, 0, x2, a2, 1)


def _nonneg(c0: int, c1: int, c2: int, w: int, ww: int) -> bool:
    """Whether c0 + c1 u + c2 u**2 >= 0 at every integer u in [0, w], ww = w*w."""
    if c0 + min(0, c1 * w) + min(0, c2 * ww) >= 0:
        return True
    if c0 < 0 or c0 + c1 * w + c2 * ww < 0:
        return False
    if c2 > 0 and 0 < -c1 < 2 * c2 * w:
        u = -c1 // (2 * c2)  # the vertex lies in (u, u + 1], both in [0, w]
        return c0 + c1 * u + c2 * u * u >= 0 and c0 + c1 * (u + 1) + c2 * (u + 1) ** 2 >= 0
    return True


def _reduce_run(lo: int, w: int, N: int) -> list[ReducedBasis]:
    """lagrange_reduce of each offset lo..lo + w (all in [0, N)), sharing
    every step that a certificate proves the same for all of them."""
    x1, a1, b1, x2, a2, b2 = lo, 1, 0, N, 0, 1
    if w:
        ww = w * w
        # coefficients in u of norm4(s1) (d), dot4(s1, s2) (m), P and
        # norm4(s2 - t s1) (e); Q = 2 d - P - 1 and D = d - e
        d0, d1, d2 = 4 * lo * lo + 1, 8 * lo, 4
        while True:
            m0, m1, m2 = 4 * x1 * x2 + a1 * a2, 4 * (x1 * a2 + x2 * a1), 4 * a1 * a2
            t, p0 = divmod(2 * m0 + d0, 2 * d0)  # t and P(0) at lo
            p1, p2 = 2 * m1 + (1 - 2 * t) * d1, 2 * m2 + (1 - 2 * t) * d2
            if not (
                _nonneg(p0, p1, p2, w, ww)
                and _nonneg(2 * d0 - 1 - p0, 2 * d1 - p1, 2 * d2 - p2, w, ww)
            ):
                break
            if t:
                x2 -= t * x1
                a2 -= t * a1
                b2 -= t * b1
            e0, e1, e2 = 4 * x2 * x2 + a2 * a2, 8 * x2 * a2, 4 * a2 * a2
            if e0 >= d0:
                if not _nonneg(e0 - d0, e1 - d1, e2 - d2, w, ww):
                    break
                return [
                    ReducedBasis(
                        s1=Vec(x1 + a1 * u, a1),
                        s2=Vec(x2 + a2 * u, a2),
                        multiples=((a1, b1), (a2, b2)),
                    )
                    for u in range(w + 1)
                ]
            if not _nonneg(d0 - e0 - 1, d1 - e1, d2 - e2, w, ww):
                break
            x1, a1, b1, d0, d1, d2, x2, a2, b2 = x2, a2, b2, e0, e1, e2, x1, a1, b1
    return [_lagrange(x1 + a1 * u, a1, b1, x2 + a2 * u, a2, b2) for u in range(w + 1)]


def reduce_window(j: int, B: int, params: Params) -> list[ReducedBasis]:
    """lagrange_reduce of each offset (j + k) mod 2**n, k = -B..B, in offset order.

    A window that wraps past 0 or 2**n is split where it wraps, into
    runs lo..hi of consecutive offsets (model.window_runs).  Each run
    shares the Lagrange steps that the certificates of the module
    docstring prove, and its offsets finish alone from the first step
    they cannot prove.
    """
    N = params.two_n
    return [rb for lo, w in window_runs(j, B, N) for rb in _reduce_run(lo, w, N)]


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

    candidates are distinct, in order of (m2, m1); visited counts the
    vectors w = m1 s1 + m2 s2 inside the circle with w_2 >= 0.
    case 1 means the single reduced vector already decided the answer.
    """

    candidates: list[int]
    visited: int
    case: int
    budget: int


def _clip(lo: int, hi: int, a: int, b: int, low: int, high: int) -> tuple[int, int]:
    """The part of [lo, hi] where low <= a * m1 + b <= high (maybe empty)."""
    if a > 0:
        l, h = -((b - low) // a), (high - b) // a
    elif a < 0:
        l, h = -((high - b) // -a), (b - low) // -a
    else:
        return (lo, hi) if low <= b <= high else (lo, lo - 1)
    return (l if l > lo else lo), (h if h < hi else hi)


def enumerate_candidates(j: int, params: Params, rb: ReducedBasis) -> EnumerationResult:
    """All order candidates 2 w_2 from lattice vectors with |w| < 2**(m-1/2),
    given rb, the reduced basis of j (lagrange_reduce or reduce_window).

    If the reduced basis certifies that only multiples of s1 can be that
    short (case 1), the single candidate 2 |(s1)_2| is returned without
    enumeration.  Otherwise vectors w = m1 s1 + m2 s2 inside the circle
    are enumerated, restricted to the top semicircle (w_2 >= 0) and to
    the coordinate box |w_1| < 2**(m-1), 0 < w_2 < 2**(m-1) that any
    true order vector satisfies.  The number of vectors visited is
    hard-checked against the budget ceil(6 sqrt(3) 2**delta), delta = m - ell.

    Each row m2 is counted, not walked.  With A = norm4(s1) and
    c = -m2 dot4(s1, s2), the Gram determinant gives
        A norm4(w) = (A m1 - c)**2 + 2**(2n+2) m2**2,
    so the row's vectors inside the circle are exactly the m1 in
    [ceil((c - s)/A), floor((c + s)/A)], s the largest integer with
    s**2 < disc = A 2**(2m+1) - 2**(2n+2) m2**2.  The half plane and the
    box are linear in m1 and clip that interval, and the candidates of a
    row form an arithmetic progression with step (s1)_2.  They never
    repeat: two box vectors with equal w_2 differ by a multiple of
    (2**n, 0), yet their first coordinates differ by less than
    2**m <= 2**(n-1).  Rows m2 and -m2 are solved together, as the
    mirror argument of the module docstring allows, and the budget is
    checked once, on the total: the count only grows, so a row-by-row
    check raises exactly when the total exceeds the budget.
    """
    m = params.m
    budget = bounds.enumeration_budget(max(0, m - params.ell))
    (x1, y1), (x2, y2) = rb.s1, rb.s2
    A = norm4(rb.s1)

    # case 1: lambda2_perp >= 2**(m - 1/2), i.e. 2**(2n) / A >= 2**(2m-1)
    if 1 << (2 * params.n) >= A << (2 * m - 1):
        return EnumerationResult(
            candidates=[abs(y1)],
            visited=1,
            case=1,
            budget=budget,
        )

    Bc = dot4(rb.s1, rb.s2)
    AR4 = A << (2 * m + 1)  # A R4, where norm4(w) < R4  <=>  |w| < 2**(m - 1/2)
    x_cap = 1 << m          # |w_1| < 2**(m-1)  <=>  2|w.x| < 2**m
    det_shift = 2 * params.n + 2  # A norm4(s2) - Bc**2 = 2**(2n+2)
    # outer range: m2^2 * 2**(2n) < 2**(2m-1) * A  (lambda2_perp bound), so
    # every row up to m2_max has disc = A R4 - 2**(2n+2) m2**2 > 0
    m2_max = math.isqrt(((A << (2 * m - 1)) - 1) >> (2 * params.n))
    candidates: list[int] = []
    rows: list[tuple[int, int, int]] = []  # rows m2 = m2_max..1 as (lo, hi, yc)
    visited = 0
    for m2 in range(m2_max, 0, -1):
        s = math.isqrt(AR4 - ((m2 * m2) << det_shift) - 1)  # s**2 < disc
        c = -Bc * m2
        lo, hi = -((s - c) // A), (c + s) // A
        if lo > hi:
            continue
        # rows m2 and -m2 split [lo, hi]: neither has a vector with w_2 = 0,
        # and inside the circle w_2**2 < R4, so nothing bounds w_2 above
        visited += hi - lo + 1
        lo, hi = _clip(lo, hi, 2 * x1, 2 * m2 * x2, 1 - x_cap, x_cap - 1)
        if lo > hi:
            continue
        yc = m2 * y2  # w_2 = y1 m1 + yc, doubled
        # row -m2: -w_2 over w_2 in [1 - x_cap, -1], m1 descending; a clip
        # left empty (lo > hi) gives an empty range
        nlo, nhi = _clip(lo, hi, y1, yc, 1 - x_cap, -1)
        candidates.extend(range(-(y1 * nhi + yc), -(y1 * (nlo - 1) + yc), y1))
        rows.append((*_clip(lo, hi, y1, yc, 1, x_cap - 1), yc))
    # row 0 is its own mirror image: m1 s1 for |m1| <= k, w_2 >= 0 on one side
    k = math.isqrt(AR4 - 1) // A
    visited += k + 1
    if visited > budget:
        raise EnumerationBudgetExceeded(
            f"enumeration for j={j} exceeded {budget} vectors"
        )
    lo, hi = _clip(-k, k, y1, 0, 1, x_cap - 1)
    lo, hi = _clip(lo, hi, 2 * x1, 0, 1 - x_cap, x_cap - 1)
    candidates.extend(range(y1 * lo, y1 * (hi + 1), y1))
    for lo, hi, yc in reversed(rows):
        candidates.extend(range(y1 * lo + yc, y1 * (hi + 1) + yc, y1))
    return EnumerationResult(
        candidates=candidates, visited=visited, case=2, budget=budget
    )
