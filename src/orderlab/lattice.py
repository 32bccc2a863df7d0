"""Two-dimensional lattice post-processing of a measured frequency.

For frequency j the lattice is spanned by (j, 1/2) and (2**n, 0); when
j is the optimal frequency of peak z, the vector (alpha0(z)/d, r~/2)
with r~ = r/gcd(r, z) is unusually short, so the order candidate drops
out of a reduced basis (or a short enumeration around it).

Vectors carry half-integer second coordinates, so they are stored with
the second coordinate doubled: Vec(x, y2) means the point (x, y2/2).
Squared norms are then (4 x^2 + y2^2)/4, and all comparisons below use
the integer quantity norm4 = 4 x^2 + y2^2.  Everything is exact.

A window j-B..j+B is reduced offset by offset (reduce_window).  Every
lattice vector is a (o, 1) + b (2**n, 0), and the same (a, b) at offset
o + 1 give a (o + 1, 1) + b (2**n, 0): the shear (x, y2) -> (x + y2, y2)
maps a basis of offset o's lattice onto one of offset o + 1's.  So the
first offset is reduced from (o, 1), (2**n, 0), and each later one from
its left neighbour's reduced basis, sheared by one.  The lattice of o
depends only on o mod 2**n, so a window that wraps past 0 or 2**n needs
no split.

Both starts end in the same basis, because the reduced basis is unique
once its signs are fixed.  Under norm4 the basis (o, 1), (2**n, 0) has
the quadratic form (4 o**2 + 1, 8 o 2**n, 4 * 4**n), primitive (its
first coefficient is odd and prime to o) with discriminant -16 * 4**n.
A reduced basis s1, s2 of the same lattice gives an equivalent form,
so also primitive, (a, b, c) = (norm4 s1, 2 dot4(s1, s2), norm4 s2)
with |b| <= a <= c.
  - a = c makes (a - b/2)(a + b/2) = 4**(n+1) with |b| <= a, which
    forces b = 0 and a = 2**(n+1); that form is not primitive, so a < c.
  - |b| = a makes a (4 c - a) = 16 * 4**n with a prime to c, which
    forces a = 4 and c = 4**n + 1.  Then s1 = (0, +-2), a lattice
    vector only at o = 2**(n-1).
Every vector outside the multiples of s1 has norm4 >= c > a, so s1 is
the shortest vector, unique up to sign.  The bases with s1 are
(s1, +-s2 + k s1), and norm4(s2 + k s1) = c + k b + k**2 a > c for
k != 0 when |b| < a.  So outside o = 2**(n-1) s2 too is unique up to
sign; at o = 2**(n-1) it has two choices, (+-2**(n-1), -1) up to sign.
_lagrange ends by fixing the canonical form: each vector's second
coordinate is negative, or 0 with a negative first coordinate, and at
o = 2**(n-1) s1 = (0, -2), s2 = (2**(n-1), -1).  So reduce_window
returns lagrange_reduce of every offset exactly.

One offset's enumeration (enumerate_candidates) takes its candidates
from the offset's strip (below) and counts the points of the circle row
by row, each row m2 of w = m1 s1 + m2 s2 in closed form: with
A = norm4(s1) the Gram determinant 2**(2n+2) gives
A norm4(w) = (A m1 + m2 dot4(s1, s2))**2 + 2**(2n+2) m2**2, so a row
meets the circle in one interval of m1.  (s1)_2 != 0, since the reduced
s1 is shorter than (2**n, 0), and a lattice vector with w_2 = 0 is a
multiple of (2**n, 0), of which only 0 is inside the circle.

No enumeration visits more than its budget ceil(6 sqrt(3) 2**delta)
with delta = max(0, m - ell), for any j, m and ell >= 1, so nothing
checks it.  Write R = 2**(m - 1/2) for the radius of the circle,
det = 2**(n-1) for the lattice determinant, lambda1 = |s1| and
lambda2 = det/lambda1 for the distance of s2 from the line of s1.
With A = norm4(s1) = 4 lambda1**2, lambda2**2 = 2**(2n)/A, so case 2
(2**(2n) < A 2**(2m-1)) is exactly lambda2 < R.  In case 2:
  - lambda1 = det/lambda2 > 2**(n-1) / 2**(m-1/2) = 2**(ell - 1/2),
    so R/lambda1 < 2**delta.
  - The reduced basis has |dot4(s1, s2)| <= norm4(s1)/2 and
    |s2| >= lambda1, so s2 = mu s1 + s2' with |mu| <= 1/2 and
    lambda2**2 = |s2'|**2 = |s2|**2 - mu**2 lambda1**2 >= (3/4) lambda1**2:
    lambda2 >= (sqrt(3)/2) lambda1, and R/lambda2 < (2/sqrt(3)) 2**delta.
  - w = m1 s1 + m2 s2 lies |m2| lambda2 from the line of s1, so a row
    m2 meets the open disk |w| < R only if |m2| < R/lambda2: at most
    2R/lambda2 + 1 rows.  A row's points lie lambda1 apart on a line
    whose chord in the disk is at most 2R long: at most 2R/lambda1 + 1
    points.
  - So the disk holds P lattice points, with
        P <= (2R/lambda2 + 1)(2R/lambda1 + 1)
           = 4R**2/det + 2R/lambda1 + 2R/lambda2 + 1
           < (4 + 2 + 4/sqrt(3)) 2**delta + 1,
    as 4R**2/det = 2**(2m+1)/2**(n-1) = 4 * 2**delta.
  - visited counts the points with w_2 > 0 and the origin.  The origin
    is the only point of the disk with w_2 = 0 (above), and w -> -w
    pairs off the rest, so visited = (P + 1)/2, and
        visited < (3 + 2/sqrt(3)) 2**delta + 1 < 4.16 * 2**delta + 1.
  - That is below 6 sqrt(3) 2**delta <= budget, as
    (6 sqrt(3) - 3 - 2/sqrt(3)) 2**delta > 6.2 * 2**delta >= 6.2 > 1
    for delta = m - ell >= 0.
If ell > m, case 2 cannot occur: it would give lambda1 > 2**(ell - 1/2)
>= 2**(m + 1/2) = 2R, so lambda2 >= (sqrt(3)/2) lambda1 > R.  So
visited = 1, within the budget 11 of delta = 0.

A window's candidates are taken in one pass (window_candidates), from a
partition of its lattice points into triangles.  Name a lattice point
by its (a, b) as above, and write T = 2**m.  At offset j + k the point
is (x_k, y2) with x_k = x + k y2, x = x_0: the shear.
  - Box inside the circle.  A case-2 offset k gives the y2 of its points
    in the circle and in the box |x_k| < 2**(m-1), 0 < y2 < T, called
    strip k.  Every box point has 4 x_k**2 + y2**2 < T**2 + T**2
    = 2**(2m+1), so it is inside the circle: the candidates of offset k
    are the y2 of the points of strip k.
  - Cones.  A point with y2 > 0 lies in exactly one cone
    c = round(-x/y2), ties toward +infinity: -y2/2 <= x_c < y2/2, as
    x_c steps by y2 with c.  No point with 0 < y2 < 2**n is a tie: at
    offset o = j + c, x_c = +-y2/2 and x_c = y2 o mod 2**n give
    2**n | (1 -+ 2 o) x_c, so 2**n | x_c and y2 = 2 |x_c| >= 2**(n+1).
    So the rule never binds.  In offset c's coordinates cone c is the
    triangle 0 < y2 < T, -y2 <= 2 x_c < y2, with vertices (0, 0) and
    (+-2**(m-1), T), and as |x_c| <= y2/2 < 2**(m-1) it lies in strip c.
    It holds each y2 at most once: two points with the same y2 differ
    in x by a nonzero multiple of 2**n, and the cone is only y2 < 2**n
    wide at height y2.
  - A run of strips.  At height y2, strip k is -2**(m-1) - k y2 < x
    < 2**(m-1) - k y2, so strip k + 1 is strip k moved by y2 < T, and
    neighbouring strips overlap.  For offsets k0..k1 the union of the
    strips is -2**(m-1) - k1 y2 < x < 2**(m-1) - k0 y2.  Cones k0..k1
    cover -y2/2 - k1 y2 <= x < y2/2 - k0 y2 of it, and leave two
    slivers: the points of strip k1 with -2**(m-1) < x_k1 < -y2/2 (cone
    above k1) and those of strip k0 with y2/2 <= x_k0 < 2**(m-1) (cone
    below k0), the triangles with vertices (0, 0), (-+2**(m-1), 0) and
    (-+2**(m-1), T) in offset k1's and k0's coordinates.  So the y2 of
    cones k0..k1 and the two slivers are exactly the candidates of the
    offsets k0..k1.  A cone holds about 2**(delta-1) points and a sliver
    about 2**(delta-2), as the lattice has determinant 2**n in (x, y2).
  - Case 1.  A case-1 offset gives only 2 |(s1)_2|, so the window splits
    into runs of case-2 offsets, each its cones and two slivers.
  - Repeats.  The cones and slivers of one run are disjoint, and the
    run's union is 2**m + (k1 - k0) y2 < (2B + 1) 2**m wide at height
    y2, so when 2B + 1 <= 2**ell it holds each y2 once.  Candidates
    repeat only across runs (a sliver reaches into the cones past a
    case-1 offset, and 2 |(s1)_2| may be anyone's) and when
    2B + 1 > 2**ell; filter_candidates takes each candidate once.
The order is for the filter, which is cheaper the earlier it accepts.
The true vector (alpha0(z)/d, r~/2) has |alpha0(z)/d| <= r~/2, so it
lies in the cone of its own offset.  The cones come centre-out, where
the measurement mostly lands, each in descending y2, which puts d = 1
first; the slivers come last.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import centre_out, check_window


class Vec(NamedTuple):
    x: int
    y2: int  # doubled second coordinate


def norm4(v: Vec) -> int:
    """4 |v|^2, an exact integer."""
    return 4 * v.x * v.x + v.y2 * v.y2


def dot4(a: Vec, b: Vec) -> int:
    """4 <a, b>, an exact integer."""
    return 4 * a.x * b.x + a.y2 * b.y2


@dataclass(frozen=True)
class ReducedBasis:
    """Lagrange-reduced basis of a frequency lattice, in the canonical
    form of the module docstring; s1 is the shorter vector."""

    s1: Vec
    s2: Vec


def _round_ratio(num: int, den: int) -> int:
    """round(num/den) for den > 0, ties toward +infinity."""
    return (2 * num + den) // (2 * den)


def _lagrange(x1: int, y1: int, x2: int, y2: int) -> ReducedBasis:
    """Lagrange's loop from any basis s1 = (x1, y1), s2 = (x2, y2) of a
    frequency lattice, ending in the canonical form."""
    n1 = 4 * x1 * x1 + y1 * y1
    n2 = 4 * x2 * x2 + y2 * y2
    while True:
        t = _round_ratio(4 * x2 * x1 + y2 * y1, n1)
        if t:
            x2 -= t * x1
            y2 -= t * y1
            n2 = 4 * x2 * x2 + y2 * y2
        if n2 < n1:
            x1, y1, n1, x2, y2, n2 = x2, y2, n2, x1, y1, n1
        else:
            break
    if y1 > 0:  # y1 != 0: s1 is shorter than every multiple of (2**n, 0)
        x1, y1 = -x1, -y1
    if y2 > 0 or not y2 and x2 > 0:
        x2, y2 = -x2, -y2
    if n1 == 4:  # only at o = 2**(n-1), where s2 = (+-2**(n-1), -1) both reduce
        x2 = abs(x2)
    return ReducedBasis(s1=Vec(x1, y1), s2=Vec(x2, y2))


def lagrange_reduce(j: int, n: int) -> ReducedBasis:
    """Gauss/Lagrange reduction of the frequency lattice for j at the
    register width n = m + ell.

    Exact arithmetic on bare ints, from the basis (o, 1), (2**n, 0) with
    o = j mod 2**n.
    """
    N = 1 << n
    return _lagrange(j % N, 1, N, 0)


def reduce_window(j: int, B: int, n: int) -> list[ReducedBasis]:
    """lagrange_reduce of each offset (j + k) mod 2**n, k = -B..B, in offset order.

    The first offset is reduced from scratch and each later one from its
    left neighbour's basis, sheared by one (module docstring).
    """
    check_window(j, B, 1 << n)
    rb = lagrange_reduce(j - B, n)
    window = [rb]
    for _ in range(2 * B):
        (x1, y1), (x2, y2) = rb.s1, rb.s2
        rb = _lagrange(x1 + y1, y1, x2 + y2, y2)
        window.append(rb)
    return window


def solve_shortest(j: int, n: int) -> int:
    """Order candidate from the shortest reduced vector: 2 |(s1)_2|.

    The frequency lattice never has a shortest vector on the x axis
    (those vectors are multiples of (2**n, 0), far above the reduction
    bound), so the candidate is a positive integer; j = 0 degenerates
    to candidate 1.
    """
    rb = lagrange_reduce(j, n)
    cand = abs(rb.s1.y2)
    assert cand != 0, "shortest vector on the x axis cannot happen for this lattice"
    return cand


@dataclass(frozen=True)
class EnumerationResult:
    """Candidates from enumerating short vectors around a reduced basis.

    candidates are distinct, in descending order; visited counts the
    vectors w = m1 s1 + m2 s2 inside the circle with w_2 >= 0, never
    more than bounds.enumeration_budget(max(0, m - ell)) (module
    docstring).  case 1 means the single reduced vector already decided
    the answer.
    """

    candidates: list[int]
    visited: int
    case: int


def enumerate_candidates(rb: ReducedBasis, m: int, ell: int) -> EnumerationResult:
    """All order candidates 2 w_2 from lattice vectors with |w| < 2**(m-1/2),
    given rb, the reduced basis of a frequency j at the register width
    m + ell (lagrange_reduce or reduce_window).

    If the reduced basis certifies that only multiples of s1 can be that
    short (case 1), the single candidate 2 |(s1)_2| is returned without
    enumeration.  Otherwise the candidates are 2 w_2 over the vectors in
    the coordinate box |w_1| < 2**(m-1), 0 < w_2 < 2**(m-1) that any true
    order vector satisfies: the offset's strip, which lies inside the
    circle (module docstring), read by _triangle.  Two box vectors with
    equal w_2 would differ by a nonzero multiple of (2**n, 0), wider than
    the box, so the candidates are distinct.
    The pipeline takes whole windows through window_candidates; this
    per-offset enumeration is criterion 07's subject and its oracle.

    visited is counted row by row, never walked.  With A = norm4(s1) and
    c = -m2 dot4(s1, s2), the Gram determinant gives
        A norm4(w) = (A m1 - c)**2 + 2**(2n+2) m2**2,
    so row m2 holds the m1 in [ceil((c - s)/A), floor((c + s)/A)] inside
    the circle, s the largest integer with
    s**2 < disc = A 2**(2m+1) - 2**(2n+2) m2**2.  w -> -w maps row -m2
    onto row m2 and w_2 < 0 onto w_2 > 0, and no vector of a row m2 != 0
    has w_2 = 0, so the rows m2 >= 1 hold as many vectors as have w_2 > 0
    off row 0.  Row 0 adds the k + 1 vectors m1 s1 with w_2 >= 0 and
    |m1| <= k, the largest k with (A k)**2 < A R4, R4 = 2**(2m+1).  The
    count never exceeds the budget ceil(6 sqrt(3) 2**delta),
    delta = max(0, m - ell) (module docstring).
    """
    n = m + ell
    A = norm4(rb.s1)

    # case 1: lambda2_perp >= 2**(m - 1/2), i.e. 2**(2n) / A >= 2**(2m-1)
    if 1 << (2 * n) >= A << (2 * m - 1):
        return EnumerationResult(candidates=[abs(rb.s1.y2)], visited=1, case=1)

    Bc = dot4(rb.s1, rb.s2)
    AR4 = A << (2 * m + 1)  # A R4, where norm4(w) < R4  <=>  |w| < 2**(m - 1/2)
    det_shift = 2 * n + 2  # A norm4(s2) - Bc**2 = 2**(2n+2)
    # outer range: m2^2 * 2**(2n) < 2**(2m-1) * A  (lambda2_perp bound), so
    # every row up to m2_max has disc = A R4 - 2**(2n+2) m2**2 > 0
    m2_max = math.isqrt(((A << (2 * m - 1)) - 1) >> (2 * n))
    visited = math.isqrt(AR4 - 1) // A + 1  # row 0: k + 1
    for m2 in range(1, m2_max + 1):
        s = math.isqrt(AR4 - ((m2 * m2) << det_shift) - 1)  # s**2 < disc
        c = -Bc * m2
        visited += (c + s) // A + (s - c) // A + 1  # hi - lo + 1 >= 0, as s >= 0
    return EnumerationResult(candidates=_triangle(rb, _STRIP, m, ell), visited=visited, case=2)


# The strip of one offset and the three triangles of the window (module
# docstring), in the coordinates (x, y2) of the offset that enumerates them,
# T = 2**m.  Each is its constraints alpha x + beta y2 >= g0 + gT T and its
# vertices other than the origin, in units of 2**(m-1); the origin is a
# vertex of each triangle and a point of the strip's lower edge.
_STRIP = (((2, 0, 1, -1), (-2, 0, 1, -1), (0, 1, 1, 0), (0, -1, 1, -1)),
          ((-1, 0), (1, 0), (-1, 2), (1, 2)))
_CONE = (((2, 1, 0, 0), (-2, 1, 1, 0), (0, -1, 1, -1)), ((-1, 2), (1, 2)))
_LEFT_SLIVER = (((2, 0, 1, -1), (-2, -1, 1, 0), (0, 1, 1, 0)), ((-1, 0), (-1, 2)))
_RIGHT_SLIVER = (((-2, 0, 1, -1), (2, -1, 0, 0), (0, 1, 1, 0)), ((1, 0), (1, 2)))


def _triangle(rb: ReducedBasis, region, m: int, ell: int) -> list[int]:
    """The second coordinates y2 of the points of rb's lattice in one
    region, in descending order.  A region is a convex polygon: its
    constraints and its vertices, which span it together with the origin.

    A point (X, Y) = m1 s1 + m2 s2 has m2 = (x1 Y - y1 X) / D, with
    D = x1 y2 - y1 x2 = +-2**n, so m2's extremes over the region are
    at its vertices, and 2**(m-1)/|D| = 2**-(ell+1).  Each constraint
    a m1 + e m2 >= g bounds m1 in every row m2, from below if a > 0 and
    from above if a < 0.  The region is bounded, so s1 and -s1 each
    leave it through some constraint: every row is bounded on both
    sides, by at most two constraints per side, as a triangle has three
    and the strip's four come in pairs of opposite a.  A constraint with
    a = 0 (a wall x = +-2**(m-1) when s1 = (0, y)) bounds the rows
    instead, as then e != 0.
    """
    constraints, vertices = region
    (x1, y1), (x2, y2) = rb.s1, rb.s2
    shift = ell + 1
    sign = 1 if x1 * y2 > y1 * x2 else -1
    ends = [0] + [sign * (x1 * Y - y1 * X) for X, Y in vertices]
    bottom, top = -(-min(ends) >> shift), max(ends) >> shift
    lows, highs = [], []
    for alpha, beta, g0, gT in constraints:
        a, e, g = alpha * x1 + beta * y1, alpha * x2 + beta * y2, g0 + (gT << m)
        if a > 0:
            lows.append((a, e, g))  # m1 >= ceil((g - e m2) / a)
        elif a < 0:
            highs.append((-a, e, g))  # m1 <= floor((e m2 - g) / -a)
        elif e > 0:
            bottom = max(bottom, -(-g // e))
        else:
            top = min(top, -g // -e)
    # one or two bounds on each side; a lone one is taken twice
    (a1, e1, g1), (a2, e2, g2) = lows[0], lows[-1]
    (a3, e3, g3), (a4, e4, g4) = highs[0], highs[-1]
    out: list[int] = []
    for m2 in range(bottom, top + 1):
        lo = max(-((e1 * m2 - g1) // a1), -((e2 * m2 - g2) // a2))
        hi = min((e3 * m2 - g3) // a3, (e4 * m2 - g4) // a4)
        if lo <= hi:
            start = y1 * lo + y2 * m2
            out.extend(itertools.accumulate(itertools.repeat(y1, hi - lo), initial=start))
    out.sort(reverse=True)
    return out


def window_candidates(window: list[ReducedBasis], m: int, ell: int) -> list[int]:
    """The order candidates of a window j-B..j+B, given its reduced bases
    in offset order (reduce_window): the union of enumerate_candidates over
    its offsets, as cones and slivers (module docstring).

    The cones come centre-out, k = 0, +1, -1, ..., +B, -B, each in
    descending order, a case-1 offset giving 2 |(s1)_2| at its turn; then
    the slivers of each run of case-2 offsets, in descending order.  A
    candidate repeats only across runs, or when 2B + 1 > 2**ell.
    """
    n = m + ell
    case2 = [1 << (2 * n) < norm4(rb.s1) << (2 * m - 1) for rb in window]
    out: list[int] = []
    for rb, is2 in centre_out(list(zip(window, case2))):
        if is2:
            out += _triangle(rb, _CONE, m, ell)
        else:
            out.append(abs(rb.s1.y2))
    for is2, run in itertools.groupby(zip(window, case2), lambda pair: pair[1]):
        if is2:
            run = list(run)
            slivers = (_triangle(run[-1][0], _LEFT_SLIVER, m, ell)
                       + _triangle(run[0][0], _RIGHT_SLIVER, m, ell))
            slivers.sort(reverse=True)
            out += slivers
    return out
