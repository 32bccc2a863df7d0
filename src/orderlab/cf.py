"""Continued-fraction post-processing of a measured frequency.

A frequency j near the peak of index z encodes the reduced fraction
z/r as a convergent of j / 2**n once 2**n > r**2.  The candidate the
solver emits is the denominator q of the last convergent of j / 2**n
with q*q < 2**n; everything here is exact integer arithmetic.

Write N = 2**n and let p'/q', p/q be consecutive convergents of o / N,
starting from 1/0, 0/1 (o < N, so the integer part is 0).  Euclid on
(o, N) then holds the remainders a = |q o - p N| and b = |q' o - p' N|,
and its next step takes the quotient b // a, the remainder b % a and
the denominator (b // a) q + q'.  The numerators never enter, so only
remainders and denominators are carried.  For integers, q*q < N holds
exactly when q <= isqrt(N - 1), so the threshold is one isqrt per call.

The candidate of o depends only on o mod N.  For o > N, Euclid on
(o, N) takes the quotients 0 and then o // N, which leaves the
remainders (o mod N, N) and the denominators (0, 1), the start for
o mod N; o = N takes one quotient 1 and gives 1, as o = 0 does.

The signed remainder s(o) = q o - p N is affine in o with slope q, and
after k steps it is 0 or has the sign (-1)**k.  That makes a window
j-B..j+B cheap: Euclid runs once on its two ends while they take the
same quotients, and every offset between them resumes from there with
its remainders interpolated; see solve_cf_window.
"""

from __future__ import annotations

import math

from .model import check_window


def _shared_prefix(N: int, qmax: int, lo: int, hi: int):
    """Euclid on lo/N and hi/N while both ends take the same quotient and
    the next denominator stays at most qmax; returns the remainders
    (a_lo, b_lo, a_hi, b_hi) and the denominators (q', q) reached."""
    a_lo, b_lo, a_hi, b_hi = lo, N, hi, N
    q_prev, q = 0, 1
    while a_lo and a_hi:
        quot, rem_lo = divmod(b_lo, a_lo)
        rem_hi = b_hi - quot * a_hi
        q_next = quot * q + q_prev
        if not 0 <= rem_hi < a_hi or q_next > qmax:
            break
        q_prev, q = q, q_next
        a_lo, b_lo, a_hi, b_hi = rem_lo, a_lo, rem_hi, a_hi
    return a_lo, b_lo, a_hi, b_hi, q_prev, q


def _finish(a: int, b: int, q_prev: int, q: int, qmax: int) -> int:
    """Euclid on one offset from its remainders (a, b) and denominators
    (q', q): the last denominator at most qmax."""
    while a:
        quot, rem = divmod(b, a)
        q_next = quot * q + q_prev
        if q_next > qmax:
            break
        q_prev, q, a, b = q, q_next, rem, a
    return q


def solve_cf_window(j: int, B: int, n: int) -> list[int]:
    """solve_cf of each offset (j + k) mod 2**n, k = -B..B, in offset order,
    for the register width n = m + ell.

    The window is one run lo..hi of 2B + 1 consecutive integers,
    lo = (j - B) mod N, and hi = lo + 2B may pass N: the offset o stands
    for o mod N, whose candidate it has (module docstring).

    On the run, after k shared steps every o in lo..hi has the same
    convergents p'/q', p/q, and its remainders are a(o) = e s(o) and
    b(o) = -e s'(o), with s(o) = q o - p N, s'(o) = q' o - p' N and
    e = (-1)**k.  Both are affine in o, with slopes e q and -e q'.  The
    induction step: o takes the next quotient Q exactly when a(o) > 0
    and 0 <= b(o) - Q a(o) < a(o).  These are affine inequalities in
    o, so if they hold at lo and at hi they hold at every o between.
    The new remainders b - Q a = -e (q_next o - p_next N) and a are
    again of that form with k + 1.  The threshold q_next <= qmax does
    not depend on o.  None of this uses o < N.  So where the ends part,
    every inner offset has taken the same quotients and

        a(o) = a_lo + sa (o - lo),  sa = (a_hi - a_lo) / (hi - lo) = e q,
        b(o) = b_lo + sb (o - lo),  sb = (b_hi - b_lo) / (hi - lo) = -e q',

    with exact divisions.  Each offset then finishes alone from
    (a(o), b(o), q', q).  qmax = isqrt(N - 1) is the largest q with
    q*q < N.  A run past N parts at once (lo > 0 takes a first quotient
    N // lo >= 1, which leaves hi > N a negative remainder; lo = 0 takes
    no step), or after one step when hi = N: it shares no work, but occurs
    only near z = 0.
    """
    N = 1 << n
    check_window(j, B, N)
    qmax = math.isqrt(N - 1)
    if not B:
        return [_finish(j, N, 0, 1, qmax)]
    lo, w = (j - B) % N, 2 * B
    a_lo, b_lo, a_hi, b_hi, q_prev, q = _shared_prefix(N, qmax, lo, lo + w)
    sa, sb = (a_hi - a_lo) // w, (b_hi - b_lo) // w
    return [_finish(a_lo + sa * k, b_lo + sb * k, q_prev, q, qmax) for k in range(w + 1)]


def solve_cf(j: int, n: int) -> int:
    """Order candidate from frequency j: denominator of the last convergent
    of j / 2**n with denominator below 2**(n/2), n the register width, as
    the one-offset window.  j = 0 yields the degenerate candidate 1."""
    return solve_cf_window(j, 0, n)[0]
