"""Continued-fraction post-processing of a measured frequency.

A frequency j near the peak of index z encodes the reduced fraction
z/r as a convergent of j / 2**n once 2**n > r**2.  The candidate the
solver emits is the denominator of the last convergent below the
square-root threshold; everything here is exact integer arithmetic.
The reals whose continued fractions start with the same partial
quotients form an interval, so the offsets of a window j-B..j+B share
every quotient on which its two ends agree: Euclid runs once on the
ends, and each offset resumes from where they part.
"""

from __future__ import annotations

from .model import Params


def _expand(N: int, lo: int, hi: int, conv: tuple[int, int, int, int]):
    """Advance the convergents (p', q', p, q) of lo/N and hi/N while both
    ends take the same next quotient and the next denominator q stays
    below sqrt(N), tested as q*q < N; returns the convergents reached.

    An offset o with these convergents has the Euclidean remainders
    a = |q o - p N| and b = |q' o - p' N|.  With lo == hi this is the
    plain expansion of one offset.
    """
    p_prev, q_prev, p, q = conv
    a_lo, b_lo = abs(q * lo - p * N), abs(q_prev * lo - p_prev * N)
    a_hi, b_hi = abs(q * hi - p * N), abs(q_prev * hi - p_prev * N)
    while a_lo and a_hi:
        quot, rem_lo = divmod(b_lo, a_lo)
        rem_hi = b_hi - quot * a_hi
        q_next = quot * q + q_prev
        if not 0 <= rem_hi < a_hi or q_next * q_next >= N:
            break
        p_prev, p = p, quot * p + p_prev
        q_prev, q = q, q_next
        a_lo, b_lo, a_hi, b_hi = rem_lo, a_lo, rem_hi, a_hi
    return p_prev, q_prev, p, q


def solve_cf_window(j: int, B: int, params: Params) -> list[int]:
    """solve_cf of each offset (j + k) mod 2**n, k = -B..B, in offset order.

    On a contiguous run lo..hi, o/2**n lies between the ends, and the
    reals sharing a prefix of quotients form an interval, so every o
    takes each quotient both ends take.  Along that prefix the
    remainders of o are linear in o and positive at both ends, hence
    positive in between: no inner offset ends its expansion while both
    ends go on.  After the ends part, each offset finishes alone from
    the shared convergents.  A window that wraps past 0 or 2**n is
    split where it wraps, since o/2**n jumps there from near 1 to near
    0 and the offsets no longer lie between the ends; both runs take
    the same path.
    """
    N = params.two_n
    if not 0 <= j < N:
        raise ValueError(f"frequency {j} outside [0, {N})")
    if B < 0:
        raise ValueError(f"window half-width B must be >= 0, got {B}")
    out: list[int] = []
    start, stop = j - B, j + B
    while start <= stop:
        lo = start % N
        hi = lo + min(stop - start, N - 1 - lo)
        conv = _expand(N, lo, hi, (1, 0, 0, 1))
        out.extend(_expand(N, o, o, conv)[3] for o in range(lo, hi + 1))
        start += hi - lo + 1
    return out


def solve_cf(j: int, params: Params) -> int:
    """Order candidate from frequency j: denominator of the last convergent
    of j / 2**n with denominator below 2**(n/2), as the one-offset
    window.  j = 0 yields the degenerate candidate 1."""
    return solve_cf_window(j, 0, params)[0]
