"""Continued-fraction post-processing of a measured frequency.

A frequency j near the peak of index z encodes the reduced fraction
z/r as a convergent of j / 2**n once 2**n > r**2.  The candidate the
solver emits is the denominator of the last convergent below the
square-root threshold; everything here is exact integer arithmetic.
"""

from __future__ import annotations

from .model import Params


def cf_expand(num: int, den: int) -> list[tuple[int, int]]:
    """Convergents of num/den in lowest terms, from 0/1 up to the value itself.

    Plain Euclidean recurrence: p_k = a_k p_{k-1} + p_{k-2} and likewise
    for q_k, so successive convergents satisfy the determinant identity
    p_k q_{k-1} - p_{k-1} q_k = (-1)^(k+1).
    """
    if den <= 0 or num < 0:
        raise ValueError(f"need num >= 0 and den > 0, got {num}/{den}")
    p_prev, q_prev = 1, 0
    p, q = num // den, 1
    out = [(p, q)]
    a, b = num % den, den
    while a:
        # invariant: remaining tail equals a/b with gcd preserved
        quot, rem = divmod(b, a)
        p_prev, p = p, quot * p + p_prev
        q_prev, q = q, quot * q + q_prev
        out.append((p, q))
        a, b = rem, a
    return out


def solve_cf(j: int, params: Params) -> int:
    """Order candidate from frequency j: denominator of the last convergent
    of j / 2**n with denominator below 2**(n/2).

    The threshold comparison q < 2**(n/2) is done as q*q < 2**n, exact
    for both parities of n.  j = 0 yields the degenerate candidate 1.
    """
    N = params.two_n
    if not 0 <= j < N:
        raise ValueError(f"frequency {j} outside [0, {N})")
    best = 1
    p_prev, q_prev = 1, 0
    p, q = j // N, 1
    a, b = j % N, N
    while True:
        if q * q < N:
            best = q
        else:
            break
        if not a:
            break
        quot, rem = divmod(b, a)
        p_prev, p = p, quot * p + p_prev
        q_prev, q = q, quot * q + q_prev
        a, b = rem, a
    return best

