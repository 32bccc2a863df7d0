"""Exact measurement statistics of order finding with a known order.

The frequency register holds n = m + ell bits.  A measured frequency j
is read through its signed argument alpha = {r j} mod 2**n, and the
probability of observing j depends on j only through alpha:

  P(alpha) = [beta * sin^2(pi a (L+1) / 2**n) + (r - beta) * sin^2(pi a L / 2**n)]
             / (2**(2n) * sin^2(pi a / 2**n))          for alpha != 0,
  P(0)     = (L^2 r + (2L+1) beta) / 2**(2n)           exactly,

with beta = 2**n mod r and L = floor(2**n / r).  All sine arguments are
reduced exactly in integer arithmetic before any floating evaluation, so
the formulas stay accurate for register widths in the hundreds of bits.

Two evaluation routes are provided on purpose: `prob` (arbitrary
precision, one argument at a time) and `prob_array`/`full_distribution`
(vectorized 80-bit floats, small registers only).  The vectorized route
reads its sines from one table of sin^2(pi k / 2**n), k in [0, 2**(n-1)],
whose entries are the same long-double expression as a per-entry
evaluation, so its output does not depend on the table.

`prob_bruteforce` and `bruteforce_distribution` evaluate the defining
double sum term by term and exist purely as oracles to check the closed
form against.  The bulk one reads its terms from a cos/sin table of the
unit circle built from a quarter wave, and shares neither table nor
formula with the closed form.

Since alpha = r j mod 2**n repeats with period 2**n >> v in j, where
2**v is the largest power of two dividing r, both bulk functions
evaluate one period and tile it.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .model import Params, Rng, derive, peak

# Vectorized paths accumulate up to 2**n terms in 80-bit floats; past
# this width they would be both slow and inaccurate.
_VECTOR_WIDTH_LIMIT = 24

# Most entries bruteforce_distribution gathers at once (whole rows of
# L+1 terms, at least one): about 1 MB per 80-bit temporary, however
# many rows that is, so memory does not grow with the row count.
_GATHER_ELEMENTS = 1 << 16

_PI_LD = np.longdouble("3.14159265358979323846264338327950288")


def default_prec(params: Params) -> int:
    """Working mantissa: register width plus guard bits."""
    return params.n + 64


def prob_zero(params: Params) -> Fraction:
    """Exact probability of the zero argument, as a rational."""
    d = derive(params)
    N = params.two_n
    return Fraction(d.L * d.L * params.r + (2 * d.L + 1) * d.beta, N * N)


def _folded_sin2(numer: int, denom: int) -> mpmath.mpf:
    """sin^2(pi * numer / denom) with the argument reduced exactly first.

    sin^2(pi x) has period 1 and is symmetric about x = 1/2, so numer is
    reduced mod denom and folded into [0, denom/2]; the float division
    then happens on a small, well-conditioned ratio.
    """
    k = numer % denom
    k = min(k, denom - k)
    if k == 0:
        return mpmath.mpf(0)
    return mpmath.sinpi(mpmath.mpf(k) / denom) ** 2


def prob(alpha: int, params: Params, prec: int | None = None) -> mpmath.mpf:
    """Probability of measuring a frequency with signed argument alpha."""
    N = params.two_n
    if not -N <= 2 * alpha < N:
        raise ValueError(f"argument {alpha} outside [-2**(n-1), 2**(n-1))")
    with mpmath.workprec(prec or default_prec(params)):
        if alpha == 0:
            p0 = prob_zero(params)
            return mpmath.mpf(p0.numerator) / p0.denominator
        d = derive(params)
        s_hi = _folded_sin2(alpha * (d.L + 1), N)
        s_lo = _folded_sin2(alpha * d.L, N)
        s_den = _folded_sin2(abs(alpha), N)
        return (d.beta * s_hi + (params.r - d.beta) * s_lo) / (s_den * N * N)


def approx_prob(alpha: int, params: Params, prec: int | None = None) -> mpmath.mpf:
    """Quadratic-decay approximation r sin^2(pi alpha / r) / (pi alpha)^2.

    Defined for alpha != 0; vanishes exactly when r divides alpha.
    """
    if alpha == 0:
        raise ValueError("approximation is defined for nonzero arguments only")
    with mpmath.workprec(prec or default_prec(params)):
        r = params.r
        k = abs(alpha) % r
        k = min(k, r - k)
        if k == 0:
            return mpmath.mpf(0)
        s = mpmath.sinpi(mpmath.mpf(k) / r) ** 2
        return r * s / (mpmath.pi * alpha) ** 2


def envelope(alpha: int, params: Params, prec: int | None = None) -> mpmath.mpf:
    """Intermediate form r sin^2(pi a / r) / (2**(2n) sin^2(pi a / 2**n)).

    Sits between the exact probability and the quadratic approximation;
    exposed so the pointwise error bounds can be checked on both gaps.
    """
    if alpha == 0:
        raise ValueError("envelope is defined for nonzero arguments only")
    N = params.two_n
    with mpmath.workprec(prec or default_prec(params)):
        r = params.r
        k = abs(alpha) % r
        k = min(k, r - k)
        if k == 0:
            return mpmath.mpf(0)
        s_num = mpmath.sinpi(mpmath.mpf(k) / r) ** 2
        s_den = _folded_sin2(abs(alpha), N)
        return r * s_num / (s_den * N * N)


def _require_vector_width(params: Params):
    if params.n > _VECTOR_WIDTH_LIMIT:
        raise ValueError(
            f"vectorized evaluation is limited to m+ell <= {_VECTOR_WIDTH_LIMIT}, "
            f"got {params.n}"
        )


def prob_bruteforce(j: int, params: Params) -> np.longdouble:
    """Defining double sum for frequency j, evaluated term by term.

    For each residue class e in [0, r) the inner geometric sum over
    b = 0 .. floor((2**n - e - 1)/r) is accumulated one term at a time
    (via a running prefix sum); nothing is taken from the closed form.
    Term angles are reduced exactly in integer arithmetic and the
    accumulation runs in 80-bit floats, keeping the oracle trustworthy
    to ~1e-15 relative at width 24.
    """
    _require_vector_width(params)
    N = params.two_n
    r = params.r
    d = derive(params)
    alpha = (r * j) % N
    b = np.arange(d.L + 1, dtype=np.int64)
    k = (alpha * b) % N
    theta = (2 * _PI_LD) * (k.astype(np.longdouble) / np.longdouble(N))
    cre = np.cumsum(np.cos(theta))
    cim = np.cumsum(np.sin(theta))
    e = np.arange(r, dtype=np.int64)
    terms = (N - e - 1) // r  # inner sum for class e has terms+1 summands
    s2 = cre[terms] ** 2 + cim[terms] ** 2
    return s2.sum() / (np.longdouble(N) * np.longdouble(N))


def bruteforce_distribution(params: Params) -> np.ndarray:
    """Defining double sum for every frequency at once.

    Same term-by-term evaluation as prob_bruteforce, restructured for
    bulk use.  Entry j depends on j only through alpha = r j mod 2**n.
    With 2**v the largest power of two dividing r, alpha is 2**v times
    r' j mod M, where r' = r >> v is odd and M = 2**n >> v, so one
    period of M frequencies is summed and tiled, and every term
    e^(2 pi i alpha b / 2**n) is a power of e^(2 pi i / M).  Those M
    values come from one table, built from sin over a quarter wave by
    the exact symmetries of sin and cos.  Rows of term indices are
    gathered from it in blocks of at most _GATHER_ELEMENTS entries (a
    row is never split).  The two inner-sum lengths L and L+1 that
    occur across residue classes are read off as the sum of the first L
    columns and that sum plus the last column.  Every term is still
    added one at a time, and no closed form, geometric-sum identity or
    symmetry of the distribution is used, so the output is an
    independent oracle for prob_array / full_distribution.
    """
    _require_vector_width(params)
    N = params.two_n
    r = params.r
    d = derive(params)
    v = _two_adic_valuation(r)
    period = N >> v
    cos_table, sin_table = _unit_circle_tables(period)
    alpha = ((r >> v) * np.arange(period, dtype=np.int64)) % period
    b = np.arange(d.L + 1, dtype=np.int64)
    rows = max(1, _GATHER_ELEMENTS // (d.L + 1))
    out = np.empty(period, dtype=np.longdouble)
    NN = np.longdouble(N) * np.longdouble(N)
    for lo in range(0, period, rows):
        theta = (alpha[lo : lo + rows, None] * b[None, :]) & (period - 1)
        cre = np.take(cos_table, theta)
        cim = np.take(sin_table, theta)
        c_lo = cre[:, :-1].sum(axis=1)
        s_lo = cim[:, :-1].sum(axis=1)
        c_hi = c_lo + cre[:, -1]
        s_hi = s_lo + cim[:, -1]
        out[lo : lo + len(theta)] = (
            d.beta * (c_hi * c_hi + s_hi * s_hi)
            + (r - d.beta) * (c_lo * c_lo + s_lo * s_lo)
        ) / NN
    return np.tile(out, N // period)


def _two_adic_valuation(r: int) -> int:
    """Exponent of the largest power of two dividing r > 0."""
    return (r & -r).bit_length() - 1


def _unit_circle_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi k / N) and sin(2 pi k / N) for k in [0, N), N = 2**n >= 4.

    sin is evaluated for k in [0, N/4] only.  sin(pi - x) = sin(x)
    mirrors it onto [N/4, N/2], sin(x + pi) = -sin(x) gives the second
    half-turn, and cos(x) = sin(x + pi/2) is the sin table rotated by
    N/4.  Each entry is therefore one long-double sin of an angle at
    most pi/2, and the zeros at multiples of pi/2 are exact.
    """
    q = N // 4
    angle = (2 * _PI_LD / np.longdouble(N)) * np.arange(q + 1).astype(np.longdouble)
    quarter = np.sin(angle)
    half = np.concatenate((quarter, quarter[-2:0:-1]))
    sin_table = np.concatenate((half, -half))
    return np.roll(sin_table, -q), sin_table


def _sin2_pi_ratio_ld(k: np.ndarray, denom: int) -> np.ndarray:
    """Vectorized sin^2(pi k / denom) for integer k already in [0, denom)."""
    kf = np.minimum(k, denom - k)
    x = kf.astype(np.longdouble) / np.longdouble(denom)
    s = np.sin(_PI_LD * x)
    return s * s


def prob_array(alphas: np.ndarray, params: Params) -> np.ndarray:
    """Closed-form probabilities for an array of signed arguments.

    80-bit float fast path for bulk scans on small registers; agrees
    with `prob` to ~1e-17 relative (checked by tests).  The three sines
    of each entry are gathered through the exact fold min(k, 2**n - k)
    from one table of sin^2(pi k / 2**n) over k in [0, 2**(n-1)],
    restricted to the multiples of the largest power of two dividing
    2**n and every argument (no other index occurs).  Each table entry
    is the expression a per-entry evaluation would compute, so the
    result is bit-identical to three sin calls per entry.  The table
    costs up to 2**(n-1) sin calls whatever the number of arguments, so
    this path is meant for arrays of comparable length.
    """
    _require_vector_width(params)
    N = params.two_n
    r = params.r
    d = derive(params)
    a = np.asarray(alphas, dtype=np.int64) % N
    nz = a != 0
    # Every sine index is a multiple of `step`, the largest power of two
    # dividing N and all arguments, so the table holds those multiples only.
    step = 1 << _two_adic_valuation(int(np.bitwise_or.reduce(a, axis=None)) | N)
    table = _sin2_pi_ratio_ld(np.arange(0, N // 2 + 1, step, dtype=np.int64), N)

    def sin2(k):
        return table[np.minimum(k, N - k) // step]

    s_hi = sin2((a * (d.L + 1)) % N)
    s_lo = sin2((a * d.L) % N)
    s_den = sin2(a)
    out = np.empty(a.shape, dtype=np.longdouble)
    NN = np.longdouble(N) * np.longdouble(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        out[nz] = (d.beta * s_hi[nz] + (r - d.beta) * s_lo[nz]) / (s_den[nz] * NN)
    if np.any(~nz):
        p0 = prob_zero(params)
        out[~nz] = np.longdouble(p0.numerator) / np.longdouble(p0.denominator)
    return out


def full_distribution(params: Params) -> np.ndarray:
    """Exact distribution over all frequencies j in [0, 2**n).

    Entry j equals prob({r j} mod 2**n).  The argument r j mod 2**n has
    period 2**n >> v in j (2**v the largest power of two dividing r), so
    prob_array evaluates one period and the result is that period tiled.
    Small registers only.
    """
    _require_vector_width(params)
    N = params.two_n
    period = N >> _two_adic_valuation(params.r)
    j = np.arange(period, dtype=np.int64)
    return np.tile(prob_array((params.r * j) % N, params), N // period)


def window_mass(z: int, params: Params, B: int, prec: int | None = None) -> mpmath.mpf:
    """Total probability of the 2B+1 frequencies nearest to peak z.

    Requires B < B_max so the window stays inside the peak's own cell.
    """
    if B < 1 or params.r * (2 * B + 1) >= params.two_n:
        raise ValueError(f"window B={B} must satisfy 1 <= B < B_max")
    pk = peak(z, params)
    with mpmath.workprec(prec or default_prec(params)):
        return mpmath.fsum(
            prob(pk.alpha0 + params.r * t, params, prec) for t in range(-B, B + 1)
        )


@dataclass(frozen=True)
class SampleResult:
    """One simulated measurement: frequency j at offset t from peak z.

    tail=True marks a draw whose cumulative mass was not reached within
    the configured offset budget; consumers treat it as a failed run, so
    empirical success rates remain valid lower estimates.
    """

    z: int
    t: int | None
    j: int | None
    tail: bool


class Sampler:
    """Draws frequencies from the exact distribution for a known order.

    A peak index z is drawn uniformly (each peak carries mass 1/r up to
    the window truncation error, which is booked as tail), then the
    offset t is drawn by accumulating the conditional masses
    r * P(alpha0(z) + r t) outward (t = 0, +1, -1, +2, ...) against a
    uniform variate.  Offsets are capped at min(t_max, floor(B_max)),
    past which the walk would leave the peak's cell; the unreached
    remainder is reported as tail.

    Per-peak cumulative masses are cached, so repeated draws for the
    same parameters cost a dictionary lookup plus a scan.
    """

    def __init__(self, params: Params, t_max: int = 2 ** 24, prec: int | None = None):
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.params = params
        self.prec = prec or default_prec(params)
        d = derive(params)
        self.t_cap = min(t_max, d.B_max_floor)
        self._cum: dict[int, list] = {}

    @staticmethod
    def _offset(i: int) -> int:
        # outward walk order: 0, +1, -1, +2, -2, ...
        k = (i + 1) // 2
        return k if i % 2 == 1 else -k

    def sample(self, rng: Rng) -> SampleResult:
        params = self.params
        z = rng.randrange(params.r)
        u = rng.unit_fraction(params.n + 48)
        n_offsets = 2 * self.t_cap + 1
        with mpmath.workprec(self.prec):
            # u arrives reduced, so divide by its own denominator, exactly
            target = mpmath.mpf(u.numerator) / mpmath.mpf(u.denominator)
            cum = self._cum.setdefault(z, [])
            i = bisect.bisect_left(cum, target)
            if i == len(cum):
                total = cum[-1] if cum else mpmath.mpf(0)
                alpha0 = peak(z, params).alpha0
                while len(cum) < n_offsets and total < target:
                    t = self._offset(len(cum))
                    total += params.r * prob(alpha0 + params.r * t, params, self.prec)
                    cum.append(total)
                if total < target:
                    return SampleResult(z=z, t=None, j=None, tail=True)
                i = len(cum) - 1
            t = self._offset(i)
            j = (peak(z, params).j0 + t) % params.two_n
            return SampleResult(z=z, t=t, j=j, tail=False)
