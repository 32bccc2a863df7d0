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

Three evaluation routes are provided on purpose: `prob` (arbitrary
precision, one argument at a time), the sampler's float64 masses
(`_float_mass`, with a proven relative error bound, used only where that
bound decides the walk exactly as `prob` would), and
`prob_array`/`full_distribution` (vectorized 80-bit floats, small
registers only).  The vectorized route reads its sines from one table
of sin^2(pi k / 2**n), k in [0, 2**(n-1)], whose entries are the same
long-double expression as a per-entry evaluation, so its output does
not depend on the table.

`prob_bruteforce` and `bruteforce_distribution` evaluate the defining
double sum term by term and exist purely as oracles to check the closed
form against.  The bulk one reads its terms from one complex table of
the unit circle, e^(2 pi i k / 2**n) for k in [0, 2**n), built from a
quarter wave, and shares neither table nor formula with the closed
form.

Both tables depend on the register width only, not on r.  Each is built
once, made read-only, and kept for the latest width at which that table
was read, and only up to n = _TABLE_WIDTH_LIMIT; wider tables are built
per call and dropped.

Since alpha = r j mod 2**n repeats with period 2**n >> v in j, where
2**v is the largest power of two dividing r, both bulk functions
evaluate one period and tile it when it is shorter than 2**n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .model import DerivedParams, Params, Rng, derive, peak

# Vectorized paths accumulate up to 2**n terms in 80-bit floats; past
# this width they would be both slow and inaccurate.
_VECTOR_WIDTH_LIMIT = 24

# Widest register whose sine tables are kept between calls: at n = 20
# they take 40 MB together, and the complex one alone would be 512 MB
# at n = 24.
_TABLE_WIDTH_LIMIT = 20

# Most terms bruteforce_distribution gathers at once (whole rows of L+1
# terms, at least one): 1 MB of 80-bit complex values, however many rows
# that is, so memory does not grow with the row count.
_GATHER_ELEMENTS = 1 << 15

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
        return r * _folded_sin2(alpha, r) / (mpmath.pi * alpha) ** 2


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
        return r * _folded_sin2(alpha, r) / (_folded_sin2(abs(alpha), N) * N * N)


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
    bulk use.  Entry j depends on j only through alpha = r j mod 2**n,
    which repeats with period M = 2**n >> v (2**v the largest power of
    two dividing r), so one period of M frequencies is summed, and tiled
    when M < 2**n.  Every term e^(2 pi i alpha b / 2**n) is entry
    (alpha b) mod 2**n of the cached unit circle of width 2**n
    (_unit_circle); alpha is a multiple of 2**v, and since 2 pi / M is
    2**v times 2 pi / 2**n exactly, entry k 2**v of that circle is bit
    for bit entry k of the period-M circle (_unit_circle_tables(M)).
    Rows of term indices are gathered from it in blocks of at most
    _GATHER_ELEMENTS terms (a row is never split).  The two inner-sum
    lengths L and L+1 that occur across residue classes are read off as
    the sum of the first L columns and that sum plus the last column,
    the real and imaginary parts each summed as one real row, so the
    output is bit-identical to summing separate cos and sin tables.
    Every term is still added one at a time, and no closed form,
    geometric-sum identity or symmetry of the distribution is used, so
    the output is an independent oracle for prob_array /
    full_distribution.
    """
    _require_vector_width(params)
    N = params.two_n
    r = params.r
    d = derive(params)
    period = N >> _two_adic_valuation(r)
    circle = _unit_circle(N)
    b = np.arange(d.L + 1, dtype=np.int64)
    rows = min(period, max(1, _GATHER_ELEMENTS // (d.L + 1)))
    # theta[i, b] = r (lo + i) b mod 2**n for the block of rows from lo;
    # moving to the next block adds r rows b mod 2**n to column b
    theta = ((r * np.arange(rows, dtype=np.int64)) & (N - 1))[:, None] * b
    theta &= N - 1
    step = np.empty_like(theta)
    step[:] = (((r * rows) & (N - 1)) * b) & (N - 1)
    out = np.empty(period, dtype=np.longdouble)
    NN = np.longdouble(N) * np.longdouble(N)
    for lo in range(0, period, rows):
        if lo:
            theta += step
            theta &= N - 1
        terms = np.take(circle, theta[: period - lo])
        cre, cim = terms.real, terms.imag
        c_lo = cre[:, :-1].sum(axis=1)
        s_lo = cim[:, :-1].sum(axis=1)
        c_hi = c_lo + cre[:, -1]
        s_hi = s_lo + cim[:, -1]
        out[lo : lo + len(terms)] = (
            d.beta * (c_hi * c_hi + s_hi * s_hi)
            + (r - d.beta) * (c_lo * c_lo + s_lo * s_lo)
        ) / NN
    return out if period == N else np.tile(out, N // period)


def _two_adic_valuation(r: int) -> int:
    """Exponent of the largest power of two dividing r > 0."""
    return (r & -r).bit_length() - 1


def _per_width(build):
    """Cache build(N), a table that depends on the register width only.

    The cached function returns build(N) made read-only, and keeps the
    table of the latest width N <= 2**_TABLE_WIDTH_LIMIT it was called
    at.  Wider tables are built on each call and not kept.
    """
    kept = functools.lru_cache(maxsize=1)(build)

    @functools.wraps(build)
    def cached(N: int) -> np.ndarray:
        table = kept(N) if N <= 1 << _TABLE_WIDTH_LIMIT else build(N)
        table.flags.writeable = False
        return table

    return cached


def _quarter_sines(N: int) -> np.ndarray:
    """sin(2 pi k / N) for k in [0, N/4], one long-double sin each."""
    angle = (2 * _PI_LD / np.longdouble(N)) * np.arange(N // 4 + 1).astype(np.longdouble)
    return np.sin(angle)


@_per_width
def _unit_circle(N: int) -> np.ndarray:
    """e^(2 pi i k / N) for k in [0, N), N = 2**n >= 4, as clongdouble.

    The imaginary parts come from _quarter_sines: sin(pi - x) = sin(x)
    mirrors them onto [N/4, N/2], and sin(x + pi) = -sin(x) gives the
    second half-turn.  The real parts are cos(x) = sin(x + pi/2), the
    imaginary parts read N/4 further on.  Each entry is therefore the
    same long-double sin as in _unit_circle_tables(N), and the zeros at
    multiples of pi/2 are exact.
    """
    q = N // 4
    circle = np.empty(N, dtype=np.clongdouble)
    s = circle.imag
    s[: q + 1] = _quarter_sines(N)
    s[q + 1 : 2 * q] = s[q - 1 : 0 : -1]
    np.negative(s[: 2 * q], out=s[2 * q :])
    c = circle.real
    c[: N - q] = s[q:]
    c[N - q :] = s[:q]
    return circle


def _unit_circle_tables(N: int) -> tuple[np.ndarray, np.ndarray]:
    """cos(2 pi k / N) and sin(2 pi k / N) for k in [0, N), N = 2**n >= 4.

    Two real tables built apart from _unit_circle, as the reference the
    tests pin it against: _unit_circle(2**n) at k 2**v must equal these
    tables at N = 2**n >> v bit for bit.  sin is _quarter_sines(N) on
    [0, N/4], mirrored by sin(pi - x) = sin(x) and negated by
    sin(x + pi) = -sin(x); cos(x) = sin(x + pi/2) is the sin table
    rotated by N/4.
    """
    quarter = _quarter_sines(N)
    half = np.concatenate((quarter, quarter[-2:0:-1]))
    sin_table = np.concatenate((half, -half))
    return np.roll(sin_table, -(N // 4)), sin_table


@_per_width
def _sin2_table(N: int) -> np.ndarray:
    """sin^2(pi k / N) for k in [0, N/2], each entry one long-double sin
    of pi (k / N), squared: the expression a per-entry evaluation uses."""
    x = np.arange(N // 2 + 1).astype(np.longdouble)
    x /= np.longdouble(N)
    x *= _PI_LD
    np.sin(x, out=x)
    x *= x
    return x


def prob_array(alphas: np.ndarray, params: Params) -> np.ndarray:
    """Closed-form probabilities for an array of signed arguments.

    80-bit float fast path for bulk scans on small registers; agrees
    with `prob` to ~1e-17 relative (checked by tests).  The three sines
    of each entry are gathered through the exact fold min(k, 2**n - k)
    from the cached table of sin^2(pi k / 2**n) over k in [0, 2**(n-1)]
    (_sin2_table), built once per register width.  Each table entry is
    the expression a per-entry evaluation would compute, and the
    arithmetic runs in place in the same order as a per-entry formula,
    so the result is bit-identical to three sin calls per entry.
    """
    _require_vector_width(params)
    N = params.two_n
    r = params.r
    d = derive(params)
    a = np.asarray(alphas, dtype=np.int64) & (N - 1)
    table = _sin2_table(N)

    def sin2(mult):
        k = a * mult
        k &= N - 1
        np.minimum(k, N - k, out=k)
        return np.take(table, k)

    out = sin2(d.L + 1)
    out *= d.beta
    s_lo = sin2(d.L)
    s_lo *= r - d.beta
    out += s_lo
    del s_lo
    s_den = sin2(1)
    s_den *= np.longdouble(N) * np.longdouble(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(out, s_den, out=out)
    del s_den
    zero = a == 0
    if np.any(zero):
        p0 = prob_zero(params)
        out[zero] = np.longdouble(p0.numerator) / np.longdouble(p0.denominator)
    return out


def full_distribution(params: Params) -> np.ndarray:
    """Exact distribution over all frequencies j in [0, 2**n).

    Entry j equals prob({r j} mod 2**n).  The argument r j mod 2**n has
    period 2**n >> v in j (2**v the largest power of two dividing r), so
    prob_array evaluates one period, and the result is that period,
    tiled when it is shorter than 2**n.  Small registers only.
    """
    _require_vector_width(params)
    N = params.two_n
    period = N >> _two_adic_valuation(params.r)
    dist = prob_array(params.r * np.arange(period, dtype=np.int64), params)
    return dist if period == N else np.tile(dist, N // period)


def window_mass(z: int, params: Params, B: int) -> mpmath.mpf:
    """Total probability of the 2B+1 frequencies nearest to peak z.

    Requires B < B_max so the window stays inside the peak's own cell.
    """
    if B < 1 or params.r * (2 * B + 1) >= params.two_n:
        raise ValueError(f"window B={B} must satisfy 1 <= B < B_max")
    pk = peak(z, params)
    with mpmath.workprec(default_prec(params)):
        return mpmath.fsum(
            prob(pk.alpha0 + params.r * t, params) for t in range(-B, B + 1)
        )


@dataclass(frozen=True)
class SampleResult:
    """One simulated measurement: frequency j at offset t from peak z.

    t = j = None marks a tail: a draw whose cumulative mass was not
    reached within the configured offset budget.  Consumers treat it as
    a failed run, so empirical success rates remain valid lower
    estimates.
    """

    z: int
    t: int | None
    j: int | None


_U = 2.0 ** -53  # unit roundoff of float64
# Relative error bound of one _float_mass term, proved in its docstring.
_MASS_REL_ERR = 32 * _U
# Widest register that walks in float64; wider registers walk in mpmath
# only.  Every float of _float_mass then stays normal: a nonzero folded
# sine square is at least 4 / 2**(2n), as sin x >= 2x/pi on [0, pi/2], so
# the quotient 2**(2n) P, a nonzero numerator over a square at most 1, is
# too, and P is 0 or at least 2**(2 - 4n) >= 2**-1022 for n <= 256.
_FLOAT_WIDTH_LIMIT = 256
_UNDECIDED = object()


def _walk_offset(i: int) -> int:
    """Offset of step i of the outward walk: 0, +1, -1, +2, -2, ..."""
    k = (i + 1) // 2
    return k if i % 2 == 1 else -k


def _float_sin2(numer: int, denom: int) -> float:
    """sin^2(pi * numer / denom) in float64, folded exactly as _folded_sin2."""
    k = numer % denom
    k = min(k, denom - k)
    if k == 0:
        return 0.0
    s = math.sin(math.pi * (k / denom))
    return s * s


def _float_mass(alpha: int, params: Params, d: DerivedParams) -> float:
    """r * P(alpha) in float64 with relative error at most _MASS_REL_ERR.

    With u = 2**-53 and every float normal (n <= _FLOAT_WIDTH_LIMIT),
    to first order in u:
      - k / 2**n is one correctly rounded int division (u), fl(pi) is
        within u/2 of pi, and their product rounds once (u), so the
        angle theta in (0, pi/2] is off by at most 2.5u relative.  Since
        theta cot(theta) <= 1 there, sin moves by at most 2.5u relative;
        math.sin adds at most one ulp (2u), the C library's documented
        accuracy, and squaring doubles that and rounds once: each sine
        square is within 10u.
      - float(beta) and float(r - beta) round once (u) and each product
        rounds once (u): 12u per product; the sum of the two
        non-negative products adds u: 13u.
      - dividing by the denominator's sine square (10u) rounds once:
        24u.  ldexp by -2n is exact while the result stays normal.
      - float(r) and the final product add u each: 26u.
    The second-order terms are below u, so 32u covers the whole term.
    P(0) is the one correctly rounded division r * numerator /
    denominator of prob_zero, within u.
    """
    r = params.r
    if alpha == 0:
        p0 = prob_zero(params)
        return r * p0.numerator / p0.denominator
    N = params.two_n
    num = (float(d.beta) * _float_sin2(alpha * (d.L + 1), N)
           + float(r - d.beta) * _float_sin2(alpha * d.L, N))
    q = num / _float_sin2(abs(alpha), N)
    return float(r) * math.ldexp(q, -2 * params.n)


def _float_walk(alpha0: int, U: int, bits: int, params: Params, d: DerivedParams, t_cap: int):
    """The sampler walk in float64: the offset _mpmath_walk returns, None
    for a tail, or _UNDECIDED when a comparison is too close to call.

    At step i (i + 1 terms) the float total S and the float target T
    decide `cum[i] >= U / 2**bits` for the mpmath walk's cum only when
    they differ by more than the slack 2 (32u + (i + 1) u) max(S, T),
    which covers:
      - the float terms, each within 32u of r * P (_float_mass);
      - the float sum of i + 1 non-negative terms, within i u / (1 - i u)
        times their exact sum (Higham, Accuracy and Stability of
        Numerical Algorithms, section 4.2);
      - the mpmath walk at p = n + 64 >= 66 bits, whose terms are within
        16 * 2**-p and whose sums add 2**-p per step, far below u;
      - T = U / 2**bits, one correctly rounded int division, within u.
    These add up to less than (32u + (i + 1) u) max(S, T) times a factor
    below 1.001 for any walk under 2**40 steps; the factor 2 also
    absorbs the rounding of the slack and of S - T themselves.
    """
    if params.n > _FLOAT_WIDTH_LIMIT:
        return _UNDECIDED
    r = params.r
    target = U / (1 << bits)
    total = 0.0
    for i in range(2 * t_cap + 1):
        t = _walk_offset(i)
        total += _float_mass(alpha0 + r * t, params, d)
        slack = 2 * (_MASS_REL_ERR + (i + 1) * _U) * max(total, target)
        if total - target > slack:
            return t
        if target - total <= slack:
            return _UNDECIDED
    return None


def _mpmath_walk(alpha0: int, U: int, bits: int, params: Params, t_cap: int) -> int | None:
    """The first offset of the outward walk whose cumulative mass, added
    up in mpmath at n + 64 bits, reaches U / 2**bits exactly; None for a
    tail."""
    prec = default_prec(params)
    r = params.r
    with mpmath.workprec(prec):
        # U < 2**bits and bits < prec, so the target is exact
        target = mpmath.ldexp(U, -bits)
        total = mpmath.mpf(0)
        for i in range(2 * t_cap + 1):
            t = _walk_offset(i)
            total += r * prob(alpha0 + r * t, params, prec)
            if total >= target:
                return t
    return None


class Sampler:
    """Draws frequencies from the exact distribution for a known order.

    A peak index z is drawn uniformly (each peak carries mass 1/r up to
    the window truncation error, which is booked as tail), then the
    offset t is drawn by accumulating the conditional masses
    r * P(alpha0(z) + r t) outward (t = 0, +1, -1, +2, ...) against the
    target U / 2**(n + 48), U a uniform integer of n + 48 bits.  Offsets
    are capped at min(t_max, floor(B_max)), past which the walk would
    leave the peak's cell; the unreached remainder is reported as tail.

    The draw is defined by _mpmath_walk: the first offset whose
    cumulative mass, added up in mpmath at n + 64 bits, reaches the
    target.  The walk runs in float64 (_float_walk) and falls back to
    _mpmath_walk, on the same z and U, only when a certified error band
    cannot decide a comparison or the register is too wide for float64.
    Either way the result is the same draw.
    """

    def __init__(self, params: Params, t_max: int):
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.params = params
        self._derived = derive(params)
        self.t_cap = min(t_max, self._derived.B_max_floor)

    def sample(self, rng: Rng) -> SampleResult:
        params = self.params
        z = rng.randrange(params.r)
        bits = params.n + 48
        U = rng.getrandbits(bits)
        pk = peak(z, params)
        t = _float_walk(pk.alpha0, U, bits, params, self._derived, self.t_cap)
        if t is _UNDECIDED:
            t = _mpmath_walk(pk.alpha0, U, bits, params, self.t_cap)
        if t is None:
            return SampleResult(z=z, t=None, j=None)
        return SampleResult(z=z, t=t, j=(pk.j0 + t) % params.two_n)
