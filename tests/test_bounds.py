"""Analytic bounds, the reference table, and the auxiliary inequalities."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from orderlab.bounds import (
    REFERENCE_B_COLUMNS,
    REFERENCE_C_ROWS,
    approx_error_bound,
    carmichael_value,
    cos_inequalities,
    dyadic_band_bound,
    enumeration_budget,
    factoring_success_bound,
    floor_decimals,
    lattice_success_bound,
    relative_error_bound,
    single_run_success_bound,
    smoothness_bound,
    success_bound_table,
    trigamma_reference,
    trigamma_upper,
    window_inverse_square_closed,
    window_inverse_square_sum,
    window_mass_lower_bound,
)
from orderlab.distribution import approx_prob, prob, window_mass
from orderlab.model import Params


class TestRelativeErrorBound:
    def test_formula(self):
        for B in (1, 7, 1000):
            want = (2 / B + 1 / B ** 2 + 1 / (3 * B ** 3)) / math.pi ** 2
            assert abs(float(relative_error_bound(B)) - want) < 1e-15

    def test_decreasing(self):
        vals = [float(relative_error_bound(B)) for B in (1, 2, 5, 10, 100)]
        assert vals == sorted(vals, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            relative_error_bound(0)


class TestApproxErrorBound:
    def test_strict_below_loose(self):
        # r < 2**n makes 3/4 + (r / 2**n) / 12 < 1: below the loose pi^2 / 2**n
        p = Params(r=1000, m=10, ell=10)
        assert float(approx_error_bound(p)) < math.pi ** 2 / p.two_n

    def test_formula(self):
        # working precision is n + 32 bits, so compare at ~2**-40 relative
        p = Params(r=13, m=4, ell=4)
        want = math.pi ** 2 / 256 * (3 / 4 + 13 / 256 / 12)
        assert abs(float(approx_error_bound(p)) - want) < 1e-11 * want

    @pytest.mark.parametrize("r", [5, 12, 19])
    def test_bounds_exact_minus_approx(self, r):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m)
        bound = approx_error_bound(p)
        for alpha in range(-(p.two_n // 2), p.two_n // 2):
            if alpha:
                assert abs(prob(alpha, p) - approx_prob(alpha, p)) < bound, alpha


class TestWindowMassLowerBound:
    @pytest.mark.parametrize("r", [5, 12, 19, 32])
    @pytest.mark.parametrize("B", [1, 2])
    def test_below_true_mass_everywhere(self, r, B):
        m = r.bit_length()
        p = Params(r=r, m=m, ell=m + 2)
        bound = float(window_mass_lower_bound(p, B))
        for z in range(r):
            assert float(window_mass(z, p, B)) >= bound


class TestScalarBounds:
    def test_smoothness_bound_value(self):
        want = 1 - 1 / (10 * math.log2(1280))
        assert abs(float(smoothness_bound(10, 128)) - want) < 1e-12

    def test_smoothness_bound_validation(self):
        with pytest.raises(ValueError):
            smoothness_bound(0.5, 128)
        with pytest.raises(ValueError):
            smoothness_bound(1, 1)

    def test_single_run_composition(self):
        m = ell = 128
        B, c = 10, 10.0
        eps = float(relative_error_bound(B))
        rho = 2.0 ** (-(m + ell) / 2)
        order_term = math.pi ** 2 * (2 * B + 1) * rho
        want = (1 - eps - order_term) * float(smoothness_bound(c, m))
        got = float(single_run_success_bound(m, ell, B, c))
        assert abs(got - want) < 1e-12

    def test_elimination_variants(self):
        sqrt_b = float(single_run_success_bound(16, 8, 4, 10, elimination="sqrt"))
        pow_b = float(single_run_success_bound(16, 8, 4, 10, elimination="pow2ell"))
        # rho = 2**-12 vs 2**-8: the sqrt variant keeps more mass
        assert sqrt_b > pow_b
        with pytest.raises(ValueError):
            single_run_success_bound(16, 8, 4, 10, elimination="other")

    def test_matches_reference_cell(self):
        got = floor_decimals(single_run_success_bound(128, 128, 10, 10))
        assert got == "0.96920"


class TestEnumerationBudget:
    def test_against_high_precision_ceiling(self):
        with mpmath.workprec(256):
            for delta in range(0, 41):
                want = int(mpmath.ceil(6 * mpmath.sqrt(3) * 2 ** delta))
                assert enumeration_budget(delta) == want

    def test_small_values(self):
        assert enumeration_budget(0) == 11
        assert enumeration_budget(1) == 21
        assert enumeration_budget(2) == 42

    def test_validation(self):
        with pytest.raises(ValueError):
            enumeration_budget(-1)


class TestLatticeBound:
    def test_composition(self):
        bound, budget = lattice_success_bound(20, 4, 3, 25)
        assert budget == enumeration_budget(4)
        assert float(bound) == float(
            single_run_success_bound(20, 16, 3, 25, elimination="pow2ell")
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            lattice_success_bound(8, 8, 3, 25)


class TestFloorDecimals:
    def test_rounds_down_not_nearest(self):
        assert floor_decimals(mpmath.mpf("0.999999")) == "0.99999"
        assert floor_decimals(mpmath.mpf("0.123456789")) == "0.12345"

    def test_exact_values_survive(self):
        assert floor_decimals(mpmath.mpf("0.5")) == "0.50000"

    def test_places(self):
        # always five places: the sixth and later digits are cut, never rounded
        assert floor_decimals(mpmath.mpf("0.987654")) == "0.98765"
        assert floor_decimals(mpmath.mpf("2.0000099")) == "2.00000"
        assert floor_decimals(mpmath.mpf(3)) == "3.00000"


class TestReferenceTable:
    def test_axes(self):
        assert REFERENCE_C_ROWS == (1, 10, 25, 100, 250, 500, 1000)
        assert REFERENCE_B_COLUMNS == (1, 10, 100, 1000, 10 ** 4, 10 ** 5)

    def test_spot_cells(self):
        table = success_bound_table()
        assert len(table) == 7 and all(len(row) == 6 for row in table)
        assert table[0][0] == "0.56765"
        assert table[1][1] == "0.96920"
        assert table[6][5] == "0.99993"


class TestDyadicBandBound:
    def test_values(self):
        assert dyadic_band_bound(1, 4) == Fraction(1, 1)  # min(8, 1) -> 1
        assert dyadic_band_bound(4, 4) == Fraction(1, 1)  # min(1, 8) -> 1
        assert dyadic_band_bound(6, 4) == Fraction(1, 4)
        assert dyadic_band_bound(1, 10) == Fraction(1, 64)

    def test_min_structure(self):
        for m in range(2, 12):
            for t in range(1, m + 4):
                b = dyadic_band_bound(t, m)
                assert b == min(Fraction(2) ** (m - t), Fraction(2) ** (t + 3 - m))

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_band_bound(0, 4)


class TestTrigamma:
    def test_upper_bound_strict(self):
        for x in (0.5, 1.0, 2.0, 10.0, 500.0):
            assert trigamma_upper(x) > trigamma_reference(x, terms=10 ** 5)

    def test_reference_against_mpmath(self):
        # remainder after 10**6 terms is below 1/(2e12)
        for x in (0.5, 1.0, 3.25, 100.0):
            want = float(mpmath.polygamma(1, mpmath.mpf(x)))
            assert abs(trigamma_reference(x) - want) < 1e-11

    def test_validation(self):
        with pytest.raises(ValueError):
            trigamma_upper(0.0)
        with pytest.raises(ValueError):
            trigamma_reference(-1.0)


class TestWindowInverseSquare:
    @given(
        st.integers(3, 50),
        st.integers(1, 30),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_direct(self, r, B, frac):
        alpha0 = mpmath.mpf(frac.numerator) / frac.denominator * r / 2
        direct = window_inverse_square_sum(alpha0, r, B)
        closed = window_inverse_square_closed(alpha0, r, B)
        assert abs(direct - closed) < 1e-25 * direct

    def test_symmetric_in_alpha0(self):
        a = window_inverse_square_closed(mpmath.mpf("1.5"), 7, 5)
        b = window_inverse_square_closed(mpmath.mpf("-1.5"), 7, 5)
        assert abs(a - b) < 1e-30


class TestCosInequalities:
    def test_margins_nonnegative_on_grid(self):
        for i in range(2001):
            phi = -math.pi + i * (2 * math.pi / 2000)
            phi = max(-math.pi, min(math.pi, phi))
            m = cos_inequalities(phi)
            assert m.lower >= -1e-15
            assert m.upper >= -1e-15
            assert m.quartic >= -1e-15

    def test_tight_points(self):
        at_pi = cos_inequalities(math.pi)
        assert abs(at_pi.lower) < 1e-15  # equality at the endpoint
        at_zero = cos_inequalities(0.0)
        assert at_zero.upper == 0.0 and at_zero.quartic == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            cos_inequalities(3.2)


class TestCarmichael:
    def test_values(self):
        assert carmichael_value({3: 1, 5: 1}) == 4
        assert carmichael_value({3: 1, 11: 1, 17: 1}) == 80  # 561
        assert carmichael_value({3: 2, 5: 1}) == 12
        assert carmichael_value({7: 1}) == 6

    def test_check(self):
        # the group exponent of N with n >= 2 distinct primes is below
        # 2**(1-n) N
        for f in ({3: 1, 5: 1}, {3: 1, 11: 1, 17: 1}, {3: 2, 5: 1}):
            N = math.prod(p ** e for p, e in f.items())
            assert (1 << (len(f) - 1)) * carmichael_value(f) < N, f

    def test_validation(self):
        with pytest.raises(ValueError):
            carmichael_value({2: 1, 5: 1})


class TestFactoringBound:
    def test_monotone_in_runs(self):
        vals = [
            float(factoring_success_bound(2048, 2, k, 1.0, 10, 10))
            for k in (1, 2, 4, 8)
        ]
        assert vals == sorted(vals)

    def test_within_unit_interval_for_sane_inputs(self):
        v = float(factoring_success_bound(2048, 2, 8, 1.0, 1000, 25))
        assert 0 < v < 1

    @pytest.mark.parametrize("n_primes,k,sigma", [(2, -1, 25.0), (1, 10, 25.0), (2, 10, 0.5)])
    def test_validation(self, n_primes, k, sigma):
        with pytest.raises(ValueError):
            factoring_success_bound(64, n_primes, k, sigma, 10, 25)
