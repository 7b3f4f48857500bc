import math
import warnings

import numpy as np
import pytest

from frechet_laplace.distributions import (LevyIndex, RationalShape, Shape,
                                           find_maximum, frechet_cdf,
                                           frechet_mode, frechet_moment,
                                           frechet_pdf, frechet_quantile,
                                           levy_asymptotic, levy_asymptotic_mode,
                                           levy_asymptotic_rescaled,
                                           levy_moment, levy_pdf_half)
from frechet_laplace.errors import DivergentMoment, DomainError
from frechet_laplace.laplace import LaplaceQuery, Method, laplace_frechet
from frechet_laplace.numerics import integrate_semi_infinite


def quad_over_halfline(f):
    return integrate_semi_infinite(f, 0.0).value


def on_array(f):
    return np.vectorize(f, otypes=[float])


class TestShapes:
    def test_rational_shape_reduces(self):
        s = RationalShape(4, 6)
        assert (s.l, s.k) == (2, 3)
        assert math.isclose(s.gamma, 2.0 / 3.0)
        assert RationalShape(np.int64(4), 6) == s

    def test_rational_shape_swapped(self):
        assert RationalShape(2, 3).swapped() == RationalShape(3, 2)

    @pytest.mark.parametrize("l,k", [(0, 1), (1, 0), (-2, 3)])
    def test_rational_shape_validation(self, l, k):
        with pytest.raises(DomainError):
            RationalShape(l, k)

    @pytest.mark.parametrize("l,k", [(1.5, 2), (2.0, 4), (math.nan, 2), (2, math.inf), (2, "3")])
    def test_rational_shape_needs_integers(self, l, k):
        # MeijerSpec's check: anything but an int or a numpy integer is a
        # DomainError, never math.gcd's TypeError
        with pytest.raises(DomainError, match="integers"):
            RationalShape(l, k)

    @pytest.mark.parametrize("l,k", [(2**53 + 1, 1), (1, 2**53 + 1), (2 * (2**53 + 1), 2),
                                     (10**20, 1), (10**30, 1), (1, 10**200), (10**400, 3)])
    def test_rational_shape_is_capped_at_2_53(self, l, k):
        # past 2**53 a reduced l or k is no exact binary64 integer: refused
        # where the shape is built, before a route can hang or overflow on it
        with pytest.raises(DomainError, match=r"2\*\*53"):
            RationalShape(l, k)

    @pytest.mark.parametrize("l,k", [(2**53, 1), (1, 2**53), (2**54, 2)])
    @pytest.mark.parametrize("p", [1e-8, 1e4])
    def test_rational_shape_at_the_cap_evaluates(self, l, k, p):
        shape = RationalShape(l, k)
        assert max(shape.l, shape.k) == 2**53
        for method in Method:
            res = laplace_frechet(LaplaceQuery(shape, p, method))
            assert 0.0 <= res.value <= 1.0

    @pytest.mark.parametrize("g", [0.0, -1.0, math.inf, math.nan])
    def test_shape_validation(self, g):
        with pytest.raises(DomainError):
            Shape(g)

    @pytest.mark.parametrize("a", [0.0, 1.0, 1.5, -0.2])
    def test_levy_index_validation(self, a):
        with pytest.raises(DomainError):
            LevyIndex(a)


class TestFrechetPdf:
    def test_unit_point(self):
        assert math.isclose(frechet_pdf(Shape(1.0), 1.0), math.exp(-1.0), rel_tol=1e-15)

    def test_origin_limit(self):
        assert frechet_pdf(Shape(2.0), 0.0) == 0.0
        for g in (0.5, 1.0, 4.0):
            assert frechet_pdf(Shape(g), 1e-12) == pytest.approx(0.0, abs=1e-300)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            frechet_pdf(Shape(1.0), -0.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            frechet_pdf(Shape(1.0), math.nan)

    @pytest.mark.parametrize("g", [1.0 / 3.0, 0.5, 1.0, 2.0, 3.0])
    def test_normalization(self, g):
        total = quad_over_halfline(on_array(lambda x: frechet_pdf(Shape(g), x)))
        assert abs(total - 1.0) <= 1e-10

    @pytest.mark.parametrize("g", [1.0 / 3.0, 0.5, 1.0, 2.0, 4.0])
    def test_unimodal(self, g):
        xs = np.geomspace(1e-3, 1e3, 2000)
        vals = np.array([frechet_pdf(Shape(g), float(x)) for x in xs])
        diffs = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
        assert changes == 1  # rises once, falls once

    @pytest.mark.parametrize("g", [1.0, 2.0, 3.0])
    def test_tail_exponent(self, g):
        x = 1e6
        assert math.isclose(frechet_pdf(Shape(g), x) * x ** (1.0 + g), g, rel_tol=1e-4)

    def test_tail_exponent_heavy_tail(self):
        # the correction term is x^{-gamma}, so small gamma needs larger x
        g, x = 0.5, 1e10
        assert math.isclose(frechet_pdf(Shape(g), x) * x ** (1.0 + g), g, rel_tol=1e-4)

    def test_mode_matches_golden_section(self):
        for g in (0.5, 1.0, 3.0):
            x_star, _ = find_maximum(lambda u: frechet_pdf(Shape(g), u))
            analytic = (g / (1.0 + g)) ** (1.0 / g)
            assert abs(x_star - analytic) <= 1e-7


class TestCdfQuantile:
    def test_unit_point(self):
        assert math.isclose(frechet_cdf(Shape(1.0), 1.0), math.exp(-1.0), rel_tol=1e-15)

    @pytest.mark.parametrize("g", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("x", [0.3, 1.0, 5.0])
    def test_roundtrip(self, g, x):
        q = frechet_cdf(Shape(g), x)
        assert math.isclose(frechet_quantile(Shape(g), q), x, rel_tol=1e-12)

    def test_cdf_matches_integrated_pdf(self):
        g = 2.0 / 3.0
        shape = Shape(g)
        from scipy.integrate import quad
        integral, _ = quad(lambda u: frechet_pdf(shape, u), 0.0, 2.0,
                           epsabs=1e-13, epsrel=1e-12, limit=200)
        assert abs(frechet_cdf(shape, 2.0) - integral) <= 1e-10

    def test_domains(self):
        with pytest.raises(DomainError):
            frechet_cdf(Shape(1.0), 0.0)
        with pytest.raises(DomainError):
            frechet_quantile(Shape(1.0), 0.0)
        with pytest.raises(DomainError):
            frechet_quantile(Shape(1.0), 1.0)


class TestFrechetMoment:
    def test_normalization_moment(self):
        assert frechet_moment(Shape(1.7), 0.0) == 1.0

    def test_half_gamma(self):
        assert math.isclose(frechet_moment(Shape(2.0), 1.0), math.sqrt(math.pi),
                            rel_tol=1e-15)

    def test_negative_order_matches_quadrature(self):
        closed = frechet_moment(Shape(1.0), -2.0)
        assert math.isclose(closed, 2.0, rel_tol=1e-14)  # Gamma(3)
        pdf = on_array(lambda x: frechet_pdf(Shape(1.0), x))
        quad = quad_over_halfline(lambda x: x ** -2.0 * pdf(x))
        assert abs(closed - quad) <= 1e-10

    def test_random_orders_match_quadrature(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            g = rng.uniform(0.5, 4.0)
            mu = rng.uniform(-2.0, g - 0.5)
            closed = frechet_moment(Shape(g), mu)
            pdf = on_array(lambda x: frechet_pdf(Shape(g), x))
            quad = quad_over_halfline(lambda x: x ** mu * pdf(x))
            assert abs(closed - quad) <= 1e-8 * abs(closed)

    @pytest.mark.parametrize("g,mu", [(1.0, 1.0), (2.0, 2.0), (0.5, 0.7)])
    def test_divergent(self, g, mu):
        with pytest.raises(DivergentMoment):
            frechet_moment(Shape(g), mu)

    def test_overflow_is_domain_error(self):
        # Gamma(201) is past the binary64 range
        with pytest.raises(DomainError, match="overflows binary64"):
            frechet_moment(Shape(1.0), -200.0)

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError):
            frechet_moment(Shape(1.0), -math.inf)


class TestLevyHalf:
    def test_origin_limit(self):
        assert levy_pdf_half(1e-12) == pytest.approx(0.0, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_pdf_half(0.0)

    @pytest.mark.parametrize("p", [0.5, 1.0, 4.0])
    def test_laplace_pin(self, p):
        value = quad_over_halfline(lambda x: np.exp(-p * x) * on_array(levy_pdf_half)(x))
        assert abs(value - math.exp(-math.sqrt(p))) <= 1e-9

    def test_normalization(self):
        assert abs(quad_over_halfline(on_array(levy_pdf_half)) - 1.0) <= 1e-10


class TestLevyMoment:
    def test_zeroth(self):
        assert levy_moment(LevyIndex(0.5), 0.0) == 1.0

    def test_integer_gammas(self):
        assert math.isclose(levy_moment(LevyIndex(0.5), -1.0), 2.0, rel_tol=1e-14)

    def test_quarter_order_matches_quadrature(self):
        closed = levy_moment(LevyIndex(0.5), 0.25)
        expected = math.gamma(0.5) / math.gamma(0.75)
        assert math.isclose(closed, expected, rel_tol=1e-14)
        quad = quad_over_halfline(lambda x: x ** 0.25 * on_array(levy_pdf_half)(x))
        assert abs(closed - quad) <= 1e-9 * abs(closed)

    def test_divergent(self):
        with pytest.raises(DivergentMoment):
            levy_moment(LevyIndex(0.5), 0.5)

    def test_overflow_is_domain_error(self):
        # Gamma(401) / Gamma(201) is about 1e493
        with pytest.raises(DomainError, match="overflows binary64"):
            levy_moment(LevyIndex(0.5), -200.0)

    def test_ratio_in_range_despite_gamma_overflow(self):
        # Gamma(201) overflows on its own; Gamma(201) / Gamma(101) = 200! / 100!
        expected = math.exp(math.lgamma(201.0) - math.lgamma(101.0))
        assert math.isclose(levy_moment(LevyIndex(0.5), -100.0), expected, rel_tol=1e-13)

    def test_infinite_order_rejected(self):
        with pytest.raises(DomainError):
            levy_moment(LevyIndex(0.5), -math.inf)


class TestLevyAsymptotic:
    @pytest.mark.parametrize("t", [0.05, 0.2, 1.0])
    def test_half_index_reproduces_elementary_law(self, t):
        assert math.isclose(levy_asymptotic(LevyIndex(0.5), t), levy_pdf_half(t),
                            rel_tol=1e-13)

    def test_quarter_index_finite_positive(self):
        for x in np.linspace(0.01, 3.0, 40):
            t = 27.0 * x / 256.0
            v = levy_asymptotic(LevyIndex(0.25), t)
            assert math.isfinite(v) and v >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_asymptotic(LevyIndex(0.5), 0.0)

    def test_tail_factor_beyond_binary64_gives_zero(self):
        # the tail factor e^{-alpha/(1-alpha) log t} is e^{6200} here
        assert levy_asymptotic(LevyIndex(0.9), 1e-300) == 0.0


class TestLevyAsymptoticRescaled:
    @staticmethod
    def rescaled_frechet_side(g, x):
        return ((1.0 + g) ** (1.0 / g) / math.sqrt(2.0 * math.pi)
                * ((1.0 + g) / g) ** 1.5 * x ** (g / 2.0)
                * frechet_pdf(Shape(g), x))

    def test_gamma_one_maps_to_half_index(self):
        # gamma = 1 corresponds to alpha = 1/2 and t = x/4
        x = 0.8
        lhs = levy_asymptotic_rescaled(Shape(1.0), x)
        assert math.isclose(lhs, levy_asymptotic(LevyIndex(0.5), x / 4.0),
                            rel_tol=1e-14)

    @pytest.mark.parametrize("g,x", [(1.0, 0.5), (1.0 / 3.0, 1.0), (2.0, 0.7)])
    def test_identity_at_reference_points(self, g, x):
        lhs = levy_asymptotic_rescaled(Shape(g), x)
        rhs = self.rescaled_frechet_side(g, x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_identity_random_sample(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            g = rng.uniform(0.2, 4.0)
            x = rng.uniform(0.05, 5.0)
            lhs = levy_asymptotic_rescaled(Shape(g), x)
            rhs = self.rescaled_frechet_side(g, x)
            if rhs == 0.0:
                assert lhs == 0.0
            else:
                assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_origin_limit(self):
        assert levy_asymptotic_rescaled(Shape(1.0), 1e-9) == pytest.approx(0.0, abs=1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_asymptotic_rescaled(Shape(1.0), -1.0)


class TestClosedFormModes:
    # fig4's two (alpha, gamma) pairs; golden-section search is the oracle.
    # Near a flat peak the densities carry a few 1e-16 of evaluation noise,
    # so the searched peak may read up to that much above the closed form's.
    @pytest.mark.parametrize("alpha, g", [(0.5, 1.0), (0.25, 1.0 / 3.0)])
    def test_peaks_match_golden_section(self, alpha, g):
        for density, mode, x_init in (
                (lambda t: levy_asymptotic(LevyIndex(alpha), t),
                 levy_asymptotic_mode(LevyIndex(alpha)), 0.25),
                (lambda u: frechet_pdf(Shape(g), u), frechet_mode(Shape(g)), 0.5)):
            peak = density(mode)
            x_star, searched = find_maximum(density, x_init=x_init)
            assert abs(x_star - mode) <= 1e-7 * mode
            assert abs(peak - searched) <= 1e-15 * peak


class TestFindMaximumArguments:
    # x e^{-x} peaks at 1. A tolerance of 0 or below never ended the
    # golden-section loop, nor did one below binary64's resolution at the
    # peak; NaN skipped the loop and returned the bracket's midpoint, 1.25;
    # x_init = 0 returned (0.0, 0.0), outside (0, inf)
    @staticmethod
    def peaked(x):
        return x * math.exp(-x)

    @pytest.mark.parametrize("arg_tol", [0.0, -1.0, -math.inf, math.nan])
    def test_tolerance_must_be_positive(self, arg_tol):
        with pytest.raises(DomainError):
            find_maximum(self.peaked, 1.0, arg_tol)

    @pytest.mark.parametrize("x_init", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_start_must_be_finite_and_positive(self, x_init):
        with pytest.raises(DomainError):
            find_maximum(self.peaked, x_init)

    @pytest.mark.parametrize("arg_tol", [1e-300, 2.0**-1074, 1e-17])
    def test_tolerance_below_the_resolution_ends(self, arg_tol):
        # the loop ends once the bracket stops shrinking, near the peak
        x_star, peak = find_maximum(self.peaked, 1.0, arg_tol)
        assert abs(x_star - 1.0) <= 1e-7
        assert abs(peak - math.exp(-1.0)) <= 1e-16


class TestDensitiesOnArrays:
    # each density has one numpy body: a float call is its array element,
    # bit for bit, at the ends of the range as well as in between

    @pytest.mark.parametrize("g", [0.1, 1.0 / 3.0, 1.0, 2.5, 7.0])
    def test_frechet_pdf_within_float_calls(self, g):
        x = np.concatenate(([0.0, 1e-300, 1.0, 1e300], np.geomspace(1e-4, 1e4, 20001)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = [frechet_pdf(Shape(g), v).hex() for v in x.tolist()]
            values = frechet_pdf(Shape(g), x)
        assert values.shape == x.shape
        assert [v.hex() for v in values.tolist()] == expected

    def test_levy_pdf_half_within_float_calls(self):
        x = np.concatenate(([1e-300, 1.0, 1e300], np.geomspace(1e-3, 1e6, 20001)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = [levy_pdf_half(v).hex() for v in x.tolist()]
            values = levy_pdf_half(x)
        assert [v.hex() for v in values.tolist()] == expected

    @pytest.mark.parametrize("density", [lambda x: frechet_pdf(Shape(2.0), x), levy_pdf_half],
                             ids=["frechet_pdf", "levy_pdf_half"])
    def test_return_types(self, density):
        # a float gives a float; an ndarray, 0-d or not, an ndarray of its shape
        for x in (1.5, 2, np.float64(1.5)):
            assert type(density(x)) is float
        for x in (np.array(1.5), np.array([1.5]), np.array([[0.5, 1.5], [2.0, 3.0]])):
            out = density(x)
            assert type(out) is np.ndarray and out.shape == x.shape

    def test_extreme_arguments_warn_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pdf = frechet_pdf(Shape(1.0), np.array([0.0, 1e-300, 1.0, 1e300]))
            levy = levy_pdf_half(np.array([1e-300, 1.0, 1e300]))
        assert pdf[0] == 0.0 and pdf[1] == 0.0
        assert pdf.tolist()[2:] == [frechet_pdf(Shape(1.0), v) for v in (1.0, 1e300)]
        assert levy[0] == 0.0 and np.isfinite(levy).all()

    def test_frechet_pdf_keeps_shape(self):
        x = np.array([[0.0, 0.5], [1.0, 2.0]])
        assert frechet_pdf(Shape(2.0), x).shape == (2, 2)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_frechet_pdf_domain(self, bad):
        with pytest.raises(DomainError):
            frechet_pdf(Shape(1.0), np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, -math.inf])
    def test_levy_pdf_half_domain(self, bad):
        with pytest.raises(DomainError):
            levy_pdf_half(np.array([1.0, bad]))

    def test_frechet_pdf_overflow_is_domain_error(self):
        # gamma = 1e-10 at x = 5e-324: exp(about 720) overflows, as the float
        # call does
        with pytest.raises(DomainError):
            frechet_pdf(Shape(1e-10), 5e-324)
        with pytest.raises(DomainError):
            frechet_pdf(Shape(1e-10), np.array([1.0, 5e-324]))
