import math
import warnings

import numpy as np
import pytest

from frechet_laplace.distributions import (LevyIndex, Shape, frechet_pdf,
                                           levy_pdf_half)
from frechet_laplace.errors import DomainError, MissingLaplace
from frechet_laplace.ftransform import (FrechetKernelParams, TransformTarget,
                                        frechet_kernel,
                                        frechet_transform_frechet_half,
                                        frechet_transform_levy,
                                        frechet_transform_quadrature,
                                        frechet_transform_via_laplace)
from frechet_laplace.numerics import integrate_semi_infinite

HALF_FRECHET_TARGET = TransformTarget(f=lambda t: frechet_pdf(Shape(0.5), t))
EXP_TARGET = TransformTarget(f=lambda t: np.exp(-t), laplace_of_f=lambda u: 1.0 / (1.0 + u))


def exp_transform(g, x):
    """Transform of exp(-t): gamma x^{-(1+gamma)} / (1 + x^{-gamma})^2, in logs."""
    log_u = -g * math.log(x)
    return g * math.exp(-math.log(x) + log_u - 2.0 * math.log1p(math.exp(log_u)))


class TestKernel:
    def test_unit_time_is_frechet(self):
        for g in (0.5, 1.0, 2.0):
            for x in (0.4, 1.0, 3.0):
                params = FrechetKernelParams(Shape(g), x, 1.0)
                assert math.isclose(frechet_kernel(params), frechet_pdf(Shape(g), x),
                                    rel_tol=1e-14)

    def test_point_value(self):
        params = FrechetKernelParams(Shape(1.0), 1.0, 2.0)
        assert math.isclose(frechet_kernel(params), 2.0 * math.exp(-2.0), rel_tol=1e-14)

    @pytest.mark.parametrize("g,t", [(1.0, 2.0), (0.5, 0.5)])
    def test_normalized_in_x(self, g, t):
        total = integrate_semi_infinite(np.vectorize(
            lambda x: frechet_kernel(FrechetKernelParams(Shape(g), x, t)),
            otypes=[float]), 0.0)
        assert abs(total.value - 1.0) <= 1e-10

    def test_overflowing_exponent_gives_zero(self):
        # t x^{-gamma} = 1e400 overflows: the kernel is 0, not inf * 0
        params = FrechetKernelParams(Shape(1.0), 1e-200, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frechet_kernel(params) == 0.0

    def test_huge_rate_keeps_value(self):
        # gamma / x = 1e307 meets (t u) exp(-t u), not t u alone: the value
        # 1e307 * 100 e^{-100} is a float, and at t u = 1000 it is 0, not NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = frechet_kernel(FrechetKernelParams(Shape(1.0), 1e-307, 1e-305))
            assert math.isclose(value, 1e307 * (100.0 * math.exp(-100.0)), rel_tol=1e-13)
            assert frechet_kernel(FrechetKernelParams(Shape(1.0), 1e-307, 1e-304)) == 0.0

    def test_overflowing_rate_is_domain_error(self):
        # gamma / x = 1e323 is no float, though x^{-gamma} = 4.4e161 is
        with pytest.raises(DomainError):
            frechet_kernel(FrechetKernelParams(Shape(0.5), 5e-324, 1e-170))

    def test_validation(self):
        with pytest.raises(DomainError):
            FrechetKernelParams(Shape(1.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            FrechetKernelParams(Shape(1.0), 1.0, -1.0)

    def test_infinite_arguments_rejected(self):
        with pytest.raises(DomainError):
            FrechetKernelParams(Shape(1.0), math.inf, 1.0)
        with pytest.raises(DomainError):
            FrechetKernelParams(Shape(1.0), 1.0, math.inf)


class TestQuadraturePath:
    def test_constant_function(self):
        # transform of 1 is gamma x^{gamma - 1}
        for g, x in ((0.7, 1.3), (1.0, 0.5), (2.0, 2.0)):
            res = frechet_transform_quadrature(TransformTarget(f=lambda t: 1.0),
                                               Shape(g), x)
            assert math.isclose(res.value, g * x ** (g - 1.0), rel_tol=1e-9)

    def test_levy_half_input_gives_frechet(self):
        res = frechet_transform_quadrature(TransformTarget(f=levy_pdf_half),
                                           Shape(1.0), 1.0)
        expected = frechet_pdf(Shape(0.5), 1.0)
        assert math.isclose(expected, 0.5 * math.exp(-1.0), rel_tol=1e-15)
        assert abs(res.value - expected) <= 1e-8

    def test_agrees_with_half_closed_form(self):
        res = frechet_transform_quadrature(HALF_FRECHET_TARGET, Shape(1.0 / 3.0), 1.0)
        closed = frechet_transform_frechet_half(Shape(1.0 / 3.0), 1.0)
        assert abs(res.value - closed.value) <= 1e-6

    def test_requires_function(self):
        with pytest.raises(MissingLaplace):
            frechet_transform_quadrature(TransformTarget(laplace_of_f=lambda u: 1.0),
                                         Shape(1.0), 1.0)

    def test_infinite_x_rejected(self):
        with pytest.raises(DomainError):
            frechet_transform_quadrature(TransformTarget(f=lambda t: math.exp(-t)),
                                         Shape(1.0), math.inf)

    @pytest.mark.parametrize("f", [lambda t: math.exp(-t), lambda t: 1.0 if t < 1.0 else 0.0],
                             ids=["TypeError", "ValueError"])
    def test_scalar_only_f_is_domain_error(self, f):
        # f maps an ndarray of t; a callable that takes only floats raises
        # on one, and the error names that contract
        with pytest.raises(DomainError, match="ndarray"):
            frechet_transform_quadrature(TransformTarget(f=f), Shape(1.0), 1.0)

    def test_overflowing_u_is_domain_error(self):
        # u = x^{-gamma} = 1e900: the kernel mass sits at t = 1e-900
        with pytest.raises(DomainError):
            frechet_transform_quadrature(EXP_TARGET, Shape(3.0), 1e-300)

    def test_overflowing_scale_is_domain_error(self):
        # x^gamma = 1e900: f cannot be sampled where the kernel mass sits
        with pytest.raises(DomainError):
            frechet_transform_quadrature(EXP_TARGET, Shape(3.0), 1e300)

    def test_overflowing_prefactor_keeps_value(self):
        # x^{-(1+gamma)} = 1e400 overflows, the transform 3e-200 does not
        res = frechet_transform_quadrature(EXP_TARGET, Shape(3.0), 1e-100)
        assert res.converged
        assert abs(res.value - exp_transform(3.0, 1e-100)) <= 1e-10 * 3e-200

    def test_subnormal_prefactor_keeps_precision(self):
        # x^{-2} = 1e-320 is subnormal; the transform of 1 is gamma x^{gamma-1} = 1
        res = frechet_transform_quadrature(TransformTarget(f=lambda t: 1.0),
                                           Shape(1.0), 1e160)
        assert res.converged
        assert abs(res.value - 1.0) <= 1e-12

    def test_underflowing_value_has_tiny_estimate(self):
        # the transform, about 3e-400, underflows to a converged 0.0; the
        # estimate bounds the terms of the rule in t, not the span of u
        res = frechet_transform_quadrature(EXP_TARGET, Shape(3.0), 1e100)
        assert res.converged
        assert res.value == 0.0
        assert res.err_estimate <= 1e-22


class TestQuadratureMpmath:
    # The transform of exp(-t) through the gamma = 1 kernel is
    # 1/(x^2 (1 + 1/x)^2) = 1/(x + 1)^2; its mass sits at t ~ 1, far below
    # the kernel's t ~ x. The error estimate must bound the actual error, up
    # to a fixed safety factor and the binary64 rounding of the value.
    @pytest.mark.parametrize("x", [1e2, 1e5, 1e7])
    def test_error_estimate_bounds_actual_error(self, x):
        mpmath = pytest.importorskip("mpmath")
        res = frechet_transform_quadrature(TransformTarget(f=lambda t: np.exp(-t)),
                                           Shape(1.0), x)
        with mpmath.workdps(30):
            ref = float(1 / (mpmath.mpf(x) + 1) ** 2)
        assert res.converged
        assert abs(res.value - ref) <= 10.0 * res.err_estimate + 4e-16 * abs(ref)


class TestViaLaplacePath:
    def test_exponential_with_closed_form(self):
        # L[exp(-t)](u) = 1/(1+u); derivative at u = 1 gives value 1/4
        target = TransformTarget(f=lambda t: math.exp(-t),
                                 laplace_of_f=lambda u: 1.0 / (1.0 + u))
        res = frechet_transform_via_laplace(target, Shape(1.0), 1.0)
        assert abs(res.value - 0.25) <= 1e-8
        assert res.route == "difference"

    def test_exponential_without_closed_form(self):
        # an f-only target belongs to frechet_transform_quadrature
        with pytest.raises(MissingLaplace, match="frechet_transform_quadrature"):
            frechet_transform_via_laplace(TransformTarget(f=lambda t: math.exp(-t)),
                                          Shape(1.0), 1.0)

    def test_levy_closed_form_gives_frechet(self):
        target = TransformTarget(laplace_of_f=lambda u: math.exp(-math.sqrt(u)))
        for g in (0.5, 1.0, 2.0):
            for x in (0.5, 1.0, 2.0):
                res = frechet_transform_via_laplace(target, Shape(g), x)
                assert abs(res.value - frechet_pdf(Shape(g / 2.0), x)) <= 1e-8

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_dual_path_agreement(self, g, x):
        target = TransformTarget(f=lambda t: np.exp(-t),
                                 laplace_of_f=lambda u: 1.0 / (1.0 + u))
        a = frechet_transform_quadrature(target, Shape(g), x)
        b = frechet_transform_via_laplace(target, Shape(g), x)
        assert abs(a.value - b.value) <= 1e-6

    @pytest.mark.parametrize("g", [1.0 / 3.0, 1.0, 3.0])
    @pytest.mark.parametrize("x", [1e-60, 0.01, 0.5, 1.0, 10.0, 1e5])
    def test_err_estimate_covers_difference_roundoff(self, g, x):
        # d_h and d_2h can agree to the last bit while both carry the
        # roundoff of L(u -+ h) amplified by u/h; the estimate must cover it
        res = frechet_transform_via_laplace(
            TransformTarget(laplace_of_f=lambda u: 1.0 / (1.0 + u)), Shape(g), x)
        u = x ** -g
        exact = (g / x) * u / (1.0 + u) / (1.0 + u)
        assert abs(res.value - exact) <= res.err_estimate

    def test_missing_both_paths(self):
        with pytest.raises(MissingLaplace):
            frechet_transform_via_laplace(TransformTarget(), Shape(1.0), 1.0)

    def test_small_u_keeps_difference_points_positive(self):
        # u = x^{-gamma} = 1e-7 lies below 2e-6, the width of the wider
        # difference at its floor; a Laplace transform need not exist at u <= 0
        seen = []

        def laplace(u):
            seen.append(u)
            return 1.0 / (1.0 + u)

        x = 1e7
        res = frechet_transform_via_laplace(TransformTarget(laplace_of_f=laplace),
                                            Shape(1.0), x)
        exact = 1.0 / (x * x * (1.0 + 1.0 / x) ** 2)
        assert min(seen) > 0.0
        assert res.converged
        assert abs(res.value - exact) <= 1e-6 * exact

    def test_underflowing_u_rejected(self):
        # u = x^{-gamma} = 1e-900 is 0.0 in binary64, and so would be h
        with pytest.raises(DomainError):
            frechet_transform_via_laplace(
                TransformTarget(laplace_of_f=lambda u: 1.0 / (1.0 + u)), Shape(3.0), 1e300)

    def test_transform_defined_only_for_positive_u(self):
        # exp(-sqrt(u)) = L[levy_pdf_half](u); at u < 0 math.sqrt raised a
        # raw ValueError
        target = TransformTarget(laplace_of_f=lambda u: math.exp(-math.sqrt(u)))
        res = frechet_transform_via_laplace(target, Shape(1.0), 1e7)
        assert math.isfinite(res.value)
        assert abs(res.value - frechet_pdf(Shape(0.5), 1e7)) <= 2.0 * res.err_estimate

    def test_singular_derivative_not_converged(self):
        # h = u/4 straddles the sqrt(u) singularity of the derivative: the
        # value is 0.8% off, and the Richardson estimate says so
        target = TransformTarget(laplace_of_f=lambda u: math.exp(-math.sqrt(u)))
        res = frechet_transform_via_laplace(target, Shape(1.0), 1e7)
        assert not res.converged

    def test_overflowing_u_is_domain_error(self):
        # u = x^{-gamma} = 1e900 is no float: L cannot be evaluated there
        with pytest.raises(DomainError):
            frechet_transform_via_laplace(EXP_TARGET, Shape(3.0), 1e-300)

    def test_overflowing_prefactor_keeps_value(self):
        # x^{-(1+gamma)} = 1e400 and L'(u) = 1e-600 are no floats; the
        # transform 3e-200 is
        res = frechet_transform_via_laplace(EXP_TARGET, Shape(3.0), 1e-100)
        assert res.converged
        assert abs(res.value - exp_transform(3.0, 1e-100)) <= 1e-8 * 3e-200

    def test_overflowing_rate_keeps_value(self):
        # gamma / x = 5e319 is no float; the transform, about 5.0e159, is
        res = frechet_transform_via_laplace(EXP_TARGET, Shape(0.5), 1e-320)
        assert res.converged
        assert math.isfinite(res.err_estimate)
        assert abs(res.value - exp_transform(0.5, 1e-320)) <= res.err_estimate

    def test_overflowing_value_is_domain_error(self):
        # x^{-gamma} = 1.7e3 is a float, the transform, about 2e321, is not
        with pytest.raises(DomainError):
            frechet_transform_via_laplace(EXP_TARGET, Shape(0.01), 5e-324)

    def test_infinite_x_rejected(self):
        # the derivative at u = 0 would read as a converged 0.0
        with pytest.raises(DomainError):
            frechet_transform_via_laplace(TransformTarget(f=lambda t: math.exp(-t)),
                                          Shape(1.0), math.inf)


class TestLevyClosedForm:
    def test_composition(self):
        assert math.isclose(frechet_transform_levy(LevyIndex(0.5), Shape(2.0), 1.0),
                            math.exp(-1.0), rel_tol=1e-14)

    def test_matches_quadrature(self):
        target = TransformTarget(f=levy_pdf_half)
        for g in (0.5, 1.0, 2.0):
            for x in (0.3, 1.0, 3.0):
                quad = frechet_transform_quadrature(target, Shape(g), x)
                closed = frechet_transform_levy(LevyIndex(0.5), Shape(g), x)
                assert abs(quad.value - closed) <= 1e-8

    def test_normalization(self):
        total = integrate_semi_infinite(np.vectorize(
            lambda x: frechet_transform_levy(LevyIndex(0.5), Shape(1.0), x),
            otypes=[float]), 0.0)
        assert abs(total.value - 1.0) <= 1e-10


class TestHalfClosedForm:
    @pytest.mark.parametrize("g", [1.0 / 3.0, 1.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_against_quadrature(self, g, x):
        closed = frechet_transform_frechet_half(Shape(g), x)
        quad = frechet_transform_quadrature(HALF_FRECHET_TARGET, Shape(g), x)
        assert abs(closed.value - quad.value) <= 1e-6
        assert (closed.route, quad.route) == ("series", "quadrature")

    def test_single_interior_maximum(self):
        # the essential suppression x^{-gamma/3} grows so slowly for
        # gamma = 1/3 that the mode sits near 1.5e-7; a log grid covers it
        xs = np.geomspace(1e-9, 10.0, 150)
        vals = np.array([frechet_transform_frechet_half(Shape(1.0 / 3.0), float(x)).value
                         for x in xs])
        diffs = np.sign(np.diff(vals))
        changes = np.count_nonzero(np.diff(diffs[diffs != 0]) != 0)
        assert changes == 1
        assert 1e-9 < xs[int(np.argmax(vals))] < 1e-5

    def test_mass_preserved(self):
        total = integrate_semi_infinite(np.vectorize(
            lambda x: frechet_transform_frechet_half(Shape(1.0), x).value,
            otypes=[float]), 0.0)
        assert abs(total.value - 1.0) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            frechet_transform_frechet_half(Shape(1.0), 0.0)

    def test_tiny_g_argument_is_cheap(self):
        # z = x^{-gamma} / 4 = 2.5e-301 is beyond the contour's reach, but
        # the cost of the answer stays bounded
        res = frechet_transform_frechet_half(Shape(1.0), 1e300)
        assert math.isfinite(res.value)
        assert res.evaluations < 10_000

    @pytest.mark.parametrize("g", [1.0 / 3.0, 1.0, 3.0])
    def test_underflowing_value_is_converged_zero(self, g):
        # the transform decays like x^{-1-gamma/2}: at x = 1e300 it lies
        # below the smallest subnormal
        res = frechet_transform_frechet_half(Shape(g), 1e300)
        assert res.converged
        assert res.value == 0.0

    def test_values_below_the_smallest_subnormal_are_converged_zeros(self):
        # gamma in [0.05, 20] x x in [1e150, 1e307], log-spaced: wherever the
        # residue series' bounds put every term and its tail below half the
        # smallest subnormal (2,605 of 4,800 inputs), the value is a
        # converged +0.0 within it, with no term formed, not a contour sum
        # that cancels to noise
        results = [frechet_transform_frechet_half(Shape(g), x)
                   for g in np.geomspace(0.05, 20.0, 60).tolist()
                   for x in np.geomspace(1e150, 1e307, 80).tolist()]
        zeros = [res for res in results if res.route == "series" and res.evaluations == 0]
        assert len(zeros) == 2605
        assert all((res.value, res.err_estimate, res.converged) == (0.0, 2.0 ** -1074, True)
                   and math.copysign(1.0, res.value) == 1.0 for res in zeros)

    @pytest.mark.parametrize("x", [1e170, 1e200, 1e230])
    def test_underflowing_prefactor_keeps_error_estimate(self, x):
        # x^{-2} underflows binary64 there, while G at z = 1/(4x) is huge
        # contour noise; the product, formed in log space, must carry an
        # err_estimate that covers its distance from the value, about
        # Gamma(3/2) x^{-3/2}
        res = frechet_transform_frechet_half(Shape(1.0), x)
        assert abs(res.value - math.gamma(1.5) * x ** -1.5) <= res.err_estimate

    @pytest.mark.parametrize("x", [1e10, 1e50, 1e200])
    def test_large_x_is_accurate_or_unconverged(self, x):
        # at large x the saddle sits next to the pole of Gamma(s - 1/2) and
        # the contour sum cancels: a value whose noise floor exceeds sqrt(eps)
        # of it must not claim convergence (at 1e50 it is 6.5e-4 off, at 1e200
        # negative)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            big_x = mpmath.mpf(x)
            ref = float(mpmath.meijerg([[], []], [[-0.5, 0, 0], []], 1 / (4 * big_x))
                        / (4 * mpmath.sqrt(mpmath.pi) * big_x ** 2))
        res = frechet_transform_frechet_half(Shape(1.0), x)
        assert not res.converged or abs(res.value - ref) <= 1e-8 * ref

    @pytest.mark.parametrize("g,x", [(1.0, 1e50), (1.0, 1e200), (3.0, 1e120)])
    def test_large_x_converges_within_estimate(self, g, x):
        # the residue series converges where the contour sum cancelled (at
        # 1e50 it was 1e-3 off, at 1e200 and 1e120 negative)
        mpmath = pytest.importorskip("mpmath")
        ref, slack = _half_reference(mpmath, g, x)
        res = frechet_transform_frechet_half(Shape(g), x)
        assert slack == 0.0
        assert res.converged and res.route == "series"
        assert abs(res.value - ref) <= res.err_estimate

    @pytest.mark.parametrize("x", [1e-300, 1e-160])
    def test_small_x_does_not_overflow(self, x):
        # x^{-(1+gamma)} overflows binary64 there, while G underflows
        res = frechet_transform_frechet_half(Shape(1.0), x)
        assert res.converged
        assert res.value == 0.0

    def test_huge_argument_is_converged_zero(self):
        # log z = 2762: the saddle bracket ends at c = 2 e^300, where exp
        # stays finite and the integrand has long underflowed
        res = frechet_transform_frechet_half(Shape(4.0), 1e-300)
        assert res.converged and res.value == 0.0

    @pytest.mark.parametrize("g", [0.3, 1.0, 3.0])
    def test_sweep_never_raises_and_converged_values_hold(self, g):
        # x = 1e-300 ... 1e300: the prefactor x^{-(1+gamma)} and z = x^{-gamma}/4
        # leave binary64 at either end, and z underflowed for gamma = 3 at
        # x ~ 1.7e107 ... 1e147 before the closed form went to log space
        mpmath = pytest.importorskip("mpmath")
        for e in range(-300, 301, 10):
            x = 10.0 ** e
            ref, slack = _half_reference(mpmath, g, x)
            res = frechet_transform_frechet_half(Shape(g), x)
            assert math.isfinite(res.value)
            if res.converged:
                assert abs(res.value - ref) <= 10.0 * res.err_estimate + 4e-16 * ref + slack, e


def _half_reference(mpmath, g, x):
    """The transform of Fr(1/2) at x, and an absolute slack for it.

    Where z^{1/2} |log z| < 1e-17 the leading residue, at s = 1/2,
    (gamma sqrt(pi) / 2) x^{-1-gamma/2}, is exact in binary64 (the next
    residues, at s = 0, are O(z^{1/2} log z) of it). Where the bound
    |G| <= (c/2) z^{-c} Gamma(c - 1/2) Gamma(c)^2 on the line Re s = c, taken at
    c = max(1, z^{1/3}), puts the transform below 1e-300 the reference is 0
    with that bound as slack: mpmath.meijerg takes seconds to minutes per point
    once z > 1e8. Elsewhere it is mpmath.meijerg at 30 digits.
    """
    log_x = math.log(x)
    log_z = -g * log_x - math.log(4.0)
    log_front = math.log(g / (4.0 * math.sqrt(math.pi))) - (1.0 + g) * log_x
    if log_z < 0.0 and math.exp(0.5 * log_z) * -log_z < 1e-17:
        return math.exp(math.log(0.5 * g * math.sqrt(math.pi)) - (1.0 + 0.5 * g) * log_x), 0.0
    c = max(1.0, math.exp(log_z / 3.0))
    log_bound = (log_front + math.log(0.5 * c) - c * log_z
                 + math.lgamma(c - 0.5) + 2.0 * math.lgamma(c))
    if log_bound < math.log(1e-300):
        return 0.0, math.exp(log_bound)
    with mpmath.workdps(30):
        return float(mpmath.exp(log_front) * mpmath.meijerg(
            [[], []], [[-0.5, 0, 0], []], mpmath.exp(log_z))), 0.0
