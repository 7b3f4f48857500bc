import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from frechet_laplace.distributions import RationalShape, Shape, frechet_pdf
from frechet_laplace.errors import ContourError, DomainError, NonConvergence, PoleError
from frechet_laplace.laplace import laplace_frechet_oracle
from frechet_laplace.mellin import (MellinFunction, contour_integral, delta_list,
                                    frechet_mellin_image, laplace_via_mellin)
from frechet_laplace.numerics import integrate_semi_infinite, log_gamma

TWO_K1_OF_2 = 0.27973176363304486  # 2 K1(2), from the series oracle


def exp_mellin_image():
    # Mellin image of exp(-t) is Gamma(s), valid on Re(s) > 0
    return MellinFunction(f_star=lambda s: np.exp(log_gamma(s)),
                          domain_strip=(0.0, math.inf))


class TestDeltaList:
    def test_single(self):
        assert delta_list(1, 0.0) == [0.0]

    def test_two_one(self):
        assert delta_list(2, 1.0) == [0.5, 1.0]

    def test_three_zero(self):
        assert delta_list(3, 0.0) == pytest.approx([0.0, 1.0 / 3.0, 2.0 / 3.0])

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_length_and_increments(self, k):
        vals = delta_list(k, 2.0)
        assert len(vals) == k
        for a, b in zip(vals, vals[1:]):
            # exact up to one rounding of the non-representable 1/k
            assert b - a == pytest.approx(1.0 / k, abs=5e-16)

    def test_union_symmetry(self):
        # multiset Delta(k,1) + Delta(l,0) equals Delta(l,1) + Delta(k,0)
        for k in range(1, 7):
            for l in range(1, 7):
                left = Counter(Fraction(num).limit_denominator(10 ** 6)
                               for num in delta_list(k, 1.0) + delta_list(l, 0.0))
                right = Counter(Fraction(num).limit_denominator(10 ** 6)
                                for num in delta_list(l, 1.0) + delta_list(k, 0.0))
                assert left == right

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_list(0, 0.0)


class TestMellinFrechet:
    def test_normalization_moment(self):
        image = frechet_mellin_image(RationalShape(1, 1))
        assert image.f_star(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_identity_for_unit_shape(self):
        # at shape 1 the image at 1 - mu is Gamma(1 + mu)
        for mu in (0.3, 1.0, 2.5):
            value = frechet_mellin_image(RationalShape(1, 1)).f_star(1.0 - mu)
            assert math.isclose(value.real, math.gamma(1.0 + mu), rel_tol=1e-13)

    def test_half_shape_against_quadrature(self):
        s = 0.7
        closed = frechet_mellin_image(RationalShape(1, 2)).f_star(s)
        assert math.isclose(closed.real, math.gamma(1.6), rel_tol=1e-13)
        shape = Shape(0.5)
        quad = integrate_semi_infinite(np.vectorize(
            lambda x: x ** (s - 1.0) * frechet_pdf(shape, x), otypes=[float]), 0.0)
        assert abs(closed.real - quad.value) <= 1e-9 * abs(closed.real)

    def test_pole_rejected(self):
        # argument 1 + k(1-s)/l hits 0 at s = 1 + l/k
        with pytest.raises(PoleError):
            frechet_mellin_image(RationalShape(1, 1)).f_star(2.0)

    def test_image_strip(self):
        img = frechet_mellin_image(RationalShape(2, 3))
        assert img.contains(1.0)
        assert not img.contains(1.0 + 2.0 / 3.0 + 0.1)


class TestLaplaceViaMellin:
    def test_exponential_image(self):
        res = laplace_via_mellin(exp_mellin_image(), 1.0)
        assert abs(res.value - 0.5) <= 1e-12
        assert res.converged

    def test_frechet_unit_shape_is_bessel_value(self):
        res = laplace_via_mellin(frechet_mellin_image(RationalShape(1, 1)), 1.0)
        assert abs(res.value - TWO_K1_OF_2) <= 1e-9 * TWO_K1_OF_2

    def test_half_shape_against_oracle(self):
        res = laplace_via_mellin(frechet_mellin_image(RationalShape(1, 2)), 0.8)
        oracle = laplace_frechet_oracle(Shape(0.5), 0.8)
        assert abs(res.value - oracle.value) <= 1e-8 * abs(oracle.value)

    def test_contour_shift_invariance(self):
        img = frechet_mellin_image(RationalShape(2, 3))
        values = [laplace_via_mellin(img, 1.0, c).value
                  for c in (0.3, 0.5, 1.0, 1.5)]
        for a in values:
            for b in values:
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_imaginary_residue_small(self):
        for p in (0.1, 1.0, 7.0):
            res = laplace_via_mellin(frechet_mellin_image(RationalShape(2, 1)), p)
            assert res.im_residue <= 1e-10 * abs(res.value)

    @pytest.mark.parametrize("l, k", [(1, 10), (1, 4), (1, 2), (2, 3), (1, 1),
                                      (3, 2), (3, 1), (10, 1)])
    @pytest.mark.parametrize("p", [1e-12, 1e-10, 1e-8, 9.9e-7, 1e-6, 1e-4])
    def test_small_p_against_oracle(self, l, k, p):
        # the p -> 0 limit f*(1) = 1 is no stand-in for L at small p (1.8e-4
        # off at gamma = 1/2, p = 1e-8); a converged value lies within the
        # two error estimates of the oracle
        shape = RationalShape(l, k)
        res = laplace_via_mellin(frechet_mellin_image(shape), p)
        oracle = laplace_frechet_oracle(shape, p)
        assert oracle.converged
        assert res.converged or p < 1e-10
        if res.converged:
            bound = 10.0 * (res.err_estimate + oracle.err_estimate) + 4e-16 * abs(oracle.value)
            assert abs(res.value - oracle.value) <= bound

    def test_abscissa_must_be_positive(self):
        with pytest.raises(ContourError):
            laplace_via_mellin(exp_mellin_image(), 1.0, -0.2)

    def test_abscissa_must_respect_strip(self):
        # exp image strip is (0, inf): need 1 - c > 0
        with pytest.raises(ContourError):
            laplace_via_mellin(exp_mellin_image(), 1.0, 1.5)

    def test_p_domain(self):
        with pytest.raises(DomainError):
            laplace_via_mellin(exp_mellin_image(), 0.0)
        with pytest.raises(DomainError):
            laplace_via_mellin(exp_mellin_image(), math.inf)

    def test_strip_validation(self):
        with pytest.raises(DomainError):
            MellinFunction(f_star=lambda s: s, domain_strip=(2.0, 1.0))


class TestContourIntegral:
    # Gamma(s) X^{-s} has its poles at 0, -1, ..., left of Re s = C, and its
    # contour integral is exp(-X).
    C, X = 0.7, 1.3
    POLES = (C, math.inf)

    def gamma_power(self, s):
        return np.exp(log_gamma(s) - s * math.log(self.X))

    def log_abs_gamma_power(self, x):
        return np.array([math.lgamma(v) - v * math.log(self.X) for v in x])

    def test_real_value(self):
        res = contour_integral(self.gamma_power, self.log_abs_gamma_power, self.C, self.POLES)
        assert abs(res.value - math.exp(-self.X)) <= 1e-13
        assert res.converged
        assert res.im_residue <= 1e-15

    def test_imaginary_integral_not_converged(self):
        res = contour_integral(lambda s: 1j * self.gamma_power(s), self.log_abs_gamma_power,
                               self.C, self.POLES)
        assert not res.converged
        assert res.im_residue == pytest.approx(math.exp(-self.X), rel=1e-13)

    def test_underflow_is_converged_zero(self):
        res = contour_integral(lambda s: 1e-305 * self.gamma_power(s),
                               lambda x: self.log_abs_gamma_power(x) + math.log(1e-305),
                               self.C, self.POLES)
        assert res.value == 0.0
        assert res.err_estimate == 0.0
        assert res.converged

    def test_nonfinite_integrand_raises(self):
        def infinite(s):
            return np.full(np.shape(s), np.inf, dtype=complex)

        # not finite on the real axis, where step and window are set
        with pytest.raises(NonConvergence, match="not finite"):
            contour_integral(infinite, lambda x: np.full(np.shape(x), np.inf), self.C, self.POLES)
        # finite there, but not on the path
        with pytest.raises(NonConvergence, match="not finite"):
            contour_integral(lambda s: np.full(np.shape(s), np.nan, dtype=complex),
                             self.log_abs_gamma_power, self.C, self.POLES)
