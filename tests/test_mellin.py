import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from frechet_laplace.distributions import RationalShape, Shape, frechet_pdf
from frechet_laplace.errors import ContourError, DomainError, NonConvergence, PoleError
from frechet_laplace.laplace import laplace_frechet_oracle
from frechet_laplace.mellin import (MellinFunction, contour_integral, delta_list,
                                    frechet_mellin_image, laplace_via_mellin,
                                    mellin_barnes_integral)
from frechet_laplace.numerics import _ROUNDOFF, integrate_semi_infinite, log_gamma

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

    def test_image_that_underflows_to_zero(self):
        # an image value of 0 enters the log-space integrand as a finite log
        # whose node is 0: Gamma(s) flushed to 0 below 1e-9, which zeroes
        # about 200 nodes of the window's extension, where the other factor
        # Gamma(1 - s) is as small
        def flushed(s):
            values = np.exp(log_gamma(s))
            return np.where(np.abs(values) < 1e-9, 0.0, values)

        res = laplace_via_mellin(MellinFunction(f_star=flushed, domain_strip=(0.0, math.inf)),
                                 1.0)
        assert abs(res.value - 0.5) <= 1e-12
        assert res.converged
        assert math.isfinite(res.err_estimate)

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
    # contour integral is exp(-X). Integrands hand the engine log F.
    C, X = 0.7, 1.3
    POLES = (C, math.inf)

    def log_gamma_power(self, s):
        return log_gamma(s) - s * math.log(self.X)

    def log_abs_gamma_power(self, x):
        return np.array([math.lgamma(v) - v * math.log(self.X) for v in x])

    def test_real_value(self):
        res = contour_integral(self.log_gamma_power, self.log_abs_gamma_power, self.C,
                               self.POLES)
        assert abs(res.value - math.exp(-self.X)) <= 1e-13
        assert res.converged
        assert res.im_residue <= 1e-15

    def test_imaginary_integral_not_converged(self):
        # i F, as log F + i pi / 2
        res = contour_integral(lambda s: self.log_gamma_power(s) + 0.5j * math.pi,
                               self.log_abs_gamma_power, self.C, self.POLES)
        assert not res.converged
        assert res.im_residue == pytest.approx(math.exp(-self.X), rel=1e-13)

    def test_underflow_is_converged_zero(self):
        res = contour_integral(lambda s: self.log_gamma_power(s) + math.log(1e-305),
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


class TestNoiseFloorPhase:
    # mellin_barnes_integral reads each node's roundoff from the log F the
    # integrand hands it, phase included, with no unwrapping of node values.
    # On synthetic nodes its err_estimate must equal the floor formula
    # eps h sum |G_j| (1 + |log F_j|) bit for bit. The nodes have magnitude 1
    # for |j| <= 6 and e^-42 at the edges, and node j = 5 balances S_h
    # against S_2h, so that the estimate is the noise floor.
    STEP, HALF_WIDTH, N_HALF = 0.5, 4.0, 8
    BALANCE = 13
    PI_DOWN = math.nextafter(math.pi, 0.0)
    PI_UP = math.nextafter(math.pi, 4.0)

    @classmethod
    def floor_formula(cls, vals, logs):
        return _ROUNDOFF * cls.STEP * float((np.abs(vals) * (1.0 + np.abs(logs))).sum())

    @classmethod
    def unwrap_floor(cls, vals):
        """The floor as rebuilt from node values with np.unwrap."""
        magnitudes = np.abs(vals)
        phase = np.unwrap(np.angle(vals))
        exponent = np.abs(np.log(magnitudes) + 1j * (phase - phase[cls.N_HALF]))
        return _ROUNDOFF * cls.STEP * float(np.sum(magnitudes * (1.0 + exponent)))

    @classmethod
    def nodes(cls, phases):
        """(G, log F) with Im log F_j the given phases, repeated as needed."""
        j = np.arange(-cls.N_HALF, cls.N_HALF + 1)
        logs = (np.where(np.abs(j) <= 6, 0.0, -42.0)
                + 1j * np.resize(np.array(phases, dtype=float), j.size))
        vals = np.exp(logs)
        vals[cls.BALANCE] = 0.0
        vals[cls.BALANCE] = vals[0::2].sum() - vals[1::2].sum()
        logs[cls.BALANCE] = np.log(vals[cls.BALANCE])
        return vals, logs

    def cases(self):
        pi = math.pi
        return {
            # phase steps of exactly +-pi
            "exact_pi": (self.nodes([0.0, pi, 0.0, -pi, 0.5 * pi, -0.5 * pi, 0.0]),
                         {pi, -pi}),
            # steps one ulp either side of pi
            "pi_ulp": (self.nodes([0.0, self.PI_DOWN, 0.0, self.PI_UP]),
                       {self.PI_DOWN, self.PI_UP}),
            "several_wraps": (self.nodes(2.5 * np.arange(17)), set()),
            "no_wrap": (self.nodes(0.15 * (np.arange(17) - 8)), set()),
            # log F_j = 4 i j: more than pi per node, which an unwrap of the
            # node values reads as 4 - 2 pi
            "fast_phase": (self.nodes(4.0 * (np.arange(17) - 8)), {4.0}),
        }

    @pytest.mark.parametrize("case", ["exact_pi", "pi_ulp", "several_wraps", "no_wrap",
                                      "fast_phase"])
    def test_err_estimate_equals_floor_formula(self, case):
        (vals, logs), steps = self.cases()[case]
        turns = np.diff(logs.imag)
        assert steps <= set(turns[:self.BALANCE - 1].tolist())
        wraps = np.count_nonzero(np.abs(np.diff(np.angle(vals))) >= math.pi)
        if case == "several_wraps":
            assert wraps >= 4
        if case == "no_wrap":
            assert wraps == 0
        estimate = self.STEP * complex(vals.sum())
        diff = abs(estimate - 2.0 * self.STEP * complex(vals[0::2].sum()))
        floor = self.floor_formula(vals, logs)
        assert floor > diff
        if case == "fast_phase":
            # the phase counts in full: the unwrap undercounted it
            assert floor > 1.5 * self.unwrap_floor(vals)

        def values_fn(u):
            assert u.size == vals.size
            return vals, logs

        _, err, n, _ = mellin_barnes_integral(values_fn, self.STEP, self.HALF_WIDTH)
        assert n == vals.size
        assert err == floor / (2.0 * math.pi)
