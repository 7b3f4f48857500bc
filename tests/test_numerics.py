import math

import numpy as np
import pytest

from frechet_laplace.errors import DomainError, PoleError
from frechet_laplace import numerics
from frechet_laplace.numerics import bessel_k1, integrate_semi_infinite, log_gamma

# Ascending-series oracle for K1, independent of both the quadrature and the
# contour machinery:
#   K1(z) = 1/z + ln(z/2) I1(z)
#           - (z/4) sum_k [psi(k+1) + psi(k+2)] (z^2/4)^k / (k! (k+1)!)
_EULER = 0.57721566490153286061


def k1_series(z, terms=60):
    half = 0.5 * z
    q = half * half
    i1 = 0.0
    correction = 0.0
    fact_k = 1.0
    fact_k1 = 1.0
    harmonic = 0.0
    for k in range(terms):
        if k > 0:
            fact_k *= k
            fact_k1 *= k + 1
            harmonic += 1.0 / k
        coef = q ** k / (fact_k * fact_k1)
        i1 += half * coef
        psi_k1 = -_EULER + harmonic
        psi_k2 = psi_k1 + 1.0 / (k + 1)
        correction += (psi_k1 + psi_k2) * coef
    return 1.0 / z + math.log(half) * i1 - 0.25 * z * correction


# frozen from the series oracle above
K1_AT_2 = 0.13986588181652243


def mult_formula_rhs(z, n):
    # product side of Gamma(nz) = (2 pi)^{(1-n)/2} n^{nz - 1/2} prod Gamma(z + j/n)
    total = (1.0 - n) / 2.0 * math.log(2.0 * math.pi) + (n * z - 0.5) * math.log(n)
    for j in range(n):
        total = total + log_gamma(z + j / n)
    return total


class TestLogGamma:
    def test_at_one(self):
        assert abs(log_gamma(1.0)) <= 1e-13

    def test_at_half(self):
        assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-13

    def test_real_positive_matches_lgamma(self):
        for x in [0.7, 1.5, 3.2, 10.0, 120.5]:
            assert math.isclose(log_gamma(x).real, math.lgamma(x), rel_tol=1e-13)

    def test_multiplication_formula_at_complex_point(self):
        s = 3.7 + 2.1j
        lhs = log_gamma(3 * (s / 3))
        rhs = mult_formula_rhs(s / 3, 3)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_multiplication_formula_random_sample(self, n):
        rng = np.random.default_rng(20240517)
        z = rng.uniform(0.1, 5.0, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
        lhs = log_gamma(n * z)
        rhs = ((1.0 - n) / 2.0 * math.log(2.0 * math.pi)
               + (n * z - 0.5) * math.log(n)
               + sum(log_gamma(z + j / n) for j in range(n)))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs))

    def test_recurrence(self):
        rng = np.random.default_rng(20240518)
        z = rng.uniform(0.1, 5.0, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
        residual = np.abs(log_gamma(z + 1.0) - log_gamma(z) - np.log(z))
        assert residual.max() <= 1e-13

    def test_negative_half_plane_recurrence(self):
        # values left of the shift threshold still satisfy the recurrence
        for z in [-2.3 + 1.0j, -0.4 - 2.2j, -7.6 + 0.3j]:
            assert abs(log_gamma(z + 1) - log_gamma(z) - np.log(complex(z))) < 1e-12

    def test_conjugate_symmetry_is_bitwise(self):
        # The Meijer integrand evaluates the upper half of its contour grid
        # and mirrors it; that is exact only while log Gamma(conj z) equals
        # conj log Gamma(z) bit for bit, on the (runs x nodes) arrays it gets,
        # left of Re z = 1/2 (the reflection formula) and far up the line.
        rng = np.random.default_rng(20261018)
        shape = (3, 500)
        re = rng.uniform(-30.0, 40.0, shape)
        im = 10.0 ** rng.uniform(-3.0, 3.0, shape) * rng.choice([-1.0, 1.0], shape)
        z = re + 1j * im
        assert (z.real < 0.5).any() and np.abs(z.imag).max() > 900.0
        assert np.array_equal(log_gamma(z.conj()), log_gamma(z).conj())

    @staticmethod
    def _left_half_plane_sample():
        # Re z in [-400, 1/2] with |Im z| in [1e-6, 1e3], the negative real
        # axis, and points within 1e-4 of the poles down to -300, either side
        # of the axis: the reflection formula's domain
        rng = np.random.default_rng(20261019)
        n = 600
        off_axis = (rng.uniform(-400.0, 0.5, n)
                    + 1j * 10.0 ** rng.uniform(-6.0, 3.0, n) * rng.choice([-1.0, 1.0], n))
        on_axis = rng.uniform(-400.0, 0.5, 200) + 0j
        poles = -rng.integers(0, 301, 300).astype(float)
        near = (poles + 10.0 ** rng.uniform(-12.0, -4.0, 300) * rng.choice([-1.0, 1.0], 300)
                + 1j * rng.choice([0.0, 1e-9, -1e-6], 300))
        return np.concatenate((off_axis, on_axis, near))

    def test_reflection_matches_mpmath_principal_branch(self):
        # the principal branch itself, not just log Gamma mod 2 pi i; on the
        # negative real axis both take the limit from above
        mpmath = pytest.importorskip("mpmath")
        z = self._left_half_plane_sample()
        got = log_gamma(z)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.loggamma(mpmath.mpc(v.real, v.imag))) for v in z])
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, np.abs(ref)))

    def test_reflection_conjugate_symmetry_is_bitwise(self):
        z = self._left_half_plane_sample()
        z = z[z.imag != 0.0]
        assert np.array_equal(log_gamma(z.conj()), log_gamma(z).conj())

    def test_far_left_argument(self):
        mpmath = pytest.importorskip("mpmath")
        z = -1e4 + 0.5j
        with mpmath.workdps(30):
            ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(log_gamma(z) - ref) <= 1e-15 * abs(ref)

    @staticmethod
    def _assert_array_equals_scalar_calls(z):
        # raw words, so that a signed zero counts as a difference
        got = np.asarray(log_gamma(z), dtype=complex)
        ref = np.array([log_gamma(complex(v)) for v in z.ravel()]).reshape(z.shape)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_meijer_shaped_array_equals_scalar_calls_bitwise(self):
        # the Lanczos sum is a broadcast over (terms x elements): an element
        # of a (runs x nodes) array gets the bits of a scalar call, which
        # numpy would sum pairwise if its lone column were reduced by .sum
        rng = np.random.default_rng(20261020)
        z = rng.uniform(-3.0, 6.0, (2, 97)) + 1j * rng.uniform(0.0, 40.0, (2, 97))
        assert (z.real < 0.5).any() and (z.real >= 0.5).any()
        self._assert_array_equals_scalar_calls(z)

    def test_array_longer_than_a_block_equals_scalar_calls_bitwise(self):
        # the last block holds one element
        rng = np.random.default_rng(20261021)
        n = numerics._BLOCK + 1
        z = rng.uniform(-40.0, 60.0, n) + 1j * rng.uniform(-1e3, 1e3, n)
        self._assert_array_equals_scalar_calls(z)

    def test_mixed_half_planes_equal_scalar_calls_bitwise(self):
        # both sides of Re z = 1/2, both half-planes and the real axis with
        # either signed zero, in one array
        re = [-7.3, -2.5, -0.5, 0.2, 0.49999999999999994, 0.5, 0.7, 3.0, 40.0]
        im = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 30.0, -1e3]
        z = np.array([complex(r, i) for r in re for i in im])
        z = z[np.random.default_rng(20261022).permutation(z.size)]
        self._assert_array_equals_scalar_calls(z)
        self._assert_array_equals_scalar_calls(z.reshape(8, 9))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -3.0, -17.0])
    def test_pole_rejected(self, bad):
        with pytest.raises(PoleError):
            log_gamma(bad)

    @pytest.mark.parametrize("pole", [complex(-3.0, 0.0), complex(-3.0, -0.0), complex(0.0, 0.0)])
    def test_pole_inside_complex_array_rejected(self, pole):
        z = np.array([[1.5 + 2.0j, 0.25 - 1.0j, 7.0 + 0.0j], [-2.5 + 0.0j, pole, 0.3 + 1e-300j]])
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_tiny_imaginary_part_is_not_a_pole(self):
        z = np.array([-2.0 + 1e-300j, 1.5 + 2.0j, -2.0 - 1e-300j])
        assert np.isfinite(log_gamma(z)).all()
        assert math.isfinite(log_gamma(-2.0 + 1e-300j).real)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(complex(math.inf, 0.0))


class TestIntegrateSemiInfinite:
    def test_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0)
        assert abs(res.value - 1.0) <= 1e-12
        assert res.converged

    def test_x_exponential(self):
        res = integrate_semi_infinite(lambda x: x * np.exp(-x), 0.0)
        assert abs(res.value - 1.0) <= 1e-12

    def test_bessel_integrand_matches_series(self):
        # int_0^inf exp(-u - 1/u) du = 2 K1(2)
        res = integrate_semi_infinite(lambda u: np.exp(-u - 1.0 / u), 0.0)
        assert abs(res.value - 2.0 * K1_AT_2) <= 1e-11
        assert abs(res.value - 2.0 * k1_series(2.0)) <= 1e-11

    def test_linearity(self):
        f = lambda x: np.exp(-x)
        g = lambda x: x * np.exp(-2.0 * x)
        a, b = 3.0, -1.5
        combined = integrate_semi_infinite(lambda x: a * f(x) + b * g(x), 0.0)
        fa = integrate_semi_infinite(f, 0.0)
        gb = integrate_semi_infinite(g, 0.0)
        budget = combined.err_estimate + abs(a) * fa.err_estimate + abs(b) * gb.err_estimate
        assert abs(combined.value - (a * fa.value + b * gb.value)) <= budget + 1e-14

    def test_nonzero_lower_limit(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 2.0)
        assert math.isclose(res.value, math.exp(-2.0), rel_tol=1e-11)

    def test_nonfinite_endpoint_treated_as_zero(self):
        def f(x):
            return math.exp(-x) / x if x != 0 else math.nan

        res = integrate_semi_infinite(np.vectorize(lambda x: f(x) * x), 0.0)
        assert abs(res.value - 1.0) <= 1e-10

    def test_nonfinite_term_inside_window_not_converged(self):
        # NaN where the mass sits must not read as a converged value
        res = integrate_semi_infinite(
            lambda x: np.where(np.abs(x - 1.0) < 0.3, np.nan, np.exp(-x)), 0.0)
        assert not res.converged
        assert math.isfinite(res.value)

    def test_nowhere_finite_integrand_not_converged(self):
        res = integrate_semi_infinite(lambda x: np.full_like(x, np.nan), 0.0)
        assert not res.converged

    def test_underflowing_integrand_is_converged_zero(self):
        res = integrate_semi_infinite(lambda x: np.exp(-1e3 - x), 0.0)
        assert res.converged
        assert res.value == 0.0

    def test_converged_respects_tolerance_contract(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 0.0)
        if res.converged:
            assert res.err_estimate <= 1e-10 * abs(res.value)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
    def test_scale_validation(self, scale):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), 0.0, scale=scale)

    @pytest.mark.parametrize("lower", [math.nan, math.inf, -math.inf])
    def test_lower_validation(self, lower):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda x: np.exp(-x), lower)


class TestBesselK1:
    def test_small_argument_limit(self):
        z = 1e-3
        assert abs(z * bessel_k1(z) - 1.0) <= 1e-3

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 5.0])
    def test_against_series_oracle(self, z):
        assert math.isclose(bessel_k1(z), k1_series(z), rel_tol=1e-10)

    def test_frozen_value_at_two(self):
        assert math.isclose(bessel_k1(2.0), K1_AT_2, rel_tol=1e-10)

    def test_monotone_decreasing(self):
        grid = np.linspace(0.05, 50.0, 500)
        vals = [bessel_k1(float(z)) for z in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bessel_k1(bad)

    def test_infinite_argument_rejected(self):
        with pytest.raises(DomainError):
            bessel_k1(math.inf)
