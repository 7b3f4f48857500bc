import hashlib
import math
import warnings

import numpy as np
import pytest

import frechet_laplace as fl
from frechet_laplace.errors import DomainError, NonConvergence, PoleError
from frechet_laplace import meijer, numerics
from frechet_laplace.distributions import Shape, frechet_pdf, levy_pdf_half
from frechet_laplace.laplace import laplace_frechet_oracle
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

    # The pole test runs inside the kernel's reflection branch, block by
    # block, and an input of one block skips the copy loop: these edge cases
    # keep their results, with no RuntimeWarning on the way.
    def test_pole_in_a_later_block_rejected(self):
        z = np.full(numerics._BLOCK + 100, 1.5 + 2.0j)
        z[numerics._BLOCK + 7], z[numerics._BLOCK + 50] = -7.0, -2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError, match=r"\(-7\+0j\)"):
                log_gamma(z)

    @pytest.mark.parametrize("zero", [complex(0.0, -0.0), -0.0, np.array(-0.0),
                                      np.array([2.5, complex(-0.0, -0.0)])])
    def test_signed_zero_is_a_pole(self, zero):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PoleError):
                log_gamma(zero)

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_empty_input(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_gamma(np.zeros(shape))
        assert out.shape == shape and out.dtype == complex

    @pytest.mark.parametrize("z", [np.array(2.5), np.float64(2.5), 2.5, np.array(-1.5 + 0.5j)])
    def test_zero_dimensional_input_gives_a_python_complex(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_gamma(z)
        assert type(out) is complex
        assert out == log_gamma(np.array([complex(z)]))[0]


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

    def test_overflowing_sum_of_finite_terms_raises(self):
        # every node is finite, but their sum leaves binary64
        f = lambda e: lambda u: np.exp(e * math.log(10.0) - np.log(u) ** 2)
        with pytest.raises(DomainError):
            integrate_semi_infinite(f(307), 0.0)
        res = integrate_semi_infinite(f(306), 0.0)
        assert res.converged
        # int exp(-(log u)^2) du = sqrt(pi) e^{1/4}
        assert math.isclose(res.value, math.sqrt(math.pi) * math.exp(0.25) * 1e306, rel_tol=1e-10)

    def test_overflowing_value_raises(self):
        # each level's sum is finite, but scale times it is not
        s = 1e10
        with pytest.raises(DomainError):
            integrate_semi_infinite(
                lambda u: np.exp(300.0 * math.log(10.0) - np.log(u / s) ** 2), 0.0, scale=s)


def _numpy_fingerprint():
    # the bits of the elementwise functions and the BLAS products that the
    # pinned results below and test_meijer.py's go through: the kernel's
    # real functions and dot, the contour's complex exp, log, expm1,
    # division and modulus, the series' and the contour's gemv, and
    # math.lgamma; a numpy, BLAS or libm built for other CPU features rounds
    # some of them differently
    x = np.linspace(-40.0, 40.0, 1601)
    y = np.abs(x) + 1e-3
    z = (x + 1j * y[::-1]) / 8.0
    parts = [np.exp(x), np.log1p(np.exp(x)), np.cosh(x), np.log(y),
             y ** -0.7, y ** -1.041, y ** 0.2,
             np.array([np.dot(x[:161], x[1:162]), np.dot(x[:201], x[::8])]),
             np.exp(z), np.log(z), np.expm1(z), 1.0 / (z + 0.5), np.abs(z),
             np.dot(x[:800].reshape(8, 100), y[:100]), np.dot(x[:660].reshape(220, 3), y[:3]),
             np.array([math.lgamma(v) for v in y[::16]])]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()[:16]


# (value, err_estimate, evaluations, converged) of the exp-sinh kernel,
# recorded on x86-64 with AVX-512 (numpy 2.4, OpenBLAS), where
# _numpy_fingerprint() is PINNED_FINGERPRINT. A rewrite of the kernel must
# keep every node, window, level and summation order: these stay bit for bit.
PINNED_FINGERPRINT = "842f173056d53b98"
PINNED_CASES = {
    "exp": (lambda u: np.exp(-u), 0.0, 1.0),
    # algebraic tails: the refinement stops at level 5 and 6, and runs out at 7
    "tail-level-5": (lambda u: (1.0 + u) ** -1.041, 0.0, 1.0),
    "tail-level-6": (lambda u: (1.0 + u) ** -1.04, 0.0, 1.0),
    "tail-level-7": (lambda u: (1.0 + u) ** -1.035, 0.0, 1.0),
    "lower-2": (lambda u: np.exp(-u), 2.0, 1.0),
    "scale-1e-3": (lambda u: np.exp(-1e3 * u), 0.0, 1e-3),
    "scale-1e3": (lambda u: np.exp(-1e-3 * u), 0.0, 1e3),
    "nan-inside": (lambda u: np.where(np.abs(u - 1.0) < 0.3, np.nan, np.exp(-u)), 0.0, 1.0),
    # NaN on the coarse node just below the window: the window is not widened
    "nan-next-to-window": (lambda u: np.where(u < 1e-30, np.nan, np.exp(-u)), 0.0, 1.0),
    "all-nan": (lambda u: np.full_like(u, np.nan), 0.0, 1.0),
    "underflow": (lambda u: np.exp(-1e3 - u), 0.0, 1.0),
    # exp overflows on the far nodes (inf times 0 is NaN there); the
    # RuntimeWarning filter fails this case if the kernel stops silencing it
    "exp-overflows": (lambda u: np.exp(u) * np.exp(-2.0 * u), 0.0, 1.0),
}
PINNED_KERNEL = {
    "exp": ("0x1.fffffffffffffp-1", "0x1.d0d1f122c8d1ap-52", 236, True),
    "tail-level-5": ("0x1.863e7061272a6p+4", "0x1.d727000000000p-30", 732, True),
    "tail-level-6": ("0x1.8ffffffacd78cp+4", "0x1.b353a00000000p-30", 1436, True),
    "tail-level-7": ("0x1.c92491f451768p+4", "0x1.845ce40000000p-27", 2716, False),
    "lower-2": ("0x1.152aaa3bf81ccp-3", "0x1.f546988c6a70cp-54", 236, True),
    "scale-1e-3": ("0x1.0624dd2f1a9fbp-10", "0x1.0760bf6ddbf38p-59", 236, True),
    "scale-1e3": ("0x1.f3fffffffffffp+9", "0x1.f65a801f422e1p-40", 236, True),
    "nan-inside": ("0x1.8d833122cf7cdp-1", "0x1.17cf1ea610000p-17", 1692, False),
    "nan-next-to-window": ("0x1.0000000000000p+0", "0x1.d0d1f122c8d1ap-52", 220, True),
    "all-nan": ("0x0.0p+0", "0x0.000000000000dp-1022", 27, False),
    "underflow": ("0x0.0p+0", "0x0.000000000000dp-1022", 27, True),
    "exp-overflows": ("0x1.fffffffffffffp-1", "0x1.d0d1f122c8d1ap-52", 236, True),
}
PINNED_ORACLE = {
    (0.1, 0.0001): ("0x1.4f2806a7c50dbp-1", "0x1.69611968dc5d6p-52", 220, True),
    (0.1, 1.0): ("0x1.635515c11a1e0p-2", "0x1.db87687d6edf6p-53", 220, True),
    (0.1, 10.0): ("0x1.0ef86bc067575p-2", "0x1.891fba36f07d2p-53", 220, True),
    (0.7, 0.0001): ("0x1.fdc19a127d24cp-1", "0x1.6680000000000p-43", 188, True),
    (0.7, 1.0): ("0x1.225c8a6858b0ep-2", "0x1.792913ab3587ap-53", 156, True),
    (0.7, 10.0): ("0x1.2f4ceed974884p-6", "0x1.726b2445be3c3p-56", 140, True),
    (1.0, 0.0001): ("0x1.ff894ba3fc134p-1", "0x1.7050000000000p-39", 188, True),
    (1.0, 1.0): ("0x1.1e7200e1d3482p-2", "0x1.745a8ba7cbe7ep-53", 156, True),
    (1.0, 10.0): ("0x1.8719466f2e58ep-8", "0x1.1c086c6e12435p-57", 124, True),
    (1.98, 0.0001): ("0x1.ffe88c9fde9f1p-1", "0x1.d0bb4f24ca35dp-52", 204, True),
    (1.98, 1.0): ("0x1.2bce4315a2858p-2", "0x1.859a6e06b9194p-53", 172, True),
    (1.98, 10.0): ("0x1.3305ab459b588p-11", "0x1.31131d3851064p-60", 140, True),
    (5.0, 0.0001): ("0x1.fff0bdbe3f801p-1", "0x1.d0c92302084b7p-52", 236, True),
    (5.0, 1.0): ("0x1.5021fa12731b5p-2", "0x1.bbe8a954c5876p-53", 204, True),
    (5.0, 10.0): ("0x1.349fee023c220p-14", "0x1.80125e976ea5ep-63", 172, True),
}
# recorded with K1 integrated in x = z (cosh t - 1); every z within 2.8e-16
# of 30-digit mpmath (700.0 too; 1e5 is 0.0, as K1 underflows there)
PINNED_K1 = {
    1e-3: "0x1.f3ff84bb5db52p+9",
    1.0: "0x1.342d2f39d89c2p-1",
    50.0: "0x1.4d17d74654ab6p-75",
}
# sha256 of the comma-joined hex of bessel_k1 on selfcheck's grid and at four
# extreme arguments
PINNED_K1_GRID = [float(z) for z in np.linspace(0.05, 50.0, 120)] + [1e-300, 1e-10, 700.0, 1e5]
PINNED_K1_GRID_SHA256 = "b9c066f9427faa86214466114339f407378f55068703b0b4f0fc445bfe25cfbb"


def _bits(res):
    return (res.value.hex(), res.err_estimate.hex(), res.evaluations, res.converged)


@pytest.fixture(scope="module")
def pinned_platform():
    if _numpy_fingerprint() != PINNED_FINGERPRINT:
        pytest.skip("this numpy rounds its elementwise functions otherwise than "
                    "where the bits were recorded")


@pytest.mark.usefixtures("pinned_platform")
class TestPinnedBits:
    @pytest.mark.parametrize("name", PINNED_KERNEL)
    def test_kernel(self, name):
        f, lower, scale = PINNED_CASES[name]
        assert _bits(integrate_semi_infinite(f, lower, scale)) == PINNED_KERNEL[name]

    @pytest.mark.parametrize("gamma, p", PINNED_ORACLE)
    def test_oracle(self, gamma, p):
        assert _bits(laplace_frechet_oracle(Shape(gamma), p)) == PINNED_ORACLE[gamma, p]

    @pytest.mark.parametrize("z", PINNED_K1)
    def test_bessel_k1(self, z):
        assert bessel_k1(z).hex() == PINNED_K1[z]

    def test_bessel_k1_grid(self):
        bits = ",".join(bessel_k1(z).hex() for z in PINNED_K1_GRID)
        assert hashlib.sha256(bits.encode()).hexdigest() == PINNED_K1_GRID_SHA256

    def test_bessel_k1_grid_as_array(self):
        bits = ",".join(v.hex() for v in bessel_k1(np.array(PINNED_K1_GRID)).tolist())
        assert hashlib.sha256(bits.encode()).hexdigest() == PINNED_K1_GRID_SHA256


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

    @pytest.mark.parametrize("z", [np.geomspace(1e-300, 700.0, 400),
                                   np.geomspace(5.6e-309, 1e-300, 20)], ids=["sweep", "tiny"])
    def test_against_mpmath(self, z):
        # the rule converges at every z, also where K1(z) is 1/z to 16
        # digits, down to where it overflows binary64
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselk(1, mpmath.mpf(v))) for v in z.tolist()])
        for got in (bessel_k1(z), np.array([bessel_k1(v) for v in z.tolist()])):
            assert np.all(np.abs(got - ref) <= 1e-14 * ref)

    @pytest.mark.parametrize("z", [5.5e-309, 5e-324])
    def test_overflow(self, z):
        for arg in (z, np.array([1.0, z])):
            with pytest.raises(DomainError, match="overflows"):
                bessel_k1(arg)

    def test_unconverged_rule_raises(self, monkeypatch):
        # a non-finite weight inside every window: the rule reports
        # converged=False, and bessel_k1 has no flag to carry it
        weights = numerics._DU_DT.copy()
        weights[weights.size // 2 + 8] = math.inf
        monkeypatch.setattr(numerics, "_DU_DT", weights)
        with pytest.raises(NonConvergence):
            bessel_k1(1.0)
        with pytest.raises(NonConvergence):
            bessel_k1(np.array([0.5, 1.0, 2.0]))


def _hex(values):
    return [float(v).hex() for v in values]


class TestBesselK1Array:
    # z log-spaced over [5.6e-309, 700], and 1e5, where K1 underflows to 0.0
    GRID = np.concatenate((np.geomspace(5.6e-309, 700.0, 5000), [1e5]))

    def test_equals_float_calls(self):
        assert _hex(bessel_k1(self.GRID)) == _hex(bessel_k1(float(z)) for z in self.GRID)

    def test_zero_rows(self):
        assert bessel_k1(np.array([1e5, 1.0]))[0] == 0.0

    def test_keeps_shape(self):
        z = np.array([[0.5, 1.0, 2.0], [1e-300, 50.0, 1e5]])
        out = bessel_k1(z)
        assert out.shape == (2, 3)
        assert _hex(out.ravel()) == _hex(bessel_k1(float(v)) for v in z.ravel())

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            bessel_k1(np.array([1.0, bad, 2.0]))

    # The array path's row kernel on a generic integrand g(u) at a scale per
    # row: every row's EvalResult equals its integrate_semi_infinite call.
    SCALES = np.array([0.05, 1.0, 20.0, 1e-3, 3.0])

    @staticmethod
    def _assert_rows_equal_calls(g, scales):
        rows = numerics._exp_sinh_rows(
            lambda nodes, rows: g(scales[rows] * numerics._EXP_PHI[nodes]), scales)
        assert rows == [integrate_semi_infinite(g, 0.0, s) for s in scales.tolist()]

    def test_rows_equal_calls(self):
        self._assert_rows_equal_calls(lambda u: np.exp(-u), self.SCALES)
        # 0 on every coarse node: a converged 0.0 from the float path
        self._assert_rows_equal_calls(lambda u: 0.0 * u, self.SCALES)

    # No scale gives e^{-u} a non-finite term on the coarse or the first
    # level, so these put one there through the lattice's weights: the rows
    # it reaches take the float path, and every row still equals its call.
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_coarse_term(self, monkeypatch, bad):
        weights = numerics._COARSE_DU_DT.copy()
        weights[13] = bad
        monkeypatch.setattr(numerics, "_COARSE_DU_DT", weights)
        self._assert_rows_equal_calls(lambda u: np.exp(-u), self.SCALES)

    def test_non_finite_first_level_sum(self, monkeypatch):
        weights = numerics._DU_DT.copy()
        weights[weights.size // 2 + 8] = math.inf
        monkeypatch.setattr(numerics, "_DU_DT", weights)
        self._assert_rows_equal_calls(lambda u: np.exp(-u), self.SCALES)


# Text is no number: each entry point that converts its input with numpy
# refuses it, whether numpy would read it as a number ("2.0", b"1") or raise
# ("abc"); numbers keep their bits, and a list reads as an array.
ARRAY_ENTRY_POINTS = {
    "frechet_pdf": lambda x: frechet_pdf(Shape(1.0), x),
    "levy_pdf_half": levy_pdf_half,
    "bessel_k1": bessel_k1,
    "log_gamma": log_gamma,
    "frechet_transform_levy": lambda x: fl.frechet_transform_levy(fl.LevyIndex(0.5),
                                                                  Shape(2.0), x),
}
TEXT = ["abc", "2.0", b"1", np.array(["1", "2"]), ["1", "2"], [1.0, "2"],
        np.array(["1.5"], dtype=object), np.array([1.5, b"2"], dtype=object)]


def _complex_hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestTextInput:
    @pytest.mark.parametrize("name", sorted(ARRAY_ENTRY_POINTS))
    @pytest.mark.parametrize("x", TEXT, ids=[f"text{i}" for i in range(len(TEXT))])
    def test_text_is_domain_error(self, name, x):
        with pytest.raises(DomainError, match="text"):
            ARRAY_ENTRY_POINTS[name](x)

    @pytest.mark.parametrize("name", sorted(ARRAY_ENTRY_POINTS))
    def test_numbers_keep_their_bits(self, name):
        f = ARRAY_ENTRY_POINTS[name]
        x = [0.5, 1.0, 2.0, 3]
        from_array = _complex_hex(f(np.array(x, dtype=float)).tolist())
        assert _complex_hex(f(x).tolist()) == from_array
        assert _complex_hex(f(v) for v in x) == from_array
        # numpy scalars and a bool convert as before
        assert _complex_hex(f(v) for v in (np.float32(0.5), np.int64(1), True)) == [
            from_array[0], from_array[1], from_array[1]]


# Each scalar entry point refuses text in any of its numeric arguments with a
# DomainError, where its first comparison or math call raised a raw
# TypeError, and MeijerSpec read text as a number.
_ONE, _HALF = fl.Shape(1.0), fl.build_laplace_closed_form(fl.RationalShape(2, 3)).spec
_TARGET = fl.TransformTarget(f=np.exp, laplace_of_f=lambda u: 1.0 / (1.0 + u))
SCALAR_ENTRY_POINTS = {
    "Shape": fl.Shape,
    "LevyIndex": fl.LevyIndex,
    "LaplaceQuery": lambda v: fl.LaplaceQuery(fl.RationalShape(1, 1), v),
    "FrechetKernelParams.x": lambda v: fl.FrechetKernelParams(_ONE, v, 1.0),
    "FrechetKernelParams.t": lambda v: fl.FrechetKernelParams(_ONE, 1.0, v),
    "frechet_cdf": lambda v: fl.frechet_cdf(_ONE, v),
    "frechet_quantile": lambda v: fl.frechet_quantile(_ONE, v),
    "frechet_moment": lambda v: fl.frechet_moment(_ONE, v),
    "levy_moment": lambda v: fl.levy_moment(fl.LevyIndex(0.5), v),
    "levy_asymptotic": lambda v: fl.levy_asymptotic(fl.LevyIndex(0.5), v),
    "levy_asymptotic_rescaled": lambda v: fl.levy_asymptotic_rescaled(_ONE, v),
    "find_maximum.x_init": lambda v: fl.find_maximum(lambda x: x * math.exp(-x), v),
    "find_maximum.arg_tol": lambda v: fl.find_maximum(lambda x: x * math.exp(-x), 1.0, v),
    "laplace_frechet_oracle": lambda v: fl.laplace_frechet_oracle(_ONE, v),
    "laplace_frechet_bessel": fl.laplace_frechet_bessel,
    "laplace_symmetry_check": lambda v: fl.laplace_symmetry_check(fl.RationalShape(2, 3), v),
    "laplace_via_mellin.p": lambda v: fl.laplace_via_mellin(
        fl.frechet_mellin_image(fl.RationalShape(1, 1)), v),
    "laplace_via_mellin.c": lambda v: fl.laplace_via_mellin(
        fl.frechet_mellin_image(fl.RationalShape(1, 1)), 1.0, v),
    "frechet_transform_quadrature": lambda v: fl.frechet_transform_quadrature(_TARGET, _ONE, v),
    "frechet_transform_via_laplace": lambda v: fl.frechet_transform_via_laplace(
        _TARGET, _ONE, v),
    "frechet_transform_frechet_half": lambda v: fl.frechet_transform_frechet_half(_ONE, v),
    "meijer_g_m0.const": lambda v: fl.meijer_g_m0(_HALF, const=v, slope=0.0),
    "meijer_g_m0.slope": lambda v: fl.meijer_g_m0(_HALF, const=0.0, slope=v),
    "meijer_g_m0.c": lambda v: fl.meijer_g_m0(_HALF, const=0.0, slope=0.0, c=v),
    "meijer_g_series.const": lambda v: fl.meijer_g_series(_HALF, const=v, slope=0.0),
    "meijer_g_series.slope": lambda v: fl.meijer_g_series(_HALF, const=0.0, slope=v),
    "meijer_g.const": lambda v: meijer.meijer_g(_HALF, const=v, slope=0.0),
    "meijer_g.slope": lambda v: meijer.meijer_g(_HALF, const=0.0, slope=v),
    "integrate_semi_infinite.lower": lambda v: fl.integrate_semi_infinite(np.exp, v),
    "integrate_semi_infinite.scale": lambda v: fl.integrate_semi_infinite(np.exp, 0.0, v),
    "MeijerSpec.b": lambda v: fl.MeijerSpec([v]),
    "MeijerSpec.groups": lambda v: fl.MeijerSpec(groups=((2, v),)),
    "MellinFunction.lo": lambda v: fl.MellinFunction(np.exp, (v, 1.0)),
    "MellinFunction.hi": lambda v: fl.MellinFunction(np.exp, (-1.0, v)),
    "LaplaceClosedForm.log_argument": lambda v: fl.build_laplace_closed_form(
        fl.RationalShape(2, 3)).log_argument(v),
}
TEXT_SCALARS = ["0.5", "abc", b"1", np.str_("0.5")]


@pytest.mark.parametrize("name", sorted(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("v", TEXT_SCALARS, ids=[f"text{i}" for i in range(len(TEXT_SCALARS))])
def test_scalar_text_is_domain_error(name, v):
    with pytest.raises(DomainError, match="text"):
        SCALAR_ENTRY_POINTS[name](v)


# One allow-list gate (numerics._real) decides what a number is: numpy's
# bool, int, uint and float kinds, and nothing else. None, a list, a complex
# number and other objects are DomainErrors at every scalar entry point, where
# text alone was refused and the rest raised a raw TypeError (a ragged list,
# which numpy cannot read, a raw ValueError). None is meijer_g_m0's default
# c (the band's path), so it is no case there.
NON_NUMBERS = [None, [1.0], 1 + 0j, object(), {}, [[1.0], [1.0, 2.0]]]
_NON_NUMBER_IDS = ["None", "list", "complex", "object", "dict", "ragged"]


@pytest.mark.parametrize("name, v", [
    pytest.param(name, v, id=f"{name}-{tag}")
    for name in sorted(SCALAR_ENTRY_POINTS) for v, tag in zip(NON_NUMBERS, _NON_NUMBER_IDS)
    if (name, tag) != ("meijer_g_m0.c", "None")])
def test_scalar_non_number_is_domain_error(name, v):
    with pytest.raises(DomainError):
        SCALAR_ENTRY_POINTS[name](v)


# The public callables of the package that take no number of their own, or
# whose numbers another entry point's sweep covers. Every other one is named
# in SCALAR_ENTRY_POINTS or ARRAY_ENTRY_POINTS.
TAKES_NO_NUMBER = {
    "RationalShape": "takes integers: its own int or numpy-integer check, tested in "
                     "test_distributions.py",
    "EvalResult": "a result record the library fills",
    "Method": "an enum of routes",
    "TransformTarget": "holds two callables",
    "laplace_frechet": "takes a LaplaceQuery, whose p is swept",
    "frechet_kernel": "takes FrechetKernelParams, whose x and t are swept",
    "frechet_mode": "takes a Shape, whose gamma is swept",
    "levy_asymptotic_mode": "takes a LevyIndex, whose alpha is swept",
    "frechet_mellin_image": "takes a RationalShape",
    "build_laplace_closed_form": "takes a RationalShape",
}


def test_every_public_entry_point_taking_a_number_is_swept():
    public = {name for name in fl.__all__ if callable(getattr(fl, name))
              and not (isinstance(getattr(fl, name), type)
                       and issubclass(getattr(fl, name), Exception))}
    swept = {name.split(".")[0] for name in SCALAR_ENTRY_POINTS} | set(ARRAY_ENTRY_POINTS)
    assert not swept & set(TAKES_NO_NUMBER)
    assert public - swept == set(TAKES_NO_NUMBER)


# A real array entry point refuses a complex input, where numpy's cast
# dropped its imaginary part with only a ComplexWarning: bessel_k1(1 + 1j)
# was K1(1). log_gamma takes complex numbers.
@pytest.mark.parametrize("name", sorted(set(ARRAY_ENTRY_POINTS) - {"log_gamma"}))
@pytest.mark.parametrize("z", [1 + 1j, np.array([1 + 3j])], ids=["scalar", "array"])
def test_real_array_entry_point_refuses_complex(name, z):
    with pytest.raises(DomainError, match="complex"):
        ARRAY_ENTRY_POINTS[name](z)


# Edges of each domain that the gate keeps as they were: an infinite
# argument where the value has a limit, p = +-0 for the oracle, and NaN
# where a class other than DomainError decides the domain.
_IMAGE = fl.frechet_mellin_image(fl.RationalShape(1, 1))


def test_edges_the_gate_keeps():
    assert fl.frechet_cdf(_ONE, math.inf) == 1.0
    assert fl.levy_asymptotic(fl.LevyIndex(0.5), math.inf) == 0.0
    assert fl.levy_asymptotic_rescaled(_ONE, math.inf) == 0.0
    for p in (0.0, -0.0):
        assert fl.laplace_frechet_oracle(_ONE, p).value == 1.0
    with pytest.raises(fl.DivergentMoment):
        fl.frechet_moment(_ONE, math.nan)
    with pytest.raises(fl.ContourError):
        fl.laplace_via_mellin(_IMAGE, 1.0, c=math.nan)
