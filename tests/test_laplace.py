import math

import numpy as np
import pytest

from frechet_laplace import laplace
from frechet_laplace.distributions import RationalShape, Shape
from frechet_laplace.errors import DomainError, NonConvergence
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_bessel,
                                     laplace_frechet_oracle,
                                     laplace_symmetry_check)
from frechet_laplace.meijer import build_laplace_closed_form, meijer_g_m0
from frechet_laplace.numerics import EvalResult

TWO_K1_OF_2 = 0.27973176363304486  # 2 K1(2), from the series oracle


def meijer_value(l, k, p):
    return laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G)).value


class TestLaplaceFrechet:
    def test_unit_shape_bessel_value(self):
        assert abs(meijer_value(1, 1, 1.0) - TWO_K1_OF_2) <= 1e-9 * TWO_K1_OF_2

    @pytest.mark.parametrize("l,k", [(1, 1), (1, 2), (2, 1), (3, 4)])
    def test_small_p_limit(self, l, k):
        # shapes with gamma >= 1/2, where the transform is this close to 1
        assert abs(meijer_value(l, k, 1e-4) - 1.0) <= 5e-2

    def test_half_shape_against_oracle(self):
        oracle = laplace_frechet_oracle(Shape(0.5), 1.0)
        assert abs(meijer_value(1, 2, 1.0) - oracle.value) <= 1e-8 * abs(oracle.value)

    @pytest.mark.parametrize("l,k", [(1, 2), (2, 3), (3, 1), (4, 3)])
    def test_cross_path_sample(self, l, k):
        for p in (0.05, 1.0, 10.0):
            oracle = laplace_frechet_oracle(Shape(l / k), p)
            assert abs(meijer_value(l, k, p) - oracle.value) \
                <= 1e-8 * max(1.0, abs(oracle.value))

    def test_auto_converges_at_tiny_p(self):
        # the residue series needs a few terms there; AUTO returns it
        res = laplace_frechet(LaplaceQuery(RationalShape(1, 1), 1e-7, Method.AUTO))
        assert res.converged and res.route == "series"
        assert abs(res.value - 1.0) <= 1e-2

    def test_auto_positive_beyond_noise_floor(self):
        # far in the tail the transform is tiny (6.5e-24 at p = 100); auto
        # must still return a strictly positive value
        res = laplace_frechet(LaplaceQuery(RationalShape(3, 1), 100.0, Method.AUTO))
        assert 0.0 < res.value < 1e-12

    @pytest.mark.parametrize("p", [58.0, 70.0, 85.0, 100.0])
    def test_auto_keeps_tiny_converged_meijer_value(self, p, monkeypatch):
        # L < 1e-15 here, and the Meijer value is converged with an estimate
        # of about 1e-14 of it: AUTO returns it without the oracle
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(laplace, "laplace_frechet_oracle",
                            lambda *args: pytest.fail("AUTO called the oracle"))
        res = laplace_frechet(LaplaceQuery(RationalShape(3, 1), p, Method.AUTO))
        form = build_laplace_closed_form(RationalShape(3, 1))
        with mpmath.workdps(30):
            ref = float(mpmath.exp(form.log_prefactor)
                        * mpmath.meijerg([[], []], [list(form.spec.b), []],
                                         mpmath.exp(form.log_argument(math.log(p)))))
        assert res.converged and res.value < 1e-15
        assert abs(res.value - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("method,p,route", [
        (Method.MEIJER_G, 1.0, "series"), (Method.MEIJER_G, 50.0, "contour"),
        (Method.AUTO, 1.0, "series"), (Method.AUTO, 50.0, "contour"),
        # the contour's converged zero far below the smallest subnormal:
        # AUTO keeps it
        (Method.AUTO, 1e6, "contour"), (Method.QUADRATURE, 1.0, "quadrature")])
    def test_route_names_the_value_returned(self, method, p, route):
        res = laplace_frechet(LaplaceQuery(RationalShape(1, 1), p, method))
        assert res.converged and res.route == route

    @pytest.mark.parametrize("value, converged", [(-1e-20, True), (0.3, False)])
    def test_auto_falls_back_to_the_oracle(self, monkeypatch, value, converged):
        # a negative or an unconverged Meijer value: AUTO returns the oracle's
        monkeypatch.setattr(laplace, "_meijer_path", lambda *args: EvalResult(
            value, 0.0, 1, converged, "series"))
        res = laplace_frechet(LaplaceQuery(RationalShape(1, 1), 1.0, Method.AUTO))
        oracle = laplace_frechet_oracle(Shape(1.0), 1.0)
        assert res == oracle and res.route == "quadrature"

    def test_range(self):
        for p in np.geomspace(0.01, 20.0, 20):
            v = meijer_value(2, 3, float(p))
            assert 0.0 < v <= 1.0

    def test_decay(self):
        assert meijer_value(1, 1, 50.0) < meijer_value(1, 1, 1.0)

    def test_monotone_and_convex(self):
        grid = np.linspace(0.1, 10.0, 80)
        vals = [meijer_value(2, 1, float(p)) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-10)

    def test_quadrature_method_dispatch(self):
        res = laplace_frechet(LaplaceQuery(RationalShape(1, 1), 1.0, Method.QUADRATURE))
        assert abs(res.value - TWO_K1_OF_2) <= 1e-10

    def test_explicit_contour_config(self):
        # the closed form's collapsed pair at p = 1: const = log l = 0, slope = 0
        form = build_laplace_closed_form(RationalShape(1, 2))
        res = meijer_g_m0(form.spec, const=0.0, slope=0.0, c=0.8)
        oracle = laplace_frechet_oracle(Shape(0.5), 1.0)
        assert abs(res.value - oracle.value) <= 1e-8 * abs(oracle.value)

    def test_query_validation(self):
        with pytest.raises(DomainError):
            LaplaceQuery(RationalShape(1, 1), 0.0)
        with pytest.raises(DomainError):
            LaplaceQuery(RationalShape(1, 1), -2.0)
        with pytest.raises(DomainError):
            LaplaceQuery(RationalShape(1, 1), math.inf, Method.MEIJER_G)

    @pytest.mark.parametrize("method", list(Method))
    @pytest.mark.parametrize("shape", [Shape(0.5), 0.5, (1, 2), None])
    def test_query_takes_a_rational_shape_only(self, shape, method):
        # a real shape goes to laplace_frechet_oracle; a query refuses it
        # with the library's error, for every method
        with pytest.raises(DomainError):
            laplace_frechet(LaplaceQuery(shape, 1.0, method))

    @pytest.mark.parametrize("method", ["quadrature", "auto", None, 0])
    def test_query_takes_a_method_member_only(self, method):
        # laplace_frechet picks its route by identity with the members, so a
        # route name would run AUTO silently ("quadrature" gives the series here)
        with pytest.raises(DomainError, match="Method"):
            LaplaceQuery(RationalShape(1, 3), 20.0, method)


class TestOracle:
    def test_at_zero(self):
        res = laplace_frechet_oracle(Shape(2.0), 0.0)
        assert res.value == 1.0
        assert res.converged

    def test_unit_shape_bessel_value(self):
        res = laplace_frechet_oracle(Shape(1.0), 1.0)
        assert abs(res.value - TWO_K1_OF_2) <= 1e-10

    def test_irrational_shape(self):
        vals = [laplace_frechet_oracle(Shape(math.sqrt(2.0)), p).value
                for p in (0.5, 1.0, 2.0)]
        assert all(0.0 < v < 1.0 for v in vals)
        assert vals[0] > vals[1] > vals[2]

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            laplace_frechet_oracle(Shape(1.0), -1.0)

    def test_nan_p_rejected(self):
        with pytest.raises(DomainError):
            laplace_frechet_oracle(Shape(1.0), math.nan)


def mpmath_oracle_integral(mpmath, gamma, p):
    """int_0^inf exp(-u - p u^{-1/gamma}) du at 40 working digits, in
    s = log u on the span where the exponent lies within 150 of its peak,
    by Gauss-Legendre on pieces narrower than the saddle's width and than
    gamma (the scale of p u^{-1/gamma} in s)."""
    with mpmath.workdps(40):
        g, p = mpmath.mpf(gamma), mpmath.mpf(p)
        u_star = (p / g) ** (g / (1 + g))
        top = u_star * (1 + g) + 150
        lo, hi = g * mpmath.log(p / top) - 1, mpmath.log(top)
        width = min(1, g, 1 / mpmath.sqrt(u_star * (1 + 1 / g)))
        pieces = mpmath.linspace(lo, hi, int((hi - lo) / width * 4) + 2)
        return mpmath.quad(lambda s: mpmath.exp(s - mpmath.exp(s) - p * mpmath.exp(-s / g)),
                           pieces, method="gauss-legendre")


# the oracle inputs that QUADPACK got wrong or left unconverged
ORACLE_QUADPACK_DEFECTS = [(2.2109803022429606, 0.00012436407299591009),
                           (2.0272198301822915, 0.1737428718976487),
                           (3.0208541317800681, 0.00044846865214826951),
                           (4.2364205068481224, 0.016181765991428801),
                           (0.40942889506850444, 19.975876058391336)]


class TestOracleMpmath:
    # A third route for the quadrature oracle: an mpmath integral to 30
    # digits. The error estimate must bound the actual error, up to a fixed
    # safety factor and the binary64 rounding of the value itself.
    @pytest.mark.parametrize("gamma,p", ORACLE_QUADPACK_DEFECTS
                             + [(g, p) for g in (0.1, 0.5, 1.0, 2.5, 5.0, 10.0)
                                for p in (1e-6, 1e-3, 1.0, 20.0, 1e3)])
    def test_error_estimate_bounds_actual_error(self, gamma, p):
        mpmath = pytest.importorskip("mpmath")
        res = laplace_frechet_oracle(Shape(gamma), p)
        ref = float(mpmath_oracle_integral(mpmath, gamma, p))
        assert res.converged
        assert abs(res.value - ref) <= 10.0 * res.err_estimate + 4e-16 * abs(ref)


# At gamma <= 1/200 the oracle's error estimate must still bound its actual
# error. References to 17 digits from mpmath.quad at 30 digits over
# exp(-u - u^{-1/gamma}), with breakpoints across the cliff at u = 1.
@pytest.mark.parametrize("gamma,ref", [(1.0 / 200.0, 0.36681775424402136),
                                       (1.0 / 800.0, 0.36761400960405952)])
def test_small_gamma_error_estimate_bounds_actual_error(gamma, ref):
    res = laplace_frechet_oracle(Shape(gamma), 1.0)
    assert abs(res.value - ref) <= res.err_estimate


class TestSymmetryLaw:
    def test_half_shape(self):
        lhs, rhs = laplace_symmetry_check(RationalShape(1, 2), 2.0)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    @pytest.mark.parametrize("l,k", [(1, 2), (2, 3), (1, 3), (3, 4), (4, 1)])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 5.0])
    def test_pairs(self, l, k, p):
        lhs, rhs = laplace_symmetry_check(RationalShape(l, k), p)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    @pytest.mark.parametrize("l,k,p", [(3, 1, 1e110), (1, 800, 1.0)])
    def test_out_of_range_variable(self, l, k, p):
        # the swapped variable p^{l/k} = 1e330, or the prefactor and argument
        # of 1/800, leave binary64 where neither side does: the swapped side
        # takes its variable as (l/k) log p
        lhs, rhs = laplace_symmetry_check(RationalShape(l, k), p)
        assert math.isfinite(lhs) and math.isfinite(rhs)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)

    def test_unconverged_side_raises(self):
        # 1/300 at p = 1e300: both sides are unconverged numbers (4.4e18 and
        # 7.2e18, where the transform is at most 1), not sides of the law
        with pytest.raises(NonConvergence):
            laplace_symmetry_check(RationalShape(1, 300), 1e300)

    def test_every_side_converges_on_the_small_shapes(self):
        # coprime l, k <= 8 at 25 p on [1e-3, 1e3]: no side raises
        for l in range(1, 9):
            for k in range(1, 9):
                if math.gcd(l, k) == 1:
                    for p in np.geomspace(1e-3, 1e3, 25).tolist():
                        lhs, rhs = laplace_symmetry_check(RationalShape(l, k), p)
                        assert 0.0 <= lhs <= 1.0 and 0.0 <= rhs <= 1.0

    def test_involution(self):
        shape = RationalShape(2, 3)
        p = 1.7
        # applying the transmutation twice returns the original query
        q = p ** (shape.l / shape.k)
        back = q ** (shape.k / shape.l)
        assert math.isclose(back, p, rel_tol=1e-15)
        assert shape.swapped().swapped() == shape

    def test_swapped_pair_shares_argument(self):
        # the (3,2) and (2,3) assemblies map p = 1 to the same G argument
        f23 = build_laplace_closed_form(RationalShape(2, 3))
        f32 = build_laplace_closed_form(RationalShape(3, 2))
        assert math.isclose(f23.log_argument(0.0), -math.log(108.0), rel_tol=1e-15)
        assert math.isclose(f32.log_argument(0.0), -math.log(108.0), rel_tol=1e-15)
        lhs, rhs = laplace_symmetry_check(RationalShape(3, 2), 1.0)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


class TestBesselSpecialCase:
    def test_limit_at_zero(self):
        assert abs(laplace_frechet_bessel(1e-6) - 1.0) <= 1e-3

    def test_at_one(self):
        assert abs(laplace_frechet_bessel(1.0) - TWO_K1_OF_2) <= 1e-10

    def test_agreement_with_meijer_path(self):
        for p in np.geomspace(0.01, 20.0, 25):
            a = meijer_value(1, 1, float(p))
            b = laplace_frechet_bessel(float(p))
            assert abs(a - b) <= 1e-9 * abs(b)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_frechet_bessel(0.0)

    def test_infinite_p_rejected(self):
        # bessel_k1(inf) = 0 times an infinite prefactor would be NaN
        with pytest.raises(DomainError):
            laplace_frechet_bessel(math.inf)
