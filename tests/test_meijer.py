import math

import numpy as np
import pytest

from frechet_laplace.distributions import RationalShape, Shape
from frechet_laplace.errors import ContourError, DomainError
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_oracle)
from frechet_laplace import meijer
from frechet_laplace.ftransform import _HALF_SPEC
from frechet_laplace.meijer import (MeijerSpec, build_laplace_closed_form,
                                    meijer_g_m0)

TWO_K1_OF_2 = 0.27973176363304486  # 2 K1(2), from the series oracle

ALL_SHAPES = [RationalShape(l, k) for l in range(1, 5) for k in range(1, 5)]


class TestMeijerGm0:
    def test_exponential_identity_grid(self):
        spec = MeijerSpec([0.0])
        for z in np.linspace(1e-2, 20.0, 50):
            res = meijer_g_m0(spec, float(z))
            assert abs(res.value - math.exp(-z)) <= 1e-10 * math.exp(-z)

    def test_bessel_case(self):
        res = meijer_g_m0(MeijerSpec([1.0, 0.0]), 1.0)
        assert abs(res.value - TWO_K1_OF_2) <= 1e-9 * TWO_K1_OF_2

    def test_half_shape_case_against_oracle(self):
        # sqrt(pi)^-1 G^{3,0}_{0,3}(1/4 | 0, 1/2, 1) is the shape-1/2 transform at p=1
        res = meijer_g_m0(MeijerSpec([0.0, 0.5, 1.0]), 0.25)
        value = res.value / math.sqrt(math.pi)
        oracle = laplace_frechet_oracle(Shape(0.5), 1.0)
        assert abs(value - oracle.value) <= 1e-8 * abs(oracle.value)

    def test_contour_shift_invariance(self):
        spec = MeijerSpec([0.5, 1.0, 0.0])
        values = [meijer_g_m0(spec, 0.25, c).value
                  for c in (0.3, 0.5, 1.0, 1.5)]
        for a in values:
            for b in values:
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_underflow_returns_converged_zero(self):
        # on the saddle contour the whole integrand underflows for huge z
        res = meijer_g_m0(MeijerSpec([0.0]), 5e4)
        assert res.value == 0.0
        assert res.converged

    def test_abscissa_validation(self):
        with pytest.raises(ContourError):
            meijer_g_m0(MeijerSpec([-0.5, 0.0, 0.0]), 1.0, 0.4)
        with pytest.raises(ContourError):
            meijer_g_m0(MeijerSpec([0.0]), 1.0, c=math.inf)

    def test_argument_domain(self):
        with pytest.raises(DomainError):
            meijer_g_m0(MeijerSpec([0.0]), 0.0)
        with pytest.raises(DomainError):
            meijer_g_m0(MeijerSpec([0.0]), math.inf)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            MeijerSpec([])
        with pytest.raises(DomainError):
            MeijerSpec([math.inf])

    def test_group_validation(self):
        for groups in [((0, 1.0),), ((2.0, 1.0),), ((2, math.nan),)]:
            with pytest.raises(DomainError):
                MeijerSpec(groups=groups)

    def test_b_derived_from_groups(self):
        assert MeijerSpec([0.5, 1.0]).groups == ((1, 0.5), (1, 1.0))
        assert MeijerSpec([0.0], groups=((2, 1),)).b == (0.0, 0.5, 1.0)
        spec = MeijerSpec(groups=((3, 1), (2, 0)))
        assert spec.b == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, 0.5])
        assert spec.m == 5
        assert _HALF_SPEC.b == (-0.5, 0.0, 0.0)


# Each run Delta(n, a) collapses to one gamma factor by Gauss's multiplication
# formula; the grouped spec must agree with the same b list taken one entry at
# a time. At the roundoff floor the two forms round differently (the collapsed
# log-space sum carries terms n|s| log(n|s|), larger than the |E| of the node
# value the floor is read from), so the estimates take the same fixed safety
# factor as the mpmath tests.
GROUPED_SPECS = ([(f"l{s.l}k{s.k}", s) for s in ALL_SHAPES]
                 + [(f"l{l}k{k}", RationalShape(l, k))
                    for l, k in ((7, 5), (13, 11), (1, 30), (30, 1))])


class TestGaussCollapse:
    @pytest.mark.parametrize("shape", [s for _, s in GROUPED_SPECS],
                             ids=[name for name, _ in GROUPED_SPECS])
    def test_closed_form_groups_match_flat_list(self, shape):
        form = build_laplace_closed_form(shape)
        assert form.spec.groups == ((shape.k, 1.0), (shape.l, 0.0))
        flat = MeijerSpec(form.spec.b)
        for p in (0.01, 0.1, 1.0, 10.0, 20.0):
            z = form.argument(p)
            grouped, single = meijer_g_m0(form.spec, z), meijer_g_m0(flat, z)
            assert (abs(grouped.value - single.value)
                    <= 10.0 * (grouped.err_estimate + single.err_estimate))

    @pytest.mark.parametrize("z", [1e-3, 0.1, 1.0, 10.0, 100.0])
    def test_half_spec_matches_flat_list(self, z):
        grouped = meijer_g_m0(_HALF_SPEC, z)
        single = meijer_g_m0(MeijerSpec([-0.5, 0.0, 0.0]), z)
        assert grouped.converged and single.converged
        assert (abs(grouped.value - single.value)
                <= 10.0 * (grouped.err_estimate + single.err_estimate))

    @pytest.mark.parametrize("l,k", [(1, 1), (30, 1)])
    def test_two_log_gamma_calls_per_integral(self, l, k, monkeypatch):
        # one call on the probe, one on the grid, whatever m = k + l is
        calls, original = [], meijer.log_gamma

        def counting(s):
            calls.append(np.shape(s))
            return original(s)

        monkeypatch.setattr(meijer, "log_gamma", counting)
        form = build_laplace_closed_form(RationalShape(l, k))
        assert form.spec.m in (2, 31)
        res = meijer_g_m0(form.spec, form.argument(1.0))
        assert res.converged
        assert len(calls) == 2
        assert all(shape[0] == 2 for shape in calls)


def _integrand_and_abscissa(monkeypatch, spec, z):
    # the integrand meijer_g_m0 hands to the contour engine, and its abscissa
    captured = []
    monkeypatch.setattr(meijer, "contour_integral",
                        lambda integrand, c, pole_distance: captured.append((integrand, c)))
    meijer_g_m0(spec, z)
    return captured[0]


def _count_log_gamma(monkeypatch):
    shapes, original = [], meijer.log_gamma

    def counting(s):
        shapes.append(np.shape(s))
        return original(s)

    monkeypatch.setattr(meijer, "log_gamma", counting)
    return shapes


# The contour grid c + i tau, tau = j h with |j| <= N, is its own conjugate
# reversed, so the integrand evaluates the upper half and mirrors it. That
# must give the very values of a direct evaluation, bit for bit.
class TestConjugateMirror:
    @pytest.mark.parametrize("l,k,p", [(1, 1, 1.0), (3, 4, 0.1), (30, 1, 20.0),
                                       (13, 11, 1.0)])
    def test_symmetric_grid_equals_halves(self, l, k, p, monkeypatch):
        form = build_laplace_closed_form(RationalShape(l, k))
        integrand, c = _integrand_and_abscissa(monkeypatch, form.spec, form.argument(p))
        tau = (np.arange(401) - 200) * 0.37
        mirrored = integrand(c + 1j * tau)
        # neither half is its own conjugate reversed: both take the direct path
        lower, upper = integrand(c + 1j * tau[:200]), integrand(c + 1j * tau[200:])
        assert mirrored.tobytes() == np.concatenate((lower, upper)).tobytes()

    def test_other_node_arrays_take_the_direct_path(self, monkeypatch):
        form = build_laplace_closed_form(RationalShape(1, 1))
        integrand, c = _integrand_and_abscissa(monkeypatch, form.spec, form.argument(1.0))
        shapes = _count_log_gamma(monkeypatch)
        a = 0.9
        probe = c + np.concatenate(([0.0, -a, a], 1j * 1.25 ** np.arange(38)))
        even = c + 1j * (np.arange(10) - 4.5)
        skewed = c + 1j * (np.arange(11) - 5.0)
        skewed[0] += 1e-9
        for s in (probe, even, skewed):
            integrand(s)
        assert shapes == [(2, 41), (2, 10), (2, 11)]

    def test_grid_evaluates_upper_half_only(self, monkeypatch):
        # (1, 1) at p = 1 takes 41 probe nodes and a 377-node grid, as it did
        # before the mirror; log_gamma now sees the probe and n_half + 1 nodes
        shapes = _count_log_gamma(monkeypatch)
        form = build_laplace_closed_form(RationalShape(1, 1))
        res = meijer_g_m0(form.spec, form.argument(1.0))
        assert res.converged and res.value == pytest.approx(TWO_K1_OF_2, rel=1e-15)
        assert res.evaluations == 418
        n_half = (res.evaluations - 41 - 1) // 2
        assert shapes == [(2, 41), (2, n_half + 1)]


class TestBuildLaplaceClosedForm:
    def test_unit_shape(self):
        form = build_laplace_closed_form(RationalShape(1, 1))
        assert form.prefactor == pytest.approx(1.0, rel=1e-15)
        assert form.spec.b == (1.0, 0.0)
        assert form.argument(3.7) == pytest.approx(3.7, rel=1e-15)

    def test_one_third_shape(self):
        form = build_laplace_closed_form(RationalShape(1, 3))
        assert form.prefactor == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi), rel=1e-15)
        assert form.spec.b == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0])
        assert form.argument(2.0) == pytest.approx(2.0 / 27.0, rel=1e-15)

    def test_two_thirds_shape(self):
        form = build_laplace_closed_form(RationalShape(2, 3))
        assert form.prefactor == pytest.approx(
            math.sqrt(12.0) / (4.0 * math.pi ** 1.5), rel=1e-15)
        assert form.spec.b == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, 0.5])
        assert form.argument(2.0) == pytest.approx(4.0 / 108.0, rel=1e-15)

    def test_parameter_count(self):
        for shape in ALL_SHAPES:
            form = build_laplace_closed_form(shape)
            assert form.spec.m == shape.k + shape.l

    def test_argument_domain(self):
        form = build_laplace_closed_form(RationalShape(1, 2))
        with pytest.raises(DomainError):
            form.argument(0.0)

    @pytest.mark.parametrize("l,k,p", [(1, 200, 1.0), (3, 4, 1e300)])
    def test_argument_overflow_is_domain_error(self, l, k, p):
        # k^k l^l too large for a float, or p^l past the binary64 range
        with pytest.raises(DomainError):
            build_laplace_closed_form(RationalShape(l, k)).argument(p)
        with pytest.raises(DomainError):
            laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G))


class TestClosedFormFamily:
    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: f"l{s.l}k{s.k}")
    def test_range_and_monotone(self, shape):
        form = build_laplace_closed_form(shape)
        grid = np.geomspace(0.05, 20.0, 40)
        vals = [form.prefactor * meijer_g_m0(form.spec, form.argument(float(p))).value
                for p in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMpmathOracle:
    # A third, independent route: mpmath's Meijer G at 30 digits. The
    # contour error estimate must bound the actual error, up to a fixed
    # safety factor and the binary64 rounding of the value itself.
    @pytest.mark.parametrize("l,k", [(1, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 4),
                                     (7, 5), (1, 30)])
    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0, 10.0])
    def test_error_estimate_bounds_actual_error(self, l, k, p):
        mpmath = pytest.importorskip("mpmath")
        form = build_laplace_closed_form(RationalShape(l, k))
        z = form.argument(p)
        res = meijer_g_m0(form.spec, z)
        with mpmath.workdps(30):
            ref = float(mpmath.meijerg([[], []], [list(form.spec.b), []], z))
        assert res.converged
        assert abs(res.value - ref) <= 10.0 * res.err_estimate + 4e-16 * abs(ref)
