import dataclasses
import functools
import inspect
import math
import sys
import warnings

import numpy as np
import pytest

from frechet_laplace.distributions import RationalShape, Shape
from frechet_laplace.errors import ContourError, DomainError
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_oracle)
from frechet_laplace import meijer, mellin
from frechet_laplace.ftransform import _HALF_SPEC, frechet_transform_frechet_half
from frechet_laplace.meijer import (MeijerSpec, build_laplace_closed_form, meijer_g,
                                    meijer_g_m0, meijer_g_series)
from test_numerics import PINNED_FINGERPRINT, _bits, _numpy_fingerprint

TWO_K1_OF_2 = 0.27973176363304486  # 2 K1(2), from the series oracle

ALL_SHAPES = [RationalShape(l, k) for l in range(1, 5) for k in range(1, 5)]


def _g_level(spec, log_z):
    # G^{m,0}_{0,m}(e^log_z | spec.b) as meijer_g_m0's collapsed pair:
    # Gauss's multiplication formula's constants, written out in run order.
    # For a flat spec both sums are 0.0, and the pair is (0.0, log_z) exactly.
    const = sum(0.5 * (n - 1.0) * math.log(2.0 * math.pi) + (0.5 - a) * math.log(n)
                for n, a in spec.groups)
    slope = sum(n * math.log(n) for n, _ in spec.groups)
    return {"const": const, "slope": slope + log_z}


class TestMeijerGm0:
    def test_exponential_identity_grid(self):
        spec = MeijerSpec([0.0])
        for z in np.linspace(1e-2, 20.0, 50):
            res = meijer_g_m0(spec, const=0.0, slope=math.log(z))
            assert abs(res.value - math.exp(-z)) <= 1e-10 * math.exp(-z)

    def test_bessel_case(self):
        res = meijer_g_m0(MeijerSpec([1.0, 0.0]), const=0.0, slope=0.0)
        assert abs(res.value - TWO_K1_OF_2) <= 1e-9 * TWO_K1_OF_2

    def test_half_shape_case_against_oracle(self):
        # sqrt(pi)^-1 G^{3,0}_{0,3}(1/4 | 0, 1/2, 1) is the shape-1/2 transform at p=1
        res = meijer_g_m0(MeijerSpec([0.0, 0.5, 1.0]), const=0.0, slope=math.log(0.25))
        value = res.value / math.sqrt(math.pi)
        oracle = laplace_frechet_oracle(Shape(0.5), 1.0)
        assert abs(value - oracle.value) <= 1e-8 * abs(oracle.value)

    def test_contour_shift_invariance(self):
        spec = MeijerSpec([0.5, 1.0, 0.0])
        values = [meijer_g_m0(spec, const=0.0, slope=math.log(0.25), c=c).value
                  for c in (0.3, 0.5, 1.0, 1.5)]
        for a in values:
            for b in values:
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_underflow_returns_converged_zero(self):
        # e^{-z} at z = 5e4 lies far below the smallest subnormal: a
        # converged zero, within the smallest subnormal, with no node built
        res = meijer_g_m0(MeijerSpec([0.0]), const=0.0, slope=math.log(5e4))
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == (
            0.0, 2.0 ** -1074, 0, True)

    def test_abscissa_validation(self):
        with pytest.raises(ContourError):
            meijer_g_m0(MeijerSpec([-0.5, 0.0, 0.0]), const=0.0, slope=0.0, c=0.4)
        with pytest.raises(ContourError):
            meijer_g_m0(MeijerSpec([0.0]), const=0.0, slope=0.0, c=math.inf)

    def test_abscissa_far_left_of_the_saddle(self):
        # e^{-z} at z = 5e4 has its saddle near c = 5e4: on the path through
        # c = 3, z^{-s} lifts the nodes about e^48,000 above the vertex. The
        # node pass says so, naming c, before any node is summed (and with
        # no RuntimeWarning, an error in this suite)
        with pytest.raises(ContourError, match=r"c = 3\.0"):
            meijer_g_m0(MeijerSpec([0.0]), const=0.0, slope=math.log(5e4), c=3.0)

    def test_argument_domain(self):
        with pytest.raises(DomainError):
            meijer_g_m0(MeijerSpec([0.0]), const=0.0, slope=-math.inf)
        with pytest.raises(DomainError):
            meijer_g_m0(MeijerSpec([0.0]), const=0.0, slope=math.inf)
        with pytest.raises(DomainError):
            meijer_g_m0(MeijerSpec([0.0]), const=math.nan, slope=0.0)

    def test_requires_const_and_slope(self):
        # one convention: the collapsed pair (const, slope), both required
        # by keyword, and an optional abscissa
        assert list(inspect.signature(meijer_g_m0).parameters) == [
            "spec", "const", "slope", "c"]
        spec = MeijerSpec([0.0])
        for kwargs in ({}, {"const": 0.0}, {"slope": 0.0}):
            with pytest.raises(TypeError):
                meijer_g_m0(spec, **kwargs)
        with pytest.raises(TypeError):
            meijer_g_m0(spec, 0.0, 0.5)

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
            # the grouped spec on the closed form's collapsed pair, the flat
            # list on the G-level logs
            grouped = meijer_g_m0(form.spec, const=math.log(shape.l),
                                  slope=shape.l * math.log(p))
            single = meijer_g_m0(flat, const=form.log_prefactor,
                                 slope=form.log_argument(math.log(p)))
            assert (abs(grouped.value - single.value)
                    <= 10.0 * (grouped.err_estimate + single.err_estimate))

    @pytest.mark.parametrize("z", [1e-3, 0.1, 1.0, 10.0, 100.0])
    def test_half_spec_matches_flat_list(self, z):
        grouped = meijer_g_m0(_HALF_SPEC, **_g_level(_HALF_SPEC, math.log(z)))
        single = meijer_g_m0(MeijerSpec([-0.5, 0.0, 0.0]), const=0.0, slope=math.log(z))
        assert grouped.converged and single.converged
        assert (abs(grouped.value - single.value)
                <= 10.0 * (grouped.err_estimate + single.err_estimate))

    @pytest.mark.parametrize("l,k", [(1, 1), (30, 1)])
    def test_one_log_gamma_call_per_integral(self, l, k, monkeypatch):
        # step and window come from plain floats on the real axis, so a
        # band's table is the only complex evaluation, whatever m = k + l
        # is: one log_gamma call per table build, and one trapezoid sum per
        # value, from a table built earlier or by this call
        calls, original = [], meijer.log_gamma
        integrals, original_integral = [], mellin.mellin_barnes_integral

        def counting(s):
            calls.append(np.shape(s))
            return original(s)

        def counting_integral(*args):
            integrals.append(args)
            return original_integral(*args)

        monkeypatch.setattr(meijer, "log_gamma", counting)
        monkeypatch.setattr(mellin, "mellin_barnes_integral", counting_integral)
        meijer.MeijerSpec._band_table.cache_clear()
        form = build_laplace_closed_form(RationalShape(l, k))
        assert form.spec.m in (2, 31)
        # the closed form's collapsed pair at p = 1
        res = meijer_g_m0(form.spec, const=math.log(l), slope=0.0)
        assert res.converged
        assert len(calls) == 1 and calls[0][0] == 2
        assert len(integrals) == 1
        # another argument in the same band: no log_gamma call
        again = meijer_g_m0(form.spec, const=math.log(l), slope=1e-3)
        assert again.converged and again.value != res.value
        assert len(calls) == 1 and len(integrals) == 2


def _integrand_and_abscissa(monkeypatch, spec, const, slope):
    # the log Gamma sum meijer_g_m0 hands to the contour engine's path, and
    # the vertex of the band's path
    captured, original = [], meijer.ContourPath

    def capture(log_parts, log_abs_real, c, poles, slopes):
        captured.append((log_parts, c))
        return original(log_parts, log_abs_real, c, poles, slopes)

    monkeypatch.setattr(meijer, "ContourPath", capture)
    meijer.MeijerSpec._band_table.cache_clear()
    meijer_g_m0(spec, const=const, slope=slope)
    return captured[0]


def _count_log_gamma(monkeypatch, outputs=None):
    shapes, original = [], meijer.log_gamma

    def counting(s):
        shapes.append(np.shape(s))
        value = original(s)
        if outputs is not None:
            outputs.append((s, value))
        return value

    monkeypatch.setattr(meijer, "log_gamma", counting)
    return shapes


def _spy_paths(monkeypatch):
    # every path laid out, with its mu, step and window: the first log_gamma
    # call of its nodes takes the upper nodes u = j step, j <= n_half,
    # n_half = 2 ceil(window / (2 step))
    paths, init = [], mellin.ContourPath.__init__

    def spy(self, *args):
        init(self, *args)
        paths.append(self)

    monkeypatch.setattr(mellin.ContourPath, "__init__", spy)
    return paths


def _first_window(path):
    return 2 * math.ceil(path.window / (2.0 * path.step))


# The contour engine evaluates the integrand on the upper half of its path
# only and takes the lower half as the mirror, F(conj s) = conj F(s). The
# Meijer log Gamma sum (n s + a, log_gamma, the sum over runs) keeps that
# symmetry bit for bit, and so do the term sizes the noise floor reads; the
# engine forms const - s slope on the upper nodes alone.
class TestConjugateMirror:
    @pytest.mark.parametrize("l,k,p", [(1, 1, 1.0), (3, 4, 0.1), (30, 1, 20.0),
                                       (13, 11, 1.0)])
    def test_symmetric_grid_equals_halves(self, l, k, p, monkeypatch):
        form = build_laplace_closed_form(RationalShape(l, k))
        log_parts, c = _integrand_and_abscissa(monkeypatch, form.spec,
                                               *_closed_form_pair(RationalShape(l, k), p))
        tau = (np.arange(401) - 200) * 0.37
        values, sizes = log_parts(c - 0.4 / max(1.0, c) * tau * tau + 1j * tau)
        lower, upper = values[:200], values[201:]
        assert lower.tobytes() == upper[::-1].conj().tobytes()
        assert sizes[:200].tobytes() == sizes[201:][::-1].tobytes()

    def test_grid_evaluates_upper_half_only(self, monkeypatch):
        # (1, 1) at p = 1: log_gamma sees the n_half + 1 upper nodes of the
        # band's grid, once, and no other node; the table keeps a leading
        # part of them
        shapes, paths = _count_log_gamma(monkeypatch), _spy_paths(monkeypatch)
        meijer.MeijerSpec._band_table.cache_clear()
        form = build_laplace_closed_form(RationalShape(1, 1))
        res = meijer_g_m0(form.spec, const=0.0, slope=0.0)
        assert res.converged and res.value == pytest.approx(TWO_K1_OF_2, rel=1e-15)
        assert len(paths) == 1
        n_half = _first_window(paths[0])
        assert shapes == [(2, n_half + 1)]
        assert res.evaluations <= 2 * n_half + 1

    def test_window_extension_evaluates_added_nodes_only(self, monkeypatch):
        # At c = 0.1, left of the saddle, |F| first grows along the parabola,
        # so the window from phi''(c) is too short: it doubles once, and the
        # n_half added upper nodes reach log_gamma in one more call. The
        # rule then takes every node up to the first even count past the
        # last one above 1e-16 of the centre, which lies past the first
        # window.
        # the closed form's collapsed pair at p = 1
        form = build_laplace_closed_form(RationalShape(2, 3))
        const, slope = math.log(2.0), 0.0
        saddle = meijer_g_m0(form.spec, const=const, slope=slope)
        outputs, paths = [], _spy_paths(monkeypatch)
        shapes = _count_log_gamma(monkeypatch, outputs)
        res = meijer_g_m0(form.spec, const=const, slope=slope, c=0.1)
        assert res.converged and abs(res.value - saddle.value) <= 1e-13
        assert len(shapes) == 2 and len(paths) == 1
        n_half = _first_window(paths[0])
        assert shapes == [(2, n_half + 1), (2, n_half)]
        # |G_j| / |G_0| from the log_gamma values, the path weight and z^-s
        mu, step = paths[0].mu, paths[0].step
        u = np.arange(2 * n_half + 1) * step
        s = 0.1 - mu * u * u + 1j * u
        lam = np.concatenate([value.sum(axis=0) for _, value in outputs])
        log_g = (lam + np.log(1.0 + 2j * mu * u)).real - s.real * slope
        last = int(np.flatnonzero(log_g - log_g[0] > math.log(1e-16))[-1])
        assert last > n_half
        assert res.evaluations == 2 * (2 * (last // 2 + 1)) + 1


# The saddle search against an independent minimiser: the root of
# phi'(c) = sum_g n_g psi(n_g c + a_g) - slope from mpmath's digamma, by
# bisection in log c over the search's bracket [-b_min + 1/4, 2 e^300]. The
# log z sweep runs from -700 m, where the saddle sits on the lower clamp, past
# the bracket's upper end, which the half transform reaches at x = 1e-300.
SADDLE_SPECS = ([(name, build_laplace_closed_form(s).spec) for name, s in GROUPED_SPECS]
                + [("half", _HALF_SPEC)])


class TestSaddleAbscissa:
    @pytest.mark.parametrize("spec", [s for _, s in SADDLE_SPECS],
                             ids=[name for name, _ in SADDLE_SPECS])
    def test_matches_digamma_root(self, spec):
        mpmath = pytest.importorskip("mpmath")
        b_min = min(a / n for n, a in spec.groups)
        lo, hi = -b_min + 0.25, 2.0 * math.exp(300.0)
        n_log_n = sum(n * math.log(n) for n, _ in spec.groups)

        def dphi(log_c, slope):
            c = mpmath.exp(log_c)
            return sum(n * mpmath.digamma(n * c + a) for n, a in spec.groups) - slope

        log_zs = np.concatenate((np.linspace(-700.0 * spec.m, 320.0 * spec.m, 52),
                                 np.linspace(-8.0, 8.0, 17)))
        with mpmath.workdps(30):
            for log_z in log_zs.tolist():
                slope = n_log_n + log_z
                c = spec._saddle(slope)
                assert math.isfinite(c) and lo <= c <= hi
                left, right = math.log(lo), math.log(hi)
                if dphi(left, slope) > 0:
                    ref = lo
                elif dphi(right, slope) < 0:
                    ref = hi
                else:
                    while right - left > 1e-9:
                        mid = 0.5 * (left + right)
                        if dphi(mid, slope) > 0:
                            right = mid
                        else:
                            left = mid
                    ref = math.exp(left)
                assert abs(c - ref) <= 1e-2 * max(1.0, c), (log_z, c, ref)

    def test_huge_argument_stops_at_the_bracket_end(self):
        # log z = 2762, the half transform at x = 1e-300: phi' < 0 on the
        # whole bracket, and phi'' (a difference of lgamma near 1e131) must
        # not stop the search
        log_z = 2762.0
        slope = sum(n * math.log(n) for n, _ in _HALF_SPEC.groups) + log_z
        c = _HALF_SPEC._saddle(slope)
        assert abs(c - 2.0 * math.exp(300.0)) <= 1e-2 * c


# Per-shape and per-spec constants are computed once; the memo holds them and
# never a value.
class TestConstantsMemo:
    def test_equal_shapes_share_one_form(self):
        assert build_laplace_closed_form(RationalShape(2, 4)) is build_laplace_closed_form(
            RationalShape(1, 2))

    def test_cached_arrays_are_read_only(self):
        spec = build_laplace_closed_form(RationalShape(2, 3)).spec
        for column in (spec._n, spec._a):
            with pytest.raises(ValueError):
                column[0, 0] = 5.0
        assert spec._n[0, 0] == 3.0

    def test_caches_are_bounded_and_hold_no_values(self):
        # one per (l, k), and the band tables of every spec, 256 each
        memos = (meijer._closed_form, meijer.MeijerSpec._band_table)
        for memo in memos:
            assert memo.cache_info().maxsize == 256
        # a contour table is keyed on the spec and the band alone, and
        # holds node arrays; the series table holds terms and bounds: no p
        # and no value
        assert list(inspect.signature(meijer.MeijerSpec._band_table.__wrapped__).parameters) == [
            "self", "band"]
        assert [field.name for field in dataclasses.fields(mellin.ContourNodes)] == [
            "logs", "sums"]
        assert [field.name for field in dataclasses.fields(meijer._SeriesTable)] == [
            "x", "log_c", "sums", "log_c_max", "x_min", "slope_top", "tail_x", "tail_log",
            "tail_k0", "tail_k1"]
        # 3/7 takes the series at small p and the contour at p = 100 to 300,
        # whose band tables the first calls build (p = 200 and 300 share the
        # band of p = 250)
        shape = RationalShape(3, 7)
        for p in (1.0, 100.0, 250.0):
            laplace_frechet(LaplaceQuery(shape, p, Method.MEIJER_G))
        spec = build_laplace_closed_form(shape).spec
        sizes = [memo.cache_info().currsize for memo in memos]
        held = dict(vars(spec))
        results = [laplace_frechet(LaplaceQuery(shape, p, Method.MEIJER_G))
                   for p in (0.1, 0.2, 0.3, 200.0, 300.0)]
        assert {res.route for res in results} == {"series", "contour"}
        assert len({res.value for res in results}) == 5
        assert [memo.cache_info().currsize for memo in memos] == sizes
        # the spec keeps its runs, its constants, its series table and s*,
        # and gains nothing per value
        assert sorted(held) == ["_a", "_b_min", "_hand_over", "_hash", "_n", "_n_log_n",
                                "_scale", "_series_table", "groups", "m"]
        assert all(vars(spec)[name] is value for name, value in held.items())
        assert sorted(vars(spec)) == sorted(held)

    def test_one_evaluator_per_closed_form(self):
        # meijer_g, meijer_g_series, meijer_g_m0 and laplace_frechet on one
        # closed form read one set of tables, its spec's: the series table
        # and s* the first call builds are the ones every later call finds
        meijer._closed_form.cache_clear()
        shape = RationalShape(5, 7)
        spec = build_laplace_closed_form(shape).spec
        const, slope = _closed_form_pair(shape, 2.0)
        first = meijer_g(spec, const=const, slope=slope)
        table, s_star = spec._series_table, spec._hand_over
        meijer_g_series(spec, const=const, slope=slope)
        meijer_g_m0(spec, const=const, slope=slope)
        laplace_frechet(LaplaceQuery(shape, 2.0, Method.MEIJER_G))
        assert meijer._closed_form.cache_info().currsize == 1
        assert build_laplace_closed_form(shape).spec is spec
        assert spec._series_table is table and spec._hand_over is s_star
        assert meijer_g(spec, const=const, slope=slope) == first

    def test_closed_form_keeps_its_evaluator_past_eviction(self):
        # 299 other specs push 2/3's band tables out of the cache they
        # share, while its closed form keeps its spec, whose series table
        # and s* are the ones built first, and every value is the same
        query = LaplaceQuery(RationalShape(2, 3), 1.0, Method.MEIJER_G)
        first = laplace_frechet(query)
        form = meijer._closed_form(2, 3)
        spec = form.spec
        table, s_star = spec._series_table, spec._hand_over
        for i in range(299):
            meijer_g_m0(MeijerSpec([0.5 + i]), const=0.0, slope=1.0)
        info = meijer.MeijerSpec._band_table.cache_info()
        assert info.currsize == info.maxsize
        assert laplace_frechet(query) == first
        assert meijer._closed_form(2, 3) is form and form.spec is spec
        assert spec._series_table is table and spec._hand_over is s_star

    def test_equal_specs_share_band_tables(self):
        # the band cache is keyed on the runs: a spec built anew finds the
        # tables an equal spec built, and gives the same bits
        meijer.MeijerSpec._band_table.cache_clear()
        first = meijer_g_m0(MeijerSpec(groups=((3, 1.0), (2, 0.0))), const=0.0, slope=1.0)
        again = meijer_g_m0(MeijerSpec(groups=((3, 1), (2, 0))), const=0.0, slope=1.0)
        info = meijer.MeijerSpec._band_table.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert again == first

    def test_series_table_is_read_only(self):
        spec = build_laplace_closed_form(RationalShape(2, 3)).spec
        table = spec._series_table
        for column in (table.x, table.log_c, table.sums):
            with pytest.raises(ValueError):
                column[0] = 5.0

    def test_contour_table_is_read_only(self):
        spec = build_laplace_closed_form(RationalShape(2, 3)).spec
        path = spec._band_table(4)
        nodes = path.nodes
        assert path.nodes is nodes
        for matrix in (nodes.logs, nodes.sums):
            with pytest.raises(ValueError):
                matrix[0, 0] = 5.0


def _closed_form_pair(shape, p):
    # the pair the closed form hands meijer_g_m0: its prefactor and the
    # multiplication formula's constants cancel analytically
    return math.log(shape.l), shape.l * math.log(p)


# meijer_g_m0 evaluates from a table of nodes per (spec, band): a band is a
# range of slopes sharing one vertex, the saddle of its centre, and one step
# and window that hold at both of its ends.
class TestContourTables:
    @pytest.mark.parametrize("l,k,p", [(1, 1, 7.3), (3, 4, 12.0), (30, 1, 20.0),
                                       (13, 11, 4.0), (1, 1, 5000.0)])
    def test_cold_and_warm_tables_give_identical_results(self, l, k, p):
        shape = RationalShape(l, k)
        spec = build_laplace_closed_form(shape).spec
        const, slope = _closed_form_pair(shape, p)
        meijer.MeijerSpec._band_table.cache_clear()
        cold = meijer_g_m0(spec, const=const, slope=slope)
        warm = meijer_g_m0(spec, const=const, slope=slope)
        # the same band's table built by a neighbouring argument
        meijer.MeijerSpec._band_table.cache_clear()
        meijer_g_m0(spec, const=const, slope=slope * (1.0 + 1e-9))
        neighbour = meijer_g_m0(spec, const=const, slope=slope)
        assert meijer.MeijerSpec._band_table.cache_info().currsize == 1
        assert cold.converged and cold.route == "contour"
        assert cold == warm == neighbour

    @pytest.mark.parametrize("l,k,p_max", [(1, 1, 40.0), (3, 4, 40.0), (30, 1, 40.0),
                                           (13, 11, 40.0), (1, 30, 1e4)])
    def test_both_sides_of_a_band_edge_agree(self, l, k, p_max):
        # a band edge's slope lies in both bands' ranges: the two tables
        # give values within the sum of both estimates, for every edge from
        # about p = 2 to p_max
        shape = RationalShape(l, k)
        spec = build_laplace_closed_form(shape).spec
        const = math.log(shape.l)
        first = math.floor(spec._band_coordinate(shape.l * math.log(2.0)))
        last = math.floor(spec._band_coordinate(shape.l * math.log(p_max)))
        assert last - first >= 2
        for band in range(first + 1, last + 1):
            edge = spec._band_slope(band * meijer._BAND_WIDTH)
            below = mellin.mellin_barnes_integral(spec._band_table(band - 1).nodes, const, edge)
            above = mellin.mellin_barnes_integral(spec._band_table(band).nodes, const, edge)
            assert below[3] and above[3]
            assert abs(below[0] - above[0]) <= below[1] + above[1], band

    @pytest.mark.parametrize("l,k,p_max", [(1, 1, 40.0), (3, 4, 40.0), (4, 1, 40.0),
                                           (7, 5, 20.0), (13, 11, 12.0)])
    def test_inside_a_band_against_mpmath(self, l, k, p_max):
        # the step and window hold at every slope of a band, not only at its
        # ends: at a quarter, the middle and three quarters of every band
        # from about p = 2 to p_max, the band's table is within its estimate
        # of 30-digit mpmath from l, k and p themselves
        mpmath = pytest.importorskip("mpmath")
        shape = RationalShape(l, k)
        spec = build_laplace_closed_form(shape).spec
        first = math.floor(spec._band_coordinate(shape.l * math.log(2.0)))
        last = math.floor(spec._band_coordinate(shape.l * math.log(p_max)))
        assert last - first >= 2
        for band in range(first, last):
            for f in (0.25, 0.5, 0.75):
                p = math.exp(spec._band_slope((band + f) * meijer._BAND_WIDTH) / l)
                const, slope = _closed_form_pair(shape, p)
                assert math.floor(spec._band_coordinate(slope)) == band
                res = meijer_g_m0(spec, const=const, slope=slope)
                ref = _mpmath_laplace(mpmath, l, k, p)
                assert res.converged and res.route == "contour"
                assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate, (band, f)

    @pytest.mark.parametrize("spec", [s for _, s in SADDLE_SPECS] + [MeijerSpec([0.0]),
                                                                      MeijerSpec([1.0, 0.0])],
                             ids=[name for name, _ in SADDLE_SPECS] + ["exp", "bessel"])
    def test_vertex_growth_is_bounded_at_every_scale(self, spec):
        # at every slope the band's vertex exceeds the integrand's minimum on
        # the real axis, at the slope's own saddle, by at most e^{1/4}, from
        # c near the poles to c ~ 1e5; and the band's range holds the slope

        def phi(c, slope):
            return spec._path(c, (slope, slope)).log_vertex - c * slope

        for u in np.linspace(-6.0, 12.0, 181).tolist():
            slope = spec._n_log_n + spec.m * u
            band = math.floor(spec._band_coordinate(slope) / meijer._BAND_WIDTH)
            lo, centre, hi = (spec._band_slope((band + f) * meijer._BAND_WIDTH)
                              for f in (0.0, 0.5, 1.0))
            assert lo - 1e-12 * abs(lo) <= slope <= hi + 1e-12 * abs(hi)
            vertex = spec._saddle(centre)
            own = spec._saddle(slope)
            assert phi(vertex, slope) - phi(own, slope) <= 0.25, u


def _log_peak_at_saddle(spec, slope):
    # log of the integrand at the slope's own saddle, for const = 0
    vertex = spec._saddle(slope)
    return spec._path(vertex, (slope, slope)).log_vertex - vertex * slope


def _laplace_by_quad(mpmath, l, k, p):
    """L(p) of Fr(l/k) from its defining integral,
    int_0^inf exp(-u - p u^{-k/l}) du, at the working precision: on pieces
    eight Gaussian widths wide around the saddle of the exponent, with the
    integrand scaled by its value there, since mpmath's quadrature
    tolerances are absolute."""
    a, p = mpmath.mpf(k) / l, mpmath.mpf(p)
    saddle = (a * p) ** (1 / (a + 1))
    width = 1 / mpmath.sqrt(a * (a + 1) * p * saddle ** (-a - 2))
    top = saddle + p * saddle ** (-a)
    pieces = ([0] + [saddle + j * width for j in range(-40, 41, 8) if saddle + j * width > 0]
              + [mpmath.inf])
    return mpmath.quad(lambda u: mpmath.exp(top - u - p * u ** (-a)), pieces) * mpmath.exp(-top)


def _closed_form_reference(l, k, mpmath, const, slope):
    # meijer_g_m0 on the closed form's spec at (const, slope) is
    # e^const / l times L at p = e^{slope / l}, at 20 digits; L is
    # 2 sqrt(p) K1(2 sqrt(p)) for 1/1
    with mpmath.workdps(20):
        p = mpmath.exp(mpmath.mpf(slope) / l)
        value = (2 * mpmath.sqrt(p) * mpmath.besselk(1, 2 * mpmath.sqrt(p)) if l == k == 1
                 else _laplace_by_quad(mpmath, l, k, p))
        return mpmath.exp(mpmath.mpf(const)) / l * value


def _exp_reference(mpmath, const, slope):
    # e^const e^{-z}, z = e^slope, at 30 digits
    with mpmath.workdps(30):
        return mpmath.exp(mpmath.mpf(const) - mpmath.exp(mpmath.mpf(slope)))


@functools.lru_cache(maxsize=None)
def _half_integral(slope):
    # (1/2 pi i) int Gamma(2s - 1) Gamma(s) e^{-s slope} ds at 20 digits, on
    # the vertical line through the saddle c: mpmath's gamma, path and
    # quadrature, the integrand scaled by its value at c
    import mpmath
    with mpmath.workdps(20):
        c = mpmath.mpf(_HALF_SPEC._saddle(slope))

        def log_f(s):
            return mpmath.loggamma(2 * s - 1) + mpmath.loggamma(s) - s * slope

        top = log_f(c)
        width = 1 / mpmath.sqrt(4 * mpmath.psi(1, 2 * c - 1) + mpmath.psi(1, c))
        pieces = [j * width for j in range(0, 41, 4)] + [mpmath.inf]
        line = mpmath.quad(lambda t: mpmath.re(mpmath.exp(log_f(c + 1j * t) - top)), pieces)
        return line / mpmath.pi * mpmath.exp(top)


def _half_reference(mpmath, const, slope):
    with mpmath.workdps(20):
        return mpmath.exp(mpmath.mpf(const)) * _half_integral(slope)


def _exit_cases():
    # (name, spec, [(const, slope)], reference) with values below 1e-300
    # and above 1e300, on both sides of the ends of the range of vertex
    # logs the engine sums directly; reference(mpmath, const, slope) is the
    # integral for the binary64 pair.
    # e^{-z} at z = 5e4 times e^const, with the integrand at the saddle
    # from e^-700 to e^-640
    exp_spec, slope = MeijerSpec([0.0]), math.log(5e4)
    yield "exp", exp_spec, [(offset - _log_peak_at_saddle(exp_spec, slope), slope)
                            for offset in np.linspace(-700.0, -640.0, 241)], _exp_reference
    # the closed forms at the bottom of binary64: 1/1 at p = 1e5 to 1.3e5
    # (the vertex passes 1e-300 near p = 1.2e5), 5/1 near p = 1,540 (near
    # p = 1,494) and 7/2 near p = 2,450 (near p = 2,277)
    for (l, k), lo, hi in (((1, 1), 1e5, 1.3e5), ((5, 1), 1400.0, 1600.0),
                           ((7, 2), 2150.0, 2500.0)):
        shape = RationalShape(l, k)
        yield (f"{l}/{k}", build_laplace_closed_form(shape).spec,
               [_closed_form_pair(shape, p) for p in np.geomspace(lo, hi, 121)],
               functools.partial(_closed_form_reference, l, k))
    # the half transform's spec at const near 2,200, with the integrand at
    # the saddle from e^650 to e^700
    yield "half", _HALF_SPEC, [(offset - _log_peak_at_saddle(_HALF_SPEC, 20.0), 20.0)
                               for offset in np.linspace(650.0, 700.0, 201)], _half_reference


EXIT_CASES = list(_exit_cases())


class TestContourExits:
    # the vertex alone decides the power of two the sums are scaled by,
    # with no saddle search per value: on both sides of a vertex of 1e-300,
    # and for values past 1e300, each value lies within its err_estimate of
    # the reference, or says that it did not converge
    @pytest.mark.parametrize("spec,pairs,reference", [case[1:] for case in EXIT_CASES],
                             ids=[case[0] for case in EXIT_CASES])
    def test_exits_as_at_the_slope_own_saddle(self, spec, pairs, reference, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        searches, original = [], meijer.MeijerSpec._saddle

        def counting(*args):
            searches.append(args)
            return original(*args)

        monkeypatch.setattr(meijer.MeijerSpec, "_saddle", counting)
        outside = 0
        for const, slope in pairs:
            const, slope = float(const), float(slope)
            # the band's table, with its one saddle search, built first
            spec._band_table(math.floor(spec._band_coordinate(slope) / meijer._BAND_WIDTH))
            searches.clear()
            res = meijer_g_m0(spec, const=const, slope=slope)
            assert not searches, (const, slope)
            ref = reference(mpmath, const, slope)
            assert not res.converged or abs(mpmath.mpf(res.value) - ref) <= res.err_estimate, (
                const, slope, res, ref)
            outside += (res.converged and res.value != 0.0
                        and not 1e-300 <= abs(res.value) <= 1e300)
        # each sweep returns converged values below 1e-300 or above 1e300
        assert outside > 0

    @pytest.mark.parametrize("const", [50720.0, 1e6, 1e300])
    def test_value_past_binary64_is_not_converged(self, const):
        # e^const e^{-z} at z = 5e4 past binary64: summed and overflowing
        # when scaled back (50,720), or with a vertex log so large that its
        # roundoff alone defeats convergence (1e6, 1e300), it is 0.0 with
        # an infinite estimate, never an OverflowError or a converged value
        res = meijer_g_m0(MeijerSpec([0.0]), const=const, slope=math.log(5e4))
        assert (res.value, res.err_estimate, res.converged) == (0.0, math.inf, False)


class TestBuildLaplaceClosedForm:
    def test_unit_shape(self):
        form = build_laplace_closed_form(RationalShape(1, 1))
        assert math.exp(form.log_prefactor) == pytest.approx(1.0, rel=1e-15)
        assert form.spec.b == (1.0, 0.0)
        assert math.exp(form.log_argument(math.log(3.7))) == pytest.approx(3.7, rel=1e-15)

    def test_one_third_shape(self):
        form = build_laplace_closed_form(RationalShape(1, 3))
        assert math.exp(form.log_prefactor) == pytest.approx(
            math.sqrt(3.0) / (2.0 * math.pi), rel=1e-15)
        assert form.spec.b == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0])
        assert math.exp(form.log_argument(math.log(2.0))) == pytest.approx(2.0 / 27.0, rel=1e-15)

    def test_two_thirds_shape(self):
        form = build_laplace_closed_form(RationalShape(2, 3))
        assert math.exp(form.log_prefactor) == pytest.approx(
            math.sqrt(12.0) / (4.0 * math.pi ** 1.5), rel=1e-15)
        assert form.spec.b == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, 0.5])
        assert math.exp(form.log_argument(math.log(2.0))) == pytest.approx(4.0 / 108.0, rel=1e-15)

    def test_parameter_count(self):
        for shape in ALL_SHAPES:
            form = build_laplace_closed_form(shape)
            assert form.spec.m == shape.k + shape.l

    def test_argument_domain(self):
        form = build_laplace_closed_form(RationalShape(1, 2))
        with pytest.raises(DomainError):
            form.log_argument(-math.inf)

    @pytest.mark.parametrize("method", [Method.MEIJER_G, Method.AUTO], ids=lambda m: m.name)
    @pytest.mark.parametrize("l,k,p", [(1, 200, 1.0), (3, 4, 1e300), (1, 800, 1.0),
                                       (800, 1, 1.0)])
    def test_out_of_range_prefactor_or_argument(self, l, k, p, method):
        # k^k l^l, p^l or (2 pi)^{(k+l)/2 - 1} past the binary64 range: the
        # closed form takes their logs, so a call either returns a converged
        # value that matches the oracle, or says that it did not converge
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, method))
        assert math.isfinite(res.value)
        if res.converged:
            ref = laplace_frechet_oracle(Shape(l / k), p).value
            assert abs(res.value - ref) <= 1e-8 * ref


class TestClosedFormFamily:
    @pytest.mark.parametrize("shape", ALL_SHAPES, ids=lambda s: f"l{s.l}k{s.k}")
    def test_range_and_monotone(self, shape):
        form = build_laplace_closed_form(shape)
        grid = np.geomspace(0.05, 20.0, 40)
        vals = [meijer_g_m0(form.spec, const=math.log(shape.l),
                            slope=shape.l * math.log(p)).value
                for p in grid]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


# The closed form's contour against 30-digit mpmath from l, k and p
# themselves: the criterion shapes (as the 16 pairs l, k <= 4), 7/5 and
# 13/11 over p = 0.05 to 20, and 1/30 with the first shapes at p = 0.01.
ESTIMATE_PAIRS = [(l, k) for l in range(1, 5) for k in range(1, 5)] + [(7, 5), (13, 11)]
ESTIMATE_CASES = ([(p, l, k) for p in (0.01, 0.1, 1.0, 10.0)
                   for l, k in ((1, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 4), (7, 5), (1, 30))]
                  + [(p, l, k) for p in (0.05, 0.2, 0.5, 2.0, 3.0, 5.0, 7.0, 14.0, 20.0)
                     for l, k in ESTIMATE_PAIRS]
                  + [(p, l, k) for p in (0.1, 1.0, 10.0) for l, k in ESTIMATE_PAIRS
                     if (l, k) not in ((1, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 4), (7, 5))])


class TestMpmathOracle:
    # A third, independent route: mpmath's Meijer G at 30 digits. The
    # contour error estimate must bound the actual error, with no safety
    # factor: the closed form hands the contour its collapsed constants,
    # const = log l and slope = l log p, so no rounding of a G-level log
    # enters that the estimate does not count.
    @pytest.mark.parametrize("p,l,k", ESTIMATE_CASES)
    def test_error_estimate_bounds_actual_error(self, p, l, k):
        mpmath = pytest.importorskip("mpmath")
        shape = RationalShape(l, k)
        const, slope = _closed_form_pair(shape, p)
        res = meijer_g_m0(build_laplace_closed_form(shape).spec, const=const, slope=slope)
        ref = _mpmath_laplace(mpmath, l, k, p)
        assert res.converged
        assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate

    def test_noise_floor_past_binary64_bounds_actual_error(self):
        # e^const e^{-z} at z = 5e4, with the integrand at the saddle near
        # e^690: summed as they are, the noise floor's weighted sum of the
        # nodes (|log Gamma| near 5e5 at the vertex) would pass binary64,
        # and the nodes are summed scaled by a power of two
        mpmath = pytest.importorskip("mpmath")
        const, slope = 50694.49, math.log(5e4)
        res = meijer_g_m0(MeijerSpec([0.0]), const=const, slope=slope)
        with mpmath.workdps(30):
            ref = mpmath.exp(mpmath.mpf(const) - mpmath.exp(mpmath.mpf(slope)))
        assert res.converged
        assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate <= 1e-9 * res.value

    def test_values_past_1e300_are_summed_scaled(self):
        # e^const e^{-z} at z = 5e4 for const from 50,694 to 50,700, values
        # up to 1e304: no RuntimeWarning on the way, each within its
        # estimate of 30-digit mpmath
        mpmath = pytest.importorskip("mpmath")
        slope = math.log(5e4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            results = [(const, meijer_g_m0(MeijerSpec([0.0]), const=const, slope=slope))
                       for const in np.linspace(50694.0, 50700.0, 49).tolist()]
        for const, res in results:
            ref = _exp_reference(mpmath, const, slope)
            assert res.converged, const
            assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate, const

    @pytest.mark.parametrize("l,k", [(1, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 4),
                                     (7, 5), (1, 30)])
    @pytest.mark.parametrize("p", [0.01, 0.1, 1.0, 10.0])
    def test_g_level_form_bounds_actual_error(self, l, k, p):
        # the G-level form, log z alone through Gauss's constants, against
        # mpmath fed the same binary64 log z: up to a fixed safety factor and
        # the binary64 rounding of the value itself
        mpmath = pytest.importorskip("mpmath")
        form = build_laplace_closed_form(RationalShape(l, k))
        log_z = form.log_argument(math.log(p))
        res = meijer_g_m0(form.spec, **_g_level(form.spec, log_z))
        with mpmath.workdps(30):
            ref = float(mpmath.meijerg([[], []], [list(form.spec.b), []], mpmath.exp(log_z)))
        assert res.converged
        assert abs(res.value - ref) <= 10.0 * res.err_estimate + 4e-16 * abs(ref)

    @pytest.mark.parametrize("l,k,p", [(30, 1, 5.0), (40, 1, 12.0)])
    def test_closed_form_contour_takes_collapsed_constants(self, l, k, p):
        # MEIJER_G takes the contour here. The G-level log prefactor and log
        # argument (-25 and -54 for 30/1 at p = 5) carry roundings that the
        # estimate does not count; the collapsed pair carries none
        mpmath = pytest.importorskip("mpmath")
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G))
        assert res.route == "contour" and res.converged
        assert abs(mpmath.mpf(res.value) - _mpmath_laplace(mpmath, l, k, p)) <= res.err_estimate

    @pytest.mark.parametrize("l,k,p", [(13, 11, 0.01), (30, 1, 0.01), (30, 1, 0.1)])
    def test_error_estimate_bounds_error_of_known_defects(self, l, k, p):
        # tiny G arguments, where the contour's saddle sum cancels and the
        # value is off; it must not claim convergence, and the estimate must
        # still cover the error. MEIJER_G takes the residue series there.
        mpmath = pytest.importorskip("mpmath")
        form = build_laplace_closed_form(RationalShape(l, k))
        res = meijer_g_m0(form.spec, const=math.log(l), slope=l * math.log(p))
        with mpmath.workdps(30):
            ref = float(mpmath.exp(form.log_prefactor)
                        * mpmath.meijerg([[], []], [list(form.spec.b), []],
                                         mpmath.exp(form.log_argument(math.log(p)))))
        assert not res.converged or abs(res.value - ref) <= 1e-8 * ref
        assert abs(res.value - ref) <= res.err_estimate
        closed = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G))
        assert closed.converged and abs(closed.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("l,k,p", [(30, 1, 1e-6), (30, 1, 9.761854013421088e-05),
                                       (13, 11, 9.880209518740524e-06),
                                       (10, 1, 1.7729297948083514e-06)])
    def test_contour_noise_is_not_converged(self, l, k, p):
        # smaller G arguments still: the contour sum is off by 4% to 1e32
        # times the value, and must not claim convergence. MEIJER_G takes
        # the residue series there.
        form = build_laplace_closed_form(RationalShape(l, k))
        res = meijer_g_m0(form.spec, const=math.log(l), slope=l * math.log(p))
        ref = laplace_frechet_oracle(Shape(l / k), p).value
        assert not res.converged or abs(res.value - ref) <= 1e-8 * ref
        closed = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G))
        assert closed.converged and abs(closed.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("l,k,p", [(1, 1, 1.2e5), (1, 1, 1.3e5), (5, 1, 1540.0),
                                       (7, 2, 2450.0)])
    def test_underflow_exit_bounds_its_error(self, l, k, p):
        # 1/1 is 4.27e-300 at p = 1.2e5 and 2.25e-312 (subnormal) at
        # p = 1.3e5, 5/1 is 3.64e-308 and 7/2 is 2.55e-318 (subnormal): the
        # contour returns each, converged, within its estimate of mpmath
        mpmath = pytest.importorskip("mpmath")
        shape = RationalShape(l, k)
        ref = _closed_form_reference(l, k, mpmath, *_closed_form_pair(shape, p))
        res = laplace_frechet(LaplaceQuery(shape, p, Method.MEIJER_G))
        assert res.route == "contour" and res.converged and res.value > 0.0
        assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate

    @pytest.mark.parametrize("l,k,p", [(8, 3, 3919.4), (7, 2, 2453.8)])
    def test_auto_keeps_a_subnormal_contour_value(self, l, k, p):
        # subnormal values, whose estimate carries the smallest subnormal for
        # their rounding: AUTO returns the contour's, within its estimate of
        # 30-digit mpmath, where the oracle's is 30 to 90 subnormals off
        mpmath = pytest.importorskip("mpmath")
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.AUTO))
        assert res.route == "contour" and res.converged and 0.0 < res.value < 2.0 ** -1022
        with mpmath.workdps(30):
            ref = _laplace_by_quad(mpmath, l, k, p)
        assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate

    def test_large_p_takes_a_wide_strip(self):
        # at p = 5,000 the saddle lies at c ~ 70, where the integrand is
        # smooth on the scale sqrt(c): strip widths up to 0.9 of the reach
        # keep the grid to about a hundred nodes (1,917 with a <= 1)
        p = 5000.0
        mpmath = pytest.importorskip("mpmath")
        ref = float(2 * mpmath.sqrt(p) * mpmath.besselk(1, 2 * mpmath.sqrt(p)))
        form = build_laplace_closed_form(RationalShape(1, 1))
        res = meijer_g_m0(form.spec, const=0.0, slope=math.log(p))
        assert res.converged and res.evaluations <= 120
        assert abs(res.value - ref) <= 1e-12 * ref
        # the closed form's own route, from a cold table
        meijer.MeijerSpec._band_table.cache_clear()
        closed = laplace_frechet(LaplaceQuery(RationalShape(1, 1), p, Method.MEIJER_G))
        assert closed.route == "contour" and closed.converged and closed.evaluations <= 120
        assert abs(closed.value - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [0.1, 0.45])
    def test_auto_leaves_a_loose_meijer_value(self, p):
        # the contour gives 30/1 at p = 0.45 a converged value whose
        # err_estimate is 1e-8 of it; AUTO must not return such a value
        # (it takes the residue series here)
        mpmath = pytest.importorskip("mpmath")
        form = build_laplace_closed_form(RationalShape(30, 1))
        res = laplace_frechet(LaplaceQuery(RationalShape(30, 1), p, Method.AUTO))
        with mpmath.workdps(30):
            ref = float(mpmath.exp(form.log_prefactor)
                        * mpmath.meijerg([[], []], [list(form.spec.b), []],
                                         mpmath.exp(form.log_argument(math.log(p)))))
        assert res.converged and res.err_estimate <= 1e-10 * res.value
        assert abs(res.value - ref) <= 1e-12 * ref


def _series_laplace(l, k, p):
    # the closed form's collapsed integrand: prefactor * G = l (1/2 pi i) int
    # Gamma(ks + 1) Gamma(ls) p^{-ls} ds
    shape = RationalShape(l, k)
    return meijer_g_series(build_laplace_closed_form(shape).spec,
                           const=math.log(shape.l), slope=shape.l * math.log(p))


def _mpmath_laplace(mpmath, l, k, p):
    """The closed form at 30 digits from l, k and p themselves, so that no
    binary64 rounding of its log prefactor or log argument enters."""
    with mpmath.workdps(30):
        big_p = mpmath.mpf(p)
        prefactor = mpmath.sqrt(k * l) * (2 * mpmath.pi) ** (1 - mpmath.mpf(k + l) / 2)
        z = big_p ** l / (mpmath.mpf(k) ** k * mpmath.mpf(l) ** l)
        b = [mpmath.mpf(1 + j) / k for j in range(k)] + [mpmath.mpf(j) / l for j in range(l)]
        return prefactor * mpmath.meijerg([[], []], [b, []], z)


SERIES_SHAPES = ALL_SHAPES + [RationalShape(7, 5), RationalShape(13, 11)]


class TestResidueSeries:
    # The ascending residue series shares neither log_gamma nor the contour
    # engine with meijer_g_m0: on p in [0.3, 3] both routes converge, and
    # they must agree within the sum of their estimates.
    @pytest.mark.parametrize("shape", SERIES_SHAPES, ids=lambda s: f"l{s.l}k{s.k}")
    def test_agrees_with_contour(self, shape):
        form = build_laplace_closed_form(shape)
        for p in np.geomspace(0.3, 3.0, 9).tolist():
            series = _series_laplace(shape.l, shape.k, p)
            const, slope = _closed_form_pair(shape, p)
            contour = meijer_g_m0(form.spec, const=const, slope=slope)
            assert series.route == "series" and contour.route == "contour"
            assert series.converged and contour.converged
            assert (abs(series.value - contour.value)
                    <= series.err_estimate + contour.err_estimate), p

    # Against 30-digit mpmath the error must stay within the estimate, with
    # no safety factor: the criterion shapes, 7/5, 13/11, 1/30 and 30/1 at
    # small and moderate p, and the contour's known defects (13/11 at
    # p = 0.01, 30/1 at p = 0.01 and 0.1).
    @pytest.mark.parametrize("l,k,p", [(l, k, p) for l, k in
                                       ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3),
                                        (3, 2), (1, 4), (4, 1), (3, 4), (4, 3), (7, 5),
                                        (13, 11), (1, 30), (30, 1))
                                       for p in (0.01, 0.3, 1.0, 3.0)]
                             + [(30, 1, 0.1), (1, 30, 0.5), (4, 1, 1.26), (2, 3, 8.0),
                                (1, 4, 15.0)])
    def test_error_within_estimate_against_mpmath(self, l, k, p):
        mpmath = pytest.importorskip("mpmath")
        res = _series_laplace(l, k, p)
        ref = _mpmath_laplace(mpmath, l, k, p)
        assert res.converged
        assert abs(mpmath.mpf(res.value) - ref) <= res.err_estimate

    # gamma = 1/200 and 1/800, where (2 pi)^{(k+l)/2 - 1} leaves binary64, and
    # 800/1, equal to 1/800 at p = 1 by the transmutation law; references from
    # 30-digit mpmath.quad of the defining integral (tests/test_laplace.py)
    @pytest.mark.parametrize("l,k,ref", [(1, 200, 0.36681775424402136),
                                         (1, 800, 0.36761400960405952),
                                         (800, 1, 0.36761400960405952)])
    def test_small_and_large_shapes_within_estimate(self, l, k, ref):
        res = _series_laplace(l, k, 1.0)
        assert res.converged and res.err_estimate <= 1e-13
        assert abs(res.value - ref) <= res.err_estimate

    @pytest.mark.parametrize("l,k", [(1, 1), (30, 1), (1, 30), (49, 50), (1, 800), (800, 1)])
    @pytest.mark.parametrize("log_p", [-745.0, -700.0, 0.0, 300.0, 700.0, 709.0])
    def test_whole_range_is_a_value_or_a_decline(self, l, k, log_p):
        # RuntimeWarning is an error in this suite: no term may overflow
        res = _series_laplace(l, k, math.exp(log_p))
        assert res.route == "series"
        if res.converged:
            assert math.isfinite(res.value) and 0.0 <= res.value <= 1.0 + res.err_estimate
        else:
            assert res.value == 0.0 and res.err_estimate == math.inf

    def test_declines_for_large_slope_without_terms(self):
        res = _series_laplace(1, 1, 1e10)
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == (
            0.0, math.inf, 0, False)

    @pytest.mark.parametrize("l,k,const,slope", [(1, 1, -800.0, 0.0), (1, 1, -1000.0, -50.0),
                                                 (2, 3, -900.0, 1.0)])
    def test_all_terms_below_the_smallest_subnormal_are_a_converged_zero(self, l, k, const,
                                                                          slope):
        # where the bounds on the terms and the tail put both below half the
        # smallest subnormal, no term is formed: a converged 0.0 within the
        # smallest subnormal, as the contour gives there
        spec = build_laplace_closed_form(RationalShape(l, k)).spec
        res = meijer_g_series(spec, const=const, slope=slope)
        assert (res.value, res.err_estimate, res.evaluations, res.converged, res.route) == (
            0.0, 2.0 ** -1074, 0, True, "series")
        assert meijer_g(spec, const=const, slope=slope) == res
        contour = meijer_g_m0(spec, const=const, slope=slope)
        assert contour.converged and abs(contour.value) <= 2.0 ** -1074

    @pytest.mark.parametrize("spec", [MeijerSpec([0.0]), MeijerSpec([0.0, 0.5]),
                                      MeijerSpec([0.0, 1.0, 2.0])])
    def test_other_specs_are_domain_errors(self, spec):
        with pytest.raises(DomainError):
            meijer_g_series(spec, const=0.0, slope=0.0)

    def test_nonfinite_arguments_are_domain_errors(self):
        spec = build_laplace_closed_form(RationalShape(1, 1)).spec
        for const, slope in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(DomainError):
                meijer_g_series(spec, const=const, slope=slope)


def _series_meets_the_bar(res):
    # the hand-over rule, written out: converged, with an estimate within
    # 1e-10 of the value plus the smallest subnormal
    return res.converged and res.err_estimate <= 1e-10 * abs(res.value) + 2.0 ** -1074


# the ROADMAP's hand-over specs
HAND_OVER_PAIRS = [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 3), (3, 4), (4, 3), (7, 5),
                   (13, 11), (1, 30), (30, 1)]


class TestMeijerG:
    # meijer_g is the one place the series hands over to the contour: the
    # series value exactly where its estimate meets the 1e-10 bar, the
    # contour's elsewhere, and the closed form and the half transform return
    # its result unchanged
    @pytest.mark.parametrize("l,k", HAND_OVER_PAIRS)
    def test_closed_form_hand_over(self, l, k):
        shape = RationalShape(l, k)
        spec = build_laplace_closed_form(shape).spec
        # p from 0.5 to past the series table's slope_top, and densely
        # around the hand-over slope s*
        table = spec._series_table
        near = spec._hand_over + spec.m * np.linspace(-0.1, 0.02, 25)
        routes = set()
        for p in (np.geomspace(0.5, math.exp(1.2 * table.slope_top / l), 41).tolist()
                  + np.exp(near / l).tolist()):
            const, slope = _closed_form_pair(shape, p)
            res = meijer_g(spec, const=const, slope=slope)
            series = meijer_g_series(spec, const=const, slope=slope)
            if _series_meets_the_bar(series):
                assert res == series, p
            else:
                assert res == meijer_g_m0(spec, const=const, slope=slope), p
            assert laplace_frechet(LaplaceQuery(shape, p, Method.MEIJER_G)) == res, p
            routes.add(res.route)
        assert routes == {"series", "contour"}

    @pytest.mark.parametrize("gamma", [1.0, 2.5])
    def test_half_transform_hand_over(self, gamma):
        routes = set()
        # |const| up to about 1,400 at x = 1e200
        for x in np.geomspace(1e-4, 10.0, 21).tolist() + np.geomspace(1e10, 1e200, 20).tolist():
            # the half transform's pair: const = log gamma - (1 + gamma) log x,
            # slope = -gamma log x
            log_x = math.log(x)
            const, slope = math.log(gamma) - (1.0 + gamma) * log_x, -gamma * log_x
            res = meijer_g(_HALF_SPEC, const=const, slope=slope)
            series = meijer_g_series(_HALF_SPEC, const=const, slope=slope)
            if _series_meets_the_bar(series):
                assert res == series, x
            else:
                assert res == meijer_g_m0(_HALF_SPEC, const=const, slope=slope), x
            assert frechet_transform_frechet_half(Shape(gamma), x) == res, x
            routes.add(res.route)
        assert routes == {"series", "contour"}

    @pytest.mark.parametrize("spec", [
        build_laplace_closed_form(RationalShape(l, k)).spec
        for l, k in HAND_OVER_PAIRS + [(200, 1), (1, 200), (800, 1), (1, 800)]] + [_HALF_SPEC] + [
        build_laplace_closed_form(RationalShape(l, k)).spec
        for l in range(1, 9) for k in range(1, 9)
        if math.gcd(l, k) == 1 and (l, k) not in HAND_OVER_PAIRS])
    def test_hand_over_equals_the_scalar_scan(self, spec):
        # the scan as a loop of one series sum per step, down the whole grid:
        # the verdict changes once, from missing the bar to meeting it, which
        # is what the bisection assumes, and its s* is the last step that
        # misses, bit for bit (the grid's last step if none meets it)
        step = spec.m * math.log(2.0) / (2.0 * meijer._SERIES_PEAK)
        slope = spec._series_table.slope_top
        slopes, meets = [], []
        for _ in range(meijer._HAND_OVER_STEPS):
            res = spec._series_sum(0.0, slope)
            slopes.append(slope)
            meets.append(res.converged
                         and res.err_estimate <= 2.0 * meijer._REL_TOL * abs(res.value))
            slope -= step
        first = meets.index(True) if True in meets else len(meets)
        assert meets == [False] * first + [True] * (len(meets) - first)
        assert spec._hand_over == slopes[max(first - 1, 0)]

    @pytest.mark.parametrize("spec,const", [
        (build_laplace_closed_form(RationalShape(1, 1)).spec, 0.0),
        (build_laplace_closed_form(RationalShape(30, 1)).spec, math.log(30.0)),
        (_HALF_SPEC, -1400.0), (_HALF_SPEC, 1400.0)])
    def test_no_series_past_the_hand_over(self, spec, const, monkeypatch):
        # past the spec's hand-over slope s* the series misses the bar for
        # every const: meijer_g sums no series there, and below s* it does
        s_star, top = spec._hand_over, spec._series_table.slope_top
        past = (math.nextafter(s_star, math.inf), 0.5 * (s_star + top), top, top + 1.0)
        assert s_star < top
        for slope in past:
            res = meijer_g_series(spec, const=const, slope=slope)
            if res.evaluations == 0 and res.converged:
                # every term below half the smallest subnormal: the contour
                # meijer_g takes gives the same converged zero
                assert meijer_g(spec, const=const, slope=slope) == dataclasses.replace(
                    res, route="contour")
            else:
                assert not _series_meets_the_bar(res)
        calls = []

        def counting(original):
            def spy(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return spy

        monkeypatch.setattr(meijer, "meijer_g_series", counting(meijer.meijer_g_series))
        monkeypatch.setattr(meijer.MeijerSpec, "_series_sum",
                            counting(meijer.MeijerSpec._series_sum))
        for slope in past:
            assert meijer_g(spec, const=const, slope=slope).route == "contour"
            assert not calls, slope
        meijer_g(spec, const=const, slope=s_star)
        assert len(calls) == 1

    @pytest.mark.parametrize("slope", [-1e300, -1e301, -1e308, -sys.float_info.max])
    def test_series_at_the_most_negative_slopes(self, slope):
        # the 1/1 closed form's pair at p = e^slope -> 0 is 1: the terms past
        # the first underflow to 0.0, with no overflow in x slope on the way
        # (the suite turns a RuntimeWarning into an error)
        spec = build_laplace_closed_form(RationalShape(1, 1)).spec
        for route in (meijer_g_series, meijer_g):
            res = route(spec, const=0.0, slope=slope)
            assert (res.value, res.converged, res.route) == (1.0, True, "series")


# (value, err_estimate, evaluations, converged) of the Meijer route,
# recorded where test_numerics.py's kernel pins were, on the same
# fingerprint gate (complex exp, gemv and math.lgamma among its parts). Each
# closed form l/k at p is the pair const = log l, slope = l log p, summed as
# residues and on the band's contour, and through AUTO. A change that keeps
# every term, node, table, exit and summation order keeps these bit for bit.
PINNED_SERIES = {
    (1, 1, 0.01): ('0x1.e90f412fe3ee1p-1', '0x1.47b4f997286f2p-51', 97, True),
    (1, 1, 1.0): ('0x1.1e7200e1d347bp-2', '0x1.3b44bbaf3d514p-49', 97, True),
    (1, 1, 20.0): ('0x1.0ad420f000000p-11', '0x1.37a5ac7557800p-32', 97, False),
    (1, 1, 5000.0): ('0x0.0p+0', 'inf', 0, False),
    (2, 3, 0.01): ('0x1.d04dc59ed173cp-1', '0x1.d062675bc0143p-50', 97, True),
    (2, 3, 1.0): ('0x1.2377355ab6c00p-2', '0x1.350e04a7b3704p-46', 97, True),
    (2, 3, 20.0): ('0x1.47223e000c000p-8', '0x1.e7a1aa4cf16e4p-37', 97, True),
    (2, 3, 5000.0): ('0x0.0p+0', 'inf', 0, False),
    (3, 1, 0.01): ('0x1.f92250c3de12ep-1', '0x1.a78ad302230d6p-50', 97, True),
    (3, 1, 1.0): ('0x1.3c2e76229bce8p-2', '0x1.3935df33200f3p-47', 97, True),
    (3, 1, 20.0): ('0x1.2800000000000p-22', '0x1.76b093a9b4faep-19', 97, False),
    (3, 1, 5000.0): ('0x0.0p+0', 'inf', 0, False),
    (30, 1, 0.01): ('0x1.facd635e6f6bbp-1', '0x1.fb87511d17a54p-49', 96, True),
    (30, 1, 1.0): ('0x1.71793b4fff83cp-2', '0x1.69ca77aa717d6p-47', 96, True),
    (30, 1, 20.0): ('-0x1.f000000000000p-19', '0x1.608f2fd7b9a9bp-13', 96, False),
    (30, 1, 5000.0): ('0x0.0p+0', 'inf', 0, False),
    (1, 30, 0.01): ('0x1.ab1a5beb19236p-2', '0x1.8038ce35d418ap-48', 99, True),
    (1, 30, 1.0): ('0x1.71793b4fff830p-2', '0x1.d0fff76a22ee2p-48', 99, True),
    (1, 30, 20.0): ('0x1.4c00778c3e44cp-2', '0x1.145007a6a9d32p-47', 99, True),
    (1, 30, 5000.0): ('0x1.087e9fe342000p-2', '0x1.8792598565e97p-47', 99, True),
}
PINNED_CONTOUR = {
    (1, 1, 0.01): ('0x1.e90f412fe3edep-1', '0x1.5c330f440aa0cp-49', 317, True),
    (1, 1, 1.0): ('0x1.1e7200e1d3482p-2', '0x1.59658c16f31e8p-52', 121, True),
    (1, 1, 20.0): ('0x1.0ad420b17cf51p-11', '0x1.5101d1248380cp-58', 77, True),
    (1, 1, 5000.0): ('0x1.d50ce257f3f47p-201', '0x1.eea7851c93d64p-242', 61, True),
    (2, 3, 0.01): ('0x1.d04dc59ed173dp-1', '0x1.c635e90a87f6bp-48', 201, True),
    (2, 3, 1.0): ('0x1.2377355ab6c04p-2', '0x1.ac99ebe636b4dp-52', 129, True),
    (2, 3, 20.0): ('0x1.47223dff29a97p-8', '0x1.7b38fd5c25f9ep-55', 109, True),
    (2, 3, 5000.0): ('0x1.e785e56f1d694p-83', '0x1.55c93efa5b405p-125', 65, True),
    (3, 1, 0.01): ('0x1.f92250c3de132p-1', '0x1.c399060970919p-46', 201, True),
    (3, 1, 1.0): ('0x1.3c2e76229bcd0p-2', '0x1.02b969ff3c2aep-51', 121, True),
    (3, 1, 20.0): ('0x1.2f063bf95a383p-22', '0x1.6259eda7af9fdp-67', 69, True),
    (3, 1, 5000.0): ('0x0.0p+0', '0x0.0000000000001p-1022', 0, True),
    (30, 1, 0.01): ('-0x1.2049a707b5a32p+9', '0x1.8fdd5b4016557p+14', 133, False),
    (30, 1, 1.0): ('0x1.71793b50013aep-2', '0x1.36cc470907b73p-37', 105, True),
    (30, 1, 20.0): ('0x1.fab8f59918a47p-30', '0x1.98d7532df9b2bp-74', 57, True),
    (30, 1, 5000.0): ('0x0.0p+0', '0x0.0000000000001p-1022', 0, True),
    (1, 30, 0.01): ('0x1.ab1a5beb1e4ebp-2', '0x1.03f34063ad2dep-35', 109, True),
    (1, 30, 1.0): ('0x1.71793b4ffb575p-2', '0x1.2ff4499ade051p-37', 105, True),
    (1, 30, 20.0): ('0x1.4c00778c3d167p-2', '0x1.3399ef6031578p-38', 105, True),
    (1, 30, 5000.0): ('0x1.087e9fe341d0ep-2', '0x1.5ba78ba6e1485p-40', 105, True),
}
PINNED_AUTO = {
    (1, 1, 0.01): ('0x1.e90f412fe3ee1p-1', '0x1.47b4f997286f2p-51', 97, True),
    (1, 1, 1.0): ('0x1.1e7200e1d347bp-2', '0x1.3b44bbaf3d514p-49', 97, True),
    (1, 1, 20.0): ('0x1.0ad420b17cf51p-11', '0x1.5101d1248380cp-58', 77, True),
    (1, 1, 5000.0): ('0x1.d50ce257f3f47p-201', '0x1.eea7851c93d64p-242', 61, True),
    (2, 3, 0.01): ('0x1.d04dc59ed173cp-1', '0x1.d062675bc0143p-50', 97, True),
    (2, 3, 1.0): ('0x1.2377355ab6c00p-2', '0x1.350e04a7b3704p-46', 97, True),
    (2, 3, 20.0): ('0x1.47223dff29a97p-8', '0x1.7b38fd5c25f9ep-55', 109, True),
    (2, 3, 5000.0): ('0x1.e785e56f1d694p-83', '0x1.55c93efa5b405p-125', 65, True),
    (3, 1, 0.01): ('0x1.f92250c3de12ep-1', '0x1.a78ad302230d6p-50', 97, True),
    (3, 1, 1.0): ('0x1.3c2e76229bce8p-2', '0x1.3935df33200f3p-47', 97, True),
    (3, 1, 20.0): ('0x1.2f063bf95a383p-22', '0x1.6259eda7af9fdp-67', 69, True),
    (3, 1, 5000.0): ('0x0.0p+0', '0x0.0000000000001p-1022', 0, True),  # contour's 0.0
    (30, 1, 0.01): ('0x1.facd635e6f6bbp-1', '0x1.fb87511d17a54p-49', 96, True),
    (30, 1, 1.0): ('0x1.71793b4fff83cp-2', '0x1.69ca77aa717d6p-47', 96, True),
    (30, 1, 20.0): ('0x1.fab8f59918a47p-30', '0x1.98d7532df9b2bp-74', 57, True),
    (30, 1, 5000.0): ('0x0.0p+0', '0x0.0000000000001p-1022', 0, True),  # contour's 0.0
    (1, 30, 0.01): ('0x1.ab1a5beb19236p-2', '0x1.8038ce35d418ap-48', 99, True),
    (1, 30, 1.0): ('0x1.71793b4fff830p-2', '0x1.d0fff76a22ee2p-48', 99, True),
    (1, 30, 20.0): ('0x1.4c00778c3e44cp-2', '0x1.145007a6a9d32p-47', 99, True),
    (1, 30, 5000.0): ('0x1.087e9fe342000p-2', '0x1.8792598565e97p-47', 99, True),
}
# the contour at an explicit abscissa, nodes built for the one slope
PINNED_EXPLICIT_C = ('0x1.0a02efeff4a15p-1', '0x1.1aa75ac747935p-48', 113, True)
PINNED_HALF = {
    0.001: ('0x1.a2f5c0d9dc078p-13', '0x1.2051e5267e5f1p-57', 85, True),
    1.0: ('0x1.334b4c7392568p-3', '0x1.eafebbf855572p-49', 94, True),
    1e+200: ('0x1.2fdf36bf699dcp-997', '0x0.000156517a6e9p-1022', 94, True),
}


@pytest.fixture(scope="module")
def pinned_platform():
    if _numpy_fingerprint() != PINNED_FINGERPRINT:
        pytest.skip("this numpy rounds its elementwise functions otherwise than "
                    "where the bits were recorded")


def _pinned_pair(l, k, p):
    spec = build_laplace_closed_form(RationalShape(l, k)).spec
    return spec, {"const": math.log(l), "slope": l * math.log(p)}


@pytest.mark.usefixtures("pinned_platform")
class TestPinnedBits:
    @pytest.mark.parametrize("l,k,p", PINNED_SERIES)
    def test_series(self, l, k, p):
        spec, pair = _pinned_pair(l, k, p)
        assert _bits(meijer_g_series(spec, **pair)) == PINNED_SERIES[l, k, p]

    @pytest.mark.parametrize("l,k,p", PINNED_CONTOUR)
    def test_contour(self, l, k, p):
        spec, pair = _pinned_pair(l, k, p)
        assert _bits(meijer_g_m0(spec, **pair)) == PINNED_CONTOUR[l, k, p]

    @pytest.mark.parametrize("l,k,p", PINNED_AUTO)
    def test_auto(self, l, k, p):
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.AUTO))
        assert _bits(res) == PINNED_AUTO[l, k, p]

    def test_explicit_abscissa(self):
        res = meijer_g_m0(MeijerSpec([0.5, 1.0, 0.0]), const=0.0, slope=math.log(0.25), c=1.5)
        assert _bits(res) == PINNED_EXPLICIT_C

    @pytest.mark.parametrize("x", PINNED_HALF)
    def test_half_transform(self, x):
        assert _bits(frechet_transform_frechet_half(Shape(1.0), x)) == PINNED_HALF[x]
