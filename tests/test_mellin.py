import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from frechet_laplace.distributions import RationalShape, Shape, frechet_pdf
from frechet_laplace.errors import ContourError, DomainError, NonConvergence, PoleError
from frechet_laplace import meijer, mellin
from frechet_laplace.ftransform import _HALF_SPEC
from frechet_laplace.laplace import laplace_frechet_oracle
from frechet_laplace.meijer import MeijerSpec
from frechet_laplace.mellin import (ContourPath, MellinFunction, contour_integral,
                                    frechet_mellin_image, laplace_via_mellin,
                                    mellin_barnes_integral)
from frechet_laplace.numerics import integrate_semi_infinite, log_gamma

TWO_K1_OF_2 = 0.27973176363304486  # 2 K1(2), from the series oracle


def closed_form_contour(l, k, p):
    # the closed form's collapsed pair, const = log l and slope = l log p
    form = meijer.build_laplace_closed_form(RationalShape(l, k))
    return meijer.meijer_g_m0(form.spec, const=math.log(l), slope=l * math.log(p))


def exp_mellin_image():
    # Mellin image of exp(-t) is Gamma(s), valid on Re(s) > 0
    return MellinFunction(f_star=lambda s: np.exp(log_gamma(s)),
                          domain_strip=(0.0, math.inf))


def delta_list(k, a):
    # the run Delta(k, a) = a/k, (a+1)/k, ..., (a+k-1)/k, as MeijerSpec.b lists it
    return list(MeijerSpec(groups=((k, a),)).b)


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

    def test_imaginary_residue_small(self, monkeypatch):
        # the engine sums the upper half of the path and mirrors it; over both
        # halves of a symmetric grid on the path (mu = 0.4 at c = 0.5) the
        # integrand's sum has an imaginary part of roundoff size
        integrands, original = [], mellin.ContourPath

        def capture(log_parts, log_abs_real, c, poles, slopes):
            integrands.append((log_parts, slopes[0]))
            return original(log_parts, log_abs_real, c, poles, slopes)

        monkeypatch.setattr(mellin, "ContourPath", capture)
        for p in (0.1, 1.0, 7.0):
            laplace_via_mellin(frechet_mellin_image(RationalShape(2, 1)), p)
        u = np.linspace(-8.0, 8.0, 161)
        s = 0.5 - 0.4 * u * u + 1j * u
        assert len(integrands) == 3
        for log_parts, slope in integrands:
            total = (np.exp(log_parts(s)[0] - s * slope) * (1.0 + 0.8j * u)).sum()
            assert abs(total.imag) <= 1e-10 * abs(total.real)

    def test_non_real_image_raises(self):
        # log F off a multiple of i pi on the real axis: the image is not its
        # own conjugate mirror, and the upper-half sum would not be the
        # integral
        def turned(phase):
            return MellinFunction(f_star=lambda s: np.exp(log_gamma(s) + 1j * phase),
                                  domain_strip=(0.0, math.inf))

        for phase in (0.5 * math.pi, 1e-8, -3.0):
            with pytest.raises(DomainError, match="real on the real axis"):
                laplace_via_mellin(turned(phase), 1.0)
        # -Gamma(s), real and negative: log F carries i pi
        res = laplace_via_mellin(turned(math.pi), 1.0)
        assert res.converged and abs(res.value + 0.5) <= 1e-12
        # a non-finite image is the engine's NonConvergence, as before
        with pytest.raises(NonConvergence, match="not finite"):
            laplace_via_mellin(MellinFunction(f_star=lambda s: np.full(np.shape(s), np.nan),
                                              domain_strip=(0.0, math.inf)), 1.0)

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

    def test_large_p_at_the_default_abscissa(self):
        # the path through c = 0.5 does not serve large p: the image of 1/1
        # is converged at p = 10, flagged converged=False at p = 100 and
        # 1e3 (where it is 2.7e-7 for 3.4e-27), and from about 2.2e3 the path
        # rises too far above its vertex (e^118 at 1e4), a ContourError
        image = frechet_mellin_image(RationalShape(1, 1))
        res, ref = laplace_via_mellin(image, 10.0), closed_form_contour(1, 1, 10.0)
        assert res.converged
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate
        assert not laplace_via_mellin(image, 100.0).converged
        res, ref = laplace_via_mellin(image, 1e3), closed_form_contour(1, 1, 1e3)
        assert not res.converged
        assert res.value > 1e-7 and 1e-27 < ref.value < 1e-26
        for p in (3e3, 1e4):
            with pytest.raises(ContourError, match="rises"):
                laplace_via_mellin(image, p)

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
    # contour integral is exp(-X): lam = log Gamma, slope = log X.
    # Integrands hand the engine lam and the sizes of its logs.
    C, X = 0.7, 1.3
    POLES = (C, math.inf)

    @staticmethod
    def log_gamma_parts(s):
        lam = log_gamma(s)
        return lam, np.abs(lam)

    @staticmethod
    def real_log_gamma(x):
        return np.array([math.lgamma(v) for v in x])

    def integral(self, parts, real, log_shift=0.0):
        slope = math.log(self.X)
        return contour_integral(ContourPath(parts, real, self.C, self.POLES, (slope, slope)),
                                log_shift, slope)

    def test_real_value(self):
        res = self.integral(self.log_gamma_parts, self.real_log_gamma)
        assert abs(res.value - math.exp(-self.X)) <= 1e-13
        assert res.converged

    def test_underflow_is_converged_zero(self):
        # at 1e-305 times the integrand the value exp(-X) 1e-305 is summed,
        # on nodes scaled by a power of two, and lies within its estimate
        res = self.integral(self.log_gamma_parts, self.real_log_gamma, math.log(1e-305))
        assert res.converged and res.evaluations > 0
        assert abs(res.value - math.exp(-self.X) * 1e-305) <= res.err_estimate
        assert res.err_estimate <= 1e-12 * res.value

        # far below the smallest subnormal: a converged zero within it, and
        # no node built
        def never(*args):
            raise AssertionError("no node may be built below the node-free exit")

        res = self.integral(never, self.real_log_gamma, math.log(1e-305) - 200.0)
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == (
            0.0, 2.0 ** -1074, 0, True)

    def test_value_past_binary64_is_not_converged(self):
        # e^800 exp(-X) is summed on scaled nodes and overflows when scaled
        # back; an infinite integrand at the vertex builds no node. Both
        # are 0.0 with an infinite estimate, never an OverflowError
        res = self.integral(self.log_gamma_parts, self.real_log_gamma, 800.0)
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == (
            0.0, math.inf, 0, False)

        def never(*args):
            raise AssertionError("no node may be built for an infinite integrand")

        res = self.integral(never, self.real_log_gamma, math.inf)
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == (
            0.0, math.inf, 0, False)

    def test_nonfinite_integrand_raises(self):
        def infinite(s):
            return np.full(np.shape(s), np.inf, dtype=complex), np.full(np.shape(s), np.inf)

        def nan(s):
            return np.full(np.shape(s), np.nan, dtype=complex), np.full(np.shape(s), np.nan)

        # not finite on the real axis, where step and window are set
        with pytest.raises(NonConvergence, match="not finite"):
            self.integral(infinite, lambda x: np.full(np.shape(x), np.inf))
        # finite there, but not on the path
        with pytest.raises(NonConvergence, match="not finite"):
            self.integral(nan, self.real_log_gamma)


# A ContourPath probes the real axis once, when it is built, and builds its
# nodes once, on first use: for a band's path, a path through an explicit c
# and laplace_via_mellin's, and never for an exit that needs no node.
def _spy_paths(monkeypatch):
    # every path built, and the path of each log_abs_real call
    paths, probes, init = [], [], ContourPath.__init__

    def spy(self, log_parts, log_abs_real, *args):
        def counted(x):
            probes.append(self)
            return log_abs_real(x)

        init(self, log_parts, counted, *args)
        paths.append(self)

    monkeypatch.setattr(ContourPath, "__init__", spy)
    return paths, probes


def _count_node_tables(monkeypatch):
    tables, original = [], mellin._node_table

    def counting(*args):
        tables.append(args)
        return original(*args)

    monkeypatch.setattr(mellin, "_node_table", counting)
    return tables


class TestContourPath:
    SPEC = meijer.build_laplace_closed_form(RationalShape(2, 3)).spec
    ROUTES = {
        # three slopes of one band, and the same slope again
        "band": lambda spec: [meijer.meijer_g_m0(spec, const=math.log(2.0), slope=slope)
                              for slope in (5.0, 5.01, 5.02, 5.0)],
        "explicit_c": lambda spec: [meijer.meijer_g_m0(spec, const=math.log(2.0), slope=5.0,
                                                       c=1.5)],
        "via_mellin": lambda spec: [laplace_via_mellin(
            frechet_mellin_image(RationalShape(2, 3)), 3.0)],
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_one_probe_and_one_node_table_per_path(self, route, monkeypatch):
        meijer.MeijerSpec._band_table.cache_clear()
        paths, probes = _spy_paths(monkeypatch)
        tables = _count_node_tables(monkeypatch)
        results = self.ROUTES[route](self.SPEC)
        assert all(res.converged and res.evaluations > 0 for res in results)
        assert len(paths) == 1 and probes == paths
        assert len(tables) == 1
        path = paths[0]
        assert path.nodes is path.nodes and len(tables) == 1

    def test_every_slope_of_a_band_gets_one_path(self, monkeypatch):
        spec = self.SPEC
        seen, original = [], meijer.contour_integral

        def capture(path, const, slope):
            seen.append(path)
            return original(path, const, slope)

        monkeypatch.setattr(meijer, "contour_integral", capture)
        band = 9
        for f in (0.01, 0.1, 0.25, 0.5, 0.75, 0.99):
            slope = spec._band_slope((band + f) * meijer._BAND_WIDTH)
            assert math.floor(spec._band_coordinate(slope) / meijer._BAND_WIDTH) == band
            assert meijer.meijer_g_m0(spec, const=0.0, slope=slope).converged
        assert len(seen) == 6 and all(path is seen[0] for path in seen)
        assert seen[0] is spec._band_table(band)

    @pytest.mark.parametrize("const,expected", [(-2000.0, (0.0, 2.0 ** -1074, 0, True)),
                                                (1e9, (0.0, math.inf, 0, False))])
    def test_no_node_for_an_exit_without_nodes(self, const, expected):
        # far below the smallest subnormal, and a vertex log whose roundoff
        # alone passes the bound of a converged value: log_parts is never
        # called, and the path holds no nodes
        def never(s):
            raise AssertionError("no node may be built for this exit")

        path = ContourPath(never, TestContourIntegral.real_log_gamma, 0.7, (0.7, math.inf),
                           (0.0, 1.0))
        res = contour_integral(path, const, 0.5)
        assert (res.value, res.err_estimate, res.evaluations, res.converged) == expected
        assert "nodes" not in vars(path)
        with pytest.raises(AssertionError, match="no node"):
            contour_integral(path, 0.0, 0.5)


def test_range_step_holds_at_every_slope():
    # A step for a range of slopes must not exceed the step of any one slope
    # inside it. On the vertical line through 0 (a pole at distance 10 on
    # each side: widths 1, 2, 4, 8), with real-axis logs interpolated
    # through random values at the probe points, the step for (lo, hi) is
    # at most the single-slope step at 41 slopes across the range. Taking
    # the best width at each end and then the smaller step fails this.
    xs = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
    rng = np.random.default_rng(1)
    for _ in range(100):
        ys = rng.uniform(-40.0, 40.0, xs.size)
        ys[4] = 0.0

        def real_logs(x, ys=ys):
            return np.interp(x, xs, ys)

        lo, hi = sorted(rng.uniform(-30.0, 30.0, 2).tolist())
        step = ContourPath(None, real_logs, 0.0, (10.0, 10.0), (lo, hi)).step
        for slope in np.linspace(lo, hi, 41).tolist():
            single = ContourPath(None, real_logs, 0.0, (10.0, 10.0), (slope, slope)).step
            assert step <= single * (1.0 + 1e-12), (lo, hi, slope)


class TestNoiseFloorPhase:
    # mellin_barnes_integral reads each node's roundoff from the sizes of the
    # logs the integrand hands it, phase included, with no unwrapping of
    # node values. On synthetic nodes u = j h, j = 0..16, on the line
    # s = i u (the engine asks for u >= 0 only and mirrors the rest), with
    # slope and const 0 and the size of each log F_j its modulus, its
    # err_estimate must equal the floor formula
    # 2 eps sum w_j |G_j| (1 + |log F_j|) over all 2N + 1 nodes, that is with
    # weights w_j = h, 2h, 2h, ..., |G_j| = exp(Re log F_j) and the sum in
    # numpy's order over j = 0..N, bit for bit. The nodes have magnitude 1
    # for j <= 14 and e^-42 at the edge, G_0 is real, and node j = 13
    # balances S_h against S_2h, so that the estimate is the noise floor.
    STEP, N_HALF = 0.5, 16
    BALANCE = 13
    PI_DOWN = math.nextafter(math.pi, 0.0)
    PI_UP = math.nextafter(math.pi, 4.0)

    @classmethod
    def weighted_sum(cls, sizes, magnitudes):
        weights = np.full(sizes.size, 2.0 * cls.STEP)
        weights[0] = cls.STEP
        return float(np.sum(weights * sizes * magnitudes))

    @classmethod
    def floor_formula(cls, logs):
        return mellin._NODE_ROUNDOFF * cls.weighted_sum(1.0 + np.abs(logs), np.exp(logs.real))

    @classmethod
    def unwrap_floor(cls, vals):
        """The floor as rebuilt from node values with np.unwrap."""
        magnitudes = np.abs(vals)
        phase = np.unwrap(np.angle(vals))
        exponent = np.abs(np.log(magnitudes) + 1j * (phase - phase[0]))
        return mellin._NODE_ROUNDOFF * cls.weighted_sum(1.0 + exponent, magnitudes)

    @classmethod
    def nodes(cls, phases):
        """(G, log F) with Im log F_j the given phases, repeated as needed."""
        j = np.arange(cls.N_HALF + 1)
        logs = (np.where(j <= 14, 0.0, -42.0)
                + 1j * np.resize(np.array(phases, dtype=float), j.size))
        vals = np.exp(logs)
        # S_h - S_2h = h (-G_0 + 2 Re sum_odd G_j - 2 Re sum_{even > 0} G_j)
        vals[cls.BALANCE] = 0.0
        vals[cls.BALANCE] = 0.5 * vals[0].real + (vals[2::2].real.sum()
                                                  - vals[1::2].real.sum())
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
            "no_wrap": (self.nodes(0.15 * np.arange(17)), set()),
            # log F_j = 4 i j: more than pi per node, which an unwrap of the
            # node values reads as 4 - 2 pi
            "fast_phase": (self.nodes(4.0 * np.arange(17)), {4.0}),
        }

    @pytest.mark.parametrize("case", ["exact_pi", "pi_ulp", "several_wraps", "no_wrap",
                                      "fast_phase"])
    def test_err_estimate_equals_floor_formula(self, case):
        (vals, logs), steps = self.cases()[case]
        assert vals[0].imag == 0.0
        turns = np.diff(logs.imag)
        assert steps <= set(turns[:self.BALANCE - 1].tolist())
        wraps = np.count_nonzero(np.abs(np.diff(np.angle(vals))) >= math.pi)
        if case == "several_wraps":
            assert wraps >= 4
        if case == "no_wrap":
            assert wraps == 0
        estimate = self.STEP * (vals[0].real + 2.0 * vals.real[1:].sum())
        diff = abs(estimate - 2.0 * self.STEP * (vals[0].real + 2.0 * vals.real[2::2].sum()))
        floor = self.floor_formula(logs)
        assert floor > diff
        if case == "fast_phase":
            # the phase counts in full: the unwrap undercounted it
            assert floor > 1.5 * self.unwrap_floor(vals)

        u = np.arange(self.N_HALF + 1) * self.STEP
        nodes = mellin._node_table(1j * u, logs, np.abs(logs), self.STEP)
        _, err, n, _ = mellin_barnes_integral(nodes, 0.0, 0.0)
        assert n == 2 * vals.size - 1
        assert err == floor / (2.0 * math.pi)


class TestUpperHalfNodes:
    # Every contour route hands log_gamma, and the caller's image, only path
    # points with Im s >= 0 (real probe points included): the lower half is
    # the engine's mirror. evaluations still counts the rule's 2N + 1 nodes.
    # (the closed forms' contours, as laplace_frechet and the half transform
    # call them where their residue series declines)
    ROUTES = {
        "closed_form_2_3_p1": lambda: closed_form_contour(2, 3, 1.0),
        "closed_form_30_1_p20": lambda: closed_form_contour(30, 1, 20.0),
        # the Frechet(1/2) transform at gamma = 1, x = 2: const = log gamma
        # - (1 + gamma) log x, slope = -gamma log x
        "frechet_half": lambda: meijer.meijer_g_m0(
            _HALF_SPEC, const=-2.0 * math.log(2.0), slope=-math.log(2.0)),
    }
    # laplace_via_mellin on the Frechet image takes the parabola, on the
    # Gamma(s) image (a strip bounded on the left) the vertical line
    IMAGES = {
        "via_mellin_frechet": lambda: frechet_mellin_image(RationalShape(1, 1)),
        "via_mellin_gamma": exp_mellin_image,
    }

    @pytest.mark.parametrize("route", list(ROUTES) + list(IMAGES))
    def test_no_point_below_the_real_axis(self, route, monkeypatch):
        points, in_image = [], [False]

        def spy(original):
            def log_gamma_spy(s):
                if not in_image[0]:
                    points.append(np.asarray(s, dtype=complex).ravel())
                return original(s)
            return log_gamma_spy

        for module in (meijer, mellin):
            monkeypatch.setattr(module, "log_gamma", spy(module.log_gamma))
        # the closed forms' nodes come from a band's table: build it here
        meijer.MeijerSpec._band_table.cache_clear()

        if route in self.ROUTES:
            res = self.ROUTES[route]()
        else:
            image = self.IMAGES[route]()

            def f_star(s):
                # the image sees 1 - s; the log_gamma calls it makes on
                # those points are not path points
                points.append(1.0 - np.asarray(s, dtype=complex).ravel())
                in_image[0] = True
                try:
                    return image.f_star(s)
                finally:
                    in_image[0] = False

            res = laplace_via_mellin(MellinFunction(f_star, image.domain_strip), 1.0)
        assert res.converged
        assert res.evaluations % 2 == 1
        assert any(p.imag.max() > 0.0 for p in points)
        assert all(p.imag.min() >= 0.0 for p in points)
