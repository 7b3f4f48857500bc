"""Numerical Meijer G functions of signature G^{m,0}_{0,m}(z | b_1..b_m),
the only signature the Frechet Laplace transform requires, plus the assembly
of that transform's closed form.

The b lists come in runs Delta(n, a) = a/n, ..., (a+n-1)/n, and Gauss's
multiplication formula collapses each run of the Mellin-Barnes integrand
into one gamma factor:
prod_{j<n} Gamma(s + (a+j)/n) = (2 pi)^{(n-1)/2} n^{1/2-a-ns} Gamma(ns + a).

Each spec (MeijerSpec) holds both routes of that collapsed integrand,
exp(const - s slope) prod_g Gamma(n_g s + a_g), taken as the pair
(const, slope), and the tables they read. The series sums its residues
(Slater's theorem), for two runs with integer a, from a table of
coefficients built on first use; it declines where its terms would leave
binary64 or the table, and is a converged 0.0 where they and its tail lie
below half the smallest subnormal. The contour integrates along a parabola
opening to the left from its vertex c > -min(b_j), for any spec, on one
ContourPath per band of slopes, which keeps its nodes: the log Gamma sum on
a fixed path is a property of the spec. The hand-over takes the series
where its estimate is within 1e-10 of its value, the contour elsewhere, and
the contour alone past a slope s*, found by bisecting a grid of slopes on
the series' own verdict.
meijer_g_series, meijer_g_m0 and meijer_g call the spec's methods; the
closed form finds its spec in one lookup keyed on l and k.

Everything runs in log space: a closed form passes const and slope with its
constants cancelled analytically, so the closed form's prefactor
(2 pi)^{1-(k+l)/2} and argument p^l / (k^k l^l) never have to be binary64
numbers on their own.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import _INTEGERS, RationalShape
from .errors import ContourError, DomainError
from .mellin import _NOISE_REL_BOUND, ContourPath, contour_integral
from .numerics import _LOG_PI, _REL_TOL, _TINY, EvalResult, _real, log_gamma

__all__ = [
    "MeijerSpec",
    "LaplaceClosedForm",
    "meijer_g",
    "meijer_g_m0",
    "meijer_g_series",
    "build_laplace_closed_form",
]


# The contour paths. A band is a range of slopes that shares one path and
# its nodes, the parabola whose vertex is the saddle of the band's centre. At
# a slope off that centre the vertex is off the slope's own saddle by dc,
# where the integrand exceeds its minimum by about phi'' dc^2 / 2, and
# phi'' ~ m / c at large c: bands of equal width _BAND_WIDTH in
# t = 2 sqrt(m c), the saddle's Gaussian-width coordinate, keep that growth
# near e^{_BAND_WIDTH^2 / 8} at every scale (e^0.135 at most on the closed
# forms' and the tests' specs). t is taken at c = exp((slope - sum n log n)
# / m), the large-c saddle, and continued below c = 1 along its tangent,
# linear in the slope. A band's nodes are about 6 kB.
_BAND_WIDTH = 1.0
# past this log c the saddle lies beyond its bracket, and no node is built
_BAND_LOG_C_MAX = 700.0

# The residue series. Its table covers every slope up to the one where the
# envelope of the terms peaks at e^_SERIES_PEAK: past that the terms cancel by
# more than the 1e-10 a caller accepts. It ends where the envelope, at that
# slope, has fallen e^_SERIES_DEPTH below the peak.
_SERIES_PEAK = 25.0
_SERIES_DEPTH = 60.0
_EULER_GAMMA = 0.5772156649015329
_LOG_MAX = math.log(sys.float_info.max)
_LOG_HALF_TINY = -1075.0 * math.log(2.0)  # log of half the smallest subnormal
_EPS = sys.float_info.epsilon
# The hand-over's grid steps down from slope_top by m log 2 / (2 _SERIES_PEAK):
# in the slopes where the series' estimate is not noise, its log ratio to
# the value changes by less than _SERIES_PEAK / m per unit of slope (up to
# 0.99 of it on the specs the tests use), so by less than log 2 / 2 a step.
# s* lies 108 to 126 steps down on every spec the tests use; the grid's end
# only bounds the bisection (9 sums), and a grid that ends short of s*
# leaves s* higher, where the hand-over still tries the series.
_HAND_OVER_STEPS = 400


def _log_gamma_rational(num: int, den: int) -> tuple[float, float, float]:
    """log|Gamma(num/den)|, its sign, and the sum of the magnitudes of the
    logs it is formed from (the scale of its rounding), for num/den not a
    pole. Left of 0 by reflection, Gamma(y) = pi / (sin(pi y) Gamma(1 - y)),
    with the sine's argument reduced exactly to (0, pi/2]: y lies at least
    1/den from the poles, so its own rounding would cost den ulps there."""
    if num > 0:
        value = math.lgamma(num / den)
        return value, 1.0, abs(value)
    r = num % (2 * den)
    q = r % den
    log_sin = math.log(math.sin(math.pi * min(q, den - q) / den))
    rest = math.lgamma((den - num) / den)
    return _LOG_PI - log_sin - rest, 1.0 if r < den else -1.0, _LOG_PI - log_sin + abs(rest)


def _digamma(y: float) -> float:
    # a central difference of math.lgamma, good to about 1e-9
    return (math.lgamma(1.00001 * y) - math.lgamma(0.99999 * y)) / (2e-5 * y)


@dataclass(frozen=True)
class _SeriesTable:
    """Residues of exp(const - s slope) Gamma(n1 s + a1) Gamma(n2 s + a2):
    term j is sign_j exp(log_c_j + const + x_j slope), times -slope for the
    terms of a double pole's log part. The read-only matrix `sums` turns the
    column of exp(log_c_j + const + x_j slope) into four sums over the plain
    terms (rows 0-3) and the same four over the log terms (rows 4-7):
    signed, weighted by 1 plus the magnitudes of the logs log_c_j is summed
    from, weighted by |x_j|, and plain. log_c_max and the x range bound
    every term's log.
    The tail bound is exp(tail_log + const + tail_x slope)
    (tail_k0 + tail_k1 |slope|), for every slope up to slope_top."""

    x: np.ndarray
    log_c: np.ndarray
    sums: np.ndarray
    log_c_max: float
    x_min: float
    slope_top: float
    tail_x: float
    tail_log: float
    tail_k0: float
    tail_k1: float


@dataclass(frozen=True)
class MeijerSpec:
    """Lower parameter list of a G^{m,0}_{0,m} instance as Delta(n, a) runs.
    Each entry of b becomes a run (1, b_j), ahead of the given groups; the
    b property derives the list from the runs. The spec also holds what the
    Meijer routes know of it, and never a value: the constants set below,
    the series table and s* (built on first use), and band paths that equal
    specs share."""

    groups: tuple

    def __init__(self, b: Sequence[float] = (), *, groups: Sequence = ()):
        runs = tuple((1, v) for v in b) + tuple(groups)
        if len(runs) < 1:
            raise DomainError("MeijerSpec needs at least one lower parameter")
        if not all(isinstance(n, _INTEGERS) and n >= 1 for n, _ in runs):
            raise DomainError("MeijerSpec run lengths must be integers >= 1")
        runs = tuple((int(n), _real("MeijerSpec", a)) for n, a in runs)
        columns = np.array(runs, dtype=complex)
        columns.flags.writeable = False
        # the hash, taken once (the band tables are keyed on the spec), the
        # smallest b_j (a / n of a run Delta(n, a)), sum n log n in run order,
        # the runs' n and a as read-only complex columns, and the band scale
        for name, value in (("groups", runs), ("_hash", hash(runs)),
                            ("_b_min", min(a / n for n, a in runs)),
                            ("_n_log_n", sum(n * math.log(n) for n, _ in runs)),
                            ("_n", columns[:, :1]), ("_a", columns[:, 1:]),
                            ("_scale", 2.0 * math.sqrt(sum(n for n, _ in runs)))):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    @property
    def b(self) -> tuple:
        return tuple((a + j) / n for n, a in self.groups for j in range(n))

    @functools.cached_property
    def m(self) -> int:
        return sum(n for n, _ in self.groups)

    def _saddle(self, slope: float) -> float:
        """Abscissa minimizing the integrand magnitude on the real axis.

        On the real axis the integrand is exp(phi(c)) with, one term per run,
        phi(c) = sum_g log Gamma(n_g c + a_g) - c slope + const, convex in c;
        placing the contour at its minimum keeps the alternating contour sum
        on the scale of the result, which is what bounds the roundoff for
        very large or very small z. A quarter-unit margin keeps the pole at
        -b_min far enough from the vertex that the trapezoid step stays
        moderate, and every n_g c + a_g at least 1/4. The bracket ends at
        c = 2 e^300, which keeps it finite: where the saddle lies beyond
        (log z > 300 m), phi < -0.3 m c at the bracket end, far under the
        binary64 floor, so the vertex there builds no node and gives the
        same converged zero. It runs once per band path (_band_table), never
        per value.

        Safeguarded Newton on phi'(c) = sum_g n_g psi(n_g c + a_g) - slope,
        from z^{1/m} = exp((slope - sum n log n) / m) (where
        phi' ~ m log c - log z), finds it to 1e-2 (relative above c = 1) in
        plain floats: psi and psi' are central differences of math.lgamma,
        good to about 1e-9 and 1e-4. Each iterate narrows the bracket by the
        sign of phi'; a Newton step out of it, or phi'' <= 0, bisects. phi'
        is concave, so Newton rises to the root from the left; phi' > 0 at
        the lower end makes that end the result.
        """
        lo, hi = -self._b_min + 0.25, 2.0 * math.exp(300.0)
        c = min(max(math.exp(min((slope - self._n_log_n) / self.m, 300.0)), lo), hi)
        while True:
            d1, d2 = -slope, 0.0
            for n, a in self.groups:
                x = n * c + a
                up, down = math.lgamma(1.00001 * x), math.lgamma(0.99999 * x)
                d1 += n * (up - down) / (2e-5 * x)
                d2 += n * n * (up - 2.0 * math.lgamma(x) + down) / (1e-5 * x) ** 2
            if d1 > 0.0:
                hi = c
            else:
                lo = c
            step = c - d1 / d2 if d2 > 0.0 else math.nan
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - c) <= 1e-2 * max(1.0, step):
                return step
            c = step

    def _band_coordinate(self, slope: float) -> float:
        # t of the slope (see _BAND_WIDTH)
        u = min((slope - self._n_log_n) / self.m, _BAND_LOG_C_MAX)
        return self._scale * math.exp(0.5 * u) if u > 0.0 else self._scale * (1.0 + 0.5 * u)

    def _band_slope(self, t: float) -> float:
        # the inverse of _band_coordinate
        v = t / self._scale
        u = 2.0 * math.log(v) if v > 1.0 else 2.0 * (v - 1.0)
        return self._n_log_n + self.m * u

    def _path(self, c: float, slopes: tuple[float, float]) -> ContourPath:
        """The contour path of the collapsed integrand with vertex c, for
        every slope in slopes: its nodes are one log_gamma call on the
        (runs x nodes) array n s + a, and its real-axis probe sums the runs
        in plain floats (math.lgamma), with no log_gamma call."""
        def log_parts(s):
            parts = log_gamma(self._n * s + self._a)
            return np.add.reduce(parts), np.add.reduce(np.abs(parts))

        def log_abs_real(x):
            total = np.zeros(x.size)
            for n, a in self.groups:
                total += [math.lgamma(n * v + a) for v in x.tolist()]
            return total

        return ContourPath(log_parts, log_abs_real, c, (c + self._b_min, math.inf), slopes)

    # one cache for every spec's bands, 256 paths in all, keyed on the
    # spec's runs and the band
    @functools.lru_cache(maxsize=256)
    def _band_table(self, band: int) -> ContourPath:
        """The path that serves every slope of a band, built once, with one
        saddle search: a property of the spec and the band, never of a
        value. Its vertex is the saddle of the band's centre; the top band
        also holds every slope past _BAND_LOG_C_MAX. The path builds its
        nodes on first use and keeps them."""
        lo = self._band_slope(band * _BAND_WIDTH)
        hi = self._band_slope((band + 1) * _BAND_WIDTH)
        return self._path(self._saddle(self._band_slope((band + 0.5) * _BAND_WIDTH)), (lo, hi))

    def _contour(self, const: float, slope: float, c: float | None = None) -> EvalResult:
        # meijer_g_m0: on the band's path, or on a path through an explicit c
        if c is None:
            path = self._band_table(math.floor(self._band_coordinate(slope) / _BAND_WIDTH))
        elif -self._b_min < c < math.inf:
            path = self._path(c, (slope, slope))
        else:
            raise ContourError(
                f"abscissa {c} does not separate poles: need {-self._b_min} < c < inf")
        return contour_integral(path, const, slope)

    @functools.cached_property
    def _series_table(self) -> _SeriesTable:
        """The residues of the collapsed integrand of a two-run spec, in order
        of the power x of e^slope they carry, built in O(terms).

        A pole of run (n, a) sits where n s + a = -i, at x = -s = (a + i)/n;
        the residue of Gamma there is (-1)^i / (i! n). A simple pole takes
        the other factor at a rational point (_log_gamma_rational). Where the
        runs' poles coincide (i, j) the residue is
        (-1)^(i+j) e^(const + x slope) (n1 psi(i+1) + n2 psi(j+1) - slope) / (i! j! n1 n2),
        with psi(i+1) = H_i - Euler's gamma from running harmonic sums.

        On |terms| the envelope e^g, g(x) = x slope - lgamma(n1 x - a1 + 1)
        - lgamma(n2 x - a2 + 1), is concave in x and peaks near
        x = e^{(slope - sum n log n)/m} at about m x: the table stops where
        g'(x) < 0 and g(x) <= _SERIES_PEAK - _SERIES_DEPTH at
        slope_top = sum n log n + m log(_SERIES_PEAK / m). Past the last
        power X every unit of x holds at most m + 2 poles, each below
        (pi/2 + (n1 psi + n2 psi + |slope|)/(n1 n2)) e^{const + g(x)}, and
        g(X + u) <= g(X) + u g'(X): a geometric tail, and smaller at any
        lower slope by e^{X (slope - slope_top)}.

        DomainError for a spec other than two runs with integer a.
        """
        if len(self.groups) != 2 or not all(a.is_integer() for _, a in self.groups):
            raise DomainError("meijer_g_series takes two runs with integer a")
        (n1, a1), (n2, a2) = self.groups
        a1, a2 = int(a1), int(a2)
        m, d = n1 + n2, n1 * n2
        slope_top = n1 * math.log(n1) + n2 * math.log(n2) + m * math.log(_SERIES_PEAK / m)

        def envelope(x):
            u, v = n1 * x - a1 + 1.0, n2 * x - a2 + 1.0
            return (x * slope_top - math.lgamma(u) - math.lgamma(v),
                    slope_top - n1 * _digamma(u) - n2 * _digamma(v))

        # (x, log|c|, sign, magnitudes of the logs) per term
        plain, by_slope = [], []
        i = j = 0
        h1 = h2 = 0.0
        while True:
            p1, p2 = (a1 + i) * n2, (a2 + j) * n1
            x = min(p1, p2) / d
            if p1 == p2:
                log_f = math.lgamma(i + 1.0) + math.lgamma(j + 1.0) + math.log(d)
                sign = -1.0 if (i + j) % 2 else 1.0
                psi1, psi2 = n1 * (h1 - _EULER_GAMMA), n2 * (h2 - _EULER_GAMMA)
                psi = psi1 + psi2
                if psi != 0.0:
                    plain.append((x, math.log(abs(psi)) - log_f, sign if psi > 0.0 else -sign,
                                  log_f + (abs(psi1) + abs(psi2)) / abs(psi)))
                by_slope.append((x, -log_f, sign, log_f))
                i, j = i + 1, j + 1
                h1, h2 = h1 + 1.0 / i, h2 + 1.0 / j
            else:
                if p1 < p2:
                    n, k = n1, i
                    log_g, sign_g, size_g = _log_gamma_rational(a2 * n1 - n2 * (a1 + i), n1)
                    i += 1
                    h1 += 1.0 / i
                else:
                    n, k = n2, j
                    log_g, sign_g, size_g = _log_gamma_rational(a1 * n2 - n1 * (a2 + j), n2)
                    j += 1
                    h2 += 1.0 / j
                log_f = math.lgamma(k + 1.0) + math.log(n)
                plain.append((x, log_g - log_f, (-1.0 if k % 2 else 1.0) * sign_g, size_g + log_f))
            if n1 * x - a1 + 1.0 > 0.0 and n2 * x - a2 + 1.0 > 0.0:
                g, dg = envelope(x)
                if dg < 0.0 and g <= _SERIES_PEAK - _SERIES_DEPTH:
                    break

        xs, log_c, signs, sizes = np.array(plain + by_slope).T
        rows = np.array([signs, 1.0 + sizes, np.abs(xs), np.ones_like(xs)])
        is_plain = np.arange(xs.size) < len(plain)
        sums = np.concatenate((np.where(is_plain, rows, 0.0), np.where(is_plain, 0.0, rows)))
        for column in (xs, log_c, sums):
            column.flags.writeable = False
        rho = math.exp(dg)
        psi_bound = (n1 * (math.log(n1 * (x + 1.0) - a1 + 1.0) + _EULER_GAMMA)
                     + n2 * (math.log(n2 * (x + 1.0) - a2 + 1.0) + _EULER_GAMMA))
        return _SeriesTable(x=xs, log_c=log_c, sums=sums, log_c_max=float(log_c.max()),
                            x_min=float(xs.min()), slope_top=slope_top, tail_x=x,
                            tail_log=math.log((m + 2) / (1.0 - rho) ** 2) + g - x * slope_top,
                            tail_k0=0.5 * math.pi + (psi_bound + m) / d, tail_k1=1.0 / d)

    @functools.cached_property
    def _hand_over(self) -> float:
        """The hand-over slope s*: the least slope past which the series'
        const = 0 estimate stays above twice the 1e-10 bar, on the grid's steps
        down from slope_top, or slope_top where the series meets it there.

        Between two steps that both miss twice the bar, the ratio of estimate
        to value stays above 2^{-1/4} of twice the bar. The |const| term of
        the estimate only adds to it, and the factor 2 covers the rounding of
        the terms for any const: past s* the series misses the bar for every
        const at which it forms a term, and past slope_top it declines.

        The slopes come by repeated subtraction, as a scan would step them.
        _series_sum's own verdict changes once on them on every spec the tests
        scan, so a bisection finds the first slope that meets the bar in 9 sums."""
        steps = np.full(_HAND_OVER_STEPS, self.m * math.log(2.0) / (2.0 * _SERIES_PEAK))
        steps[0] = self._series_table.slope_top
        slopes = np.subtract.accumulate(steps).tolist()
        # the first step that meets the bar lies in (miss, meet]
        miss, meet = -1, len(slopes)
        while meet - miss > 1:
            mid = (miss + meet) // 2
            res = self._series_sum(0.0, slopes[mid])
            if res.converged and res.err_estimate <= 2.0 * _REL_TOL * abs(res.value):
                meet = mid
            else:
                miss = mid
        return slopes[max(miss, 0)]

    def _series_sum(self, const: float, slope: float) -> EvalResult:
        # meijer_g_series
        table = self._series_table
        abs_slope, abs_const = abs(slope), abs(const)
        log_tail = table.tail_log + const + table.tail_x * slope
        # the larger of x_min slope and tail_x slope (x_min <= tail_x)
        top = (table.log_c_max + const + (table.tail_x if slope > 0.0 else table.x_min) * slope
               + math.log1p(abs_slope))
        if slope > table.slope_top or top > _LOG_MAX or log_tail > _LOG_MAX:
            return EvalResult(0.0, math.inf, 0, False, "series")
        if top < _LOG_HALF_TINY and (
                top + math.log(table.x.size) < _LOG_HALF_TINY and log_tail + math.log(
                    table.tail_k0 + table.tail_k1 * abs_slope) < _LOG_HALF_TINY):
            # every term and the tail lie below half the smallest subnormal
            return EvalResult(0.0, _TINY, 0, True, "series")
        # below slope -1e300 every x_j >= 0 (else top > _LOG_MAX), and a
        # positive x_j is at least 1 / (n1 n2): its term is e^{-1e268} or
        # less, 0.0 at the true slope or at -1e300, where x slope stays finite
        terms = table.x * (slope if slope > -1e300 else -1e300)
        terms += table.log_c
        if const != 0.0:
            # t + 0.0 is t, and exp(-0.0) is 1: const = log 1 of the l = 1 forms
            # needs no pass
            terms += const
        np.exp(terms, out=terms)
        (signed, weighted, by_x, total,
         signed_log, weighted_log, by_x_log, total_log) = np.dot(table.sums, terms).tolist()
        value = signed - slope * signed_log
        roundoff = (weighted + abs_slope * by_x + abs_const * total
                    + abs_slope * (weighted_log + abs_slope * by_x_log + abs_const * total_log))
        tail = math.exp(log_tail) * (table.tail_k0 + table.tail_k1 * abs_slope)
        err = 2.0 * _EPS * roundoff + terms.size * _TINY + tail
        return EvalResult(value, err, terms.size, err <= _NOISE_REL_BOUND * abs(value), "series")

    def _meijer_g(self, const: float, slope: float) -> EvalResult:
        # the hand-over: the series up to s* where it meets the bar
        if slope <= self._hand_over:
            res = self._series_sum(const, slope)
            if _within_tolerance(res):
                return res
        # by its module name, where perfbench/tracing.py rebinds it
        return meijer_g_m0(self, const=const, slope=slope)


def _within_tolerance(res: EvalResult) -> bool:
    # the bar a value meets to be returned as it is: converged, with an estimate
    # within 1e-10 of it and the smallest subnormal (a subnormal's rounding)
    return res.converged and res.err_estimate <= _REL_TOL * abs(res.value) + _TINY


def meijer_g_m0(spec: MeijerSpec, *, const: float, slope: float,
                c: float | None = None) -> EvalResult:
    """(1/2 pi i) int exp(const - s slope) prod_g Gamma(n_g s + a_g) ds, the
    collapsed integrand meijer_g_series takes, along ContourPath's parabola
    s(u) = c - mu u^2 + i u, which opens to the left from its vertex
    c > -min(b_j) and so leaves every pole on its left; the gamma factors
    decay super-exponentially along it.

    By the multiplication formula, A G^{m,0}_{0,m}(z | b) is that
    integral with const = log A plus the formula's constant
    sum_g ((n-1)/2 log 2 pi + (1/2 - a) log n) and slope = log z + sum n log n;
    a closed form passes the pair with its own constants cancelled
    analytically. Neither e^const nor e^-slope has to be a binary64 number:
    only their product with the gamma factors at the vertex decides the
    magnitude, from which contour_integral scales the sums by a power of
    two, and builds no node where the value lies far below the smallest
    subnormal.

    With c = None the nodes come from the spec's path for the slope's
    band, whose vertex is the saddle of the band's centre: that keeps full
    relative accuracy even where the function has decayed far below the
    fixed-abscissa integrand peak, any slope of a band costs what a repeated
    one does, and a value is the same bit for bit whether its path was
    built by this call or earlier; no saddle is searched for per value. An
    explicit abscissa pins the vertex exactly, on a path for its one slope
    that is not kept (Cauchy's theorem makes the result independent of any
    valid choice, which the shift-invariance tests exercise); one so far
    from the saddle that the integrand on the path rises far above its
    vertex raises ContourError.
    """
    const, slope = _real("meijer_g_m0 const", const), _real("meijer_g_m0 slope", slope)
    return spec._contour(const, slope, None if c is None else _real("meijer_g_m0 c", c, None))


def meijer_g_series(spec: MeijerSpec, *, const: float, slope: float) -> EvalResult:
    """(1/2 pi i) int exp(const - s slope) Gamma(n1 s + a1) Gamma(n2 s + a2) ds,
    the collapsed integrand of a two-run spec with integer a, as the sum of
    its residues left of the contour (Slater's theorem; Luke, The Special
    Functions and Their Approximations (1969) 5.2).

    The pair is meijer_g_m0's: for A G^{m,0}_{0,m}(z), const is log A plus
    the multiplication formula's constant, and slope is log z + sum n log n.

    One exp over the spec's table of residues, built once, gives the terms
    t_j, and one product with its matrix all the sums. err_estimate is
    2 eps sum |t_j| (1 + sigma_j), sigma_j the magnitudes of the logs t_j is
    summed from (its table entry, |x_j slope| and |const|), plus the
    subnormal spacing per term and the bound on the truncated tail;
    converged when that is within sqrt(eps) of |value|.

    Declines (value 0.0, infinite err_estimate, converged=False) above the
    table's slope_top, and where a bound on the terms or on the tail would
    leave binary64; where those bounds put every term and the tail below
    half the smallest subnormal it is a converged 0.0 whose err_estimate is
    the smallest subnormal. No term is formed there. DomainError for a spec
    other than two runs with integer a, or a non-finite const or slope.
    """
    const, slope = _real("meijer_g_series const", const), _real("meijer_g_series slope", slope)
    return spec._series_sum(const, slope)


def meijer_g(spec: MeijerSpec, *, const: float, slope: float) -> EvalResult:
    """(1/2 pi i) int exp(const - s slope) Gamma(n1 s + a1) Gamma(n2 s + a2) ds
    for a two-run spec with integer a: meijer_g_series' value wherever it is
    converged with an estimate within 1e-10 of it (and the smallest
    subnormal), and meijer_g_m0's (on the band's kept nodes) elsewhere,
    at larger slopes, where the residues cancel. Past the spec's hand-over
    slope s*, found once per spec, the series misses that bar for every
    const at which it forms a term, and is not summed. The route of the value returned is in its
    EvalResult.
    """
    return spec._meijer_g(_real("meijer_g const", const), _real("meijer_g slope", slope))


@dataclass(frozen=True)
class LaplaceClosedForm:
    """Closed form of the Frechet Laplace transform for gamma = l/k:

        L(p) = prefactor * G^{k+l,0}_{0,k+l}(p^l / (k^k l^l) | Delta(k,1), Delta(l,0))

    with prefactor sqrt(kl) / (2 pi)^{(k+l)/2 - 1}. Both the prefactor and
    the argument leave binary64 long before L does (k = 800 at p = 1), so
    the form holds their logs, log_prefactor and log_argument(log p): the
    paper's G-level statement, from which a G-level reference (mpmath's
    meijerg) is built. The library's own routes take the collapsed pair
    const = log l, slope = l log p instead (meijer_g), in which they cancel
    analytically.
    """

    shape: RationalShape
    log_prefactor: float
    spec: MeijerSpec

    def log_argument(self, log_p: float) -> float:
        """Map log p to the log of the G-function argument p^l/(k^k l^l)."""
        log_p = _real("LaplaceClosedForm.log_argument", log_p)
        l, k = self.shape.l, self.shape.k
        return l * log_p - k * math.log(k) - l * math.log(l)


def build_laplace_closed_form(shape: RationalShape) -> LaplaceClosedForm:
    """Assemble the log prefactor, the parameter list Delta(k,1) + Delta(l,0),
    and the argument map for the given reduced shape l/k, once per shape."""
    return _closed_form(shape.l, shape.k)


@functools.lru_cache(maxsize=256)
def _closed_form(l: int, k: int) -> LaplaceClosedForm:
    # keyed on the integers l and k: a closed-form value that looks up its
    # spec here hashes two ints, not a shape or a spec
    log_prefactor = 0.5 * math.log(k * l) - ((k + l) / 2.0 - 1.0) * math.log(2.0 * math.pi)
    return LaplaceClosedForm(shape=RationalShape(l, k), log_prefactor=log_prefactor,
                             spec=MeijerSpec(groups=((k, 1.0), (l, 0.0))))
