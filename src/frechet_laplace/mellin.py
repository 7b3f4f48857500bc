"""Mellin-transform layer: the closed-form Mellin image of the Frechet law,
the Delta parameter-list builder, and a generic Laplace-from-Mellin operator
realized by numerical Mellin-Barnes integration.

The one contour engine is ContourPath, contour_integral and
mellin_barnes_integral: every Mellin-Barnes integral the library integrates
numerically (meijer_g_m0 and laplace_via_mellin) goes through it. It is a
truncated trapezoidal rule on the left-opening parabola
s(u) = c - mu u^2 + i u, which leaves the poles on the real axis to its left
and reaches where the gamma factors decay super-exponentially. Every
integrand has the form exp(lam(s) + const - s slope), lam a log-space sum
with real parameters, so lam(conj s) = conj lam(s): the engine evaluates lam
on the upper half of the path only and counts each node off the real axis
twice. A ContourPath is one path for a whole range of slopes: its
constructor probes lam on the real axis once, in plain floats, for the log
at the vertex and the step and window (the strip of analyticity and the
curvature at the vertex); its nodes evaluate lam once per node in one pass,
extended only where the edge terms have not decayed, on first use, and are
kept. mellin_barnes_integral then sums the nodes for one const and slope:
one exp per node, and a noise floor from the sizes of the logs each node is
summed from. contour_integral picks, from the integrand at the vertex, the
power of two the sums are scaled by, and the one exit that builds no node.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .distributions import RationalShape
from .errors import ContourError, DomainError, NonConvergence
from .numerics import _REL_TOL, _ROUNDOFF, _TINY, EvalResult, _real, log_gamma

__all__ = [
    "MellinFunction",
    "frechet_mellin_image",
    "laplace_via_mellin",
    "ContourNodes",
    "ContourPath",
    "mellin_barnes_integral",
    "contour_integral",
]

_TWO_PI = 2.0 * math.pi
# Trapezoid controls. The agreement of S_h and S_2h that counts as converged
# (_REL_TOL) and the relative roundoff (_ROUNDOFF) the step is sized to are
# the quadrature's own.
# The window ends where a term is below _TRUNCATION_TOL of the centre term.
_TRUNCATION_TOL = 1e-16
# Near the vertex |F(s(u))| ~ |F(c)| exp(-phi''(c) u^2 / 2), phi = log|F| on
# the real axis; that Gaussian falls to _TRUNCATION_TOL at
# sqrt(2 log(1/_TRUNCATION_TOL) / phi''), and the window is _WINDOW_MARGIN
# times that. An edge term above the tolerance doubles the window, up to
# |u| = _WINDOW_LIMIT.
_WINDOW_MARGIN = 1.6
_WINDOW_LIMIT = 3.85e3
# K in the step h = pi a / (K + log R). If the strip edges carry at most R times
# the integral M of |F| on the path, the trapezoid error is below 2 R M /
# (exp(2 pi a / h) - 1) (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1):
# 2 exp(-K) M for S_2h, which this K puts at _ROUNDOFF * M, and less for S_h.
_STRIP_BUDGET = math.log(2.0 / _ROUNDOFF)
# The strip half-width a is the best, by that h, of min(0.9 v, 1) 2^j <=
# 0.9 v for j < _WIDTHS, where v is where the path first meets a pole (see
# ContourPath). A wider strip pays where c is large and the integrand is
# smooth on the scale sqrt(c).
_WIDTHS = 7
# The parabola's curvature is mu = _MU_SCALE / max(1, c). Along it z^{-s}
# grows like exp(mu u^2 log z); the saddle c grows with log z, so the 1/c
# keeps that growth bounded, where a fixed mu loses 1e-8 to 1e-6 at p = 20.
_MU_SCALE = 0.4
# contour_integral sums the nodes as they are where the log of the integrand
# at the vertex lies in _DIRECT_LOGS: above its lower end the terms that
# matter are normal numbers, and below its upper end neither a sum nor the
# noise floor's weighted sum of them passes binary64. Elsewhere it sums them
# scaled by the power of two nearest that integrand, and scales back.
_DIRECT_LOGS = (math.log(1e-300), 640.0)
_LOG_2 = math.log(2.0)
# Below this log at the vertex no node is built, and the result is a
# converged zero: |value| over the vertex term grows like sqrt(c / 2 pi) at
# large c, and stays under e^6.5 wherever the nodes decay (c up to about
# 3e6), so |value| is under half the smallest subnormal.
_LOG_NO_NODE = -1075.0 * _LOG_2 - 40.0
# A node's roundoff per unit of the logs it is summed from, as the residue
# series takes it: log_gamma is good to about 3 eps of |log Gamma| at worst
# (Lanczos), and the sum of the logs and its exp add their own.
_NODE_ROUNDOFF = 2.0 * sys.float_info.epsilon
# Largest noise floor, relative to the value, that still counts as converged:
# past it cancellation between the nodes has taken more than half the digits.
_NOISE_REL_BOUND = math.sqrt(sys.float_info.epsilon)
# Largest rise of a node's log over the vertex's, at either end of the slope
# range. Past it no value converges: the noise floor holds 2 eps e^40, about
# 100 vertex terms, per unit of node weight, and |value| stays within e^6.5 of
# one (_LOG_NO_NODE). It also stays short of the e^70 from the top of
# _DIRECT_LOGS to the end of binary64, past which a node's exp overflows.
_NODE_HEADROOM = 40.0
# Stand-in for log 0: finite, and 0 after exp whatever moderate terms join it.
_LOG_ZERO = -1e300


@dataclass(frozen=True)
class MellinFunction:
    """A Mellin image s -> f*(s) together with its strip of validity.

    f_star must be side-effect-free and accept complex ndarrays (the contour
    engine evaluates whole grids at once).
    """

    f_star: Callable
    domain_strip: Tuple[float, float]

    def __post_init__(self):
        lo, hi = (_real("MellinFunction", v, None) for v in self.domain_strip)
        if not lo < hi:
            raise DomainError("domain strip must satisfy sigma_min < sigma_max")

    def contains(self, sigma: float) -> bool:
        lo, hi = self.domain_strip
        return lo < sigma < hi


def frechet_mellin_image(shape: RationalShape) -> MellinFunction:
    """Mellin image of Fr(l, k, x) as a MellinFunction ready for inversion:
    s -> Gamma(1 + k(1-s)/l) on the strip Re(s) < 1 + l/k. The normalization
    moment sits at s = 1, where the value is exactly 1."""
    ratio = shape.k / shape.l

    def image(s):
        return np.exp(log_gamma(1.0 + ratio * (1.0 - np.asarray(s, dtype=complex))))

    return MellinFunction(f_star=image, domain_strip=(-math.inf, 1.0 + shape.gamma))


@dataclass(frozen=True)
class ContourNodes:
    """The upper half u_j = j h, j = 0..N (N even), of a trapezoid rule for
    exp(lam(s) + const - s slope) on one path, for every const and every
    slope in a range. `logs` (4(N + 1) x 3) times (-slope, const, 1) gives,
    as (real, imaginary) pairs, log G_j for each node and then log |G_j|;
    `sums` (2 x 3 x (N + 1), see mellin_barnes_integral) weighs the real
    parts of their exp for every sum the rule needs. Both are read-only."""

    logs: np.ndarray
    sums: np.ndarray


def mellin_barnes_integral(nodes: ContourNodes, const: float, slope: float,
                           exponent: int = 0) -> tuple[float, float, int, bool]:
    """Trapezoidal evaluation of (1/2 pi) * integral of G(u) du over the real
    line, G(u) = exp(lam(s(u)) + const - s(u) slope) s'(u) / i, from the
    nodes u >= 0 of a table whose slope range holds slope, with the nodes
    scaled by 2^-exponent and the results scaled back by 2^exponent.

    G(-u) = conj G(u), so the sum is h (G_0 + 2 Re sum_{j>0} G_j), a real
    number, and S_2h takes every other node. One product with the table's
    logs and one exp give every G_j and |G_j|, on const - exponent log 2;
    one product with its sums weighs them for S_h and S_2h from Re G_j, and
    for sum w_j |G_j| (1 + sigma_j), sum w_j |G_j| |s_j| and sum w_j |G_j|
    from |G_j|, w_j = h, 2h, 2h, ... for the mirrored lower half and sigma_j
    the sizes of the logs lam_j and the path weight are summed from. Each
    sum runs over j = 0..N in numpy's pairwise order, which depends on N
    alone: the same table and arguments give the same bits.

    A node carries a roundoff of _NODE_ROUNDOFF times |G_j| and the sizes of
    the logs it is summed from, 1 + sigma_j + |s_j slope| + |const'| + |shift|
    for const' = const - shift and shift = exponent log 2; their sum over
    all 2N + 1 nodes is the noise floor. The value is converged when
    |S_h - S_2h| is below the floor or _REL_TOL of it, and the floor is below
    _NOISE_REL_BOUND of it; the error estimate is the larger of the
    difference and the floor (the difference can read 0). Scaled back, a
    value whose bound sum w_j |G_j| / 2 pi is under half the smallest
    subnormal is a converged 0.0, and a subnormal value adds the smallest
    subnormal to its estimate for its rounding. A sum, or the floor, that is
    not finite raises NonConvergence; a value or estimate past binary64
    once scaled back raises OverflowError, which contour_integral turns
    into an unconverged result.

    Returns (value, err_estimate, evaluations, converged), where evaluations
    counts the rule's 2N + 1 nodes.
    """
    shift = exponent * _LOG_2
    const -= shift
    terms = np.dot(nodes.logs, np.array([-slope, const, 1.0])).view(complex)
    np.exp(terms, out=terms)
    re = terms.real.reshape(2, 1, -1)
    (s_h, s_2h, _), (weighted, by_s, total) = np.add.reduce(nodes.sums * re, axis=2).tolist()
    noise_floor = _NODE_ROUNDOFF * (weighted + abs(slope) * by_s
                                    + (abs(const) + abs(shift)) * total)
    if not (math.isfinite(s_h) and math.isfinite(noise_floor)):
        raise NonConvergence("contour integrand not finite on the path")
    diff = abs(s_h - s_2h)
    converged = ((diff <= _REL_TOL * abs(s_h) or diff <= noise_floor)
                 and noise_floor <= _NOISE_REL_BOUND * abs(s_h))
    err = noise_floor if noise_floor > diff else diff
    value, err, evaluations = s_h / _TWO_PI, err / _TWO_PI, terms.size - 1
    if exponent:
        if math.ldexp(total / _TWO_PI, exponent) < _TINY:
            return 0.0, _TINY, evaluations, True
        value, err = math.ldexp(value, exponent), math.ldexp(err, exponent)
        if abs(value) < sys.float_info.min:
            err += _TINY
    return value, err, evaluations, converged


class ContourPath:
    """One Mellin-Barnes path: the parabola s(u) = c - mu u^2 + i u, u real,
    which opens to the left, for (1/2 pi i) * integral of
    exp(lam(s) + const - s slope) ds at every slope in slopes = (lo, hi) and
    every const.

    log_parts maps a complex ndarray of path points to (lam, sigma): lam
    finite, with lam(conj s) = conj lam(s), and sigma the magnitudes of the
    logs it is summed from. The path hands it only points with Im s >= 0
    (see mellin_barnes_integral). The singularities of the integrand lie on
    the real axis, the nearest at distances poles = (left, right) from c
    (math.inf for none). log_abs_real maps a float ndarray of real points
    between them to Re lam.

    The constructor makes the path's one log_abs_real call, on real points
    c first, and evaluates nothing complex: it sets c, log_vertex = Re lam(c),
    mu, step and window. With no singularity right of c, the integrand is
    taken to decay super-exponentially to the left, as products of
    Gamma(n s + a) do, and mu = _MU_SCALE / max(1, c) (Weideman & Trefethen,
    Math. Comp. 76 (2007) 1341). Otherwise it need not decay there
    (Gamma(s) Gamma(1 - s) does not), and mu = 0: the vertical line.
    - strip: the path at u = i v meets the real axis at c + mu v^2 - v, so a
      pole at distance d on the left at v = 2d / (1 + sqrt(1 - 4 mu d)), or
      1 / (2 mu) if 4 mu d >= 1 (on the line, v = d).
    - step: u = +-i a maps to the real points c -+ a + mu a^2, whose
      |F s'/i| over |F(c)| gives R, and h_a = pi a / (K + log R) for each
      candidate width a (see _WIDTHS). log R is a maximum of terms linear
      in the slope, so convex in it: inside the range it stays below its
      larger end value, and h_a above its smaller. The step is the largest
      over the widths of that smaller end value, and holds at every slope of
      the range.
    - window: see _WINDOW_MARGIN, with phi'' a central second difference
      (the slope drops out of it).
    NonConvergence where Re lam is not finite at those points.
    """

    def __init__(self, log_parts, log_abs_real, c: float, poles: tuple[float, float],
                 slopes: tuple[float, float]):
        left, right = poles
        if right < math.inf:
            mu, reach = 0.0, min(left, right)
        else:
            mu = _MU_SCALE / max(1.0, c)
            if 4.0 * mu * left < 1.0:
                reach = 2.0 * left / (1.0 + math.sqrt(1.0 - 4.0 * mu * left))
            else:
                reach = 0.5 / mu
        widths = [min(0.9 * reach, 1.0)]
        while len(widths) < _WIDTHS and 2.0 * widths[-1] <= 0.9 * reach:
            widths.append(2.0 * widths[-1])
        eps, n_w = 0.1 * widths[0], len(widths)
        phi = log_abs_real(np.array([c, c - eps, c + eps] + [c - w + mu * w * w for w in widths]
                                    + [c + w + mu * w * w for w in widths])).tolist()
        if not all(v < math.inf for v in phi):
            raise NonConvergence(f"contour integrand not finite on the real axis near c = {c}")
        self.c, self.mu, self._log_parts, self._slopes = c, mu, log_parts, slopes
        self.log_vertex = centre = phi[0]
        self.step = max(min(math.pi * w / (_STRIP_BUDGET + max(
            0.0, phi_l - centre + (w - mu * w * w) * slope + math.log(1.0 - 2.0 * mu * w),
            phi_r - centre - (w + mu * w * w) * slope + math.log1p(2.0 * mu * w)))
            for slope in slopes)
            for w, phi_l, phi_r in zip(widths, phi[3:3 + n_w], phi[3 + n_w:]))
        phi2 = (phi[1] - 2.0 * centre + phi[2]) / (eps * eps)
        self.window = (_WINDOW_MARGIN * math.sqrt(-2.0 * math.log(_TRUNCATION_TOL) / phi2)
                       if phi2 > 0.0 else widths[0])

    @functools.cached_property
    def nodes(self) -> ContourNodes:
        """The path's trapezoid nodes, built on first use and kept. The
        first log_parts call takes the upper nodes u = 0, h, ..., n h of the
        window, n = 2 ceil(window / 2h). While the edge node exceeds
        _TRUNCATION_TOL of the centre at either end of the slope range the
        window doubles, and only the added nodes are evaluated; past
        |u| = _WINDOW_LIMIT it raises NonConvergence. The nodes then end at
        the first even count past the last node either end needs above that
        tolerance. NonConvergence for a lam that is not finite, and
        ContourError, naming c, for a node more than e^_NODE_HEADROOM above
        the vertex."""
        c, mu, step, slopes = self.c, self.mu, self.step, self._slopes

        def path_logs(u):
            s = c - mu * u * u + 1j * u
            lam, sigma = self._log_parts(s)
            weight = np.log(1.0 + 2j * mu * u)
            if not np.isfinite(lam).all():
                raise NonConvergence(
                    f"contour integrand not finite within |u| <= {u[-1]:.4g}")
            return s, lam + weight, sigma + np.abs(weight)

        def levels(s, logs):
            # log |G_j| / |G_0| over _TRUNCATION_TOL, at the larger end of the range
            rel = logs.real - logs.real[0] - math.log(_TRUNCATION_TOL)
            shift = s.real - c
            return np.maximum(rel - shift * slopes[0], rel - shift * slopes[1])

        n_half = 2 * math.ceil(self.window / (2.0 * step))
        s, logs, sigma = path_logs(np.arange(n_half + 1) * step)
        while levels(s, logs)[-1] > 0.0:
            if n_half * step >= _WINDOW_LIMIT:
                raise NonConvergence(f"contour integrand not decayed at |u| = {n_half * step:.4g}")
            more = path_logs(np.arange(n_half + 1, 2 * n_half + 1) * step)
            s, logs, sigma = (np.concatenate(pair) for pair in zip((s, logs, sigma), more))
            n_half *= 2
        level = levels(s, logs)
        rise = float(level.max()) + math.log(_TRUNCATION_TOL)
        if rise > _NODE_HEADROOM:
            raise ContourError(f"the path through c = {c} rises e^{rise:.5g} above its vertex")
        last = int(np.flatnonzero(level > 0.0)[-1])
        n_half = 2 * (last // 2 + 1)
        return _node_table(s[:n_half + 1], logs[:n_half + 1], sigma[:n_half + 1], step)


def _node_table(s, logs, sigma, step: float) -> ContourNodes:
    """ContourNodes from the upper-half path points s_j at u_j = j step, the
    logs lam_j + log(s'(u_j) / i) and their sizes sigma_j."""
    n = s.size
    weights = np.full(n, 2.0 * step)
    weights[0] = step
    coarse = np.where(np.arange(n) % 2 == 0, 2.0 * weights, 0.0)
    # weights on Re G_j (S_h, S_2h, none), then on |G_j| (the noise floor)
    sums = np.array([[weights, coarse, np.zeros(n)],
                     [weights * (1.0 + sigma), weights * np.abs(s), weights]])
    # columns: s_j, 1 on the real parts, lam_j + log(s'(u_j) / i); the real
    # parts again, for |G_j|
    logs = np.stack((np.concatenate((s, s.real)).view(float),
                     np.tile([1.0, 0.0], 2 * n),
                     np.concatenate((logs, logs.real)).view(float)), axis=1)
    for matrix in (logs, sums):
        matrix.flags.writeable = False
    return ContourNodes(logs=logs, sums=sums)


def contour_integral(path: ContourPath, const: float = 0.0, slope: float = 0.0) -> EvalResult:
    """(1/2 pi i) * integral of exp(lam(s) + const - s slope) ds on the
    path's trapezoid nodes (see ContourPath and mellin_barnes_integral).

    The log of the integrand at the path's vertex,
    log_peak = log_vertex + const - c slope, alone decides the magnitude of
    the sums: inside _DIRECT_LOGS the nodes are summed as they are, and
    elsewhere scaled by 2^-k, k = round(log_peak / log 2), with value and
    estimate scaled back by 2^k. Below _LOG_NO_NODE the value is a converged
    0.0 whose err_estimate is the smallest subnormal, without any complex
    evaluation or node built: the transforms evaluated here decay
    super-algebraically there. A value past binary64 is 0.0 with
    converged=False and an infinite err_estimate; so, with no node built,
    is a log_peak so large that the roundoff of the logs alone keeps the
    noise floor past the bound of a converged value.
    """
    log_peak = path.log_vertex + const - path.c * slope
    exponent = 0
    if not _DIRECT_LOGS[0] <= log_peak <= _DIRECT_LOGS[1]:
        if log_peak < _LOG_NO_NODE:
            return EvalResult(0.0, _TINY, 0, True, "contour")
        if _NODE_ROUNDOFF * log_peak > _NOISE_REL_BOUND:
            # the roundoff of a node summed from a log this size alone puts
            # the noise floor past the bound of a converged value
            return EvalResult(0.0, math.inf, 0, False, "contour")
        if not math.isnan(log_peak):
            # a NaN sums directly, and the sums say what went wrong
            exponent = round(log_peak / _LOG_2)
    try:
        return EvalResult(*mellin_barnes_integral(path.nodes, const, slope, exponent), "contour")
    except OverflowError:
        return EvalResult(0.0, math.inf, 0, False, "contour")


def laplace_via_mellin(mf: MellinFunction, p: float, c: float = 0.5) -> EvalResult:
    """Laplace transform of f at p > 0 from its Mellin image, through
    L[f](p) = (1/2 pi i) * integral of p^{-s} f*(1-s) Gamma(s) ds along a
    path through c that separates the poles left and right of it.

    Requires c > 0 with 1 - c inside the image strip. The Frechet images put
    no pole of the integrand right of Re(s) = 0, so 0.5 is a balanced default
    and the path is ContourPath's parabola; an image whose strip is
    bounded on the left (a pole of f*(1 - s) right of c) takes the line.
    The path is built for the one slope log p and not kept.
    By Cauchy's theorem any valid c gives the same value, which the
    shift-invariance checks exercise. Small p is integrated too; a sum that
    misses its tolerance carries converged=False (gamma = 1/10 at p = 1e-12,
    every Frechet image at p = 1e-30, and at c = 0.5 the image of 1/1 from
    about p = 75: 2.7e-7 at p = 1e3, for 3.4e-27). From about p = 2.2e3 that
    path rises too far above its vertex (e^118 at p = 1e4): ContourError.
    An image that is not real on the real axis, where the engine sets step
    and window, raises DomainError: the engine's sum over the upper half of
    the path would not be the integral.
    """
    p, c = _real("laplace_via_mellin p", p, 0.0), _real("laplace_via_mellin c", c, None)
    if not c > 0:
        raise ContourError(f"contour abscissa must be positive, got {c}")
    if not mf.contains(1.0 - c):
        raise ContourError(
            f"1 - c = {1.0 - c} falls outside the image strip {mf.domain_strip}")

    log_p = math.log(p)

    def log_parts(s):
        with np.errstate(divide="ignore"):
            log_f = np.log(np.asarray(mf.f_star(1.0 - s), dtype=complex))
        # an image value that underflowed to 0 keeps a finite log, and its
        # node stays 0
        np.maximum(log_f.real, _LOG_ZERO, out=log_f.real)
        log_g = log_gamma(s)
        return log_f + log_g, np.abs(log_f) + np.abs(log_g)

    def log_abs_real(x):
        # an analytic image real on the real axis is its own conjugate
        # mirror (Schwarz reflection); its log there is real up to a multiple
        # of i pi and a node's roundoff
        logs = log_parts(x + 0j)[0]
        phase = logs.imag
        if (np.abs(phase - math.pi * np.rint(phase / math.pi))
                > _ROUNDOFF * (1.0 + np.abs(logs))).any():
            raise DomainError("laplace_via_mellin requires an image that is real "
                              "on the real axis")
        return logs.real

    # nearest poles: Gamma(s) at 0 and f*(1 - s) at 1 - sigma_max on the
    # left, f*(1 - s) at 1 - sigma_min on the right
    lo, hi = mf.domain_strip
    poles = (c - max(0.0, 1.0 - hi), 1.0 - lo - c)
    return contour_integral(ContourPath(log_parts, log_abs_real, c, poles, (log_p, log_p)),
                            slope=log_p)
