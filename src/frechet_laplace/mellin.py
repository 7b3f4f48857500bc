"""Mellin-transform layer: the closed-form Mellin image of the Frechet law,
the Delta parameter-list builder, and a generic Laplace-from-Mellin operator
realized by numerical Mellin-Barnes integration.

The one contour engine is contour_integral: every Mellin-Barnes integral the
library integrates numerically (meijer_g_m0 and laplace_via_mellin) goes
through it.
It is a truncated trapezoidal rule on the left-opening parabola
s(u) = c - mu u^2 + i u, which leaves the poles on the real axis to its left
and reaches where the gamma factors decay super-exponentially. Its step and
window are fixed in advance from plain-float values of log|F| on the real
axis (the strip of analyticity and the curvature at the vertex), so the
integrand is evaluated in one pass (mellin_barnes_integral), extended only
where the edge terms have not decayed. Integrands hand the engine log F, a
log-space sum: the engine takes its exp once per node and sets the noise
floor from the same logs. Every integrand has real parameters, so
F(conj s) = conj F(s): the engine evaluates the upper half of the path only
and counts each node off the real axis twice.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .distributions import RationalShape
from .errors import ContourError, DomainError, NonConvergence
from .numerics import _REL_TOL, _ROUNDOFF, EvalResult, log_gamma

__all__ = [
    "MellinFunction",
    "frechet_mellin_image",
    "delta_list",
    "laplace_via_mellin",
    "mellin_barnes_integral",
    "contour_integral",
]

_TWO_PI = 2.0 * math.pi
# Trapezoid controls. The agreement of S_h and S_2h that counts as converged
# (_REL_TOL) and a node's relative roundoff per unit of |log| (_ROUNDOFF) are
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
# contour_integral). A wider strip pays where c is large and the integrand is
# smooth on the scale sqrt(c).
_WIDTHS = 7
# The parabola's curvature is mu = _MU_SCALE / max(1, c). Along it z^{-s}
# grows like exp(mu u^2 log z); the saddle c grows with log z, so the 1/c
# keeps that growth bounded, where a fixed mu loses 1e-8 to 1e-6 at p = 20.
_MU_SCALE = 0.4
# An integrand below _UNDERFLOW_PEAK at the vertex has underflowed along the
# whole path; one above _OVERFLOW_PEAK leaves binary64 in the sum, whose
# terms the vertex term bounds only up to the node count and |s'(u)|.
_UNDERFLOW_PEAK = 1e-300
_OVERFLOW_PEAK = 1e300
# Largest noise floor, relative to the value, that still counts as converged:
# past it cancellation between the nodes has taken more than half the digits.
_NOISE_REL_BOUND = math.sqrt(sys.float_info.epsilon)
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
        lo, hi = self.domain_strip
        if not lo < hi:
            raise DomainError("domain strip must satisfy sigma_min < sigma_max")

    def contains(self, sigma: float) -> bool:
        lo, hi = self.domain_strip
        return lo < sigma < hi


def delta_list(k: int, a: float) -> list[float]:
    """The list a/k, (a+1)/k, ..., (a+k-1)/k of k equally spaced values."""
    if k < 1:
        raise DomainError("delta_list requires k >= 1")
    return [(a + j) / k for j in range(k)]


def frechet_mellin_image(shape: RationalShape) -> MellinFunction:
    """Mellin image of Fr(l, k, x) as a MellinFunction ready for inversion:
    s -> Gamma(1 + k(1-s)/l) on the strip Re(s) < 1 + l/k. The normalization
    moment sits at s = 1, where the value is exactly 1."""
    ratio = shape.k / shape.l

    def image(s):
        return np.exp(log_gamma(1.0 + ratio * (1.0 - np.asarray(s, dtype=complex))))

    return MellinFunction(f_star=image, domain_strip=(-math.inf, 1.0 + shape.gamma))


def mellin_barnes_integral(values_fn, step: float,
                           half_width: float) -> tuple[float, float, int, bool]:
    """Trapezoidal evaluation of (1/2 pi) * integral of G(u) du over the real
    line, on the nodes u = k * step, |u| <= half_width (rounded up to an even
    count a side, so every other node forms the grid of the coarse sum S_2h).

    G(-u) = conj G(u), so values_fn sees only the nodes u >= 0 and the sum is
    h (G_0 + 2 Re sum_{j>0} G_j), a real number. values_fn maps an ndarray of
    u >= 0 to the pair (G(u), E(u)), where G is exp(E) times a factor of order
    one and E the log-space sum it came from. While the edge term exceeds
    _TRUNCATION_TOL of the centre term the window doubles, and only the added
    nodes are evaluated; a term that is not finite, or a window past
    |u| = _WINDOW_LIMIT, raises NonConvergence.

    A node exp(E) carries a roundoff of about _ROUNDOFF (1 + |E|) |G|; their
    sum over all 2N + 1 nodes is the noise floor. The value is converged when
    |S_h - S_2h| is below the floor or _REL_TOL of it, and the floor is below
    _NOISE_REL_BOUND of it; the error estimate is the larger of the
    difference and the floor (the difference can read 0).

    Returns (value, err_estimate, evaluations, converged), where evaluations
    counts the rule's 2N + 1 nodes.
    """
    n_half = 2 * math.ceil(half_width / (2.0 * step))
    vals, logs = values_fn(np.arange(n_half + 1) * step)
    while True:
        if not np.isfinite(vals).all():
            raise NonConvergence(
                f"contour integrand not finite within |u| <= {n_half * step:.4g}")
        if abs(vals[-1]) <= _TRUNCATION_TOL * abs(vals[0]):
            break
        if n_half * step >= _WINDOW_LIMIT:
            raise NonConvergence(f"contour integrand not decayed at |u| = {n_half * step:.4g}")
        new, new_logs = values_fn(np.arange(n_half + 1, 2 * n_half + 1) * step)
        vals, logs = np.concatenate((vals, new)), np.concatenate((logs, new_logs))
        n_half *= 2
    centre = float(vals[0].real)
    estimate = step * (centre + 2.0 * float(vals.real[1:].sum()))
    diff = abs(estimate - 2.0 * step * (centre + 2.0 * float(vals.real[2::2].sum())))
    terms = np.abs(vals) * (1.0 + np.abs(logs))
    noise_floor = _ROUNDOFF * step * (float(terms[0]) + 2.0 * float(terms[1:].sum()))
    converged = (diff <= max(_REL_TOL * abs(estimate), noise_floor)
                 and noise_floor <= _NOISE_REL_BOUND * abs(estimate))
    return (estimate / _TWO_PI, max(diff, noise_floor) / _TWO_PI, 2 * n_half + 1,
            bool(converged))


def contour_integral(integrand, log_abs_real, c: float,
                     poles: tuple[float, float]) -> EvalResult:
    """(1/2 pi i) * integral of integrand(s) ds along the parabola
    s(u) = c - mu u^2 + i u, u real, which opens to the left.

    integrand maps a complex ndarray of points to log F, finite, with
    F(conj s) = conj F(s), so the integral is real: the engine hands it only
    the path points with Im s >= 0, takes exp once per node and reads the
    log for the noise floor (see mellin_barnes_integral). The singularities of F lie on the real axis, the
    nearest at distances poles = (left, right) from c (math.inf for none).
    log_abs_real maps a float ndarray of real points between them to log|F|.

    With no singularity right of c, F is taken to decay super-exponentially
    to the left, as products of Gamma(n s + a) do, and mu = _MU_SCALE /
    max(1, c) (Weideman & Trefethen, Math. Comp. 76 (2007) 1341). Otherwise
    F need not decay there (Gamma(s) Gamma(1 - s) does not), and mu = 0: the
    vertical line. The trapezoid sums F(s(u)) (1 + 2 i mu u) = F s'(u) / i at
    u = j h. Step and window come from one log_abs_real call, before any
    complex evaluation:
    - strip: the path at u = i v meets the real axis at c + mu v^2 - v, so a
      pole at distance d on the left at v = 2d / (1 + sqrt(1 - 4 mu d)), or
      1 / (2 mu) if 4 mu d >= 1 (on the line, v = d).
    - step: u = +-i a maps to the real points c -+ a + mu a^2, whose
      |F s'/i| over |F(c)| gives R, and h = pi a / (K + log R), the
      largest over the candidate widths a (see _WIDTHS).
    - window: see _WINDOW_MARGIN, with phi'' a central second difference.

    |F(c)| below 1e-300 is a converged zero without any complex evaluation:
    the transforms evaluated here decay super-algebraically there. Above
    1e300 the sum cannot be formed: the result is 0.0 with converged=False
    and an infinite err_estimate, again without a complex evaluation.
    """
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
    eps = 0.1 * widths[0]
    phi = log_abs_real(np.array([c, c - eps, c + eps] + [c - w + mu * w * w for w in widths]
                                + [c + w + mu * w * w for w in widths])).tolist()
    if not all(v < math.inf for v in phi):
        raise NonConvergence(f"contour integrand not finite on the real axis near c = {c}")
    centre = phi[0]
    if centre < math.log(_UNDERFLOW_PEAK):
        return EvalResult(value=0.0, err_estimate=0.0, evaluations=0, converged=True,
                          route="contour")
    if centre > math.log(_OVERFLOW_PEAK):
        return EvalResult(value=0.0, err_estimate=math.inf, evaluations=0, converged=False,
                          route="contour")
    n_w = len(widths)
    step = max(math.pi * w / (_STRIP_BUDGET - centre + max(
        centre, phi_l + math.log(1.0 - 2.0 * mu * w), phi_r + math.log1p(2.0 * mu * w)))
        for w, phi_l, phi_r in zip(widths, phi[3:3 + n_w], phi[3 + n_w:]))
    phi2 = (phi[1] - 2.0 * centre + phi[2]) / (eps * eps)
    window = (_WINDOW_MARGIN * math.sqrt(-2.0 * math.log(_TRUNCATION_TOL) / phi2)
              if phi2 > 0.0 else widths[0])

    def path_values(u):
        logs = integrand(c - mu * u * u + 1j * u)
        return np.exp(logs) * (1.0 + 2j * mu * u), logs

    value, err, n_grid, ok = mellin_barnes_integral(path_values, step, window)
    return EvalResult(value=value, err_estimate=err, evaluations=n_grid, converged=ok,
                      route="contour")


def laplace_via_mellin(mf: MellinFunction, p: float, c: float = 0.5) -> EvalResult:
    """Laplace transform of f at p > 0 from its Mellin image, through
    L[f](p) = (1/2 pi i) * integral of p^{-s} f*(1-s) Gamma(s) ds along a
    path through c that separates the poles left and right of it.

    Requires c > 0 with 1 - c inside the image strip. The Frechet images put
    no pole of the integrand right of Re(s) = 0, so 0.5 is a balanced default
    and the path is contour_integral's parabola; an image whose strip is
    bounded on the left (a pole of f*(1 - s) right of c) takes the line.
    By Cauchy's theorem any valid c gives the same value, which the
    shift-invariance checks exercise. Every p is integrated; as p -> 0 the
    accuracy falls, and where the sum misses its tolerance (gamma = 1/10 at
    p = 1e-12, every Frechet image at p = 1e-30) it carries converged=False.
    An image that is not real on the real axis, where the engine sets step
    and window, raises DomainError: the engine's sum over the upper half of
    the path would not be the integral.
    """
    if not 0 < p < math.inf:
        raise DomainError("laplace_via_mellin requires finite p > 0")
    if not c > 0:
        raise ContourError(f"contour abscissa must be positive, got {c}")
    if not mf.contains(1.0 - c):
        raise ContourError(
            f"1 - c = {1.0 - c} falls outside the image strip {mf.domain_strip}")

    log_p = math.log(p)

    def integrand(s):
        with np.errstate(divide="ignore"):
            log_f = np.log(np.asarray(mf.f_star(1.0 - s), dtype=complex))
        # an image value that underflowed to 0 keeps a finite log, and its
        # node stays 0
        np.maximum(log_f.real, _LOG_ZERO, out=log_f.real)
        return log_f + log_gamma(s) - s * log_p

    def log_abs_real(x):
        # an analytic image real on the real axis is its own conjugate
        # mirror (Schwarz reflection); its log there is real up to a multiple
        # of i pi and a node's roundoff
        logs = integrand(x + 0j)
        phase = logs.imag
        if (np.abs(phase - math.pi * np.rint(phase / math.pi))
                > _ROUNDOFF * (1.0 + np.abs(logs))).any():
            raise DomainError("laplace_via_mellin requires an image that is real "
                              "on the real axis")
        return logs.real

    # nearest poles: Gamma(s) at 0 and f*(1 - s) at 1 - sigma_max on the
    # left, f*(1 - s) at 1 - sigma_min on the right
    lo, hi = mf.domain_strip
    return contour_integral(integrand, log_abs_real, c,
                            (c - max(0.0, 1.0 - hi), 1.0 - lo - c))
