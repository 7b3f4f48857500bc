"""Mellin-transform layer: the closed-form Mellin image of the Frechet law,
the Delta parameter-list builder, and a generic Laplace-from-Mellin operator
realized by numerical integration along a vertical contour.

The one contour engine is contour_integral: every vertical-contour integral
of the library (the Meijer G functions and laplace_via_mellin) goes through
it. Its workhorse is mellin_barnes_integral, a truncated trapezoidal rule on
the line Re(s) = c. Vertical Mellin-Barnes integrands built from gamma
products decay like exp(-m pi |tau| / 2) (m gamma factors), so the
trapezoidal rule converges geometrically once the oscillation of z^{-i tau}
is resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .distributions import RationalShape
from .errors import ContourError, DomainError, NonConvergence
from .numerics import EvalResult, log_gamma

__all__ = [
    "ContourConfig",
    "MellinFunction",
    "frechet_mellin_image",
    "delta_list",
    "laplace_via_mellin",
    "mellin_barnes_integral",
    "contour_integral",
]

_TWO_PI = 2.0 * math.pi
_SMALL_P_GUARD = 1e-6
_MAX_TRUNCATION = 4096.0
# Trapezoid controls: the coarsest step, the number of step halvings, the
# edge-to-peak ratio that ends window doubling, and the relative agreement of
# two successive estimates that counts as converged.
_INITIAL_STEP = 0.05
_MAX_HALVINGS = 8
_TRUNCATION_TOL = 1e-16
_TARGET_REL_TOL = 1e-10
# An integrand peak below this has underflowed along the whole line.
_UNDERFLOW_PEAK = 1e-300
# Largest imaginary part, relative to the real part, that still counts as
# roundoff of a real integral.
_IM_REL_BOUND = 1e-10


@dataclass(frozen=True)
class ContourConfig:
    """Placement of the vertical integration contour.

    abscissa is the real part c of the integration line; it must separate the
    integrand poles (all poles of the Frechet-path integrands lie at
    Re(s) <= 0, so any c > 0 works there and 0.5 is the balanced default).
    """

    abscissa: float = 0.5


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
            raise ValueError("domain strip must satisfy sigma_min < sigma_max")

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


def mellin_barnes_integral(values_fn,
                           oscillation: float = 0.0) -> tuple[complex, float, int, bool, float]:
    """Trapezoidal evaluation of (1/2 pi) * integral of h(tau) d tau over the
    real line, where h(tau) is the contour integrand on Re(s) = c.

    Truncation: the window [-T, T] is doubled until the integrand magnitude
    at the edges falls below _TRUNCATION_TOL times the running peak, so the
    discarded tails are negligible relative to the sum.

    Refinement: starting from _INITIAL_STEP (shrunk when the caller reports a
    fast oscillation exp(-i tau log z), which needs 2 pi / step to exceed the
    oscillation rate plus a fixed decay margin), the step is halved up to
    _MAX_HALVINGS times, reusing previous evaluations, until two successive
    estimates agree to _TARGET_REL_TOL. The difference of the last two
    estimates is the error estimate; geometric convergence makes it
    conservative.

    Returns (value, err_estimate, evaluations, converged, peak_magnitude).
    """
    step = min(_INITIAL_STEP, _TWO_PI / (80.0 + abs(oscillation)))
    half_width = 16.0
    evaluations = 0
    while True:
        n_half = int(math.ceil(half_width / step))
        tau = (np.arange(2 * n_half + 1) - n_half) * step
        vals = values_fn(tau)
        evaluations += tau.size
        peak = float(np.abs(vals).max())
        if peak == 0.0:
            return 0.0 + 0.0j, 0.0, evaluations, True, 0.0
        edge = max(abs(vals[0]), abs(vals[-1]))
        if edge <= _TRUNCATION_TOL * peak:
            break
        if half_width >= _MAX_TRUNCATION:
            raise NonConvergence(
                f"contour integrand not decayed at |tau| = {half_width}")
        half_width *= 2.0

    estimate = step * complex(np.sum(vals))
    err = abs(estimate)
    converged = False
    for _ in range(_MAX_HALVINGS):
        mids = tau[:-1] + 0.5 * step
        mid_vals = values_fn(mids)
        evaluations += mids.size
        refined = 0.5 * estimate + 0.5 * step * complex(np.sum(mid_vals))
        err = abs(refined - estimate)
        merged_tau = np.empty(tau.size + mids.size)
        merged_tau[0::2] = tau
        merged_tau[1::2] = mids
        merged_vals = np.empty(vals.size + mid_vals.size, dtype=complex)
        merged_vals[0::2] = vals
        merged_vals[1::2] = mid_vals
        tau, vals, estimate, step = merged_tau, merged_vals, refined, 0.5 * step
        # halving below the summation roundoff floor cannot improve anything
        noise_floor = 2e-16 * step * float(np.abs(vals).sum())
        if err <= max(_TARGET_REL_TOL * abs(estimate), noise_floor):
            converged = True
            break

    return estimate / _TWO_PI, err / _TWO_PI, evaluations, converged, peak


def contour_integral(integrand, c: float, oscillation: float) -> EvalResult:
    """(1/2 pi i) * integral of integrand(s) ds along the line s = c + i tau.

    integrand takes a complex ndarray of contour points. oscillation is the
    rate |log z| of the factor z^{-s}, which sets the largest step.

    A whole integrand below the binary64 floor (peak under 1e-300) is
    reported as a converged zero: the transforms evaluated here decay
    super-algebraically there. Conjugate symmetry of the integrand makes the
    exact integral real; the leftover imaginary part is a numerical residue,
    checked against the real part and then discarded.
    """
    raw, err, n_eval, ok, peak = mellin_barnes_integral(
        lambda tau: integrand(c + 1j * tau), oscillation=oscillation)
    if peak < _UNDERFLOW_PEAK:
        return EvalResult(value=0.0, err_estimate=0.0, evaluations=n_eval,
                          converged=True)
    im = abs(raw.imag)
    if im > _IM_REL_BOUND * max(abs(raw.real), 1e-300):
        ok = False
    return EvalResult(value=raw.real, err_estimate=err, evaluations=n_eval,
                      converged=ok, im_residue=im)


def laplace_via_mellin(mf: MellinFunction, p: float,
                       cfg: ContourConfig | None = None) -> EvalResult:
    """Laplace transform of f at p > 0 from its Mellin image, through
    L[f](p) = (1/2 pi i) * integral of p^{-s} f*(1-s) Gamma(s) ds on Re(s) = c.

    Requires c > 0 with 1 - c inside the image strip. For p below 1e-6 the
    p^{-c} factor degrades the conditioning, so the p -> 0 limit f*(1) (the
    total integral of f) is returned instead whenever s = 1 lies in the strip.
    """
    if not 0 < p < math.inf:
        raise DomainError("laplace_via_mellin requires finite p > 0")
    c = (cfg or ContourConfig()).abscissa
    if not c > 0:
        raise ContourError(f"contour abscissa must be positive, got {c}")
    if not mf.contains(1.0 - c):
        raise ContourError(
            f"1 - c = {1.0 - c} falls outside the image strip {mf.domain_strip}")

    if p < _SMALL_P_GUARD and mf.contains(1.0):
        limit = complex(np.asarray(mf.f_star(np.array([1.0 + 0.0j]))).ravel()[0])
        return EvalResult(value=limit.real, err_estimate=abs(limit.imag),
                          evaluations=1, converged=True, im_residue=abs(limit.imag))

    log_p = math.log(p)

    def integrand(s):
        return np.asarray(mf.f_star(1.0 - s)) * np.exp(log_gamma(s) - s * log_p)

    return contour_integral(integrand, c, abs(log_p))
