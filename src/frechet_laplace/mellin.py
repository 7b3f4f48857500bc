"""Mellin-transform layer: the closed-form Mellin image of the Frechet law,
the Delta parameter-list builder, and a generic Laplace-from-Mellin operator
realized by numerical integration along a vertical contour.

The one contour engine is contour_integral: every vertical-contour integral
of the library (the Meijer G functions and laplace_via_mellin) goes through
it. It is a truncated trapezoidal rule on the line Re(s) = c, evaluated in
one pass (mellin_barnes_integral) with its step and window fixed in advance
from the integrand's strip of analyticity and its decay up the line.
"""

from __future__ import annotations

import math
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
# Trapezoid controls: the window ladder tau = 1.25^j (up to 3.85e3) and the
# edge-to-centre ratio that ends the window. The agreement of S_h and S_2h
# that counts as converged (_REL_TOL) and a node's relative roundoff per unit
# of |log| (_ROUNDOFF) are the quadrature's own.
_LADDER = 1.25 ** np.arange(38)
_TRUNCATION_TOL = 1e-16
# K in the step h = pi a / (K + log R). If the strip edges carry at most R times
# the integral M of |F| on the line, the trapezoid error is below 2 R M /
# (exp(2 pi a / h) - 1) (Trefethen & Weideman, SIAM Rev. 56 (2014), Thm 5.1):
# 2 exp(-K) M for S_2h, which this K puts at _ROUNDOFF * M, and less for S_h.
_STRIP_BUDGET = math.log(2.0 / _ROUNDOFF)
# An integrand below this at the abscissa has underflowed along the whole line.
_UNDERFLOW_PEAK = 1e-300
# Largest imaginary part, relative to the real part, that still counts as
# roundoff of a real integral.
_IM_REL_BOUND = 1e-10


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
                           half_width: float) -> tuple[complex, float, int, bool]:
    """Trapezoidal evaluation of (1/2 pi) * integral of F(c + i tau) d tau
    over the real line, in one pass over the nodes tau = k * step,
    |tau| <= half_width (rounded up to an even count a side, so every other
    node forms the grid of the coarse sum S_2h).

    Each integrand here is exp(E) of a log-space sum E = log|F| + i (phase
    unwound from the centre node), so a node carries a roundoff of about
    _ROUNDOFF (1 + |E|) |F|; their sum is the noise floor. The value is
    converged when |S_h - S_2h| is below the floor or _REL_TOL of it;
    the error estimate is the larger of the two (the difference can read 0).

    Returns (value, err_estimate, evaluations, converged).
    """
    n_half = 2 * math.ceil(half_width / (2.0 * step))
    vals = values_fn((np.arange(2 * n_half + 1) - n_half) * step)
    magnitudes = np.abs(vals)
    estimate = step * complex(np.sum(vals))
    diff = abs(estimate - 2.0 * step * complex(np.sum(vals[0::2])))
    phase = np.unwrap(np.angle(vals))
    exponent = np.abs(np.log(np.maximum(magnitudes, _UNDERFLOW_PEAK))
                      + 1j * (phase - phase[n_half]))
    noise_floor = _ROUNDOFF * step * float(np.sum(magnitudes * (1.0 + exponent)))
    converged = diff <= max(_REL_TOL * abs(estimate), noise_floor)
    return (estimate / _TWO_PI, max(diff, noise_floor) / _TWO_PI, vals.size,
            bool(converged))


def contour_integral(integrand, c: float, pole_distance: float) -> EvalResult:
    """(1/2 pi i) * integral of integrand(s) ds along the line s = c + i tau.

    integrand maps a complex ndarray of points to values F, is analytic
    within pole_distance of the line (math.inf if entire) and satisfies
    F(conj s) = conj F(s), so the integral is real and |F| even in tau.

    One probe call fixes the trapezoid: F at s = c and at the strip edges
    c -+ a, a = min(0.9 pole_distance, 1), give R = max |F(c -+ a)| / |F(c)|
    and the step pi a / (K + log R) (see _STRIP_BUDGET); the window is the
    first rung of _LADDER up the line where |F| <= _TRUNCATION_TOL |F(c)|.

    |F(c)| below 1e-300 is a converged zero: the transforms evaluated here
    decay super-algebraically there. The imaginary part of the sum is
    roundoff, checked against the real part and then discarded.
    """
    a = min(0.9 * pole_distance, 1.0)
    probe = np.abs(integrand(c + np.concatenate(([0.0, -a, a], 1j * _LADDER))))
    if not np.isfinite(probe).all():
        raise NonConvergence(f"contour integrand not finite on the probe at c = {c}")
    centre = probe[0]
    if centre < _UNDERFLOW_PEAK:
        return EvalResult(value=0.0, err_estimate=0.0, evaluations=probe.size,
                          converged=True)
    decayed = np.flatnonzero(probe[3:] <= _TRUNCATION_TOL * centre)
    if decayed.size == 0:
        raise NonConvergence(f"contour integrand not decayed at |tau| = {_LADDER[-1]:.4g}")
    step = math.pi * a / (_STRIP_BUDGET + math.log(max(probe[1], probe[2], centre) / centre))
    raw, err, n_grid, ok = mellin_barnes_integral(
        lambda tau: integrand(c + 1j * tau), step, _LADDER[decayed[0]])
    im = abs(raw.imag)
    if im > _IM_REL_BOUND * max(abs(raw.real), 1e-300):
        ok = False
    return EvalResult(value=raw.real, err_estimate=err,
                      evaluations=probe.size + n_grid, converged=ok, im_residue=im)


def laplace_via_mellin(mf: MellinFunction, p: float, c: float = 0.5) -> EvalResult:
    """Laplace transform of f at p > 0 from its Mellin image, through
    L[f](p) = (1/2 pi i) * integral of p^{-s} f*(1-s) Gamma(s) ds on Re(s) = c.

    Requires c > 0 with 1 - c inside the image strip. The Frechet images put
    no pole of the integrand right of Re(s) = 0, so 0.5 is a balanced default;
    by Cauchy's theorem any valid c gives the same value, which the
    shift-invariance checks exercise. Every p is integrated; as p -> 0 the
    accuracy falls, and where the sum misses its tolerance (gamma = 1/10 at
    p = 1e-12, every Frechet image at p = 1e-30) it carries converged=False.
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
        return np.asarray(mf.f_star(1.0 - s)) * np.exp(log_gamma(s) - s * log_p)

    # nearest poles: Gamma(s) at 0, f*(1 - s) at 1 - sigma_max and 1 - sigma_min
    lo, hi = mf.domain_strip
    return contour_integral(integrand, c, min(c - max(0.0, 1.0 - hi), 1.0 - lo - c))
