"""The Frechet integral transform: a rescaled two-variable Frechet density as
kernel, the generic transform by quadrature, its Laplace-derivative form, and
the two closed-form special cases (one-sided Levy input; Frechet(1/2) input).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import _SHAPES, LevyIndex, Shape, frechet_pdf
from .errors import DomainError, MissingLaplace
from .meijer import MeijerSpec
from .numerics import EvalResult, _instance, _power, _real, integrate_semi_infinite

__all__ = [
    "FrechetKernelParams",
    "TransformTarget",
    "frechet_kernel",
    "frechet_transform_quadrature",
    "frechet_transform_via_laplace",
    "frechet_transform_levy",
    "frechet_transform_frechet_half",
]


@dataclass(frozen=True)
class FrechetKernelParams:
    gamma: Shape
    x: float
    t: float

    def __post_init__(self):
        _instance("FrechetKernelParams gamma", self.gamma, _SHAPES)
        object.__setattr__(self, "x", _real("FrechetKernelParams x", self.x, 0.0))
        object.__setattr__(self, "t", _real("FrechetKernelParams t", self.t, 0.0))


@dataclass(frozen=True)
class TransformTarget:
    """A function to transform, optionally with its known Laplace transform:
    f maps an ndarray of t to an ndarray, laplace_of_f a float to a float."""

    f: Optional[Callable] = None
    laplace_of_f: Optional[Callable] = None

    def __post_init__(self):
        for name, fn in (("f", self.f), ("laplace_of_f", self.laplace_of_f)):
            if fn is not None:
                _instance(f"TransformTarget {name}", fn, callable)


def _kernel(g: float, x: float):
    """t -> sigma_gamma(x, t) = gamma t x^{-(1+gamma)} exp(-t x^{-gamma}) on a
    float or an ndarray of t, formed as (gamma / x) ((t u) exp(-t u)) with
    u = x^{-gamma}: no factor leaves the normal range where x^{-(1+gamma)}
    does; t u is capped at 746, where exp(-t u) is already 0, so an overflowing
    t u gives 0, not inf * 0. DomainError where u or gamma / x overflows."""
    u = _power(x, -g)
    ratio = g / x
    if ratio == math.inf:
        raise DomainError(f"gamma / x overflows binary64 at gamma = {g}, x = {x}")
    return lambda t: ratio * (np.minimum(t * u, 746.0) * np.exp(-t * u))


def frechet_kernel(params: FrechetKernelParams) -> float:
    """Kernel sigma_gamma(x, t) = gamma t x^{-(1+gamma)} exp(-t x^{-gamma});
    as a function of x it is the Frechet density rescaled by t^{1/gamma}."""
    _instance("frechet_kernel params", params, FrechetKernelParams)
    return float(_kernel(params.gamma.gamma, params.x)(params.t))


# Richardson tolerance of the closed-form derivative: with the step h = 1e-6 u
# the difference quotient's roundoff, eps |L| / h, is about 1e-10 of |d_h| for
# a smooth L; an estimate above sqrt(eps) is truncation the step did not
# resolve (a singular derivative near u, or h = u/4 forced by a small u).
_DIFF_REL_TOL = math.sqrt(sys.float_info.epsilon)


def frechet_transform_quadrature(target: TransformTarget, gamma: Shape, x: float) -> EvalResult:
    """Transform bar_f(gamma, x) = int_0^inf sigma_gamma(x, t) f(t) dt by
    quadrature centred at t = x^gamma, where the kernel mass sits.

    DomainError where x^gamma or x^{-gamma} overflows: f cannot be sampled
    where the kernel mass sits; also where f raises TypeError or ValueError
    on an ndarray of t, as a scalar-only f does."""
    if _instance("frechet_transform_quadrature target", target, TransformTarget).f is None:
        raise MissingLaplace("quadrature transform needs the function itself")
    x = _real("frechet_transform_quadrature", x, 0.0)
    g = _instance("frechet_transform_quadrature gamma", gamma, _SHAPES).gamma
    kernel, f = _kernel(g, x), target.f

    def integrand(t):
        try:
            values = f(t)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"TransformTarget.f must map an ndarray: {exc!r}") from exc
        return kernel(t) * values

    return integrate_semi_infinite(integrand, 0.0, scale=_power(x, g))


def frechet_transform_via_laplace(target: TransformTarget, gamma: Shape,
                                  x: float) -> EvalResult:
    """Transform through the derivative identity
    bar_f(gamma, x) = -gamma x^{-(1+gamma)} dL[f]/du at u = x^{-gamma},
    with a central difference of the target's closed-form Laplace transform.

    Two difference widths (h and 2h) give a Richardson-style error estimate;
    h stays below u/4, so that no difference point reaches u <= 0. The result
    is converged only while that estimate is within sqrt(eps) of |d_h|; the
    error estimate adds d_h's roundoff, eps (|L(u+h)| + |L(u-h)|) u/(2h).
    DomainError where x^{-gamma} overflows or underflows; MissingLaplace for
    a target without laplace_of_f, whose transform frechet_transform_quadrature
    takes from f directly.
    """
    x = _real("frechet_transform_via_laplace", x, 0.0)
    g = _instance("frechet_transform_via_laplace gamma", gamma, _SHAPES).gamma
    u = _power(x, -g)
    if u == 0.0:
        raise DomainError(f"x^-gamma underflows binary64 at x = {x}")
    target = _instance("frechet_transform_via_laplace target", target, TransformTarget)
    laplace = target.laplace_of_f
    if laplace is None:
        raise MissingLaplace("the Laplace-derivative transform needs laplace_of_f; "
                             "use frechet_transform_quadrature for a target with only f")

    # bar_f = -gamma u L'(u) / x, u L'(u) from differences scaled by u / h (at
    # most 1e6): gamma / x, which overflows at a subnormal x, is never formed
    h = min(max(1e-6, 1e-6 * u), u / 4.0)
    w = u / h
    above, below = laplace(u + h), laplace(u - h)
    d_h = (above - below) * (0.5 * w)
    d_2h = (laplace(u + 2.0 * h) - laplace(u - 2.0 * h)) * (0.25 * w)
    richardson = abs(d_h - d_2h) / 3.0
    converged = richardson <= _DIFF_REL_TOL * abs(d_h)
    roundoff = sys.float_info.epsilon * (abs(above) + abs(below)) * (0.5 * w)
    value = -(g * d_h) / x
    err = (g * (richardson + roundoff)) / x
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"the transform at gamma = {g}, x = {x} is not a finite float")
    return EvalResult(value=value, err_estimate=err, evaluations=4, converged=converged,
                      route="difference")


def frechet_transform_levy(alpha: LevyIndex, gamma: Shape, x: float) -> float:
    """Closed form of the transform of a one-sided Levy law: the transform of
    g_alpha through the gamma-kernel is exactly Fr(gamma * alpha, x)."""
    composed = Shape(_instance("frechet_transform_levy gamma", gamma, _SHAPES).gamma
                     * _instance("frechet_transform_levy alpha", alpha, LevyIndex).alpha)
    return frechet_pdf(composed, x)


_HALF_SPEC = MeijerSpec(groups=((2, -1.0), (1, 0.0)))


def frechet_transform_frechet_half(gamma: Shape, x: float) -> EvalResult:
    """Closed form of the transform of Fr(1/2, t):

        (gamma / (4 sqrt(pi))) x^{-(1+gamma)}
            * G^{3,0}_{0,3}(x^{-gamma}/4 | -1/2, 0, 0)

    valid for any gamma > 0. With the runs Delta(2, -1) + Delta(1, 0) the
    multiplication formula turns it into
    gamma x^{-(1+gamma)} (1/2 pi i) int Gamma(2s - 1) Gamma(s) x^{gamma s} ds,
    which meijer_g evaluates: as residues (simple at s = 1/2 - n, double at
    s = -n) where the series' estimate is within 1e-10 of its value, and on
    the contour elsewhere (small x, where the terms cancel); min(b) = -1/2
    pushes the contour's pole-separation condition to c > 1/2. The
    prefactor and the argument go in as logs: either leaves binary64 for
    large gamma |log x| while the product, about x^{-1-gamma/2} at large x,
    is still a normal float.
    """
    x = _real("frechet_transform_frechet_half", x, 0.0)
    g = _instance("frechet_transform_frechet_half gamma", gamma, _SHAPES).gamma
    log_x = math.log(x)
    return _HALF_SPEC._meijer_g(math.log(g) - (1.0 + g) * log_x, -g * log_x)
