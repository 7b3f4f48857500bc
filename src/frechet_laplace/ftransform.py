"""The Frechet integral transform: a rescaled two-variable Frechet density as
kernel, the generic transform by quadrature, its Laplace-derivative form, and
the two closed-form special cases (one-sided Levy input; Frechet(1/2) input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .distributions import LevyIndex, Shape, frechet_pdf
from .errors import DomainError, MissingLaplace
from .meijer import MeijerSpec, meijer_g_m0
from .mellin import ContourConfig
from .numerics import EvalResult, QuadratureConfig, integrate_semi_infinite

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
        if not (0 < self.x < math.inf and 0 < self.t < math.inf):
            raise DomainError("kernel arguments x and t must be finite and positive")


@dataclass(frozen=True)
class TransformTarget:
    """A function to transform, optionally with its known Laplace transform."""

    f: Optional[Callable] = None
    laplace_of_f: Optional[Callable] = None


def frechet_kernel(params: FrechetKernelParams) -> float:
    """Kernel sigma_gamma(x, t) = gamma t x^{-(1+gamma)} exp(-t x^{-gamma});
    as a function of x it is the Frechet density rescaled by t^{1/gamma}."""
    g = params.gamma.gamma
    x, t = params.x, params.t
    neg_power = -g * math.log(x)
    if neg_power > 709.0:
        return 0.0
    log_val = math.log(g) + math.log(t) - (1.0 + g) * math.log(x) - t * math.exp(neg_power)
    return math.exp(log_val) if log_val > -745.0 else 0.0


def frechet_transform_quadrature(target: TransformTarget, gamma: Shape, x: float,
                                 cfg: QuadratureConfig | None = None) -> EvalResult:
    """Transform bar_f(gamma, x) = int_0^inf sigma_gamma(x, t) f(t) dt by
    adaptive quadrature, split at t = x^gamma where the kernel mass sits."""
    if target.f is None:
        raise MissingLaplace("quadrature transform needs the function itself")
    if not 0 < x < math.inf:
        raise DomainError("transform argument x must be finite and positive")
    g = gamma.gamma
    u = x ** (-g)
    front = g * x ** (-(1.0 + g))

    def integrand(t):
        if t <= 0.0:
            return 0.0
        return front * t * math.exp(-t * u) * target.f(t)

    return integrate_semi_infinite(integrand, 0.0, cfg, split=x ** g)


def frechet_transform_via_laplace(target: TransformTarget, gamma: Shape, x: float,
                                  cfg: QuadratureConfig | None = None) -> EvalResult:
    """Transform through the derivative identity
    bar_f(gamma, x) = -gamma x^{-(1+gamma)} dL[f]/du at u = x^{-gamma},
    with a central difference for the derivative.

    Uses the closed-form Laplace transform when the target carries one,
    otherwise builds L[f] by quadrature. Two difference widths (h and 2h)
    give a Richardson-style error estimate.
    """
    if not 0 < x < math.inf:
        raise DomainError("transform argument x must be finite and positive")
    g = gamma.gamma
    u = x ** (-g)

    evaluations = 0
    converged = True
    quad_err = 0.0
    if target.laplace_of_f is not None:
        laplace = target.laplace_of_f
    elif target.f is not None:
        def laplace(v):
            nonlocal evaluations, converged, quad_err
            res = integrate_semi_infinite(
                lambda t: math.exp(-v * t) * target.f(t), 0.0, cfg)
            evaluations += res.evaluations
            converged = converged and res.converged
            quad_err = max(quad_err, res.err_estimate)
            return res.value
    else:
        raise MissingLaplace("target provides neither f nor its Laplace transform")

    h = max(1e-6, 1e-6 * u)
    d_h = (laplace(u + h) - laplace(u - h)) / (2.0 * h)
    d_2h = (laplace(u + 2.0 * h) - laplace(u - 2.0 * h)) / (4.0 * h)
    front = -g * x ** (-(1.0 + g))
    value = front * d_h
    err = abs(front) * (abs(d_h - d_2h) / 3.0 + quad_err / h)
    return EvalResult(value=value, err_estimate=err,
                      evaluations=evaluations + 4, converged=converged)


def frechet_transform_levy(alpha: LevyIndex, gamma: Shape, x: float) -> float:
    """Closed form of the transform of a one-sided Levy law: the transform of
    g_alpha through the gamma-kernel is exactly Fr(gamma * alpha, x)."""
    composed = Shape(gamma.gamma * alpha.alpha)
    return frechet_pdf(composed, x)


_HALF_SPEC = MeijerSpec([-0.5, 0.0, 0.0])


def frechet_transform_frechet_half(gamma: Shape, x: float,
                                   cfg: ContourConfig | None = None) -> EvalResult:
    """Closed form of the transform of Fr(1/2, t):

        (gamma / (4 sqrt(pi))) x^{-(1+gamma)}
            * G^{3,0}_{0,3}(x^{-gamma}/4 | -1/2, 0, 0)

    valid for any gamma > 0. min(b) = -1/2 pushes the pole-separation
    condition to c > 1/2; any explicit config must respect that.
    """
    if not 0 < x < math.inf:
        raise DomainError("transform argument x must be finite and positive")
    g = gamma.gamma
    z = x ** (-g) / 4.0
    res = meijer_g_m0(_HALF_SPEC, z, cfg)
    front = g / (4.0 * math.sqrt(math.pi)) * x ** (-(1.0 + g))
    return EvalResult(value=front * res.value,
                      err_estimate=front * res.err_estimate,
                      evaluations=res.evaluations,
                      converged=res.converged,
                      im_residue=front * res.im_residue)
