"""Foundational numeric kernels: complex log-gamma, adaptive quadrature on
semi-infinite intervals, and a modified Bessel K1 evaluated from its integral
representation (kept independent of the Meijer G machinery so it can serve as
a verification oracle).

Everything here works in plain binary64; no arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, PoleError

__all__ = [
    "QuadratureConfig",
    "EvalResult",
    "log_gamma",
    "integrate_semi_infinite",
    "bessel_k1",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the adaptive real-axis integrators."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass
class EvalResult:
    """Value plus diagnostics returned by every adaptive evaluation."""

    value: float
    err_estimate: float
    evaluations: int
    converged: bool
    im_residue: float = field(default=0.0)


# Lanczos rational approximation (g = 607/128, 15 terms). Accurate to a few
# ulp for Re(z) >= 1/2; arguments left of that line are raised by the exact
# recurrence log Gamma(z) = log Gamma(z+1) - Log(z), which preserves the
# principal branch on the plane cut along the negative real axis.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    zz = z.astype(complex, copy=True)
    shift = np.zeros_like(zz)
    while True:
        low = zz.real < 0.5
        if not low.any():
            break
        shift[low] -= np.log(zz[low])
        zz[low] += 1.0
    series = np.full_like(zz, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[k] / (zz - 1.0 + k)
    w = zz + (_LANCZOS_G - 0.5)
    return _HALF_LOG_2PI + (zz - 0.5) * np.log(w) - w + np.log(series) + shift


def log_gamma(s):
    """Principal branch of log Gamma(s) for complex s, scalar or ndarray.

    Raises PoleError when s is a nonpositive real integer. Relative accuracy
    is a few 1e-16 for moderate arguments, comfortably inside the 1e-13
    budget the contour integrals rely on.
    """
    arr = np.asarray(s, dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError("log_gamma requires finite arguments")
    on_pole = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real == np.floor(arr.real))
    if on_pole.any():
        raise PoleError(f"log_gamma pole at nonpositive integer {arr[on_pole].flat[0]}")
    out = _log_gamma_array(arr)
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out)
    return out


def _finite_or_zero(f):
    # Essential singularities of the Frechet family have limit 0; treat the
    # isolated non-finite evaluation the same way.
    def wrapped(x):
        try:
            v = f(x)
        except (OverflowError, ZeroDivisionError):
            return 0.0
        return v if math.isfinite(v) else 0.0

    return wrapped


def integrate_semi_infinite(f, lower: float, cfg: QuadratureConfig | None = None,
                            split: float | None = None) -> EvalResult:
    """Integrate f over (lower, infinity).

    The interval is split at a finite point (lower + 1 by default) and the
    tail is mapped onto (t0, 1) through u = lower + t/(1-t), so both pieces
    are handled by Gauss-Kronrod bisection on finite intervals. Heavy
    algebraic tails become mild endpoint singularities at t = 1, which the
    adaptive subdivision resolves.

    Never raises on a tolerance miss: the result carries converged=False.
    """
    cfg = cfg or QuadratureConfig()
    if split is None:
        split = lower + 1.0
    if not split > lower:
        raise ValueError("split point must lie above the lower limit")
    g = _finite_or_zero(f)

    head = quad(g, lower, split, epsabs=0.5 * cfg.abs_tol, epsrel=cfg.rel_tol,
                limit=cfg.max_subdivisions, full_output=1)
    t0 = (split - lower) / (1.0 + split - lower)

    def tail_integrand(t):
        w = 1.0 - t
        return g(lower + t / w) / (w * w)

    tail = quad(tail_integrand, t0, 1.0, epsabs=0.5 * cfg.abs_tol, epsrel=cfg.rel_tol,
                limit=cfg.max_subdivisions, full_output=1)

    value = head[0] + tail[0]
    err = head[1] + tail[1]
    evaluations = head[2]["neval"] + tail[2]["neval"]
    clean = len(head) == 3 and len(tail) == 3
    converged = clean and err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return EvalResult(value=value, err_estimate=err, evaluations=evaluations,
                      converged=converged)


# Quadrature controls tuned for the Bessel integral representation: the
# integrand spans many orders of magnitude, so convergence is driven by the
# relative tolerance.
_BESSEL_CFG = QuadratureConfig(abs_tol=1e-280, rel_tol=1e-12, max_subdivisions=200)


def bessel_k1(z: float) -> float:
    """Modified Bessel K1(z) from the representation
    K1(z) = int_0^inf exp(-z cosh t) cosh t dt, z > 0.

    Evaluated with this module's own quadrature; deliberately independent of
    the Mellin-Barnes path so the two can cross-validate each other.
    """
    if not 0 < z < math.inf:
        raise DomainError("bessel_k1 requires finite z > 0")

    # exp underflows to 0.0 by itself; integrate_semi_infinite maps the cosh
    # overflow past t ~ 710 to 0.
    def integrand(t):
        ch = math.cosh(t)
        return math.exp(math.log(ch) - z * ch)

    res = integrate_semi_infinite(integrand, 0.0, _BESSEL_CFG)
    return res.value
