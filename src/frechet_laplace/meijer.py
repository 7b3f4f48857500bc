"""Numerical Meijer G functions of signature G^{m,0}_{0,m}(z | b_1..b_m),
the only signature the Frechet Laplace transform requires, plus the assembly
of that transform's closed form.

The b parameter lists that arise here contain integer-spaced entries (0 and 1
both present), which rules out series/residue decoupling; the vertical
Mellin-Barnes contour stays uniformly valid instead, since every pole of the
gamma product lies at Re(s) <= -min(b_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import RationalShape
from .errors import ContourError, DomainError
from .mellin import ContourConfig, contour_integral, delta_list
from .numerics import EvalResult, log_gamma

__all__ = [
    "MeijerSpec",
    "LaplaceClosedForm",
    "meijer_g_m0",
    "build_laplace_closed_form",
]


@dataclass(frozen=True)
class MeijerSpec:
    """Lower parameter list of a G^{m,0}_{0,m} instance."""

    b: tuple

    def __init__(self, b: Sequence[float]):
        b = tuple(float(v) for v in b)
        if len(b) < 1:
            raise DomainError("MeijerSpec needs at least one lower parameter")
        if not all(math.isfinite(v) for v in b):
            raise DomainError("MeijerSpec parameters must be finite")
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return len(self.b)


def _saddle_abscissa(spec: MeijerSpec, z: float) -> float:
    """Abscissa minimizing the integrand magnitude on the real axis.

    On the real axis the integrand is exp(phi(c)) with
    phi(c) = sum_j log Gamma(b_j + c) - c log z, convex in c; placing the
    contour at its minimum keeps the alternating contour sum on the scale of
    the result, which is what bounds the roundoff for very large or very
    small z. A quarter-unit margin keeps the pole at -min(b_j) far enough
    from the line that the trapezoid step stays moderate.

    Bisection on phi'(c) = sum_j psi(b_j + c) - log z finds it to 1e-2
    (relative above c = 1), with psi(x) = Im log Gamma(x + i eps) / eps, the
    complex-step derivative (Squire & Trapp, SIAM Rev. 40 (1998)).
    """
    log_z = math.log(z)
    b = np.asarray(spec.b) + 1e-30j  # the complex step eps
    lo = -min(spec.b) + 0.25
    hi = max(lo + 3.0, 2.0 * math.exp(max(log_z, 0.0) / spec.m))
    while hi - lo > 1e-2 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if log_gamma(b + mid).imag.sum() > 1e-30 * log_z:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def meijer_g_m0(spec: MeijerSpec, z: float, cfg: ContourConfig | None = None) -> EvalResult:
    """G^{m,0}_{0,m}(z | b) = (1/2 pi i) int prod_j Gamma(b_j + s) z^{-s} ds
    along Re(s) = c with c > -min(b_j).

    With no explicit config the contour is placed at the saddle abscissa,
    which keeps full relative accuracy even where the function has decayed
    far below the fixed-abscissa integrand peak. An explicit config pins the
    abscissa exactly (Cauchy's theorem makes the result independent of any
    valid choice, which the shift-invariance tests exercise).

    Large z drives the whole integrand under the binary64 floor, where
    contour_integral reports a converged zero.
    """
    if not 0 < z < math.inf:
        raise DomainError("meijer_g requires finite z > 0")
    if cfg is None:
        c = _saddle_abscissa(spec, z)
    else:
        c = cfg.abscissa
        if not c > -min(spec.b):
            raise ContourError(
                f"abscissa {c} does not separate poles: need c > {-min(spec.b)}")
    log_z = math.log(z)

    def integrand(s):
        acc = log_gamma(spec.b[0] + s)
        for bj in spec.b[1:]:
            acc = acc + log_gamma(bj + s)
        # products of gammas assembled in log space; exp only once
        return np.exp(acc - s * log_z)

    return contour_integral(integrand, c, c + min(spec.b))


@dataclass(frozen=True)
class LaplaceClosedForm:
    """Closed form of the Frechet Laplace transform for gamma = l/k:

        L(p) = prefactor * G^{k+l,0}_{0,k+l}(p^l / (k^k l^l) | Delta(k,1), Delta(l,0))

    with prefactor sqrt(kl) / (2 pi)^{(k+l)/2 - 1}.
    """

    shape: RationalShape
    prefactor: float
    spec: MeijerSpec

    def argument(self, p: float) -> float:
        """Map the Laplace variable to the G-function argument p^l/(k^k l^l)."""
        if not 0 < p < math.inf:
            raise DomainError("Laplace variable must be finite and positive")
        l, k = self.shape.l, self.shape.k
        try:
            return p ** l / (k ** k * l ** l)
        except OverflowError:
            raise DomainError(
                f"G-function argument p^{l}/({k}^{k} {l}^{l}) at p = {p} "
                "overflows binary64") from None


def build_laplace_closed_form(shape: RationalShape) -> LaplaceClosedForm:
    """Assemble prefactor, parameter list Delta(k,1) + Delta(l,0), and the
    argument map for the given reduced shape l/k."""
    l, k = shape.l, shape.k
    prefactor = math.sqrt(k * l) / (2.0 * math.pi) ** ((k + l) / 2.0 - 1.0)
    params = delta_list(k, 1.0) + delta_list(l, 0.0)
    return LaplaceClosedForm(shape=shape, prefactor=prefactor,
                             spec=MeijerSpec(params))
