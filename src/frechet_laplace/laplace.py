"""Laplace transform of the Frechet distribution: the Meijer G closed form
for rational shapes, an independent quadrature oracle valid for any real
shape, the l <-> k transmutation law, and the k = l = 1 Bessel special case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .distributions import _SHAPES, RationalShape, Shape
from .errors import NonConvergence
from .meijer import _closed_form, _within_tolerance
from .numerics import _TINY, EvalResult, _instance, _real, bessel_k1, integrate_semi_infinite

__all__ = [
    "Method",
    "LaplaceQuery",
    "laplace_frechet",
    "laplace_frechet_oracle",
    "laplace_symmetry_check",
    "laplace_frechet_bessel",
]


class Method(enum.Enum):
    MEIJER_G = "meijer-g"
    QUADRATURE = "quadrature"
    AUTO = "auto"


@dataclass(frozen=True)
class LaplaceQuery:
    shape: RationalShape
    p: float
    method: Method = Method.AUTO

    def __post_init__(self):
        # a real Shape goes to laplace_frechet_oracle
        _instance("LaplaceQuery shape", self.shape, RationalShape)
        object.__setattr__(self, "p", _real("LaplaceQuery", self.p, 0.0))
        _instance("LaplaceQuery method", self.method, Method)


def _meijer_path(shape: RationalShape, log_p: float) -> EvalResult:
    # the prefactor and the multiplication formula's constants cancel:
    # L(p) = l (1/2 pi i) int Gamma(ks + 1) Gamma(ls) p^{-ls} ds
    l = shape.l
    return _closed_form(l, shape.k).spec._meijer_g(math.log(l), l * log_p)


def laplace_frechet(query: LaplaceQuery) -> EvalResult:
    """Evaluate L[Fr(l, k, x); p].

    MEIJER_G evaluates the closed form by meijer_g: its ascending residue
    series wherever the series' error estimate is within the quadrature's
    relative tolerance 1e-10 of its value, and for larger p, where the
    alternating terms cancel, the Mellin-Barnes contour. QUADRATURE uses
    the direct oracle.
    AUTO takes the MEIJER_G value, and falls back to the oracle wherever
    that value is negative, not converged, or has an error estimate above
    1e-10 of it plus the smallest subnormal (so a converged 0.0 stays).
    The route of the value returned is in its EvalResult.
    """
    method = _instance("laplace_frechet query", query, LaplaceQuery).method
    if method is Method.QUADRATURE:
        return laplace_frechet_oracle(query.shape.as_shape(), query.p)
    res = _meijer_path(query.shape, math.log(query.p))
    if method is Method.MEIJER_G or (res.value >= 0.0 and _within_tolerance(res)):
        return res
    return laplace_frechet_oracle(query.shape.as_shape(), query.p)


def laplace_frechet_oracle(shape: Shape, p: float) -> EvalResult:
    """Direct quadrature of the Laplace transform for any real shape.

    With u = x^{-gamma} the defining integral becomes
    int_0^inf exp(-u - p u^{-1/gamma}) du; integrating by parts against the
    CDF exp(-x^{-gamma}) and putting y = px gives the same integrand at
    (1/gamma, p^gamma), int_0^inf exp(-y - p^gamma y^{-gamma}) dy. The oracle
    takes the pair whose power of the variable lies in [-1, 0): no steep
    cliff. Both are changes of variables in the defining integral, not the
    closed form's transmutation law, so the oracle stays independent of the
    Meijer G route it checks. The quadrature is centred on the saddle of the
    exponent, or on 1 if that lies lower.
    """
    p = _real("laplace_frechet_oracle", p, -_TINY)  # p >= 0, -0.0 too
    g = _instance("laplace_frechet_oracle shape", shape, _SHAPES).gamma
    if p == 0.0:
        return EvalResult(value=1.0, err_estimate=0.0, evaluations=0, converged=True,
                          route="quadrature")
    if g < 1.0:
        g, p = 1.0 / g, p ** g
    inv_gamma = 1.0 / g

    def integrand(u):
        # exp(-u - p u^(-1/gamma)) in one buffer: -u - x is -(u + x) exactly
        out = u ** -inv_gamma
        out *= p
        out += u
        np.negative(out, out=out)
        return np.exp(out, out=out)

    saddle = (p / g) ** (g / (1.0 + g))
    return integrate_semi_infinite(integrand, 0.0, scale=max(saddle, 1.0))


def laplace_symmetry_check(shape: RationalShape, p: float) -> tuple[float, float]:
    """Both sides of the transmutation law
    L[Fr(l, k, x); p] = L[Fr(k, l, x); p^{l/k}], each assembled from its own
    Meijer parameter list. The swapped variable p^{l/k} is taken as its log,
    (l/k) log p: it leaves binary64 where neither side does. The caller
    asserts agreement; NonConvergence where either side is not converged,
    since an unconverged value is no side of the law."""
    p = _real("laplace_symmetry_check", p, 0.0)
    _instance("laplace_symmetry_check shape", shape, RationalShape)
    log_p = math.log(p)
    sides = (_meijer_path(shape, log_p),
             _meijer_path(shape.swapped(), shape.l / shape.k * log_p))
    if not all(side.converged for side in sides):
        raise NonConvergence(f"laplace_symmetry_check: a side of {shape.l}/{shape.k} "
                             f"at p = {p} is not converged")
    return sides[0].value, sides[1].value


def laplace_frechet_bessel(p: float) -> float:
    """The gamma = 1 special case in standard special functions:
    L[Fr(1, 1, x); p] = 2 sqrt(p) K1(2 sqrt(p)). NonConvergence where
    bessel_k1 misses its tolerance."""
    p = _real("laplace_frechet_bessel", p, 0.0)
    root = 2.0 * math.sqrt(p)
    return root * bessel_k1(root)
