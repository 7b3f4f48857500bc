"""The Frechet family Fr(gamma, x) = gamma x^{-(1+gamma)} exp(-x^{-gamma}) and
the one-sided Levy stable facts used alongside it (alpha = 1/2 elementary
form, small-argument asymptotics, power moments)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentMoment, DomainError
from .numerics import _BELOW_ONE, _as_numbers, _exp, _instance, _power, _real

__all__ = [
    "Shape",
    "RationalShape",
    "LevyIndex",
    "frechet_pdf",
    "frechet_cdf",
    "frechet_quantile",
    "frechet_moment",
    "levy_pdf_half",
    "levy_moment",
    "levy_asymptotic",
    "levy_asymptotic_rescaled",
    "frechet_mode",
    "levy_asymptotic_mode",
    "find_maximum",
]

_INTEGERS = (int, np.integer)  # MeijerSpec's run lengths pass the same check


@dataclass(frozen=True)
class Shape:
    """Positive real shape parameter gamma."""

    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "gamma", _real("Shape", self.gamma, 0.0))


@dataclass(frozen=True)
class RationalShape:
    """Shape gamma = l/k stored as a reduced fraction of positive integers,
    each at most 2**53: past that they stop being exact binary64 integers,
    and the closed form's terms in l and k lose them."""

    l: int
    k: int

    def __post_init__(self):
        l, k = self.l, self.k
        if not (isinstance(l, _INTEGERS) and isinstance(k, _INTEGERS)) or l < 1 or k < 1:
            raise DomainError("numerator and denominator must be integers >= 1")
        g = math.gcd(l, k)
        l, k = l // g, k // g
        if l > 2**53 or k > 2**53:
            raise DomainError("reduced numerator and denominator must be at most 2**53")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", k)

    @property
    def gamma(self) -> float:
        return self.l / self.k

    def as_shape(self) -> Shape:
        return Shape(self.gamma)

    def swapped(self) -> "RationalShape":
        return RationalShape(self.k, self.l)


# what a real shape argument takes: a RationalShape's gamma is l/k
_SHAPES = (Shape, RationalShape)


@dataclass(frozen=True)
class LevyIndex:
    """Stability index alpha of a one-sided Levy law, 0 < alpha < 1."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real("LevyIndex", self.alpha, 0.0, _BELOW_ONE))


def frechet_pdf(shape: Shape, x):
    """Density gamma x^{-(1+gamma)} exp(-x^{-gamma}); 0 at x = 0 by the limit.
    x is a float or an ndarray (a list is read as one), evaluated in one
    numpy pass: a float call gives a float, bit for bit that element of an
    array. DomainError unless every x is a finite real number >= 0, and
    where a value overflows binary64."""
    g = _instance("frechet_pdf shape", shape, _SHAPES).gamma
    v = _as_numbers(x, float, "frechet_pdf")
    if not ((v >= 0.0) & (v < math.inf)).all():
        raise DomainError("frechet_pdf requires finite x >= 0")
    with np.errstate(all="ignore"):
        lx = np.log(v)
        neg_power = -g * lx  # log of x^{-gamma}
        # 0.0 at x = 0 (neg_power inf) and past 709, where exp(-x^{-gamma}) is 0
        out = np.where(neg_power <= 709.0,
                       np.exp(math.log(g) - (1.0 + g) * lx - np.exp(neg_power)), 0.0)
    if not np.isfinite(out).all():
        raise DomainError(f"frechet_pdf overflows binary64 at gamma = {g}")
    return out if v.ndim or isinstance(x, np.ndarray) else float(out)


def frechet_cdf(shape: Shape, x: float) -> float:
    """Distribution function exp(-x^{-gamma}) for x > 0, 1.0 at x = inf."""
    x = _real("frechet_cdf", x, 0.0, math.inf)
    neg_power = -_instance("frechet_cdf shape", shape, _SHAPES).gamma * math.log(x)
    if neg_power > 709.0:
        return 0.0
    return math.exp(-math.exp(neg_power))


def frechet_quantile(shape: Shape, q: float) -> float:
    """Inverse of frechet_cdf: (-ln q)^{-1/gamma} on 0 < q < 1."""
    q = _real("frechet_quantile", q, 0.0, _BELOW_ONE)
    return _power(-math.log(q), -1.0 / _instance("frechet_quantile shape", shape, _SHAPES).gamma)


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a) / Gamma(b) for a, b > 0, as a finite float or DomainError."""
    try:
        value = math.gamma(a) / math.gamma(b)
    except OverflowError:  # one gamma overflowed alone; the ratio may still fit
        try:
            value = _exp(math.lgamma(a) - math.lgamma(b))
        except OverflowError:  # lgamma(a) overflows from a = 2.56e305, the ratio too
            value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"moment Gamma({a}) / Gamma({b}) overflows binary64")
    return value


def frechet_moment(shape: Shape, mu: float) -> float:
    """Power moment E[X^mu] = Gamma(1 - mu/gamma), finite only for mu < gamma."""
    mu = _real("frechet_moment", mu, None)
    g = _instance("frechet_moment shape", shape, _SHAPES).gamma
    if not mu < g:
        raise DivergentMoment(f"valid Frechet moment orders: -inf < mu < {g}, got {mu}")
    return _gamma_ratio(1.0 - mu / g, 1.0)


def levy_pdf_half(x):
    """One-sided Levy density at alpha = 1/2:
    g(x) = x^{-3/2} exp(-1/(4x)) / (2 sqrt(pi)).

    Its defining property, L[g](p) = exp(-sqrt(p)), is what the test suite
    pins it against. x is a float or an ndarray (a list is read as one),
    evaluated in one numpy pass: a float call gives a float, bit for bit
    that element of an array. DomainError unless every x is a real
    number > 0.
    """
    v = _as_numbers(x, float, "levy_pdf_half")
    if not (v > 0.0).all():
        raise DomainError("levy_pdf_half requires x > 0")
    with np.errstate(over="ignore"):  # 0.25 / x overflows to inf, and 0.0
        out = np.exp(-1.5 * np.log(v) - 0.25 / v - math.log(2.0 * math.sqrt(math.pi)))
    # np.exp of a 0-d array is a numpy scalar
    return np.asarray(out) if v.ndim or isinstance(x, np.ndarray) else float(out)


def levy_moment(idx: LevyIndex, mu: float) -> float:
    """Power moment of the one-sided Levy law:
    Gamma(1 - mu/alpha) / Gamma(1 - mu), finite only for mu < alpha."""
    mu = _real("levy_moment", mu, None)
    a = _instance("levy_moment idx", idx, LevyIndex).alpha
    if not mu < a:
        raise DivergentMoment(f"valid Levy moment orders: -inf < mu < {a}, got {mu}")
    return _gamma_ratio(1.0 - mu / a, 1.0 - mu)


def levy_asymptotic(idx: LevyIndex, t: float) -> float:
    """Saddle-point form of the one-sided Levy density for t -> 0:

        g_a(t) = alpha^{1/(2-2 alpha)} / sqrt(2 pi (1-alpha))
                 * t^{-(2-alpha)/(2-2 alpha)}
                 * exp(-(1-alpha) alpha^{alpha/(1-alpha)} t^{-alpha/(1-alpha)})

    At alpha = 1/2 this reproduces the exact elementary density, and the
    sqrt(1-alpha) factor is what makes the gamma/(1+gamma) rescaling onto the
    Frechet density an identity rather than merely an approximation.
    It is 0.0 at t = inf and where the tail's exp overflows, which outweighs the rest.
    """
    t = _real("levy_asymptotic", t, 0.0, math.inf)
    a = _instance("levy_asymptotic idx", idx, LevyIndex).alpha
    lt = math.log(t)
    try:
        tail = (1.0 - a) * a ** (a / (1.0 - a)) * math.exp(-a / (1.0 - a) * lt)
    except OverflowError:
        return 0.0
    log_val = (math.log(a) / (2.0 - 2.0 * a)
               - 0.5 * math.log(2.0 * math.pi * (1.0 - a))
               - (2.0 - a) / (2.0 - 2.0 * a) * lt
               - tail)
    return _exp(log_val)


def levy_asymptotic_rescaled(shape: Shape, x: float) -> float:
    """levy_asymptotic evaluated at alpha = gamma/(1+gamma) and
    t = gamma x / (1+gamma)^{1+1/gamma}.

    Equals (1+gamma)^{1/gamma} ((1+gamma)/gamma)^{3/2} x^{gamma/2}
    Fr(gamma, x) / sqrt(2 pi); the test suite evaluates that right-hand side
    independently.
    """
    x = _real("levy_asymptotic_rescaled", x, 0.0, math.inf)
    g = _instance("levy_asymptotic_rescaled shape", shape, _SHAPES).gamma
    alpha = g / (1.0 + g)
    t = g * x / (1.0 + g) ** (1.0 + 1.0 / g)
    return levy_asymptotic(LevyIndex(alpha), t)


def frechet_mode(shape: Shape) -> float:
    """Mode (gamma / (1+gamma))^{1/gamma} of the Frechet density, where
    d/dx log Fr = (gamma x^{-gamma} - 1 - gamma) / x vanishes."""
    g = _instance("frechet_mode shape", shape, _SHAPES).gamma
    return (g / (1.0 + g)) ** (1.0 / g)


def levy_asymptotic_mode(idx: LevyIndex) -> float:
    """Mode (A beta / q)^{1/beta} of levy_asymptotic ~ t^{-q} exp(-A t^{-beta}),
    beta = alpha/(1-alpha), q = (2-alpha)/(2-2 alpha), A = (1-alpha) alpha^beta."""
    a = _instance("levy_asymptotic_mode idx", idx, LevyIndex).alpha
    beta = a / (1.0 - a)
    q = (2.0 - a) / (2.0 - 2.0 * a)
    amp = (1.0 - a) * a ** beta
    return (amp * beta / q) ** (1.0 / beta)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def find_maximum(f, x_init: float = 1.0, arg_tol: float = 1e-10) -> tuple[float, float]:
    """Locate the maximum of a unimodal positive function on (0, inf).

    Brackets the mode by geometric expansion from x_init (finite, > 0),
    then runs a golden-section search down to arg_tol (> 0) in the
    argument, or until the bracket stops shrinking. The tests use it as the
    oracle of the closed-form modes that normalize fig4's curves.
    """
    _instance("find_maximum f", f, callable)
    x_init = _real("find_maximum x_init", x_init, 0.0)
    arg_tol = _real("find_maximum arg_tol", arg_tol, 0.0, math.inf)
    a, b, c = x_init / 2.0, x_init, x_init * 2.0
    fa, fb, fc = f(a), f(b), f(c)
    for _ in range(600):
        if fb >= fa and fb >= fc:
            break
        if fa > fb:
            a, b, c = a / 2.0, a, b
            fa, fb, fc = f(a), fa, fb
        else:
            a, b, c = b, c, c * 2.0
            fa, fb, fc = fb, fc, f(c)
    else:
        raise DomainError("could not bracket a maximum; function may not be unimodal")

    lo, hi = a, c
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    width = math.inf
    while arg_tol < hi - lo < width:
        width = hi - lo
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
    x_star = 0.5 * (lo + hi)
    return x_star, f(x_star)
