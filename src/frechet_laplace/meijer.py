"""Numerical Meijer G functions of signature G^{m,0}_{0,m}(z | b_1..b_m),
the only signature the Frechet Laplace transform requires, plus the assembly
of that transform's closed form.

The b lists come in runs Delta(n, a) = a/n, ..., (a+n-1)/n, and Gauss's
multiplication formula collapses each run of the Mellin-Barnes integrand
into one gamma factor:
prod_{j<n} Gamma(s + (a+j)/n) = (2 pi)^{(n-1)/2} n^{1/2-a-ns} Gamma(ns + a).
The Frechet lists Delta(k,1) + Delta(l,0) hold 0 and 1, so their poles are
double from s = -1 down; the simple ones in (-1, 0] would allow a residue
shift, but the contour here leaves every pole on its left: a parabola that
opens to the left from its vertex c > -min(b_j).

Everything runs in log space: meijer_g_m0 takes log z and the log of the
caller's prefactor, and adds both to the integrand's log-space sum, so the
closed form's prefactor (2 pi)^{1-(k+l)/2} and argument p^l / (k^k l^l)
never have to be binary64 numbers on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import RationalShape
from .errors import ContourError, DomainError
from .mellin import contour_integral, delta_list
from .numerics import EvalResult, log_gamma

__all__ = [
    "MeijerSpec",
    "LaplaceClosedForm",
    "meijer_g_m0",
    "build_laplace_closed_form",
]


@dataclass(frozen=True)
class MeijerSpec:
    """Lower parameter list of a G^{m,0}_{0,m} instance as Delta(n, a) runs.
    Each entry of b becomes a run (1, b_j), ahead of the given groups; the
    b property derives the list from the runs."""

    groups: tuple

    def __init__(self, b: Sequence[float] = (), *, groups: Sequence = ()):
        runs = tuple((1, v) for v in b) + tuple(groups)
        if len(runs) < 1:
            raise DomainError("MeijerSpec needs at least one lower parameter")
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n, _ in runs):
            raise DomainError("MeijerSpec run lengths must be integers >= 1")
        runs = tuple((int(n), float(a)) for n, a in runs)
        if not all(math.isfinite(a) for _, a in runs):
            raise DomainError("MeijerSpec parameters must be finite")
        object.__setattr__(self, "groups", runs)

    @property
    def b(self) -> tuple:
        return tuple(v for n, a in self.groups for v in delta_list(n, a))

    @property
    def m(self) -> int:
        return sum(n for n, _ in self.groups)


def _saddle_abscissa(spec: MeijerSpec, log_z: float, b_min: float) -> float:
    """Abscissa minimizing the integrand magnitude on the real axis.

    On the real axis the integrand is exp(phi(c)) with, one term per run,
    phi(c) = sum_g [log Gamma(n_g c + a_g) - n_g c log n_g] - c log z + const,
    convex in c; placing the contour at its minimum keeps the alternating
    contour sum on the scale of the result, which is what bounds the
    roundoff for very large or very small z. A quarter-unit margin keeps the
    pole at -b_min = -min(b_j) far enough from the vertex that the trapezoid
    step stays moderate, and every n_g c + a_g at least 1/4. The bracket
    ends at c = 2 e^300, which keeps it finite: where the saddle lies beyond
    (log z > 300 m), phi < -0.3 m c at the bracket end, far under the
    binary64 floor, so the vertex there gives the same converged zero.

    Bisection on phi'(c) finds it to 1e-2 (relative above c = 1), in plain
    floats: psi is a central difference of math.lgamma, good to about 1e-9.
    """
    slope = sum(n * math.log(n) for n, _ in spec.groups) + log_z
    lo = -b_min + 0.25
    hi = max(lo + 3.0, 2.0 * math.exp(min(max(log_z, 0.0) / spec.m, 300.0)))
    while hi - lo > 1e-2 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        psi = 0.0
        for n, a in spec.groups:
            x = n * mid + a
            psi += n * (math.lgamma(1.00001 * x) - math.lgamma(0.99999 * x)) / (2e-5 * x)
        if psi > slope:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def meijer_g_m0(spec: MeijerSpec, *, log_z: float, c: float | None = None,
                log_scale: float = 0.0) -> EvalResult:
    """e^log_scale G^{m,0}_{0,m}(z | b), with z = e^log_z, as
    (1/2 pi i) int e^log_scale prod_j Gamma(b_j + s) z^{-s} ds
    along contour_integral's parabola s(u) = c - mu u^2 + i u, which opens to
    the left from its vertex c > -min(b_j) and so leaves every pole on its
    left; the gamma factors decay super-exponentially along it.

    The argument and the caller's prefactor e^log_scale enter as logs, so
    neither has to be a binary64 on its own: the integrand is a log-space sum
    that contour_integral takes the exp of, and only the product decides
    the magnitude there: a converged zero where it is below 1e-300 at the
    vertex, an unconverged result where it is above 1e300.

    With c = None the vertex is placed at the saddle abscissa, which keeps
    full relative accuracy even where the function has decayed far below the
    fixed-abscissa integrand peak. An explicit abscissa pins the vertex
    exactly (Cauchy's theorem makes the result independent of any valid
    choice, which the shift-invariance tests exercise).

    The integrand is one log_gamma call on the (runs x nodes) array n s + a,
    plus the multiplication formula's constant (with log_scale) and linear
    term, in log space. Its real-axis log-magnitude, from which the engine
    sets step and window, is the same sum in plain floats (math.lgamma),
    with no log_gamma call.
    The parameters are real, so log F(conj s) = conj log F(s); every step of
    the integrand (n s + a, log_gamma, the sum over runs, s * slope) keeps
    that symmetry bit for bit. The contour grid s(u), u = j h with |j| <= N,
    is its own conjugate reversed, so log F is evaluated on the upper half
    only and the lower half is its mirror: the same values, at half the
    log_gamma work. Any other node array (the nodes a window extension adds) is
    evaluated directly.
    """
    if not (math.isfinite(log_z) and math.isfinite(log_scale)):
        raise DomainError("meijer_g requires finite log_z and log_scale")
    # the smallest b_j of a run Delta(n, a) is a / n
    b_min = min(a / n for n, a in spec.groups)
    if c is None:
        c = _saddle_abscissa(spec, log_z, b_min)
    elif not -b_min < c < math.inf:
        raise ContourError(
            f"abscissa {c} does not separate poles: need {-b_min} < c < inf")
    # plain floats, summed in run order
    log_2pi = math.log(2.0 * math.pi)
    const = sum(0.5 * (rn - 1.0) * log_2pi + (0.5 - ra) * math.log(rn)
                for rn, ra in spec.groups) + log_scale
    slope = sum(rn * math.log(rn) for rn, _ in spec.groups) + log_z
    # complex, so that n s + a needs no cast
    groups = np.array(spec.groups, dtype=complex)
    n, a = groups[:, :1], groups[:, 1:]

    def log_values(s):
        return log_gamma(n * s + a).sum(axis=0) + const - s * slope

    def integrand(s):
        if s.size % 2 and np.array_equal(s[::-1], s.conj()):
            upper = log_values(s[s.size // 2:])
            return np.concatenate((upper[:0:-1].conj(), upper))
        return log_values(s)

    def log_abs_real(x):
        out = []
        for v in x.tolist():
            total = 0.0
            for rn, ra in spec.groups:
                total += math.lgamma(rn * v + ra)
            out.append(total + const - v * slope)
        return np.array(out)

    return contour_integral(integrand, log_abs_real, c, (c + b_min, math.inf))


@dataclass(frozen=True)
class LaplaceClosedForm:
    """Closed form of the Frechet Laplace transform for gamma = l/k:

        L(p) = prefactor * G^{k+l,0}_{0,k+l}(p^l / (k^k l^l) | Delta(k,1), Delta(l,0))

    with prefactor sqrt(kl) / (2 pi)^{(k+l)/2 - 1}. Both the prefactor and
    the argument leave binary64 long before L does (k = 800 at p = 1), so
    the form holds their logs, for meijer_g_m0's log_scale and log_z.
    """

    shape: RationalShape
    log_prefactor: float
    spec: MeijerSpec

    def log_argument(self, log_p: float) -> float:
        """Map log p to the log of the G-function argument p^l/(k^k l^l)."""
        if not math.isfinite(log_p):
            raise DomainError("Laplace variable must be finite and positive")
        l, k = self.shape.l, self.shape.k
        return l * log_p - k * math.log(k) - l * math.log(l)


def build_laplace_closed_form(shape: RationalShape) -> LaplaceClosedForm:
    """Assemble the log prefactor, the parameter list Delta(k,1) + Delta(l,0),
    and the argument map for the given reduced shape l/k."""
    l, k = shape.l, shape.k
    log_prefactor = 0.5 * math.log(k * l) - ((k + l) / 2.0 - 1.0) * math.log(2.0 * math.pi)
    return LaplaceClosedForm(shape=shape, log_prefactor=log_prefactor,
                             spec=MeijerSpec(groups=((k, 1.0), (l, 0.0))))
