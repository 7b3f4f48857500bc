"""Foundational numeric kernels: complex log-gamma, double-exponential
quadrature on semi-infinite intervals, and a modified Bessel K1 evaluated from
its integral representation (kept independent of the Meijer G machinery so it
can serve as a verification oracle).

Everything here works in plain binary64; no arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "EvalResult",
    "log_gamma",
    "integrate_semi_infinite",
    "bessel_k1",
]


@dataclass
class EvalResult:
    """Value plus diagnostics returned by every adaptive evaluation."""

    value: float
    err_estimate: float
    evaluations: int
    converged: bool
    im_residue: float = field(default=0.0)


# Lanczos rational approximation (g = 607/128, 15 terms). Accurate to a few
# ulp for Re(z) >= 1/2; arguments left of that line take the reflection
# formula log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z), whose
# last term is the Lanczos sum at 1 - z. The partial fractions c_k / (z - 1 + k)
# are one broadcast over a (terms x elements) array whose row 0 holds c_0,
# and its sum over axis 0 adds the rows in order, as a loop over k would.
# Arrays go through in blocks of _BLOCK elements: that (15 x 4096) complex
# array is 1 MB, and the temporaries of a block about 1.4 MB in all, the
# same for any input size.
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
# complex already, so that the broadcast ufuncs need no cast
_LANCZOS_K = np.arange(1.0, _LANCZOS_C.size, dtype=complex)[:, None]
_LANCZOS_NUM = _LANCZOS_C[1:, None].astype(complex)
_BLOCK = 4096
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_TWO_PI_I = 2j * math.pi


def _log_sin_pi(t: np.ndarray) -> np.ndarray:
    """log sin(pi t) for Im t >= 0, as -i pi t + log((e^{2 pi i t} - 1) / 2i):
    |e^{2 pi i t}| <= 1 there, so nothing overflows, and the logarithm's
    argument stays in the closed upper half-plane, off the cut of log.
    e^{2 pi i t} - 1 is the complex expm1 of 2 pi i (t - n), n the integer
    nearest Re t; numpy forms it as expm1(x) cos y - 2 sin^2(y / 2) +
    i e^x sin y, which keeps full relative accuracy next to the poles."""
    return -1j * math.pi * t + np.log(-0.5j * np.expm1(_TWO_PI_I * (t - np.rint(t.real))))


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    low = z.real < 0.5
    zz = np.where(low, 1.0 - z, z)
    terms = np.empty((_LANCZOS_C.size, zz.size), dtype=complex)
    terms[0] = _LANCZOS_C[0]
    np.add(zz - 1.0, _LANCZOS_K, out=terms[1:])
    np.divide(_LANCZOS_NUM, terms[1:], out=terms[1:])
    # numpy would sum a single column pairwise; accumulate keeps the row order
    series = terms.sum(axis=0) if zz.size > 1 else np.add.accumulate(terms)[-1]
    w = zz + (_LANCZOS_G - 0.5)
    out = _HALF_LOG_2PI + (zz - 0.5) * np.log(w) - w + np.log(series)
    if low.any():
        # lower half-plane (signed zero included) by conjugation, so that
        # log Gamma(conj z) = conj log Gamma(z) bit for bit
        t = z[low]
        lower = np.signbit(t.imag)
        mirror = lower.any()
        if mirror:
            t = np.where(lower, t.conj(), t)
        reflected = _LOG_PI - _log_sin_pi(t)
        if mirror:
            reflected = np.where(lower, reflected.conj(), reflected)
        out[low] = reflected - out[low]
    return out


def log_gamma(s):
    """Principal branch of log Gamma(s) for complex s, scalar or ndarray.

    Raises PoleError when s is a nonpositive real integer. Relative accuracy
    is a few 1e-16 for moderate arguments, comfortably inside the 1e-13
    budget the contour integrals rely on. Each element gets the same bits
    whether it comes alone or in an array of any shape or size. Arrays are
    evaluated in blocks of 4096 elements, so the temporaries take about
    1.4 MB beyond the result, whatever the input size.
    """
    arr = np.asarray(s, dtype=complex)
    if not np.isfinite(arr).all():
        raise DomainError("log_gamma requires finite arguments")
    flat = arr.ravel()
    on_axis = flat[flat.imag == 0.0]
    if on_axis.size:
        x = on_axis.real
        on_pole = (x <= 0.0) & (x == np.floor(x))
        if on_pole.any():
            raise PoleError(f"log_gamma pole at nonpositive integer {on_axis[on_pole][0]}")
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = _log_gamma_array(flat[i:i + _BLOCK])
    if np.isscalar(s) or arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


# Exp-sinh trapezoid (Takahasi & Mori, Publ. RIMS 9 (1974) 721): the map
# u = lower + scale exp(phi), phi = (pi/2) sinh t, turns an integrand that
# decays algebraically or exponentially at both ends of (lower, infinity)
# into one that decays double-exponentially in t, on which the trapezoid
# converges geometrically in 1/h (Trefethen & Weideman, SIAM Rev. 56 (2014)).
# All levels share one lattice of step _COARSE_STEP / 2^_MAX_LEVELS on
# |t| <= _T_MAX, where |phi| <= 522 keeps u and its weight finite; the
# lattice's exp(phi) and du/dt = (pi/2) cosh t exp(phi) are computed once.
_COARSE_STEP = 0.5
_MAX_LEVELS = 7
# The first refinement goes straight to step 1/32 in one call, since nearly
# every integrand needs that many nodes; S_2h comes from every other one.
_FIRST_LEVEL = 4
_T_MAX = 6.5
_STRIDE = 2 ** _MAX_LEVELS
_T = np.arange(-round(_T_MAX / _COARSE_STEP) * _STRIDE,
               round(_T_MAX / _COARSE_STEP) * _STRIDE + 1) * (_COARSE_STEP / _STRIDE)
_EXP_PHI = np.exp(0.5 * math.pi * np.sinh(_T))
_DU_DT = 0.5 * math.pi * np.cosh(_T) * _EXP_PHI
# Coarse terms below this fraction of the largest one lie outside the window.
_SIGNIFICANT = 1e-18
# A node's relative roundoff is about _ROUNDOFF times the size of the
# exponents it carries: phi in u and its weight, and, for an integrand
# evaluated as exp of a log-space sum, that sum, for which the log of the
# integral's magnitude stands in. The subnormal spacing bounds the absolute
# rounding of any value of f. The contour trapezoid in mellin uses the same
# _ROUNDOFF and _REL_TOL.
_ROUNDOFF = 2e-16
_PHI_ROUNDOFF = _ROUNDOFF * (1.0 + 0.5 * math.pi * np.abs(np.sinh(_T)))
_TINY = 2.0 ** -1074
# Relative agreement of S_h and S_2h that ends the refinement; the roundoff
# floor covers integrals that cancel to zero.
_REL_TOL = 1e-10


def integrate_semi_infinite(f, lower: float, scale: float = 1.0) -> EvalResult:
    """Integrate f over (lower, infinity) by the exp-sinh trapezoid
    u = lower + scale exp((pi/2) sinh t); scale is where the mass sits.

    f maps an ndarray of u to an ndarray of values. One coarse level (step
    1/2 on |t| <= 6.5) fixes the window: the span of t whose terms are
    nonzero, finite and above 1e-18 of the largest, widened by one coarse
    step on each side. The window is then summed at step 1/32, and the step
    halved, reusing the old nodes, until |S_h - S_2h| is within
    1e-10 |S_h| or the roundoff floor of the nodes; the error
    estimate is the larger of the difference and that floor. A non-finite
    term inside the window makes the result converged=False; it is never
    counted as zero silently. Terms outside the window are dropped, and an f
    that is 0 on every coarse node gives a converged 0.0.

    Never raises on a tolerance miss: the result carries converged=False.
    DomainError unless lower is finite and scale finite and positive.
    """
    if not math.isfinite(lower):
        raise DomainError("lower limit must be finite")
    if not 0 < scale < math.inf:
        raise DomainError("scale must be finite and positive")

    def terms(nodes: slice):
        # f du/dt / scale on a slice of the lattice, non-finite terms set to
        # 0; and whether all were finite
        vals = np.asarray(f(lower + scale * _EXP_PHI[nodes]), dtype=float) * _DU_DT[nodes]
        finite = np.isfinite(vals)
        if finite.all():
            return vals, True
        return np.where(finite, vals, 0.0), False

    with np.errstate(all="ignore"):
        coarse = (np.asarray(f(lower + scale * _EXP_PHI[::_STRIDE]), dtype=float)
                  * _DU_DT[::_STRIDE])
        finite = np.isfinite(coarse)
        mags = np.where(finite, np.abs(coarse), 0.0)
        significant = np.flatnonzero((mags > 0.0) & (mags >= _SIGNIFICANT * mags.max()))
        if significant.size == 0:
            # no term is finite and nonzero: an integral that underflows, or
            # an f that is nowhere finite (not converged)
            return EvalResult(value=0.0, evaluations=coarse.size,
                              err_estimate=_TINY * scale * float(_EXP_PHI[-1] - _EXP_PHI[0]),
                              converged=bool(finite.all()))
        lo, hi = significant[0], significant[-1]
        if lo > 0 and finite[lo - 1]:
            lo -= 1
        if hi < coarse.size - 1 and finite[hi + 1]:
            hi += 1
        first, last = lo * _STRIDE, hi * _STRIDE
        evaluations = coarse.size

        # Running sums over every node of the current step: the terms, their
        # magnitudes, and their magnitudes weighted by the phi roundoff.
        level = _FIRST_LEVEL
        stride = _STRIDE >> level
        nodes = slice(first, last + 1, stride)
        vals, ok = terms(nodes)
        h = _COARSE_STEP / 2 ** level
        total = float(vals.sum())
        diff = h * abs(total - 2.0 * float(vals[::2].sum()))
        size = spread = 0.0
        edge = _TINY * float(_EXP_PHI[last] - _EXP_PHI[first])
        while True:
            evaluations += vals.size
            mags = np.abs(vals)
            size += float(mags.sum())
            spread += float(np.dot(mags, _PHI_ROUNDOFF[nodes]))
            estimate = h * total
            magnitude = h * size
            floor = (h * spread + edge
                     + _ROUNDOFF * abs(math.log(max(scale * magnitude, _TINY))) * magnitude)
            tol = max(_REL_TOL * abs(estimate), floor)
            if diff <= tol or level == _MAX_LEVELS:
                break
            level += 1
            nodes = slice(first + stride // 2, last, stride)
            stride //= 2
            h *= 0.5
            vals, finite_level = terms(nodes)
            ok = ok and finite_level
            new = float(vals.sum())
            diff = h * abs(new - total)
            total += new
    return EvalResult(value=scale * estimate, err_estimate=scale * max(diff, floor),
                      evaluations=evaluations, converged=ok and diff <= tol)


def bessel_k1(z: float) -> float:
    """Modified Bessel K1(z) from the representation
    K1(z) = int_0^inf exp(-z cosh t) cosh t dt, z > 0.

    Evaluated with this module's own quadrature; deliberately independent of
    the Mellin-Barnes path so the two can cross-validate each other.
    """
    if not 0 < z < math.inf:
        raise DomainError("bessel_k1 requires finite z > 0")

    # log cosh t = t + log1p(exp(-2t)) - log 2 stays finite where cosh t
    # overflows, and exp of the -inf exponent there is 0.
    def integrand(t):
        log_cosh = t + np.log1p(np.exp(-2.0 * t)) - math.log(2.0)
        return np.exp(log_cosh - z * np.cosh(t))

    return integrate_semi_infinite(integrand, 0.0).value
