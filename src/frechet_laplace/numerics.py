"""Foundational numeric kernels: complex log-gamma, double-exponential
quadrature on semi-infinite intervals, and a modified Bessel K1 evaluated from
its integral representation (kept independent of the Meijer G machinery so it
can serve as a verification oracle).

Everything here works in plain binary64; no arbitrary-precision arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, PoleError

__all__ = [
    "EvalResult",
    "log_gamma",
    "integrate_semi_infinite",
    "bessel_k1",
]


@dataclass
class EvalResult:
    """Value plus diagnostics returned by every adaptive evaluation. route
    names how the value was obtained: "series" (a residue sum), "contour"
    (a Mellin-Barnes trapezoid), "quadrature" (the exp-sinh rule) or
    "difference" (a finite difference of a closed form)."""

    value: float
    err_estimate: float
    evaluations: int
    converged: bool
    route: str


# The one gate on numeric arguments, an allow-list: numpy's bool, int, uint
# and float kinds are real numbers; text, None, complex numbers and other
# objects, alone or in an array or list, are not. _NOT_REAL names a refusal.
_REAL_KINDS = "biuf"
_NOT_REAL = {"S": "text", "U": "text", "O": "text or other objects", "c": "complex numbers"}
_MAX = sys.float_info.max
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _as_numbers(x, dtype, name: str) -> np.ndarray:
    """x as an ndarray of dtype, with DomainError unless its numpy kind is a
    real number's, or complex too where dtype is complex. A number converts
    with the bits np.asarray(x, dtype) gives it."""
    try:
        arr = np.asarray(x)
    except ValueError as exc:  # a ragged list
        raise DomainError(f"{name} takes numbers") from exc
    kind = arr.dtype.kind
    if kind not in _REAL_KINDS and not (kind == "c" and dtype is complex):
        raise DomainError(f"{name} takes real numbers, not {_NOT_REAL.get(kind, arr.dtype)}")
    return arr.astype(dtype, copy=False)


def _real(name: str, v, lo: float | None = -math.inf, hi: float = _MAX) -> float:
    """v as a float where it is one real number with lo < v <= hi: finite by
    default, and any, NaN and the infinities included, for lo None. Else
    DomainError, for an array or anything _as_numbers refuses too. A float
    costs one type test and one chained comparison."""
    if type(v) is not float:
        arr = _as_numbers(v, float, name)
        if arr.ndim:
            raise DomainError(f"{name} takes a real number, not an array")
        v = float(arr)
    if lo is not None and not lo < v <= hi:
        raise DomainError(f"{name} requires {lo} < value <= {hi}, got {v}")
    return v


# The binary64-range guard for every power or exp that can overflow.
def _power(x: float, y: float) -> float:
    """x ** y, with DomainError where it overflows binary64."""
    try:
        return x ** y
    except OverflowError:
        raise DomainError(f"{x} ** {y} overflows binary64") from None


def _exp(log_value: float) -> float:
    """exp(log_value), with DomainError where it overflows binary64."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(f"exp({log_value}) overflows binary64") from None


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


def _log_sin_pi(t: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log sin(pi t) for Im t >= 0, as -i pi t + log((e^{2 pi i t} - 1) / 2i):
    |e^{2 pi i t}| <= 1 there, so nothing overflows, and the logarithm's
    argument stays in the closed upper half-plane, off the cut of log.
    e^{2 pi i t} - 1 is the complex expm1 of 2 pi i (t - n), n the integer
    nearest Re t; numpy forms it as expm1(x) cos y - 2 sin^2(y / 2) +
    i e^x sin y, which keeps full relative accuracy next to the poles."""
    return -1j * math.pi * t + np.log(-0.5j * np.expm1(_TWO_PI_I * (t - n)))


def _log_gamma_array(z: np.ndarray) -> np.ndarray:
    low = z.real < 0.5
    zz = np.where(low, 1.0 - z, z)
    terms = np.empty((_LANCZOS_C.size, zz.size), dtype=complex)
    terms[0] = _LANCZOS_C[0]
    np.add(zz - 1.0, _LANCZOS_K, out=terms[1:])
    np.divide(_LANCZOS_NUM, terms[1:], out=terms[1:])
    # numpy would sum a single column pairwise; accumulate keeps the row order
    series = np.add.reduce(terms) if zz.size > 1 else np.add.accumulate(terms)[-1]
    w = zz + (_LANCZOS_G - 0.5)
    out = _HALF_LOG_2PI + (zz - 0.5) * np.log(w) - w + np.log(series)
    if low.any():
        # every pole has Re t < 1/2, and t == rint(Re t) holds at the poles only
        t = z[low]
        n = np.rint(t.real)
        on_pole = t == n
        if on_pole.any():
            raise PoleError(f"log_gamma pole at nonpositive integer {t[on_pole][0]}")
        # lower half-plane (signed zero included) by conjugation, so that
        # log Gamma(conj z) = conj log Gamma(z) bit for bit
        lower = np.signbit(t.imag)
        mirror = lower.any()
        if mirror:
            t = np.where(lower, t.conj(), t)
        reflected = _LOG_PI - _log_sin_pi(t, n)
        if mirror:
            reflected = np.where(lower, reflected.conj(), reflected)
        out[low] = reflected - out[low]
    return out


def log_gamma(s):
    """Principal branch of log Gamma(s) for complex s, scalar or ndarray.

    Raises PoleError when s is a nonpositive real integer, and DomainError
    for a non-finite s or no number. Relative accuracy is a few 1e-16 for
    moderate arguments, comfortably inside the 1e-13 budget the contour
    integrals rely on. Each element gets the same bits whether it comes
    alone or in an array of any shape or size. Arrays are evaluated in
    blocks of 4096 elements, so the temporaries take about 1.4 MB beyond
    the result, whatever the input size.
    """
    arr = _as_numbers(s, complex, "log_gamma")
    if not np.isfinite(arr).all():
        raise DomainError("log_gamma requires finite arguments")
    flat = arr.ravel()
    if flat.size <= _BLOCK:
        out = _log_gamma_array(flat)
    else:
        out = np.empty_like(flat)
        for i in range(0, flat.size, _BLOCK):
            out[i:i + _BLOCK] = _log_gamma_array(flat[i:i + _BLOCK])
    if arr.ndim == 0:
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
# the coarse level's nodes, and their du/dt contiguous
_COARSE = slice(None, None, _STRIDE)
_COARSE_DU_DT = _DU_DT[_COARSE].copy()
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
    DomainError unless lower is finite and scale finite and positive; also
    where a sum of finite terms, the value or its estimate overflows
    binary64.
    """
    lower = _real("integrate_semi_infinite lower", lower)
    scale = _real("integrate_semi_infinite scale", scale, 0.0)

    def on_lattice(nodes: slice):
        # u on a slice of the lattice; a zero lower adds nothing: u >= +0.0
        u = scale * _EXP_PHI[nodes]
        if lower:
            u += lower
        return f(u)

    return _exp_sinh(on_lattice, scale)


def _terms(f, nodes: slice):
    # f du/dt on a slice of the lattice, their sum, and whether all were
    # finite. A sum of finite terms is finite unless it overflows, so the
    # terms are only checked where it is not.
    vals = np.asarray(f(nodes), dtype=float) * _DU_DT[nodes]
    total = float(np.add.reduce(vals))
    if math.isfinite(total):
        return vals, total, True
    finite = np.isfinite(vals)
    if finite.all():
        raise DomainError("exp-sinh sum of finite terms overflows binary64")
    vals = np.where(finite, vals, 0.0)
    return vals, float(np.add.reduce(vals)), False


def _exp_sinh(f, scale: float) -> EvalResult:
    # integrate_semi_infinite's body, for an f that takes a slice of the
    # lattice and gives its values at u = lower + scale exp(phi) there
    with np.errstate(all="ignore"):
        coarse = np.asarray(f(_COARSE), dtype=float) * _COARSE_DU_DT
        mags = np.abs(coarse)
        # NaN and inf both propagate through the max
        peak = np.maximum.reduce(mags)
        all_finite = math.isfinite(peak)
        if not all_finite:
            mags = np.where(np.isfinite(coarse), mags, 0.0)
            peak = np.maximum.reduce(mags)
        bar = _SIGNIFICANT * peak
        # a bar that underflows to 0 keeps only the nonzero terms
        significant = (mags >= bar if bar > 0.0 else mags > 0.0).nonzero()[0]
        if significant.size == 0:
            # no term is finite and nonzero: an integral that underflows, or
            # an f that is nowhere finite (not converged); the bound is the
            # subnormal spacing of each term f du/dt over the span of t
            return EvalResult(0.0, _TINY * (2.0 * _T_MAX) * scale, coarse.size,
                              all_finite, "quadrature")
        lo, hi = int(significant[0]), int(significant[-1])
        if lo > 0 and math.isfinite(coarse[lo - 1]):
            lo -= 1
        if hi < coarse.size - 1 and math.isfinite(coarse[hi + 1]):
            hi += 1
        first, last = lo * _STRIDE, hi * _STRIDE
        nodes = slice(first, last + 1, _STRIDE >> _FIRST_LEVEL)
        vals, total, ok = _terms(f, nodes)
        mags = np.abs(vals)
        return _refine(f, first, last, total, float(np.add.reduce(vals[::2])),
                       float(np.add.reduce(mags)), float(np.dot(mags, _PHI_ROUNDOFF[nodes])),
                       ok, coarse.size + vals.size, scale)


def _refine(f, first: int, last: int, total: float, half: float, size: float,
            spread: float, ok: bool, evaluations: int, scale: float) -> EvalResult:
    # _exp_sinh's level loop, from the sums of the terms at step 1/32 on
    # first..last (total), of every other one (half), of their magnitudes
    # (size) and of those times the phi roundoff (spread); under its errstate
    level = _FIRST_LEVEL
    stride = _STRIDE >> level
    h = _COARSE_STEP / 2 ** level
    diff = h * abs(total - 2.0 * half)
    edge = _TINY * float(_EXP_PHI[last] - _EXP_PHI[first])
    while True:
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
        vals, new, finite_level = _terms(f, nodes)
        ok = ok and finite_level
        diff = h * abs(new - total)
        total += new
        evaluations += vals.size
        mags = np.abs(vals)
        size += float(np.add.reduce(mags))
        spread += float(np.dot(mags, _PHI_ROUNDOFF[nodes]))
    value, err = scale * estimate, scale * max(diff, floor)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError("exp-sinh integral overflows binary64")
    return EvalResult(value, err, evaluations, ok and diff <= tol, "quadrature")


def _exp_sinh_rows(f, scales: np.ndarray) -> list[EvalResult]:
    # _exp_sinh on a batch of rows: f(nodes, rows) gives row r's integrand at
    # u = scales[r] exp(phi) on a slice of the lattice, (rows x nodes) for a
    # column of row indices and 1-D for an int row. The coarse level is one
    # array, the first level one per window, rows summed pairwise as 1-D
    # arrays are, then _refine per row: each row keeps its _exp_sinh call's
    # bits. A row with no significant coarse term, a non-finite one or a
    # non-finite first-level sum goes to _exp_sinh whole.
    scales = scales.tolist()
    out = [None] * len(scales)
    with np.errstate(all="ignore"):
        coarse = np.asarray(f(_COARSE, np.arange(len(out))[:, None]), dtype=float) * _COARSE_DU_DT
        mags = np.abs(coarse)
        peak = np.maximum.reduce(mags, axis=1)  # NaN and inf propagate
        # a bar that underflows keeps the nonzero terms
        significant = (mags >= _SIGNIFICANT * peak[:, None]) & (mags > 0.0)
        batched = np.isfinite(peak) & significant.any(axis=1)
        for row in (~batched).nonzero()[0].tolist():
            out[row] = _exp_sinh(lambda nodes, row=row: f(nodes, row), scales[row])
        rows = batched.nonzero()[0]
        significant, n = significant[rows], coarse.shape[1]
        # the window, widened by one coarse node on each side
        lo = np.maximum(significant.argmax(axis=1) - 1, 0)
        hi = np.minimum(n - significant[:, ::-1].argmax(axis=1), n - 1)
        windows = lo * n + hi
        for window in np.unique(windows).tolist():
            first, last = window // n * _STRIDE, window % n * _STRIDE
            nodes = slice(first, last + 1, _STRIDE >> _FIRST_LEVEL)
            group = rows[windows == window]
            vals = np.asarray(f(nodes, group[:, None]), dtype=float) * _DU_DT[nodes]
            mags = np.abs(vals)
            sums = (np.add.reduce(a, axis=1).tolist() for a in (vals, vals[:, ::2], mags))
            for row, total, half, size, row_mags in zip(group.tolist(), *sums, mags):
                g = lambda nodes, row=row: f(nodes, row)
                out[row] = (_refine(g, first, last, total, half, size,
                                    float(np.dot(row_mags, _PHI_ROUNDOFF[nodes])), True,
                                    n + vals.shape[1], scales[row])
                            if math.isfinite(total) else _exp_sinh(g, scales[row]))
    return out


def _k1_terms(z, x):
    # e^{-x} (x + z) / (sqrt(x) sqrt(x + 2z)): the product of the roots, since
    # the root of the product overflows once x passes about 1e154
    return np.exp(-x) * (x + z) / (np.sqrt(x) * np.sqrt(x + 2.0 * z))


def bessel_k1(z):
    """Modified Bessel K1(z) = int_0^inf exp(-z cosh t) cosh t dt, in
    x = z (cosh t - 1): (e^{-z} / z) int_0^inf e^{-x} (x + z) / (sqrt(x)
    sqrt(x + 2z)) dx, by the exp-sinh rule at scale 1, where the mass sits
    for every z. Independent of the Mellin-Barnes path, so that each checks
    the other. z is a float or an ndarray; an ndarray gives an array of its
    shape in one pass, each element with the bits of its float call.
    DomainError unless every z is a finite real number > 0, and where K1(z)
    overflows binary64 (z below about 5.6e-309); NonConvergence where the
    rule misses its tolerance."""
    arr = _as_numbers(z, float, "bessel_k1")
    if not ((arr > 0.0) & (arr < math.inf)).all():
        raise DomainError("bessel_k1 requires finite z > 0")
    flat = arr.ravel()
    if arr.ndim:  # at scale 1, x on the lattice is exp(phi)
        results = _exp_sinh_rows(lambda nodes, rows: _k1_terms(flat[rows], _EXP_PHI[nodes]),
                                 np.ones(flat.size))
    else:
        results = [integrate_semi_infinite(lambda x: _k1_terms(flat[0], x), 0.0)]
    missed = [at for at, res in zip(flat.tolist(), results) if not res.converged]
    if missed:
        raise NonConvergence(f"bessel_k1 not converged at z = {missed[0]}")
    with np.errstate(over="ignore"):
        out = np.exp(-flat) * np.array([res.value for res in results]) / flat
    if not np.isfinite(out).all():
        raise DomainError("K1(z) overflows binary64")
    return out.reshape(arr.shape) if arr.ndim else float(out[0])
