"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same work takes 20-30% more or less time from one
minute to the next. The benchmark times this kernel between operations and
reports the times of a timed phase in reference seconds: each stretch
between two kernel runs counts its raw seconds times REFERENCE_S over the
kernel's time around it.

The kernel mixes the three kinds of work the library does, so that it slows
down with them: a vectorised complex log-gamma product summed along a
contour (numpy on arrays of about a thousand elements), a bounded scalar
minimisation of real log-gamma sums (scipy.optimize with Python callbacks),
and adaptive quadrature of a Python integrand (QUADPACK). It is frozen here,
apart from the library, so a change to the library cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

# Median kernel time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1). It fixes the unit only.
REFERENCE_S = 0.006

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_S = 0.75 + 1j * np.linspace(-16.0, 16.0, 1281)
_B = (0.0, 0.25, 0.5, 0.75)
QUAD_PASSES = 12


def _log_gamma(z):
    series = np.full_like(z, _LANCZOS_C[0])
    for k in range(1, len(_LANCZOS_C)):
        series += _LANCZOS_C[k] / (z - 1.0 + k)
    w = z + (_LANCZOS_G - 0.5)
    return 0.5 * math.log(2.0 * math.pi) + (z - 0.5) * np.log(w) - w + np.log(series)


def _integrand(u):
    return math.exp(-u - 0.5 * u ** -0.7) if u > 0.0 else 0.0


def kernel() -> float:
    """Seconds the reference kernel takes now: about a third each contour
    sum, scalar minimisation and quadrature."""
    t0 = time.perf_counter()
    acc = sum(_log_gamma(_S + b) for b in _B)
    np.exp(acc - 0.3 * _S).sum()
    minimize_scalar(
        lambda c: sum(_log_gamma(np.asarray(b + c, dtype=complex)).real for b in _B) - 0.3 * c,
        bounds=(0.3, 4.0), method="bounded", options={"xatol": 1e-2})
    for _ in range(QUAD_PASSES):
        quad(_integrand, 0.0, 1.0, limit=200)
        quad(lambda t: _integrand(t / (1.0 - t)) / (1.0 - t) ** 2, 0.5, 1.0, limit=200)
    return time.perf_counter() - t0


class Clock:
    """Time of a timed phase with the kernel's own runs taken out.

    The kernel runs at the start and then whenever maybe_calibrate() is
    called at least `interval` seconds after the previous run. Each run is
    recorded as (phase seconds so far, latencies recorded so far, kernel
    seconds), which splits the phase into segments. With `span`, a tracer's
    span factory, each later run is also recorded as a "calibration" span.
    """

    def __init__(self, latencies, interval: float, span=None):
        self.latencies, self.interval = latencies, interval
        self._span = span
        first = kernel()
        self.t0 = self._last = time.perf_counter()
        self._paused = self._ref_s = 0.0
        self.samples = [(0.0, len(latencies), first)]

    def elapsed(self) -> float:
        """Reference seconds so far, each segment scaled by the kernel run
        that opened it. Timed loops stop on this, not on raw seconds, so the
        inputs a run covers do not depend on how fast the host is then."""
        t, _, k = self.samples[-1]
        now = time.perf_counter() - self.t0 - self._paused
        return self._ref_s + (now - t) * REFERENCE_S / k

    def maybe_calibrate(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.interval:
            self._sample(now)

    def finish(self) -> float:
        """Record a last sample and return the phase seconds."""
        now = time.perf_counter()
        phase_s = now - self.t0 - self._paused
        self._sample(now)
        return phase_s

    def _sample(self, now):
        t, _, k = self.samples[-1]
        self._ref_s += (now - self.t0 - self._paused - t) * REFERENCE_S / k
        if self._span is None:
            k = kernel()
        else:
            with self._span("calibration"):
                k = kernel()
        self.samples.append((now - self.t0 - self._paused, len(self.latencies), k))
        self._last = time.perf_counter()
        self._paused += self._last - now
