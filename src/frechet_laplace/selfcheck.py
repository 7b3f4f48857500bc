"""Built-in verification suite behind the `selfcheck` CLI command: a compact
pass of every module's core invariant, sized to finish in well under a minute.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .distributions import (LevyIndex, RationalShape, Shape, frechet_cdf,
                            frechet_pdf, frechet_quantile, levy_asymptotic_rescaled,
                            levy_pdf_half)
from .ftransform import (TransformTarget, frechet_transform_frechet_half,
                         frechet_transform_levy, frechet_transform_quadrature)
from .laplace import (LaplaceQuery, Method, laplace_frechet,
                      laplace_frechet_bessel, laplace_frechet_oracle,
                      laplace_symmetry_check)
from .mellin import frechet_mellin_image, laplace_via_mellin
from .meijer import MeijerSpec, meijer_g_m0
from .numerics import bessel_k1, integrate_semi_infinite, log_gamma

__all__ = ["list_checks", "run_checks"]

# Meijer path vs quadrature oracle, relative to max(1, |L|)
_CROSS_PATH_TOL = 1e-9


def _check_gamma_multiplication():
    rng = np.random.default_rng(7)
    zs = {n: rng.uniform(0.1, 5.0, 40) + 1j * rng.uniform(-5.0, 5.0, 40) for n in (2, 3, 4)}
    logs = iter(log_gamma(np.stack([row for n, z in zs.items()
                                    for row in [n * z] + [z + j / n for j in range(n)]])))
    worst = 0.0
    for n, z in zs.items():
        lhs = next(logs)
        rhs = ((1.0 - n) / 2.0 * math.log(2.0 * math.pi)
               + (n * z - 0.5) * math.log(n)
               + sum(next(logs) for _ in range(n)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    return worst <= 1e-12, f"worst rel dev {worst:.2e}"


def _check_gamma_recurrence():
    rng = np.random.default_rng(11)
    z = rng.uniform(0.1, 5.0, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
    above, at = log_gamma(np.stack((z + 1.0, z)))
    dev = np.abs(above - at - np.log(z))
    return float(dev.max()) <= 1e-13, f"max |residual| {float(dev.max()):.2e}"


def _check_pdf_normalization():
    worst = 0.0
    for g in (1.0 / 3.0, 1.0, 2.0):
        res = integrate_semi_infinite(lambda u: frechet_pdf(Shape(g), u), 0.0)
        worst = max(worst, abs(res.value - 1.0))
    return worst <= 1e-10, f"worst |int pdf - 1| {worst:.2e}"


def _check_cdf_quantile_roundtrip():
    worst = 0.0
    for g in (0.5, 1.0, 3.0):
        for x in (0.3, 1.0, 5.0):
            back = frechet_quantile(Shape(g), frechet_cdf(Shape(g), x))
            worst = max(worst, abs(back - x) / x)
    return worst <= 1e-12, f"worst roundtrip rel dev {worst:.2e}"


def _check_bessel_k1():
    *vals, at_small = bessel_k1(np.append(np.linspace(0.05, 50.0, 120), 1e-3)).tolist()
    monotone = all(a > b > 0 for a, b in zip(vals, vals[1:]))
    small = abs(1e-3 * at_small - 1.0)
    return monotone and small <= 1e-3, f"z*K1(z)-1 at 1e-3: {small:.2e}"


def _check_meijer_exponential():
    spec = MeijerSpec([0.0])
    worst = 0.0
    for z in np.linspace(0.01, 20.0, 25):
        res = meijer_g_m0(spec, const=0.0, slope=math.log(z))
        worst = max(worst, abs(res.value - math.exp(-z)) / math.exp(-z))
    return worst <= 1e-10, f"worst rel dev from exp {worst:.2e}"


def _check_bessel_case():
    worst = 0.0
    for p in np.geomspace(0.05, 10.0, 12):
        a = laplace_frechet(LaplaceQuery(RationalShape(1, 1), float(p), Method.MEIJER_G)).value
        b = laplace_frechet_bessel(float(p))
        worst = max(worst, abs(a - b) / b)
    return worst <= 1e-9, f"worst rel dev {worst:.2e}"


def _check_cross_path():
    worst = 0.0
    for (l, k) in ((1, 2), (2, 3), (3, 1), (3, 4)):
        for p in (0.1, 1.0, 5.0):
            a = laplace_frechet(LaplaceQuery(RationalShape(l, k), p, Method.MEIJER_G)).value
            b = laplace_frechet_oracle(Shape(l / k), p).value
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst <= _CROSS_PATH_TOL, f"worst dev {worst:.2e} (tol {_CROSS_PATH_TOL:.0e})"


def _check_symmetry_law():
    worst = 0.0
    for (l, k) in ((1, 2), (2, 3), (3, 4)):
        for p in (0.5, 1.0, 2.0, 5.0):
            lhs, rhs = laplace_symmetry_check(RationalShape(l, k), p)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return worst <= 1e-9, f"worst rel dev {worst:.2e}"


def _check_contour_shift():
    vals = []
    img = frechet_mellin_image(RationalShape(2, 3))
    for c in (0.3, 0.5, 1.0, 1.5):
        vals.append(laplace_via_mellin(img, 1.0, c).value)
    spread = (max(vals) - min(vals)) / abs(vals[0])
    return spread <= 1e-9, f"relative spread {spread:.2e}"


def _check_levy_laplace_pin():
    worst = 0.0
    for p in (0.5, 1.0, 4.0):
        res = integrate_semi_infinite(lambda u: np.exp(-p * u) * levy_pdf_half(u), 0.0)
        worst = max(worst, abs(res.value - math.exp(-math.sqrt(p))))
    return worst <= 1e-9, f"worst |dev from exp(-sqrt p)| {worst:.2e}"


def _check_levy_transform():
    target, alpha = TransformTarget(f=levy_pdf_half), LevyIndex(0.5)
    worst = 0.0
    for shape in (Shape(0.5), Shape(1.0), Shape(2.0)):
        for x in (0.3, 1.0, 3.0):
            a = frechet_transform_quadrature(target, shape, x).value
            b = frechet_transform_levy(alpha, shape, x)
            worst = max(worst, abs(a - b))
    return worst <= 1e-8, f"worst |dev| {worst:.2e}"


def _check_half_closed_form():
    half = Shape(0.5)
    target = TransformTarget(f=lambda u: frechet_pdf(half, u))
    worst = 0.0
    for shape in (Shape(1.0 / 3.0), Shape(1.0)):
        for x in (0.5, 1.0, 2.0):
            a = frechet_transform_frechet_half(shape, x).value
            b = frechet_transform_quadrature(target, shape, x).value
            worst = max(worst, abs(a - b))
    return worst <= 1e-6, f"worst |dev| {worst:.2e}"


def _check_rescaled_asymptotic():
    worst = 0.0
    for (g, x) in ((1.0, 0.5), (1.0 / 3.0, 1.0), (2.0, 0.7)):
        lhs = levy_asymptotic_rescaled(Shape(g), x)
        rhs = ((1.0 + g) ** (1.0 / g) / math.sqrt(2.0 * math.pi)
               * ((1.0 + g) / g) ** 1.5 * x ** (g / 2.0) * frechet_pdf(Shape(g), x))
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst <= 1e-12, f"worst rel dev {worst:.2e}"


_CHECKS: list[tuple[str, Callable]] = [
    ("gamma-multiplication-formula", _check_gamma_multiplication),
    ("gamma-recurrence", _check_gamma_recurrence),
    ("frechet-pdf-normalization", _check_pdf_normalization),
    ("cdf-quantile-roundtrip", _check_cdf_quantile_roundtrip),
    ("bessel-k1-monotone-and-limit", _check_bessel_k1),
    ("meijer-exponential-identity", _check_meijer_exponential),
    ("laplace-bessel-special-case", _check_bessel_case),
    ("laplace-cross-path-agreement", _check_cross_path),
    ("laplace-transmutation-symmetry", _check_symmetry_law),
    ("contour-shift-invariance", _check_contour_shift),
    ("levy-laplace-pin", _check_levy_laplace_pin),
    ("levy-transform-closed-form", _check_levy_transform),
    ("frechet-half-transform-closed-form", _check_half_closed_form),
    ("rescaled-asymptotic-identity", _check_rescaled_asymptotic),
]


def list_checks() -> list[str]:
    return [name for name, _ in _CHECKS]


def run_checks(report=print) -> bool:
    """Run every check; report a PASS/FAIL line per check; True iff all pass."""
    all_ok = True
    for name, fn in _CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        report(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    return all_ok
