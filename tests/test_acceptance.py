"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (visible with pytest -s; each criterion is also
its own test). The grid data shared between criteria is computed once per
session and timed.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expn, gammaincc
from scipy.special import gamma as gamma_fn

from frechet_laplace.cli import main as cli_main
from frechet_laplace.distributions import (LevyIndex, RationalShape, Shape,
                                           frechet_moment, frechet_pdf,
                                           levy_moment, levy_pdf_half)
from frechet_laplace.errors import DivergentMoment
from frechet_laplace.ftransform import (TransformTarget,
                                        frechet_transform_frechet_half,
                                        frechet_transform_quadrature)
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,
                                     laplace_frechet_bessel,
                                     laplace_frechet_oracle,
                                     laplace_symmetry_check)
from frechet_laplace.meijer import build_laplace_closed_form, meijer_g_m0
from frechet_laplace.numerics import integrate_semi_infinite, log_gamma

PAIRS = [(l, k) for l in range(1, 5) for k in range(1, 5)]
P_GRID = np.geomspace(0.01, 20.0, 100)


def report(criterion, ok, detail):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def laplace_grid():
    """Meijer-path and oracle values for every (l, k) pair over P_GRID."""
    start = time.monotonic()
    data = {}
    for (l, k) in PAIRS:
        shape = RationalShape(l, k)
        meijer = np.array([
            laplace_frechet(LaplaceQuery(shape, float(p), Method.MEIJER_G)).value
            for p in P_GRID])
        oracle = np.array([
            laplace_frechet_oracle(Shape(l / k), float(p)).value for p in P_GRID])
        data[(l, k)] = (meijer, oracle)
    elapsed = time.monotonic() - start
    return data, elapsed


def test_criterion_1_main_result_equivalence(laplace_grid):
    data, elapsed = laplace_grid
    worst = 0.0
    for (l, k), (meijer, oracle) in data.items():
        dev = np.abs(meijer - oracle) / np.maximum(1.0, np.abs(oracle))
        worst = max(worst, float(dev.max()))
    ok = worst <= 1e-8 and elapsed <= 120.0
    assert report(1, ok, f"worst dev {worst:.2e}, grid time {elapsed:.1f}s"), \
        f"worst deviation {worst:.3e}, elapsed {elapsed:.1f}s"


def test_criterion_2_bessel_special_case(laplace_grid):
    data, _ = laplace_grid
    meijer, _ = data[(1, 1)]
    bessel = np.array([laplace_frechet_bessel(float(p)) for p in P_GRID])
    worst = float(np.max(np.abs(meijer - bessel) / np.abs(bessel)))
    assert report(2, worst <= 1e-9, f"worst rel dev {worst:.2e}"), worst


def test_criterion_3_symmetry_law():
    worst = 0.0
    for (l, k) in PAIRS:
        for p in (0.5, 1.0, 2.0, 5.0):
            lhs, rhs = laplace_symmetry_check(RationalShape(l, k), p)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    assert report(3, worst <= 1e-9, f"worst rel dev {worst:.2e}"), worst


def _upper_gamma(s, p):
    """Upper incomplete gamma Gamma(s, p) for real s and p > 0: directly for
    s > 0, else by the downward recurrence
    Gamma(s, p) = (Gamma(s + 1, p) - p^s e^{-p}) / s."""
    if s > 0:
        return gamma_fn(s) * gammaincc(s, p)
    return (_upper_gamma(s + 1, p) - p ** s * math.exp(-p)) / s


def _tail(a, p):
    """T(a, p) = p int_1^inf e^{-px} x^{-a} dx = p^a Gamma(1 - a, p) = p E_a(p)."""
    if a == int(a):
        return p * expn(int(a), p)
    return p ** a * _upper_gamma(1.0 - a, p)


def normalization_bracket(gamma, p):
    """Rigorous bounds Lo <= 1 - L[Fr(gamma, .); p] <= U.

    With the survival function S(x) = 1 - exp(-x^{-gamma}), integration by
    parts gives 1 - L(p) = p int_0^inf e^{-px} S(x) dx. Write S = 1 - e^{-t}
    with t = x^{-gamma}; for t >= 0, t - t^2/2 <= 1 - e^{-t} <= min(1, t),
    and 1 - e^{-t} >= 1 - e^{-1} once t >= 1. On [0, 1] (t >= 1) the integral
    therefore lies in [(1 - e^{-1})(1 - e^{-p}), 1 - e^{-p}]; on [1, inf)
    (t <= 1) it lies in [T(gamma, p) - T(2 gamma, p) / 2, T(gamma, p)].
    Both ends go to 0 with p, at the shape's own rate: about
    Gamma(1 - gamma) p^gamma for gamma < 1, so no single bound on |L - 1|
    holds for every shape.
    """
    head = -math.expm1(-p)
    t1 = _tail(gamma, p)
    lower = -math.expm1(-1.0) * head + t1 - 0.5 * _tail(2.0 * gamma, p)
    return lower, head + t1


def check_normalization(label, res, gamma, p):
    assert res.converged and math.isfinite(res.value), res
    deficit = 1.0 - res.value
    lower, upper = normalization_bracket(gamma, p)
    ok = lower <= deficit <= upper
    report(label, ok, f"1 - L({p:g}) = {deficit:.6e} in [{lower:.6e}, {upper:.6e}]")
    assert ok, (f"L({p:g}) = {res.value:.12f}: 1 - L = {deficit:.6e} "
                f"outside [{lower:.6e}, {upper:.6e}]")


@pytest.mark.parametrize("l,k", PAIRS, ids=lambda v: str(v))
def test_criterion_4_normalization_limit_meijer(l, k):
    res = laplace_frechet(LaplaceQuery(RationalShape(l, k), 1e-4, Method.MEIJER_G))
    check_normalization(f"4a (l={l}, k={k})", res, l / k, 1e-4)


@pytest.mark.parametrize("l,k", PAIRS, ids=lambda v: str(v))
def test_criterion_4_normalization_limit_quadrature(l, k):
    res = laplace_frechet_oracle(Shape(l / k), 1e-6)
    check_normalization(f"4b (l={l}, k={k})", res, l / k, 1e-6)


def test_criterion_5_moments():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(10):
        g = rng.uniform(0.5, 4.0)
        mu = rng.uniform(-2.0, g - 0.5)
        closed = frechet_moment(Shape(g), mu)
        pdf = np.vectorize(lambda x: frechet_pdf(Shape(g), x), otypes=[float])
        quad = integrate_semi_infinite(lambda x: x ** mu * pdf(x), 0.0)
        worst = max(worst, abs(closed - quad.value) / abs(closed))
    for _ in range(5):
        mu = rng.uniform(-2.0, 0.25)
        closed = levy_moment(LevyIndex(0.5), mu)
        pdf = np.vectorize(levy_pdf_half, otypes=[float])
        quad = integrate_semi_infinite(lambda x: x ** mu * pdf(x), 0.0)
        worst = max(worst, abs(closed - quad.value) / abs(closed))
    divergence_ok = True
    try:
        frechet_moment(Shape(1.5), 1.5)
        divergence_ok = False
    except DivergentMoment:
        pass
    try:
        levy_moment(LevyIndex(0.5), 0.5)
        divergence_ok = False
    except DivergentMoment:
        pass
    ok = worst <= 1e-8 and divergence_ok
    assert report(5, ok,
                  f"worst rel dev {worst:.2e}, divergence raised: {divergence_ok}"), worst


def test_criterion_6_levy_transform():
    target = TransformTarget(f=levy_pdf_half)
    worst = 0.0
    for g in (0.5, 1.0, 2.0):
        for x in (0.3, 1.0, 3.0):
            quad = frechet_transform_quadrature(target, Shape(g), x).value
            closed = frechet_pdf(Shape(g / 2.0), x)
            worst = max(worst, abs(quad - closed))
    assert report(6, worst <= 1e-8, f"worst |dev| {worst:.2e}"), worst


def test_criterion_7_half_closed_form():
    target = TransformTarget(f=lambda t: frechet_pdf(Shape(0.5), t))
    worst = 0.0
    for g in (1.0 / 3.0, 1.0):
        for x in (0.5, 1.0, 2.0):
            closed = frechet_transform_frechet_half(Shape(g), x).value
            quad = frechet_transform_quadrature(target, Shape(g), x).value
            worst = max(worst, abs(closed - quad))
    assert report(7, worst <= 1e-6, f"worst |dev| {worst:.2e}"), worst


def test_criterion_8_levy_laplace_pin():
    worst = 0.0
    for p in (0.5, 1.0, 4.0):
        pdf = np.vectorize(levy_pdf_half, otypes=[float])
        res = integrate_semi_infinite(lambda x: np.exp(-p * x) * pdf(x), 0.0)
        worst = max(worst, abs(res.value - math.exp(-math.sqrt(p))))
    assert report(8, worst <= 1e-9, f"worst |dev| {worst:.2e}"), worst


def test_criterion_9_multiplication_identity():
    rng = np.random.default_rng(20240517)
    z = rng.uniform(0.1, 5.0, 100) + 1j * rng.uniform(-5.0, 5.0, 100)
    worst = 0.0
    for n in (2, 3, 4):
        lhs = log_gamma(n * z)
        rhs = ((1.0 - n) / 2.0 * math.log(2.0 * math.pi)
               + (n * z - 0.5) * math.log(n)
               + sum(log_gamma(z + j / n) for j in range(n)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(lhs))))
    assert report(9, worst <= 1e-12, f"worst rel dev {worst:.2e}"), worst


def test_criterion_10_contour_shift_invariance():
    # the closed form's collapsed pair at p = 1: const = log l, slope = l log p = 0
    form = build_laplace_closed_form(RationalShape(2, 3))
    values = [meijer_g_m0(form.spec, const=math.log(2.0), slope=0.0, c=c).value
              for c in (0.3, 0.5, 1.0, 1.5)]
    worst = 0.0
    for a in values:
        for b in values:
            worst = max(worst, abs(a - b) / abs(a))
    assert report(10, worst <= 1e-9, f"worst pairwise rel dev {worst:.2e}"), worst


def test_criterion_11_figure_emission(tmp_path):
    for fig in ("fig1", "fig2", "fig3", "fig4"):
        code = cli_main(["figure", "--id", fig, "--out",
                         str(tmp_path / f"{fig}.csv"), "--points", "200"])
        assert code == 0, f"{fig} emission failed"
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in (tmp_path / "fig4.csv").read_text()
                     .strip().split("\n")[1:]])
    sup_gamma_1 = float(np.max(np.abs(rows[:, 1] - rows[:, 2])))
    sup_gamma_third = float(np.max(np.abs(rows[:, 3] - rows[:, 4])))
    ok = sup_gamma_third < sup_gamma_1
    assert report(11, ok,
                  f"sup-norm gamma=1/3: {sup_gamma_third:.3f} < gamma=1: {sup_gamma_1:.3f}"), \
        (sup_gamma_third, sup_gamma_1)


def test_criterion_12_shape_properties(laplace_grid):
    data, _ = laplace_grid
    # Frechet pdf unimodality
    unimodal = True
    for g in (1.0 / 3.0, 0.5, 1.0, 2.0, 4.0):
        xs = np.geomspace(1e-3, 1e3, 2000)
        vals = np.array([frechet_pdf(Shape(g), float(x)) for x in xs])
        signs = np.sign(np.diff(vals))
        signs = signs[signs != 0]
        unimodal = unimodal and np.count_nonzero(np.diff(signs) != 0) == 1
    # every transform strictly decreasing on the log grid
    decreasing = all(np.all(np.diff(meijer) < 0.0) for meijer, _ in data.values())
    # and convex: second divided differences nonnegative
    convex = True
    dp = np.diff(P_GRID)
    for meijer, _ in data.values():
        slopes = np.diff(meijer) / dp
        convex = convex and np.all(np.diff(slopes) >= -1e-10)
    ok = unimodal and decreasing and convex
    assert report(12, ok,
                  f"unimodal: {unimodal}, decreasing: {decreasing}, convex: {convex}")
