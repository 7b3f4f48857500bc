"""Property tests of the Laplace transform over shapes l/k with l, k <= 50 and
p = e^t, |t| <= 700: the whole binary64 range of p, where the closed form's
prefactor and argument leave binary64 long before L does; the quadrature
oracle on a grid of extreme real shapes and p; and the scalar distribution
and kernel functions on a grid of extreme arguments."""

import itertools
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from frechet_laplace.distributions import (LevyIndex, RationalShape, Shape,  # noqa: E402
                                           frechet_cdf, frechet_moment, frechet_pdf,
                                           frechet_quantile, levy_asymptotic, levy_moment,
                                           levy_pdf_half)
from frechet_laplace.errors import FrechetLaplaceError  # noqa: E402
from frechet_laplace.ftransform import FrechetKernelParams, frechet_kernel  # noqa: E402
from frechet_laplace.laplace import (LaplaceQuery, Method, laplace_frechet,  # noqa: E402
                                    laplace_frechet_oracle)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(l=st.integers(1, 50), k=st.integers(1, 50),
       log_p=st.floats(-700.0, 700.0),
       method=st.sampled_from([Method.MEIJER_G, Method.AUTO, Method.QUADRATURE]))
@example(l=1, k=50, log_p=-650.4851900711423, method=Method.AUTO)
@example(l=1, k=18, log_p=-150.65163013018253, method=Method.AUTO)
@example(l=1, k=50, log_p=-650.4851900711423, method=Method.QUADRATURE)
@example(l=1, k=18, log_p=-150.65163013018253, method=Method.QUADRATURE)
def test_value_is_finite_and_converged_values_in_range(l, k, log_p, method):
    # a call raises a library error or returns a finite value; a converged
    # value is a transform of a probability law, in [0, 1] up to its
    # estimate (the oracle returns 1 + 2 ulp at tiny p); AUTO and the
    # oracle neither raise nor fail to converge
    try:
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), math.exp(log_p), method))
    except FrechetLaplaceError:
        assert method is Method.MEIJER_G
        return
    assert math.isfinite(res.value)
    assert res.converged or method is Method.MEIJER_G
    if res.converged:
        assert -res.err_estimate <= res.value <= 1.0 + res.err_estimate


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-6, 1.0, 1e10, 1e300])
@pytest.mark.parametrize("gamma", [1e-300, 1e-10, 0.01, 0.5, 2.0, 100.0, 1e10, 1e300])
def test_oracle_converges_in_range_on_extreme_grid(gamma, p):
    res = laplace_frechet_oracle(Shape(gamma), p)
    assert res.converged
    assert -res.err_estimate <= res.value <= 1.0 + res.err_estimate


@settings(max_examples=200, derandomize=True, deadline=None)
@given(l=st.integers(1, 50), k=st.integers(1, 50),
       log_p1=st.floats(-700.0, 700.0), log_p2=st.floats(-700.0, 700.0),
       method=st.sampled_from([Method.AUTO, Method.QUADRATURE]))
@example(l=3, k=4, log_p1=0.5, log_p2=0.5001, method=Method.AUTO)
@example(l=1, k=50, log_p1=-650.0, log_p2=-649.9, method=Method.QUADRATURE)
def test_converged_values_are_monotone_in_p(l, k, log_p1, log_p2, method):
    # L(p) = E exp(-p X) decreases in p: L(p1) >= L(p2) for p1 < p2, up to
    # both error estimates
    p1, p2 = sorted([math.exp(log_p1), math.exp(log_p2)])
    assume(p1 < p2)
    shape = RationalShape(l, k)
    r1 = laplace_frechet(LaplaceQuery(shape, p1, method))
    r2 = laplace_frechet(LaplaceQuery(shape, p2, method))
    if r1.converged and r2.converged:
        assert r1.value >= r2.value - (r1.err_estimate + r2.err_estimate)


# Arguments down to the smallest subnormal and up to the largest float,
# shapes and indices down to 1e-10, and q up to the largest float below 1.
_XS = [5e-324, 1e-320, 1e-307, 1e-300, 1e-100, 1e-10, 0.5, 1.0, 2.0, 1e10, 1e100,
       1e300, 1.7e308]
_GAMMAS = [1e-10, 1e-6, 1e-3, 0.01, 0.5, 1.0, 3.0, 100.0, 1e10, 1e300]
_ALPHAS = [1e-10, 1e-6, 1e-3, 0.01, 0.25, 0.5, 0.9, 1.0 - 1e-12]
_QS = [5e-324, 1e-300, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 1.1e-16]


def _orders(bound):
    return [-1e300, -1e3, -200.0, -1.0, 0.0, 0.5 * bound, bound * (1.0 - 1e-12),
            bound, 2.0 * bound]


@pytest.mark.parametrize("call, grid", [
    (lambda g, x: frechet_pdf(Shape(g), x), list(itertools.product(_GAMMAS, _XS))),
    (lambda g, x: frechet_cdf(Shape(g), x), list(itertools.product(_GAMMAS, _XS))),
    (lambda g, q: frechet_quantile(Shape(g), q), list(itertools.product(_GAMMAS, _QS))),
    (lambda a, t: levy_asymptotic(LevyIndex(a), t), list(itertools.product(_ALPHAS, _XS))),
    (lambda g, x, t: frechet_kernel(FrechetKernelParams(Shape(g), x, t)),
     list(itertools.product(_GAMMAS, _XS, _XS))),
    (lambda g, mu: frechet_moment(Shape(g), mu),
     [(g, mu) for g in _GAMMAS for mu in _orders(g)]),
    (lambda a, mu: levy_moment(LevyIndex(a), mu),
     [(a, mu) for a in _ALPHAS for mu in _orders(a)]),
], ids=["frechet_pdf", "frechet_cdf", "frechet_quantile", "levy_asymptotic",
        "frechet_kernel", "frechet_moment", "levy_moment"])
def test_scalar_api_is_finite_or_raises_library_error(call, grid):
    # every call returns a finite float or raises a library error: never a
    # raw OverflowError, an inf, a NaN or a numpy RuntimeWarning
    for args in grid:
        try:
            value = call(*args)
        except FrechetLaplaceError:
            continue
        assert math.isfinite(value), args


@pytest.mark.parametrize("call, rows", [
    (lambda g, x: frechet_pdf(Shape(g), x), [(g, [0.0] + _XS) for g in _GAMMAS]),
    (lambda _, x: levy_pdf_half(x), [(None, _XS)]),
], ids=["frechet_pdf", "levy_pdf_half"])
def test_density_arrays_are_finite_or_raise_library_error(call, rows):
    # the densities on an ndarray of the extreme arguments: a finite array,
    # or a library error where some element's float call raises one; never
    # an inf, a NaN or a numpy RuntimeWarning
    for arg, xs in rows:
        raising = []
        for x in xs:
            try:
                call(arg, x)
            except FrechetLaplaceError:
                raising.append(x)
        try:
            values = call(arg, np.array(xs))
        except FrechetLaplaceError:
            assert raising, arg
            continue
        assert not raising, (arg, raising)
        assert values.shape == (len(xs),) and np.isfinite(values).all(), arg
