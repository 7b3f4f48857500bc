"""Property tests of the Laplace transform over shapes l/k with l, k <= 50 and
p = e^t, |t| <= 700: the whole binary64 range of p, where the closed form's
prefactor and argument leave binary64 long before L does; and the quadrature
oracle on a grid of extreme real shapes and p."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from frechet_laplace.distributions import RationalShape, Shape  # noqa: E402
from frechet_laplace.errors import FrechetLaplaceError  # noqa: E402
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
