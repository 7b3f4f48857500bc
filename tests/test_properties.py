"""Property tests of the Laplace transform over shapes l/k with l, k <= 50 and
p = e^t, |t| <= 700: the whole binary64 range of p, where the closed form's
prefactor and argument leave binary64 long before L does."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frechet_laplace.distributions import RationalShape  # noqa: E402
from frechet_laplace.errors import FrechetLaplaceError  # noqa: E402
from frechet_laplace.laplace import LaplaceQuery, Method, laplace_frechet  # noqa: E402


@settings(max_examples=200, derandomize=True, deadline=None)
@given(l=st.integers(1, 50), k=st.integers(1, 50),
       log_p=st.floats(-700.0, 700.0),
       method=st.sampled_from([Method.MEIJER_G, Method.AUTO]))
def test_value_is_finite_and_converged_values_in_range(l, k, log_p, method):
    # a call raises a library error or returns a finite value; a converged
    # value is a transform of a probability law, in [0, 1] up to its
    # estimate (the oracle returns 1 + 2 ulp at tiny p)
    try:
        res = laplace_frechet(LaplaceQuery(RationalShape(l, k), math.exp(log_p), method))
    except FrechetLaplaceError:
        return
    assert math.isfinite(res.value)
    if res.converged:
        assert -res.err_estimate <= res.value <= 1.0 + res.err_estimate
