"""Property tests over whole parameter ranges (need hypothesis)."""

import math

import numpy as np
import pytest
from scipy import special

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from randqpe import heaviside, specfun  # noqa: E402


@settings(max_examples=30, deadline=None, database=None)
@given(delta=st.floats(0.01, 1.5), eps=st.floats(0.02, 0.3))
def test_optimized_filter_certified_and_no_worse_than_equal_split(delta, eps):
    params = heaviside.optimize_split(delta, eps)
    rep = heaviside.certification_report(heaviside.build_fourier(params))
    assert rep["band_ok"] and rep["range_ok"] and rep["weight_ok"]
    total = 2.0 * eps
    equal = heaviside.select_parameters(delta, total / 3.0, total / 3.0,
                                        total - total / 3.0 - total / 3.0)
    assert params.d <= equal.d


@settings(max_examples=25, deadline=None, database=None)
@given(beta=st.floats(1.0001e8, 1e9))
def test_bessel_recurrence_matches_scipy_above_cutoff(beta):
    # orders up to 4 sqrt(beta) reach ~3e-4 of the peak, past the filter's use;
    # scipy gives no usable reference near 2e9, so stop at 1e9
    nmax = math.ceil(4.0 * math.sqrt(beta))
    ref = special.ive(np.arange(nmax + 1), beta)
    seq = specfun.bessel_i_scaled_sequence(nmax, beta)
    assert np.max(np.abs(seq - ref)) <= 1e-10 * ref[0]
