"""Property tests over whole parameter ranges (need hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from randqpe import heaviside  # noqa: E402


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
