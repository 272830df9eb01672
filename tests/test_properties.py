"""Property tests over whole parameter ranges (need hypothesis)."""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from scipy import special

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from randqpe import backend, heaviside, pauli, specfun  # noqa: E402
from randqpe.cli import run  # noqa: E402


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


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                    st.sampled_from(["1e308", "-1e308", "0", "-0.0", "1_0", "0x1"]),
                    _TEXT)
_WORD = st.one_of(st.text("IXYZixyzQ", min_size=1, max_size=4), _TEXT)
_HAM_LINE = st.one_of(st.tuples(_NUMBER, _WORD).map(" ".join), _TEXT)


@settings(max_examples=200, deadline=None, database=None)
@given(lines=st.lists(_HAM_LINE, max_size=6))
def test_parse_hamiltonian_raises_only_value_error(lines):
    try:
        h = pauli.parse_hamiltonian("\n".join(lines))
    except ValueError:
        return
    assert math.isfinite(h.lam) and h.lam > 0


_AMP_LINE = st.one_of(st.tuples(_NUMBER, _NUMBER).map(" ".join), _TEXT)


@settings(max_examples=200, deadline=None, database=None)
@given(kind=st.sampled_from(["basis", "file", "groundmix", "other"]),
       arg=_TEXT, bits=st.text("01x", max_size=13),
       amp_lines=st.lists(_AMP_LINE, max_size=9), with_h=st.booleans())
def test_prepare_state_raises_only_value_or_os_error(kind, arg, bits, amp_lines, with_h):
    h = pauli.parse_hamiltonian("0.5 XZ\n-0.3 ZI\n0.2 YY") if with_h else None
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "basis":
            spec = "basis:" + bits
        elif kind == "file":
            path = Path(tmp) / "amps.txt"
            path.write_text("\n".join(amp_lines), encoding="utf-8")
            spec = f"file:{path}" if amp_lines else "file:" + arg
        else:
            spec = (kind + ":" if kind == "groundmix" else "") + arg
        try:
            state = backend.prepare_state(spec, h)
        except (ValueError, OSError):
            return
    assert state.width <= 12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10


_SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-5, 1e-200, 1e300)


def _arg(lo, hi):
    """A float option: one time in eight a special value, else a bounded range
    that keeps d small and the run fast."""
    return st.tuples(st.integers(0, 7), st.sampled_from(_SPECIAL), st.floats(lo, hi)).map(
        lambda x: x[1] if x[0] == 0 else x[2])


def _exit_code(argv, options):
    # --opt=value, since argparse reads a bare "-inf" or "-1e-05" as an option
    argv = argv + [f"--{name}={value!r}" for name, value in options.items()]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return run(argv)


def _ham_file(tmp_path_factory):
    ham = tmp_path_factory.getbasetemp() / "ham.txt"
    ham.write_text("0.6 XZ\n-0.4 ZI\n0.3 YY\n")
    return ham


@settings(max_examples=60, deadline=None, database=None)
@given(lam=_arg(1.0, 20.0), Delta=_arg(0.02, 0.1), eta=_arg(0.5, 1.0),
       eps=_arg(1e-3, 0.24), b=_arg(1.0, 20.0))
def test_resource_curve_exits_0_2_or_3(lam, Delta, eta, eps, b):
    assert _exit_code(["resource-curve", "--ngrid=3"], {
        "lambda": lam, "Delta": Delta, "eta": eta, "eps": eps, "b": b}) in (0, 2, 3)


@settings(max_examples=60, deadline=None, database=None)
@given(Delta=_arg(0.02, 0.12), eta=_arg(0.5, 1.0), eps=_arg(1e-3, 0.24),
       b=_arg(1.0, 20.0), g=_arg(1.0, 1e6),
       rmode=st.sampled_from(["constant", "total", "gated"]))
def test_plan_exits_0_2_or_3(Delta, eta, eps, b, g, rmode, tmp_path_factory):
    ham = _ham_file(tmp_path_factory)
    # a budget goes with 'gated' only: elsewhere it exits 2 before any solve
    options = {"Delta": Delta, "eta": eta, "eps": eps, "b": b}
    if rmode == "gated":
        options["g"] = g
    assert _exit_code(["plan", f"--ham={ham}", "--theta=0.1", f"--rmode={rmode}"],
                      options) in (0, 2, 3)


@settings(max_examples=60, deadline=None, database=None)
@given(delta=_arg(0.05, 1.5), eps=_arg(1e-3, 0.3))
def test_fourier_exits_0_2_or_3(delta, eps):
    assert _exit_code(["fourier"], {"delta": delta, "eps": eps}) in (0, 2, 3)


@settings(max_examples=60, deadline=None, database=None)
@given(t=_arg(-4.0, 4.0), r=st.integers(-2, 6), M=st.integers(-2, 10),
       count=st.integers(-2, 3))
def test_sample_lcu_exits_0_2_or_3(t, r, M, count, tmp_path_factory):
    argv = ["sample-lcu", f"--ham={_ham_file(tmp_path_factory)}", "--seed=5"]
    assert _exit_code(argv, {"t": t, "r": r, "M": M, "count": count}) in (0, 2, 3)


@settings(max_examples=40, deadline=None, database=None)
@given(Delta=_arg(0.2, 0.6), eta=_arg(0.8, 1.0), eps=_arg(0.05, 0.2), b=_arg(1.0, 1.5),
       theta=_arg(0.01, 0.3), state=st.sampled_from(["basis:01", "groundmix:0.8"]))
def test_estimate_cdf_exits_0_2_or_3(Delta, eta, eps, b, theta, state, tmp_path_factory):
    argv = ["estimate-cdf", f"--ham={_ham_file(tmp_path_factory)}", f"--state={state}",
            "--x=-0.5,0.5", "--seed=3"]
    assert _exit_code(argv, {"Delta": Delta, "eta": eta, "eps": eps, "b": b,
                             "theta": theta}) in (0, 2, 3)


@settings(max_examples=40, deadline=None, database=None)
@given(Delta=_arg(0.2, 0.6), eta=_arg(0.8, 1.0), eps=_arg(0.05, 0.2), b=_arg(1.0, 1.5),
       xi=_arg(0.05, 0.5), state=st.sampled_from(["basis:01", "groundmix:0.8"]))
def test_ground_energy_exits_0_2_or_3(Delta, eta, eps, b, xi, state, tmp_path_factory):
    argv = ["ground-energy", f"--ham={_ham_file(tmp_path_factory)}", f"--state={state}",
            "--seed=3"]
    assert _exit_code(argv, {"Delta": Delta, "eta": eta, "eps": eps, "b": b,
                             "xi": xi}) in (0, 2, 3)
