import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import randqpe
from randqpe import estimator
from randqpe._rng import derive_rng
from randqpe.backend import prepare_state
from randqpe.cli import _plan_hash, run
from randqpe.pauli import parse_hamiltonian


@pytest.fixture
def ham_z(tmp_path):
    p = tmp_path / "z.txt"
    p.write_text("1.0 Z\n")
    return str(p)


@pytest.fixture
def ham_mix(tmp_path):
    p = tmp_path / "mix.txt"
    p.write_text("0.6 XZ\n-0.4 ZI\n0.3 YY\n")
    return str(p)


class TestFourier:
    def test_first_row_and_exit(self, tmp_path, capsys):
        out = tmp_path / "coeffs.csv"
        assert run(["fourier", "--delta", "0.1", "--eps", "0.1",
                    "--out", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        assert first == "0,0.5,0.0"
        report = capsys.readouterr().err
        assert "band_ok = True" in report and "weight_ok = True" in report

    def test_validation_exit_2(self):
        assert run(["fourier", "--delta", "-0.1", "--eps", "0.1"]) == 2

    @pytest.mark.parametrize("delta, eps", [("0.1", "1e-200"), ("0.3", "1e300")])
    def test_eps_out_of_range_exit_2(self, capsys, delta, eps):
        # eps^2 would underflow to 0 or overflow in the filter parameters
        assert run(["fourier", "--delta", delta, "--eps", eps]) == 2
        err = capsys.readouterr().err
        assert f"eps = {float(eps)!r} lies outside [1e-150, 1e+150]" in err

    @pytest.mark.parametrize("eps", ["1e-150", "1e150"])
    def test_eps_range_ends_run(self, eps):
        assert run(["fourier", "--delta", "0.3", "--eps", eps]) == 0


class TestPlan:
    def test_plan_json(self, ham_mix, tmp_path):
        out = tmp_path / "plan.json"
        assert run(["plan", "--ham", ham_mix, "--Delta", "0.3", "--eta", "0.8",
                    "--eps", "0.2", "--theta", "0.05", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["lambda"] == pytest.approx(1.3)
        assert data["c_sample"] >= 1
        assert "plan_hash" in data and "runtime_vector" in data

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["plan", "--ham", str(tmp_path / "nope.txt"), "--Delta", "0.3",
                    "--eta", "0.8", "--eps", "0.2", "--theta", "0.05"]) == 2


class TestSampleLcu:
    def test_stream_deterministic(self, ham_mix, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["sample-lcu", "--ham", ham_mix, "--t", "-1.5", "--r", "5",
                "--M", "8", "--count", "3", "--seed", "99"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        body = a.read_text()
        assert body.count("---") == 3
        assert "ROT " in body and "# seed = 99" in body

    def test_stream_golden(self, ham_mix, tmp_path):
        # digest taken before the sampler kept its draw as arrays
        out = tmp_path / "a.txt"
        assert run(["sample-lcu", "--ham", ham_mix, "--t", "-1.5", "--r", "5", "--M", "8",
                    "--count", "3", "--seed", "99", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "47e2f073527681a1d1688b030a45d2ac0c48564ba6b4eb50ac665b2e718baec0")

    def test_seed_required(self, ham_mix, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sample-lcu", "--ham", ham_mix, "--t", "1", "--r", "2", "--M", "4"])
        assert exc.value.code == 2


class TestEstimateCdf:
    def test_values_and_header(self, tmp_path):
        # eigenvalue exactly 0 for basis:01, so the jump sits mid-window
        ham = tmp_path / "mid.txt"
        ham.write_text("0.5 ZI\n0.5 ZZ\n")
        out = tmp_path / "cdf.csv"
        assert run(["estimate-cdf", "--ham", str(ham), "--state", "basis:01",
                    "--Delta", "0.2", "--eta", "1.0", "--eps", "0.2",
                    "--theta", "0.05", "--x=-0.9,0.9", "--seed", "4",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed = 4"
        assert any(line.startswith("# plan_hash") for line in lines)
        rows = [line for line in lines if not line.startswith("#")][1:]
        lo = float(rows[0].split(",")[1])
        hi = float(rows[1].split(",")[1])
        # ACDF near 0 below the jump, near 1 above
        assert lo < 0.3 and hi > 0.7

    @pytest.mark.parametrize("opt", ["--x=", "--x=,"])
    def test_empty_threshold_list_exit_2(self, ham_z, capsys, monkeypatch, opt):
        def no_sampling(*args):
            raise AssertionError("collect_samples ran for an empty threshold list")

        monkeypatch.setattr(estimator, "collect_samples", no_sampling)
        assert run(["estimate-cdf", "--ham", ham_z, "--state", "basis:0", "--Delta", "0.2",
                    "--eta", "1", "--eps", "0.2", "--theta", "0.05", opt, "--seed", "4"]) == 2
        out = capsys.readouterr()
        assert f"--x needs at least one value, got {opt[4:]!r}" in out.err and out.out == ""

    @pytest.mark.parametrize("opt, bad", [("--x=0.1,nan,5", "nan"), ("--x=0.1,-5", "-5.0")])
    def test_threshold_outside_window_exit_2_before_sampling(self, ham_z, capsys,
                                                              monkeypatch, opt, bad):
        calls = []
        collect = estimator.collect_samples

        def counting(*args):
            calls.append(1)
            return collect(*args)

        monkeypatch.setattr(estimator, "collect_samples", counting)
        assert run(["estimate-cdf", "--ham", ham_z, "--state", "basis:0", "--Delta", "0.2",
                    "--eta", "1", "--eps", "0.2", "--theta", "0.05", opt, "--seed", "4"]) == 2
        out = capsys.readouterr()
        assert f"threshold x={bad} outside certified window +-1.428" in out.err
        assert out.out == "" and calls == []


    def test_threshold_list_that_starts_negative_runs_in_equals_form(self, ham_z, capsys,
                                                                       monkeypatch):
        assert run(["estimate-cdf", "--ham", ham_z, "--state", "basis:0", "--Delta", "0.2",
                    "--eta", "1", "--eps", "0.2", "--theta", "0.05", "--x=-0.2,0.1",
                    "--seed", "4"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line and not line.startswith("#")]
        assert rows[0] == "x,re,im" and [r.split(",")[0] for r in rows[1:]] == ["-0.2", "0.1"]
        monkeypatch.setenv("COLUMNS", "200")  # one help line, so no wrap splits the example
        with pytest.raises(SystemExit) as info:
            run(["estimate-cdf", "--help"])
        assert info.value.code == 0 and "--x=-0.2,0.1" in capsys.readouterr().out


class TestGroundEnergy:
    def test_z_estimate(self, ham_z, tmp_path):
        out = tmp_path / "res.json"
        assert run(["ground-energy", "--ham", ham_z, "--state", "basis:1",
                    "--Delta", "0.1", "--eta", "1", "--xi", "0.1",
                    "--seed", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert -1.1 <= data["estimate"] <= -0.9
        assert data["seed"] == 7
        assert data["c_sample"] >= 1 and data["s_queries"] >= 1

    def test_byte_identical_reruns(self, ham_z, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["ground-energy", "--ham", ham_z, "--state", "basis:1",
                "--Delta", "0.1", "--eta", "1", "--xi", "0.1", "--seed", "21"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()


    def test_library_and_cli_agree(self, ham_mix, tmp_path):
        out = tmp_path / "res.json"
        assert run(["ground-energy", "--ham", ham_mix, "--state", "groundmix:0.6",
                    "--Delta", "0.2", "--eta", "0.6", "--xi", "0.1", "--seed", "5",
                    "--out", str(out)]) == 0
        h = parse_hamiltonian(Path(ham_mix).read_text())
        res = estimator.ground_energy(h, prepare_state("groundmix:0.6", h), 0.2, 0.6,
                                      0.1, derive_rng(5))
        expect = dict(res.to_json_dict(), seed=5, plan_hash=_plan_hash(res.plan))
        assert out.read_text() == json.dumps(expect, indent=2) + "\n"
        assert res.theta == res.plan.theta == 0.1 / res.s_queries

    def test_b_above_one_brackets_within_window(self, tmp_path):
        # ||H|| = 1/sqrt(2) <= lambda/b = 0.714: the bisection must stay inside
        # the window certified for that promise, not reach out to tau lambda
        ham = tmp_path / "zx.txt"
        ham.write_text("0.5 Z\n0.5 X\n")
        out = tmp_path / "res.json"
        assert run(["ground-energy", "--ham", str(ham), "--state", "groundmix:0.9",
                    "--Delta", "0.05", "--eta", "0.8", "--xi", "0.1", "--seed", "3",
                    "--b", "1.4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert abs(data["estimate"] + 2 ** -0.5) <= 0.05
        assert data["interval_lo"] <= -2 ** -0.5 <= data["interval_hi"]


class TestResourceCurve:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0",
                    "--eta", "1", "--eps", "0.2", "--ngrid", "5",
                    "--out", str(out)]) == 0
        lines = [line for line in out.read_text().splitlines()
                 if not line.startswith("#")]
        assert lines[0] == "eps,b,g_target,c_gate,c_sample_over_ln,c_total_over_ln,flag_optimal"
        assert len(lines) >= 5
        assert any(line.endswith(",1") for line in lines[1:])

    def test_bad_eps_exit_2(self):
        assert run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0",
                    "--eta", "1", "--eps", "0.6"]) == 2

    @pytest.mark.parametrize("opt, frag", [
        ("--eps=", "--eps needs at least one value, got ''"),
        ("--eps=,", "--eps needs at least one value, got ','"),
        ("--ngrid=-3", "n_grid must be >= 0, got -3"),
    ])
    def test_edge_inputs_exit_2(self, capsys, opt, frag):
        argv = {"--eps": "--eps=0.2", "--ngrid": "--ngrid=3"}
        argv[opt.split("=")[0]] = opt
        assert run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0", "--eta", "1",
                    *argv.values()]) == 2
        out = capsys.readouterr()
        assert frag in out.err and out.out == ""

    def test_out_one_file_per_eps(self, tmp_path):
        out = tmp_path / "curve"
        assert run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0", "--eta", "1",
                    "--eps", "0.1,0.2", "--ngrid", "3", "--out", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "curve_eps0.1_b1.csv", "curve_eps0.2_b1.csv"]

    @pytest.mark.parametrize("first, second", [("0.1", "0.1000001"), ("0.2", "0.2")])
    def test_out_name_collision_exit_2(self, tmp_path, capsys, first, second):
        # both eps values format as the same {eps:g}: the second curve would
        # replace the first
        out = tmp_path / "curve"
        assert run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0", "--eta", "1",
                    "--eps", f"{first},{second}", "--ngrid", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--eps values {first} and {second} would both write" in err
        assert "curve_eps" in err and list(tmp_path.iterdir()) == []

    def test_filter_degree_over_cap_exit_2(self, capsys):
        # d would be about 1.2e12: 8.7 TiB for the first array of length d
        assert run(["resource-curve", "--lambda", "1511", "--Delta", "1e-9",
                    "--eta", "1", "--eps", "0.2", "--b", "1", "--ngrid", "3"]) == 2
        err = capsys.readouterr().err
        assert "filter degree d = 1198471035830 exceeds the cap 8388608" in err


@pytest.mark.parametrize("rmode", ["constant", "total"])
def test_gate_budget_outside_gated_exit_2(ham_mix, capsys, rmode):
    # a budget g that the runtime vector would ignore is an input error
    assert run(["plan", "--ham", ham_mix, "--Delta", "0.3", "--eta", "0.8",
                "--eps", "0.2", "--theta", "0.05", "--rmode", rmode,
                "--g", "1.0"]) == 2
    assert f"gate budget g applies to rmode 'gated' only, not '{rmode}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, frag", [
    (["resource-curve", "--lambda", "1", "--Delta", "3", "--eta", "1", "--eps", "0.2",
      "--ngrid", "3"], "need Delta <= 2 lambda / b"),
    (["resource-curve", "--lambda", "nan", "--Delta", "1", "--eta", "1", "--eps", "0.2",
      "--ngrid", "3"], "lambda must be positive"),
    (["plan", "--ham", None, "--Delta", "0.3", "--eta", "0.8", "--eps", "0.2",
      "--theta", "0.05", "--b", "nan"], "b must be >= 1"),
], ids=["Delta-above-2lambda", "lambda-nan", "b-nan"])
def test_lambda_Delta_b_errors_name_the_input(ham_mix, capsys, argv, frag):
    # not the derived delta = tau Delta that the filter would reject later
    assert run([ham_mix if a is None else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert frag in err and "delta must lie" not in err


def test_gated_infeasible_exit_3(ham_mix):
    assert run(["plan", "--ham", ham_mix, "--Delta", "0.3", "--eta", "0.8",
                "--eps", "0.2", "--theta", "0.05", "--rmode", "gated",
                "--g", "1.0"]) == 3


def test_out_of_memory_exit_3(ham_mix, capsys):
    # r = 10^15 segments need 8 PB of uniforms, more than a 48-bit address
    # space maps, so the first allocation fails at once
    assert run(["sample-lcu", "--ham", ham_mix, "--t", "1.0", "--r", "1000000000000000",
                "--M", "8", "--seed", "1"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error (numeric): out of memory: ")
    assert out.err.count("\n") == 1


def test_no_run_loads_scipy_optimize(ham_z):
    # a fresh interpreter: this one has scipy.optimize loaded by the tests
    code = f"""
import io, sys
from contextlib import redirect_stdout
import randqpe.cli
with redirect_stdout(io.StringIO()):
    codes = [randqpe.cli.run(["resource-curve", "--lambda", "4.0", "--Delta", "1.0",
                              "--eta", "1", "--eps", "0.2", "--ngrid", "5"]),
             randqpe.cli.run(["ground-energy", "--ham", {ham_z!r}, "--state", "basis:1",
                              "--Delta", "0.1", "--eta", "1", "--xi", "0.1", "--seed", "7"])]
print(codes, "scipy.optimize" in sys.modules)
"""
    src = str(Path(randqpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0] False\n"


@pytest.mark.parametrize("text", ["1e308 0\n1e308 0\n", "1e-200 0\n1e-200 0\n"],
                         ids=["huge", "tiny"])
def test_amplitude_file_norm_neither_overflows_nor_underflows(ham_z, tmp_path, text):
    amps = tmp_path / "amps.txt"
    amps.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["estimate-cdf", "--ham", ham_z, "--state", f"file:{amps}",
                    "--Delta", "0.5", "--eta", "0.5", "--eps", "0.2", "--theta", "0.1",
                    "--x", "0.1", "--seed", "1", "--out", str(tmp_path / "cdf.csv")]) == 0
        state = prepare_state(f"file:{amps}")
    assert state.amplitudes == pytest.approx([2 ** -0.5, 2 ** -0.5], rel=1e-15)


class TestInputErrorsExit2:
    def test_wide_basis_state(self, ham_z, capsys):
        assert run(["ground-energy", "--ham", ham_z, "--state", "basis:" + "0" * 13,
                    "--Delta", "0.1", "--eta", "1", "--xi", "0.1", "--seed", "1"]) == 2
        assert "width 13 exceeds cap 12" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, opts", [
        ("ground-energy", ["--xi", "0.1"]),
        ("estimate-cdf", ["--eps", "0.2", "--theta", "0.05", "--x=0.1"]),
    ])
    def test_state_width_mismatch_exit_2_before_the_filter(self, ham_z, capsys, monkeypatch,
                                                           cmd, opts):
        calls, window = [], estimator._window

        def recording(*args, **kwargs):
            calls.append(args)
            return window(*args, **kwargs)

        monkeypatch.setattr(estimator, "_window", recording)
        # lambda = 1 and Delta = 1e-6: this filter takes seconds to build
        assert run([cmd, "--ham", ham_z, "--state", "basis:01", "--Delta", "1e-6",
                    "--eta", "1", *opts, "--seed", "1"]) == 2
        out = capsys.readouterr()
        assert "Hamiltonian and state widths differ (1 and 2 qubits)" in out.err
        assert out.out == "" and calls == []

    def test_empty_amplitude_file(self, ham_z, tmp_path, capsys):
        amps = tmp_path / "amps.txt"
        amps.write_text("")
        assert run(["ground-energy", "--ham", ham_z, "--state", f"file:{amps}",
                    "--Delta", "0.1", "--eta", "1", "--xi", "0.1", "--seed", "1"]) == 2
        assert "no amplitudes" in capsys.readouterr().err

    @pytest.mark.parametrize("text, frag", [
        ("nan X\n", "line 1: non-finite"),
        ("inf X\n", "line 1: non-finite"),
        ("1e308 X\n1e308 Z\n", "line 2: lambda overflows"),
    ])
    def test_non_finite_hamiltonian(self, tmp_path, capsys, text, frag):
        ham = tmp_path / "h.txt"
        ham.write_text(text)
        assert run(["plan", "--ham", str(ham), "--Delta", "0.1", "--eta", "1",
                    "--theta", "0.1"]) == 2
        assert frag in capsys.readouterr().err

    @pytest.mark.parametrize("opt, frag", [
        ("--t=nan", "t = nan is not finite"),
        ("--t=inf", "t = inf is not finite"),
        ("--count=-3", "count must be >= 1"),
        ("--count=0", "count must be >= 1"),
    ])
    def test_sample_lcu_edge_inputs(self, ham_mix, capsys, opt, frag):
        argv = {"--t": "--t=-1.5", "--count": "--count=2"}
        argv[opt.split("=")[0]] = opt
        assert run(["sample-lcu", "--ham", ham_mix, "--r", "5", "--M", "8", "--seed", "1",
                    *argv.values()]) == 2
        out = capsys.readouterr()
        assert frag in out.err and out.out == ""

    def test_nan_threshold(self, ham_z, capsys):
        assert run(["estimate-cdf", "--ham", ham_z, "--state", "basis:0", "--Delta", "0.2",
                    "--eta", "1", "--eps", "0.2", "--theta", "0.05", "--x=0.1,nan",
                    "--seed", "4"]) == 2
        assert "threshold x=nan outside certified window" in capsys.readouterr().err
