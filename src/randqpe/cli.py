"""Command-line front end.

Subcommands: fourier, plan, sample-lcu, estimate-cdf, ground-energy,
resource-curve.  Exit status 0 on success, 2 on validation errors, 3 on
numeric failures.  Stochastic subcommands require --seed and log the
seed, sample count, and plan hash in their output header.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import estimator, lcu, resources
from ._rng import derive_rng
from .backend import prepare_state
from .heaviside import build_fourier, certification_report, optimize_split
from .pauli import parse_hamiltonian
from .runtime import FeasibilityError


def _plan_hash(plan) -> str:
    blob = json.dumps({
        "tau": plan.tau, "delta": plan.delta, "eta": plan.eta, "eps": plan.eps,
        "theta": plan.theta, "b": plan.b, "gamma": plan.gamma, "M": plan.M,
        "rmode": plan.rmode, "d": plan.fourier.d, "beta": plan.fourier.beta,
        "c_sample": plan.complexities.c_sample, "A": plan.complexities.weight_A,
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _plan_dict(plan) -> dict:
    out = {
        "lambda": plan.h.lam,
        "width": plan.h.width,
        "tau": plan.tau,
        "delta": plan.delta,
        "eta": plan.eta,
        "eps": plan.eps,
        "eps_total": plan.eps_total,
        "theta": plan.theta,
        "b": plan.b,
        "gamma": plan.gamma,
        "M": plan.M,
        "rmode": plan.rmode,
        "d": plan.fourier.d,
        "beta": plan.fourier.beta,
        "fourier_weight": plan.fourier.weight,
        "weight_A": plan.complexities.weight_A,
        "c_sample": plan.complexities.c_sample,
        "c_gate_expected": plan.complexities.c_gate,
        "c_total": plan.complexities.c_total,
        "plan_hash": _plan_hash(plan),
    }
    if plan.fourier.d <= 512:
        out["runtime_vector"] = {str(k): v for k, v in sorted(plan.runtime_map().items())}
    else:
        out["runtime_min"] = int(plan.rvec.min())
        out["runtime_max"] = int(plan.rvec.max())
    return out


def _write(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_fourier(args) -> int:
    params = optimize_split(args.delta, args.eps)
    series = build_fourier(params)
    rows = []
    for j in series.indices():
        c = series.coeff(j)
        rows.append(f"{j},{c.real!r},{c.imag!r}")
    _write("\n".join(rows) + "\n", args.out)
    rep = certification_report(series)
    for key in ("delta", "eps_total", "d", "beta", "band_error", "band_ok",
                "range_min", "range_max", "range_ok", "odd_weight",
                "odd_weight_bound", "weight_ok"):
        print(f"# {key} = {rep[key]}", file=sys.stderr)
    return 0


def _build_plan_from_args(args, theta=None):
    h = parse_hamiltonian(Path(args.ham).read_text())
    plan = estimator.build_plan(h, args.Delta, args.eta, args.eps,
                                theta if theta is not None else args.theta,
                                b=args.b, rmode=args.rmode, g=args.g)
    return h, plan


def _cmd_plan(args) -> int:
    _, plan = _build_plan_from_args(args)
    _write(json.dumps(_plan_dict(plan), indent=2) + "\n", args.out)
    return 0


def _cmd_sample_lcu(args) -> int:
    h = parse_hamiltonian(Path(args.ham).read_text())
    rng = derive_rng(args.seed)
    hhat = h.normalized_distribution()
    chunks = [f"# seed = {args.seed}", f"# count = {args.count}",
              f"# t = {args.t!r} r = {args.r} M = {args.M}"]
    for i in range(args.count):
        u = lcu.sample_unitary(hhat, args.t, args.r, args.M, rng)
        chunks.append(u.serialize() + "---")
    _write("\n".join(chunks) + "\n", args.out)
    return 0


def _cmd_estimate_cdf(args) -> int:
    h, plan = _build_plan_from_args(args)
    state = prepare_state(args.state, h)
    rng = derive_rng(args.seed)
    samples = estimator.collect_samples(plan, state, rng)
    xs = [float(v) for v in args.x.split(",") if v]
    lines = [f"# seed = {args.seed}",
             f"# c_sample = {plan.complexities.c_sample}",
             f"# plan_hash = {_plan_hash(plan)}",
             "x,re,im"]
    for x in xs:
        z = estimator.acdf_estimate(samples, x)
        lines.append(f"{x!r},{z.real!r},{z.imag!r}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_ground_energy(args) -> int:
    h = parse_hamiltonian(Path(args.ham).read_text())
    state = prepare_state(args.state, h)
    rng = derive_rng(args.seed)
    tau = math.pi / (2.0 * h.lam / args.b + args.Delta)
    delta = 0.5 * tau * args.Delta
    theta = args.xi / estimator.plan_queries(tau, h.lam, delta)
    plan = estimator.build_plan(h, args.Delta, args.eta, args.eps, theta,
                                b=args.b, rmode=args.rmode, g=args.g,
                                delta_scale=0.5)
    res = estimator.ground_energy(h, state, args.Delta, args.eta, args.xi, rng,
                                  seed=args.seed, plan=plan)
    out = res.to_json_dict()
    out["plan_hash"] = _plan_hash(plan)
    _write(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def _cmd_resource_curve(args) -> int:
    eps_list = [float(v) for v in args.eps.split(",") if v]
    for eps in eps_list:
        points = resources.tradeoff_curve(args.lam, args.Delta, args.eta, [eps],
                                          b=args.b, n_grid=args.ngrid)
        comments = [f"lambda = {args.lam!r} Delta = {args.Delta!r} "
                    f"eta = {args.eta!r} eps = {eps!r} b = {args.b!r}"]
        text = "\n".join(resources.curve_csv_lines(points, comments)) + "\n"
        if args.out and len(eps_list) > 1:
            path = Path(f"{args.out}_eps{eps:g}_b{args.b:g}.csv")
            path.write_text(text)
        else:
            _write(text, args.out)
    return 0


def _add_plan_args(p, need_theta=True):
    p.add_argument("--ham", required=True, help="Hamiltonian text file")
    p.add_argument("--Delta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--rmode", choices=("constant", "total", "gated"), default="total")
    p.add_argument("--g", type=float, default=None, help="gate budget for rmode=gated")
    if need_theta:
        p.add_argument("--theta", type=float, required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="randqpe")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fourier", help="certified step-filter coefficients as CSV")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_fourier)

    p = sub.add_parser("plan", help="assemble and print a sampling plan")
    _add_plan_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("sample-lcu", help="serialized randomly compiled unitaries")
    p.add_argument("--ham", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sample_lcu)

    p = sub.add_parser("estimate-cdf", help="ACDF estimates at thresholds")
    _add_plan_args(p)
    p.add_argument("--state", required=True)
    p.add_argument("--x", required=True, help="comma-separated thresholds")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_estimate_cdf)

    p = sub.add_parser("ground-energy", help="bisection ground-state energy estimate")
    _add_plan_args(p, need_theta=False)
    p.add_argument("--state", required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_ground_energy)

    p = sub.add_parser("resource-curve", help="sample/gate trade-off CSV")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--Delta", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated eps values")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--ngrid", type=int, default=40)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_resource_curve)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "eps", None) is None and args.command in ("plan", "estimate-cdf", "ground-energy"):
        args.eps = args.eta / 4.0
    try:
        return args.fn(args)
    except FeasibilityError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
