"""Command line front end.

Subcommands map one-to-one onto the library layers:

    solve         global value of an instance (stationary enumeration or exact method)
    relax         convex relaxation value, optionally with the lifted matrix
    approx        repeated runs of one of the randomized samplers
    bench         the full benchmark protocol, CSV or markdown
    hardness-gen  build a reduction instance from an integer vector
    tail          spherical tail function: forward, inverse, bound audit

Component failures exit 1 with a diagnostic on stderr; argparse usage errors
exit 2 as usual.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .approx import (
    SampleBudgetExceeded,
    approx_ball,
    approx_box_simplified,
    approx_general_fixed,
)
from .bench import run_benchmark, to_csv, to_markdown
from .exact import NotApplicableError, solve_exact
from .hardness import bqp_enumerate, build_hardness, partition_min_imbalance, qcqp_value
from .instance import Geometry, InstanceError, read_instance, write_instance
from .oracle import solve_global
from .relax import NonPositiveValueError, gamma1, lift_ball, lift_box, solve_cr_ball, solve_cr_box
from .tail import tail_bound_check, tail_s, tail_s_inverse

__all__ = ["main"]


def _fmt(x: float) -> str:
    return "%.12g" % x


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_solve(args) -> int:
    inst = read_instance(args.instance)
    if args.exact:
        res = solve_exact(inst)
        _emit_json(
            {
                "method": "exact",
                "value": res.value,
                "x": [float(v) for v in res.x_opt],
                "step_length": res.alpha,
            }
        )
        return 0
    res = solve_global(inst)
    _emit_json(
        {
            "method": "oracle",
            "value": res.value,
            "x": [float(v) for v in res.x_best],
            "note": res.certified_radius,
            "method_trace": res.method_trace,
        }
    )
    return 0


def _cmd_relax(args) -> int:
    inst = read_instance(args.instance)
    solve = solve_cr_ball if inst.geometry is Geometry.BALL else solve_cr_box
    rr = solve(inst, tol=args.tol)
    payload = {
        "geometry": inst.geometry.value,
        "zeta_star": rr.zeta_star,
        "x_star": [float(v) for v in rr.x_star],
        "gap": rr.gap,
        "iterations": rr.iterations,
        "converged": rr.converged,
    }
    if args.lift:
        lft = lift_ball(rr, inst) if inst.geometry is Geometry.BALL else lift_box(rr, inst)
        payload["lift_entries"] = [[float(v) for v in row] for row in lft]
        payload["gamma1"] = gamma1(lft)
    _emit_json(payload)
    return 0


_ALGOS = {
    "ball": approx_ball,
    "general": approx_general_fixed,
    "box": approx_box_simplified,
}


def _cmd_approx(args) -> int:
    inst = read_instance(args.instance)
    run = _ALGOS[args.algo]
    print("run,value,accepted_at,raw_samples,bound_factor")
    for k in range(args.runs):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, k]))
        res = run(inst, args.rho, rng)
        cells = [
            str(k),
            _fmt(res.f_value),
            str(res.accepted_at),
            str(res.raw_samples),
            _fmt(res.bound_r),
        ]
        print(",".join(cells))
    return 0


def _parse_m_values(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _cmd_bench(args) -> int:
    records = run_benchmark(
        n=args.n,
        m_values=_parse_m_values(args.m),
        runs=args.runs,
        rho=args.rho,
        seed=args.seed,
    )
    body = to_markdown(records) if args.format == "md" else to_csv(records)
    if args.out:
        Path(args.out).write_text(body)
    else:
        sys.stdout.write(body)
    return 0


def _cmd_hardness_gen(args) -> int:
    a = np.array([int(tok) for tok in args.a.split(",") if tok], dtype=int)
    art = build_hardness(a)
    write_instance(art.instance, args.out)
    n = a.size
    report = {
        "a": [int(v) for v in a],
        "t_star": art.t_star,
        "beta": art.beta_val,
        "gamma": art.gamma_val,
        "g_residual": art.g_residual,
        "lambda_diag": [float(v) for v in art.lambda_diag],
        "trace_lambda": float(np.sum(art.lambda_diag)),
    }
    if n <= 22:
        lam = np.diag(art.lambda_diag)
        Q = (lam - np.outer(a, a).astype(float)) / 4.0
        bqp = bqp_enumerate(Q)
        report["bqp_value"] = bqp
        report["qcqp_value"] = qcqp_value(Q)
        report["partition_feasible"] = partition_min_imbalance(a) == 0
    Path(args.out).with_suffix(".report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out} and sidecar report")
    return 0


def _cmd_tail(args) -> int:
    if args.mode == "s":
        print(_fmt(tail_s(args.n, args.alpha)))
    elif args.mode == "inv":
        print(_fmt(tail_s_inverse(args.n, args.beta)))
    else:
        rep = tail_bound_check(range(2, args.n_max + 1))
        status = "ok" if rep.ok else "VIOLATED"
        print(
            f"{status}: {rep.checked} points checked, min margin "
            f"{_fmt(rep.min_margin)} at n={rep.argmin_n} alpha={_fmt(rep.argmin_alpha)}"
        )
        if not rep.ok:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxdisp",
        description="weighted maximin dispersion: relaxations, samplers, benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="best stationary point of an instance, or (when "
                       "applicable) its exact solution")
    p.add_argument("instance", help="path to an instance JSON file")
    p.add_argument("--exact", action="store_true", help="use the sign-direction exact method")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("relax", help="solve the convex relaxation")
    p.add_argument("instance")
    p.add_argument("--tol", type=float, default=None, help="certified duality-gap tolerance")
    p.add_argument("--lift", action="store_true", help="include the lifted matrix in the output")
    p.set_defaults(func=_cmd_relax)

    p = sub.add_parser("approx", help="run one of the randomized samplers")
    p.add_argument("instance")
    p.add_argument("--algo", choices=sorted(_ALGOS), required=True)
    p.add_argument("--rho", type=float, default=0.9999)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("bench", help="run the benchmark protocol")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--m", default="6..30", help="anchor counts, e.g. 6..30 or 6,10,20")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--rho", type=float, default=0.9999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.add_argument("--format", choices=["csv", "md"], default="csv")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("hardness-gen", help="generate a reduction instance from an integer vector")
    p.add_argument("--a", required=True, help="comma-separated nonzero integers, e.g. 1,1,1,1,2")
    p.add_argument("--out", required=True, help="instance JSON output path")
    p.set_defaults(func=_cmd_hardness_gen)

    p = sub.add_parser("tail", help="spherical tail function utilities")
    tail_sub = p.add_subparsers(dest="mode", required=True)
    q = tail_sub.add_parser("s", help="evaluate the tail function")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.set_defaults(func=_cmd_tail)
    q = tail_sub.add_parser("inv", help="invert the tail function")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--beta", type=float, required=True)
    q.set_defaults(func=_cmd_tail)
    q = tail_sub.add_parser("check", help="audit the exponential upper bound on a grid")
    q.add_argument("--n-max", type=int, default=39)
    q.set_defaults(func=_cmd_tail)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceError,
        NotApplicableError,
        NonPositiveValueError,
        SampleBudgetExceeded,
        ValueError,
        RuntimeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
