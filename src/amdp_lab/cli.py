"""Command-line front end.

Subcommands: solve (dmdp|amdp), params, hardgen, certify, reduce,
experiment.  Console output carries 6 decimals; files carry 12 significant
digits.  Exit codes: 0 success, 1 when certify finds a failing
certificate or params prints a failed order relation (FAIL), 2
validation/configuration failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import chains, corpus, hard_instances, reduction, solvers
from .generative import GenerativeModel
from .mdp import (
    EnumerationBudgetError,
    InfeasibleInstanceError,
    MdpFormatError,
    SolverConvergenceError,
    TabularMdp,
    read_mdp,
    span,
    write_mdp,
    write_policy,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3


def _fmt6(x: float) -> str:
    return f"{float(x):.6f}"


def _vector6(v) -> str:
    return "(" + ", ".join(_fmt6(x) for x in np.asarray(v).ravel()) + ")"


def _instance_id(m: TabularMdp, path: str) -> str:
    return str(m.metadata.get("name") or Path(path).stem)


def _resolve_H(flag: str, opt: solvers.AmdpOptimum) -> float:
    if flag == "oracle":
        return max(opt.H, 1.0)
    try:
        H = float(flag)
    except ValueError:
        raise MdpFormatError(f"--H must be a float or 'oracle', got {flag!r}")
    if H < 1.0:
        raise MdpFormatError("--H must be at least 1")
    return H


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    m = read_mdp(args.mdp)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    if args.kind == "dmdp":
        if args.gamma is None:
            raise MdpFormatError("solve dmdp needs --gamma")
        _, V, policy = solvers.dmdp_policy_iteration(m, args.gamma)
        print(f"V = {_vector6(V)}")
        print(f"policy = {list(map(int, policy.actions))}")
        if out:
            reduction._write_json(out / "values.json",
                                  {"gamma": args.gamma, "values": list(V)})
            write_policy(policy, out / "policy.json")
    else:
        # --method is kept only while bench/workloads.py passes relative_vi
        if args.method == "relative_vi":
            _, bias, policy = solvers.relative_value_iteration(m)
            gain = solvers.amdp_gain_bias(m, policy).gain
        else:
            opt = solvers.amdp_optimal(m)
            gain, bias, policy = opt.gain, opt.bias, opt.policy
        H = span(bias)
        print(f"rho = {_vector6(gain)}")
        print(f"h = {_vector6(bias)}")
        print(f"H = {_fmt6(H)}")
        print(f"policy = {list(map(int, policy.actions))}")
        if not chains.is_weakly_communicating(m):
            print("note: input is not weakly communicating; "
                  "constant optimal gain is not guaranteed")
        if out:
            reduction._write_json(out / "gain.json", {"gain": list(gain)})
            reduction._write_json(out / "bias.json", {"bias": list(bias), "H": H})
            write_policy(policy, out / "policy.json")
    return EXIT_OK


def cmd_params(args) -> int:
    D, t_mix, opt = solvers._analysis(read_mdp(args.mdp))
    le_diameter, *le_mixing = reduction._parameter_bounds(opt.H, D, t_mix, "")
    if t_mix is None:
        t_text, t_check = "not computed (enumeration budget exceeded)", "skipped"
    elif math.isinf(t_mix):
        t_text, t_check = "inf", "vacuous (t_mix = inf)"
    else:
        t_text = _fmt6(t_mix)
        t_check = "pass" if le_mixing[0].passed else "FAIL"
    print(f"D = {D if math.isinf(D) else _fmt6(D)}")
    print(f"t_mix = {t_text}")
    print(f"H = {_fmt6(opt.H)}")
    print(f"H <= D: {'pass' if le_diameter.passed else 'FAIL'}")
    print(f"H <= 8 t_mix: {t_check}")
    return EXIT_OK if le_diameter.passed and t_check != "FAIL" else 1


def cmd_hardgen(args) -> int:
    if args.variant != "MKL" and (args.k is not None or args.l is not None):
        raise ValueError(f"--k and --l apply only to --variant MKL, "
                         f"not {args.variant}")
    spec = hard_instances.HardInstanceSpec(
        S=args.S, A=args.A, D=args.D, epsilon=args.epsilon,
        variant=args.variant, k=args.k, l=args.l)
    m = hard_instances.hard_instance(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = f"_k{args.k}_l{args.l}" if args.variant == "MKL" else ""
    path = out / (f"{args.variant}_S{args.S}_A{args.A}_D{args.D:g}"
                  f"_eps{args.epsilon:g}{suffix}.json")
    write_mdp(m, path)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.mdp is not None and args.count is not None:
        raise ValueError("certify takes --mdp files or --count, not both")
    instances: list[tuple[str, TabularMdp]] = []
    if args.mdp:
        for path in args.mdp:
            m = read_mdp(path)
            instances.append((_instance_id(m, path), m))
    elif args.count is not None:
        instances = list(corpus.standard_corpus(
            count=args.count, max_states=args.smax, max_actions=args.amax,
            master_seed=args.seed))
    else:
        raise MdpFormatError("certify needs --mdp files or a corpus spec (--count)")

    certs: list[reduction.Certificate] = []
    for instance_id, m in instances:
        certs.extend(reduction.certify_instance(m, args.epsilon, instance_id))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "certificates.csv"
    reduction.write_certificates_csv(certs, csv_path)
    reduction.write_certificates_report(certs, out / "certificates.json")
    failed = [c for c in certs if not c.passed]
    print(f"{len(certs)} certificates on {len(instances)} instances "
          f"-> {csv_path}")
    for c in failed:
        print(f"FAIL {c.instance_id} {c.name}: lhs={c.lhs!r} rhs={c.rhs!r}")
    print("all passed" if not failed else f"{len(failed)} failed")
    return EXIT_OK if not failed else 1


def cmd_reduce(args) -> int:
    m = read_mdp(args.mdp)
    opt = solvers.amdp_optimal(m)
    H = _resolve_H(args.H, opt)
    params = reduction.reduction_params(
        args.epsilon, args.delta, H, m.num_states, m.num_actions,
        n_override=args.N)
    gm = GenerativeModel(m, args.seed)
    policy = reduction.algorithm1(gm, params)
    gain_hat = solvers.amdp_gain_bias(m, policy).gain
    gap = float(np.max(opt.gain)) - float(np.min(gain_hat))
    print(f"policy = {list(map(int, policy.actions))}")
    print(f"gap = {_fmt6(gap)}")
    print(f"N = {params.n_per_pair}, gamma = {params.gamma!r}, "
          f"total_samples = {params.n_per_pair * m.num_states * m.num_actions}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_policy(policy, out / "policy_hat.json")
        reduction._write_json(out / "reduce.json", {
            "instance_id": _instance_id(m, args.mdp), "seed": args.seed,
            "N": params.n_per_pair, "gap": gap})
    return EXIT_OK


def cmd_experiment(args) -> int:
    if not args.N:
        raise MdpFormatError("experiment needs --N with at least one value")
    if args.trials < 1:
        raise MdpFormatError("experiment needs --trials >= 1")
    m = read_mdp(args.mdp)
    instance_id = _instance_id(m, args.mdp)
    opt = solvers.amdp_optimal(m)
    H = _resolve_H(args.H, opt)
    gm = GenerativeModel(m, args.seed)
    rows = []
    for N in sorted(args.N):
        params = reduction.reduction_params(
            args.epsilon, args.delta, H, m.num_states, m.num_actions,
            n_override=N)
        rows.extend(
            [instance_id, N, rec.seed, reduction.format_number(rec.gap),
             str(rec.gap <= args.epsilon).lower(), rec.wallclock_ms,
             N * m.num_states * m.num_actions]
            for rec in reduction.empirical_error(gm, params, args.trials, opt))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "experiment.csv"
    reduction._write_csv(
        csv_path, ["instance_id", "N", "seed", "gap", "success", "wallclock_ms",
                   "total_samples"], rows)
    print(f"{len(rows)} rows -> {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (by _build_parser,
    kept separate so that this stays a plain function that bench/tracer.py
    can wrap and count)."""
    return _build_parser()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amdp-lab",
        description="Average-reward MDP laboratory: solve, analyze, generate, "
                    "certify, and run sampled-reduction experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact discounted or average-reward solve")
    p.add_argument("kind", choices=["dmdp", "amdp"])
    p.add_argument("--mdp", required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--method", choices=["auto", "relative_vi"],
                   default="auto")
    p.add_argument("--out")

    p = sub.add_parser("params", help="diameter, mixing time, bias span")
    p.add_argument("--mdp", required=True)

    p = sub.add_parser("hardgen", help="generate a lower-bound hard instance")
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--A", type=int, required=True)
    p.add_argument("--D", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--variant", choices=["M0", "M1", "MKL"], default="M0")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--out", default=".")

    p = sub.add_parser("certify", help="machine-check the proved inequalities")
    p.add_argument("--mdp", nargs="*")
    p.add_argument("--count", type=int)
    p.add_argument("--smax", type=int, default=6)
    p.add_argument("--amax", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--out", default=".")

    p = sub.add_parser("reduce", help="one sampled-reduction run with exact gap")
    p.add_argument("--mdp", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--H", default="oracle")
    p.add_argument("--N", type=int)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("experiment", help="sweep N x seeds, write a CSV")
    p.add_argument("--mdp", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--H", default="oracle")
    p.add_argument("--N", type=_int_list, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", default=".")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up per call, not stored in the cached parser, so
    # a handler replaced after the first call (patched, wrapped) still runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (MdpFormatError, InfeasibleInstanceError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SolverConvergenceError, EnumerationBudgetError,
            np.linalg.LinAlgError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
