"""Command-line front end.

Subcommands: code-info (structure of the code for a given K), decode
(single decode of a matrix file or generated noise), bench / landscape /
trajectory (benchmark drivers writing CSV + JSON reports).

Exit codes: 0 success, 1 decode failure (decode subcommand only),
2 usage, configuration or file error (any subcommand).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .channels import sample_iid_errors, trial_seed
from .code import (
    all_one_matrix,
    build_code,
    check_matrix,
    generator_matrix,
    read_spin_matrix_csv,
)
from .decoders import TiePolicy, bf_decode, bp_decode
from .experiments import (
    DEFAULT_BETA_GRID,
    DEFAULT_GAMMA_GRID,
    bench_iid,
    best_cell,
    gen_instance,
    landscape,
    trajectory_demo,
)

ENV_SEED = "PARITY_DECODE_SEED"


def _master_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(ENV_SEED)
    return int(env) if env else 0


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="parity-decode",
        description="decoders and benchmarks for parity-encoded spin readouts",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code-info", help="structure of the code for a given K")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--dump-matrices", action="store_true",
                   help="include the binary matrices (K <= 8)")

    p = sub.add_parser("decode", help="decode one matrix (file or generated noise)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="spin-matrix CSV file")
    src.add_argument("--gen-iid", nargs=2, metavar=("K", "EPSILON"),
                     help="sample i.i.d. noise on the all-one codeword")
    p.add_argument("--decoder", choices=["bf", "bp"], default="bf")
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="flip rate assumed by the BP initializer for file input")
    p.add_argument("--tie-policy", choices=[t.value for t in TiePolicy], default="keep")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--target-allone", action="store_true",
                   help="score success against the all-one codeword")
    p.add_argument("--csv", help="append the result row to this file")

    p = sub.add_parser("bench", help="i.i.d. noise benchmark")
    p.add_argument("--decoder", choices=["bf", "bp", "mcmc"], default="bf")
    p.add_argument("--k", type=_int_list, required=True, help="comma-separated K values")
    p.add_argument("--epsilon", type=_float_list, required=True,
                   help="comma-separated flip rates")
    p.add_argument("--trials", type=int, default=5000)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--budget", type=int, default=None,
                   help="sampling budget per trial (mcmc decoder; default C(K,2))")
    p.add_argument("--gamma", type=float, default=1.0, help="penalty strength (mcmc)")
    p.add_argument("--syndrome-family", choices=["w3", "w4"], default="w3")
    p.add_argument("--tie-policy", choices=["keep", "fail"], default="fail")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: available parallelism)")
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("landscape", help="(beta, gamma) success landscape")
    p.add_argument("--k", type=int, default=14)
    p.add_argument("--instances", type=int, default=12)
    p.add_argument("--instance-seed", type=int, default=None,
                   help="base seed for instance generation (default: master seed)")
    p.add_argument("--beta", type=_float_list, default=list(DEFAULT_BETA_GRID))
    p.add_argument("--gamma", type=_float_list, default=list(DEFAULT_GAMMA_GRID))
    p.add_argument("--strategy", choices=["mcmc", "hybrid"], default="hybrid")
    p.add_argument("--budget", type=int, default=None,
                   help="samples per trial (default 1200*C(K,2) mcmc / 4*C(K,2) hybrid)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bf-iters", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("trajectory", help="per-iteration decode snapshots")
    p.add_argument("--source", choices=["iid", "mcmc"], default="iid")
    p.add_argument("--k", type=int, default=40)
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--beta", type=float, default=1.5)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--instance-seed", type=int, default=0)
    p.add_argument("--decoder", choices=["bf", "bp"], default="bf")
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    return ap


def cmd_code_info(args) -> int:
    code = build_code(args.k)
    info = {
        "K": code.K,
        "n_vars": code.n_vars,
        "n_checks3": code.n_checks3,
        "n_checks4": code.n_checks4,
        "var_degree3": code.var_degree3,
        "check_degree3": 3,
        "max_check_degree4": 4,
        "codewords": 1 << (code.K - 1),
    }
    if args.dump_matrices:
        if code.K > 8:
            raise ValueError("--dump-matrices limited to K <= 8")
        info["generator"] = generator_matrix(code).tolist()
        info["checks_w4"] = check_matrix(code, "w4").tolist()
        info["checks_w3"] = check_matrix(code, "w3").tolist()
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(f"K = {info['K']}")
        print(f"physical spins C(K,2)      = {info['n_vars']}")
        print(f"triangle checks C(K,3)     = {info['n_checks3']}  (weight 3, {info['var_degree3']} per spin)")
        print(f"plaquette checks C(K-1,2)  = {info['n_checks4']}  (weight <= 4)")
        print(f"codewords 2^(K-1)          = {info['codewords']}")
        for key in ("generator", "checks_w4", "checks_w3"):
            if key in info:
                print(f"{key}:")
                for row in info[key]:
                    print("  " + " ".join(str(v) for v in row))
    return 0


def cmd_decode(args) -> int:
    seed = _master_seed(args.seed)
    tie_policy = TiePolicy(args.tie_policy)
    target = None
    if args.gen_iid:
        K, eps_used = int(args.gen_iid[0]), float(args.gen_iid[1])
        code = build_code(K)
        x = sample_iid_errors(code, eps_used, trial_seed(seed, 51))
        target = all_one_matrix(K)
    else:
        x = read_spin_matrix_csv(args.input)
        code = build_code(x.shape[0])
        if args.target_allone:
            target = all_one_matrix(code.K)
        eps_used = args.epsilon

    rng = np.random.default_rng(trial_seed(seed, 52)) if tie_policy is TiePolicy.COIN else None
    if args.decoder == "bf":
        res = bf_decode(code, x, max_iters=args.iters, tie_policy=tie_policy,
                        target=target, rng=rng)
    else:
        res = bp_decode(code, x=x, epsilon=eps_used, max_iters=args.iters, target=target)
    row = ",".join(str(v) for v in (
        0, args.decoder, code.K, eps_used, res.iterations,
        int(res.success), res.ties,
    ))
    header = "trial,decoder,K,epsilon,iterations,success,ties"
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a") as fh:
            if new:
                fh.write(header + "\n")
            fh.write(row + "\n")
    else:
        print(header)
        print(row)
    return 0 if res.success else 1


def _write_report(report, out_dir: str) -> None:
    """Write the report's CSV and JSON files under out_dir, printing
    `wrote <path>` for each."""
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, report.default_stem())
    for path, write in ((stem + ".csv", report.to_csv), (stem + ".json", report.to_json)):
        write(path)
        print(f"wrote {path}")


def cmd_bench(args) -> int:
    seed = _master_seed(args.seed)
    report = bench_iid(
        args.decoder, args.k, args.epsilon, trials=args.trials, iters=args.iters,
        seed=seed, tie_policy=TiePolicy(args.tie_policy), mcmc_budget=args.budget,
        mcmc_gamma=args.gamma, mcmc_family=args.syndrome_family,
        n_workers=args.threads,
    )
    _write_report(report, args.out_dir)
    print("decoder  K    epsilon  trials  failure_prob")
    for row in report.rows:
        print(f"{row['decoder']:7s}  {row['K']:<4d} {row['epsilon']:<8.3g} "
              f"{row['trials']:<7d} {row['failure_prob']:.4f}")
    return 0


def cmd_landscape(args) -> int:
    seed = _master_seed(args.seed)
    inst_seed = args.instance_seed if args.instance_seed is not None else seed
    instances = [gen_instance(args.k, inst_seed + i) for i in range(args.instances)]
    report = landscape(
        instances, beta_grid=args.beta, gamma_grid=args.gamma,
        strategy=args.strategy, budget=args.budget,
        trials_per_cell=args.trials, seed=seed, bf_max_iters=args.bf_iters,
        n_workers=args.threads,
    )
    _write_report(report, args.out_dir)
    best = best_cell(report)
    print(f"best cell: beta={best['beta']} gamma={best['gamma']} "
          f"target_rate={best['target_rate']:.3f} any_rate={best['any_codeword_rate']:.3f}")
    return 0


def cmd_trajectory(args) -> int:
    seed = _master_seed(args.seed)
    if args.source == "iid":
        source = {"kind": "iid", "K": args.k, "epsilon": args.epsilon}
    else:
        inst = gen_instance(args.k, args.instance_seed)
        source = {"kind": "mcmc", "instance": inst, "beta": args.beta,
                  "gamma": args.gamma}
        if args.budget is not None:
            source["budget"] = args.budget
    dump = trajectory_demo(source, decoder=args.decoder, seed=seed, iters=args.iters)
    dump.write_csv(args.out)
    print(f"wrote {args.out}")
    print(f"success={dump.meta['success']} iterations={dump.meta['iterations']} "
          f"errors={dump.error_counts}")
    return 0


def main(argv=None) -> int:
    """Run one subcommand; usage, configuration and file errors
    (`ValueError`, `OSError`) print `error: ...` and return 2."""
    args = build_parser().parse_args(argv)
    handler = {
        "code-info": cmd_code_info,
        "decode": cmd_decode,
        "bench": cmd_bench,
        "landscape": cmd_landscape,
        "trajectory": cmd_trajectory,
    }[args.command]
    try:
        return handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
