"""parity_decode benchmark: one command, every metric with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src; nothing is installed or built). Workloads: iid_decode,
landscape_k14, long_chain_k14; see perfbench/README.md for why each exists.

The workload runs in fresh child processes, one after another (one
closed-loop client, n_workers=1, BLAS fixed at one thread):

* SETUP_PROBES children only set up, then one child sets up and measures.
  setup_s is the median over all of them, from spawning the process to
  the end of set-up (imports, build_code, gen_instance, warm-up).
* --trace 0 prints the end-to-end metrics, measured untraced.
* --trace 1 prints the per-layer metrics of a traced pass that follows an
  untraced one, with the tracing overhead between the two.

The last line of standard output is the JSON result; the line before it
records the environment. Both are also written under .perfbench/results/.
The exit code is 0 only if every program call and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("iid_decode", "landscape_k14", "long_chain_k14")
SETUP_PROBES = 4
BLAS_THREADS = "1"
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "sample_steps_per_s": "steps/s",
    "decode_trials_per_s": "trials/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def child(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode] + (["--tiny"] if args.tiny else []) + ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="parity_decode benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny sizes, for the harness self-test (pinned digests not checked)")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave the checkout as it was
    if not (ROOT / "src" / "parity_decode" / "__init__.py").is_file():
        print(f"perfbench: run from a parity_decode checkout; {ROOT / 'src'} is missing",
              file=sys.stderr)
        return 2

    from speed import calibrate, reference_s

    deadline = time.monotonic() + DEADLINE_S
    runs = []
    try:
        for mode in ["setup"] * SETUP_PROBES + ["run"]:
            ref = reference_s()
            runs.append(child(args, mode, deadline))
            runs[-1]["setup_cal"] = calibrate(runs[-1]["setup_s"], ref, runs[-1]["setup_ref"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    res = runs[-1]

    attempted = res["attempted"]
    failed = min(res["failed"], attempted)
    correct = not res["problems"] and failed == 0 and bool(res["medians"] or args.trace)
    if args.trace:
        from layers import LAYER_METRICS

        metrics = {name: {"value": res.get("layers", {}).get(name, 0.0), "unit": unit}
                   for name, (unit, _, _) in LAYER_METRICS.items()}
        correct = correct and "layers" in res
    else:
        values = {"setup_s": statistics.median(r["setup_cal"] for r in runs),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_frac": 1.0 - failed / attempted, **res["medians"]}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    for problem, times in Counter(res["problems"]).items():
        print(f"perfbench: check failed ({times}x): {problem}", file=sys.stderr)
    env = {**res["env"], "trace": args.trace, "rounds": res["rounds"],
           "raw_setup_s": [r["setup_s"] for r in runs],
           "raw_round_s": res["medians"].get("raw_round_s"),
           "reference_ms": res["medians"].get("reference_ms")}
    out = ROOT / ".perfbench" / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"env": env, **result}, indent=1, sort_keys=True) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
