"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json agrees with the harness (workloads, metric
names, units and directions), that every per-layer metric names the
end-to-end metric and workload it should move, that every workload prints
each of its metrics with its unit in both trace modes, and that the
benchmark refuses to run without the program's sources. Exits 0 when all
checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]

    expect(names == list(WORKLOADS), "BENCHMARK.json workloads match run.py")
    expect({k: m["unit"] for k, m in e2e.items()} == END_TO_END_UNITS,
           "end-to-end metrics and units match run.py")
    expect({k: (m["unit"], m["better"]) for k, m in per_layer.items()}
           == {k: (u, b) for k, (u, b, _) in LAYER_METRICS.items()},
           "per-layer metrics, units and directions match layers.py")
    for name, (_, _, moves) in LAYER_METRICS.items():
        targets = [m.split("@") for m in moves]
        expect(bool(targets) and all(len(t) == 2 and t[0] in e2e and t[1] in names
                                     for t in targets),
               f"{name} names the end-to-end metric and workload it should move")
    setup = e2e.get("setup_s", {})
    expect(setup.get("unit") == "s" and setup.get("better") == "lower"
           and setup.get("bound") == max(m["bound"] for m in e2e.values()),
           "setup_s is lower-better seconds with the largest bound")

    for workload in names:
        for trace, wanted in ((0, e2e), (1, per_layer)):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            what = f"{workload} trace={trace}"
            expect(proc.returncode == 0, f"{what}: exit code 0 ({proc.stderr.strip()[-300:]})")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result has exactly correct/attempted/failed/metrics")
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1, f"{what}: correct, nothing failed")
            metrics = result.get("metrics", {})
            expect(set(metrics) == set(wanted), f"{what}: prints every metric, no others")
            expect(all(isinstance(metrics[k].get("value"), (int, float))
                       and metrics[k].get("unit") == wanted[k]["unit"]
                       for k in set(metrics) & set(wanted)),
                   f"{what}: each metric is a number with its unit")
            expect(len(lines) >= 2 and lines[-2].startswith("env "),
                   f"{what}: environment recorded")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, names[0], 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
