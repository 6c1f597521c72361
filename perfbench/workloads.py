"""The three parity_decode benchmark workloads and the closed-loop client.

Run as a child process by run.py (never imported by the program):

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --spawned-at EPOCH [--tiny]

Mode `setup` imports the program, builds the workload's inputs, warms up
and exits; mode `run` then repeats the workload's round for S seconds
(trace 0), or for S/2 seconds untraced and S/2 seconds traced (trace 1).
The child prints one JSON line with its set-up time, counts, checks and
metrics; run.py turns it into the benchmark result.

Every round of a run repeats the same program calls on the same inputs,
so report bytes and exact counts must repeat from round to round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path
from time import perf_counter

from speed import calibrate, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 0
HARNESS_TRIAL = -2

# sha256 of each report's JSON then CSV bytes, at the default seed and full size.
PINNED = {
    "iid_decode": {
        "bench_bf": "fef5d03e3771f301e5c53e02d17141d109082d8967fd1e5602db374324b62576",
        "bench_bp": "6c39cb11c5e02986006420e1193254340a1a64b8d8e613f850b7aaf6e2d66b18",
        "bench_mcmc": "0d69154e8613c2b9398a216bb9ebfd370af6483bbc9ecfd6d6eede1eaf02e481",
    },
    "landscape_k14": {
        "landscape_mcmc": "fb54acaa49864e7ee6d2c5ade48ada4c0e24ef8691a5ed621965552df42b27d3",
        "landscape_hybrid": "02e9605d33693c4b66111d4407bf5796956971cdfe4d280b51a3bc5b3f2a8e0d",
    },
    "long_chain_k14": {
        "long_chain": "c69b32816985e64261a10ceba25cec369d21aa7742fb944f45c6287490f3926f",
    },
}


class CallFailed(Exception):
    """A program call raised; the pass cannot go on."""


def import_program():
    src = ROOT / "src"
    if not (src / "parity_decode" / "__init__.py").is_file():
        sys.exit(f"perfbench: parity_decode sources not found under {src}")
    sys.path.insert(0, str(src))
    import parity_decode

    if Path(parity_decode.__file__).resolve().parent != src / "parity_decode":
        sys.exit(f"perfbench: imported parity_decode from {parity_decode.__file__}, not {src}")
    return parity_decode


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Closed-loop client

class Client:
    """One client in one process: each program call starts after the
    previous one returned. Times each call (program work plus report
    writing), calibrated by the reference times measured just before and
    after it (speed.py), and keeps checks, which run untimed, apart."""

    def __init__(self, out_dir: Path, pinned: dict[str, str], tracer=None):
        self.out_dir = out_dir
        self.pinned = pinned
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.call_round: list[int] = []
        self.rounds: list[dict] = []
        self.first_reports: dict[str, bytes] | None = None
        self._written: list[str] = []
        self._ref: float | None = None

    def call(self, label: str, phase: str | None, fn, work=None):
        """Run one program call; phase "sample" or "decode" books its time
        and work (work(output)) to that throughput."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.trial = len(self.call_round)
        self.call_round.append(len(self.rounds))
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.failed += 1
            traceback.print_exc()
            raise CallFailed(label) from exc
        finally:
            if self.tracer is not None:
                self.tracer.trial = HARNESS_TRIAL
        wall = perf_counter() - t0
        ref = reference_s()
        dt = calibrate(wall, self._ref, ref)
        self._ref = ref
        self._time["round"] += dt
        self._time["raw"] += wall
        self._time["ref"] += ref
        self._calls += 1
        if phase is not None:
            self._time[phase] += dt
            self._work[phase] += work(out)
        return out

    def check(self, label: str, problems: list[str]) -> None:
        """Record the output check of the call just made."""
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    def write(self, label: str, report):
        """Write a report as JSON and CSV (inside the timed call)."""
        report.to_json(self.out_dir / f"{label}.json")
        report.to_csv(self.out_dir / f"{label}.csv")
        self._written.append(label)
        return report

    def begin_round(self) -> None:
        self._time: Counter = Counter()
        self._work: Counter = Counter()
        self._written = []
        self._calls = 0
        if self._ref is None:
            self._ref = reference_s()

    def end_round(self) -> None:
        reports = {}
        for label in self._written:
            reports[label] = ((self.out_dir / f"{label}.json").read_bytes()
                              + (self.out_dir / f"{label}.csv").read_bytes())
            want = self.pinned.get(label)
            if want and not self.rounds and sha256(reports[label]) != want:
                self.check(label, [f"report digest {sha256(reports[label])[:16]} "
                                   f"!= pinned {want[:16]}"])
        if self.first_reports is None:
            self.first_reports = reports
        elif reports != self.first_reports:
            self.check("round", ["report bytes differ from the first round"])
        self.rounds.append({
            "round_s": self._time["round"],
            "sample_steps_per_s": self._work["sample"] / self._time["sample"],
            "decode_trials_per_s": self._work["decode"] / self._time["decode"],
            "raw_round_s": self._time["raw"],
            "reference_ms": 1e3 * self._time["ref"] / self._calls,
        })

    def run_pass(self, workload, seconds: float) -> None:
        t_start = perf_counter()
        while True:
            self.begin_round()
            workload.round(self)
            self.end_round()
            if perf_counter() - t_start >= seconds:
                return

    def medians(self) -> dict[str, float]:
        keys = self.rounds[0].keys()
        return {k: statistics.median(r[k] for r in self.rounds) for k in keys}


# ---------------------------------------------------------------------------
# Workloads

class IidDecode:
    """bench_iid over K in {21, 40} x eps in {0.1, 0.2, 0.3}: BF (FAIL tie
    policy) and BP at 5 iterations, and the penalty-only w3 sampling
    decoder at budget C(K,2), all on the same decoder-independent noise."""

    name = "iid_decode"
    K_LIST = (21, 40)
    EPS = (0.1, 0.2, 0.3)
    ITERS = 5

    def __init__(self, pd, seed: int, tiny: bool):
        self.pd = pd
        self.seed = seed
        self.trials = 3 if tiny else 300
        self.mcmc_trials = 1 if tiny else 2

    def setup(self) -> None:
        for K in self.K_LIST:
            self.pd.build_code(K)
        for decoder in ("bf", "bp", "mcmc"):
            self._bench(decoder, 1)

    def _bench(self, decoder: str, trials: int):
        return self.pd.bench_iid(decoder, self.K_LIST, self.EPS, trials, iters=self.ITERS,
                                 seed=self.seed, tie_policy=self.pd.TiePolicy.FAIL,
                                 n_workers=1)

    def round(self, client: Client) -> None:
        for decoder in ("bf", "bp", "mcmc"):
            label = f"bench_{decoder}"
            trials = self.mcmc_trials if decoder == "mcmc" else self.trials
            if decoder == "mcmc":
                phase = "sample"
                work = lambda rep: sum(r["trials"] * comb(r["K"], 2) for r in rep.rows)
            else:
                phase = "decode"
                work = lambda rep: sum(r["trials"] for r in rep.rows)
            rep = client.call(label, phase,
                              lambda: client.write(label, self._bench(decoder, trials)), work)
            client.check(label, self._check(rep, decoder))

    @staticmethod
    def _check(rep, decoder: str) -> list[str]:
        problems = []
        for r in rep.rows:
            if r["successes"] + r["failures"] != r["trials"]:
                problems.append(f"K={r['K']} eps={r['epsilon']}: successes + failures != trials")
            if decoder == "bf" and r["K"] == 40 and r["tie_failures"]:
                problems.append(f"K=40 eps={r['epsilon']}: {r['tie_failures']} tie failures")
        return problems

    def memory_probe(self) -> None:
        """No hybrid call in this workload."""


class Landscape:
    """landscape of 12 gen_instance(14, s) instances on a 2 x 2 subgrid of
    the default (beta, gamma) grids, w4, budget 4*C(14,2), one chain per
    cell and instance; plain sampling and the hybrid on the same chain
    seeds."""

    name = "landscape_k14"
    K = 14
    BETAS = (1.5, 3.0)
    GAMMAS = (0.2, 1.5)

    def __init__(self, pd, seed: int, tiny: bool):
        self.pd = pd
        self.seed = seed
        self.n_instances = 2 if tiny else 12
        self.budget = 4 * comb(self.K, 2)

    def setup(self) -> None:
        pd = self.pd
        self.code = pd.build_code(self.K)
        self.instances = [pd.gen_instance(self.K, self.seed * 12 + i)
                          for i in range(self.n_instances)]
        for strategy in ("mcmc", "hybrid"):
            pd.landscape(self.instances[:1], self.BETAS[:1], self.GAMMAS[:1],
                         strategy=strategy, budget=self.budget, trials_per_cell=1,
                         seed=self.seed, n_workers=1)

    def _landscape(self, strategy: str):
        return self.pd.landscape(self.instances, self.BETAS, self.GAMMAS, strategy=strategy,
                                 budget=self.budget, trials_per_cell=1, seed=self.seed,
                                 n_workers=1)

    def round(self, client: Client) -> None:
        steps = lambda rep: sum(r["runs"] for r in rep.rows) * self.budget
        runs = lambda rep: sum(r["runs"] for r in rep.rows)
        rep_m = client.call("landscape_mcmc", "sample",
                            lambda: client.write("landscape_mcmc", self._landscape("mcmc")), steps)
        client.check("landscape_mcmc", self._check_rows(rep_m))
        rep_h = client.call("landscape_hybrid", "decode",
                            lambda: client.write("landscape_hybrid", self._landscape("hybrid")),
                            runs)
        client.check("landscape_hybrid", self._check_rows(rep_h) + self._dominance(rep_h, rep_m))

    @staticmethod
    def _check_rows(rep) -> list[str]:
        return [f"cell ({r['beta']}, {r['gamma']}): any_codeword < target"
                for r in rep.rows if r["any_codeword_successes"] < r["target_successes"]]

    @staticmethod
    def _dominance(rep_h, rep_m) -> list[str]:
        m_cells = {(r["beta"], r["gamma"]): r for r in rep_m.rows}
        problems = []
        for r in rep_h.rows:
            m = m_cells[(r["beta"], r["gamma"])]
            for i, (h_s, m_s) in enumerate(zip(r["per_instance_target"], m["per_instance_target"])):
                if h_s < m_s:
                    problems.append(f"cell ({r['beta']}, {r['gamma']}) instance {i}: "
                                    f"hybrid {h_s} < mcmc {m_s} target successes")
        return problems

    def memory_probe(self) -> None:
        """The landscape's first hybrid call, as landscape makes it."""
        pd = self.pd
        inst = self.instances[0]
        params = pd.HamiltonianParams(beta=self.BETAS[0], gamma=self.GAMMAS[0],
                                      couplings=inst.couplings, family="w4")
        pd.hybrid_decode(self.code, params, self.budget, pd.encode(self.code, inst.ground_state),
                         pd.trial_seed(self.seed, 23, 0, 0, 0, 0), bf_max_iters=5,
                         store_samples=False)


class LongChain:
    """Two chain seeds on one gen_instance(14, seed) at cell (beta, gamma) =
    (3.0, 4.0): mcmc_decode at the efficiency-arm budget 1200*C(14,2),
    then hybrid_decode with the same seed over the chain's first 20 000
    steps, whose first stage must reproduce that prefix exactly."""

    name = "long_chain_k14"
    K = 14
    CELL = (3.0, 4.0)
    PAIRS = 2

    def __init__(self, pd, seed: int, tiny: bool):
        self.pd = pd
        self.seed = seed
        self.arm_budget = 600 if tiny else 1200 * comb(self.K, 2)
        self.hybrid_budget = 300 if tiny else 20_000

    def setup(self) -> None:
        pd = self.pd
        self.code = pd.build_code(self.K)
        inst = pd.gen_instance(self.K, self.seed)
        self.target = pd.encode(self.code, inst.ground_state)
        self.params = pd.HamiltonianParams(beta=self.CELL[0], gamma=self.CELL[1],
                                           couplings=inst.couplings, family="w4")
        self.seeds = [pd.trial_seed(self.seed, 31, 0, p) for p in range(self.PAIRS)]
        pd.mcmc_decode(self.code, self.params, 200, self.target, self.seeds[0],
                       store_samples=False)
        pd.hybrid_decode(self.code, self.params, 200, self.target, self.seeds[0],
                         store_samples=False)

    def _hybrid(self, seed):
        return self.pd.hybrid_decode(self.code, self.params, self.hybrid_budget, self.target,
                                     seed, bf_max_iters=5, store_samples=False)

    def round(self, client: Client) -> None:
        pd = self.pd
        rows = []
        for p, seed in enumerate(self.seeds):
            _, run_a = client.call(
                f"arm_a_{p}", "sample",
                lambda: pd.mcmc_decode(self.code, self.params, self.arm_budget, self.target,
                                       seed, store_samples=False),
                lambda out: self.arm_budget)
            client.check(f"arm_a_{p}", [])
            _, run_h = client.call(f"hybrid_{p}", "decode", lambda: self._hybrid(seed),
                                   lambda out: 1)
            client.check(f"hybrid_{p}", self._check_pair(run_a, run_h))
            rows.append({
                "pair": p, "arm_budget": self.arm_budget, "hybrid_budget": self.hybrid_budget,
                "arm_target_hit": run_a.target_hit, "arm_first_codeword": run_a.first_codeword,
                "arm_energies_sha256": sha256(run_a.energies.tobytes()),
                "hybrid_target_hit": run_h.target_hit,
                "hybrid_first_codeword": run_h.first_codeword,
                "hybrid_decoded_target_hit": run_h.decoded_target_hit,
                "hybrid_decoded_any_codeword": run_h.decoded_any_codeword,
                "hybrid_energies_sha256": sha256(run_h.energies.tobytes()),
            })
        config = {"K": self.K, "beta": self.CELL[0], "gamma": self.CELL[1], "seed": self.seed,
                  "arm_budget": self.arm_budget, "hybrid_budget": self.hybrid_budget}
        client.call("long_chain", None,
                    lambda: client.write("long_chain", pd.BenchmarkReport(
                        kind="long_chain", config=config, rows=rows)))
        client.check("long_chain", [])

    def _check_pair(self, run_a, run_h) -> list[str]:
        B = self.hybrid_budget

        def prefix(hit):
            return hit if hit is not None and hit <= B else None

        problems = []
        if sha256(run_a.energies[:B].tobytes()) != sha256(run_h.energies.tobytes()):
            problems.append("hybrid first-stage energies differ from the matched chain")
        if run_h.target_hit != prefix(run_a.target_hit):
            problems.append(f"target_hit {run_h.target_hit} != matched {prefix(run_a.target_hit)}")
        if run_h.first_codeword != prefix(run_a.first_codeword):
            problems.append(f"first_codeword {run_h.first_codeword} != matched "
                            f"{prefix(run_a.first_codeword)}")
        if run_h.target_hit is not None and not (
                run_h.decoded_target_hit is not None
                and run_h.decoded_target_hit <= run_h.target_hit):
            problems.append(f"decoded_target_hit {run_h.decoded_target_hit} > "
                            f"target_hit {run_h.target_hit}")
        return problems

    def memory_probe(self) -> None:
        """The first pair's hybrid call."""
        self._hybrid(self.seeds[0])


WORKLOADS = {w.name: w for w in (IidDecode, Landscape, LongChain)}


# ---------------------------------------------------------------------------
# Environment record and cross-run state

def blas_threads(np):
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": vendor,
        "blas_threads": blas_threads(np),
        "blas_threads_requested": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def cross_run_check(args, src: str, record: dict) -> list[str]:
    """Compare this run's report digests and exact counts with an earlier
    run of the same sources, workload, seed and size; then store them."""
    path = STATE_DIR / "state" / f"{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}.json"
    problems = []
    old = json.loads(path.read_text()) if path.is_file() else {}
    if old.get("src") == src:
        for section in ("reports", "counts"):
            for key, value in record.get(section, {}).items():
                if key in old.get(section, {}) and old[section][key] != value:
                    problems.append(f"{section} {key} differs from an earlier run of the same code")
        for section in ("reports", "counts"):
            record[section] = {**old.get(section, {}), **record.get(section, {})}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"src": src, **record}, sort_keys=True))
    os.replace(tmp, path)
    return problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    pd = import_program()
    import numpy as np

    workload = WORKLOADS[args.workload](pd, args.seed, args.tiny)
    workload.setup()
    setup = {"setup_s": time.time() - args.spawned_at, "setup_ref": reference_s()}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    pinned = {} if args.tiny or args.seed != DEFAULT_SEED else PINNED[args.workload]
    work_dir = STATE_DIR / f"work-{os.getpid()}"
    result = {**setup, "env": environment(np, args)}
    try:
        (work_dir / "plain").mkdir(parents=True)
        plain = Client(work_dir / "plain", pinned)
        seconds = args.seconds / 2 if args.trace else args.seconds
        try:
            plain.run_pass(workload, seconds)
        except CallFailed as exc:
            plain.problems.append(f"{exc} raised")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        clients = [plain]
        record = {"reports": {k: sha256(v) for k, v in (plain.first_reports or {}).items()}}
        if args.trace and not plain.problems:
            clients.append(traced_pass(pd, workload, args, work_dir, plain, seconds, result))
            record["counts"] = result.pop("exact_counts", {})
        if not any(c.problems for c in clients):
            plain.check("cross-run", cross_run_check(args, result["env"]["src_sha256"], record))
        result.update({
            "attempted": sum(c.attempted for c in clients),
            "failed": sum(c.failed for c in clients),
            "problems": [p for c in clients for p in c.problems],
            "rounds": len(plain.rounds),
            "medians": plain.medians() if plain.rounds and not plain.problems else {},
        })
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_pass(pd, workload, args, work_dir, plain: Client, seconds: float,
                result: dict) -> Client:
    """Set up and run the workload again with every traced function wrapped;
    fill result with the per-layer metrics and the exact counts."""
    from layers import layer_metrics
    from tracer import SETUP_TRIAL, Tracer

    tracer = Tracer()
    (work_dir / "traced").mkdir()
    traced = Client(work_dir / "traced", {}, tracer)
    tracer.install()
    try:
        tracer.trial = SETUP_TRIAL
        workload.setup()
        tracer.trial = HARNESS_TRIAL
        try:
            traced.run_pass(workload, seconds)
        except CallFailed as exc:
            traced.problems.append(f"{exc} raised")
    finally:
        tracer.uninstall()
    if traced.problems:
        return traced
    if traced.first_reports != plain.first_reports:
        traced.check("trace", ["traced reports are not byte-identical to untraced reports"])

    tracemalloc.start()
    try:
        workload.memory_probe()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()

    overhead = traced.medians()["round_s"] / plain.medians()["round_s"]
    metrics, counts, problems = layer_metrics(tracer, traced.call_round, len(traced.rounds),
                                              peak_mb, overhead)
    for p in problems:
        traced.check("trace", [p])
    result["layers"] = metrics
    result["exact_counts"] = counts
    spans = STATE_DIR / "spans" / f"{args.workload}-s{args.seed}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    return traced


if __name__ == "__main__":
    sys.exit(main())
