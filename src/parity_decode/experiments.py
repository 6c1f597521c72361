"""Instance generation and benchmark drivers.

Three desk-scale experiments are reproduced:

* bench_iid: failure probability of BF / BP / sampling decoders under
  i.i.d. flip noise, decoding toward the all-one codeword (valid by
  channel symmetry and gauge invariance), with Wilson confidence bounds;
* landscape: target-success and any-codeword-success rates of the
  sampling decoder and the two-stage hybrid over a (beta, gamma) grid of
  annealing parameters, aggregated across random problem instances;
* trajectory_demo / efficiency_ratio: per-iteration decode snapshots,
  and the samples-per-success ratio between plain sampling at its best
  parameter cell and the hybrid at its own budget.

Everything is reproducible: each trial draws from a seed stream keyed by
(master seed, unit indices, trial index), so reports are bit-identical
for a fixed config regardless of worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channels import (
    _iid_error_vector, hard_decide, reliability_weight, sample_iid_errors, trial_seed,
)
from .code import (
    all_one_matrix,
    brute_force_ground_state,
    build_code,
    encode,
    is_codeword,
    matrix_to_vector,
    validate_logical_state,
    validate_spin_matrix,
    vector_to_matrix,
    _check_count,
    _check_couplings,
    _check_strengths,
    _read_only_copy,
)
from .decoders import (
    TiePolicy,
    _bf_decode_stack,
    _bp_decode,
    bf_decode,
    bp_decode,
    count_errors,
)
from .mcmc import (
    LOCKSTEP_GROUP, HamiltonianParams, _couplings_for, _run_chain, _run_lockstep, mcmc_decode,
)
from .reports import BenchmarkReport, TrajectoryDump

DEFAULT_BETA_GRID = tuple(round(0.25 * i, 2) for i in range(13))   # 0 .. 3.0
DEFAULT_GAMMA_GRID = tuple(round(0.1 * i, 2) for i in range(16))   # 0 .. 1.5
BF_TRIAL_CHUNK = 16  # bench_iid BF trials decoded as one stack


@dataclass(frozen=True)
class ProblemInstance:
    """Random all-to-all couplings, kept as a read-only float64 copy,
    with the precomputed logical ground state (first spin pinned +1; the
    global flip is equivalent)."""

    K: int
    couplings: np.ndarray
    ground_state: np.ndarray
    ground_energy: float
    seed: int | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "couplings", _read_only_copy(self.couplings))

    @classmethod
    def from_couplings(cls, K: int, couplings, seed=None, label="") -> "ProblemInstance":
        K, couplings = _check_couplings(K, couplings)
        seed = None if seed is None else _check_count("seed", seed, 0)
        Z, E = brute_force_ground_state(K, couplings)
        return cls(K=K, couplings=couplings, ground_state=Z, ground_energy=E,
                   seed=seed, label=label or f"K{K}")


def logical_energy(K: int, J: np.ndarray, Z: np.ndarray) -> float:
    """-sum_{i<j} J_ij Z_i Z_j with zero local fields, J in code.edges order."""
    K, J = _check_couplings(K, J)
    Z = validate_logical_state(Z, K)
    a, b = build_code(K).edges.T
    return float(-(J * (Z[a] * Z[b])).sum())


def gen_instance(K: int, seed: int) -> ProblemInstance:
    """Couplings uniform on [-1/4, 1/4], zero local fields, ground state
    by exhaustive enumeration (brute_force_ground_state: 1024-row blocks,
    one block of memory, about 8 ms at K = 18 and 50 ms at K = 21; K <= 24,
    CapacityError above). Deterministic per seed, an integer >= 0: a
    None seed would draw from OS entropy and give no rerunnable label."""
    K = _check_count("K", K, 2)  # before K sizes the draw
    seed = _check_count("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    J = rng.uniform(-0.25, 0.25, size=K * (K - 1) // 2)
    return ProblemInstance.from_couplings(K, J, seed=seed, label=f"K{K}-s{seed}")


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion; refuses
    counts outside 0 <= successes <= trials."""
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got successes={successes}, "
                         f"trials={trials}")
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# i.i.d. noise benchmark

def _bench_unit(unit) -> dict:
    """The (K_list[ki], eps_list[ei]) row of a bench_iid config. Noise is
    drawn BF_TRIAL_CHUNK trials at a time as edge-vector rows, decoded on
    trusted cores: BF a chunk as one stack, BP and sampling row by row.
    BF and BP give one DecodeResult per trial, read in one shared step."""
    config, ki, ei = unit
    decoder, trials, iters = config["decoder"], config["trials"], config["iters"]
    K, eps = config["K_list"][ki], config["eps_list"][ei]
    code = build_code(K)
    cw = config["codeword"]
    target = all_one_matrix(K) if cw is None else np.asarray(cw, dtype=np.int8)
    target_f = matrix_to_vector(code, target)
    tie_policy = TiePolicy(config["tie_policy"])
    if decoder == "mcmc":
        params = HamiltonianParams(gamma=config["mcmc_gamma"], family=config["mcmc_family"])
        budget = code.n_vars if config["mcmc_budget"] is None else config["mcmc_budget"]
    keys = (config["seed"], 11, ki, ei)
    successes = ties = iter_sum = 0
    for start in range(0, trials, BF_TRIAL_CHUNK):
        ts = range(start, min(start + BF_TRIAL_CHUNK, trials))
        e = _iid_error_vector(code, eps, [trial_seed(*keys, t, 0) for t in ts])
        x = e * target_f  # (T, n_vars) int8 readouts
        if decoder == "mcmc":
            runs = [_run_chain(code, params, budget, trial_seed(*keys, t, 1), target_f, row,
                               False)[0] for t, row in zip(ts, x)]
            ok, used = [r.target_hit is not None for r in runs], [r.target_hit or 0 for r in runs]
        else:
            if decoder == "bf":
                res = _bf_decode_stack(code, vector_to_matrix(code, x), iters, tie_policy, target)
            else:
                llr = reliability_weight(max(eps, 1e-12)) * x
                res = [_bp_decode(code, row, iters, target_f, False) for row in llr]
            ok, used = [r.success for r in res], [r.iterations for r in res]
            ties += sum(r.tie_failure for r in res)
        ok = np.asarray(ok, dtype=bool)
        successes += int(ok.sum())
        iter_sum += int(np.asarray(used)[ok].sum())
    failures = trials - successes
    fp = failures / trials if trials else 0.0
    lo, hi = wilson_interval(failures, trials)
    return {
        "decoder": decoder,
        "K": K,
        "epsilon": eps,
        "trials": trials,
        "successes": successes,
        "failures": failures,
        "tie_failures": ties,
        "failure_prob": fp,
        "fail_wilson_low": lo,
        "fail_wilson_high": hi,
        "std_err": math.sqrt(fp * (1 - fp) / trials) if trials else 0.0,
        "mean_iterations_success": (iter_sum / successes) if successes else None,
    }


def bench_iid(
    decoder: str,
    K_list,
    eps_list,
    trials: int,
    iters: int = 5,
    seed: int = 0,
    tie_policy: TiePolicy = TiePolicy.FAIL,
    codeword: np.ndarray | None = None,
    mcmc_budget: int | None = None,
    mcmc_gamma: float = 1.0,
    mcmc_family: str = "w3",
    n_workers: int = 1,
) -> BenchmarkReport:
    """Failure probability of one decoder over a (K, epsilon) grid.

    Noise is applied to the all-one codeword unless another codeword is
    supplied; the noise stream per trial is decoder-independent, so
    different decoders face identical error realizations. Ties in the
    BF vote count as failures by default, matching the benchmark
    convention; COIN is refused, as the benchmark draws no tie coins.
    tie_policy is a TiePolicy or its string value, which gives the same
    report. A supplied codeword must be a codeword of size K for every K
    in K_list; the config records the int8 matrix its validation
    returns, so a float +-1 codeword gives the same report bytes as an
    int one. Every argument lands in the report's config, so each is
    checked for every decoder before any unit runs (BP also needs
    epsilon < 1/2); sizes, counts and the seed must be integers (numpy
    integers included), as the config would otherwise record truncated
    ones.
    """
    if decoder not in ("bf", "bp", "mcmc"):
        raise ValueError(f"unknown decoder {decoder!r}")
    tie_policy = TiePolicy(tie_policy)
    if tie_policy is TiePolicy.COIN:
        raise ValueError("bench_iid needs a deterministic tie policy (keep or fail), not coin")
    cw = None if codeword is None else validate_spin_matrix(codeword)
    config = {
        "decoder": decoder, "K_list": [_check_count("K", K, 2) for K in K_list],
        "eps_list": [float(e) for e in eps_list], "trials": _check_count("trials", trials, 0),
        "iters": _check_count("iters", iters, None if decoder == "mcmc" else 1),
        "seed": _check_count("seed", seed, 0), "tie_policy": tie_policy.value,
        "mcmc_budget": None if mcmc_budget is None else _check_count("mcmc_budget", mcmc_budget, 1),
        "mcmc_gamma": float(mcmc_gamma),
        "mcmc_family": mcmc_family,
        "codeword": None if cw is None else cw.tolist(),
    }
    if not config["K_list"] or not config["eps_list"]:
        raise ValueError("K_list and eps_list must be nonempty")
    n_workers = _worker_count(n_workers)
    eps_max = 0.5 if decoder == "bp" else 1.0
    if not all(0.0 <= e < eps_max for e in eps_list):
        raise ValueError(f"every epsilon must be in [0, {eps_max}), got {list(eps_list)}")
    for K in config["K_list"]:  # refuses a bad gamma or family, or a gamma overflowing at K
        _couplings_for(build_code(K), HamiltonianParams(gamma=mcmc_gamma, family=mcmc_family))
    if cw is not None:
        if any(K != len(cw) for K in config["K_list"]):
            raise ValueError(f"codeword has size {len(cw)}, but K_list is {list(K_list)}")
        if not is_codeword(build_code(len(cw)), cw):
            raise ValueError("codeword violates a triangle check")
    units = [(config, ki, ei) for ki in range(len(config["K_list"]))
             for ei in range(len(config["eps_list"]))]
    return BenchmarkReport(kind="bench_iid", config=config,
                           rows=_run_units(_bench_unit, units, n_workers))


# ---------------------------------------------------------------------------
# (beta, gamma) landscapes

def _lockstep_hits(code, params_rows, budget: int, seeds, targets: np.ndarray,
                   bf_max_iters: int | None = None) -> np.ndarray:
    """(target hit, any-codeword hit) flags, (n_chains, 2), of independent
    chains from random initial states, run through the lockstep engine
    LOCKSTEP_GROUP chains at a time: mcmc_decode's flags, or with
    bf_max_iters set hybrid_decode's. Chain c has params_rows[c],
    seeds[c] and the edge-vector target targets[c]."""
    keys = (("target_hit", "first_codeword") if bf_max_iters is None
            else ("decoded_target_hit", "decoded_any_codeword"))
    hits = np.zeros((len(seeds), 2), dtype=bool)
    for start in range(0, len(seeds), LOCKSTEP_GROUP):
        stop = min(start + LOCKSTEP_GROUP, len(seeds))
        out = _run_lockstep(code, params_rows[start:stop], budget, seeds[start:stop],
                            targets[start:stop], bf_iters=bf_max_iters)
        for i, key in enumerate(keys):
            hits[start:stop, i] = out[key] >= 0
    return hits


def _landscape_unit(unit) -> list[dict]:
    """Rows of a block of (b_index, g_index) cells of a landscape config
    over its instances: every (cell, instance, trial) chain of the block
    runs through `_lockstep_hits`."""
    config, instances, cells = unit
    code = build_code(config["K"])
    trials = config["trials_per_cell"]
    targets = [matrix_to_vector(code, encode(code, inst.ground_state)) for inst in instances]
    chains = []  # (cell index, instance index, params, seed)
    for c, (bi, gi) in enumerate(cells):
        for i, inst in enumerate(instances):
            params = HamiltonianParams(
                beta=config["beta_grid"][bi], gamma=config["gamma_grid"][gi],
                couplings=inst.couplings, family=config["family"])
            for t in range(trials):
                # strategy-independent stream: matched chains across strategies
                chains.append((c, i, params, trial_seed(config["seed"], 23, bi, gi, i, t)))
    hits = np.zeros((len(cells), len(instances), 2), dtype=np.int64)
    if chains:
        flags = _lockstep_hits(
            code, [p for _, _, p, _ in chains], config["budget"],
            [seed for _, _, _, seed in chains], np.stack([targets[i] for _, i, _, _ in chains]),
            config["bf_max_iters"] if config["strategy"] == "hybrid" else None)
        for (c, i, _, _), row in zip(chains, flags):
            hits[c, i] += row
    runs = trials * len(instances)
    rows = []
    for c, (bi, gi) in enumerate(cells):
        tt, ta = int(hits[c, :, 0].sum()), int(hits[c, :, 1].sum())
        lo, hi = wilson_interval(tt, runs)
        rows.append({
            "strategy": config["strategy"],
            "beta": config["beta_grid"][bi],
            "gamma": config["gamma_grid"][gi],
            "budget": config["budget"],
            "runs": runs,
            "target_successes": tt,
            "target_rate": tt / runs if runs else 0.0,
            "target_wilson_low": lo,
            "target_wilson_high": hi,
            "any_codeword_successes": ta,
            "any_codeword_rate": ta / runs if runs else 0.0,
            "per_instance_target": hits[c, :, 0].tolist(),
            "per_instance_any": hits[c, :, 1].tolist(),
        })
    return rows


def landscape(
    instances,
    beta_grid=DEFAULT_BETA_GRID,
    gamma_grid=DEFAULT_GAMMA_GRID,
    strategy: str = "hybrid",
    budget: int | None = None,
    trials_per_cell: int = 100,
    seed: int = 0,
    bf_max_iters: int = 5,
    family: str = "w4",
    n_workers: int = 1,
) -> BenchmarkReport:
    """Success-rate landscape over annealing parameters.

    budget None uses the conventional defaults: 1200*C(K,2) samples for
    plain sampling, 4*C(K,2) for the hybrid. Chain seeds depend only on
    (seed, cell, instance, trial), so the two strategies at equal budget
    see identical chains and the hybrid dominates pointwise. The budget,
    trial count, seed and BF iterations land in the report's config, so
    each must be an integer (numpy integers included), as for bench_iid.
    """
    if strategy not in ("mcmc", "hybrid"):
        raise ValueError(f"unknown strategy {strategy!r}")
    bf_max_iters = _check_count("bf_max_iters", bf_max_iters, 1 if strategy == "hybrid" else None)
    trials_per_cell = _check_count("trials_per_cell", trials_per_cell, 0)
    seed = _check_count("seed", seed, 0)
    if budget is not None:
        budget = _check_count("budget", budget, 1)
    n_workers = _worker_count(n_workers)
    instances = list(instances)
    if not instances:
        raise ValueError("need at least one instance")
    if not len(beta_grid) or not len(gamma_grid):
        raise ValueError("grids must be nonempty")
    K = instances[0].K
    if any(inst.K != K for inst in instances):
        raise ValueError("all instances must share the same K")
    n_vars = K * (K - 1) // 2
    if budget is None:
        budget = 1200 * n_vars if strategy == "mcmc" else 4 * n_vars
    config = {
        "K": K, "strategy": strategy, "beta_grid": [float(b) for b in beta_grid],
        "gamma_grid": [float(g) for g in gamma_grid], "budget": budget,
        "trials_per_cell": trials_per_cell, "seed": seed,
        "bf_max_iters": bf_max_iters, "family": family,
        "instances": [inst.label for inst in instances],
        "instance_seeds": [inst.seed for inst in instances],
    }
    # every grid value, the family and the strengths' overflow bound,
    # checked before any chain runs
    _check_strengths(beta_grid=config["beta_grid"], gamma_grid=config["gamma_grid"])
    code = build_code(K)
    for inst in instances:  # the largest strengths bound every cell's sums
        _couplings_for(code, HamiltonianParams(max(config["beta_grid"]), max(config["gamma_grid"]),
                                               inst.couplings, family))
    cells = [(bi, gi) for bi in range(len(beta_grid)) for gi in range(len(gamma_grid))]
    # one contiguous block of cells per worker
    n_blocks = min(n_workers, len(cells))
    bounds = [len(cells) * u // n_blocks for u in range(n_blocks + 1)]
    units = [(config, instances, cells[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    rows = [row for block in _run_units(_landscape_unit, units, n_workers) for row in block]
    return BenchmarkReport(kind="landscape", config=config, rows=rows)


def best_cell(report: BenchmarkReport, rate_key: str = "target_rate") -> dict:
    """Row with the highest rate (ties: first in grid order)."""
    if not report.rows:
        raise ValueError("empty report")
    return max(report.rows, key=lambda r: r[rate_key])


# ---------------------------------------------------------------------------
# Efficiency ratio between sampling budgets

def efficiency_ratio(
    instance: ProblemInstance,
    cell_a: tuple[float, float],
    cell_b: tuple[float, float],
    seed: int = 0,
    trials: int = 24,
    budget_a: int | None = None,
    budget_b: int | None = None,
    family: str = "w4",
    bf_max_iters: int = 5,
    return_details: bool = False,
):
    """Samples-per-target-success of plain sampling at cell_a divided by
    the hybrid's at cell_b. Budgets default to 1200*C(K,2) and 4*C(K,2)
    per trial. Returns NaN when either arm records no success
    (unestimable), never raises for that. bf_max_iters and given
    budgets must be integers >= 1, trials and seed integers >= 0."""
    bf_max_iters = _check_count("bf_max_iters", bf_max_iters, 1)
    trials = _check_count("trials", trials, 0)
    seed = _check_count("seed", seed, 0)
    code = build_code(instance.K)
    budgets = (1200 * code.n_vars if budget_a is None else _check_count("budget_a", budget_a, 1),
               4 * code.n_vars if budget_b is None else _check_count("budget_b", budget_b, 1))
    # (params, budget, BF iterations) per arm, all checked before any chain
    # runs: arm A's chains are mcmc_decode's, arm B's hybrid_decode's, at
    # seeds trial_seed(seed, 31, arm, t), run in lockstep batches
    arms = [(HamiltonianParams(beta=b, gamma=g, couplings=instance.couplings, family=family),
             budget, iters)
            for (b, g), budget, iters in zip((cell_a, cell_b), budgets, (None, bf_max_iters))]
    for params, _, _ in arms:
        _couplings_for(code, params)
    target = matrix_to_vector(code, encode(code, instance.ground_state))
    targets = np.repeat(target[None], trials, axis=0)
    succ, spp = [], []
    for arm, (params, budget, iters) in enumerate(arms):
        seeds = [trial_seed(seed, 31, arm, t) for t in range(trials)]
        succ.append(int(_lockstep_hits(code, [params] * trials, budget, seeds, targets,
                                       iters)[:, 0].sum()))
        spp.append(trials * budget / succ[-1] if succ[-1] else math.nan)
    details = {
        "trials": trials, "budget_a": budgets[0], "budget_b": budgets[1],
        "successes_a": succ[0], "successes_b": succ[1],
        "samples_per_success_a": spp[0], "samples_per_success_b": spp[1],
        "ratio": spp[0] / spp[1],
    }
    return (details["ratio"], details) if return_details else details["ratio"]


# ---------------------------------------------------------------------------
# Trajectory demonstrations

def trajectory_demo(
    source: dict,
    decoder: str = "bf",
    seed: int = 0,
    iters: int = 5,
    bp_epsilon: float = 0.25,
) -> TrajectoryDump:
    """Decode one noisy readout and dump per-iteration snapshots.

    source: {"kind": "iid", "K": int, "epsilon": float} flips the
    all-one codeword, or {"kind": "mcmc", "instance": ProblemInstance,
    "beta": float, "gamma": float, "budget": int optional,
    "family": str optional} decodes the final state of a sampling chain
    against the instance's encoded ground state. bp_epsilon is the flip
    rate BP assumes; the meta records it whenever the decoder is BP.
    """
    if decoder not in ("bf", "bp"):
        raise ValueError(f"unknown decoder {decoder!r}")
    if decoder == "bp":
        reliability_weight(bp_epsilon)  # refuses a flip rate outside (0, 1/2)
    seed = _check_count("seed", seed, 0)
    iters = _check_count("max_iters", iters, 1)  # the decoders' name for it
    kind = source.get("kind")
    if kind not in ("iid", "mcmc"):
        raise ValueError(f"unknown source kind {kind!r}")
    needed = ("K", "epsilon") if kind == "iid" else ("instance", "beta", "gamma")
    missing = [key for key in needed if key not in source]
    if missing:
        raise ValueError(f"{kind} source needs the key(s) {missing}")
    if kind == "iid":
        K = _check_count("K", source["K"], 2)
        code = build_code(K)
        target = all_one_matrix(K)
        x = sample_iid_errors(code, float(source["epsilon"]), trial_seed(seed, 41, 0))
        meta = {"source": "iid", "K": K, "epsilon": float(source["epsilon"])}
    else:
        inst = source["instance"]
        code = build_code(inst.K)
        target = encode(code, inst.ground_state)
        budget = _check_count("budget", source.get("budget", 4 * code.n_vars), 1)
        params = HamiltonianParams(
            beta=float(source["beta"]), gamma=float(source["gamma"]),
            couplings=inst.couplings, family=source.get("family", "w4"),
        )
        _, run = mcmc_decode(code, params, budget, target, trial_seed(seed, 41, 1),
                             store_samples=False)
        x = vector_to_matrix(code, run.final_f)
        meta = {"source": "mcmc", "K": inst.K, "beta": params.beta,
                "gamma": params.gamma, "budget": budget, "instance": inst.label}

    meta.update({"decoder": decoder, "iters": iters, "seed": seed})
    if decoder == "bf":
        res = bf_decode(code, x, max_iters=iters, target=target, record_trajectory=True)
        snaps = res.trajectory
    else:
        meta["bp_epsilon"] = float(bp_epsilon)
        res = bp_decode(code, x=x, epsilon=bp_epsilon, max_iters=iters,
                        target=target, record=True)
        snaps = [hard_decide(p, code) for p in res.posteriors]
    meta.update({"success": bool(res.success), "iterations": int(res.iterations)})
    errors = [count_errors(s, target) for s in snaps]
    return TrajectoryDump(meta=meta, snapshots=snaps, error_counts=errors)


# ---------------------------------------------------------------------------

def _worker_count(n_workers: int | None) -> int:
    """n_workers checked to be an integer >= 1; None means every CPU."""
    return (os.cpu_count() or 1) if n_workers is None else _check_count("n_workers", n_workers, 1)


def _run_units(fn, units: list, n_workers: int) -> list:
    if n_workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    # imported here: it loads multiprocessing, about 5 ms of every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(units))) as pool:
        return list(pool.map(fn, units))
