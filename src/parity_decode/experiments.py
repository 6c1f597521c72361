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
    build_code,
    encode,
    is_codeword,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
)
from .decoders import (
    CapacityError,
    TiePolicy,
    _bf_decode_stack,
    _bp_decode,
    _check_count,
    bf_decode,
    bp_decode,
    count_errors,
)
from .mcmc import LOCKSTEP_GROUP, HamiltonianParams, _run_chain, _run_lockstep, mcmc_decode
from .reports import BenchmarkReport, TrajectoryDump

GROUND_STATE_MAX_K = 24
DEFAULT_BETA_GRID = tuple(round(0.25 * i, 2) for i in range(13))   # 0 .. 3.0
DEFAULT_GAMMA_GRID = tuple(round(0.1 * i, 2) for i in range(16))   # 0 .. 1.5
BF_TRIAL_CHUNK = 16  # bench_iid BF trials decoded as one stack


@dataclass(frozen=True)
class ProblemInstance:
    """Random all-to-all couplings with the precomputed logical ground
    state (first spin pinned +1; the global flip is equivalent)."""

    K: int
    couplings: np.ndarray
    ground_state: np.ndarray
    ground_energy: float
    seed: int | None = None
    label: str = ""

    @classmethod
    def from_couplings(cls, K: int, couplings, seed=None, label="") -> "ProblemInstance":
        couplings = np.asarray(couplings, dtype=np.float64).ravel()
        if len(couplings) != K * (K - 1) // 2:
            raise ValueError(f"couplings length {len(couplings)} != C({K},2)")
        Z, E = brute_force_ground_state(K, couplings)
        return cls(K=K, couplings=couplings, ground_state=Z, ground_energy=E,
                   seed=seed, label=label or f"K{K}")


def logical_energy(K: int, J: np.ndarray, Z: np.ndarray) -> float:
    """-sum_{i<j} J_ij Z_i Z_j with zero local fields, J in code.edges order."""
    a, b = build_code(K).edges.T
    return float(-(J * (np.asarray(Z)[a] * np.asarray(Z)[b])).sum())


def brute_force_ground_state(K: int, J: np.ndarray, chunk: int = 1 << 16):
    """Exhaustive minimum of the logical energy over 2^(K-1) states
    (global flip halves the space). Returns (state, energy)."""
    if K > GROUND_STATE_MAX_K:
        raise CapacityError(f"K={K} exceeds exhaustive ground-state bound {GROUND_STATE_MAX_K}")
    J = np.asarray(J, dtype=np.float64).ravel()
    a, b = build_code(K).edges.T
    count = 1 << (K - 1)
    best_e = math.inf
    best_z = None
    shifts = np.arange(K - 1)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        bits = (np.arange(start, stop)[:, None] >> shifts[None, :]) & 1
        Z = np.ones((stop - start, K), dtype=np.int8)
        Z[:, 1:] = (2 * bits - 1).astype(np.int8)
        prods = Z[:, a] * Z[:, b]
        energies = -(prods @ J)
        i = int(np.argmin(energies))
        if energies[i] < best_e:
            best_e = float(energies[i])
            best_z = Z[i].copy()
    return best_z, best_e


def gen_instance(K: int, seed: int) -> ProblemInstance:
    """Couplings uniform on [-1/4, 1/4], zero local fields, ground state
    by exhaustive enumeration. Deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    J = rng.uniform(-0.25, 0.25, size=K * (K - 1) // 2)
    return ProblemInstance.from_couplings(K, J, seed=seed, label=f"K{K}-s{seed}")


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
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
    trusted cores: BF a chunk as one stack, BP and sampling row by row."""
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
        e = np.stack([_iid_error_vector(code, eps, trial_seed(*keys, t, 0)) for t in ts])
        x = e * target_f  # (T, n_vars) int8 readouts
        if decoder == "bf":
            out = _bf_decode_stack(code, vector_to_matrix(code, x.astype(np.float32)), iters,
                                   tie_policy, target.astype(np.float32))
            ok, used = out.success, out.iterations
            ties += int(out.tie_failure.sum())
        elif decoder == "bp":
            llr = reliability_weight(max(eps, 1e-12)) * x
            res = [_bp_decode(code, row, iters, target_f, False) for row in llr]
            ok, used = [r.success for r in res], [r.iterations for r in res]
        else:
            runs = [_run_chain(code, params, budget, trial_seed(*keys, t, 1), target_f, row,
                               False)[0] for t, row in zip(ts, x)]
            ok, used = [r.target_hit is not None for r in runs], [r.target_hit or 0 for r in runs]
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
    convention; COIN is refused, as the benchmark draws no tie coins. A
    supplied codeword must be a codeword of size K for every K in K_list.
    Every argument lands in the report's config, so each is checked for
    every decoder before any unit runs (BP also needs epsilon < 1/2);
    sizes, counts and the seed must be integers (numpy integers
    included), as the config would otherwise record truncated ones.
    """
    if decoder not in ("bf", "bp", "mcmc"):
        raise ValueError(f"unknown decoder {decoder!r}")
    if tie_policy is TiePolicy.COIN:
        raise ValueError("bench_iid needs a deterministic tie policy (keep or fail), not coin")
    sizes = [("K", K, 2) for K in K_list] + [
        ("trials", trials, 0), ("iters", iters, None if decoder == "mcmc" else 1),
        ("seed", seed, 0)]
    if mcmc_budget is not None:
        sizes.append(("mcmc_budget", mcmc_budget, 1))
    for name, value, low in sizes:
        _check_count(name, value, low)
    eps_max = 0.5 if decoder == "bp" else 1.0
    if not all(0.0 <= e < eps_max for e in eps_list):
        raise ValueError(f"every epsilon must be in [0, {eps_max}), got {list(eps_list)}")
    HamiltonianParams(gamma=mcmc_gamma, family=mcmc_family)  # refuses a bad gamma or family
    if codeword is not None:
        cw = validate_spin_matrix(codeword)
        if any(int(K) != len(cw) for K in K_list):
            raise ValueError(f"codeword has size {len(cw)}, but K_list is {list(K_list)}")
        if not is_codeword(build_code(len(cw)), cw):
            raise ValueError("codeword violates a triangle check")
    config = {
        "decoder": decoder, "K_list": [int(k) for k in K_list],
        "eps_list": [float(e) for e in eps_list], "trials": int(trials),
        "iters": int(iters), "seed": int(seed), "tie_policy": tie_policy.value,
        "mcmc_budget": None if mcmc_budget is None else int(mcmc_budget),
        "mcmc_gamma": float(mcmc_gamma),
        "mcmc_family": mcmc_family,
        "codeword": None if codeword is None else np.asarray(codeword).tolist(),
    }
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
    _check_count("bf_max_iters", bf_max_iters, 1 if strategy == "hybrid" else None)
    _check_count("trials_per_cell", trials_per_cell, 0)
    _check_count("seed", seed, 0)
    if budget is not None:
        _check_count("budget", budget, 1)
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
        "gamma_grid": [float(g) for g in gamma_grid], "budget": int(budget),
        "trials_per_cell": int(trials_per_cell), "seed": int(seed),
        "bf_max_iters": int(bf_max_iters), "family": family,
        "instances": [inst.label for inst in instances],
        "instance_seeds": [inst.seed for inst in instances],
    }
    cells = [(bi, gi) for bi in range(len(beta_grid)) for gi in range(len(gamma_grid))]
    # one contiguous block of cells per worker
    n_blocks = max(1, min(_worker_count(n_workers), len(cells)))
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
    _check_count("bf_max_iters", bf_max_iters, 1)
    _check_count("trials", trials, 0)
    _check_count("seed", seed, 0)
    for name, budget in (("budget_a", budget_a), ("budget_b", budget_b)):
        if budget is not None:
            _check_count(name, budget, 1)
    code = build_code(instance.K)
    target = encode(code, instance.ground_state)
    n_vars = code.n_vars
    budget_a = 1200 * n_vars if budget_a is None else budget_a
    budget_b = 4 * n_vars if budget_b is None else budget_b
    params_a = HamiltonianParams(beta=cell_a[0], gamma=cell_a[1],
                                 couplings=instance.couplings, family=family)
    params_b = HamiltonianParams(beta=cell_b[0], gamma=cell_b[1],
                                 couplings=instance.couplings, family=family)
    # arm A's chains are mcmc_decode's, arm B's hybrid_decode's, at
    # seeds trial_seed(seed, 31, arm, t), run in lockstep batches
    targets = np.repeat(matrix_to_vector(code, target)[None], trials, axis=0)
    arms = ((params_a, budget_a, None), (params_b, budget_b, bf_max_iters))
    succ = []
    for arm, (params, budget, iters) in enumerate(arms):
        seeds = [trial_seed(seed, 31, arm, t) for t in range(trials)]
        succ.append(int(_lockstep_hits(code, [params] * trials, budget, seeds, targets,
                                       iters)[:, 0].sum()))
    succ_a, succ_b = succ
    details = {
        "trials": trials, "budget_a": budget_a, "budget_b": budget_b,
        "successes_a": succ_a, "successes_b": succ_b,
        "samples_per_success_a": (trials * budget_a / succ_a) if succ_a else math.nan,
        "samples_per_success_b": (trials * budget_b / succ_b) if succ_b else math.nan,
    }
    if succ_a == 0 or succ_b == 0:
        ratio = math.nan
    else:
        ratio = details["samples_per_success_a"] / details["samples_per_success_b"]
    details["ratio"] = ratio
    return (ratio, details) if return_details else ratio


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
    against the instance's encoded ground state.
    """
    kind = source.get("kind")
    if kind == "iid":
        K = int(source["K"])
        code = build_code(K)
        target = all_one_matrix(K)
        x = sample_iid_errors(code, float(source["epsilon"]), trial_seed(seed, 41, 0))
        meta = {"source": "iid", "K": K, "epsilon": float(source["epsilon"])}
    elif kind == "mcmc":
        inst = source["instance"]
        code = build_code(inst.K)
        target = encode(code, inst.ground_state)
        budget = int(source.get("budget", 4 * code.n_vars))
        params = HamiltonianParams(
            beta=float(source["beta"]), gamma=float(source["gamma"]),
            couplings=inst.couplings, family=source.get("family", "w4"),
        )
        _, run = mcmc_decode(code, params, budget, target, trial_seed(seed, 41, 1))
        x = run.samples[-1]
        meta = {"source": "mcmc", "K": inst.K, "beta": params.beta,
                "gamma": params.gamma, "budget": budget, "instance": inst.label}
    else:
        raise ValueError(f"unknown source kind {kind!r}")

    meta.update({"decoder": decoder, "iters": iters, "seed": seed})
    if decoder == "bf":
        res = bf_decode(code, x, max_iters=iters, target=target, record_trajectory=True)
        snaps = res.trajectory
    elif decoder == "bp":
        res = bp_decode(code, x=x, epsilon=bp_epsilon, max_iters=iters,
                        target=target, record=True)
        snaps = [hard_decide(p, code) for p in res.posteriors]
    else:
        raise ValueError(f"unknown decoder {decoder!r}")
    meta.update({"success": bool(res.success), "iterations": int(res.iterations)})
    errors = [count_errors(s, target) for s in snaps]
    return TrajectoryDump(meta=meta, snapshots=snaps, error_counts=errors)


# ---------------------------------------------------------------------------

def _worker_count(n_workers: int | None) -> int:
    return (os.cpu_count() or 1) if n_workers is None else n_workers


def _run_units(fn, units: list, n_workers: int | None) -> list:
    n_workers = _worker_count(n_workers)
    if n_workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    # imported here: it loads multiprocessing, about 5 ms of every import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(units))) as pool:
        return list(pool.map(fn, units))
