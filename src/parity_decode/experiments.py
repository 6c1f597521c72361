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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import hard_decide, sample_iid_errors, trial_seed
from .code import (
    all_one_matrix,
    build_code,
    encode,
    is_codeword,
    matrix_to_vector,
    validate_spin_matrix,
)
from .decoders import CapacityError, TiePolicy, bf_decode, bp_decode, count_errors
from .mcmc import (
    LOCKSTEP_GROUP,
    LOCKSTEP_STATE_BYTES,
    HamiltonianParams,
    _bf_stage,
    _run_lockstep,
    hybrid_decode,
    mcmc_decode,
)
from .reports import BenchmarkReport, TrajectoryDump

GROUND_STATE_MAX_K = 24
DEFAULT_BETA_GRID = tuple(round(0.25 * i, 2) for i in range(13))   # 0 .. 3.0
DEFAULT_GAMMA_GRID = tuple(round(0.1 * i, 2) for i in range(16))   # 0 .. 1.5


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
    """-sum_{i<j} J_ij Z_i Z_j with zero local fields."""
    iu = np.triu_indices(K, 1)
    return float(-(J * (np.asarray(Z)[iu[0]] * np.asarray(Z)[iu[1]])).sum())


def brute_force_ground_state(K: int, J: np.ndarray, chunk: int = 1 << 16):
    """Exhaustive minimum of the logical energy over 2^(K-1) states
    (global flip halves the space). Returns (state, energy)."""
    if K > GROUND_STATE_MAX_K:
        raise CapacityError(f"K={K} exceeds exhaustive ground-state bound {GROUND_STATE_MAX_K}")
    J = np.asarray(J, dtype=np.float64).ravel()
    iu = np.triu_indices(K, 1)
    count = 1 << (K - 1)
    best_e = math.inf
    best_z = None
    shifts = np.arange(K - 1)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        bits = (np.arange(start, stop)[:, None] >> shifts[None, :]) & 1
        Z = np.ones((stop - start, K), dtype=np.int8)
        Z[:, 1:] = (2 * bits - 1).astype(np.int8)
        prods = Z[:, iu[0]] * Z[:, iu[1]]
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
    Z, E = brute_force_ground_state(K, J)
    return ProblemInstance(K=K, couplings=J, ground_state=Z, ground_energy=E,
                           seed=seed, label=f"K{K}-s{seed}")


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

def _decode_iid_trial(code, decoder, x, target, eps, iters, chain_seed,
                      tie_policy, mcmc_budget, mcmc_gamma, mcmc_family):
    if decoder == "bf":
        res = bf_decode(code, x, max_iters=iters, tie_policy=tie_policy, target=target)
        return res.success, res.iterations, res.tie_failure
    if decoder == "bp":
        res = bp_decode(code, x=x, epsilon=max(eps, 1e-12), max_iters=iters, target=target)
        return res.success, res.iterations, False
    if decoder == "mcmc":
        params = HamiltonianParams(beta=0.0, gamma=mcmc_gamma, couplings=None,
                                   family=mcmc_family)
        budget = mcmc_budget if mcmc_budget is not None else code.n_vars
        ok, run = mcmc_decode(code, params, budget, target, chain_seed,
                              initial=x, store_samples=False)
        return ok, (run.target_hit if ok else budget), False
    raise ValueError(f"unknown decoder {decoder!r}")


def _bench_unit(payload: dict) -> dict:
    decoder = payload["decoder"]
    K = payload["K"]
    eps = payload["epsilon"]
    code = build_code(K)
    target = payload.get("codeword")
    target = all_one_matrix(K) if target is None else np.asarray(target, dtype=np.int8)
    successes = ties = 0
    iter_sum = 0
    for t in range(payload["trials"]):
        noise_seed = trial_seed(payload["seed"], 11, payload["k_index"], payload["e_index"], t, 0)
        chain_seed = trial_seed(payload["seed"], 11, payload["k_index"], payload["e_index"],
                                t, 1) if decoder == "mcmc" else None
        e = sample_iid_errors(code, eps, noise_seed)
        x = (target * e).astype(np.int8)
        ok, iters_used, tie_failed = _decode_iid_trial(
            code, decoder, x, target, eps, payload["iters"], chain_seed,
            payload["tie_policy"], payload["mcmc_budget"], payload["mcmc_gamma"],
            payload["mcmc_family"],
        )
        if ok:
            successes += 1
            iter_sum += iters_used
        if tie_failed:
            ties += 1
    trials = payload["trials"]
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
    """
    if decoder not in ("bf", "bp", "mcmc"):
        raise ValueError(f"unknown decoder {decoder!r}")
    if tie_policy is TiePolicy.COIN:
        raise ValueError("bench_iid needs a deterministic tie policy (keep or fail), not coin")
    if codeword is not None:
        cw = validate_spin_matrix(codeword)
        if any(int(K) != len(cw) for K in K_list):
            raise ValueError(f"codeword has size {len(cw)}, but K_list is {list(K_list)}")
        if not is_codeword(build_code(len(cw)), cw):
            raise ValueError("codeword violates a triangle check")
    units = []
    for ki, K in enumerate(K_list):
        for ei, eps in enumerate(eps_list):
            units.append({
                "decoder": decoder, "K": int(K), "epsilon": float(eps),
                "k_index": ki, "e_index": ei, "trials": int(trials),
                "iters": int(iters), "seed": int(seed), "tie_policy": tie_policy,
                "codeword": None if codeword is None else np.asarray(codeword),
                "mcmc_budget": mcmc_budget, "mcmc_gamma": mcmc_gamma,
                "mcmc_family": mcmc_family,
            })
    rows = _run_units(_bench_unit, units, n_workers)
    config = {
        "decoder": decoder, "K_list": [int(k) for k in K_list],
        "eps_list": [float(e) for e in eps_list], "trials": int(trials),
        "iters": int(iters), "seed": int(seed), "tie_policy": tie_policy.value,
        "mcmc_budget": mcmc_budget, "mcmc_gamma": mcmc_gamma,
        "mcmc_family": mcmc_family,
        "codeword": None if codeword is None else np.asarray(codeword).tolist(),
    }
    return BenchmarkReport(kind="bench_iid", config=config, rows=rows)


# ---------------------------------------------------------------------------
# (beta, gamma) landscapes

def _landscape_unit(payload: dict) -> list[dict]:
    """Rows of a block of cells. Every (cell, instance, trial) chain of
    the block runs through the lockstep engine, LOCKSTEP_GROUP chains at
    a time (fewer for the hybrid when their recorded states would pass
    LOCKSTEP_STATE_BYTES); the hybrid then runs its BF stage chain by
    chain."""
    code = build_code(payload["K"])
    strategy = payload["strategy"]
    budget = payload["budget"]
    trials = payload["trials_per_cell"]
    instances = payload["instances"]
    targets = [matrix_to_vector(code, encode(code, np.asarray(inst["ground_state"])))
               for inst in instances]
    chains = []  # (cell index, instance index, params, seed)
    for c, cell in enumerate(payload["cells"]):
        for i, inst in enumerate(instances):
            params = HamiltonianParams(beta=cell["beta"], gamma=cell["gamma"],
                                       couplings=np.asarray(inst["couplings"]),
                                       family=payload["family"])
            for t in range(trials):
                # strategy-independent stream: matched chains across strategies
                seed = trial_seed(payload["seed"], 23, cell["b_index"], cell["g_index"], i, t)
                chains.append((c, i, params, seed))
    group_size = LOCKSTEP_GROUP
    if strategy == "hybrid":
        # recorded states cost (budget + 1) * n_vars bytes per chain
        group_size = max(1, min(group_size, LOCKSTEP_STATE_BYTES // ((budget + 1) * code.n_vars)))
    hits = np.zeros((len(payload["cells"]), len(instances), 2), dtype=np.int64)
    for start in range(0, len(chains), group_size):
        group = chains[start:start + group_size]
        group_targets = np.stack([targets[i] for _, i, _, _ in group])
        out = _run_lockstep(code, [p for _, _, p, _ in group], budget,
                            [seed for _, _, _, seed in group], group_targets,
                            record_states=strategy == "hybrid")
        for g, (c, i, _, _) in enumerate(group):
            if strategy == "mcmc":
                ok = out["target_hit"][g] >= 0
                any_hit = out["first_codeword"][g] >= 0
            else:
                hit, codeword, _ = _bf_stage(code, out["states"][g], group_targets[g],
                                             payload["bf_max_iters"])
                ok, any_hit = hit is not None, codeword is not None
            hits[c, i] += (int(ok), int(any_hit))
    return [_landscape_row(strategy, cell, budget, trials * len(instances),
                           hits[c, :, 0].tolist(), hits[c, :, 1].tolist())
            for c, cell in enumerate(payload["cells"])]


def _landscape_row(strategy, cell, budget, runs, per_instance_target, per_instance_any):
    tt = sum(per_instance_target)
    ta = sum(per_instance_any)
    lo, hi = wilson_interval(tt, runs)
    return {
        "strategy": strategy,
        "beta": cell["beta"],
        "gamma": cell["gamma"],
        "budget": budget,
        "runs": runs,
        "target_successes": tt,
        "target_rate": tt / runs if runs else 0.0,
        "target_wilson_low": lo,
        "target_wilson_high": hi,
        "any_codeword_successes": ta,
        "any_codeword_rate": ta / runs if runs else 0.0,
        "per_instance_target": per_instance_target,
        "per_instance_any": per_instance_any,
    }


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
    see identical chains and the hybrid dominates pointwise.
    """
    if strategy not in ("mcmc", "hybrid"):
        raise ValueError(f"unknown strategy {strategy!r}")
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
    inst_payload = [
        {"couplings": inst.couplings, "ground_state": inst.ground_state}
        for inst in instances
    ]
    cells = [{"beta": float(beta), "gamma": float(gamma), "b_index": bi, "g_index": gi}
             for bi, beta in enumerate(beta_grid) for gi, gamma in enumerate(gamma_grid)]
    # one contiguous block of cells per worker
    n_blocks = max(1, min(_worker_count(n_workers), len(cells)))
    bounds = [len(cells) * u // n_blocks for u in range(n_blocks + 1)]
    units = [{
        "K": K, "strategy": strategy, "cells": cells[lo:hi], "budget": int(budget),
        "trials_per_cell": int(trials_per_cell), "seed": int(seed),
        "bf_max_iters": int(bf_max_iters), "family": family, "instances": inst_payload,
    } for lo, hi in zip(bounds, bounds[1:])]
    rows = [row for block in _run_units(_landscape_unit, units, n_workers) for row in block]
    config = {
        "K": K, "strategy": strategy, "beta_grid": [float(b) for b in beta_grid],
        "gamma_grid": [float(g) for g in gamma_grid], "budget": int(budget),
        "trials_per_cell": int(trials_per_cell), "seed": int(seed),
        "bf_max_iters": int(bf_max_iters), "family": family,
        "instances": [inst.label for inst in instances],
        "instance_seeds": [inst.seed for inst in instances],
    }
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
    (unestimable), never raises for that."""
    code = build_code(instance.K)
    target = encode(code, instance.ground_state)
    n_vars = code.n_vars
    budget_a = 1200 * n_vars if budget_a is None else budget_a
    budget_b = 4 * n_vars if budget_b is None else budget_b
    params_a = HamiltonianParams(beta=cell_a[0], gamma=cell_a[1],
                                 couplings=instance.couplings, family=family)
    params_b = HamiltonianParams(beta=cell_b[0], gamma=cell_b[1],
                                 couplings=instance.couplings, family=family)
    succ_a = succ_b = 0
    for t in range(trials):
        ok, _ = mcmc_decode(code, params_a, budget_a, target,
                            trial_seed(seed, 31, 0, t), store_samples=False)
        succ_a += int(ok)
        ok, _ = hybrid_decode(code, params_b, budget_b, target,
                              trial_seed(seed, 31, 1, t),
                              bf_max_iters=bf_max_iters, store_samples=False)
        succ_b += int(ok)
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


def _run_units(fn, units: list[dict], n_workers: int | None) -> list:
    n_workers = _worker_count(n_workers)
    if n_workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    with ProcessPoolExecutor(max_workers=min(n_workers, len(units))) as pool:
        return list(pool.map(fn, units))
