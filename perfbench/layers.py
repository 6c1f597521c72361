"""Per-layer metrics of the traced run, and the end-to-end metric each one
should move, on which workload.

Counts and self times cover one traced set-up plus one round (rounds
repeat the same calls, so a round's counts are exact and the self times
are averaged over the traced rounds). Ratios and microseconds per step
cover the rounds only.
"""

from __future__ import annotations

from collections import Counter

from tracer import SETUP_TRIAL

IID, LAND, LONG = "iid_decode", "landscape_k14", "long_chain_k14"
ALL = (IID, LAND, LONG)


def _on(metric, *workloads):
    return [f"{metric}@{w}" for w in workloads]


_CONVERT = _on("decode_trials_per_s", LAND, IID)
_SETUP = _on("setup_s", *ALL)
_NOISE = _on("decode_trials_per_s", IID) + _on("sample_steps_per_s", IID)
_DECODE = _on("decode_trials_per_s", IID)
_BATCH = _on("decode_trials_per_s", LAND, LONG)
_CHAIN = _on("sample_steps_per_s", LAND, LONG, IID)
_HYBRID = _on("decode_trials_per_s", LAND, LONG)
_REPORTS = _on("round_s", *ALL)

# name -> (unit, better, end-to-end metrics it should move)
LAYER_METRICS = {
    "code.validate_spin_matrix.calls": ("count", "lower", _DECODE),
    "code.validate_spin_matrix.self_s": ("s", "lower", _DECODE),
    "code.vector_to_matrix.calls": ("count", "lower", _CONVERT),
    "code.vector_to_matrix.self_s": ("s", "lower", _CONVERT),
    "code.matrix_to_vector.calls": ("count", "lower", _CONVERT),
    "code.matrix_to_vector.self_s": ("s", "lower", _CONVERT),
    "code.build_code.calls": ("count", "lower", _SETUP),
    "code.build_code.self_s": ("s", "lower", _SETUP),
    "channels.trial_seed.calls": ("count", "lower", _NOISE),
    "channels.trial_seed.self_s": ("s", "lower", _NOISE),
    "channels.sample_iid_errors.calls": ("count", "lower", _NOISE),
    "channels.sample_iid_errors.self_s": ("s", "lower", _NOISE),
    "decoders.bf_decode.calls": ("count", "lower", _DECODE),
    "decoders.bf_decode.self_s": ("s", "lower", _DECODE),
    "decoders.bf_decode.sweeps": ("count", "lower", _DECODE),
    "decoders.bf_decode.ties": ("count", "lower", _DECODE),
    "decoders.bf_decode.tie_failures": ("count", "lower", _DECODE),
    "decoders.bf_step.calls": ("count", "lower", _DECODE),
    "decoders.bf_step.self_s": ("s", "lower", _DECODE),
    "decoders.bp_decode.calls": ("count", "lower", _DECODE),
    "decoders.bp_decode.self_s": ("s", "lower", _DECODE),
    "decoders.bp_decode.iterations": ("count", "lower", _DECODE),
    "decoders.bf_sweep_batch.calls": ("count", "lower", _BATCH),
    "decoders.bf_sweep_batch.states": ("count", "lower", _BATCH),
    "decoders.bf_sweep_batch.self_s": ("s", "lower", _BATCH),
    "decoders.bf_sweep_batch.gop_computed": ("Gop", "lower", _BATCH),
    "decoders.bf.success_frac": ("ratio", "higher", _DECODE),
    "decoders.bp.success_frac": ("ratio", "higher", _DECODE),
    "mcmc.mcmc_decode.calls": ("count", "lower", _CHAIN),
    "mcmc.mcmc_decode.self_s": ("s", "lower", _CHAIN),
    "mcmc.mcmc_decode.steps": ("count", "lower", _CHAIN),
    "mcmc.us_per_step.w4_k14": ("us", "lower", _on("sample_steps_per_s", LAND, LONG)),
    "mcmc.us_per_step.w3_k40": ("us", "lower", _on("sample_steps_per_s", IID)),
    "mcmc.hybrid_decode.calls": ("count", "lower", _HYBRID),
    "mcmc.hybrid_decode.self_s": ("s", "lower", _HYBRID),
    "mcmc.hybrid_decode.states": ("count", "lower", _HYBRID),
    "mcmc.hybrid_decode.peak_traced_mb": ("MB", "lower", _on("peak_rss_mb", LONG)),
    "mcmc.target_hit_frac": ("ratio", "higher", _CHAIN),
    "mcmc.codeword_hit_frac": ("ratio", "higher", _CHAIN),
    "mcmc.hybrid_target_hit_frac": ("ratio", "higher", _HYBRID),
    "mcmc.zero_escape_rate_steps": ("count", "lower", _on("sample_steps_per_s", LONG, LAND)),
    "experiments.bench_iid.self_s": ("s", "lower", _on("round_s", IID) + _DECODE),
    "experiments.landscape.self_s": ("s", "lower",
                                     _on("round_s", LAND) + _on("decode_trials_per_s", LAND)),
    "experiments.gen_instance.calls": ("count", "lower", _on("setup_s", LAND, LONG)),
    "experiments.gen_instance.self_s": ("s", "lower", _on("setup_s", LAND, LONG)),
    "reports.to_json.self_s": ("s", "lower", _REPORTS),
    "reports.to_json.bytes": ("bytes", "lower", _REPORTS),
    "reports.to_csv.self_s": ("s", "lower", _REPORTS),
    "reports.to_csv.bytes": ("bytes", "lower", _REPORTS),
    "trace.overhead_ratio": ("ratio", "lower", _REPORTS),
}

# counts the traced rounds must repeat exactly (timings excluded)
_TIMING_NOTE = "mcmc.time_ns."


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, call_round: list[int], n_rounds: int, peak_mb: float,
                  overhead: float):
    """Return (metrics, exact counts of one round, problems)."""
    per_trial = tracer.per_trial()
    setup_counts, setup_times = per_trial.get(SETUP_TRIAL, (Counter(), {}))
    rounds = [(Counter(), Counter()) for _ in range(n_rounds)]
    for trial, (counts, times) in per_trial.items():
        if 0 <= trial < len(call_round) and call_round[trial] < n_rounds:
            rc, rt = rounds[call_round[trial]]
            rc.update(counts)
            rt.update(times)

    exact = [{k: v for k, v in rc.items() if not k.startswith(_TIMING_NOTE)}
             for rc, _ in rounds]
    problems = [f"round {i} counts differ from round 0"
                for i, e in enumerate(exact) if e != exact[0]]
    one = rounds[0][0]
    mean_time = Counter()
    for _, rt in rounds:
        mean_time.update({k: v / n_rounds for k, v in rt.items()})

    def count(key):
        return setup_counts.get(key, 0) + one.get(key, 0)

    values = {}
    for name in LAYER_METRICS:
        layer_fn, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = setup_times.get(layer_fn, 0.0) + mean_time.get(layer_fn, 0.0)
        elif field in ("calls", "sweeps", "ties", "tie_failures", "iterations", "steps",
                       "states", "bytes", "zero_escape_rate_steps"):
            values[name] = count(name)
    values.update({
        "decoders.bf_sweep_batch.gop_computed": count("decoders.bf_sweep_batch.ops") / 1e9,
        "decoders.bf.success_frac": _ratio(one["decoders.bf.successes"],
                                           one["decoders.bf_decode.calls"]),
        "decoders.bp.success_frac": _ratio(one["decoders.bp.successes"],
                                           one["decoders.bp_decode.calls"]),
        "mcmc.us_per_step.w4_k14": _per_step(rounds, "w4_k14"),
        "mcmc.us_per_step.w3_k40": _per_step(rounds, "w3_k40"),
        "mcmc.hybrid_decode.peak_traced_mb": peak_mb,
        "mcmc.target_hit_frac": _ratio(one["mcmc.target_hits"], one["mcmc.mcmc_decode.calls"]),
        "mcmc.codeword_hit_frac": _ratio(one["mcmc.codeword_hits"],
                                         one["mcmc.mcmc_decode.calls"]),
        "mcmc.hybrid_target_hit_frac": _ratio(one["mcmc.hybrid_target_hits"],
                                              one["mcmc.hybrid_decode.calls"]),
        "trace.overhead_ratio": overhead,
    })
    return values, exact[0], problems


def _per_step(rounds, key) -> float:
    ns = sum(rc[f"{_TIMING_NOTE}{key}"] for rc, _ in rounds)
    steps = sum(rc[f"mcmc.steps.{key}"] for rc, _ in rounds)
    return _ratio(ns / 1e3, steps)
