"""Span tracing of parity_decode's public functions, from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper in
every `parity_decode` module namespace that holds it (so both
`parity_decode.mcmc.vector_to_matrix` and `parity_decode.code.vector_to_matrix`
are traced), and on the class for report methods. Each wrapper records
one span: name, start, end, parent span and trial id (the harness's
program-call index). Spans stay in memory in flat arrays and are written
out once, at the end of a run.

Self time of a span is its duration minus the durations of its direct
child spans (calls are sequential, so children never overlap).
Counts that the spans cannot give (sweeps, ties, steps, states, hits)
are read from the wrapped calls' arguments and results by small
annotators, and kept per trial id.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, layer-qualified span name). A dotted attribute is a
# method patched on its class.
TRACED = (
    ("parity_decode.code", "validate_spin_matrix", "code.validate_spin_matrix"),
    ("parity_decode.code", "vector_to_matrix", "code.vector_to_matrix"),
    ("parity_decode.code", "matrix_to_vector", "code.matrix_to_vector"),
    ("parity_decode.code", "build_code", "code.build_code"),
    ("parity_decode.channels", "trial_seed", "channels.trial_seed"),
    ("parity_decode.channels", "sample_iid_errors", "channels.sample_iid_errors"),
    ("parity_decode.decoders", "bf_decode", "decoders.bf_decode"),
    ("parity_decode.decoders", "bf_step", "decoders.bf_step"),
    ("parity_decode.decoders", "bp_decode", "decoders.bp_decode"),
    ("parity_decode.decoders", "bf_sweep_batch", "decoders.bf_sweep_batch"),
    ("parity_decode.mcmc", "mcmc_decode", "mcmc.mcmc_decode"),
    ("parity_decode.mcmc", "hybrid_decode", "mcmc.hybrid_decode"),
    ("parity_decode.experiments", "bench_iid", "experiments.bench_iid"),
    ("parity_decode.experiments", "landscape", "experiments.landscape"),
    ("parity_decode.experiments", "gen_instance", "experiments.gen_instance"),
    ("parity_decode.reports", "BenchmarkReport.to_json", "reports.to_json"),
    ("parity_decode.reports", "BenchmarkReport.to_csv", "reports.to_csv"),
)

SETUP_TRIAL = -1


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _bad_rates(run) -> int:
    rates = run.escape_rates
    if rates is None:
        return 0
    return int(np.count_nonzero(~np.isfinite(rates) | (rates <= 0)))


def _note_bf_decode(c, args, kwargs, res, dt):
    c["decoders.bf.successes"] += int(res.success)
    c["decoders.bf_decode.ties"] += int(res.ties)
    c["decoders.bf_decode.tie_failures"] += int(res.tie_failure)


def _note_bp_decode(c, args, kwargs, res, dt):
    c["decoders.bp.successes"] += int(res.success)
    c["decoders.bp_decode.iterations"] += int(res.iterations)


def _note_bf_sweep_batch(c, args, kwargs, res, dt):
    stack = _arg(args, kwargs, 0, "stack")
    iters = int(_arg(args, kwargs, 1, "iters"))
    B, K = stack.shape[0], stack.shape[-1]
    c["decoders.bf_sweep_batch.states"] += B
    # one K x K integer matmul (2 K^3 operations) per state and sweep
    c["decoders.bf_sweep_batch.ops"] += 2 * K ** 3 * B * iters


def _note_mcmc_decode(c, args, kwargs, res, dt):
    code = _arg(args, kwargs, 0, "code")
    params = _arg(args, kwargs, 1, "params")
    budget = int(_arg(args, kwargs, 2, "budget"))
    ok, run = res
    c["mcmc.mcmc_decode.steps"] += budget
    c["mcmc.target_hits"] += int(ok)
    c["mcmc.codeword_hits"] += int(run.first_codeword is not None)
    c["mcmc.zero_escape_rate_steps"] += _bad_rates(run)
    key = f"{params.family}_k{code.K}"
    c[f"mcmc.steps.{key}"] += budget
    c[f"mcmc.time_ns.{key}"] += int(dt * 1e9)


def _note_hybrid_decode(c, args, kwargs, res, dt):
    ok, run = res
    c["mcmc.hybrid_decode.states"] += int(run.budget) + 1
    c["mcmc.hybrid_target_hits"] += int(ok)
    c["mcmc.zero_escape_rate_steps"] += _bad_rates(run)


def _note_report(kind):
    def note(c, args, kwargs, res, dt):
        c[f"reports.{kind}.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return note


ANNOTATORS = {
    "decoders.bf_decode": _note_bf_decode,
    "decoders.bp_decode": _note_bp_decode,
    "decoders.bf_sweep_batch": _note_bf_sweep_batch,
    "mcmc.mcmc_decode": _note_mcmc_decode,
    "mcmc.hybrid_decode": _note_hybrid_decode,
    "reports.to_json": _note_report("to_json"),
    "reports.to_csv": _note_report("to_csv"),
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = [name for _, _, name in TRACED]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_trial = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.trial = SETUP_TRIAL
        self.notes: dict[int, Counter] = defaultdict(Counter)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        nid = self.name_id[name]
        note = ANNOTATORS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_trial.append(tracer.trial)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.span_end[idx] = t1
                tracer.stack.pop()
            if note is not None:
                note(tracer.notes[tracer.trial], args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "parity_decode" or n.startswith("parity_decode.")) and m is not None]
        for mod_name, attr, name in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, key, orig, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
            "trial": np.frombuffer(self.span_trial, dtype=np.int64).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def per_trial(self) -> dict[int, tuple[Counter, dict[str, float]]]:
        """For each trial id: (counts, self seconds per span name).

        Counts hold `<name>.calls` for every span name, `decoders.bf_decode
        .sweeps` (bf_step spans directly under bf_decode) and the
        annotators' notes."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_cover = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                  minlength=n) if n else np.zeros(0)
        self_s = dur - child_cover
        bf_step = self.name_id["decoders.bf_step"]
        bf_decode = self.name_id["decoders.bf_decode"]
        sweep = (a["name"] == bf_step) & has_parent
        sweep[sweep] = a["name"][a["parent"][sweep]] == bf_decode
        out = {}
        for trial in sorted(set(a["trial"].tolist()) | set(self.notes)):
            sel = a["trial"] == trial
            calls = np.bincount(a["name"][sel], minlength=len(self.names))
            selfs = np.bincount(a["name"][sel], weights=self_s[sel], minlength=len(self.names))
            counts = Counter(self.notes.get(trial, {}))
            times = {}
            for i, name in enumerate(self.names):
                counts[f"{name}.calls"] = int(calls[i])
                times[name] = float(selfs[i])
            counts["decoders.bf_decode.sweeps"] = int(np.count_nonzero(sweep & sel))
            out[trial] = (counts, times)
        return out
