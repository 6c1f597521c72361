"""Rejection-free sampling of parity-constrained spin Hamiltonians.

The energy of a physical state x is

    H(x) = -beta * sum_ij J_ij x_ij + gamma * sum_c (1 - s_c(x)) / 2

with s_c the checks of the configured family (plaquette checks for the
full model; triangle checks with beta = 0 for the penalty-only form used
in the i.i.d. benchmark). The penalty term is nonnegative and vanishes
exactly on codewords.

One rejection-free step computes the Metropolis acceptance weight
w_k = min(1, exp(-dH_k)) of every single-pair flip (dH_k twice the
sampling inversion score), then flips one pair drawn with probability
w_k / sum(w). Self-loops never occur: consecutive states always differ
in exactly one unordered pair. Time averages against the Boltzmann
distribution weight each visited state by its holding time 1 / sum(w).
This is the n-fold way of Bortz, Kalos and Lebowitz (J. Comput. Phys.
17, 1975).

dH_k needs the sum of the checks adjacent to pair k. A chain keeps those
sums incrementally through a flip table, built once per (K, family): for
every pair, its adjacent checks and the members of each, padded to a
dummy check fixed at 0 and a dummy variable that is never read. Flipping
k negates each adjacent check c and moves the sum of every member of c
by -2 s_c(old); the integer sums are exact, and every
ENERGY_CHECK_INTERVAL steps they are compared with a full recomputation.

Two engines share that table. `_Chain` runs one chain; `mcmc_decode`,
`hybrid_decode`, `visit_distribution` and `rejection_free_step` use it.
`_run_lockstep` advances many chains at once on (B, n_vars) arrays, each
row with its own parameters and stream; `experiments.landscape` runs all
of its chains through it. Row b reproduces `_Chain` bit for bit: the
initial state is drawn as before, and the row's uniforms are then drawn
in blocks with `rng.random(m)`, which for PCG64 yields the same values as
m successive `rng.random()` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import as_generator
from .code import (
    ParityCode,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
    _edge_vector,
    _syndrome_flat,
)
from .decoders import TiePolicy, _coupling_vector, bf_sweep_batch

ENERGY_CHECK_INTERVAL = 10_000
ENERGY_DRIFT_TOL = 1e-9
LOCKSTEP_GROUP = 256      # chains advanced together by _run_lockstep
LOCKSTEP_STATE_BYTES = 1 << 26  # cap on one batch's recorded states
UNIFORM_BLOCK = 1024      # uniforms pre-drawn per chain at a time
BF_CHUNK = 1024           # states per bf_sweep_batch call in the hybrid stage

_FLIP_TABLES: dict[tuple[int, str], tuple[np.ndarray, np.ndarray, int]] = {}


@dataclass(frozen=True)
class HamiltonianParams:
    """Energy parameters: correlation strength beta, penalty strength
    gamma, per-pair couplings (None for the penalty-only form) and the
    check family ("w4" plaquettes or "w3" triangles)."""

    beta: float = 0.0
    gamma: float = 1.0
    couplings: np.ndarray | None = None
    family: str = "w4"

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.family not in ("w3", "w4"):
            raise ValueError(f"unknown syndrome family {self.family!r}")
        if self.couplings is not None:
            object.__setattr__(
                self, "couplings", np.asarray(self.couplings, dtype=np.float64).ravel()
            )


@dataclass
class SampleRun:
    """Record of one chain: the state after each step (len == budget),
    per-sample energies, and the escape rate of the state each step
    departed from (aligned with [initial] + samples[:-1], i.e. the
    holding-time weight of the previous state is 1/escape_rates[t]).

    target_hit / first_codeword are sample indices with 0 meaning the
    initial state and t meaning the state after step t; None if never.
    """

    params: HamiltonianParams
    seed: object
    budget: int
    initial: np.ndarray
    samples: list = field(default_factory=list)
    energies: np.ndarray | None = None
    escape_rates: np.ndarray | None = None
    target_hit: int | None = None
    first_codeword: int | None = None
    decoded_target_hit: int | None = None
    decoded_any_codeword: int | None = None
    decoded: list | None = None


def _couplings_for(code: ParityCode, params: HamiltonianParams) -> np.ndarray | None:
    return _coupling_vector(code, params.couplings, "beta > 0" if params.beta > 0 else None)


def energy(code: ParityCode, params: HamiltonianParams, x: np.ndarray) -> float:
    """Exact energy of a state under the configured parameters."""
    xf = _edge_vector(code, x)
    J = _couplings_for(code, params)
    s = _syndrome_flat(code, xf, params.family)
    pen = params.gamma * 0.5 * float((1 - s).sum())
    corr = 0.0 if J is None else params.beta * float((J * xf).sum())
    return -corr + pen


def _flip_table(code: ParityCode, family: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Padded adjacency of one check family, cached per (K, family).

    Returns (adj, members, size): adj[v] (deg,) lists the checks adjacent
    to variable v, and members[v] (deg * size,) the variables of each of
    those checks, check by check (size = 3 for triangles, 4 for
    plaquettes). Padding points to a dummy check, column n_checks, whose
    value is kept at 0, and to a dummy variable, column n_vars, whose
    adjacent sum is never read. The key is (K, family) because build_code
    is deterministic and ParityCode is unhashable."""
    key = (code.K, family)
    table = _FLIP_TABLES.get(key)
    if table is None:
        if family == "w3":
            adj, check_vars = code.checks3_of_var, code.checks3_vars
        else:
            adj, check_vars = code.checks4_of_var, code.checks4_vars
        size = check_vars.shape[1]
        adj = np.where(adj >= 0, adj, len(check_vars))
        check_vars = np.vstack([np.where(check_vars >= 0, check_vars, code.n_vars),
                                np.full((1, size), code.n_vars)])
        members = check_vars[adj].reshape(code.n_vars, -1)
        for a in (adj, members):
            a.setflags(write=False)  # shared by every chain in the process
        table = _FLIP_TABLES[key] = (adj, members, size)
    return table


def _padded_syndrome(code: ParityCode, xf: np.ndarray, family: str) -> np.ndarray:
    """Check values of edge vectors (..., n_vars) with the dummy check
    appended as a trailing 0: (..., n_checks + 1), C-contiguous."""
    s = _syndrome_flat(code, xf, family)
    out = np.zeros(s.shape[:-1] + (s.shape[-1] + 1,), dtype=s.dtype)
    out[..., :-1] = s
    return out


def _adjacent_sums(adj: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sum of adjacent check values per variable, as exact float64, with
    a trailing dummy-variable column of 0: (..., n_checks + 1) ->
    (..., n_vars + 1), C-contiguous."""
    out = np.zeros(s.shape[:-1] + (len(adj) + 1,))
    out[..., :-1] = s[..., adj].sum(axis=-1)
    return out


def _initial_state(code: ParityCode, rng: np.random.Generator, initial) -> np.ndarray:
    """The given initial spin matrix as an edge vector, or a uniformly
    random one drawn from rng (the first draw of every chain stream)."""
    if initial is None:
        return (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    return _edge_vector(code, initial)


class _Chain:
    """Single rejection-free chain on the flat (edge-vector) state."""

    def __init__(self, code: ParityCode, params: HamiltonianParams, xf: np.ndarray,
                 rng: np.random.Generator, target_f: np.ndarray | None = None):
        self.code = code
        self.params = params
        self.beta = params.beta
        self.gamma = params.gamma
        self.rng = rng
        self.xf = xf.astype(np.int8).copy()
        self.J = _couplings_for(code, params)
        self.family = params.family
        self.adj, self.members, self.size = _flip_table(code, self.family)
        self.s = _padded_syndrome(code, self.xf, self.family)
        self.adj_sum = _adjacent_sums(self.adj, self.s)
        self.adj_view = self.adj_sum[:-1]
        self.n_unsat = int(np.count_nonzero(self.s == -1))
        self.corr = 0.0 if self.J is None else float((self.J * self.xf).sum())
        self.target_f = None if target_f is None else target_f.astype(np.int8)
        self.dist_target = (
            None if self.target_f is None else int(np.count_nonzero(self.xf != self.target_f))
        )
        self.steps_done = 0

    @property
    def energy(self) -> float:
        return float(-self.beta * self.corr + self.gamma * self.n_unsat)

    def at_target(self) -> bool:
        return self.dist_target == 0

    def is_codeword(self) -> bool:
        # All checks of either family satisfied iff the state is a codeword.
        return self.n_unsat == 0

    def step(self) -> tuple[int, float]:
        """Flip one pair; returns (flip index, escape rate of the
        pre-flip state)."""
        # dH_k = 2 * (beta J_k x_k + (gamma/2) sum of adjacent checks)
        dh = self.gamma * self.adj_view
        if self.J is not None and self.beta != 0.0:
            dh += 2.0 * self.beta * self.J * self.xf
        # log-weights of min(1, exp(-dh)); shift by the max so the
        # selection stays exact even when every move is steeply uphill
        # and the raw weights would underflow.
        logw = np.minimum(0.0, -dh)
        shift = logw.max()
        w = np.exp(logw - shift)
        cum = w.cumsum()
        u = self.rng.random() * cum[-1]
        k = int(cum.searchsorted(u, side="right"))
        if k >= len(w):  # guard against u == total edge case
            k = len(w) - 1
        self.shift, self.total = shift, cum[-1]  # log rate = shift + log(total)
        rate = float(np.exp(shift) * self.total)  # true escape rate

        # apply flip k: every adjacent check negates, and each member of
        # check c sees its adjacent sum move by -2 s_c (add.at: two
        # plaquettes can share two members)
        old = int(self.xf[k])
        self.xf[k] = -old
        if self.J is not None:
            self.corr -= 2.0 * self.J[k] * old
        checks = self.adj[k]
        flipped = self.s[checks]
        self.n_unsat += int(flipped.sum())
        self.s[checks] = -flipped
        np.add.at(self.adj_sum, self.members[k], (-2.0 * flipped).repeat(self.size))
        if self.target_f is not None:
            self.dist_target += 1 if self.xf[k] != self.target_f[k] else -1

        self.steps_done += 1
        if self.steps_done % ENERGY_CHECK_INTERVAL == 0:
            self.n_unsat, self.corr = _checked_totals(
                self.code, self.family, self.adj, self.J, self.xf, self.adj_sum,
                self.n_unsat, self.corr)
        return k, rate


def _checked_totals(code, family, adj, J, xf, adj_sum, n_unsat, corr) -> tuple[int, float]:
    """Recompute one chain's unsatisfied-check count, correlation sum and
    adjacent check sums from its state; raise if the incremental values
    drifted, else return the recomputed totals."""
    ref = _padded_syndrome(code, xf, family)
    if not np.array_equal(_adjacent_sums(adj, ref)[:-1], adj_sum[:-1]):
        raise RuntimeError("incremental adjacent check sums drifted")
    n_ref = int(np.count_nonzero(ref == -1))
    corr_ref = 0.0 if J is None else float((J * xf).sum())
    drift = abs(n_ref - n_unsat) + abs(corr_ref - corr)
    if drift > ENERGY_DRIFT_TOL:
        raise RuntimeError(f"incremental energy drifted by {drift}")
    return n_ref, corr_ref


def rejection_free_step(
    code: ParityCode,
    params: HamiltonianParams,
    x: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One rejection-free update of a spin matrix. Returns the new state
    (exactly one pair flipped) and the total Metropolis weight of the
    pre-flip state (its escape rate; 1/rate is the holding time)."""
    chain = _Chain(code, params, _edge_vector(code, x), as_generator(rng))
    _, rate = chain.step()
    return vector_to_matrix(code, chain.xf.copy()), rate


def _run_chain(
    code: ParityCode,
    params: HamiltonianParams,
    budget: int,
    seed,
    target_f: np.ndarray | None,
    initial: np.ndarray | None,
    store_samples: bool,
    stream_to=None,
    schedule=None,
) -> tuple[SampleRun, np.ndarray | None]:
    """Run one chain toward the edge vector target_f; returns the run
    and, when store_samples is set, the (budget + 1, n_vars) stack of
    visited edge vectors, initial state first."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = as_generator(seed)
    xf0 = _initial_state(code, rng, initial)
    chain = _Chain(code, params, xf0, rng, target_f)

    run = SampleRun(
        params=params,
        seed=seed,
        budget=budget,
        initial=vector_to_matrix(code, xf0.copy()),
    )
    if target_f is not None and chain.at_target():
        run.target_hit = 0
    if chain.is_codeword():
        run.first_codeword = 0

    energies = np.empty(budget, dtype=np.float64)
    rates = np.empty(budget, dtype=np.float64)
    stack = None
    if store_samples:
        stack = np.empty((budget + 1, code.n_vars), dtype=np.int8)
        stack[0] = xf0
    sink = open(stream_to, "w") if stream_to is not None else None
    try:
        if sink is not None:
            sink.write("sample,energy,state_hex\n")
            sink.write(f"0,{energy(code, params, run.initial)!r},{pack_state_hex(xf0)}\n")
        for t in range(1, budget + 1):
            if schedule is not None:
                chain.beta, chain.gamma = schedule(t - 1, budget)
            _, rate = chain.step()
            rates[t - 1] = rate
            energies[t - 1] = chain.energy
            if stack is not None:
                stack[t] = chain.xf
            if sink is not None:
                sink.write(f"{t},{chain.energy!r},{pack_state_hex(chain.xf)}\n")
            if run.target_hit is None and target_f is not None and chain.at_target():
                run.target_hit = t
            if run.first_codeword is None and chain.is_codeword():
                run.first_codeword = t
    finally:
        if sink is not None:
            sink.close()

    run.energies = energies
    run.escape_rates = rates
    return run, stack


def _first(mask: np.ndarray, offset: int) -> int | None:
    """offset plus the index of the first True in mask, or None."""
    hits = np.flatnonzero(mask)
    return offset + int(hits[0]) if len(hits) else None


def _run_lockstep(
    code: ParityCode,
    params_rows,
    budget: int,
    seeds,
    targets: np.ndarray,
    record_states: bool = False,
    record_energies: bool = False,
) -> dict:
    """Advance B independent chains in lockstep on (B, n_vars) arrays.

    Row b is the chain _run_chain would run with params_rows[b],
    seeds[b] and the edge-vector target targets[b] (random initial
    state, fixed parameters, one family for all rows), bit for bit.
    Returns a dict of arrays: target_hit and first_codeword (B,) with -1
    for never; states (B, budget + 1, n_vars) int8, initial state first,
    when record_states; energies and escape_rates (B, budget) when
    record_energies."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    family = params_rows[0].family
    if any(p.family != family for p in params_rows):
        raise ValueError("lockstep chains must share one check family")
    B, n = len(seeds), code.n_vars
    adj, members, size = _flip_table(code, family)
    rngs = [as_generator(seed) for seed in seeds]
    x = np.empty((B, n), dtype=np.int8)
    for b, rng in enumerate(rngs):
        x[b] = _initial_state(code, rng, None)
    targets = np.asarray(targets, dtype=np.int8).reshape(B, n)

    beta = np.array([p.beta for p in params_rows], dtype=np.float64)
    gamma = np.array([p.gamma for p in params_rows], dtype=np.float64)
    Js = [_couplings_for(code, p) for p in params_rows]
    J = np.zeros((B, n))
    corr = np.zeros(B)
    # coupling part of dH, 2 beta J x, negated in place on every flip; its
    # dummy-variable column is +inf, so the dummy's weight is exactly 0
    cx = np.zeros((B, n + 1))
    cx[:, n] = np.inf
    for b, Jb in enumerate(Js):
        if Jb is not None:
            J[b] = Jb
            corr[b] = float((Jb * x[b]).sum())
            if beta[b] != 0.0:
                cx[b, :n] = 2.0 * beta[b] * Jb * x[b]

    s = _padded_syndrome(code, x, family)
    adj_sum = _adjacent_sums(adj, s)
    n_unsat = np.count_nonzero(s == -1, axis=1)
    dist = np.count_nonzero(x != targets, axis=1)
    target_hit = np.where(dist == 0, 0, -1)
    first_codeword = np.where(n_unsat == 0, 0, -1)
    out = {"target_hit": target_hit, "first_codeword": first_codeword}
    if record_states:
        states = out["states"] = np.empty((B, budget + 1, n), dtype=np.int8)
        states[:, 0] = x
    if record_energies:
        energies = out["energies"] = np.empty((B, budget))
        rates = out["escape_rates"] = np.empty((B, budget))

    # flat views and per-row offsets for 1-D fancy indexing
    xr, Jr, tr = x.ravel(), J.ravel(), targets.ravel()
    sr, ar, cr = s.ravel(), adj_sum.ravel(), cx.ravel()
    rows = np.arange(B)
    row_x, row_a = rows * n, rows * (n + 1)
    row_s = (rows * s.shape[1])[:, None]
    row_m = row_a[:, None]
    gamma_col = gamma[:, None]
    v = np.empty((B, n + 1))
    cum = np.empty((B, n + 1))
    below = np.empty((B, n + 1), dtype=bool)
    for start in range(0, budget, UNIFORM_BLOCK):
        block = np.stack([rng.random(min(UNIFORM_BLOCK, budget - start)) for rng in rngs],
                         axis=1)
        for j, uniform in enumerate(block):
            t = start + j + 1
            # v = max(dH, 0) = -log w; w = exp(min v - v), which is
            # exp(log w - shift) of _Chain.step with shift = max log w
            np.multiply(gamma_col, adj_sum, out=v)
            v += cx
            np.maximum(v, 0.0, out=v)
            low = v.min(axis=1)
            np.subtract(low[:, None], v, out=v)
            np.exp(v, out=v)
            np.cumsum(v, axis=1, out=cum)
            total = cum[:, n]
            # searchsorted(cum, u, side="right") clipped to n - 1: the
            # first entry above u, or n - 1 when none is
            np.less_equal(cum, (uniform * total)[:, None], out=below)
            k = below.argmin(axis=1)
            np.copyto(k, n - 1, where=below[:, n])

            fk = row_x + k
            old = xr[fk]
            xr[fk] = -old
            corr -= 2.0 * Jr[fk] * old
            dist += old * tr[fk]
            cr[row_a + k] *= -1.0
            fs = row_s + adj[k]
            flipped = sr[fs]
            n_unsat += flipped.sum(axis=1)
            sr[fs] = -flipped
            np.add.at(ar, (row_m + members[k]).ravel(), (-2.0 * flipped).repeat(size))

            if t % ENERGY_CHECK_INTERVAL == 0:
                for b in range(B):
                    n_unsat[b], corr[b] = _checked_totals(code, family, adj, Js[b], x[b],
                                                          adj_sum[b], n_unsat[b], corr[b])
            if record_energies:
                rates[:, t - 1] = np.exp(-low) * total
                energies[:, t - 1] = -beta * corr + gamma * n_unsat
            if record_states:
                states[:, t] = x
            at_target = dist == 0
            if at_target.any():
                np.copyto(target_hit, t, where=at_target & (target_hit < 0))
            at_codeword = n_unsat == 0
            if at_codeword.any():
                np.copyto(first_codeword, t, where=at_codeword & (first_codeword < 0))
    return out


def _bf_stage(code: ParityCode, states: np.ndarray, target_f: np.ndarray, iters: int,
              keep: bool = False):
    """BF sweeps over a (T, n_vars) stack of visited states, BF_CHUNK
    states per bf_sweep_batch call. Returns (first index whose decoded
    state is the target, first index decoded to any codeword, decoded
    matrices or None); indices are None when never reached."""
    hit = codeword = None
    kept = [] if keep else None
    for start in range(0, len(states), BF_CHUNK):
        decoded = bf_sweep_batch(vector_to_matrix(code, states[start:start + BF_CHUNK]), iters)
        if keep:
            kept.append(decoded)
        if hit is not None and codeword is not None:
            continue
        decoded_f = matrix_to_vector(code, decoded)
        if hit is None:
            hit = _first(np.all(decoded_f == target_f, axis=1), start)
        if codeword is None:
            codeword = _first(np.all(_syndrome_flat(code, decoded_f, "w3") == 1, axis=1), start)
    return hit, codeword, (np.concatenate(kept) if keep else None)


def pack_state_hex(xf: np.ndarray) -> str:
    """Edge vector as hex: bit 1 marks a -1 spin, edge order, MSB first."""
    return np.packbits((np.asarray(xf).ravel() == -1).astype(np.uint8)).tobytes().hex()


def unpack_state_hex(text: str, n_vars: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))[:n_vars]
    return np.where(bits == 1, -1, 1).astype(np.int8)


def mcmc_decode(
    code: ParityCode,
    params: HamiltonianParams,
    budget: int,
    target: np.ndarray,
    seed,
    initial: np.ndarray | None = None,
    store_samples: bool = True,
    stream_to=None,
    schedule=None,
) -> tuple[bool, SampleRun]:
    """Sample `budget` rejection-free steps (random initial state unless
    one is given) and report whether any visited state, the initial one
    included, equals the target. The run also records the first visit to
    any codeword.

    stream_to: optional path; writes one CSV row per sample
    (index, energy, packed state hex) so large budgets need not be held
    in memory (combine with store_samples=False).

    schedule: optional annealing hook, called as schedule(step, budget)
    before each step and returning the (beta, gamma) to use for it;
    parameters stay fixed at params values when None (the default).
    linear_schedule builds the usual ramp. With a schedule active, the
    recorded per-sample energies use the scheduled parameters of their
    step rather than the base params."""
    target_f = None if target is None else _edge_vector(code, target)
    run, stack = _run_chain(code, params, budget, seed, target_f, initial, store_samples,
                            stream_to=stream_to, schedule=schedule)
    if store_samples:
        run.samples = list(vector_to_matrix(code, stack[1:]))
    return run.target_hit is not None, run


def linear_schedule(beta_range: tuple[float, float], gamma_range: tuple[float, float]):
    """Linear ramp of (beta, gamma) across the sampling budget."""

    def fn(step: int, budget: int) -> tuple[float, float]:
        f = step / max(budget - 1, 1)
        return (
            beta_range[0] + f * (beta_range[1] - beta_range[0]),
            gamma_range[0] + f * (gamma_range[1] - gamma_range[0]),
        )

    return fn


def hybrid_decode(
    code: ParityCode,
    params: HamiltonianParams,
    budget: int,
    target: np.ndarray,
    seed,
    bf_max_iters: int = 5,
    tie_policy: TiePolicy = TiePolicy.KEEP,
    initial: np.ndarray | None = None,
    store_samples: bool = True,
) -> tuple[bool, SampleRun]:
    """Two-stage decoding: sample as in mcmc_decode, then run BF sweeps
    on every visited state; success iff any corrected state equals the
    target.

    With the same seed and budget the first stage reproduces the
    mcmc_decode chain exactly, and codewords are BF fixed points, so
    hybrid success dominates plain sampling success pointwise.
    """
    if tie_policy is TiePolicy.COIN:
        raise ValueError("hybrid stage uses the deterministic keep-sign sweep")
    target_f = _edge_vector(code, target)
    run, states = _run_chain(code, params, budget, seed, target_f, initial, store_samples=True)
    run.decoded_target_hit, run.decoded_any_codeword, decoded = _bf_stage(
        code, states, target_f, bf_max_iters, keep=store_samples)
    if store_samples:
        run.samples = list(vector_to_matrix(code, states[1:]))
        run.decoded = list(decoded)
    return run.decoded_target_hit is not None, run


def average_error_matrix(run: SampleRun, z: np.ndarray) -> np.ndarray:
    """Componentwise mean of sample o z over the run's samples; entries
    in [-1, 1], diagonal exactly +1."""
    if not run.samples:
        raise ValueError("run holds no samples")
    z = validate_spin_matrix(z)
    acc = np.zeros(z.shape, dtype=np.float64)
    for m in run.samples:
        acc += m * z
    return acc / len(run.samples)


def visit_distribution(
    code: ParityCode,
    params: HamiltonianParams,
    steps: int,
    burn_in: int,
    seed,
    initial: np.ndarray | None = None,
) -> dict[bytes, float]:
    """Holding-time-weighted occupancy of visited states, keyed by the
    flat edge vector's bytes. Converges to the Boltzmann distribution of
    the configured energy. Holding times 1/rate are summed as logs, so
    escape rates that underflow to 0 (steep penalties) stay finite."""
    rng = as_generator(seed)
    chain = _Chain(code, params, _initial_state(code, rng, initial), rng)
    log_hist: dict[bytes, float] = {}
    for t in range(steps):
        key = chain.xf.tobytes()
        chain.step()
        if t >= burn_in:
            hold = -(chain.shift + math.log(chain.total))  # log(1 / rate)
            prev = log_hist.get(key, -math.inf)
            log_hist[key] = max(prev, hold) + math.log1p(math.exp(-abs(prev - hold)))
    logs = np.fromiter(log_hist.values(), dtype=np.float64, count=len(log_hist))
    w = np.exp(logs - logs.max(initial=-np.inf))  # initial: no samples gives {}
    return dict(zip(log_hist, (w / w.sum()).tolist()))


def boltzmann_distribution(
    code: ParityCode, params: HamiltonianParams, limit: int = 1 << 22
) -> dict[bytes, float]:
    """Exact Boltzmann weights exp(-H)/Z over all 2^C(K,2) states
    (exhaustive; guarded by `limit`)."""
    n = code.n_vars
    count = 1 << n
    if count > limit:
        raise ValueError(f"2^{n} states exceeds limit {limit}")
    bits = (np.arange(count)[:, None] >> np.arange(n)[None, :]) & 1
    states = (2 * bits - 1).astype(np.int8)
    J = _couplings_for(code, params)
    s = _syndrome_flat(code, states, params.family)
    pen = params.gamma * 0.5 * (1 - s).sum(axis=1)
    corr = np.zeros(count) if J is None else params.beta * (states @ J)
    h = -corr + pen
    w = np.exp(-(h - h.min()))
    w /= w.sum()
    return {states[i].tobytes(): float(w[i]) for i in range(count)}
