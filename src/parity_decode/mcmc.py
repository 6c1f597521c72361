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
sums incrementally through a flip table, built once per (code, family): for
every pair, its adjacent checks and the members of each, padded to a
dummy check fixed at 0 and a dummy variable that is never read. Flipping
k negates each adjacent check c and moves the sum of every member of c
by -2 s_c(old); the integer sums are exact, and every
ENERGY_CHECK_INTERVAL steps they are compared with a full recomputation.

Two engines share that table and one weight formula: v = max(dH, 0),
w = exp(min v - v), so the log escape rate is -min v + log(sum w).
`_Chain` runs one chain, for `mcmc_decode`, `hybrid_decode`,
`visit_distribution` and `rejection_free_step`. Its step is that formula
on a single row, the weights in eight numpy calls into preallocated
buffers, with the coupling term 2 beta J x negated entry by entry and
the flip's scalars kept in Python. At low temperature a chain mostly
moves among a few states: it keeps the weights of its last STATE_MEMO
distinct pre-flip states, keyed by an exact integer that one XOR per
flip updates, and a flip's check-value and adjacent-sum update waits
until the chain reaches a state outside that memo. On a 2-vCPU AMD EPYC
box a step costs about 3.2 us at K=14 w4 (beta, gamma) = (3, 4), where
65% of the steps start from a memo-held state, 5.8 us at (1.5, 0.2),
where 1% do, and 6.6 us at K=40 w3 gamma = 1 from an eps = 0.1 readout,
where 46% do.
`_run_lockstep` advances many chains at once on (B, n_vars) arrays, each
row with its own parameters and stream; `experiments.landscape` and both
arms of `experiments.efficiency_ratio` run their chains through it. It is
no cheaper for one chain: about 18.7 us per step at B=1 and K=14 w4.

Both reproduce the plain per-step loop bit for bit. A chain draws its
initial state first, then its uniforms in blocks of UNIFORM_BLOCK with
`rng.random(m)`, which yields the same values as m successive
`rng.random()` calls; `_Chain.step()` without a uniform draws one.
"""

from __future__ import annotations

import functools
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
    _is_codeword_flat,
    _syndrome_flat,
)
from .decoders import TiePolicy, _check_strengths, _coupling_vector, bf_sweep_batch

ENERGY_CHECK_INTERVAL = 10_000
ENERGY_DRIFT_TOL = 1e-9
LOCKSTEP_GROUP = 256      # chains advanced together by _run_lockstep
UNIFORM_BLOCK = 1024      # uniforms pre-drawn, and hybrid states decoded, per block
STATE_MEMO = 16           # pre-flip states whose weights a single chain keeps
_ZERO = np.zeros(())  # 0-d operands cost a ufunc call less than Python floats


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
        _check_strengths(beta=self.beta, gamma=self.gamma)
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
    At steep penalties an escape rate can underflow to exactly 0.0, and
    1/escape_rates[t] is then inf; visit_distribution sums holding
    times in the log domain from the chain's (shift, total) instead.

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


@functools.cache
def _flip_table(code: ParityCode, family: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Padded adjacency of one check family, cached per (code, family).

    Returns (adj, members, size): adj[v] (deg,) lists the checks adjacent
    to variable v, and members[v] (deg * size,) the variables of each of
    those checks, check by check (size = 3 for triangles, 4 for
    plaquettes). Padding points to a dummy check, column n_checks, whose
    value is kept at 0, and to a dummy variable, column n_vars, whose
    adjacent sum is never read."""
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
    return adj, members, size


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
    """The given initial edge vector, or a uniformly random one drawn
    from rng (the first draw of every chain stream). A spin matrix is
    validated and converted."""
    if initial is None:
        return (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    return initial if np.ndim(initial) == 1 else _edge_vector(code, initial)


class _Chain:
    """Single rejection-free chain on the flat (edge-vector) state.

    The coupling term 2 beta J x is rebuilt only when `set_params`
    changes beta. Check values are kept as -2 s, the amount each
    member's adjacent sum moves when the check negates, and the entries
    a flip reads (x_k, J_k, the target's entry) also as Python lists.

    A memo keeps the cumulative weights, log shift, total, escape rate
    and unsatisfied-check count of the last STATE_MEMO distinct
    pre-flip states, keyed by an exact integer: bit k is set iff pair k
    differs from the initial state. A ring index evicts the oldest
    entry, but never the state just left, so a flip back finds its
    weights when STATE_MEMO >= 2. The weights are a function of the
    state and (beta, gamma) alone, since the adjacent sums are exact
    integers and cx entries are negated exactly, so a state found in the
    memo reuses the bytes a recomputation would give.
    A flip updates x, cx and the scalars at once, but only queues its
    check-value and adjacent-sum update; a flip that undoes the last
    queued one cancels it. The queue is applied when the chain reaches a
    state outside the memo, before a drift check, and when `adj_sum` or
    `s` is read. A change of beta or gamma in `set_params` empties the
    memo."""

    def __init__(self, code: ParityCode, params: HamiltonianParams, xf: np.ndarray,
                 rng: np.random.Generator, target_f: np.ndarray | None = None):
        self.code = code
        self.rng = rng
        self.xf = xf.astype(np.int8)
        self.J = _couplings_for(code, params)
        self.family = params.family
        self.adj, self.members, self.size = _flip_table(code, self.family)
        s = _padded_syndrome(code, self.xf, self.family)
        self._h = -2.0 * s
        self._adj_sum = _adjacent_sums(self.adj, s)
        self._adj_view = self._adj_sum[:-1]
        self.n_unsat = int(np.count_nonzero(s == -1))
        self.corr = 0.0 if self.J is None else float((self.J * self.xf).sum())
        self._x = self.xf.tolist()
        self._J = None if self.J is None else self.J.tolist()
        self._target = None if target_f is None else target_f.tolist()
        self.dist_target = (
            None if target_f is None else int(np.count_nonzero(self.xf != target_f))
        )
        self._v = np.empty(code.n_vars)
        self._rows = list(np.empty((STATE_MEMO, code.n_vars)))  # the memo's cum rows
        self._memo = {}     # state key -> (cum, shift, total, rate, n_unsat)
        self._key = 0       # the current state's key
        self._entry = None  # its memo entry, None when the memo lacks it
        self._pending = []  # flips whose check-value and adjacent-sum updates wait
        self.beta = self.gamma = self._cx = None
        self.set_params(params.beta, params.gamma)
        self.steps_done = 0

    def set_params(self, beta, gamma) -> None:
        """Use (beta, gamma) from the next step on; a change empties the
        weight memo."""
        if beta != self.beta:
            self._cx = (None if self.J is None or beta == 0.0
                        else 2.0 * beta * self.J * self.xf)
        if beta != self.beta or gamma != self.gamma:
            self._sync()  # the next step computes weights from the sums
            self._memo.clear()
            self._keys = [-1] * STATE_MEMO  # the key held in each cum row
            self._ring = 0                  # the row the next miss overwrites
            self._entry = None
        self.beta, self.gamma = beta, gamma
        self._gamma = np.array(gamma, dtype=np.float64)  # 0-d: a cheaper ufunc operand

    def _sync(self) -> None:
        """Apply the queued flips' check-value and adjacent-sum updates:
        each member of a flipped check c sees its adjacent sum move by
        -2 s_c (add.at: two plaquettes can share two members)."""
        for k in self._pending:
            checks = self.adj[k]
            h = self._h[checks]
            self._h[checks] = -h
            np.add.at(self._adj_sum, self.members[k], h.repeat(self.size))
        self._pending.clear()

    @property
    def adj_sum(self) -> np.ndarray:
        """Adjacent check sums, with the dummy variable's trailing 0."""
        self._sync()
        return self._adj_sum

    @property
    def s(self) -> np.ndarray:
        """Check values, with the dummy check's trailing 0."""
        self._sync()
        return (self._h * -0.5).astype(np.int8)

    @property
    def energy(self) -> float:
        return float(-self.beta * self.corr + self.gamma * self.n_unsat)

    def step(self, u: float | None = None) -> tuple[int, float]:
        """Flip one pair, chosen with the uniform u (one draw from the
        chain's stream when None); returns (flip index, escape rate of the
        pre-flip state)."""
        if u is None:
            u = self.rng.random()
        cx, entry, key = self._cx, self._entry, self._key
        if entry is None:  # weights into the oldest row, evicting its state
            r = self._ring
            self._ring = (r + 1) % STATE_MEMO
            self._memo.pop(self._keys[r], None)
            self._keys[r] = key
            v, cum = self._v, self._rows[r]
            # v = max(dH, 0) = -log w with dH_k = 2 beta J_k x_k + gamma * (sum
            # of adjacent checks); w = exp(min v - v) is w / max w, exact even
            # when every move is steeply uphill and the raw weights underflow
            np.multiply(self._gamma, self._adj_view, v)
            if cx is not None:
                np.add(v, cx, v)
            np.maximum(v, _ZERO, out=v)
            low = v[v.argmin()]
            np.subtract(low, v, v)
            np.exp(v, v)
            np.add.accumulate(v, out=cum)
            total = cum.item(-1)
            rate = total if low == 0.0 else float(np.exp(-low) * total)  # exp(0) == 1
            entry = self._memo[key] = (cum, -low, total, rate, self.n_unsat)
        cum, self.shift, self.total, rate, _ = entry  # log rate = shift + log(total)
        k = int(cum.searchsorted(u * self.total, "right"))
        if k == len(cum):  # guard against u * total == total
            k -= 1

        old = self._x[k]
        self._x[k] = -old
        self.xf[k] = -old
        if cx is not None:
            cx[k] = -cx[k]
        if self._J is not None:
            self.corr -= 2.0 * self._J[k] * old
        if self._target is not None:
            self.dist_target += 1 if old == self._target[k] else -1
        self._key = new_key = key ^ (1 << k)
        pending = self._pending
        if pending and pending[-1] == k:
            pending.pop()
        else:
            pending.append(k)
        self._entry = entry = self._memo.get(new_key)
        if entry is not None:
            self.n_unsat = entry[4]
        else:
            if self._keys[self._ring] == key:  # keep the state just left for a flip back
                self._ring = (self._ring + 1) % STATE_MEMO
            # flipping k negated its adjacent checks: n_unsat moves by
            # their pre-flip sum, which is minus their sum now
            self._sync()
            self.n_unsat -= int(self._adj_sum[k])

        self.steps_done += 1
        if self.steps_done % ENERGY_CHECK_INTERVAL == 0:
            self._sync()
            self.n_unsat, self.corr = _checked_totals(
                self.code, self.family, self.adj, self.J, self.xf, self._adj_sum,
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


def _scheduled(schedule, step: int, budget: int):
    """The (beta, gamma) a schedule returns for a step, checked like
    HamiltonianParams."""
    beta, gamma = schedule(step, budget)
    _check_strengths(f" (schedule, step {step})", beta=beta, gamma=gamma)
    return beta, gamma


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
    bf_iters: int | None = None,
) -> tuple[SampleRun, np.ndarray | None]:
    """Run one chain from the edge vector initial (random when None)
    toward the edge vector target_f; returns the run
    and, when store_samples is set (run.samples), the (budget + 1,
    n_vars) stack of visited edge vectors, initial state first. With
    bf_iters set, each block of UNIFORM_BLOCK steps goes through
    _bf_stage as it ends, setting run's decoded hits (and run.decoded
    under store_samples); only that block of states is held otherwise."""
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
    # all checks of either family satisfied iff the state is a codeword
    track_target, track_codeword = target_f is not None, True
    if track_target and chain.dist_target == 0:
        run.target_hit, track_target = 0, False
    if chain.n_unsat == 0:
        run.first_codeword, track_codeword = 0, False

    energies = np.empty(budget, dtype=np.float64)
    rates = np.empty(budget, dtype=np.float64)
    stack = buf = None
    if store_samples:
        stack = np.empty((budget + 1, code.n_vars), dtype=np.int8)
    elif bf_iters is not None:
        buf = np.empty((min(UNIFORM_BLOCK, budget) + 1, code.n_vars), dtype=np.int8)
    decoded_hits = np.full(2, -1)  # first decoded target, first decoded codeword
    run.decoded = [] if store_samples and bf_iters is not None else None
    sink = open(stream_to, "w") if stream_to is not None else None
    try:
        if sink is not None:
            sink.write("sample,energy,state_hex\n")
            sink.write(f"0,{chain.energy!r},{pack_state_hex(xf0)}\n")
        for start in range(0, budget, UNIFORM_BLOCK):
            m = min(UNIFORM_BLOCK, budget - start)
            if stack is not None:
                buf = stack[start:start + m + 1]
            if buf is not None:  # row 0: the state at sample index start
                buf[0] = chain.xf
            for t, u in enumerate(rng.random(m).tolist(), start + 1):
                if schedule is not None:
                    chain.set_params(*_scheduled(schedule, t - 1, budget))
                _, rates[t - 1] = chain.step(u)
                energies[t - 1] = e = chain.energy
                if buf is not None:
                    buf[t - start] = chain.xf
                if sink is not None:
                    sink.write(f"{t},{e!r},{pack_state_hex(chain.xf)}\n")
                if track_target and chain.dist_target == 0:
                    run.target_hit, track_target = t, False
                if track_codeword and chain.n_unsat == 0:
                    run.first_codeword, track_codeword = t, False
            if bf_iters is not None and (run.decoded is not None or (decoded_hits < 0).any()):
                block = _bf_stage(code, buf[:m + 1], target_f, bf_iters, start, decoded_hits)
                if run.decoded is not None:
                    run.decoded.extend(block[1:] if start else block)
    finally:
        if sink is not None:
            sink.close()

    run.energies = energies
    run.escape_rates = rates
    if store_samples:
        run.samples = list(vector_to_matrix(code, stack[1:]))
    if bf_iters is not None:
        run.decoded_target_hit, run.decoded_any_codeword = (
            None if hit < 0 else int(hit) for hit in decoded_hits)
    return run, stack


def _run_lockstep(
    code: ParityCode,
    params_rows,
    budget: int,
    seeds,
    targets: np.ndarray,
    record_states: bool = False,
    record_energies: bool = False,
    bf_iters: int | None = None,
) -> dict:
    """Advance B independent chains in lockstep on (B, n_vars) arrays.

    Row b is the chain _run_chain would run with params_rows[b],
    seeds[b] and the edge-vector target targets[b] (random initial
    state, fixed parameters, one family for all rows), bit for bit.
    Returns a dict of arrays: target_hit and first_codeword (B,) with -1
    for never; states (B, budget + 1, n_vars) int8, initial state first,
    when record_states; energies and escape_rates (B, budget) when
    record_energies; with bf_iters set, hybrid_decode's first hits
    decoded_target_hit and decoded_any_codeword (B,), from _bf_stage run
    row by row on each block of UNIFORM_BLOCK steps. Rows with both hits
    are skipped. The block's states are at most LOCKSTEP_GROUP *
    (UNIFORM_BLOCK + 1) * C(K, 2) bytes, about 72 MB at K = 24, whatever
    the budget."""
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
    buf = None
    if record_states:
        states = out["states"] = np.empty((B, budget + 1, n), dtype=np.int8)
    elif bf_iters is not None:
        buf = np.empty((B, min(UNIFORM_BLOCK, budget) + 1, n), dtype=np.int8)
    decoded_hits = np.full((2, B), -1)  # first decoded target, first decoded codeword
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
        m = min(UNIFORM_BLOCK, budget - start)
        block = np.stack([rng.random(m) for rng in rngs], axis=1)
        if record_states:
            buf = states[:, start:start + m + 1]
        if buf is not None:  # row 0: the state at sample index start
            buf[:, 0] = x
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
            if buf is not None:
                buf[:, j + 1] = x
            at_target = dist == 0
            if at_target.any():
                np.copyto(target_hit, t, where=at_target & (target_hit < 0))
            at_codeword = n_unsat == 0
            if at_codeword.any():
                np.copyto(first_codeword, t, where=at_codeword & (first_codeword < 0))
        if bf_iters is not None:
            for b in np.flatnonzero((decoded_hits < 0).any(axis=0)):
                _bf_stage(code, buf[b, :m + 1], targets[b], bf_iters, start,
                          decoded_hits[:, b])
    if bf_iters is not None:
        out["decoded_target_hit"], out["decoded_any_codeword"] = decoded_hits
    return out


def _bf_stage(code: ParityCode, states: np.ndarray, target_f: np.ndarray, iters: int,
              start: int, hits: np.ndarray) -> np.ndarray:
    """`iters` keep-sign BF sweeps on one block of a chain's visited
    states (T, n_vars), row 0 at sample index start. Sets each entry of
    hits (first decoded target, first decoded codeword) still at -1 from
    this block; returns the decoded matrices (T, K, K)."""
    decoded = bf_sweep_batch(vector_to_matrix(code, states), iters)
    decoded_f = matrix_to_vector(code, decoded)
    found = (np.all(decoded_f == target_f, axis=1),
             _is_codeword_flat(code, decoded_f))
    for i, mask in enumerate(found):
        if hits[i] < 0 and mask.any():
            hits[i] = start + mask.argmax()
    return decoded


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
    xf0 = None if initial is None else _edge_vector(code, initial)
    run, _ = _run_chain(code, params, budget, seed, target_f, xf0, store_samples,
                        stream_to=stream_to, schedule=schedule)
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
    """Two-stage decoding: sample as in mcmc_decode, and run bf_max_iters
    (>= 1) BF sweeps on every visited state, block by block as the chain
    runs; success iff any corrected state equals the target.

    With the same seed and budget the first stage reproduces the
    mcmc_decode chain exactly, and codewords are BF fixed points, so
    hybrid success dominates plain sampling success pointwise. The BF
    stage keeps the current sign on a tied vote; any tie_policy other
    than KEEP is refused before sampling.
    """
    if tie_policy is not TiePolicy.KEEP:
        raise ValueError("hybrid stage uses the deterministic keep-sign sweep; "
                         f"tie_policy {tie_policy.value!r} is not supported")
    if bf_max_iters < 1:
        raise ValueError(f"bf_max_iters must be >= 1, got {bf_max_iters}")
    target_f = _edge_vector(code, target)
    xf0 = None if initial is None else _edge_vector(code, initial)
    run, _ = _run_chain(code, params, budget, seed, target_f, xf0, store_samples,
                        bf_iters=bf_max_iters)
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
    xf0 = None if initial is None else _edge_vector(code, initial)
    rng = as_generator(seed)
    chain = _Chain(code, params, _initial_state(code, rng, xf0), rng)
    log_hist: dict[bytes, float] = {}
    for start in range(0, steps, UNIFORM_BLOCK):
        for t, u in enumerate(rng.random(min(UNIFORM_BLOCK, steps - start)).tolist(), start):
            if t < burn_in:
                chain.step(u)
                continue
            key = chain.xf.tobytes()
            chain.step(u)
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
