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

Two engines share that table, and each writes the same weight formula
for its own array shape: v = max(dH, 0), w = exp(min v - v), so the log
escape rate is -min v + log(sum w). One function for both shapes would
take the minimum as v.min(axis=-1), which costs about 0.7 us on one
C(14, 2) row where the single chain's v[v.argmin()] costs 0.16 us
(2-vCPU AMD EPYC), so every weight-memo miss would cost about 0.5 us
more.
`_Chain` runs one chain, for `mcmc_decode`, `hybrid_decode` and
`rejection_free_step` (all through `_run_chain`), for
`visit_distribution` and for `_first_target_hit`, all through one step
kernel, `_Chain.advance`: a block of UNIFORM_BLOCK steps in one Python
frame, the chain's fields held in locals, the weights in eight numpy
calls into preallocated buffers, the coupling term 2 beta J x negated
entry by entry and the flip's scalars kept in Python. It returns the
block's energies and each step's weight-memo entry (escape rate, log
shift and total), and fills an optional state buffer; the callers draw
the uniforms and write records, streams and holding times from those. At
low temperature a chain mostly moves among a few states: it keeps the
weights of its last STATE_MEMO = 64 distinct pre-flip states, keyed by
an exact integer that one XOR per flip updates, and a flip's check-value
and adjacent-sum update waits until the chain reaches a state outside
that memo. Bit k of the key is set iff pair k differs from the chain's
initial state, a base that never changes, so the target hit is key
equality: the chain is at the target exactly when its key equals the
target's key, computed once. On a 2-vCPU AMD EPYC box a step costs about
2.3 us at K=14 w4 (beta, gamma) = (3, 4), where 71% of the steps start
from a memo-held state (76% are not first visits, so no memo could pass
that), 4.6 us at (1.5, 0.2), where 1% do, and 5.0 us at K=40 w3 gamma =
1 from an eps = 0.1 readout, where 48% do. The hybrid's BF stage reads
the memo's misses too: it decodes every distinct state, the ones whose
memo entry a block builds (a state's first visit always does) and the
final state, rather than every step's; at that K=14 cell that is 27% of
the steps. A run that stores its samples decodes the stored stack after
the chain instead.
`_first_target_hit` is the driver for a caller that reads only a chain's
first target hit (`experiments.bench_iid`'s sampling trials): it runs
`_run_chain`'s chain, the same stream, moves and drift checks, but feeds
`advance` HIT_SLICE = 16 steps at a time and stops at the first slice
that ends at or past the hit. It keeps no energies, escape rates, states
or `SampleRun`, so its memory is one block of uniforms plus the chain's
fixed fields, whatever the budget, where `_run_chain` writes 16 B of
records per step.
`_run_lockstep` advances many chains at once on (B, n_vars) arrays, each
row with its own stream. Its rows come as a table: one check family, and
per row float64 strengths beta and gamma and a couplings row J (zero for
a chain without couplings). Its one package caller,
`experiments._lockstep_hits`, builds those rows for
`experiments.landscape` and both arms of `experiments.efficiency_ratio`
after their entry checks, which are the only refusal its rows meet, and
runs them in groups that bound the engine's memory, stated per B rows;
the engine reads no `HamiltonianParams`. Its rows hold `_Chain`'s state
form: check values as h = -2 s, and a flip of pair k moves the
unsatisfied count by k's pre-flip adjacent sum and each member's
adjacent sum by the h of its flipped check. The flipped checks and their
members are gathered by `take` on the flip table's rows plus a
same-shape table of row offsets, built once per call, and gamma is held
at the weights' (B, n_vars + 1) shape, so no operand of the step is
broadcast. On a 2-vCPU Intel Xeon (numpy 2.4.6) a chain-step costs about
1.3 us at K=14 w4 and B=48, the landscape's batch. It is no cheaper for
one chain: about 22 us per step at B=1.

Both start from one from-scratch formula for a chain's totals (check
values, adjacent sums, unsatisfied count, correlation), `_totals`, which
the drift checks also use; `energy` is the energy of a fresh `_Chain`.
Both reproduce the plain per-step loop bit for bit. A chain's driver
draws its initial state first, then its uniforms in blocks of
UNIFORM_BLOCK with `rng.random(m)`, which yields the same values as m
successive `rng.random()` calls; `rejection_free_step` is a one-step
`_run_chain` and draws one.
"""

from __future__ import annotations

import contextlib
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
    _check_count,
    _check_strengths,
    _edge_vector,
    _family,
    _is_codeword_flat,
    _padded,
    _read_only_copy,
    _spin_rows,
    _syndrome_flat,
    build_code,
)
from .decoders import _coupling_vector, bf_sweep_batch

ENERGY_CHECK_INTERVAL = 10_000
ENERGY_DRIFT_TOL = 1e-9
UNIFORM_BLOCK = 1024      # uniforms pre-drawn, and hybrid states decoded, per block
STATE_MEMO = 64           # pre-flip states whose weights a single chain keeps
HIT_SLICE = 16            # steps a first-hit chain takes between looks at its hit
_ZERO = np.zeros(())  # 0-d operands cost a ufunc call less than Python floats


@dataclass(frozen=True, eq=False)
class HamiltonianParams:
    """Energy parameters: correlation strength beta, penalty strength
    gamma, per-pair couplings (None for the penalty-only form; others
    kept as a read-only float64 copy) and the check family ("w4"
    plaquettes or "w3" triangles). Compared and hashed by identity, as
    the couplings array has no one truth value."""

    beta: float = 0.0
    gamma: float = 1.0
    couplings: np.ndarray | None = None
    family: str = "w4"

    def __post_init__(self):
        _check_strengths(beta=self.beta, gamma=self.gamma)
        _family(build_code(2), self.family)  # refuses an unknown family
        if self.couplings is not None:
            object.__setattr__(self, "couplings", _read_only_copy(self.couplings))


@dataclass(eq=False)
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
    The initial state is kept as the edge vector initial_f; `initial`
    is its spin matrix, converted on first read. final_f is the state
    after the last step as an edge vector, kept with or without samples.
    seed is the chain's seed as given, an integer one (numpy included)
    as a Python int. Compared and hashed by identity, as its arrays have
    no one truth value.

    Across hosts: the states, hits and energies agree on every host the
    tests and pinned reports ran on (the weights' ULPs matter only at a
    near-tie draw). escape_rates, like visit_distribution's weights, are
    bit-for-bit only per numpy build and SIMD target, since numpy's exp
    and log kernels differ between dispatch targets.
    """

    params: HamiltonianParams
    seed: object
    budget: int
    initial_f: np.ndarray
    code: ParityCode = field(repr=False)
    final_f: np.ndarray | None = None
    samples: list = field(default_factory=list)
    energies: np.ndarray | None = None
    escape_rates: np.ndarray | None = None
    target_hit: int | None = None
    first_codeword: int | None = None
    decoded_target_hit: int | None = None
    decoded_any_codeword: int | None = None
    decoded: list | None = None

    @functools.cached_property
    def initial(self) -> np.ndarray:
        """The initial state as a spin matrix, converted from the edge
        vector initial_f on first read."""
        return vector_to_matrix(self.code, self.initial_f)


def _couplings_for(code: ParityCode, params: HamiltonianParams) -> np.ndarray | None:
    """The couplings of params as an edge vector, as _bounded_couplings
    gives them, returned only after its bound accepts params' (beta,
    gamma). `boltzmann_distribution` and the drivers' entry checks go
    through it; `_Chain`, and with it `energy`, calls _bounded_couplings
    itself and keeps the bound for `set_params`."""
    J, bounded = _bounded_couplings(code, params)
    bounded(params.beta, params.gamma)
    return J


def _bounded_couplings(code: ParityCode, params: HamiltonianParams) -> tuple:
    """(J, bound): the couplings of params as an edge vector (None for
    the penalty-only form, refused at beta > 0), one finite value per
    pair at any beta (the one couplings check, code._check_couplings,
    refuses others), and the one refusal of strengths that overflow on
    this code and couplings: a function of (beta, gamma) that raises
    ValueError unless the bound 2 beta max|J| + gamma deg of every
    flip's weight exponent (deg the family's checks per variable) and
    the bound beta sum|J| + gamma n_checks of the energy are finite."""
    J = _coupling_vector(code, params.couplings, "beta > 0" if params.beta > 0 else None)
    members, adj = _family(code, params.family)
    deg, n_checks = adj.shape[1], len(members)
    with np.errstate(over="ignore"):
        jmax, jsum = (0.0, 0.0) if J is None else (float(np.abs(J).max()), float(np.abs(J).sum()))

    def check(beta, gamma) -> None:
        beta, gamma = float(beta), float(gamma)
        flip, total = gamma * deg, gamma * n_checks
        if beta:  # beta = 0 drops the couplings, however large
            flip, total = flip + 2.0 * beta * jmax, total + beta * jsum
        if not (math.isfinite(flip) and math.isfinite(total)):
            raise ValueError(
                f"(beta, gamma) = ({beta}, {gamma}) overflows the energy at K = {code.K}, "
                f"family {params.family!r}: 2 beta max|J| + {deg} gamma and "
                f"beta sum|J| + {n_checks} gamma must be finite")
    return J, check


def energy(code: ParityCode, params: HamiltonianParams, x: np.ndarray) -> float:
    """Exact energy of a state under the configured parameters: the
    energy of a fresh chain started there."""
    return _Chain(code, params, _edge_vector(code, x)).energy


@functools.cache
def _flip_table(code: ParityCode, family: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Padded adjacency of one check family, cached per (code, family).

    Returns (adj, members, size): adj[v] (deg,) lists the checks adjacent
    to variable v, and members[v] (deg * size,) the variables of each of
    those checks, check by check (size = 3 for triangles, 4 for
    plaquettes). Padding points to a dummy check, column n_checks, whose
    value is kept at 0, and to a dummy variable, column n_vars, whose
    adjacent sum is never read."""
    check_vars, adj = _family(code, family)
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
    return _padded(_syndrome_flat(code, xf, family), 0)


def _adjacent_sums(adj: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Sum of adjacent check values per variable, as exact float64, with
    a trailing dummy-variable column of 0: (..., n_checks + 1) ->
    (..., n_vars + 1), C-contiguous."""
    return _padded(s[..., adj].sum(axis=-1, dtype=np.float64), 0.0)


def _totals(code: ParityCode, family: str, adj: np.ndarray, J: np.ndarray | None,
            xf: np.ndarray) -> tuple:
    """A chain's totals from scratch, for edge vectors xf (..., n_vars)
    and couplings J broadcast against them (None: no couplings): check
    values as _padded_syndrome, adjacent sums as _adjacent_sums, and the
    unsatisfied-check counts and correlation sums sum J x, shape (...)."""
    s = _padded_syndrome(code, xf, family)
    corr = 0.0 if J is None else (J * xf).sum(axis=-1)
    return s, _adjacent_sums(adj, s), np.count_nonzero(s == -1, axis=-1), corr


def _initial_state(code: ParityCode, rng: np.random.Generator, initial) -> np.ndarray:
    """The given initial state as an edge vector, or a uniformly random
    one drawn from rng (the first draw of every chain stream). A spin
    matrix is validated and converted, an edge vector checked."""
    if initial is None:
        return (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    xf = np.asarray(initial)
    if xf.ndim != 1:
        return _edge_vector(code, xf)
    if xf.shape != (code.n_vars,) or not np.all(np.abs(xf) == 1):
        raise ValueError(f"initial edge vector must be {code.n_vars} entries of +1 or -1")
    return xf.astype(np.int8, copy=False)


class _Chain:
    """Single rejection-free chain on the flat (edge-vector) state.

    `advance` is the chain's one step kernel: it runs a list of uniforms
    its caller drew (a block of up to UNIFORM_BLOCK of them, from
    `_run_chain` or `visit_distribution`, or a HIT_SLICE slice of one
    from `_first_target_hit`) in a single Python frame, with
    the chain's fields in locals, and returns the block's energies and the memo
    entry each step drew its flip from; a state buffer, a (beta, gamma)
    schedule and a record of the states whose memo entry it builds are
    its only options.
    The coupling term 2 beta J x is rebuilt only when `set_params`
    changes beta. Check values are kept as -2 s, the amount each
    member's adjacent sum moves when the check negates, and the entries
    a flip reads (x_k and J_k) also as Python lists.

    A memo keeps the cumulative weights, log shift, total, escape rate
    and unsatisfied-check count of the last STATE_MEMO (64) distinct
    pre-flip states, keyed by an exact integer: bit k is set iff pair k
    differs from the initial state. That base never changes, not even in
    `set_params`, so the chain holds no distance to the target: it is at
    the target exactly when the key equals the target's key, set once
    from the initial state, and target work stops at the first hit. A
    ring index evicts the oldest entry, but never the state just left,
    so a flip back finds its weights when STATE_MEMO >= 2. The weights are a function of the
    state and (beta, gamma) alone, since the adjacent sums are exact
    integers and cx entries are negated exactly, so a state found in the
    memo reuses the bytes a recomputation would give. A memo row holds
    C(K, 2) float64s: 64 rows are 46 KB at K=14 and 400 KB at K=40.
    A flip updates x, cx and the scalars at once, but only queues its
    check-value and adjacent-sum update; a flip that undoes the last
    queued one cancels it. The queue is applied when the chain reaches a
    state outside the memo, before a drift check, and when `adj_sum` or
    `s` is read. A change of beta or gamma in `set_params` empties the
    memo.

    target_hit and first_codeword are the first sample indices (0 the
    initial state) at the target and at a codeword, None until then."""

    def __init__(self, code: ParityCode, params: HamiltonianParams, xf: np.ndarray,
                 target_f: np.ndarray | None = None):
        self.code = code
        self.xf = xf.astype(np.int8)
        self.family = params.family
        self.J, self._bounded = _bounded_couplings(code, params)
        self._memo = {}     # state key -> (cum, shift, total, rate, n_unsat)
        self._pending = []  # flips whose check-value and adjacent-sum updates wait
        self.beta = self.gamma = self._cx = None
        self.set_params(params.beta, params.gamma)  # refuses overflow before any sum
        self.adj, self.members, self.size = _flip_table(code, self.family)
        s, self._adj_sum, n_unsat, corr = _totals(code, self.family, self.adj, self.J, self.xf)
        self._h = -2.0 * s
        self._adj_view = self._adj_sum[:-1]
        self.n_unsat, self.corr = int(n_unsat), float(corr)
        self._x = self.xf.tolist()
        self._J = None if self.J is None else self.J.tolist()
        self._target_key = (None if target_f is None else int.from_bytes(
            np.packbits(self.xf != target_f, bitorder="little"), "little"))
        self.target_hit = 0 if self._target_key == 0 else None
        self.first_codeword = 0 if self.n_unsat == 0 else None
        self._v = np.empty(code.n_vars)
        self._rows = list(np.empty((STATE_MEMO, code.n_vars)))  # the memo's cum rows
        self._key = 0  # the current state's key (_entry, its memo entry, None until built)
        self.steps_done = 0

    def set_params(self, beta, gamma) -> None:
        """Use (beta, gamma) from the next step on; a change empties the
        weight memo. Strengths that overflow are refused."""
        self._bounded(beta, gamma)
        if beta != self.beta:
            self._cx = (None if self.J is None or beta == 0.0
                        else 2.0 * beta * self.J * self.xf)
        if beta != self.beta or gamma != self.gamma:
            self._sync()  # the next step computes weights from the sums
            self._memo.clear()
            self._keys = [-1] * STATE_MEMO  # the key held in each cum row
            self._ring = 0                  # the row the next miss overwrites
            self._entry = None
        # Python floats: the energy is then one, and streams with its repr
        self.beta, self.gamma = float(beta), float(gamma)
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

    def advance(self, us: list, states=None, schedule=None,
                misses: dict | None = None) -> tuple[int, list, list]:
        """Take one step per uniform in us; returns the last flip index,
        the energy after each step and the memo entry (cum, shift, total,
        rate, n_unsat) of each step's pre-flip state.

        states, when given, gets the state before the block in row 0 and
        the state after step i in row i + 1. schedule(t), when given,
        returns the (beta, gamma) of chain step t (t = steps_done + i for
        step i of the block) and is applied before that step. misses,
        when given, gets sample index -> state bytes for each pre-flip
        state whose memo entry the block builds: every state's first
        visit among them."""
        # v = max(dH, 0) = -log w with dH_k = 2 beta J_k x_k + gamma * (sum of
        # adjacent checks); w = exp(min v - v) is w / max w, exact even when
        # every move is steeply uphill and the raw weights underflow
        memo, keys, rows, pending = self._memo, self._keys, self._rows, self._pending
        x, xf, J, target_key = self._x, self.xf, self._J, self._target_key
        v, adj_view, adj_sum = self._v, self._adj_view, self._adj_sum
        cx, gam, beta, gamma = self._cx, self._gamma, self.beta, self.gamma
        key, entry, ring = self._key, self._entry, self._ring
        n_unsat, corr = self.n_unsat, self.corr
        target_hit, first_codeword = self.target_hit, self.first_codeword
        track_target = target_key is not None and target_hit is None
        track_codeword = first_codeword is None
        slots, n, interval = len(rows), len(v), ENERGY_CHECK_INTERVAL
        t0 = t = self.steps_done
        block_e, block_entries = [], []
        if states is not None:
            states[0] = xf
        k = None
        for u in us:
            if schedule is not None:
                b, g = schedule(t)
                if b != beta or g != gamma:
                    self.set_params(b, g)
                    cx, gam, keys = self._cx, self._gamma, self._keys
                    beta, gamma, ring, entry = self.beta, self.gamma, 0, None
            if entry is None:  # weights into the oldest row, evicting its state
                memo.pop(keys[ring], None)
                keys[ring] = key
                cum = rows[ring]
                ring = (ring + 1) % slots
                np.multiply(gam, adj_view, v)
                if cx is not None:
                    np.add(v, cx, v)
                np.maximum(v, _ZERO, out=v)
                low = v[v.argmin()]
                np.subtract(low, v, v)
                np.exp(v, v)
                np.add.accumulate(v, out=cum)
                total = cum.item(-1)
                rate = total if low == 0.0 else float(np.exp(-low) * total)  # exp(0) == 1
                entry = memo[key] = (cum, -low, total, rate, n_unsat)
                if misses is not None:
                    misses[t] = xf.tobytes()
            else:
                cum, _, total, _, _ = entry  # log rate = shift + log(total)
            block_entries.append(entry)
            k = int(cum.searchsorted(u * total, "right"))
            if k == n:  # guard against u * total == total
                k -= 1

            old = x[k]
            x[k] = -old
            xf[k] = -old
            if cx is not None:
                cx[k] = -cx[k]
            if J is not None:
                corr -= 2.0 * J[k] * old
            left, key = key, key ^ (1 << k)
            if pending and pending[-1] == k:
                pending.pop()
            else:
                pending.append(k)
            entry = memo.get(key)
            if entry is not None:
                n_unsat = entry[4]
            else:
                if keys[ring] == left:  # keep the state just left for a flip back
                    ring = (ring + 1) % slots
                # flipping k negated its adjacent checks: n_unsat moves by
                # their pre-flip sum, which is minus their sum now
                self._sync()
                n_unsat -= int(adj_sum[k])

            t += 1
            if t % interval == 0:
                self._sync()
                n_unsat, corr = _checked_totals(self.code, self.family, self.adj, self.J, xf,
                                                adj_sum, n_unsat, corr)
            e = -beta * corr + gamma * n_unsat
            block_e.append(e)
            if states is not None:
                states[t - t0] = xf
            if track_target and key == target_key:
                target_hit, track_target = t, False
            if track_codeword and n_unsat == 0:
                first_codeword, track_codeword = t, False

        self._key, self._entry, self._ring = key, entry, ring
        self.n_unsat, self.corr = n_unsat, corr
        self.target_hit, self.first_codeword = target_hit, first_codeword
        self.steps_done = t
        return k, block_e, block_entries


def _checked_totals(code, family, adj, J, xf, adj_sum, n_unsat, corr) -> tuple[int, float]:
    """Recompute one chain's unsatisfied-check count, correlation sum and
    adjacent check sums from its state; raise if the incremental values
    drifted, else return the recomputed totals."""
    _, adj_ref, n_ref, corr_ref = _totals(code, family, adj, J, xf)
    if not np.array_equal(adj_ref[:-1], adj_sum[:-1]):
        raise RuntimeError("incremental adjacent check sums drifted")
    n_ref, corr_ref = int(n_ref), float(corr_ref)
    drift = abs(n_ref - n_unsat) + abs(corr_ref - corr)
    if drift > ENERGY_DRIFT_TOL:
        raise RuntimeError(f"incremental energy drifted by {drift}")
    return n_ref, corr_ref


def _scheduled(schedule, budget: int):
    """The schedule with its budget bound: step -> (beta, gamma), checked
    like HamiltonianParams."""
    def at(step: int):
        beta, gamma = schedule(step, budget)
        _check_strengths(f" (schedule, step {step})", beta=beta, gamma=gamma)
        return beta, gamma
    return at


def rejection_free_step(
    code: ParityCode,
    params: HamiltonianParams,
    x: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One rejection-free update of a spin matrix. Returns the new state
    (exactly one pair flipped) and the total Metropolis weight of the
    pre-flip state (its escape rate; 1/rate is the holding time)."""
    run, _ = _run_chain(code, params, 1, rng, None, _edge_vector(code, x), True)
    return run.samples[0], float(run.escape_rates[0])


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
    """Run one chain from initial (an edge vector or a spin matrix;
    random when None) toward the edge vector target_f; returns the run
    and, when store_samples is set (run.samples), the (budget + 1,
    n_vars) stack of visited edge vectors, initial state first. With
    bf_iters set, _bf_stage sets run's decoded hits. Without
    store_samples it runs as each block of UNIFORM_BLOCK steps ends, on
    the block's distinct states, the ones whose weight-memo entry the
    block built, and at the end the final state, until both hits are
    found: a first decoded hit is a state's first visit, and each first
    visit builds a memo entry, while a state decoded again, after its
    entry was evicted or the memo emptied, only comes at a later index.
    Only that block's states are held. With store_samples the stored
    stack is decoded once after the chain, UNIFORM_BLOCK states at a
    time, for run.decoded (one decoded state per sample index) and the
    hits."""
    budget = _check_count("budget", budget, 1)
    rng = as_generator(seed)
    xf0 = _initial_state(code, rng, initial)
    chain = _Chain(code, params, xf0, target_f)
    if isinstance(seed, np.integer):  # recorded as the Python int it equals
        seed = int(seed)
    run = SampleRun(params=params, seed=seed, budget=budget, initial_f=xf0.copy(), code=code)

    run.energies, run.escape_rates = np.empty(budget), np.empty(budget)
    if schedule is not None:
        schedule = _scheduled(schedule, budget)
    stack = buf = None
    if store_samples:
        stack = np.empty((budget + 1, code.n_vars), dtype=np.int8)
    elif stream_to is not None:
        buf = np.empty((min(UNIFORM_BLOCK, budget) + 1, code.n_vars), dtype=np.int8)
    decoded_hits = np.full(2, -1)  # first decoded target, first decoded codeword
    misses = {} if bf_iters is not None and not store_samples else None
    with open(stream_to, "w") if stream_to is not None else contextlib.nullcontext() as sink:
        if sink is not None:
            sink.write("sample,energy,state_hex\n")
            sink.write(f"0,{chain.energy!r},{pack_state_hex(xf0)}\n")
        for start in range(0, budget, UNIFORM_BLOCK):
            m = min(UNIFORM_BLOCK, budget - start)
            if stack is not None:
                buf = stack[start:start + m + 1]
            stage = misses is not None and (decoded_hits < 0).any()
            # advance sets buf row 0 to the state at sample index start
            _, block_e, entries = chain.advance(rng.random(m).tolist(), buf, schedule,
                                                misses if stage else None)
            run.energies[start:start + m] = block_e
            run.escape_rates[start:start + m] = [entry[3] for entry in entries]
            if sink is not None:
                sink.writelines(f"{t},{e!r},{pack_state_hex(row)}\n"
                                for t, (e, row) in enumerate(zip(block_e, buf[1:]), start + 1))
            if stage:  # the block's new states
                if start + m == budget:  # the final state starts no step
                    misses[budget] = chain.xf.tobytes()
                if misses:
                    states = np.frombuffer(b"".join(misses.values()), np.int8).reshape(
                        len(misses), code.n_vars)
                    _bf_stage(code, states, target_f, bf_iters, list(misses), decoded_hits)
                    misses.clear()

    run.target_hit, run.first_codeword = chain.target_hit, chain.first_codeword
    run.final_f = chain.xf.copy()
    if store_samples:
        run.samples = list(vector_to_matrix(code, stack[1:]))
        if bf_iters is not None:
            run.decoded = [d for start in range(0, budget + 1, UNIFORM_BLOCK)
                           for d in _bf_stage(code, stack[start:start + UNIFORM_BLOCK], target_f,
                                              bf_iters, range(start, budget + 1), decoded_hits)]
    if bf_iters is not None:
        run.decoded_target_hit, run.decoded_any_codeword = (
            None if hit < 0 else int(hit) for hit in decoded_hits)
    return run, stack


def _first_target_hit(
    code: ParityCode,
    params: HamiltonianParams,
    budget: int,
    seed,
    target_f: np.ndarray | None,
    initial: np.ndarray | None,
) -> int | None:
    """The target_hit of `_run_chain(code, params, budget, seed, target_f,
    initial, False)`: the same stream, moves and drift checks, with the
    uniforms drawn in the same blocks, but the chain is advanced HIT_SLICE
    steps at a time and stops at the first slice boundary at or past its
    hit. Nothing per step is kept, so memory does not grow with budget."""
    budget = _check_count("budget", budget, 1)
    rng = as_generator(seed)
    chain = _Chain(code, params, _initial_state(code, rng, initial), target_f)
    for start in range(0, budget, UNIFORM_BLOCK):
        us = rng.random(min(UNIFORM_BLOCK, budget - start)).tolist()
        for i in range(0, len(us), HIT_SLICE):
            if chain.target_hit is not None:
                return chain.target_hit
            chain.advance(us[i:i + HIT_SLICE])
    return chain.target_hit


def _run_lockstep(
    code: ParityCode,
    family: str,
    beta: np.ndarray,
    gamma: np.ndarray,
    J: np.ndarray,
    budget: int,
    seeds,
    targets: np.ndarray,
    record: bool = False,
    bf_iters: int | None = None,
) -> dict:
    """Advance B independent chains in lockstep on (B, n_vars) arrays.

    The rows come as a table that the caller has checked (the drivers'
    entry checks; the engine refuses only a budget below 1): one check
    family, float64 strengths beta and gamma (B,) and float64 couplings
    J (B, n_vars), a zero row for a chain without couplings. Row b is,
    bit for bit, the chain _run_chain would run with beta[b], gamma[b],
    couplings J[b] and the family, from seeds[b] toward the edge-vector
    target targets[b] (random initial state, fixed parameters). Returns
    a dict of arrays: target_hit and first_codeword (B,) with -1 for
    never; with record set, states (B, budget + 1, n_vars) int8,
    initial state first, and energies and escape_rates (B, budget), as
    _run_chain's stack and records; with bf_iters set, hybrid_decode's
    first hits decoded_target_hit and decoded_any_codeword (B,), from
    _bf_stage run row by row on each block of UNIFORM_BLOCK steps. Rows
    with both hits are skipped. Without record, the block's states are
    at most B * (UNIFORM_BLOCK + 1) * C(K, 2) bytes for the B rows,
    whatever the budget.

    The state is _Chain's, row by row: check values h = -2 s (float64),
    adjacent sums, unsatisfied counts (float64, moved by the flipped
    pair's pre-flip adjacent sum) and correlations (moved by 2 J_k x_k,
    from a precomputed 2 J). A flip gathers its rows of the flip table
    with take(k, axis=0) and adds same-shape offset tables, (B, deg) into
    h and (B, deg * size) into the adjacent sums, built once per call;
    np.add.at then moves each member's sum by its check's h, and h
    negates. The target and codeword masks are built only on steps where
    some row is at a target or a codeword. Per chain-step at K = 14 w4
    and B = 48 this costs about 1.3 us (2-vCPU Intel Xeon, numpy 2.4.6)."""
    _check_count("budget", budget, 1)
    B, n = len(seeds), code.n_vars
    adj, members, size = _flip_table(code, family)
    rngs = [as_generator(seed) for seed in seeds]
    x = np.array([_initial_state(code, rng, None) for rng in rngs])
    targets = np.asarray(targets, dtype=np.int8).reshape(B, n)
    # coupling part of dH, 2 beta J x, negated in place on every flip; its
    # dummy-variable column is +inf, so the dummy's weight is exactly 0
    cx = _padded(2.0 * beta[:, None] * J * x, np.inf)
    s, adj_sum, n_unsat, corr = _totals(code, family, adj, J, x)
    dist = np.count_nonzero(x != targets, axis=1)
    target_hit = np.where(dist == 0, 0, -1)
    first_codeword = np.where(n_unsat == 0, 0, -1)
    out = {"target_hit": target_hit, "first_codeword": first_codeword}
    buf = None
    if record:
        states = out["states"] = np.empty((B, budget + 1, n), dtype=np.int8)
        energies = out["energies"] = np.empty((B, budget))
        rates = out["escape_rates"] = np.empty((B, budget))
    elif bf_iters is not None:
        buf = np.empty((B, min(UNIFORM_BLOCK, budget) + 1, n), dtype=np.int8)
    decoded_hits = np.full((2, B), -1)  # first decoded target, first decoded codeword

    # flat views, and per-row offsets in same-shape tables for 1-D take
    xr, tr, ar, cr = x.ravel(), targets.ravel(), adj_sum.ravel(), cx.ravel()
    hr = (-2.0 * s).ravel()  # check values as -2 s, as _Chain._h
    J2r = (2.0 * J).ravel()
    n_unsat = n_unsat.astype(np.float64)
    rows = np.arange(B)
    row_x, row_a = rows * n, rows * (n + 1)
    off_h = np.repeat(rows[:, None] * s.shape[1], adj.shape[1], axis=1)
    off_a = np.repeat(row_a[:, None], members.shape[1], axis=1)
    gamma_rows = np.repeat(gamma[:, None], n + 1, axis=1)
    v = np.empty((B, n + 1))
    cum = np.empty((B, n + 1))
    below = np.empty((B, n + 1), dtype=bool)
    for start in range(0, budget, UNIFORM_BLOCK):
        m = min(UNIFORM_BLOCK, budget - start)
        block = np.stack([rng.random(m) for rng in rngs], axis=1)
        if record:
            buf = states[:, start:start + m + 1]
        if buf is not None:  # row 0: the state at sample index start
            buf[:, 0] = x
        for j, uniform in enumerate(block):
            t = start + j + 1
            # v = max(dH, 0) = -log w; w = exp(min v - v), the weights
            # _Chain.advance computes, exp(log w - shift) with shift = max log w
            np.multiply(gamma_rows, adj_sum, out=v)
            v += cx
            np.maximum(v, _ZERO, out=v)
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

            fk, fa = row_x + k, row_a + k
            old = xr.take(fk)
            xr[fk] = -old
            corr -= J2r.take(fk) * old
            dist += old * tr.take(fk)
            cr[fa] = -cr.take(fa)
            # flipping k negates its adjacent checks: n_unsat moves by their
            # pre-flip sum, and each member of a check by its -2 s, as _Chain
            n_unsat += ar.take(fa)
            fh = adj.take(k, axis=0) + off_h
            hv = hr.take(fh)
            hr[fh] = -hv
            np.add.at(ar, (members.take(k, axis=0) + off_a).ravel(), hv.repeat(size))

            if t % ENERGY_CHECK_INTERVAL == 0:
                for b in range(B):
                    n_unsat[b], corr[b] = _checked_totals(code, family, adj, J[b], x[b],
                                                          adj_sum[b], n_unsat[b], corr[b])
            if record:
                rates[:, t - 1] = np.exp(-low) * total
                energies[:, t - 1] = -beta * corr + gamma * n_unsat
            if buf is not None:
                buf[:, j + 1] = x
            # masks only when some row is at the target or a codeword
            if np.count_nonzero(dist) < B:
                np.copyto(target_hit, t, where=(dist == 0) & (target_hit < 0))
            if np.count_nonzero(n_unsat) < B:
                np.copyto(first_codeword, t, where=(n_unsat == 0) & (first_codeword < 0))
        if bf_iters is not None:
            for b in np.flatnonzero((decoded_hits < 0).any(axis=0)):
                _bf_stage(code, buf[b, :m + 1], targets[b], bf_iters,
                          range(start, start + m + 1), decoded_hits[:, b])
    if bf_iters is not None:
        out["decoded_target_hit"], out["decoded_any_codeword"] = decoded_hits
    return out


def _bf_stage(code: ParityCode, states: np.ndarray, target_f: np.ndarray, iters: int,
              index, hits: np.ndarray) -> np.ndarray:
    """`iters` keep-sign BF sweeps on visited states (T, n_vars) of a
    chain, row i at sample index index[i] (increasing). Sets
    each entry of hits (first decoded target, first decoded codeword)
    still at -1 to the smallest index whose decode hits; returns the
    decoded matrices (T, K, K)."""
    decoded = bf_sweep_batch(vector_to_matrix(code, states), iters)
    decoded_f = matrix_to_vector(code, decoded)
    found = (np.all(decoded_f == target_f, axis=1),
             _is_codeword_flat(code, decoded_f))
    for i, mask in enumerate(found):
        if hits[i] < 0 and mask.any():
            hits[i] = index[mask.argmax()]
    return decoded


def pack_state_hex(xf: np.ndarray) -> str:
    """Edge vector as hex: bit 1 marks a -1 spin, edge order, MSB first."""
    return np.packbits((np.asarray(xf).ravel() == -1).astype(np.uint8)).tobytes().hex()


def unpack_state_hex(text: str, n_vars: int) -> np.ndarray:
    """Edge vector of n_vars spins from pack_state_hex's text, which must
    hold ceil(n_vars / 8) bytes and no set bit past the n_vars spins, so
    one state has one text."""
    raw = bytes.fromhex(text)
    if len(raw) != -(-n_vars // 8):
        raise ValueError(f"state hex holds {len(raw)} bytes, not ceil({n_vars} / 8)")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if bits[n_vars:].any():
        raise ValueError(f"state hex sets a padding bit past its {n_vars} spins")
    return np.where(bits[:n_vars] == 1, -1, 1).astype(np.int8)


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
    one is given, as a spin matrix or its edge vector) and report whether
    any visited state, the initial one included, equals the target. The run also records the first visit to
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
    run, _ = _run_chain(code, params, budget, seed, target_f, initial, store_samples,
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
    initial: np.ndarray | None = None,
    store_samples: bool = True,
) -> tuple[bool, SampleRun]:
    """Two-stage decoding: sample as in mcmc_decode, and run bf_max_iters
    (an integer >= 1) BF sweeps on every distinct visited state, block by
    block as the chain runs; success iff any corrected state equals the
    target. A decode depends on the state alone, so a revisit adds
    nothing. With store_samples the stored states are decoded once after
    the chain instead, and run.decoded holds one decoded state per
    sample index, the initial state first.

    With the same seed and budget the first stage reproduces the
    mcmc_decode chain exactly, and codewords are BF fixed points, so
    hybrid success dominates plain sampling success pointwise. The BF
    stage is bf_sweep_batch, which keeps the current sign on a tied vote
    by construction, so it has no tie policy.
    """
    _check_count("bf_max_iters", bf_max_iters, 1)
    target_f = _edge_vector(code, target)
    run, _ = _run_chain(code, params, budget, seed, target_f, initial, store_samples,
                        bf_iters=bf_max_iters)
    return run.decoded_target_hit is not None, run


def average_error_matrix(run: SampleRun, z: np.ndarray) -> np.ndarray:
    """Componentwise mean of sample o z over the run's samples; entries
    in [-1, 1], diagonal exactly +1. z must be a spin matrix of the
    run's size K."""
    if not run.samples:
        raise ValueError("run holds no samples")
    return np.mean(np.stack(run.samples) * validate_spin_matrix(z, run.code.K), axis=0)


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
    escape rates that underflow to 0 (steep penalties) stay finite.
    steps and burn_in must be integers >= 0."""
    _check_count("steps", steps, 0)
    _check_count("burn_in", burn_in, 0)
    rng = as_generator(seed)
    chain = _Chain(code, params, _initial_state(code, rng, initial))
    states = np.empty((min(UNIFORM_BLOCK, steps) + 1, code.n_vars), dtype=np.int8)
    log_hist: dict[bytes, float] = {}
    for start in range(0, steps, UNIFORM_BLOCK):
        # each step's weight entry: log rate = shift + log(total)
        _, _, entries = chain.advance(rng.random(min(UNIFORM_BLOCK, steps - start)).tolist(),
                                      states)
        for t, row, (_, shift, total, _, _) in zip(range(start, steps), states, entries):
            if t < burn_in:
                continue
            key = row.tobytes()  # the pre-flip state
            hold = -(shift + math.log(total))  # log(1 / rate)
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
    J = _couplings_for(code, params)
    states = _spin_rows(np.arange(count), n)
    s = _syndrome_flat(code, states, params.family)
    pen = params.gamma * 0.5 * (1 - s).sum(axis=1)
    corr = np.zeros(count) if J is None else params.beta * (states @ J)
    h = -corr + pen
    with np.errstate(over="ignore"):  # an energy gap past the float range weighs 0
        w = np.exp(-(h - h.min()))
    w /= w.sum()
    return {states[i].tobytes(): float(w[i]) for i in range(count)}
