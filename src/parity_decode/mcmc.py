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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import as_generator
from .code import (
    ParityCode,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
    _syndrome_flat,
)
from .decoders import TiePolicy, bf_sweep_batch

ENERGY_CHECK_INTERVAL = 10_000
ENERGY_DRIFT_TOL = 1e-9


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
    J = params.couplings
    if J is None:
        if params.beta > 0:
            raise ValueError("beta > 0 requires couplings")
        return None
    if len(J) != code.n_vars:
        raise ValueError(f"couplings length {len(J)} != n_vars {code.n_vars}")
    return J


def energy(code: ParityCode, params: HamiltonianParams, x: np.ndarray) -> float:
    """Exact energy of a state under the configured parameters."""
    x = validate_spin_matrix(x, code.K)
    xf = matrix_to_vector(code, x)
    J = _couplings_for(code, params)
    s = _syndrome_flat(code, xf, params.family)
    pen = params.gamma * 0.5 * float((1 - s).sum())
    corr = 0.0 if J is None else params.beta * float((J * xf).sum())
    return -corr + pen


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
        if self.family == "w3":
            self.adj = code.checks3_of_var          # (n_vars, K-2), no padding
            self.check_vars = code.checks3_vars
        else:
            self.adj = code.checks4_of_var          # (n_vars, 4), -1 padded
            self.check_vars = code.checks4_vars
        self.adj_mask = self.adj >= 0
        self.adj_safe = np.where(self.adj_mask, self.adj, 0)
        self.s = _syndrome_flat(code, self.xf, self.family)
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
        adj_sum = np.where(self.adj_mask, self.s[self.adj_safe], 0).sum(axis=1)
        dh = self.gamma * adj_sum.astype(np.float64)
        if self.J is not None and self.beta != 0.0:
            dh += 2.0 * self.beta * self.J * self.xf
        # log-weights of min(1, exp(-dh)); shift by the max so the
        # selection stays exact even when every move is steeply uphill
        # and the raw weights would underflow.
        logw = np.minimum(0.0, -dh)
        shift = logw.max()
        w = np.exp(logw - shift)
        cum = np.cumsum(w)
        u = self.rng.random() * cum[-1]
        k = int(np.searchsorted(cum, u, side="right"))
        if k >= len(w):  # guard against u == total edge case
            k = len(w) - 1
        rate = float(np.exp(shift) * cum[-1])  # true escape rate

        # apply flip k with incremental bookkeeping
        old = int(self.xf[k])
        self.xf[k] = -old
        if self.J is not None:
            self.corr -= 2.0 * self.J[k] * old
        adj_checks = self.adj_safe[k][self.adj_mask[k]]
        flipped = self.s[adj_checks]
        self.n_unsat += int(np.count_nonzero(flipped == 1)) - int(
            np.count_nonzero(flipped == -1)
        )
        self.s[adj_checks] = -flipped
        if self.target_f is not None:
            self.dist_target += 1 if self.xf[k] != self.target_f[k] else -1

        self.steps_done += 1
        if self.steps_done % ENERGY_CHECK_INTERVAL == 0:
            ref = _syndrome_flat(self.code, self.xf, self.family)
            n_unsat = int(np.count_nonzero(ref == -1))
            corr = 0.0 if self.J is None else float((self.J * self.xf).sum())
            drift = abs(n_unsat - self.n_unsat) + abs(corr - self.corr)
            if drift > ENERGY_DRIFT_TOL:
                raise RuntimeError(f"incremental energy drifted by {drift}")
            self.n_unsat, self.corr = n_unsat, corr
        return k, rate


def rejection_free_step(
    code: ParityCode,
    params: HamiltonianParams,
    x: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """One rejection-free update of a spin matrix. Returns the new state
    (exactly one pair flipped) and the total Metropolis weight of the
    pre-flip state (its escape rate; 1/rate is the holding time)."""
    x = validate_spin_matrix(x, code.K)
    chain = _Chain(code, params, matrix_to_vector(code, x), as_generator(rng))
    _, rate = chain.step()
    return vector_to_matrix(code, chain.xf.copy()), rate


def _run_chain(
    code: ParityCode,
    params: HamiltonianParams,
    budget: int,
    seed,
    target: np.ndarray | None,
    initial: np.ndarray | None,
    store_samples: bool,
    stream_to=None,
    schedule=None,
) -> tuple[SampleRun, np.ndarray | None]:
    """Run one chain; returns the run and, when store_samples is set, the
    (budget, n_vars) stack of visited edge vectors (initial state
    excluded)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = as_generator(seed)
    if initial is None:
        xf0 = (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    else:
        xf0 = matrix_to_vector(code, validate_spin_matrix(initial, code.K)).astype(np.int8)
    target_f = (
        None
        if target is None
        else matrix_to_vector(code, validate_spin_matrix(target, code.K)).astype(np.int8)
    )
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
    stack = np.empty((budget, code.n_vars), dtype=np.int8) if store_samples else None
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
                stack[t - 1] = chain.xf
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
    run, stack = _run_chain(code, params, budget, seed, target, initial, store_samples,
                            stream_to=stream_to, schedule=schedule)
    if store_samples:
        run.samples = list(vector_to_matrix(code, stack))
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
    run, flat = _run_chain(code, params, budget, seed, target, initial, store_samples=True)
    states = np.concatenate([matrix_to_vector(code, run.initial)[None, :], flat])
    mats = vector_to_matrix(code, states)
    decoded = bf_sweep_batch(mats, bf_max_iters)
    decoded_f = matrix_to_vector(code, decoded)
    target_f = matrix_to_vector(code, validate_spin_matrix(target, code.K))
    hits = np.flatnonzero(np.all(decoded_f == target_f, axis=1))
    run.decoded_target_hit = int(hits[0]) if len(hits) else None
    cw = np.flatnonzero(np.all(_syndrome_flat(code, decoded_f, "w3") == 1, axis=1))
    run.decoded_any_codeword = int(cw[0]) if len(cw) else None
    if store_samples:
        run.samples = list(mats[1:])
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
    the configured energy."""
    rng = as_generator(seed)
    if initial is None:
        xf0 = (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    else:
        xf0 = matrix_to_vector(code, validate_spin_matrix(initial, code.K)).astype(np.int8)
    chain = _Chain(code, params, xf0, rng)
    hist: dict[bytes, float] = {}
    tiny = np.finfo(np.float64).tiny
    for t in range(steps):
        key = chain.xf.tobytes()
        _, rate = chain.step()
        if t >= burn_in:
            hist[key] = hist.get(key, 0.0) + 1.0 / max(rate, tiny)
    total = sum(hist.values())
    return {k: v / total for k, v in hist.items()}


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
