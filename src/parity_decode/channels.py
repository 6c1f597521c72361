"""Noise channels for physical spin readouts.

Two observation models:

* i.i.d. symmetric flips: each off-diagonal pair of the spin matrix is
  independently negated with probability epsilon;
* AWGN: each physical spin z_i is observed as y_i = amplitude * z_i + n_i
  with n_i ~ Normal(0, sigma^2), one shared draw per symmetric pair.

For the AWGN channel the half log-likelihood ratio of an observation is
theta_i = beta * y_i with channel reliability beta = 2*amplitude/sigma^2,
and the hard decision sign[y_i] errs with probability
1 / (1 + exp(|theta_i|)).

All operations are pure given (inputs, seed), so trials parallelize
safely with per-trial seed streams. trial_seed keys one stream by a
tuple of integers; the benchmark drivers hash all of a unit's trial
keys at once (_key_states, one vectorised pass of numpy's SeedSequence
pool hash) and build each stream from its precomputed PCG64 state
(_streams), which equals default_rng(trial_seed(*key)) draw for draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .code import ParityCode, build_code, matrix_to_vector, validate_spin_matrix, vector_to_matrix


@dataclass(frozen=True)
class AwgnParams:
    """Signal amplitude and noise level of the Gaussian readout channel."""

    amplitude: float
    sigma: float

    def __post_init__(self):
        for name, value in (("amplitude", self.amplitude), ("sigma", self.sigma)):
            if not (value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        # in Python floats: sigma^2 can underflow to 0, 2a/sigma^2 overflow
        a, s2 = float(self.amplitude), float(self.sigma) * float(self.sigma)
        if not (s2 > 0 and math.isfinite(2.0 * a / s2)):
            raise ValueError(f"reliability 2*amplitude/sigma^2 must be finite, got amplitude "
                             f"{self.amplitude}, sigma {self.sigma}")

    @property
    def beta(self) -> float:
        """Channel reliability factor 2*amplitude/sigma^2."""
        return 2.0 * self.amplitude / (self.sigma * self.sigma)


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(master_seed: int, n: int) -> list[np.random.SeedSequence]:
    """n independent child streams of one master seed (one per trial)."""
    return np.random.SeedSequence(master_seed).spawn(n)


def trial_seed(*key: int) -> np.random.SeedSequence:
    """Deterministic stream keyed by a tuple of non-negative integers."""
    return np.random.SeedSequence([int(k) for k in key])


# ---------------------------------------------------------------------------
# Batched trial streams. The constants and steps are SeedSequence's
# (numpy/random/bit_generator.pyx) for the case trial_seed makes: pool
# size 4, no spawn key.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0 .. n - 1: the successive hash
    constants, which depend on no data."""
    c = [init]
    for _ in range(n - 1):
        c.append(c[-1] * mult & _MASK32)
    return np.array(c, dtype=np.uint32)[:, None]


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of x, row j with the constants
    consts[j] (xor) and consts[j + 1] (multiplier); consts is a column."""
    x = (x ^ consts[:-1]) * consts[1:]
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


_OTHERS = [[d for d in range(4) if d != src] for src in range(4)]


def _seed_states(words, counts=None) -> np.ndarray:
    """(T, 4) uint64 rows, row t equal to
    SeedSequence(words[t, :counts[t]]).generate_state(4, np.uint64), from
    a (T, L) uint32 matrix of entropy words zero-padded past each row's
    count (counts None: every row has all L words). Vectorised over rows
    and over the pool's four words, held as the rows of a (4, T) pool;
    the arithmetic stays on arrays, which wrap mod 2**32 silently as the
    C code does (a numpy scalar would warn)."""
    w = np.asarray(words, dtype=np.uint32).T
    L, T = w.shape
    ha = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * max(L - 4, 0))
    # fill the pool (a short row's missing words hash as zeros), then mix
    # every word into every other, then each further word into all four
    pool = np.zeros((4, T), dtype=np.uint32)
    pool[:min(L, 4)] = w[:4]
    pool = _hashmix(pool, ha[:5])
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], ha[4 + 3 * src:8 + 3 * src]))
    for j in range(4, L):
        k = 16 + 4 * (j - 4)
        mixed = _mix(pool, _hashmix(w[j], ha[k:k + 5]))
        pool = mixed if counts is None else np.where(counts > j, mixed, pool)
    out = _hashmix(np.concatenate([pool, pool]), _hash_consts(_INIT_B, _MULT_B, 9))
    # word pairs read as little-endian uint64, as generate_state reads them
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


def _key_states(keys) -> np.ndarray:
    """(T, 4) uint64 PCG64 seed states of T keys, equal-length tuples of
    integers >= 0: row t is what default_rng(trial_seed(*keys[t])) seeds
    PCG64 with. Each part is split into little-endian 32-bit words, 0
    giving one zero word, as SeedSequence splits it; a negative part is
    refused with SeedSequence's message."""
    words, present = [], []
    for col in zip(*keys):
        if min(col) < 0:
            raise ValueError("expected non-negative integer")
        n = max(1, -(-int(max(col)).bit_length() // 32))
        v = (np.array(col, dtype=np.uint32) if n == 1
             else np.array([int(p) for p in col], dtype=object))
        for i in range(n):
            words.append(((v >> 32 * i) & _MASK32).astype(np.uint32))
            present.append(i == 0 or ((v >> 32 * i) > 0).astype(bool))
    words = np.stack(words, axis=1) if words else np.zeros((len(keys), 0), dtype=np.uint32)
    if all(p is True for p in present):
        return _seed_states(words)
    present = np.stack([np.broadcast_to(p, len(words)) for p in present], axis=1)
    # a word absent from its row is 0: a stable sort moves it past the row's words
    order = np.argsort(~present, axis=1, kind="stable")
    return _seed_states(np.take_along_axis(words, order, axis=1), present.sum(axis=1))


@functools.cache
def _state_seed_type():
    """The seed sequence class of _streams, built on first use: importing
    numpy.random at package import would cost every process its memory."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        """Hands PCG64 one precomputed row of _seed_states. PCG64 reads
        the returned array's buffer as its four seed words, so the row
        must be C-contiguous uint64, as every row of _seed_states is."""
        __slots__ = ("state",)

        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds only PCG64's four uint64 state words")
            return self.state

    return StateSeed


def _streams(states: np.ndarray) -> list:
    """One Generator per row of _key_states: the stream
    default_rng(trial_seed(*key)) gives, draw for draw."""
    seed, bits, gen = _state_seed_type(), np.random.PCG64, np.random.Generator
    return [gen(bits(seed(row))) for row in states]


def sample_iid_errors(code: ParityCode, epsilon: float, seed) -> np.ndarray:
    """Random error matrix: each pair independently -1 with probability
    epsilon. Deterministic given the seed."""
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    return vector_to_matrix(code, _iid_error_vector(code, epsilon, [seed])[0])


def _iid_error_vector(code: ParityCode, epsilon: float, seeds) -> np.ndarray:
    """sample_iid_errors' draw for each of one or more seeds, as int8
    edge-vector rows (len(seeds), n_vars), epsilon trusted: each seed's
    stream draws its row of uniforms, and one comparison flips them all."""
    u = np.stack([as_generator(seed).random(code.n_vars) for seed in seeds])
    return np.where(u < epsilon, -1, 1).astype(np.int8)


def awgn_observe(z: np.ndarray, params: AwgnParams, seed) -> np.ndarray:
    """Noisy real-valued readout of a spin matrix (K >= 2), as an edge
    vector of length C(K,2); symmetric pairs share one Gaussian draw."""
    z = validate_spin_matrix(z)
    zf = matrix_to_vector(build_code(len(z)), z).astype(np.float64)
    noise = as_generator(seed).normal(0.0, params.sigma, size=zf.shape)
    return params.amplitude * zf + noise


def _check_readout(y, name: str, n_vars: int | None = None) -> np.ndarray:
    """A readout (observation or channel LLRs) as float64 in its own
    shape, the one check of BP's channel input, llr and hard_decide:
    n_vars entries when given, every one finite. Each refusal starts
    with `name`."""
    y = np.asarray(y, dtype=np.float64)
    if n_vars is not None and y.size != n_vars:
        raise ValueError(f"{name} length {y.size} != n_vars {n_vars}")
    if not np.isfinite(y).all():
        raise ValueError(f"{name} contains non-finite entries")
    return y


def llr(y: np.ndarray, params: AwgnParams) -> np.ndarray:
    """Half log-likelihood ratios theta_i = beta * y_i; refuses a
    non-finite observation."""
    return params.beta * _check_readout(y, "observation")


def hard_decision_error_prob(theta: np.ndarray) -> np.ndarray:
    """Error probability of the hard decision sign[theta]:
    1 / (1 + exp(|theta|)). theta = 0 gives 1/2."""
    t = np.abs(np.asarray(theta, dtype=np.float64))
    return np.exp(-t) / (1.0 + np.exp(-t))


def hard_decide(y: np.ndarray, code: ParityCode | None = None) -> np.ndarray:
    """Componentwise sign of an edge-vector observation, as a spin
    matrix. Zero maps to +1 (fixed policy; a probability-zero event for
    Gaussian noise). The observation must be one-dimensional (a 6 x 6
    matrix is not the 36 pairs of K = 9), finite, C(K,2) long for some
    K, and code.n_vars long when a code is given: a NaN has no sign."""
    if np.ndim(y) != 1:
        raise ValueError(f"observation must be a 1-D edge vector, got shape {np.shape(y)}")
    y = _check_readout(y, "observation", None if code is None else code.n_vars)
    code = code or build_code(_k_from_edge_count(len(y)))
    return vector_to_matrix(code, np.where(y >= 0, 1, -1).astype(np.int8))


def _k_from_edge_count(n: int) -> int:
    """The K >= 2 with C(K,2) == n; refuses any other length (0 too)."""
    K = int(round((1 + math.sqrt(1 + 8 * n)) / 2))
    if K < 2 or K * (K - 1) // 2 != n:
        raise ValueError(f"length {n} is not a pair count C(K,2)")
    return K


# ---------------------------------------------------------------------------
# Crosstalk quantities for weighted majority voting. With a common
# per-spin flip rate gamma0 (valid for 0 < gamma0 < 1/2) the decision
# weight and all check weights coincide, which is what the plain
# majority-vote decoder assumes.

def reliability_weight(gamma0: float) -> float:
    """log((1-gamma0)/gamma0), the weight of the channel hard decision."""
    if not (0.0 < gamma0 < 0.5):
        raise ValueError(f"flip probability must be in (0, 0.5), got {gamma0}")
    return math.log((1.0 - gamma0) / gamma0)


def pair_error_prob(gamma_a: float, gamma_b: float) -> float:
    """Probability that a two-spin parity product is wrong when its
    members flip independently with rates gamma_a, gamma_b."""
    return 0.5 * (1.0 - (1.0 - 2.0 * gamma_a) * (1.0 - 2.0 * gamma_b))


def check_weight(p: float) -> float:
    """log((1-p)/p), the weight of a parity check erring with rate p."""
    if not (0.0 < p < 0.5):
        raise ValueError(f"check error probability must be in (0, 0.5), got {p}")
    return math.log((1.0 - p) / p)
