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
safely with per-trial seed streams.
"""

from __future__ import annotations

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
    Gaussian noise). The observation must be finite, C(K,2) long for
    some K, and code.n_vars long when a code is given: a NaN has no
    sign."""
    y = _check_readout(y, "observation", None if code is None else code.n_vars).ravel()
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
