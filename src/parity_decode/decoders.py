"""Post-readout decoders for parity-encoded spin states.

* Parallel bit-flip (BF): every pair is updated simultaneously by the
  majority vote of {+1} U {adjacent triangle checks}; in matrix form one
  sweep is sign[X(X - I)].
* Inversion functions: the per-spin scores of the BF / weighted-BF /
  gradient-descent-BF / sampling decoders. Flipping spin k changes the
  decoder's energy by exactly twice the score.
* Belief propagation (BP): sum-product message passing on the triangle
  check graph (girth 6), flooding schedule, messages clipped at +-30.
* Minimum-weight decoding (MWD): exact small-scale oracle; finds the
  nearest state whose plaquette syndrome matches the input's.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import check_weight, pair_error_prob, reliability_weight
from .code import (
    ParityCode,
    check_matrix,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
    _edge_vector,
    _syndrome_flat,
)

MSG_CLIP = 30.0  # BP message magnitude cap


class CapacityError(ValueError):
    """Problem size exceeds what an exhaustive routine will attempt."""


class TiePolicy(Enum):
    """What a BF sweep does when a majority vote is exactly zero.

    KEEP: keep the current sign and count the tie.
    FAIL: count the tie and mark the decode as failed (benchmark mode).
    COIN: flip the spin with probability 1/2 (seeded rng required).

    Ties require an even vote set, which happens only for odd K.
    """

    KEEP = "keep"
    FAIL = "fail"
    COIN = "coin"


@dataclass
class DecodeResult:
    """Outcome of an iterative decode.

    converged means a fixed point was reached: one further sweep leaves
    `final` unchanged. success is final == target when a target was
    given, else final being a codeword.
    """

    final: np.ndarray
    converged: bool
    success: bool
    iterations: int
    ties: int = 0
    tie_failure: bool = False
    trajectory: list | None = None
    posteriors: list | None = None


@dataclass(frozen=True)
class InversionWeights:
    """Weights of the inversion-function family.

    w0: weight of the channel hard decision (weighted-BF).
    wk: per-check weights, scalar or a vector over the check family.
    beta: channel reliability / correlation-strength factor.
    gamma: penalty strength (sampling decoder only).
    """

    w0: float = 1.0
    wk: float | np.ndarray = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.w0 < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be nonnegative")
        if np.any(np.asarray(self.wk) < 0):
            raise ValueError("check weights must be nonnegative")


def uniform_weights(epsilon: float) -> InversionWeights:
    """Weights induced by a common flip rate: the hard-decision weight
    log((1-eps)/eps) and one shared check weight log((1-p)/p) with
    p = (1 - (1-2*eps)^2) / 2."""
    w0 = reliability_weight(epsilon)
    wk = check_weight(pair_error_prob(epsilon, epsilon))
    return InversionWeights(w0=w0, wk=wk)


# ---------------------------------------------------------------------------
# Parallel bit-flip decoding

def _bf_sweep(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sign[X(X - I)] of float32 spin matrices (..., K, K), keeping the
    sign where the vote is zero: (new matrices, tie mask). Votes are BLAS
    sums of K terms of +-1, exact while K < 2**24; the diagonal votes
    K - 1 > 0, so it stays +1 and never ties."""
    vote = np.matmul(m, m)
    vote -= m
    tie = vote == 0
    new = np.sign(vote)  # a new array: np.sign in place is ~10x slower on stacks
    np.copyto(new, m, where=tie)
    return new, tie


def _break_ties(code: ParityCode, new: np.ndarray, tie: np.ndarray,
                tie_policy: TiePolicy, rng: np.random.Generator | None) -> np.ndarray:
    """Tied pairs of one sweep of a stack (..., K, K), per matrix; under
    COIN each is negated in `new` with probability 1/2, one coin per tied
    pair drawn in edge order, matrix by matrix."""
    n_ties = np.count_nonzero(tie, axis=(-2, -1)) // 2
    if tie_policy is TiePolicy.COIN and n_ties.any():
        if rng is None:
            raise ValueError("COIN tie policy needs an rng")
        flat_new = new.reshape(-1, code.K, code.K)
        flat_tie = tie.reshape(-1, code.K, code.K)
        for b in np.flatnonzero(n_ties):
            i, j = code.edges[matrix_to_vector(code, flat_tie[b])].T
            coin = rng.integers(0, 2, size=len(i)) * 2 - 1
            flat_new[b, i, j] *= coin
            flat_new[b, j, i] *= coin
    return n_ties


def bf_step(
    code: ParityCode,
    x: np.ndarray,
    tie_policy: TiePolicy = TiePolicy.KEEP,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """One parallel BF sweep: sign[X(X - I)] with the tie policy applied
    where the argument is zero. Returns (new matrix, tie count).

    Per pair {i,j} the sweep realizes the majority vote
    sign(1 + sum_k s_ijk) deciding whether to keep or negate x_ij; all
    C(K,2) pairs update simultaneously. Codewords are fixed points.
    """
    new, tie = _bf_sweep(validate_spin_matrix(x, code.K).astype(np.float32))
    n_ties = _break_ties(code, new, tie, tie_policy, rng)
    return new.astype(np.int8), int(n_ties)


@dataclass
class _BFStack:
    """Per-row outcome of _bf_decode_stack; the fields of DecodeResult."""

    final: np.ndarray
    converged: np.ndarray
    success: np.ndarray
    iterations: np.ndarray
    ties: np.ndarray
    tie_failure: np.ndarray


def _bf_decode_stack(
    code: ParityCode,
    cur: np.ndarray,
    max_iters: int,
    tie_policy: TiePolicy,
    target: np.ndarray | None,
    rng: np.random.Generator | None = None,
    trajectories: list[list] | None = None,
) -> _BFStack:
    """The BF decode loop on a trusted float32 stack (B, K, K), each row
    decoded as bf_decode would decode it alone. `target` is one float32
    (K, K) matrix shared by all rows, or None for "any codeword". Rows
    leave the stack when they reach the target, hit a fixed point, fail
    on a tie (FAIL) or spend max_iters sweeps. COIN coins are drawn row
    by row from the one rng; trajectories, when given, get one list of
    int8 states per row."""
    B = len(cur)
    final = np.empty((B, code.K, code.K), dtype=np.int8)
    converged = np.zeros(B, dtype=bool)
    success = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    ties = np.zeros(B, dtype=np.int64)
    tie_failure = np.zeros(B, dtype=bool)
    if trajectories is not None:
        trajectories.extend([m] for m in cur.astype(np.int8))
    rows = np.arange(B)
    for n in range(max_iters + 1):
        if target is not None:
            done = (cur == target).all(axis=(-2, -1))
        else:
            done = (_syndrome_flat(code, matrix_to_vector(code, cur), "w3") == 1).all(axis=-1)
        stop = done | (n == max_iters)
        if stop.any():
            r = rows[stop]
            final[r] = cur[stop]
            converged[r] = success[r] = done[stop]
            iterations[r] = n
            cur, rows = cur[~stop], rows[~stop]
        if not len(rows):
            break
        nxt, tie = _bf_sweep(cur)
        n_ties = _break_ties(code, nxt, tie, tie_policy, rng)
        ties[rows] += n_ties
        failed = (n_ties > 0) if tie_policy is TiePolicy.FAIL else np.zeros(len(rows), bool)
        fixed = ~failed & (nxt == cur).all(axis=(-2, -1))
        if trajectories is not None:
            for b in np.flatnonzero(~fixed):
                trajectories[rows[b]].append(nxt[b].astype(np.int8))
        r = rows[failed]
        final[r] = nxt[failed]
        tie_failure[r] = True
        iterations[r] = n + 1
        r = rows[fixed]
        final[r] = cur[fixed]
        converged[r] = True
        iterations[r] = n
        going = ~(failed | fixed)
        cur, rows = nxt[going], rows[going]
    return _BFStack(final, converged, success, iterations, ties, tie_failure)


def bf_decode(
    code: ParityCode,
    x: np.ndarray,
    max_iters: int = 5,
    tie_policy: TiePolicy = TiePolicy.KEEP,
    target: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    record_trajectory: bool = False,
) -> DecodeResult:
    """Iterate BF sweeps until the target (or any codeword) is reached,
    a fixed point occurs, or max_iters sweeps are spent.

    x and target are validated once; the sweeps run on a float32 copy,
    as the one-row case of _bf_decode_stack. Deterministic for KEEP/FAIL
    policies: identical inputs give the identical result.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    cur = validate_spin_matrix(x, code.K).astype(np.float32)
    if target is not None:
        target = validate_spin_matrix(target, code.K).astype(np.float32)
    traj = [] if record_trajectory else None
    out = _bf_decode_stack(code, cur[None], max_iters, tie_policy, target, rng, traj)
    return DecodeResult(
        final=out.final[0], converged=bool(out.converged[0]), success=bool(out.success[0]),
        iterations=int(out.iterations[0]), ties=int(out.ties[0]),
        tie_failure=bool(out.tie_failure[0]), trajectory=traj[0] if traj is not None else None,
    )


def bf_sweep_batch(stack: np.ndarray, iters: int) -> np.ndarray:
    """Apply `iters` BF sweeps to a stack of spin matrices (B, K, K),
    keeping current signs on ties. Codewords pass through unchanged."""
    m = stack.astype(np.float32)
    for _ in range(iters):
        m, _ = _bf_sweep(m)
    return m.astype(np.int8)


def count_errors(x: np.ndarray, z: np.ndarray) -> int:
    """Number of off-diagonal unordered pairs where x and z differ."""
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    iu = np.triu_indices(x.shape[0], 1)
    return int(np.count_nonzero(x[iu] != z[iu]))


# ---------------------------------------------------------------------------
# Inversion functions and their energies

_KINDS = ("bf", "wbf", "gdbf", "mcmc")


def _check_weight_vector(code: ParityCode, weights: InversionWeights, family: str) -> np.ndarray:
    n = code.n_checks3 if family == "w3" else code.n_checks4
    wk = np.asarray(weights.wk, dtype=np.float64)
    if wk.ndim == 0:
        return np.full(n, float(wk))
    if len(wk) != n:
        raise ValueError(f"wk length {len(wk)} != {n} checks of family {family!r}")
    return wk


def _coupling_vector(code: ParityCode, J, needed_by: str | None = None) -> np.ndarray | None:
    """Couplings as a float64 edge vector, one per pair. None passes
    through unless `needed_by` names what requires couplings."""
    if J is None:
        if needed_by:
            raise ValueError(f"{needed_by} needs couplings J")
        return None
    J = np.asarray(J, dtype=np.float64).ravel()
    if len(J) != code.n_vars:
        raise ValueError(f"couplings length {len(J)} != n_vars {code.n_vars}")
    return J


def _adjacent_sum(code: ParityCode, s: np.ndarray, family: str, per_check: np.ndarray | None = None):
    """Per-variable sums of (optionally weighted) adjacent check values.
    The adjacency's -1 padding (w4) reads the appended trailing 0, so a
    code without checks (K = 2) sums to zeros."""
    vals = s.astype(np.float64) if per_check is None else s * per_check
    adj = code.checks3_of_var if family == "w3" else code.checks4_of_var
    return np.append(vals, 0.0)[adj].sum(axis=1)


def inversion_profile(
    kind: str,
    code: ParityCode,
    x: np.ndarray,
    J: np.ndarray | None = None,
    weights: InversionWeights | None = None,
    family: str = "w3",
) -> np.ndarray:
    """Scores of all C(K,2) spins at once; see inversion_function."""
    if kind not in _KINDS:
        raise ValueError(f"unknown inversion kind {kind!r}")
    xf = _edge_vector(code, x)
    w = weights or InversionWeights()
    J = _coupling_vector(code, J, None if kind == "bf" else f"{kind} inversion")

    fam = "w3" if kind == "bf" else family
    s = _syndrome_flat(code, xf, fam)
    if kind == "bf":
        return 1.0 + _adjacent_sum(code, s, fam)
    if kind == "wbf":
        wk = _check_weight_vector(code, w, fam)
        return w.beta * np.abs(J) + _adjacent_sum(code, s, fam, wk)
    if kind == "gdbf":
        return J * xf + _adjacent_sum(code, s, fam)
    # sampling decoder
    return w.beta * J * xf + 0.5 * w.gamma * _adjacent_sum(code, s, fam)


def inversion_function(
    kind: str,
    code: ParityCode,
    x: np.ndarray,
    k: int,
    J: np.ndarray | None = None,
    weights: InversionWeights | None = None,
    family: str = "w3",
) -> float:
    """Per-spin flip score of decoder `kind` at variable node k.

    With adjacent check values s_i, current spins x, couplings J and
    weights (w0, wk, beta, gamma):

        bf:    1 + sum_i s_i                  (triangle checks always)
        wbf:   beta*|J_k| + sum_i wk_i s_i
        gdbf:  J_k x_k + sum_i s_i
        mcmc:  beta J_k x_k + (gamma/2) sum_i s_i

    A negative score means flipping spin k lowers the matching decoder
    energy; the energy change equals exactly twice the score.
    """
    if not (0 <= k < code.n_vars):
        raise ValueError(f"variable index k={k} out of range [0, {code.n_vars})")
    return float(inversion_profile(kind, code, x, J, weights, family)[k])


def decoder_energy(
    kind: str,
    code: ParityCode,
    x: np.ndarray,
    J: np.ndarray | None = None,
    weights: InversionWeights | None = None,
    family: str = "w3",
    reference: np.ndarray | None = None,
) -> float:
    """Energy whose single-flip increase is twice the inversion score.

        bf:    - sum_i x_i r_i          - sum_c s_c(x)
        wbf:   - beta sum_i |J_i| x_i r_i - sum_c wk_c s_c(x)
        gdbf:  - sum_i J_i x_i          - sum_c s_c(x)
        mcmc:  - beta sum_i J_i x_i     + gamma sum_c (1 - s_c(x))/2

    For bf/wbf the linear term scores agreement with a reference
    decision r (default all +1); the flip identity
    E(flip_k x) - E(x) = 2 * score_k(x) holds with r set to the pre-flip
    state, which is how the decoders use it. gdbf/mcmc carry the
    couplings directly and need no reference.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown inversion kind {kind!r}")
    xf = _edge_vector(code, x)
    w = weights or InversionWeights()
    fam = "w3" if kind == "bf" else family
    s = _syndrome_flat(code, xf, fam)
    J = _coupling_vector(code, J, None if kind == "bf" else f"{kind} energy")

    if kind in ("bf", "wbf"):
        rf = np.ones(code.n_vars, np.int8) if reference is None else _edge_vector(code, reference)
        if kind == "bf":
            return float(-(xf * rf).sum() - s.sum())
        wk = _check_weight_vector(code, w, fam)
        return float(-w.beta * (np.abs(J) * xf * rf).sum() - (wk * s).sum())
    if kind == "gdbf":
        return float(-(J * xf).sum() - s.sum())
    return float(-w.beta * (J * xf).sum() + w.gamma * 0.5 * (1.0 - s).sum())


def flip_spin(code: ParityCode, x: np.ndarray, k: int) -> np.ndarray:
    """Copy of x with variable node k (one symmetric pair) negated."""
    i, j = code.edges[k]
    out = np.array(x, dtype=np.int8, copy=True)
    out[i, j] *= -1
    out[j, i] *= -1
    return out


# ---------------------------------------------------------------------------
# Belief propagation on the triangle-check graph

@functools.cache
def _bp_layout(code: ParityCode) -> tuple[np.ndarray, np.ndarray]:
    """Variable index of every BP message, (3, n_checks3), and its ravel.

    Row r holds column 2 - r of checks3_vars (jk, ik, ij), so each
    message family is one contiguous row. Triangles are in lexicographic
    order, so the checks in which a pair is jk come before those in which
    it is ik, and those before the ones in which it is ij: the ravel
    lists each variable's messages in check order, and np.bincount adds
    them in the same order as over checks3_vars.ravel(). Cached per code."""
    rows = np.ascontiguousarray(code.checks3_vars[:, ::-1].T)
    flat = rows.ravel()
    for a in (rows, flat):
        a.setflags(write=False)  # shared by every call in the process
    return rows, flat


def _clip(a: np.ndarray, bound: float) -> np.ndarray:
    """Clip a float array to [-bound, bound] in place."""
    np.minimum(a, bound, out=a)
    np.maximum(a, -bound, out=a)
    return a


def _check_messages(prod: np.ndarray) -> np.ndarray:
    """Check-to-variable messages 2 artanh(prod) from the tanh products
    over the other two members, in place: the product is clipped below
    1 in magnitude, the message at +-MSG_CLIP."""
    msg = np.arctanh(_clip(prod, 0.9999999999999998), out=prod)
    msg *= 2.0
    return _clip(msg, MSG_CLIP)


def bp_decode(
    code: ParityCode,
    channel_llr: np.ndarray | None = None,
    x: np.ndarray | None = None,
    epsilon: float | None = None,
    max_iters: int = 5,
    target: np.ndarray | None = None,
    record: bool = False,
) -> DecodeResult:
    """Sum-product decoding with a flooding schedule.

    Channel information is either an explicit edge-vector of half-LLRs
    (`channel_llr`, e.g. beta*y for the Gaussian channel) or a hard
    matrix `x` plus a uniform flip rate `epsilon` in (0, 1/2), giving
    log((1-eps)/eps) * x_ij per pair. One iteration updates all
    check-to-variable then all variable-to-check messages; messages are
    clipped at +-30; the hard decision is the posterior sign with 0
    mapping to +1. Stops early when the hard decision reaches the
    target (or any codeword when no target is given).

    With (x, epsilon) every channel LLR is one of two values, so the
    first iteration's check messages take at most 3 values (indexed by
    how many of the other two members are +1) and the second
    iteration's variable messages at most 3 per variable: both come from
    value tables, computed with the same elementwise operations as the
    full message arrays, so the results are bit-identical to them.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if channel_llr is None:
        if x is None or epsilon is None:
            raise ValueError("need either channel_llr or (x, epsilon)")
        llr = reliability_weight(epsilon)
        xf = _edge_vector(code, x)
        lam = llr * xf.astype(np.float64)
    else:
        lam = np.asarray(channel_llr, dtype=np.float64).ravel()
        if len(lam) != code.n_vars:
            raise ValueError(f"channel_llr length {len(lam)} != n_vars {code.n_vars}")
        if not np.all(np.isfinite(lam)):
            raise ValueError("channel_llr contains non-finite entries")
    target_f = None if target is None else _edge_vector(code, target)

    lam = np.clip(lam, -MSG_CLIP, MSG_CLIP)

    posteriors = [lam.copy()] if record else None

    def hard(post: np.ndarray) -> np.ndarray:
        return np.where(post >= 0, 1, -1).astype(np.int8)

    def reached(h: np.ndarray) -> bool:
        if target_f is not None:
            return np.array_equal(h, target_f)
        return bool(np.all(_syndrome_flat(code, h, "w3") == 1))

    h = hard(lam)
    done = reached(h)
    if code.n_checks3 == 0 or done:
        return DecodeResult(
            final=vector_to_matrix(code, h), converged=True, success=done,
            iterations=0, trajectory=None, posteriors=posteriors,
        )

    # Messages live on graph edges arranged as (3, n_checks), see
    # _bp_layout; variable degree is K-2, check degree exactly 3.
    layout, flat = _bp_layout(code)
    tables = channel_llr is None
    if tables:
        # the 2 channel values, the <= 3 first check messages, and the
        # per-message index into them: how many of the other two members
        # are +1, from their spin sum in {-2, 0, 2}
        t = np.tanh(0.5 * _clip(llr * np.array([-1.0, 1.0]), MSG_CLIP))
        first = _check_messages(np.array([t[0] * t[0], t[1] * t[0], t[1] * t[1]]))
        spins = xf[layout]
        which = (spins[0] + spins[1] + spins[2]) - spins
        which += 2
        which >>= 1
        which = which.astype(np.intp)
    post = lam
    for it in range(1, max_iters + 1):
        if tables and it == 1:
            msg_cv = first[which]
        else:
            # Variable -> check: channel + all incoming except the
            # receiver, clipped, kept as tanh(msg / 2).
            if tables and it == 2:
                table = np.tanh(0.5 * _clip(post[:, None] - first, MSG_CLIP))
                t = table.ravel()[3 * layout + which]
            else:
                t = post[layout]  # the channel values in iteration 1
                if it > 1:
                    t -= msg_cv
                    _clip(t, MSG_CLIP)
                t *= 0.5
                np.tanh(t, out=t)
            # Check -> variable: pairwise tanh products exclude the receiver.
            prod = np.empty_like(t)
            np.multiply(t[1], t[2], out=prod[0])
            np.multiply(t[0], t[2], out=prod[1])
            np.multiply(t[0], t[1], out=prod[2])
            msg_cv = _check_messages(prod)
        post = lam + np.bincount(flat, weights=msg_cv.ravel(), minlength=code.n_vars)

        if posteriors is not None:
            posteriors.append(post.copy())
        h = hard(post)
        if reached(h):
            return DecodeResult(
                final=vector_to_matrix(code, h), converged=True, success=True,
                iterations=it, posteriors=posteriors,
            )
    return DecodeResult(
        final=vector_to_matrix(code, h), converged=False, success=reached(h),
        iterations=max_iters, posteriors=posteriors,
    )


# ---------------------------------------------------------------------------
# Minimum-weight decoding (exhaustive oracle)

MWD_MAX_K = 8


def mwd_bruteforce(code: ParityCode, x: np.ndarray) -> np.ndarray:
    """Nearest plaquette-consistent state: x o e* where e* has the same
    plaquette syndrome as x and the fewest -1 entries; ties break to the
    lexicographically smallest e* (-1 sorting before +1).

    Enumerates error patterns by increasing Hamming weight, which
    realizes the infinite-constraint-strength limit without picking a
    finite multiplier. Exhaustive: refuses K > 8.
    """
    if code.K > MWD_MAX_K:
        raise CapacityError(f"minimum-weight search is exhaustive; K={code.K} exceeds {MWD_MAX_K}")
    xf = _edge_vector(code, x)
    target = _syndrome_flat(code, xf, "w4")
    n = code.n_vars

    # violations[c] = number of -1 members a candidate needs in check c
    # to reproduce the target parity, mod 2.
    want_odd = target == -1  # (n_checks4,)
    member = check_matrix(code, "w4")

    chunk = 65536
    for weight in range(n + 1):
        it = itertools.combinations(range(n), weight)
        while True:
            combos = list(itertools.islice(it, chunk))
            if not combos:
                break
            ind = np.zeros((len(combos), n), dtype=np.int64)
            for r, c in enumerate(combos):
                ind[r, list(c)] = 1
            parity_odd = (ind @ member.T) % 2 == 1
            ok = np.all(parity_odd == want_odd[None, :], axis=1)
            hit = np.flatnonzero(ok)
            if len(hit):
                e = np.where(ind[hit[0]] == 1, -1, 1).astype(np.int8)
                return vector_to_matrix(code, xf * e)
    raise RuntimeError("unreachable: weight-n pattern always matches its own syndrome")
