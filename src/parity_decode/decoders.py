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
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import check_weight, pair_error_prob, reliability_weight
from .code import (
    ParityCode,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
    _edge_vector,
    _family,
    _is_codeword_flat,
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


def _check_strengths(where: str = "", **values) -> None:
    """Refuse any named value, or entry of one, that is not finite and >= 0."""
    for name, value in values.items():
        if not (np.isfinite(value) & np.greater_equal(value, 0)).all():
            raise ValueError(f"{name} must be finite and >= 0{where}, got {value}")


def _check_count(name: str, value, low: int | None = None) -> None:
    """Refuse a size, count or iteration number that is not an integer
    (numpy integers included, bool not) or, with low given, is below
    low: a float one would be truncated, or never met by a loop's
    equality test."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


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
        _check_strengths(w0=self.w0, wk=self.wk, beta=self.beta, gamma=self.gamma)


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
            done = _is_codeword_flat(code, matrix_to_vector(code, cur))
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
    _check_count("max_iters", max_iters, 1)
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
    n = len(_family(code, family)[0])
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
    return np.append(vals, 0.0)[_family(code, family)[1]].sum(axis=1)


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
    """Variable index of every BP message, (3, n_checks3), and the
    message positions of every variable, (K-2, n_vars).

    Row r of the layout holds column 2 - r of checks3_vars (jk, ik, ij),
    so each message family is one contiguous row. Column v of the gather
    lists v's positions in the layout's ravel in increasing order, so
    np.add.reduce(msg.ravel()[gather], axis=0) adds each variable's
    messages in the order np.bincount(layout.ravel(), msg.ravel()) does.
    Triangles are in lexicographic order, so the checks in which a pair
    is jk come before those in which it is ik, and those before the ones
    in which it is ij: that order is the check order of checks3_vars.
    Cached per code, read-only."""
    layout = np.ascontiguousarray(code.checks3_vars[:, ::-1].T)
    order = np.argsort(layout.ravel(), kind="stable")
    gather = np.ascontiguousarray(order.reshape(code.n_vars, code.K - 2).T)
    for a in (layout, gather):
        a.setflags(write=False)  # shared by every call in the process
    return layout, gather


class _BPBuffers(threading.local):
    """BP work arrays of the calling thread, one set per code, made on
    the thread's first decode of that code and kept for the thread's
    life: two (3, n_checks3) float64 message arrays, the second also
    viewed as (K-2, n_vars), a (3, n_checks3) intp index array, the
    (3, n_vars) float64 value table of iteration 2, and writeable copies
    of _bp_layout's arrays (np.take copies a read-only index array on
    every call)."""

    def __init__(self):
        self.by_code = {}

    def get(self, code: ParityCode) -> tuple[np.ndarray, ...]:
        work = self.by_code.get(code)
        if work is None:
            layout, gather = (a.copy() for a in _bp_layout(code))
            t = np.empty(layout.shape)
            work = self.by_code[code] = (np.empty(layout.shape), t, t.reshape(gather.shape),
                                         np.empty(layout.shape, np.intp),
                                         np.empty((3, code.n_vars)), layout, gather)
        return work


_bp_buffers = _BPBuffers()


# Every tanh factor is tanh(m / 2) of a message or channel value m clipped
# to +-MSG_CLIP, so a product of two is at most tanh(MSG_CLIP / 2)**2 in
# magnitude: 0.9999999999996256 at 30, below 1 - 2**-52 and so below 1,
# and twice its artanh, 29.307, is below MSG_CLIP. Check messages thus
# need no clip; raising MSG_CLIP past either bound fails here, at import.
_TANH_PRODUCT_MAX = np.tanh(0.5 * MSG_CLIP) ** 2
assert _TANH_PRODUCT_MAX < 0.9999999999999998 and 2.0 * np.arctanh(_TANH_PRODUCT_MAX) < MSG_CLIP


def _check_messages(prod: np.ndarray) -> np.ndarray:
    """Check-to-variable messages 2 artanh(prod) from the tanh products
    over the other two members, in place; no clip binds (see above)."""
    np.arctanh(prod, out=prod)
    prod *= 2.0
    return prod


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

    When every clipped channel LLR has one magnitude (always so for
    (x, epsilon), never for Gaussian readouts) the first iteration's
    check messages take at most 3 values (indexed by how many of the
    other two members are +1) and the second iteration's variable
    messages at most 3 per variable: both come from value tables,
    computed with the same elementwise operations as the full message
    arrays, so the results are bit-identical to them.

    The message arrays live in work buffers of the calling thread, one
    set per code, reused by every later call (about 1.2 MB per thread at
    K = 40), so concurrent threads never share one and the loop makes
    no message-sized temporary. Each posterior adds every variable's
    messages in check order (an ordered gather-sum, see _bp_layout), as
    np.bincount over the layout would.
    """
    _check_count("max_iters", max_iters, 1)
    if channel_llr is None:
        if x is None or epsilon is None:
            raise ValueError("need either channel_llr or (x, epsilon)")
        channel_llr = reliability_weight(epsilon) * _edge_vector(code, x)
    lam = np.asarray(channel_llr, dtype=np.float64).ravel()
    if len(lam) != code.n_vars:
        raise ValueError(f"channel_llr length {len(lam)} != n_vars {code.n_vars}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("channel_llr contains non-finite entries")
    target_f = None if target is None else _edge_vector(code, target)
    res = _bp_decode(code, lam, max_iters, target_f, record)
    res.final = vector_to_matrix(code, res.final)
    return res


def _bp_decode(code: ParityCode, lam: np.ndarray, max_iters: int,
               target_f: np.ndarray | None, record: bool) -> DecodeResult:
    """bp_decode's loop on trusted inputs: finite float64 channel LLRs
    `lam` (n_vars,), max_iters >= 1 and an int8 edge-vector target or
    None. The result's `final` is the edge-vector decision."""
    lam = np.clip(lam, -MSG_CLIP, MSG_CLIP)
    posteriors = [lam] if record else None
    # Messages live on graph edges arranged as (3, n_checks), see
    # _bp_layout; variable degree is K-2, check degree exactly 3. Every
    # gather runs in mode="clip", as mode="raise" buffers its output.
    msg, t, t_by_var, idx, table, layout, gather = _bp_buffers.get(code)
    c = abs(lam[0])
    tables = bool(np.all(np.abs(lam) == c))
    post, it = lam, 0
    while True:
        h = np.where(post >= 0, 1, -1).astype(np.int8)
        if target_f is not None:
            success = np.array_equal(h, target_f)
        else:
            success = bool(_is_codeword_flat(code, h))
        if success or not code.n_checks3 or it == max_iters:
            break
        it += 1
        if tables and it == 1:
            # the 2 channel values, the <= 3 first check messages, and the
            # per-message index into them: how many of the other two
            # members are +1. From the members' bits b0, b1, b2, in place:
            # row 0 becomes T = b0 + b1 + b2, rows 1 and 2 T - b1 and
            # T - b2, and row 0 then 2T - (T - b1) - (T - b2) = T - b0.
            tc = np.tanh(0.5 * np.array([-c, c]))
            first = _check_messages(np.array([tc[0] * tc[0], tc[1] * tc[0], tc[1] * tc[1]]))
            np.take((h > 0).astype(np.intp), layout, out=idx, mode="clip")
            b0, b1, b2 = idx
            b0 += b1
            b0 += b2
            np.subtract(b0, b1, out=b1)
            np.subtract(b0, b2, out=b2)
            b0 *= 2
            b0 -= b1
            b0 -= b2
            np.take(first, idx, out=msg, mode="clip")
        else:
            # Variable -> check: channel + all incoming except the
            # receiver, clipped, kept as tanh(msg / 2).
            if tables and it == 2:
                # table[w, v]: variable v's message to a check whose
                # first message to v was first[w]
                for w in range(3):
                    np.subtract(post, first[w], out=table[w])
                np.clip(table, -MSG_CLIP, MSG_CLIP, out=table)
                table *= 0.5
                np.tanh(table, out=table)
                idx *= code.n_vars
                idx += layout
                np.take(table, idx, out=t, mode="clip")
            else:
                np.take(post, layout, out=t, mode="clip")  # the channel values in iteration 1
                if it > 1:
                    t -= msg
                    np.clip(t, -MSG_CLIP, MSG_CLIP, out=t)
                t *= 0.5
                np.tanh(t, out=t)
            # Check -> variable: pairwise tanh products exclude the receiver.
            np.multiply(t[1], t[2], out=msg[0])
            np.multiply(t[0], t[2], out=msg[1])
            np.multiply(t[0], t[1], out=msg[2])
            _check_messages(msg)
        np.take(msg, gather, out=t_by_var, mode="clip")
        post = lam + np.add.reduce(t_by_var, axis=0)
        if posteriors is not None:
            posteriors.append(post)
    return DecodeResult(
        final=h, converged=success or not code.n_checks3,
        success=success, iterations=it, posteriors=posteriors,
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

    chunk = 65536
    for weight in range(n + 1):
        it = itertools.combinations(range(n), weight)
        while True:
            combos = list(itertools.islice(it, chunk))
            if not combos:
                break
            flips = np.array(combos, dtype=np.intp)  # (rows, weight): the -1s of each row
            e = np.ones((len(flips), n), dtype=np.int8)
            e[np.arange(len(flips))[:, None], flips] = -1
            hit = np.flatnonzero((_syndrome_flat(code, e, "w4") == target).all(axis=1))
            if len(hit):
                return vector_to_matrix(code, xf * e[hit[0]])
    raise RuntimeError("unreachable: weight-n pattern always matches its own syndrome")
