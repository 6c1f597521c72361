"""Post-readout decoders for parity-encoded spin states.

* Parallel bit-flip (BF): every pair is updated simultaneously by the
  majority vote of {+1} U {adjacent triangle checks}; in matrix form one
  sweep is sign[X(X - I)] with tied signs kept. Sweeps run on
  Z = 2X - I/2, as Z <- clip(Z Z, -2, 2) with the diagonal reset to 3/2
  (exact while 4K + 6 < 2**24); ties are exactly Z Z == Z.
* Inversion functions: the per-spin scores of the BF / weighted-BF /
  gradient-descent-BF / sampling decoders. Flipping spin k changes the
  decoder's energy by exactly twice the score.
* Belief propagation (BP): sum-product message passing on the triangle
  check graph (girth 6), flooding schedule, messages clipped at +-30.
* Minimum-weight decoding (MWD): exact oracle (K <= 24); the nearest
  codeword is the ground state of the logical energy with couplings x,
  found by the same exhaustive search as instance ground states.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import _check_readout, check_weight, pair_error_prob, reliability_weight
from .code import (
    GROUND_STATE_MAX_K,
    CapacityError,
    ParityCode,
    brute_force_ground_state,
    encode,
    error_matrix,
    matrix_to_vector,
    validate_spin_matrix,
    vector_to_matrix,
    _check_count,
    _check_couplings,
    _check_strengths,
    _edge_vector,
    _family,
    _is_codeword_flat,
    _member_positions,
    _padded,
    _syndrome_flat,
)

MSG_CLIP = 30.0  # BP message magnitude cap


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

    w0: weight of the channel hard decision. It is validated and
        stored, but no inversion kind reads it: whether weighted BF
        should scale its channel term by w0 waits for the paper's full
        text.
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

def _to_z(x: np.ndarray) -> np.ndarray:
    """The float32 BF states Z = 2X - I/2 of +-1 spin matrices
    (..., K, K) of any real dtype."""
    return np.multiply(x, 2, dtype=np.float32) - np.eye(x.shape[-1], dtype=np.float32) / 2


def _to_x(z: np.ndarray) -> np.ndarray:
    """The int8 spin matrices of BF states Z (+-2 off the diagonal,
    1.5 on it)."""
    return z.clip(-1.0, 1.0).astype(np.int8)


def _bf_sweep(z: np.ndarray, ties: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """sign[X(X - I)] on BF states Z = 2X - I/2 (see _to_z), keeping the
    sign where the vote is zero: (new states, tie mask or None).

    W = Z Z = 4XX - 2X + I/4. Off the diagonal, with the integer vote
    V = XX - X, W = 4V + 2X: where V is nonzero, |4V| >= 4 > |2X| and
    W has V's sign; where V is zero, W is 2X = Z, the kept sign, so the
    tie mask is exactly W == Z. Clipping W to [-2, 2] gives exactly 2
    times the new spins, and one strided write resets the diagonal
    (4K - 7/4, never 3/2, so it never ties) to 3/2: a sweep is one
    matmul, one clip and that write. BLAS sums K terms of +-4 and +-3,
    and every off-diagonal value is an exact integer while
    4K + 6 < 2**24. bf_sweep_batch passes ties=False and gets None.
    matmul's output is C-contiguous, so the diagonal is a strided view
    of its flat rows."""
    w = np.matmul(z, z)
    tie = w == z if ties else None
    w.clip(-2.0, 2.0, out=w)
    K = w.shape[-1]
    w.reshape(-1, K * K)[:, ::K + 1] = 1.5
    return w, tie


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
    tie_policy is a TiePolicy or its string value.
    """
    tie_policy = TiePolicy(tie_policy)
    new, tie = _bf_sweep(_to_z(validate_spin_matrix(x, code.K)))
    n_ties = _break_ties(code, new, tie, tie_policy, rng)
    return _to_x(new), int(n_ties)


def _bf_decode_stack(
    code: ParityCode,
    cur: np.ndarray,
    max_iters: int,
    tie_policy: TiePolicy,
    target: np.ndarray | None,
    rng: np.random.Generator | None = None,
    record: bool = False,
) -> list[DecodeResult]:
    """The BF decode loop on a trusted +-1 stack (B, K, K) of any real
    dtype: one DecodeResult per row, each as bf_decode would decode that
    row alone. `target` is one +-1 (K, K) matrix shared by all rows, or
    None for "any codeword". The sweeps run on BF states Z = 2X - I/2
    (_to_z). Rows leave the stack when they reach the target, hit a
    fixed point, fail on a tie (FAIL) or spend max_iters sweeps; their
    outcomes wait in per-row arrays, and the results are built once, on
    exit, with `final` an int8 (K, K) view and the flags and counts
    Python bools and ints. COIN coins are drawn row by row from the one
    rng; with record set each result's trajectory is its list of int8
    states."""
    B = len(cur)
    final = np.empty((B, code.K, code.K), dtype=np.float32)
    converged = np.zeros(B, dtype=bool)
    success = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    ties = np.zeros(B, dtype=np.int64)
    tie_failure = np.zeros(B, dtype=bool)
    trajectories = [[m] for m in cur.astype(np.int8)] if record else [None] * B
    cur, target = _to_z(cur), None if target is None else _to_z(target)
    rows = np.arange(B)
    for n in range(max_iters + 1):
        if target is not None:
            done = (cur == target).all(axis=(-2, -1))
        else:
            done = _is_codeword_flat(code, _to_x(matrix_to_vector(code, cur)))
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
        if record:
            for b in np.flatnonzero(~fixed):
                trajectories[rows[b]].append(_to_x(nxt[b]))
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
    return [DecodeResult(*row) for row in zip(
        _to_x(final), converged.tolist(), success.tolist(), iterations.tolist(), ties.tolist(),
        tie_failure.tolist(), trajectories)]


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

    x, target and the tie policy (a TiePolicy or its string value) are
    checked once; the result is the one row of _bf_decode_stack.
    Deterministic for KEEP/FAIL policies: identical inputs give the
    identical result.
    """
    _check_count("max_iters", max_iters, 1)
    tie_policy = TiePolicy(tie_policy)
    cur = validate_spin_matrix(x, code.K)
    if target is not None:
        target = validate_spin_matrix(target, code.K)
    return _bf_decode_stack(code, cur[None], max_iters, tie_policy, target, rng,
                            record_trajectory)[0]


def bf_sweep_batch(stack: np.ndarray, iters: int) -> np.ndarray:
    """Apply `iters` BF sweeps to a stack of spin matrices (B, K, K),
    keeping current signs on ties. Codewords pass through unchanged.
    Refuses a negative or non-integer iters; the stack is not checked."""
    z = _to_z(stack)
    for _ in range(_check_count("iters", iters, 0)):
        z, _ = _bf_sweep(z, ties=False)
    return _to_x(z)


def count_errors(x: np.ndarray, z: np.ndarray) -> int:
    """Number of unordered pairs where the spin matrices x and z differ:
    half the -1 entries of error_matrix(x, z), whose checks it shares
    (both +-1, symmetric, unit diagonal, one shape)."""
    return int(np.count_nonzero(error_matrix(x, z) < 0)) // 2


# ---------------------------------------------------------------------------
# Inversion functions and their energies

_KINDS = ("bf", "wbf", "gdbf", "mcmc")


def _coupling_vector(code: ParityCode, J, needed_by: str | None = None) -> np.ndarray | None:
    """Couplings as a float64 edge vector, checked by _check_couplings
    (one finite value per pair). None passes through unless `needed_by`
    names what requires couplings."""
    if J is None:
        if needed_by:
            raise ValueError(f"{needed_by} needs couplings J")
        return None
    return _check_couplings(code.K, J)[1]


def _inversion_terms(kind: str, code: ParityCode, x: np.ndarray, J, weights, family: str,
                     reference, use: str):
    """The one definition of each inversion kind, as the terms of its
    energy E = -sum_v a_v x_v r_v - sum_c w_c s_c(x) + offset:

        kind   a         w        r          offset
        bf     1         1        reference  0                 (triangle checks always)
        wbf    beta|J|   wk       reference  0
        gdbf   J         1        1          0
        mcmc   beta J    gamma/2  1          gamma n_checks / 2

    Flipping x_k, with r the pre-flip state, raises E by twice the score
    a_k x_k r_k + sum_i w_i s_i over k's checks. Returns the per-variable
    linear terms a x r, the weighted check values w s, the offset and
    the family's adjacency table; `reference` None reads as all +1, and
    `use` names the caller in the couplings refusal."""
    if kind not in _KINDS:
        raise ValueError(f"unknown inversion kind {kind!r}")
    xf = _edge_vector(code, x)
    w = weights or InversionWeights()
    J = _coupling_vector(code, J, None if kind == "bf" else f"{kind} {use}")
    fam = "w3" if kind == "bf" else family
    s = _syndrome_flat(code, xf, fam)
    r = 1 if reference is None or kind in ("gdbf", "mcmc") else _edge_vector(code, reference)
    offset = 0.0
    if kind == "bf":
        a, wc = 1.0, 1.0
    elif kind == "wbf":
        a, wc = w.beta * np.abs(J), np.asarray(w.wk, dtype=np.float64)
        if wc.ndim and len(wc) != len(s):
            raise ValueError(f"wk length {len(wc)} != {len(s)} checks of family {fam!r}")
    elif kind == "gdbf":
        a, wc = J, 1.0
    else:
        a, wc, offset = w.beta * J, 0.5 * w.gamma, 0.5 * w.gamma * len(s)
    return a * xf * r, wc * s, offset, _family(code, fam)[1]


def inversion_profile(
    kind: str,
    code: ParityCode,
    x: np.ndarray,
    J: np.ndarray | None = None,
    weights: InversionWeights | None = None,
    family: str = "w3",
) -> np.ndarray:
    """Scores of all C(K,2) spins at once; see inversion_function."""
    linear, checks, _, adj = _inversion_terms(kind, code, x, J, weights, family, x, "inversion")
    # the adjacency's -1 padding (w4) reads the appended 0, so a code
    # without checks (K = 2) adds zeros
    return linear + _padded(checks, 0.0)[adj].sum(axis=1)


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
    _check_var_index(code, k)
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
    linear, checks, offset, _ = _inversion_terms(kind, code, x, J, weights, family,
                                                 reference, "energy")
    return float(-linear.sum() - checks.sum() + offset)


def _check_var_index(code: ParityCode, k) -> None:
    """Refuse a variable index that is not an integer (bool not) in
    [0, n_vars)."""
    if (not isinstance(k, (int, np.integer)) or isinstance(k, bool)
            or not 0 <= k < code.n_vars):
        raise ValueError(f"variable index k={k} out of range [0, {code.n_vars})")


def flip_spin(code: ParityCode, x: np.ndarray, k: int) -> np.ndarray:
    """Copy of the spin matrix x with variable node k (one symmetric
    pair) negated."""
    _check_var_index(code, k)
    out = validate_spin_matrix(x, code.K)  # a fresh int8 copy
    i, j = code.edges[k]
    out[i, j] *= -1
    out[j, i] *= -1
    return out


# ---------------------------------------------------------------------------
# Belief propagation on the triangle-check graph

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
    Built once per thread and code, by _BPBuffers."""
    layout = np.ascontiguousarray(code.checks3_vars[:, ::-1].T)
    gather = np.ascontiguousarray(_member_positions(layout, code.n_vars, code.K - 2).T)
    return layout, gather


class _BPBuffers(threading.local):
    """BP work arrays of the calling thread, one set per code, made on
    the thread's first decode of that code and kept for the thread's
    life: two (3, n_checks3) float64 message arrays, the second also
    viewed as (K-2, n_vars), a (3, n_checks3) intp index array, the
    (3, n_vars) float64 value table of iteration 2, and the thread's own
    _bp_layout arrays, kept writeable as ndarray.take copies a read-only
    index array on every call."""

    def __init__(self):
        self.by_code = {}

    def get(self, code: ParityCode) -> tuple[np.ndarray, ...]:
        work = self.by_code.get(code)
        if work is None:
            layout, gather = _bp_layout(code)
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
    log((1-eps)/eps) * x_ij per pair, never both. One iteration updates
    all check-to-variable then all variable-to-check messages; messages
    are clipped at +-30; the hard decision is the posterior sign with 0
    mapping to +1. Stops early when the hard decision reaches the
    target (or any codeword when no target is given). Each iteration
    decides on the boolean posterior >= 0, and success against a
    target is a comparison of its bytes with the target's, whose bytes
    are computed once per call; the int8 decision is built once, at
    return, or for the codeword test when no target is given.

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

    Across hosts: the decision, success flag and iteration count agree
    on every host the tests and pinned reports ran on (only a posterior
    within a few ULPs of 0 could move them). The posteriors (record) are
    bit-for-bit only per numpy build and SIMD target, since numpy's tanh
    and arctanh kernels differ between dispatch targets.
    """
    _check_count("max_iters", max_iters, 1)
    if channel_llr is None:
        if x is None or epsilon is None:
            raise ValueError("need either channel_llr or (x, epsilon)")
        channel_llr = reliability_weight(epsilon) * _edge_vector(code, x)
    elif x is not None or epsilon is not None:
        raise ValueError("give either channel_llr or (x, epsilon), not both")
    lam = _check_readout(channel_llr, "channel_llr", code.n_vars).ravel()
    target_f = None if target is None else _edge_vector(code, target)
    res = _bp_decode(code, lam, max_iters, target_f, record)
    res.final = vector_to_matrix(code, res.final)
    return res


def _bp_decode(code: ParityCode, lam: np.ndarray, max_iters: int,
               target_f: np.ndarray | None, record: bool) -> DecodeResult:
    """bp_decode's loop on trusted inputs: finite float64 channel LLRs
    `lam` (n_vars,), max_iters >= 1 and an int8 edge-vector target or
    None. The result's `final` is the edge-vector decision."""
    lam = lam.clip(-MSG_CLIP, MSG_CLIP)
    posteriors = [lam] if record else None
    # Messages live on graph edges arranged as (3, n_checks), see
    # _bp_layout; variable degree is K-2, check degree exactly 3. Every
    # gather runs in mode="clip", as mode="raise" buffers its output.
    msg, t, t_by_var, idx, table, layout, gather = _bp_buffers.get(code)
    c = abs(lam[0])
    tables = bool((abs(lam) == c).all())
    want = None if target_f is None else (target_f > 0).tobytes()
    post, it = lam, 0
    while True:
        plus = post >= 0  # the decision, 0 deciding +1
        if want is not None:
            success = plus.tobytes() == want
        else:
            success = bool(_is_codeword_flat(code, np.where(plus, 1, -1).astype(np.int8)))
        if success or not code.n_checks3 or it == max_iters:
            break
        it += 1
        if tables and it == 1:
            # the 2 channel values, the <= 3 first check messages, and the
            # per-message index into them: how many of the other two
            # members are +1, T - b_r from the members' bits b_r and their
            # sum T
            tc = np.tanh(0.5 * np.array([-c, c]))
            first = 2.0 * np.arctanh(np.array([tc[0] * tc[0], tc[1] * tc[0], tc[1] * tc[1]]))
            plus.astype(np.intp).take(layout, out=idx, mode="clip")
            np.subtract(np.add.reduce(idx, axis=0), idx, out=idx)
            first.take(idx, out=msg, mode="clip")
        else:
            # Variable -> check: channel + all incoming except the
            # receiver, clipped, kept as tanh(msg / 2).
            if tables and it == 2:
                # table[w, v]: variable v's message to a check whose
                # first message to v was first[w]
                np.subtract(post, first[:, None], out=table)
                table.clip(-MSG_CLIP, MSG_CLIP, out=table)
                table *= 0.5
                np.tanh(table, out=table)
                idx *= code.n_vars
                idx += layout
                table.take(idx, out=t, mode="clip")
            else:
                post.take(layout, out=t, mode="clip")  # the channel values in iteration 1
                if it > 1:
                    t -= msg
                    t.clip(-MSG_CLIP, MSG_CLIP, out=t)
                t *= 0.5
                np.tanh(t, out=t)
            # Check -> variable: 2 artanh of the pairwise tanh products
            # that exclude the receiver; no clip binds (see above).
            np.multiply(t[1], t[2], out=msg[0])
            np.multiply(t[0], t[2], out=msg[1])
            np.multiply(t[0], t[1], out=msg[2])
            np.arctanh(msg, out=msg)
            msg *= 2.0
        msg.take(gather, out=t_by_var, mode="clip")
        post = lam + np.add.reduce(t_by_var, axis=0)
        if posteriors is not None:
            posteriors.append(post)
    return DecodeResult(
        final=np.where(plus, 1, -1).astype(np.int8), converged=success or not code.n_checks3,
        success=success, iterations=it, posteriors=posteriors,
    )


# ---------------------------------------------------------------------------
# Minimum-weight decoding (exhaustive oracle)

def mwd_bruteforce(code: ParityCode, x: np.ndarray) -> np.ndarray:
    """Nearest codeword to x: x o e* where e* has the same plaquette
    syndrome as x and the fewest -1 entries; ties break to the
    lexicographically smallest e* (-1 sorting before +1).

    A pattern e has x's plaquette syndrome exactly when x o e is a
    codeword zz^T (z_0 = +1), and its -1 count is
    (n_vars - sum_{i<j} x_ij z_i z_j) / 2, so z is a ground state of the
    logical energy with couplings x: one brute_force_ground_state call
    finds it. The search breaks ties to the first minimum in number
    order (spin K-1 most significant, -1 first). The first K-1 entries
    e_0j = x_0j z_j fix z, so e_01 decides MWD's order first. The search
    therefore runs on y, x with spin j renamed sigma(j) (sigma(0) = 0,
    sigma(j) = K - j), gauged by its first row h = y[0]: search spin p
    is then h_p z_sigma(p) = e_0,sigma(p), and the two tie rules agree.
    Every energy is a sum of +-1 terms, exact in float64, so the output
    does not depend on the BLAS kernel. This realizes the
    infinite-constraint-strength limit without picking a finite
    multiplier. Exhaustive: refuses K > 24 (CapacityError) before x is
    validated.
    """
    if code.K > GROUND_STATE_MAX_K:
        raise CapacityError(f"K={code.K} exceeds exhaustive MWD bound {GROUND_STATE_MAX_K}")
    sigma = np.r_[0, code.K - 1:0:-1]
    y = validate_spin_matrix(x, code.K)[np.ix_(sigma, sigma)]
    J = matrix_to_vector(code, y * np.outer(y[0], y[0]))
    return encode(code, (y[0] * brute_force_ground_state(code.K, J)[0])[sigma])
