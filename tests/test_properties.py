"""Property tests of the edge-vector converters, the syndrome kernel, the
BF sweep (the stacked kernel with its tie mask, `bf_step`, `bf_decode`,
the stacked BF loop) against an int64
reference, BP against a frozen copy of its plain message-passing loop
(and its gather-sum against np.bincount),
the hybrid decoder's block-by-block BF stage, the single-chain step against
a frozen copy of its plain loop, and the algebraic identities (syndrome
multiplicativity, dH = 2 score, gauge invariance, codewords as fixed
points), over small K and both check
families (K = 2 has no triangle and no plaquette checks, K = 3 one
triangle; odd K gives BF vote ties)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parity_decode import (
    AwgnParams,
    HamiltonianParams,
    InversionWeights,
    TiePolicy,
    awgn_observe,
    bf_decode,
    bf_step,
    bp_decode,
    build_code,
    decoder_energy,
    encode,
    flip_spin,
    gen_instance,
    hybrid_decode,
    inversion_function,
    is_codeword,
    llr as awgn_llr,
    matrix_to_vector,
    syndrome,
    vector_to_matrix,
)
from parity_decode import mcmc
from parity_decode.code import _is_codeword_flat, _syndrome_flat
from parity_decode.decoders import (
    _bf_decode_stack, _bf_sweep, _bp_layout, _to_x, _to_z, bf_sweep_batch,
)

SETTINGS = settings(max_examples=60, deadline=None)
FAMILIES = st.sampled_from(["w3", "w4"])


def _edge_vectors(code, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, size=batch + (code.n_vars,)) * 2 - 1).astype(np.int8)


def _loop_matrix(code, v):
    m = np.ones((code.K, code.K), dtype=v.dtype)
    for k, (i, j) in enumerate(code.edges):
        m[i, j] = m[j, i] = v[k]
    return m


@SETTINGS
@given(K=st.integers(2, 10), batch=st.lists(st.integers(0, 3), max_size=2),
       dtype=st.sampled_from([np.int8, np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
@example(K=2, batch=[3], dtype=np.int8, seed=0)
@example(K=3, batch=[2, 3], dtype=np.float32, seed=1)
@example(K=4, batch=[0, 2], dtype=np.float64, seed=2)
def test_batched_converters_match_rows_and_round_trip(K, batch, dtype, seed):
    code = build_code(K)
    vs = _edge_vectors(code, tuple(batch), seed).astype(dtype)
    mats = vector_to_matrix(code, vs)
    assert mats.shape == vs.shape[:-1] + (K, K) and mats.dtype == dtype
    assert mats.flags.c_contiguous
    for idx in np.ndindex(*vs.shape[:-1]):
        row = vector_to_matrix(code, vs[idx])
        ref = _loop_matrix(code, vs[idx])
        assert row.dtype == ref.dtype and row.flags.c_contiguous
        assert np.array_equal(mats[idx], row)
        assert np.array_equal(mats[idx], ref)
        assert np.array_equal(matrix_to_vector(code, mats[idx]), vs[idx])
    assert np.array_equal(matrix_to_vector(code, mats), vs)
    assert np.array_equal(vector_to_matrix(code, matrix_to_vector(code, mats)), mats)


@SETTINGS
@given(K=st.integers(2, 10), family=FAMILIES, batch=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(K=2, family="w3", batch=3, seed=0)
@example(K=2, family="w4", batch=3, seed=0)
@example(K=3, family="w3", batch=3, seed=1)
@example(K=3, family="w4", batch=3, seed=1)
def test_batched_syndrome_matches_rows_and_int64(K, family, batch, seed):
    code = build_code(K)
    vs = _edge_vectors(code, (batch,), seed)
    n_checks = code.n_checks3 if family == "w3" else code.n_checks4
    s = _syndrome_flat(code, vs, family)
    assert s.shape == (batch, n_checks) and s.dtype == np.int8
    assert np.array_equal(s, _syndrome_flat(code, vs.astype(np.int64), family))
    idx = code.checks3_vars if family == "w3" else code.checks4_vars
    for b in range(batch):
        row = _syndrome_flat(code, vs[b], family)
        assert np.array_equal(s[b], row)
        ref = [np.prod([int(vs[b, v]) for v in check if v >= 0]) for check in idx]
        assert np.array_equal(row, np.array(ref, dtype=np.int64).reshape(n_checks))


@SETTINGS
@given(K=st.integers(2, 40), batch=st.lists(st.integers(0, 3), max_size=2),
       kind=st.sampled_from(["random", "codeword", "sparse"]),
       dtype=st.sampled_from([np.int8, np.float32]), seed=st.integers(0, 2**32 - 1))
@example(K=2, batch=[3], kind="random", dtype=np.int8, seed=0)
@example(K=3, batch=[2, 3], kind="sparse", dtype=np.int8, seed=1)
@example(K=40, batch=[3], kind="sparse", dtype=np.float32, seed=2)
def test_codeword_test_matches_triangle_syndrome(K, batch, kind, dtype, seed):
    """The edge-vector codeword test (x_ij = x_0i x_0j for 1 <= i < j)
    equals "every triangle check is +1" for random states, codewords and
    codewords with a few flips, in any batch shape and both stack dtypes."""
    code = build_code(K)
    shape = tuple(batch)
    rng = np.random.default_rng(seed)
    if kind == "random":
        xs = _edge_vectors(code, shape, seed)
    else:
        z = np.where(rng.random(shape + (K,)) < 0.5, 1, -1).astype(np.int8)
        xs = z[..., code.edges[:, 0]] * z[..., code.edges[:, 1]]
        if kind == "sparse":
            xs = np.where(rng.random(xs.shape) < 1.5 / code.n_vars, -xs, xs)
    xs = xs.astype(dtype)
    got = _is_codeword_flat(code, xs)
    assert got.shape == shape and got.dtype == np.bool_
    assert np.array_equal(got, (_syndrome_flat(code, xs, "w3") == 1).all(axis=-1))


@SETTINGS
@given(K=st.integers(2, 7), family=FAMILIES, budget=st.integers(1, 30),
       iters=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 4, 1024]))
@example(K=2, family="w3", budget=5, iters=1, seed=0, block=1024)
@example(K=2, family="w4", budget=5, iters=1, seed=0, block=2)
@example(K=3, family="w4", budget=10, iters=2, seed=1, block=4)
def test_hybrid_stage_matches_per_state_sweeps(K, family, budget, iters, seed, block):
    """The BF stage, run inside the chain every `block` steps, against one
    sweep of the whole stack; first-hit indices stay exact across blocks,
    with and without stored samples."""
    code = build_code(K)
    rng = np.random.default_rng(seed)
    params = HamiltonianParams(beta=1.0, gamma=0.5, family=family,
                               couplings=rng.uniform(-1, 1, code.n_vars))
    target = encode(code, np.where(rng.random(K) < 0.5, 1, -1))

    with mock.patch.object(mcmc, "UNIFORM_BLOCK", block):
        ok_off, run_off = hybrid_decode(code, params, budget, target, seed,
                                        bf_max_iters=iters, store_samples=False)
        ok, run = hybrid_decode(code, params, budget, target, seed, bf_max_iters=iters)
    assert run_off.samples == [] and run_off.decoded is None
    assert len(run.samples) == budget and len(run.decoded) == budget + 1
    expected = bf_sweep_batch(np.stack([run.initial] + run.samples), iters)
    for t in range(budget + 1):
        assert np.array_equal(run.decoded[t], expected[t])
    target_hits = [t for t, d in enumerate(expected) if np.array_equal(d, target)]
    codeword_hits = [t for t, d in enumerate(expected) if is_codeword(code, d)]
    assert run.decoded_target_hit == (target_hits[0] if target_hits else None)
    assert run.decoded_any_codeword == (codeword_hits[0] if codeword_hits else None)
    assert ok == ok_off == (run.decoded_target_hit is not None)
    assert (run_off.decoded_target_hit, run_off.decoded_any_codeword) == (
        run.decoded_target_hit, run.decoded_any_codeword)
    if K == 2:
        assert run.decoded_any_codeword == 0


def _noisy_state(code, seed, eps):
    """A gauge-transformed codeword with i.i.d. flips at rate eps, and
    that codeword."""
    rng = np.random.default_rng(seed)
    z = encode(code, np.where(rng.random(code.K) < 0.5, 1, -1))
    e = np.where(rng.random(code.n_vars) < eps, -1, 1).astype(np.int8)
    return (z * vector_to_matrix(code, e)).astype(np.int8), z


def _ref_step(code, x, tie_policy, rng):
    """One BF sweep from exact int64 votes on the edge vector: sign of
    x_ij (x_ij + sum_k x_ik x_kj), the current sign kept on a zero vote,
    or under COIN multiplied by one coin per tied pair in edge order."""
    m = x.astype(np.int64)
    i, j = code.edges.T
    vote, cur = (m @ m - m)[i, j], m[i, j]
    tied = vote == 0
    new = np.where(tied, cur, np.sign(vote))
    n_ties = int(tied.sum())
    if n_ties and tie_policy is TiePolicy.COIN:
        new[tied] = cur[tied] * (rng.integers(0, 2, size=n_ties) * 2 - 1)
    return vector_to_matrix(code, new.astype(np.int8)), n_ties


def _ref_decode(code, x, max_iters, tie_policy, target, rng):
    """bf_decode's contract as a plain loop over _ref_step: (final,
    converged, success, iterations, ties, tie_failure, trajectory)."""
    traj, ties, cur = [x], 0, x
    for n in range(max_iters + 1):
        if target is not None:
            done = np.array_equal(cur, target)
        else:
            done = bool(np.all(syndrome(code, cur, "w3") == 1))
        if done:
            return cur, True, True, n, ties, False, traj
        if n == max_iters:
            return cur, False, False, n, ties, False, traj
        nxt, n_ties = _ref_step(code, cur, tie_policy, rng)
        ties += n_ties
        if n_ties and tie_policy is TiePolicy.FAIL:
            return nxt, False, False, n + 1, ties, True, traj + [nxt]
        if np.array_equal(nxt, cur):
            return cur, True, False, n, ties, False, traj
        traj.append(nxt)
        cur = nxt


POLICIES = st.sampled_from(list(TiePolicy))
NOISE = st.sampled_from([0.0, 0.1, 0.3, 0.5])


@SETTINGS
@given(K=st.integers(2, 40), batch=st.integers(1, 8), eps=NOISE, seed=st.integers(0, 2**32 - 1))
@example(K=3, batch=8, eps=0.5, seed=0)
@example(K=40, batch=4, eps=0.3, seed=1)
@example(K=39, batch=8, eps=0.5, seed=2)
def test_bf_sweep_stack_matches_int64_reference(K, batch, eps, seed):
    """The kernel itself on a (B, K, K) stack of BF states Z = 2X - I/2:
    2 times the sign of the int64 vote X@X - X, X kept where it is 0,
    with 3/2 on the diagonal, equal bit for bit (a -0.0 fails the int32
    view), and its tie mask is exactly vote == 0; without the mask
    (ties=False) the states are the same bytes. _to_x reads the spins
    back as int8."""
    code = build_code(K)
    x = np.stack([_noisy_state(code, seed + b, eps)[0] for b in range(batch)])
    m = x.astype(np.int64)
    vote = m @ m - m
    ref = np.where(vote == 0, m, np.sign(vote))
    ref_z = (2 * ref - 0.5 * np.eye(K)).astype(np.float32)
    z = _to_z(x)
    assert z.dtype == np.float32 and np.array_equal(z, 2 * m - 0.5 * np.eye(K))
    new, tie = _bf_sweep(z)
    assert new.dtype == np.float32
    assert np.array_equal(new.view(np.int32), ref_z.view(np.int32))
    assert np.array_equal(tie, vote == 0)
    bare, no_tie = _bf_sweep(z, ties=False)
    assert no_tie is None and bare.tobytes() == new.tobytes()
    assert _to_x(new).dtype == np.int8 and np.array_equal(_to_x(new), ref)


@SETTINGS
@given(K=st.integers(2, 12), policy=POLICIES, eps=NOISE, seed=st.integers(0, 2**32 - 1))
@example(K=3, policy=TiePolicy.COIN, eps=0.5, seed=0)
@example(K=5, policy=TiePolicy.KEEP, eps=0.3, seed=1)
def test_bf_step_matches_int64_reference(K, policy, eps, seed):
    code = build_code(K)
    x, _ = _noisy_state(code, seed, eps)
    out, n_ties = bf_step(code, x, policy, np.random.default_rng(seed))
    ref, ref_ties = _ref_step(code, x, policy, np.random.default_rng(seed))
    assert out.dtype == np.int8
    assert np.array_equal(out, ref)
    assert n_ties == ref_ties
    if K % 2 == 0:
        assert n_ties == 0  # an odd vote set never ties


@SETTINGS
@given(K=st.integers(2, 12), policy=POLICIES, eps=NOISE, seed=st.integers(0, 2**32 - 1),
       max_iters=st.integers(1, 6), with_target=st.booleans(), record=st.booleans())
@example(K=3, policy=TiePolicy.COIN, eps=0.5, seed=0, max_iters=4, with_target=True,
         record=True)
@example(K=3, policy=TiePolicy.FAIL, eps=0.5, seed=0, max_iters=4, with_target=False,
         record=True)
def test_bf_decode_matches_reference_loop(K, policy, eps, seed, max_iters, with_target, record):
    code = build_code(K)
    x, z = _noisy_state(code, seed, eps)
    target = z if with_target else None
    res = bf_decode(code, x, max_iters=max_iters, tie_policy=policy, target=target,
                    rng=np.random.default_rng(seed), record_trajectory=record)
    final, converged, success, iterations, ties, tie_failure, traj = _ref_decode(
        code, x, max_iters, policy, target, np.random.default_rng(seed))
    assert res.final.dtype == np.int8
    assert np.array_equal(res.final, final)
    assert (res.converged, res.success, res.iterations, res.ties, res.tie_failure) == (
        converged, success, iterations, ties, tie_failure)
    if record:
        assert len(res.trajectory) == len(traj)
        for got, want in zip(res.trajectory, traj):
            assert got.dtype == np.int8 and np.array_equal(got, want)
    else:
        assert res.trajectory is None


@SETTINGS
@given(K=st.integers(2, 12), policy=st.sampled_from([TiePolicy.KEEP, TiePolicy.FAIL]),
       eps=NOISE, seed=st.integers(0, 2**32 - 1), max_iters=st.integers(1, 6),
       with_target=st.booleans(), batch=st.integers(0, 6))
@example(K=5, policy=TiePolicy.FAIL, eps=0.3, seed=0, max_iters=5, with_target=True, batch=6)
@example(K=7, policy=TiePolicy.KEEP, eps=0.5, seed=1, max_iters=3, with_target=False, batch=6)
def test_bf_decode_stack_rows_match_bf_decode(K, policy, eps, seed, max_iters, with_target,
                                              batch):
    """Every row of one stacked decode, trajectory included, equals
    bf_decode on that row alone; rows share the target."""
    code = build_code(K)
    _, z = _noisy_state(code, seed, 0.0)
    rng = np.random.default_rng(seed)
    flips = np.where(rng.random((batch, code.n_vars)) < eps, -1, 1).astype(np.int8)
    xs = (z * vector_to_matrix(code, flips)).astype(np.int8)
    target = z if with_target else None
    out = _bf_decode_stack(code, xs.astype(np.float32), max_iters, policy,
                           None if target is None else target.astype(np.float32),
                           record=True)
    assert all(r.final.shape == (K, K) and r.final.dtype == np.int8 for r in out)
    assert len(out) == batch
    for b in range(batch):
        res = bf_decode(code, xs[b], max_iters=max_iters, tie_policy=policy, target=target,
                        record_trajectory=True)
        assert np.array_equal(out[b].final, res.final)
        assert (out[b].converged, out[b].success, out[b].iterations, out[b].ties,
                out[b].tie_failure) == (res.converged, res.success, res.iterations, res.ties,
                                        res.tie_failure)
        assert len(out[b].trajectory) == len(res.trajectory)
        for got, want in zip(out[b].trajectory, res.trajectory):
            assert got.dtype == np.int8 and np.array_equal(got, want)


MSG_CLIP = 30.0


def _ref_bp(code, lam, max_iters, target_f):
    """bp_decode's sum-product loop as it was before its value tables and
    its (3, n_checks) message layout, kept as the bit-identity reference:
    messages (n_checks, 3) in checks3_vars order, every iteration over all
    messages. lam is the clipped channel edge vector. Returns (final,
    converged, success, iterations, posteriors)."""
    cnv = code.checks3_vars
    posteriors = [lam.copy()]

    def hard(post):
        return np.where(post >= 0, 1, -1).astype(np.int8)

    def reached(h):
        if target_f is not None:
            return np.array_equal(h, target_f)
        return bool(np.all(_syndrome_flat(code, h, "w3") == 1))

    h = hard(lam)
    done = reached(h)
    if code.n_checks3 == 0 or done:
        return vector_to_matrix(code, h), True, done, 0, posteriors
    msg_vc = lam[cnv]
    flat_vn = cnv.ravel()
    for it in range(1, max_iters + 1):
        t = np.tanh(0.5 * msg_vc)
        prod = np.empty_like(t)
        prod[:, 0] = t[:, 1] * t[:, 2]
        prod[:, 1] = t[:, 0] * t[:, 2]
        prod[:, 2] = t[:, 0] * t[:, 1]
        np.clip(prod, -0.9999999999999998, 0.9999999999999998, out=prod)
        msg_cv = 2.0 * np.arctanh(prod)
        np.clip(msg_cv, -MSG_CLIP, MSG_CLIP, out=msg_cv)
        sums = np.bincount(flat_vn, weights=msg_cv.ravel(), minlength=code.n_vars)
        post = lam + sums
        msg_vc = post[cnv] - msg_cv
        np.clip(msg_vc, -MSG_CLIP, MSG_CLIP, out=msg_vc)
        posteriors.append(post.copy())
        h = hard(post)
        if reached(h):
            return vector_to_matrix(code, h), True, True, it, posteriors
    return vector_to_matrix(code, h), False, reached(h), max_iters, posteriors


def _same_bp(res, ref):
    final, converged, success, iterations, posteriors = ref
    assert res.final.dtype == np.int8 and np.array_equal(res.final, final)
    assert (res.converged, res.success, res.iterations) == (converged, success, iterations)
    assert len(res.posteriors) == len(posteriors)
    for got, want in zip(res.posteriors, posteriors):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


BP_EPSILON = st.one_of(st.just(1e-12), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True,
                                                 allow_subnormal=False))


@SETTINGS
@given(K=st.integers(2, 12), noise=NOISE, epsilon=BP_EPSILON, seed=st.integers(0, 2**32 - 1),
       max_iters=st.integers(1, 5), with_target=st.booleans())
@example(K=21, noise=0.3, epsilon=0.3, seed=0, max_iters=5, with_target=True)
@example(K=21, noise=0.3, epsilon=0.2, seed=1, max_iters=5, with_target=False)
@example(K=40, noise=0.3, epsilon=0.3, seed=2, max_iters=5, with_target=True)
@example(K=40, noise=0.2, epsilon=0.1, seed=3, max_iters=5, with_target=True)
@example(K=40, noise=0.3, epsilon=1e-12, seed=4, max_iters=3, with_target=False)
def test_bp_decode_matches_reference_loop(K, noise, epsilon, seed, max_iters, with_target):
    """bp_decode from (x, epsilon) and from the explicit channel LLRs L*x
    (value tables in iterations 1-2 for both), from Gaussian LLRs (plain
    loop) and from +-c LLRs clipped to one magnitude all equal the frozen
    loop bit for bit: decision, flags, iteration count, every posterior."""
    code = build_code(K)
    x, z = _noisy_state(code, seed, noise)
    target = z if with_target else None
    llr = math.log((1.0 - epsilon) / epsilon) * matrix_to_vector(code, x).astype(np.float64)
    ref = _ref_bp(code, np.clip(llr, -MSG_CLIP, MSG_CLIP), max_iters,
                  None if target is None else matrix_to_vector(code, target))
    _same_bp(bp_decode(code, x=x, epsilon=epsilon, max_iters=max_iters, target=target,
                       record=True), ref)
    _same_bp(bp_decode(code, channel_llr=llr, max_iters=max_iters, target=target,
                       record=True), ref)
    # Gaussian LLRs of varying magnitude take the plain loop in every
    # iteration; +-c with c above MSG_CLIP clips to one magnitude and
    # takes the tables
    params = AwgnParams(amplitude=1.0, sigma=0.5 + noise)
    theta = awgn_llr(awgn_observe(x, params, seed), params)
    assert K < 3 or np.unique(np.abs(np.clip(theta, -MSG_CLIP, MSG_CLIP))).size > 1
    c = MSG_CLIP * (1.0 + epsilon)
    for lam in (theta, c * matrix_to_vector(code, x)):
        ref = _ref_bp(code, np.clip(lam, -MSG_CLIP, MSG_CLIP), max_iters,
                      None if target is None else matrix_to_vector(code, target))
        _same_bp(bp_decode(code, channel_llr=lam, max_iters=max_iters, target=target,
                           record=True), ref)


@SETTINGS
@given(K=st.integers(3, 12), noise=NOISE, seed=st.integers(0, 2**32 - 1),
       max_iters=st.integers(1, 8), with_target=st.booleans())
@example(K=21, noise=0.3, seed=0, max_iters=8, with_target=True)
@example(K=40, noise=0.1, seed=1, max_iters=8, with_target=False)
def test_bp_matches_reference_at_saturating_llrs(K, noise, seed, max_iters, with_target):
    """Channel LLRs at and far past the message clip: +-MSG_CLIP and
    +-1e6 on a noisy readout (value tables), and Gaussian LLRs scaled by
    1e3 so most saturate (plain loop). Every tanh factor then sits at or
    near tanh(MSG_CLIP / 2), where a product is largest, and bp_decode,
    which has no clip on its check messages, equals the frozen loop,
    which clips the products and the messages, bit for bit."""
    code = build_code(K)
    x, z = _noisy_state(code, seed, noise)
    target_f = matrix_to_vector(code, z) if with_target else None
    xf = matrix_to_vector(code, x).astype(np.float64)
    params = AwgnParams(amplitude=1.0, sigma=0.5 + noise)
    gauss = 1e3 * awgn_llr(awgn_observe(x, params, seed), params)
    for lam in (MSG_CLIP * xf, -MSG_CLIP * xf, 1e6 * xf, gauss):
        ref = _ref_bp(code, np.clip(lam, -MSG_CLIP, MSG_CLIP), max_iters, target_f)
        _same_bp(bp_decode(code, channel_llr=lam, max_iters=max_iters,
                           target=None if target_f is None else z, record=True), ref)


@SETTINGS
@given(K=st.integers(2, 40), seed=st.integers(0, 2**32 - 1), span=st.integers(0, 60),
       zeros=st.floats(0.0, 1.0))
@example(K=3, seed=0, span=0, zeros=1.0)
@example(K=40, seed=1, span=60, zeros=0.0)
def test_bp_gather_sum_matches_bincount(K, seed, span, zeros):
    """bp_decode's per-variable message sum, an ordered gather through
    _bp_layout followed by np.add.reduce over axis 0, equals np.bincount
    over the layout bit for bit: weights of random sign and magnitudes
    2**-span .. 2**span, a fraction of them +0.0 or -0.0 (K = 2 has no
    checks, K = 3 one per variable)."""
    code = build_code(K)
    layout, gather = _bp_layout(code)
    assert gather.shape == (K - 2, code.n_vars)
    flat = layout.ravel()
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, flat.size) * np.exp2(rng.integers(-span, span + 1, flat.size))
    w[rng.random(flat.size) < zeros] = 0.0
    w[rng.random(flat.size) < zeros / 2] = -0.0
    got = np.add.reduce(w[gather], axis=0)
    assert got.tobytes() == np.bincount(flat, w, minlength=code.n_vars).tobytes()


# ---------------------------------------------------------------------------
# The single-chain step against a frozen copy of its plain per-step loop

class _RefChain:
    """Frozen copy of the plain single-chain step: the weights rebuilt
    from scratch every step, one rng.random() per step."""

    def __init__(self, code, params, xf, rng, target_f=None):
        self.code, self.family, self.rng = code, params.family, rng
        self.beta, self.gamma = params.beta, params.gamma
        self.xf = xf.astype(np.int8).copy()
        self.J = mcmc._couplings_for(code, params)
        self.adj, self.members, self.size = mcmc._flip_table(code, self.family)
        self.s = mcmc._padded_syndrome(code, self.xf, self.family)
        self.adj_sum = mcmc._adjacent_sums(self.adj, self.s)
        self.n_unsat = int(np.count_nonzero(self.s == -1))
        self.corr = 0.0 if self.J is None else float((self.J * self.xf).sum())
        self.target_f = None if target_f is None else target_f.astype(np.int8)
        self.dist_target = (None if target_f is None
                            else int(np.count_nonzero(self.xf != self.target_f)))
        self.steps_done = 0

    @property
    def energy(self):
        return float(-self.beta * self.corr + self.gamma * self.n_unsat)

    def step(self):
        dh = self.gamma * self.adj_sum[:-1]
        if self.J is not None and self.beta != 0.0:
            dh += 2.0 * self.beta * self.J * self.xf
        logw = np.minimum(0.0, -dh)
        shift = logw.max()
        w = np.exp(logw - shift)
        cum = w.cumsum()
        k = int(cum.searchsorted(self.rng.random() * cum[-1], side="right"))
        k = min(k, len(w) - 1)
        self.shift, self.total = shift, cum[-1]
        rate = float(np.exp(shift) * self.total)
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
        if self.steps_done % mcmc.ENERGY_CHECK_INTERVAL == 0:
            self.n_unsat, self.corr = mcmc._checked_totals(
                self.code, self.family, self.adj, self.J, self.xf, self.adj_sum,
                self.n_unsat, self.corr)
        return k, rate


def _ref_run_chain(code, params, budget, seed, target_f, initial, store, stream_to, schedule):
    """Frozen copy of the plain `_run_chain` loop: (energies, rates,
    target_hit, first_codeword, initial edge vector, stack or None)."""
    rng = np.random.default_rng(seed)
    xf0 = mcmc._initial_state(code, rng, initial)
    chain = _RefChain(code, params, xf0, rng, target_f)
    hit = 0 if target_f is not None and chain.dist_target == 0 else None
    codeword = 0 if chain.n_unsat == 0 else None
    energies, rates = np.empty(budget), np.empty(budget)
    stack = np.empty((budget + 1, code.n_vars), dtype=np.int8) if store else None
    if store:
        stack[0] = xf0
    sink = open(stream_to, "w") if stream_to is not None else None
    if sink is not None:
        sink.write("sample,energy,state_hex\n")
        e0 = mcmc.energy(code, params, vector_to_matrix(code, xf0))
        sink.write(f"0,{e0!r},{mcmc.pack_state_hex(xf0)}\n")
    for t in range(1, budget + 1):
        if schedule is not None:
            chain.beta, chain.gamma = schedule(t - 1, budget)
        _, rates[t - 1] = chain.step()
        energies[t - 1] = chain.energy
        if store:
            stack[t] = chain.xf
        if sink is not None:
            sink.write(f"{t},{chain.energy!r},{mcmc.pack_state_hex(chain.xf)}\n")
        if hit is None and target_f is not None and chain.dist_target == 0:
            hit = t
        if codeword is None and chain.n_unsat == 0:
            codeword = t
    if sink is not None:
        sink.close()
    return energies, rates, hit, codeword, xf0, stack


def _ref_visit_distribution(code, params, steps, burn_in, seed, initial):
    """Frozen copy of the plain `visit_distribution` loop."""
    rng = np.random.default_rng(seed)
    chain = _RefChain(code, params, mcmc._initial_state(code, rng, initial), rng)
    log_hist = {}
    for t in range(steps):
        key = chain.xf.tobytes()
        chain.step()
        if t >= burn_in:
            hold = -(chain.shift + math.log(chain.total))
            prev = log_hist.get(key, -math.inf)
            log_hist[key] = max(prev, hold) + math.log1p(math.exp(-abs(prev - hold)))
    logs = np.fromiter(log_hist.values(), dtype=np.float64, count=len(log_hist))
    w = np.exp(logs - logs.max(initial=-np.inf))
    return dict(zip(log_hist, (w / w.sum()).tolist()))


CHAIN_STRENGTHS = st.sampled_from([0.0, 0.3, 1.5, 4.0, 1000.0])
CHAIN_PATCHES = dict(interval=st.sampled_from([3, 7]), block=st.sampled_from([1, 4, 9]),
                     memo=st.sampled_from([1, 2, 16, 64]))


def _chain_params(code, beta, gamma, family, couplings, seed):
    J = (np.random.default_rng(seed + 2).uniform(-1, 1, code.n_vars)
         if couplings or beta > 0 else None)
    return HamiltonianParams(beta=beta, gamma=gamma, couplings=J, family=family)


def _spin_matrix(code, seed):
    return vector_to_matrix(code, _edge_vectors(code, (), seed))


@settings(max_examples=80, deadline=None)
@given(K=st.integers(2, 9), family=FAMILIES, beta=CHAIN_STRENGTHS, gamma=CHAIN_STRENGTHS,
       couplings=st.booleans(), seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 40),
       initial=st.booleans(), target=st.sampled_from([None, "codeword", "initial"]),
       ramp=st.one_of(st.none(), st.tuples(CHAIN_STRENGTHS, CHAIN_STRENGTHS)),
       store=st.booleans(), stream=st.booleans(), **CHAIN_PATCHES)
@example(K=14, family="w4", beta=4.0, gamma=4.0, couplings=True, seed=0, budget=40,
         initial=False, target="codeword", ramp=None, store=True, stream=True,
         interval=7, block=9, memo=16)
@example(K=40, family="w3", beta=0.0, gamma=1.0, couplings=False, seed=1, budget=25,
         initial=True, target="initial", ramp=(1.5, 4.0), store=True, stream=True,
         interval=3, block=4, memo=16)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=0, budget=2400,
         initial=False, target="codeword", ramp=None, store=True, stream=True,
         interval=7, block=9, memo=16)
@example(K=5, family="w4", beta=0.0, gamma=1000.0, couplings=False, seed=0, budget=300,
         initial=True, target="codeword", ramp=(0.0, 1000.0), store=True, stream=True,
         interval=3, block=4, memo=16)
@example(K=40, family="w3", beta=0.0, gamma=1.0, couplings=False, seed=1, budget=3000,
         initial=True, target="initial", ramp=None, store=False, stream=False,
         interval=7, block=9, memo=16)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=501, budget=1200,
         initial=False, target="codeword", ramp=None, store=True, stream=False,
         interval=3, block=4, memo=2)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=0, budget=2500,
         initial=False, target="codeword", ramp=None, store=True, stream=True,
         interval=1000, block=1024, memo=64)
@example(K=40, family="w3", beta=0.0, gamma=1.0, couplings=False, seed=1, budget=2100,
         initial=True, target="initial", ramp=None, store=False, stream=True,
         interval=1000, block=1024, memo=64)
def test_run_chain_matches_frozen_per_step_loop(K, family, beta, gamma, couplings, seed, budget,
                                                initial, target, ramp, store, stream,
                                                interval, block, memo):
    """`_run_chain` (uniforms drawn in blocks, coupling term kept
    incrementally) equals the frozen loop bit for bit: energies, escape
    rates, first hits, every visited state and the streamed CSV bytes,
    with budgets crossing both the drift-check interval and the block
    (the K=14 and K=40 examples at the real UNIFORM_BLOCK: drift checks
    mid-block, budgets that are not a multiple of the block)."""
    import os
    import tempfile

    code = build_code(K)
    params = _chain_params(code, beta, gamma, family, couplings, seed)
    x0 = _spin_matrix(code, seed + 1) if initial else None
    if target == "codeword":
        z = np.where(np.random.default_rng(seed + 3).random(K) < 0.5, 1, -1)
        target_f = matrix_to_vector(code, encode(code, z))
    elif target == "initial":
        start = x0 if initial else vector_to_matrix(
            code, mcmc._initial_state(code, np.random.default_rng(seed), None))
        target_f = matrix_to_vector(code, start)
    else:
        target_f = None
    schedule = None if ramp is None else mcmc.linear_schedule((beta, ramp[0]), (gamma, ramp[1]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", interval), \
            mock.patch.object(mcmc, "UNIFORM_BLOCK", block), \
            mock.patch.object(mcmc, "STATE_MEMO", memo):
        paths = [os.path.join(tmp, f"{name}.csv") if stream else None
                 for name in ("new", "ref")]
        run, stack = mcmc._run_chain(code, params, budget, seed, target_f, x0, store,
                                     stream_to=paths[0], schedule=schedule)
        energies, rates, hit, codeword, xf0, ref_stack = _ref_run_chain(
            code, params, budget, seed, target_f, x0, store, paths[1], schedule)
        if stream:
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                assert a.read() == b.read()
    assert run.energies.tobytes() == energies.tobytes()
    assert run.escape_rates.tobytes() == rates.tobytes()
    assert (run.target_hit, run.first_codeword) == (hit, codeword)
    assert np.array_equal(run.initial, vector_to_matrix(code, xf0))
    assert (stack is None) == (not store)
    if store:
        assert np.array_equal(stack, ref_stack)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 6), family=FAMILIES, beta=CHAIN_STRENGTHS, gamma=CHAIN_STRENGTHS,
       couplings=st.booleans(), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 60),
       burn_in=st.integers(0, 70), initial=st.booleans(), **CHAIN_PATCHES)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=0, steps=2400,
         burn_in=100, initial=False, interval=7, block=9, memo=16)
@example(K=5, family="w4", beta=0.0, gamma=1000.0, couplings=False, seed=0, steps=300,
         burn_in=0, initial=True, interval=3, block=4, memo=16)
@example(K=40, family="w3", beta=0.0, gamma=1.0, couplings=False, seed=1, steps=3000,
         burn_in=1000, initial=True, interval=7, block=9, memo=16)
def test_visit_distribution_matches_frozen_loop(K, family, beta, gamma, couplings, seed, steps,
                                                burn_in, initial, interval, block, memo):
    """Occupancy dicts equal the frozen loop's: same keys, in the same
    order, and bitwise-equal weights."""
    code = build_code(K)
    params = _chain_params(code, beta, gamma, family, couplings, seed)
    x0 = _spin_matrix(code, seed + 1) if initial else None
    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", interval), \
            mock.patch.object(mcmc, "UNIFORM_BLOCK", block), \
            mock.patch.object(mcmc, "STATE_MEMO", memo):
        got = mcmc.visit_distribution(code, params, steps, burn_in, seed, initial=x0)
        ref = _ref_visit_distribution(code, params, steps, burn_in, seed, x0)
    assert list(got) == list(ref)
    assert np.array(list(got.values())).tobytes() == np.array(list(ref.values())).tobytes()


STEEP_STRENGTHS = st.sampled_from([0.0, 0.3, 1.5, 3.0, 4.0, 1000.0])


def _switching_schedule(beta, gamma, moves, values, period):
    """A schedule that holds each (beta, gamma) of `values` for `period`
    steps, in turn; moves "beta" or "gamma" changes only that strength
    (the other stays at the base value), "none" repeats values[0]."""

    def schedule(step, budget):
        b, g = values[0 if moves == "none" else step // period % len(values)]
        return (beta if moves == "gamma" else b, gamma if moves == "beta" else g)

    return schedule


@settings(max_examples=80, deadline=None)
@given(K=st.integers(3, 14), family=FAMILIES, beta=STEEP_STRENGTHS, gamma=STEEP_STRENGTHS,
       seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 300), eps=NOISE,
       moves=st.sampled_from(["both", "beta", "gamma", "none"]),
       values=st.lists(st.tuples(STEEP_STRENGTHS, STEEP_STRENGTHS), min_size=1, max_size=3),
       period=st.sampled_from([1, 2, 3, 5]))
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=0, budget=300, eps=0.1, moves="gamma",
         values=[(3.0, 4.0), (3.0, 1.5)], period=1)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=0, budget=300, eps=0.1, moves="gamma",
         values=[(3.0, 4.0), (3.0, 1000.0)], period=3)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=1, budget=300, eps=0.1, moves="beta",
         values=[(3.0, 4.0), (0.3, 4.0)], period=1)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=1, budget=300, eps=0.1, moves="beta",
         values=[(3.0, 4.0), (1.5, 4.0)], period=5)
@example(K=14, family="w4", beta=1.5, gamma=0.3, seed=2, budget=300, eps=0.1, moves="both",
         values=[(3.0, 4.0), (4.0, 3.0)], period=2)
@example(K=5, family="w4", beta=0.0, gamma=1000.0, seed=3, budget=300, eps=0.1, moves="none",
         values=[(0.0, 1000.0)], period=1)
@example(K=14, family="w4", beta=0.0, gamma=0.3, seed=4, budget=300, eps=0.1, moves="none",
         values=[(3.0, 4.0)], period=1)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=5, budget=300, eps=0.1, moves="gamma",
         values=[(3.0, 4.0), (3.0, 3.0)], period=5)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=6, budget=300, eps=0.1, moves="beta",
         values=[(3.0, 4.0), (4.0, 4.0)], period=5)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=7, budget=2100, eps=0.1, moves="both",
         values=[(3.0, 4.0), (1.5, 4.0), (3.0, 1.5)], period=7)
@example(K=14, family="w4", beta=3.0, gamma=4.0, seed=8, budget=2100, eps=0.1, moves="gamma",
         values=[(3.0, 4.0), (3.0, 3.0)], period=700)
def test_run_chain_schedules_match_frozen_loop(K, family, beta, gamma, seed, budget, eps, moves,
                                               values, period):
    """Schedules that move beta, gamma or both, every step or every few
    steps, or that repeat one pair: `_run_chain` equals the frozen loop
    bit for bit. Chains start from noisy readouts of a codeword, at
    strengths steep enough that many steps return to a recent state, so
    weights kept in the chain's memo, and flips whose updates wait, meet
    every kind of parameter change."""
    code = build_code(K)
    params = _chain_params(code, beta, gamma, family, True, seed)
    x0, z = _noisy_state(code, seed, eps)
    target_f = matrix_to_vector(code, z)
    schedule = _switching_schedule(beta, gamma, moves, values, period)
    run, stack = mcmc._run_chain(code, params, budget, seed, target_f, x0, True,
                                 schedule=schedule)
    energies, rates, hit, codeword, _, ref_stack = _ref_run_chain(
        code, params, budget, seed, target_f, x0, True, None, schedule)
    assert run.energies.tobytes() == energies.tobytes()
    assert run.escape_rates.tobytes() == rates.tobytes()
    assert (run.target_hit, run.first_codeword) == (hit, codeword)
    assert np.array_equal(stack, ref_stack)


def test_drift_checks_mid_block_with_flips_pending_match_frozen_loop():
    """At the real UNIFORM_BLOCK and a drift-check interval of 1000, the
    checks at steps 1000, 2000 and 3000 fall inside blocks, and in a
    K=14 (3, 4) chain they find flips whose updates still wait: the run
    equals the frozen loop bit for bit."""
    code = build_code(14)
    params = _chain_params(code, 3.0, 4.0, "w4", True, 1)
    budget = 3500
    events = []  # queued flips at each _sync, and "check" at each drift check
    sync, checked = mcmc._Chain._sync, mcmc._checked_totals

    def counting_sync(chain):
        events.append(len(chain._pending))
        sync(chain)

    def counting_check(*args):
        events.append("check")
        return checked(*args)

    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", 1000):
        with mock.patch.object(mcmc._Chain, "_sync", counting_sync), \
                mock.patch.object(mcmc, "_checked_totals", counting_check):
            run, stack = mcmc._run_chain(code, params, budget, 1, None, None, True)
        energies, rates, hit, codeword, _, ref_stack = _ref_run_chain(
            code, params, budget, 1, None, None, True, None, None)
    checks = [i for i, e in enumerate(events) if e == "check"]
    assert len(checks) == 3 and all(events[i - 1] > 0 for i in checks)
    assert mcmc.UNIFORM_BLOCK == 1024 and budget % mcmc.UNIFORM_BLOCK
    assert run.energies.tobytes() == energies.tobytes()
    assert run.escape_rates.tobytes() == rates.tobytes()
    assert (run.target_hit, run.first_codeword) == (hit, codeword)
    assert np.array_equal(stack, ref_stack)


@pytest.mark.parametrize("K, instance", [(8, 3), (10, 3)])
def test_hybrid_hits_in_a_later_block_match_frozen_loop(K, instance):
    """hybrid_decode at the real UNIFORM_BLOCK, on chains whose first
    decoded target lies past the first block: the decoded hits and, with
    store_samples, every decoded state equal BF sweeps of the frozen
    loop's visited states."""
    code = build_code(K)
    inst = gen_instance(K, instance)
    params = HamiltonianParams(beta=3.0, gamma=4.0, couplings=inst.couplings, family="w4")
    target = encode(code, inst.ground_state)
    budget, iters = 3000, 5
    *_, ref_stack = _ref_run_chain(code, params, budget, instance, matrix_to_vector(code, target),
                                   None, True, None, None)
    expected = bf_sweep_batch(vector_to_matrix(code, ref_stack), iters)
    target_hits = [t for t, d in enumerate(expected) if np.array_equal(d, target)]
    codeword_hits = [t for t, d in enumerate(expected) if is_codeword(code, d)]
    assert target_hits and target_hits[0] > mcmc.UNIFORM_BLOCK
    for store in (False, True):
        ok, run = hybrid_decode(code, params, budget, target, instance, bf_max_iters=iters,
                                store_samples=store)
        assert ok and run.decoded_target_hit == target_hits[0]
        assert run.decoded_any_codeword == codeword_hits[0]
        if store:
            assert np.array_equal(np.stack(run.decoded), expected)


@settings(max_examples=80, deadline=None)
@given(K=st.integers(2, 9), family=FAMILIES, beta=CHAIN_STRENGTHS, gamma=CHAIN_STRENGTHS,
       couplings=st.booleans(), seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 80),
       iters=st.integers(1, 3), initial=st.booleans(),
       target=st.sampled_from(["codeword", "initial", "ground"]),
       ramp=st.one_of(st.none(), st.tuples(CHAIN_STRENGTHS, CHAIN_STRENGTHS)), **CHAIN_PATCHES)
@example(K=3, family="w3", beta=1.5, gamma=0.3, couplings=True, seed=1, budget=1, iters=1,
         initial=False, target="codeword", ramp=None, interval=7, block=4, memo=16)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=3, budget=3000, iters=1,
         initial=False, target="ground", ramp=None, interval=1000, block=1024, memo=64)
@example(K=14, family="w4", beta=3.0, gamma=4.0, couplings=True, seed=8, budget=3000, iters=5,
         initial=False, target="ground", ramp=None, interval=1000, block=1024, memo=64)
def test_hybrid_stage_on_new_states_matches_frozen_loop(K, family, beta, gamma, couplings, seed,
                                                        budget, iters, initial, target, ramp,
                                                        interval, block, memo):
    """Without stored samples `_run_chain` BF-decodes only the states
    whose weight-memo entry it builds, and the final state; its first
    decoded target and codeword hits equal those of BF sweeps over every
    state the frozen loop visits. Memos of 1 and 2 states evict states
    the chain comes back to, and linear ramps empty the memo at every
    step. In the K=3 example the first hits are at the final state,
    which starts no step and so builds no memo entry. The K=14 examples run at the real UNIFORM_BLOCK and STATE_MEMO
    on an instance's ground state: with one sweep the first decoded
    codeword lies in the second block (at 1209), with five the first
    decoded target in the first (at 191)."""
    code = build_code(K)
    x0 = _spin_matrix(code, seed + 1) if initial else None
    if target == "ground":
        inst = gen_instance(K, seed % 16)
        params = HamiltonianParams(beta=beta, gamma=gamma, couplings=inst.couplings,
                                   family=family)
        target_f = matrix_to_vector(code, encode(code, inst.ground_state))
    else:
        params = _chain_params(code, beta, gamma, family, couplings, seed)
        if target == "codeword":
            z = np.where(np.random.default_rng(seed + 3).random(K) < 0.5, 1, -1)
            start = encode(code, z)
        else:
            start = x0 if initial else vector_to_matrix(
                code, mcmc._initial_state(code, np.random.default_rng(seed), None))
        target_f = matrix_to_vector(code, start)
    schedule = None if ramp is None else mcmc.linear_schedule((beta, ramp[0]), (gamma, ramp[1]))
    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", interval), \
            mock.patch.object(mcmc, "UNIFORM_BLOCK", block), \
            mock.patch.object(mcmc, "STATE_MEMO", memo):
        run, stack = mcmc._run_chain(code, params, budget, seed, target_f, x0, False,
                                     schedule=schedule, bf_iters=iters)
        *_, ref_stack = _ref_run_chain(code, params, budget, seed, target_f, x0, True, None,
                                       schedule)
    expected = bf_sweep_batch(vector_to_matrix(code, ref_stack), iters)
    target_m = vector_to_matrix(code, target_f)
    target_hits = [t for t, d in enumerate(expected) if np.array_equal(d, target_m)]
    codeword_hits = [t for t, d in enumerate(expected) if is_codeword(code, d)]
    assert stack is None and run.decoded is None
    assert run.decoded_target_hit == (target_hits[0] if target_hits else None)
    assert run.decoded_any_codeword == (codeword_hits[0] if codeword_hits else None)
    if K == 14 and iters == 1:
        assert run.decoded_any_codeword > mcmc.UNIFORM_BLOCK


@SETTINGS
@given(K=st.integers(2, 9), family=FAMILIES, beta=CHAIN_STRENGTHS, gamma=CHAIN_STRENGTHS,
       couplings=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_rejection_free_step_draws_one_uniform(K, family, beta, gamma, couplings, seed):
    """One update from the caller's Generator: the frozen step's state and
    rate, and the generator's next draw is a reference generator's
    second."""
    code = build_code(K)
    params = _chain_params(code, beta, gamma, family, couplings, seed)
    x = _spin_matrix(code, seed + 1)
    rng = np.random.default_rng(seed)
    new, rate = mcmc.rejection_free_step(code, params, x, rng)
    ref = _RefChain(code, params, matrix_to_vector(code, x), np.random.default_rng(seed))
    _, ref_rate = ref.step()
    assert np.array_equal(new, vector_to_matrix(code, ref.xf)) and rate == ref_rate
    assert rng.random() == ref.rng.random()


@SETTINGS
@given(K=st.integers(2, 6), family=FAMILIES, bad=st.sampled_from(["beta", "gamma"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf, -0.5, -1e-300]),
       at=st.integers(0, 29), seed=st.integers(0, 2**32 - 1))
def test_schedule_values_outside_params_rule_are_refused(K, family, bad, value, at, seed):
    """A scheduled beta or gamma that is not finite and >= 0 raises
    ValueError naming the step, as HamiltonianParams does for fixed
    values; until that step the chain runs."""
    code = build_code(K)
    params = _chain_params(code, 1.0, 1.0, family, True, seed)
    calls = []

    def schedule(step, budget):
        calls.append(step)
        good = (1.0, 1.0)
        if step < at:
            return good
        return (value, 1.0) if bad == "beta" else (1.0, value)

    with pytest.raises(ValueError, match=rf"{bad} must be finite and >= 0 .*step {at}\b"):
        mcmc.mcmc_decode(code, params, 30, encode(code, np.ones(K)), seed, schedule=schedule)
    assert calls == list(range(at + 1))


# ---------------------------------------------------------------------------
# Algebraic identities over K and both check families

KINDS = st.sampled_from(["bf", "wbf", "gdbf", "mcmc"])


@SETTINGS
@given(K=st.integers(2, 12), family=FAMILIES, seed=st.integers(0, 2**32 - 1), eps=NOISE)
def test_syndrome_is_multiplicative(K, family, seed, eps):
    """syndrome(x o e) = syndrome(x) o syndrome(e), for a random state x
    and an error e at rate eps."""
    code = build_code(K)
    x = _spin_matrix(code, seed)
    e = vector_to_matrix(code, np.where(np.random.default_rng(seed + 1).random(code.n_vars) < eps,
                                        -1, 1).astype(np.int8))
    assert np.array_equal(syndrome(code, x * e, family),
                          syndrome(code, x, family) * syndrome(code, e, family))


@SETTINGS
@given(K=st.integers(2, 10), family=FAMILIES, kind=KINDS, seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 2**16))
def test_flip_energy_change_is_twice_the_score(K, family, kind, seed, k):
    """E(flip_k x) - E(x) = 2 score_k(x) for all four inversion kinds,
    with the reference decision at the pre-flip state, to float64
    resolution of the energies."""
    code = build_code(K)
    rng = np.random.default_rng(seed)
    x = _spin_matrix(code, seed + 1)
    J = rng.uniform(-1.0, 1.0, code.n_vars)
    n_checks = code.n_checks3 if family == "w3" or kind == "bf" else code.n_checks4
    weights = InversionWeights(w0=float(rng.uniform(0, 2)), wk=rng.uniform(0.1, 2.0, n_checks),
                               beta=float(rng.uniform(0, 2)), gamma=float(rng.uniform(0, 2)))
    k %= code.n_vars
    delta = inversion_function(kind, code, x, k, J=J, weights=weights, family=family)
    e0, e1 = (decoder_energy(kind, code, y, J=J, weights=weights, family=family, reference=x)
              for y in (x, flip_spin(code, x, k)))
    scale = max(abs(e0), abs(e1), abs(2 * delta), 1.0)
    assert abs((e1 - e0) - 2 * delta) <= 1e-12 * scale


@SETTINGS
@given(K=st.integers(2, 12), family=FAMILIES, seed=st.integers(0, 2**32 - 1), eps=NOISE,
       bp_eps=BP_EPSILON, policy=st.sampled_from([TiePolicy.KEEP, TiePolicy.FAIL]),
       max_iters=st.integers(1, 6))
def test_decoders_are_gauge_invariant(K, family, seed, eps, bp_eps, policy, max_iters):
    """A readout z o e of codeword z decodes as the bare error e does
    toward the all-one word: BF's outcome, iterations, ties and final
    state (times z), BP's outcome, iterations and posteriors (times z),
    and both families' syndromes."""
    code = build_code(K)
    x, z = _noisy_state(code, seed, eps)
    e = (x * z).astype(np.int8)
    one = np.ones((K, K), dtype=np.int8)
    assert np.array_equal(syndrome(code, x, family), syndrome(code, e, family))
    r_code, r_bare = (bf_decode(code, y, max_iters=max_iters, target=t, tie_policy=policy)
                      for y, t in ((x, z), (e, one)))
    assert (r_code.success, r_code.iterations, r_code.ties, r_code.tie_failure) == (
        r_bare.success, r_bare.iterations, r_bare.ties, r_bare.tie_failure)
    assert np.array_equal(r_code.final, z * r_bare.final)
    b_code, b_bare = (bp_decode(code, x=y, epsilon=bp_eps, max_iters=max_iters, target=t,
                                record=True) for y, t in ((x, z), (e, one)))
    z_f = matrix_to_vector(code, z)
    assert all(np.array_equal(p, z_f * q) for p, q in zip(b_code.posteriors, b_bare.posteriors))
    assert len(b_code.posteriors) == len(b_bare.posteriors)
    assert (b_code.success, b_code.iterations) == (b_bare.success, b_bare.iterations)
    assert np.array_equal(b_code.final, z * b_bare.final)


@SETTINGS
@given(K=st.integers(2, 12), family=FAMILIES, seed=st.integers(0, 2**32 - 1),
       policy=POLICIES, bp_eps=BP_EPSILON, max_iters=st.integers(1, 6))
def test_codewords_are_decoder_fixed_points(K, family, seed, policy, bp_eps, max_iters):
    """A codeword satisfies every check of either family, and BF (one
    sweep, a stack of sweeps, the decoder) and BP return it unchanged,
    at iteration 0, with no ties."""
    code = build_code(K)
    z = encode(code, np.where(np.random.default_rng(seed).random(K) < 0.5, 1, -1))
    assert np.all(syndrome(code, z, family) == 1)
    rng = np.random.default_rng(seed + 1)
    out, ties = bf_step(code, z, policy, rng)
    assert ties == 0 and np.array_equal(out, z)
    assert np.array_equal(bf_sweep_batch(z[None], max_iters)[0], z)
    res = bf_decode(code, z, max_iters=max_iters, tie_policy=policy, rng=rng)
    assert res.success and res.iterations == 0 and res.ties == 0
    assert np.array_equal(res.final, z)
    res = bp_decode(code, x=z, epsilon=bp_eps, max_iters=max_iters)
    assert res.success and res.iterations == 0 and np.array_equal(res.final, z)
