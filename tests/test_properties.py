"""Property tests of the edge-vector converters, the syndrome kernel, the
BF sweep (`bf_step`, `bf_decode`) against an int64 reference, and the
hybrid decoder's chunked BF stage, over small K and both check families
(K = 2 has no triangle and no plaquette checks, K = 3 one triangle; odd
K gives BF vote ties)."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from parity_decode import (
    HamiltonianParams,
    TiePolicy,
    bf_decode,
    bf_step,
    build_code,
    encode,
    hybrid_decode,
    is_codeword,
    matrix_to_vector,
    syndrome,
    vector_to_matrix,
)
from parity_decode import mcmc
from parity_decode.code import _syndrome_flat
from parity_decode.decoders import bf_sweep_batch

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
       seed=st.integers(0, 2**32 - 1))
@example(K=2, batch=[3], seed=0)
@example(K=3, batch=[2, 3], seed=1)
def test_batched_converters_match_rows_and_round_trip(K, batch, seed):
    code = build_code(K)
    vs = _edge_vectors(code, tuple(batch), seed)
    mats = vector_to_matrix(code, vs)
    assert mats.shape == vs.shape[:-1] + (K, K) and mats.dtype == np.int8
    for idx in np.ndindex(*vs.shape[:-1]):
        assert np.array_equal(mats[idx], vector_to_matrix(code, vs[idx]))
        assert np.array_equal(mats[idx], _loop_matrix(code, vs[idx]))
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
@given(K=st.integers(2, 7), family=FAMILIES, budget=st.integers(1, 30),
       iters=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 4, 1024]))
@example(K=2, family="w3", budget=5, iters=1, seed=0, chunk=1024)
@example(K=2, family="w4", budget=5, iters=1, seed=0, chunk=2)
@example(K=3, family="w4", budget=10, iters=2, seed=1, chunk=4)
def test_hybrid_stage_matches_per_state_sweeps(K, family, budget, iters, seed, chunk):
    """The BF stage, run over chunks of `chunk` states, against one sweep
    of the whole stack; first-hit indices stay exact across chunks."""
    code = build_code(K)
    rng = np.random.default_rng(seed)
    params = HamiltonianParams(beta=1.0, gamma=0.5, family=family,
                               couplings=rng.uniform(-1, 1, code.n_vars))
    target = encode(code, np.where(rng.random(K) < 0.5, 1, -1))

    with mock.patch.object(mcmc, "BF_CHUNK", chunk):
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
