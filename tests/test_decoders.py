import itertools
import math

import numpy as np
import pytest

from parity_decode import (
    CapacityError,
    HamiltonianParams,
    InversionWeights,
    TiePolicy,
    all_one_matrix,
    bf_decode,
    bf_step,
    bp_decode,
    build_code,
    codewords,
    count_errors,
    decoder_energy,
    encode,
    energy,
    flip_spin,
    inversion_function,
    inversion_profile,
    matrix_to_vector,
    mwd_bruteforce,
    random_spin_matrix,
    sample_iid_errors,
    syndrome,
    trial_seed,
    uniform_weights,
    vector_to_matrix,
)
from parity_decode.decoders import bf_sweep_batch


def single_error(K, v=0):
    code = build_code(K)
    x = all_one_matrix(K)
    i, j = code.edges[v]
    x[i, j] = x[j, i] = -1
    return code, x


# ---------------------------------------------------------------------------
# bit flip

def test_codewords_are_fixed_points():
    rng = np.random.default_rng(1)
    for K in range(2, 13):
        code = build_code(K)
        for z in codewords(code):
            out, ties = bf_step(code, z)
            assert ties == 0
            assert np.array_equal(out, z)


def test_single_error_hand_example_k4():
    code, x = single_error(4)  # error at pair {1,2}
    # vote on that pair: 1 + s_123 + s_124 = 1 - 1 - 1 = -1 -> flip
    prof = inversion_profile("bf", code, x)
    assert prof[0] == -1
    assert np.all(prof[1:] > 0)
    out, ties = bf_step(code, x)
    assert ties == 0
    assert np.array_equal(out, all_one_matrix(4))


@pytest.mark.parametrize("K", range(4, 13))
def test_single_error_corrected_one_step_exhaustive(K):
    code = build_code(K)
    for v in range(code.n_vars):
        _, x = single_error(K, v)
        out, _ = bf_step(code, x)
        assert np.array_equal(out, all_one_matrix(K))


def test_bf_decode_codeword_input():
    code = build_code(6)
    z = encode(code, [1, -1, -1, 1, 1, -1])
    res = bf_decode(code, z, max_iters=5, target=z)
    assert res.success and res.converged
    assert res.iterations == 0
    res2 = bf_decode(code, z, max_iters=5)  # no target: any codeword
    assert res2.success and res2.iterations == 0


def test_bf_decode_deterministic():
    code = build_code(9)
    x = sample_iid_errors(code, 0.3, 42)
    a = bf_decode(code, x, max_iters=5, target=all_one_matrix(9))
    b = bf_decode(code, x, max_iters=5, target=all_one_matrix(9))
    assert np.array_equal(a.final, b.final)
    assert (a.success, a.iterations, a.ties) == (b.success, b.iterations, b.ties)


def test_bf_decode_k40_eps03_majority_success():
    code = build_code(40)
    target = all_one_matrix(40)
    succ = 0
    for t in range(200):
        e = sample_iid_errors(code, 0.3, trial_seed(3, t))
        res = bf_decode(code, e, max_iters=5, target=target, tie_policy=TiePolicy.FAIL)
        succ += res.success
    assert succ / 200 > 0.6  # headline claim is > 0.70 at 5000 trials


def test_bf_trajectory_recording():
    code = build_code(12)
    x = sample_iid_errors(code, 0.2, 5)
    res = bf_decode(code, x, max_iters=8, target=all_one_matrix(12), record_trajectory=True)
    assert res.trajectory is not None
    assert np.array_equal(res.trajectory[0], x)
    assert len(res.trajectory) >= 1


def test_bf_k2_noop():
    code = build_code(2)
    x = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    out, ties = bf_step(code, x)
    assert np.array_equal(out, x)
    assert ties == 0


def test_tie_policies_k3():
    # K=3: single triangle check; a one-error state has vote 1 + (-1) = 0
    code = build_code(3)
    x = all_one_matrix(3)
    x[0, 1] = x[1, 0] = -1
    out, ties = bf_step(code, x, TiePolicy.KEEP)
    assert ties == 3  # every pair votes 1 + s = 0
    assert np.array_equal(out, x)

    res = bf_decode(code, x, max_iters=5, target=all_one_matrix(3), tie_policy=TiePolicy.FAIL)
    assert res.tie_failure and not res.success

    rng = np.random.default_rng(0)
    out_coin, ties_coin = bf_step(code, x, TiePolicy.COIN, rng)
    assert ties_coin == 3
    with pytest.raises(ValueError):
        bf_step(code, x, TiePolicy.COIN)  # rng required


def test_gauge_invariance_sampled():
    rng = np.random.default_rng(4)
    code = build_code(12)
    target0 = all_one_matrix(12)
    for _ in range(50):
        Z = rng.choice([-1, 1], size=12)
        z = encode(code, Z)
        e = sample_iid_errors(code, 0.25, rng)
        r_code = bf_decode(code, (z * e).astype(np.int8), max_iters=6, target=z)
        r_bare = bf_decode(code, e, max_iters=6, target=target0)
        assert r_code.success == r_bare.success
        assert r_code.iterations == r_bare.iterations
        assert r_code.ties == r_bare.ties


def test_bf_sweep_batch_matches_single():
    rng = np.random.default_rng(8)
    code = build_code(10)
    stack = np.stack([sample_iid_errors(code, 0.3, trial_seed(9, t)) for t in range(16)])
    batch = bf_sweep_batch(stack, 3)
    for i in range(16):
        cur = stack[i]
        for _ in range(3):
            cur, _ = bf_step(code, cur, TiePolicy.KEEP)
        assert np.array_equal(batch[i], cur)


@pytest.mark.parametrize("family", ["w3", "w4"])
def test_inversion_profile_k2_has_no_check_terms(family):
    code = build_code(2)
    x = all_one_matrix(2)
    J = np.array([0.5])
    assert inversion_profile("mcmc", code, x, J, InversionWeights(beta=2.0), family)[0] == 1.0
    assert inversion_profile("gdbf", code, x, J, family=family)[0] == 0.5
    assert inversion_profile("bf", code, x)[0] == 1.0


def test_bf_sweep_batch_matches_int_reference():
    # the float32 votes equal exact integer votes, ties keep the sign
    rng = np.random.default_rng(3)
    for K in (3, 4, 9, 14):
        code = build_code(K)
        v = (rng.integers(0, 2, size=(40, code.n_vars)) * 2 - 1).astype(np.int8)
        m = vector_to_matrix(code, v).astype(np.int64)
        ref = m
        for _ in range(4):
            vote = ref @ ref - ref
            ref = np.where(vote > 0, 1, np.where(vote < 0, -1, ref))
        out = bf_sweep_batch(m.astype(np.int8), 4)
        assert out.dtype == np.int8
        assert np.array_equal(out, ref)


def test_count_errors():
    code = build_code(5)
    z = all_one_matrix(5)
    assert count_errors(z, z) == 0
    x = z.copy()
    x[0, 3] = x[3, 0] = -1
    assert count_errors(x, z) == 1
    rng = np.random.default_rng(2)
    e = random_spin_matrix(5, rng)
    iu = np.triu_indices(5, 1)
    assert count_errors((z * e).astype(np.int8), z) == int(np.count_nonzero(e[iu] == -1))


# ---------------------------------------------------------------------------
# inversion functions and energies

def test_bf_inversion_on_codeword():
    for K in (4, 6, 9):
        code = build_code(K)
        z = encode(code, np.resize([1, -1], K))
        prof = inversion_profile("bf", code, z)
        assert np.all(prof == 1 + (K - 2))


def test_gdbf_reduces_to_bf_at_zero_couplings():
    rng = np.random.default_rng(6)
    code = build_code(7)
    J = np.zeros(code.n_vars)
    for _ in range(10):
        x = random_spin_matrix(7, rng)
        bf = inversion_profile("bf", code, x)
        gd = inversion_profile("gdbf", code, x, J=J)
        assert np.allclose(gd, bf - 1.0)


@pytest.mark.parametrize("kind", ["bf", "wbf", "gdbf", "mcmc"])
def test_energy_delta_identity(kind):
    rng = np.random.default_rng(10)
    for trial in range(250):
        K = int(rng.integers(3, 9))
        code = build_code(K)
        x = random_spin_matrix(K, rng)
        J = rng.uniform(-1, 1, code.n_vars)
        family = "w3" if kind == "bf" else ("w3", "w4")[int(rng.integers(2))]
        n_checks = code.n_checks3 if family == "w3" else code.n_checks4
        weights = InversionWeights(
            w0=float(rng.uniform(0, 2)),
            wk=rng.uniform(0.1, 2.0, n_checks),
            beta=float(rng.uniform(0, 2)),
            gamma=float(rng.uniform(0, 2)),
        )
        k = int(rng.integers(code.n_vars))
        delta = inversion_function(kind, code, x, k, J=J, weights=weights, family=family)
        e0 = decoder_energy(kind, code, x, J=J, weights=weights, family=family, reference=x)
        e1 = decoder_energy(kind, code, flip_spin(code, x, k), J=J, weights=weights,
                            family=family, reference=x)
        dh = e1 - e0
        assert dh == pytest.approx(2 * delta, rel=1e-12, abs=1e-12)


def test_inversion_requires_couplings():
    code = build_code(5)
    x = all_one_matrix(5)
    for kind in ("wbf", "gdbf", "mcmc"):
        with pytest.raises(ValueError):
            inversion_function(kind, code, x, 0)


def test_couplings_length_checked_by_every_caller():
    # one coupling per pair; a short vector must not broadcast
    code = build_code(5)
    x = all_one_matrix(5)
    calls = [
        lambda: decoder_energy("gdbf", code, x, J=[0.5]),
        lambda: decoder_energy("mcmc", code, x, J=np.ones(11)),
        lambda: inversion_profile("gdbf", code, x, J=[0.5]),
        lambda: inversion_function("wbf", code, x, 0, J=np.ones(9)),
        lambda: energy(code, HamiltonianParams(beta=1.0, couplings=[0.5]), x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="couplings length"):
            call()
    J = np.linspace(-1, 1, code.n_vars)
    assert decoder_energy("gdbf", code, x, J=J.reshape(2, 5)) == decoder_energy(
        "gdbf", code, x, J=J)


def test_uniform_weights_values():
    w = uniform_weights(0.1)
    assert w.w0 == pytest.approx(math.log(9))
    p = 0.5 * (1 - (1 - 0.2) ** 2)
    assert w.wk == pytest.approx(math.log((1 - p) / p))


# ---------------------------------------------------------------------------
# belief propagation

def test_bp_noiseless_input():
    code = build_code(6)
    z = encode(code, [1, 1, -1, 1, -1, -1])
    res = bp_decode(code, x=z, epsilon=0.1, max_iters=5, target=z)
    assert res.success
    assert res.iterations == 0


def test_bp_single_error():
    code, x = single_error(4)
    res = bp_decode(code, x=x, epsilon=0.25, max_iters=5, target=all_one_matrix(4))
    assert res.success
    assert res.iterations <= 5
    # agrees with BF on this input
    bfres = bf_decode(code, x, max_iters=5, target=all_one_matrix(4))
    assert np.array_equal(res.final, bfres.final)


def test_bp_epsilon_validation():
    code = build_code(4)
    x = all_one_matrix(4)
    for bad in (0.0, 0.5, 0.9, -0.1):
        with pytest.raises(ValueError):
            bp_decode(code, x=x, epsilon=bad)


def test_bp_llr_input_mode():
    code = build_code(5)
    z = encode(code, [1, -1, 1, 1, -1])
    zf = matrix_to_vector(code, z).astype(float)
    res = bp_decode(code, channel_llr=4.0 * zf, max_iters=5, target=z)
    assert res.success and res.iterations == 0


def test_bp_moderate_noise_k12():
    code = build_code(12)
    target = all_one_matrix(12)
    succ = 0
    for t in range(100):
        e = sample_iid_errors(code, 0.15, trial_seed(21, t))
        res = bp_decode(code, x=e, epsilon=0.15, max_iters=5, target=target)
        succ += res.success
    assert succ >= 85


def test_bp_posterior_reliability_growth():
    # on decodable instances the weakest posterior grows over the last sweep
    code = build_code(8)
    target = all_one_matrix(8)
    grew = total = 0
    for t in range(150):
        e = sample_iid_errors(code, 0.1, trial_seed(22, t))
        res = bp_decode(code, x=e, epsilon=0.1, max_iters=5, target=target, record=True)
        if not res.success or len(res.posteriors) < 2:
            continue
        last = np.min(np.abs(res.posteriors[-1]))
        prev = np.min(np.abs(res.posteriors[-2]))
        total += 1
        grew += last >= prev
    assert total >= 50
    assert grew / total >= 0.8


# ---------------------------------------------------------------------------
# minimum-weight decoding

def test_mwd_codeword_input():
    code = build_code(5)
    z = encode(code, [1, -1, -1, 1, 1])
    assert np.array_equal(mwd_bruteforce(code, z), z)


def test_mwd_single_error_matches_bf():
    code, x = single_error(4)
    out, _ = bf_step(code, x)
    assert np.array_equal(mwd_bruteforce(code, x), out)


def test_mwd_capacity_guard():
    code = build_code(9)
    with pytest.raises(CapacityError):
        mwd_bruteforce(code, all_one_matrix(9))


def _mwd_oracle(code, x):
    """Independent exhaustive search over all 2^n_vars candidates."""
    n = code.n_vars
    xf = matrix_to_vector(code, x).astype(np.int64)
    target = syndrome(code, x, "w4")
    best = None
    best_key = None
    for bits in itertools.product([1, -1], repeat=n):
        w = np.array(bits, dtype=np.int64)
        m = vector_to_matrix(code, w.astype(np.int8))
        if not np.array_equal(syndrome(code, m, "w4"), target):
            continue
        weight = int(np.count_nonzero(w == -1))
        key = (weight, tuple(w))
        if best_key is None or key < best_key:
            best_key = key
            best = w
    return vector_to_matrix(code, (xf * best).astype(np.int8))


@pytest.mark.parametrize("K", [4, 5])
def test_mwd_matches_exhaustive_oracle(K):
    rng = np.random.default_rng(30 + K)
    code = build_code(K)
    for _ in range(12):
        x = random_spin_matrix(K, rng)
        assert np.array_equal(mwd_bruteforce(code, x), _mwd_oracle(code, x))


def test_mwd_output_is_codeword():
    rng = np.random.default_rng(33)
    code = build_code(6)
    from parity_decode import is_codeword

    for _ in range(10):
        x = random_spin_matrix(6, rng)
        z = mwd_bruteforce(code, x)
        assert is_codeword(code, z)
