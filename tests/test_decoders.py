import itertools
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from parity_decode import (
    AwgnParams,
    CapacityError,
    HamiltonianParams,
    InversionWeights,
    TiePolicy,
    all_one_matrix,
    awgn_observe,
    bf_decode,
    bf_step,
    bp_decode,
    build_code,
    check_matrix,
    codewords,
    count_errors,
    decoder_energy,
    encode,
    energy,
    flip_spin,
    hybrid_decode,
    inversion_function,
    inversion_profile,
    llr as awgn_llr,
    matrix_to_vector,
    mwd_bruteforce,
    random_spin_matrix,
    sample_iid_errors,
    syndrome,
    trial_seed,
    uniform_weights,
    vector_to_matrix,
)
from parity_decode.decoders import _bp_buffers, bf_sweep_batch


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


@pytest.mark.parametrize("iters, message", [
    (-1, "iters must be >= 0, got -1"),
    (1.5, "iters must be an integer, got 1.5"),
    (True, "iters must be an integer, got True"),
])
def test_bf_sweep_batch_refuses_bad_iters(iters, message):
    with pytest.raises(ValueError, match=message):
        bf_sweep_batch(np.ones((2, 3, 3), dtype=np.int8), iters)


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
    for bad in (math.nan, math.inf, -math.inf):
        J = np.r_[np.zeros(code.n_vars - 1), bad]
        for call in (lambda: decoder_energy("gdbf", code, x, J=J),
                     lambda: inversion_profile("mcmc", code, x, J=J),
                     lambda: inversion_function("wbf", code, x, 0, J=J),
                     lambda: energy(code, HamiltonianParams(beta=1.0, couplings=J), x)):
            with pytest.raises(ValueError, match="couplings must be finite"):
                call()
    J = np.linspace(-1, 1, code.n_vars)
    assert decoder_energy("gdbf", code, x, J=J.reshape(2, 5)) == decoder_energy(
        "gdbf", code, x, J=J)


@pytest.mark.parametrize("call, message", [
    (lambda code, x: inversion_function("bf", code, x, 10), "out of range"),
    (lambda code, x: inversion_function("bf", code, x, -1), "out of range"),
    (lambda code, x: inversion_profile("wbf", code, x, np.ones(10),
                                       InversionWeights(wk=np.ones(3)), "w4"), "wk length 3"),
    (lambda code, x: decoder_energy("wbf", code, x, np.ones(10),
                                    InversionWeights(wk=np.ones(3)), "w3"), "wk length 3"),
    (lambda code, x: inversion_function("bp", code, x, 0), "unknown inversion kind"),
    (lambda code, x: decoder_energy("bp", code, x), "unknown inversion kind"),
])
def test_inversion_functions_refuse_bad_arguments(call, message):
    code = build_code(5)
    with pytest.raises(ValueError, match=message):
        call(code, all_one_matrix(5))


@pytest.mark.parametrize("k", [-1, 10, 1.5, True, np.float64(2.0), "3"])
def test_flip_spin_and_inversion_function_refuse_a_bad_index(k):
    code = build_code(5)
    x = all_one_matrix(5)
    for call in (lambda: flip_spin(code, x, k), lambda: inversion_function("bf", code, x, k)):
        with pytest.raises(ValueError, match=r"variable index k=.* out of range \[0, 10\)"):
            call()


def test_flip_spin_validates_its_matrix():
    code = build_code(5)
    for bad in (np.zeros((5, 5)), all_one_matrix(4), -all_one_matrix(5)):
        with pytest.raises(ValueError, match="spin matrix"):
            flip_spin(code, bad, 0)
    x = all_one_matrix(5)
    for k in (0, np.int64(9)):
        out = flip_spin(code, x, k)
        i, j = code.edges[k]
        assert out.dtype == np.int8 and out[i, j] == out[j, i] == -1
        assert np.count_nonzero(out != x) == 2 and x.min() == 1  # a copy; x untouched


def _frozen_score_and_energy(kind, code, x, J, weights, family, reference):
    """The four score and four energy formulas as each kind wrote them
    out on its own, before all kinds shared one term rule: adjacent sums
    through the dense check matrix, energies through the check values."""
    fam = "w3" if kind == "bf" else family
    H = check_matrix(code, fam).astype(np.float64)
    xf = matrix_to_vector(code, x).astype(np.float64)
    s = syndrome(code, x, fam).astype(np.float64)
    rf = np.ones(code.n_vars) if reference is None else matrix_to_vector(code, reference)
    beta, gamma = weights.beta, weights.gamma
    if kind == "bf":
        return 1.0 + H.T @ s, -(xf * rf).sum() - s.sum()
    if kind == "wbf":
        wk = np.broadcast_to(np.asarray(weights.wk, dtype=np.float64), s.shape)
        return (beta * np.abs(J) + H.T @ (wk * s),
                -beta * (np.abs(J) * xf * rf).sum() - (wk * s).sum())
    if kind == "gdbf":
        return J * xf + H.T @ s, -(J * xf).sum() - s.sum()
    return (beta * J * xf + 0.5 * gamma * (H.T @ s),
            -beta * (J * xf).sum() + gamma * 0.5 * (1.0 - s).sum())


@pytest.mark.parametrize("K", range(2, 11))
def test_inversion_kinds_match_their_frozen_formulas(K):
    # every kind's scores and energy against the formulas written out
    # per kind: both families (bf always triangles), scalar and vector
    # wk, with and without a reference
    rng = np.random.default_rng(700 + K)
    code = build_code(K)
    for family, scalar_wk, with_reference in itertools.product(("w3", "w4"), (True, False),
                                                               (True, False)):
        n_checks = code.n_checks3 if family == "w3" else code.n_checks4
        x, reference = (random_spin_matrix(K, rng) for _ in range(2))
        J = rng.normal(0.0, 1.5, code.n_vars)
        weights = InversionWeights(
            w0=float(rng.uniform(0, 2)),
            wk=float(rng.uniform(0, 3)) if scalar_wk else rng.uniform(0, 3, n_checks),
            beta=float(rng.uniform(0, 3)),
            gamma=float(rng.uniform(0, 5)),
        )
        reference = reference if with_reference else None
        for kind in ("bf", "wbf", "gdbf", "mcmc"):
            score, e = _frozen_score_and_energy(kind, code, x, J, weights, family, reference)
            got = inversion_profile(kind, code, x, J, weights, family)
            np.testing.assert_allclose(got, score, rtol=1e-12, atol=1e-12, err_msg=kind)
            assert decoder_energy(kind, code, x, J, weights, family, reference) == pytest.approx(
                e, rel=1e-12, abs=1e-12), kind


@pytest.mark.parametrize("family", ["w3", "w4"])
def test_wbf_scalar_wk_equals_its_vector(family):
    rng = np.random.default_rng(4)
    code = build_code(6)
    x = random_spin_matrix(6, rng)
    J = rng.uniform(-1, 1, code.n_vars)
    n = code.n_checks3 if family == "w3" else code.n_checks4
    scalar = InversionWeights(wk=0.7, beta=1.3)
    vector = InversionWeights(wk=np.full(n, 0.7), beta=1.3)
    assert (inversion_profile("wbf", code, x, J, scalar, family).tobytes()
            == inversion_profile("wbf", code, x, J, vector, family).tobytes())
    assert (decoder_energy("wbf", code, x, J, scalar, family)
            == decoder_energy("wbf", code, x, J, vector, family))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("field", ["w0", "beta", "gamma", "wk", "wk entry"])
def test_inversion_weights_refuse_non_finite_and_negative(field, bad):
    # HamiltonianParams' rule: NaN passes a plain "< 0" test, so it is
    # refused explicitly, as are infinities and negative values
    if field == "wk entry":
        kwargs, name = {"wk": np.array([1.0, bad, 0.5])}, "wk"
    else:
        kwargs, name = {field: bad}, field
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        InversionWeights(**kwargs)
    InversionWeights(**{name: 0.0})  # zero is allowed


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


def test_bp_decode_refusals():
    # each bad argument is refused before any message is passed
    code = build_code(5)
    lam = np.ones(code.n_vars)
    x = all_one_matrix(5)
    cases = [
        (dict(channel_llr=lam, max_iters=0), r"max_iters must be >= 1"),
        (dict(), r"need either channel_llr or \(x, epsilon\)"),
        (dict(x=x), r"need either channel_llr or \(x, epsilon\)"),
        (dict(epsilon=0.1), r"need either channel_llr or \(x, epsilon\)"),
        (dict(channel_llr=lam[:-1]), r"channel_llr length 9 != n_vars 10"),
        (dict(channel_llr=np.ones(code.n_vars + 1)), r"channel_llr length 11 != n_vars 10"),
    ]
    for bad in (math.nan, math.inf, -math.inf):
        cases.append((dict(channel_llr=np.r_[lam[:-1], bad]), "non-finite"))
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            bp_decode(code, **kwargs)


def test_iteration_counts_must_be_integers():
    """bf_decode, bp_decode and hybrid_decode refuse a float, bool or
    other non-integer iteration count before their loop: BP's stop test
    `it == max_iters` never holds for 2.5, so on a readout it cannot
    decode (this K=21 one) it would never stop. Numpy integers run as
    ints."""
    code = build_code(21)
    x = sample_iid_errors(code, 0.35, trial_seed(5))
    target = all_one_matrix(21)
    assert not bp_decode(code, x=x, epsilon=0.35, max_iters=20, target=target).success
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    decodes = [
        ("max_iters", lambda n: bf_decode(code, x, max_iters=n, target=target).iterations),
        ("max_iters", lambda n: bp_decode(code, x=x, epsilon=0.35, max_iters=n,
                                          target=target).iterations),
        ("bf_max_iters", lambda n: hybrid_decode(code, params, 20, target, 3,
                                                 bf_max_iters=n)[1].decoded_any_codeword),
    ]
    for name, decode in decodes:
        for bad in (2.5, 3.0, np.float64(2.0), True, "3", None):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                decode(bad)
        assert decode(np.int64(3)) == decode(3)


def test_bp_llr_input_mode():
    code = build_code(5)
    z = encode(code, [1, -1, 1, 1, -1])
    zf = matrix_to_vector(code, z).astype(float)
    res = bp_decode(code, channel_llr=4.0 * zf, max_iters=5, target=z)
    assert res.success and res.iterations == 0


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_bp_zero_posterior_decides_plus_one(zero):
    # an exactly-zero posterior, +0.0 or -0.0, decides +1 with a target
    # and in codeword mode: on the table path (all-zero channel LLRs, one
    # magnitude) and on the general path (zeros beside two LLRs of other
    # magnitudes, so most posteriors stay exactly zero)
    for K in (3, 6, 21):
        code = build_code(K)
        away = encode(code, np.r_[1, -1, np.ones(K - 2, dtype=int)])  # never decided
        flat = np.full(code.n_vars, zero)
        for target in (None, all_one_matrix(K)):
            res = bp_decode(code, channel_llr=flat, max_iters=4, target=target, record=True)
            assert res.success and res.iterations == 0
            assert np.array_equal(res.final, all_one_matrix(K))
        res = bp_decode(code, channel_llr=flat, max_iters=4, target=away, record=True)
        assert not res.success and res.iterations == 4
        assert all(np.all(p == 0) for p in res.posteriors)
        assert np.array_equal(res.final, all_one_matrix(K))
        if K == 3:  # the one check's third member gets a message: no zero left
            continue
        mixed = flat.copy()
        mixed[:2] = 0.5, -0.25
        for target in (None, away):
            res = bp_decode(code, channel_llr=mixed, max_iters=2, target=target, record=True)
            last = res.posteriors[-1]
            assert (last == 0).any()
            assert np.all(matrix_to_vector(code, res.final)[last == 0] == 1)
            assert np.array_equal(matrix_to_vector(code, res.final), np.where(last < 0, -1, 1))


def test_bp_final_is_the_decision_of_the_last_posterior():
    # for seeded readouts at K = 2..12, +-c and Gaussian channel LLRs, with
    # a target and in codeword mode: one posterior per iteration after the
    # channel's, and `final` is the int8 sign of the last one (0 -> +1)
    params = AwgnParams(amplitude=1.0, sigma=0.9)
    for K in range(2, 13):
        code = build_code(K)
        rng = np.random.default_rng(K)
        for t in range(3):
            z = encode(code, rng.choice([-1, 1], size=K))
            x = z * sample_iid_errors(code, 0.2, trial_seed(61, K, t))
            gauss = awgn_llr(awgn_observe(z, params, trial_seed(62, K, t)), params)
            for lam in (2.0 * matrix_to_vector(code, x), gauss):
                for target in (z, None):
                    res = bp_decode(code, channel_llr=lam, max_iters=5, target=target,
                                    record=True)
                    assert len(res.posteriors) == res.iterations + 1
                    decision = np.where(res.posteriors[-1] >= 0, 1, -1).astype(np.int8)
                    assert res.final.dtype == np.int8
                    assert np.array_equal(res.final, vector_to_matrix(code, decision))


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


def _k40_bp_inputs(n):
    """n (Gaussian LLRs, (x, eps)) bp_decode argument pairs at K = 40 that
    decode for several iterations: noisy readouts of the all-one word."""
    code = build_code(40)
    params = AwgnParams(amplitude=1.0, sigma=1.0)
    inputs = []
    for t in range(n):
        e = sample_iid_errors(code, 0.3, trial_seed(31, t))
        theta = awgn_llr(awgn_observe(all_one_matrix(40), params, trial_seed(32, t)), params)
        inputs += [{"channel_llr": theta}, {"x": e, "epsilon": 0.3}]
    return code, inputs


def test_bp_decode_threads_share_no_buffers():
    # BP's message buffers are per thread: four threads decoding on one
    # code, each its own mix of inputs, repeat the serial results byte
    # for byte
    code, inputs = _k40_bp_inputs(4)
    serial = [bp_decode(code, max_iters=5, record=True, **kw) for kw in inputs]
    assert max(r.iterations for r in serial) >= 3
    orders = [list(range(k, len(inputs), 4)) + list(range((k + 1) % 4, len(inputs), 4))
              for k in range(4)]

    def work(order):
        return [bp_decode(code, max_iters=5, record=True, **inputs[i]) for i in order * 10]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, order) for order in orders]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for order, got in zip(orders, results):
        assert len(got) == 10 * len(order)
        for res, i in zip(got, order * 10):
            ref = serial[i]
            assert np.array_equal(res.final, ref.final)
            assert (res.success, res.converged, res.iterations) == (
                ref.success, ref.converged, ref.iterations)
            assert [p.tobytes() for p in res.posteriors] == [p.tobytes() for p in ref.posteriors]


def test_bp_work_arrays_are_built_per_thread():
    # each thread builds its own BP work arrays, layout and gather
    # included, on its first decode of a code: four fresh threads
    # decoding K = 21 and K = 40 readouts at once repeat the serial
    # results byte for byte and hold no array in common
    cases = []
    for K in (21, 40):
        code = build_code(K)
        for t in range(3):
            e = sample_iid_errors(code, 0.25, trial_seed(41, 10 * K + t))
            cases.append((code, {"x": e, "epsilon": 0.25}))
    serial = [bp_decode(code, max_iters=5, record=True, **kw) for code, kw in cases]
    assert max(r.iterations for r in serial) >= 2
    start = threading.Barrier(4)
    results, buffers = [None] * 4, [None] * 4

    def work(n):
        start.wait()
        order = cases[n % 2:] + cases[:n % 2]
        results[n] = [bp_decode(code, max_iters=5, record=True, **kw) for code, kw in order]
        buffers[n] = [_bp_buffers.get(build_code(K)) for K in (21, 40)]

    threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads) and None not in results
    for n, got in enumerate(results):
        for res, ref in zip(got, serial[n % 2:] + serial[:n % 2]):
            assert res.final.tobytes() == ref.final.tobytes() and res.iterations == ref.iterations
            assert [p.tobytes() for p in res.posteriors] == [p.tobytes() for p in ref.posteriors]
    arrays = [a for per_thread in buffers + [[_bp_buffers.get(build_code(K)) for K in (21, 40)]]
              for arrays_of_code in per_thread for a in arrays_of_code]
    assert len({id(a) for a in arrays}) == len(arrays)
    for a, b in itertools.combinations(arrays, 2):
        assert a is b.base or b is a.base or not np.shares_memory(a, b)


def test_bp_decode_makes_no_message_sized_temporary():
    # a warm K = 40 decode of 5 iterations, table path and plain loop,
    # peaks below one (3, C(40, 3)) float64 message array in traced memory
    code, inputs = _k40_bp_inputs(1)
    target = encode(code, np.repeat([1, -1], 20))  # unreachable: all 5 iterations run
    message_bytes = 3 * math.comb(40, 3) * 8
    for kw in inputs:
        assert bp_decode(code, max_iters=5, target=target, **kw).iterations == 5
        tracemalloc.start()
        try:
            bp_decode(code, max_iters=5, target=target, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < message_bytes, (sorted(kw), peak)


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
    code = build_code(25)
    with pytest.raises(CapacityError):
        mwd_bruteforce(code, all_one_matrix(25))
    with pytest.raises(CapacityError):  # refused before the input is validated
        mwd_bruteforce(code, np.zeros((3, 3)))


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


@pytest.mark.parametrize("K", [2, 3, 4, 5])
def test_mwd_matches_exhaustive_oracle(K):
    code = build_code(K)
    if K <= 4:  # every input
        xs = [vector_to_matrix(code, np.array(bits, dtype=np.int8))
              for bits in itertools.product([1, -1], repeat=code.n_vars)]
    else:
        rng = np.random.default_rng(30 + K)
        xs = [random_spin_matrix(K, rng) for _ in range(12)]
    for x in xs:
        assert np.array_equal(mwd_bruteforce(code, x), _mwd_oracle(code, x))


@pytest.mark.parametrize("K", [7, 8, 9, 10, 11, 12])
def test_mwd_is_nearest_codeword_with_minus_first_ties(K):
    """Up to K = 12, where this test lists and compares every codeword,
    the output is a codeword at the least distance from x, and among the
    codewords at that distance the one whose error pattern x o z sorts
    first (-1 < +1)."""
    rng = np.random.default_rng(40 + K)
    code = build_code(K)
    cands = codewords(code)
    ties = 0
    for _ in range(12):
        x = random_spin_matrix(K, rng)
        dist = np.array([count_errors(x, z) for z in cands])
        nearest = np.flatnonzero(dist == dist.min())
        ties += len(nearest) > 1
        best = min(nearest, key=lambda i: tuple(matrix_to_vector(code, x * cands[i])))
        got = mwd_bruteforce(code, x)
        assert count_errors(x, got) == dist.min()
        assert got.dtype == np.int8 and np.array_equal(got, cands[best])
    assert ties  # the tie rule is exercised


def test_mwd_corrects_three_flips_at_k21():
    """A K = 21 codeword with at most 3 flipped pairs decodes back to
    itself: two codewords differ on at least K - 1 = 20 pairs."""
    rng = np.random.default_rng(21)
    code = build_code(21)
    for flips in range(4):
        z = encode(code, rng.choice([-1, 1], 21))
        x = z.copy()
        for k in rng.choice(code.n_vars, flips, replace=False):
            x = flip_spin(code, x, k)
        assert np.array_equal(mwd_bruteforce(code, x), z)


def test_mwd_output_is_codeword():
    rng = np.random.default_rng(33)
    code = build_code(6)
    from parity_decode import is_codeword

    for _ in range(10):
        x = random_spin_matrix(6, rng)
        z = mwd_bruteforce(code, x)
        assert is_codeword(code, z)
