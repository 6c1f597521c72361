import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parity_decode import (
    AwgnParams,
    all_one_matrix,
    awgn_observe,
    build_code,
    encode,
    hard_decide,
    hard_decision_error_prob,
    llr,
    sample_iid_errors,
    trial_seed,
    vector_to_matrix,
)
from parity_decode.channels import (
    _iid_error_vector,
    _key_states,
    _seed_states,
    _state_seed_type,
    _streams,
    check_weight,
    pair_error_prob,
    reliability_weight,
    spawn_seeds,
)


def test_awgn_params_validation():
    p = AwgnParams(amplitude=1.0, sigma=0.5)
    assert p.beta == pytest.approx(2 * 1.0 / 0.25)
    with pytest.raises(ValueError):
        AwgnParams(amplitude=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        AwgnParams(amplitude=1.0, sigma=-1.0)


@pytest.mark.parametrize("amplitude, sigma, message", [
    (1.0, math.inf, "sigma must be finite, got inf"),
    (math.inf, 1.0, "amplitude must be finite, got inf"),
    (1e-300, 1e-300, r"reliability 2\*amplitude/sigma\^2 must be finite"),  # sigma^2 is 0
    (1e300, 1e-10, r"reliability 2\*amplitude/sigma\^2 must be finite"),  # 2a/sigma^2 is inf
])
def test_awgn_params_refuse_values_without_finite_readouts(amplitude, sigma, message):
    """A non-finite amplitude or sigma would make every readout +-inf,
    and a reliability beta that is not finite every LLR; both are
    refused at construction."""
    with pytest.raises(ValueError, match=message):
        AwgnParams(amplitude=amplitude, sigma=sigma)


def test_iid_errors_zero_eps():
    code = build_code(6)
    m = sample_iid_errors(code, 0.0, 1)
    assert np.array_equal(m, all_one_matrix(6))


def test_iid_errors_determinism_and_validity():
    code = build_code(8)
    a = sample_iid_errors(code, 0.3, 1234)
    b = sample_iid_errors(code, 0.3, 1234)
    c = sample_iid_errors(code, 0.3, 1235)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 1)


def test_iid_errors_rate_statistics():
    # empirical -1 fraction within 3 standard errors of epsilon
    code = build_code(40)
    eps = 0.3
    n_trials = 200
    total = flips = 0
    for t in range(n_trials):
        m = sample_iid_errors(code, eps, trial_seed(7, t))
        iu = np.triu_indices(40, 1)
        flips += int(np.count_nonzero(m[iu] == -1))
        total += code.n_vars
    rate = flips / total
    se = math.sqrt(eps * (1 - eps) / total)
    assert abs(rate - eps) < 3 * se


def test_iid_error_rows_match_sample_iid_errors():
    # bench_iid's chunk draw, one row per trial seed, equals the one-seed
    # sample_iid_errors trial by trial
    for K, eps in ((2, 0.5), (21, 0.1), (40, 0.3)):
        code = build_code(K)
        seeds = [trial_seed(3, 11, 0, 0, t, 0) for t in range(16)]
        rows = _iid_error_vector(code, eps, seeds)
        assert rows.dtype == np.int8 and rows.shape == (16, code.n_vars)
        for row, seed in zip(rows, seeds):
            assert np.array_equal(vector_to_matrix(code, row), sample_iid_errors(code, eps, seed))


WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(WORD, min_size=1, max_size=9), min_size=1, max_size=6))
@example([[0], [2**32 - 1] * 9, [0] * 4, [2**32 - 1, 0, 2**32 - 1, 0, 1]])
def test_batch_stream_kernel_matches_seed_sequence(rows):
    """The vectorised hash gives SeedSequence's PCG64 state for word rows
    of 1-9 words, each row alone and all rows as one zero-padded batch."""
    expected = np.array([np.random.SeedSequence(np.array(row, dtype=np.uint32))
                         .generate_state(4, np.uint64) for row in rows])
    counts = np.array([len(row) for row in rows])
    padded = np.zeros((len(rows), counts.max()), dtype=np.uint32)
    for r, row in enumerate(rows):
        padded[r, :len(row)] = row
        assert np.array_equal(_seed_states(np.array([row], dtype=np.uint32))[0], expected[r])
    batch = _seed_states(padded, counts)
    assert batch.dtype == np.uint64 and batch.flags.c_contiguous
    assert np.array_equal(batch, expected)


@pytest.mark.parametrize("keys", [
    [(3, 11, 0, 0, t, arm) for arm in range(2) for t in range(20)],  # a bench_iid unit
    [(0,), (2**32,), (2**40 + 5,), (2**64 + 3,)],
    # one batch whose rows need 3, 4, 6 and 6 words
    [(0, 0, 0), (2**32, 1, 0), (2**40 + 5, 2**64 + 3, 7), (3, 2**32, 2**64 + 3)],
    [(np.int64(5), np.uint64(2**63 + 1), np.uint8(0))],
])
def test_batch_streams_match_default_rng(keys):
    """Each batch stream is default_rng(trial_seed(*key)), draw for draw."""
    gens = _streams(_key_states(keys))
    assert len(gens) == len(keys)
    for key, gen in zip(keys, gens):
        assert np.array_equal(gen.random(780), np.random.default_rng(trial_seed(*key)).random(780))


def test_batch_streams_of_no_keys_and_of_an_empty_key():
    assert _key_states([]).shape == (0, 4) and _streams(_key_states([])) == []
    assert np.array_equal(_key_states([()])[0],
                          np.random.SeedSequence([]).generate_state(4, np.uint64))


@pytest.mark.parametrize("keys", [[(1, -1)], [(0, 5), (-(2**40), 5)], [(2**64, 0), (2, -3)]])
def test_batch_streams_refuse_a_negative_key_part(keys):
    """Refused as SeedSequence refuses it, not wrapped to 2**32 - 1."""
    for key in keys:
        if min(key) < 0:
            with pytest.raises(ValueError, match="expected non-negative integer"):
                trial_seed(*key)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _key_states(keys)


def test_batch_stream_seed_serves_only_pcg64_state():
    seed = _state_seed_type()(_key_states([(1, 2)])[0])
    assert seed.generate_state(4, np.uint64) is seed.state
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="four uint64 state words"):
            seed.generate_state(n_words, dtype)


def test_iid_errors_epsilon_range():
    code = build_code(4)
    with pytest.raises(ValueError):
        sample_iid_errors(code, -0.1, 0)
    with pytest.raises(ValueError):
        sample_iid_errors(code, 1.0, 0)


def test_awgn_noiseless_limit():
    code = build_code(6)
    z = encode(code, [1, -1, 1, -1, 1, 1])
    params = AwgnParams(amplitude=1.0, sigma=1e-9)
    y = awgn_observe(z, params, 3)
    assert np.array_equal(hard_decide(y), z)


@pytest.mark.parametrize("K", [2, 3, 7, 12])
def test_awgn_observe_reads_pairs_in_upper_triangle_order(K):
    # one Gaussian draw per pair, pairs in row-major upper-triangle order
    z = encode(build_code(K), np.where(np.arange(K) % 3 == 0, -1, 1))
    params = AwgnParams(amplitude=1.5, sigma=0.7)
    noise = np.random.default_rng(trial_seed(5, K)).normal(0.0, 0.7, size=K * (K - 1) // 2)
    want = 1.5 * z[np.triu_indices(K, 1)].astype(np.float64) + noise
    assert awgn_observe(z, params, trial_seed(5, K)).tobytes() == want.tobytes()


def test_awgn_observe_refuses_k1():
    # K = 1 has no pairs: nothing to observe, and no code to decode with
    with pytest.raises(ValueError, match="K"):
        awgn_observe(np.ones((1, 1), dtype=np.int8), AwgnParams(1.0, 1.0), 0)


def test_awgn_flip_rate_matches_gaussian_tail():
    code = build_code(12)
    z = all_one_matrix(12)
    params = AwgnParams(amplitude=1.0, sigma=1.25)
    flips = total = 0
    for t in range(300):
        y = awgn_observe(z, params, trial_seed(11, t))
        x = hard_decide(y)
        iu = np.triu_indices(12, 1)
        flips += int(np.count_nonzero(x[iu] == -1))
        total += code.n_vars
    expected = 0.5 * math.erfc((params.amplitude / params.sigma) / math.sqrt(2))
    se = math.sqrt(expected * (1 - expected) / total)
    assert abs(flips / total - expected) < 4 * se


def test_awgn_mean_recovers_signal():
    code = build_code(5)
    z = encode(code, [1, 1, -1, 1, -1])
    params = AwgnParams(amplitude=2.0, sigma=1.0)
    acc = np.zeros(code.n_vars)
    n = 4000
    for t in range(n):
        acc += awgn_observe(z, params, trial_seed(13, t))
    mean = acc / n
    zf = z[np.triu_indices(5, 1)]
    assert np.all(np.abs(mean - params.amplitude * zf) < 5 * params.sigma / math.sqrt(n))


def test_llr_scaling_and_uncertainty():
    params = AwgnParams(amplitude=1.0, sigma=1.0)  # beta = 2
    theta = llr(np.array([0.0, 1.5]), params)
    assert theta[0] == 0.0
    assert theta[1] == pytest.approx(3.0)
    gam = hard_decision_error_prob(theta)
    assert gam[0] == pytest.approx(0.5)
    assert gam[1] == pytest.approx(1 / (1 + math.exp(3.0)))


def test_llr_error_prob_calibration():
    # binned empirical flip frequency matches 1/(1+exp(|theta|))
    code = build_code(14)
    z = all_one_matrix(14)
    params = AwgnParams(amplitude=1.0, sigma=1.0)
    thetas = []
    errs = []
    for t in range(400):
        y = awgn_observe(z, params, trial_seed(17, t))
        th = llr(y, params)
        thetas.append(np.abs(th))
        errs.append(np.sign(th) < 0)
    thetas = np.concatenate(thetas)
    errs = np.concatenate(errs)
    for lo, hi in [(0.0, 1.0), (1.0, 2.0), (2.0, 3.5)]:
        mask = (thetas >= lo) & (thetas < hi)
        n = int(mask.sum())
        assert n > 200
        expected = hard_decision_error_prob(thetas[mask]).mean()
        observed = errs[mask].mean()
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) < 5 * se


def test_hard_decide_sign_conventions():
    rng = np.random.default_rng(23)
    y = rng.normal(size=15)  # C(6,2)
    m = hard_decide(y)
    iu = np.triu_indices(6, 1)
    assert np.array_equal(m[iu], np.where(y >= 0, 1, -1))
    # zero maps to +1
    y0 = np.zeros(15)
    assert np.all(hard_decide(y0) == 1)
    # sign symmetry off-diagonal
    flipped = hard_decide(-y)
    nonzero = y != 0
    assert np.array_equal(flipped[iu][nonzero], -m[iu][nonzero])


@pytest.mark.parametrize("y, code, message", [
    (np.zeros(9), build_code(5), "!= n_vars 10"),
    (np.zeros(7), None, "not a pair count"),
    (np.r_[np.zeros(9), np.nan], build_code(5), "observation contains non-finite entries"),
    (np.r_[np.nan, np.zeros(9)], None, "observation contains non-finite entries"),
    (np.zeros(0), None, r"length 0 is not a pair count C\(K,2\)"),
    (np.ones((6, 6)), None, r"1-D edge vector, got shape \(6, 6\)"),
    (np.ones((6, 6)), build_code(9), r"1-D edge vector, got shape \(6, 6\)"),
])
def test_hard_decide_refuses_bad_lengths(y, code, message):
    with pytest.raises(ValueError, match=message):
        hard_decide(y, code)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_llr_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        llr(np.array([0.5, bad, -1.0]), AwgnParams(amplitude=1.0, sigma=0.5))


@pytest.mark.parametrize("p", [0.0, 0.5, 0.9, -0.1])
def test_check_weight_refuses_out_of_range(p):
    with pytest.raises(ValueError, match="check error probability"):
        check_weight(p)


def test_crosstalk_helpers():
    assert reliability_weight(0.25) == pytest.approx(math.log(3))
    p = pair_error_prob(0.25, 0.25)
    assert p == pytest.approx(0.5 * (1 - 0.25))
    assert check_weight(p) == pytest.approx(math.log((1 - p) / p))
    # flip rates live strictly inside (0, 1/2)
    for bad in (0.0, 0.5, 0.7, 1.0):
        with pytest.raises(ValueError):
            reliability_weight(bad)


def test_iid_errors_exchangeable_across_edges():
    # no edge position is biased by the stream layout
    code = build_code(8)
    eps = 0.3
    n = 3000
    counts = np.zeros(code.n_vars)
    iu = np.triu_indices(8, 1)
    for t in range(n):
        m = sample_iid_errors(code, eps, trial_seed(29, t))
        counts += m[iu] == -1
    se = math.sqrt(eps * (1 - eps) / n)
    assert np.all(np.abs(counts / n - eps) < 4.5 * se)


def test_spawned_streams_are_independent():
    seeds = spawn_seeds(99, 4)
    code = build_code(6)
    mats = [sample_iid_errors(code, 0.4, s) for s in seeds]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(mats[i], mats[j])
