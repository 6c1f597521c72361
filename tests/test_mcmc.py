import json
import math
import tracemalloc

import numpy as np
import pytest

from parity_decode import (
    HamiltonianParams,
    InversionWeights,
    ProblemInstance,
    all_one_matrix,
    average_error_matrix,
    bf_decode,
    boltzmann_distribution,
    build_code,
    codewords,
    count_errors,
    decoder_energy,
    encode,
    energy,
    gen_instance,
    hybrid_decode,
    inversion_function,
    inversion_profile,
    landscape,
    mcmc_decode,
    random_spin_matrix,
    rejection_free_step,
    sample_iid_errors,
    syndrome,
    trajectory_demo,
    trial_seed,
    vector_to_matrix,
    visit_distribution,
)
from parity_decode.mcmc import _Chain, _run_lockstep
from parity_decode.code import matrix_to_vector


def test_params_validation():
    with pytest.raises(ValueError):
        HamiltonianParams(beta=-1.0)
    with pytest.raises(ValueError):
        HamiltonianParams(gamma=math.inf)
    with pytest.raises(ValueError):
        HamiltonianParams(family="w5")
    code = build_code(4)
    with pytest.raises(ValueError):
        # beta > 0 without couplings
        energy(code, HamiltonianParams(beta=1.0, gamma=1.0), all_one_matrix(4))


def test_params_keep_a_read_only_copy_of_the_couplings():
    # writing a NaN into the caller's array after construction leaves the
    # params' couplings, and the energy built from them, unchanged
    code = build_code(5)
    J = np.linspace(-0.25, 0.25, 10)
    params = HamiltonianParams(beta=1.0, gamma=1.0, couplings=J, family="w3")
    before = energy(code, params, all_one_matrix(5))
    J[:] = np.nan
    assert np.array_equal(params.couplings, np.linspace(-0.25, 0.25, 10))
    assert energy(code, params, all_one_matrix(5)) == before
    with pytest.raises(ValueError, match="read-only"):
        params.couplings[0] = 0.0
    # a 2-D or integer source is kept flat, as float64
    kept = HamiltonianParams(couplings=np.arange(10).reshape(2, 5)).couplings
    assert kept.shape == (10,) and kept.dtype == np.float64


def test_records_holding_arrays_compare_and_hash_by_identity():
    # equal arrays have no one truth value: each record is its own key
    J = np.linspace(-0.5, 0.5, 6)
    pairs = [
        (HamiltonianParams(1.0, 1.0, J), HamiltonianParams(1.0, 1.0, J.copy())),
        (HamiltonianParams(0.0, 1.0), HamiltonianParams(0.0, 1.0)),
        (gen_instance(4, 1), gen_instance(4, 1)),
        (InversionWeights(wk=np.ones(3)), InversionWeights(wk=np.ones(3))),
        tuple(mcmc_decode(build_code(4), HamiltonianParams(0.0, 1.0, family="w3"), 5,
                          all_one_matrix(4), 1)[1] for _ in range(2)),
        tuple(bf_decode(build_code(5), sample_iid_errors(build_code(5), 0.3, 1),
                        target=all_one_matrix(5)) for _ in range(2)),
        tuple(trajectory_demo({"kind": "iid", "K": 5, "epsilon": 0.2}) for _ in range(2)),
    ]
    for a, b in pairs:
        assert a == a and not a == b and a != b
        assert {a, b, a} == {a, b} and len({a, b}) == 2
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)


def test_energy_of_codeword_penalty_only():
    code = build_code(6)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    for z in codewords(code)[:8]:
        assert energy(code, params, z) == 0.0


def test_energy_single_error_counts_checks():
    # one flipped pair violates K-2 triangle checks, each contributing gamma
    for K in (4, 6, 9):
        code = build_code(K)
        params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
        x = all_one_matrix(K)
        x[0, 1] = x[1, 0] = -1
        assert energy(code, params, x) == K - 2


def test_energy_matches_termwise_oracle():
    rng = np.random.default_rng(3)
    for K in (4, 5, 7):
        code = build_code(K)
        J = rng.uniform(-0.5, 0.5, code.n_vars)
        for family in ("w3", "w4"):
            params = HamiltonianParams(beta=1.3, gamma=0.7, couplings=J, family=family)
            for _ in range(10):
                x = random_spin_matrix(K, rng)
                xf = matrix_to_vector(code, x).astype(float)
                s = syndrome(code, x, family).astype(float)
                expected = -1.3 * float(np.dot(J, xf)) + 0.7 * float(((1 - s) / 2).sum())
                assert energy(code, params, x) == pytest.approx(expected, rel=1e-12)


def test_penalty_zero_iff_codeword_exhaustive_k4():
    import itertools

    code = build_code(4)
    from parity_decode import is_codeword

    for family in ("w3", "w4"):
        params = HamiltonianParams(beta=0.0, gamma=1.0, family=family)
        n_zero = 0
        for bits in itertools.product([1, -1], repeat=6):
            x = vector_to_matrix(code, np.array(bits, dtype=np.int8))
            e = energy(code, params, x)
            assert e >= 0.0
            if e == 0.0:
                n_zero += 1
                assert is_codeword(code, x)
        assert n_zero == 8  # exactly the 2^(K-1) codewords


def test_penalty_nonnegative_zero_iff_codeword():
    rng = np.random.default_rng(5)
    for K in (4, 5, 6):
        code = build_code(K)
        for family in ("w3", "w4"):
            params = HamiltonianParams(beta=0.0, gamma=1.0, family=family)
            for z in codewords(code):
                assert energy(code, params, z) == 0.0
            for _ in range(30):
                x = random_spin_matrix(K, rng)
                e = energy(code, params, x)
                assert e >= 0.0
                from parity_decode import is_codeword

                assert (e == 0.0) == is_codeword(code, x)


def test_flip_energy_matches_inversion_score():
    # full energy re-evaluation vs twice the sampling score, both families
    rng = np.random.default_rng(7)
    from parity_decode import InversionWeights, flip_spin

    for _ in range(200):
        K = int(rng.integers(3, 9))
        code = build_code(K)
        J = rng.uniform(-1, 1, code.n_vars)
        family = ("w3", "w4")[int(rng.integers(2))]
        beta = float(rng.uniform(0, 2))
        gamma = float(rng.uniform(0, 2))
        params = HamiltonianParams(beta=beta, gamma=gamma, couplings=J, family=family)
        weights = InversionWeights(beta=beta, gamma=gamma)
        x = random_spin_matrix(K, rng)
        k = int(rng.integers(code.n_vars))
        delta = inversion_function("mcmc", code, x, k, J=J, weights=weights, family=family)
        dh = energy(code, params, flip_spin(code, x, k)) - energy(code, params, x)
        assert dh == pytest.approx(2 * delta, rel=1e-12, abs=1e-12)


def test_rejection_free_step_flips_exactly_one_pair():
    rng = np.random.default_rng(9)
    code = build_code(6)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w4")
    x = random_spin_matrix(6, rng)
    for _ in range(20):
        y, rate = rejection_free_step(code, params, x, rng)
        assert count_errors(x, y) == 1
        assert rate > 0
        x = y


def test_chain_never_self_loops():
    code = build_code(5)
    inst_rng = np.random.default_rng(11)
    J = inst_rng.uniform(-0.25, 0.25, code.n_vars)
    params = HamiltonianParams(beta=2.0, gamma=1.0, couplings=J, family="w4")
    ok, run = mcmc_decode(code, params, 300, all_one_matrix(5), 13)
    prev = matrix_to_vector(code, run.initial)
    for m in run.samples:
        cur = matrix_to_vector(code, m)
        assert int(np.count_nonzero(cur != prev)) == 1
        prev = cur


def test_uniform_case_flip_distribution():
    # beta = gamma = 0: all flips equally likely
    code = build_code(6)
    params = HamiltonianParams(beta=0.0, gamma=0.0, family="w4")
    counts = np.zeros(code.n_vars)
    rng = np.random.default_rng(17)
    x = random_spin_matrix(6, rng)
    chain = _Chain(code, params, matrix_to_vector(code, x))
    n = 30000
    for _ in range(n):
        k, _, entries = chain.advance([rng.random()])
        rate = entries[0][3]
        counts[k] += 1
        assert rate == pytest.approx(code.n_vars)
    expected = n / code.n_vars
    sigma = math.sqrt(n * (1 / code.n_vars) * (1 - 1 / code.n_vars))
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_high_gamma_confined_to_manifold_shell():
    # from a codeword with a huge penalty, moves that would pile up
    # violated checks have weight ~ exp(-gamma) and are never taken: the
    # chain walks the codeword manifold through single-defect states
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1000.0, family="w4")
    z = encode(code, [1, -1, 1, 1, -1])
    ok, run = mcmc_decode(code, params, 300, z, 19, initial=z)
    n_unsat = [
        int(np.count_nonzero(syndrome(code, m, "w4") == -1)) for m in run.samples
    ]
    assert max(n_unsat) <= 1
    # it reaches codewords other than the start along the way
    from parity_decode import is_codeword

    others = sum(
        1 for m in run.samples if is_codeword(code, m) and count_errors(m, z) > 0
    )
    assert others > 0


def test_incremental_energy_consistency():
    code = build_code(7)
    rng = np.random.default_rng(23)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    params = HamiltonianParams(beta=1.5, gamma=0.8, couplings=J, family="w4")
    ok, run = mcmc_decode(code, params, 500, all_one_matrix(7), 29)
    for idx in (0, 99, 499):
        assert run.energies[idx] == pytest.approx(
            energy(code, params, run.samples[idx]), abs=1e-9
        )


def test_mcmc_decode_immediate_hit():
    code = build_code(5)
    z = encode(code, [1, 1, -1, 1, -1])
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w4")
    ok, run = mcmc_decode(code, params, 10, z, 31, initial=z)
    assert ok and run.target_hit == 0
    assert run.first_codeword == 0
    assert len(run.samples) == 10


def test_mcmc_decode_reproducible():
    code = build_code(6)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    a_ok, a = mcmc_decode(code, params, 50, all_one_matrix(6), trial_seed(3, 1))
    b_ok, b = mcmc_decode(code, params, 50, all_one_matrix(6), trial_seed(3, 1))
    assert a_ok == b_ok
    assert all(np.array_equal(x, y) for x, y in zip(a.samples, b.samples))
    assert np.array_equal(a.energies, b.energies)


def test_boltzmann_visit_distribution_small():
    # K=4, fixed couplings: holding-time-weighted occupancy matches the
    # exact Boltzmann distribution
    code = build_code(4)
    rng = np.random.default_rng(37)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    params = HamiltonianParams(beta=1.0, gamma=1.0, couplings=J, family="w4")
    exact = boltzmann_distribution(code, params)
    emp = visit_distribution(code, params, steps=120_000, burn_in=5_000, seed=41)
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - emp.get(k, 0.0)) for k in set(exact) | set(emp))
    assert tv < 0.05


@pytest.mark.parametrize("name, value, message", [
    ("steps", 2.5, "steps must be an integer"),
    ("steps", True, "steps must be an integer"),
    ("steps", -3, "steps must be >= 0"),
    ("burn_in", -1, "burn_in must be >= 0"),
    ("burn_in", 1.5, "burn_in must be an integer"),
])
def test_visit_distribution_refuses_bad_counts(name, value, message):
    code = build_code(4)
    args = {"steps": 20, "burn_in": 2, name: value}
    with pytest.raises(ValueError, match=message):
        visit_distribution(code, HamiltonianParams(), seed=1, **args)


def test_visit_distribution_finite_when_escape_rates_underflow():
    # gamma = 1000 from a codeword: exp(shift) underflows, so recorded
    # escape rates are exactly 0; the holding-time weights must not
    # overflow to inf and normalize to NaN
    code = build_code(5)
    z = encode(code, np.array([1, -1, 1, 1, -1]))
    params = HamiltonianParams(beta=0.0, gamma=1000.0, family="w4")
    _, run = mcmc_decode(code, params, 200, z, 19, initial=z)
    assert np.count_nonzero(run.escape_rates == 0.0) > 0
    emp = visit_distribution(code, params, steps=2000, burn_in=0, seed=3, initial=z)
    vals = np.array(list(emp.values()))
    assert len(vals) > 1 and np.all(np.isfinite(vals)) and np.all(vals >= 0)
    assert math.isclose(vals.sum(), 1.0, rel_tol=1e-12)
    assert visit_distribution(code, params, steps=5, burn_in=5, seed=3) == {}


def test_hybrid_dominates_matched_chains():
    code = build_code(8)
    rng = np.random.default_rng(43)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    Z = rng.choice([-1, 1], size=8)
    target = encode(code, Z)
    budget = 4 * code.n_vars
    for gamma in (0.0, 0.5, 1.0):
        params = HamiltonianParams(beta=2.0, gamma=gamma, couplings=J, family="w4")
        for t in range(8):
            seed = trial_seed(47, int(gamma * 10), t)
            m_ok, m_run = mcmc_decode(code, params, budget, target, seed)
            h_ok, h_run = hybrid_decode(code, params, budget, target, seed)
            # same chain, so sampling success implies hybrid success
            assert h_ok >= m_ok
            assert m_run.target_hit == h_run.target_hit
            if m_run.target_hit is not None:
                assert h_run.decoded_target_hit is not None
                assert h_run.decoded_target_hit <= m_run.target_hit


def test_hybrid_equals_mcmc_at_huge_gamma():
    # penalty strong enough that samples are (near) codewords: the BF
    # stage has nothing to fix, so decoded hits equal raw hits
    code = build_code(6)
    rng = np.random.default_rng(53)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    Z = rng.choice([-1, 1], size=6)
    target = encode(code, Z)
    params = HamiltonianParams(beta=1.0, gamma=1000.0, couplings=J, family="w4")
    agree = 0
    for t in range(10):
        seed = trial_seed(59, t)
        m_ok, _ = mcmc_decode(code, params, 120, target, seed, initial=target)
        h_ok, _ = hybrid_decode(code, params, 120, target, seed, initial=target)
        agree += m_ok == h_ok
    assert agree >= 9


def test_chain_records_keep_the_budget_as_a_python_int():
    # a numpy integer budget is recorded as the int _check_count returns,
    # and a numpy integer seed as the int it equals, so the record
    # serialises; a generator or seed sequence seed stays as given
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    target = all_one_matrix(5)
    for decode in (mcmc_decode, hybrid_decode):
        _, run = decode(code, params, np.int64(20), target, 1)
        assert type(run.budget) is int and run.budget == 20
        assert json.dumps({"budget": run.budget}) == '{"budget": 20}'
        _, run_np = decode(code, params, 20, target, np.int64(1))
        assert type(run_np.seed) is int and run_np.seed == 1
        assert json.dumps({"seed": run_np.seed}) == '{"seed": 1}'
        assert np.array_equal(run_np.final_f, run.final_f)
        for seed in (np.random.default_rng(1), np.random.SeedSequence(1), None):
            assert decode(code, params, 20, target, seed)[1].seed is seed


def test_average_error_matrix_checks_the_size_of_z():
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    _, run = mcmc_decode(code, params, 20, all_one_matrix(5), 1)
    assert average_error_matrix(run, all_one_matrix(5)).shape == (5, 5)
    for z in ([[1]], all_one_matrix(4), all_one_matrix(6)):
        with pytest.raises(ValueError, match="expected 5"):
            average_error_matrix(run, z)


@pytest.mark.parametrize("iters", [0, -3])
def test_hybrid_refuses_fewer_than_one_bf_iteration(monkeypatch, iters):
    # zero sweeps would make the hybrid plain sampling under its name
    from parity_decode import mcmc

    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(mcmc, "_run_chain", no_chain)
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    with pytest.raises(ValueError, match="bf_max_iters"):
        hybrid_decode(code, params, 20, all_one_matrix(5), 1, bf_max_iters=iters)


def test_chain_drivers_refuse_zero_budget():
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    for decode in (mcmc_decode, hybrid_decode):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            decode(code, params, 0, all_one_matrix(5), 1)
        for budget in (20.5, 20.0, True):
            with pytest.raises(ValueError, match="budget must be an integer"):
                decode(code, params, budget, all_one_matrix(5), 1)


def test_hybrid_memory_does_not_grow_with_states():
    """Without stored samples the hybrid holds one block of visited states:
    between two budgets its traced peak grows by the per-step energy and
    escape rate (16 bytes), not by a K = 14 state per step (91 bytes)."""
    inst = gen_instance(14, 0)
    code = build_code(14)
    target = encode(code, inst.ground_state)
    params = HamiltonianParams(beta=3.0, gamma=4.0, couplings=inst.couplings, family="w4")
    hybrid_decode(code, params, 50, target, 1, store_samples=False)  # warm caches
    peaks = []
    for budget in (4_000, 24_000):
        tracemalloc.start()
        try:
            hybrid_decode(code, params, budget, target, 1, store_samples=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 20_000 < 32


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_target_hit_memory_does_not_grow_with_budget():
    """The first-hit driver keeps no per-step record: with no target its
    traced peak at budget 20 000 is within 8 KB of its peak at 2 000 (the
    weight memo fills up to STATE_MEMO states), while _run_chain on the
    same inputs holds its 16 bytes of energy and escape rate per step
    on top. The budgets are small because tracing slows a step 10-30x."""
    from parity_decode import mcmc

    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1000.0, family="w3")
    mcmc._first_target_hit(code, params, 50, 1, None, None)  # warm caches
    first = [_traced_peak(lambda: mcmc._first_target_hit(code, params, budget, 1, None, None))
             for budget in (2_000, 20_000)]
    full = _traced_peak(lambda: mcmc._run_chain(code, params, 20_000, 1, None, None, False))
    assert first[1] - first[0] < 8192
    assert full - first[1] >= 16 * 20_000


def test_hybrid_stage_decodes_new_states_only(monkeypatch):
    """Without stored samples the BF stage decodes the states whose weight
    memo entry the chain builds, and the final state, not every visited
    state: on a K = 14 (3, 4) chain whose decoded target never comes, so
    every block is decoded, at most (memo misses + blocks) rows, under
    35% of the budget + 1 the stage decoded before."""
    from parity_decode import mcmc

    inst = gen_instance(14, 0)
    code = build_code(14)
    target = encode(code, inst.ground_state)
    params = HamiltonianParams(beta=3.0, gamma=4.0, couplings=inst.couplings, family="w4")
    budget, seed = 20_000, trial_seed(0, 31, 0, 1)
    rows, built = [], []  # rows decoded per BF call, memo misses per block
    sweep, advance = mcmc.bf_sweep_batch, mcmc._Chain.advance

    def counting_sweep(stack, iters):
        rows.append(len(stack))
        return sweep(stack, iters)

    def counting_advance(chain, us, states=None, schedule=None, misses=None):
        misses = {} if misses is None else misses
        before = len(misses)
        out = advance(chain, us, states, schedule, misses)
        built.append(len(misses) - before)
        return out

    monkeypatch.setattr(mcmc, "bf_sweep_batch", counting_sweep)
    monkeypatch.setattr(mcmc._Chain, "advance", counting_advance)
    ok, run = hybrid_decode(code, params, budget, target, seed, store_samples=False)
    monkeypatch.undo()
    blocks = -(-budget // mcmc.UNIFORM_BLOCK)
    assert not ok and run.decoded_target_hit is None and len(built) == blocks
    assert sum(rows) <= sum(built) + blocks
    assert sum(rows) < 0.35 * (budget + 1)
    _, stored = hybrid_decode(code, params, budget, target, seed)
    assert (run.decoded_target_hit, run.decoded_any_codeword) == (
        stored.decoded_target_hit, stored.decoded_any_codeword)


def test_average_error_matrix():
    code = build_code(4)
    z = encode(code, [1, -1, 1, -1])
    params = HamiltonianParams(beta=0.0, gamma=0.5, family="w4")
    ok, run = mcmc_decode(code, params, 60, z, 61)
    avg = average_error_matrix(run, z)
    assert np.all(np.diag(avg) == 1.0)
    assert np.all(avg <= 1.0) and np.all(avg >= -1.0)
    # independent per-entry oracle
    acc = np.zeros((4, 4))
    for m in run.samples:
        acc += m * z
    assert np.array_equal(avg, acc / len(run.samples))  # sums of +-1 are exact
    # all samples equal z -> all-one matrix
    ok2, run2 = mcmc_decode(code, HamiltonianParams(beta=0.0, gamma=1000.0, family="w4"),
                            5, z, 67, initial=z)
    run2.samples = [z] * 5
    assert np.array_equal(average_error_matrix(run2, z), np.ones((4, 4)))


def test_annealing_schedule_hook():
    from parity_decode import linear_schedule

    code = build_code(6)
    rng = np.random.default_rng(83)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    params = HamiltonianParams(beta=0.0, gamma=0.0, couplings=J, family="w4")
    ramp = linear_schedule((0.0, 3.0), (0.0, 3.0))
    assert ramp(0, 100) == (0.0, 0.0)
    assert ramp(99, 100) == (3.0, 3.0)
    ok1, run1 = mcmc_decode(code, params, 200, all_one_matrix(6), 89, schedule=ramp)
    ok2, run2 = mcmc_decode(code, params, 200, all_one_matrix(6), 89, schedule=ramp)
    assert np.array_equal(run1.energies, run2.energies)  # deterministic
    # fixed parameters differ from the annealed run
    ok3, run3 = mcmc_decode(code, params, 200, all_one_matrix(6), 89)
    assert not np.array_equal(run1.energies, run3.energies)
    # annealing toward a strong penalty drives the violation count down
    s_end = syndrome(code, run1.samples[-1], "w4")
    s_start = syndrome(code, run1.samples[10], "w4")
    assert np.count_nonzero(s_end == -1) <= np.count_nonzero(s_start == -1) + 1


@pytest.mark.parametrize("K", [3, 4, 5, 6])
def test_target_hit_after_a_parameter_change_is_the_first_stored_visit(K):
    """The chain finds the target by its state key, whose base (the
    initial state) must survive the (beta, gamma) change at step 1: each
    target here is 1-3 flips from the initial state and first visited
    after that change."""
    code = build_code(K)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w4")
    switch = lambda step, budget: (0.0, 1.0) if step < 1 else (0.0, 0.5)
    for seed in range(6):
        logical = np.random.default_rng(seed).choice([-1, 1], K)
        initial = matrix_to_vector(code, encode(code, logical))
        _, free = mcmc_decode(code, params, 300, None, seed, initial=initial, schedule=switch)
        stack = np.array([initial] + [matrix_to_vector(code, m) for m in free.samples])
        dist = np.count_nonzero(stack != initial, axis=1)
        # the first stack row 1-3 flips away that is neither of the first two
        hit = next(t for t in range(2, len(stack)) if 1 <= dist[t] <= 3
                   and not (stack[:2] == stack[t]).all(axis=1).any())
        _, run = mcmc_decode(code, params, 300, vector_to_matrix(code, stack[hit]), seed,
                             initial=initial, schedule=switch)
        assert run.target_hit == hit


@pytest.mark.parametrize("decode", [mcmc_decode, hybrid_decode])
def test_initial_edge_vector_is_checked_and_runs_as_its_matrix(decode):
    code = build_code(5)
    params = HamiltonianParams(gamma=1.0)
    z = all_one_matrix(5)
    x = random_spin_matrix(5, np.random.default_rng(2))
    _, by_matrix = decode(code, params, 20, z, 7, initial=x)
    _, by_vector = decode(code, params, 20, z, 7, initial=matrix_to_vector(code, x).tolist())
    assert by_matrix.energies.tobytes() == by_vector.energies.tobytes()
    assert by_vector.initial_f.dtype == np.int8
    for bad in (np.ones(9), np.zeros(10), np.full(10, 2)):
        with pytest.raises(ValueError, match="initial edge vector"):
            decode(code, params, 20, z, 7, initial=bad)
    with pytest.raises(ValueError, match="initial edge vector"):
        visit_distribution(code, params, 20, 0, 7, initial=np.ones(9))


def test_boltzmann_distribution_refuses_over_limit():
    code = build_code(5)  # 2^10 states
    with pytest.raises(ValueError, match="exceeds limit"):
        boltzmann_distribution(code, HamiltonianParams(), limit=1023)
    assert len(boltzmann_distribution(code, HamiltonianParams(), limit=1024)) == 1024


def test_stream_to_csv(tmp_path):
    from parity_decode import pack_state_hex, unpack_state_hex

    code = build_code(6)
    rng = np.random.default_rng(73)
    J = rng.uniform(-0.25, 0.25, code.n_vars)
    params = HamiltonianParams(beta=1.0, gamma=0.8, couplings=J, family="w4")
    path = tmp_path / "run.csv"
    ok, run = mcmc_decode(code, params, 40, all_one_matrix(6), 79,
                          store_samples=True, stream_to=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample,energy,state_hex"
    assert len(lines) == 42  # header + initial + 40 steps
    # rows reproduce the in-memory samples and energies exactly
    idx, e_text, hex_text = lines[1].split(",")
    assert idx == "0"
    assert np.array_equal(
        unpack_state_hex(hex_text, code.n_vars),
        matrix_to_vector(code, run.initial),
    )
    for t in (1, 17, 40):
        idx, e_text, hex_text = lines[1 + t].split(",")
        assert int(idx) == t
        assert float(e_text) == run.energies[t - 1]
        assert np.array_equal(
            unpack_state_hex(hex_text, code.n_vars),
            matrix_to_vector(code, run.samples[t - 1]),
        )
    # pack/unpack round-trip
    xf = matrix_to_vector(code, run.samples[-1])
    assert np.array_equal(unpack_state_hex(pack_state_hex(xf), code.n_vars), xf)


def test_unpack_state_hex_refuses_a_wrong_byte_count():
    """The text must hold exactly ceil(n_vars / 8) bytes: "ab" used to
    give 8 spins for n_vars = 20."""
    from parity_decode import pack_state_hex, unpack_state_hex

    for text, n_vars in (("ab", 20), ("abcd", 20), ("abcdef01", 20), ("", 1), ("00", 0)):
        message = rf"holds {len(text) // 2} bytes, not ceil\({n_vars} / 8\)"
        with pytest.raises(ValueError, match=message):
            unpack_state_hex(text, n_vars)
    assert unpack_state_hex("abcde0", 20).shape == (20,)
    for n_vars in (0, 1, 8, 9, 20):
        xf = np.where(np.arange(n_vars) % 3 == 0, -1, 1).astype(np.int8)
        assert np.array_equal(unpack_state_hex(pack_state_hex(xf), n_vars), xf)


def test_unpack_state_hex_refuses_set_padding_bits():
    """One state has one text: a set bit past the n_vars spins is
    refused, so "ffff" no longer decodes as "ffc0" does."""
    from parity_decode import unpack_state_hex

    assert np.array_equal(unpack_state_hex("ffc0", 10), -np.ones(10, dtype=np.int8))
    for text, n_vars in (("ffff", 10), ("ffc1", 10), ("abcdef", 20), ("01", 7)):
        with pytest.raises(ValueError, match="padding bit past its"):
            unpack_state_hex(text, n_vars)


def test_final_f_is_the_last_state_with_or_without_samples():
    code = build_code(7)
    params = HamiltonianParams(beta=1.0, gamma=0.5, couplings=np.linspace(-0.2, 0.2, 21),
                               family="w4")
    _, stored = mcmc_decode(code, params, 2500, all_one_matrix(7), 5)
    _, bare = mcmc_decode(code, params, 2500, all_one_matrix(7), 5, store_samples=False)
    assert np.array_equal(stored.final_f, matrix_to_vector(code, stored.samples[-1]))
    assert np.array_equal(bare.final_f, stored.final_f) and bare.samples == []


def test_average_error_matrix_empty_run():
    code = build_code(4)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w4")
    ok, run = mcmc_decode(code, params, 5, all_one_matrix(4), 71, store_samples=False)
    with pytest.raises(ValueError):
        average_error_matrix(run, all_one_matrix(4))


@pytest.mark.parametrize("family", ["w3", "w4"])
def test_k2_chains_step_in_both_families(family):
    # K = 2 has no triangle and no plaquette: every step flips the one
    # pair, and the state is always a codeword
    code = build_code(2)
    params = HamiltonianParams(beta=1.0, gamma=2.0, couplings=[0.4], family=family)
    z = all_one_matrix(2)
    ok, run = mcmc_decode(code, params, 6, z, 3)
    assert run.first_codeword == 0
    assert [int(m[0, 1]) for m in run.samples] == [
        -int(run.initial[0, 1]) * (-1) ** t for t in range(6)]
    assert ok == (run.target_hit is not None)
    ok_h, run_h = hybrid_decode(code, params, 6, z, 3)
    assert run_h.decoded_any_codeword == 0 and ok_h >= ok
    x, rate = rejection_free_step(code, params, z, 4)
    assert x[0, 1] == -1 and rate == pytest.approx(math.exp(-0.8))


@pytest.mark.parametrize("family", ["w3", "w4"])
def test_strengths_that_overflow_are_refused_where_the_code_is_known(family):
    """2 beta max|J| + gamma deg and beta sum|J| + gamma n_checks must be
    finite; values just inside run with finite energies and rates (any
    RuntimeWarning fails the test), values past it are refused by every
    entry that knows the code."""
    from parity_decode import linear_schedule

    code = build_code(6)
    J = np.random.default_rng(0).uniform(-1, 1, code.n_vars)
    target, x = all_one_matrix(6), random_spin_matrix(6, np.random.default_rng(1))
    targets = np.ones((2, code.n_vars), dtype=np.int8)
    for beta, gamma in ((1.0, 1e306), (1e307, 1.0)):
        ok = HamiltonianParams(beta=beta, gamma=gamma, couplings=J, family=family)
        run = mcmc_decode(code, ok, 2000, target, seed=1)[1]
        assert np.isfinite(run.energies).all() and np.isfinite(run.escape_rates).all()
        assert math.isfinite(energy(code, ok, x))
        out = _run_lockstep(code, family, np.full(2, beta), np.full(2, gamma), np.stack([J, J]),
                            300, [1, 2], targets, record=True)
        assert np.isfinite(out["energies"]).all() and np.isfinite(out["escape_rates"]).all()
    assert math.isfinite(sum(boltzmann_distribution(code, ok).values()))
    inst = ProblemInstance.from_couplings(6, J)  # lockstep rows are checked by their driver
    for beta, gamma in ((1.0, 1e308), (1e308, 1.0)):
        bad = HamiltonianParams(beta=beta, gamma=gamma, couplings=J, family=family)
        for call in (lambda: mcmc_decode(code, bad, 10, target, seed=1),
                     lambda: energy(code, bad, x),
                     lambda: boltzmann_distribution(code, bad),
                     lambda: landscape([inst], [beta], [gamma], budget=10, trials_per_cell=1,
                                       family=family)):
            with pytest.raises(ValueError, match="overflows the energy at K = 6"):
                call()
    # a schedule passes through set_params, which checks each new value
    ramp = linear_schedule((1.0, 1.0), (1e306, 1e308))
    with pytest.raises(ValueError, match="overflows the energy"):
        mcmc_decode(code, ok, 50, target, seed=1, schedule=ramp)


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_couplings_are_refused_at_every_beta(beta, bad):
    """One couplings check serves the chains, the energies and the
    inversion family: a NaN or infinite coupling is refused by name even
    at beta = 0, where it would otherwise reach the chain as 0 * NaN."""
    code = build_code(4)
    J = np.r_[np.zeros(code.n_vars - 1), bad]
    params = HamiltonianParams(beta=beta, gamma=1.0, couplings=J)
    x = all_one_matrix(4)
    weights = InversionWeights(beta=beta)
    for call in (lambda: mcmc_decode(code, params, 10, x, seed=1),
                 lambda: hybrid_decode(code, params, 10, x, seed=1),
                 # lockstep rows take their couplings from a ProblemInstance
                 lambda: ProblemInstance.from_couplings(4, J),
                 lambda: energy(code, params, x),
                 lambda: boltzmann_distribution(code, params),
                 lambda: inversion_profile("mcmc", code, x, J, weights),
                 lambda: decoder_energy("mcmc", code, x, J, weights)):
        with pytest.raises(ValueError, match="couplings must be finite"):
            call()


def test_boltzmann_energy_gap_past_the_float_range_weighs_zero():
    # each energy is finite, but the gap between two exceeds the float range
    code = build_code(3)
    params = HamiltonianParams(beta=1.0, gamma=0.0, couplings=[5e307] * 3, family="w3")
    w = boltzmann_distribution(code, params)
    assert w[np.ones(3, np.int8).tobytes()] == 1.0 and sum(w.values()) == 1.0
