import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from parity_decode import (
    BenchmarkReport,
    CapacityError,
    HamiltonianParams,
    ProblemInstance,
    TiePolicy,
    all_one_matrix,
    bench_iid,
    bf_decode,
    bp_decode,
    best_cell,
    build_code,
    efficiency_ratio,
    encode,
    energy,
    gen_instance,
    hybrid_decode,
    landscape,
    logical_energy,
    mcmc_decode,
    sample_iid_errors,
    trajectory_demo,
    trial_seed,
    wilson_interval,
)
from parity_decode import MatrixFormatError, experiments
from parity_decode.channels import _key_states
from parity_decode.experiments import brute_force_ground_state
from parity_decode.reports import TrajectoryDump


# ---------------------------------------------------------------------------
# instances

def test_ferromagnetic_hook():
    K = 8
    J = np.full(K * (K - 1) // 2, 0.25)
    inst = ProblemInstance.from_couplings(K, J)
    assert np.all(inst.ground_state == 1)  # canonical global flip: first spin +1
    assert inst.ground_energy == pytest.approx(-0.25 * len(J))


def test_instance_keeps_a_read_only_copy_of_its_couplings():
    # a change to the caller's array after construction, a NaN included,
    # never reaches the instance, and its own couplings refuse writes
    J = np.zeros(10)
    inst = ProblemInstance.from_couplings(5, J)
    J[1], J[2] = 7.0, np.nan
    assert np.array_equal(inst.couplings, np.zeros(10))
    assert inst.couplings.dtype == np.float64
    assert logical_energy(5, inst.couplings, inst.ground_state) == inst.ground_energy
    with pytest.raises(ValueError, match="read-only"):
        inst.couplings[0] = 1.0
    params = HamiltonianParams(beta=1.0, couplings=inst.couplings)
    assert not np.shares_memory(params.couplings, inst.couplings)


def test_ground_state_matches_slow_scan():
    inst = gen_instance(10, 3)
    # independent scan: plain loop over all assignments
    best_e = math.inf
    best = None
    for mask in range(1 << 10):
        Z = np.array([1 if (mask >> i) & 1 else -1 for i in range(10)])
        e = logical_energy(10, inst.couplings, Z)
        if e < best_e - 1e-15:
            best_e = e
            best = Z
    assert inst.ground_energy == pytest.approx(best_e, rel=1e-12)
    assert np.array_equal(inst.ground_state, best * best[0])  # same gauge


@pytest.mark.parametrize("K, seed", [(np.int64(5), 3), (5, np.int64(3)),
                                     (np.int32(5), np.uint8(3))])
def test_instance_records_k_and_seed_as_ints(tmp_path, K, seed):
    """An instance's K and seed land in landscape configs and trajectory
    metas, so numpy integers are kept as the ints they equal, whether
    gen_instance or the constructor itself builds it."""
    ref = gen_instance(K, seed)
    direct = ProblemInstance(K=K, couplings=ref.couplings, ground_state=ref.ground_state,
                             ground_energy=ref.ground_energy, seed=seed, label=ref.label)
    for inst in (ref, direct):
        assert (inst.K, inst.seed, inst.label) == (5, 3, "K5-s3")
        assert type(inst.K) is int and type(inst.seed) is int
        rep = landscape([inst], [1.0], [0.5], budget=20, trials_per_cell=2)
        json.dumps(rep.config)
        rep.to_json(tmp_path / "r.json")
        rep.to_csv(tmp_path / "r.csv")


@pytest.mark.parametrize("K, seed, message", [
    (4.0, None, "K must be an integer"),
    (1, None, "K must be >= 2"),
    (4, -1, "seed must be >= 0"),
    (4, 2.5, "seed must be an integer"),
    (4, True, "seed must be an integer"),
])
def test_instance_refuses_bad_k_and_seed(K, seed, message):
    with pytest.raises(ValueError, match=message):
        ProblemInstance.from_couplings(K, np.zeros(int(K * (K - 1) // 2)), seed=seed)


@pytest.mark.parametrize("K, couplings, seed, message", [
    (4.0, np.zeros(6), None, "K must be an integer"),
    (1, np.zeros(0), None, "K must be >= 2"),
    (4, np.zeros(5), None, r"couplings length 5 != C\(4,2\)"),
    (4, np.full(6, np.nan), None, "couplings must be finite"),
    (4, np.zeros(6), -1, "seed must be >= 0"),
    (4, np.zeros(6), 2.5, "seed must be an integer"),
    (4, np.zeros(6), True, "seed must be an integer"),
])
def test_instance_built_directly_refuses_bad_fields(K, couplings, seed, message):
    """The constructor checks what from_couplings checks."""
    with pytest.raises(ValueError, match=message):
        ProblemInstance(K=K, couplings=couplings, ground_state=np.ones(4, dtype=np.int8),
                        ground_energy=0.0, seed=seed)


@pytest.mark.parametrize("field, value, message", [
    ("ground_state", np.ones(3), "logical state has length 3, expected 5"),
    ("ground_state", np.array([1, 1, 0, -1, 1]), r"entries must be \+1 or -1"),
    ("ground_state", np.full(5, 2.0), r"entries must be \+1 or -1"),
    ("ground_energy", np.float64(np.nan), "ground_energy must be finite, got nan"),
    ("ground_energy", math.inf, "ground_energy must be finite, got inf"),
    ("ground_energy", -math.inf, "ground_energy must be finite, got -inf"),
])
def test_instance_refuses_a_bad_ground_state_or_energy(field, value, message):
    """Refused at construction, built directly or replaced into a valid
    instance, not first inside a landscape unit."""
    ref = gen_instance(5, 3)
    fields = {"K": 5, "couplings": ref.couplings, "ground_state": ref.ground_state,
              "ground_energy": ref.ground_energy, "seed": 3}
    with pytest.raises(ValueError, match=message):
        ProblemInstance(**{**fields, field: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(ref, **{field: value})


def test_instance_keeps_its_ground_state_and_energy_as_given():
    ref = gen_instance(5, 3)
    Z, E = ref.ground_state.astype(np.float64), np.float32(ref.ground_energy)
    inst = ProblemInstance(K=5, couplings=ref.couplings, ground_state=Z, ground_energy=E)
    assert inst.ground_state is Z and inst.ground_energy is E


def test_encoded_ground_state_minimizes_code_energy():
    inst = gen_instance(8, 11)
    code = build_code(8)
    params = HamiltonianParams(beta=5.0, gamma=10.0, couplings=inst.couplings, family="w4")
    target = encode(code, inst.ground_state)
    e_target = energy(code, params, target)
    from parity_decode import codewords

    for z in codewords(code):
        assert e_target <= energy(code, params, z) + 1e-9


def test_gen_instance_deterministic_and_capacity():
    a = gen_instance(9, 7)
    b = gen_instance(9, 7)
    assert np.array_equal(a.couplings, b.couplings)
    assert np.array_equal(a.ground_state, b.ground_state)
    with pytest.raises(CapacityError):
        gen_instance(25, 0)


@pytest.mark.parametrize("seed, message", [
    (None, "seed must be an integer, got None"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0, got -1"),
])
def test_gen_instance_refuses_bad_seeds(seed, message):
    """An instance is labelled and recorded by its seed, so it must be an
    integer >= 0: None would draw from OS entropy under the label
    "K5-sNone", which no rerun reproduces."""
    with pytest.raises(ValueError, match=message):
        gen_instance(5, seed)


def test_brute_force_chunking_consistent():
    rng = np.random.default_rng(13)
    J = rng.uniform(-0.25, 0.25, 10 * 9 // 2)
    z1, e1 = brute_force_ground_state(10, J, chunk=64)
    z2, e2 = brute_force_ground_state(10, J, chunk=1 << 16)
    assert e1 == e2
    assert np.array_equal(z1, z2)


@settings(max_examples=60, deadline=None)
@given(K=st.integers(2, 16), grid=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(K=16, grid=True, seed=0)
@example(K=16, grid=False, seed=0)
def test_brute_force_blocks_match_one_block(K, grid, seed):
    """The default blocks (1024 rows, each a negated-column copy of the
    first) give the state and energy bits of one 2^(K-1)-row gemv, and
    so does chunk=1 << 16. Grid couplings, multiples of 1/8, make exact
    energy ties, so the first state reaching the minimum must win."""
    rng = np.random.default_rng(seed)
    n = K * (K - 1) // 2
    J = rng.integers(-2, 3, n) / 8 if grid else rng.uniform(-0.25, 0.25, n)
    a, b = build_code(K).edges.T
    Z = (2 * ((np.arange(1, 1 << K, 2)[:, None] >> np.arange(K)) & 1) - 1).astype(np.int8)
    energies = -(np.ascontiguousarray(Z[:, a] * Z[:, b], dtype=np.float64) @ J)
    i = int(np.argmin(energies))
    for z, e in (brute_force_ground_state(K, J), brute_force_ground_state(K, J, chunk=1 << 16)):
        assert z.dtype == np.int8
        assert z.tobytes() == Z[i].tobytes()
        assert e.hex() == energies[i].hex()


def test_gen_instance_traced_peak_is_one_block():
    """The search holds one 1024-row block of products (0.98 MB at
    K = 16), not a 65 536-row one (36 MB traced before blocks)."""
    build_code(16)  # warm the code cache
    tracemalloc.start()
    try:
        gen_instance(16, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("chunk, message", [
    (0, "chunk must be >= 8, got 0"),
    (4, "chunk must be >= 8, got 4"),
    (7, "chunk must be >= 8, got 7"),
    (12, "chunk must be a power of two, got 12"),
    (1000, "chunk must be a power of two, got 1000"),
    (2.5, "chunk must be an integer, got 2.5"),
    (True, "chunk must be an integer, got True"),
])
def test_brute_force_refuses_bad_chunk(chunk, message):
    with pytest.raises(ValueError, match=message):
        brute_force_ground_state(5, np.zeros(10), chunk=chunk)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_brute_force_refuses_non_finite_couplings(bad):
    J = np.zeros(10)
    J[3] = bad
    with pytest.raises(ValueError, match="couplings must be finite"):
        brute_force_ground_state(5, J)


def test_instance_helpers_share_one_couplings_check():
    """A wrong number of couplings is refused by length, never broadcast
    (one value read as all ten pairs), a non +-1 state and a float K are
    refused by name."""
    for J in ([0.3], np.zeros(9), np.zeros(11)):
        message = f"couplings length {len(J)} != C\\(5,2\\)"
        with pytest.raises(ValueError, match=message):
            brute_force_ground_state(5, J)
        with pytest.raises(ValueError, match=message):
            logical_energy(5, J, np.ones(5))
        with pytest.raises(ValueError, match=message):
            ProblemInstance.from_couplings(5, J)
    with pytest.raises(ValueError, match="logical state entries must be \\+1 or -1"):
        logical_energy(3, np.ones(3), [2, 1, 1])
    with pytest.raises(ValueError, match="logical state has length 2, expected 3"):
        logical_energy(3, np.ones(3), [1, 1])
    for call in (lambda: gen_instance(5.0, 0), lambda: brute_force_ground_state(5.0, np.zeros(10)),
                 lambda: logical_energy(5.0, np.zeros(10), np.ones(5))):
        with pytest.raises(ValueError, match="K must be an integer, got 5.0"):
            call()
    with pytest.raises(ValueError, match="K must be >= 2, got 1"):
        gen_instance(1, 0)
    assert logical_energy(3, [1.0, -0.5, 0.25], [1, -1, 1]) == -(-1.0 - 0.5 - 0.25)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.4 < lo < 0.45 and 0.55 < hi < 0.6
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.05


def test_wilson_interval_refuses_impossible_counts():
    for successes, trials in ((5, 3), (-1, 3), (0, -1), (1, 0)):
        with pytest.raises(ValueError, match=f"successes={successes}, trials={trials}"):
            wilson_interval(successes, trials)


# ---------------------------------------------------------------------------
# i.i.d. benchmark

def test_bench_bf_zero_eps():
    rep = bench_iid("bf", [6, 10], [0.0], trials=50, seed=1)
    for row in rep.rows:
        assert row["failure_prob"] == 0.0


def test_bench_reproducible_and_roundtrip(tmp_path):
    rep1 = bench_iid("bf", [8], [0.1, 0.2], trials=100, seed=9)
    rep2 = bench_iid("bf", [8], [0.1, 0.2], trials=100, seed=9)
    assert rep1.rows == rep2.rows
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    rep1.to_csv(csv_path)
    rep1.to_json(json_path)
    assert BenchmarkReport.from_csv(csv_path).rows == rep1.rows
    assert BenchmarkReport.from_csv(csv_path).config == rep1.config
    back = BenchmarkReport.from_json(json_path)
    assert back.rows == rep1.rows and back.config == rep1.config


def test_bench_csv_roundtrip_keeps_none_cells(tmp_path):
    # no trial succeeds, so the mean iteration count over successes is None
    rep = bench_iid("bf", [12], [0.4], 4, iters=1, seed=2)
    assert rep.rows[0]["successes"] == 0 and rep.rows[0]["mean_iterations_success"] is None
    rep.to_csv(tmp_path / "r.csv")
    back = BenchmarkReport.from_csv(tmp_path / "r.csv")
    assert (back.kind, back.config, back.rows) == (rep.kind, rep.config, rep.rows)


def test_bench_csv_refuses_missing_config_line(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("K,trials\n5,3\n")
    with pytest.raises(ValueError, match="config comment"):
        BenchmarkReport.from_csv(path)


def test_bench_failure_decreases_with_k():
    rep = bench_iid("bf", [6, 20], [0.1], trials=400, seed=5)
    rows = {r["K"]: r for r in rep.rows}
    assert rows[20]["failure_prob"] < rows[6]["failure_prob"]


def test_bench_gauge_convention_invariant():
    # replacing the all-one codeword with a random one (same seeds, same
    # error patterns) leaves every decoder's outcome unchanged
    rng = np.random.default_rng(3)
    Z = rng.choice([-1, 1], size=8)
    z = encode(build_code(8), Z)
    for decoder in ("bf", "bp", "mcmc"):
        base = bench_iid(decoder, [8], [0.2], trials=60, seed=21)
        gauged = bench_iid(decoder, [8], [0.2], trials=60, seed=21, codeword=z)
        assert base.rows[0]["successes"] == gauged.rows[0]["successes"]
        assert base.rows[0]["tie_failures"] == gauged.rows[0]["tie_failures"]


def test_bench_records_validated_codeword(tmp_path):
    """A float +-1 codeword is recorded as the int8 matrix its validation
    returns: the same config, stem and report bytes as the int8 one."""
    z = encode(build_code(5), np.array([1, -1, 1, 1, -1]))
    reps = [bench_iid("bf", [5], [0.1], 3, codeword=cw) for cw in (z, z.astype(float))]
    assert reps[1].config["codeword"] == z.tolist()
    assert all(type(v) is int for row in reps[1].config["codeword"] for v in row)
    assert reps[1].default_stem() == reps[0].default_stem()
    for i, rep in enumerate(reps):
        rep.to_json(tmp_path / f"{i}.json")
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()


def test_bench_rejects_bad_codeword_before_running(monkeypatch):
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    z8 = encode(build_code(8), np.array([1, -1, 1, 1, -1, 1, 1, 1]))
    not_codeword = z8.copy()
    not_codeword[0, 1] = not_codeword[1, 0] = -not_codeword[0, 1]
    not_spin = z8.copy()
    not_spin[2, 3] = 0
    for K_list, codeword in (([8], not_codeword), ([8], not_spin),
                             ([6], z8), ([8, 10], z8)):
        with pytest.raises(ValueError):
            bench_iid("bf", K_list, [0.1], trials=5, seed=1, codeword=codeword)


@pytest.mark.parametrize("n_workers", [2.5, 3.0, 0, -3, True, np.float64(2.0)])
def test_drivers_refuse_bad_worker_counts_before_any_unit(monkeypatch, n_workers):
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    with pytest.raises(ValueError, match="n_workers must be"):
        bench_iid("bf", [5, 6, 7], [0.1], trials=2, n_workers=n_workers)
    with pytest.raises(ValueError, match="n_workers must be"):
        landscape([gen_instance(5, 1)], [1.0, 2.0], [0.5, 1.0], budget=20, trials_per_cell=1,
                  n_workers=n_workers)


def test_default_worker_count_is_the_affinity_mask(monkeypatch):
    # two CPUs on the host, one allowed: n_workers=None (the CLI without
    # --threads) gives the drivers one worker
    class Counted(Exception):
        pass

    def count_workers(fn, units, n_workers):
        raise Counted(n_workers)

    monkeypatch.setattr("parity_decode.experiments._run_units", count_workers)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    for run in (lambda: bench_iid("bf", [5, 6], [0.1], trials=2, n_workers=None),
                lambda: landscape([gen_instance(5, 1)], [1.0, 2.0], [0.5], budget=20,
                                  trials_per_cell=1, n_workers=None)):
        with pytest.raises(Counted) as counted:
            run()
        assert counted.value.args == (1,)
    # where the platform has no affinity mask, the CPU count, or 1 if unknown
    monkeypatch.delattr("os.sched_getaffinity")
    assert experiments._worker_count(None) == 2
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert experiments._worker_count(None) == 1


def test_bench_rejects_coin_ties_before_running(monkeypatch):
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    for decoder in ("bf", "bp", "mcmc"):
        with pytest.raises(ValueError, match="tie policy"):
            bench_iid(decoder, (3,), (0.3,), 20, tie_policy=TiePolicy.COIN)


def test_bench_takes_tie_policy_values(tmp_path):
    # a policy's string value gives the member's report bytes; an unknown
    # value is refused by name
    for decoder in ("bf", "bp"):
        for policy in (TiePolicy.KEEP, TiePolicy.FAIL):
            data = []
            for value in (policy, policy.value):
                path = tmp_path / f"{decoder}_{value}.json"
                bench_iid(decoder, [5], [0.3], trials=40, seed=2, tie_policy=value).to_json(path)
                data.append(path.read_bytes())
            assert data[0] == data[1]
        with pytest.raises(ValueError, match="nonsense"):
            bench_iid(decoder, [5], [0.3], trials=4, tie_policy="nonsense")
    with pytest.raises(ValueError, match="tie policy"):
        bench_iid("bf", [5], [0.3], trials=4, tie_policy="coin")


def test_bench_chain_seeds_only_for_sampling(monkeypatch):
    # BF and BP trials hash one noise key each; the sampler also a chain
    # key, in the same call
    calls = []

    def counting_states(keys):
        calls.append(list(keys))
        return _key_states(keys)

    monkeypatch.setattr(experiments, "_key_states", counting_states)
    for decoder, arms in (("bf", 1), ("bp", 1), ("mcmc", 2)):
        calls.clear()
        bench_iid(decoder, [5], [0.1], trials=7, seed=2)
        assert calls == [[(2, 11, 0, 0, t, arm) for arm in range(arms) for t in range(7)]]


def test_bench_bp_trials_run_on_the_edge_vector_target(monkeypatch):
    # the unit validates and converts its target once; no BP trial goes
    # back through a spin matrix
    from parity_decode import decoders

    calls = []
    edge_vector = decoders._edge_vector

    def counting(*args):
        calls.append(args)
        return edge_vector(*args)

    monkeypatch.setattr(decoders, "_edge_vector", counting)
    bench_iid("bp", [5, 6], [0.1], 20)
    assert len(calls) == 0


def _per_trial_row(decoder, K, eps, ki, ei, trials, seed, policy):
    """(successes, tie failures, iteration sum) of one bench_iid cell,
    decoded one trial at a time on the same noise and chain seeds."""
    code, target = build_code(K), all_one_matrix(K)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w3")
    ok = fails = iter_sum = 0
    for t in range(trials):
        e = sample_iid_errors(code, eps, trial_seed(seed, 11, ki, ei, t, 0))
        x = (target * e).astype(np.int8)
        if decoder == "mcmc":
            success, run = mcmc_decode(code, params, code.n_vars, target,
                                       trial_seed(seed, 11, ki, ei, t, 1),
                                       initial=x, store_samples=False)
            used = run.target_hit
        else:
            if decoder == "bf":
                res = bf_decode(code, x, max_iters=5, tie_policy=policy, target=target)
            else:
                res = bp_decode(code, x=x, epsilon=eps, max_iters=5, target=target)
            success, used = res.success, res.iterations
            fails += res.tie_failure
        ok += success
        iter_sum += used if success else 0
    return ok, fails, iter_sum


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("policy", [TiePolicy.KEEP, TiePolicy.FAIL])
def test_bench_bf_stacks_match_per_trial_loop(monkeypatch, chunk, policy):
    # every decoder's trials, with noise drawn in chunks of `chunk` (and
    # BF decoding each chunk as one stack), give the rows of a per-trial
    # bf_decode, bp_decode or mcmc_decode loop on the same noise and
    # chain seeds; odd K = 5 and 7 give tied BF votes
    from parity_decode import experiments

    monkeypatch.setattr(experiments, "BF_TRIAL_CHUNK", chunk)
    K_list, eps_list, trials, seed = [5, 7, 8], [0.1, 0.3], 70, 4
    for decoder in ("bf", "bp", "mcmc"):
        rep = bench_iid(decoder, K_list, eps_list, trials=trials, seed=seed, tie_policy=policy)
        rows = iter(rep.rows)
        tie_failures = 0
        for ki, K in enumerate(K_list):
            for ei, eps in enumerate(eps_list):
                ok, fails, iter_sum = _per_trial_row(decoder, K, eps, ki, ei, trials, seed,
                                                     policy)
                row = next(rows)
                assert (row["decoder"], row["K"], row["epsilon"]) == (decoder, K, eps)
                assert (row["successes"], row["failures"], row["tie_failures"]) == (
                    ok, trials - ok, fails), decoder
                assert row["mean_iterations_success"] == (iter_sum / ok if ok else None), decoder
                tie_failures += fails
        assert (tie_failures > 0) == (decoder == "bf" and policy is TiePolicy.FAIL)
        empty = bench_iid(decoder, [5], [0.3], trials=0, seed=seed, tie_policy=policy).rows[0]
        assert (empty["successes"], empty["failures"], empty["tie_failures"]) == (0, 0, 0)


@pytest.mark.parametrize("other_codeword", [False, True])
def test_bench_rows_follow_from_round_tripped_config(tmp_path, other_codeword):
    # a report's config, read back from its JSON, is all a unit needs to
    # rebuild its row
    from parity_decode import experiments

    z = encode(build_code(8), np.array([1, -1, 1, 1, -1, -1, 1, 1]))
    kwargs = dict(codeword=z, mcmc_budget=50, mcmc_gamma=0.7, mcmc_family="w4",
                  tie_policy=TiePolicy.KEEP) if other_codeword else {}
    for decoder in ("bf", "bp", "mcmc"):
        rep = bench_iid(decoder, [8], [0.1, 0.25], trials=30, seed=5, **kwargs)
        rep.to_json(tmp_path / "r.json")
        config = BenchmarkReport.from_json(tmp_path / "r.json").config
        assert [experiments._bench_unit((config, 0, ei)) for ei in range(2)] == rep.rows


# sha256 of the JSON then CSV bytes of small BF and BP reports (FAIL ties),
# as written before BF trials were stacked and BP got its value tables
BENCH_DIGESTS = {
    "bf": (80, "f2105cef67df0e0d09b9353840ef67d22d0d06aeb16bfe5e5d5dd789cca6b285"),
    "bp": (40, "5ef7f423bdb94245adc3653ec98b49445557791532ee06dd6fae88b07494c178"),
}


@pytest.mark.parametrize("decoder", sorted(BENCH_DIGESTS))
def test_bench_report_bytes_pinned(tmp_path, decoder):
    trials, digest = BENCH_DIGESTS[decoder]
    rep = bench_iid(decoder, [5, 8], [0.1, 0.3], trials=trials, seed=13)
    rep.to_json(tmp_path / "r.json")
    rep.to_csv(tmp_path / "r.csv")
    data = (tmp_path / "r.json").read_bytes() + (tmp_path / "r.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of the JSON then CSV bytes of small sampling reports, as written
# when every sampling trial still ran its whole budget
BENCH_MCMC_DIGESTS = {
    0: "4080467d6316b5ac65813a1d0a20ab10f9928c0e8a33ab5c6a02b29aecd22b88",
    7: "e12e11a91c3714ddc7594b7c936c1c30161928be57dce50138a3b1188ba9d2b8",
}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(BENCH_MCMC_DIGESTS))
def test_bench_mcmc_report_bytes_pinned(tmp_path, seed, n_workers):
    # sampling trials stop at their first target hit; the rows, read
    # from that hit alone, keep their bytes
    rep = bench_iid("mcmc", [5, 9, 14], [0.05, 0.2, 0.4], 50, seed=seed, n_workers=n_workers)
    rep.to_json(tmp_path / "r.json")
    rep.to_csv(tmp_path / "r.csv")
    data = (tmp_path / "r.json").read_bytes() + (tmp_path / "r.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == BENCH_MCMC_DIGESTS[seed]


def test_bench_refuses_an_empty_grid_before_any_unit(monkeypatch):
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    for decoder in ("bf", "bp", "mcmc"):
        for K_list, eps_list in (([], [0.1]), ([5], []), ([], [])):
            with pytest.raises(ValueError, match="K_list and eps_list must be nonempty"):
                bench_iid(decoder, K_list, eps_list, trials=3)


def test_drivers_check_the_grids_they_record(monkeypatch):
    """bench_iid and landscape check and size their grids from the lists
    their configs record, so a generator grid is checked, named and run
    as its list form is."""
    def no_units(*args):
        raise AssertionError("a unit ran")

    with monkeypatch.context() as patch:
        patch.setattr("parity_decode.experiments._run_units", no_units)
        for decoder in ("bf", "mcmc"):
            with pytest.raises(ValueError, match=r"every epsilon must be in \[0, 1.0\), "
                                                 r"got \[0.1, 1.5\]"):
                bench_iid(decoder, [5], (e for e in [0.1, 1.5]), trials=10)
        with pytest.raises(ValueError, match=r"codeword has size 5, but K_list is \[5, 6\]"):
            bench_iid("bf", (K for K in [5, 6]), [0.1], trials=3, codeword=all_one_matrix(5))
        with pytest.raises(ValueError, match="grids must be nonempty"):
            landscape([gen_instance(5, 1)], iter([]), [0.5], budget=20, trials_per_cell=1)
    insts = [gen_instance(5, 1), gen_instance(5, 2)]
    common = dict(budget=20, trials_per_cell=2, seed=3, n_workers=2)
    for strategy in ("mcmc", "hybrid"):
        listed = landscape(insts, [0.5, 1.0], [0.2, 0.8, 1.4], strategy=strategy, **common)
        generated = landscape(insts, (b for b in [0.5, 1.0]), (g for g in [0.2, 0.8, 1.4]),
                              strategy=strategy, **common)
        assert generated.rows == listed.rows and generated.config == listed.config
        assert len(generated.rows) == 6


def test_bench_refuses_zero_iterations(monkeypatch):
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    for decoder in ("bf", "bp"):
        with pytest.raises(ValueError, match="iters"):
            bench_iid(decoder, [5], [0.1], trials=3, iters=0)
    for decoder in ("bf", "bp", "mcmc"):
        with pytest.raises(ValueError, match="trials"):
            bench_iid(decoder, [5], [0.1], trials=-3)
    # every decoder echoes every value into its config, so all three
    # refuse what any of them would refuse, before the first unit
    bad_eps = {"bf": [-0.1, 1.0, math.nan], "mcmc": [-0.1, 1.0], "bp": [-0.1, 0.5, 0.6]}
    for decoder, eps_values in bad_eps.items():
        for eps in eps_values:
            with pytest.raises(ValueError, match="epsilon"):
                bench_iid(decoder, [5], [0.1, eps], trials=3)
        with pytest.raises(ValueError, match="K"):
            bench_iid(decoder, [5, 1], [0.1], trials=3)
        for budget in (0, -4):
            with pytest.raises(ValueError, match="mcmc_budget"):
                bench_iid(decoder, [5], [0.1], trials=3, mcmc_budget=budget)
        for gamma in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                bench_iid(decoder, [5], [0.1], trials=3, mcmc_gamma=gamma)
        with pytest.raises(ValueError, match="family"):
            bench_iid(decoder, [5], [0.1], trials=3, mcmc_family="w5")
        # sizes and counts would be truncated in the config
        for K_list in ([5.7], [5, 6.0], [True]):
            with pytest.raises(ValueError, match="K must be an integer"):
                bench_iid(decoder, K_list, [0.1], trials=3)
        for name, value in (("trials", 3.9), ("trials", 3.0), ("iters", 2.5), ("seed", 2.5),
                            ("mcmc_budget", 4.5), ("mcmc_budget", np.float64(4.0))):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                bench_iid(decoder, [5], [0.1], **{"trials": 3, name: value})


def test_bench_accepts_numpy_integer_sizes(tmp_path):
    for decoder in ("bf", "bp", "mcmc"):
        bench_iid(decoder, [5], [0.1], trials=3, iters=2, seed=4,
                  mcmc_budget=6).to_json(tmp_path / "plain.json")
        bench_iid(decoder, [np.int64(5)], [0.1], trials=np.int32(3), iters=np.int64(2), seed=4,
                  mcmc_budget=np.int16(6)).to_json(tmp_path / "numpy.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_bench_records_gamma_as_a_float(tmp_path):
    """mcmc_gamma lands in the config as a Python float: a numpy float32
    one is written, and 1 and 1.0 give one config hash and the same
    report bytes."""
    for decoder in ("bf", "mcmc"):
        blobs, stems = set(), set()
        for gamma in (1.0, 1, np.float32(1.0), np.float64(1.0)):
            rep = bench_iid(decoder, [5], [0.1], trials=3, iters=2, seed=4, mcmc_gamma=gamma)
            assert type(rep.config["mcmc_gamma"]) is float
            rep.to_json(tmp_path / "r.json")
            rep.to_csv(tmp_path / "r.csv")
            blobs.add((tmp_path / "r.json").read_bytes() + (tmp_path / "r.csv").read_bytes())
            stems.add(rep.default_stem())
        assert len(blobs) == 1 and len(stems) == 1


def test_experiment_entry_refusals():
    with pytest.raises(ValueError, match="couplings length 5 != C\\(4,2\\)"):
        ProblemInstance.from_couplings(4, np.zeros(5))
    with pytest.raises(ValueError, match="unknown decoder 'sa'"):
        bench_iid("sa", [5], [0.1], trials=3)
    with pytest.raises(ValueError, match="same K"):
        landscape(_tiny_instances(K=5, n=1) + _tiny_instances(K=6, n=1), beta_grid=[1.0],
                  gamma_grid=[0.5], budget=5, trials_per_cell=1)
    with pytest.raises(ValueError, match="empty report"):
        best_cell(BenchmarkReport(kind="landscape", config={}, rows=[]))
    for kind in ("awgn", None):
        with pytest.raises(ValueError, match=f"unknown source kind {kind!r}"):
            trajectory_demo({"kind": kind, "K": 5, "epsilon": 0.1})
    with pytest.raises(ValueError, match="unknown decoder 'mwd'"):
        trajectory_demo({"kind": "iid", "K": 5, "epsilon": 0.1}, decoder="mwd")


def test_trajectory_demo_names_a_missing_source_key(monkeypatch):
    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("parity_decode.experiments.mcmc_decode", no_chains)
    iid = {"kind": "iid", "K": 5, "epsilon": 0.1}
    mcmc = {"kind": "mcmc", "instance": gen_instance(5, 1), "beta": 1.0, "gamma": 0.5}
    for source in (iid, mcmc):
        for key in source.keys() - {"kind"}:
            partial = {k: v for k, v in source.items() if k != key}
            with pytest.raises(ValueError, match=rf"{source['kind']} source needs .*'{key}'"):
                trajectory_demo(partial)
    with pytest.raises(ValueError, match=re.escape("unknown source kind ['iid']")):
        trajectory_demo({**iid, "kind": ["iid"]})


def test_hybrid_drivers_refuse_fewer_than_one_bf_iteration(monkeypatch):
    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("parity_decode.experiments._run_lockstep", no_chains)
    monkeypatch.setattr("parity_decode.experiments._run_units", no_chains)
    inst = gen_instance(5, 1)
    for iters in (0, -7):
        with pytest.raises(ValueError, match="bf_max_iters"):
            landscape([inst], [1.0], [0.5], strategy="hybrid", budget=20,
                      trials_per_cell=2, bf_max_iters=iters)
        with pytest.raises(ValueError, match="bf_max_iters"):
            efficiency_ratio(inst, (1.0, 0.5), (1.0, 0.5), trials=2, bf_max_iters=iters)
    # negative trial counts are refused too, before any unit or chain
    for strategy in ("mcmc", "hybrid"):
        with pytest.raises(ValueError, match="trials_per_cell"):
            landscape([inst], [1.0], [0.5], strategy=strategy, budget=20, trials_per_cell=-2)
    with pytest.raises(ValueError, match="trials"):
        efficiency_ratio(inst, (1.0, 0.5), (1.0, 0.5), trials=-1)
    # and counts the details would record truncated, or as a bool
    for name, value in (("budget_a", 10.5), ("budget_b", True), ("budget_b", 0),
                        ("trials", 2.5), ("bf_max_iters", 2.0), ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"{name} must be"):
            efficiency_ratio(inst, (1.0, 0.5), (1.0, 0.5), **{"trials": 2, name: value})


def test_efficiency_ratio_refuses_either_cell_before_any_chain(monkeypatch):
    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("parity_decode.experiments._run_lockstep", no_chains)
    inst = gen_instance(5, 1)
    for cells in (((-1.0, 0.5), (1.0, 0.5)), ((1.0, 0.5), (1.0, -0.5))):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            efficiency_ratio(inst, *cells, trials=2)


def test_landscape_refuses_grid_values_and_family_before_any_unit(monkeypatch):
    """A negative, NaN or infinite beta or gamma grid entry, or an unknown
    family, is refused at entry: before, it raised only inside the unit
    holding it, after the other units' chains had run."""
    def no_units(*args):
        raise AssertionError("a unit ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_units)
    inst = gen_instance(5, 1)
    common = dict(beta_grid=[1.0, 2.0], gamma_grid=[0.5], budget=20, trials_per_cell=2,
                  n_workers=2)
    for strategy in ("mcmc", "hybrid"):
        for name, grid in (("beta_grid", [1.0, -1.0]), ("beta_grid", [math.nan]),
                           ("gamma_grid", [0.5, math.inf]), ("gamma_grid", [-0.5])):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                landscape([inst], strategy=strategy, **{**common, name: grid})
        with pytest.raises(ValueError, match="unknown syndrome family 'w5'"):
            landscape([inst], strategy=strategy, family="w5", **common)


def test_drivers_refuse_overflowing_strengths_before_any_chain(monkeypatch):
    """A grid or cell whose strengths overflow the energy bound of the
    code is refused at entry, with zero trials too; the values just
    inside the bound are accepted."""
    def no_chains(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("parity_decode.experiments._run_units", no_chains)
    monkeypatch.setattr("parity_decode.experiments._lockstep_hits", no_chains)
    inst = gen_instance(5, 1)
    for beta_grid, gamma_grid in (([1.0], [0.5, 1e308]), ([0.0, 1e308], [0.5])):
        with pytest.raises(ValueError, match="overflows the energy at K = 5"):
            landscape([inst], beta_grid=beta_grid, gamma_grid=gamma_grid, budget=20,
                      trials_per_cell=0)
    for cells in (((1e308, 1.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 1e308))):
        with pytest.raises(ValueError, match="overflows the energy at K = 5"):
            efficiency_ratio(inst, *cells, trials=0)
    for decoder in ("bf", "bp", "mcmc"):
        with pytest.raises(ValueError, match="overflows the energy at K = 40"):
            bench_iid(decoder, [5, 40], [0.1], trials=3, mcmc_gamma=1e307)
    monkeypatch.undo()
    assert bench_iid("mcmc", [5], [0.1], trials=2, mcmc_gamma=1e306).rows[0]["trials"] == 2
    assert len(landscape([inst], beta_grid=[1.0], gamma_grid=[1e306], budget=20,
                         trials_per_cell=1).rows) == 1


def test_landscape_refuses_sizes_the_config_would_truncate(monkeypatch, tmp_path):
    """budget, trials_per_cell, seed and bf_max_iters land in the config as
    ints, so a float or bool one is refused before any unit, for both
    strategies, as bench_iid refuses its sizes; numpy integers give the
    same report bytes as ints."""
    def no_units(*args):
        raise AssertionError("a unit ran")

    inst = gen_instance(5, 1)
    common = dict(beta_grid=[1.0], gamma_grid=[0.5], budget=20, trials_per_cell=2,
                  bf_max_iters=2)
    with monkeypatch.context() as patch:
        patch.setattr("parity_decode.experiments._run_units", no_units)
        for strategy in ("mcmc", "hybrid"):
            for name, value in (("budget", 10.5), ("budget", 20.0), ("budget", True),
                                ("trials_per_cell", 1.5), ("trials_per_cell", np.float64(2.0)),
                                ("bf_max_iters", 2.5), ("bf_max_iters", False),
                                ("seed", 1.7)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    landscape([inst], strategy=strategy, **{**common, name: value})
            with pytest.raises(ValueError, match="budget must be >= 1"):
                landscape([inst], strategy=strategy, **{**common, "budget": 0})
    for strategy in ("mcmc", "hybrid"):
        landscape([inst], strategy=strategy, **common).to_json(tmp_path / "plain.json")
        landscape([inst], strategy=strategy, **{name: np.int32(v) if isinstance(v, int) else v
                                                for name, v in common.items()}
                  ).to_json(tmp_path / "numpy.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_bench_bp_and_mcmc_run():
    rep = bench_iid("bp", [6], [0.1], trials=40, seed=2)
    assert rep.rows[0]["trials"] == 40
    rep = bench_iid("mcmc", [6], [0.1], trials=40, seed=2)
    assert rep.rows[0]["trials"] == 40
    assert rep.rows[0]["failure_prob"] <= 1.0


def test_bench_trials_zero():
    rep = bench_iid("bf", [6], [0.1], trials=0, seed=1)
    assert rep.rows[0]["trials"] == 0
    assert rep.rows[0]["failure_prob"] == 0.0


def test_bench_failure_monotone_in_eps():
    rep = bench_iid("bf", [10, 20, 40], [0.05, 0.1, 0.2, 0.3], trials=1500,
                    seed=31, n_workers=2)
    by_k = {}
    for r in rep.rows:
        by_k.setdefault(r["K"], []).append((r["epsilon"], r["failure_prob"]))
    for K, pairs in by_k.items():
        probs = [p for _, p in sorted(pairs)]
        assert all(a <= b for a, b in zip(probs, probs[1:])), f"K={K}: {probs}"


def test_import_does_not_load_the_process_pool():
    """`import parity_decode` leaves concurrent.futures.process and
    multiprocessing unloaded (about 5 ms of import time); only a run
    with n_workers > 1 imports them."""
    import os
    import subprocess
    import sys

    import parity_decode

    src = os.path.dirname(os.path.dirname(os.path.abspath(parity_decode.__file__)))
    probe = ("import sys, parity_decode\n"
             "loaded = [m for m in ('concurrent.futures.process', 'multiprocessing')"
             " if m in sys.modules]\n"
             "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_bench_mcmc_shape_falls_with_k_but_trails_bf():
    # penalty-only sampling at budget C(K,2): failure falls with K yet
    # stays above the parallel bit-flip decoder's
    rep_m = bench_iid("mcmc", [8, 16], [0.15], trials=400, seed=77)
    rep_b = bench_iid("bf", [8, 16], [0.15], trials=400, seed=77)
    m = {r["K"]: r["failure_prob"] for r in rep_m.rows}
    b = {r["K"]: r["failure_prob"] for r in rep_b.rows}
    assert m[16] < m[8] - 0.2
    assert m[8] > b[8]
    assert m[16] > b[16]


def test_landscape_no_coupling_signal_uniform_over_codewords():
    # with beta = 0 the penalty and the chain dynamics are invariant
    # under gauging by any codeword, so the FIRST codeword reached is
    # uniform over all 2^(K-1); with couplings switched on it is not
    K = 5
    code = build_code(K)
    inst = gen_instance(K, 300)
    target = encode(code, inst.ground_state)
    params = HamiltonianParams(beta=0.0, gamma=3.0, couplings=inst.couplings,
                               family="w4")
    from parity_decode import mcmc_decode, trial_seed

    trials = 400
    any_hits = first_is_target = 0
    for t in range(trials):
        ok, run = mcmc_decode(code, params, 800, target, trial_seed(301, t),
                              store_samples=False)
        if run.first_codeword is not None:
            any_hits += 1
            if run.target_hit is not None and run.target_hit == run.first_codeword:
                first_is_target += 1
    expected = any_hits / 2 ** (K - 1)
    assert any_hits > 100
    assert abs(first_is_target - expected) <= 4 * math.sqrt(max(expected, 1.0))


# ---------------------------------------------------------------------------
# landscapes and efficiency

def _tiny_instances(K=8, n=2):
    return [gen_instance(K, 100 + i) for i in range(n)]


def test_landscape_dominance_and_shapes():
    insts = _tiny_instances()
    budget = 4 * build_code(8).n_vars
    common = dict(beta_grid=[1.0, 3.0], gamma_grid=[0.05, 0.5], budget=budget,
                  trials_per_cell=6, seed=77)
    rep_h = landscape(insts, strategy="hybrid", **common)
    rep_m = landscape(insts, strategy="mcmc", **common)
    assert len(rep_h.rows) == 4
    m_by_cell = {(r["beta"], r["gamma"]): r for r in rep_m.rows}
    for row in rep_h.rows:
        m_row = m_by_cell[(row["beta"], row["gamma"])]
        # matched seeds: hybrid dominates pointwise per instance
        for h_s, m_s in zip(row["per_instance_target"], m_row["per_instance_target"]):
            assert h_s >= m_s
        assert row["runs"] == 12


# sha256 of the JSON then CSV bytes of a K = 7 hybrid landscape, as written
# when the BF sweep still ran np.sign and a masked copy: at odd K the votes
# tie, so the hybrid stage's keep-sign branch runs (K = 14 never ties)
ODD_K_HYBRID_DIGEST = "56ce210c55668123142d84814466855997da385946073ba7c3fea09833b1a6fb"


def test_hybrid_landscape_odd_k_report_bytes_pinned(tmp_path):
    rep = landscape([gen_instance(7, 70 + i) for i in range(3)], beta_grid=[0.5, 2.0],
                    gamma_grid=[0.2, 1.0], strategy="hybrid", budget=84, trials_per_cell=4,
                    seed=3)
    rep.to_json(tmp_path / "r.json")
    rep.to_csv(tmp_path / "r.csv")
    data = (tmp_path / "r.json").read_bytes() + (tmp_path / "r.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == ODD_K_HYBRID_DIGEST


def test_landscape_csv_roundtrip(tmp_path):
    # per_instance_* cells are JSON lists, so the CSV quotes them
    rep = landscape(_tiny_instances(K=6, n=3), beta_grid=[1.0], gamma_grid=[0.1, 0.5],
                    strategy="hybrid", trials_per_cell=2, seed=4)
    path = tmp_path / "l.csv"
    rep.to_csv(path)
    assert '"[' in path.read_text()
    back = BenchmarkReport.from_csv(path)
    assert (back.kind, back.config, back.rows) == (rep.kind, rep.config, rep.rows)


def test_landscape_default_budgets():
    insts = _tiny_instances(K=6, n=1)
    n_vars = build_code(6).n_vars
    rep = landscape(insts, beta_grid=[1.0], gamma_grid=[0.1], strategy="hybrid",
                    trials_per_cell=2, seed=1)
    assert rep.config["budget"] == 4 * n_vars
    rep = landscape(insts, beta_grid=[1.0], gamma_grid=[0.1], strategy="mcmc",
                    trials_per_cell=1, seed=1, budget=10)
    assert rep.config["budget"] == 10


def test_landscape_validation():
    with pytest.raises(ValueError):
        landscape([], strategy="hybrid")
    insts = _tiny_instances(K=6, n=1)
    with pytest.raises(ValueError):
        landscape(insts, beta_grid=[], gamma_grid=[0.1])
    with pytest.raises(ValueError):
        landscape(insts, strategy="annealed")


def test_best_cell():
    rep = BenchmarkReport(kind="landscape", config={}, rows=[
        {"beta": 1, "gamma": 0, "target_rate": 0.2},
        {"beta": 2, "gamma": 0, "target_rate": 0.7},
    ])
    assert best_cell(rep)["beta"] == 2


def test_efficiency_ratio_identical_arms_near_one():
    inst = gen_instance(8, 55)
    nv = build_code(8).n_vars
    # same cell, same budget in both arms; hybrid at huge gamma adds nothing
    ratio, details = efficiency_ratio(
        inst, (2.0, 4.0), (2.0, 4.0), seed=3, trials=12,
        budget_a=40 * nv, budget_b=40 * nv, return_details=True,
    )
    if not math.isnan(ratio):
        assert 0.2 < ratio < 5.0
    assert details["budget_a"] == details["budget_b"]


def test_efficiency_ratio_unestimable_is_nan():
    inst = gen_instance(8, 56)
    # gamma=0, beta=0: pure random walk; 2 steps will not hit the target
    ratio = efficiency_ratio(inst, (0.0, 0.0), (0.0, 0.0), seed=1, trials=2,
                             budget_a=2, budget_b=2)
    assert math.isnan(ratio)


@pytest.mark.parametrize("K", [5, 6, 7, 8])
def test_efficiency_ratio_details_match_per_chain_oracle(K):
    """Both arms run as lockstep batches; the details equal those of one
    mcmc_decode / hybrid_decode call per trial at the same seeds."""
    inst = gen_instance(K, 60 + K)
    code = build_code(K)
    target = encode(code, inst.ground_state)
    cells = ((3.0, 4.0), (1.0, 0.2))
    budgets = (30 * code.n_vars, 4 * code.n_vars)
    trials, seed, iters = 7, K, 3
    params = [HamiltonianParams(beta=b, gamma=g, couplings=inst.couplings, family="w4")
              for b, g in cells]
    succ = [0, 0]
    for t in range(trials):
        ok, _ = mcmc_decode(code, params[0], budgets[0], target, trial_seed(seed, 31, 0, t),
                            store_samples=False)
        succ[0] += ok
        ok, _ = hybrid_decode(code, params[1], budgets[1], target, trial_seed(seed, 31, 1, t),
                              bf_max_iters=iters, store_samples=False)
        succ[1] += ok
    spp = [trials * b / s if s else math.nan for b, s in zip(budgets, succ)]
    expected = {"trials": trials, "budget_a": budgets[0], "budget_b": budgets[1],
                "successes_a": succ[0], "successes_b": succ[1],
                "samples_per_success_a": spp[0], "samples_per_success_b": spp[1],
                "ratio": spp[0] / spp[1] if all(succ) else math.nan}
    ratio, details = efficiency_ratio(inst, *cells, seed=seed, trials=trials,
                                      budget_a=budgets[0], budget_b=budgets[1],
                                      bf_max_iters=iters, return_details=True)
    assert repr(details) == repr(expected) and repr(ratio) == repr(expected["ratio"])


def test_efficiency_ratio_integer_cells_give_the_float_cells_details():
    # the lockstep row table holds each cell as float64
    inst = gen_instance(5, 75)
    nv = build_code(5).n_vars
    run = lambda a, b: efficiency_ratio(inst, a, b, seed=2, trials=6, budget_a=20 * nv,
                                        budget_b=4 * nv, return_details=True)[1]
    details = run((1, 0), (2, 1))
    assert details["successes_a"] > 0 and details["successes_b"] > 0
    assert repr(details) == repr(run((1.0, 0.0), (2.0, 1.0)))


# ---------------------------------------------------------------------------
# trajectories

def test_trajectory_iid_clean():
    dump = trajectory_demo({"kind": "iid", "K": 10, "epsilon": 0.0}, decoder="bf", seed=3)
    assert dump.error_counts[0] == 0
    assert len(dump.snapshots) == 1
    assert dump.meta["success"] is True


def test_trajectory_iid_bf_reaches_zero_errors():
    hits = 0
    for seed in range(6):
        dump = trajectory_demo({"kind": "iid", "K": 40, "epsilon": 0.3},
                               decoder="bf", seed=seed, iters=5)
        if dump.meta["success"]:
            hits += 1
            assert dump.error_counts[-1] == 0
    assert hits >= 4  # majority of seeds decode


def test_trajectory_mcmc_source_and_bp():
    inst = gen_instance(8, 200)
    dump = trajectory_demo(
        {"kind": "mcmc", "instance": inst, "beta": 3.0, "gamma": 0.1},
        decoder="bp", seed=5, iters=5,
    )
    assert len(dump.snapshots) == len(dump.error_counts)
    assert dump.meta["decoder"] == "bp"


def test_trajectory_bp_records_its_flip_rate():
    # the mcmc source has no flip rate of its own, so BP keeps the default
    inst = gen_instance(8, 200)
    dump = trajectory_demo({"kind": "mcmc", "instance": inst, "beta": 3.0, "gamma": 0.1},
                           decoder="bp", seed=5, iters=2)
    assert dump.meta["bp_epsilon"] == 0.25
    dump = trajectory_demo({"kind": "iid", "K": 8, "epsilon": 0.1}, decoder="bp",
                           seed=5, iters=2, bp_epsilon=0.1)
    assert dump.meta["bp_epsilon"] == 0.1
    bf = trajectory_demo({"kind": "iid", "K": 8, "epsilon": 0.1}, decoder="bf", seed=5, iters=2)
    assert "bp_epsilon" not in bf.meta


def test_trajectory_mcmc_source_holds_no_chain_states():
    """The mcmc source decodes the chain's final state, run.final_f: between
    two budgets the traced peak grows by the per-step energy and escape
    rate (16 bytes), not by a stored K = 14 state per step."""
    source = {"kind": "mcmc", "instance": gen_instance(14, 0), "beta": 1.5, "gamma": 0.1}
    trajectory_demo({**source, "budget": 50}, seed=1)  # warm caches
    peaks = []
    for budget in (4_000, 24_000):
        tracemalloc.start()
        try:
            trajectory_demo({**source, "budget": budget}, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 20_000 < 32


def test_trajectory_mcmc_meta_records_the_check_family():
    # the family changes the chain, so two dumps that differ only in it
    # must differ in their meta too
    source = {"kind": "mcmc", "instance": gen_instance(8, 3), "beta": 1.5, "gamma": 0.5,
              "budget": 200}
    w4, w3 = (trajectory_demo({**source, "family": fam}, seed=4) for fam in ("w4", "w3"))
    assert (w4.meta["family"], w3.meta["family"]) == ("w4", "w3")
    assert trajectory_demo(source, seed=4).meta == w4.meta  # w4 is the default


def test_trajectory_mcmc_source_records_numpy_instance_as_ints(tmp_path):
    dump = trajectory_demo({"kind": "mcmc", "instance": gen_instance(np.int64(8), 1),
                            "beta": 1.5, "gamma": 0.1, "budget": 40}, seed=2)
    dump.write_csv(tmp_path / "t.csv")
    assert type(dump.meta["K"]) is int
    assert TrajectoryDump.read_csv(tmp_path / "t.csv").meta == dump.meta


def test_trajectory_refuses_non_integer_iterations():
    # BP's stop test `it == max_iters` never holds for a float count
    for decoder in ("bf", "bp"):
        for iters in (2.5, True):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                trajectory_demo({"kind": "iid", "K": 21, "epsilon": 0.35}, decoder=decoder,
                                seed=5, iters=iters)


@pytest.mark.parametrize("source, kwargs, message", [
    ("iid", {"seed": 2.5}, "seed must be an integer, got 2.5"),
    ("iid", {"seed": True}, "seed must be an integer"),
    ("iid", {"seed": -1}, "seed must be >= 0"),
    ("iid", {"iters": 0}, "max_iters must be >= 1"),
    ("iid_K", {}, "K must be an integer, got 5.7"),
    ("iid", {"decoder": "bp", "bp_epsilon": 0.5}, r"flip probability must be in \(0, 0.5\)"),
    ("iid", {"decoder": "bp", "bp_epsilon": 0.0}, "flip probability"),
    ("mcmc", {"decoder": "mwd"}, "unknown decoder 'mwd'"),
    ("mcmc", {"seed": 1.0}, "seed must be an integer"),
    ("mcmc_budget", {}, "budget must be an integer, got 10.5"),
], ids=["seed-float", "seed-bool", "seed-negative", "iters-zero", "K-float", "bp-eps-half",
        "bp-eps-zero", "mcmc-decoder", "mcmc-seed", "mcmc-budget"])
def test_trajectory_refuses_bad_arguments_before_any_readout(monkeypatch, source, kwargs, message):
    def no_readout(*args, **kwargs):
        raise AssertionError("a readout was built")

    monkeypatch.setattr(experiments, "sample_iid_errors", no_readout)
    monkeypatch.setattr(experiments, "mcmc_decode", no_readout)
    mcmc = {"kind": "mcmc", "instance": gen_instance(6, 0), "beta": 1.0, "gamma": 0.5}
    source = {"iid": {"kind": "iid", "K": 5, "epsilon": 0.1},
              "iid_K": {"kind": "iid", "K": 5.7, "epsilon": 0.1},
              "mcmc": mcmc, "mcmc_budget": {**mcmc, "budget": 10.5}}[source]
    with pytest.raises(ValueError, match=message):
        trajectory_demo(source, **kwargs)


def test_trajectory_records_numpy_integers_as_ints(tmp_path):
    dump = trajectory_demo({"kind": "iid", "K": np.int64(6), "epsilon": 0.1},
                           decoder="bf", seed=np.int64(2), iters=np.int64(3), bp_epsilon=0.5)
    dump.write_csv(tmp_path / "iid.csv")  # bp_epsilon is not read by bf
    assert TrajectoryDump.read_csv(tmp_path / "iid.csv").meta == dump.meta
    assert [type(dump.meta[k]) for k in ("K", "seed", "iters")] == [int] * 3
    dump = trajectory_demo({"kind": "mcmc", "instance": gen_instance(6, 0), "beta": 1.0,
                            "gamma": 0.5, "budget": np.int64(10)}, seed=1)
    dump.write_csv(tmp_path / "mcmc.csv")
    assert dump.meta["budget"] == 10 and type(dump.meta["budget"]) is int


@pytest.mark.parametrize("block, message, line, column", [
    ("1,2\n-1,1\n", r"\+1 or -1, got 2", 4, 2),
    ("1,1\n1\n", "expected 2 columns, got 1", 5, 1),
    ("1,-1\n1,1\n", r"not symmetric at \(1,2\)", 5, 1),
    ("1,1\n1,-1\n", "diagonal", 5, 2),
], ids=["entry", "ragged", "symmetry", "diagonal"])
def test_trajectory_csv_validates_each_snapshot(tmp_path, block, message, line, column):
    path = tmp_path / "traj.csv"
    path.write_text('# {"K": 2}\n# iteration=0 errors=0\n\n' + block)
    with pytest.raises(MatrixFormatError, match=message) as exc:
        TrajectoryDump.read_csv(path)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_trajectory_csv_roundtrip(tmp_path):
    dump = trajectory_demo({"kind": "iid", "K": 12, "epsilon": 0.2}, decoder="bf", seed=9)
    path = tmp_path / "traj.csv"
    dump.write_csv(path)
    back = TrajectoryDump.read_csv(path)
    assert back.error_counts == dump.error_counts
    assert len(back.snapshots) == len(dump.snapshots)
    assert all(np.array_equal(a, b) for a, b in zip(back.snapshots, dump.snapshots))
    assert back.meta["K"] == 12


def test_trajectory_csv_roundtrip_with_header_text_in_the_meta(tmp_path):
    # line 1 is the meta line unless it is an iteration header itself
    inst = dataclasses.replace(gen_instance(6, 0), label="run iteration=2")
    dump = trajectory_demo({"kind": "mcmc", "instance": inst, "beta": 1.0, "gamma": 0.5,
                            "budget": 20}, seed=1)
    path = tmp_path / "traj.csv"
    dump.write_csv(path)
    back = TrajectoryDump.read_csv(path)
    assert (back.meta, back.error_counts) == (dump.meta, dump.error_counts)
    assert [s.tolist() for s in back.snapshots] == [s.tolist() for s in dump.snapshots]


def test_trajectory_csv_refuses_a_first_line_neither_meta_nor_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("# iteration=0\n1,1\n1,1\n")
    with pytest.raises(MatrixFormatError, match="expected '# iteration=0 errors=<m>'") as exc:
        TrajectoryDump.read_csv(path)
    assert exc.value.line == 1


@pytest.mark.parametrize("meta, message", [
    ("5", "meta line must be a JSON object"),
    ("[2]", "meta line must be a JSON object"),
    ("null", "meta line must be a JSON object"),
    ('{"K": 2.5}', "meta K must be an integer >= 1, got 2.5"),
    ('{"K": 2.0}', "meta K must be an integer >= 1, got 2.0"),
    ('{"K": true}', "meta K must be an integer >= 1, got True"),
    ('{"K": "2"}', "meta K must be an integer >= 1, got '2'"),
    ('{"K": 0}', "meta K must be an integer >= 1, got 0"),
    ('{"K": null}', "meta K must be an integer >= 1, got None"),
], ids=["int", "list", "null", "float-K", "integral-float-K", "bool-K", "text-K", "zero-K",
        "null-K"])
def test_trajectory_csv_refuses_a_meta_line_it_cannot_use(tmp_path, meta, message):
    # a meta that is JSON but not an object, or whose K is no size, is
    # refused on line 1, before any snapshot is read
    path = tmp_path / "traj.csv"
    path.write_text(f"# {meta}\n# iteration=0 errors=0\n1\n")
    with pytest.raises(MatrixFormatError, match=re.escape(message)) as exc:
        TrajectoryDump.read_csv(path)
    assert exc.value.line == 1


def test_trajectory_csv_without_meta_line(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("# iteration=0 errors=1\n1,-1\n-1,1\n\n# iteration=1 errors=0\n1,1\n1,1\n")
    back = TrajectoryDump.read_csv(path)
    assert back.meta == {} and back.error_counts == [1, 0]
    assert [s.tolist() for s in back.snapshots] == [[[1, -1], [-1, 1]], [[1, 1], [1, 1]]]


@pytest.mark.parametrize("K, text, message, line", [
    (2, "# iteration=0\n1,1\n1,1\n", "expected '# iteration=0 errors=<m>'", 2),
    (2, "# iteration=0 errors=x\n1,1\n1,1\n", "expected '# iteration=0 errors=<m>'", 2),
    (2, "# iteration=0 errors=-1\n1,1\n1,1\n", "expected '# iteration=0 errors=<m>'", 2),
    (2, "# iteration=1 errors=0\n1,1\n1,1\n", "expected '# iteration=0 errors=<m>'", 2),
    (2, "# iteration=0 errors=0\n1,1\n1,1\n# iteration=0 errors=0\n1,1\n1,1\n",
     "expected '# iteration=1 errors=<m>'", 5),
    (2, "# a comment\n# iteration=0 errors=0\n1,1\n1,1\n", "expected '# iteration=0", 2),
    (2, "1,1\n1,1\n# iteration=0 errors=0\n1,1\n1,1\n", "before the first iteration header", 2),
    (2, "# iteration=0 errors=1\n\n", "iteration 0 has no snapshot", 2),
    (2, "# iteration=0 errors=0\n1,1\n1,1\n# iteration=1 errors=0\n", "iteration 1 has no", 5),
    (2, "# iteration=0 errors=0\n1,1\n1,1\n# iteration=1 errors=0\n1,1,1\n1,1,1\n1,1,1\n",
     "snapshot is 3x3, expected K=2", 5),
    (3, "# iteration=0 errors=0\n1,1\n1,1\n", "snapshot is 2x2, expected K=3", 2),
], ids=["no-errors", "errors-x", "errors-negative", "first-iteration-1", "repeated-iteration",
        "stray-comment", "rows-before-header", "empty-last-block", "header-at-end",
        "size-change", "size-not-meta-K"])
def test_trajectory_csv_refuses_what_write_csv_never_writes(tmp_path, K, text, message, line):
    # headers only as write_csv writes them, one K x K snapshot under each
    path = tmp_path / "traj.csv"
    path.write_text(f'# {{"K": {K}}}\n' + text)
    with pytest.raises(MatrixFormatError, match=message) as exc:
        TrajectoryDump.read_csv(path)
    assert exc.value.line == line


def test_trajectory_csv_without_meta_keeps_the_first_snapshot_size(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("# iteration=0 errors=0\n1,1\n1,1\n\n"
                    "# iteration=1 errors=0\n1,1,1\n1,1,1\n1,1,1\n")
    with pytest.raises(MatrixFormatError, match="snapshot is 3x3, expected K=2") as exc:
        TrajectoryDump.read_csv(path)
    assert exc.value.line == 5


def test_trajectory_csv_bytes(tmp_path):
    # write_csv's rows go through the spin-matrix row writer; the bytes
    # are pinned, and read_csv gives the dump back
    dump = TrajectoryDump(meta={"K": 2, "source": "iid"},
                          snapshots=[np.array([[1, -1], [-1, 1]], np.int8), np.ones((2, 2), np.int8)],
                          error_counts=[1, 0])
    path = tmp_path / "traj.csv"
    dump.write_csv(path)
    assert path.read_bytes() == (b'# {"K": 2, "source": "iid"}\n# iteration=0 errors=1\n1,-1\n-1,1\n\n'
                                 b"# iteration=1 errors=0\n1,1\n1,1\n\n")
    back = TrajectoryDump.read_csv(path)
    assert (back.meta, back.error_counts) == (dump.meta, dump.error_counts)
    assert [s.tolist() for s in back.snapshots] == [s.tolist() for s in dump.snapshots]


# ---------------------------------------------------------------------------
# recorded values

@pytest.mark.parametrize("driver", ["bench_iid", "landscape", "efficiency_ratio",
                                    "trajectory_demo"])
def test_records_survive_json_with_numpy_integer_counts(driver):
    """Every count a driver records is the Python int its check returned,
    so a config, details dict or meta built from numpy integers is JSON."""
    i = np.int64
    if driver == "bench_iid":
        record = bench_iid("mcmc", [i(5), i(6)], [0.1], trials=i(3), iters=i(2), seed=i(1),
                           mcmc_budget=i(4), n_workers=i(1)).config
    elif driver == "landscape":
        record = landscape([gen_instance(i(5), i(3)), gen_instance(i(5), i(4))], [1.0], [0.5],
                           budget=i(20), trials_per_cell=i(2), seed=i(1), bf_max_iters=i(2),
                           n_workers=i(1)).config
    elif driver == "efficiency_ratio":
        _, record = efficiency_ratio(gen_instance(i(5), i(3)), (1.0, 0.5), (1.0, 0.5),
                                     seed=i(1), trials=i(2), budget_a=i(20), budget_b=i(10),
                                     bf_max_iters=i(2), return_details=True)
    else:
        record = trajectory_demo({"kind": "mcmc", "instance": gen_instance(i(8), i(1)),
                                  "beta": 1.5, "gamma": 0.1, "budget": i(30)},
                                 seed=i(2), iters=i(3)).meta
    json.dumps(record)
