"""The lockstep chain engine against the single-chain engine, the
incremental adjacent check sums, and the batched landscape against a
per-chain oracle."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parity_decode import (
    HamiltonianParams,
    build_code,
    encode,
    gen_instance,
    hybrid_decode,
    landscape,
    matrix_to_vector,
    mcmc_decode,
    trial_seed,
    vector_to_matrix,
    wilson_interval,
)
from parity_decode import experiments, mcmc
from parity_decode.channels import as_generator
from parity_decode.code import _syndrome_flat
from parity_decode.mcmc import _Chain, _run_chain, _run_lockstep

SETTINGS = settings(max_examples=40, deadline=None)
CELL_VALUES = [0.0, 0.3, 1.5, 4.0]


def _rows(code, family, data, B):
    """Per-row parameters (mixed cells, couplings None at beta 0 allowed),
    seeds and edge-vector targets; some targets equal the chain's own
    initial state, so they are hit at sample 0."""
    params, seeds, targets = [], [], []
    for b in range(B):
        beta = data.draw(st.sampled_from(CELL_VALUES))
        gamma = data.draw(st.sampled_from(CELL_VALUES))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed + 1)
        J = None if beta == 0.0 and data.draw(st.booleans()) else rng.uniform(-1, 1, code.n_vars)
        params.append(HamiltonianParams(beta=beta, gamma=gamma, couplings=J, family=family))
        seeds.append(seed)
        if data.draw(st.booleans()):
            initial = as_generator(seed).integers(0, 2, size=code.n_vars) * 2 - 1
            targets.append(initial.astype(np.int8))
        else:
            Z = np.where(rng.random(code.K) < 0.5, 1, -1)
            targets.append(matrix_to_vector(code, encode(code, Z)))
    return params, seeds, np.stack(targets)


def _none_as(hit):
    return -1 if hit is None else hit


def _assert_rows_match_single_chains(code, params, budget, seeds, targets, iters):
    """Every row of a lockstep batch equals its single chain, and the
    batch's decoded hits, with and without recorded states, equal
    hybrid_decode's."""
    out = _run_lockstep(code, params, budget, seeds, targets,
                        record=True, bf_iters=iters)
    streamed = _run_lockstep(code, params, budget, seeds, targets, bf_iters=iters)
    assert "states" not in streamed
    for b in range(len(seeds)):
        run, states = _run_chain(code, params[b], budget, seeds[b], targets[b], None, True)
        assert np.array_equal(states[0], matrix_to_vector(code, run.initial))
        assert out["states"][b].tobytes() == states.tobytes()
        assert out["energies"][b].tobytes() == run.energies.tobytes()
        assert out["escape_rates"][b].tobytes() == run.escape_rates.tobytes()
        assert out["target_hit"][b] == _none_as(run.target_hit)
        assert out["first_codeword"][b] == _none_as(run.first_codeword)

        _, hyb = hybrid_decode(code, params[b], budget, vector_to_matrix(code, targets[b]),
                               seeds[b], bf_max_iters=iters, store_samples=False)
        expected = (_none_as(hyb.decoded_target_hit), _none_as(hyb.decoded_any_codeword))
        for o in (out, streamed):
            assert o["target_hit"][b] == _none_as(run.target_hit)
            assert (o["decoded_target_hit"][b], o["decoded_any_codeword"][b]) == expected


@SETTINGS
@given(K=st.integers(2, 8), family=st.sampled_from(["w3", "w4"]), B=st.integers(1, 6),
       budget=st.integers(1, 60), interval=st.sampled_from([3, 7, 10_000]),
       iters=st.integers(1, 3), block=st.sampled_from([3, 7, 1024]), data=st.data())
def test_lockstep_rows_equal_single_chains(K, family, B, budget, interval, iters, block,
                                           data):
    code = build_code(K)
    params, seeds, targets = _rows(code, family, data, B)
    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", interval), \
            mock.patch.object(mcmc, "UNIFORM_BLOCK", block):
        _assert_rows_match_single_chains(code, params, budget, seeds, targets, iters)


@pytest.mark.parametrize("family", ["w3", "w4"])
def test_lockstep_k2_rows_equal_single_chains(family):
    # K = 2: one variable, no checks; every adjacency entry is padding
    code = build_code(2)
    params = [HamiltonianParams(beta=1.0, gamma=0.5, couplings=[0.2], family=family),
              HamiltonianParams(beta=0.0, gamma=0.0, family=family)]
    targets = np.array([[1], [-1]], dtype=np.int8)
    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", 3):
        _assert_rows_match_single_chains(code, params, 9, [5, 6], targets, 1)


class _TopUniforms:
    """Stream whose uniforms are all 1.0, so u equals the total weight:
    both engines must then pick the last pair, as the clipped
    searchsorted does."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def test_lockstep_selection_at_u_equal_total_matches_single_chain():
    code = build_code(5)
    params = [HamiltonianParams(beta=1.5, gamma=0.3, couplings=np.linspace(-1, 1, 10)),
              HamiltonianParams(beta=0.0, gamma=0.0)]
    targets = np.ones((2, code.n_vars), dtype=np.int8)
    with mock.patch.object(mcmc, "as_generator", _TopUniforms):
        _assert_rows_match_single_chains(code, params, 6, [1, 2], targets, 1)


def test_lockstep_crosses_drift_checks_on_a_long_chain():
    code = build_code(8)
    inst = gen_instance(8, 3)
    params = [HamiltonianParams(beta=b, gamma=g, couplings=inst.couplings, family="w4")
              for b, g in ((3.0, 4.0), (0.0, 0.0), (1.5, 0.2))]
    targets = np.stack([matrix_to_vector(code, encode(code, inst.ground_state))] * 3)
    budget = 2 * mcmc.UNIFORM_BLOCK + 17
    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", 500):
        out = _run_lockstep(code, params, budget, [1, 2, 3], targets, record=True)
        for b, seed in enumerate([1, 2, 3]):
            run, _ = _run_chain(code, params[b], budget, seed, targets[b], None, False)
            assert out["energies"][b].tobytes() == run.energies.tobytes()
            assert out["escape_rates"][b].tobytes() == run.escape_rates.tobytes()


@pytest.mark.parametrize("engine", ["lockstep", "single"])
def test_drift_check_raises_on_corrupted_adjacent_sums(engine):
    code = build_code(5)
    params = HamiltonianParams(beta=0.0, gamma=1.0, family="w4")
    targets = np.ones((1, code.n_vars), dtype=np.int8)
    real = mcmc._adjacent_sums
    calls = []

    def corrupted(adj, s):
        # corrupt the initial sums only, not the drift check's reference
        out = real(adj, s)
        if not calls:
            out[..., 0] += 2.0
        calls.append(1)
        return out

    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", 4), \
            mock.patch.object(mcmc, "_adjacent_sums", corrupted):
        with pytest.raises(RuntimeError, match="adjacent check sums"):
            if engine == "lockstep":
                _run_lockstep(code, [params], 10, [0], targets)
            else:
                _run_chain(code, params, 10, 0, targets[0], None, False)


@pytest.mark.parametrize("engine", ["lockstep", "single"])
def test_drift_check_raises_on_corrupted_correlation(engine):
    code = build_code(5)
    params = HamiltonianParams(beta=1.0, gamma=1.0, couplings=np.linspace(-1, 1, code.n_vars))
    targets = np.ones((1, code.n_vars), dtype=np.int8)
    real = mcmc._totals
    calls = []

    def corrupted(*args):
        # corrupt the starting correlation only, not the drift check's reference
        s, adj_sum, n_unsat, corr = real(*args)
        if not calls:
            corr = corr + 0.5
        calls.append(1)
        return s, adj_sum, n_unsat, corr

    with mock.patch.object(mcmc, "ENERGY_CHECK_INTERVAL", 4), \
            mock.patch.object(mcmc, "_totals", corrupted):
        with pytest.raises(RuntimeError, match="energy drifted"):
            if engine == "lockstep":
                _run_lockstep(code, [params], 10, [0], targets)
            else:
                _run_chain(code, params, 10, 0, targets[0], None, False)
    assert len(calls) == 2


def test_lockstep_rejects_mixed_families():
    code = build_code(4)
    params = [HamiltonianParams(family="w3"), HamiltonianParams(family="w4")]
    with pytest.raises(ValueError):
        _run_lockstep(code, params, 5, [0, 1], np.ones((2, code.n_vars)))
    with pytest.raises(ValueError):
        _run_lockstep(code, params[:1], 0, [0], np.ones((1, code.n_vars)))


@SETTINGS
@given(K=st.integers(2, 9), family=st.sampled_from(["w3", "w4"]),
       beta=st.sampled_from(CELL_VALUES), gamma=st.sampled_from(CELL_VALUES),
       seed=st.integers(0, 2**32 - 1))
def test_chain_adjacent_sums_match_full_gather_every_step(K, family, beta, gamma, seed):
    code = build_code(K)
    rng = np.random.default_rng(seed)
    params = HamiltonianParams(beta=beta, gamma=gamma, family=family,
                               couplings=rng.uniform(-1, 1, code.n_vars))
    xf = (rng.integers(0, 2, size=code.n_vars) * 2 - 1).astype(np.int8)
    chain = _Chain(code, params, xf, rng)
    adj = code.checks3_of_var if family == "w3" else code.checks4_of_var
    for _ in range(25):
        chain.step()
        s = _syndrome_flat(code, chain.xf, family)
        gathered = [sum(int(s[c]) for c in row if c >= 0) for row in adj]
        assert np.array_equal(chain.adj_sum[:-1], gathered)
        assert np.array_equal(chain.s[:-1], s) and chain.s[-1] == 0
        assert chain.n_unsat == np.count_nonzero(s == -1)


# ---------------------------------------------------------------------------
# landscape: batched blocks against the per-chain loop

def _oracle_rows(instances, beta_grid, gamma_grid, strategy, budget, trials, seed,
                 bf_max_iters=5, family="w4"):
    """One cell at a time, one mcmc_decode / hybrid_decode call per chain."""
    code = build_code(instances[0].K)
    rows = []
    for bi, beta in enumerate(beta_grid):
        for gi, gamma in enumerate(gamma_grid):
            per_target, per_any = [], []
            for i, inst in enumerate(instances):
                target = encode(code, inst.ground_state)
                params = HamiltonianParams(beta=float(beta), gamma=float(gamma),
                                           couplings=inst.couplings, family=family)
                t_succ = a_succ = 0
                for t in range(trials):
                    chain_seed = trial_seed(seed, 23, bi, gi, i, t)
                    if strategy == "mcmc":
                        ok, run = mcmc_decode(code, params, budget, target, chain_seed,
                                              store_samples=False)
                        any_hit = run.first_codeword is not None
                    else:
                        ok, run = hybrid_decode(code, params, budget, target, chain_seed,
                                                bf_max_iters=bf_max_iters,
                                                store_samples=False)
                        any_hit = run.decoded_any_codeword is not None
                    t_succ += int(ok)
                    a_succ += int(any_hit)
                per_target.append(t_succ)
                per_any.append(a_succ)
            runs = trials * len(instances)
            tt, ta = sum(per_target), sum(per_any)
            lo, hi = wilson_interval(tt, runs)
            rows.append({
                "strategy": strategy, "beta": float(beta), "gamma": float(gamma),
                "budget": budget, "runs": runs, "target_successes": tt,
                "target_rate": tt / runs if runs else 0.0,
                "target_wilson_low": lo, "target_wilson_high": hi,
                "any_codeword_successes": ta,
                "any_codeword_rate": ta / runs if runs else 0.0,
                "per_instance_target": per_target, "per_instance_any": per_any,
            })
    return rows


LAND = dict(beta_grid=[0.0, 1.0, 3.0], gamma_grid=[0.05, 1.5], budget=40,
            trials_per_cell=3, seed=12)


@pytest.mark.parametrize("strategy", ["mcmc", "hybrid"])
def test_landscape_rows_equal_per_chain_oracle(strategy):
    insts = [gen_instance(6, 40 + i) for i in range(3)]
    rep = landscape(insts, strategy=strategy, **LAND)
    oracle = _oracle_rows(insts, LAND["beta_grid"], LAND["gamma_grid"], strategy,
                          LAND["budget"], LAND["trials_per_cell"], LAND["seed"])
    assert rep.rows == oracle
    assert sum(r["target_successes"] for r in rep.rows) > 0
    batches = []

    def spy(code, params_rows, *args, **kwargs):
        batches.append(len(params_rows))
        return _run_lockstep(code, params_rows, *args, **kwargs)

    n_chains = 6 * len(insts) * LAND["trials_per_cell"]
    with mock.patch.object(experiments, "_run_lockstep", spy):
        # more chains than one lockstep group: groups split mid-cell
        with mock.patch.object(experiments, "LOCKSTEP_GROUP", 4):
            assert landscape(insts, strategy=strategy, **LAND).rows == oracle
        assert batches == [4] * (n_chains // 4) + [n_chains % 4]
        # blocks shorter than the budget: the hybrid decodes mid-chain,
        # and no strategy splits its batch
        batches.clear()
        with mock.patch.object(mcmc, "UNIFORM_BLOCK", 7):
            assert landscape(insts, strategy=strategy, **LAND).rows == oracle
        assert batches == [n_chains]


@pytest.mark.parametrize("strategy", ["mcmc", "hybrid"])
def test_landscape_reports_byte_identical_across_worker_counts(strategy, tmp_path):
    insts = [gen_instance(6, 50 + i) for i in range(2)]
    blobs = []
    for n_workers in (1, 2, 3):
        rep = landscape(insts, strategy=strategy, n_workers=n_workers, **LAND)
        path = tmp_path / f"{strategy}{n_workers}.json"
        rep.to_json(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_landscape_zero_trials_rows():
    insts = [gen_instance(5, 1)]
    rep = landscape(insts, beta_grid=[1.0], gamma_grid=[0.5, 1.0], strategy="hybrid",
                    trials_per_cell=0, seed=0)
    assert [r["runs"] for r in rep.rows] == [0, 0]
    assert all(r["per_instance_target"] == [0] for r in rep.rows)
