import json
import os

import numpy as np
import pytest

from parity_decode import (
    BenchmarkReport,
    all_one_matrix,
    bp_decode,
    build_code,
    encode,
    sample_iid_errors,
    trial_seed,
    write_spin_matrix_csv,
)
from parity_decode.cli import ENV_SEED, main
from parity_decode.reports import TrajectoryDump


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_code_info_text(capsys):
    code, out, _ = run_cli(["code-info", "--k", "5"], capsys)
    assert code == 0
    assert "= 10" in out   # C(5,2)
    assert "= 6" in out    # C(4,2)
    assert "3 per spin" in out  # d_v = K-2


def test_code_info_json_k4_matrices(capsys):
    code, out, _ = run_cli(["code-info", "--k", "4", "--json", "--dump-matrices"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["n_vars"] == 6
    assert info["generator"] == [
        [1, 1, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [0, 0, 1, 0, 1, 1],
    ]
    assert info["checks_w4"] == [
        [1, 1, 0, 1, 0, 0],
        [0, 1, 1, 1, 1, 0],
        [0, 0, 0, 1, 1, 1],
    ]


def test_code_info_text_matrices_k4(capsys):
    code, out, _ = run_cli(["code-info", "--k", "4", "--dump-matrices"], capsys)
    assert code == 0
    lines = out.splitlines()
    generator = lines.index("generator:")
    assert lines[generator + 1:generator + 5] == [
        "  1 1 1 0 0 0", "  1 0 0 1 1 0", "  0 1 0 1 0 1", "  0 0 1 0 1 1"]
    assert "checks_w4:" in lines and "checks_w3:" in lines


def test_code_info_matrices_refused_above_k8(capsys):
    code, out, err = run_cli(["code-info", "--k", "9", "--dump-matrices"], capsys)
    assert code == 2 and out == ""
    assert "K <= 8" in err


def test_code_info_k2(capsys):
    code, out, _ = run_cli(["code-info", "--k", "2", "--json"], capsys)
    assert code == 0
    info = json.loads(out)
    assert info["n_checks3"] == 0 and info["n_checks4"] == 0


def test_code_info_bad_k(capsys):
    code, _, err = run_cli(["code-info", "--k", "1"], capsys)
    assert code == 2
    assert "K" in err


def test_decode_codeword_file(tmp_path, capsys):
    z = encode(build_code(5), [1, -1, 1, 1, -1])
    path = tmp_path / "z.csv"
    write_spin_matrix_csv(path, z)
    code, out, _ = run_cli(["decode", "--input", str(path), "--decoder", "bf"], capsys)
    assert code == 0
    assert ",0," in out.splitlines()[-1] or ",0\n" in out  # 0 iterations


def test_decode_single_error_success(tmp_path, capsys):
    x = all_one_matrix(6)
    x[0, 2] = x[2, 0] = -1
    path = tmp_path / "x.csv"
    write_spin_matrix_csv(path, x)
    code, out, _ = run_cli(
        ["decode", "--input", str(path), "--decoder", "bf", "--target-allone"], capsys
    )
    assert code == 0
    last = out.strip().splitlines()[-1]
    fields = last.split(",")
    assert fields[4] == "1"  # one iteration
    assert fields[5] == "1"  # success


def test_decode_failure_exit_code(tmp_path, capsys):
    # heavy noise the decoder cannot fix within one iteration budget
    code_obj = build_code(6)
    rng = np.random.default_rng(5)
    x = all_one_matrix(6)
    for (i, j) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (1, 4)]:
        x[i, j] = x[j, i] = -1
    path = tmp_path / "x.csv"
    write_spin_matrix_csv(path, x)
    code, out, _ = run_cli(
        ["decode", "--input", str(path), "--decoder", "bf", "--iters", "1",
         "--target-allone"], capsys
    )
    assert code in (0, 1)  # depends on pattern; must not be a usage error
    # force guaranteed failure: target differs from any reachable fixed point
    x2 = all_one_matrix(2)
    x2[0, 1] = x2[1, 0] = -1
    path2 = tmp_path / "x2.csv"
    write_spin_matrix_csv(path2, x2)
    code, _, _ = run_cli(
        ["decode", "--input", str(path2), "--decoder", "bf", "--target-allone"], capsys
    )
    assert code == 1  # K=2 has no checks; input differs from target


def test_decode_malformed_matrix(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,-1\n-1\n")
    code, _, err = run_cli(["decode", "--input", str(path)], capsys)
    assert code == 2
    assert "line" in err or "columns" in err


def test_decode_gen_iid(capsys):
    code, out, _ = run_cli(
        ["decode", "--gen-iid", "12", "0.1", "--decoder", "bf", "--seed", "3"], capsys
    )
    assert code in (0, 1)
    assert out.startswith("trial,decoder")


def _bp_row(x, epsilon, target):
    """The row and exit code `decode --decoder bp` should print for x."""
    res = bp_decode(build_code(len(x)), x=x, epsilon=epsilon, target=target)
    assert res.ties == 0
    row = f"0,bp,{len(x)},{epsilon},{res.iterations},{int(res.success)},0"
    return row, 0 if res.success else 1


def test_decode_gen_iid_bp(capsys, monkeypatch):
    # master seed 0 when neither --seed nor the environment gives one
    monkeypatch.delenv(ENV_SEED, raising=False)
    code, out, _ = run_cli(["decode", "--gen-iid", "9", "0.1", "--decoder", "bp"], capsys)
    x = sample_iid_errors(build_code(9), 0.1, trial_seed(0, 51))
    row, want = _bp_row(x, 0.1, all_one_matrix(9))
    assert out.splitlines()[1:] == [row]
    assert code == want


@pytest.mark.parametrize("K, noise, seed", [(9, 0.1, 1), (12, 0.3, 2), (7, 0.45, 3), (2, 0.99, 0)])
def test_decode_file_bp(tmp_path, capsys, K, noise, seed):
    # K = 2 has no checks: its flipped pair stays wrong, so the run fails
    x = sample_iid_errors(build_code(K), noise, seed)
    assert K > 2 or x[0, 1] == -1
    path = tmp_path / "x.csv"
    write_spin_matrix_csv(path, x)
    code, out, _ = run_cli(["decode", "--input", str(path), "--decoder", "bp",
                            "--epsilon", "0.2", "--target-allone"], capsys)
    row, want = _bp_row(x, 0.2, all_one_matrix(K))
    assert out.splitlines()[1:] == [row]
    assert code == want


@pytest.mark.parametrize("args", [
    ["decode", "--gen-iid", "5", "0.1", "--iters", "0"],
    ["decode", "--gen-iid", "5", "abc"],
    ["decode", "--gen-iid", "5", "0.1", "--csv", "{missing}/x.csv"],
])
def test_decode_usage_and_file_errors_exit_2(tmp_path, capsys, args):
    # exit 1 means a decode failure, so these must not surface as tracebacks
    args = [a.format(missing=tmp_path / "missing") for a in args]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error: ")


def test_decode_csv_append(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    run_cli(["decode", "--gen-iid", "10", "0.05", "--seed", "1", "--csv", str(out_csv)], capsys)
    run_cli(["decode", "--gen-iid", "10", "0.05", "--seed", "2", "--csv", str(out_csv)], capsys)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("trial,decoder")
    assert len(lines) == 3


def test_bench_writes_reports_and_determinism(tmp_path, capsys):
    args = ["bench", "--decoder", "bf", "--k", "6,8", "--epsilon", "0.1",
            "--trials", "50", "--seed", "4", "--threads", "1",
            "--out-dir", str(tmp_path)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 2
    csv_file = [f for f in files if f.endswith(".csv")][0]
    first = (tmp_path / csv_file).read_text()
    rep = BenchmarkReport.from_csv(tmp_path / csv_file)
    assert rep.config["trials"] == 50
    # byte-identical on repeat
    code, _, _ = run_cli(args, capsys)
    assert (tmp_path / csv_file).read_text() == first


def test_bench_refuses_coin_ties(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--decoder", "bf", "--k", "3", "--epsilon", "0.3", "--trials", "20",
              "--tie-policy", "coin", "--threads", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_decode_coin_ties(tmp_path, capsys):
    # K=3 with one error: every pair ties, and COIN breaks them with a
    # seeded coin, so the run repeats exactly
    m = all_one_matrix(3)
    m[0, 1] = m[1, 0] = -1
    path = tmp_path / "m.csv"
    write_spin_matrix_csv(path, m)
    args = ["decode", "--input", str(path), "--tie-policy", "coin", "--seed", "5"]
    code, out, _ = run_cli(args, capsys)
    assert code in (0, 1)
    assert int(out.splitlines()[1].split(",")[-1]) >= 3  # ties column
    assert run_cli(args, capsys) == (code, out, "")


def test_bench_zero_trials(tmp_path, capsys):
    code, _, _ = run_cli(
        ["bench", "--decoder", "bf", "--k", "6", "--epsilon", "0.1", "--trials", "0",
         "--threads", "1", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 0


def test_bench_negative_trials_refused(tmp_path, capsys):
    code, _, err = run_cli(
        ["bench", "--decoder", "bf", "--k", "5", "--epsilon", "0.1", "--trials", "-3",
         "--threads", "1", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "trials" in err
    assert not list(tmp_path.iterdir())


def test_bench_refuses_bp_flip_rate_above_half(tmp_path, capsys):
    code, _, err = run_cli(
        ["bench", "--decoder", "bp", "--k", "5", "--epsilon", "0.1,0.6", "--trials", "3",
         "--threads", "1", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "epsilon" in err
    assert not list(tmp_path.iterdir())


def test_bench_unwritable_dir(capsys, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a dir")
    code, _, err = run_cli(
        ["bench", "--decoder", "bf", "--k", "6", "--epsilon", "0.1", "--trials", "5",
         "--threads", "1", "--seed", "1", "--out-dir", str(blocker)], capsys)
    assert code == 2


def test_landscape_cli_small(tmp_path, capsys):
    code, out, _ = run_cli(
        ["landscape", "--k", "6", "--instances", "2", "--beta", "1.0,2.0",
         "--gamma", "0.1", "--strategy", "hybrid", "--budget", "40",
         "--trials", "2", "--seed", "5", "--threads", "1", "--out-dir", str(tmp_path)],
        capsys)
    assert code == 0
    assert "best cell" in out


@pytest.mark.parametrize("args", [
    ["bench", "--decoder", "bf", "--k", "5", "--epsilon", "0.1", "--trials", "4"],
    ["landscape", "--k", "5", "--instances", "1", "--beta", "1.0", "--gamma", "0.5",
     "--budget", "20", "--trials", "2"],
])
def test_report_commands_print_each_written_path_once(tmp_path, capsys, args):
    code, out, _ = run_cli(args + ["--seed", "3", "--threads", "1", "--out-dir", str(tmp_path)],
                           capsys)
    assert code == 0
    stem = os.path.join(str(tmp_path), os.path.splitext(sorted(os.listdir(tmp_path))[0])[0])
    lines = out.splitlines()
    assert lines[:2] == [f"wrote {stem}.csv", f"wrote {stem}.json"]
    assert sum(line.startswith("wrote ") for line in lines) == 2


def test_landscape_cli_refuses_zero_bf_iters(tmp_path, capsys):
    code, _, err = run_cli(
        ["landscape", "--k", "5", "--instances", "1", "--beta", "1.0", "--gamma", "0.5",
         "--strategy", "hybrid", "--budget", "20", "--trials", "2", "--bf-iters", "0",
         "--threads", "1", "--seed", "5", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "bf_max_iters" in err
    assert not list(tmp_path.iterdir())


def test_trajectory_cli(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, out, _ = run_cli(
        ["trajectory", "--source", "iid", "--k", "20", "--epsilon", "0.2",
         "--decoder", "bf", "--seed", "2", "--out", str(out_file)], capsys)
    assert code == 0
    assert out_file.exists()
    text = out_file.read_text()
    assert "iteration=0" in text


def test_trajectory_cli_mcmc_source(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, out, _ = run_cli(
        ["trajectory", "--source", "mcmc", "--k", "8", "--budget", "200", "--seed", "3",
         "--out", str(out_file)], capsys)
    assert code == 0
    assert out.startswith(f"wrote {out_file}\n")
    meta = TrajectoryDump.read_csv(out_file).meta
    assert meta["source"] == "mcmc"
    assert (meta["K"], meta["budget"], meta["instance"]) == (8, 200, "K8-s0")


def test_trajectory_cli_mcmc_source_refuses_k_above_ground_state_bound(tmp_path, capsys):
    # the default --k 40 has no exhaustive ground state to decode toward
    out_file = tmp_path / "t.csv"
    code, out, err = run_cli(
        ["trajectory", "--source", "mcmc", "--seed", "3", "--out", str(out_file)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: K=40 exceeds exhaustive ground-state bound 24\n"
    assert not out_file.exists()


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PARITY_DECODE_SEED", "123")
    code, out1, _ = run_cli(["decode", "--gen-iid", "10", "0.2"], capsys)
    code, out2, _ = run_cli(["decode", "--gen-iid", "10", "0.2"], capsys)
    assert out1 == out2  # same env seed, same outcome
