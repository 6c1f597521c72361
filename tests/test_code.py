import itertools
import math
import sys
import threading

import numpy as np
import pytest

from parity_decode import (
    HamiltonianParams,
    MatrixFormatError,
    all_one_matrix,
    build_code,
    check_matrix,
    codewords,
    count_errors,
    encode,
    error_matrix,
    generator_matrix,
    is_codeword,
    matrix_to_vector,
    random_spin_matrix,
    read_spin_matrix_csv,
    syndrome,
    validate_spin_matrix,
    vector_to_matrix,
    write_spin_matrix_csv,
)
from parity_decode.code import _padded, gf2_product_is_zero, validate_logical_state
from parity_decode.decoders import _bp_layout

# Reference matrices for K = 4, edge order (12,13,14,23,24,34).
G4 = np.array([
    [1, 1, 1, 0, 0, 0],
    [1, 0, 0, 1, 1, 0],
    [0, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1],
])
H4_W4 = np.array([
    [1, 1, 0, 1, 0, 0],
    [0, 1, 1, 1, 1, 0],
    [0, 0, 0, 1, 1, 1],
])
H4_W3 = np.array([
    [1, 1, 0, 1, 0, 0],
    [1, 0, 1, 0, 1, 0],
    [0, 1, 1, 0, 0, 1],
    [0, 0, 0, 1, 1, 1],
])


def test_build_code_k4_reference_matrices():
    code = build_code(4)
    assert np.array_equal(generator_matrix(code), G4)
    assert np.array_equal(check_matrix(code, "w4"), H4_W4)
    assert np.array_equal(check_matrix(code, "w3"), H4_W3)


def test_build_code_rejects_bad_k():
    for bad in (1, 0, -3, 2.5, "4"):
        with pytest.raises(ValueError):
            build_code(bad)


def test_build_code_one_read_only_instance_per_k():
    for K in (2, 3, 9, np.int64(9)):
        code = build_code(K)
        assert build_code(int(K)) is code
        arrays = [v for v in vars(code).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6
        for a in arrays:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            code.edges[0, 0] = 0
    assert build_code(4) is not build_code(5)
    for bad in (1, 0, -3, 2.5, "4", True):
        with pytest.raises(ValueError):
            build_code(bad)


def test_build_code_one_instance_per_k_under_concurrent_first_calls():
    # K values no other test builds, so each first call races
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for K in range(41, 47):
            got = []
            threads = [threading.Thread(target=lambda: got.append(build_code(K)))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 4 and all(code is got[0] for code in got)
    finally:
        sys.setswitchinterval(switch)


def test_counts_table_small_k():
    # (K, C(K,2), C(K-1,2), C(K,3), K-2)
    expected = {4: (6, 3, 4, 2), 5: (10, 6, 10, 3), 6: (15, 10, 20, 4), 7: (21, 15, 35, 5)}
    for K, (nv, nc4, nc3, dv) in expected.items():
        code = build_code(K)
        assert code.n_vars == nv
        assert code.n_checks4 == nc4
        assert code.n_checks3 == nc3
        assert code.var_degree3 == dv


def test_k2_degenerate():
    code = build_code(2)
    assert code.n_vars == 1
    assert code.n_checks3 == 0
    assert code.n_checks4 == 0
    # every 2x2 spin matrix is a codeword
    m = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    assert is_codeword(code, m)


@pytest.mark.parametrize("K", range(2, 21))
def test_structure_invariants(K):
    code = build_code(K)
    assert code.n_vars == math.comb(K, 2)
    assert code.n_checks3 == math.comb(K, 3)
    assert code.n_checks4 == math.comb(K - 1, 2)
    G = generator_matrix(code)
    H3 = check_matrix(code, "w3")
    H4 = check_matrix(code, "w4")
    assert np.all(G.sum(axis=0) == 2)  # two 1s per column
    if K >= 3:
        assert np.all(H3.sum(axis=1) == 3)            # row weight 3
        assert np.all(H3.sum(axis=0) == K - 2)        # column weight K-2
        assert np.all(H4.sum(axis=1) <= 4)            # row weight <= 4
    assert gf2_product_is_zero(G, H3)
    assert gf2_product_is_zero(G, H4)


def test_deterministic_construction():
    a, b = build_code(9), build_code(9)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.checks3_vars, b.checks3_vars)
    assert np.array_equal(a.checks4_vars, b.checks4_vars)


def test_encode_examples():
    code = build_code(4)
    assert np.array_equal(encode(code, [1, 1, 1, 1]), all_one_matrix(4))
    z = encode(code, [1, -1, 1, 1])
    zf = matrix_to_vector(code, z)
    # edge order (12,13,14,23,24,34)
    assert zf.tolist() == [-1, 1, 1, -1, -1, 1]
    rng = np.random.default_rng(5)
    for _ in range(20):
        Z = rng.choice([-1, 1], size=6)
        assert np.array_equal(encode(build_code(6), Z), encode(build_code(6), -Z))
    with pytest.raises(ValueError):
        encode(code, [1, 1, 1])


def test_encode_is_codeword():
    rng = np.random.default_rng(0)
    for K in (2, 3, 5, 8):
        code = build_code(K)
        for _ in range(10):
            Z = rng.choice([-1, 1], size=K)
            assert is_codeword(code, encode(code, Z))


def test_syndrome_single_error_k4():
    code = build_code(4)
    x = all_one_matrix(4)
    x[0, 1] = x[1, 0] = -1
    s3 = syndrome(code, x, "w3")
    # triples in order (123),(124),(134),(234): the two containing {1,2} flip
    assert s3.tolist() == [-1, -1, 1, 1]


@pytest.mark.parametrize("K", [4, 5, 7, 10])
def test_single_error_flips_k_minus_2_checks(K):
    code = build_code(K)
    for v in range(code.n_vars):
        x = all_one_matrix(K)
        i, j = code.edges[v]
        x[i, j] = x[j, i] = -1
        s3 = syndrome(code, x, "w3")
        assert int(np.count_nonzero(s3 == -1)) == K - 2


def test_syndrome_multiplicative():
    rng = np.random.default_rng(11)
    for K in (4, 6, 9):
        code = build_code(K)
        for _ in range(25):
            x = random_spin_matrix(K, rng)
            e = random_spin_matrix(K, rng)
            for family in ("w3", "w4"):
                lhs = syndrome(code, (x * e).astype(np.int8), family)
                rhs = syndrome(code, x, family) * syndrome(code, e, family)
                assert np.array_equal(lhs, rhs)


def test_codeword_iff_both_families(rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    for K in (3, 4, 5, 6, 7, 8):
        code = build_code(K)
        for _ in range(40):
            x = random_spin_matrix(K, rng)
            ok3 = bool(np.all(syndrome(code, x, "w3") == 1))
            ok4 = bool(np.all(syndrome(code, x, "w4") == 1))
            assert ok3 == ok4 == is_codeword(code, x)


def test_codeword_count_k4_bruteforce():
    code = build_code(4)
    count = 0
    for bits in itertools.product([1, -1], repeat=6):
        m = vector_to_matrix(code, np.array(bits, dtype=np.int8))
        count += is_codeword(code, m)
    assert count == 8  # 2^(K-1)
    assert len(codewords(code)) == 8


def test_not_codeword_after_single_flip():
    code = build_code(5)
    m = all_one_matrix(5)
    m[2, 4] = m[4, 2] = -1
    assert not is_codeword(code, m)


def test_plaquette_in_triangle_span():
    # every plaquette check row lies in the GF(2) span of the triangle rows
    for K in range(3, 8):
        code = build_code(K)
        H3 = check_matrix(code, "w3").astype(np.uint8)
        H4 = check_matrix(code, "w4").astype(np.uint8)
        basis = _gf2_row_reduce(H3.copy())
        for row in H4:
            assert _gf2_in_span(basis, row.copy()), f"K={K}"


def _gf2_row_reduce(M):
    rows = []
    for row in M:
        cur = row.copy()
        for r in rows:
            pivot = int(np.argmax(r))
            if cur[pivot]:
                cur ^= r
        if cur.any():
            rows.append(cur)
    return rows


def _gf2_in_span(basis, row):
    cur = row.copy()
    for r in basis:
        pivot = int(np.argmax(r))
        if cur[pivot]:
            cur ^= r
    return not cur.any()


def test_error_matrix_algebra():
    rng = np.random.default_rng(21)
    code = build_code(6)
    for _ in range(20):
        Z = rng.choice([-1, 1], size=6)
        z = encode(code, Z)
        e = random_spin_matrix(6, rng)
        x = (z * e).astype(np.int8)
        assert np.array_equal(error_matrix(x, z), e)
        assert np.array_equal(error_matrix(error_matrix(x, z), z), x)
        assert np.array_equal(error_matrix(z, z), all_one_matrix(6))
        # syndromes see only the error pattern
        assert np.array_equal(syndrome(code, x, "w3"), syndrome(code, e, "w3"))


def test_validate_spin_matrix_errors():
    with pytest.raises(ValueError):
        validate_spin_matrix(np.ones((3, 2)))
    bad = all_one_matrix(3).astype(np.int64)
    bad[0, 1] = 2
    with pytest.raises(ValueError):
        validate_spin_matrix(bad)
    asym = all_one_matrix(3)
    asym[0, 1] = -1
    with pytest.raises(ValueError):
        validate_spin_matrix(asym)
    nodiag = all_one_matrix(3)
    nodiag[1, 1] = -1
    with pytest.raises(ValueError):
        validate_spin_matrix(nodiag)


def test_size_and_entry_refusals():
    code = build_code(4)
    with pytest.raises(ValueError, match="has size 3, expected 4"):
        validate_spin_matrix(all_one_matrix(3), K=4)
    with pytest.raises(ValueError, match="entries must be"):
        validate_logical_state([1, -1, 0, 1], K=4)
    with pytest.raises(ValueError, match="length 3, expected 4"):
        validate_logical_state([1, -1, 1], K=4)
    for m in (np.ones((3, 3)), np.ones((4, 5)), np.ones(6)):
        with pytest.raises(ValueError, match="does not match K=4"):
            matrix_to_vector(code, m)
    for v in (np.ones(5), np.ones((2, 7)), np.int8(1)):
        with pytest.raises(ValueError, match="does not match n_vars=6"):
            vector_to_matrix(code, v)
    with pytest.raises(ValueError, match="shape mismatch"):
        error_matrix(all_one_matrix(3), all_one_matrix(4))
    with pytest.raises(ValueError, match="shape mismatch"):
        count_errors(all_one_matrix(3), all_one_matrix(4))
    asymmetric = all_one_matrix(3)
    asymmetric[0, 1] = -1
    with pytest.raises(ValueError, match="spin matrix must be symmetric"):
        count_errors(asymmetric, all_one_matrix(3))


@pytest.mark.parametrize("family", ["w5", "W3", "", None])
def test_unknown_family_refused_with_one_message(family):
    code = build_code(4)
    message = rf"unknown syndrome family {family!r} \(expected 'w3' or 'w4'\)"
    with pytest.raises(ValueError, match=message):
        syndrome(code, all_one_matrix(4), family)
    with pytest.raises(ValueError, match=message):
        check_matrix(code, family)
    with pytest.raises(ValueError, match=message):
        HamiltonianParams(family=family)


def test_check_matrix_reads_each_family_member(rng_seed=5):
    """Row c of check_matrix marks exactly the stored members of check c
    (not the fictitious diagonal ones), so H x over GF(2) gives the
    syndrome of any state."""
    rng = np.random.default_rng(rng_seed)
    for K in (2, 3, 5, 8):
        code = build_code(K)
        for family in ("w3", "w4"):
            H = check_matrix(code, family)
            m = random_spin_matrix(K, rng)
            bits = (matrix_to_vector(code, m) == -1).astype(np.int64)
            assert np.array_equal(1 - 2 * (H.astype(np.int64) @ bits % 2),
                                  syndrome(code, m, family))


def _scan_positions(members, n_vars, width):
    """Each variable's flat positions in a member table, found by a plain
    scan per variable, padded with -1."""
    flat = np.asarray(members).ravel()
    out = np.full((n_vars, width), -1, dtype=np.int64)
    for v in range(n_vars):
        pos = np.flatnonzero(flat == v)
        out[v, :len(pos)] = pos
    return out


@pytest.mark.parametrize("K", range(2, 41))
def test_adjacency_tables_match_a_per_variable_scan(K):
    code = build_code(K)
    n = code.n_vars
    layout, gather = _bp_layout(code)
    expected = {
        "checks3_of_var": (code.checks3_of_var, _scan_positions(code.checks3_vars, n, K - 2) // 3),
        "checks4_of_var": (code.checks4_of_var, _scan_positions(code.checks4_vars, n, 4) // 4),
        "gather": (gather, np.ascontiguousarray(_scan_positions(layout, n, K - 2).T)),
    }
    for name, (got, ref) in expected.items():
        assert got.dtype == ref.dtype and got.flags.c_contiguous, name
        assert np.array_equal(got, ref), name


def test_padded_appends_one_column_c_ordered():
    a = np.arange(12, dtype=np.int8).reshape(3, 4).T  # F-ordered (4, 3)
    out = _padded(a, -7)
    assert out.shape == (4, 4) and out.dtype == np.int8 and out.flags.c_contiguous
    assert np.array_equal(out[:, :3], a) and np.all(out[:, 3] == -7)
    assert np.array_equal(np.take(out, [-1, 0], axis=-1), np.stack([out[:, 3], a[:, 0]], 1))
    # an empty last axis still gets its column
    empty = _padded(np.empty((2, 0)), 0.5)
    assert empty.shape == (2, 1) and np.all(empty == 0.5)
    assert _padded(np.empty(0, np.int8), 1).tolist() == [1]


def test_vector_matrix_roundtrip():
    rng = np.random.default_rng(31)
    code = build_code(7)
    m = random_spin_matrix(7, rng)
    v = matrix_to_vector(code, m)
    assert np.array_equal(vector_to_matrix(code, v), m)


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    m = random_spin_matrix(5, rng)
    path = tmp_path / "m.csv"
    write_spin_matrix_csv(path, m)
    assert np.array_equal(read_spin_matrix_csv(path), m)


def test_matrix_csv_diagnostics(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,-1\n1,1\n")  # asymmetric
    with pytest.raises(MatrixFormatError):
        read_spin_matrix_csv(path)
    path.write_text("1,x\n-1,1\n")
    with pytest.raises(MatrixFormatError) as exc:
        read_spin_matrix_csv(path)
    assert exc.value.line == 1 and exc.value.column == 2
    path.write_text("1,1\n1\n")
    with pytest.raises(MatrixFormatError):
        read_spin_matrix_csv(path)


@pytest.mark.parametrize("text, message, line, column", [
    ("1,1\n1,0\n", r"\+1 or -1", 2, 2),
    ("\n\n", "empty", 1, 1),
    ("1,1,1\n1,-1,1\n1,1,1\n", "diagonal", 2, 2),
], ids=["entry", "empty", "diagonal"])
def test_matrix_csv_refusals_carry_location(tmp_path, text, message, line, column):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match=message) as exc:
        read_spin_matrix_csv(path)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert f"(line {line}, column {column})" in str(exc.value)


@pytest.mark.parametrize("text, message, line, column", [
    ("\n\n1,1\n1,1,1\n", "expected 2 columns, got 3", 4, 3),
    ("\n1,1\n\n1,-1\n", "diagonal", 4, 2),
    ("\n\n1,-1\n\n1,1\n", r"not symmetric at \(1,2\)", 5, 1),
    ("\n1,x\n1,1\n", "non-integer cell 'x'", 2, 2),
], ids=["ragged", "diagonal", "symmetry", "cell"])
def test_matrix_csv_refusals_name_the_file_line_after_blank_lines(tmp_path, text, message,
                                                                   line, column):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(MatrixFormatError, match=message) as exc:
        read_spin_matrix_csv(path)
    assert (exc.value.line, exc.value.column) == (line, column)


def test_codewords_refuses_over_limit():
    with pytest.raises(ValueError, match="exceeds limit"):
        codewords(build_code(6), limit=31)
    assert len(codewords(build_code(6), limit=32)) == 32
