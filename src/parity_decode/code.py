"""Parity-code construction for all-to-all coupled spin problems.

K logical spins are embedded into N_v = C(K,2) physical spins, one per
unordered pair {i,j}, carrying the relative orientation z_ij = Z_i * Z_j.
Two parity-check families certify consistency of a physical state:

* triangle checks: one per triple {i,j,k}, value x_ij * x_jk * x_ik
  (C(K,3) checks, every physical spin sits on K-2 of them);
* plaquette checks: the local lattice constraints of the parity
  embedding, one per pair (k, m) with 1 <= k < m <= K-1, touching the
  four spins {k,m}, {k+1,m}, {k+1,m+1}, {k,m+1} where any diagonal
  member {i,i} is a fictitious spin fixed at +1 (C(K-1,2) checks of
  weight at most 4).

A state is a codeword iff every check evaluates to +1; there are exactly
2^(K-1) codewords (global spin flip is a gauge freedom).

The internal state is the edge vector: one +-1 entry per physical spin
(variable node), in the lexicographic pair order of `ParityCode.edges`.
The symmetric unit-diagonal K x K spin matrix is the view the public API
and the file formats use; `matrix_to_vector` and `vector_to_matrix`
convert between the two, for single states and for stacks. Binary GF(2)
matrices are derived views used for structural verification only.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass

import numpy as np


class MatrixFormatError(ValueError):
    """Malformed spin-matrix file; carries 1-based line/column info."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True, eq=False)
class ParityCode:
    """Index structure of the parity code for K logical spins.

    Immutable: its arrays are read-only, and build_code hands out one
    instance per K, shared by every caller and thread. Hashed and
    compared by identity, so per-code tables can be cached by code.

    Attributes:
        K: number of logical spins.
        edges: (n_vars, 2) logical index pairs in lexicographic order;
            row v is the pair carried by variable node v.
        pair_index: (K, K) lookup, pair_index[i, j] = variable index of
            {i, j}; -1 on the diagonal.
        checks3_vars: (n_checks3, 3) variable indices (ij, ik, jk) of
            the triangle on logical spins i<j<k.
        checks4_vars: (n_checks4, 4) variable indices of the plaquette
            on logical spins (k, k+1, m, m+1); -1 marks a fictitious
            diagonal member (fixed at +1, never stored).
        checks3_of_var: (n_vars, K-2) triangle checks adjacent to each
            variable node.
        checks4_of_var: (n_vars, 4) plaquette checks adjacent to each
            variable node, padded with -1.
    """

    K: int
    edges: np.ndarray
    pair_index: np.ndarray
    checks3_vars: np.ndarray
    checks4_vars: np.ndarray
    checks3_of_var: np.ndarray
    checks4_of_var: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.edges)

    @property
    def n_checks3(self) -> int:
        return len(self.checks3_vars)

    @property
    def n_checks4(self) -> int:
        return len(self.checks4_vars)

    @property
    def var_degree3(self) -> int:
        """Triangle checks per variable node (column weight)."""
        return self.K - 2

    def __repr__(self) -> str:  # keep dataclass arrays out of repr
        return (
            f"ParityCode(K={self.K}, n_vars={self.n_vars}, "
            f"n_checks3={self.n_checks3}, n_checks4={self.n_checks4})"
        )


def _check_count(name: str, value, low: int | None = None) -> int:
    """The size, count or iteration number value as a Python int.
    Refuses one that is not an integer (numpy integers included, bool
    not) or, with low given, is below low: a float one would be
    truncated, or never met by a loop's equality test."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_strengths(where: str = "", **values) -> None:
    """Refuse any named value, or entry of one, that is not finite and >= 0."""
    for name, value in values.items():
        if not (np.isfinite(value) & np.greater_equal(value, 0)).all():
            raise ValueError(f"{name} must be finite and >= 0{where}, got {value}")


_BUILD_LOCK = threading.Lock()  # functools.cache alone lets concurrent first calls build twice


def build_code(K: int) -> ParityCode:
    """The parity code for K logical spins.

    Built once per K and process: every later call with the same K
    returns the same instance, whose arrays are read-only.
    Raises ValueError for K < 2.
    """
    K = _check_count("K", K, 2)
    with _BUILD_LOCK:
        return _construct(K)


def _member_positions(members: np.ndarray, n_vars: int, width: int) -> np.ndarray:
    """Where each variable occurs in members.ravel(), as (n_vars, width):
    row v lists v's flat positions in increasing order, padded with -1.
    The -1 (fictitious) members are skipped. Divided by the row length
    of members, a position is its check: this gives checks3_of_var,
    checks4_of_var and BP's gather."""
    flat = members.ravel()
    pos = np.flatnonzero(flat >= 0)
    pos = pos[np.argsort(flat[pos], kind="stable")]
    var = flat[pos]
    counts = np.bincount(var, minlength=n_vars)
    rank = np.arange(len(pos)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.full((n_vars, width), -1, dtype=np.int64)
    out[var, rank] = pos
    return out


@functools.cache
def _construct(K: int) -> ParityCode:
    """Deterministic index structure of the code for K >= 2, every array
    read-only."""
    edges = np.stack(np.triu_indices(K, 1), axis=1)
    n_vars = len(edges)
    pair_index = np.full((K, K), -1, dtype=np.int64)
    pair_index[edges[:, 0], edges[:, 1]] = pair_index[edges[:, 1], edges[:, 0]] = np.arange(n_vars)

    # Triangle checks: every triple i<j<k, touching edges ij, ik, jk.
    checks3 = np.array(list(itertools.combinations(range(K), 3)), dtype=np.int64).reshape(-1, 3)
    checks3_vars = np.ascontiguousarray(pair_index[checks3[:, [0, 0, 1]], checks3[:, [1, 2, 2]]])
    # Plaquette checks: quadruple (k, k+1, m, m+1), k < m, touches the
    # spins {k,m}, {k+1,m}, {k+1,m+1}, {k,m+1}. When k+1 == m the member
    # {k+1,m} is the diagonal, which pair_index marks -1 (fictitious).
    k, m = np.triu_indices(K - 1, 1)
    checks4 = np.stack([k, k + 1, m, m + 1], axis=1)
    checks4_vars = np.ascontiguousarray(pair_index[checks4[:, [0, 1, 1, 0]], checks4[:, [2, 2, 3, 3]]])

    arrays = dict(
        edges=edges,
        pair_index=pair_index,
        checks3_vars=checks3_vars,
        checks4_vars=checks4_vars,
        checks3_of_var=_member_positions(checks3_vars, n_vars, K - 2) // 3,
        checks4_of_var=_member_positions(checks4_vars, n_vars, 4) // 4,
    )
    for a in arrays.values():
        a.setflags(write=False)  # shared by every caller in the process
    return ParityCode(K=K, **arrays)


def validate_spin_matrix(m: np.ndarray, K: int | None = None) -> np.ndarray:
    """Check symmetry, unit diagonal and +-1 entries; return as int8."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"spin matrix must be square, got shape {m.shape}")
    if K is not None and m.shape[0] != K:
        raise ValueError(f"spin matrix has size {m.shape[0]}, expected {K}")
    if not np.all(np.abs(m) == 1):
        raise ValueError("spin matrix entries must be +1 or -1")
    if not np.all(np.diag(m) == 1):
        raise ValueError("spin matrix diagonal must be +1")
    if not np.array_equal(m, m.T):
        raise ValueError("spin matrix must be symmetric")
    return m.astype(np.int8)


def validate_logical_state(Z: np.ndarray, K: int | None = None) -> np.ndarray:
    Z = np.asarray(Z).ravel()
    if K is not None and len(Z) != K:
        raise ValueError(f"logical state has length {len(Z)}, expected {K}")
    if not np.all(np.abs(Z) == 1):
        raise ValueError("logical state entries must be +1 or -1")
    return Z.astype(np.int8)


def encode(code: ParityCode, Z: np.ndarray) -> np.ndarray:
    """Physical codeword matrix of a logical state: entries Z_i * Z_j."""
    Z = validate_logical_state(Z, code.K)
    return np.outer(Z, Z).astype(np.int8)


def _padded(a: np.ndarray, value) -> np.ndarray:
    """a (..., n) with value appended as column n, as a fresh C-ordered
    array in the dtype of a, so that a -1 index into the last axis reads
    value. The one padding rule for the -1 entries of the code's tables:
    the fictitious diagonal spin reads +1, a missing check 0."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,), dtype=a.dtype)
    out[..., :-1] = a
    out[..., -1] = value
    return out


def matrix_to_vector(code: ParityCode, m: np.ndarray) -> np.ndarray:
    """Edge vectors of spin matrices: shape (..., K, K) -> (..., n_vars),
    entry v taken from the pair code.edges[v] (upper triangle,
    lexicographic order)."""
    m = np.asarray(m)
    if m.shape[-2:] != (code.K, code.K):
        raise ValueError(f"matrix shape {m.shape} does not match K={code.K}")
    i, j = code.edges.T
    return m[..., i, j]


def _edge_vector(code: ParityCode, m: np.ndarray) -> np.ndarray:
    """Validated int8 edge vector of one spin matrix."""
    return matrix_to_vector(code, validate_spin_matrix(m, code.K))


def vector_to_matrix(code: ParityCode, v: np.ndarray) -> np.ndarray:
    """Symmetric unit-diagonal spin matrices from edge vectors: shape
    (..., n_vars) -> (..., K, K), in the dtype of v, C-contiguous. One
    gather through pair_index, whose diagonal -1 reads the appended +1."""
    v = np.asarray(v)
    if v.ndim == 0 or v.shape[-1] != code.n_vars:
        raise ValueError(f"vector shape {v.shape} does not match n_vars={code.n_vars}")
    return np.take(_padded(v, 1), code.pair_index, axis=-1)


def syndrome(code: ParityCode, x: np.ndarray, family: str = "w3") -> np.ndarray:
    """Parity-check values (+1 satisfied / -1 violated) of one family.

    family "w3": triangle checks; "w4": plaquette checks. Each value is
    the product of the adjacent variable-node spins, so the syndrome is
    multiplicative: syndrome(x o e) = syndrome(x) o syndrome(e).
    """
    return _syndrome_flat(code, _edge_vector(code, x), family)


def _family(code: ParityCode, family: str) -> tuple[np.ndarray, np.ndarray]:
    """(members, adjacency) of one check family: "w3" gives checks3_vars
    and checks3_of_var, "w4" checks4_vars and checks4_of_var. The one
    place a family name is turned into arrays, and so the one refusal of
    an unknown family."""
    if family == "w3":
        return code.checks3_vars, code.checks3_of_var
    if family == "w4":
        return code.checks4_vars, code.checks4_of_var
    raise ValueError(f"unknown syndrome family {family!r} (expected 'w3' or 'w4')")


def _syndrome_flat(code: ParityCode, xf: np.ndarray, family: str) -> np.ndarray:
    """Check values of edge vectors, (..., n_vars) -> (..., n_checks), in
    the dtype of xf (products of +-1 are exact in any integer type)."""
    first, *rest = _family(code, family)[0].T
    xp = _padded(xf, 1)  # a -1 member, the fictitious diagonal spin, reads +1
    s = xp[..., first]
    for col in rest:
        s = s * xp[..., col]
    return s


@functools.cache
def _codeword_pairs(code: ParityCode) -> tuple[np.ndarray, np.ndarray]:
    """Variable indices of {0, i} and {0, j} for each pair {i, j} with
    1 <= i < j, in edge order; those pairs are the variables from K - 1
    on, and {0, i} is variable i - 1."""
    pairs = code.edges[code.K - 1:].T - 1
    pairs.setflags(write=False)  # shared by every caller in the process
    return pairs[0], pairs[1]


def _is_codeword_flat(code: ParityCode, xf: np.ndarray) -> np.ndarray:
    """Whether edge vectors (..., n_vars) are codewords, as (...,) bool.

    A state is a codeword iff x_ij = x_0i x_0j for all 1 <= i < j: the
    triangles (0, i, j) are then satisfied, and every other triangle is
    a product of those. C(K-1, 2) comparisons instead of C(K, 3) checks."""
    a, b = _codeword_pairs(code)
    return (xf[..., code.K - 1:] == xf[..., a] * xf[..., b]).all(axis=-1)


def is_codeword(code: ParityCode, x: np.ndarray) -> bool:
    """True iff every triangle check is satisfied."""
    return bool(_is_codeword_flat(code, _edge_vector(code, x)))


def error_matrix(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Componentwise product x o z; recovers the error pattern when z is
    the transmitted codeword. Involutive: error_matrix(error_matrix(x, z), z) == x.
    """
    x = validate_spin_matrix(x)
    z = validate_spin_matrix(z)
    if x.shape != z.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {z.shape}")
    return (x * z).astype(np.int8)


def all_one_matrix(K: int) -> np.ndarray:
    return np.ones((K, K), dtype=np.int8)


def random_spin_matrix(K: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random symmetric +-1 matrix with unit diagonal."""
    v = rng.integers(0, 2, size=K * (K - 1) // 2).astype(np.int8) * 2 - 1
    return vector_to_matrix(build_code(K), v)


def _spin_rows(numbers: np.ndarray, n: int) -> np.ndarray:
    """+-1 rows (len(numbers), n) as int8: entry b is +1 where bit b of
    the number is set, -1 where it is clear. The one enumeration of spin
    states from integers."""
    return (2 * ((numbers[:, None] >> np.arange(n)) & 1) - 1).astype(np.int8)


GROUND_STATE_MAX_K = 24  # the one size cap of the exhaustive search, for both oracles


class CapacityError(ValueError):
    """Problem size exceeds what an exhaustive routine will attempt."""


def _check_couplings(K: int, J) -> tuple[int, np.ndarray]:
    """(K, J) of a logical energy as (Python int, flat float64 array),
    the one check of the instance helpers: K an integer >= 2 and J its
    C(K,2) finite couplings, in edges order."""
    K = _check_count("K", K, 2)
    J = np.asarray(J, dtype=np.float64).ravel()
    if len(J) != K * (K - 1) // 2:
        raise ValueError(f"couplings length {len(J)} != C({K},2)")
    if not np.isfinite(J).all():  # a NaN energy is never a minimum
        raise ValueError("couplings must be finite")
    return K, J


def _read_only_copy(a) -> np.ndarray:
    """A flat float64 copy of a that refuses writes: what a frozen
    object keeps of a caller's couplings, so a later change to the
    caller's array cannot reach it."""
    a = np.array(a, dtype=np.float64).ravel()
    a.flags.writeable = False
    return a


def brute_force_ground_state(K: int, J: np.ndarray, chunk: int = 1 << 10):
    """Exhaustive minimum of the logical energy -sum_{i<j} J_ij Z_i Z_j
    (J in edges order) over the 2^(K-1) states with spin 0 at +1 (the
    global flip halves the space). Returns (state, energy). Serves both
    exhaustive oracles: instance ground states, and minimum-weight
    decoding (decoders.mwd_bruteforce).

    States are taken in blocks of min(chunk, 2^(K-1)) rows, in the order
    of the numbers whose bits they are. A block's energies are one BLAS
    gemv, -(prods @ J), with prods its (rows, C(K,2)) +-1 float64 pair
    products; the first minimum within a block wins, and a later block
    only on a strictly lower energy. Spins above a block's low bits are
    constant over it, so its products are the first block's with whole
    columns negated, and that negation is folded into J: each term is
    the same exact +-J_ij, summed in the same order. Memory is one block
    (1.25 MB of products at K = 18, 2.2 MB at K = 24), and the search
    takes about 8 ms at K = 18 and 50 ms at K = 21 on a 2-vCPU Xeon.

    chunk must be a power of two >= 8: gemv sums a row the same way for
    every such row count, so the energy bits do not depend on chunk,
    while other counts (1, 7) round tail rows differently. A power of
    two also keeps each block's low bits running over every value.
    Raises CapacityError above K = GROUND_STATE_MAX_K (24), and
    ValueError for a K that is not an integer >= 2 or a J that is not
    C(K,2) finite couplings.
    """
    chunk = _check_count("chunk", chunk, 8)
    if chunk & (chunk - 1):
        raise ValueError(f"chunk must be a power of two, got {chunk}")
    K, J = _check_couplings(K, J)
    if K > GROUND_STATE_MAX_K:
        raise CapacityError(f"K={K} exceeds exhaustive ground-state bound {GROUND_STATE_MAX_K}")
    a, b = build_code(K).edges.T
    count = 1 << (K - 1)
    rows = min(chunk, count)
    Z = _spin_rows(2 * np.arange(rows) + 1, K)  # bit 0 set: spin 0 is +1
    # C order, as int8 @ float64 casts it: an F-ordered block would take
    # another gemv kernel, with other energy bits
    prods = np.ascontiguousarray(Z[:, a] * Z[:, b], dtype=np.float64)
    best_e, best_n = np.inf, None
    for start in range(0, count, rows):
        # +-1 per column: this block's products over the first block's
        first = _spin_rows(np.array([2 * start + 1]), K)[0]
        energies = -(prods @ (J * (first[a] * first[b] * prods[0])))
        i = int(np.argmin(energies))
        if energies[i] < best_e:
            best_e, best_n = float(energies[i]), 2 * (start + i) + 1
    return _spin_rows(np.array([best_n]), K)[0], best_e


def codewords(code: ParityCode, limit: int = 1 << 20) -> np.ndarray:
    """All 2^(K-1) codeword matrices, stacked (count, K, K).

    Enumerates logical states with the first spin pinned to +1 (the
    global flip maps to the same matrix). Guarded by `limit`.
    """
    count = 1 << (code.K - 1)
    if count > limit:
        raise ValueError(f"2^(K-1) = {count} codewords exceeds limit {limit}")
    Z = _spin_rows(2 * np.arange(count) + 1, code.K)  # bit 0 set: spin 0 is +1
    return np.einsum("ni,nj->nij", Z, Z).astype(np.int8)


# ---------------------------------------------------------------------------
# Binary (GF(2)) views, used for structural verification.

def generator_matrix(code: ParityCode) -> np.ndarray:
    """K x n_vars binary generator: two 1s per column, at the pair ends."""
    G = np.zeros((code.K, code.n_vars), dtype=np.uint8)
    G[code.edges.T, np.arange(code.n_vars)] = 1
    return G


def check_matrix(code: ParityCode, family: str = "w3") -> np.ndarray:
    """n_checks x n_vars binary parity-check matrix of one family."""
    members = _family(code, family)[0]
    H = np.zeros((len(members), code.n_vars + 1), dtype=np.uint8)
    H[np.arange(len(members))[:, None], members] = 1  # -1 members mark the dropped last column
    return H[:, :-1]


def gf2_product_is_zero(A: np.ndarray, B_t: np.ndarray) -> bool:
    """True iff A @ B_t.T == 0 over GF(2). float32 matmul is exact here
    (inner dimension stays far below 2^24)."""
    prod = A.astype(np.float32) @ B_t.astype(np.float32).T
    return bool(np.all(prod.astype(np.int64) % 2 == 0))


# ---------------------------------------------------------------------------
# CSV serialization: K rows x K columns of +-1 integers, diagonal included.

def write_spin_matrix_csv(path, m: np.ndarray) -> None:
    m = validate_spin_matrix(m)
    with open(path, "w") as fh:
        _write_spin_rows(fh, m)


def _write_spin_rows(fh, m: np.ndarray) -> None:
    """The K rows of a spin matrix as comma-separated integer lines."""
    for row in m:
        fh.write(",".join(str(int(v)) for v in row) + "\n")


def read_spin_matrix_csv(path) -> np.ndarray:
    """Parse and validate a spin-matrix CSV; reports 1-based line/column
    for malformed input. Blank lines are skipped."""
    with open(path) as fh:
        return _parse_spin_rows([(ln, line) for ln, line in enumerate(fh, start=1) if line.strip()])


def _parse_spin_rows(rows: list[tuple[int, str]]) -> np.ndarray:
    """Validated int8 spin matrix from its CSV rows, given as (1-based
    file line, text) pairs: every refusal names the row's file line."""
    parsed = []
    for ln, text in rows:
        row = []
        for cn, cell in enumerate(text.strip().split(","), start=1):
            try:
                val = int(cell.strip())
            except ValueError:
                raise MatrixFormatError(f"non-integer cell {cell.strip()!r}", ln, cn)
            if val not in (1, -1):
                raise MatrixFormatError(f"entry must be +1 or -1, got {val}", ln, cn)
            row.append(val)
        parsed.append(row)
    if not parsed:
        raise MatrixFormatError("empty matrix file", 1, 1)
    K = len(parsed)
    for (ln, _), row in zip(rows, parsed):
        if len(row) != K:
            raise MatrixFormatError(f"expected {K} columns, got {len(row)}", ln, len(row))
    m = np.array(parsed, dtype=np.int8)
    bad = np.flatnonzero(np.diag(m) != 1).tolist()
    if bad:
        raise MatrixFormatError("diagonal entry must be +1", rows[bad[0]][0], bad[0] + 1)
    bad = np.argwhere(np.triu(m != m.T, 1)).tolist()  # (i, j), i < j, first row first
    if bad:
        i, j = bad[0]
        raise MatrixFormatError(f"matrix not symmetric at ({i + 1},{j + 1})", rows[j][0], i + 1)
    return m
