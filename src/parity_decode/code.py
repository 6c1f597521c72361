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
        checks3: (n_checks3, 3) logical triples {i, j, k}, i<j<k.
        checks3_vars: (n_checks3, 3) variable indices (ij, ik, jk).
        checks4: (n_checks4, 4) logical quadruples (k, k+1, m, m+1).
        checks4_vars: (n_checks4, 4) variable indices; -1 marks a
            fictitious diagonal member (fixed at +1, never stored).
        checks3_of_var: (n_vars, K-2) triangle checks adjacent to each
            variable node.
        checks4_of_var: (n_vars, 4) plaquette checks adjacent to each
            variable node, padded with -1.
    """

    K: int
    edges: np.ndarray
    pair_index: np.ndarray
    checks3: np.ndarray
    checks3_vars: np.ndarray
    checks4: np.ndarray
    checks4_vars: np.ndarray
    checks3_of_var: np.ndarray
    checks4_of_var: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.edges)

    @property
    def n_checks3(self) -> int:
        return len(self.checks3)

    @property
    def n_checks4(self) -> int:
        return len(self.checks4)

    @property
    def var_degree3(self) -> int:
        """Triangle checks per variable node (column weight)."""
        return self.K - 2

    def __repr__(self) -> str:  # keep dataclass arrays out of repr
        return (
            f"ParityCode(K={self.K}, n_vars={self.n_vars}, "
            f"n_checks3={self.n_checks3}, n_checks4={self.n_checks4})"
        )


_BUILD_LOCK = threading.Lock()  # functools.cache alone lets concurrent first calls build twice


def build_code(K: int) -> ParityCode:
    """The parity code for K logical spins.

    Built once per K and process: every later call with the same K
    returns the same instance, whose arrays are read-only.
    Raises ValueError for K < 2.
    """
    if not isinstance(K, (int, np.integer)) or isinstance(K, bool):
        raise ValueError(f"K must be an integer, got {K!r}")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    with _BUILD_LOCK:
        return _construct(int(K))


@functools.cache
def _construct(K: int) -> ParityCode:
    """Deterministic index structure of the code for K >= 2, every array
    read-only."""
    edges = np.array(list(itertools.combinations(range(K), 2)), dtype=np.int64)
    edges = edges.reshape(-1, 2)
    n_vars = len(edges)

    pair_index = np.full((K, K), -1, dtype=np.int64)
    for v, (i, j) in enumerate(edges):
        pair_index[i, j] = v
        pair_index[j, i] = v

    # Triangle checks: every triple i<j<k, touching edges ij, ik, jk.
    triples = list(itertools.combinations(range(K), 3))
    checks3 = np.array(triples, dtype=np.int64).reshape(-1, 3)
    if len(triples):
        checks3_vars = np.stack(
            [
                pair_index[checks3[:, 0], checks3[:, 1]],
                pair_index[checks3[:, 0], checks3[:, 2]],
                pair_index[checks3[:, 1], checks3[:, 2]],
            ],
            axis=1,
        )
    else:
        checks3_vars = np.empty((0, 3), dtype=np.int64)

    # Plaquette checks: quadruple (k, k+1, m, m+1) touches the spins
    # {k,m}, {k+1,m}, {k+1,m+1}, {k,m+1}. When k+1 == m the member
    # {k+1,m} is the fictitious diagonal spin, entered as -1.
    quads = []
    quad_vars = []
    for k in range(K - 1):
        for m in range(k + 1, K - 1):
            quads.append((k, k + 1, m, m + 1))
            members = [(k, m), (k + 1, m), (k + 1, m + 1), (k, m + 1)]
            quad_vars.append([-1 if a == b else pair_index[a, b] for a, b in members])
    checks4 = np.array(quads, dtype=np.int64).reshape(-1, 4)
    checks4_vars = np.array(quad_vars, dtype=np.int64).reshape(-1, 4)

    # Per-variable adjacency.
    if len(triples):
        order = np.argsort(checks3_vars.ravel(), kind="stable")
        checks3_of_var = (order // 3).reshape(n_vars, K - 2)
    else:
        checks3_of_var = np.empty((n_vars, 0), dtype=np.int64)

    lists4: list[list[int]] = [[] for _ in range(n_vars)]
    for c, row in enumerate(checks4_vars):
        for v in row:
            if v >= 0:
                lists4[v].append(c)
    checks4_of_var = np.full((n_vars, 4), -1, dtype=np.int64)
    for v, cs in enumerate(lists4):
        checks4_of_var[v, : len(cs)] = cs

    arrays = dict(
        edges=edges,
        pair_index=pair_index,
        checks3=checks3,
        checks3_vars=checks3_vars,
        checks4=checks4,
        checks4_vars=checks4_vars,
        checks3_of_var=checks3_of_var,
        checks4_of_var=checks4_of_var,
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
    (..., n_vars) -> (..., K, K), in the dtype of v."""
    v = np.asarray(v)
    if v.ndim == 0 or v.shape[-1] != code.n_vars:
        raise ValueError(f"vector shape {v.shape} does not match n_vars={code.n_vars}")
    m = np.ones(v.shape[:-1] + (code.K, code.K), dtype=v.dtype)
    i, j = code.edges.T
    m[..., i, j] = v
    m[..., j, i] = v
    return m


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
    # a -1 member, the fictitious diagonal spin, reads the appended +1
    xp = np.concatenate([xf, np.ones_like(xf[..., :1])], axis=-1)
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


def codewords(code: ParityCode, limit: int = 1 << 20) -> np.ndarray:
    """All 2^(K-1) codeword matrices, stacked (count, K, K).

    Enumerates logical states with the first spin pinned to +1 (the
    global flip maps to the same matrix). Guarded by `limit`.
    """
    count = 1 << (code.K - 1)
    if count > limit:
        raise ValueError(f"2^(K-1) = {count} codewords exceeds limit {limit}")
    bits = (np.arange(count)[:, None] >> np.arange(code.K - 1)[None, :]) & 1
    Z = np.ones((count, code.K), dtype=np.int8)
    Z[:, 1:] = (2 * bits - 1).astype(np.int8)
    return np.einsum("ni,nj->nij", Z, Z).astype(np.int8)


# ---------------------------------------------------------------------------
# Binary (GF(2)) views, used for structural verification.

def generator_matrix(code: ParityCode) -> np.ndarray:
    """K x n_vars binary generator: two 1s per column, at the pair ends."""
    G = np.zeros((code.K, code.n_vars), dtype=np.uint8)
    for v, (i, j) in enumerate(code.edges):
        G[i, v] = 1
        G[j, v] = 1
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
        for row in m:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def read_spin_matrix_csv(path) -> np.ndarray:
    """Parse and validate a spin-matrix CSV; reports 1-based line/column
    for malformed input."""
    rows: list[list[int]] = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            row = []
            for cn, cell in enumerate(cells, start=1):
                try:
                    val = int(cell.strip())
                except ValueError:
                    raise MatrixFormatError(f"non-integer cell {cell.strip()!r}", ln, cn)
                if val not in (1, -1):
                    raise MatrixFormatError(f"entry must be +1 or -1, got {val}", ln, cn)
                row.append(val)
            rows.append(row)
    if not rows:
        raise MatrixFormatError("empty matrix file", 1, 1)
    K = len(rows)
    for ln, row in enumerate(rows, start=1):
        if len(row) != K:
            raise MatrixFormatError(f"expected {K} columns, got {len(row)}", ln, len(row))
    m = np.array(rows, dtype=np.int8)
    for i in range(K):
        if m[i, i] != 1:
            raise MatrixFormatError("diagonal entry must be +1", i + 1, i + 1)
    for i in range(K):
        for j in range(i + 1, K):
            if m[i, j] != m[j, i]:
                raise MatrixFormatError(
                    f"matrix not symmetric at ({i + 1},{j + 1})", j + 1, i + 1
                )
    return m
