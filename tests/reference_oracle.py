"""Single-pair reference oracle, the scalar definition of every kind.

``ascd.oracles.oracle_row`` answers a whole row at once; the tests compare
it entry by entry against ``oracle_estimate`` here, which computes one pair
``(i, j)`` straight from the two sparse columns, and its exact rows bit for
bit against ``col_dots_row``.  ``int64_row_major`` builds the row-major
copy of A from an int64 sort, the order the narrow-dtype sort of
``OracleContext`` must reproduce.  ``_pair_uniform`` is the draw of g2 and
g4 on broadcast index arrays, one fresh temporary per operation: the
definition that the in-place rows of ``OracleContext`` must reproduce.
"""

from dataclasses import dataclass

import numpy as np

from ascd.oracles import _SALT_G2, _SALT_G4, OracleSpec
from ascd.problem import ColumnSparseMatrix


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _pair_uniform(seed: int, salt: np.uint64, i, j, n: int) -> np.ndarray:
    """Deterministic draw in [-1, 1] keyed on the unordered pair (i, j)."""
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    with np.errstate(over="ignore"):
        key = lo * np.uint64(n) + hi
        mixed = _splitmix64(key ^ _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ salt))
    u = (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return 2.0 * u - 1.0


@dataclass
class OracleOutput:
    estimate: float
    error: float


def exact_change(matrix: ColumnSparseMatrix, i: int, j: int) -> float:
    """Sparse column product ``<a_i, a_j>``."""
    ri, vi = matrix.col(i)
    rj, vj = matrix.col(j)
    _, ii, jj = np.intersect1d(ri, rj, assume_unique=True,
                               return_indices=True)
    return float(vi[ii] @ vj[jj])


def col_dots_row(matrix: ColumnSparseMatrix, i: int) -> np.ndarray:
    """Row ``A^T a_i`` from one pass over all of A with a dense a_i."""
    rows, vals = matrix.col(i)
    dense = np.zeros(matrix.n_rows)
    dense[rows] = vals
    return matrix.col_dots(dense)


def int64_row_major(matrix: ColumnSparseMatrix):
    """Row pointers, column ids and values of the row-major copy of A,
    ordered by a stable argsort of the int64 row ids."""
    order = np.argsort(matrix.rows, kind="stable")
    row_ptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows),
              out=row_ptr[1:])
    row_cols = np.repeat(np.arange(matrix.n_cols, dtype=np.int32),
                         np.diff(matrix.indptr))[order]
    return row_ptr, row_cols, matrix.vals[order]


def jl_simulated_product(matrix: ColumnSparseMatrix, i: int, j: int,
                         epsilon: float, seed: int = 0) -> float:
    """Simulated sketch product: exact value plus a uniform draw from the
    allowed error interval, clamped to the Cauchy-Schwarz range.

    Symmetric and deterministic in ``(i, j, seed)``.
    """
    ri, vi = matrix.col(i)
    rj, vj = matrix.col(j)
    bound = float(np.sqrt((vi @ vi) * (vj @ vj)))
    u = float(_pair_uniform(seed, _SALT_G2, i, j, matrix.n_cols))
    s = exact_change(matrix, i, j) + epsilon * bound * u
    return float(np.clip(s, -bound, bound))


def oracle_estimate(spec: OracleSpec, matrix: ColumnSparseMatrix,
                    column_norms: np.ndarray, i: int, j: int) -> OracleOutput:
    """Single-pair estimate of the per-unit-gamma change of coordinate i
    when coordinate j moves.
    """
    bound = float(column_norms[i] * column_norms[j])
    if spec.kind == "g1":
        return OracleOutput(exact_change(matrix, i, j), 0.0)
    if spec.kind == "g2":
        est = jl_simulated_product(matrix, i, j, spec.epsilon, spec.seed)
        return OracleOutput(est, spec.epsilon * bound)
    if spec.kind == "g3":
        return OracleOutput(0.0, bound)
    u = float(_pair_uniform(spec.seed, _SALT_G4, i, j, matrix.n_cols))
    return OracleOutput(bound * u, 2.0 * bound)
