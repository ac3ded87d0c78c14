"""Estimators of the cross-coordinate gradient change for least squares.

When coordinate j moves by gamma, the smooth gradient of any passive
coordinate i changes by exactly ``gamma * <a_i, a_j>``.  An oracle returns
an estimate ``g_ij`` of the per-unit-gamma change together with a certified
radius ``delta_ij >= 0`` such that the true change lies in
``gamma * [g_ij - delta_ij, g_ij + delta_ij]``.

Available kinds:

* ``g1``   exact dot products, zero error (no error row: ``None``),
* ``g2``   simulated sketch products: the exact value perturbed uniformly
           within ``eps * ||a_i|| * ||a_j||`` and clamped to the
           Cauchy-Schwarz interval,
* ``g3``   the zero estimate with error ``||a_i|| * ||a_j||``,
* ``g4``   a fixed pseudo-random value in the Cauchy-Schwarz interval; its
           certified error is the interval diameter ``2 ||a_i|| * ||a_j||``
           (the true product can sit at the opposite end of the interval,
           so the radius alone would not be a valid certificate).

Only g1 and g2 form the exact row ``A^T a_i``: a row of the dense Gram
matrix when n is at most ``GRAM_LIMIT``, otherwise a gather over a
row-major copy of A that costs the nonzeros of the rows of A meeting
a_i's support, never a pass over all of A.

All estimators are pure functions of ``(kind, matrix, seed, i, j)``; the g2
and g4 draws are keyed on the unordered pair so they are symmetric and do
not change between calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ColumnSparseMatrix

__all__ = [
    "OracleSpec",
    "OracleContext",
    "ORACLE_KINDS",
    "GRAM_LIMIT",
    "oracle_row",
]

ORACLE_KINDS = ("g1", "g2", "g3", "g4")

# largest column count for which the exact kinds build the dense Gram matrix
GRAM_LIMIT = 2048

# salts so that g2 and g4 consume unrelated pseudo-random streams
_SALT_G2 = np.uint64(0x9E3779B97F4A7C15)
_SALT_G4 = np.uint64(0xC2B2AE3D27D4EB4F)


@dataclass
class OracleSpec:
    """Which estimator to use and its parameters.

    ``epsilon`` is only read by g2.
    """

    kind: str = "g3"
    epsilon: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


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


class OracleContext:
    """Per-run precomputation backing the vectorised row queries.

    Column norms are always precomputed.  The exact kinds (g1, g2) need
    the row ``A^T a_i``: with at most ``GRAM_LIMIT`` columns it is a row of
    the dense Gram matrix, built once.  With more columns a row-major copy
    of A is built once instead (O(nnz) memory), and row i gathers the rows
    of A that meet a_i's support, at ``O(sum of their nnz)`` per query.
    The copy's order is a stable argsort of the row ids cast to the
    narrowest unsigned type that holds ``n_rows - 1``: up to 65536 rows
    numpy sorts those by radix, and the permutation is the one an int64
    sort gives.
    """

    def __init__(self, spec: OracleSpec, matrix: ColumnSparseMatrix):
        self.spec = spec
        self.matrix = matrix
        self.norms = np.sqrt(matrix.col_norms_sq())
        self.gram = None
        if spec.kind not in ("g1", "g2"):
            return
        if matrix.n_cols <= GRAM_LIMIT:
            dense = matrix.to_dense()
            self.gram = dense.T @ dense
            return
        # stable: each row of A lists its entries in increasing column order
        narrow = np.min_scalar_type(matrix.n_rows - 1)
        order = np.argsort(matrix.rows.astype(narrow), kind="stable")
        self._row_ptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows),
                  out=self._row_ptr[1:])
        self._row_cols = matrix._nnz_col[order].astype(np.int32)
        self._row_vals = matrix.vals[order]

    def _dot_row(self, i: int) -> np.ndarray:
        if self.gram is not None:
            return self.gram[i]
        # column j sums a_i[r] * A[r, j] over increasing r, the order of
        # ColumnSparseMatrix.col_dots without its zero terms: the same bits
        rows, vals = self.matrix.col(i)
        starts = self._row_ptr[rows]
        counts = self._row_ptr[rows + 1] - starts
        offsets = np.cumsum(counts) - counts
        entries = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
        return np.bincount(self._row_cols[entries],
                           weights=np.repeat(vals, counts)
                           * self._row_vals[entries],
                           minlength=self.matrix.n_cols)


def oracle_row(ctx: OracleContext,
               i: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimates and errors for all pairs ``(i, j)``, ``j`` in ``[n]``.

    g1 is exact and returns no error row (``None``), which
    ``update_estimates`` reads as zero error.  The entry at j = i is
    computed like any other; the caller that tracks the active coordinate
    separately simply overwrites it.
    """
    spec = ctx.spec
    if spec.kind == "g1":
        return ctx._dot_row(i), None
    n = ctx.matrix.n_cols
    bounds = ctx.norms[i] * ctx.norms
    if spec.kind == "g2":
        u = _pair_uniform(spec.seed, _SALT_G2, i, np.arange(n), n)
        s = ctx._dot_row(i) + spec.epsilon * bounds * u
        return np.clip(s, -bounds, bounds), spec.epsilon * bounds
    if spec.kind == "g3":
        return np.zeros(n), bounds
    u = _pair_uniform(spec.seed, _SALT_G4, i, np.arange(n), n)
    return bounds * u, 2.0 * bounds
