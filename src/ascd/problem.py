"""Composite least-squares objectives over column-sparse data.

The objective family is ``F(x) = f(Ax) + Psi(x)`` where the smooth part is a
least-squares fit ``f(w) = 0.5 * ||w - b||^2`` (plus an optional ridge term
that is folded into the smooth part) and ``Psi`` is a separable penalty.
The data matrix is stored column-wise so that a single coordinate update
touches only the nonzeros of its column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColumnSparseMatrix",
    "Regularizer",
    "CompositeProblem",
    "ResidualState",
]


class ColumnSparseMatrix:
    """A d x n matrix stored as compressed sparse columns.

    Within each column the row indices are strictly increasing and no
    explicit zeros are stored; both properties are enforced on construction.
    """

    def __init__(self, n_rows: int, indptr: np.ndarray, rows: np.ndarray,
                 vals: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if indptr.ndim != 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be nondecreasing and start at 0")
        if indptr[-1] != rows.size or rows.size != vals.size:
            raise ValueError("indptr/rows/vals sizes are inconsistent")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if np.any(vals == 0.0):
            raise ValueError("explicit zero values are not allowed")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")
        # strictly increasing rows within each column: the only places where
        # consecutive nnz entries may be non-increasing are column boundaries
        if rows.size > 1:
            bad = np.flatnonzero(np.diff(rows) <= 0) + 1
            if not np.all(np.isin(bad, indptr[1:-1])):
                raise ValueError("row indices must be strictly increasing "
                                 "within each column")
        self.n_rows = int(n_rows)
        self.n_cols = int(indptr.size - 1)
        self.indptr = indptr
        # column bounds as Python ints, so ``col`` reads no numpy scalar
        self._bounds = indptr.tolist()
        self.rows = rows
        self.vals = vals
        # column id of every stored entry, used by the vectorised kernels
        self._nnz_col = np.repeat(np.arange(self.n_cols, dtype=np.int64),
                                  np.diff(indptr))

    @classmethod
    def from_columns(cls, n_rows: int, columns) -> "ColumnSparseMatrix":
        """Build from an iterable of ``(row_indices, values)`` pairs."""
        indptr = [0]
        rows, vals = [], []
        for r, v in columns:
            r = np.asarray(r, dtype=np.int64)
            v = np.asarray(v, dtype=np.float64)
            rows.append(r)
            vals.append(v)
            indptr.append(indptr[-1] + r.size)
        rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        vals = np.concatenate(vals) if vals else np.empty(0)
        return cls(n_rows, np.asarray(indptr), rows, vals)

    @classmethod
    def from_dense(cls, dense) -> "ColumnSparseMatrix":
        dense = np.asarray(dense, dtype=np.float64)
        cols = []
        for j in range(dense.shape[1]):
            idx = np.flatnonzero(dense[:, j])
            cols.append((idx, dense[idx, j]))
        return cls.from_columns(dense.shape[0], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def col(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column i."""
        if not 0 <= i < self.n_cols:
            raise IndexError(f"column index {i} out of range")
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self.rows[lo:hi], self.vals[lo:hi]

    def col_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of every column, ``O(nnz)``."""
        return np.bincount(self._nnz_col, weights=self.vals ** 2,
                           minlength=self.n_cols)

    def col_dots(self, r: np.ndarray) -> np.ndarray:
        """All column inner products ``A^T r`` in ``O(nnz)``."""
        return np.bincount(self._nnz_col, weights=self.vals * r[self.rows],
                           minlength=self.n_cols)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense product ``A x`` in ``O(nnz)``."""
        return np.bincount(self.rows, weights=self.vals * x[self._nnz_col],
                           minlength=self.n_rows)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self._nnz_col] = self.vals
        return out


@dataclass
class Regularizer:
    """Separable penalty ``Psi(x) = sum_i psi(x_i)``.

    ``l2`` adds ``lam/2 * x_i^2`` (``CompositeProblem.fold_lam``), ``l1``
    adds ``lam * |x_i|`` (``CompositeProblem.l1``); ``none`` adds nothing.
    """

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l2", "l1"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lambda must be nonnegative and finite")
        if self.kind == "none":
            self.lam = 0.0


@dataclass
class ResidualState:
    """Iterate ``x`` paired with the maintained product ``w = A x``."""

    x: np.ndarray
    w: np.ndarray

    def apply_step(self, matrix: ColumnSparseMatrix, i: int, gamma: float):
        """Move coordinate i by gamma, updating w in ``O(nnz(a_i))``."""
        if not math.isfinite(gamma):
            raise ValueError(f"non-finite step {gamma!r} on coordinate {i}")
        rows, vals = matrix.col(i)
        self.x[i] += gamma
        self.w[rows] += gamma * vals

    def refresh(self, matrix: ColumnSparseMatrix):
        """Recompute w = A x from scratch, removing accumulated drift."""
        self.w = matrix.matvec(self.x)

    def drift(self, matrix: ColumnSparseMatrix) -> float:
        return float(np.max(np.abs(self.w - matrix.matvec(self.x)),
                            initial=0.0))


class CompositeProblem:
    """Least squares plus a separable penalty.

    An ``l2`` regularizer is folded into the smooth part: partial gradients
    include the ``lam * x_i`` term and the coordinate Lipschitz constants are
    ``||a_i||^2 + lam``, so ridge problems run through the smooth-only code
    path.  An ``l1`` penalty stays in the composite part as the weight
    ``l1``: 0.0 under any other penalty, where the problem is smooth.
    """

    def __init__(self, matrix: ColumnSparseMatrix, target: np.ndarray,
                 regularizer: Regularizer | None = None):
        regularizer = regularizer or Regularizer()
        target = np.asarray(target, dtype=np.float64)
        if target.shape != (matrix.n_rows,):
            raise ValueError("target length must equal the number of rows")
        if not np.all(np.isfinite(target)):
            raise ValueError("target values must be finite")
        if matrix.n_cols < 1:
            raise ValueError("the matrix has no columns")
        fold_lam = regularizer.lam if regularizer.kind == "l2" else 0.0
        # an overflow is rejected below, by name, not warned about
        with np.errstate(over="ignore"):
            norms_sq = matrix.col_norms_sq()
            lipschitz = norms_sq + fold_lam
        if np.any(norms_sq == 0.0):
            bad = int(np.argmin(norms_sq))
            raise ValueError(f"column {bad} has zero norm; its coordinate "
                             "step size would be undefined")
        if not np.all(np.isfinite(lipschitz)):
            bad = int(np.argmin(np.isfinite(lipschitz)))
            raise ValueError(f"column {bad} has a squared norm"
                             f"{' plus l2 weight' if fold_lam else ''} "
                             "beyond the float range; its coordinate "
                             "Lipschitz constant would be infinite")
        self.matrix = matrix
        self.target = target
        # b at every stored entry, in the matrix's column order: a partial
        # gradient slices it instead of gathering b at the column's rows
        self._entry_target = target[matrix.rows]
        self.fold_lam = fold_lam
        # the weight of the penalty that remains in the composite part
        self.l1 = regularizer.lam if regularizer.kind == "l1" else 0.0
        self.lipschitz = lipschitz

    @property
    def n(self) -> int:
        return self.matrix.n_cols

    @property
    def d(self) -> int:
        return self.matrix.n_rows

    def residual_state(self, x: np.ndarray | None = None) -> ResidualState:
        x = np.zeros(self.n) if x is None else np.array(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError("x length must equal the number of columns")
        if not np.all(np.isfinite(x)):
            bad = int(np.argmin(np.isfinite(x)))
            raise ValueError(f"x0 must be finite; coordinate {bad} is "
                             f"{float(x[bad])}")
        return ResidualState(x=x, w=self.matrix.matvec(x))

    def column(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_indices, values, b at those rows)`` views of column i,
        from one read of its bounds."""
        matrix = self.matrix
        if not 0 <= i < matrix.n_cols:
            raise IndexError(f"column index {i} out of range")
        lo, hi = matrix._bounds[i], matrix._bounds[i + 1]
        return (matrix.rows[lo:hi], matrix.vals[lo:hi],
                self._entry_target[lo:hi])

    def partial_gradient(self, state: ResidualState, i: int) -> float:
        """Smooth partial derivative ``<a_i, w - b> (+ lam * x_i)``.

        ``ascd.driver.step`` computes it fused with the step; this and
        ``ResidualState.apply_step`` are the unfused reference it keeps the
        bits of."""
        rows, vals, b = self.column(i)
        g = float(vals @ (state.w[rows] - b))
        return g + self.fold_lam * float(state.x[i])

    def full_gradient(self, state: ResidualState) -> np.ndarray:
        g = self.matrix.col_dots(state.w - self.target)
        if self.fold_lam:
            g = g + self.fold_lam * state.x
        return g

    def objective(self, state: ResidualState) -> float:
        res = state.w - self.target
        f = 0.5 * float(res @ res)
        if self.fold_lam:
            f += 0.5 * self.fold_lam * float(state.x @ state.x)
        if self.l1:
            f += self.l1 * float(np.abs(state.x).sum())
        return f
