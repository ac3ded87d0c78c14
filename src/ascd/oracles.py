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
* ``g3``   the zero estimate with error ``||a_i|| * ||a_j||``; it returns
           no estimate row (``None``),
* ``g4``   a fixed pseudo-random value in the Cauchy-Schwarz interval; its
           certified error is the interval diameter ``2 ||a_i|| * ||a_j||``
           (the true product can sit at the opposite end of the interval,
           so the radius alone would not be a valid certificate).

Only g1 and g2 form the exact row ``A^T a_i``, always by a gather over a
row-major copy of A that costs the nonzeros of the rows of A meeting
a_i's support, never a pass over all of A: the column ids and values of
those rows are joined into one buffer each and summed by ``bincount``.
While n is at most ``GRAM_LIMIT`` a gathered row is kept once fetched, so
a run holds at most n rows of n floats, the size of the dense Gram
matrix, and only the rows it fetched.  A is never densified.

All estimators are pure functions of ``(kind, matrix, seed, i, j)``; the g2
and g4 draws are keyed on the unordered pair so they are symmetric and do
not change between calls.  A row of them is hashed in place, in uint64
buffers of its ``OracleContext``, and handed out as a fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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

# largest column count for which the exact kinds keep each gathered row
# (at most n * n * 8 bytes in all)
GRAM_LIMIT = 2048

# salts so that g2 and g4 consume unrelated pseudo-random streams
_SALT_G2 = np.uint64(0x9E3779B97F4A7C15)
_SALT_G4 = np.uint64(0xC2B2AE3D27D4EB4F)
_SALTS = {"g2": _SALT_G2, "g4": _SALT_G4}

# splitmix64 constants
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
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


def _splitmix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser of uint64 ``z``, in place, with ``tmp`` (an
    array of z's shape) as scratch; returns ``z``."""
    z += _GOLDEN
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


class OracleContext:
    """Per-run precomputation backing the vectorised row queries.

    Column norms are always precomputed.  The exact kinds (g1, g2) need
    the row ``A^T a_i``.  A row-major copy of A is built once (12 bytes
    per stored entry: int32 column ids and float64 values), and row i
    gathers the rows of A that meet a_i's support, at ``O(sum of their
    nnz)`` per query.  With at most ``GRAM_LIMIT`` columns each gathered
    row is kept, read-only, and a repeat fetch returns the same array, so
    the kept rows never exceed the n x n Gram matrix; above the limit
    nothing is kept.  The copy's order is a stable argsort of the row ids
    cast to the narrowest unsigned type that holds ``n_rows - 1``: up to
    65536 rows numpy sorts those by radix, and the permutation is the one
    an int64 sort gives.  Each row of the copy is held as two ``bytes``
    objects, its column ids and its values, cut once from the sorted
    arrays, which are then dropped.  A gather fetches the rows that a_i
    meets with one ``operator.itemgetter`` and joins them with one
    ``bytes.join`` per array, in increasing row order.  A ``bytes`` object
    takes 33 bytes besides its data, so with the list slots and the entry
    count a row of A costs about 90 bytes besides its entries, and on tall,
    narrow data (below about 12 columns) the copy can outgrow the 8 * n
    bytes per row of a dense A.  The g2 and g4 kinds
    keep the seed's mix, ``j`` and ``j * n`` for every column, and two
    uint64 scratch rows for the pair hash.
    """

    def __init__(self, spec: OracleSpec, matrix: ColumnSparseMatrix):
        self.spec = spec
        self.matrix = matrix
        self.norms = np.sqrt(matrix.col_norms_sq())
        if spec.kind in _SALTS:
            n = matrix.n_cols
            self._ids = np.arange(n, dtype=np.uint64)
            self._ids_times_n = self._ids * np.uint64(n)
            # scratch of the pair hash; every row it yields is fresh
            self._key = np.empty(n, dtype=np.uint64)
            self._tmp = np.empty(n, dtype=np.uint64)
            seed = np.array([spec.seed & _MASK64], dtype=np.uint64)
            seed ^= _SALTS[spec.kind]
            self._seed_mix = _splitmix64(seed, np.empty_like(seed))[0]
        if spec.kind not in ("g1", "g2"):
            return
        # gathered rows by column id, or None above the limit
        self._kept = {} if matrix.n_cols <= GRAM_LIMIT else None
        # stable: each row of A lists its entries in increasing column order
        narrow = np.min_scalar_type(matrix.n_rows - 1)
        order = np.argsort(matrix.rows.astype(narrow), kind="stable")
        ids = matrix._nnz_col[order].astype(np.int32)
        values = matrix.vals[order]
        # dropped before the rows are cut, to lower the build's peak
        del order
        # each row's entry count, column ids and values, the last two as
        # bytes objects cut once from the sorted copy, which is then
        # dropped
        self._row_counts = np.bincount(matrix.rows, minlength=matrix.n_rows)
        ends = np.cumsum(self._row_counts).tolist()
        spans = list(zip([0] + ends, ends))
        self._row_ids = [ids[lo:hi].tobytes() for lo, hi in spans]
        self._row_values = [values[lo:hi].tobytes() for lo, hi in spans]

    def _dot_row(self, i: int) -> np.ndarray:
        kept = self._kept
        if kept is None:
            return self._gather(i)
        row = kept.get(i)
        if row is None:
            row = kept[i] = self._gather(i)
            row.flags.writeable = False
        return row

    def _gather(self, i: int) -> np.ndarray:
        # column j sums a_i[r] * A[r, j] over increasing r, the order of
        # ColumnSparseMatrix.col_dots without its zero terms: the same bits
        rows, vals = self.matrix.col(i)
        if not rows.size:
            return np.zeros(self.matrix.n_cols)
        meets = rows.tolist()
        if len(meets) == 1:
            # an itemgetter of one key returns the item, not a tuple
            ids, values = self._row_ids[meets[0]], self._row_values[meets[0]]
        else:
            # one C-level fetch of every row a_i meets, in increasing order
            fetch = itemgetter(*meets)
            ids = b"".join(fetch(self._row_ids))
            values = b"".join(fetch(self._row_values))
        cols = np.frombuffer(ids, dtype=np.int32)
        row_vals = np.frombuffer(values, dtype=np.float64)
        weights = np.repeat(vals, self._row_counts[rows])
        weights *= row_vals
        return np.bincount(cols, weights=weights,
                           minlength=self.matrix.n_cols)

    def _pair_uniform_row(self, i: int) -> np.ndarray:
        """The draws in [-1, 1] keyed on the unordered pairs ``(i, j)``,
        ``j`` in ``[n]``, as a fresh array.

        The key of a pair is ``min * n + max`` in wrapping uint64
        arithmetic, so ``j * n + i`` below i and ``i * n + j`` from i on;
        it is mixed with the seed's splitmix64 and hashed again.  The top 53
        bits of the hash, scaled by ``2**-52``, less one, are the draw.
        """
        n = self.matrix.n_cols
        i = int(i)
        key = self._key
        np.add(self._ids_times_n[:i], np.uint64(i), out=key[:i])
        np.add(self._ids[i:], np.uint64((i * n) & _MASK64), out=key[i:])
        key ^= self._seed_mix
        _splitmix64(key, self._tmp)
        u = np.right_shift(key, _S11, out=self._tmp).astype(np.float64)
        u *= 2.0 ** -52
        u -= 1.0
        return u


def oracle_row(ctx: OracleContext,
               i: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Estimates and errors for all pairs ``(i, j)``, ``j`` in ``[n]``.

    g1 is exact and returns no error row (``None``), which
    ``update_estimates`` reads as zero error; g3 estimates every change as
    zero and returns no estimate row (``None``), which
    ``update_estimates`` reads as a zero row.  The entry at j = i is
    computed like any other; the caller that tracks the active coordinate
    separately simply overwrites it.
    """
    spec = ctx.spec
    if spec.kind == "g1":
        return ctx._dot_row(i), None
    bounds = ctx.norms[i] * ctx.norms
    if spec.kind == "g2":
        error = spec.epsilon * bounds
        s = ctx._pair_uniform_row(i)
        s *= error
        np.add(ctx._dot_row(i), s, out=s)
        return np.clip(s, -bounds, bounds, out=s), error
    if spec.kind == "g3":
        return None, bounds
    u = ctx._pair_uniform_row(i)
    u *= bounds
    bounds *= 2.0
    return u, bounds
