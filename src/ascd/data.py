"""Synthetic sparse regression data, svmlight-format I/O and CSV output.

The generator draws a dense Gaussian matrix, shifts every entry by one to
correlate the columns, rescales each column by ten times a standard normal
sample so the coordinate Lipschitz constants spread out, and then keeps
each entry with probability ``10 log(n)/n``.  Targets come from a planted
sparse coefficient vector plus Gaussian noise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .problem import ColumnSparseMatrix

__all__ = [
    "SynthConfig",
    "generate_synthetic",
    "load_svmlight",
    "save_svmlight",
    "take_columns",
    "write_csv",
]


@dataclass
class SynthConfig:
    """Shape and sharpness of the synthetic problem.

    ``column_scale_factor`` multiplies the per-column normal scale draw and
    ``sparsity_factor`` scales the keep-probability ``log(n)/n``.  The
    target is ``A @ xbar + noise`` with ``xbar`` supported on a
    ``support_frac`` fraction of the coordinates.
    """

    n_rows: int
    n_cols: int
    seed: int = 0
    column_scale_factor: float = 10.0
    sparsity_factor: float = 10.0
    support_frac: float = 0.1
    noise_sigma: float = 0.1

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        # generate_synthetic would crash or redraw an empty column forever
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("n_rows and n_cols must be at least 1")
        if not self.keep_probability > 0:
            raise ValueError("keep probability must be positive "
                             "(need n_cols >= 2 and sparsity_factor > 0)")
        if self.column_scale_factor == 0:
            raise ValueError("column_scale_factor must be nonzero")
        if self.support_frac > 1:
            raise ValueError("support_frac must be at most 1")

    @property
    def keep_probability(self) -> float:
        return min(1.0, self.sparsity_factor * math.log(self.n_cols)
                   / self.n_cols)


def _draw_column(rng: np.random.Generator, d: int,
                 scale_factor: float) -> np.ndarray:
    """One dense column before sparsification: ``(N(0,1) + 1) * scale``
    with ``scale = scale_factor * N(0,1)``."""
    raw = rng.standard_normal(d) + 1.0
    return raw * (scale_factor * rng.standard_normal())


def generate_synthetic(config: SynthConfig) -> tuple[ColumnSparseMatrix,
                                                     np.ndarray]:
    """Draw ``(A, b)`` deterministically from the config seed.

    Each column is drawn once and keeps only entries with a nonzero square.
    A column that keeps none after sparsification keeps one such entry,
    chosen from the same stream, so every Lipschitz constant is positive.
    """
    rng = np.random.default_rng(config.seed)
    d, n = config.n_rows, config.n_cols
    p = config.keep_probability
    cols = []
    for _ in range(n):
        dense = _draw_column(rng, d, config.column_scale_factor)
        nonzero = dense * dense != 0.0
        keep = (rng.random(d) < p) & nonzero
        if not keep.any():
            if not nonzero.any():
                raise ValueError("a column's squared norm underflowed to "
                                 "zero; column_scale_factor is too small")
            keep[rng.choice(np.flatnonzero(nonzero))] = True
        idx = np.flatnonzero(keep)
        cols.append((idx, dense[idx]))
    matrix = ColumnSparseMatrix.from_columns(d, cols)

    support = rng.choice(n, size=max(1, math.ceil(config.support_frac * n)),
                         replace=False)
    xbar = np.zeros(n)
    xbar[support] = rng.standard_normal(support.size)
    noise = config.noise_sigma * rng.standard_normal(d)
    return matrix, matrix.matvec(xbar) + noise


def load_svmlight(path, binarize: bool = False) -> tuple[ColumnSparseMatrix,
                                                         np.ndarray]:
    """Load a ``label index:value ...`` text file into column form.

    Feature indices are 1-based.  Each line is one row of the matrix; the
    labels become the target vector.  Labels and values must be finite;
    explicitly zero-valued features are not stored, and a file that stores
    none is rejected.  Columns without a single entry are dropped with a
    warning (the remaining columns are re-indexed).  ``binarize`` maps
    every stored value to 1, the usual bag-of-words treatment.
    """
    labels: list[float] = []
    entries: dict[int, list[tuple[int, float]]] = {}
    n_cols = 0
    # undecodable bytes are kept as lone surrogates, so the line that
    # holds one can be named
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xdc00
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text "
                                     f"(byte 0x{byte:02x})") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad label "
                                 f"{parts[0]!r}") from exc
            if not math.isfinite(label):
                raise ValueError(f"{path}:{lineno}: non-finite label "
                                 f"{parts[0]!r}")
            labels.append(label)
            row = len(labels) - 1
            seen = set()
            for token in parts[1:]:
                try:
                    idx_s, val_s = token.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad feature "
                                     f"{token!r}") from exc
                if idx < 1:
                    raise ValueError(f"{path}:{lineno}: feature indices "
                                     "are 1-based")
                if not math.isfinite(val):
                    raise ValueError(f"{path}:{lineno}: non-finite feature "
                                     f"{token!r}")
                if idx in seen:
                    raise ValueError(f"{path}:{lineno}: duplicate feature "
                                     f"{idx}")
                seen.add(idx)
                n_cols = max(n_cols, idx)
                if val != 0.0:
                    entries.setdefault(idx - 1, []).append((row, val))
    if not labels:
        raise ValueError(f"{path}: empty file")
    if not entries:
        raise ValueError(f"{path}: no row stores a nonzero feature")

    empty = n_cols - len(entries)
    if empty:
        warnings.warn(f"{path}: dropping {empty} empty column(s)",
                      stacklevel=2)
    cols = []
    for j in sorted(entries):
        pairs = entries[j]
        rows = np.array([r for r, _ in pairs], dtype=np.int64)
        vals = (np.ones(len(pairs)) if binarize
                else np.array([v for _, v in pairs]))
        cols.append((rows, vals))
    matrix = ColumnSparseMatrix.from_columns(len(labels), cols)
    return matrix, np.asarray(labels)


def save_svmlight(matrix: ColumnSparseMatrix, target: np.ndarray,
                  path) -> None:
    """Write rows as ``label index:value ...`` lines with 1-based indices.

    Values are written with full precision so a load round-trips exactly.
    """
    if target.shape != (matrix.n_rows,):
        raise ValueError("target length must equal the number of rows")
    per_row: list[list[str]] = [[] for _ in range(matrix.n_rows)]
    order = np.lexsort((matrix._nnz_col, matrix.rows))
    for k in order:
        r = int(matrix.rows[k])
        per_row[r].append(f"{int(matrix._nnz_col[k]) + 1}:"
                          f"{float(matrix.vals[k])!r}")
    with open(path, "w") as fh:
        for r in range(matrix.n_rows):
            fh.write(" ".join([repr(float(target[r]))] + per_row[r]) + "\n")


def take_columns(matrix: ColumnSparseMatrix, k: int,
                 seed: int = 0) -> ColumnSparseMatrix:
    """Random column subset of size k, order preserved."""
    if not 1 <= k <= matrix.n_cols:
        raise ValueError("k must be between 1 and the number of columns")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(matrix.n_cols, size=k, replace=False))
    return ColumnSparseMatrix.from_columns(
        matrix.n_rows, (matrix.col(int(j)) for j in chosen))


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns as CSV rows under ``header``.

    Integer and string columns are written with ``str`` and float columns
    with ``repr``, which reads back exactly with ``float``; NaN becomes an
    empty field.
    """
    columns = [np.asarray(col) for col in columns]
    if len({col.shape for col in columns}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    fields = []
    for col in columns:
        values = col.tolist()
        if col.dtype.kind in "iuU":
            fields.append(map(str, values))
        else:
            fields.append(["" if math.isnan(v) else repr(v) for v in values])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*fields))
