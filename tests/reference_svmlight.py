"""Per-token reference for the svmlight reader and writer.

``ascd.data.load_svmlight`` parses each line with C builtins and hands a
line that fails a fast check to a per-token diagnosis, and
``save_svmlight`` formats rows a block at a time; the functions here are
the per-token loops they replaced, the definition the parity tests hold
them to: the same arrays, warnings and error messages, and the same bytes.
"""

import math
import warnings

import numpy as np

from ascd.problem import ColumnSparseMatrix


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
