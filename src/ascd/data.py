"""Synthetic sparse regression data, svmlight-format I/O and CSV output.

The generator draws a dense Gaussian matrix, shifts every entry by one to
correlate the columns, rescales each column by ten times a standard normal
sample so the coordinate Lipschitz constants spread out, and then keeps
each entry with probability ``10 log(n)/n``.  Targets come from a planted
sparse coefficient vector plus Gaussian noise.  The columns are drawn
into two chunk buffers of at most ``CHUNK_ENTRIES`` entries each, and
each chunk is sparsified in one pass; the output is bit for bit that of
drawing and sparsifying one column at a time, because a chunk holding a
column that keeps no entry is drawn again column by column from its
saved generator state.  A shape whose buffers or column pointers cannot
be allocated is rejected before the first draw.

The svmlight reader streams a file a line at a time through builtins
into compact buffers, and gives the arrays, warnings and error messages
of a per-token parse bit for bit; feature indices beyond int64 are
rejected where they enter.  The svmlight writer and the CSV writer
convert their numbers to text a block of at most ``CHUNK_ENTRIES``
entries at a time, so the text never takes more memory than one block.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .problem import ColumnSparseMatrix

__all__ = [
    "SynthConfig",
    "generate_synthetic",
    "load_svmlight",
    "save_svmlight",
    "take_columns",
    "trace_allocation",
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
        # numpy's own rejection of a negative seed names no field
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 < self.support_frac <= 1:
            raise ValueError("support_frac must be in (0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")

    @property
    def keep_probability(self) -> float:
        return min(1.0, self.sparsity_factor * math.log(self.n_cols)
                   / self.n_cols)


# entries of one chunk buffer (128 KiB of float64): a chunk holds as many
# columns as fit, so the buffers stay this small however tall the columns
CHUNK_ENTRIES = 1 << 14


@contextlib.contextmanager
def _allocation(message: str):
    """Allocate inside this block; an array that cannot be allocated
    raises ``ValueError(message)`` instead of numpy's own size error or
    ``MemoryError``."""
    try:
        yield
    except (MemoryError, ValueError):
        # numpy raises ValueError for a length beyond its largest array
        raise ValueError(message) from None


def _draw_chunk(rng: np.random.Generator, normals: np.ndarray,
                uniforms: np.ndarray, p: float, scale_factor: float,
                counts: np.ndarray, rows: list, vals: list) -> bool:
    """Draw and sparsify ``len(counts)`` columns.

    Each column draws its d + 1 normals (the entries, then the scale)
    into a row of ``normals`` and its d keep draws into a row of
    ``uniforms``.  The kept entries' row indices and values are appended
    to ``rows`` and ``vals`` and their number per column written to
    ``counts``.  A lone column that keeps nothing keeps one entry with a
    nonzero square, drawn next from the stream; in a chunk of several
    columns the call appends nothing and returns False instead, so the
    caller can redraw the chunk a column at a time.
    """
    d = uniforms.shape[1]
    for normal, uniform in zip(normals, uniforms):
        rng.standard_normal(out=normal)
        rng.random(out=uniform)
    # a 2-D nonzero of the mask costs several times this
    c, r = np.divmod(np.flatnonzero(uniforms < p), d)
    v = (normals[c, r] + 1.0) * (scale_factor * normals[c, d])
    nonzero = v * v != 0.0
    c, r, v = c[nonzero], r[nonzero], v[nonzero]
    counts[:] = np.bincount(c, minlength=counts.size)
    if not counts.all():
        if counts.size > 1:
            return False
        dense = (normals[0, :d] + 1.0) * (scale_factor * normals[0, d])
        nonzero = np.flatnonzero(dense * dense != 0.0)
        if not nonzero.size:
            raise ValueError("a column's squared norm underflowed to "
                             "zero; column_scale_factor is too small")
        r = np.array([rng.choice(nonzero)])
        v = dense[r]
        counts[0] = 1
    rows.append(r)
    vals.append(v)
    return True


def generate_synthetic(config: SynthConfig) -> tuple[ColumnSparseMatrix,
                                                     np.ndarray]:
    """Draw ``(A, b)`` deterministically from the config seed.

    Column j is ``(N(0,1) + 1) * scale_j`` with ``scale_j = scale_factor *
    N(0,1)``, drawn from the stream as ``standard_normal(d)``, then the
    scale, then ``random(d)`` for its keep draws, column after column;
    each column keeps the entries whose keep draw is below the keep
    probability and whose square is nonzero.  A column that keeps none
    keeps one entry with a nonzero square, drawn next from the stream, so
    every Lipschitz constant is positive; a column with no such entry is
    rejected.

    The columns are drawn into two chunk buffers of at most
    ``CHUNK_ENTRIES`` entries (one column per chunk when a column is
    longer) and each chunk is sparsified in one pass.  A chunk that holds
    a column keeping nothing is drawn again from its saved generator
    state a column at a time, so the fallback draw comes where it does in
    a column loop: the arrays, the target and the error are those of that
    loop bit for bit.  The buffers and the column pointers are allocated
    before the first draw; a shape that does not fit in memory raises
    ``ValueError`` naming ``n_rows`` or ``n_cols``.
    """
    rng = np.random.default_rng(config.seed)
    d, n = config.n_rows, config.n_cols
    p, scale_factor = config.keep_probability, config.column_scale_factor
    k = max(1, min(n, CHUNK_ENTRIES // (d + 1)))
    with _allocation(f"n_rows {d}: a column that long does not fit in "
                     "memory"):
        normals = np.empty((k, d + 1))
        uniforms = np.empty((k, d))
    with _allocation(f"n_cols {n}: the column pointers of that many "
                     "columns do not fit in memory"):
        indptr = np.zeros(n + 1, dtype=np.int64)
    rows, vals = [], []
    for lo in range(0, n, k):
        hi = min(n, lo + k)
        state = rng.bit_generator.state
        if not _draw_chunk(rng, normals[:hi - lo], uniforms[:hi - lo], p,
                           scale_factor, indptr[lo + 1:hi + 1], rows, vals):
            rng.bit_generator.state = state
            for j in range(lo + 1, hi + 1):
                _draw_chunk(rng, normals[:1], uniforms[:1], p,
                            scale_factor, indptr[j:j + 1], rows, vals)
    np.cumsum(indptr, out=indptr)
    # rebound, so the chunk lists are freed before the matrix is checked
    rows, vals = np.concatenate(rows), np.concatenate(vals)
    matrix = ColumnSparseMatrix(d, indptr, rows, vals)

    support = rng.choice(n, size=max(1, math.ceil(config.support_frac * n)),
                         replace=False)
    xbar = np.zeros(n)
    xbar[support] = rng.standard_normal(support.size)
    noise = config.noise_sigma * rng.standard_normal(d)
    return matrix, matrix.matvec(xbar) + noise


# the largest feature index a file may name: the parse buffers are int64
INDEX_MAX = 2 ** 63 - 1


def _parse_line(parts: list[str], where: str) -> tuple[float, list[int],
                                                       list[float]]:
    """Label, indices and values of one line's tokens, checked token by
    token; the first fault in token order raises ``ValueError``."""
    try:
        label = float(parts[0])
    except ValueError as exc:
        raise ValueError(f"{where}: bad label {parts[0]!r}") from exc
    if not math.isfinite(label):
        raise ValueError(f"{where}: non-finite label {parts[0]!r}")
    indices, values, seen = [], [], set()
    for token in parts[1:]:
        try:
            idx_s, val_s = token.split(":", 1)
            idx = int(idx_s)
            val = float(val_s)
        except ValueError as exc:
            raise ValueError(f"{where}: bad feature {token!r}") from exc
        if idx < 1:
            raise ValueError(f"{where}: feature indices are 1-based")
        if idx > INDEX_MAX:
            raise ValueError(f"{where}: feature index {idx} is beyond "
                             f"{INDEX_MAX}")
        if not math.isfinite(val):
            raise ValueError(f"{where}: non-finite feature {token!r}")
        if idx in seen:
            raise ValueError(f"{where}: duplicate feature {idx}")
        seen.add(idx)
        indices.append(idx)
        values.append(val)
    return label, indices, values


def load_svmlight(path, binarize: bool = False) -> tuple[ColumnSparseMatrix,
                                                         np.ndarray]:
    """Load a ``label index:value ...`` text file into column form.

    Feature indices are 1-based and at most ``INDEX_MAX`` (2**63 - 1).
    Each line is one row of the matrix; the labels become the target
    vector.  ``#`` starts a comment; blank lines are skipped.  Labels and
    values must be finite and a line may name an index once; explicitly
    zero-valued features are not stored, and a file that stores none is
    rejected.  Columns without a single entry are dropped with a warning
    (the remaining columns are re-indexed).  ``binarize`` maps every
    stored value to 1, the usual bag-of-words treatment.  A rejected file
    raises ``ValueError`` naming ``path:line`` and the first fault of that
    line in token order.

    The file is read a line at a time.  Each line is split, converted
    and checked whole with builtins (``str.split``, ``map(int, ...)``,
    ``map(float, ...)``, ``min``, ``set``) and appended to compact
    ``array`` buffers.  Only a line that fails a check is parsed again
    token by token, to name its fault, so the arrays, warnings and
    messages are those of a per-token parse bit for bit.  At the end one
    stable argsort of the column ids orders the entries by column, and
    each entry-length temporary is dropped once used.
    """
    labels = array("d")
    counts = array("q")     # features on each row, explicit zeros included
    indices = array("q")
    values = array("d")
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
            line = line.partition("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            # the tokens, split at their colons; rejoined, the pieces give
            # the tokens back only if each holds one colon between two
            # nonempty strings
            feats = " ".join(parts[1:])
            pieces = feats.replace(":", " ").split()
            idx_s, val_s = pieces[0::2], pieces[1::2]
            try:
                label = float(parts[0])
                idx = list(map(int, idx_s))
                val = list(map(float, val_s))
            except ValueError:
                ok = False
            else:
                ok = (" ".join(map(":".join, zip(idx_s, val_s))) == feats
                      and math.isfinite(label)
                      and all(map(math.isfinite, val))
                      and (not idx or (min(idx) >= 1
                                       and max(idx) <= INDEX_MAX
                                       and len(set(idx)) == len(idx))))
            if not ok:
                label, idx, val = _parse_line(parts, f"{path}:{lineno}")
            labels.append(label)
            counts.append(len(idx))
            indices.extend(idx)
            values.extend(val)
    if not labels:
        raise ValueError(f"{path}: empty file")

    # from here on each nnz-length array is dropped as soon as it has
    # been used; the frombuffer views hold the parse buffers until then
    rows = np.repeat(np.arange(len(labels), dtype=np.int64),
                     np.frombuffer(counts, dtype=np.int64))
    cols = np.frombuffer(indices, dtype=np.int64)
    vals = np.frombuffer(values, dtype=np.float64)
    del counts, indices, values
    # an explicit zero still names its column
    n_cols = int(cols.max()) if cols.size else 0
    if not vals.all():
        stored = vals != 0.0
        rows, cols, vals = rows[stored], cols[stored], vals[stored]
        del stored
    if not cols.size:
        raise ValueError(f"{path}: no row stores a nonzero feature")

    # stable: each column keeps its entries in row order
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    indptr = np.concatenate(([0], np.flatnonzero(cols[1:] != cols[:-1]) + 1,
                             [cols.size]))
    del cols
    empty = n_cols - (indptr.size - 1)
    if empty:
        warnings.warn(f"{path}: dropping {empty} empty column(s)",
                      stacklevel=2)
    rows = rows[order]
    vals = np.ones(rows.size) if binarize else vals[order]
    del order
    matrix = ColumnSparseMatrix(len(labels), indptr, rows, vals)
    return matrix, np.array(labels)


def save_svmlight(matrix: ColumnSparseMatrix, target: np.ndarray,
                  path) -> None:
    """Write rows as ``label index:value ...`` lines with 1-based indices,
    in increasing index order.

    Values are written with ``repr``, full precision, so a load
    round-trips exactly.  A non-finite target, which a load would refuse,
    is rejected before the file is opened.  The entries are sorted by row
    once; consecutive rows are then converted and written a block at a
    time, at most ``CHUNK_ENTRIES`` entries and rows per block (a longer
    row is a block of its own), so the text never exists for more than
    one block.
    """
    labels = np.asarray(target, dtype=np.float64)
    if labels.shape != (matrix.n_rows,):
        raise ValueError("target length must equal the number of rows")
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise ValueError(f"non-finite target {float(labels[bad[0]])!r} in "
                         f"row {bad[0]}")
    # stable: each row keeps its entries in column order
    order = np.argsort(matrix.rows, kind="stable")
    ends = np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows))
    lo = start = 0
    with open(path, "w") as fh:
        while lo < matrix.n_rows:
            hi = int(np.searchsorted(ends, start + CHUNK_ENTRIES,
                                     side="right"))
            hi = min(max(hi, lo + 1), lo + CHUNK_ENTRIES)
            stop = int(ends[hi - 1])
            block = order[start:stop]
            cols = (matrix._nnz_col[block] + 1).tolist()
            vals = matrix.vals[block].tolist()
            at = 0
            for label, end in zip(labels[lo:hi].tolist(),
                                  (ends[lo:hi] - start).tolist()):
                fh.write(" ".join([repr(label), *map("{}:{!r}".format,
                                                      cols[at:end],
                                                      vals[at:end])]) + "\n")
                at = end
            lo, start = hi, stop


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


def trace_allocation(steps: int):
    """Allocate the columns of a ``steps``-row trace inside this block; a
    length that cannot be allocated raises ``ValueError`` naming ``steps``
    instead of numpy's own size error or ``MemoryError``."""
    return _allocation(f"steps {steps}: a trace that long does not fit in "
                       "memory")


def _csv_fields(values: np.ndarray):
    """The CSV fields of one block of a column."""
    if values.dtype.kind in "iuU":
        return map(str, values.tolist())
    return ["" if math.isnan(v) else repr(v) for v in values.tolist()]


def write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns as CSV rows under ``header``.

    Integer and string columns are written with ``str`` and float columns
    with ``repr``, which reads back exactly with ``float``; NaN becomes an
    empty field.  Every column is checked before the file is opened, and
    no columns at all write the header alone.  The rows are converted and
    written in blocks of at most ``CHUNK_ENTRIES`` fields, so the text
    takes the same memory however long the columns.
    """
    columns = [np.asarray(col) for col in columns]
    if any(col.ndim != 1 for col in columns):
        raise ValueError("CSV columns must be 1-D")
    if len({col.shape for col in columns}) > 1:
        raise ValueError("CSV columns must have equal lengths")
    size = columns[0].size if columns else 0
    block = max(1, CHUNK_ENTRIES // max(1, len(columns)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, size, block):
            fields = [_csv_fields(col[lo:lo + block]) for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*fields))
