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
The CSV writer maps ``repr`` and ``str`` over a block's ``tolist()`` at C
level, so most of its time is the conversion itself; only a float column
with NaNs converts its other entries one Python step at a time.
Beside an svmlight file the reader and the writer keep its binary twin,
``<file>.ascd-twin.npz``: what a load of the text returns, keyed by the
SHA-256 of the text, so a text is parsed once and a text the writer wrote
is never parsed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import stat
import tempfile
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


# the binary twin ``<file>.ascd-twin.npz`` of an svmlight file: what a
# load of the text returns, keyed by the text's SHA-256.  Bump the version
# whenever what the parse returns or accepts changes (its arrays, the
# syntax it takes, ``INDEX_MAX``, its handling of zeros), or old twins go
# on returning the old result; tests/test_data.py fingerprints the parse
# to catch a missed bump.
TWIN_VERSION = 1
TWIN_SUFFIX = ".ascd-twin.npz"
# name, dtype and number of dimensions of every array a twin holds
_TWIN_ARRAYS = (("version", np.int64, 0), ("sha256", np.uint8, 1),
                ("n_rows", np.int64, 0), ("indptr", np.int64, 1),
                ("rows", np.int64, 1), ("vals", np.float64, 1),
                ("target", np.float64, 1), ("empty", np.int64, 0))
# the arrays after the key: what a load of the text returns
_TWIN_LOADED = _TWIN_ARRAYS[2:]
# bytes hashed per read
_HASH_BLOCK = 1 << 16


def _twin_of(path, raw) -> tuple[str, os.stat_result] | None:
    """The name of the twin of ``path``, open as ``raw``, and the text's
    status now, or None when the file is not a regular file named by a
    path."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        return None
    status = os.fstat(raw.fileno())
    if not stat.S_ISREG(status.st_mode):
        return None
    return os.fsdecode(path) + TWIN_SUFFIX, status


def _unchanged(before: os.stat_result, after: os.stat_result) -> bool:
    """Whether a text's status shows no write between ``before`` and
    ``after``."""
    return ((before.st_size, before.st_mtime_ns, before.st_ctime_ns)
            == (after.st_size, after.st_mtime_ns, after.st_ctime_ns))


def _mode(status: os.stat_result) -> int:
    """The permission bits of a twin whose text has ``status``."""
    return stat.S_IMODE(status.st_mode) & 0o666


def _hash_text(raw) -> bytes:
    """The SHA-256 of what ``raw`` reads from where it stands."""
    digest = hashlib.sha256()
    while block := raw.read(_HASH_BLOCK):
        digest.update(block)
    return digest.digest()


def _read_twin(twin: str, key: bytes) -> tuple | None:
    """The arrays of ``twin`` if it is of this version and keyed by
    ``key``, else None.

    Any fault of the twin (missing, unreadable, truncated, another
    version, another text, an array of the wrong type) means no twin.
    """
    try:
        # opened here: np.load leaves a file it opened itself open when
        # the file is not a zip archive
        with open(twin, "rb") as fh, np.load(fh) as npz:
            if (npz["version"] != TWIN_VERSION
                    or npz["sha256"].tobytes() != key):
                return None
            arrays = [npz[name] for name, _, _ in _TWIN_LOADED]
    # a damaged archive raises any of BadZipFile, ValueError, KeyError,
    # EOFError, OSError, NotImplementedError and tokenize's TokenError
    # (random truncations and byte flips); whatever it raises, the load
    # goes on with the parse
    except Exception:
        return None
    if any(a.dtype != dtype or a.ndim != ndim
           for a, (_, dtype, ndim) in zip(arrays, _TWIN_LOADED)):
        return None
    n_rows, indptr, rows, vals, target, empty = arrays
    return int(n_rows), indptr, rows, vals, target, int(empty)


def _foreign(twin: str) -> bool:
    """Whether a file that is no twin has the name ``twin``.

    Every twin starts with the zip entry of its ``version`` array, so a
    file whose first bytes are not that entry's header is someone
    else's; an empty file and a twin cut short after that header are
    not.
    """
    first = b"version.npy"
    try:
        with open(twin, "rb") as fh:
            # a zip entry's header: 30 bytes, then the entry's name
            head = fh.read(30 + len(first))
    except FileNotFoundError:
        return False
    except OSError:
        return True
    return bool(head) and not (head[:4] == b"PK\x03\x04"
                               and head[30:] == first)


def _write_twin(twin: str, mode: int, key: bytes, n_rows: int,
                indptr: np.ndarray, rows: np.ndarray, vals: np.ndarray,
                target: np.ndarray, empty: int) -> None:
    """Write ``twin`` best-effort, with the permission bits ``mode``: into
    a temporary file beside it, then renamed over it.  A file of that
    name that is no twin is left alone; any ``OSError`` leaves no file
    behind and is not raised."""
    if _foreign(twin):
        return
    values = (TWIN_VERSION, np.frombuffer(key, np.uint8), n_rows, indptr,
              rows, vals, target, empty)
    directory, name = os.path.split(twin)
    try:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp",
                                   dir=directory or ".")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file its owner's alone; the twin is as
            # readable as its text
            os.chmod(tmp, mode)
            np.savez(fh, **{field: np.asarray(value, dtype)
                            for (field, dtype, _), value
                            in zip(_TWIN_ARRAYS, values)})
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_svmlight(fh, path) -> tuple:
    """Parse the text lines of ``fh`` into what a load returns: the row
    count, the column arrays with the raw values, the target and the
    number of empty columns dropped."""
    labels = array("d")
    counts = array("q")     # features on each row, explicit zeros included
    indices = array("q")
    values = array("d")
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
        # the tokens, split at their colons; rejoined, the pieces give the
        # tokens back only if each holds one colon between two nonempty
        # strings
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
    rows = rows[order]
    vals = vals[order]
    del order
    return (len(labels), indptr, rows, vals, np.array(labels),
            n_cols - (indptr.size - 1))


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

    A regular file may have a binary twin, ``<path>.ascd-twin.npz``
    (``TWIN_SUFFIX``), holding what this function returns for it (the
    values before ``binarize``, and the count of empty columns for the
    warning) keyed by the SHA-256 of the text.  When the twin is of
    ``TWIN_VERSION`` and its key is the digest of the text now, its arrays
    are returned and the text is not parsed.  Otherwise the text is
    parsed, and a parse that succeeds writes the twin, keyed by that
    digest, unless the text's size or times changed since it was opened;
    a twin that cannot be written (a read-only directory, a full disk) is
    skipped, and a file of the twin's name that is no twin is never
    replaced.  The twin gets the text's read and write permission bits.
    Arrays, warnings and errors are the same either way.

    The parse reads the file a line at a time.  Each line is split,
    converted and checked whole with builtins (``str.split``,
    ``map(int, ...)``, ``map(float, ...)``, ``min``, ``set``) and
    appended to compact ``array`` buffers.  Only a line that fails a
    check is parsed again token by token, to name its fault, so the
    arrays, warnings and messages are those of a per-token parse bit for
    bit.  At the end one stable argsort of the column ids orders the
    entries by column, and each entry-length temporary is dropped once
    used.
    """
    loaded = None
    with open(path, "rb") as raw:
        twin = _twin_of(path, raw)
        if twin:
            key = _hash_text(raw)
            loaded = _read_twin(twin[0], key)
            raw.seek(0)
        if loaded is None:
            # undecodable bytes are kept as lone surrogates, so the line
            # that holds one can be named
            text = io.TextIOWrapper(raw, encoding="utf-8",
                                    errors="surrogateescape")
            loaded = _parse_svmlight(text, path)
            # the key is that of the text parsed only if the text did not
            # change in between
            if twin and _unchanged(twin[1], os.fstat(raw.fileno())):
                _write_twin(twin[0], _mode(twin[1]), key, *loaded)
    n_rows, indptr, rows, vals, target, empty = loaded
    if empty:
        warnings.warn(f"{path}: dropping {empty} empty column(s)",
                      stacklevel=2)
    if binarize:
        vals = np.ones(rows.size)
    return ColumnSparseMatrix(n_rows, indptr, rows, vals), target


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
    one block.  Each row is formatted with one ``%`` over its block's
    column ids and values, converted with one ``tolist`` each.

    When a load of the text would return ``matrix`` and the target (the
    matrix stores an entry and has no empty column) and ``path`` names a
    regular file, the binary twin that ``load_svmlight`` reads is written
    beside it, keyed by the SHA-256 of the bytes written, as
    ``load_svmlight`` writes it.  The row order and the last block are
    gone by then, so the twin's write holds none of them: the save peaks
    while the rows are written, at about 12 bytes per entry.
    """
    labels = np.asarray(target, dtype=np.float64)
    if labels.shape != (matrix.n_rows,):
        raise ValueError("target length must equal the number of rows")
    bad = np.flatnonzero(~np.isfinite(labels))
    if bad.size:
        raise ValueError(f"non-finite target {float(labels[bad[0]])!r} in "
                         f"row {bad[0]}")
    with open(path, "wb") as fh:
        twin = _twin_of(path, fh)
        key = _write_rows(fh, matrix, labels)
    if twin and matrix.nnz and np.all(np.diff(matrix.indptr) > 0):
        _write_twin(twin[0], _mode(twin[1]), key, matrix.n_rows,
                    matrix.indptr, matrix.rows, matrix.vals, labels, 0)


def _write_rows(fh, matrix: ColumnSparseMatrix, labels: np.ndarray) -> bytes:
    """Write the svmlight lines of ``save_svmlight`` to ``fh`` a block at a
    time and return the SHA-256 of the bytes written.  A function of its
    own so that the row order and the last block's lists are freed on
    return, before the twin is written."""
    # stable: each row keeps its entries in column order.  The row ids in
    # the narrowest type that holds them sort as the int64 ids do, and up
    # to 65536 rows numpy radix-sorts them
    order = np.argsort(
        matrix.rows.astype(np.min_scalar_type(matrix.n_rows - 1)),
        kind="stable")
    ends = np.cumsum(np.bincount(matrix.rows, minlength=matrix.n_rows))
    lo = start = 0
    digest = hashlib.sha256()
    update, write = digest.update, fh.write
    while lo < matrix.n_rows:
        hi = int(np.searchsorted(ends, start + CHUNK_ENTRIES, side="right"))
        hi = min(max(hi, lo + 1), lo + CHUNK_ENTRIES)
        stop = int(ends[hi - 1])
        block = order[start:stop]
        # each entry's 1-based column id, then its value
        fields = [None] * (2 * block.size)
        fields[::2] = (matrix._nnz_col[block] + 1).tolist()
        fields[1::2] = matrix.vals[block].tolist()
        at = 0
        for label, end in zip(labels[lo:hi].tolist(),
                              (2 * (ends[lo:hi] - start)).tolist()):
            # built per row, not cached: a cache keyed by row length
            # would hold O(L**2) characters over L lengths
            line = (("%r" + " %s:%r" * ((end - at) // 2) + "\n")
                    % (label, *fields[at:end])).encode()
            update(line)
            write(line)
            at = end
        lo, start = hi, stop
    return digest.digest()


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
    """The CSV fields of one block of a column: ``str`` or ``repr`` mapped
    lazily over the block, or, for a block with NaNs, a list of empty
    fields with only the other entries converted."""
    if values.dtype.kind in "iuU":
        return map(str, values.tolist())
    nan = np.isnan(values)
    if not nan.any():
        return map(repr, values.tolist())
    fields = [""] * values.size
    keep = np.flatnonzero(~nan)
    for k, v in zip(keep.tolist(), values[keep].tolist()):
        fields[k] = repr(v)
    return fields


def write_csv(path, header: str, columns) -> None:
    """Write equal-length 1-D columns as CSV rows under ``header``.

    Integer and string columns are written with ``str`` and float columns
    with ``repr``, which reads back exactly with ``float``; NaN becomes an
    empty field.  Every column is checked before the file is opened, and
    no columns at all write the header alone.  The rows are converted and
    written in blocks of at most ``CHUNK_ENTRIES`` fields, so the text
    takes the same memory however long the columns.  In a block, a float
    column with no NaN and every integer column are converted lazily as
    the rows are joined; a float column with NaNs converts only its other
    entries, found with one ``np.isnan``.
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
