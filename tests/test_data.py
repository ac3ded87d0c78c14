import hashlib
import inspect
import math
import os
import stat
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import ascd.data
import reference_synthetic
from ascd.data import (SynthConfig, generate_synthetic, load_svmlight,
                       save_svmlight, take_columns, write_csv)
from ascd.problem import ColumnSparseMatrix, CompositeProblem
from reference_svmlight import load_svmlight as reference_load
from reference_svmlight import save_svmlight as reference_save


class TestGenerate:
    def test_deterministic(self):
        config = SynthConfig(n_rows=40, n_cols=30, seed=11)
        m1, b1 = generate_synthetic(config)
        m2, b2 = generate_synthetic(config)
        assert np.array_equal(m1.vals, m2.vals)
        assert np.array_equal(m1.rows, m2.rows)
        assert np.array_equal(m1.indptr, m2.indptr)
        assert np.array_equal(b1, b2)

    def test_density_near_keep_probability(self):
        p = SynthConfig(n_rows=100, n_cols=1000, seed=0).keep_probability
        assert p == pytest.approx(10 * math.log(1000) / 1000)
        densities = []
        for seed in range(3):
            m, _ = generate_synthetic(SynthConfig(n_rows=100, n_cols=1000,
                                                  seed=seed))
            densities.append(m.nnz / (m.n_rows * m.n_cols))
        assert abs(np.mean(densities) - p) < 0.01

    def test_no_empty_columns(self):
        m, _ = generate_synthetic(SynthConfig(n_rows=30, n_cols=200, seed=3))
        assert np.all(np.diff(m.indptr) > 0)
        CompositeProblem(m, np.zeros(30))  # no zero-norm rejection

    def test_column_underflowing_to_zero_rejected(self):
        # a subnormal scale rounds whole columns to zero: no entry to keep
        with pytest.raises(ValueError, match="underflowed"):
            generate_synthetic(SynthConfig(n_rows=3, n_cols=50, seed=0,
                                           column_scale_factor=5e-324))

    def test_column_mean_tracks_one_after_scaling(self):
        # the unit shift makes each raw column average out to its scale;
        # at keep probability 1 every entry is kept, and each column reads
        # its d entries, its scale and its d keep draws from the stream
        d, n = 4000, 20
        config = SynthConfig(n_rows=d, n_cols=n, seed=5)
        assert config.keep_probability == 1.0
        m, _ = generate_synthetic(config)
        rng = np.random.default_rng(5)
        for j in range(n):
            raw = rng.standard_normal(d) + 1.0
            scale = 10.0 * rng.standard_normal()
            rng.random(d)
            rows, col = m.col(j)
            assert np.array_equal(rows, np.arange(d))
            assert_allclose(col, raw * scale)
            assert abs(np.mean(col / scale) - 1.0) <= 3.0 / math.sqrt(d)

    def test_target_shape_and_variation(self):
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=7))
        assert b.shape == (50,)
        assert np.std(b) > 0

    def test_peak_memory_bounded_by_output(self):
        # the columns are drawn into two small chunk buffers, never a
        # list of per-column arrays (the column loop peaked at 3.05x)
        tracemalloc.start()
        try:
            m, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=5000,
                                                  seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(a.nbytes for a in (m.indptr, m.rows, m.vals,
                                        m._nnz_col, b))
        assert peak < 2.75 * output


def _synthetic_outcome(generate, config):
    """What a generator shows a caller: the arrays' dtypes and bytes, or
    the error message."""
    try:
        matrix, target = generate(config)
    except ValueError as exc:
        return str(exc)
    return [(a.dtype, a.tobytes())
            for a in (matrix.indptr, matrix.rows, matrix.vals, target)]


def _fallback_columns(config):
    """The columns of the reference loop that kept no entry and drew
    their one entry with ``rng.choice``, read off its generator calls."""
    calls = []
    default_rng = np.random.default_rng

    class Spy:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

    with mock.patch.object(np.random, "default_rng",
                           lambda seed: Spy(default_rng(seed))):
        reference_synthetic.generate_synthetic(config)
    columns, drawn = [], 0
    for name in calls:
        drawn += name == "random"   # one per column
        if name == "choice":
            columns.append(drawn - 1)
    return columns[:-1]             # the last draws the planted support


class TestSynthMatchesReference:
    """The chunked generator against the column loop of
    ``reference_synthetic``, with the chunk budget patched small so that
    a few columns span several chunks."""

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 40), st.integers(2, 40), st.integers(1, 8),
           st.integers(0, 40), st.integers(0, 2 ** 32),
           st.sampled_from([0.05, 1.0, 3.0, 10.0]),
           st.sampled_from([10.0, -0.5, 1e-160, 5e-324]))
    # below, at and across a chunk, with a partial last chunk
    @example(7, 3, 4, 0, 1, 10.0, 10.0)
    @example(7, 4, 4, 0, 1, 10.0, 10.0)
    @example(7, 13, 4, 7, 1, 3.0, 10.0)
    # kept entries that underflow, and columns that underflow whole
    @example(20, 30, 3, 0, 2, 10.0, 1e-160)
    @example(3, 30, 3, 0, 0, 10.0, 5e-324)
    def test_matches_reference(self, d, n, chunk, slack, seed, sparsity,
                               scale):
        config = SynthConfig(n_rows=d, n_cols=n, seed=seed,
                             sparsity_factor=sparsity,
                             column_scale_factor=scale)
        # a budget of ``chunk`` columns and part of one more
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES",
                               chunk * (d + 1) + slack % (d + 1)):
            outcome = _synthetic_outcome(generate_synthetic, config)
        assert outcome == _synthetic_outcome(
            reference_synthetic.generate_synthetic, config)

    def test_fallback_at_every_place_in_a_chunk(self):
        # chunks of 4 columns: on this seed the fallback fires in the
        # first, the middle two and the last column of a chunk, and in
        # the partial last chunk, while two chunks keep an entry in every
        # column
        config = SynthConfig(n_rows=3, n_cols=30, seed=10,
                             sparsity_factor=3.0)
        columns = _fallback_columns(config)
        assert {j % 4 for j in columns} == {0, 1, 2, 3}
        assert 28 in columns and {0, 1, 2, 3, 12, 13, 14, 15}.isdisjoint(
            columns)
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", 4 * 4):
            outcome = _synthetic_outcome(generate_synthetic, config)
        assert outcome == _synthetic_outcome(
            reference_synthetic.generate_synthetic, config)

    @pytest.mark.parametrize("d,n", [(1000, 300), (5, 3000), (20000, 3)])
    def test_default_chunks_match_reference(self, d, n):
        # 16-column chunks with a partial last one, a single partial
        # chunk, and columns longer than a chunk buffer, one per chunk
        config = SynthConfig(n_rows=d, n_cols=n, seed=3)
        assert (_synthetic_outcome(generate_synthetic, config)
                == _synthetic_outcome(reference_synthetic.generate_synthetic,
                                      config))


class TestSvmlight:
    def test_documented_example(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        matrix, target = load_svmlight(path)
        assert matrix.shape == (2, 3)
        assert_allclose(target, [1.0, -1.0])
        dense = matrix.to_dense()
        assert_allclose(dense, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])

    def test_binarize(self, tmp_path):
        path = tmp_path / "toy.svm"
        path.write_text("+1 1:0.5 3:2\n-1 2:1\n")
        matrix, _ = load_svmlight(path, binarize=True)
        assert np.all(matrix.vals == 1.0)

    def test_round_trip_exact(self, tmp_path):
        # through the text (the twin the save wrote is removed), then
        # through the twin that parse wrote back
        m, b = generate_synthetic(SynthConfig(n_rows=25, n_cols=18, seed=9))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
        _twin(path).unlink()
        for _ in range(2):
            m2, b2 = load_svmlight(path)
            assert np.array_equal(b, b2)
            assert np.array_equal(m.indptr, m2.indptr)
            assert np.array_equal(m.rows, m2.rows)
            assert np.array_equal(m.vals, m2.vals)

    def test_empty_column_dropped_with_warning(self, tmp_path):
        path = tmp_path / "gap.svm"
        path.write_text("1 1:1 3:1\n2 3:2\n")
        with pytest.warns(UserWarning, match="empty column"):
            matrix, _ = load_svmlight(path)
        assert matrix.shape == (2, 2)

    def test_empty_columns_counted_without_a_range(self, tmp_path):
        # the count of empty columns used to build a set of every index
        # up to the largest one
        path = tmp_path / "wide.svm"
        path.write_text("1 1:1 1000000:2\n2 3:1\n")
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning,
                              match="dropping 999997 empty column"):
                matrix, _ = load_svmlight(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert matrix.shape == (2, 3)

    def test_explicit_zero_not_stored(self, tmp_path):
        path = tmp_path / "zero.svm"
        path.write_text("1 1:0 2:3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            matrix, _ = load_svmlight(path)
        assert np.all(matrix.vals != 0.0)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("1 1:1\n2 7:x\n")
        with pytest.raises(ValueError, match=r"bad\.svm:2"):
            load_svmlight(path)

    def test_non_utf8_reports_line(self, tmp_path):
        path = tmp_path / "latin1.svm"
        path.write_bytes(b"1 1:1\n2 2:1 # caf\xe9\n")
        with pytest.raises(ValueError,
                           match=r"latin1\.svm:2: not UTF-8 text "
                                 r"\(byte 0xe9\)"):
            load_svmlight(path)

    @pytest.mark.parametrize("text", ["1 1:1\nnan 1:2\n",
                                      "1 1:1\n2 1:inf\n"])
    def test_non_finite_reports_line(self, tmp_path, text):
        path = tmp_path / "nf.svm"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"nf\.svm:2: non-finite"):
            load_svmlight(path)

    def test_duplicate_feature_rejected(self, tmp_path):
        path = tmp_path / "dup.svm"
        path.write_text("1 2:1 2:3\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_svmlight(path)

    def test_zero_based_index_rejected(self, tmp_path):
        path = tmp_path / "zb.svm"
        path.write_text("1 0:1\n")
        with pytest.raises(ValueError, match="1-based"):
            load_svmlight(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.svm"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_svmlight(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.svm"
        path.write_text("# header\n\n1 1:2 # trailing\n")
        matrix, target = load_svmlight(path)
        assert matrix.shape == (1, 1)
        assert target[0] == 1.0

    def test_index_beyond_int64_rejected(self, tmp_path):
        # used to load as a 1x2 matrix after a warning about
        # 99999999999999999999999999998 empty columns
        path = tmp_path / "wide.svm"
        path.write_text("1 1:1\n1 1:1 100000000000000000000000000000:2\n")
        with pytest.raises(ValueError,
                           match=r"wide\.svm:2: feature index "
                                 r"100000000000000000000000000000 is beyond "
                                 r"9223372036854775807$"):
            load_svmlight(path)

    def test_largest_int64_index_accepted(self, tmp_path):
        path = tmp_path / "widest.svm"
        path.write_text(f"1 1:1 {2 ** 63 - 1}:2\n")
        with pytest.warns(UserWarning,
                          match=f"dropping {2 ** 63 - 3} empty column"):
            matrix, _ = load_svmlight(path)
        assert matrix.shape == (1, 2)
        assert_allclose(matrix.to_dense(), [[1.0, 2.0]])

    def test_load_peak_memory_bounded_by_file_size(self, tmp_path):
        # the parse streams: a compact buffer per field, never every token
        # of the file at once (the per-token loader peaked near 6x)
        m, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=1000,
                                              seed=5))
        path = tmp_path / "big.svm"
        save_svmlight(m, b, path)
        _twin(path).unlink()    # measure the parse, not the twin
        tracemalloc.start()
        try:
            load_svmlight(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size
        assert _twin(path).exists()     # the parse wrote it back

    def test_twin_load_peak_memory_bounded_by_output(self, tmp_path):
        # the twin's arrays are read into the returned ones, a bounded
        # block at a time: about 25 bytes per entry, against the parse's 41
        m, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=1000,
                                              seed=5))
        path = tmp_path / "big.svm"
        save_svmlight(m, b, path)
        tracemalloc.start()
        try:
            with mock.patch.object(ascd.data, "_parse_svmlight") as parse:
                m2, b2 = load_svmlight(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not parse.called
        output = sum(a.nbytes for a in (m2.indptr, m2.rows, m2.vals,
                                        m2._nnz_col, b2))
        assert peak < 1.25 * output

    def test_save_peak_memory_bounded_by_matrix(self, tmp_path):
        # one row order and a block of text, never every entry as Python
        # objects at once (the whole-list writer peaked near 3.3x)
        m, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=1000,
                                              seed=5))
        tracemalloc.start()
        try:
            save_svmlight(m, b, tmp_path / "big.svm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * sum(a.nbytes for a in (m.rows, m.vals,
                                                   m._nnz_col))
        assert _twin(tmp_path / "big.svm").exists()     # counted above

    def test_save_peak_memory_bounded_on_wide_columns(self, tmp_path):
        # two entries a column: anything the writer held per column, such
        # as a table of "j:" strings (~60 bytes against a column's 48
        # bytes of arrays), would outgrow the matrix; small blocks keep
        # what it holds per block small next to it
        n = 20_000
        rng = np.random.default_rng(7)
        first = rng.integers(0, 999, n)
        rows = np.column_stack([first, rng.integers(first + 1, 1000)])
        m = ColumnSparseMatrix(1000, np.arange(0, 2 * n + 1, 2),
                               rows.ravel(), rng.uniform(1.0, 2.0, 2 * n))
        path = tmp_path / "wide.svm"
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", 1 << 10):
            tracemalloc.start()
            try:
                save_svmlight(m, rng.standard_normal(1000), path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.5 * sum(a.nbytes for a in (m.rows, m.vals,
                                                   m._nnz_col))
        assert _twin(path).exists()     # counted above
        assert np.array_equal(load_svmlight(path)[0].vals, m.vals)

    def test_save_peak_memory_bounded_on_every_row_length(self, tmp_path):
        # rows of every length from 1 to k: a template cached per row
        # length would hold about 3 bytes per entry (k**2 / 2 entries)
        # beside one row order and one block, 0.86x the arrays against
        # 0.62x without
        k = 600
        rows = np.concatenate([np.arange(j, k) for j in range(k)])
        indptr = np.concatenate(([0], np.cumsum(np.arange(k, 0, -1))))
        rng = np.random.default_rng(11)
        m = ColumnSparseMatrix(k, indptr, rows,
                               rng.uniform(1.0, 2.0, rows.size))
        path = tmp_path / "lengths.svm"
        tracemalloc.start()
        try:
            save_svmlight(m, rng.standard_normal(k), path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * sum(a.nbytes for a in (m.rows, m.vals,
                                                    m._nnz_col))
        assert _twin(path).exists()     # counted above
        lengths = [line.count(b":") for line in path.read_bytes().split(
            b"\n")[:-1]]
        assert lengths == list(range(1, k + 1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_rejects_non_finite_target(self, tmp_path, bad):
        # used to write a label that the loader then refused
        m = ColumnSparseMatrix.from_dense([[1.0], [2.0], [3.0]])
        path = tmp_path / "bad.svm"
        with pytest.raises(ValueError,
                           match=rf"non-finite target {bad!r} in row 1$"):
            save_svmlight(m, np.array([1.0, bad, 2.0]), path)
        assert not path.exists()

    def test_save_int64_target(self, tmp_path):
        m = ColumnSparseMatrix.from_dense([[1.0], [2.0]])
        target = np.array([-3, 2 ** 62], dtype=np.int64)
        path = tmp_path / "int.svm"
        save_svmlight(m, target, path)
        assert path.read_text() == f"-3.0 1:1.0\n{float(2 ** 62)!r} 1:2.0\n"
        assert np.array_equal(load_svmlight(path)[1],
                              target.astype(np.float64))


def _twin(path):
    """The binary twin of the svmlight file at ``path``."""
    return path.with_name(path.name + ascd.data.TWIN_SUFFIX)


def _outcome(load, path, binarize):
    """Everything a load shows a caller: the arrays' dtypes and bytes, or
    the error message, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            matrix, target = load(path, binarize=binarize)
        except ValueError as exc:
            shown = ("error", str(exc))
        else:
            shown = ("loaded", matrix.shape) + tuple(
                (a.dtype.str, a.tobytes())
                for a in (matrix.indptr, matrix.rows, matrix.vals, target))
    return shown, [(w.category, str(w.message)) for w in caught]


_INDEX = st.integers(1, 12).map(str) | st.sampled_from(["+3", "03", "1_0"])
_VALUE = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
          | st.sampled_from(["0", "-0.0", "+5", "1e-320", "2.5E3", "1_0"]))
_LABEL = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
          | st.sampled_from(["+1", "-1", "0"]))
_BAD_LABEL = st.sampled_from(["x", "1:2", "nan", "inf", "-inf", "1,5"])
_BAD_FEATURE = st.sampled_from([
    "7", "1:", ":1", "1:2:3", "0:1", "-2:1", "2:nan", "2:inf", "2:-inf",
    "x:1", "1:y", "1.5:2", "1::2", "::"])
_SEP = st.sampled_from([" ", "  ", "\t", " \t ", "\x0c", "\u3000"])


@st.composite
def _svm_line(draw, clean):
    """One line of an svmlight text, without its line ending."""
    kind = draw(st.sampled_from(["row", "row", "row", "label-only", "blank",
                                 "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " header", " 1 1:x"]))
    label = draw(_LABEL if clean else _LABEL | _BAD_LABEL)
    feats = []
    if kind == "row":
        # distinct indices on a clean line; a faulty one may repeat them
        cols = draw(st.lists(st.integers(1, 12), max_size=6,
                             unique=clean))
        feats = [f"{c}:{draw(_VALUE)}" for c in cols]
        if not clean:
            for _ in range(draw(st.integers(0, 2))):
                feats.insert(draw(st.integers(0, len(feats))),
                             draw(_BAD_FEATURE | _INDEX.map("{}:1".format)))
    sep = draw(_SEP)
    line = draw(st.sampled_from(["", " "])) + sep.join([label, *feats])
    return line + draw(st.sampled_from(["", " ", " # note", "#x:y"]))


@st.composite
def _svm_text(draw):
    """The bytes of a whole file: clean or with faults anywhere, CRLF or
    LF endings, maybe no final newline, maybe a byte that is not UTF-8."""
    clean = draw(st.booleans())
    lines = draw(st.lists(_svm_line(clean), max_size=8))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(line + ending for line in lines).encode()
    if text and draw(st.booleans()):
        text = text[:-len(ending)]
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xe9",
                                                 b"\xc3"])) + text[at:]
    return text


class TestSvmlightMatchesReference:
    """The streamed reader and the row-wise writer against the per-token
    loops of ``reference_svmlight``.  The one intended difference, a
    feature index beyond int64, has its own test above."""

    @settings(deadline=None, max_examples=400)
    @given(_svm_text(), st.booleans())
    @example(b"1 1:1\n2 7 1:2:3 0:1\nnan 2:inf\n", False)
    @example(b"1 2:1 2:nan\n1 0:1 1:x\n", False)
    @example(b"3 1:0 2:-0.0\n4\r\n-1 5:2 # c\n", True)
    @example(b"1 1:1\n\xff 1:x\n", False)
    def test_load_matches_reference(self, tmp_path_factory, text, binarize):
        # the twin an earlier example left is removed, so every example
        # is parsed; a valid text's parse writes a twin, and a load from
        # it shows the same
        path = tmp_path_factory.getbasetemp() / "parity.svm"
        path.write_bytes(text)
        _twin(path).unlink(missing_ok=True)
        want = _outcome(reference_load, path, binarize)
        assert _outcome(load_svmlight, path, binarize) == want
        assert _twin(path).exists() == (want[0][0] == "loaded")
        with mock.patch.object(ascd.data, "_parse_svmlight",
                               wraps=ascd.data._parse_svmlight) as parse:
            assert _outcome(load_svmlight, path, binarize) == want
        assert parse.called == (want[0][0] == "error")

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 30), st.integers(2, 30), st.integers(0, 2 ** 32),
           st.sampled_from([np.float64, np.float32, np.int64]))
    def test_save_matches_reference_bytes(self, tmp_path_factory, rows,
                                          cols, seed, dtype):
        m, b = generate_synthetic(SynthConfig(n_rows=rows, n_cols=cols,
                                              seed=seed))
        b = (b * 100).astype(dtype)
        base = tmp_path_factory.getbasetemp()
        save_svmlight(m, b, base / "new.svm")
        reference_save(m, b, base / "reference.svm")
        assert ((base / "new.svm").read_bytes()
                == (base / "reference.svm").read_bytes())

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 30), st.integers(2, 80), st.integers(0, 2 ** 32),
           st.sampled_from([1, 2, 3, 7, 64]))
    def test_save_blocks_match_reference_bytes(self, tmp_path_factory,
                                               rows, cols, seed, chunk):
        # sparse enough for empty rows; small blocks split the file at
        # every kind of row, and a row longer than a block is its own
        m, b = generate_synthetic(SynthConfig(n_rows=rows, n_cols=cols,
                                              seed=seed,
                                              sparsity_factor=1.0))
        base = tmp_path_factory.getbasetemp()
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", chunk):
            save_svmlight(m, b, base / "blocks.svm")
        reference_save(m, b, base / "reference.svm")
        assert ((base / "blocks.svm").read_bytes()
                == (base / "reference.svm").read_bytes())

    @pytest.mark.parametrize("n_rows", [1, 255, 256, 257, 65535, 65536,
                                        65537])
    def test_narrow_sort_keeps_the_int64_order(self, tmp_path, n_rows):
        # row ids one below, at and above the 8- and 16-bit limits, with
        # rows every column shares, so the sort's stability shows; more
        # rows than a block holds split the file
        rng = np.random.default_rng(n_rows)
        columns = []
        for _ in range(8):
            rows = np.unique(np.concatenate(
                [[0, n_rows - 1], rng.integers(n_rows, size=4)]))
            columns.append((rows, rng.uniform(-2.0, 2.0, rows.size)))
        m = ColumnSparseMatrix.from_columns(n_rows, columns)
        b = rng.standard_normal(n_rows)
        save_svmlight(m, b, tmp_path / "new.svm")
        reference_save(m, b, tmp_path / "reference.svm")
        assert ((tmp_path / "new.svm").read_bytes()
                == (tmp_path / "reference.svm").read_bytes())

    @pytest.mark.parametrize("chunk", [1 << 14, 4])
    def test_save_edge_values_match_reference_bytes(self, tmp_path, chunk):
        # the shortest and longest reprs, exponent forms, column ids on
        # both sides of a digit change, an empty row and, under 4-entry
        # blocks, a row longer than a block (a stored value is never
        # zero, so -0.0 is a label only)
        edge = [5e-324, 1e-05, 0.1, 1e16, 1.7976931348623157e308,
                -1.7976931348623157e308]
        ids = [8, 9, 98, 99, 998, 999]
        dense = np.zeros((7, 1000))
        dense[0, ids] = edge
        dense[2, ids] = edge[::-1]
        dense[3:, [0, 999]] = [-0.5, 2.0]
        labels = np.array([-0.0, *edge])
        m = ColumnSparseMatrix.from_dense(dense)
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", chunk):
            save_svmlight(m, labels, tmp_path / "new.svm")
        reference_save(m, labels, tmp_path / "reference.svm")
        text = (tmp_path / "new.svm").read_bytes()
        assert text == (tmp_path / "reference.svm").read_bytes()
        assert text.splitlines()[:2] == [
            b"-0.0 9:5e-324 10:1e-05 99:0.1 100:1e+16 "
            b"999:1.7976931348623157e+308 1000:-1.7976931348623157e+308",
            b"5e-324"]
        with pytest.warns(UserWarning, match="dropping 993 empty column"):
            loaded = load_svmlight(tmp_path / "new.svm")[1]
        assert loaded.tobytes() == labels.tobytes()     # -0.0 kept


def _parsed(path, binarize=False):
    """A load's outcome (as ``_outcome``) and whether it parsed the
    text."""
    with mock.patch.object(ascd.data, "_parse_svmlight",
                           wraps=ascd.data._parse_svmlight) as parse:
        shown = _outcome(load_svmlight, path, binarize)
    return shown, parse.called


def _rewrite_twin(path, **changes):
    """Write the twin of ``path`` again with some arrays replaced."""
    with np.load(_twin(path)) as npz:
        arrays = {**npz, **changes}
    with open(_twin(path), "wb") as fh:
        np.savez(fh, **arrays)


_DENSE_VALUE = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, 1e308]) | \
    st.floats(allow_nan=False, allow_infinity=False)


class TestTwin:
    """The binary twin ``<file>.ascd-twin.npz``: a load from it shows
    what the parse of its text shows, and any twin that is not of this
    text and this version is passed over for the parse."""

    @pytest.mark.parametrize("binarize", [False, True])
    @pytest.mark.parametrize("cols", [1000, 5000])
    def test_twin_equals_parse(self, tmp_path, cols, binarize):
        m, b = generate_synthetic(SynthConfig(n_rows=1000, n_cols=cols,
                                              seed=cols))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
        shown, parsed = _parsed(path, binarize)
        assert not parsed
        _twin(path).unlink()
        assert _parsed(path, binarize) == (shown, True)
        assert _outcome(reference_load, path, binarize) == shown

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 6).flatmap(lambda d: st.tuples(
        arrays(np.float64, st.tuples(st.just(d), st.integers(1, 6)),
               elements=_DENSE_VALUE),
        arrays(np.float64, d, elements=_DENSE_VALUE))))
    def test_save_writes_the_parse_result(self, tmp_path_factory, data):
        # a twin only when the text loads back as the matrix itself: some
        # entry stored and no column empty
        dense, target = data
        m = ColumnSparseMatrix.from_dense(dense)
        path = tmp_path_factory.getbasetemp() / "saved.svm"
        _twin(path).unlink(missing_ok=True)
        save_svmlight(m, target, path)
        has_twin = m.nnz > 0 and bool(np.all(np.diff(m.indptr) > 0))
        assert _twin(path).exists() == has_twin
        if not has_twin:
            return
        for binarize in (False, True):
            shown, parsed = _parsed(path, binarize)
            assert not parsed
            assert shown == _outcome(reference_load, path, binarize)
        assert shown[0][2:] == tuple(
            (a.dtype.str, a.tobytes())
            for a in (m.indptr, m.rows, np.ones(m.nnz), target))

    def test_edited_text_passes_over_the_stale_twin(self, tmp_path):
        # one digit of the first label changes: same size, same mtime
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=2))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
        text = path.read_bytes()
        at = text.index(b" ") - 1
        digit = b"8" if text[at:at + 1] == b"9" else b"9"
        times = path.stat()
        path.write_bytes(text[:at] + digit + text[at + 1:])
        os.utime(path, ns=(times.st_atime_ns, times.st_mtime_ns))
        assert path.stat().st_size == times.st_size
        shown, parsed = _parsed(path)
        assert parsed
        assert shown == _outcome(reference_load, path, False)
        assert shown[0][-1] != (b.dtype.str, b.tobytes())
        # the twin was written again, for the edited text
        assert _parsed(path) == (shown, False)

    @pytest.mark.parametrize("fault", ["truncated", "version", "dtype",
                                       "empty", "directory", "temp-file"])
    def test_faulty_twin_falls_back_to_the_parse(self, tmp_path, fault):
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=3))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
        twin = _twin(path)
        if fault == "truncated":
            twin.write_bytes(twin.read_bytes()[:-100])
        elif fault == "version":
            _rewrite_twin(path, version=ascd.data.TWIN_VERSION + 1)
        elif fault == "dtype":
            _rewrite_twin(path, rows=m.rows.astype(np.int32))
        elif fault == "empty":
            twin.write_bytes(b"")
        elif fault == "directory":
            # the twin can be neither read nor written
            twin.unlink()
            twin.mkdir()
        else:
            # what a load cut short while writing its twin leaves
            twin.rename(tmp_path / (twin.name + ".x1y2z3.tmp"))
        before = sorted(os.listdir(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shown, parsed = _parsed(path)
        assert parsed
        assert shown == _outcome(reference_load, path, False)
        # a usable twin is back, and no temporary file is left
        assert sorted(os.listdir(tmp_path)) == sorted(
            set(before) | {twin.name})
        assert _parsed(path) == (shown, fault == "directory")

    @pytest.mark.parametrize("foreign", ["text", "npz", "short"])
    def test_foreign_file_at_the_twin_name_survives(self, tmp_path,
                                                    foreign):
        # a user's own file that happens to have the twin's name is never
        # replaced, by a save or by a load; every load then parses
        m, b = generate_synthetic(SynthConfig(n_rows=20, n_cols=15, seed=6))
        path = tmp_path / "gen.svm"
        twin = _twin(path)
        if foreign == "text":
            twin.write_bytes(b"1 1:1\n")
        elif foreign == "npz":
            np.savez(twin, vals=m.vals)
        else:
            twin.write_bytes(b"PK\x03\x04")
        kept = twin.read_bytes()
        save_svmlight(m, b, path)
        want = _outcome(reference_load, path, False)
        for _ in range(2):
            assert _parsed(path) == (want, True)
        assert twin.read_bytes() == kept
        assert sorted(os.listdir(tmp_path)) == ["gen.svm", twin.name]

    def test_twin_as_readable_as_its_text(self, tmp_path):
        # not mkstemp's owner-only mode: whoever reads the text reads the
        # twin
        m, b = generate_synthetic(SynthConfig(n_rows=20, n_cols=15, seed=7))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
        assert (stat.S_IMODE(_twin(path).stat().st_mode)
                == stat.S_IMODE(path.stat().st_mode) & 0o666)
        for mode in (0o644, 0o640, 0o604):
            path.chmod(mode)
            _twin(path).unlink()
            load_svmlight(path)
            assert stat.S_IMODE(_twin(path).stat().st_mode) == mode

    def test_text_changed_during_the_parse_gets_no_twin(self, tmp_path):
        # the key was taken before the parse, so it may not be the parsed
        # text's: a load that sees the text change writes no twin
        path = tmp_path / "gen.svm"
        path.write_text("1 1:1\n")
        real = ascd.data._parse_svmlight

        def parse_while_appending(fh, where):
            with open(path, "a") as out:
                out.write("2 2:1\n")
            return real(fh, where)

        with mock.patch.object(ascd.data, "_parse_svmlight",
                               parse_while_appending):
            load_svmlight(path)
        assert not _twin(path).exists()
        # the next load parses the text as it stands and writes its twin
        assert _parsed(path)[1]
        assert not _parsed(path)[1]

    def test_parse_fingerprint(self):
        # a twin holds a parse's result: a change to the parse that does
        # not bump TWIN_VERSION leaves old twins returning the old result.
        # When this fails, bump TWIN_VERSION if the parse now returns or
        # accepts anything differently, then record the new fingerprint.
        source = "".join(inspect.getsource(f) for f in (
            ascd.data._parse_svmlight, ascd.data._parse_line))
        fingerprint = hashlib.sha256(
            f"{source}{ascd.data.INDEX_MAX}".encode()).hexdigest()[:16]
        assert (ascd.data.TWIN_VERSION, fingerprint) == (1, "227a6dc79a024c5b")

    def test_read_only_directory(self, tmp_path, monkeypatch):
        m, b = generate_synthetic(SynthConfig(n_rows=30, n_cols=20, seed=4))
        path = tmp_path / "data" / "gen.svm"
        path.parent.mkdir()
        save_svmlight(m, b, path)
        _twin(path).unlink()
        want = _outcome(reference_load, path, False)
        path.parent.chmod(0o555)
        try:
            if os.access(path.parent, os.W_OK):
                # a superuser writes through the mode: refuse the file the
                # way the system refuses everyone else
                def refuse(*args, **kwargs):
                    raise PermissionError(13, "Permission denied")
                monkeypatch.setattr(ascd.data.tempfile, "mkstemp", refuse)
            assert _parsed(path) == (want, True)
            assert os.listdir(path.parent) == ["gen.svm"]
        finally:
            path.parent.chmod(0o755)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_gets_no_twin(self, tmp_path):
        # a stream cannot be hashed again later: only regular files
        # have twins
        path = tmp_path / "pipe.svm"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text,
                                  args=("1 1:2 2:3\n-1 2:1\n",),
                                  daemon=True)
        writer.start()
        try:
            matrix, target = load_svmlight(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_allclose(matrix.to_dense(), [[2.0, 3.0], [0.0, 1.0]])
        assert os.listdir(tmp_path) == ["pipe.svm"]

    def test_empty_column_warning_replayed(self, tmp_path):
        path = tmp_path / "gap.svm"
        path.write_text("1 1:1 4:1\n2 4:2\n")
        parsed = _parsed(path)
        assert parsed[1]
        assert parsed[0][1] == [(UserWarning,
                                 f"{path}: dropping 2 empty column(s)")]
        assert _parsed(path) == (parsed[0], False)
        # the twin's warning names the caller's line, as the parse's does
        _twin(path).unlink()
        places = []
        for _ in range(2):  # the parse, then the twin
            with pytest.warns(UserWarning) as caught:
                load_svmlight(path)
            places.append((caught[0].filename, caught[0].lineno))
        assert places[0] == places[1] and places[0][0] == __file__

    @pytest.mark.parametrize("text", [
        b"1 1:1\n2 7:x\n", b"", b"1 1:0\n2\n", b"1 1:1\n2 2:1 # caf\xe9\n",
        b"1 1:1\n2 0:1\n", b"1 2:1 2:3\n"],
        ids=["bad-feature", "empty", "no-nonzero", "not-utf8", "zero-index",
             "duplicate"])
    def test_invalid_text_gets_no_twin(self, tmp_path, text):
        # rejected alone, and beside the twin of an earlier valid version
        path = tmp_path / "bad.svm"
        path.write_bytes(text)
        want = _outcome(reference_load, path, False)
        assert want[0][0] == "error"
        assert _parsed(path) == (want, True)
        assert not _twin(path).exists()
        path.write_text("3 1:2 2:5\n")
        load_svmlight(path)
        assert _twin(path).exists()
        path.write_bytes(text)
        assert _parsed(path) == (want, True)

    def test_missing_text_raises_as_before(self, tmp_path):
        m, b = generate_synthetic(SynthConfig(n_rows=30, n_cols=20, seed=4))
        path = tmp_path / "gone.svm"
        save_svmlight(m, b, path)
        path.unlink()
        with pytest.raises(OSError) as want:
            reference_load(path)
        with pytest.raises(OSError) as got:
            load_svmlight(path)
        assert (type(got.value), str(got.value)) == (type(want.value),
                                                     str(want.value))


class TestTakeColumns:
    def test_subset_and_determinism(self):
        m, _ = generate_synthetic(SynthConfig(n_rows=20, n_cols=30, seed=1))
        sub1 = take_columns(m, 7, seed=4)
        sub2 = take_columns(m, 7, seed=4)
        assert sub1.shape == (20, 7)
        assert np.array_equal(sub1.vals, sub2.vals)

    def test_columns_copied_verbatim(self):
        m, _ = generate_synthetic(SynthConfig(n_rows=20, n_cols=30, seed=2))
        rng = np.random.default_rng(8)
        chosen = np.sort(rng.choice(30, size=5, replace=False))
        sub = take_columns(m, 5, seed=8)
        for k, j in enumerate(chosen):
            rows_a, vals_a = sub.col(k)
            rows_b, vals_b = m.col(int(j))
            assert np.array_equal(rows_a, rows_b)
            assert np.array_equal(vals_a, vals_b)

    def test_bad_k(self):
        m, _ = generate_synthetic(SynthConfig(n_rows=10, n_cols=5, seed=0))
        with pytest.raises(ValueError):
            take_columns(m, 0)
        with pytest.raises(ValueError):
            take_columns(m, 6)


def _int_and_float_columns(size):
    return st.tuples(arrays(np.int64, size), arrays(np.float64, size))


class TestWriteCsv:
    @settings(deadline=None)
    @given(st.integers(0, 20).flatmap(_int_and_float_columns))
    def test_round_trip(self, tmp_path_factory, columns):
        ints, floats = columns
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        write_csv(path, "k,x", (ints, floats))
        lines = path.read_text().splitlines()
        assert lines[0] == "k,x" and len(lines) == ints.size + 1
        fields = [line.split(",") for line in lines[1:]]
        back_int = np.array([int(k) for k, _ in fields], dtype=np.int64)
        back_float = np.array([float(x) if x else np.nan for _, x in fields])
        assert np.array_equal(back_int, ints)
        nan = np.isnan(floats)
        assert np.array_equal(np.isnan(back_float), nan)
        # bit-exact, so the sign of zero survives too
        assert np.array_equal(back_float[~nan].view(np.int64),
                              floats[~nan].view(np.int64))

    def test_nan_is_empty_field(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_csv(path, "t,x", (np.arange(2), np.array([np.nan, 0.5])))
        assert path.read_text() == "t,x\n0,\n1,0.5\n"

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", "a,b", (np.arange(3),
                                                    np.zeros(2)))

    @pytest.mark.parametrize("bad", [np.zeros((3, 2)), np.float64(1.0)])
    def test_column_not_1d_rejected_before_opening(self, tmp_path, bad):
        # a 2-D column used to die mid-file, after the header
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="1-D"):
            write_csv(path, "a,b", (np.arange(3), bad))
        assert not path.exists()

    def test_no_columns_writes_header_only(self, tmp_path):
        # a sweep whose every cell failed
        path = tmp_path / "empty.csv"
        write_csv(path, "a,b", ())
        assert path.read_text() == "a,b\n"

    # 5 columns: a block of chunk // 5 rows, at least 1
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 23, 64])
    def test_blocks_match_one_pass(self, tmp_path, chunk):
        # a float column with some NaNs, one with none (its edge values
        # included) and one that is all NaN: each block of each takes its
        # own path of the writer
        rng = np.random.default_rng(chunk)
        floats = rng.standard_normal(11)
        floats[::4] = np.nan
        dense = rng.standard_normal(11)
        dense[:5] = [-0.0, np.inf, -np.inf, 5e-324, 0.0]
        columns = (np.arange(11), floats, np.array(list("abcdefghijk")),
                   dense, np.full(11, np.nan))
        path = tmp_path / "blocks.csv"
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", chunk):
            write_csv(path, "k,x,s,y,z", columns)
        expected = "".join(
            f"{k},{'' if math.isnan(x) else repr(x)},{c},{y!r},\n"
            for k, x, c, y, _ in zip(*(col.tolist() for col in columns)))
        text = path.read_text()
        assert text == "k,x,s,y,z\n" + expected
        assert [line.split(",")[3] for line in text.splitlines()[1:6]] == [
            "-0.0", "inf", "-inf", "5e-324", "0.0"]

    def test_peak_memory_fixed_however_long_the_trace(self, tmp_path):
        # a trace-shaped table: int ids, dense floats, mostly-NaN
        # diagnostics; formatting every field at once peaked at 42.7 MB
        steps = 100_000
        rng = np.random.default_rng(0)
        sparse = np.full(steps, np.nan)
        sparse[::1000] = rng.standard_normal(steps // 1000)
        columns = ([np.arange(steps), rng.integers(0, 1000, steps)]
                   + [rng.standard_normal(steps) for _ in range(3)]
                   + [rng.integers(0, 1000, steps)]
                   + [sparse.copy() for _ in range(3)]
                   + [rng.integers(0, 10 ** 6, steps)])
        tracemalloc.start()
        try:
            write_csv(tmp_path / "trace.csv", ",".join("abcdefghij"),
                      columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
