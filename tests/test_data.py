import math
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
        m, b = generate_synthetic(SynthConfig(n_rows=25, n_cols=18, seed=9))
        path = tmp_path / "gen.svm"
        save_svmlight(m, b, path)
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
        tracemalloc.start()
        try:
            load_svmlight(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size

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
        path = tmp_path_factory.getbasetemp() / "parity.svm"
        path.write_bytes(text)
        assert (_outcome(load_svmlight, path, binarize)
                == _outcome(reference_load, path, binarize))

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

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_blocks_match_one_pass(self, tmp_path, chunk):
        rng = np.random.default_rng(chunk)
        floats = rng.standard_normal(11)
        floats[::4] = np.nan
        columns = (np.arange(11), floats, np.array(list("abcdefghijk")))
        path = tmp_path / "blocks.csv"
        with mock.patch.object(ascd.data, "CHUNK_ENTRIES", chunk):
            write_csv(path, "k,x,s", columns)
        expected = "".join(
            f"{k},{'' if math.isnan(x) else repr(x)},{c}\n"
            for k, x, c in zip(*(col.tolist() for col in columns)))
        assert path.read_text() == "k,x,s\n" + expected

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
