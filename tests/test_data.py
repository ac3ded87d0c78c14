import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from ascd.data import (SynthConfig, _draw_column, generate_synthetic,
                       load_svmlight, save_svmlight, take_columns, write_csv)
from ascd.problem import CompositeProblem


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
        # the unit shift makes each raw column average out to its scale
        rng = np.random.default_rng(5)
        d = 4000
        for _ in range(20):
            state = rng.bit_generator.state
            col = _draw_column(rng, d, 10.0)
            rng.bit_generator.state = state
            raw = rng.standard_normal(d) + 1.0
            scale = 10.0 * rng.standard_normal()
            assert_allclose(col, raw * scale)
            assert abs(np.mean(col / scale) - 1.0) <= 3.0 / math.sqrt(d)

    def test_target_shape_and_variation(self):
        m, b = generate_synthetic(SynthConfig(n_rows=50, n_cols=40, seed=7))
        assert b.shape == (50,)
        assert np.std(b) > 0


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
