import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ascd.oracles
from ascd.oracles import (_SALT_G2, _SALT_G4, OracleContext, OracleSpec,
                          oracle_row)
from ascd.problem import ColumnSparseMatrix
from reference_oracle import (_pair_uniform, col_dots_row, exact_change,
                              int64_row_major, jl_simulated_product,
                              oracle_estimate)


def make_matrix(seed=0, d=15, n=10, density=0.6):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((d, n))
    dense[rng.random((d, n)) > density] = 0.0
    dense[0, :] = rng.standard_normal(n) + 2.0  # keep columns non-empty
    return ColumnSparseMatrix.from_dense(dense)


def _nonzero(width=10.0):
    return st.floats(-width, width).filter(bool)


@st.composite
def sparse_matrices(draw):
    """Random sparse matrices with an empty row, a one-entry column and a
    column that shares no row with it."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(0, 8))
    dense = draw(arrays(np.float64, (d, n),
                        elements=st.one_of(st.just(0.0), _nonzero())))
    r = draw(st.integers(0, d - 1))
    single = np.zeros(d)
    single[r] = draw(_nonzero())
    apart = draw(arrays(np.float64, d, elements=_nonzero()))
    apart[r] = 0.0
    dense = np.column_stack([dense, single, apart])
    dense = np.insert(dense, draw(st.integers(0, d)), 0.0, axis=0)
    return ColumnSparseMatrix.from_dense(dense)


class TestExactChange:
    def test_orthogonal(self):
        m = ColumnSparseMatrix.from_dense(np.eye(3))
        assert exact_change(m, 0, 1) == 0.0

    def test_dense_pair(self):
        m = ColumnSparseMatrix.from_dense(
            np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert exact_change(m, 0, 1) == pytest.approx(1.0)

    def test_self_is_norm_sq(self):
        m = ColumnSparseMatrix.from_dense(np.array([[3.0], [4.0]]))
        assert exact_change(m, 0, 0) == pytest.approx(25.0)

    def test_matches_dense(self):
        m = make_matrix(1)
        dense = m.to_dense()
        for i in range(m.n_cols):
            for j in range(m.n_cols):
                assert exact_change(m, i, j) == pytest.approx(
                    dense[:, i] @ dense[:, j], abs=1e-12)


class TestOracleEstimate:
    def test_g3_value(self):
        m = ColumnSparseMatrix.from_dense(np.diag([3.0, 4.0]))
        norms = np.sqrt(m.col_norms_sq())
        out = oracle_estimate(OracleSpec("g3"), m, norms, 0, 1)
        assert out.estimate == 0.0
        assert out.error == pytest.approx(12.0)

    def test_g2_zero_eps_is_exact(self):
        m = make_matrix(2)
        norms = np.sqrt(m.col_norms_sq())
        for i, j in [(0, 1), (2, 5), (7, 3)]:
            out = oracle_estimate(OracleSpec("g2", epsilon=0.0), m, norms, i, j)
            assert out.estimate == pytest.approx(exact_change(m, i, j))
            assert out.error == 0.0

    def test_g2_error_field(self):
        m = make_matrix(3)
        norms = np.sqrt(m.col_norms_sq())
        eps = 0.37
        out = oracle_estimate(OracleSpec("g2", epsilon=eps, seed=5),
                              m, norms, 1, 4)
        assert out.error == pytest.approx(eps * norms[1] * norms[4])

    def test_g4_interval_and_determinism(self):
        m = make_matrix(4, d=20, n=40)
        norms = np.sqrt(m.col_norms_sq())
        spec = OracleSpec("g4", seed=11)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            i, j = rng.integers(40, size=2)
            out = oracle_estimate(spec, m, norms, int(i), int(j))
            assert abs(out.estimate) <= norms[i] * norms[j] + 1e-15
            again = oracle_estimate(spec, m, norms, int(i), int(j))
            assert out.estimate == again.estimate and out.error == again.error

    def test_g4_symmetry_and_seed_sensitivity(self):
        m = make_matrix(5)
        norms = np.sqrt(m.col_norms_sq())
        a = oracle_estimate(OracleSpec("g4", seed=1), m, norms, 2, 7)
        b = oracle_estimate(OracleSpec("g4", seed=1), m, norms, 7, 2)
        c = oracle_estimate(OracleSpec("g4", seed=2), m, norms, 2, 7)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown oracle kind"):
            OracleSpec("g9")

    def test_soundness_all_kinds(self):
        # |exact - estimate| <= error on every pair, every kind
        m = make_matrix(6)
        norms = np.sqrt(m.col_norms_sq())
        specs = [OracleSpec("g1"), OracleSpec("g2", epsilon=0.5, seed=3),
                 OracleSpec("g3"), OracleSpec("g4", seed=3)]
        for spec in specs:
            for i in range(m.n_cols):
                for j in range(m.n_cols):
                    if i == j:
                        continue
                    out = oracle_estimate(spec, m, norms, i, j)
                    err = abs(exact_change(m, i, j) - out.estimate)
                    assert err <= out.error + 1e-12, (spec.kind, i, j)


class TestSimulatedProduct:
    def test_eps_zero_exact(self):
        m = make_matrix(7)
        assert jl_simulated_product(m, 1, 3, 0.0) == pytest.approx(
            exact_change(m, 1, 3))

    def test_error_bound_and_clamp(self):
        m = make_matrix(8)
        norms = np.sqrt(m.col_norms_sq())
        for eps in (0.1, 0.5, 1.0, 3.0):
            for i, j in [(0, 1), (4, 2), (9, 9), (5, 6)]:
                s = jl_simulated_product(m, i, j, eps, seed=2)
                cap = norms[i] * norms[j]
                assert abs(s - exact_change(m, i, j)) <= eps * cap + 1e-12
                assert abs(s) <= cap + 1e-12

    def test_symmetric_function(self):
        m = make_matrix(9)
        for i, j in [(0, 5), (3, 8), (2, 2)]:
            assert jl_simulated_product(m, i, j, 0.4, seed=6) == \
                jl_simulated_product(m, j, i, 0.4, seed=6)


class TestOracleRow:
    # fixed ids keep these cases' names stable across test reports
    @pytest.mark.parametrize("kind,eps", [
        ("g1", 0.0), ("g2", 0.5), ("g3", 0.0), ("g4", 0.0)],
        ids=["g1-0.0-0.0", "g2-0.5-0.0", "g3-0.0-0.0", "g4-0.0-0.0"])
    def test_matches_scalar_op(self, kind, eps):
        m = make_matrix(10)
        spec = OracleSpec(kind, epsilon=eps, seed=4)
        ctx = OracleContext(spec, m)
        norms = np.sqrt(m.col_norms_sq())
        for i in (0, 3, 9):
            est, err = oracle_row(ctx, i)
            # the exact kind returns no error row, and the zero estimate
            # no estimate row
            assert (err is None) == (kind == "g1")
            assert (est is None) == (kind == "g3")
            for j in range(m.n_cols):
                out = oracle_estimate(spec, m, norms, i, j)
                assert (0.0 if est is None else est[j]) == pytest.approx(
                    out.estimate, abs=1e-10)
                assert (0.0 if err is None else err[j]) == pytest.approx(
                    out.error, abs=1e-12)

    @pytest.mark.parametrize("kind", ["g1", "g2"])
    def test_kept_rows_are_the_gathered_rows(self, monkeypatch, kind):
        # below the limit a fetched row is kept and handed out again,
        # read-only; at limit 0 nothing is kept.  Both carry the gather's
        # bits, which are col_dots', sign bits included
        m = make_matrix(11)
        spec = OracleSpec(kind, epsilon=0.3, seed=9)
        kept = OracleContext(spec, m)
        monkeypatch.setattr(ascd.oracles, "GRAM_LIMIT", 0)
        fresh = OracleContext(spec, m)
        fetched = [3, 0, 3, 7, 0, 9, 3]
        for i in fetched:
            row = kept._dot_row(i)
            assert row.tobytes() == fresh._dot_row(i).tobytes()
            assert row.tobytes() == col_dots_row(m, i).tobytes()
            assert kept._dot_row(i) is row
            assert not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
            assert fresh._dot_row(i) is not fresh._dot_row(i)
            a, da = oracle_row(kept, i)
            b, db = oracle_row(fresh, i)
            assert a.tobytes() == b.tobytes()
            assert (da is None) == (db is None) == (kind == "g1")
            if kind == "g2":
                assert da.tobytes() == db.tobytes()
        assert set(kept._kept) == set(fetched)
        assert all(not r.flags.writeable for r in kept._kept.values())
        assert fresh._kept is None

    @pytest.mark.parametrize("limit", [ascd.oracles.GRAM_LIMIT, 0])
    @settings(deadline=None)
    @given(sparse_matrices(), st.floats(0.0, 2.0), st.integers(0, 2 ** 32))
    def test_row_major_rows_match_col_dots(self, limit, m, eps, seed):
        # the row-major gather adds the same products in the same order
        # as col_dots, so the rows agree bit for bit, kept or not
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(ascd.oracles, "GRAM_LIMIT", limit)
            g1 = OracleContext(OracleSpec("g1"), m)
            g2 = OracleContext(OracleSpec("g2", epsilon=eps, seed=seed), m)
        assert (g1._kept is None) == (g2._kept is None) == (limit == 0)
        n = m.n_cols
        for i in range(n):
            ref = col_dots_row(m, i)
            est, err = oracle_row(g1, i)
            assert np.array_equal(est, ref)
            assert np.array_equal(np.signbit(est), np.signbit(ref))
            assert err is None
            bounds = g2.norms[i] * g2.norms
            u = _pair_uniform(seed, _SALT_G2, i, np.arange(n), n)
            est, err = oracle_row(g2, i)
            assert np.array_equal(
                est, np.clip(ref + eps * bounds * u, -bounds, bounds))
            assert np.array_equal(err, eps * bounds)

    @pytest.mark.parametrize("keep", [False, True],
                             ids=["limit-0", "limit-n"])
    def test_gather_edge_cases_bit_for_bit(self, monkeypatch, keep):
        # a column meeting one data row (a one-buffer join), one meeting
        # every data row, one meeting none, and data rows with no entries,
        # the first, an inner and the last: every exact row has col_dots'
        # bits, fetched once or twice, kept or not
        d = 9
        empty = [0, 4, d - 1]
        full = np.setdiff1d(np.arange(d), empty)
        rng = np.random.default_rng(3)
        columns = [(np.array([5]), np.array([-2.5])),
                   (full, rng.uniform(-2.0, 2.0, full.size)),
                   (np.array([], dtype=np.int64), np.array([])),
                   (np.array([1]), np.array([0.75]))]
        for _ in range(4):
            rows = np.sort(rng.choice(full, 3, replace=False))
            columns.append((rows, rng.uniform(-2.0, 2.0, 3)))
        m = ColumnSparseMatrix.from_columns(d, columns)
        wide = ColumnSparseMatrix.from_columns(3, [
            (np.arange(3), np.array([1.5, -0.5, 2.0])),
            (np.array([0]), np.array([3.0])),
            (np.array([2]), np.array([-1.25]))])
        for matrix in (m, wide):
            limit = matrix.n_cols if keep else 0
            monkeypatch.setattr(ascd.oracles, "GRAM_LIMIT", limit)
            g1 = OracleContext(OracleSpec("g1"), matrix)
            g2 = OracleContext(OracleSpec("g2", epsilon=0.0), matrix)
            assert (g1._kept is None) == (g2._kept is None) == (not keep)
            for r in range(matrix.n_rows):
                # one bytes object each for a row's ids and values
                width = np.count_nonzero(matrix.rows == r)
                assert type(g1._row_ids[r]) is bytes
                assert type(g1._row_values[r]) is bytes
                assert len(g1._row_ids[r]) == 4 * width
                assert len(g1._row_values[r]) == 8 * width
            for i in list(range(matrix.n_cols)) * 2:
                ref = col_dots_row(matrix, i).tobytes()
                assert oracle_row(g1, i)[0].tobytes() == ref
                assert g2._dot_row(i).tobytes() == ref

    def test_exact_rows_stay_below_a_dense_copy(self):
        # the context and ten exact rows of a 5000 x 500 matrix with 50
        # entries per column trace below a quarter of a dense A
        rng = np.random.default_rng(5)
        d, n = 5000, 500
        m = ColumnSparseMatrix.from_columns(d, [
            (np.sort(rng.choice(d, 50, replace=False)),
             rng.uniform(1.0, 2.0, 50)) for _ in range(n)])
        tracemalloc.start()
        try:
            ctx = OracleContext(OracleSpec("g1"), m)
            for i in range(10):
                oracle_row(ctx, i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * n * 8 / 4

    @settings(deadline=None, max_examples=100)
    @given(sparse_matrices(), st.sampled_from(["g2", "g4"]),
           st.one_of(st.integers(0, 2 ** 32),
                     st.sampled_from([2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
                                      2 ** 70 + 3])),
           st.floats(0.0, 2.0), st.data())
    def test_pair_rows_match_the_reference_draws(self, m, kind, seed, eps,
                                                 data):
        # the in-place hash gives the reference draw's bits on the first,
        # the last and a random row, with the seed masked to 64 bits, and
        # hands out fresh rows; g2's exact part is the row-major gather,
        # which has col_dots' bits
        n = m.n_cols
        spec = OracleSpec(kind, epsilon=eps, seed=seed)
        salt = _SALT_G2 if kind == "g2" else _SALT_G4
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(ascd.oracles, "GRAM_LIMIT", 0)
            ctx = OracleContext(spec, m)
        scratch = [ctx._key, ctx._tmp]
        last = []
        for i in (0, n - 1, data.draw(st.integers(0, n - 1))):
            est, err = oracle_row(ctx, i)
            bounds = ctx.norms[i] * ctx.norms
            u = _pair_uniform(seed, salt, i, np.arange(n), n)
            if kind == "g4":
                want = bounds * u, 2.0 * bounds
            else:
                want = (np.clip(col_dots_row(m, i) + eps * bounds * u,
                                -bounds, bounds), eps * bounds)
            assert est.tobytes() == want[0].tobytes()
            assert err.tobytes() == want[1].tobytes()
            for a, b in combinations([est, err] + last, 2):
                assert not np.shares_memory(a, b)
            for a in (est, err):
                assert not any(np.shares_memory(a, buf) for buf in scratch)
            last = [est, err]

    @pytest.mark.parametrize("n_rows", [1, 2, 255, 256, 257, 65535, 65536,
                                        65537])
    def test_narrow_sort_keeps_the_int64_order(self, monkeypatch, n_rows):
        # row ids one below, at and above the 8- and 16-bit limits, with
        # rows every column shares, so the sort's stability shows
        rng = np.random.default_rng(n_rows)
        columns = []
        for _ in range(6):
            rows = np.unique(np.concatenate(
                [[0, n_rows - 1], rng.integers(n_rows, size=3)]))
            columns.append((rows, rng.uniform(1.0, 2.0, rows.size)))
        m = ColumnSparseMatrix.from_columns(n_rows, columns)
        monkeypatch.setattr(ascd.oracles, "GRAM_LIMIT", 0)
        ctx = OracleContext(OracleSpec("g1"), m)
        ptr, cols, vals = int64_row_major(m)
        assert np.array_equal(np.diff(ptr), ctx._row_counts)
        # each row holds the bytes of its slice of the int32 ids and the
        # float64 values
        for r, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
            assert ctx._row_ids[r] == cols[lo:hi].tobytes()
            assert ctx._row_values[r] == vals[lo:hi].tobytes()

    def test_row_deterministic(self):
        m = make_matrix(12)
        ctx = OracleContext(OracleSpec("g4", seed=8), m)
        a, da = oracle_row(ctx, 2)
        b, db = oracle_row(ctx, 2)
        assert np.array_equal(a, b) and np.array_equal(da, db)
