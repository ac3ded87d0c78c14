import numpy as np
import pytest
from numpy.testing import assert_allclose

from ascd.problem import ColumnSparseMatrix, CompositeProblem, Regularizer


def identity_matrix(n):
    return ColumnSparseMatrix.from_columns(
        n, [(np.array([i]), np.array([1.0])) for i in range(n)])


def dense_problem(A, b, reg=None):
    return CompositeProblem(ColumnSparseMatrix.from_dense(A), b, reg)


class TestColumnSparseMatrix:
    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ColumnSparseMatrix.from_columns(
                3, [(np.array([2, 1]), np.array([1.0, 1.0]))])

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ColumnSparseMatrix.from_columns(
                3, [(np.array([1, 1]), np.array([1.0, 2.0]))])

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError, match="zero"):
            ColumnSparseMatrix.from_columns(
                2, [(np.array([0]), np.array([0.0]))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ColumnSparseMatrix.from_columns(
                2, [(np.array([0, 1]), np.array([1.0, bad]))])

    def test_rejects_row_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ColumnSparseMatrix.from_columns(
                2, [(np.array([2]), np.array([1.0]))])

    def test_col_index_out_of_range(self):
        m = identity_matrix(2)
        with pytest.raises(IndexError):
            m.col(2)

    @pytest.mark.parametrize("i", [-1, np.int64(2), np.int64(-1)])
    def test_col_negative_or_numpy_index_out_of_range(self, i):
        # a negative index would slice the Python bounds list from its end
        m = identity_matrix(2)
        with pytest.raises(IndexError):
            m.col(i)

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32])
    def test_col_matches_indptr_slices(self, kind):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((6, 9))
        dense[rng.random((6, 9)) < 0.6] = 0.0
        dense[:, 4] = 0.0  # an empty column among the others
        m = ColumnSparseMatrix.from_dense(dense)
        for j in range(m.n_cols):
            rows, vals = m.col(kind(j))
            lo, hi = m.indptr[j], m.indptr[j + 1]
            assert np.array_equal(rows, m.rows[lo:hi])
            assert np.array_equal(vals, m.vals[lo:hi])
            assert np.array_equal(rows, np.flatnonzero(dense[:, j]))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((7, 5))
        dense[rng.random((7, 5)) < 0.5] = 0.0
        dense[0, :] = 1.0  # no empty columns
        m = ColumnSparseMatrix.from_dense(dense)
        assert_allclose(m.to_dense(), dense)
        x = rng.standard_normal(5)
        r = rng.standard_normal(7)
        assert_allclose(m.matvec(x), dense @ x, atol=1e-12)
        assert_allclose(m.col_dots(r), dense.T @ r, atol=1e-12)
        assert_allclose(m.col_norms_sq(), (dense ** 2).sum(axis=0))


class TestPartialGradient:
    def test_identity(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2))
        st = prob.residual_state(np.array([1.0, 2.0]))
        assert prob.partial_gradient(st, 1) == 2.0

    def test_dense_oracle(self):
        # columns (1,0) and (1,1), x = (1,0): grad_2 = <a_2, a_1> = 1
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        prob = dense_problem(A, np.zeros(2))
        st = prob.residual_state(np.array([1.0, 0.0]))
        assert prob.partial_gradient(st, 1) == pytest.approx(
            A[:, 1] @ (A @ st.x), abs=1e-15)
        assert prob.partial_gradient(st, 1) == pytest.approx(1.0)

    def test_ridge_term(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2),
                                Regularizer("l2", 0.5))
        st = prob.residual_state(np.array([1.0, 2.0]))
        assert prob.partial_gradient(st, 1) == pytest.approx(2 + 0.5 * 2)

    def test_index_out_of_range(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2))
        st = prob.residual_state()
        with pytest.raises(IndexError):
            prob.partial_gradient(st, 2)


class TestFullGradient:
    def test_identity(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2))
        st = prob.residual_state(np.array([3.0, -1.0]))
        assert_allclose(prob.full_gradient(st), [3.0, -1.0])

    def test_matches_partials(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((8, 6))
        prob = dense_problem(A, rng.standard_normal(8),
                             Regularizer("l2", 0.3))
        st = prob.residual_state(rng.standard_normal(6))
        full = prob.full_gradient(st)
        parts = [prob.partial_gradient(st, i) for i in range(6)]
        assert_allclose(full, parts, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((9, 5))
        b = rng.standard_normal(9)
        prob = dense_problem(A, b, Regularizer("l2", 0.2))
        x = rng.standard_normal(5)
        full = prob.full_gradient(prob.residual_state(x))
        h = 1e-5
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fp = prob.objective(prob.residual_state(x + e))
            fm = prob.objective(prob.residual_state(x - e))
            fd = (fp - fm) / (2 * h)
            assert abs(fd - full[i]) <= 1e-6 * max(1.0, abs(full[i]))


class TestApplyStep:
    def test_basic(self):
        m = identity_matrix(2)
        prob = CompositeProblem(m, np.zeros(2))
        st = prob.residual_state()
        st.apply_step(m, 0, 0.5)
        assert_allclose(st.x, [0.5, 0.0])
        assert_allclose(st.w, [0.5, 0.0])

    def test_rejects_non_finite(self):
        m = identity_matrix(2)
        st = CompositeProblem(m, np.zeros(2)).residual_state()
        with pytest.raises(ValueError, match="non-finite"):
            st.apply_step(m, 0, np.nan)

    def test_commutes_with_refresh(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 4))
        m = ColumnSparseMatrix.from_dense(A)
        st = CompositeProblem(m, np.zeros(6)).residual_state()
        st.apply_step(m, 1, 0.7)
        st.apply_step(m, 3, -0.2)
        assert st.drift(m) < 1e-12

    def test_drift_after_many_steps(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((10, 6))
        m = ColumnSparseMatrix.from_dense(A)
        st = CompositeProblem(m, np.zeros(10)).residual_state()
        for _ in range(10_000):
            st.apply_step(m, int(rng.integers(6)),
                          float(rng.uniform(-1, 1)))
        assert st.drift(m) < 1e-8


class TestObjective:
    def test_zero(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2))
        assert prob.objective(prob.residual_state()) == 0.0

    def test_half(self):
        prob = CompositeProblem(identity_matrix(2), np.array([1.0, 0.0]))
        assert prob.objective(prob.residual_state()) == pytest.approx(0.5)

    def test_lasso(self):
        prob = CompositeProblem(identity_matrix(2), np.zeros(2),
                                Regularizer("l1", 1.0))
        st = prob.residual_state(np.array([2.0, 0.0]))
        assert prob.objective(st) == pytest.approx(4.0)


class TestSmoothnessProbes:
    def test_coordinate_lipschitz(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((12, 7))
        prob = dense_problem(A, rng.standard_normal(12),
                             Regularizer("l2", 0.4))
        for _ in range(200):
            x = rng.standard_normal(7)
            i = int(rng.integers(7))
            eta = float(rng.uniform(-2, 2))
            st = prob.residual_state(x)
            g0 = prob.partial_gradient(st, i)
            st2 = prob.residual_state(x)
            st2.apply_step(prob.matrix, i, eta)
            g1 = prob.partial_gradient(st2, i)
            assert abs(g1 - g0) <= prob.lipschitz[i] * abs(eta) + 1e-10

    def test_quadratic_upper_bound(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((10, 5))
        prob = dense_problem(A, rng.standard_normal(10))
        for _ in range(200):
            x = rng.standard_normal(5)
            i = int(rng.integers(5))
            eta = float(rng.uniform(-2, 2))
            st = prob.residual_state(x)
            f0 = prob.objective(st)
            g = prob.partial_gradient(st, i)
            st.apply_step(prob.matrix, i, eta)
            f1 = prob.objective(st)
            bound = f0 + eta * g + 0.5 * prob.lipschitz[i] * eta ** 2
            assert f1 <= bound + 1e-10


def test_zero_column_rejected():
    m = ColumnSparseMatrix.from_columns(
        2, [(np.array([0]), np.array([1.0])), (np.array([], dtype=int),
                                               np.array([]))])
    with pytest.raises(ValueError, match="zero norm"):
        CompositeProblem(m, np.zeros(2))


@pytest.mark.parametrize("reg,named", [
    (None, "squared norm beyond"),
    # finite squared norms, but L_i = ||a_i||^2 + lam overflows
    (Regularizer("l2", 1.7e308), "squared norm plus l2 weight beyond")],
    ids=["none", "l2"])
def test_overflowing_column_norm_rejected(reg, named, recwarn):
    big = 1e308 if reg is None else 7e153
    m = ColumnSparseMatrix.from_columns(
        2, [(np.array([0]), np.array([1.0])),
            (np.array([0, 1]), np.array([big, -big]))])
    if reg is not None:
        assert np.all(np.isfinite(m.col_norms_sq()))
    with pytest.raises(ValueError, match=f"column 1 has a {named}"):
        CompositeProblem(m, np.zeros(2), reg)
    # rejected by name, without an overflow warning
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_target_rejected():
    with pytest.raises(ValueError, match="finite"):
        CompositeProblem(identity_matrix(2), np.array([0.0, np.nan]))


def test_matrix_without_columns_rejected():
    # rejected by name, not by numpy's empty max of the Lipschitz constants
    with pytest.raises(ValueError, match="no columns"):
        CompositeProblem(ColumnSparseMatrix.from_dense(np.zeros((3, 0))),
                         np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_x0_rejected(bad):
    prob = CompositeProblem(identity_matrix(3), np.ones(3))
    x0 = np.array([0.0, 0.0, 0.0])
    x0[2] = bad
    with pytest.raises(ValueError, match=r"x0 must be finite; coordinate 2"):
        prob.residual_state(x0)
