import numpy as np
import pytest

from lgrpool.data import build_normalized_adjacency
from lgrpool.sparse import SparseMatrix


def random_coo(rng, n, m, density=0.2):
    mask = rng.random((n, m)) < density
    rows, cols = np.nonzero(mask)
    vals = rng.uniform(-2.0, 2.0, size=len(rows))
    return rows, cols, vals


def test_from_coo_matches_dense_construction():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 51)), int(rng.integers(1, 51))
        rows, cols, vals = random_coo(rng, n, m)
        s = SparseMatrix.from_coo(rows, cols, vals, (n, m))
        dense = np.zeros((n, m))
        dense[rows, cols] = vals
        np.testing.assert_allclose(s.to_dense(), dense, atol=0)


def test_from_coo_sums_duplicates():
    s = SparseMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0], (2, 2))
    assert s.to_dense()[0, 1] == 5.0
    assert s.nnz == 2


def test_identity_spmm_is_exact():
    rng = np.random.default_rng(0)
    b = rng.uniform(-2, 2, size=(7, 3))
    eye = build_normalized_adjacency(7, [])
    assert np.array_equal(eye.matmul_dense(b), b)


def test_matmul_dense_matches_dense_product():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        rows, cols, vals = random_coo(rng, n, m)
        s = SparseMatrix.from_coo(rows, cols, vals, (n, m))
        b = rng.uniform(-2, 2, size=(m, 4))
        assert np.abs(s.matmul_dense(b) - s.to_dense() @ b).max() <= 1e-12


def test_transpose_matmul_dense_matches_dense_product():
    rng = np.random.default_rng(3)
    rows, cols, vals = random_coo(rng, 9, 6)
    s = SparseMatrix.from_coo(rows, cols, vals, (9, 6))
    g = rng.uniform(-1, 1, size=(9, 5))
    assert np.abs(s.transpose_matmul_dense(g) - s.to_dense().T @ g).max() <= 1e-12


def test_validation_rejects_bad_indptr():
    with pytest.raises(ValueError):
        SparseMatrix(indptr=[0, 2], indices=[0], data=[1.0], shape=(1, 2))
    with pytest.raises(ValueError):
        SparseMatrix(indptr=[0, 2, 1], indices=[0, 1], data=[1.0, 1.0], shape=(2, 2))


def test_validation_rejects_unsorted_or_out_of_range_columns():
    with pytest.raises(ValueError):
        SparseMatrix(indptr=[0, 2], indices=[1, 0], data=[1.0, 1.0], shape=(1, 2))
    with pytest.raises(ValueError):
        SparseMatrix(indptr=[0, 1], indices=[5], data=[1.0], shape=(1, 2))


def test_validation_allows_descent_across_row_boundary():
    m = SparseMatrix(indptr=[0, 2, 4], indices=[1, 3, 0, 2], data=[1.0] * 4, shape=(2, 4))
    assert np.array_equal(m.to_dense(), [[0, 1, 0, 1], [1, 0, 1, 0]])


def test_validation_accepts_empty_rows():
    m = SparseMatrix(indptr=[0, 0, 2, 2, 3, 3], indices=[1, 2, 0], data=[1.0, 2.0, 3.0], shape=(5, 3))
    assert m.to_dense().sum(axis=1).tolist() == [0.0, 3.0, 0.0, 3.0, 0.0]
    assert SparseMatrix(indptr=[0, 0, 0], indices=[], data=[], shape=(2, 2)).nnz == 0


def test_validation_names_first_unsorted_row():
    # Row 2 descends, row 4 repeats a column; the message names row 2.
    with pytest.raises(ValueError, match=r"not strictly sorted in row 2$"):
        SparseMatrix(
            indptr=[0, 1, 1, 3, 3, 5], indices=[2, 2, 0, 1, 1], data=[1.0] * 5, shape=(5, 3)
        )
    with pytest.raises(ValueError, match=r"not strictly sorted in row 1$"):
        SparseMatrix(indptr=[0, 0, 2], indices=[1, 1], data=[1.0, 1.0], shape=(2, 2))


def test_validation_sort_check_matches_row_loop():
    """The vectorized check accepts and rejects exactly what a per-row loop does."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        n_rows, n_cols = int(rng.integers(1, 7)), int(rng.integers(1, 6))
        lengths = rng.integers(0, n_cols + 1, size=n_rows)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.concatenate(
            [np.sort(rng.choice(n_cols, size=k, replace=False)) for k in lengths]
        ).astype(np.int64)
        if len(indices) and rng.random() < 0.7:
            pos = rng.integers(0, len(indices), size=int(rng.integers(1, 3)))
            indices[pos] = rng.integers(0, n_cols, size=len(pos))
        bad_rows = [
            r for r in range(n_rows) if np.any(np.diff(indices[indptr[r] : indptr[r + 1]]) <= 0)
        ]
        args = dict(indptr=indptr, indices=indices, data=np.ones(len(indices)), shape=(n_rows, n_cols))
        if bad_rows:
            with pytest.raises(ValueError, match=rf"in row {bad_rows[0]}$"):
                SparseMatrix(**args)
        else:
            SparseMatrix(**args)
