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


def test_from_coo_is_canonical_on_shuffled_duplicates():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        count = int(rng.integers(0, 3 * n * m // 4 + 1))
        rows = rng.integers(0, n, size=count)
        cols = rng.integers(0, m, size=count)
        vals = rng.uniform(0.5, 2.0, size=count)
        s = SparseMatrix.from_coo(rows, cols, vals, (n, m))
        dense = np.zeros((n, m))
        np.add.at(dense, (rows, cols), vals)
        assert s._csr.has_canonical_format
        assert s.shape == (n, m)
        assert s.nnz == len(set(zip(rows.tolist(), cols.tolist())))
        np.testing.assert_allclose(s.to_dense(), dense, rtol=1e-15, atol=0)


def test_from_coo_keeps_empty_rows():
    m = SparseMatrix.from_coo([3, 1, 1], [0, 2, 1], [3.0, 2.0, 1.0], (5, 3))
    assert m.to_dense().sum(axis=1).tolist() == [0.0, 3.0, 0.0, 3.0, 0.0]
    empty = SparseMatrix.from_coo([], [], [], (2, 2))
    assert empty.nnz == 0 and not empty.to_dense().any()


@pytest.mark.parametrize("rows, cols", [([0, -1], [1, 0]), ([0, 2], [1, 0]), ([0, 1], [1, 2])])
def test_from_coo_rejects_index_outside_shape(rows, cols):
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(rows, cols, [1.0, 1.0], (2, 2))
