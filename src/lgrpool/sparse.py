"""Compressed sparse row matrices used for graph adjacencies.

These matrices are numeric constants: they carry no gradient and are
never trained. The numeric kernels delegate to scipy.sparse.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class SparseMatrix:
    """Immutable CSR matrix with sorted, in-range column indices per row."""

    __slots__ = ("indptr", "indices", "data", "shape", "_csr")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        self._validate()
        self._csr = sp.csr_matrix(
            (self.data, self.indices, self.indptr), shape=self.shape
        )

    def _validate(self):
        n_rows, n_cols = self.shape
        if len(self.indptr) != n_rows + 1:
            raise ValueError("indptr length must be rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr bounds inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data lengths differ")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n_cols
        ):
            raise ValueError("column index out of range")
        row_start = np.zeros(len(self.indices) + 1, dtype=bool)
        row_start[self.indptr] = True
        bad = np.flatnonzero((np.diff(self.indices) <= 0) & ~row_start[1:-1])
        if bad.size:
            r = np.searchsorted(self.indptr, bad[0] + 1, side="right") - 1
            raise ValueError(f"column indices not strictly sorted in row {r}")

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """Build from coordinate triples; duplicate entries are summed."""
        m = sp.coo_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)), shape=shape
        ).tocsr()
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.indptr, m.indices, m.data, m.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """S @ B for a dense operand."""
        return np.asarray(self._csr @ b, dtype=np.float64)

    def transpose_matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """S.T @ B, used by the backward rule of sparse-dense products."""
        return np.asarray(self._csr.T @ b, dtype=np.float64)
