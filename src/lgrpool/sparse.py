"""Compressed sparse row matrices used for graph adjacencies.

These matrices are numeric constants: they carry no gradient and are
never trained. The numeric kernels delegate to scipy.sparse.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class SparseMatrix:
    """Immutable handle on one scipy CSR matrix in canonical format."""

    __slots__ = ("_csr",)

    def __init__(self, csr: sp.csr_matrix):
        self._csr = csr

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "SparseMatrix":
        """Build from coordinate triples; duplicate entries are summed.

        scipy raises ValueError on a negative or out-of-range index.
        """
        vals = np.asarray(vals, dtype=np.float64)
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """S @ B for a dense operand."""
        return self._csr @ b

    # Not called in src: perfbench's layer trace wraps this name and fails when it is missing.
    def transpose_matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """S.T @ B for a dense operand."""
        return self._csr.T @ b
