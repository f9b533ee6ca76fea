"""The exact PPR fixed point, the oracle for the iterated propagation."""
import numpy as np


def ppr_closed_form(adj_dense: np.ndarray, h: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixed point alpha (I - (1-alpha) A)^-1 H via a dense solve."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = adj_dense.shape[0]
    return np.linalg.solve(np.eye(n) - (1.0 - alpha) * adj_dense, alpha * h)
