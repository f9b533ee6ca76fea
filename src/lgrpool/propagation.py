"""Expectation-step model: feature MLP, PPR propagation, readout, loss.

Feature transformation is decoupled from message passing: the MLP acts
row-wise on node features, then a fixed-point iteration of the
personalized-PageRank operator mixes representations over the graph.
The propagated matrix stays at hidden width; a linear head projects to
class space before the softmax and the mean readout.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .errors import SingularMatrix
from .sparse import SparseMatrix


@dataclass
class PropagationParams:
    """MLP weights/biases plus the classifier head."""

    w1: Value
    b1: Value
    w2: Value
    b2: Value
    wc: Value
    bc: Value

    def items(self):
        return [(f"prop.{f.name}", getattr(self, f.name)) for f in fields(self)]

    def constants(self) -> "PropagationParams":
        """The same arrays as constants, so no tape reaches them."""
        return PropagationParams(*(ad.constant(v.data) for _, v in self.items()))


@dataclass
class PropagationOutput:
    z_pre: Value
    y_pred: Value


def init_propagation_params(
    d_in: int, hidden: int, num_classes: int, rng: np.random.Generator
) -> PropagationParams:
    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return ad.parameter(rng.uniform(-lim, lim, size=(fan_in, fan_out)))

    return PropagationParams(
        w1=glorot(d_in, hidden),
        b1=ad.parameter(np.zeros((1, hidden))),
        w2=glorot(hidden, hidden),
        b2=ad.parameter(np.zeros((1, hidden))),
        wc=glorot(hidden, num_classes),
        bc=ad.parameter(np.zeros((1, num_classes))),
    )


def mlp_forward(x: Value, params: PropagationParams) -> Value:
    """Row-wise two-layer MLP with relu; no neighbor mixing."""
    h = ad.relu(ad.add(ad.matmul(x, params.w1), params.b1))
    return ad.add(ad.matmul(h, params.w2), params.b2)


def ppr_propagate(adj_norm: SparseMatrix, h: Value, alpha: float, k: int) -> Value:
    """k fixed-point iterations Z <- (1-alpha) A Z + alpha H, from Z = H.

    Returns the pre-softmax propagated matrix; the softmax lives on the
    classification path only. TrainingConfig has checked alpha and k.
    """
    return ad.ppr(adj_norm, h, alpha, k)


def ppr_closed_form(adj_dense: np.ndarray, h: np.ndarray, alpha: float) -> np.ndarray:
    """Exact fixed point alpha (I - (1-alpha) A)^-1 H via a dense solve.

    Test oracle only; never used in training.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    n = adj_dense.shape[0]
    system = np.eye(n) - (1.0 - alpha) * adj_dense
    try:
        return np.linalg.solve(system, alpha * h)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def classify(z_pre: Value, wc: Value, bc: Value):
    """Per-node class probabilities and their mean as the graph prediction."""
    probs = ad.softmax_rows(ad.add(ad.matmul(z_pre, wc), bc))
    y_pred = ad.mean_rows(probs)
    return probs, y_pred


def expectation_loss(y_pred: Value, y_true: int) -> Value:
    """Cross-entropy of the mean-pooled prediction against the graph label."""
    return ad.cross_entropy_rows(y_pred, [y_true])


def propagate_graph(
    graph, params: PropagationParams, alpha: float, k: int
) -> PropagationOutput:
    x = ad.constant(graph.features)
    h = mlp_forward(x, params)
    z_pre = ppr_propagate(graph.adj_norm, h, alpha, k)
    _, y_pred = classify(z_pre, params.wc, params.bc)
    return PropagationOutput(z_pre=z_pre, y_pred=y_pred)
