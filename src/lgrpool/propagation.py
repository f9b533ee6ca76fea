"""Expectation-step model: feature MLP, PPR propagation, readout, loss.

Feature transformation is decoupled from message passing: the MLP acts
row-wise on node features, then a fixed-point iteration of the
personalized-PageRank operator mixes representations over the graph.
PPR, the MLP's second layer and the classifier head are all linear, so
the graph prediction folds the second layer into the head and
propagates class logits (c columns) rather than hidden features
(h columns); in exact arithmetic the result is the same. Only pooling
reads the hidden-width propagated matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value
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


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Value:
    """A (fan_in, fan_out) parameter drawn from Glorot & Bengio's (2010) uniform."""
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return ad.parameter(rng.uniform(-lim, lim, size=(fan_in, fan_out)))


def init_propagation_params(
    d_in: int, hidden: int, num_classes: int, rng: np.random.Generator
) -> PropagationParams:
    return PropagationParams(
        w1=glorot(rng, d_in, hidden),
        b1=ad.parameter(np.zeros((1, hidden))),
        w2=glorot(rng, hidden, hidden),
        b2=ad.parameter(np.zeros((1, hidden))),
        wc=glorot(rng, hidden, num_classes),
        bc=ad.parameter(np.zeros((1, num_classes))),
    )


def mlp_forward(x: Value, params: PropagationParams) -> Value:
    """The MLP's hidden layer R = relu(X W1 + b1), row-wise.

    Its second, linear layer (W2, b2) is applied by the reader: at hidden
    width for pooling's features, folded into the head by ``classify``.
    """
    return ad.relu(ad.add(ad.matmul(x, params.w1), params.b1))


def ppr_propagate(adj_norm: SparseMatrix, h: Value, alpha: float, k: int) -> Value:
    """k fixed-point iterations Z <- (1-alpha) A Z + alpha H, from Z = H.

    TrainingConfig has checked alpha and k.
    """
    return ad.ppr(adj_norm, h, alpha, k)


def classify(
    adj_norm: SparseMatrix, r: Value, params: PropagationParams, alpha: float, k: int
) -> Value:
    """The graph prediction: mean over nodes of the class probabilities.

    Equals softmax(PPR(R W2 + b2) Wc + bc) averaged over rows, but
    propagates c columns: logits = PPR(R (W2 Wc) + b2 Wc) + bc. The
    ``b2 Wc`` row is broadcast before PPR, as the normalized adjacency
    does not keep constant rows constant.
    """
    head = ad.matmul(params.w2, params.wc)
    h = ad.add(ad.matmul(r, head), ad.matmul(params.b2, params.wc))
    logits = ad.add(ppr_propagate(adj_norm, h, alpha, k), params.bc)
    return ad.mean_rows(ad.softmax_rows(logits))


def expectation_loss(y_pred: Value, y_true: int) -> Value:
    """Cross-entropy of the mean-pooled prediction against the graph label."""
    return ad.cross_entropy_rows(y_pred, [y_true])
