"""Full model: parameter set and the two per-graph loss tapes.

The expectation tape touches only the propagation parameters and the
classification loss. The full tape additionally runs the pooling
hierarchy on detached propagated features and adds the weighted
prediction-correction term, which is the only path reaching the pooling
parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import pooling, propagation
from .autodiff import Value
from .data import Graph
from .pooling import PoolingParams, PoolingTrace
from .propagation import PropagationParams


@dataclass
class ParameterSet:
    prop: PropagationParams
    pool: PoolingParams

    def items(self):
        return self.propagation_items() + self.pooling_items()

    def propagation_items(self):
        return self.prop.items()

    def pooling_items(self):
        return self.pool.items()

    def zero_grad(self) -> None:
        for _, value in self.items():
            value.zero_grad()

    def snapshot(self) -> dict:
        """Detached copies of every parameter array, keyed by name."""
        return {name: value.data.copy() for name, value in self.items()}

    def load_snapshot(self, arrays: dict) -> None:
        for name, value in self.items():
            if name not in arrays:
                raise ValueError(f"snapshot has no array {name}")
            src = arrays[name]
            if src.shape != value.data.shape:
                raise ValueError(
                    f"snapshot shape {src.shape} does not match {name} {value.data.shape}"
                )
            value.data[...] = src


def init_parameters(
    d_in: int,
    hidden: int,
    num_classes: int,
    num_pool_layers: int,
    seed: int,
) -> ParameterSet:
    rng = np.random.default_rng(seed)
    return ParameterSet(
        prop=propagation.init_propagation_params(d_in, hidden, num_classes, rng),
        pool=pooling.init_pooling_params(hidden, num_pool_layers, rng),
    )


@dataclass
class GraphLosses:
    l_exp: Value
    l_precor: Value
    l_tot: Value
    trace: PoolingTrace


def graph_expectation_loss(graph: Graph, params: ParameterSet, alpha: float, k: int) -> Value:
    """Classification tape only: propagate, read out, cross-entropy."""
    out = propagation.propagate_graph(graph, params.prop, alpha, k)
    return propagation.expectation_loss(out.y_pred, graph.label)


def graph_total_loss(
    graph: Graph,
    params: ParameterSet,
    alpha: float,
    k: int,
    s_thre: float,
    num_pool_layers: int,
    gamma: float,
) -> GraphLosses:
    """Full tape: expectation loss plus weighted alignment regularizer.

    The pooling hierarchy consumes the propagated representations as
    constants, so the regularizer's gradient reaches only the pooling
    parameters; the classification path is shared with the expectation
    tape and reaches only the propagation parameters.
    """
    out = propagation.propagate_graph(graph, params.prop, alpha, k)
    l_exp = propagation.expectation_loss(out.y_pred, graph.label)

    z_detached = ad.constant(out.z_pre.data)
    trace = pooling.hierarchical_pool(
        graph, z_detached, params.pool, s_thre, num_pool_layers
    )
    coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
    l_precor = pooling.prediction_correction_loss(
        trace.z_cor, z_detached, trace.composed_map, coarse_edges
    )
    l_tot = pooling.total_loss(l_exp, l_precor, gamma)
    return GraphLosses(
        l_exp=l_exp,
        l_precor=l_precor,
        l_tot=l_tot,
        trace=trace,
    )
