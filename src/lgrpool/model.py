"""Full model: parameter set and the per-graph loss tapes.

The expectation tape holds the classification loss, computed at class
width by ``propagation.classify``. The regularizer tape propagates the
features at hidden width, pools them and scores the
prediction-correction term; the full tape shares the MLP's hidden layer
between the two and adds them with weight ``gamma``. All read ``alpha``
and ``k`` from the run's TrainingConfig; the regularizer also reads
``s_thre`` and pools with every layer of the pooling parameters. Nothing
here freezes a parameter: a caller freezes θ, the propagation
parameters, by passing them as constants.
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
        return self.prop.items() + self.pool.items()

    def constants(self) -> "ParameterSet":
        """Both groups as constants, for a forward-only pass that builds no tape."""
        return ParameterSet(self.prop.constants(), self.pool.constants())

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


def _hidden(graph: Graph, prop: PropagationParams) -> Value:
    return propagation.mlp_forward(ad.constant(graph.features), prop)


def predict(graph: Graph, prop: PropagationParams, config) -> Value:
    """The graph's class distribution ``y_pred``, propagated at class width."""
    return propagation.classify(graph.adj_norm, _hidden(graph, prop), prop, config.alpha, config.k)


def graph_expectation_loss(graph: Graph, params: ParameterSet, config) -> Value:
    """Classification tape only: predict, then cross-entropy."""
    return propagation.expectation_loss(predict(graph, params.prop, config), graph.label)


def _regularizer(graph: Graph, r: Value, params: ParameterSet, config):
    """Propagate R W2 + b2 at hidden width, pool it, and return
    ``(l_precor, trace)``."""
    prop = params.prop
    h = ad.add(ad.matmul(r, prop.w2), prop.b2)
    z_pre = propagation.ppr_propagate(graph.adj_norm, h, config.alpha, config.k)
    trace = pooling.hierarchical_pool(graph, z_pre, params.pool, config.s_thre)
    coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
    l_precor = pooling.prediction_correction_loss(
        trace.z_cor, z_pre, trace.composed_map, coarse_edges
    )
    return l_precor, trace


def graph_precor_loss(graph: Graph, params: ParameterSet, config) -> tuple[Value, PoolingTrace]:
    """Regularizer tape only, ``(l_precor, trace)``: no classification."""
    return _regularizer(graph, _hidden(graph, params.prop), params, config)


def graph_total_loss(graph: Graph, params: ParameterSet, config) -> GraphLosses:
    """Full tape: expectation loss plus weighted alignment regularizer.

    Training and gradcheck call this one assembly; ``inspect --graph``
    runs its regularizer half. The caller freezes θ by passing
    ``params.prop.constants()``, as the M phase does; the regularizer's
    gradient then reaches only the pooling parameters.
    """
    r = _hidden(graph, params.prop)
    y_pred = propagation.classify(graph.adj_norm, r, params.prop, config.alpha, config.k)
    l_exp = propagation.expectation_loss(y_pred, graph.label)
    l_precor, trace = _regularizer(graph, r, params, config)
    l_tot = pooling.total_loss(l_exp, l_precor, config.gamma)
    return GraphLosses(l_exp=l_exp, l_precor=l_precor, l_tot=l_tot, trace=trace)
