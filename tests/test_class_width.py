"""The class-width prediction against the hidden-width path it replaced.

The oracle propagates the MLP output at hidden width and applies the
classifier head afterwards, mean(softmax(PPR(mlp(X)) Wc + bc)), as the
model did before the head was folded in front of PPR. PPR and the head
are linear, so the two agree in exact arithmetic: predictions, losses
and gradients must match to 1e-10 with the same argmax and the same
supernode counts, and the regularizer, which reads only the
hidden-width matrix, must match bitwise.
"""
import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool import model, pooling
from lgrpool.data import emit_tu_dataset, parse_tu_dataset
from lgrpool.model import graph_expectation_loss, graph_total_loss, init_parameters
from lgrpool.training import TrainingConfig, mean_precor_error

from perfbench import gen
from toydata import make_toy_dataset

TOL = 1e-10
TINY = gen.DatasetSpec("TINY", 16, 9.0, 14.0, 3, 2)
CONFIGS = {
    "small": TrainingConfig(hidden=6, k=3, num_pooling_layers=3),
    "paper widths": TrainingConfig(hidden=200, k=10, num_pooling_layers=3),
}


def oracle_losses(graph, params, config):
    """(y_pred, l_exp, l_precor, l_tot, trace) along the hidden-width path."""
    p = params.prop
    r = ad.relu(ad.add(ad.matmul(ad.constant(graph.features), p.w1), p.b1))
    z_pre = ad.ppr(graph.adj_norm, ad.add(ad.matmul(r, p.w2), p.b2), config.alpha, config.k)
    y_pred = ad.mean_rows(ad.softmax_rows(ad.add(ad.matmul(z_pre, p.wc), p.bc)))
    l_exp = ad.cross_entropy_rows(y_pred, [graph.label])
    trace = pooling.hierarchical_pool(graph, z_pre, params.pool, config.s_thre)
    coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
    l_precor = pooling.prediction_correction_loss(
        trace.z_cor, z_pre, trace.composed_map, coarse_edges
    )
    return y_pred, l_exp, l_precor, pooling.total_loss(l_exp, l_precor, config.gamma), trace


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    emit_tu_dataset(gen.generate(TINY, 3), str(root / "TINY"))
    return {"toy": make_toy_dataset(12), "tiny": parse_tu_dataset(str(root / "TINY"), "TINY")}


def live_parameters(dataset, config, seed):
    """Initial parameters with random biases, so the b2 Wc row that the
    class-width path propagates is not zero."""
    params = init_parameters(
        dataset.feature_dim, config.hidden, dataset.num_classes, config.num_pooling_layers, seed
    )
    rng = np.random.default_rng(seed)
    arrays = params.snapshot()
    for name in ("prop.b1", "prop.b2", "prop.bc"):
        arrays[name] = rng.normal(0.0, 0.1, size=arrays[name].shape)
    params.load_snapshot(arrays)
    return params


def gradients(params, loss):
    params.zero_grad()
    ad.backward(loss)
    return {name: value.grad.copy() for name, value in params.items()}


def assert_close_gradients(got, want, label):
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=TOL, err_msg=f"{label} {name}")


@pytest.mark.parametrize("data_name", ["toy", "tiny"])
@pytest.mark.parametrize("config_name", list(CONFIGS))
def test_class_width_losses_match_hidden_width_oracle(datasets, data_name, config_name):
    dataset, config = datasets[data_name], CONFIGS[config_name]
    counts = lambda trace: [lt.merge.num_supernodes for lt in trace.layers]
    pooled = 0
    for seed in range(3):
        params = live_parameters(dataset, config, seed)
        for index, graph in enumerate(dataset.graphs):
            label = f"{data_name} seed {seed} graph {index}"
            # Each backward gets a tape of its own.
            want_exp_grads = gradients(params, oracle_losses(graph, params, config)[1])
            want_y, want_exp, want_precor, want_tot, want_trace = oracle_losses(graph, params, config)
            want_grads = gradients(params, want_tot)

            y_pred = model.predict(graph, params.prop, config)
            np.testing.assert_allclose(y_pred.data, want_y.data, rtol=0, atol=TOL, err_msg=label)
            assert np.argmax(y_pred.data) == np.argmax(want_y.data), label

            l_exp = graph_expectation_loss(graph, params, config)
            assert abs(l_exp.data[0, 0] - want_exp.data[0, 0]) <= TOL, label
            assert_close_gradients(gradients(params, l_exp), want_exp_grads, label)

            losses = graph_total_loss(graph, params, config)
            assert abs(losses.l_exp.data[0, 0] - want_exp.data[0, 0]) <= TOL, label
            assert np.array_equal(losses.l_precor.data, want_precor.data), label
            assert abs(losses.l_tot.data[0, 0] - want_tot.data[0, 0]) <= TOL, label
            assert counts(losses.trace) == counts(want_trace), label
            assert_close_gradients(gradients(params, losses.l_tot), want_grads, label)
            pooled += bool(losses.trace.layers)
    assert pooled > 0, "no graph pooled, so the supernode counts compared nothing"


@pytest.mark.parametrize("data_name", ["toy", "tiny"])
def test_mean_precor_error_is_bitwise_the_oracle_mean(datasets, data_name):
    dataset, config = datasets[data_name], CONFIGS["small"]
    params = live_parameters(dataset, config, seed=11)
    total = 0.0
    for graph in dataset.graphs:
        total += abs(oracle_losses(graph, params, config)[2].data[0, 0])
    assert mean_precor_error(dataset, params, config) == total / len(dataset.graphs)
