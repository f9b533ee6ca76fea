"""`model.graph_total_loss` against the hand assembly it replaced.

The oracle is the loss that `lgrpool gradcheck` used to build by hand:
MLP, class-width PPR and head, hidden-width PPR, pooling hierarchy and
regularizer called one by one, with every parameter live and nothing
detached. The model's one assembly must give the same total loss, the
same gradient for every parameter and the same supernode counts per
layer, all bitwise. The old
`inspect --trace` path, which pooled a detached copy of the propagated
features, is kept as the oracle for the trace that command prints.
"""
import json

import numpy as np

from lgrpool import autodiff as ad
from lgrpool import cli, pooling, propagation
from lgrpool.data import Graph, build_normalized_adjacency, emit_tu_dataset
from lgrpool.model import graph_total_loss, init_parameters
from lgrpool.training import TrainingConfig

from toydata import make_toy_dataset


def hand_assembly(graph, ps, alpha, k, s_thre, num_layers, gamma):
    p = ps.prop
    r = propagation.mlp_forward(ad.constant(graph.features), p)
    logits_in = ad.add(ad.matmul(r, ad.matmul(p.w2, p.wc)), ad.matmul(p.b2, p.wc))
    logits = ad.add(propagation.ppr_propagate(graph.adj_norm, logits_in, alpha=alpha, k=k), p.bc)
    y_pred = ad.mean_rows(ad.softmax_rows(logits))
    l_exp = propagation.expectation_loss(y_pred, graph.label)
    h = ad.add(ad.matmul(r, p.w2), p.b2)
    z_pre = propagation.ppr_propagate(graph.adj_norm, h, alpha=alpha, k=k)
    trace = pooling.hierarchical_pool(graph, z_pre, ps.pool, s_thre)
    coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
    l_precor = pooling.prediction_correction_loss(
        trace.z_cor, z_pre, trace.composed_map, coarse_edges
    )
    return pooling.total_loss(l_exp, l_precor, gamma), trace


def model_assembly(graph, ps, alpha, k, s_thre, num_layers, gamma):
    config = TrainingConfig(
        alpha=alpha, k=k, s_thre=s_thre, num_pooling_layers=num_layers, gamma=gamma
    )
    losses = graph_total_loss(graph, ps, config)
    return losses.l_tot, losses.trace


def run(assemble, graph, snapshot, shape, setting):
    params = init_parameters(*shape, seed=0)
    params.load_snapshot(snapshot)
    l_tot, trace = assemble(graph, params, *setting)
    ad.backward(l_tot)
    grads = {name: value.grad.copy() for name, value in params.items()}
    counts = [lt.merge.num_supernodes for lt in trace.layers]
    return l_tot.data.copy(), grads, counts


def assert_same_assembly(graph, snapshot, shape, setting, label):
    got = run(model_assembly, graph, snapshot, shape, setting)
    want = run(hand_assembly, graph, snapshot, shape, setting)
    assert np.array_equal(got[0], want[0]), label
    assert got[1].keys() == want[1].keys()
    for name in want[1]:
        assert np.array_equal(got[1][name], want[1][name]), (label, name)
    assert got[2] == want[2], label
    return got[2]


def test_gradcheck_fixture_is_the_training_loss():
    _, fixture = cli.full_loss_target(1e-6)
    counts = assert_same_assembly(
        cli._gradcheck_graph(), fixture.snapshot(), (4, 5, 3, 2), (0.3, 4, 0.5, 2, 0.2), "fixture"
    )
    assert len(counts) == 2


def random_graph(rng, kind):
    n = {"single node": 1, "edgeless": int(rng.integers(2, 9))}.get(kind, int(rng.integers(3, 30)))
    p = 0.0 if kind in ("single node", "edgeless") else float(rng.uniform(0.1, 0.6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(
        num_nodes=n,
        edges=edges,
        features=rng.normal(size=(n, 3)) * 2.0,
        label=int(rng.integers(0, 3)),
        adj_norm=build_normalized_adjacency(n, edges),
    )


def test_graph_total_loss_matches_hand_assembly_on_random_graphs():
    kinds = ["single node", "edgeless", "no survivor", "pooled", "pooled"]
    seen = set()
    for trial in range(100):
        rng = np.random.default_rng(trial)
        kind = kinds[trial % len(kinds)]
        graph = random_graph(rng, kind)
        num_layers = int(rng.integers(1, 4))
        shape = (3, 6, 3, num_layers)
        setting = (
            float(rng.uniform(0.05, 1.0)),
            int(rng.integers(1, 11)),
            0.9999 if kind == "no survivor" else 0.5,
            num_layers,
            float(rng.uniform(0.0, 0.5)),
        )
        snapshot = init_parameters(*shape, seed=trial).snapshot()
        counts = assert_same_assembly(graph, snapshot, shape, setting, trial)
        if kind == "no survivor" and graph.edges and not counts:
            seen.add(kind)
        elif kind in ("single node", "edgeless"):
            seen.add(kind)
        elif counts:
            seen.add("pooled")
    assert seen == {"single node", "edgeless", "no survivor", "pooled"}


def test_inspect_trace_matches_detached_pooling(tmp_path, capsys):
    dataset = make_toy_dataset(6)
    emit_tu_dataset(dataset, str(tmp_path / "TOY"))
    cfg = tmp_path / "trace.cfg"
    cfg.write_text("hidden = 6\nnum_pooling_layers = 3\nk = 3\n")
    config = cli.load_config(str(cfg), {})
    params = init_parameters(dataset.feature_dim, 6, dataset.num_classes, 3, seed=0)
    depths = []
    for index, graph in enumerate(dataset.graphs):
        p = params.prop
        r = propagation.mlp_forward(ad.constant(graph.features), p)
        z_pre = propagation.ppr_propagate(
            graph.adj_norm, ad.add(ad.matmul(r, p.w2), p.b2), config.alpha, config.k
        )
        want = pooling.hierarchical_pool(
            graph, ad.constant(z_pre.data), params.pool, config.s_thre
        ).summary()
        argv = ["inspect", "--dataset", str(tmp_path / "TOY"), "--config", str(cfg),
                "--graph", str(index)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.strip().split("\n")[1]
        assert printed == json.dumps(want, sort_keys=True), index
        depths.append(want["effective_depth"])
    assert min(depths) == 0 and max(depths) >= 2
