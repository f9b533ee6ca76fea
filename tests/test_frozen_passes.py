"""The tape-pruned passes against the full-tape formulas they replace.

Two oracles live here and nowhere else: the maximization step that also
differentiates the frozen propagation parameters, and the concatenation
form of the edge score. The production code must match the first
bitwise and the second to rounding.
"""
import numpy as np

from lgrpool import autodiff as ad
from lgrpool import cli, model, pooling, propagation, training
from lgrpool.data import Graph, build_normalized_adjacency, emit_tu_dataset, iterate_batches
from lgrpool.model import ParameterSet, graph_total_loss, init_parameters
from lgrpool.pooling import PoolLayerParams, score_edges
from lgrpool.training import (
    AdamState,
    TrainingConfig,
    RunMetrics,
    adam_step,
    evaluate,
    expectation_phase,
    lr_schedule,
    maximization_phase,
    mean_precor_error,
)

from toydata import make_toy_dataset

CONFIG = TrainingConfig(
    batch_size=4,
    num_pooling_layers=3,
    k=3,
    alpha=0.3,
    epochs=3,
    hidden=6,
    em_rounds_max=1,
    seed=0,
)


def full_tape_loss(graph, params, config):
    return graph_total_loss(graph, params, config)


def full_tape_maximization_phase(train, params, config, val):
    """The maximization phase with live propagation parameters on the tape.

    Returns per-epoch (l_exp, l_precor, l_tot, val_acc), the pooling
    gradients of every step, and the closing mean |l_precor|.
    """
    opt_state = AdamState()
    pool_items = params.pool.items()
    records, grads = [], []
    for epoch in range(config.epochs, 2 * config.epochs):  # round 1's M epochs
        sums = np.zeros(3)
        for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
            params.zero_grad()
            for graph in batch:
                losses = full_tape_loss(graph, params, config)
                sums += [losses.l_exp.data[0, 0], losses.l_precor.data[0, 0], losses.l_tot.data[0, 0]]
                ad.backward(ad.scale(losses.l_tot, 1.0 / len(batch)))
            grads.append([p.grad.copy() for _, p in pool_items])
            adam_step(pool_items, opt_state, lr_schedule(epoch, config.lr0))
        records.append((*(sums / len(train.graphs)), evaluate(params, val, config)))
    err = sum(abs(full_tape_loss(g, params, config).l_precor.data[0, 0]) for g in train.graphs)
    return records, grads, err / len(train.graphs)


def trained_pair(seed):
    """Two identical parameter sets after one expectation phase."""
    ds = make_toy_dataset(14, seed=seed)
    train, val = ds.subset(range(10), "/train"), ds.subset(range(10, 14), "/val")
    cfg = CONFIG.with_overrides(seed=seed)
    pair = []
    for _ in range(2):
        params = init_parameters(train.feature_dim, cfg.hidden, train.num_classes, cfg.num_pooling_layers, seed)
        expectation_phase(train, params, cfg, AdamState(), val, 1, RunMetrics())
        pair.append(params)
    return train, val, cfg, pair


def test_constant_theta_m_phase_is_bitwise_full_tape(monkeypatch):
    for seed in range(3):
        train, val, cfg, (params, oracle) = trained_pair(seed)
        want_records, want_grads, want_err = full_tape_maximization_phase(train, oracle, cfg, val)

        got_grads = []
        real_adam_step = training.adam_step

        def recording_adam_step(items, state, lr):
            got_grads.append([p.grad.copy() for _, p in items])
            real_adam_step(items, state, lr)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        metrics = RunMetrics()
        val_acc = evaluate(params, val, cfg)
        err = maximization_phase(
            train, params, cfg, AdamState(), val_acc=val_acc, em_round=1, metrics=metrics
        )
        monkeypatch.undo()

        assert err == want_err
        got_records = [(r.l_exp, r.l_precor, r.l_tot, r.val_acc) for r in metrics.epochs]
        assert got_records == want_records
        assert len(got_grads) == len(want_grads)
        for got, want in zip(got_grads, want_grads):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
        for name, arr in params.snapshot().items():
            assert np.array_equal(arr, oracle.snapshot()[name]), name
        for name, p in params.prop.items():
            assert p._grad is None, f"{name} was differentiated in the M phase"


def test_m_phase_pooling_gradients_reach_only_pooling():
    train, _, cfg, (params, _) = trained_pair(5)
    frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool)
    for name, value in frozen.prop.items():
        assert value.data is dict(params.prop.items())[name].data
    params.zero_grad()
    for graph in train.graphs:
        ad.backward(full_tape_loss(graph, frozen, cfg).l_tot)
    assert all(p._grad is None for _, p in params.prop.items())
    assert any(np.any(p.grad != 0) for _, p in params.pool.items())


def test_forward_only_passes_build_no_tape(tmp_path, monkeypatch, capsys):
    train, val, cfg, (params, _) = trained_pair(1)
    emit_tu_dataset(make_toy_dataset(6), str(tmp_path / "TOY"))
    (tmp_path / "toy.cfg").write_text("hidden = 6\nnum_pooling_layers = 3\nk = 3\n")
    outputs = []
    real_precor, real_classify = model.graph_precor_loss, propagation.classify

    def recording_precor(*args, **kwargs):
        l_precor, trace = real_precor(*args, **kwargs)
        outputs.append(("precor", l_precor))
        return l_precor, trace

    def recording_classify(*args, **kwargs):
        y_pred = real_classify(*args, **kwargs)
        outputs.append(("classify", ad.sum_all(y_pred)))
        return y_pred

    monkeypatch.setattr(model, "graph_precor_loss", recording_precor)
    monkeypatch.setattr(cli, "graph_precor_loss", recording_precor)
    monkeypatch.setattr(propagation, "classify", recording_classify)
    params.zero_grad()
    evaluate(params, val, cfg)
    mean_precor_error(train, params, cfg)
    inspect = ["inspect", "--dataset", str(tmp_path / "TOY"), "--config", str(tmp_path / "toy.cfg"), "--graph", "0"]
    assert cli.main(inspect) == 0
    # Evaluation classifies each graph once; the regularizer passes never do.
    kinds = [kind for kind, _ in outputs]
    assert kinds == ["classify"] * len(val.graphs) + ["precor"] * (len(train.graphs) + 1)
    for _, out in outputs:
        assert not out.requires_grad and not out._parents
        ad.backward(out)
    for name, p in params.items():
        assert p._grad is None, f"{name} received a gradient from a forward-only pass"


# ------------------------------------------------------------ edge scores


def concat_cols(a, b):
    """[a | b] as a tape node built by hand; only this oracle needs it."""
    na = a.data.shape[1]
    out = ad.Value(np.concatenate([a.data, b.data], axis=1))
    out._parents = [
        (p, fn) for p, fn in ((a, lambda g: g[:, :na]), (b, lambda g: g[:, na:])) if p.requires_grad
    ]
    out.requires_grad = bool(out._parents)
    return out


def test_concat_cols_gradient():
    rng = np.random.default_rng(0)
    params = {"a": ad.parameter(rng.normal(size=(3, 2))), "b": ad.parameter(rng.normal(size=(3, 4)))}
    builder = lambda ps: ad.sum_all(ad.sum_sq_rows(concat_cols(ps["a"], ps["b"])))
    assert max(ad.grad_check(builder, params).values()) <= 1e-5


def concat_score_edges(z, edges, layer):
    """The edge score as E x 2h concatenations times the scoring vector."""
    idx_i = [e[0] for e in edges]
    idx_j = [e[1] for e in edges]
    p = ad.matmul(z, layer.w)
    pi = ad.gather_rows(p, idx_i)
    pj = ad.gather_rows(p, idx_j)
    s_ij = ad.sigmoid(ad.matmul(concat_cols(pi, pj), layer.a))
    s_ji = ad.sigmoid(ad.matmul(concat_cols(pj, pi), layer.a))
    return ad.scale(ad.add(s_ij, s_ji), 0.5)


def random_graph(rng):
    n = int(rng.integers(2, 30))
    density = rng.uniform(0.05, 0.5)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    features = rng.normal(0.0, 2.0, size=(n, 3))
    return Graph(
        num_nodes=n,
        edges=edges,
        features=features,
        label=int(rng.integers(0, 2)),
        adj_norm=build_normalized_adjacency(n, edges),
    )


def test_split_score_matches_concatenation_directly():
    rng = np.random.default_rng(3)
    for hidden in (1, 4, 9):
        z = ad.constant(rng.normal(size=(7, hidden)))
        edges = [(0, 1), (0, 6), (2, 3), (3, 5), (4, 6)]
        layer = PoolLayerParams(
            w=ad.parameter(rng.normal(size=(hidden, hidden))),
            a=ad.parameter(rng.normal(size=(2 * hidden, 1))),
        )
        want = concat_score_edges(z, edges, layer)
        got = score_edges(z, edges, layer)
        np.testing.assert_allclose(got.data, want.data, rtol=1e-13, atol=1e-15)
        assert score_edges(z, [], layer).data.shape == (0, 1)


def test_split_score_total_loss_matches_concatenation(monkeypatch):
    cfg = CONFIG.with_overrides(hidden=8)
    pooled = 0
    for seed in range(300):
        rng = np.random.default_rng(1000 + seed)
        graph = random_graph(rng)
        results = []
        for scorer in (concat_score_edges, score_edges):
            monkeypatch.setattr(pooling, "score_edges", scorer)
            params = init_parameters(3, cfg.hidden, 2, cfg.num_pooling_layers, seed)
            losses = full_tape_loss(graph, params, cfg)
            ad.backward(losses.l_tot)
            results.append((losses, {name: p.grad for name, p in params.items()}))
        (want, want_grads), (got, got_grads) = results
        counts = lambda t: [lt.merge.num_supernodes for lt in t.layers]
        assert counts(got.trace) == counts(want.trace), f"graph {seed}"
        for name in ("l_exp", "l_precor", "l_tot"):
            a, b = getattr(got, name).data[0, 0], getattr(want, name).data[0, 0]
            assert abs(a - b) <= 1e-10, f"graph {seed} {name}: {a!r} vs {b!r}"
        for name, g in got_grads.items():
            np.testing.assert_allclose(g, want_grads[name], rtol=1e-8, atol=1e-10, err_msg=name)
        pooled += got.trace.effective_depth > 0
    assert pooled >= 100, f"only {pooled}/300 random graphs pooled"
