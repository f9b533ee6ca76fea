import json
import os
import warnings

import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool import training
from lgrpool.cli import load_config
from lgrpool.data import Graph, GraphDataset, build_normalized_adjacency, iterate_batches
from lgrpool.errors import EmptySplit, NonFinite
from lgrpool.model import (
    ParameterSet,
    graph_expectation_loss,
    graph_precor_loss,
    graph_total_loss,
    init_parameters,
)
from lgrpool.training import (
    AdamState,
    RunMetrics,
    TrainingConfig,
    adam_step,
    atomic_write,
    em_train,
    evaluate,
    expectation_phase,
    load_checkpoint,
    lr_schedule,
    maximization_phase,
    mean_precor_error,
    restore_parameters,
    save_checkpoint,
    write_metrics_csv,
)

from toydata import make_toy_dataset


TOY_CONFIG = TrainingConfig(
    batch_size=4,
    num_pooling_layers=2,
    k=3,
    alpha=0.3,
    epochs=2,
    hidden=6,
    em_rounds_max=2,
    em_tolerance=1e-12,
    seed=0,
)


def toy_splits(num_graphs=12):
    ds = make_toy_dataset(num_graphs)
    train = ds.subset(range(num_graphs - 4), "/train")
    val = ds.subset(range(num_graphs - 4, num_graphs - 2), "/val")
    test = ds.subset(range(num_graphs - 2, num_graphs), "/test")
    return train, val, test


# ---------------------------------------------------------------- config


def test_config_validation():
    for bad in (
        dict(batch_size=0),
        dict(epochs=-1),
        dict(k=0),
        dict(alpha=0.0),
        dict(alpha=-0.1),
        dict(alpha=1.2),
        dict(gamma=-0.1),
        dict(s_thre=0.0),
        dict(s_thre=1.0),
        dict(s_thre=1.5),
        dict(lr0=0.0),
        dict(em_tolerance=0.0),
        dict(beta1=1.0),
        dict(seed=-1),
        dict(gamma=float("nan")),
        dict(gamma=float("inf")),
        dict(lr0=float("nan")),
        dict(lr0=float("inf")),
        dict(alpha=float("nan")),
        dict(s_thre=float("nan")),
        dict(beta2=float("nan")),
        dict(eps_adam=float("inf")),
        dict(em_tolerance=float("nan")),
        dict(em_tolerance=float("-inf")),
        dict(gamma="x"),
        dict(hidden=8.0),
        dict(k=True),
    ):
        with pytest.raises(ValueError):
            TrainingConfig(**bad)
    assert TrainingConfig(em_tolerance=float("inf")).em_tolerance == float("inf")


def test_desk_profile():
    cfg = TrainingConfig.desk()
    assert cfg.epochs == 20 and cfg.em_rounds_max == 5
    assert cfg.batch_size == TrainingConfig().batch_size


def test_desk_profile_matches_desk_cfg():
    cfg_path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.cfg")
    assert TrainingConfig.desk() == load_config(cfg_path, {})


def test_full_cfg_is_the_default_config():
    cfg_path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "full.cfg")
    assert TrainingConfig() == load_config(cfg_path, {})


def test_config_round_trip_and_unknown_keys():
    cfg = TrainingConfig.desk(gamma=0.3)
    assert TrainingConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        TrainingConfig.from_dict({"gamme": 0.3})


# -------------------------------------------------------------- schedule


def test_lr_schedule_values():
    assert lr_schedule(0, 1e-3) == 1e-3
    assert abs(lr_schedule(10, 1e-3) - 9.5e-4) <= 1e-18
    assert abs(lr_schedule(95, 1e-3) - 1e-3 * 0.95**9) <= 1e-18
    assert abs(lr_schedule(95, 1e-3) - 6.302e-4) <= 1e-6


def test_lr_schedule_non_increasing():
    lrs = [lr_schedule(e, 1e-3) for e in range(200)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    with pytest.raises(ValueError):
        lr_schedule(-1, 1e-3)


# ------------------------------------------------------------------ adam


def test_adam_zero_gradient_leaves_parameters():
    p = ad.parameter(np.array([[1.0, 2.0]]))
    named = [("p", p)]
    state = AdamState()
    before = p.data.copy()
    for _ in range(3):
        p.zero_grad()
        adam_step(named, state, 1e-3, TrainingConfig())
    assert np.array_equal(p.data, before)


def test_adam_constant_gradient_update_approaches_lr():
    cfg = TrainingConfig()
    p = ad.parameter(np.array([[0.0]]))
    named = [("p", p)]
    state = AdamState()
    lr = 1e-3
    last = None
    for _ in range(500):
        p.zero_grad()
        p.accumulate_grad(np.array([[2.5]]))
        before = p.data.copy()
        adam_step(named, state, lr, cfg)
        last = abs(p.data[0, 0] - before[0, 0])
    assert abs(last - lr) <= 1e-6


def test_adam_zero_lr_keeps_parameters():
    p = ad.parameter(np.array([[1.0]]))
    named = [("p", p)]
    state = AdamState()
    p.accumulate_grad(np.array([[3.0]]))
    adam_step(named, state, 0.0, TrainingConfig())
    assert p.data[0, 0] == 1.0


def eager_adam_step(named_params, state, lr, config):
    """Oracle: Adam with zero moments for every parameter from the first
    step on and the full update every step, whatever the gradient."""
    for name, p in named_params:
        state.m.setdefault(name, np.zeros_like(p.data))
        state.v.setdefault(name, np.zeros_like(p.data))
    state.step += 1
    t = state.step
    for name, p in named_params:
        g, m, v = p.grad, state.m[name], state.v[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + config.eps_adam)


def test_adam_moments_start_at_the_first_nonzero_gradient_as_eager_adam_bitwise():
    cfg = TrainingConfig()
    lazy_p, eager_p = ad.parameter(np.array([[0.7]])), ad.parameter(np.array([[0.7]]))
    lazy, eager = AdamState(), AdamState()
    for t, g in enumerate([0.0, 0.0, 0.0, 2.5, 0.0], start=1):
        for p in (lazy_p, eager_p):
            p.zero_grad()
            p.accumulate_grad(np.array([[g]]))
        adam_step([("p", lazy_p)], lazy, 1e-3, cfg)
        eager_adam_step([("p", eager_p)], eager, 1e-3, cfg)
        assert lazy.step == eager.step == t
        assert lazy_p.data.tobytes() == eager_p.data.tobytes(), t
        if t < 4:
            assert lazy.m == lazy.v == {}
        else:
            # Step 4 makes the moments and bias-corrects them for t = 4, not 1.
            assert lazy.m["p"].tobytes() == eager.m["p"].tobytes(), t
            assert lazy.v["p"].tobytes() == eager.v["p"].tobytes(), t
    assert lazy_p.data[0, 0] != 0.7


def test_em_train_with_lazy_adam_moments_matches_eager_adam_bitwise(monkeypatch):
    train, val, test = toy_splits()
    # On this split pooling dies between the rounds: layers 0 and 1 get
    # gradients in round 1 and none in round 2, where their momentum still
    # moves them; layer 2 never gets one.
    config = TOY_CONFIG.with_overrides(num_pooling_layers=3, epochs=3, lr0=0.01, seed=4)
    lazy_step, real_maximization = training.adam_step, training.maximization_phase
    em_round, reached, pool_state, runs = [0], {}, {}, {}

    def maximization(*args, **kwargs):
        em_round[0] = kwargs["em_round"]
        return real_maximization(*args, **kwargs)

    def recording(step):
        def record(named, state, lr, cfg):
            if named[0][0].startswith("pool."):
                pool_state[step] = state
                live = {name.split(".")[1] for name, p in named if p.grad.any()}
                reached.setdefault((step, em_round[0]), set()).update(live)
            step(named, state, lr, cfg)

        return record

    monkeypatch.setattr(training, "maximization_phase", maximization)
    for step in (lazy_step, eager_adam_step):
        monkeypatch.setattr(training, "adam_step", recording(step))
        runs[step] = em_train(train, val, test, config)

    assert reached[lazy_step, 1] == {"0", "1"} and reached[lazy_step, 2] == set()
    assert sorted(pool_state[lazy_step].m) == ["pool.0.a", "pool.0.w", "pool.1.a", "pool.1.w"]
    (lazy_params, lazy_metrics), (eager_params, eager_metrics) = runs[lazy_step], runs[eager_adam_step]
    assert lazy_metrics.epochs == eager_metrics.epochs
    assert lazy_metrics.em_errors == eager_metrics.em_errors
    assert lazy_metrics.test_acc == eager_metrics.test_acc
    eager_snapshot = eager_params.snapshot()
    for name, arr in lazy_params.snapshot().items():
        assert arr.tobytes() == eager_snapshot[name].tobytes(), name
    for name, m in pool_state[lazy_step].m.items():
        assert m.tobytes() == pool_state[eager_adam_step].m[name].tobytes(), name
        assert pool_state[lazy_step].v[name].tobytes() == pool_state[eager_adam_step].v[name].tobytes(), name


# ---------------------------------------------------------------- phases


def test_expectation_phase_decreases_loss_on_tiny_set():
    wins = 0
    for seed in range(10):
        ds = make_toy_dataset(2, seed=seed)
        cfg = TOY_CONFIG.with_overrides(seed=seed, epochs=1, batch_size=2)
        params = init_parameters(ds.feature_dim, cfg.hidden, ds.num_classes, cfg.num_pooling_layers, seed)

        def mean_l_exp():
            total = 0.0
            for graph in ds.graphs:
                from lgrpool.model import graph_expectation_loss

                l = graph_expectation_loss(graph, params, cfg)
                total += l.data[0, 0]
            return total / len(ds.graphs)

        before = mean_l_exp()
        expectation_phase(ds, params, cfg, AdamState(), ds, 1, RunMetrics())
        if mean_l_exp() < before:
            wins += 1
    assert wins >= 9


def test_expectation_phase_ignores_gamma():
    train, val, _ = toy_splits()
    outs = []
    for gamma in (0.0, 0.2, 5.0):
        cfg = TOY_CONFIG.with_overrides(gamma=gamma)
        params = init_parameters(train.feature_dim, cfg.hidden, train.num_classes, cfg.num_pooling_layers, 0)
        expectation_phase(train, params, cfg, AdamState(), val, 1, RunMetrics())
        outs.append(params.snapshot())
    for name in outs[0]:
        assert np.array_equal(outs[0][name], outs[1][name])
        assert np.array_equal(outs[0][name], outs[2][name])


def test_freeze_contracts_are_bitwise():
    train, val, _ = toy_splits()
    cfg = TOY_CONFIG
    params = init_parameters(train.feature_dim, cfg.hidden, train.num_classes, cfg.num_pooling_layers, 0)

    before = params.snapshot()
    expectation_phase(train, params, cfg, AdamState(), val, 1, RunMetrics())
    after_e = params.snapshot()
    for name in before:
        if name.startswith("pool."):
            assert np.array_equal(before[name], after_e[name]), name

    maximization_phase(train, params, cfg, AdamState(), None, 1, RunMetrics())
    after_m = params.snapshot()
    for name in after_e:
        if name.startswith("prop."):
            assert np.array_equal(after_e[name], after_m[name]), name


def test_maximization_phase_zero_gamma_keeps_pooling():
    train, _, _ = toy_splits()
    cfg = TOY_CONFIG.with_overrides(gamma=0.0)
    params = init_parameters(train.feature_dim, cfg.hidden, train.num_classes, cfg.num_pooling_layers, 0)
    before = params.snapshot()

    for batch in [train.graphs]:
        params.zero_grad()
        from lgrpool.model import graph_total_loss

        for graph in batch:
            losses = graph_total_loss(graph, params, cfg)
            ad.backward(losses.l_tot)
    for name, p in params.pool.items():
        assert np.array_equal(p.grad, np.zeros_like(p.data)), name

    maximization_phase(train, params, cfg, AdamState(), None, 1, RunMetrics())
    after = params.snapshot()
    for name in before:
        if name.startswith("pool."):
            assert np.array_equal(before[name], after[name]), name


def test_maximization_phase_reduces_precor_error():
    wins = 0
    for seed in range(10):
        ds = make_toy_dataset(6, seed=seed)
        cfg = TOY_CONFIG.with_overrides(seed=seed, epochs=4, batch_size=6)
        params = init_parameters(ds.feature_dim, cfg.hidden, ds.num_classes, cfg.num_pooling_layers, seed)
        before = mean_precor_error(ds, params, cfg)
        after = maximization_phase(ds, params, cfg, AdamState(), None, 1, RunMetrics())
        if after <= before + 1e-12:
            wins += 1
    assert wins >= 8


# -------------------------------------------------------------- em_train


def test_em_round_cap_runs_one_of_each_phase():
    train, val, test = toy_splits()
    cfg = TOY_CONFIG.with_overrides(em_rounds_max=1)
    _, metrics = em_train(train, val, test, cfg)
    phases = [(r.phase, r.em_round) for r in metrics.epochs]
    assert phases == [("E", 1)] * cfg.epochs + [("M", 1)] * cfg.epochs
    assert len(metrics.em_errors) == 1


def test_em_infinite_tolerance_stops_after_first_round():
    train, val, test = toy_splits()
    cfg = TOY_CONFIG.with_overrides(em_rounds_max=5, em_tolerance=float("inf"))
    _, metrics = em_train(train, val, test, cfg)
    assert len(metrics.em_errors) == 1
    assert max(r.em_round for r in metrics.epochs) == 1


def test_em_error_sequence_bounded_by_round_cap():
    train, val, test = toy_splits()
    cfg = TOY_CONFIG.with_overrides(em_rounds_max=3)
    _, metrics = em_train(train, val, test, cfg)
    assert 1 <= len(metrics.em_errors) <= 3


def test_em_train_is_deterministic():
    train, val, test = toy_splits()
    p1, m1 = em_train(train, val, test, TOY_CONFIG)
    p2, m2 = em_train(train, val, test, TOY_CONFIG)
    s1, s2 = p1.snapshot(), p2.snapshot()
    for name in s1:
        assert np.array_equal(s1[name], s2[name]), name
    assert m1.test_acc == m2.test_acc
    assert m1.em_errors == m2.em_errors
    r1 = [(r.epoch, r.phase, r.em_round, r.l_exp, r.l_precor, r.l_tot, r.val_acc) for r in m1.epochs]
    r2 = [(r.epoch, r.phase, r.em_round, r.l_exp, r.l_precor, r.l_tot, r.val_acc) for r in m2.epochs]
    assert r1 == r2


def degenerate_splits():
    """Toy splits whose train set, one batch at TOY_CONFIG's batch_size, also
    holds a single-node graph, a two-node graph and an edgeless graph."""
    rng = np.random.default_rng(3)

    def graph(n, edges, label):
        return Graph(n, edges, rng.normal(size=(n, 2)), label, build_normalized_adjacency(n, edges))

    odd = [graph(1, [], 0), graph(2, [(0, 1)], 1), graph(5, [], 0)]
    train, val, test = toy_splits(5 + 4)
    train = GraphDataset(odd + train.graphs, train.num_classes, train.feature_dim, "degenerate/train")
    return train, val, test


def test_em_train_on_a_batch_of_degenerate_graphs_is_finite_and_deterministic():
    train, val, test = degenerate_splits()
    cfg = TOY_CONFIG.with_overrides(batch_size=len(train.graphs), em_rounds_max=3)
    assert len(list(iterate_batches(train, cfg.batch_size, cfg.seed, 0))) == 1
    frozen = training.initial_parameters(train, cfg).constants()
    depths = [graph_precor_loss(g, frozen, cfg)[1].effective_depth for g in train.graphs]
    assert depths[0] == depths[2] == 0  # no edge to score
    assert max(depths[3:]) >= 1, "no toy graph pools at init"

    runs = [em_train(train, val, test, cfg) for _ in range(2)]
    for _, metrics in runs:
        assert metrics.em_errors and all(np.isfinite(metrics.em_errors))
        for r in metrics.epochs:
            losses = [r.l_exp] if r.phase == "E" else [r.l_exp, r.l_precor, r.l_tot]
            assert all(np.isfinite(losses)), r
        for em_round in range(1, len(metrics.em_errors) + 1):
            m_epochs = [r for r in metrics.epochs if r.phase == "M" and r.em_round == em_round]
            assert len(m_epochs) == cfg.epochs, em_round
    (p1, m1), (p2, m2) = runs
    assert m1.epochs == m2.epochs and m1.em_errors == m2.em_errors
    s1, s2 = p1.snapshot(), p2.snapshot()
    for name in s1:
        assert np.array_equal(s1[name], s2[name]), name


def test_em_train_keeps_best_round_without_reevaluating(monkeypatch):
    train, val, test = toy_splits()
    cfg = TOY_CONFIG.with_overrides(em_rounds_max=3)
    calls, after_m = [], []
    real_maximization_phase = training.maximization_phase

    def rising_evaluate(params, dataset, config):
        calls.append(dataset.name)
        return len(calls) / 100.0  # each evaluation beats every earlier one

    def recording_maximization_phase(*args, **kwargs):
        out = real_maximization_phase(*args, **kwargs)
        after_m.append(args[1].snapshot())
        return out

    monkeypatch.setattr(training, "evaluate", rising_evaluate)
    monkeypatch.setattr(training, "maximization_phase", recording_maximization_phase)
    params, metrics = em_train(train, val, test, cfg)
    assert len(metrics.em_errors) == 3
    # Once per E epoch on val, once on test at the end.
    assert calls.count(val.name) == 3 * cfg.epochs
    assert calls.count(test.name) == 1
    # The last round read the highest accuracy, so its parameters are kept.
    assert not np.array_equal(after_m[0]["prop.w1"], after_m[-1]["prop.w1"])
    for name, arr in params.snapshot().items():
        assert np.array_equal(arr, after_m[-1][name]), name


def offset_em_train(train, val, test, config):
    """Oracle: the round loop with each phase's first epoch passed in and a
    validation pass at the start of every M phase, from public pieces only.

    Returns (params, epoch records as tuples, em_errors, test_acc).
    """
    params = init_parameters(
        train.feature_dim, config.hidden, train.num_classes, config.num_pooling_layers, config.seed
    )
    prop_items, pool_items = params.prop.items(), params.pool.items()
    prop_state, pool_state = AdamState(), AdamState()
    n = len(train.graphs)
    records, em_errors = [], []
    prev_err = mean_precor_error(train, params, config)
    best_val, best = -1.0, params.snapshot()
    for em_round in range(1, config.em_rounds_max + 1):
        e_offset = (em_round - 1) * 2 * config.epochs
        for epoch in range(e_offset, e_offset + config.epochs):
            l_exp = 0.0
            for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
                params.zero_grad()
                for graph in batch:
                    loss = graph_expectation_loss(graph, params, config)
                    l_exp += loss.data[0, 0]
                    ad.backward(ad.scale(loss, 1.0 / len(batch)))
                adam_step(prop_items, prop_state, lr_schedule(epoch, config.lr0), config)
            val_acc = evaluate(params, val, config)
            records.append((epoch, "E", em_round, l_exp / n, None, None, val_acc))

        val_acc = evaluate(params, val, config)
        frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool)
        m_offset = e_offset + config.epochs
        for epoch in range(m_offset, m_offset + config.epochs):
            l_exp = l_precor = l_tot = 0.0
            for batch in iterate_batches(train, config.batch_size, config.seed, epoch):
                params.zero_grad()
                for graph in batch:
                    losses = graph_total_loss(graph, frozen, config)
                    l_exp += losses.l_exp.data[0, 0]
                    l_precor += losses.l_precor.data[0, 0]
                    l_tot += losses.l_tot.data[0, 0]
                    ad.backward(ad.scale(losses.l_tot, 1.0 / len(batch)))
                adam_step(pool_items, pool_state, lr_schedule(epoch, config.lr0), config)
            records.append((epoch, "M", em_round, l_exp / n, l_precor / n, l_tot / n, val_acc))
        err = mean_precor_error(train, params, config)
        em_errors.append(err)
        if val_acc > best_val:
            best_val, best = val_acc, params.snapshot()
        if abs(err - prev_err) / max(1.0, prev_err) < config.em_tolerance:
            break
        prev_err = err
    params.load_snapshot(best)
    return params, records, em_errors, evaluate(params, test, config)


def test_em_train_matches_offset_driver_bitwise():
    train, val, test = toy_splits()
    # 2 rounds of 3-epoch phases run epochs 0-11, across the decay at epoch 10.
    cfg = TOY_CONFIG.with_overrides(epochs=3, em_rounds_max=2, em_tolerance=1e-12)
    want_params, want_records, want_errors, want_test = offset_em_train(train, val, test, cfg)
    params, metrics = em_train(train, val, test, cfg)

    records = [
        (r.epoch, r.phase, r.em_round, r.l_exp, r.l_precor, r.l_tot, r.val_acc) for r in metrics.epochs
    ]
    assert records == want_records
    assert [r[0] for r in records] == list(range(12))
    assert metrics.em_errors == want_errors
    assert metrics.test_acc == want_test
    want = want_params.snapshot()
    for name, arr in params.snapshot().items():
        assert np.array_equal(arr, want[name]), name
    for em_round in (1, 2):
        e_acc = [r.val_acc for r in metrics.epochs if r.em_round == em_round and r.phase == "E"]
        m_acc = [r.val_acc for r in metrics.epochs if r.em_round == em_round and r.phase == "M"]
        assert m_acc == [e_acc[-1]] * cfg.epochs


def test_em_train_passes_em_round_to_maximization_by_keyword(monkeypatch):
    # The benchmark reads kwargs["em_round"] to file each round's pooling
    # counts; a positional em_round would file them all under round 1.
    train, val, test = toy_splits()
    rounds = []
    real_maximization_phase = training.maximization_phase

    def recording_maximization_phase(*args, **kwargs):
        rounds.append(kwargs.get("em_round"))
        return real_maximization_phase(*args, **kwargs)

    monkeypatch.setattr(training, "maximization_phase", recording_maximization_phase)
    _, metrics = em_train(train, val, test, TOY_CONFIG.with_overrides(em_rounds_max=3))
    assert len(metrics.em_errors) == 3
    assert rounds == [1, 2, 3]


@pytest.mark.parametrize(
    "name, failing_call, label",
    [
        ("mean_precor_error", 1, "opening regularizer pass"),
        ("mean_precor_error", 3, "maximization phase, round 2, closing regularizer pass"),
        # Validation runs once per E epoch of the two rounds, then the test set once.
        ("evaluate", 2 * TOY_CONFIG.epochs + 1, "test evaluation"),
    ],
)
def test_em_train_labels_divergence_outside_the_epochs(monkeypatch, name, failing_call, label):
    real = getattr(training, name)
    calls = []

    def diverging(*args):
        calls.append(None)
        if len(calls) == failing_call:
            raise NonFinite("matmul: non-finite forward output")
        return real(*args)

    monkeypatch.setattr(training, name, diverging)
    with pytest.raises(NonFinite) as info:
        em_train(*toy_splits(), TOY_CONFIG)
    assert str(info.value) == f"{label}: matmul: non-finite forward output"


def test_em_train_reports_overflow_as_one_labelled_error_not_a_warning():
    # Node attributes of 1.7e308 are finite but overflow the first matmul.
    train, val, test = toy_splits()
    for split in (train, val, test):
        for graph in split.graphs:
            graph.features = np.full_like(graph.features, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as info:
            em_train(train, val, test, TOY_CONFIG)
    assert str(info.value) == "opening regularizer pass: matmul: non-finite forward output"


def test_labelled_restores_numpy_error_state():
    before = np.geterr()
    with training.labelled("pass"):
        assert np.geterr()["over"] == np.geterr()["invalid"] == "ignore"
    assert np.geterr() == before
    with pytest.raises(NonFinite, match="^pass: boom$"):
        with training.labelled("pass"):
            raise NonFinite("boom")
    assert np.geterr() == before


@pytest.mark.parametrize("phase", [expectation_phase, maximization_phase, mean_precor_error])
def test_empty_train_set_raises_empty_split(phase):
    empty = GraphDataset(graphs=[], num_classes=2, feature_dim=2, name="empty")
    params = init_parameters(2, TOY_CONFIG.hidden, 2, TOY_CONFIG.num_pooling_layers, 0)
    state_args = {
        expectation_phase: (AdamState(), empty, 1, RunMetrics()),
        maximization_phase: (AdamState(), None, 1, RunMetrics()),
    }
    with pytest.raises(EmptySplit):
        phase(empty, params, TOY_CONFIG, *state_args.get(phase, ()))


def test_em_train_rejects_empty_split():
    train, val, test = toy_splits()
    empty = GraphDataset(graphs=[], num_classes=2, feature_dim=2, name="empty")
    with pytest.raises(EmptySplit):
        em_train(train, val, empty, TOY_CONFIG)


# -------------------------------------------------------------- evaluate


def test_evaluate_breaks_ties_toward_lowest_class():
    graphs = []
    for label in (0, 1):
        graphs.append(
            Graph(
                num_nodes=2,
                edges=[(0, 1)],
                features=np.zeros((2, 2)),
                label=label,
                adj_norm=build_normalized_adjacency(2, [(0, 1)]),
            )
        )
    ds = GraphDataset(graphs=graphs, num_classes=2, feature_dim=2, name="ties")
    params = init_parameters(2, 4, 2, 1, 0)
    for _, p in params.prop.items():
        p.data[...] = 0.0  # uniform probabilities, every tie resolves to class 0
    assert evaluate(params, ds, TOY_CONFIG) == 0.5


def test_evaluate_rejects_empty_dataset():
    empty = GraphDataset(graphs=[], num_classes=2, feature_dim=2, name="none")
    with pytest.raises(EmptySplit):
        evaluate(init_parameters(2, 4, 2, 1, 0), empty, TOY_CONFIG)


# ------------------------------------------------------------- artifacts


def test_checkpoint_round_trip(tmp_path):
    train, val, test = toy_splits()
    params, _ = em_train(train, val, test, TOY_CONFIG)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, TOY_CONFIG)

    config, arrays = load_checkpoint(path)
    assert config == TOY_CONFIG
    restored = restore_parameters(train, config, arrays)
    a, b = params.snapshot(), restored.snapshot()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_version_1_checkpoint_is_rejected(tmp_path):
    params = init_parameters(37, 200, 2, 14, 0)
    path = tmp_path / "v1.json"
    # The version-1 writer, kept here as the fixture: nested number lists.
    payload = {
        "format_version": 1,
        "config": TOY_CONFIG.to_dict(),
        "parameters": {name: arr.tolist() for name, arr in params.snapshot().items()},
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="^unsupported checkpoint version 1$"):
        load_checkpoint(path)


def test_version_2_checkpoint_round_trips_bitwise_and_deterministically(tmp_path):
    params = init_parameters(37, 200, 2, 14, 0)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(first, params, TOY_CONFIG)
    save_checkpoint(second, params, TOY_CONFIG)
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["format_version"] == 2
    assert payload["parameters"]["prop.w1"]["shape"] == [37, 200]
    config, arrays = load_checkpoint(first)
    assert config == TOY_CONFIG
    expected = params.snapshot()
    assert arrays.keys() == expected.keys()
    for name, arr in expected.items():
        assert arrays[name].shape == arr.shape, name
        assert arrays[name].tobytes() == arr.tobytes(), name


def test_parameter_names_are_the_checkpoint_key_order(tmp_path):
    params = init_parameters(3, 4, 2, 2, 0)
    names = [
        "prop.w1", "prop.b1", "prop.w2", "prop.b2", "prop.wc", "prop.bc",
        "pool.0.w", "pool.0.a", "pool.1.w", "pool.1.a",
    ]
    assert [name for name, _ in params.items()] == names
    save_checkpoint(tmp_path / "ckpt.json", params, TOY_CONFIG)
    assert list(json.loads((tmp_path / "ckpt.json").read_text())["parameters"]) == names
    frozen = ParameterSet(prop=params.prop.constants(), pool=params.pool.constants())
    assert [name for name, _ in frozen.items()] == names
    for (_, live), (_, const) in zip(params.items(), frozen.items()):
        assert const.data is live.data


def test_checkpoint_with_optimizer_block_still_loads(tmp_path):
    params = init_parameters(2, 4, 2, 1, 0)
    path = tmp_path / "old.json"
    save_checkpoint(path, params, TOY_CONFIG)
    payload = json.loads(path.read_text())
    payload["optimizer"] = {"prop": {"step": 7, "m": {}, "v": {}}}
    path.write_text(json.dumps(payload))
    config, arrays = load_checkpoint(path)
    assert config == TOY_CONFIG
    assert arrays.keys() == params.snapshot().keys()


def test_interrupted_write_keeps_previous_file(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_parameters(2, 4, 2, 1, 0), TOY_CONFIG)
    before = path.read_bytes()

    class Unserializable:
        pass

    with pytest.raises(TypeError):
        with atomic_write(path) as fh:
            json.dump({"parameters": [1.0] * 10000, "bad": Unserializable()}, fh)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.json"]


def test_checkpoint_version_rejected(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 999, "config": {}, "parameters": {}}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    # JSON true and 2.0 compare equal to 1 and 2 but are not versions.
    for version in (True, 2.0, "2"):
        path.write_text(json.dumps({"format_version": version, "config": {}, "parameters": {}}))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_checkpoint(path)


def test_metrics_csv_format(tmp_path):
    train, val, test = toy_splits()
    _, metrics = em_train(train, val, test, TOY_CONFIG.with_overrides(em_rounds_max=1))
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, metrics)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,phase,em_round,l_exp,l_precor,l_tot,val_acc"
    assert len(lines) == 1 + len(metrics.epochs)
    first_e = lines[1].split(",")
    assert first_e[1] == "E"
    assert first_e[4] == "" and first_e[5] == ""  # no regularizer during E
    first_m = lines[1 + TOY_CONFIG.epochs].split(",")
    assert first_m[1] == "M" and first_m[4] != "" and first_m[5] != ""
