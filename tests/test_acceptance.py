"""End-to-end acceptance gate.

Each test prints exactly one line `criterion N: PASS/FAIL/SKIP - detail`
(visible under pytest -s). Criteria 5-7 need the public benchmark
datasets on disk; when a dataset directory is absent they skip with an
explicit reason instead of failing, since nothing can be asserted
without the data.
"""
import io
import os
import time

import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool.cli import main, run_gradcheck
from lgrpool.data import (
    Graph,
    SplitSpec,
    build_normalized_adjacency,
    emit_tu_dataset,
    parse_tu_dataset,
    split_dataset,
)
from lgrpool.model import graph_total_loss, init_parameters
from lgrpool.pooling import contract_graph, hierarchical_pool, normalize_scores
from lgrpool.propagation import ppr_propagate
from lgrpool.training import (
    AdamState,
    RunMetrics,
    TrainingConfig,
    em_train,
    expectation_phase,
    maximization_phase,
)

from ppr_oracle import ppr_closed_form
from toydata import make_toy_dataset


def _report(num: int, status: str, detail: str):
    print(f"criterion {num}: {status} - {detail}")


def _finish(num: int, check):
    try:
        detail = check()
    except AssertionError as exc:
        _report(num, "FAIL", str(exc))
        raise
    _report(num, "PASS", detail)


def _random_graph(rng, n, p, d_in, num_classes=2):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(
        num_nodes=n,
        edges=edges,
        features=rng.normal(size=(n, d_in)),
        label=int(rng.integers(num_classes)),
        adj_norm=build_normalized_adjacency(n, edges),
    )


def _dataset_dir(name: str):
    roots = []
    env = os.environ.get("LGRPOOL_DATA")
    if env:
        roots.append(env)
    roots.append("data")
    for root in roots:
        candidate = os.path.join(root, name)
        if os.path.isdir(candidate):
            return candidate
    return None


def _require_dataset(num: int, name: str):
    path = _dataset_dir(name)
    if path is None:
        reason = (
            f"dataset {name} not on disk (set LGRPOOL_DATA or place it "
            f"under data/{name}); unobtainable in this environment"
        )
        _report(num, "SKIP", reason)
        pytest.skip(reason)
    return path


def test_criterion_01_ppr_oracle_equivalence():
    def check():
        t0 = time.perf_counter()
        alpha = 0.3
        rng = np.random.default_rng(0)
        worst_final = 0.0
        worst_ratio = 0.0
        for _ in range(20):
            n = int(rng.integers(4, 21))
            graph = _random_graph(rng, n, 0.4, d_in=4)
            h = rng.uniform(-1, 1, size=(n, 4))
            exact = ppr_closed_form(graph.adj_norm.to_dense(), h, alpha)
            errors = [np.abs(h - exact).max()]
            for k in range(1, 51):
                z = ppr_propagate(graph.adj_norm, ad.constant(h), alpha, k).data
                errors.append(np.abs(z - exact).max())
            worst_final = max(worst_final, errors[-1])
            for prev, cur in zip(errors, errors[1:]):
                if prev > 1e-10:
                    worst_ratio = max(worst_ratio, cur / prev)
        elapsed = time.perf_counter() - t0
        assert worst_final <= 1e-8, f"final error {worst_final:.3e} exceeds 1e-8"
        assert worst_ratio <= (1 - alpha) + 1e-6, (
            f"per-iteration ratio {worst_ratio:.6f} exceeds {(1 - alpha) + 1e-6}"
        )
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
        return (
            f"20 graphs, k=50: final error {worst_final:.2e} (<=1e-8), "
            f"max ratio {worst_ratio:.3f} (<=0.7+1e-6), {elapsed:.1f}s"
        )

    _finish(1, check)


def test_criterion_02_gradient_suite():
    def check():
        t0 = time.perf_counter()
        stream = io.StringIO()
        rc = run_gradcheck(1e-6, stream=stream)
        elapsed = time.perf_counter() - t0
        lines = stream.getvalue().strip().split("\n")
        assert rc == 0, f"gradcheck exit {rc}: {lines[-1]}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
        checked = sum(1 for ln in lines if "max_rel_err" in ln)
        return f"{checked} targets all <=1e-4 rel err, {elapsed:.1f}s"

    _finish(2, check)


def test_criterion_03_permutation_invariance():
    def check():
        t0 = time.perf_counter()
        worst = 0.0
        config = TrainingConfig(alpha=0.3, k=4, s_thre=0.5, num_pooling_layers=3, gamma=0.2)
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 13))
            graph = _random_graph(rng, n, 0.35, d_in=4)
            perm = rng.permutation(n)
            pos = np.empty(n, dtype=int)
            pos[perm] = np.arange(n)
            p_edges = sorted(
                tuple(sorted((int(pos[i]), int(pos[j])))) for i, j in graph.edges
            )
            permuted = Graph(
                num_nodes=n,
                edges=p_edges,
                features=graph.features[perm],
                label=graph.label,
                adj_norm=build_normalized_adjacency(n, p_edges),
            )
            params = init_parameters(4, 6, 2, 3, seed)
            a = graph_total_loss(graph, params, config)
            b = graph_total_loss(permuted, params, config)
            diff = abs(a.l_tot.data[0, 0] - b.l_tot.data[0, 0])
            worst = max(worst, diff)
            counts = lambda tr: [lt.merge.num_supernodes for lt in tr.layers]
            assert counts(a.trace) == counts(b.trace), (
                f"seed {seed}: supernode counts differ {counts(a.trace)} vs {counts(b.trace)}"
            )
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-9, f"|L_tot drift| {worst:.3e} exceeds 1e-9"
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        return f"50 pairs: max |L_tot drift| {worst:.2e} (<=1e-9), counts equal, {elapsed:.1f}s"

    _finish(3, check)


def test_criterion_04_contraction_properties():
    def check():
        t0 = time.perf_counter()
        from lgrpool.pooling import PoolingParams, PoolLayerParams

        def components(num_nodes, edges):
            parent = list(range(num_nodes))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j in edges:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
            return len({find(v) for v in range(num_nodes)})

        for seed in range(200):
            rng = np.random.default_rng(2000 + seed)
            n = int(rng.integers(4, 16))
            graph = _random_graph(rng, n, 0.35, d_in=4)
            hidden = 4
            params = PoolingParams(
                layers=[
                    PoolLayerParams(
                        w=ad.parameter(rng.normal(size=(hidden, hidden))),
                        a=ad.parameter(rng.normal(size=(2 * hidden, 1))),
                    )
                    for _ in range(3)
                ]
            )
            trace = hierarchical_pool(graph, ad.constant(graph.features), params, 0.5)

            top = trace.composed_map.max() if len(trace.composed_map) else 0
            assert set(trace.composed_map) == set(range(top + 1)), (
                f"seed {seed}: composed map not surjective"
            )

            fine_edges, fine_n = graph.edges, n
            for lt in trace.layers:
                assert lt.merge.num_supernodes <= fine_n, (
                    f"seed {seed}: supernode count increased"
                )
                images = {
                    tuple(sorted((lt.merge.assignment[i], lt.merge.assignment[j])))
                    for i, j in fine_edges
                    if lt.merge.assignment[i] != lt.merge.assignment[j]
                }
                assert set(map(tuple, lt.coarse_edges.tolist())) == images, (
                    f"seed {seed}: coarse edge without fine preimage"
                )
                assert components(lt.merge.num_supernodes, lt.coarse_edges) <= components(
                    fine_n, fine_edges
                ), f"seed {seed}: component count increased"
                fine_edges, fine_n = lt.coarse_edges, lt.merge.num_supernodes

            if graph.edges:
                scores = rng.uniform(0.05, 0.95, size=len(graph.edges))
                prev = 0
                for s_thre in (0.3, 0.5, 0.7):
                    norm = normalize_scores(
                        ad.constant(scores.reshape(-1, 1)), graph.edges, n, s_thre
                    )
                    _, _, merge = contract_graph(
                        n, graph.edges, norm, ad.constant(graph.features)
                    )
                    assert merge.num_supernodes >= prev, (
                        f"seed {seed}: raising s_thre decreased supernode count"
                    )
                    prev = merge.num_supernodes
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        return f"200 graphs: all contraction and threshold properties hold, {elapsed:.1f}s"

    _finish(4, check)


def test_criterion_05_dataset_parse_fidelity():
    specs = [
        ("MUTAG", 188, 2, 17.9, 0.05),
        ("PROTEINS", 1113, None, 39.1, 0.05),
        ("DD", 1178, None, 284.3, 0.5),
        ("NCI1", 4110, None, 29.8, 0.05),
    ]
    missing = [name for name, *_ in specs if _dataset_dir(name) is None]
    if missing:
        reason = (
            f"datasets {', '.join(missing)} not on disk (set LGRPOOL_DATA or "
            f"place them under data/); unobtainable in this environment"
        )
        _report(5, "SKIP", reason)
        pytest.skip(reason)

    def check():
        details = []
        for name, graphs, classes, avg_nodes, tol in specs:
            ds = parse_tu_dataset(_dataset_dir(name), name)
            summary = ds.summary()
            assert summary["graphs"] == graphs, (
                f"{name}: {summary['graphs']} graphs, expected {graphs}"
            )
            if classes is not None:
                assert summary["classes"] == classes, (
                    f"{name}: {summary['classes']} classes, expected {classes}"
                )
            assert abs(summary["avg_nodes"] - avg_nodes) <= tol, (
                f"{name}: avg nodes {summary['avg_nodes']:.2f}, expected {avg_nodes}+-{tol}"
            )
            details.append(f"{name} {summary['graphs']}/{summary['avg_nodes']:.1f}")
        return "; ".join(details)

    _finish(5, check)


def test_criterion_06_mutag_desk_accuracy():
    path = _require_dataset(6, "MUTAG")

    def check():
        t0 = time.perf_counter()
        dataset = parse_tu_dataset(path, "MUTAG")
        accs = []
        for seed in range(10):
            config = TrainingConfig.desk(seed=seed)
            train, val, test = split_dataset(dataset, SplitSpec(seed=seed))
            _, metrics = em_train(train, val, test, config)
            accs.append(metrics.test_acc)
        elapsed = time.perf_counter() - t0
        mean = float(np.mean(accs))
        assert mean >= 0.75, f"10-seed mean accuracy {mean:.4f} below 0.75"
        assert elapsed <= 900.0, f"runtime {elapsed:.0f}s exceeds 15 min"
        return f"10-seed mean {mean:.4f} (>=0.75), {elapsed:.0f}s"

    _finish(6, check)


def test_criterion_07_gamma_ablation_shape():
    path = _require_dataset(7, "MUTAG")

    def check():
        t0 = time.perf_counter()
        dataset = parse_tu_dataset(path, "MUTAG")
        config = TrainingConfig.desk()
        means = {}
        for gamma in (0.1, 0.2, 0.3):
            accs = []
            for seed in range(10):
                cfg = config.with_overrides(gamma=gamma, seed=seed)
                train, val, test = split_dataset(dataset, SplitSpec(seed=seed))
                _, metrics = em_train(train, val, test, cfg)
                accs.append(metrics.test_acc)
            means[gamma] = float(np.mean(accs))
        elapsed = time.perf_counter() - t0
        assert means[0.2] > means[0.1], (
            f"mean(gamma=0.2)={means[0.2]:.4f} not above mean(gamma=0.1)={means[0.1]:.4f}"
        )
        assert means[0.2] >= means[0.3] - 0.02, (
            f"mean(gamma=0.2)={means[0.2]:.4f} below mean(gamma=0.3)-2pts={means[0.3] - 0.02:.4f}"
        )
        assert elapsed <= 7200.0, f"runtime {elapsed:.0f}s exceeds 2h"
        return (
            f"means gamma 0.1/0.2/0.3 = {means[0.1]:.4f}/{means[0.2]:.4f}/{means[0.3]:.4f}, "
            f"{elapsed:.0f}s"
        )

    _finish(7, check)


def test_criterion_08_em_error_non_increasing():
    def check():
        ds = make_toy_dataset(26)
        train = ds.subset(range(20), "/train")
        val = ds.subset(range(20, 23), "/val")
        test = ds.subset(range(23, 26), "/test")
        monotone = 0
        for seed in range(10):
            config = TrainingConfig(
                batch_size=8,
                num_pooling_layers=3,
                k=4,
                alpha=0.3,
                epochs=8,
                hidden=8,
                em_rounds_max=3,
                em_tolerance=1e-12,
                seed=seed,
            )
            _, metrics = em_train(train, val, test, config)
            errs = metrics.em_errors
            if all(b <= a + 1e-12 for a, b in zip(errs, errs[1:])):
                monotone += 1
        assert monotone >= 8, f"error sequence non-increasing in only {monotone}/10 seeds"
        return f"20-graph toy set: non-increasing EM error in {monotone}/10 seeds (>=8)"

    _finish(8, check)


def test_criterion_09_freeze_and_decoupling():
    def check():
        ds = make_toy_dataset(12)
        train = ds.subset(range(8), "/train")
        config = TrainingConfig(
            batch_size=4,
            num_pooling_layers=2,
            k=3,
            epochs=2,
            hidden=6,
            em_rounds_max=1,
            seed=0,
        )
        params = init_parameters(
            train.feature_dim, config.hidden, train.num_classes, config.num_pooling_layers, 0
        )

        before = params.snapshot()
        expectation_phase(train, params, config, AdamState(), train, 1, RunMetrics())
        after_e = params.snapshot()
        for name in before:
            if name.startswith("pool."):
                assert np.array_equal(before[name], after_e[name]), (
                    f"{name} changed during the expectation phase"
                )

        maximization_phase(train, params, config, AdamState(), None, 1, RunMetrics())
        after_m = params.snapshot()
        for name in after_e:
            if name.startswith("prop."):
                assert np.array_equal(after_e[name], after_m[name]), (
                    f"{name} changed during the maximization phase"
                )

        params.zero_grad()
        for graph in train.graphs:
            losses = graph_total_loss(graph, params, config.with_overrides(gamma=0.0))
            ad.backward(losses.l_tot)
        for name, p in params.pool.items():
            assert np.array_equal(p.grad, np.zeros_like(p.data)), (
                f"{name} received gradient at gamma=0"
            )
        return "theta frozen through M, pooling frozen through E (bitwise); gamma=0 grads zero"

    _finish(9, check)


def test_criterion_10_training_determinism(tmp_path):
    def check():
        data_dir = tmp_path / "TOY"
        emit_tu_dataset(make_toy_dataset(10), str(data_dir))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"run_{run}"
            rc = main(
                [
                    "train",
                    "--dataset",
                    str(data_dir),
                    "--config",
                    "configs/desk.cfg",
                    "--seeds",
                    "0",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0, f"train exit code {rc}"
            with open(out / "metrics_seed0.csv", "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1], "metrics CSVs differ between identical runs"
        return f"two desk-profile runs byte-identical ({len(blobs[0])} bytes of metrics)"

    _finish(10, check)
