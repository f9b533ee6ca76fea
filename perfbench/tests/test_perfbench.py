"""Tests of the benchmark itself: generator, span arithmetic, tracing.

    python3 -m pytest perfbench/tests
"""
import json
import os

import numpy as np
import pytest

from lgrpool import data, training
from lgrpool.data import SplitSpec
from lgrpool.training import TrainingConfig

from perfbench import gen, layers, workloads
from perfbench.spans import SpanRecorder, Target, instrument, self_times, summarize

TINY = gen.DatasetSpec("TINY", 16, 9.0, 14.0, 3, 2)
TINY_CONFIG = TrainingConfig(
    hidden=6, k=3, num_pooling_layers=3, batch_size=4, epochs=1, em_rounds_max=2,
    em_tolerance=1e-12,
)


def _fingerprint(ds):
    return [
        (g.num_nodes, g.edges, g.label, g.node_labels, g.features.tobytes())
        for g in ds.graphs
    ]


@pytest.mark.parametrize("seed", [0, 5])
def test_generator_is_deterministic_per_seed(seed):
    assert _fingerprint(gen.generate(TINY, seed)) == _fingerprint(gen.generate(TINY, seed))
    assert _fingerprint(gen.generate(TINY, seed)) != _fingerprint(gen.generate(TINY, seed + 1))


def test_generated_dataset_round_trips_with_target_statistics(tmp_path):
    spec = workloads.WORKLOADS["train-small"].spec
    generated = gen.generate(spec, 2)
    data.emit_tu_dataset(generated, str(tmp_path / spec.name))
    parsed = data.parse_tu_dataset(str(tmp_path / spec.name), spec.name)
    stats, problems = workloads.dataset_stats(parsed, spec)
    assert problems == []
    assert stats["feature_dim"] == spec.node_labels + spec.attr_dim
    for g_gen, g_parsed in zip(generated.graphs, parsed.graphs):
        assert g_gen.edges == g_parsed.edges
        np.testing.assert_array_equal(g_gen.features, g_parsed.features)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [0, 0.0, 10.0, -1, 0],  # root
        [1, 1.0, 3.0, 0, 0],    # child
        [1, 2.0, 5.0, 0, 0],    # overlaps the first child: union is [1, 5]
        [2, 8.0, 12.0, 0, 0],   # runs past the root: clipped to [8, 10]
        [3, 1.5, 2.5, 1, 0],    # grandchild: charged to its own parent only
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_recorder_nests_spans_and_passes_results_through():
    class Box:
        @staticmethod
        def inner(x):
            return x

        @staticmethod
        def outer(x):
            return Box.inner(x)

    rec = SpanRecorder()
    rec.begin_run("r")
    token = object()
    targets = [Target(Box, "outer", "outer"), Target(Box, "inner", "inner")]
    original = Box.__dict__["inner"]
    with instrument(rec, targets):
        assert Box.outer(token) is token
    assert Box.__dict__["inner"] is original
    (outer, inner) = rec.spans
    assert rec.names[outer[0]] == "outer" and outer[3] == -1
    assert rec.names[inner[0]] == "inner" and inner[3] == 0
    summary = summarize(rec)
    assert summary["outer"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["s"] - summary["inner"]["s"]
    )


def test_traced_and_untraced_training_are_bit_identical(tmp_path):
    data.emit_tu_dataset(gen.generate(TINY, 1), str(tmp_path / "TINY"))
    ds = data.parse_tu_dataset(str(tmp_path / "TINY"), "TINY")
    splits = data.split_dataset(ds, SplitSpec(seed=0))

    plain_rec = SpanRecorder()
    plain_rec.begin_run("plain")
    with instrument(plain_rec, layers.phase_targets()):
        params_a, metrics_a = training.em_train(*splits, TINY_CONFIG)

    rec = SpanRecorder()
    rec.begin_run("traced")
    pool = layers.PoolingCounts()
    with instrument(rec, layers.layer_targets(pool)):
        params_b, metrics_b = training.em_train(*splits, TINY_CONFIG)

    assert workloads.mismatches(
        workloads.train_outputs(metrics_b), workloads.train_outputs(metrics_a), 0.0, 0.0
    ) == []
    for name, arr in params_a.snapshot().items():
        np.testing.assert_array_equal(arr, params_b.snapshot()[name])
    assert rec.total("autodiff.tape_nodes") > 0
    assert pool.groups["init"]["graphs"] == len(splits[0].graphs)
    summary = summarize(rec)
    assert summary["autodiff.backward"]["calls"] > 0
    assert summary["sparse.matmul_dense"]["calls"] > 0


def test_benchmark_json_lists_every_traced_function():
    path = os.path.join(os.path.dirname(workloads.REFERENCE_PATH), os.pardir, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    reported = {f"{name}.{stat}" for name in layers.traced_functions() for stat in ("calls", "s", "self_s")}
    reported |= set(layers.PoolingCounts().metrics())
    reported |= {"autodiff.tape_nodes", "training.checkpoint_bytes", "trace.overhead_s", "trace.overhead_frac"}
    assert declared == reported


def test_mismatches_respects_tolerance():
    ref = {"a": [1.0, "E", None], "b": 2.0}
    assert workloads.mismatches({"a": [1.0 + 1e-12, "E", None], "b": 2.0}, ref, 1e-6, 0.0) == []
    assert workloads.mismatches({"a": [1.1, "E", None], "b": 2.0}, ref, 1e-6, 0.0)
    assert workloads.mismatches({"a": [1.0, "M", None], "b": 2.0}, ref, 1e-6, 0.0)
    assert workloads.nonfinite({"a": [float("nan")]}) == ["/a/0: nan"]
