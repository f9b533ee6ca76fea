"""Benchmark workloads: generated TU inputs, timed calls, output checks.

The users are researchers training and evaluating graph classifiers on a
few CPU cores, one process with one job in flight: a closed loop with a
single client. So every end-to-end metric is seconds per unit of work or
graphs per second at the workload's stated graph size.

A workload's inputs come from ``seed % INSTANCES``: the reference
outputs every run is checked against are stored for each instance.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass

from lgrpool import cli, data, model, training
from lgrpool.data import SplitSpec
from lgrpool.training import TrainingConfig

from . import gen, layers
from .spans import SpanRecorder, instrument, summarize

INSTANCES = 10
SETUP_REPS = 3
# Default widths (hidden 200, k 10, 14 pooling layers, batch 32) with
# one-epoch phases and at most two EM rounds. train-* runs both rounds on
# every instance. On eval-saved, the seed-0 checkpoint training stops
# after one round: its EM error does not change, and em_tolerance must be
# positive.
CONFIG = TrainingConfig(epochs=1, em_rounds_max=2, em_tolerance=1e-12)
EVAL_SEEDS = (0, 1, 2)
# eval-saved's run directory holds a checkpoint for each of these seeds:
# the EVAL_SEEDS ones trained, the rest copies of them. Evaluation is
# forward only, so its cost does not depend on the weights; the copies
# give each ``lgrpool eval`` call more evaluation per dataset parse.
EVAL_RUN_SEEDS = tuple(range(10))
# eval-saved trains its checkpoints on these leading train/val/test
# graphs of each seed's split, then evaluates them on the full test split.
EVAL_TRAIN_SUBSET = (256, 16, 16)
LOSS_RTOL = 1e-6
LOSS_ATOL = 1e-9
NODES_RTOL = 0.02
EDGES_RTOL = 0.05

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "round_s": "s",
    "e_graphs_per_s": "graphs/s",
    "m_graphs_per_s": "graphs/s",
    "eval_graphs_per_s": "graphs/s",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    spec: gen.DatasetSpec
    evaluates_saved: bool


WORKLOADS = {
    w.name: w
    for w in (
        # PROTEINS-like: tiny per-graph ops, so tape bookkeeping, backward
        # and Python loops dominate.
        Workload("train-small", gen.DatasetSpec("PROTEINS_LIKE", 300, 39.1, 72.8, 3, 2), False),
        # DD-like: large graphs, so spmm, n x 200 matmuls, edge-score
        # concatenations and coarse-adjacency builds dominate.
        Workload("train-large", gen.DatasetSpec("DD_LIKE", 64, 284.3, 715.7, 89, 2), False),
        # NCI1-like: many small graphs through the forward-only eval path
        # (checkpoint JSON, propagation forward); its parse is timed by
        # setup_s, not by eval_graphs_per_s.
        Workload("eval-saved", gen.DatasetSpec("NCI1_LIKE", 4110, 29.9, 32.3, 37, 0), True),
    )
}


# ------------------------------------------------------------------ outputs


def train_outputs(metrics) -> dict:
    """The per-epoch losses, EM errors and test accuracy of one em_train."""

    def num(x):
        return None if x is None else float(x)

    return {
        "epochs": [
            [r.epoch, r.phase, r.em_round, num(r.l_exp), num(r.l_precor), num(r.l_tot), num(r.val_acc)]
            for r in metrics.epochs
        ],
        "em_errors": [float(x) for x in metrics.em_errors],
        "test_acc": float(metrics.test_acc),
    }


def mismatches(actual, expected, rtol: float, atol: float, path: str = "") -> list[str]:
    """Where ``actual`` differs from ``expected``; numbers within tolerance."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], rtol, atol, f"{path}/{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, e in enumerate(expected) for m in mismatches(actual[i], e, rtol, atol, f"{path}/{i}")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if abs(actual - expected) <= atol + rtol * abs(expected):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != {expected!r}"]


def nonfinite(outputs, path: str = "") -> list[str]:
    if isinstance(outputs, dict):
        return [m for k, v in outputs.items() for m in nonfinite(v, f"{path}/{k}")]
    if isinstance(outputs, list):
        return [m for i, v in enumerate(outputs) for m in nonfinite(v, f"{path}/{i}")]
    if isinstance(outputs, float) and not math.isfinite(outputs):
        return [f"{path}: {outputs!r}"]
    return []


def load_reference(workload: str, instance: int):
    if not os.path.isfile(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(instance))


def dataset_stats(ds, spec: gen.DatasetSpec) -> tuple[dict, list[str]]:
    """Realized statistics and how they miss the workload's targets."""
    s = ds.summary()
    stats = {k: s[k] for k in ("graphs", "avg_nodes", "avg_edges", "feature_dim")}
    problems = []
    if s["graphs"] != spec.num_graphs:
        problems.append(f"graphs {s['graphs']} != {spec.num_graphs}")
    if s["feature_dim"] != spec.feature_dim:
        problems.append(f"feature_dim {s['feature_dim']} != {spec.feature_dim}")
    if abs(s["avg_nodes"] - spec.mean_nodes) > NODES_RTOL * spec.mean_nodes:
        problems.append(f"avg_nodes {s['avg_nodes']:.2f} far from {spec.mean_nodes}")
    if abs(s["avg_edges"] - spec.mean_edges) > EDGES_RTOL * spec.mean_edges:
        problems.append(f"avg_edges {s['avg_edges']:.2f} far from {spec.mean_edges}")
    return stats, problems


# -------------------------------------------------------------------- a run


class Run:
    """Operation accounting and output checks for one benchmark run."""

    def __init__(self, workload: Workload, seed: int, reference):
        self.workload = workload
        self.instance = seed % INSTANCES
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def attempt(self, rec: SpanRecorder, label: str, fn, *args):
        """Run one operation as its own span run; None if it raised."""
        self.attempted += 1
        rec.begin_run(f"{self.workload.name}/{self.instance}/{label}")
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.problems.append(f"{label}: raised")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, outputs, expected) -> None:
        """Count the last operation failed if its outputs are wrong."""
        bad = nonfinite(outputs)
        if expected is None:
            if self.reference is not None:
                bad.append("no reference output")
        else:
            bad += mismatches(outputs, expected, LOSS_RTOL, LOSS_ATOL)
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(bad[:3]))

    def expected(self, *keys):
        ref = self.reference
        for key in keys:
            ref = None if ref is None else ref.get(key)
        return ref

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)


def _span_durations(rec: SpanRecorder, run: int):
    """(index, name, parent, seconds) of every span of one run."""
    return [
        (i, rec.names[row[0]], row[3], row[2] - row[1])
        for i, row in enumerate(rec.spans)
        if row[4] == run
    ]


def train_samples(rec: SpanRecorder, calls) -> dict:
    """End-to-end numbers pooled over em_train calls, from phase spans.

    ``calls`` lists ``(run index, train graphs, EM rounds)`` per call.
    """
    em_total = round_total = rounds = phase_graphs = 0.0
    e_time = m_time = eval_time = eval_graphs = 0.0
    for run, train_graphs, n_rounds in calls:
        spans = _span_durations(rec, run)
        em_idx, _, _, em_s = next(s for s in spans if s[1] == "training.em_train")
        direct = [s for s in spans if s[2] == em_idx]
        init_mpe = next(s[3] for s in direct if s[1] == "training.mean_precor_error")
        test_eval = [s[3] for s in direct if s[1] == "training.evaluate"][-1]
        em_total += em_s
        round_total += em_s - init_mpe - test_eval
        rounds += n_rounds
        phase_graphs += train_graphs * CONFIG.epochs * n_rounds
        e_time += sum(s[3] for s in spans if s[1] == "training.expectation_phase")
        m_time += sum(s[3] for s in spans if s[1] == "training.maximization_phase")
        eval_time += sum(s[3] for s in spans if s[1] == "training.evaluate")
        eval_graphs += rec.counters[run]["training.evaluate.graphs"]
    return {
        "train_s": em_total / len(calls),
        "round_s": round_total / rounds,
        "e_graphs_per_s": phase_graphs / e_time,
        "m_graphs_per_s": phase_graphs / m_time,
        "eval_graphs_per_s": eval_graphs / eval_time,
    }


def repeat(seconds: float, once) -> None:
    """Call ``once`` at least one time, then again while a call of average
    length still fits in ``seconds``; stop when it returns False."""
    start = time.perf_counter()
    calls = 0
    while once():
        calls += 1
        if (time.perf_counter() - start) * (calls + 1) / calls > seconds:
            return


def _setup_once(data_dir: str, name: str, with_params: bool):
    start = time.perf_counter()
    ds = data.parse_tu_dataset(data_dir, name)
    splits = data.split_dataset(ds, SplitSpec(seed=CONFIG.seed))
    if with_params:
        model.init_parameters(
            ds.feature_dim, CONFIG.hidden, ds.num_classes, CONFIG.num_pooling_layers, CONFIG.seed
        )
    return time.perf_counter() - start, ds, splits


def setup(run: Run, rec: SpanRecorder, data_dir: str):
    """SETUP_REPS timed set-ups; the last one's dataset and splits."""
    result = None
    for rep in range(SETUP_REPS):
        result = run.attempt(
            rec, f"setup {rep}", _setup_once, data_dir, run.workload.spec.name,
            not run.workload.evaluates_saved,
        )
        if result is None:
            return None
        run.add("setup_s", result[0])
    return result[1], result[2]


def _train(run: Run, rec: SpanRecorder, label: str, splits, config, expected):
    """One checked em_train call: (params, outputs, span call record)."""
    result = run.attempt(rec, label, training.em_train, *splits, config)
    if result is None:
        return None, None, None
    params, metrics = result
    outputs = train_outputs(metrics)
    run.check(label, outputs, expected)
    call = (len(rec.run_ids) - 1, len(splits[0].graphs), len(metrics.em_errors))
    return params, outputs, call


def train_section(run: Run, rec: SpanRecorder, splits, seconds: float) -> dict:
    """Whole em_train calls for about ``seconds`` (at least one).

    Each end-to-end number is pooled over the run's calls: total work
    over total time. A run fits only a few calls, and on a shared host,
    whose speed changes every few seconds, the pooled numbers of ten runs
    spread less than medians of per-call numbers."""
    outputs = {"train": None}
    calls = []

    def once():
        _, outputs["train"], call = _train(run, rec, "em_train", splits, CONFIG, run.expected("train"))
        if call is None:
            return False
        calls.append(call)
        return True

    repeat(seconds, once)
    if calls:
        for key, value in train_samples(rec, calls).items():
            run.add(key, value)
    return outputs


def _cli_eval(run_dir: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["eval", "--out", run_dir])
    if rc != 0:
        raise RuntimeError(f"lgrpool eval exited with code {rc}")
    summary = json.loads(buf.getvalue().strip().splitlines()[-1])
    return {str(row["seed"]): row["test_acc"] for row in summary["per_seed"]}


def eval_section(run: Run, rec: SpanRecorder, ds, data_dir: str, work: str, seconds: float) -> dict:
    """Train a checkpoint per EVAL_SEEDS seed and copy them to the other
    EVAL_RUN_SEEDS, then time ``lgrpool eval`` in-process on the run
    directory for about ``seconds`` (at least once). The trainings come
    before the budget, so it all goes to eval calls.

    Like the train numbers, eval_graphs_per_s is pooled over the run's
    calls: test graphs over the time ``cli.main`` spent after parsing,
    since ``setup_s`` times parsing.
    """
    run_dir = os.path.join(work, "run")
    os.makedirs(run_dir, exist_ok=True)
    outputs = {"train": {}, "eval": None}
    calls = []
    for seed in EVAL_SEEDS:
        splits = data.split_dataset(ds, SplitSpec(seed=seed))
        subsets = [part.subset(range(n)) for part, n in zip(splits, EVAL_TRAIN_SUBSET)]
        config = CONFIG.with_overrides(seed=seed)
        params, outputs["train"][str(seed)], call = _train(
            run, rec, f"em_train seed {seed}", subsets, config, run.expected("train", str(seed))
        )
        if params is None:
            return outputs
        calls.append(call)
        training.save_checkpoint(os.path.join(run_dir, f"checkpoint_seed{seed}.json"), params, config)
    for seed in EVAL_RUN_SEEDS[len(EVAL_SEEDS):]:
        shutil.copyfile(
            os.path.join(run_dir, f"checkpoint_seed{EVAL_SEEDS[seed % len(EVAL_SEEDS)]}.json"),
            os.path.join(run_dir, f"checkpoint_seed{seed}.json"),
        )
    # The seeds' trainings differ in kind (pooling dies at different
    # rounds), so they are pooled into one sample rather than medianed.
    for key, value in train_samples(rec, calls).items():
        if key != "eval_graphs_per_s":
            run.add(key, value)
    cli.write_manifest(run_dir, "train", CONFIG, ds.name, data_dir, EVAL_RUN_SEEDS)
    test_graphs = sum(
        len(data.split_dataset(ds, SplitSpec(seed=seed))[2].graphs) for seed in EVAL_RUN_SEEDS
    )
    eval_s = []

    def once():
        accs = run.attempt(rec, "cli eval", _cli_eval, run_dir)
        if accs is None:
            return False
        outputs["eval"] = accs
        run.check("cli eval", accs, run.expected("eval"))
        spans = _span_durations(rec, len(rec.run_ids) - 1)
        (cli_s,) = [s[3] for s in spans if s[1] == "cli.main"]
        (parse_s,) = [s[3] for s in spans if s[1] == "data.parse_tu_dataset"]
        eval_s.append(cli_s - parse_s)
        return True

    repeat(seconds, once)
    if eval_s:
        run.add("eval_graphs_per_s", test_graphs * len(eval_s) / sum(eval_s))
    return outputs


def measured_section(run: Run, rec: SpanRecorder, prepared, data_dir, work, seconds):
    ds, splits = prepared
    if run.workload.evaluates_saved:
        return eval_section(run, rec, ds, data_dir, work, seconds)
    return train_section(run, rec, splits, seconds)


# ------------------------------------------------------------- entry points


def _layer_metrics(rec: SpanRecorder, pool: layers.PoolingCounts, overhead_s: float, base_s: float) -> dict:
    summary = summarize(rec)
    out = {}
    for name in layers.traced_functions():
        agg = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (agg["calls"], "count")
        out[f"{name}.s"] = (agg["s"], "s")
        out[f"{name}.self_s"] = (agg["self_s"], "s")
    out["autodiff.tape_nodes"] = (rec.total("autodiff.tape_nodes"), "count")
    out["training.checkpoint_bytes"] = (rec.total("training.checkpoint_bytes"), "bytes")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.overhead_frac"] = (overhead_s / base_s, "ratio")
    out.update(pool.metrics())
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str, reference) -> dict:
    """One benchmark run.

    ``reference`` holds the expected outputs of this instance; an empty
    dict fails every check, and None skips the comparison (used only to
    record references).
    """
    workload = WORKLOADS[name]
    run = Run(workload, seed, reference)
    rec = SpanRecorder()
    result = {"workload": name, "seed": seed, "instance": run.instance, "trace": trace}
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{name}-") as work:
        data_dir = os.path.join(work, workload.spec.name)
        data.emit_tu_dataset(gen.generate(workload.spec, run.instance), data_dir)

        if not trace:
            with instrument(rec, layers.phase_targets()):
                prepared = setup(run, rec, data_dir)
                if prepared is not None:
                    result["outputs"] = measured_section(run, rec, prepared, data_dir, work, seconds)
        else:
            pool = layers.PoolingCounts()
            with instrument(rec, layers.layer_targets(pool)):
                prepared = setup(run, rec, data_dir)
            if prepared is not None:
                plain = SpanRecorder()
                with instrument(plain, layers.phase_targets()):
                    start = time.perf_counter()
                    untraced = measured_section(run, plain, prepared, data_dir, work, 0.0)
                    untraced_s = time.perf_counter() - start
                with instrument(rec, layers.layer_targets(pool)):
                    start = time.perf_counter()
                    traced = measured_section(run, rec, prepared, data_dir, work, 0.0)
                    traced_s = time.perf_counter() - start
                bad = mismatches(traced, untraced, 0.0, 0.0)
                if bad:
                    run.failed += 1
                    run.problems.append("traced outputs differ from untraced: " + "; ".join(bad[:3]))
                result["outputs"] = traced
                result["pooling_groups"] = pool.groups
                result["layer_metrics"] = _layer_metrics(rec, pool, traced_s - untraced_s, untraced_s)

    if prepared is not None:
        result["dataset"], problems = dataset_stats(prepared[0], workload.spec)
        run.problems += [f"dataset: {p}" for p in problems]

    # A trace run reports layer metrics only; its timings mix traced and
    # untraced passes, so they are dropped.
    if not trace:
        run.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["samples"] = {} if trace else run.samples
    result["attempted"] = run.attempted
    result["failed"] = run.failed
    result["problems"] = run.problems
    result["correct"] = not run.problems
    result["spans"] = rec
    return result


def e2e_metrics(result: dict) -> dict:
    return {
        name: (statistics.median(result["samples"][name]), unit)
        for name, unit in E2E_UNITS.items()
        if result["samples"].get(name)
    }
