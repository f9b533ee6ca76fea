"""The program functions the benchmark wraps and the counts it reads.

The end-to-end run wraps only whole-phase calls (``phase_targets``); the
traced run adds every per-op public function of each module
(``layer_targets``). Functions reached through a name another module
imported are wrapped under that module too, with the same span name,
except ``build_normalized_adjacency`` as called by pooling, which is
recorded as ``pooling.coarse_adj`` because it builds the coarse graphs.
"""
from __future__ import annotations

import os

from lgrpool import autodiff, cli, data, model, pooling, propagation, training
from lgrpool.sparse import SparseMatrix

from .spans import Target

POOL_GROUPS = ("init", "M.r1", "mpe.r1", "M.r2", "mpe.r2")
DEPTH_BINS = ("d0", "d1", "d2plus")


def _count_eval_graphs(rec, args, kwargs, accuracy):
    rec.count("training.evaluate.graphs", len(args[1].graphs))


def _count_tape_nodes(rec, args, kwargs):
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(parent for parent, _ in node._parents)
    rec.count("autodiff.tape_nodes", len(seen))


def _count_checkpoint_bytes(rec, args, kwargs, loaded):
    rec.count("training.checkpoint_bytes", os.path.getsize(args[0]))


def _empty_group() -> dict:
    counts = ("graphs", "nodes_in", "nodes_out", "score_calls", "edges_scored",
              "edges_surviving", "contract_calls")
    return {"depth_hist": {}, **dict.fromkeys(counts, 0)}


class PoolingCounts:
    """Pooling behaviour per phase and EM round, read from PoolingTrace.

    Groups: ``init`` is em_train's opening mean_precor_error pass,
    ``M.rN`` the maximization epochs of round N, and ``mpe.rN`` the
    mean_precor_error pass that closes that phase.
    """

    def __init__(self):
        self.round = 0
        self.groups: dict[str, dict] = {}

    def _group(self, rec) -> dict:
        names = rec.open_names()
        if "training.maximization_phase" in names:
            phase = "mpe" if "training.mean_precor_error" in names else "M"
            label = f"{phase}.r{self.round}"
        elif "training.mean_precor_error" in names:
            label = "init"
        else:
            label = "other"
        return self.groups.setdefault(label, _empty_group())

    def on_round(self, rec, args, kwargs):
        self.round = kwargs.get("em_round", 1)

    def on_score(self, rec, args, kwargs, scores):
        group = self._group(rec)
        group["score_calls"] += 1
        group["edges_scored"] += scores.data.shape[0]

    def on_pool(self, rec, args, kwargs, trace):
        group = self._group(rec)
        depth = trace.effective_depth
        group["graphs"] += 1
        group["depth_hist"][depth] = group["depth_hist"].get(depth, 0) + 1
        group["nodes_in"] += args[0].num_nodes
        group["nodes_out"] += (
            trace.layers[-1].merge.num_supernodes if trace.layers else args[0].num_nodes
        )
        group["edges_surviving"] += sum(int(lt.norm.surviving.sum()) for lt in trace.layers)
        group["contract_calls"] += depth

    def metrics(self) -> dict:
        """Per-group ratios; a group with no pooling call reads 0."""
        out = {}
        for label in POOL_GROUPS:
            g = self.groups.get(label) or _empty_group()

            def ratio(num, den):
                return g[num] / g[den] if g[den] else 0.0

            hist = g["depth_hist"]
            deep = sum(n for d, n in hist.items() if d >= 2)
            out[f"pooling.edges_scored.{label}"] = (g["edges_scored"], "count")
            out[f"pooling.survivor_frac.{label}"] = (ratio("edges_surviving", "edges_scored"), "ratio")
            out[f"pooling.applied_frac.{label}"] = (ratio("contract_calls", "score_calls"), "ratio")
            out[f"pooling.supernode_ratio.{label}"] = (ratio("nodes_out", "nodes_in"), "ratio")
            out[f"pooling.depth_mean.{label}"] = (ratio("contract_calls", "graphs"), "layers")
            for bin_name, n in zip(DEPTH_BINS, (hist.get(0, 0), hist.get(1, 0), deep)):
                out[f"pooling.depth_hist.{label}.{bin_name}"] = (
                    n / g["graphs"] if g["graphs"] else 0.0,
                    "ratio",
                )
        return out


def phase_targets(pool: PoolingCounts | None = None) -> list:
    """Whole-phase calls: enough to derive every end-to-end metric.

    The parse inside ``lgrpool eval`` is one of them: eval-saved's
    throughput leaves it out, since ``setup_s`` already measures parsing.
    """
    return [
        Target(training, "em_train", "training.em_train"),
        Target(training, "expectation_phase", "training.expectation_phase"),
        Target(
            training,
            "maximization_phase",
            "training.maximization_phase",
            before=pool.on_round if pool else None,
        ),
        Target(training, "mean_precor_error", "training.mean_precor_error"),
        Target(training, "evaluate", "training.evaluate", after=_count_eval_graphs),
        Target(cli, "main", "cli.main"),
        Target(cli, "parse_tu_dataset", "data.parse_tu_dataset"),
    ]


def traced_functions() -> list[str]:
    """Span names of the traced run, in first-wrapped order."""
    return list(dict.fromkeys(t.name for t in layer_targets(PoolingCounts())))


def layer_targets(pool: PoolingCounts) -> list:
    """Every public function the traced run wraps, with counting hooks."""
    return phase_targets(pool) + [
        Target(data, "parse_tu_dataset", "data.parse_tu_dataset"),
        Target(data, "build_normalized_adjacency", "data.build_normalized_adjacency"),
        Target(SparseMatrix, "from_coo", "sparse.from_coo"),
        Target(SparseMatrix, "matmul_dense", "sparse.matmul_dense"),
        Target(SparseMatrix, "transpose_matmul_dense", "sparse.transpose_matmul_dense"),
        Target(autodiff, "backward", "autodiff.backward", before=_count_tape_nodes),
        Target(propagation, "mlp_forward", "propagation.mlp_forward"),
        Target(propagation, "ppr_propagate", "propagation.ppr_propagate"),
        Target(propagation, "classify", "propagation.classify"),
        Target(pooling, "hierarchical_pool", "pooling.hierarchical_pool", after=pool.on_pool),
        Target(pooling, "score_edges", "pooling.score_edges", after=pool.on_score),
        Target(pooling, "normalize_scores", "pooling.normalize_scores"),
        Target(pooling, "contract_graph", "pooling.contract_graph"),
        Target(pooling, "prediction_correction_loss", "pooling.prediction_correction_loss"),
        Target(pooling, "build_normalized_adjacency", "pooling.coarse_adj"),
        Target(model, "graph_expectation_loss", "model.graph_expectation_loss"),
        Target(model, "graph_total_loss", "model.graph_total_loss"),
        Target(training, "adam_step", "training.adam_step"),
        Target(training, "load_checkpoint", "training.load_checkpoint", after=_count_checkpoint_bytes),
        Target(training, "restore_parameters", "training.restore_parameters"),
    ]
