"""Edge-contraction pooling: scoring, thresholded merging, regularizer.

Each pooling layer scores the surviving edges with a symmetrized sigmoid
function, normalizes surviving scores per node, contracts the connected
components of the surviving subgraph into supernodes, and aggregates
gated node features into supernode features. Stacking layers yields a
multiscale hierarchy whose final representation is aligned with the
propagated one through the prediction-correction loss.

Discrete survivor selection is constant under differentiation: gradients
flow through the surviving scores' values, never through the selection.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value
# build_normalized_adjacency is not called here: perfbench's layer trace wraps it.
from .data import build_normalized_adjacency, canonical_edges  # noqa: F401
from .propagation import glorot

GATE_FLOOR = 1e-6
SPREAD_CLAMP = 10.0


@dataclass
class PoolLayerParams:
    w: Value
    a: Value


@dataclass
class PoolingParams:
    """Independent per-layer transform and scoring vector."""

    layers: list

    def items(self):
        return [(f"pool.{i}.{f.name}", getattr(x, f.name)) for i, x in enumerate(self.layers) for f in fields(x)]

    def constants(self) -> "PoolingParams":
        """The same arrays as constants, so no tape reaches them."""
        return PoolingParams(
            [PoolLayerParams(*(ad.constant(getattr(x, f.name).data) for f in fields(x))) for x in self.layers]
        )


def init_pooling_params(
    hidden: int, num_layers: int, rng: np.random.Generator
) -> PoolingParams:
    return PoolingParams(
        layers=[
            PoolLayerParams(w=glorot(rng, hidden, hidden), a=glorot(rng, 2 * hidden, 1))
            for _ in range(num_layers)
        ]
    )


@dataclass
class MergeMap:
    """Surjection from fine nodes onto contiguous supernode indices."""

    assignment: np.ndarray
    num_supernodes: int


@dataclass
class NormalizedScores:
    """Directed normalized scores for canonical edges (i, j) with i < j.

    at_i[e] is the score of edge e divided by the surviving-edge count of
    its lower endpoint; at_j[e] uses the higher endpoint's count. Edges
    below threshold are zero on both sides.
    """

    at_i: Value
    at_j: Value
    surviving: np.ndarray
    counts: np.ndarray


@dataclass
class LayerTrace:
    scores: Value
    norm: NormalizedScores
    merge: MergeMap
    coarse_edges: np.ndarray
    coarse_z: Value


@dataclass
class PoolingTrace:
    layers: list
    composed_map: np.ndarray
    z_cor: Value

    @property
    def effective_depth(self) -> int:
        return len(self.layers)

    def summary(self) -> dict:
        """Per-layer counts and score histograms for inspection dumps."""
        rows = []
        for level, lt in enumerate(self.layers):
            hist, _ = np.histogram(lt.scores.data.ravel(), bins=10, range=(0.0, 1.0))
            rows.append(
                {
                    "layer": level + 1,
                    "nodes_in": int(len(lt.merge.assignment)),
                    "nodes_out": int(lt.merge.num_supernodes),
                    "edges_in": int(lt.scores.data.shape[0]),
                    "edges_surviving": int(lt.norm.surviving.sum()),
                    "score_histogram": hist.tolist(),
                }
            )
        return {"effective_depth": self.effective_depth, "layers": rows}


def score_edges(z: Value, edges, layer: PoolLayerParams) -> Value:
    """Symmetrized per-edge score in (0, 1).

    For edge (i, j) the two sigmoid terms are evaluated with the lower
    endpoint first and summed in that fixed order, so the score does not
    depend on how the edge was written down.
    """
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    h = layer.w.data.shape[1]
    # [z_i W, z_j W] @ a == z_i (W a[:h]) + z_j (W a[h:]): fold a into W, so
    # each node projects onto one column instead of h, then gather.
    proj_i = ad.matmul(z, ad.matmul(layer.w, ad.gather_rows(layer.a, np.arange(h))))
    proj_j = ad.matmul(z, ad.matmul(layer.w, ad.gather_rows(layer.a, np.arange(h, 2 * h))))
    s_ij = ad.sigmoid(ad.add(ad.gather_rows(proj_i, ends[:, 0]), ad.gather_rows(proj_j, ends[:, 1])))
    s_ji = ad.sigmoid(ad.add(ad.gather_rows(proj_i, ends[:, 1]), ad.gather_rows(proj_j, ends[:, 0])))
    return ad.scale(ad.add(s_ij, s_ji), 0.5)


def normalize_scores(
    scores: Value, edges, num_nodes: int, s_thre: float
) -> NormalizedScores:
    """Zero out sub-threshold scores, divide the rest by per-node counts.

    The count of a node is its number of surviving incident edges; nodes
    with no surviving edge contribute all-zero entries, never a division
    by zero. The threshold indicator is constant under differentiation.
    """
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    surviving = scores.data.ravel() >= s_thre
    counts = np.bincount(ends[surviving].ravel(), minlength=num_nodes)
    coeff = np.divide(1.0, counts[ends], out=np.zeros(ends.shape), where=surviving[:, None])

    return NormalizedScores(
        at_i=ad.scale_rows(scores, ad.constant(coeff[:, :1])),
        at_j=ad.scale_rows(scores, ad.constant(coeff[:, 1:])),
        surviving=surviving,
        counts=counts,
    )


def _components(num_nodes: int, ends: np.ndarray) -> MergeMap:
    """Connected components, numbered in order of their smallest member.

    Min-label fixpoint: every node takes the smallest label among itself
    and its neighbours, then jumps to its label's label, until nothing
    changes; each component then carries its smallest member.
    """
    root = np.arange(num_nodes, dtype=np.int64)
    while True:
        label = root.copy()
        np.minimum.at(label, ends.ravel(), root[ends[:, ::-1]].ravel())
        label = label[label]
        if np.array_equal(label, root):
            break
        root = label
    roots, assignment = np.unique(root, return_inverse=True)
    return MergeMap(assignment=assignment, num_supernodes=len(roots))


def contract_graph(
    num_nodes: int,
    edges,
    norm: NormalizedScores,
    z: Value,
):
    """Merge connected components of the surviving subgraph.

    Supernode features are gated sums: gate_i is the sum of node i's
    directed normalized scores, floored at GATE_FLOOR for nodes with no
    surviving edge so singleton supernodes keep a live feature path.
    Coarse edges are the images of the fine edges under the merge, put in
    canonical form by data.canonical_edges, as the parser puts the input's.
    """
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    merge = _components(num_nodes, ends[norm.surviving])

    gate = ad.add(
        ad.scatter_add_rows(norm.at_i, ends[:, 0], num_nodes),
        ad.scatter_add_rows(norm.at_j, ends[:, 1], num_nodes),
    )
    floor = np.where(norm.counts == 0, GATE_FLOOR, 0.0).reshape(-1, 1)
    gate = ad.add(gate, ad.constant(floor))
    coarse_z = ad.scatter_add_rows(
        ad.scale_rows(z, gate), merge.assignment, merge.num_supernodes
    )

    return coarse_z, canonical_edges(merge.assignment[ends], merge.num_supernodes), merge


def hierarchical_pool(graph, z_input: Value, params: PoolingParams, s_thre: float) -> PoolingTrace:
    """Apply score / normalize / contract with each of ``params.layers`` in turn.

    Stops after the last layer, or earlier once at most 2 nodes remain or
    no edge survives the threshold; a layer that would not contract is
    not applied, so a trace of depth 0 returns z_input untouched.
    """
    n_cur = graph.num_nodes
    ends = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    z_cur = z_input
    layers = []
    composed = np.arange(graph.num_nodes, dtype=np.int64)

    for layer in params.layers:
        if n_cur <= 2 or not len(ends):
            break
        scores = score_edges(z_cur, ends, layer)
        norm = normalize_scores(scores, ends, n_cur, s_thre)
        if not norm.surviving.any():
            break
        coarse_z, coarse_edges, merge = contract_graph(n_cur, ends, norm, z_cur)
        layers.append(
            LayerTrace(
                scores=scores,
                norm=norm,
                merge=merge,
                coarse_edges=coarse_edges,
                coarse_z=coarse_z,
            )
        )
        composed = merge.assignment[composed]
        n_cur = merge.num_supernodes
        ends = coarse_edges
        z_cur = coarse_z

    return PoolingTrace(layers=layers, composed_map=composed, z_cor=z_cur)


def prediction_correction_loss(
    z_cor: Value,
    z_pre: Value,
    composed_map: np.ndarray,
    coarse_edges,
) -> Value:
    """Alignment minus spread.

    The first sum runs over all fine nodes and pulls each node's
    propagated representation toward its supernode's pooled one. The
    second sum runs over deduplicated coarse edges, counted once per
    unordered pair, and pushes adjacent supernodes apart; each squared
    distance is clamped at SPREAD_CLAMP before negation so the loss
    stays bounded below.
    """
    aligned = ad.gather_rows(z_cor, composed_map)
    align_term = ad.sum_all(ad.sum_sq_rows(ad.sub(aligned, z_pre)))
    pairs = np.asarray(coarse_edges, dtype=np.int64).reshape(-1, 2)
    if not len(pairs):
        return align_term
    d = ad.sum_sq_rows(ad.sub(ad.gather_rows(z_cor, pairs[:, 0]), ad.gather_rows(z_cor, pairs[:, 1])))
    cap = ad.constant(np.full((len(pairs), 1), SPREAD_CLAMP))
    clamped = ad.sub(cap, ad.relu(ad.sub(cap, d)))
    return ad.sub(align_term, ad.sum_all(clamped))


def total_loss(l_exp: Value, l_precor: Value, gamma: float) -> Value:
    """Classification loss plus gamma times the regularizer."""
    return ad.add(l_exp, ad.scale(l_precor, gamma))
