"""Deterministic graph-classification datasets with TUDataset statistics.

Node counts are evenly spaced over +-10% of the target mean and shuffled
per seed, so every instance has the same total size. Each graph is a
random recursive spanning tree plus short-range chords until its edge
count matches the target edges-per-node ratio, which gives the locally
clustered structure of protein and molecule graphs. Node labels follow a
class-dependent distribution, except that the dataset's first nodes take
label indices 0, 1, ... in turn, so every label appears and the parsed
one-hot width is exactly the label count. Continuous node
attributes are a class-aligned direction with a random sign per node,
plus noise. The per-node sign spreads untrained edge scores on both
sides of the pooling threshold inside each graph, so pooling contracts
at initialisation on most graphs.

The generator never reads a file; the benchmark writes its output with
``lgrpool.data.emit_tu_dataset`` and hands the program only that
directory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lgrpool.data import Graph, GraphDataset

SIZE_SPREAD = 0.1
ATTR_SCALE = 1.0
ATTR_NOISE = 0.8
NUM_CLASSES = 2
CHORD_P = 0.25


@dataclass(frozen=True)
class DatasetSpec:
    """Target statistics of one TU dataset (Morris et al. 2020)."""

    name: str
    num_graphs: int
    mean_nodes: float
    mean_edges: float
    node_labels: int
    attr_dim: int

    @property
    def feature_dim(self) -> int:
        return self.node_labels + self.attr_dim


def _edges(n: int, m: int, rng: np.random.Generator) -> list:
    """Random recursive tree plus short-range chords, i < j, no duplicates.

    A chord whose far end falls off the graph becomes a uniform random
    pair, so dense small graphs still reach ``m`` edges.
    """
    edges = {(int(rng.integers(0, j)), j) for j in range(1, n)}
    m = min(max(m, n - 1), n * (n - 1) // 2)
    while len(edges) < m:
        i = int(rng.integers(0, n))
        j = i + int(rng.geometric(CHORD_P))
        if j >= n:
            i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    return sorted(edges)


def generate(spec: DatasetSpec, seed: int) -> GraphDataset:
    """The dataset for ``seed``; equal seeds give equal datasets."""
    rng = np.random.default_rng([seed, spec.num_graphs, spec.node_labels])
    label_probs = rng.dirichlet(np.ones(spec.node_labels), size=NUM_CLASSES)
    ratio = spec.mean_edges / spec.mean_nodes
    lo = spec.mean_nodes * (1.0 - SIZE_SPREAD)
    quantiles = (np.arange(spec.num_graphs) + 0.5) / spec.num_graphs
    sizes = rng.permutation(
        np.maximum(2, np.round(lo + 2 * SIZE_SPREAD * spec.mean_nodes * quantiles))
    )
    graphs = []
    seen_nodes = 0
    for n in sizes.astype(int).tolist():
        label = int(rng.integers(0, NUM_CLASSES))
        edges = _edges(n, int(round(n * ratio)), rng)
        node_labels = rng.choice(spec.node_labels, size=n, p=label_probs[label])
        forced = np.arange(seen_nodes, seen_nodes + n)
        keep = forced < spec.node_labels
        node_labels[keep] = forced[keep]
        seen_nodes += n
        attrs = None
        blocks = [np.eye(spec.node_labels)[node_labels]]
        if spec.attr_dim:
            attrs = rng.normal(0.0, ATTR_NOISE, size=(n, spec.attr_dim))
            attrs[:, label % spec.attr_dim] += ATTR_SCALE * rng.choice((-1.0, 1.0), size=n)
            blocks.append(attrs)
        graphs.append(
            Graph(
                num_nodes=n,
                edges=edges,
                features=np.concatenate(blocks, axis=1),
                label=label,
                adj_norm=None,  # only emit_tu_dataset reads these graphs
                node_labels=[int(x) for x in node_labels],
                node_attributes=attrs,
            )
        )
    return GraphDataset(
        graphs=graphs,
        num_classes=NUM_CLASSES,
        feature_dim=spec.feature_dim,
        name=spec.name,
    )
