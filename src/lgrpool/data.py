"""TU-format graph-classification datasets: parsing, adjacency, splits, batches.

Expected directory layout for a dataset called NAME:

    NAME_A.txt                comma-separated 1-indexed edge endpoints,
                              one directed edge per line
    NAME_graph_indicator.txt  graph id (1-indexed) per node, one per line,
                              each graph's nodes together, in ascending order
    NAME_graph_labels.txt     one label per graph
    NAME_node_labels.txt      optional, integer node label per node
    NAME_node_attributes.txt  optional, comma-separated floats per node

Node features are one-hot node labels, concatenated with the continuous
attributes when both files exist, and a single constant-1 column when
neither exists.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EmptySplit, ParseError
from .sparse import SparseMatrix

SPLIT_FRACTIONS = (0.8, 0.1, 0.1)


def _normalized_blocks(node_start, ends) -> list:
    """Normalized adjacency with self-loops of each node range
    node_start[g]:node_start[g + 1], given (E, 2) edges that never leave
    their range: each is a slice of one block-diagonal CSR over all nodes.
    Entry (i, j) is 1/sqrt(d_i * d_j) where d counts the self-loop, so
    every row sum is positive and the spectral radius is at most 1.
    """
    n = node_start[-1]
    ends = ends.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    inv_sqrt = 1.0 / np.sqrt(1 + np.bincount(ends.ravel(), minlength=n))
    nodes = np.arange(n, dtype=ends.dtype)
    rows = np.concatenate([nodes, ends.ravel()])
    cols = np.concatenate([nodes, ends[:, ::-1].ravel()])
    vals = inv_sqrt[rows] * inv_sqrt[cols]
    whole = SparseMatrix.from_coo(rows, cols, vals, (n, n))._csr
    indptr, indices, data = whole.indptr, whole.indices, whole.data
    entry_start = indptr[node_start].tolist()
    return [
        SparseMatrix(sp.csr_matrix((data[s:e], indices[s:e] - a, indptr[a : b + 1] - s), shape=(b - a,) * 2))
        for a, b, s, e in zip(node_start, node_start[1:], entry_start, entry_start[1:])
    ]


def canonical_edges(ends, num_nodes: int) -> np.ndarray:
    """The distinct undirected edges among (E, 2) endpoint pairs: no
    self-pairs, each row lo < hi, as (E', 2) int64 rows in lexicographic
    order, which is the order of the packed key lo * num_nodes + hi."""
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
    a, b = ends[ends[:, 0] != ends[:, 1]].T
    keys = np.unique(np.minimum(a, b) * num_nodes + np.maximum(a, b))
    return np.column_stack(np.divmod(keys, num_nodes))


def build_normalized_adjacency(num_nodes: int, edges) -> SparseMatrix:
    """Symmetric normalized adjacency with self-loops of one graph."""
    return _normalized_blocks([0, num_nodes], np.asarray(edges, dtype=np.int64).reshape(-1, 2))[0]


@dataclass
class Graph:
    """One undirected graph with features, label, and normalized adjacency.

    Edges are stored deduplicated with i < j and no self-loops; self-loops
    exist only inside adj_norm.
    """

    num_nodes: int
    edges: list
    features: np.ndarray
    label: int
    adj_norm: SparseMatrix
    node_labels: list | None = None
    node_attributes: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class GraphDataset:
    graphs: list
    num_classes: int
    feature_dim: int
    name: str

    def __len__(self) -> int:
        return len(self.graphs)

    def summary(self) -> dict:
        n = len(self.graphs)
        return {
            "name": self.name,
            "graphs": n,
            "classes": self.num_classes,
            "feature_dim": self.feature_dim,
            "avg_nodes": sum(g.num_nodes for g in self.graphs) / n,
            "avg_edges": sum(g.num_edges for g in self.graphs) / n,
        }

    def subset(self, indices, name_suffix: str = "") -> "GraphDataset":
        return GraphDataset(
            graphs=[self.graphs[i] for i in indices],
            num_classes=self.num_classes,
            feature_dim=self.feature_dim,
            name=self.name + name_suffix,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/val/test partition request, in SPLIT_FRACTIONS."""

    seed: int


def _line_of(path: str, row: int) -> int:
    """The 1-based file line of non-blank row `row`; read on errors only."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    return [i for i, line in enumerate(lines, start=1) if line.strip()][row]


def _reject(bad, describe, path: str | None = None) -> None:
    """Raise ParseError(describe(i)) for the first index i flagged in bad,
    naming the file line of row i when bad runs over path's rows."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        where = f"{path} line {_line_of(path, flagged[0])}: " if path else ""
        raise ParseError(where + describe(flagged[0]))


def _read_table(path: str, dtype, columns: int | None = None, optional: bool = False):
    """Read a comma-separated numeric file into a 2-D array.

    Rows are the non-blank lines; "line N" in errors is the file's own
    line N, blank lines included. Every row must hold `columns` values,
    or as many as the first row when that is None. Returns None for a
    missing optional file.
    """
    if not os.path.isfile(path):
        if optional:
            return None
        raise ParseError(f"missing mandatory file: {path}")

    def load(source):
        """numpy's C reader, decoding latin1, a warning counting as a failure;
        None on failure or a wrong column count."""
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(source, dtype, delimiter=",", comments=None, ndmin=2, encoding="latin1")
        except (ValueError, Warning):  # empty or malformed, or a whitespace-only line
            return None
        return values if columns in (None, values.shape[1]) else None

    values = load(path)  # one pass over the file; only a file it rejects is read line by line
    if values is None:
        with open(path, "rb") as fh:
            rows = list(filter(bytes.strip, fh.read().splitlines()))
        if not rows:  # loadtxt warns on empty input
            return np.empty((0, columns or 1), dtype=dtype)
        values = load(rows)
    if values is not None:
        return values
    good, bad = 0, len(rows)  # rows[:good] load and rows[:bad] do not
    while bad - good > 1:
        mid = (good + bad) // 2
        good, bad = (good, mid) if load(rows[:mid]) is None else (mid, bad)
    expected = columns or rows[0].count(b",") + 1
    text = rows[good].decode(errors="replace").strip()
    raise ParseError(
        f"{path} line {_line_of(path, good)}: expected {expected} comma-separated "
        f"{np.dtype(dtype).name} values, got {text!r}"
    )


def parse_tu_dataset(dir_path: str, name: str) -> GraphDataset:
    """Parse a TU-format directory into a 0-indexed, deduplicated dataset."""
    prefix = os.path.join(dir_path, name + "_")
    gid = _read_table(prefix + "graph_indicator.txt", np.int64, 1).ravel()
    ends = _read_table(prefix + "A.txt", np.int64, 2) - 1
    raw_labels = _read_table(prefix + "graph_labels.txt", np.int64, 1).ravel()
    node_labels = _read_table(prefix + "node_labels.txt", np.int64, 1, optional=True)
    attrs = _read_table(prefix + "node_attributes.txt", np.float64, optional=True)

    num_nodes_total = len(gid)
    num_graphs = len(raw_labels)
    if num_graphs == 0:
        raise ParseError(f"{prefix}graph_labels.txt: no graphs")
    # Each graph is read as one contiguous node range, so ids must ascend.
    id_out = (gid < 1) | (gid > num_graphs)
    _reject(
        id_out | np.r_[False, gid[1:] < gid[:-1]],
        lambda r: f"graph id {gid[r]} "
        + ("out of range" if id_out[r] else f"after {gid[r - 1]}; ids must ascend"),
        prefix + "graph_indicator.txt",
    )
    nodes_per_graph = np.bincount(gid - 1, minlength=num_graphs)
    _reject(nodes_per_graph == 0, lambda g: f"graph {g + 1} has zero nodes")
    node_start = np.r_[0, np.cumsum(nodes_per_graph)]

    end_out = ((ends < 0) | (ends >= num_nodes_total)).any(axis=1)
    ends_gid = gid[np.where(end_out[:, None], 0, ends)]
    _reject(
        end_out | (ends_gid[:, 0] != ends_gid[:, 1]),
        lambda r: "node id out of range"
        if end_out[r]
        else "edge crosses graphs {} and {}".format(*ends_gid[r]),
        prefix + "A.txt",
    )
    # Sorted rows group the edges by graph: each graph owns a contiguous node range.
    ends = canonical_edges(ends, num_nodes_total)
    edge_start = np.searchsorted(ends[:, 0], node_start).tolist()
    edges = list(map(tuple, (ends - node_start[gid[ends[:, 0]] - 1, None]).tolist()))

    for suffix, table in (("node_labels.txt", node_labels), ("node_attributes.txt", attrs)):
        if table is not None and len(table) != num_nodes_total:
            raise ParseError(f"{prefix}{suffix}: {len(table)} lines for {num_nodes_total} nodes")
    if attrs is not None:
        _reject(
            ~np.isfinite(attrs).all(axis=1),
            lambda r: f"graph {gid[r]}: non-finite feature entries",
            prefix + "node_attributes.txt",
        )
    if node_labels is None:
        features = np.ones((num_nodes_total, 1)) if attrs is None else attrs.copy()
    else:
        # One-hot columns, then the attributes, written into one array
        # so that no block is built twice.
        node_labels = node_labels.ravel()
        vocab, index = np.unique(node_labels, return_inverse=True)
        attr_dim = 0 if attrs is None else attrs.shape[1]
        features = np.zeros((num_nodes_total, len(vocab) + attr_dim))
        features[np.arange(num_nodes_total), index] = 1.0
        if attrs is not None:
            features[:, len(vocab):] = attrs
        node_labels = node_labels.tolist()

    classes, labels = np.unique(raw_labels, return_inverse=True)
    node_start = node_start.tolist()
    adjs = _normalized_blocks(node_start, ends)
    bounds = zip(labels.tolist(), adjs, node_start, node_start[1:], edge_start, edge_start[1:])
    graphs = [
        Graph(
            num_nodes=b - a,
            edges=edges[e:f],
            features=features[a:b],
            label=label,
            adj_norm=adj,
            node_labels=None if node_labels is None else node_labels[a:b],
            node_attributes=None if attrs is None else attrs[a:b],
        )
        for label, adj, a, b, e, f in bounds
    ]

    return GraphDataset(
        graphs=graphs,
        num_classes=len(classes),
        feature_dim=features.shape[1],
        name=name,
    )


def emit_tu_dataset(ds: GraphDataset, dir_path: str) -> None:
    """Write a dataset back out in TU format (round-trip counterpart)."""
    os.makedirs(dir_path, exist_ok=True)
    prefix = os.path.join(dir_path, ds.name + "_")
    a_lines, ind_lines, lab_lines = [], [], []
    nl_lines, na_lines = [], []
    has_labels = all(g.node_labels is not None for g in ds.graphs)
    has_attrs = all(g.node_attributes is not None for g in ds.graphs)
    offset = 0
    for gid, g in enumerate(ds.graphs):
        lab_lines.append(str(g.label))
        for _ in range(g.num_nodes):
            ind_lines.append(str(gid + 1))
        for i, j in g.edges:
            a_lines.append(f"{offset + i + 1}, {offset + j + 1}")
            a_lines.append(f"{offset + j + 1}, {offset + i + 1}")
        if has_labels:
            nl_lines.extend(str(lab) for lab in g.node_labels)
        if has_attrs:
            na_lines.extend(
                ", ".join(repr(float(x)) for x in row)
                for row in g.node_attributes
            )
        offset += g.num_nodes

    def _write(suffix, lines):
        with open(prefix + suffix, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    _write("A.txt", a_lines)
    _write("graph_indicator.txt", ind_lines)
    _write("graph_labels.txt", lab_lines)
    if has_labels:
        _write("node_labels.txt", nl_lines)
    if has_attrs:
        _write("node_attributes.txt", na_lines)


def split_dataset(ds: GraphDataset, spec: SplitSpec):
    """Deterministic shuffled partition into (train, val, test).

    Part sizes come from flooring the cumulative fraction boundaries, so
    the remainder lands in the trailing part. Every class must appear in
    the train part; on violation the shuffle is retried with an
    incremented seed, at most 100 times.
    """
    n = len(ds.graphs)
    b1 = int(np.floor(n * SPLIT_FRACTIONS[0]))
    b2 = int(np.floor(n * (SPLIT_FRACTIONS[0] + SPLIT_FRACTIONS[1])))
    sizes = (b1, b2 - b1, n - b2)
    if min(sizes) == 0:
        raise EmptySplit(f"split sizes {sizes} contain an empty part")

    all_classes = set(range(ds.num_classes))
    for retry in range(101):
        rng = np.random.default_rng(spec.seed + retry)
        order = rng.permutation(n)
        train_idx = order[:b1]
        if {ds.graphs[i].label for i in train_idx} == all_classes:
            break
    else:
        raise EmptySplit(
            "could not produce a train part containing every class "
            f"after 100 retries (seed {spec.seed})"
        )
    return (
        ds.subset(sorted(train_idx.tolist()), "/train"),
        ds.subset(sorted(order[b1:b2].tolist()), "/val"),
        ds.subset(sorted(order[b2:].tolist()), "/test"),
    )


def iterate_batches(ds: GraphDataset, batch_size: int, seed: int, epoch: int):
    """Epoch-dependent deterministic shuffle into mini-batches.

    Every graph appears exactly once per epoch; the last batch may be
    smaller than batch_size.
    """
    rng = np.random.default_rng([seed, epoch])
    order = rng.permutation(len(ds.graphs))
    for start in range(0, len(order), batch_size):
        yield [ds.graphs[i] for i in order[start : start + batch_size]]
