import os

import numpy as np
import pytest

from lgrpool.data import (
    Graph,
    GraphDataset,
    SplitSpec,
    build_normalized_adjacency,
    canonical_edges,
    emit_tu_dataset,
    iterate_batches,
    parse_tu_dataset,
    split_dataset,
)
from lgrpool.errors import ParseError

from toydata import make_toy_dataset


def write_dataset(tmp_path, name, files):
    d = tmp_path / name
    d.mkdir()
    for suffix, text in files.items():
        (d / f"{name}_{suffix}").write_text(text)
    return str(d)


# ------------------------------------------------------------ canonical edges


def _unique_rows_oracle(ends):
    return np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)


def _random_pair_sets(rng, cases):
    """Random (E, 2) int64 pair sets with their node counts: empty sets,
    one node, all self-pairs, and dense draws that repeat pairs in both
    orientations."""
    for case in range(cases):
        n = 1 if case % 7 == 0 else int(rng.integers(1, 300))
        e = 0 if case % 11 == 0 else int(rng.integers(1, 3 * n + 5))
        ends = rng.integers(0, n, size=(e, 2))
        if case % 5 == 0:
            ends[:, 1] = ends[:, 0]
        elif case % 3 == 0:
            ends = np.concatenate([ends, ends[:, ::-1], ends])
        yield ends, n


def test_canonical_edges_matches_the_unique_rows_oracle():
    rng = np.random.default_rng(2024)
    seen = {"empty": 0, "one node": 0, "self only": 0, "both orientations": 0}
    for ends, n in _random_pair_sets(rng, 600):
        got = canonical_edges(ends, n)
        want = _unique_rows_oracle(ends)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        seen["empty"] += len(ends) == 0
        seen["one node"] += n == 1
        seen["self only"] += len(ends) > 0 and len(got) == 0
        seen["both orientations"] += bool((ends[:, 0] > ends[:, 1]).any() and len(got) < len(ends))
    assert min(seen.values()) > 0, seen


def test_canonical_edges_takes_a_list_of_pairs():
    assert canonical_edges([(2, 1), (1, 2), (0, 0), (0, 2)], 3).tolist() == [[0, 2], [1, 2]]
    assert canonical_edges([], 4).shape == (0, 2)


# ------------------------------------------------------------ adjacency


def test_adjacency_single_node():
    adj = build_normalized_adjacency(1, [])
    np.testing.assert_allclose(adj.to_dense(), [[1.0]])


def test_adjacency_single_edge():
    adj = build_normalized_adjacency(2, [(0, 1)])
    np.testing.assert_allclose(adj.to_dense(), np.full((2, 2), 0.5))


def test_adjacency_path_graph():
    adj = build_normalized_adjacency(3, [(0, 1), (1, 2)]).to_dense()
    assert abs(adj[0, 1] - 1 / np.sqrt(6)) <= 1e-12
    assert abs(adj[1, 1] - 1 / 3) <= 1e-12
    assert adj[0, 2] == 0.0


def test_adjacency_symmetric_with_bounded_row_sums_and_spectrum():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 16))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        adj = build_normalized_adjacency(n, edges)
        dense = adj.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(dense.sum(axis=1) > 0)
        # power iteration for the dominant eigenvalue
        v = np.ones(n) / np.sqrt(n)
        for _ in range(500):
            w = dense @ v
            v = w / np.linalg.norm(w)
        top = v @ dense @ v
        assert top <= 1 + 1e-9


# ---------------------------------------------------------------- parse


def test_parse_minimal_two_node_graph(tmp_path):
    path = write_dataset(
        tmp_path,
        "MINI",
        {
            "A.txt": "1, 2\n2, 1\n",
            "graph_indicator.txt": "1\n1\n",
            "graph_labels.txt": "1\n",
        },
    )
    ds = parse_tu_dataset(path, "MINI")
    assert len(ds.graphs) == 1
    assert ds.num_classes == 1
    g = ds.graphs[0]
    assert g.num_edges == 1 and g.edges == [(0, 1)]
    np.testing.assert_allclose(g.features, [[1.0], [1.0]])


def test_parse_node_labels_one_hot_and_attributes(tmp_path):
    path = write_dataset(
        tmp_path,
        "FEAT",
        {
            "A.txt": "1, 2\n2, 1\n3, 4\n4, 3\n",
            "graph_indicator.txt": "1\n1\n2\n2\n",
            "graph_labels.txt": "5\n-3\n",
            "node_labels.txt": "7\n2\n2\n7\n",
            "node_attributes.txt": "0.5, 1.5\n2.5, 3.5\n4.5, 5.5\n6.5, 7.5\n",
        },
    )
    ds = parse_tu_dataset(path, "FEAT")
    assert ds.feature_dim == 4  # two label classes one-hot + two attributes
    assert sorted(g.label for g in ds.graphs) == [0, 1]
    g0 = ds.graphs[0]
    np.testing.assert_allclose(g0.features, [[0, 1, 0.5, 1.5], [1, 0, 2.5, 3.5]])


def test_parse_missing_file_and_bad_ids(tmp_path):
    with pytest.raises(ParseError):
        parse_tu_dataset(str(tmp_path), "NOPE")
    path = write_dataset(
        tmp_path,
        "BADNODE",
        {
            "A.txt": "1, 9\n",
            "graph_indicator.txt": "1\n1\n",
            "graph_labels.txt": "1\n",
        },
    )
    with pytest.raises(ParseError):
        parse_tu_dataset(path, "BADNODE")


def test_parse_rejects_zero_node_graph(tmp_path):
    path = write_dataset(
        tmp_path,
        "GAP",
        {
            "A.txt": "1, 2\n",
            "graph_indicator.txt": "1\n1\n",
            "graph_labels.txt": "1\n2\n",  # graph 2 has no nodes
        },
    )
    with pytest.raises(ParseError):
        parse_tu_dataset(path, "GAP")


def test_round_trip_preserves_graphs(tmp_path):
    ds = make_toy_dataset(8)
    out = tmp_path / "TOY"
    emit_tu_dataset(ds, str(out))
    back = parse_tu_dataset(str(out), "TOY")
    assert len(back.graphs) == len(ds.graphs)
    assert back.num_classes == ds.num_classes
    assert back.feature_dim == ds.feature_dim
    for a, b in zip(ds.graphs, back.graphs):
        assert a.num_nodes == b.num_nodes
        assert a.edges == b.edges
        assert a.label == b.label
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.adj_norm.to_dense(), b.adj_norm.to_dense())


# ---------------------------------------------------------------- splits


def _dataset_of(n, num_classes=2):
    graphs = []
    for i in range(n):
        adj = build_normalized_adjacency(2, [(0, 1)])
        graphs.append(
            Graph(
                num_nodes=2,
                edges=[(0, 1)],
                features=np.ones((2, 1)),
                label=i % num_classes,
                adj_norm=adj,
            )
        )
    return GraphDataset(graphs=graphs, num_classes=num_classes, feature_dim=1, name="n%d" % n)


def test_split_sizes_for_188():
    train, val, test = split_dataset(_dataset_of(188), SplitSpec(seed=0))
    sizes = (len(train.graphs), len(val.graphs), len(test.graphs))
    assert sizes in {(150, 19, 19), (151, 18, 19)}


def test_split_partition_and_determinism():
    ds = _dataset_of(37)
    a = split_dataset(ds, SplitSpec(seed=5))
    b = split_dataset(ds, SplitSpec(seed=5))
    ids = lambda part: [id(g) for g in part.graphs]
    assert all(ids(x) == ids(y) for x, y in zip(a, b))
    combined = [g for part in a for g in part.graphs]
    assert len(combined) == 37
    assert len({id(g) for g in combined}) == 37


def test_split_train_contains_every_class():
    ds = _dataset_of(20, num_classes=4)
    for seed in range(10):
        train, _, _ = split_dataset(ds, SplitSpec(seed=seed))
        assert {g.label for g in train.graphs} == {0, 1, 2, 3}


# --------------------------------------------------------------- batches


def test_batches_cover_dataset_once():
    ds = _dataset_of(188)
    batches = list(iterate_batches(ds, 32, seed=0, epoch=0))
    assert [len(b) for b in batches] == [32] * 5 + [28]
    seen = [id(g) for b in batches for g in b]
    assert len(set(seen)) == 188


def test_small_dataset_single_batch():
    ds = _dataset_of(10)
    batches = list(iterate_batches(ds, 32, seed=0, epoch=0))
    assert len(batches) == 1 and len(batches[0]) == 10


def test_batch_order_depends_on_epoch_not_run():
    ds = _dataset_of(50)
    order = lambda e: [id(g) for b in iterate_batches(ds, 16, seed=3, epoch=e) for g in b]
    assert order(0) == order(0)
    assert order(0) != order(1)
