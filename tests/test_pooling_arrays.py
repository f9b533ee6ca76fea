"""Array-form pooling bookkeeping against the per-edge formulas it replaces.

The oracles here are the earlier implementations and live nowhere else:
a union-find for the surviving components, per-edge loops for the
survivor counts and normalization coefficients, and a set of sorted
pairs for the coarse edges. The production path must match them bitwise.
"""
import numpy as np

from lgrpool import autodiff as ad
from lgrpool.data import Graph, build_normalized_adjacency
from lgrpool.pooling import (
    GATE_FLOOR,
    NormalizedScores,
    contract_graph,
    hierarchical_pool,
    init_pooling_params,
    normalize_scores,
    score_edges,
)

HIDDEN = 4
NUM_LAYERS = 4


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def oracle_components(num_nodes, edges, surviving):
    uf = UnionFind(num_nodes)
    for e, (i, j) in enumerate(edges):
        if surviving[e]:
            uf.union(i, j)
    assignment = np.empty(num_nodes, dtype=np.int64)
    root_to_id = {}
    for node in range(num_nodes):
        assignment[node] = root_to_id.setdefault(uf.find(node), len(root_to_id))
    return assignment, len(root_to_id)


def oracle_normalize_scores(scores, edges, num_nodes, s_thre):
    surviving = scores.data.ravel() >= s_thre
    counts = np.zeros(num_nodes, dtype=np.int64)
    for e, (i, j) in enumerate(edges):
        if surviving[e]:
            counts[i] += 1
            counts[j] += 1
    coeff_i = np.zeros((len(edges), 1))
    coeff_j = np.zeros((len(edges), 1))
    for e, (i, j) in enumerate(edges):
        if surviving[e]:
            coeff_i[e, 0] = 1.0 / counts[i]
            coeff_j[e, 0] = 1.0 / counts[j]
    return NormalizedScores(
        at_i=ad.scale_rows(scores, ad.constant(coeff_i)),
        at_j=ad.scale_rows(scores, ad.constant(coeff_j)),
        surviving=surviving,
        counts=counts,
    )


def oracle_contract_graph(num_nodes, edges, norm, z):
    assignment, num_super = oracle_components(num_nodes, edges, norm.surviving)
    gate = ad.add(
        ad.scatter_add_rows(norm.at_i, [e[0] for e in edges], num_nodes),
        ad.scatter_add_rows(norm.at_j, [e[1] for e in edges], num_nodes),
    )
    floor = np.where(norm.counts == 0, GATE_FLOOR, 0.0).reshape(-1, 1)
    gate = ad.add(gate, ad.constant(floor))
    coarse_z = ad.scatter_add_rows(ad.scale_rows(z, gate), assignment, num_super)
    coarse_edges = sorted(
        {
            (min(assignment[i], assignment[j]), max(assignment[i], assignment[j]))
            for i, j in edges
            if assignment[i] != assignment[j]
        }
    )
    return coarse_z, [(int(i), int(j)) for i, j in coarse_edges], assignment, num_super


def oracle_pool(graph, z, params, s_thre, num_layers):
    """Per layer: (scores, norm, assignment, supernodes, coarse edges, coarse z)."""
    n, edges, layers = graph.num_nodes, list(graph.edges), []
    for level in range(num_layers):
        if n <= 2 or not edges:
            break
        scores = score_edges(z, edges, params.layers[level])
        norm = oracle_normalize_scores(scores, edges, n, s_thre)
        if not norm.surviving.any():
            break
        z, coarse_edges, assignment, num_super = oracle_contract_graph(n, edges, norm, z)
        layers.append((scores, norm, assignment, num_super, coarse_edges, z))
        n, edges = num_super, coarse_edges
    return layers, z


def make_graph(n, edges):
    return Graph(
        num_nodes=n,
        edges=edges,
        features=np.zeros((n, 1)),
        label=0,
        adj_norm=build_normalized_adjacency(n, edges),
    )


def random_case(rng, kind):
    """(graph, s_thre) for one of the degenerate or random graph kinds."""
    s_thre = float(rng.uniform(0.3, 0.7))
    if kind == "single":
        return make_graph(1, []), s_thre
    n = int(rng.integers(3, 60))
    if kind == "edgeless":
        return make_graph(n, []), s_thre
    if kind == "path":
        order = rng.permutation(n)
        edges = [tuple(sorted((int(a), int(b)))) for a, b in zip(order[:-1], order[1:])]
        # A low threshold keeps most of the path, so components are long chains.
        return make_graph(n, sorted(edges)), float(rng.uniform(0.05, 0.3))
    density = rng.uniform(0.05, 0.4)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if kind == "no_survivor":
        return make_graph(n, edges), 1.0 - 1e-12
    return make_graph(n, edges), s_thre


def assert_same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert np.array_equal(a, b), what


def test_array_pooling_matches_per_edge_oracles_bitwise():
    kinds = ["single", "edgeless", "no_survivor"] + ["path"] * 4 + ["random"] * 5
    depth = {"pooled": 0, "deep": 0, "no_survivor": 0}
    for case in range(360):
        rng = np.random.default_rng(5000 + case)
        kind = kinds[case % len(kinds)]
        graph, s_thre = random_case(rng, kind)
        params = init_pooling_params(HIDDEN, NUM_LAYERS, rng)
        for layer in params.layers:
            layer.w.data[...] = rng.normal(size=layer.w.data.shape)
            layer.a.data[...] = rng.normal(size=layer.a.data.shape)
        z = ad.constant(rng.normal(size=(graph.num_nodes, HIDDEN)))

        got = hierarchical_pool(graph, z, params, s_thre)
        want, want_z = oracle_pool(graph, z, params, s_thre, NUM_LAYERS)
        tag = f"case {case} ({kind})"
        assert got.effective_depth == len(want), tag
        composed = np.arange(graph.num_nodes, dtype=np.int64)
        for level, (lt, (scores, norm, assignment, num_super, edges, coarse_z)) in enumerate(
            zip(got.layers, want)
        ):
            where = f"{tag} layer {level}"
            assert_same(lt.scores.data, scores.data, where + " scores")
            assert_same(lt.norm.at_i.data, norm.at_i.data, where + " at_i")
            assert_same(lt.norm.at_j.data, norm.at_j.data, where + " at_j")
            assert_same(lt.norm.surviving, norm.surviving, where + " surviving")
            assert_same(lt.norm.counts, norm.counts, where + " counts")
            assert_same(lt.merge.assignment, assignment, where + " assignment")
            assert lt.merge.num_supernodes == num_super, where
            assert type(lt.merge.num_supernodes) is int, where
            ce = lt.coarse_edges
            assert_same(ce, np.array(edges, dtype=np.int64).reshape(-1, 2), where + " coarse edges")
            assert np.all(ce[:, 0] < ce[:, 1]), where + " lo < hi"
            assert ce.tolist() == sorted(ce.tolist()), where + " lexicographic order"
            assert_same(lt.coarse_z.data, coarse_z.data, where + " coarse z")
            composed = assignment[composed]
        assert_same(got.composed_map, composed, tag + " composed map")
        assert_same(got.z_cor.data, want_z.data, tag + " z_cor")

        depth["pooled"] += got.effective_depth >= 1
        depth["deep"] += got.effective_depth >= 2
        if kind == "no_survivor" and graph.edges:
            assert got.effective_depth == 0, tag
            depth["no_survivor"] += 1
    assert depth["pooled"] >= 150 and depth["deep"] >= 60 and depth["no_survivor"] >= 20, depth


def test_long_path_contracts_to_one_supernode():
    n = 200
    order = np.random.default_rng(9).permutation(n)
    edges = sorted(tuple(sorted((int(a), int(b)))) for a, b in zip(order[:-1], order[1:]))
    scores = ad.constant(np.ones((len(edges), 1)))
    norm = normalize_scores(scores, edges, n, 0.5)
    coarse_z, coarse_edges, merge = contract_graph(n, edges, norm, ad.constant(np.ones((n, 1))))
    assert merge.num_supernodes == 1 and coarse_edges.shape == (0, 2)
    assert_same(merge.assignment, np.zeros(n, dtype=np.int64), "assignment")
    assert coarse_z.data.shape == (1, 1)


def test_list_and_array_edges_agree():
    rng = np.random.default_rng(11)
    n = 12
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    z = ad.constant(rng.normal(size=(n, HIDDEN)))
    layer = init_pooling_params(HIDDEN, 1, rng).layers[0]
    ends = np.asarray(edges, dtype=np.int64)
    results = []
    for form in (edges, ends):
        scores = score_edges(z, form, layer)
        norm = normalize_scores(scores, form, n, 0.5)
        results.append((scores, norm, contract_graph(n, form, norm, z)))
    (s0, n0, (z0, e0, m0)), (s1, n1, (z1, e1, m1)) = results
    assert_same(s0.data, s1.data, "scores")
    assert_same(n0.at_i.data, n1.at_i.data, "at_i")
    assert_same(n0.at_j.data, n1.at_j.data, "at_j")
    assert_same(z0.data, z1.data, "coarse z")
    assert_same(e0, e1, "coarse edges")
    assert_same(m0.assignment, m1.assignment, "assignment")
