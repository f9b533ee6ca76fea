"""The fused PPR primitive against the tape path it replaced.

The oracle is a test-local sparse-dense tape node plus `scale` and
`add`, iterated k times: one tape node per product, scaling and sum.
The fused primitive must give the same propagated matrix bitwise, and
gradients that match to rounding. Its backward uses A for A.T, so the
symmetry of `build_normalized_adjacency` is pinned here as well.
"""
import numpy as np

from lgrpool import autodiff as ad
from lgrpool import pooling, propagation
from lgrpool.data import Graph, build_normalized_adjacency
from lgrpool.model import init_parameters
from lgrpool.propagation import classify, expectation_loss, mlp_forward, ppr_propagate

NUM_LAYERS = 3


def tape_spmm(adj, b):
    """Sparse-dense product whose gradient flows to the dense operand."""
    out = ad.Value(adj.matmul_dense(b.data))
    out._parents = [(b, lambda g: adj.transpose_matmul_dense(g))] if b.requires_grad else []
    out.requires_grad = b.requires_grad
    return out


def tape_ppr(adj, h, alpha, k):
    teleport = ad.scale(h, alpha)
    z = h
    for _ in range(k):
        z = ad.add(ad.scale(tape_spmm(adj, z), 1.0 - alpha), teleport)
    return z


def losses(graph, params, alpha, k, s_thre):
    """z_pre, l_exp, the pooling trace and a loss whose gradient reaches
    the propagation parameters through both the head and the regularizer.

    Both propagations, the class-width one inside ``classify`` and the
    hidden-width one that pooling reads, call ``propagation.ppr_propagate``.
    """
    p = params.prop
    r = mlp_forward(ad.constant(graph.features), p)
    l_exp = expectation_loss(classify(graph.adj_norm, r, p, alpha, k), graph.label)
    h = ad.add(ad.matmul(r, p.w2), p.b2)
    z_pre = propagation.ppr_propagate(graph.adj_norm, h, alpha, k)
    trace = pooling.hierarchical_pool(graph, z_pre, params.pool, s_thre)
    coarse_edges = trace.layers[-1].coarse_edges if trace.layers else []
    l_precor = pooling.prediction_correction_loss(trace.z_cor, z_pre, trace.composed_map, coarse_edges)
    return z_pre, l_exp, trace, pooling.total_loss(l_exp, l_precor, 0.2)


def random_graph(rng, kind):
    n = {"single node": 1, "edgeless": int(rng.integers(2, 9))}.get(kind, int(rng.integers(3, 30)))
    p = 0.0 if kind in ("single node", "edgeless") else float(rng.uniform(0.1, 0.6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    features = rng.normal(size=(n, 3)) * 2.0
    return Graph(
        num_nodes=n,
        edges=edges,
        features=features,
        label=int(rng.integers(0, 3)),
        adj_norm=build_normalized_adjacency(n, edges),
    )


def test_fused_ppr_matches_tape_path_on_random_graphs(monkeypatch):
    kinds = ["single node", "edgeless", "no survivor", "pooled", "pooled"]
    seen = set()
    for trial in range(300):
        rng = np.random.default_rng(trial)
        kind = kinds[trial % len(kinds)]
        graph = random_graph(rng, kind)
        alpha = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(1, 13))
        s_thre = 0.9999 if kind == "no survivor" else 0.5
        runs = []
        for propagate in (ppr_propagate, tape_ppr):
            params = init_parameters(3, 6, 3, NUM_LAYERS, seed=trial)
            monkeypatch.setattr(propagation, "ppr_propagate", propagate)
            z_pre, l_exp, trace, l_tot = losses(graph, params, alpha, k, s_thre)
            ad.backward(l_tot)
            grads = [p.grad for _, p in params.prop.items()]
            counts = [lt.merge.num_supernodes for lt in trace.layers]
            runs.append((z_pre.data, l_exp.data[0, 0], grads, counts))
        (z, l, grads, counts), (z_want, l_want, grads_want, counts_want) = runs
        assert np.array_equal(z, z_want), trial
        assert abs(l - l_want) <= 1e-10, trial
        for g, w in zip(grads, grads_want):
            np.testing.assert_allclose(g, w, rtol=1e-8, atol=0, err_msg=f"trial {trial}")
        assert counts == counts_want, trial
        if kind == "no survivor" and graph.num_edges and not counts:
            seen.add(kind)
        elif kind in ("single node", "edgeless"):
            seen.add(kind)
        elif counts:
            seen.add("pooled")
    assert seen == {"single node", "edgeless", "no survivor", "pooled"}


def test_fused_ppr_is_one_tape_node():
    rng = np.random.default_rng(0)
    adj = build_normalized_adjacency(5, [(0, 1), (1, 2), (3, 4)])
    h = ad.parameter(rng.normal(size=(5, 2)))
    out = ad.ppr(adj, h, 0.3, 10)
    assert [p for p, _ in out._parents] == [h]
    assert len(ad._topo_order(ad.sum_all(out))) == 3


def test_normalized_adjacency_is_bitwise_symmetric():
    seen = set()
    for trial in range(240):
        rng = np.random.default_rng(trial)
        n = [1, 2, 5][trial] if trial < 3 else int(rng.integers(1, 25))
        m = 0 if trial % 7 == 0 else int(rng.integers(0, 3 * n + 1))
        ends = rng.integers(0, n, size=(m, 2))
        ends = ends[ends[:, 0] != ends[:, 1]]
        if len(ends):
            ends = np.concatenate([ends, ends[rng.integers(0, len(ends), size=len(ends) // 3)]])
            flip = rng.random(len(ends)) < 0.5
            ends[flip] = ends[flip, ::-1]
        edges = ends.tolist() if trial % 2 else ends
        dense = build_normalized_adjacency(n, edges).to_dense()
        assert np.array_equal(dense, dense.T), trial
        keys = {tuple(e) for e in np.asarray(ends).tolist()}
        seen.add("single node" if n == 1 else "edgeless" if not len(ends) else "edges")
        if len(keys) < len(ends):
            seen.add("duplicates")
        if any((j, i) in keys for i, j in keys):
            seen.add("both orientations")
        if len(ends) and len(np.unique(ends)) < n:
            seen.add("isolated nodes")
    assert seen == {"single node", "edgeless", "edges", "duplicates", "both orientations", "isolated nodes"}
