import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool.cli import full_loss_target
from lgrpool.data import Graph, build_normalized_adjacency
from lgrpool.errors import ShapeMismatch
from lgrpool.model import init_parameters
from lgrpool.pooling import (
    GATE_FLOOR,
    PoolLayerParams,
    PoolingParams,
    contract_graph,
    hierarchical_pool,
    normalize_scores,
    prediction_correction_loss,
    score_edges,
    total_loss,
)


def make_graph(num_nodes, edges, features=None, label=0):
    if features is None:
        features = np.ones((num_nodes, 3))
    return Graph(
        num_nodes=num_nodes,
        edges=list(edges),
        features=features,
        label=label,
        adj_norm=build_normalized_adjacency(num_nodes, edges),
    )


def random_layer(rng, hidden):
    return PoolLayerParams(
        w=ad.parameter(rng.normal(size=(hidden, hidden))),
        a=ad.parameter(rng.normal(size=(2 * hidden, 1))),
    )


def constant_norm(values, edges, num_nodes, s_thre=0.5):
    return normalize_scores(ad.constant(np.reshape(values, (-1, 1))), edges, num_nodes, s_thre)


# --------------------------------------------------------------- scoring


def test_zero_scoring_vector_gives_half():
    rng = np.random.default_rng(0)
    layer = PoolLayerParams(
        w=ad.parameter(rng.normal(size=(3, 3))),
        a=ad.parameter(np.zeros((6, 1))),
    )
    z = ad.constant(rng.normal(size=(4, 3)))
    scores = score_edges(z, [(0, 1), (1, 2), (2, 3)], layer)
    np.testing.assert_allclose(scores.data, 0.5)


def test_equal_endpoints_collapse_to_single_term():
    rng = np.random.default_rng(1)
    layer = random_layer(rng, 3)
    row = rng.normal(size=3)
    z = ad.constant(np.vstack([row, row]))
    score = score_edges(z, [(0, 1)], layer).data[0, 0]
    p = row @ layer.w.data
    expected = 1.0 / (1.0 + np.exp(-(np.concatenate([p, p]) @ layer.a.data.ravel())))
    assert abs(score - expected) <= 1e-12


def test_scores_identical_under_endpoint_swap():
    rng = np.random.default_rng(2)
    layer = random_layer(rng, 4)
    z = ad.constant(rng.normal(size=(5, 4)))
    forward = score_edges(z, [(0, 1), (1, 3), (2, 4)], layer).data
    reversed_ = score_edges(z, [(1, 0), (3, 1), (4, 2)], layer).data
    assert np.array_equal(forward, reversed_)


def test_score_edges_shape_mismatch():
    layer = PoolLayerParams(w=ad.parameter(np.eye(4)), a=ad.parameter(np.zeros((8, 1))))
    with pytest.raises(ShapeMismatch):
        score_edges(ad.constant(np.ones((3, 2))), [(0, 1)], layer)


# --------------------------------------------------------- normalization


def test_normalize_divides_by_surviving_count():
    edges = [(0, 1), (1, 2)]
    norm = constant_norm([0.8, 0.6], edges, 3)
    # node 1 touches both surviving edges, nodes 0 and 2 one each
    np.testing.assert_allclose(norm.at_i.data.ravel(), [0.8, 0.3])
    np.testing.assert_allclose(norm.at_j.data.ravel(), [0.4, 0.6])
    assert norm.counts.tolist() == [1, 2, 1]


def test_normalize_single_survivor_keeps_score():
    norm = constant_norm([0.9], [(0, 1)], 2)
    np.testing.assert_allclose(norm.at_i.data, [[0.9]])
    np.testing.assert_allclose(norm.at_j.data, [[0.9]])


def test_normalize_all_below_threshold():
    norm = constant_norm([0.2, 0.4], [(0, 1), (1, 2)], 3)
    assert not norm.surviving.any()
    assert norm.counts.tolist() == [0, 0, 0]
    np.testing.assert_allclose(norm.at_i.data, 0.0)
    np.testing.assert_allclose(norm.at_j.data, 0.0)


# ------------------------------------------------------------ contraction


def test_contract_without_survivors_is_identity():
    edges = [(0, 1), (1, 2)]
    z = ad.constant(np.random.default_rng(3).normal(size=(3, 2)))
    norm = constant_norm([0.1, 0.2], edges, 3)
    coarse_z, coarse_edges, merge = contract_graph(3, edges, norm, z)
    assert merge.num_supernodes == 3
    assert merge.assignment.tolist() == [0, 1, 2]
    assert coarse_edges.tolist() == [list(e) for e in edges]
    np.testing.assert_allclose(coarse_z.data, GATE_FLOOR * z.data)


def test_contract_triangle_into_one_supernode():
    edges = [(0, 1), (0, 2), (1, 2)]
    z = ad.constant(np.random.default_rng(4).normal(size=(3, 2)))
    norm = constant_norm([0.9, 0.8, 0.7], edges, 3)
    coarse_z, coarse_edges, merge = contract_graph(3, edges, norm, z)
    assert merge.num_supernodes == 1
    assert coarse_edges.shape == (0, 2)
    # every node touches 2 surviving edges, so gate_i sums its two scores / 2
    gates = np.array([(0.9 + 0.8) / 2, (0.9 + 0.7) / 2, (0.8 + 0.7) / 2])
    np.testing.assert_allclose(coarse_z.data, (gates[:, None] * z.data).sum(axis=0, keepdims=True))


def test_contract_path_with_middle_edge():
    edges = [(0, 1), (1, 2), (2, 3)]
    z = ad.constant(np.random.default_rng(5).normal(size=(4, 2)))
    norm = constant_norm([0.2, 0.9, 0.2], edges, 4)
    coarse_z, coarse_edges, merge = contract_graph(4, edges, norm, z)
    assert merge.num_supernodes == 3
    assert merge.assignment.tolist() == [0, 1, 1, 2]
    assert coarse_edges.tolist() == [[0, 1], [1, 2]]
    np.testing.assert_allclose(coarse_z.data[1], 0.9 * (z.data[1] + z.data[2]))
    np.testing.assert_allclose(coarse_z.data[0], GATE_FLOOR * z.data[0])
    np.testing.assert_allclose(coarse_z.data[2], GATE_FLOOR * z.data[3])


# ------------------------------------------------------------ hierarchy


def test_single_node_graph_depth_zero():
    graph = make_graph(1, [])
    z = ad.constant(np.ones((1, 3)))
    params = init_parameters(3, 3, 2, 4, seed=6).pool
    trace = hierarchical_pool(graph, z, params, 0.5)
    assert trace.effective_depth == 0
    assert trace.composed_map.tolist() == [0]
    assert trace.z_cor is z


def test_two_node_graph_stops_before_any_layer():
    graph = make_graph(2, [(0, 1)])
    z = ad.constant(np.random.default_rng(7).normal(size=(2, 3)))
    params = init_parameters(3, 3, 2, 5, seed=7).pool
    trace = hierarchical_pool(graph, z, params, 0.5)
    assert trace.effective_depth == 0
    assert trace.z_cor is z


def test_single_layer_matches_direct_contraction():
    rng = np.random.default_rng(8)
    graph = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    z = ad.constant(rng.normal(size=(5, 3)))
    params = PoolingParams(layers=[random_layer(rng, 3)])

    trace = hierarchical_pool(graph, z, params, 0.5)
    scores = score_edges(z, graph.edges, params.layers[0])
    norm = normalize_scores(scores, graph.edges, 5, 0.5)
    if not norm.surviving.any():
        assert trace.effective_depth == 0
        return
    coarse_z, coarse_edges, merge = contract_graph(5, graph.edges, norm, z)
    assert trace.effective_depth == 1
    assert trace.composed_map.tolist() == merge.assignment.tolist()
    np.testing.assert_array_equal(trace.layers[0].coarse_edges, coarse_edges)
    np.testing.assert_allclose(trace.z_cor.data, coarse_z.data)


def test_connected_graph_collapses_when_everything_survives():
    rng = np.random.default_rng(9)
    graph = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    z = ad.constant(rng.normal(size=(6, 3)))
    # zero scoring vector puts every score exactly at the 0.5 threshold
    layers = [
        PoolLayerParams(w=ad.parameter(rng.normal(size=(3, 3))), a=ad.parameter(np.zeros((6, 1))))
        for _ in range(4)
    ]
    trace = hierarchical_pool(graph, z, PoolingParams(layers=layers), 0.5)
    assert trace.effective_depth == 1
    assert trace.layers[0].merge.num_supernodes == 1
    assert np.all(trace.composed_map == 0)


# -------------------------------------------------------------- the loss


def test_loss_zero_for_perfect_alignment():
    z = ad.constant(np.random.default_rng(10).normal(size=(4, 3)))
    loss = prediction_correction_loss(z, z, np.arange(4), [])
    assert loss.data[0, 0] == 0.0


def test_loss_of_two_nodes_merged_to_mean():
    rng = np.random.default_rng(11)
    z_pre = rng.normal(size=(2, 3))
    z_cor = ad.constant(z_pre.mean(axis=0, keepdims=True))
    loss = prediction_correction_loss(z_cor, ad.constant(z_pre), np.zeros(2, dtype=int), [])
    expected = 0.5 * ((z_pre[0] - z_pre[1]) ** 2).sum()
    assert abs(loss.data[0, 0] - expected) <= 1e-12


def test_loss_spread_term_is_negative():
    z_cor = ad.constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = prediction_correction_loss(z_cor, z_cor, np.arange(2), [(0, 1)])
    assert abs(loss.data[0, 0] - (-2.0)) <= 1e-12


def test_loss_spread_clamped_at_ten():
    z_cor = ad.constant(np.array([[10.0, 0.0], [0.0, 10.0]]))
    loss = prediction_correction_loss(z_cor, z_cor, np.arange(2), [(0, 1)])
    assert abs(loss.data[0, 0] - (-10.0)) <= 1e-12


def test_loss_width_mismatch():
    with pytest.raises(ShapeMismatch):
        prediction_correction_loss(
            ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 4))), np.arange(2), []
        )


def test_total_loss_combination():
    l_exp = ad.constant([[0.5]])
    l_precor = ad.constant([[1.5]])
    assert total_loss(l_exp, l_precor, 0.0).data[0, 0] == 0.5
    assert abs(total_loss(l_exp, l_precor, 0.2).data[0, 0] - 0.8) <= 1e-15


# ------------------------------------------------------------ properties


def permute_graph(graph, perm):
    pos = np.empty(graph.num_nodes, dtype=int)
    pos[perm] = np.arange(graph.num_nodes)
    edges = sorted(tuple(sorted((int(pos[i]), int(pos[j])))) for i, j in graph.edges)
    return make_graph(graph.num_nodes, edges, features=graph.features[perm])


def test_pipeline_permutation_invariance():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 8
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        graph = make_graph(n, edges, features=rng.normal(size=(n, 3)))
        params = PoolingParams(layers=[random_layer(rng, 3) for _ in range(3)])
        perm = rng.permutation(n)
        permuted = permute_graph(graph, perm)

        z = ad.constant(graph.features)
        zp = ad.constant(permuted.features)
        a = hierarchical_pool(graph, z, params, 0.5)
        b = hierarchical_pool(permuted, zp, params, 0.5)
        assert a.effective_depth == b.effective_depth
        counts = lambda t: [lt.merge.num_supernodes for lt in t.layers]
        assert counts(a) == counts(b)

        la = prediction_correction_loss(
            a.z_cor, z, a.composed_map, a.layers[-1].coarse_edges if a.layers else []
        ).data[0, 0]
        lb = prediction_correction_loss(
            b.z_cor, zp, b.composed_map, b.layers[-1].coarse_edges if b.layers else []
        ).data[0, 0]
        assert abs(la - lb) <= 1e-9


def components_count(num_nodes, edges):
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


def test_contraction_soundness_properties():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 14))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        graph = make_graph(n, edges, features=rng.normal(size=(n, 4)))
        params = PoolingParams(layers=[random_layer(rng, 4) for _ in range(3)])
        trace = hierarchical_pool(graph, ad.constant(graph.features), params, 0.5)

        assert set(trace.composed_map) == set(range(trace.composed_map.max() + 1))

        fine_edges = graph.edges
        fine_n = n
        for lt in trace.layers:
            assert lt.merge.num_supernodes <= fine_n
            images = {
                tuple(sorted((lt.merge.assignment[i], lt.merge.assignment[j])))
                for i, j in fine_edges
                if lt.merge.assignment[i] != lt.merge.assignment[j]
            }
            assert set(map(tuple, lt.coarse_edges.tolist())) == images
            assert components_count(
                lt.merge.num_supernodes, lt.coarse_edges
            ) <= components_count(fine_n, fine_edges)
            fine_edges = lt.coarse_edges
            fine_n = lt.merge.num_supernodes


def test_supernode_count_monotone_in_threshold():
    rng = np.random.default_rng(12)
    n = 9
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    scores = rng.uniform(0.1, 0.9, size=len(edges))
    prev = 0
    for s_thre in (0.2, 0.35, 0.5, 0.65, 0.8):
        norm = constant_norm(scores, edges, n, s_thre=s_thre)
        _, _, merge = contract_graph(n, edges, norm, ad.constant(np.ones((n, 2))))
        assert merge.num_supernodes >= prev
        prev = merge.num_supernodes


def test_pooling_parameters_pass_grad_check():
    builder, params_set = full_loss_target()
    for name, err in ad.grad_check(builder, params_set, eps=1e-6).items():
        if not name.startswith("pool."):
            continue
        assert err <= 1e-4, f"{name}: {err}"


# ------------------------------------------------------------ initialization


def inline_glorot_parameters(d_in, hidden, num_classes, num_layers, seed):
    """Every parameter drawn as the two groups once spelled out their draws."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    arrays = {"prop.w1": glorot(d_in, hidden), "prop.b1": np.zeros((1, hidden))}
    arrays.update({"prop.w2": glorot(hidden, hidden), "prop.b2": np.zeros((1, hidden))})
    arrays.update({"prop.wc": glorot(hidden, num_classes), "prop.bc": np.zeros((1, num_classes))})
    for i in range(num_layers):
        lim_w = np.sqrt(6.0 / (2 * hidden))
        lim_a = np.sqrt(6.0 / (2 * hidden + 1))
        arrays[f"pool.{i}.w"] = rng.uniform(-lim_w, lim_w, size=(hidden, hidden))
        arrays[f"pool.{i}.a"] = rng.uniform(-lim_a, lim_a, size=(2 * hidden, 1))
    return arrays


@pytest.mark.parametrize("shape", [(37, 200, 2, 14, 0), (5, 200, 2, 14, 3), (89, 200, 2, 14, 7), (3, 6, 3, 3, 1)])
def test_init_parameters_is_bitwise_the_inline_draws(shape):
    got = init_parameters(*shape).snapshot()
    want = inline_glorot_parameters(*shape)
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].tobytes() == array.tobytes() and got[name].shape == array.shape, name
