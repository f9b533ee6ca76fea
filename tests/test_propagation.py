import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool.data import build_normalized_adjacency
from lgrpool.errors import LabelOutOfRange, ShapeMismatch
from lgrpool.propagation import (
    PropagationParams,
    classify,
    expectation_loss,
    init_propagation_params,
    mlp_forward,
    ppr_propagate,
)

from ppr_oracle import ppr_closed_form


def zero_params(d_in=3, hidden=4, num_classes=2):
    z = lambda *shape: ad.parameter(np.zeros(shape))
    return PropagationParams(
        w1=z(d_in, hidden),
        b1=z(1, hidden),
        w2=z(hidden, hidden),
        b2=z(1, hidden),
        wc=z(hidden, num_classes),
        bc=z(1, num_classes),
    )


def random_adjacency(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_normalized_adjacency(n, edges)


# ------------------------------------------------------------------- mlp


def test_mlp_zero_parameters_give_zero():
    out = mlp_forward(ad.constant(np.ones((5, 3))), zero_params())
    np.testing.assert_allclose(out.data, 0.0)


def test_mlp_identity_composition():
    params = zero_params(d_in=4, hidden=4)
    params.w1 = ad.parameter(np.eye(4))
    x = np.abs(np.random.default_rng(0).normal(size=(6, 4)))
    out = mlp_forward(ad.constant(x), params)
    np.testing.assert_allclose(out.data, x)


def test_mlp_is_row_equivariant():
    rng = np.random.default_rng(1)
    params = init_propagation_params(3, 5, 2, rng)
    x = rng.normal(size=(7, 3))
    perm = rng.permutation(7)
    a = mlp_forward(ad.constant(x), params).data
    b = mlp_forward(ad.constant(x[perm]), params).data
    np.testing.assert_allclose(b, a[perm])


def test_mlp_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mlp_forward(ad.constant(np.ones((2, 5))), zero_params(d_in=3))


# ------------------------------------------------------------------- ppr


def test_ppr_single_node_fixed_point():
    adj = build_normalized_adjacency(1, [])
    h = ad.constant([[3.0, -1.0]])
    for k in (1, 5, 20):
        np.testing.assert_allclose(ppr_propagate(adj, h, 0.3, k).data, h.data)


def test_ppr_teleport_only():
    rng = np.random.default_rng(2)
    adj = random_adjacency(rng, 6)
    h = ad.constant(rng.normal(size=(6, 3)))
    np.testing.assert_allclose(ppr_propagate(adj, h, 1.0, 7).data, h.data)


def test_ppr_matches_closed_form():
    rng = np.random.default_rng(3)
    adj = random_adjacency(rng, 8)
    h = rng.normal(size=(8, 4))
    iterated = ppr_propagate(adj, ad.constant(h), 0.3, 50).data
    exact = ppr_closed_form(adj.to_dense(), h, 0.3)
    assert np.abs(iterated - exact).max() <= 1e-8


def test_closed_form_identity_adjacency():
    h = np.random.default_rng(4).normal(size=(5, 2))
    np.testing.assert_allclose(ppr_closed_form(np.eye(5), h, 0.3), h, atol=1e-12)


def test_closed_form_two_node_swap():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ppr_closed_form(adj, np.array([[1.0], [0.0]]), 0.5)
    np.testing.assert_allclose(out, [[2.0 / 3.0], [1.0 / 3.0]], atol=1e-12)


def test_ppr_geometric_convergence_bound():
    alpha = 0.3
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 21))
        adj = random_adjacency(rng, n)
        h = rng.normal(size=(n, 3))
        exact = ppr_closed_form(adj.to_dense(), h, alpha)
        e0 = np.abs(h - exact).max()
        for k in (1, 3, 7):
            ek = np.abs(ppr_propagate(adj, ad.constant(h), alpha, k).data - exact).max()
            assert ek <= (1.0 - alpha) ** k * e0 + 1e-12


def test_ppr_permutation_equivariance():
    rng = np.random.default_rng(5)
    n = 9
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    h = rng.normal(size=(n, 3))
    perm = rng.permutation(n)
    pos = np.empty(n, dtype=int)
    pos[perm] = np.arange(n)
    # relabel node v as pos[v], i.e. row i of the permuted H is h[perm[i]]
    p_edges = [tuple(sorted((pos[i], pos[j]))) for i, j in edges]
    a = ppr_propagate(build_normalized_adjacency(n, edges), ad.constant(h), 0.3, 12).data
    b = ppr_propagate(
        build_normalized_adjacency(n, p_edges), ad.constant(h[perm]), 0.3, 12
    ).data
    np.testing.assert_allclose(b, a[perm], atol=1e-9)


def test_ppr_validates_alpha_and_k():
    with pytest.raises(ValueError):
        ppr_closed_form(np.eye(2), np.ones((2, 1)), 0.0)


# -------------------------------------------------------------- classify


def random_head(rng, d_in=3, hidden=4, num_classes=3):
    """Random propagation parameters with nonzero biases."""
    params = init_propagation_params(d_in, hidden, num_classes, rng)
    params.b2 = ad.parameter(rng.normal(size=(1, hidden)))
    params.bc = ad.parameter(rng.normal(size=(1, num_classes)))
    return params


def test_classify_single_node_mean():
    rng = np.random.default_rng(6)
    params = random_head(rng)
    r = ad.constant(np.abs(rng.normal(size=(1, 4))))
    y_pred = classify(build_normalized_adjacency(1, []), r, params, 0.3, 5)
    logits = (r.data @ params.w2.data + params.b2.data) @ params.wc.data + params.bc.data
    want = np.exp(logits - logits.max())
    np.testing.assert_allclose(y_pred.data, want / want.sum(), atol=1e-12)


def test_classify_zero_head_is_uniform():
    rng = np.random.default_rng(7)
    params = random_head(rng, num_classes=2)
    params.wc = ad.parameter(np.zeros((4, 2)))
    params.bc = ad.parameter(np.zeros((1, 2)))
    r = ad.constant(np.abs(rng.normal(size=(5, 4))))
    y_pred = classify(random_adjacency(rng, 5), r, params, 0.3, 4)
    np.testing.assert_allclose(y_pred.data, [[0.5, 0.5]], atol=1e-12)


def test_classify_rows_are_distributions():
    rng = np.random.default_rng(8)
    params = random_head(rng)
    r = ad.constant(np.abs(rng.normal(size=(6, 4))) * 5)
    y_pred = classify(random_adjacency(rng, 6), r, params, 0.3, 4)
    assert y_pred.data.shape == (1, 3)
    assert np.all(y_pred.data >= 0.0)
    np.testing.assert_allclose(y_pred.data.sum(), 1.0, atol=1e-9)


def test_classify_invariant_under_node_duplication():
    """A graph and its disjoint union with itself predict the same."""
    rng = np.random.default_rng(9)
    n = 4
    edges = [(0, 1), (1, 2), (1, 3)]
    doubled_edges = edges + [(i + n, j + n) for i, j in edges]
    params = random_head(rng, num_classes=2)
    r = np.abs(rng.normal(size=(n, 4)))
    single = classify(build_normalized_adjacency(n, edges), ad.constant(r), params, 0.3, 6)
    doubled = classify(
        build_normalized_adjacency(2 * n, doubled_edges), ad.constant(np.vstack([r, r])), params, 0.3, 6
    )
    np.testing.assert_allclose(doubled.data, single.data, atol=1e-12)


# ------------------------------------------------------------------ loss


def test_expectation_loss_values():
    assert abs(expectation_loss(ad.constant([[1.0, 0.0]]), 0).data[0, 0]) <= 1e-9
    uniform = expectation_loss(ad.constant([[0.5, 0.5]]), 1).data[0, 0]
    assert abs(uniform - np.log(2.0)) <= 1e-12
    skew = expectation_loss(ad.constant([[0.25, 0.75]]), 1).data[0, 0]
    assert abs(skew + np.log(0.75)) <= 1e-12


def test_expectation_loss_label_range():
    y = ad.constant([[0.5, 0.5]])
    with pytest.raises(LabelOutOfRange):
        expectation_loss(y, 2)
    with pytest.raises(LabelOutOfRange):
        expectation_loss(y, -1)
