import numpy as np
import pytest

from lgrpool import autodiff as ad
from lgrpool.cli import primitive_targets
from lgrpool.data import build_normalized_adjacency
from lgrpool.errors import (
    DoubleBackward,
    NonDeterministic,
    NonFinite,
    NotScalar,
    ShapeMismatch,
)

from faulty_ops import sigmoid_wrong_derivative


def test_sigmoid_at_zero():
    out = ad.sigmoid(ad.constant(np.zeros((2, 3))))
    np.testing.assert_allclose(out.data, 0.5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ad.softmax_rows(ad.constant(rng.normal(size=(6, 5)) * 10))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_ppr_identity_adjacency_is_exact():
    rng = np.random.default_rng(1)
    b = rng.normal(size=(7, 3))
    out = ad.ppr(build_normalized_adjacency(7, []), ad.constant(b), 0.5, 6)
    assert np.array_equal(out.data, b)


def test_backward_of_sum_is_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    ad.backward(ad.sum_all(x))
    np.testing.assert_allclose(x.grad, np.ones((2, 3)))


def test_backward_of_sum_of_squares_is_2x():
    x = ad.parameter([[1.0, -2.0], [0.5, 3.0]])
    ad.backward(ad.sum_all(ad.sum_sq_rows(x)))
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)


def test_cross_entropy_softmax_gradient_identity():
    rng = np.random.default_rng(2)
    z = ad.parameter(rng.normal(size=(1, 4)))
    probs = ad.softmax_rows(z)
    ad.backward(ad.cross_entropy_rows(probs, [2]))
    expected = probs.data.copy()
    expected[0, 2] -= 1.0
    np.testing.assert_allclose(z.grad, expected, atol=1e-12)


def test_row_broadcast_add_backward_sums_columns():
    x = ad.parameter(np.ones((4, 3)))
    b = ad.parameter(np.zeros((1, 3)))
    ad.backward(ad.sum_all(ad.add(x, b)))
    np.testing.assert_allclose(b.grad, np.full((1, 3), 4.0))
    np.testing.assert_allclose(x.grad, np.ones((4, 3)))


def test_gather_rows_backward_counts_uses():
    x = ad.parameter(np.zeros((3, 2)))
    ad.backward(ad.sum_all(ad.gather_rows(x, [0, 0, 1])))
    np.testing.assert_allclose(x.grad, [[2, 2], [1, 1], [0, 0]])


def test_gradients_accumulate_across_tapes():
    x = ad.parameter(np.zeros((2, 2)))
    ad.backward(ad.sum_all(x))
    ad.backward(ad.sum_all(x))
    np.testing.assert_allclose(x.grad, np.full((2, 2), 2.0))
    x.zero_grad()
    np.testing.assert_allclose(x.grad, 0.0)


def ppr_operator(adj, alpha, k):
    """Dense M = (1-alpha)^k A^k + alpha sum_{t<k} (1-alpha)^t A^t."""
    powers = [np.eye(adj.shape[0])]
    for _ in range(k):
        powers.append(powers[-1] @ adj)
    c = 1.0 - alpha
    return c**k * powers[k] + alpha * sum(c**t * powers[t] for t in range(k))


def test_ppr_matches_dense_operator_and_its_transpose():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(1, 12))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
        adj = build_normalized_adjacency(n, edges)
        alpha = float(rng.uniform(0.05, 1.0))
        k = int(rng.integers(1, 12))
        m = ppr_operator(adj.to_dense(), alpha, k)
        h = ad.parameter(rng.normal(size=(n, 4)))
        c = rng.normal(size=(n, 4))
        out = ad.ppr(adj, h, alpha, k)
        np.testing.assert_allclose(out.data, m @ h.data, rtol=1e-12, atol=1e-12)
        [(parent, back)] = out._parents
        assert parent is h
        np.testing.assert_allclose(back(c), m.T @ c, rtol=1e-12, atol=1e-12)


def test_ppr_checks_the_adjacency_shape():
    with pytest.raises(ShapeMismatch):
        ad.ppr(build_normalized_adjacency(3, []), ad.constant(np.ones((4, 2))), 0.3, 2)


def test_backward_requires_scalar():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(NotScalar):
        ad.backward(ad.scale(x, 2.0))


def test_backward_is_single_use():
    x = ad.parameter(np.ones((1, 1)))
    loss = ad.sum_all(x)
    ad.backward(loss)
    with pytest.raises(DoubleBackward):
        ad.backward(loss)


def test_constant_and_parameter_shape_their_input():
    for make in (ad.constant, ad.parameter):
        scalar, vector, matrix = make(2.5), make(np.arange(3)), make([[1.0, 2.0]])
        assert scalar.data.shape == (1, 1) and vector.data.shape == (1, 3) and matrix.data.shape == (1, 2)
        assert vector.data.dtype == np.float64
        with pytest.raises(ValueError):
            make(np.zeros((2, 2, 2)))


def test_parameter_copies_its_input():
    source = np.ones((2, 3))
    p = ad.parameter(source)
    p.data += 1.0
    np.testing.assert_array_equal(source, np.ones((2, 3)))


def test_non_finite_forward_raises():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(NonFinite):
        ad.scale(x, float("inf"))
    # inf - inf is the NaN under test; numpy's own warning about it is not.
    with pytest.raises(NonFinite), np.errstate(invalid="ignore"):
        ad.softmax_rows(ad.constant([[np.inf, 0.0]]))


def test_shape_mismatch_raises():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((3, 3)))
    with pytest.raises(ShapeMismatch):
        ad.add(a, b)
    with pytest.raises(ShapeMismatch):
        ad.sub(a, b)
    with pytest.raises(ShapeMismatch):
        ad.matmul(a, ad.constant(np.ones((2, 2))))


def test_grad_check_quadratic_is_nearly_exact():
    x = ad.parameter(np.array([[1.0, -0.5, 2.0]]))
    builder = lambda p: ad.sum_all(ad.sum_sq_rows(p["x"]))
    assert ad.grad_check(builder, {"x": x}, eps=1e-3)["x"] <= 1e-9


def test_grad_check_flags_wrong_derivative():
    rng = np.random.default_rng(4)
    x = ad.parameter(rng.uniform(-1, 1, size=(3, 3)))
    builder = lambda p: ad.sum_all(sigmoid_wrong_derivative(p["x"]))
    assert ad.grad_check(builder, {"x": x})["x"] > 1e-2


def test_grad_check_eps_bounds():
    x = ad.parameter(np.ones((1, 1)))
    builder = lambda p: ad.sum_all(p["x"])
    with pytest.raises(ValueError):
        ad.grad_check(builder, {"x": x}, eps=1e-8)
    with pytest.raises(ValueError):
        ad.grad_check(builder, {"x": x}, eps=1e-2)


def test_grad_check_rejects_nondeterministic_builder():
    x = ad.parameter(np.ones((1, 1)))
    calls = [0]

    def builder(p):
        calls[0] += 1
        return ad.scale(ad.sum_all(p["x"]), float(calls[0]))

    with pytest.raises(NonDeterministic):
        ad.grad_check(builder, {"x": x})


def test_all_primitive_targets_pass_grad_check():
    for name, builder, params in primitive_targets():
        for key, err in ad.grad_check(builder, params).items():
            assert err <= 1e-5, f"{name}.{key}: {err}"


def test_composite_grad_check_over_seeds():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = {
            "x": ad.parameter(rng.uniform(-2, 2, size=(4, 3))),
            "w": ad.parameter(rng.uniform(-2, 2, size=(3, 3))),
        }

        def builder(p):
            h = ad.sigmoid(ad.matmul(p["x"], p["w"]))
            m = ad.mean_rows(h)
            return ad.sum_all(ad.sum_sq_rows(m))

        assert max(ad.grad_check(builder, params, seed=seed).values()) <= 1e-5
