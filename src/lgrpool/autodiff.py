"""Minimal reverse-mode differentiation over dense float64 matrices.

Every Value wraps a 2-d numpy array. Operations build a tape of parent
links with local backward closures; backward() runs one reverse
topological sweep from a scalar loss, accumulating gradients additively
for shared sub-expressions. Sparse matrices are constants: ppr
propagates gradient to its dense operand only.

A tape is single use: calling backward twice on the same loss raises.
Parameter gradients accumulate across tapes until zeroed, which is how
mini-batches sum per-graph contributions.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    DoubleBackward,
    LabelOutOfRange,
    NonDeterministic,
    NonFinite,
    NotScalar,
    ShapeMismatch,
)
from .sparse import SparseMatrix

PROB_CLAMP = 1e-12
GRADCHECK_SAMPLE_FRACTION = 0.05
GRADCHECK_MIN_COORDS = 20


class Value:
    """Node of the differentiable computation graph."""

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward_done")

    def __init__(self, data: np.ndarray, requires_grad: bool = False, parents=()):
        self.data = data
        self._grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward_done = False

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self):
        self._grad = None

    def accumulate_grad(self, contrib: np.ndarray):
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += contrib

    def __repr__(self):
        return f"Value(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _matrix(arr: np.ndarray) -> np.ndarray:
    """arr as a 2-d matrix: a scalar or a vector becomes one row."""
    if arr.ndim < 2:
        return arr.reshape(1, -1)
    if arr.ndim > 2:
        raise ValueError(f"Value requires a matrix, got ndim={arr.ndim}")
    return arr


def constant(data) -> Value:
    return Value(_matrix(np.asarray(data, dtype=np.float64)))


def parameter(data) -> Value:
    """A trainable leaf holding its own copy of data."""
    return Value(_matrix(np.array(data, dtype=np.float64)), requires_grad=True)


def _make(op: str, data: np.ndarray, parents) -> Value:
    """Wrap a 2-d forward result, keeping only differentiable parent links."""
    if not np.isfinite(data).all():
        raise NonFinite(f"{op}: non-finite forward output")
    parents = [(p, fn) for p, fn in parents if p.requires_grad]
    return Value(data, bool(parents), parents)


# ---------------------------------------------------------------- primitives


def matmul(a: Value, b: Value) -> Value:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch("matmul", a.data.shape, b.data.shape)
    out = a.data @ b.data
    return _make(
        "matmul",
        out,
        [
            (a, lambda g, b=b: g @ b.data.T),
            (b, lambda g, a=a: a.data.T @ g),
        ],
    )


def ppr(adj: SparseMatrix, h: Value, alpha: float, k: int) -> Value:
    """k steps of Z <- (1-alpha) A Z + alpha H from Z = H, as one tape node.

    adj must be symmetric, as build_normalized_adjacency makes it: the
    backward uses A where the adjoint needs A.T. PPR is linear in H, so
    the backward is the adjoint recurrence, k steps of dH += alpha g;
    g <- (1-alpha) A g, then dH += g. It keeps nothing from the forward
    pass. Gradient flows to h only; adj is a constant.
    """
    if adj.shape[1] != h.data.shape[0]:
        raise ShapeMismatch("ppr", adj.shape, h.data.shape)
    teleport = h.data * alpha
    z = h.data
    for _ in range(k):
        z = adj.matmul_dense(z)
        z *= 1.0 - alpha
        z += teleport

    def back(g):
        dh = np.zeros_like(g)
        for _ in range(k):
            dh += alpha * g
            g = adj.matmul_dense(g)
            g *= 1.0 - alpha
        dh += g
        return dh

    return _make("ppr", z, [(h, back)])


def add(a: Value, b: Value) -> Value:
    """Elementwise sum; b may be a single row broadcast over a's rows."""
    if a.data.shape == b.data.shape:
        back_b = lambda g: g
    elif b.data.shape == (1, a.data.shape[1]):
        back_b = lambda g: g.sum(axis=0, keepdims=True)
    else:
        raise ShapeMismatch("add", a.data.shape, b.data.shape)
    return _make("add", a.data + b.data, [(a, lambda g: g), (b, back_b)])


def sub(a: Value, b: Value) -> Value:
    if a.data.shape != b.data.shape:
        raise ShapeMismatch("sub", a.data.shape, b.data.shape)
    return _make("sub", a.data - b.data, [(a, lambda g: g), (b, lambda g: -g)])


def scale(a: Value, c: float) -> Value:
    c = float(c)
    return _make("scale", a.data * c, [(a, lambda g, c=c: g * c)])


def scale_rows(a: Value, s: Value) -> Value:
    """Multiply row i of a by the scalar s[i, 0]."""
    if s.data.shape != (a.data.shape[0], 1):
        raise ShapeMismatch("scale_rows", a.data.shape, s.data.shape)
    return _make(
        "scale_rows",
        a.data * s.data,
        [
            (a, lambda g, s=s: g * s.data),
            (s, lambda g, a=a: (g * a.data).sum(axis=1, keepdims=True)),
        ],
    )


def sigmoid(a: Value) -> Value:
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make("sigmoid", out, [(a, lambda g, out=out: g * out * (1.0 - out))])


def relu(a: Value) -> Value:
    mask = a.data > 0
    return _make("relu", a.data * mask, [(a, lambda g, mask=mask: g * mask)])


def softmax_rows(a: Value) -> Value:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def back(g, out=out):
        dot = (g * out).sum(axis=1, keepdims=True)
        return out * (g - dot)

    return _make("softmax_rows", out, [(a, back)])


def mean_rows(a: Value) -> Value:
    n = a.data.shape[0]
    out = a.data.mean(axis=0, keepdims=True)
    return _make(
        "mean_rows",
        out,
        [(a, lambda g, n=n: np.repeat(g, n, axis=0) / n)],
    )


def sum_all(a: Value) -> Value:
    return _make(
        "sum_all",
        np.array([[a.data.sum()]]),
        [(a, lambda g: np.full_like(a.data, g[0, 0]))],
    )


def sum_sq_rows(a: Value) -> Value:
    out = (a.data**2).sum(axis=1, keepdims=True)
    return _make("sum_sq_rows", out, [(a, lambda g, a=a: 2.0 * a.data * g)])


def _scatter(values: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """out[j] = sum of values' rows i with idx[i] == j."""
    out = np.zeros((num_rows, values.shape[1]))
    np.add.at(out, idx, values)
    return out


def gather_rows(a: Value, index) -> Value:
    idx = np.asarray(index, dtype=np.int64)
    n = a.data.shape[0]
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise ShapeMismatch("gather_rows", a.data.shape, (len(idx),))
    return _make("gather_rows", a.data[idx], [(a, lambda g, idx=idx, n=n: _scatter(g, idx, n))])


def scatter_add_rows(a: Value, index, num_rows: int) -> Value:
    """out[j] = sum of a's rows i with index[i] == j."""
    idx = np.asarray(index, dtype=np.int64)
    if len(idx) != a.data.shape[0]:
        raise ShapeMismatch("scatter_add_rows", a.data.shape, (len(idx),))
    if len(idx) and (idx.min() < 0 or idx.max() >= num_rows):
        raise ShapeMismatch("scatter_add_rows", (num_rows,), (len(idx),))
    out = _scatter(a.data, idx, num_rows)
    return _make("scatter_add_rows", out, [(a, lambda g, idx=idx: g[idx])])


def cross_entropy_rows(probs: Value, labels) -> Value:
    """Mean over rows of -log(probs[row, label]), clamped at 1e-12."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    r, c = probs.data.shape
    if len(labels) != r:
        raise ShapeMismatch("cross_entropy_rows", probs.data.shape, (len(labels),))
    if len(labels) and (labels.min() < 0 or labels.max() >= c):
        raise LabelOutOfRange(f"labels outside [0, {c})")
    picked = probs.data[np.arange(r), labels]
    clamped = np.maximum(picked, PROB_CLAMP)
    out = np.array([[-np.log(clamped).mean()]])

    def back(g, probs=probs, labels=labels, picked=picked, clamped=clamped, r=r):
        gp = np.zeros_like(probs.data)
        live = picked >= PROB_CLAMP
        gp[np.arange(r), labels] = -g[0, 0] * live / (clamped * r)
        return gp

    return _make("cross_entropy_rows", out, [(probs, back)])


# ------------------------------------------------------------------ backward


def _topo_order(root: Value):
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p, _ in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Value) -> None:
    """Reverse sweep from a 1x1 loss; gradients accumulate into .grad."""
    if loss.data.shape != (1, 1):
        raise NotScalar(f"backward requires a 1x1 loss, got {loss.data.shape}")
    if loss._backward_done:
        raise DoubleBackward("backward already ran on this loss")
    loss._backward_done = True

    order = _topo_order(loss)
    loss.accumulate_grad(np.ones((1, 1)))
    for node in reversed(order):
        g = node._grad
        if g is None:
            continue
        for parent, fn in node._parents:
            parent.accumulate_grad(fn(g))


# ---------------------------------------------------------------- grad check


def grad_check(builder, params, eps: float = 1e-6, seed: int = 0) -> dict:
    """Compare backward gradients against central finite differences.

    builder maps ``params`` (anything whose ``items()`` yields named
    parameter Values) to a scalar loss Value and must be deterministic. A
    random coordinate sample (GRADCHECK_SAMPLE_FRACTION of each array, at
    least GRADCHECK_MIN_COORDS) is perturbed by +-eps; one generator seeded
    by ``seed`` draws every array's sample, in array order. Returns, per
    array name, the maximum of |analytic - numeric| / max(1, |numeric|)
    over its sampled coordinates.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    named = list(params.items())

    f0 = builder(params).data[0, 0]
    f1 = builder(params).data[0, 0]
    if f0 != f1:
        raise NonDeterministic(f"loss evaluations differ: {f0!r} vs {f1!r}")

    for _, v in named:
        v.zero_grad()
    loss = builder(params)
    backward(loss)
    analytic = {name: v.grad.copy() for name, v in named}

    rng = np.random.default_rng(seed)
    max_err = {}
    for name, v in named:
        flat = v.data.reshape(-1)
        total = flat.size
        k = min(total, max(GRADCHECK_MIN_COORDS, int(np.ceil(GRADCHECK_SAMPLE_FRACTION * total))))
        coords = rng.choice(total, size=k, replace=False)
        a_flat = analytic[name].reshape(-1)
        max_err[name] = 0.0
        for c in coords:
            old = flat[c]
            flat[c] = old + eps
            f_plus = builder(params).data[0, 0]
            flat[c] = old - eps
            f_minus = builder(params).data[0, 0]
            flat[c] = old
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(a_flat[c] - numeric) / max(1.0, abs(numeric))
            max_err[name] = max(max_err[name], err)
    return max_err
