"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tensor is a 2-D row-major float64 array. Operations build a small
computation graph through parent links and per-node backward closures;
``Tensor.backward()`` walks the graph in reverse topological order. The
graph is per-forward-invocation state: frozen-parameter evaluation from
several threads is safe as long as each thread builds its own graph.
"""
from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """Raised when operand shapes are incompatible."""


class DegenerateRowError(ValueError):
    """Raised when a softmax row has no unmasked entries."""


def _as_matrix(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got shape {a.shape}")
    return a


class Tensor:
    """A 2-D value in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        self.data = _as_matrix(data)
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this node; seeds with ones for a 1x1 scalar."""
        if seed is None:
            if self.data.size != 1:
                raise ShapeMismatchError("backward() without a seed requires a scalar output")
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(seed, dtype=np.float64).reshape(self.data.shape))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar for the common cases; the module-level functions are
    # the full surface.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _unbroadcast_rows(g: np.ndarray, target_shape) -> np.ndarray:
    if target_shape == g.shape:
        return g
    if target_shape[0] == 1 and target_shape[1] == g.shape[1]:
        return g.sum(axis=0, keepdims=True)
    raise ShapeMismatchError(f"cannot reduce gradient {g.shape} to {target_shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape and not (
        (a.shape[0] == 1 or b.shape[0] == 1) and a.shape[1] == b.shape[1]
    ):
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast_rows(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast_rows(g, b.shape))

    out._backward = backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, scale(b, -1.0))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mul: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data * b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    out._backward = backward
    return out


def scale(x: Tensor, s: float) -> Tensor:
    out = Tensor(x.data * s, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s)

    out._backward = backward
    return out


def affine(x: Tensor, a: float, b: float) -> Tensor:
    """Elementwise a*x + b."""
    out = Tensor(x.data * a + b, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * a)

    out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data @ b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    out._backward = backward
    return out


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ bias row). The shared affine primitive behind every layer."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear: input {x.shape} vs weight {w.shape}")
    if b is not None:
        if b.shape != (1, w.shape[1]):
            raise ShapeMismatchError(f"linear: bias {b.shape} vs weight {w.shape}")
        return add(matmul(x, w), b)
    return matmul(x, w)


def _elementwise(x: Tensor, value: np.ndarray, dvalue: np.ndarray) -> Tensor:
    out = Tensor(value, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * dvalue)

    out._backward = backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    v = 1.0 / (1.0 + np.exp(-x.data))
    return _elementwise(x, v, v * (1.0 - v))


def tanh(x: Tensor) -> Tensor:
    v = np.tanh(x.data)
    return _elementwise(x, v, 1.0 - v * v)


def relu(x: Tensor) -> Tensor:
    v = np.maximum(x.data, 0.0)
    return _elementwise(x, v, (x.data > 0.0).astype(np.float64))


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0,1), got {slope}")
    v = np.where(x.data > 0.0, x.data, slope * x.data)
    return _elementwise(x, v, np.where(x.data > 0.0, 1.0, slope))


def elu(x: Tensor) -> Tensor:
    e = np.exp(np.minimum(x.data, 0.0))
    v = np.where(x.data > 0.0, x.data, e - 1.0)
    return _elementwise(x, v, np.where(x.data > 0.0, 1.0, e))


def activation(x: Tensor, kind: str, slope: float = 0.2) -> Tensor:
    if kind == "leaky_relu":
        return leaky_relu(x, slope)
    if kind == "elu":
        return elu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    if kind == "tanh":
        return tanh(x)
    if kind == "relu":
        return relu(x)
    raise ValueError(f"unknown activation kind: {kind}")


def square(x: Tensor) -> Tensor:
    return mul(x, x)


def sqrt(x: Tensor, eps: float = 1e-12) -> Tensor:
    v = np.sqrt(x.data + eps)
    return _elementwise(x, v, 0.5 / v)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeMismatchError(f"maximum: shapes {a.shape} and {b.shape}")
    pick_a = a.data >= b.data
    out = Tensor(np.where(pick_a, a.data, b.data), parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * pick_a)
        if b.requires_grad:
            b._accumulate(g * ~pick_a)

    out._backward = backward
    return out


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax, stabilized by row-max subtraction.

    With a boolean mask, masked entries are exactly zero and each row
    normalizes over its unmasked entries. A fully masked row is an error;
    graph construction guarantees self-loops upstream.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape:
            raise ShapeMismatchError(f"softmax mask {mask.shape} vs input {x.shape}")
        if not mask.any(axis=1).all():
            raise DegenerateRowError("softmax row with every entry masked")
        z = np.where(mask, x.data, -np.inf)
    else:
        z = x.data
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, parents=(x,))

    def backward(g):
        if x.requires_grad:
            inner = (g * p).sum(axis=1, keepdims=True)
            gx = p * (g - inner)
            x._accumulate(gx)

    out._backward = backward
    return out


def concat_rows(parts: list[Tensor]) -> Tensor:
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise ShapeMismatchError("concat_rows: column mismatch")
    out = Tensor(np.concatenate([p.data for p in parts], axis=0), parents=tuple(parts))

    def backward(g):
        start = 0
        for p in parts:
            n = p.shape[0]
            if p.requires_grad:
                p._accumulate(g[start : start + n])
            start += n

    out._backward = backward
    return out


def concat_cols(parts: list[Tensor]) -> Tensor:
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeMismatchError("concat_cols: row mismatch")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), parents=tuple(parts))

    def backward(g):
        start = 0
        for p in parts:
            n = p.shape[1]
            if p.requires_grad:
                p._accumulate(g[:, start : start + n])
            start += n

    out._backward = backward
    return out


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accumulate(gx)

    out._backward = backward
    return out


def gather_cols(x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[:, idx], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gt = np.zeros_like(x.data.T)
            np.add.at(gt, idx, g.T)
            x._accumulate(gt.T)

    out._backward = backward
    return out


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[start:stop], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            x._accumulate(gx)

    out._backward = backward
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor([[x.data.sum()]], parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g[0, 0]))

    out._backward = backward
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = Tensor([[x.data.mean()]], parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g[0, 0] / n))

    out._backward = backward
    return out


def edge_softmax(scores: Tensor, dst: np.ndarray, n_nodes: int) -> Tensor:
    """Softmax of per-edge scores grouped by destination node.

    ``scores`` is (E, 1); entries with the same ``dst`` index normalize
    together. Max-subtraction per group for stability.
    """
    if scores.shape[1] != 1:
        raise ShapeMismatchError(f"edge_softmax expects (E,1) scores, got {scores.shape}")
    dst = np.asarray(dst, dtype=np.intp)
    s = scores.data[:, 0]
    gmax = np.full(n_nodes, -np.inf)
    np.maximum.at(gmax, dst, s)
    e = np.exp(s - gmax[dst])
    gsum = np.zeros(n_nodes)
    np.add.at(gsum, dst, e)
    alpha = e / gsum[dst]
    out = Tensor(alpha.reshape(-1, 1), parents=(scores,))

    def backward(g):
        if scores.requires_grad:
            gv = g[:, 0]
            inner = np.zeros(n_nodes)
            np.add.at(inner, dst, alpha * gv)
            gs = alpha * (gv - inner[dst])
            scores._accumulate(gs.reshape(-1, 1))

    out._backward = backward
    return out


def edge_aggregate(alpha: Tensor, msgs: Tensor, dst: np.ndarray, n_nodes: int) -> Tensor:
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * msgs[e]."""
    if alpha.shape != (msgs.shape[0], 1):
        raise ShapeMismatchError(f"edge_aggregate: alpha {alpha.shape} vs msgs {msgs.shape}")
    dst = np.asarray(dst, dtype=np.intp)
    acc = np.zeros((n_nodes, msgs.shape[1]))
    if len(dst):
        # sum each run of equal dst, then scatter one row per run; a
        # dst-sorted edge list has one run per node
        starts = np.flatnonzero(np.concatenate([[True], dst[1:] != dst[:-1]]))
        np.add.at(acc, dst[starts], np.add.reduceat(alpha.data * msgs.data, starts, axis=0))
    out = Tensor(acc, parents=(alpha, msgs))

    def backward(g):
        ge = g[dst]
        if alpha.requires_grad:
            alpha._accumulate((ge * msgs.data).sum(axis=1, keepdims=True))
        if msgs.requires_grad:
            msgs._accumulate(ge * alpha.data)

    out._backward = backward
    return out


def block_matmul_nt(q: Tensor, k: Tensor, block: int) -> Tensor:
    """Block-diagonal Q @ K^T: rows grouped in blocks of size ``block``.

    Both inputs are (B*block, d); output is (B*block, block) where row
    (b, t) holds the scores of query (b, t) against block b's keys.
    """
    if q.shape != k.shape or q.shape[0] % block != 0:
        raise ShapeMismatchError(f"block_matmul_nt: {q.shape} vs {k.shape}, block {block}")
    nb = q.shape[0] // block
    q3 = q.data.reshape(nb, block, -1)
    k3 = k.data.reshape(nb, block, -1)
    s = np.einsum("btd,bsd->bts", q3, k3)
    out = Tensor(s.reshape(nb * block, block), parents=(q, k))

    def backward(g):
        g3 = g.reshape(nb, block, block)
        if q.requires_grad:
            q._accumulate(np.einsum("bts,bsd->btd", g3, k3).reshape(q.shape))
        if k.requires_grad:
            k._accumulate(np.einsum("bts,btd->bsd", g3, q3).reshape(k.shape))

    out._backward = backward
    return out


def block_matmul_nn(p: Tensor, v: Tensor, block: int) -> Tensor:
    """Block-diagonal P @ V: p is (B*block, block), v is (B*block, d)."""
    if p.shape[0] != v.shape[0] or p.shape[1] != block or p.shape[0] % block != 0:
        raise ShapeMismatchError(f"block_matmul_nn: {p.shape} vs {v.shape}, block {block}")
    nb = p.shape[0] // block
    p3 = p.data.reshape(nb, block, block)
    v3 = v.data.reshape(nb, block, -1)
    o = np.einsum("bts,bsd->btd", p3, v3)
    out = Tensor(o.reshape(v.shape), parents=(p, v))

    def backward(g):
        g3 = g.reshape(nb, block, -1)
        if p.requires_grad:
            p._accumulate(np.einsum("btd,bsd->bts", g3, v3).reshape(p.shape))
        if v.requires_grad:
            v._accumulate(np.einsum("bts,btd->bsd", p3, g3).reshape(v.shape))

    out._backward = backward
    return out
