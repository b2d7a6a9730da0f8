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
        # copy on the first write: one array may reach several parents (add
        # hands the same g to both), so a stored gradient never aliases g
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
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
    """x @ w (+ bias row) as one node. The shared affine primitive behind every layer."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear: input {x.shape} vs weight {w.shape}")
    if b is None:
        return matmul(x, w)
    if b.shape != (1, w.shape[1]):
        raise ShapeMismatchError(f"linear: bias {b.shape} vs weight {w.shape}")
    out = Tensor(x.data @ w.data + b.data, parents=(x, w, b))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0, keepdims=True))

    out._backward = backward
    return out


def _elementwise(x: Tensor, value: np.ndarray, dvalue: np.ndarray) -> Tensor:
    out = Tensor(value, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * dvalue)

    out._backward = backward
    return out


def relu(x: Tensor) -> Tensor:
    v = np.maximum(x.data, 0.0)
    return _elementwise(x, v, (x.data > 0.0).astype(np.float64))


def elu_and_derivative(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ELU of an array and its derivative; fused ops that end in ELU share it."""
    e = np.exp(np.minimum(z, 0.0))
    return np.where(z > 0.0, z, e - 1.0), np.where(z > 0.0, 1.0, e)


def elu(x: Tensor) -> Tensor:
    return _elementwise(x, *elu_and_derivative(x.data))


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
