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


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + bias row as one node. The shared affine primitive behind every layer."""
    if x.shape[1] != w.shape[0]:
        raise ShapeMismatchError(f"linear: input {x.shape} vs weight {w.shape}")
    if b.shape != (1, w.shape[1]):
        raise ShapeMismatchError(f"linear: bias {b.shape} vs weight {w.shape}")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y, parents=(x, w, b))

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


def elu_and_derivative(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ELU of an array and its derivative; fused ops that end in ELU share it.

    Branch-free: with e = exp(min(z, 0)), ELU is max(z, 0) + (e - 1) and its
    derivative is e. Where z > 0, e - 1 is exactly 0 and e exactly 1, so
    both equal the two-branch form bit for bit, signed zeros and infinities
    included.
    """
    e = np.minimum(z, 0.0)
    np.exp(e, out=e)
    value = np.subtract(e, 1.0)
    value += np.maximum(z, 0.0)
    return value, e


def elu(x: Tensor) -> Tensor:
    return _elementwise(x, *elu_and_derivative(x.data))


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


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[start:stop], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            gx[start:stop] = g
            x._accumulate(gx)

    out._backward = backward
    return out
