"""Parameter storage, Adam and the cosine learning-rate schedule."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, parameter


class ParameterStore:
    """Named parameter tensors; paths are unique, gradients live on the tensors.

    The tensors' data are views into one contiguous parameter vector, so
    the optimiser updates every parameter with a few vector ops. The vector
    is packed on first use and packed again whenever a tensor was added or
    its ``data`` rebound to another array.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._flat = np.zeros(0)
        self._data_views: list[np.ndarray] = []

    def add(self, path: str, data) -> Tensor:
        if path in self._params:
            raise ValueError(f"duplicate parameter path: {path}")
        t = parameter(data)
        self._params[path] = t
        return t

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def __contains__(self, path: str) -> bool:
        return path in self._params

    def paths(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def flat(self) -> np.ndarray:
        """The parameter vector; every tensor's ``data`` is a view into it."""
        tensors = list(self._params.values())
        if len(tensors) != len(self._data_views) or any(t.data is not v for t, v in zip(tensors, self._data_views)):
            self._flat = np.concatenate([t.data.reshape(-1) for t in tensors] or [np.zeros(0)])
            bounds = np.cumsum([0] + [t.data.size for t in tensors]).tolist()
            self._data_views = [self._flat[lo:hi].reshape(t.shape) for t, lo, hi in zip(tensors, bounds, bounds[1:])]
            for t, view in zip(tensors, self._data_views):
                t.data = view
        return self._flat

    def flat_grad(self) -> np.ndarray:
        """The gradient vector, laid out as ``flat()``; a missing gradient is zeros."""
        return np.concatenate(
            [np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1) for t in self._params.values()]
            or [np.zeros(0)]
        )

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None


@dataclass
class OptimizerState:
    """Adam moments over the store's flat parameter vector, and step counter."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params: ParameterStore, state: OptimizerState, lr: float) -> None:
    """Bias-corrected Adam update in place over the flat parameter vector;
    missing gradients count as zero."""
    theta = params.flat()
    g = params.flat_grad()
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    elif state.m.shape != theta.shape:
        raise ValueError(f"optimizer state holds {state.m.size} moments for {theta.size} parameters")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g; theta -= lr*mhat / (sqrt(vhat) + eps),
    # the same operations in the same order as per tensor, into two scratch vectors
    step, den = np.empty_like(theta), np.empty_like(theta)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    v += np.multiply(np.multiply(g, 1.0 - b2, out=step), g, out=step)
    np.multiply(np.divide(m, 1.0 - b1**t, out=step), lr, out=step)
    np.sqrt(np.divide(v, 1.0 - b2**t, out=den), out=den)
    den += state.eps
    theta -= np.divide(step, den, out=step)


@dataclass
class LRSchedule:
    base_rate: float = 1e-3
    min_rate: float = 0.0
    total_epochs: int = 200


def cosine_lr(epoch: int, sched: LRSchedule) -> float:
    """Cosine annealing from base to min over total_epochs."""
    if not 0 <= epoch <= sched.total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {sched.total_epochs}]")
    span = sched.base_rate - sched.min_rate
    return sched.min_rate + 0.5 * span * (1.0 + math.cos(math.pi * epoch / sched.total_epochs))
