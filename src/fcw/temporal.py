"""Temporal encoding: a stacked GRU over time-major row stacks (one row per
vehicle and time step), then multi-head self-attention from each vehicle's
last time position over all of its observed positions.

Each GRU layer and the attention block are single autodiff nodes with a
hand-written backward. Parameters stay stored per gate and per head; the
ops pack them by concatenation at entry, cuDNN style (Appleyard et al.,
2016): one ``(D, 3H)`` input matrix for the three gates over all T steps
and one ``(H, 2H)`` recurrent matrix for the update and reset gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tensor


@dataclass
class GruLayerParams:
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.w_z, self.u_z, self.b_z, self.w_r, self.u_r, self.b_r, self.w_h, self.u_h, self.b_h)


@dataclass
class GruParams:
    layers: list[GruLayerParams] = field(default_factory=list)

    @property
    def hidden_size(self) -> int:
        return self.layers[0].u_z.shape[0]


@dataclass
class MhaHeadParams:
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor


@dataclass
class MhaParams:
    heads: list[MhaHeadParams] = field(default_factory=list)
    w_o: Tensor | None = None

    @property
    def d_k(self) -> int:
        return self.heads[0].w_q.shape[1]


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _gru_layer(x: Tensor, p: GruLayerParams, steps: int) -> Tensor:
    """One GRU layer over a time-major (T*n, D) stack as one node.

    z = sigmoid(x Wz + h Uz + bz); r likewise; the candidate uses the
    r-gated state; the new state is h + z * (candidate - h), from h = 0.
    """
    hidden = p.u_z.shape[0]
    n = x.shape[0] // steps
    w = np.concatenate([p.w_z.data, p.w_r.data, p.w_h.data], axis=1)
    u_zr = np.concatenate([p.u_z.data, p.u_r.data], axis=1)
    u_h = p.u_h.data
    xw = (x.data @ w + np.concatenate([p.b_z.data, p.b_r.data, p.b_h.data], axis=1)).reshape(steps, n, 3 * hidden)
    h_all = np.zeros((steps + 1, n, hidden))  # h_all[t] is the state before step t
    zr = np.empty((steps, n, 2 * hidden))
    cand = np.empty((steps, n, hidden))
    for t in range(steps):
        h = h_all[t]
        zr[t] = _sigmoid(xw[t, :, : 2 * hidden] + h @ u_zr)
        cand[t] = np.tanh(xw[t, :, 2 * hidden :] + (zr[t, :, hidden:] * h) @ u_h)
        h_all[t + 1] = h + zr[t, :, :hidden] * (cand[t] - h)
    out = Tensor(h_all[1:].reshape(steps * n, hidden), parents=(x, *p.tensors()))

    def backward(g):
        g = g.reshape(steps, n, hidden)
        h_prev, z, r = h_all[:-1], zr[:, :, :hidden], zr[:, :, hidden:]
        # per-step factors of the chain rule, for all steps at once
        keep = 1.0 - z
        via_cand = z * (1.0 - cand * cand)
        via_z = (cand - h_prev) * z * keep
        via_r = h_prev * r * (1.0 - r)
        d_pre = np.empty((steps, n, 3 * hidden))  # gradients of the gate pre-activations
        dh = np.zeros((n, hidden))
        for t in range(steps - 1, -1, -1):
            dh += g[t]
            d_cand = np.multiply(dh, via_cand[t], out=d_pre[t, :, 2 * hidden :])
            d_rh = d_cand @ u_h.T
            np.multiply(dh, via_z[t], out=d_pre[t, :, :hidden])
            np.multiply(d_rh, via_r[t], out=d_pre[t, :, hidden : 2 * hidden])
            dh = dh * keep[t] + d_rh * r[t] + d_pre[t, :, : 2 * hidden] @ u_zr.T
        d_flat = d_pre.reshape(steps * n, 3 * hidden)
        rh = (r * h_prev).reshape(steps * n, hidden)
        gw = x.data.T @ d_flat
        gb = d_flat.sum(axis=0, keepdims=True)
        gu_zr = h_prev.reshape(steps * n, hidden).T @ d_flat[:, : 2 * hidden]
        grads = (
            gw[:, :hidden], gu_zr[:, :hidden], gb[:, :hidden],
            gw[:, hidden : 2 * hidden], gu_zr[:, hidden:], gb[:, hidden : 2 * hidden],
            gw[:, 2 * hidden :], rh.T @ d_flat[:, 2 * hidden :], gb[:, 2 * hidden :],
        )
        for param, grad in zip(p.tensors(), grads):
            if param.requires_grad:
                param._accumulate(grad)
        if x.requires_grad:
            x._accumulate(d_flat @ w.T)

    out._backward = backward
    return out


def gru_encode_steps(x: Tensor, p: GruParams, steps: int) -> Tensor:
    """The stacked GRU over a time-major (T*n, D) stack: row t*n + v is
    vehicle v at step t. Returns the last layer's states, laid out alike."""
    if steps < 1 or x.shape[0] == 0 or x.shape[0] % steps != 0:
        raise ValueError(f"cannot split {x.shape[0]} rows into {steps} time steps")
    for layer in p.layers:
        if x.shape[1] != layer.w_z.shape[0]:
            raise ShapeMismatchError(f"gru: input {x.shape} vs weight {layer.w_z.shape}")
        x = _gru_layer(x, layer, steps)
    return x


def mha_blocks(y: Tensor, p: MhaParams, steps: int) -> Tensor:
    """Self-attention of each vehicle's last time position over its T
    positions, as one node.

    ``y`` is the time-major (T*n, H) GRU output; returns (n, H), the
    attended last position of every vehicle. No causal mask; the history is
    fully observed.
    """
    d_in = p.heads[0].w_q.shape[0]
    if y.shape[1] != d_in or y.shape[0] % steps != 0:
        raise ShapeMismatchError(f"mha: input {y.shape} vs weight {p.heads[0].w_q.shape}, {steps} steps")
    m, d_k = len(p.heads), p.d_k
    n = y.shape[0] // steps
    inv = 1.0 / math.sqrt(d_k)
    w_q = np.concatenate([h.w_q.data for h in p.heads], axis=1)
    w_kv = np.concatenate([h.w_k.data for h in p.heads] + [h.w_v.data for h in p.heads], axis=1)
    w_o = p.w_o.data
    last = y.data[(steps - 1) * n :]
    q = (last @ w_q).reshape(n, m, d_k)
    kv = (y.data @ w_kv).reshape(steps, n, 2, m, d_k)
    k, v = kv[:, :, 0], kv[:, :, 1]
    s = np.einsum("nmd,tnmd->nmt", q, k) * inv
    e = np.exp(s - s.max(axis=2, keepdims=True))
    att = e / e.sum(axis=2, keepdims=True)
    heads_out = np.einsum("nmt,tnmd->nmd", att, v).reshape(n, m * d_k)
    params = [t for h in p.heads for t in (h.w_q, h.w_k, h.w_v)]
    out = Tensor(heads_out @ w_o, parents=(y, *params, p.w_o))

    def backward(g):
        if p.w_o.requires_grad:
            p.w_o._accumulate(heads_out.T @ g)
        d_heads = (g @ w_o.T).reshape(n, m, d_k)
        d_att = np.einsum("nmd,tnmd->nmt", d_heads, v)
        d_s = att * (d_att - (att * d_att).sum(axis=2, keepdims=True)) * inv
        d_q = np.einsum("nmt,tnmd->nmd", d_s, k).reshape(n, m * d_k)
        d_kv = np.empty((steps, n, 2, m, d_k))
        d_kv[:, :, 0] = np.einsum("nmt,nmd->tnmd", d_s, q)
        d_kv[:, :, 1] = np.einsum("nmt,nmd->tnmd", att, d_heads)
        d_kv = d_kv.reshape(steps * n, 2 * m * d_k)
        g_q = last.T @ d_q
        g_kv = y.data.T @ d_kv
        for i, head in enumerate(p.heads):
            cols = slice(i * d_k, (i + 1) * d_k)
            for param, grad in (
                (head.w_q, g_q[:, cols]),
                (head.w_k, g_kv[:, cols]),
                (head.w_v, g_kv[:, m * d_k :][:, cols]),
            ):
                if param.requires_grad:
                    param._accumulate(grad)
        if y.requires_grad:
            gy = d_kv @ w_kv.T
            gy[(steps - 1) * n :] += d_q @ w_q.T
            y._accumulate(gy)

    out._backward = backward
    return out
