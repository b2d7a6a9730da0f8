"""Temporal encoding: a stacked GRU over time-major row stacks (one row per
vehicle and time step), then multi-head self-attention from each vehicle's
last time position over all of its observed positions.

Each GRU layer and the attention block are single autodiff nodes with a
hand-written backward. Parameters are stored packed in the layout the ops
read, cuDNN style (Appleyard et al., 2016): per GRU layer one ``(D, 3H)``
input matrix for the three gates over all T steps, one ``(H, 2H)``
recurrent matrix for the update and reset gates, the candidate's
``(H, H)`` and one ``(1, 3H)`` bias; for the attention one ``(H, M*d_k)``
query matrix and one ``(H, 2*M*d_k)`` key and value matrix for all heads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tensor


@dataclass
class GruLayerParams:
    w: Tensor  # (D, 3H): input weights of the update, reset and candidate gates
    u_zr: Tensor  # (H, 2H): recurrent weights of the update and reset gates
    u_h: Tensor  # (H, H): recurrent weights of the candidate
    b: Tensor  # (1, 3H): biases, gates as in ``w``

    def tensors(self) -> tuple[Tensor, ...]:
        return (self.w, self.u_zr, self.u_h, self.b)


@dataclass
class GruParams:
    layers: list[GruLayerParams] = field(default_factory=list)


@dataclass
class MhaParams:
    w_q: Tensor  # (H, M*d_k): head m's queries in columns [m*d_k, (m+1)*d_k)
    w_kv: Tensor  # (H, 2*M*d_k): every head's keys, then every head's values
    w_o: Tensor  # (M*d_k, H)
    heads: int

    @property
    def d_k(self) -> int:
        return self.w_q.shape[1] // self.heads


def _gru_layer(x: Tensor, p: GruLayerParams, steps: int) -> Tensor:
    """One GRU layer over a time-major (T*n, D) stack as one node.

    z = sigmoid(x Wz + h Uz + bz); r likewise; the candidate uses the
    r-gated state; the new state is h + z * (candidate - h), from h = 0.
    """
    hidden = p.u_h.shape[0]
    n = x.shape[0] // steps
    w, u_zr, u_h = p.w.data, p.u_zr.data, p.u_h.data
    xw = x.data @ w
    xw += p.b.data
    xw = xw.reshape(steps, n, 3 * hidden)
    h_all = np.zeros((steps + 1, n, hidden))  # h_all[t] is the state before step t
    zr = np.empty((steps, n, 2 * hidden))
    cand = np.empty((steps, n, hidden))
    # Each step writes into these arrays and one scratch, never into a fresh
    # temporary. The sigmoid's negation is folded into the weights:
    # h @ (-U) is exactly -(h @ U), and (-m) - xw exactly -(xw + m).
    neg_u_zr = -u_zr
    rh = np.empty((n, hidden))
    for t in range(steps):
        h, gates, c, h_next = h_all[t], zr[t], cand[t], h_all[t + 1]
        np.matmul(h, neg_u_zr, out=gates)
        gates -= xw[t, :, : 2 * hidden]
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
        np.multiply(gates[:, hidden:], h, out=rh)
        np.matmul(rh, u_h, out=c)
        c += xw[t, :, 2 * hidden :]
        np.tanh(c, out=c)
        np.subtract(c, h, out=h_next)
        h_next *= gates[:, :hidden]
        h_next += h

    def backward(g):
        g = g.reshape(steps, n, hidden)
        h_prev, z, r = h_all[:-1], zr[:, :, :hidden], zr[:, :, hidden:]
        # per-step factors of the chain rule, for all steps at once, each
        # built in place in one array
        keep = np.subtract(1.0, z)
        via_cand = cand * cand
        np.subtract(1.0, via_cand, out=via_cand)
        via_cand *= z
        via_z = cand - h_prev
        via_z *= z
        via_z *= keep
        rh = h_prev * r
        via_r = np.subtract(1.0, r)
        via_r *= rh
        d_pre = np.empty((steps, n, 3 * hidden))  # gradients of the gate pre-activations
        dh = np.zeros((n, hidden))
        d_rh, d_zr = np.empty((n, hidden)), np.empty((n, hidden))
        for t in range(steps - 1, -1, -1):
            dh += g[t]
            d_cand = np.multiply(dh, via_cand[t], out=d_pre[t, :, 2 * hidden :])
            np.matmul(d_cand, u_h.T, out=d_rh)
            np.multiply(dh, via_z[t], out=d_pre[t, :, :hidden])
            np.multiply(d_rh, via_r[t], out=d_pre[t, :, hidden : 2 * hidden])
            # dh <- dh * keep + d_rh * r + d_pre[zr] @ U_zr^T, summed in that order
            dh *= keep[t]
            d_rh *= r[t]
            dh += d_rh
            np.matmul(d_pre[t, :, : 2 * hidden], u_zr.T, out=d_zr)
            dh += d_zr
        d_flat = d_pre.reshape(steps * n, 3 * hidden)
        rh = rh.reshape(steps * n, hidden)
        grads = (
            x.data.T @ d_flat,
            h_prev.reshape(steps * n, hidden).T @ d_flat[:, : 2 * hidden],
            rh.T @ d_flat[:, 2 * hidden :],
            d_flat.sum(axis=0, keepdims=True),
        )
        for param, grad in zip(p.tensors(), grads):
            if param.requires_grad:
                param._accumulate(grad)
        if x.requires_grad:
            x._accumulate(d_flat @ w.T)

    return Tensor(h_all[1:].reshape(steps * n, hidden), parents=(x, *p.tensors()), backward=backward)


def gru_encode_steps(x: Tensor, p: GruParams, steps: int) -> Tensor:
    """The stacked GRU over a time-major (T*n, D) stack: row t*n + v is
    vehicle v at step t. Returns the last layer's states, laid out alike."""
    if steps < 1 or x.shape[0] == 0 or x.shape[0] % steps != 0:
        raise ValueError(f"cannot split {x.shape[0]} rows into {steps} time steps")
    for layer in p.layers:
        if x.shape[1] != layer.w.shape[0]:
            raise ShapeMismatchError(f"gru: input {x.shape} vs weight {layer.w.shape}")
        x = _gru_layer(x, layer, steps)
    return x


def mha_blocks(y: Tensor, p: MhaParams, steps: int) -> Tensor:
    """Self-attention of each vehicle's last time position over its T
    positions, as one node.

    ``y`` is the time-major (T*n, H) GRU output; returns (n, H), the
    attended last position of every vehicle. No causal mask; the history is
    fully observed.
    """
    if y.shape[1] != p.w_q.shape[0] or y.shape[0] % steps != 0:
        raise ShapeMismatchError(f"mha: input {y.shape} vs weight {p.w_q.shape}, {steps} steps")
    m, d_k = p.heads, p.d_k
    n = y.shape[0] // steps
    inv = 1.0 / math.sqrt(d_k)
    w_q, w_kv, w_o = p.w_q.data, p.w_kv.data, p.w_o.data
    last = y.data[(steps - 1) * n :]
    q = (last @ w_q).reshape(n, m, d_k)
    kv = (y.data @ w_kv).reshape(steps, n, 2, m, d_k)
    k, v = kv[:, :, 0], kv[:, :, 1]
    s = np.einsum("nmd,tnmd->nmt", q, k) * inv
    e = np.exp(s - s.max(axis=2, keepdims=True))
    att = e / e.sum(axis=2, keepdims=True)
    heads_out = np.einsum("nmt,tnmd->nmd", att, v).reshape(n, m * d_k)

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
        if p.w_q.requires_grad:
            p.w_q._accumulate(last.T @ d_q)
        if p.w_kv.requires_grad:
            p.w_kv._accumulate(y.data.T @ d_kv)
        if y.requires_grad:
            gy = d_kv @ w_kv.T
            gy[(steps - 1) * n :] += d_q @ w_q.T
            y._accumulate(gy)

    return Tensor(heads_out @ w_o, parents=(y, p.w_q, p.w_kv, p.w_o), backward=backward)
