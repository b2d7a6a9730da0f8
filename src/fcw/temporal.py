"""Temporal encoding: a stacked GRU over per-timestep row batches (one row
per vehicle), then multi-head self-attention across each vehicle's observed
time positions."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


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


def gru_cell(x: Tensor, h_prev: Tensor, p: GruLayerParams) -> Tensor:
    """One GRU step; rows are independent batch elements.

    z = sigmoid(x Wz + h Uz + bz); r likewise; candidate uses r-gated state;
    new state convexly mixes h_prev and the candidate through z.
    """
    z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p.w_z), ad.matmul(h_prev, p.u_z)), p.b_z))
    r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, p.w_r), ad.matmul(h_prev, p.u_r)), p.b_r))
    h_tilde = ad.tanh(
        ad.add(ad.add(ad.matmul(x, p.w_h), ad.matmul(ad.mul(r, h_prev), p.u_h)), p.b_h)
    )
    # (1 - z) * h_prev + z * h_tilde, written as h_prev + z * (h_tilde - h_prev)
    return ad.add(h_prev, ad.mul(z, ad.sub(h_tilde, h_prev)))


def gru_encode_steps(steps: list[Tensor], p: GruParams) -> list[Tensor]:
    """Chain the stacked GRU over a list of per-timestep row batches."""
    if not steps:
        raise ValueError("empty sequence")
    seq = steps
    for layer in p.layers:
        hidden = layer.u_z.shape[0]
        h = ad.constant(np.zeros((seq[0].shape[0], hidden)))
        out = []
        for x in seq:
            h = gru_cell(x, h, layer)
            out.append(h)
        seq = out
    return seq


def mha_blocks(hv: Tensor, p: MhaParams, block: int) -> Tensor:
    """Self-attention within contiguous row blocks of length ``block``.

    ``hv`` stacks every sequence vehicle-major: rows [v*block, (v+1)*block)
    belong to one vehicle. No causal mask; the history is fully observed.
    """
    d_k = p.d_k
    inv = 1.0 / math.sqrt(d_k)
    outs = []
    for head in p.heads:
        q = ad.matmul(hv, head.w_q)
        k = ad.matmul(hv, head.w_k)
        v = ad.matmul(hv, head.w_v)
        scores = ad.scale(ad.block_matmul_nt(q, k, block), inv)
        weights = ad.softmax_rows(scores)
        outs.append(ad.block_matmul_nn(weights, v, block))
    return ad.matmul(ad.concat_cols(outs), p.w_o)

