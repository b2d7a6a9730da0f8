"""Per-frame spatial interaction: radius graph and multi-head graph attention.

Attention scores are evaluated per directed edge only (never all pairs), so
the work per frame is proportional to the edge count; ``WorkCounter`` makes
that measurable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# Feature layout per vehicle row: x, y, vx, vy, ax, ay, length, width
FEATURE_DIM = 8


def check_vehicle_states(states, ndim: int) -> np.ndarray:
    """Validated float64 vehicle states of shape (..., N, 8) with ``ndim``
    axes: at least one vehicle (and frame), finite features, and positive
    length and width."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != ndim or states.shape[-1] != FEATURE_DIM:
        raise ValueError(f"expected {ndim}-axis (..., N, {FEATURE_DIM}) vehicle states, got {states.shape}")
    if 0 in states.shape:
        raise ValueError(f"vehicle states need at least one vehicle and one frame, got {states.shape}")
    if not np.isfinite(states).all():
        raise ValueError("non-finite vehicle features")
    if (states[..., 6:8] <= 0).any():
        raise ValueError("vehicle length/width must be positive")
    return states


@dataclass
class SceneFrame:
    """One time slice of the scene: N vehicles, 8 features each."""

    timestamp: float
    vehicles: np.ndarray  # (N, 8)

    def __post_init__(self):
        self.vehicles = check_vehicle_states(self.vehicles, 2)

    @property
    def n(self) -> int:
        return self.vehicles.shape[0]

    @property
    def positions(self) -> np.ndarray:
        return self.vehicles[:, 0:2]


@dataclass
class WorkCounter:
    """Counts attention-score evaluations; one per directed edge per head.

    A forward pass counts the frames its batch lays out: all T observed
    frames, or only the last one when the model has no temporal stage
    (``gru_layers = 0``).
    """

    score_evals: int = 0
    all_pairs_equivalent: int = 0


def _radius_pairs(points: np.ndarray, group: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs (i, j), i != j, of rows of ``points`` (M, 2) that share a
    ``group`` label (a non-negative integer per row) and lie strictly closer
    than ``radius``.

    Sort and sweep: the finite points are sorted along the longer axis of
    their bounding box, with the groups laid end to end on that axis, and
    each point's candidates are the later points inside its +radius band.
    A candidate is kept only if it passes the same distance test as a dense
    scan. Work and memory are linear in M times the band occupancy, with no
    loop over points or groups. A non-finite point never matches.
    """
    empty = np.zeros(0, dtype=np.intp)
    rows = np.flatnonzero(np.isfinite(points).all(axis=1))
    if len(rows) < 2 or not radius > 0:
        return empty, empty
    pts = points[rows]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    axis = int(np.argmax(hi - lo))
    span = hi[axis] - lo[axis]
    reach = min(radius, span)  # no two points lie further than span apart on the axis
    # groups sit one stride apart on the axis, so a band never reaches into
    # the next group; the same-group test below keeps the result exact anyway
    stride = span + 2.0 * reach + 1.0
    key = (pts[:, axis] - lo[axis]) + group[rows] * stride
    order = np.argsort(key)
    key = key[order]
    # pad the band so that rounding in the key never drops a true neighbour
    band = reach + 64.0 * np.finfo(np.float64).eps * (key[-1] + reach)
    ends = np.searchsorted(key, key + band, side="right")
    first = np.arange(len(key))
    count = np.maximum(ends - first - 1, 0)
    a = np.repeat(first, count)
    run_start = np.repeat(np.cumsum(count) - count, count)
    b = np.arange(len(a))
    b -= run_start
    b += a
    b += 1
    # the distance test on 1-D columns in sweep order: dx*dx + dy*dy is
    # exactly the row sum of the squared difference
    ranked = rows[order]
    xs, ys = points[ranked, 0], points[ranked, 1]
    dist = xs[a]
    dist -= xs[b]
    dist *= dist
    dy = ys[a]
    dy -= ys[b]
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    ranked_group = group[ranked]
    keep = ranked_group[a] == ranked_group[b]
    keep &= dist < radius
    return ranked[a[keep]], ranked[b[keep]]


def edges_from_positions(positions: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Directed radius-graph edges (src, dst); message flows src -> dst.

    ``positions`` is (..., N, 2): one frame or a stack of frames. j is a
    neighbour of i when both sit in the same frame and their centre distance
    is strictly below ``radius``; every vehicle is its own neighbour.
    Indices run over the flattened rows, and the edges are sorted by
    (frame, dst, src).
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[-2]
    points = positions.reshape(-1, 2)
    rows = np.arange(len(points))
    i, j = _radius_pairs(points, rows // max(n, 1), radius)
    total, m = len(points), len(i)
    code = np.empty(2 * m + total, dtype=np.intp)  # dst * total + src of every edge
    np.multiply(i, total, out=code[:m])
    code[:m] += j
    np.multiply(j, total, out=code[m : 2 * m])
    code[m : 2 * m] += i
    np.multiply(rows, total + 1, out=code[2 * m :])
    code.sort()
    dst, src = np.divmod(code, max(total, 1))
    return src, dst


def embed_features(x: Tensor, w_e: Tensor, b_e: Tensor) -> Tensor:
    """ELU(x @ W_e + b_e): lift raw vehicle features to the hidden width."""
    return ad.elu(ad.linear(x, w_e, b_e))


@dataclass
class GatLayerParams:
    w: Tensor  # (D_in, K*d_out): head k's transform in columns [k*d_out, (k+1)*d_out)
    a: Tensor  # (K, 2*d_out): head k's attention vector, destination half first
    combine: str = "concat"  # hidden layers concat, final layer averages
    leaky_slope: float = 0.2


# Mean in-degree below which a GAT call sums over its edges with
# ``np.bincount``; at and above it ``reduceat`` over sorted runs is faster.
SPARSE_DEGREE = 8


class _Segments:
    """Per-node sums and maxima of per-edge values (..., E) grouped by an
    edge ``index`` over n nodes, as (..., n); a node without edges gets 0
    or -inf.

    On a ``sparse`` graph the edges may come in any order: a sum is one
    ``np.bincount`` over the flattened (row, node) bins, so up to ``rows``
    rows go in one call, and a maximum one ``np.maximum.at``. Otherwise the
    edges are stably sorted by ``index`` once, unless already sorted, and a
    reduction is one ``reduceat`` over the runs of equal index on the last,
    contiguous axis.
    """

    def __init__(self, index: np.ndarray, n: int, sparse: bool, rows: int = 1):
        self.n = n
        if sparse:
            self.bins = (np.arange(rows)[:, None] * n + index).reshape(-1)
            return
        self.bins = None
        self.order = None if (index[1:] >= index[:-1]).all() else np.argsort(index, kind="stable")
        ordered = index if self.order is None else index[self.order]
        # run starts: every edge whose index differs from its predecessor's (none without edges)
        self.starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]])[: len(ordered)])
        self.owners = ordered[self.starts]

    def _runs(self, ufunc, values: np.ndarray, fill: float) -> np.ndarray:
        out = np.full((*values.shape[:-1], self.n), fill)
        if values.shape[-1]:
            if self.order is not None:
                values = np.take(values, self.order, axis=-1)
            out[..., self.owners] = ufunc.reduceat(values, self.starts, axis=-1)
        return out

    def sum(self, values: np.ndarray) -> np.ndarray:
        if self.bins is None:
            return self._runs(np.add, values, 0.0)
        lead = values.shape[:-1]
        size = math.prod(lead) * self.n
        sums = np.bincount(self.bins[: values.size], weights=values.reshape(-1), minlength=size)
        # without edges bincount counts in integers; the sums stay float64
        return sums.astype(np.float64, copy=False).reshape(*lead, self.n)

    def max(self, values: np.ndarray) -> np.ndarray:
        if self.bins is None:
            return self._runs(np.maximum, values, -np.inf)
        out = np.full((*values.shape[:-1], self.n), -np.inf)
        np.maximum.at(out.reshape(-1), self.bins[: values.size], values.reshape(-1))
        return out


def gat_layer_edges(
    h: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    layer: GatLayerParams,
    counter: WorkCounter | None = None,
    frames: int = 1,
) -> Tensor:
    """One GAT layer over an explicit edge list, all heads as one node.

    Per head, edge e = (src -> dst) scores LeakyReLU(a_dst . Wh[dst] +
    a_src . Wh[src]); the scores are softmax-normalised over each
    destination's edges and weight the messages Wh[src]. Hidden layers
    concatenate the heads, the final layer averages them; ELU follows.
    The layer's parameters are stored packed (see ``GatLayerParams``), so
    the heads' transforms run as one (D, K*d_out) matmul; the edge work
    runs head by head. Edges in any order are accepted. The per-node sums
    and maxima follow the mean in-degree: below ``SPARSE_DEGREE`` edges
    per node they are ``np.bincount`` and ``np.maximum.at`` calls, at and
    above it ``reduceat`` over the edges sorted by node (see ``_Segments``).

    ``h`` may stack ``frames`` disjoint frame graphs of equal size, as one
    block-diagonal graph (``forward_batch`` passes a run of frames per
    call); the all-pairs count is then K * n_frame^2 per frame, as if each
    frame had its own call.
    """
    if layer.combine not in ("concat", "average"):
        raise ValueError(f"unknown combine mode: {layer.combine}")
    slope = layer.leaky_slope
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky slope must be in (0, 1), got {slope}")
    n, k, d_out = h.shape[0], layer.a.shape[0], layer.a.shape[1] // 2
    if frames < 1 or n % frames:
        raise ValueError(f"{n} rows do not split into {frames} equal frames")
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    if counter is not None:
        counter.score_evals += k * len(src)
        counter.all_pairs_equivalent += k * frames * (n // frames) ** 2
    sparse = len(src) < SPARSE_DEGREE * n
    to_dst = _Segments(dst, n, sparse, d_out)
    w, a = layer.w.data, layer.a.data
    wh = h.data @ w  # (n, K*d_out), head i in columns [i*d_out, (i+1)*d_out)
    wh_t = wh.T.copy()  # head i's messages gather from the contiguous rows [i*d_out, (i+1)*d_out)
    # first half of each attention vector pairs with the destination node
    a_dst, a_src = a[:, :d_out], a[:, d_out:]
    alphas, zs = [], []
    concat = layer.combine == "concat"
    pre = np.empty((n, k * d_out)) if concat else None
    msgs = np.empty((d_out, len(src)))  # one message buffer for every head
    for i in range(k):
        cols = slice(i * d_out, (i + 1) * d_out)
        whi = wh[:, cols]
        z = (whi @ a_src[i])[src]
        z += (whi @ a_dst[i])[dst]
        score = np.multiply(z, slope)
        np.maximum(z, score, out=score)  # LeakyReLU, branch-free for a slope in (0, 1)
        alpha = to_dst.max(score)[dst]
        np.subtract(score, alpha, out=alpha)
        np.exp(alpha, out=alpha)
        norm = to_dst.sum(alpha)[dst]
        np.divide(alpha, norm, out=alpha)
        alphas.append(alpha)
        zs.append(z)
        # src was bounds-checked by the score gather above, so "wrap" is exact
        np.take(wh_t[cols], src, axis=1, out=msgs, mode="wrap")
        msgs *= alpha
        agg = to_dst.sum(msgs).T
        if concat:
            pre[:, cols] = agg
        elif i == 0:
            pre = agg
        else:
            pre += agg
    if not concat:
        pre *= 1.0 / k
    value, d_elu = ad.elu_and_derivative(pre)
    out = Tensor(value, parents=(h, layer.w, layer.a))

    def backward(g):
        # (K*d_out, n) for concat, (d_out, n) for average: rows gather contiguously by edge
        g_pre_t = np.multiply(g.T, d_elu.T, out=np.empty(g.shape[::-1]))
        if not concat:
            g_pre_t *= 1.0 / k
        wh_t = wh.T.copy()
        # messages and source scores scatter onto the source nodes, d_out + 1 rows at once
        to_src = _Segments(src, n, sparse, d_out + 1)
        stack = np.empty((d_out + 1, len(src)))
        g_msgs, g_z = stack[:d_out], stack[d_out]
        msgs = np.empty((d_out, len(src)))
        g_wh = np.empty_like(wh)
        g_a = np.empty_like(a)
        term = np.empty((n, d_out))
        for i in range(k):
            cols = slice(i * d_out, (i + 1) * d_out)
            whi = wh[:, cols]
            alpha = alphas[i]
            # edge indices were bounds-checked by the forward's gathers, so "wrap" is exact
            np.take(g_pre_t[cols] if concat else g_pre_t, dst, axis=1, out=g_msgs, mode="wrap")
            np.take(wh_t[cols], src, axis=1, out=msgs, mode="wrap")
            g_alpha = np.einsum("de,de->e", g_msgs, msgs)
            inner = to_dst.sum(alpha * g_alpha)
            np.subtract(g_alpha, inner[dst], out=g_z)
            g_z *= alpha
            g_z *= np.where(zs[i] > 0.0, 1.0, slope)
            g_s_dst = to_dst.sum(g_z)
            g_msgs *= alpha
            g_src = to_src.sum(stack)
            g_whi = g_wh[:, cols]
            g_whi[...] = g_src[:d_out].T
            g_whi += np.multiply.outer(g_src[d_out], a_src[i], out=term)
            g_whi += np.multiply.outer(g_s_dst, a_dst[i], out=term)
            g_a[i, :d_out] = whi.T @ g_s_dst
            g_a[i, d_out:] = whi.T @ g_src[d_out]
        if layer.a.requires_grad:
            layer.a._accumulate(g_a)
        if layer.w.requires_grad:
            layer.w._accumulate(h.data.T @ g_wh)
        if h.requires_grad:
            h._accumulate(g_wh @ w.T)

    out._backward = backward
    return out
