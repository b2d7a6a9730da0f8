"""Per-frame spatial interaction: radius graph and multi-head graph attention.

Attention scores are evaluated per directed edge only (never all pairs), so
the work per frame is proportional to the edge count; ``WorkCounter`` makes
that measurable.
"""
from __future__ import annotations

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
    frames, or only the last one under ``no_tam``.
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
    b = a + 1 + np.arange(len(a)) - run_start
    i, j = rows[order[a]], rows[order[b]]
    diff = points[i] - points[j]
    keep = (group[i] == group[j]) & (np.sqrt((diff**2).sum(axis=1)) < radius)
    return i[keep], j[keep]


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
    total = len(points)
    code = np.concatenate([i * total + j, j * total + i, rows * (total + 1)])
    code.sort()
    dst, src = np.divmod(code, max(total, 1))
    return src, dst


def frame_edge_lists(positions: np.ndarray, radius: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-frame local (src, dst) radius graphs of a (F, N, 2) position
    stack, from one stacked ``edges_from_positions`` call."""
    n_frames, n = positions.shape[:2]
    src, dst = edges_from_positions(positions, radius)
    frame = dst // n
    bounds = np.searchsorted(frame, np.arange(1, n_frames))
    return list(zip(np.split(src - frame * n, bounds), np.split(dst - frame * n, bounds)))


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
        size = int(np.prod(lead, dtype=np.intp)) * self.n
        return np.bincount(self.bins[: values.size], weights=values.reshape(-1), minlength=size).reshape(*lead, self.n)

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
    # first half of each attention vector pairs with the destination node
    a_dst, a_src = a[:, :d_out], a[:, d_out:]
    alphas, zs, aggs = [], [], []
    for i in range(k):
        whi = wh[:, i * d_out : (i + 1) * d_out]
        z = (whi @ a_src[i])[src] + (whi @ a_dst[i])[dst]
        score = np.maximum(z, slope * z)  # LeakyReLU, branch-free for a slope in (0, 1)
        ex = np.exp(score - to_dst.max(score)[dst])
        alpha = ex / to_dst.sum(ex)[dst]
        alphas.append(alpha)
        zs.append(z)
        msgs = np.take(whi.T, src, axis=1)  # (d_out, E)
        msgs *= alpha
        aggs.append(to_dst.sum(msgs).T)
    if layer.combine == "concat":
        pre = np.concatenate(aggs, axis=1)
    else:
        pre = aggs[0]
        for agg in aggs[1:]:
            pre = pre + agg
        pre = pre * (1.0 / k)
    value, d_elu = ad.elu_and_derivative(pre)
    out = Tensor(value, parents=(h, layer.w, layer.a))

    def backward(g):
        g_pre = g * d_elu
        # messages and source scores scatter onto the source nodes, d_out + 1 rows at once
        to_src = _Segments(src, n, sparse, d_out + 1)
        g_wh = np.empty_like(wh)
        g_a = np.empty_like(a)
        for i in range(k):
            cols = slice(i * d_out, (i + 1) * d_out)
            whi = wh[:, cols]
            g_agg = g_pre[:, cols] if layer.combine == "concat" else g_pre * (1.0 / k)
            alpha = alphas[i]
            g_msgs = np.take(g_agg.T, dst, axis=1)  # (d_out, E)
            g_alpha = np.einsum("de,de->e", g_msgs, np.take(whi.T, src, axis=1))
            inner = to_dst.sum(alpha * g_alpha)
            g_z = alpha * (g_alpha - inner[dst]) * np.where(zs[i] > 0.0, 1.0, slope)
            g_s_dst = to_dst.sum(g_z)
            g_msgs *= alpha
            g_src = to_src.sum(np.vstack([g_msgs, g_z]))
            g_wh[:, cols] = g_src[:d_out].T + np.outer(g_src[d_out], a_src[i]) + np.outer(g_s_dst, a_dst[i])
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
