"""Per-frame spatial interaction: radius graph and multi-head graph attention.

Attention scores are evaluated per directed edge only (never all pairs), so
the work per frame is proportional to the edge count; ``WorkCounter`` makes
that measurable.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    """Counts attention-score evaluations; one per directed edge per head."""

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
class GatHeadParams:
    w_s: Tensor  # (D_in, D_out) shared transform
    a: Tensor  # (2*D_out, 1) attention vector


@dataclass
class GatLayerParams:
    heads: list[GatHeadParams] = field(default_factory=list)
    combine: str = "concat"  # hidden layers concat, final layer averages
    leaky_slope: float = 0.2


def _runs(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets of the runs of a sorted ``index``, and each run's value."""
    starts = np.flatnonzero(np.concatenate([[True], index[1:] != index[:-1]]))
    return starts, index[starts]


def _run_reduce(ufunc, values: np.ndarray, runs: tuple[np.ndarray, np.ndarray], n: int, fill: float = 0.0):
    """Per-node ``ufunc`` reduction of per-edge ``values`` (..., E) over the
    sorted runs of their last axis, as (..., n); a node without edges gets
    ``fill``. Edge-sized arrays keep the edges on the last, contiguous axis,
    where ``reduceat`` is fast."""
    starts, owners = runs
    out = np.full((*values.shape[:-1], n), fill)
    if values.shape[-1]:
        out[..., owners] = ufunc.reduceat(values, starts, axis=-1)
    return out


def gat_layer_edges(
    h: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    layer: GatLayerParams,
    counter: WorkCounter | None = None,
) -> Tensor:
    """One GAT layer over an explicit edge list, all heads as one node.

    Per head, edge e = (src -> dst) scores LeakyReLU(a_dst . Wh[dst] +
    a_src . Wh[src]); the scores are softmax-normalised over each
    destination's edges and weight the messages Wh[src]. Hidden layers
    concatenate the heads, the final layer averages them; ELU follows.
    The heads' transforms run as one (D, K*d_out) matmul and the edge work
    runs head by head. Edges in any order are accepted: unless dst is
    already sorted they are stably sorted by dst, so each destination's
    edges form one run for the ``reduceat`` sums and maxima.
    """
    if layer.combine not in ("concat", "average"):
        raise ValueError(f"unknown combine mode: {layer.combine}")
    heads, slope = layer.heads, layer.leaky_slope
    n, k, d_out = h.shape[0], len(heads), heads[0].w_s.shape[1]
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    if counter is not None:
        counter.score_evals += k * len(src)
        counter.all_pairs_equivalent += k * n * n
    if (dst[1:] < dst[:-1]).any():
        by_dst = np.argsort(dst, kind="stable")
        src, dst = src[by_dst], dst[by_dst]
    dst_runs = _runs(dst)
    w = np.concatenate([head.w_s.data for head in heads], axis=1)
    wh = h.data @ w  # (n, K*d_out), head i in columns [i*d_out, (i+1)*d_out)
    # first half of each attention vector pairs with the destination node
    a_dst = [head.a.data[:d_out, 0] for head in heads]
    a_src = [head.a.data[d_out:, 0] for head in heads]
    alphas, leaky_slopes, aggs = [], [], []
    for i in range(k):
        whi = wh[:, i * d_out : (i + 1) * d_out]
        z = (whi @ a_src[i])[src] + (whi @ a_dst[i])[dst]
        leaky = np.where(z > 0.0, 1.0, slope)
        score = z * leaky
        ex = np.exp(score - _run_reduce(np.maximum, score, dst_runs, n, -np.inf)[dst])
        alpha = ex / _run_reduce(np.add, ex, dst_runs, n)[dst]
        alphas.append(alpha)
        leaky_slopes.append(leaky)
        msgs = np.take(whi.T, src, axis=1)  # (d_out, E)
        msgs *= alpha
        aggs.append(_run_reduce(np.add, msgs, dst_runs, n).T)
    if layer.combine == "concat":
        pre = np.concatenate(aggs, axis=1)
    else:
        pre = aggs[0]
        for agg in aggs[1:]:
            pre = pre + agg
        pre = pre * (1.0 / k)
    value, d_elu = ad.elu_and_derivative(pre)
    params = [t for head in heads for t in (head.w_s, head.a)]
    out = Tensor(value, parents=(h, *params))

    def backward(g):
        g_pre = g * d_elu
        # one stable sort by src turns the scatter onto source nodes into runs too
        by_src = np.argsort(src, kind="stable")
        src_runs = _runs(src[by_src])
        g_wh = np.empty_like(wh)
        for i, head in enumerate(heads):
            cols = slice(i * d_out, (i + 1) * d_out)
            whi = wh[:, cols]
            g_agg = g_pre[:, cols] if layer.combine == "concat" else g_pre * (1.0 / k)
            alpha = alphas[i]
            g_msgs = np.take(g_agg.T, dst, axis=1)  # (d_out, E)
            g_alpha = np.einsum("de,de->e", g_msgs, np.take(whi.T, src, axis=1))
            inner = _run_reduce(np.add, alpha * g_alpha, dst_runs, n)
            g_z = alpha * (g_alpha - inner[dst]) * leaky_slopes[i]
            g_s_dst = _run_reduce(np.add, g_z, dst_runs, n)
            g_msgs *= alpha
            g_src = _run_reduce(np.add, np.take(np.vstack([g_msgs, g_z]), by_src, axis=1), src_runs, n)
            g_wh[:, cols] = g_src[:d_out].T + np.outer(g_src[d_out], a_src[i]) + np.outer(g_s_dst, a_dst[i])
            if head.a.requires_grad:
                head.a._accumulate(np.concatenate([whi.T @ g_s_dst, whi.T @ g_src[d_out]])[:, None])
        g_w = h.data.T @ g_wh
        for i, head in enumerate(heads):
            if head.w_s.requires_grad:
                head.w_s._accumulate(g_w[:, i * d_out : (i + 1) * d_out])
        if h.requires_grad:
            h._accumulate(g_wh @ w.T)

    out._backward = backward
    return out
