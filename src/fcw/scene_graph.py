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


def _head_attention(
    h: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    head: GatHeadParams,
    slope: float,
    counter: WorkCounter | None,
) -> tuple[Tensor, Tensor]:
    """Per-edge attention weights and transformed features for one head."""
    d_out = head.w_s.shape[1]
    wh = ad.matmul(h, head.w_s)
    # first half of the attention vector pairs with the destination node
    a_dst = ad.rows(head.a, 0, d_out)
    a_src = ad.rows(head.a, d_out, 2 * d_out)
    s_src = ad.matmul(wh, a_src)
    s_dst = ad.matmul(wh, a_dst)
    e = ad.leaky_relu(ad.add(ad.gather_rows(s_src, src), ad.gather_rows(s_dst, dst)), slope)
    if counter is not None:
        counter.score_evals += len(src)
        counter.all_pairs_equivalent += h.shape[0] * h.shape[0]
    alpha = ad.edge_softmax(e, dst, h.shape[0])
    return alpha, wh


def gat_layer_edges(
    h: Tensor,
    src: np.ndarray,
    dst: np.ndarray,
    layer: GatLayerParams,
    counter: WorkCounter | None = None,
) -> Tensor:
    """One GAT layer over an explicit edge list."""
    n = h.shape[0]
    outs = []
    for head in layer.heads:
        alpha, wh = _head_attention(h, src, dst, head, layer.leaky_slope, counter)
        msgs = ad.gather_rows(wh, src)
        agg = ad.edge_aggregate(alpha, msgs, dst, n)
        outs.append(agg)
    if layer.combine == "concat":
        return ad.concat_cols([ad.elu(o) for o in outs])
    if layer.combine == "average":
        acc = outs[0]
        for o in outs[1:]:
            acc = ad.add(acc, o)
        return ad.elu(ad.scale(acc, 1.0 / len(outs)))
    raise ValueError(f"unknown combine mode: {layer.combine}")

