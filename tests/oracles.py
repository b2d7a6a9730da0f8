"""Independent references for the batched program paths.

Each oracle recomputes a quantity the program produces in batched or
edge-list form, by the direct (dense or one-at-a-time) route, so tests can
compare the two.
"""
import dataclasses
import math
from collections import deque

import numpy as np

import fcw.autodiff as ad
import fcw.cqr as cq
import fcw.drta as dr
import fcw.metrics as me
import fcw.model as md
import fcw.pipeline as pl
import fcw.scene_graph as sg
import fcw.temporal as tp
from fcw.autodiff import ShapeMismatchError, Tensor
from fcw.drta import WARMUP_MIN_SAMPLES, RiskInputs, WarningEvent, risk_geo, risk_kin, risk_pred, risk_terms


def dense_adjacency(positions, radius):
    """(N, N) 0/1 matrix: entry (i, j) is 1 when j is within ``radius`` of i
    (strictly), or i == j."""
    pos = np.asarray(positions, dtype=np.float64)
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    entries = (dist < radius).astype(np.int64)
    np.fill_diagonal(entries, 1)
    return entries


def dense_collision_rate(window_preds, threshold):
    """Fraction of (N, T', 2) windows in which some pair i < j comes closer
    than ``threshold`` at some step, from the full (N, N, T') distance array."""
    hits = 0
    for pred in window_preds:
        n = pred.shape[0]
        if n < 2:
            continue
        diff = pred[:, None, :, :] - pred[None, :, :, :]  # (N, N, T', 2)
        dist = np.sqrt((diff**2).sum(axis=-1))
        iu = np.triu_indices(n, k=1)
        if (dist[iu] < threshold).any():
            hits += 1
    return hits / len(window_preds)


def dense_attention(h, w_s, a, adjacency, slope=0.2):
    """(N, N) attention weights of one GAT head, scored pair by pair.

    Row i holds vehicle i's weights over its neighbours; entries outside
    the neighbourhood are 0. The first half of ``a`` pairs with the
    receiving vehicle i, the second half with the sender j.
    """
    wh = h @ w_s
    n = wh.shape[0]
    weights = np.zeros((n, n))
    for i in range(n):
        nbrs = np.nonzero(adjacency[i])[0]
        scores = np.array([float(np.concatenate([wh[i], wh[j]]) @ a[:, 0]) for j in nbrs])
        scores = np.where(scores >= 0, scores, slope * scores)
        e = np.exp(scores - scores.max())
        weights[i, nbrs] = e / e.sum()
    return weights


# ---------------------------------------------------------------------------
# The per-window layout: each window its own copy of its features and
# graphs, stacked window by window, as the program laid out batches before
# it read windows straight from episode arrays.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class WindowCopy:
    """One window as its own arrays: T observed frames, optional T' future."""

    features: np.ndarray  # (T, N, C) centroid-relative model inputs
    last_pos: np.ndarray  # (N, 2) absolute last observed positions
    edge_lists: list  # per-frame (src, dst) arrays
    target_abs: np.ndarray | None = None  # (T', N, 2)

    @property
    def n(self):
        return self.features.shape[1]


def frame_edge_lists(positions, radius):
    """Per-frame local (src, dst) radius graphs of a (F, N, 2) position
    stack, from one stacked ``edges_from_positions`` call."""
    n_frames, n = positions.shape[:2]
    src, dst = sg.edges_from_positions(positions, radius)
    frame = dst // n
    bounds = np.searchsorted(frame, np.arange(1, n_frames))
    return list(zip(np.split(src - frame * n, bounds), np.split(dst - frame * n, bounds)))


def window_from_states(states, config, future_pos=None, edges=None):
    """The window of T observed vehicle states (T, N, 8): its features
    less the first frame's centroid, times ``input_scale``; ``edges``
    takes the frames' graphs when the caller built them, else they are
    built here."""
    if len(states) != config.t_obs:
        raise ValueError(f"expected {config.t_obs} observed frames, got {len(states)}")
    centroid = states[0, :, 0:2].mean(axis=0)
    feats = states.copy()
    feats[:, :, 0:2] -= centroid
    feats *= config.input_scale
    if edges is None:
        edges = frame_edge_lists(states[:, :, 0:2], config.radius)
    return WindowCopy(features=feats, last_pos=states[-1, :, 0:2].copy(), edge_lists=edges, target_abs=future_pos)


def copy_windows(windows, config):
    """The ``WindowCopy`` of each of the program's ``WindowSample`` views,
    with its graphs built anew."""
    return [
        window_from_states(w.graphs.states[w.start : w.start + config.t_obs], config, future_pos=w.target_abs)
        for w in windows
    ]


def frame_runs(parts, base, total):
    """The laid-out frames' graphs as one block-diagonal graph over the
    time-major rows, cut into runs of whole consecutive frames of at most
    ``md.GAT_EDGE_BUDGET`` edges unless one frame; ``parts`` holds the
    (src, dst) of each (laid-out frame, window) in that order, and ``base``
    (frames, windows) the row that index 0 of a part maps to within its
    frame's rows."""
    count = len(base)
    counts = np.array([len(s) for s, _ in parts], dtype=np.intp)
    frame_edges = counts.reshape(count, -1).sum(axis=1)
    starts, size = [0], 0
    for t in range(count):
        if t > starts[-1] and size + frame_edges[t] > md.GAT_EDGE_BUDGET:
            starts.append(t)
            size = 0
        size += frame_edges[t]
    bounds = np.array([*starts, count])
    t_lo = np.repeat(bounds[:-1], np.diff(bounds))
    row0 = (np.arange(count) - t_lo)[:, None] * total + base
    shift = np.repeat(row0.reshape(-1), counts)
    src = np.concatenate([s for s, _ in parts]) + shift
    dst = np.concatenate([d for _, d in parts]) + shift
    edge_bounds = np.concatenate([[0], np.cumsum(frame_edges)])[bounds]
    return [
        (lo, hi, src[e_lo:e_hi], dst[e_lo:e_hi])
        for lo, hi, e_lo, e_hi in zip(starts, bounds[1:].tolist(), edge_bounds[:-1], edge_bounds[1:])
    ]


def prepare_batch(windows, config):
    """``md.prepare_batch`` of ``WindowCopy`` windows, window after window."""
    offsets = [0]
    for w in windows:
        offsets.append(offsets[-1] + w.n)
    total = offsets[-1]
    frames = md._laid_out_frames(config)
    x = np.concatenate([w.features[frames.start :] for w in windows], axis=1).reshape(len(frames) * total, -1)
    last_pos = np.concatenate([w.last_pos for w in windows], axis=0)
    target_disp = None
    pair_i, pair_j = [], []
    if all(w.target_abs is not None for w in windows):
        disp = np.concatenate([w.target_abs for w in windows], axis=1) - last_pos  # (T', sumN, 2)
        target_disp = disp.transpose(1, 0, 2).reshape(total, -1)
        for w, off in zip(windows, offsets):
            for i in range(w.n):
                for j in range(i + 1, w.n):
                    pair_i.append(off + i)
                    pair_j.append(off + j)
    parts = [w.edge_lists[t] for t in frames for w in windows]
    base = np.broadcast_to(np.asarray(offsets[:-1], dtype=np.intp), (len(frames), len(windows)))
    return md.PreparedBatch(
        x=x,
        edges=frame_runs(parts, base, total),
        offsets=offsets,
        last_pos=last_pos,
        target_disp=target_disp,
        pair_i=np.array(pair_i, dtype=np.intp),
        pair_j=np.array(pair_j, dtype=np.intp),
    )


def predict_one(model, window):
    """Raw prediction of a single ``WindowCopy`` through its own forward pass."""
    batch = prepare_batch([window], model.config)
    return md.outputs_to_predictions(md.forward_batch(model, batch), batch, model.config)[0]


def predict_windows(model, windows):
    """Raw predictions for every ``WindowCopy`` as one stack over the
    windows' vehicle rows, in window order, ``md.PREDICT_CHUNK`` windows
    per forward pass; the per-window route of ``md.predict_episodes``."""
    parts = []
    for start in range(0, len(windows), md.PREDICT_CHUNK):
        batch = prepare_batch(windows[start : start + md.PREDICT_CHUNK], model.config)
        parts.append(md._stacked_prediction(md.forward_batch(model, batch), batch, model.config))
    empty = np.zeros((0, model.config.t_pred, 2))
    point, lower, upper = (
        np.concatenate([getattr(p, key) for p in parts] or [empty]) for key in ("point", "lower", "upper")
    )
    return md.PredictionBatch(point=point, lower=lower, upper=upper)


def warn_episode(model, corr, episode, weights, fixed_threshold=None, no_cqr=False):
    """``pipeline.warn_episode`` with one ``WindowCopy`` per tick through
    ``predict_windows``."""
    cfg = model.config
    states = episode.frames
    ticks = np.arange(cfg.t_obs - 1, len(states))
    edges = frame_edge_lists(states[:, :, 0:2], cfg.radius)
    windows = [
        window_from_states(states[lo : lo + cfg.t_obs], cfg, edges=edges[lo : lo + cfg.t_obs])
        for lo in range(len(ticks))
    ]
    pred = cq.apply_correction(predict_windows(model, windows), None if no_cqr else corr)
    inputs = dr.risk_inputs_per_tick(pred, states[cfg.t_obs - 1 :], episode.curvature, episode.dt, cfg.collision_radius)
    if no_cqr:
        inputs = dataclasses.replace(inputs, sigma_pred=np.zeros(len(ticks)))
    events = dr.replay_ticks(inputs, ticks * episode.dt, weights, fixed_threshold)
    return pl.EpisodeEvents(episode_id=episode.episode_id, events=events)


def prediction_metrics(model, windows, config, corr=None):
    """``pipeline.prediction_metrics`` of a model over labelled windows
    through ``predict_windows``."""
    truth = np.concatenate([w.target_abs.transpose(1, 0, 2) for w in windows])
    pred = predict_windows(model, copy_windows(windows, config))
    out = {
        "ade_m": me.ade(pred.point, truth),
        "fde_m": me.fde(pred.point, truth),
        "collision_rate": me.collision_rate(
            np.split(pred.point, np.cumsum([w.n for w in windows])[:-1]), config.collision_radius / 2.0
        ),
    }
    if corr is not None:
        raw, _ = cq.empirical_coverage(pred.lower, pred.upper, truth)
        lower, upper = cq.conformal_interval(pred.lower, pred.upper, corr)
        out["coverage"], width = cq.empirical_coverage(lower, upper, truth)
        out["raw_coverage"], out["mean_width_m"] = raw, width
    return out


def risk_total(inp, w):
    """The weighted risk of one tick, from the three component terms."""
    return w.w_pred * risk_pred(inp, w) + w.w_kin * risk_kin(inp, w) + w.w_geo * risk_geo(inp, w)


def risk_inputs_one_tick(pred, last, curvature, dt, r_collision=4.0):
    """The risk inputs of one tick, threat by threat: vehicle 0 is the ego,
    ``pred`` its (N, T', 2) calibrated prediction and ``last`` its (N, 8)
    last observed states."""
    ego_v, ego_a = last[0, 2:4], last[0, 4:6]
    v_ego = float(np.hypot(*ego_v))
    sigma_pred = max(0.0, 0.5 * float((pred.upper[0] - pred.lower[0]).mean()))
    d_min, ttc, nearest = math.inf, math.inf, None
    for j in range(1, len(last)):
        dists = np.hypot(*(pred.point[0] - pred.point[j]).T)
        if dists.min() < d_min:
            d_min, nearest = float(dists.min()), j
        contact = np.nonzero(dists <= r_collision)[0]
        if contact.size:
            ttc = min(ttc, (int(contact[0]) + 1) * dt)
    v_rel = a_rel = 0.0
    if nearest is not None:
        rel = last[nearest, 0:2] - last[0, 0:2]
        norm = np.hypot(*rel)
        if norm > 1e-9:
            v_rel = float((ego_v - last[nearest, 2:4]) @ (rel / norm))
            a_rel = float((ego_a - last[nearest, 4:6]) @ (rel / norm))
    return RiskInputs(
        d_min=d_min, ttc=ttc, sigma_pred=sigma_pred, v_rel=v_rel, a_rel=a_rel, kappa=curvature, v_ego=v_ego
    )


def replay_stream(stream, weights, fixed_threshold=None, times=None):
    """Step a fresh track through a risk-input stream, one tick at a time:
    each tick's threshold is mean + lambda * std of the (up to
    ``weights.window_size``) risks in a bounded buffer, read before the
    tick's own risk is pushed."""
    window = deque(maxlen=weights.window_size)
    events = []
    for tick, inp in enumerate(stream):
        rp, rk, rg, risk = (float(v) for v in risk_terms(inp, weights))
        held = np.asarray(window, dtype=np.float64)
        mu = float(held.mean()) if len(held) else 0.0
        sigma = float(held.std(ddof=1)) if len(held) >= 2 else 0.0
        if fixed_threshold is not None:
            threshold = fixed_threshold
        elif len(held) >= WARMUP_MIN_SAMPLES:
            threshold = mu + weights.lam * sigma
        else:
            threshold = math.inf
        time = tick if times is None else times[tick]
        events.append(WarningEvent(tick, time, risk, rp, rk, rg, mu, sigma, threshold, risk > threshold))
        window.append(risk)
    return events


# ---------------------------------------------------------------------------
# Small differentiable ops that the unfused references below (and the
# gradient tests) are built from; the program itself runs fused ops only
# ---------------------------------------------------------------------------


def _elementwise(x, value, dvalue):
    out = Tensor(value, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * dvalue)

    out._backward = backward
    return out


def _unbroadcast_rows(g, target_shape):
    if target_shape == g.shape:
        return g
    if target_shape[0] == 1 and target_shape[1] == g.shape[1]:
        return g.sum(axis=0, keepdims=True)
    raise ShapeMismatchError(f"cannot reduce gradient {g.shape} to {target_shape}")


def add(a, b):
    """a + b, where either side may be one row broadcast over the other's rows."""
    if a.shape != b.shape and not ((a.shape[0] == 1 or b.shape[0] == 1) and a.shape[1] == b.shape[1]):
        raise ShapeMismatchError(f"add: shapes {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data, parents=(a, b))

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast_rows(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast_rows(g, b.shape))

    out._backward = backward
    return out


def scale(x, s):
    out = Tensor(x.data * s, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * s)

    out._backward = backward
    return out


def sub(a, b):
    return add(a, scale(b, -1.0))


def mul(a, b):
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


def affine(x, a, b):
    """Elementwise a*x + b."""
    out = Tensor(x.data * a + b, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * a)

    out._backward = backward
    return out


def matmul(a, b):
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


def relu(x):
    return _elementwise(x, np.maximum(x.data, 0.0), (x.data > 0.0).astype(np.float64))


def square(x):
    return mul(x, x)


def sqrt(x, eps=1e-12):
    v = np.sqrt(x.data + eps)
    return _elementwise(x, v, 0.5 / v)


def maximum(a, b):
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


def gather_rows(x, idx):
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[idx], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accumulate(gx)

    out._backward = backward
    return out


def gather_cols(x, idx):
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(x.data[:, idx], parents=(x,))

    def backward(g):
        if x.requires_grad:
            gt = np.zeros_like(x.data.T)
            np.add.at(gt, idx, g.T)
            x._accumulate(gt.T)

    out._backward = backward
    return out


def sum_all(x):
    out = Tensor([[x.data.sum()]], parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g[0, 0]))

    out._backward = backward
    return out


def transpose(x):
    out = Tensor(x.data.T, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    out._backward = backward
    return out


def mean_all(x):
    n = x.data.size
    out = Tensor([[x.data.mean()]], parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(np.full_like(x.data, g[0, 0] / n))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Unfused autodiff references: the GRU, GAT and attention layers as chains of
# small differentiable ops, against which the fused one-node ops are checked
# ---------------------------------------------------------------------------


def sigmoid(x):
    v = 1.0 / (1.0 + np.exp(-x.data))
    return _elementwise(x, v, v * (1.0 - v))


def tanh(x):
    v = np.tanh(x.data)
    return _elementwise(x, v, 1.0 - v * v)


def leaky_relu(x, slope=0.2):
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0,1), got {slope}")
    v = np.where(x.data > 0.0, x.data, slope * x.data)
    return _elementwise(x, v, np.where(x.data > 0.0, 1.0, slope))


def softmax_rows(x):
    """Row-wise softmax, stabilized by row-max subtraction."""
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(p * (g - (g * p).sum(axis=1, keepdims=True)))

    out._backward = backward
    return out


def concat_cols(parts):
    rows = parts[0].shape[0]
    for p in parts:
        if p.shape[0] != rows:
            raise ShapeMismatchError("concat_cols: row mismatch")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), parents=tuple(parts))

    def backward(g):
        start = 0
        for p in parts:
            n = p.shape[1]
            if p.requires_grad:
                p._accumulate(g[:, start : start + n])
            start += n

    out._backward = backward
    return out


def linear(x, w, b):
    """x @ w + b as two nodes."""
    return add(matmul(x, w), b)


def edge_softmax(scores, dst, n_nodes):
    """Softmax of (E, 1) per-edge scores grouped by destination node."""
    if scores.shape[1] != 1:
        raise ShapeMismatchError(f"edge_softmax expects (E,1) scores, got {scores.shape}")
    dst = np.asarray(dst, dtype=np.intp)
    s = scores.data[:, 0]
    gmax = np.full(n_nodes, -np.inf)
    np.maximum.at(gmax, dst, s)
    e = np.exp(s - gmax[dst])
    gsum = np.zeros(n_nodes)
    np.add.at(gsum, dst, e)
    alpha = e / gsum[dst]
    out = Tensor(alpha.reshape(-1, 1), parents=(scores,))

    def backward(g):
        if scores.requires_grad:
            gv = g[:, 0]
            inner = np.zeros(n_nodes)
            np.add.at(inner, dst, alpha * gv)
            scores._accumulate((alpha * (gv - inner[dst])).reshape(-1, 1))

    out._backward = backward
    return out


def edge_aggregate(alpha, msgs, dst, n_nodes):
    """out[i] = sum over edges e with dst[e]==i of alpha[e] * msgs[e]."""
    if alpha.shape != (msgs.shape[0], 1):
        raise ShapeMismatchError(f"edge_aggregate: alpha {alpha.shape} vs msgs {msgs.shape}")
    dst = np.asarray(dst, dtype=np.intp)
    acc = np.zeros((n_nodes, msgs.shape[1]))
    np.add.at(acc, dst, alpha.data * msgs.data)
    out = Tensor(acc, parents=(alpha, msgs))

    def backward(g):
        ge = g[dst]
        if alpha.requires_grad:
            alpha._accumulate((ge * msgs.data).sum(axis=1, keepdims=True))
        if msgs.requires_grad:
            msgs._accumulate(ge * alpha.data)

    out._backward = backward
    return out


def block_matmul_nt(q, k, block):
    """Block-diagonal Q @ K^T over row blocks of size ``block``: (B*block, block)."""
    if q.shape != k.shape or q.shape[0] % block != 0:
        raise ShapeMismatchError(f"block_matmul_nt: {q.shape} vs {k.shape}, block {block}")
    nb = q.shape[0] // block
    q3 = q.data.reshape(nb, block, -1)
    k3 = k.data.reshape(nb, block, -1)
    out = Tensor(np.einsum("btd,bsd->bts", q3, k3).reshape(nb * block, block), parents=(q, k))

    def backward(g):
        g3 = g.reshape(nb, block, block)
        if q.requires_grad:
            q._accumulate(np.einsum("bts,bsd->btd", g3, k3).reshape(q.shape))
        if k.requires_grad:
            k._accumulate(np.einsum("bts,btd->bsd", g3, q3).reshape(k.shape))

    out._backward = backward
    return out


def block_matmul_nn(p, v, block):
    """Block-diagonal P @ V: p is (B*block, block), v is (B*block, d)."""
    if p.shape[0] != v.shape[0] or p.shape[1] != block or p.shape[0] % block != 0:
        raise ShapeMismatchError(f"block_matmul_nn: {p.shape} vs {v.shape}, block {block}")
    nb = p.shape[0] // block
    p3 = p.data.reshape(nb, block, block)
    v3 = v.data.reshape(nb, block, -1)
    out = Tensor(np.einsum("bts,bsd->btd", p3, v3).reshape(v.shape), parents=(p, v))

    def backward(g):
        g3 = g.reshape(nb, block, -1)
        if p.requires_grad:
            p._accumulate(np.einsum("btd,bsd->bts", g3, v3).reshape(p.shape))
        if v.requires_grad:
            v._accumulate(np.einsum("bts,btd->bsd", p3, g3).reshape(v.shape))

    out._backward = backward
    return out


def block_cols(x, i, width):
    """Columns [i*width, (i+1)*width) of a packed parameter, one head, gate
    or decoder, as a node whose gradient reaches the stored tensor."""
    return gather_cols(x, np.arange(i * width, (i + 1) * width))


def gru_cell(x, h_prev, p):
    """One GRU step of ``fcw.temporal.GruLayerParams`` p, gate by gate;
    rows are independent."""
    hidden = p.u_h.shape[0]
    w_z, w_r, w_h = (block_cols(p.w, i, hidden) for i in range(3))
    u_z, u_r = (block_cols(p.u_zr, i, hidden) for i in range(2))
    b_z, b_r, b_h = (block_cols(p.b, i, hidden) for i in range(3))
    z = sigmoid(add(add(matmul(x, w_z), matmul(h_prev, u_z)), b_z))
    r = sigmoid(add(add(matmul(x, w_r), matmul(h_prev, u_r)), b_r))
    h_tilde = tanh(add(add(matmul(x, w_h), matmul(mul(r, h_prev), p.u_h)), b_h))
    # (1 - z) * h_prev + z * h_tilde, written as h_prev + z * (h_tilde - h_prev)
    return add(h_prev, mul(z, sub(h_tilde, h_prev)))


def gru_encode(x, p, steps):
    """The stacked GRU cell by cell over a time-major (T*n, D) stack;
    returns the last layer's states, laid out alike."""
    n = x.shape[0] // steps
    seq = [ad.rows(x, t * n, (t + 1) * n) for t in range(steps)]
    for layer in p.layers:
        h = ad.constant(np.zeros((n, layer.u_h.shape[0])))
        out = []
        for xt in seq:
            h = gru_cell(xt, h, layer)
            out.append(h)
        seq = out
    return ad.concat_rows(seq)


def mha_all_positions(hv, p, block):
    """Self-attention within vehicle-major row blocks of length ``block``,
    every position attending: (B*block, H)."""
    m, d_k = p.heads, p.d_k
    inv = 1.0 / math.sqrt(d_k)
    outs = []
    for i in range(m):
        q = matmul(hv, block_cols(p.w_q, i, d_k))
        k = matmul(hv, block_cols(p.w_kv, i, d_k))
        v = matmul(hv, block_cols(p.w_kv, m + i, d_k))
        weights = softmax_rows(scale(block_matmul_nt(q, k, block), inv))
        outs.append(block_matmul_nn(weights, v, block))
    return matmul(concat_cols(outs), p.w_o)


def mha_last(y, p, steps):
    """``fcw.temporal.mha_blocks`` by the unfused route: the time-major
    (T*n, H) stack is permuted vehicle-major, every position attends, and
    the last position of each vehicle is kept."""
    n = y.shape[0] // steps
    vehicle_major = (np.arange(n)[:, None] + n * np.arange(steps)[None, :]).reshape(-1)
    attended = mha_all_positions(gather_rows(y, vehicle_major), p, steps)
    return gather_rows(attended, np.arange(n) * steps + steps - 1)


def gat_layer(h, src, dst, layer, counter=None):
    """``fcw.scene_graph.gat_layer_edges`` head by head as a chain of small ops."""
    n, d_out = h.shape[0], layer.a.shape[1] // 2
    outs = []
    for i in range(layer.a.shape[0]):
        wh = matmul(h, block_cols(layer.w, i, d_out))
        a = transpose(gather_rows(layer.a, [i]))  # (2*d_out, 1)
        # first half of the attention vector pairs with the destination node
        s_dst = matmul(wh, ad.rows(a, 0, d_out))
        s_src = matmul(wh, ad.rows(a, d_out, 2 * d_out))
        e = leaky_relu(add(gather_rows(s_src, src), gather_rows(s_dst, dst)), sg.LEAKY_SLOPE)
        if counter is not None:
            counter.score_evals += len(src)
            counter.all_pairs_equivalent += n * n
        alpha = edge_softmax(e, dst, n)
        outs.append(edge_aggregate(alpha, gather_rows(wh, src), dst, n))
    if layer.combine == "concat":
        return concat_cols([ad.elu(o) for o in outs])
    acc = outs[0]
    for o in outs[1:]:
        acc = add(acc, o)
    return ad.elu(scale(acc, 1.0 / len(outs)))


def frame_edges(windows, t):
    """Frame t's radius graphs of every window, merged over the batch rows
    (window after window), as ``prepare_batch`` built them before frame runs."""
    offsets = np.cumsum([0] + [w.n for w in windows[:-1]])
    return tuple(
        np.concatenate([w.edge_lists[t][i] + off for w, off in zip(windows, offsets)]) for i in (0, 1)
    )


def mlp(x, layers):
    """A decoder of ``(w, b)`` layers as a chain of ``linear`` and ``relu`` nodes."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.linear(h, w, b)
        if i < len(layers) - 1:
            h = relu(h)
    return h


def decode(hf, layers, paths=3):
    """``fcw.model.decode`` decoder by decoder, side by side, each through
    ``mlp`` over its slices of the packed layers."""
    (w0, b0), later = layers[0], layers[1:]
    h0 = w0.shape[1] // paths
    outs = []
    for p in range(paths):
        dec = [(block_cols(w0, p, h0), block_cols(b0, p, h0))]
        for w, b in later:
            h_in = w.shape[0] // paths
            dec.append((gather_rows(w, np.arange(p * h_in, (p + 1) * h_in)), gather_rows(b, [p])))
        outs.append(mlp(hf, dec))
    return concat_cols(outs)


def forward_per_frame(model, windows, counter=None):
    """``fcw.model.forward_batch`` of ``WindowCopy`` windows with the
    spatial stage run frame by frame over all T observed frames, each frame
    embedded on its own and passed through the unfused ``gat_layer``; under
    ``gru_layers = 0`` only the last frame's features go on. The decoders run one
    by one through ``mlp``."""
    cfg = model.config
    steps = []
    for t in range(cfg.t_obs):
        x = ad.constant(np.concatenate([w.features[t] for w in windows]))
        h = sg.embed_features(x, model.embed_w, model.embed_b)
        src, dst = frame_edges(windows, t)
        for layer in model.gat_layers:
            h = gat_layer(h, src, dst, layer, counter)
        steps.append(h)
    if not cfg.gru_layers:
        hf = ad.linear(steps[-1], model.bridge_w, model.bridge_b)
    else:
        g = ad.linear(ad.concat_rows(steps), model.bridge_w, model.bridge_b)
        hf = tp.mha_blocks(tp.gru_encode_steps(g, model.gru, cfg.t_obs), model.mha, cfg.t_obs)
    return md.ForwardOutputs(hf=hf, disp=decode(hf, model.decoder))


def pinball(pred, target, level):
    u = sub(target, pred)
    return mean_all(maximum(scale(u, level), scale(u, level - 1.0)))


def training_loss(disp, batch, config):
    """``fcw.model.training_loss`` as a chain of small ops over the
    (n, 3*T'*2) ``disp`` tensor; returns the loss tensor and its parts."""
    width = config.t_pred * 2
    point, lower, upper = (gather_cols(disp, np.arange(i * width, (i + 1) * width)) for i in range(3))
    target = ad.constant(batch.target_disp)
    mse = mean_all(square(sub(point, target)))
    lo = pinball(lower, target, config.alpha / 2.0)
    hi = pinball(upper, target, 1.0 - config.alpha / 2.0)
    pin = add(lo, hi)
    total = add(mse, scale(pin, config.pinball_weight))
    collision_value = 0.0
    cw = config.collision_weight
    if cw > 0.0 and len(batch.pair_i) > 0:
        # columns interleave as x0,y0,x1,y1,...
        tiled = np.tile(batch.last_pos, (1, config.t_pred))
        abs_pred = add(point, ad.constant(tiled))
        diff = sub(gather_rows(abs_pred, batch.pair_i), gather_rows(abs_pred, batch.pair_j))
        xs = np.arange(0, config.t_pred * 2, 2)
        dsq = add(square(gather_cols(diff, xs)), square(gather_cols(diff, xs + 1)))
        gap = relu(affine(sqrt(dsq), -1.0, config.collision_radius))
        penalty = mean_all(square(gap))
        collision_value = penalty.item()
        total = add(total, scale(penalty, cw))
    parts = {"mse": mse.item(), "pinball": pin.item(), "collision": collision_value, "loss": total.item()}
    return total, parts


# ---------------------------------------------------------------------------
# Allocating forms of the hot kernels. Each performs the same float
# operations on the same operands in the same order as the program's kernel,
# but makes a fresh temporary per operation, so the program's outputs and
# gradients must equal these bit for bit.
# ---------------------------------------------------------------------------


def elu_and_derivative_allocating(z):
    """``fcw.autodiff.elu_and_derivative``, one temporary per operation."""
    e = np.exp(np.minimum(z, 0.0))
    return np.maximum(z, 0.0) + (e - 1.0), e


def gru_layer_allocating(x, p, steps):
    """``fcw.temporal._gru_layer``, one temporary per operation."""
    hidden = p.u_h.shape[0]
    n = x.shape[0] // steps
    w, u_zr, u_h = p.w.data, p.u_zr.data, p.u_h.data
    xw = (x.data @ w + p.b.data).reshape(steps, n, 3 * hidden)
    h_all = np.zeros((steps + 1, n, hidden))
    zr = np.empty((steps, n, 2 * hidden))
    cand = np.empty((steps, n, hidden))
    for t in range(steps):
        h = h_all[t]
        zr[t] = 1.0 / (1.0 + np.exp(-(xw[t, :, : 2 * hidden] + h @ u_zr)))
        cand[t] = np.tanh(xw[t, :, 2 * hidden :] + (zr[t, :, hidden:] * h) @ u_h)
        h_all[t + 1] = h + zr[t, :, :hidden] * (cand[t] - h)
    out = Tensor(h_all[1:].reshape(steps * n, hidden), parents=(x, *p.tensors()))

    def backward(g):
        g = g.reshape(steps, n, hidden)
        h_prev, z, r = h_all[:-1], zr[:, :, :hidden], zr[:, :, hidden:]
        keep = 1.0 - z
        via_cand = z * (1.0 - cand * cand)
        via_z = (cand - h_prev) * z * keep
        via_r = h_prev * r * (1.0 - r)
        d_pre = np.empty((steps, n, 3 * hidden))
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

    out._backward = backward
    return out


def gat_layer_allocating(h, src, dst, layer):
    """``fcw.scene_graph.gat_layer_edges``, one temporary per operation and
    messages gathered from strided column views; its segment sums take the
    same path as the program's (``fcw.scene_graph.SPARSE_DEGREE``)."""
    slope = sg.LEAKY_SLOPE
    n, k, d_out = h.shape[0], layer.a.shape[0], layer.a.shape[1] // 2
    src = np.asarray(src, dtype=np.intp)
    dst = np.asarray(dst, dtype=np.intp)
    sparse = len(src) < sg.SPARSE_DEGREE * n
    to_dst = sg._Segments(dst, n, sparse, d_out)
    w, a = layer.w.data, layer.a.data
    wh = h.data @ w
    a_dst, a_src = a[:, :d_out], a[:, d_out:]
    alphas, zs, aggs = [], [], []
    for i in range(k):
        whi = wh[:, i * d_out : (i + 1) * d_out]
        z = (whi @ a_src[i])[src] + (whi @ a_dst[i])[dst]
        score = np.maximum(z, slope * z)
        ex = np.exp(score - to_dst.max(score)[dst])
        alpha = ex / to_dst.sum(ex)[dst]
        alphas.append(alpha)
        zs.append(z)
        msgs = np.take(whi.T, src, axis=1)
        msgs *= alpha
        aggs.append(to_dst.sum(msgs).T)
    if layer.combine == "concat":
        pre = np.concatenate(aggs, axis=1)
    else:
        pre = aggs[0]
        for agg in aggs[1:]:
            pre = pre + agg
        pre = pre * (1.0 / k)
    value, d_elu = elu_and_derivative_allocating(pre)
    out = Tensor(value, parents=(h, layer.w, layer.a))

    def backward(g):
        g_pre = g * d_elu
        to_src = sg._Segments(src, n, sparse, d_out + 1)
        g_wh = np.empty_like(wh)
        g_a = np.empty_like(a)
        for i in range(k):
            cols = slice(i * d_out, (i + 1) * d_out)
            whi = wh[:, cols]
            g_agg = g_pre[:, cols] if layer.combine == "concat" else g_pre * (1.0 / k)
            alpha = alphas[i]
            g_msgs = np.take(g_agg.T, dst, axis=1)
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


def radius_pairs_rowwise(points, group, radius):
    """``fcw.scene_graph._radius_pairs`` with its distance test on gathered
    2-D rows: sqrt of the row sum of the squared difference."""
    empty = np.zeros(0, dtype=np.intp)
    rows = np.flatnonzero(np.isfinite(points).all(axis=1))
    if len(rows) < 2 or not radius > 0:
        return empty, empty
    pts = points[rows]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    axis = int(np.argmax(hi - lo))
    span = hi[axis] - lo[axis]
    reach = min(radius, span)
    stride = span + 2.0 * reach + 1.0
    key = (pts[:, axis] - lo[axis]) + group[rows] * stride
    order = np.argsort(key)
    key = key[order]
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
