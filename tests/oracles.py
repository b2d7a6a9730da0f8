"""Independent references for the batched program paths.

Each oracle recomputes a quantity the program produces in batched or
edge-list form, by the direct (dense or one-at-a-time) route, so tests can
compare the two.
"""
import numpy as np

import fcw.model as md
from fcw.drta import TrackState, risk_geo, risk_kin, risk_pred


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


def predict_one(model, window):
    """Raw prediction of a single window through its own forward pass."""
    batch = md.prepare_batch([window], model.config)
    return md.outputs_to_predictions(md.forward_batch(model, batch), batch, model.config)[0]


def risk_total(inp, w):
    """The weighted risk of one tick, from the three component terms."""
    return w.w_pred * risk_pred(inp, w) + w.w_kin * risk_kin(inp, w) + w.w_geo * risk_geo(inp, w)


def replay_stream(stream, weights, window_size=50, fixed_threshold=None):
    """Step a fresh track through a risk-input stream, one tick at a time."""
    track = TrackState(weights=weights, window_size=window_size, fixed_threshold=fixed_threshold)
    return [track.step(inp, time=i) for i, inp in enumerate(stream)]
