"""Independent references for the batched program paths.

Each oracle recomputes a quantity the program produces in batched or
edge-list form, by the direct (dense or one-at-a-time) route, so tests can
compare the two.
"""
import math

import numpy as np

import fcw.autodiff as ad
import fcw.model as md
from fcw.autodiff import ShapeMismatchError, Tensor
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


# ---------------------------------------------------------------------------
# Unfused autodiff references: the GRU, GAT and attention layers as chains of
# small differentiable ops, against which the fused one-node ops are checked
# ---------------------------------------------------------------------------


def _elementwise(x, value, dvalue):
    out = Tensor(value, parents=(x,))

    def backward(g):
        if x.requires_grad:
            x._accumulate(g * dvalue)

    out._backward = backward
    return out


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
    return ad.add(ad.matmul(x, w), b)


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


def gru_cell(x, h_prev, p):
    """One GRU step of ``fcw.temporal.GruLayerParams`` p; rows are independent."""
    z = sigmoid(ad.add(ad.add(ad.matmul(x, p.w_z), ad.matmul(h_prev, p.u_z)), p.b_z))
    r = sigmoid(ad.add(ad.add(ad.matmul(x, p.w_r), ad.matmul(h_prev, p.u_r)), p.b_r))
    h_tilde = tanh(ad.add(ad.add(ad.matmul(x, p.w_h), ad.matmul(ad.mul(r, h_prev), p.u_h)), p.b_h))
    # (1 - z) * h_prev + z * h_tilde, written as h_prev + z * (h_tilde - h_prev)
    return ad.add(h_prev, ad.mul(z, ad.sub(h_tilde, h_prev)))


def gru_encode(x, p, steps):
    """The stacked GRU cell by cell over a time-major (T*n, D) stack;
    returns the last layer's states, laid out alike."""
    n = x.shape[0] // steps
    seq = [ad.rows(x, t * n, (t + 1) * n) for t in range(steps)]
    for layer in p.layers:
        h = ad.constant(np.zeros((n, layer.u_z.shape[0])))
        out = []
        for xt in seq:
            h = gru_cell(xt, h, layer)
            out.append(h)
        seq = out
    return ad.concat_rows(seq)


def mha_all_positions(hv, p, block):
    """Self-attention within vehicle-major row blocks of length ``block``,
    every position attending: (B*block, H)."""
    inv = 1.0 / math.sqrt(p.d_k)
    outs = []
    for head in p.heads:
        q = ad.matmul(hv, head.w_q)
        k = ad.matmul(hv, head.w_k)
        v = ad.matmul(hv, head.w_v)
        weights = softmax_rows(ad.scale(block_matmul_nt(q, k, block), inv))
        outs.append(block_matmul_nn(weights, v, block))
    return ad.matmul(concat_cols(outs), p.w_o)


def mha_last(y, p, steps):
    """``fcw.temporal.mha_blocks`` by the unfused route: the time-major
    (T*n, H) stack is permuted vehicle-major, every position attends, and
    the last position of each vehicle is kept."""
    n = y.shape[0] // steps
    vehicle_major = (np.arange(n)[:, None] + n * np.arange(steps)[None, :]).reshape(-1)
    attended = mha_all_positions(ad.gather_rows(y, vehicle_major), p, steps)
    return ad.gather_rows(attended, np.arange(n) * steps + steps - 1)


def gat_layer(h, src, dst, layer, counter=None):
    """``fcw.scene_graph.gat_layer_edges`` head by head as a chain of small ops."""
    n = h.shape[0]
    outs = []
    for head in layer.heads:
        d_out = head.w_s.shape[1]
        wh = ad.matmul(h, head.w_s)
        # first half of the attention vector pairs with the destination node
        s_dst = ad.matmul(wh, ad.rows(head.a, 0, d_out))
        s_src = ad.matmul(wh, ad.rows(head.a, d_out, 2 * d_out))
        e = leaky_relu(ad.add(ad.gather_rows(s_src, src), ad.gather_rows(s_dst, dst)), layer.leaky_slope)
        if counter is not None:
            counter.score_evals += len(src)
            counter.all_pairs_equivalent += n * n
        alpha = edge_softmax(e, dst, n)
        outs.append(edge_aggregate(alpha, ad.gather_rows(wh, src), dst, n))
    if layer.combine == "concat":
        return concat_cols([ad.elu(o) for o in outs])
    acc = outs[0]
    for o in outs[1:]:
        acc = ad.add(acc, o)
    return ad.elu(ad.scale(acc, 1.0 / len(outs)))
