"""GRU cell/stack and temporal multi-head self-attention."""
import numpy as np
import pytest

import fcw.autodiff as ad
import fcw.model as md
import fcw.scene_graph as sg
import fcw.temporal as tp
from fcw.optim import ParameterStore, grad_check

from conftest import random_frames, tiny_config


def zero_gru_layer(d_in, d_h):
    z = lambda r, c: ad.parameter(np.zeros((r, c)))
    return tp.GruLayerParams(
        w_z=z(d_in, d_h), u_z=z(d_h, d_h), b_z=z(1, d_h),
        w_r=z(d_in, d_h), u_r=z(d_h, d_h), b_r=z(1, d_h),
        w_h=z(d_in, d_h), u_h=z(d_h, d_h), b_h=z(1, d_h),
    )


def random_gru_layer(rng, d_in, d_h, scale=0.5):
    p = lambda r, c: ad.parameter(rng.standard_normal((r, c)) * scale)
    return tp.GruLayerParams(
        w_z=p(d_in, d_h), u_z=p(d_h, d_h), b_z=p(1, d_h),
        w_r=p(d_in, d_h), u_r=p(d_h, d_h), b_r=p(1, d_h),
        w_h=p(d_in, d_h), u_h=p(d_h, d_h), b_h=p(1, d_h),
    )


def random_mha(rng, d, m):
    d_k = d // m
    heads = [
        tp.MhaHeadParams(
            w_q=ad.parameter(rng.standard_normal((d, d_k))),
            w_k=ad.parameter(rng.standard_normal((d, d_k))),
            w_v=ad.parameter(rng.standard_normal((d, d_k))),
        )
        for _ in range(m)
    ]
    return tp.MhaParams(heads=heads, w_o=ad.parameter(rng.standard_normal((d, d))))


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def test_gru_cell_zero_weights_halves_state(rng):
    v = rng.standard_normal((2, 4))
    layer = zero_gru_layer(3, 4)
    out = tp.gru_cell(ad.constant(rng.standard_normal((2, 3))), ad.constant(v), layer)
    assert np.allclose(out.data, 0.5 * v, atol=1e-12)


def test_gru_cell_zero_state_zero_weights():
    layer = zero_gru_layer(3, 4)
    out = tp.gru_cell(ad.constant(np.ones((1, 3))), ad.constant(np.zeros((1, 4))), layer)
    assert np.array_equal(out.data, np.zeros((1, 4)))


def test_gru_cell_matches_reference(rng):
    # oracle: transcribe the gate equations in plain numpy
    d_in, d_h = 3, 4
    layer = random_gru_layer(rng, d_in, d_h)
    x = rng.standard_normal((2, d_in))
    h = rng.standard_normal((2, d_h))
    out = tp.gru_cell(ad.constant(x), ad.constant(h), layer).data

    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    g = lambda t: t.data
    z = sig(x @ g(layer.w_z) + h @ g(layer.u_z) + g(layer.b_z))
    r = sig(x @ g(layer.w_r) + h @ g(layer.u_r) + g(layer.b_r))
    h_tilde = np.tanh(x @ g(layer.w_h) + (r * h) @ g(layer.u_h) + g(layer.b_h))
    expected = (1 - z) * h + z * h_tilde
    assert np.allclose(out, expected, atol=1e-12)


def test_gru_encode_t1_is_single_cell(rng):
    layer = random_gru_layer(rng, 4, 4)
    params = tp.GruParams(layers=[layer])
    x = rng.standard_normal((1, 4))
    (seq,) = tp.gru_encode_steps([ad.constant(x)], params)
    cell = tp.gru_cell(ad.constant(x), ad.constant(np.zeros((1, 4))), layer)
    assert np.allclose(seq.data, cell.data, atol=1e-14)


def test_gru_encode_composes_cells(rng):
    layer = random_gru_layer(rng, 4, 5)
    params = tp.GruParams(layers=[layer])
    # two sequences as the rows of each step; each row evolves on its own
    xs = rng.standard_normal((3, 2, 4))
    seq = tp.gru_encode_steps([ad.constant(x) for x in xs], params)
    for row in range(2):
        h = ad.constant(np.zeros((1, 5)))
        for t in range(3):
            h = tp.gru_cell(ad.constant(xs[t, row : row + 1]), h, layer)
            assert np.allclose(seq[t].data[row], h.data[0], atol=1e-12)


def test_gru_encode_empty_raises():
    with pytest.raises(ValueError):
        tp.gru_encode_steps([], tp.GruParams(layers=[zero_gru_layer(2, 2)]))


def test_gru_contraction_with_zero_input(rng):
    layer = random_gru_layer(rng, 2, 4)
    # zero the input weights so only the recurrent path is active
    for name in ("w_z", "w_r", "w_h"):
        getattr(layer, name).data[:] = 0.0
    h = rng.uniform(-1, 1, size=(1, 4))
    x = ad.constant(np.zeros((1, 2)))
    out = tp.gru_cell(x, ad.constant(h), layer)
    assert np.abs(out.data).max() <= np.abs(h).max() + 1e-12


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------


def test_mha_t1_projects_value(rng):
    d = 4
    p = random_mha(rng, d, 2)
    x = rng.standard_normal((1, d))
    out = tp.mha_blocks(ad.constant(x), p, 1).data
    v = np.concatenate([x @ h.w_v.data for h in p.heads], axis=1)
    assert np.allclose(out, v @ p.w_o.data, atol=1e-12)


def test_mha_uniform_when_query_zero(rng):
    d, t = 4, 5
    p = random_mha(rng, d, 1)
    p.heads[0].w_q.data[:] = 0.0
    x = rng.standard_normal((t, d))
    out = tp.mha_blocks(ad.constant(x), p, t).data
    mean_v = np.tile((x @ p.heads[0].w_v.data).mean(axis=0), (t, 1))
    assert np.allclose(out, mean_v @ p.w_o.data, atol=1e-12)


def test_mha_matches_brute_force(rng):
    d, t = 4, 3
    p = random_mha(rng, d, 1)
    x = rng.standard_normal((t, d))
    out = tp.mha_blocks(ad.constant(x), p, t).data

    h = p.heads[0]
    q, k, v = x @ h.w_q.data, x @ h.w_k.data, x @ h.w_v.data
    scores = q @ k.T / np.sqrt(d)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    assert np.allclose(out, (att @ v) @ p.w_o.data, atol=1e-12)


def test_mha_divisibility_check(rng):
    # rows of width 5 do not fit heads built for width 4 (two heads of 2)
    p = random_mha(rng, 4, 2)
    with pytest.raises(ValueError):
        tp.mha_blocks(ad.constant(rng.standard_normal((3, 5))), p, 3)


def test_mha_block_batching_matches_per_sequence(rng):
    # two independent sequences stacked as blocks give the same answers
    d, t = 6, 4
    p = random_mha(rng, d, 2)
    a = rng.standard_normal((t, d))
    b = rng.standard_normal((t, d))
    merged = tp.mha_blocks(ad.constant(np.concatenate([a, b])), p, t).data
    out_a = tp.mha_blocks(ad.constant(a), p, t).data
    out_b = tp.mha_blocks(ad.constant(b), p, t).data
    assert np.allclose(merged[:t], out_a, atol=1e-12)
    assert np.allclose(merged[t:], out_b, atol=1e-12)


def test_collapse_takes_last_row():
    # the context of each vehicle is the last time position of its attended
    # sequence; rebuild it vehicle by vehicle from the temporal ops
    cfg = tiny_config()
    model = md.init_model(cfg, seed=4)
    windows = [md.make_window(random_frames(n, cfg.t_obs, seed=n), cfg) for n in (2, 3)]
    batch = md.prepare_batch(windows, cfg)
    hf = md.forward_batch(model, batch).hf.data
    rows = 0
    for w in windows:
        for v in range(w.n):
            steps = []
            for t in range(cfg.t_obs):
                x = ad.constant(w.features[t])
                h = sg.embed_features(x, model.embed_w, model.embed_b)
                src, dst = w.edge_lists[t]
                for layer in model.gat_layers:
                    h = sg.gat_layer_edges(h, src, dst, layer)
                steps.append(ad.rows(ad.linear(h, model.bridge_w, model.bridge_b), v, v + 1))
            seq = ad.concat_rows(tp.gru_encode_steps(steps, model.gru))
            attended = tp.mha_blocks(seq, model.mha, cfg.t_obs).data
            assert np.allclose(hf[rows], attended[-1], atol=1e-12)
            rows += 1
    assert rows == hf.shape[0]


def test_gru_attention_composite_gradient(rng):
    d = 4
    store = ParameterStore()
    reg = lambda path, arr: store.add(path, arr)
    layer = tp.GruLayerParams(
        w_z=reg("wz", rng.standard_normal((d, d)) * 0.4),
        u_z=reg("uz", rng.standard_normal((d, d)) * 0.4),
        b_z=reg("bz", np.zeros((1, d))),
        w_r=reg("wr", rng.standard_normal((d, d)) * 0.4),
        u_r=reg("ur", rng.standard_normal((d, d)) * 0.4),
        b_r=reg("br", np.zeros((1, d))),
        w_h=reg("wh", rng.standard_normal((d, d)) * 0.4),
        u_h=reg("uh", rng.standard_normal((d, d)) * 0.4),
        b_h=reg("bh", np.zeros((1, d))),
    )
    heads = [
        tp.MhaHeadParams(
            w_q=reg(f"m{k}/q", rng.standard_normal((d, d // 2)) * 0.4),
            w_k=reg(f"m{k}/k", rng.standard_normal((d, d // 2)) * 0.4),
            w_v=reg(f"m{k}/v", rng.standard_normal((d, d // 2)) * 0.4),
        )
        for k in range(2)
    ]
    mha = tp.MhaParams(heads=heads, w_o=reg("wo", rng.standard_normal((d, d)) * 0.4))
    x = ad.constant(rng.standard_normal((3, d)))

    def f():
        steps = [ad.rows(x, t, t + 1) for t in range(3)]
        seq = ad.concat_rows(tp.gru_encode_steps(steps, tp.GruParams(layers=[layer])))
        att = tp.mha_blocks(seq, mha, 3)
        return ad.sum_all(ad.square(ad.rows(att, 2, 3)))

    assert grad_check(f, store) < 1e-4
