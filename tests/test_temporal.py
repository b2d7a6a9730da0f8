"""Stacked GRU and temporal multi-head self-attention: the fused one-node
ops against their unfused oracles, hand arithmetic and central differences."""
import numpy as np
import pytest

import fcw.autodiff as ad
import fcw.model as md
import fcw.scene_graph as sg
import fcw.temporal as tp
from fcw.optim import ParameterStore, grad_check

from conftest import assert_matches_oracle, random_frames, tiny_config

import oracles


def zero_gru_layer(d_in, d_h):
    z = lambda r, c: ad.parameter(np.zeros((r, c)))
    return tp.GruLayerParams(
        w_z=z(d_in, d_h), u_z=z(d_h, d_h), b_z=z(1, d_h),
        w_r=z(d_in, d_h), u_r=z(d_h, d_h), b_r=z(1, d_h),
        w_h=z(d_in, d_h), u_h=z(d_h, d_h), b_h=z(1, d_h),
    )


def random_gru_layer(rng, d_in, d_h, scale=0.5, store=None, prefix=""):
    if store is None:
        p = lambda name, r, c: ad.parameter(rng.standard_normal((r, c)) * scale)
    else:
        p = lambda name, r, c: store.add(f"{prefix}{name}", rng.standard_normal((r, c)) * scale)
    return tp.GruLayerParams(
        w_z=p("wz", d_in, d_h), u_z=p("uz", d_h, d_h), b_z=p("bz", 1, d_h),
        w_r=p("wr", d_in, d_h), u_r=p("ur", d_h, d_h), b_r=p("br", 1, d_h),
        w_h=p("wh", d_in, d_h), u_h=p("uh", d_h, d_h), b_h=p("bh", 1, d_h),
    )


def random_mha(rng, d, m, scale=1.0, store=None):
    d_k = d // m
    if store is None:
        p = lambda name, r, c: ad.parameter(rng.standard_normal((r, c)) * scale)
    else:
        p = lambda name, r, c: store.add(name, rng.standard_normal((r, c)) * scale)
    heads = [
        tp.MhaHeadParams(w_q=p(f"m{k}/q", d, d_k), w_k=p(f"m{k}/k", d, d_k), w_v=p(f"m{k}/v", d, d_k))
        for k in range(m)
    ]
    return tp.MhaParams(heads=heads, w_o=p("wo", d, d))


def time_major(seqs):
    """(n, T, d) sequences as the time-major (T*n, d) stack: row t*n + v."""
    seqs = np.asarray(seqs)
    return seqs.transpose(1, 0, 2).reshape(-1, seqs.shape[2])


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def test_gru_cell_zero_weights_halves_state(rng):
    # the oracle cell: all gates at sigmoid(0) = 1/2, candidate tanh(0) = 0
    v = rng.standard_normal((2, 4))
    layer = zero_gru_layer(3, 4)
    out = oracles.gru_cell(ad.constant(rng.standard_normal((2, 3))), ad.constant(v), layer)
    assert np.allclose(out.data, 0.5 * v, atol=1e-12)


def test_gru_cell_zero_state_zero_weights():
    layer = zero_gru_layer(3, 4)
    out = tp.gru_encode_steps(ad.constant(np.ones((2, 3))), tp.GruParams(layers=[layer]), 2)
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_gru_cell_matches_reference(rng):
    # the oracle cell against the gate equations in plain numpy
    d_in, d_h = 3, 4
    layer = random_gru_layer(rng, d_in, d_h)
    x = rng.standard_normal((2, d_in))
    h = rng.standard_normal((2, d_h))
    out = oracles.gru_cell(ad.constant(x), ad.constant(h), layer).data

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
    seq = tp.gru_encode_steps(ad.constant(x), params, 1)
    cell = oracles.gru_cell(ad.constant(x), ad.constant(np.zeros((1, 4))), layer)
    assert np.allclose(seq.data, cell.data, rtol=0.0, atol=1e-14)


def test_gru_encode_composes_cells(rng):
    layer = random_gru_layer(rng, 4, 5)
    params = tp.GruParams(layers=[layer])
    # two sequences as the rows of each step; each row evolves on its own
    xs = rng.standard_normal((3, 2, 4))  # (T, n, D)
    seq = tp.gru_encode_steps(ad.constant(xs.reshape(6, 4)), params, 3).data
    for row in range(2):
        h = ad.constant(np.zeros((1, 5)))
        for t in range(3):
            h = oracles.gru_cell(ad.constant(xs[t, row : row + 1]), h, layer)
            assert np.allclose(seq[t * 2 + row], h.data[0], rtol=0.0, atol=1e-12)


def test_gru_encode_empty_raises():
    params = tp.GruParams(layers=[zero_gru_layer(2, 2)])
    with pytest.raises(ValueError):
        tp.gru_encode_steps(ad.constant(np.zeros((0, 2))), params, 1)
    with pytest.raises(ValueError):
        tp.gru_encode_steps(ad.constant(np.zeros((5, 2))), params, 2)  # 5 rows, 2 steps


def test_gru_contraction_with_zero_input(rng):
    layer = random_gru_layer(rng, 2, 4)
    # zero the input weights so only the recurrent path is active
    for name in ("w_z", "w_r", "w_h"):
        getattr(layer, name).data[:] = 0.0
    h = rng.uniform(-1, 1, size=(1, 4))
    x = ad.constant(np.zeros((1, 2)))
    out = oracles.gru_cell(x, ad.constant(h), layer)
    assert np.abs(out.data).max() <= np.abs(h).max() + 1e-12


@pytest.mark.parametrize("steps", [1, 8])
@pytest.mark.parametrize("n_layers", [1, 2])
def test_gru_fused_matches_unfused_and_central_differences(steps, n_layers):
    rng = np.random.default_rng(10 * steps + n_layers)
    n, d_in, d_h = 3, 4, 5
    store = ParameterStore()
    x = store.add("x", rng.standard_normal((steps * n, d_in)))
    layers = [
        random_gru_layer(rng, d_in if i == 0 else d_h, d_h, store=store, prefix=f"l{i}/") for i in range(n_layers)
    ]
    params = tp.GruParams(layers=layers)
    fused = lambda: tp.gru_encode_steps(x, params, steps)
    node = fused()  # one node per layer, listing its input and all nine parameters
    for layer in reversed(layers):
        assert node._parents[1:] == layer.tensors()
        node = node._parents[0]
    assert node is x
    assert_matches_oracle(fused, lambda: oracles.gru_encode(x, params, steps), store, seed=steps)
    assert grad_check(lambda: ad.sum_all(ad.square(fused())), store, rng=rng) < 1e-6


# ---------------------------------------------------------------------------
# self-attention
# ---------------------------------------------------------------------------


def test_mha_t1_projects_value(rng):
    d = 4
    p = random_mha(rng, d, 2)
    x = rng.standard_normal((1, d))
    out = tp.mha_blocks(ad.constant(x), p, 1).data
    v = np.concatenate([x @ h.w_v.data for h in p.heads], axis=1)
    assert np.allclose(out, v @ p.w_o.data, rtol=0.0, atol=1e-12)


def test_mha_uniform_when_query_zero(rng):
    d, t = 4, 5
    p = random_mha(rng, d, 1)
    p.heads[0].w_q.data[:] = 0.0
    x = rng.standard_normal((t, d))  # one vehicle, time-major
    out = tp.mha_blocks(ad.constant(x), p, t).data
    mean_v = (x @ p.heads[0].w_v.data).mean(axis=0, keepdims=True)
    assert np.allclose(out, mean_v @ p.w_o.data, rtol=0.0, atol=1e-12)


def test_mha_matches_brute_force(rng):
    d, t = 4, 3
    p = random_mha(rng, d, 1)
    x = rng.standard_normal((t, d))
    out = tp.mha_blocks(ad.constant(x), p, t).data

    # the last position's query against every key, by hand
    h = p.heads[0]
    q, k, v = x[-1] @ h.w_q.data, x @ h.w_k.data, x @ h.w_v.data
    scores = k @ q / np.sqrt(d)
    att = np.exp(scores - scores.max())
    att /= att.sum()
    assert out.shape == (1, d)
    assert np.allclose(out[0], (att @ v) @ p.w_o.data, rtol=0.0, atol=1e-12)


def test_mha_divisibility_check(rng):
    # rows of width 5 do not fit heads built for width 4 (two heads of 2)
    p = random_mha(rng, 4, 2)
    with pytest.raises(ValueError):
        tp.mha_blocks(ad.constant(rng.standard_normal((3, 5))), p, 3)
    with pytest.raises(ValueError):
        tp.mha_blocks(ad.constant(rng.standard_normal((5, 4))), p, 3)  # 5 rows, 3 steps


def test_mha_block_batching_matches_per_sequence(rng):
    # two independent sequences stacked time-major give the same answers
    d, t = 6, 4
    p = random_mha(rng, d, 2)
    a = rng.standard_normal((t, d))
    b = rng.standard_normal((t, d))
    merged = tp.mha_blocks(ad.constant(time_major([a, b])), p, t).data
    out_a = tp.mha_blocks(ad.constant(a), p, t).data
    out_b = tp.mha_blocks(ad.constant(b), p, t).data
    assert np.allclose(merged[0], out_a[0], rtol=0.0, atol=1e-12)
    assert np.allclose(merged[1], out_b[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("steps", [1, 8])
def test_mha_fused_matches_unfused_and_central_differences(steps):
    rng = np.random.default_rng(steps)
    n, d = 3, 6
    store = ParameterStore()
    y = store.add("y", rng.standard_normal((steps * n, d)))
    p = random_mha(rng, d, 2, scale=0.5, store=store)
    fused = lambda: tp.mha_blocks(y, p, steps)
    out = fused()
    assert out.shape == (n, d)
    assert out._parents == (y, *(t for h in p.heads for t in (h.w_q, h.w_k, h.w_v)), p.w_o)
    assert_matches_oracle(fused, lambda: oracles.mha_last(y, p, steps), store, seed=steps)
    assert grad_check(lambda: ad.sum_all(ad.square(fused())), store, rng=rng) < 1e-6


def test_collapse_takes_last_row():
    # the context of each vehicle is the attended last time position of its
    # own sequence; rebuild it vehicle by vehicle through the unfused oracles
    cfg = tiny_config()
    model = md.init_model(cfg, seed=4)
    windows = [md.make_window(random_frames(n, cfg.t_obs, seed=n), cfg) for n in (2, 3)]
    batch = md.prepare_batch(windows, cfg)
    hf = md.forward_batch(model, batch).hf.data
    rows = 0
    for w in windows:
        steps = []
        for t in range(cfg.t_obs):
            h = sg.embed_features(ad.constant(w.features[t]), model.embed_w, model.embed_b)
            src, dst = w.edge_lists[t]
            for layer in model.gat_layers:
                h = oracles.gat_layer(h, src, dst, layer)
            steps.append(h.data)
        for v in range(w.n):
            seq = oracles.linear(ad.constant(np.stack(steps)[:, v]), model.bridge_w, model.bridge_b)
            seq = oracles.gru_encode(seq, model.gru, cfg.t_obs)
            attended = oracles.mha_all_positions(seq, model.mha, cfg.t_obs).data
            assert np.allclose(hf[rows], attended[-1], rtol=0.0, atol=1e-12)
            rows += 1
    assert rows == hf.shape[0]


def test_gru_attention_composite_gradient(rng):
    d = 4
    store = ParameterStore()
    layer = random_gru_layer(rng, d, d, scale=0.4, store=store)
    for name in ("b_z", "b_r", "b_h"):
        getattr(layer, name).data[:] = 0.0
    mha = random_mha(rng, d, 2, scale=0.4, store=store)
    x = ad.constant(rng.standard_normal((3, d)))  # one sequence of 3 steps

    def f():
        seq = tp.gru_encode_steps(x, tp.GruParams(layers=[layer]), 3)
        return ad.sum_all(ad.square(tp.mha_blocks(seq, mha, 3)))

    assert grad_check(f, store) < 1e-4
