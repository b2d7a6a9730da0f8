"""End-to-end predictor: windowing, forward invariances, losses, training."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcw.autodiff as ad
import fcw.model as md
import fcw.pipeline as pl
import fcw.scenario as sc
from fcw.checkpoint import load_checkpoint, save_checkpoint
from fcw.optim import ParameterStore
from fcw.cli import MODEL_ABLATIONS
from fcw.scene_graph import FEATURE_DIM, SceneFrame, WorkCounter

from conftest import (
    assert_batches_equal,
    assert_matches_oracle,
    grad_check,
    labelled_window,
    random_frames,
    tiny_config,
)

import oracles


def episode_windows(config, n_vehicles=2, seed=0, count=3):
    """Small list of labelled windows from one synthetic episode."""
    total = config.t_obs + config.t_pred
    windows = []
    for k in range(count):
        frames = random_frames(n_vehicles, total, seed=seed + k)
        windows.append(labelled_window(frames, config))
    return windows


def one_window(frames, config):
    """The piece of the one window that ``frames`` make."""
    return (md.episode_graphs(np.stack([f.vehicles for f in frames]), config.radius), 0, 1)


def predict_frames(model, frames):
    return md.predict_episodes(model, [one_window(frames, model.config)])


def translate_frames(frames, dx, dy):
    out = []
    for f in frames:
        v = f.vehicles.copy()
        v[:, 0] += dx
        v[:, 1] += dy
        out.append(SceneFrame(timestamp=f.timestamp, vehicles=v))
    return out


# ---------------------------------------------------------------------------
# config and windowing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(alpha=0.0)
    with pytest.raises(ValueError):
        tiny_config(alpha=1.0)
    with pytest.raises(ValueError):
        tiny_config(input_scale=0.0)
    with pytest.raises(ValueError):
        tiny_config(d_h=9)  # not divisible by k_heads=2
    with pytest.raises(ValueError):
        tiny_config(dt=-0.1)


def test_config_dict_roundtrip():
    cfg = tiny_config(l_s=0, alpha=0.2)
    again = md.HstanConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_make_window_counts_frames():
    cfg = tiny_config()
    frames = random_frames(2, cfg.t_obs + 1)
    for count in (cfg.t_obs + 1, cfg.t_obs - 1):
        with pytest.raises(ValueError, match="observed frames"):
            md.make_window(frames[:count], cfg)


def test_make_window_rejects_roster_change():
    cfg = tiny_config()
    frames = random_frames(2, cfg.t_obs)
    frames[-1] = random_frames(3, 1, seed=5)[0]
    with pytest.raises(ValueError):
        md.make_window(frames, cfg)


def test_make_window_centers_and_scales_features():
    cfg = tiny_config()
    frames = random_frames(3, cfg.t_obs, seed=4)
    batch = md.prepare_batch([md.make_window(frames, cfg)], cfg)
    centroid = frames[0].vehicles[:, 0:2].mean(axis=0)
    raw = np.stack([f.vehicles for f in frames]).copy()
    raw[:, :, 0:2] -= centroid
    assert np.allclose(batch.x.reshape(raw.shape), raw * cfg.input_scale, atol=1e-12)
    assert np.array_equal(batch.last_pos, frames[-1].vehicles[:, 0:2])


# ---------------------------------------------------------------------------
# forward invariances
# ---------------------------------------------------------------------------


def test_zero_parameters_predict_last_position():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=0)
    for path in model.params.paths():
        model.params[path].data[:] = 0.0
    frames = random_frames(3, cfg.t_obs, seed=1)
    pred = predict_frames(model, frames)
    last = frames[-1].vehicles[:, 0:2]
    expected = np.tile(last[:, None, :], (1, cfg.t_pred, 1))
    assert np.array_equal(pred.point, expected)
    assert np.array_equal(pred.lower, expected)
    assert np.array_equal(pred.upper, expected)


def test_translation_invariance():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=2)
    frames = random_frames(3, cfg.t_obs, seed=3)
    base = predict_frames(model, frames)
    moved = predict_frames(model, translate_frames(frames, 137.0, -41.5))
    shift = np.array([137.0, -41.5])
    assert np.allclose(moved.point, base.point + shift, atol=1e-8)
    assert np.allclose(moved.lower, base.lower + shift, atol=1e-8)
    assert np.allclose(moved.upper, base.upper + shift, atol=1e-8)


def test_permutation_equivariance():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=2)
    frames = random_frames(4, cfg.t_obs, seed=6)
    perm = np.array([2, 0, 3, 1])
    permuted = [
        SceneFrame(timestamp=f.timestamp, vehicles=f.vehicles[perm]) for f in frames
    ]
    base = predict_frames(model, frames)
    shuffled = predict_frames(model, permuted)
    assert np.allclose(shuffled.point, base.point[perm], atol=1e-9)


def test_batching_matches_per_window():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=7)
    windows = episode_windows(cfg, n_vehicles=3, seed=10, count=2)
    batch = md.prepare_batch(windows, cfg)
    merged = md.outputs_to_predictions(md.forward_batch(model, batch), batch, cfg)
    for w, pred in zip(oracles.copy_windows(windows, cfg), merged):
        solo = oracles.predict_one(model, w)
        assert np.allclose(pred.point, solo.point, atol=1e-12)
        assert np.allclose(pred.lower, solo.lower, atol=1e-12)
        assert np.allclose(pred.upper, solo.upper, atol=1e-12)


def test_single_vehicle_path():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=8)
    window = md.make_window(random_frames(1, cfg.t_obs, seed=9), cfg)
    batch = md.prepare_batch([window], cfg)
    out = md.forward_batch(model, batch)
    pred = md.outputs_to_predictions(out, batch, cfg)[0]
    assert out.hf.shape == (1, cfg.gru_hidden)
    assert pred.point.shape == (1, cfg.t_pred, 2)
    assert np.isfinite(pred.point).all()


def test_ablation_switches_change_parameter_sets():
    full = md.init_model(tiny_config(), seed=0).params.paths()
    no_sam = md.init_model(tiny_config(l_s=0), seed=0).params.paths()
    no_tam = md.init_model(tiny_config(gru_layers=0), seed=0).params.paths()
    assert not any(p.startswith("gat") for p in no_sam)
    assert any(p.startswith("gat") for p in full)
    assert not any(p.startswith(("gru", "mha")) for p in no_tam)
    assert any(p.startswith("gru") for p in full)


def test_prepare_batch_pairs_stay_within_window():
    cfg = tiny_config()
    windows = episode_windows(cfg, n_vehicles=2, seed=20, count=2)
    batch = md.prepare_batch(windows, cfg)
    # two windows of two vehicles: exactly one pair each, offsets respected
    assert batch.pair_i.tolist() == [0, 2]
    assert batch.pair_j.tolist() == [1, 3]


def test_prepare_batch_pairs_match_double_loop():
    cfg = tiny_config()
    windows = [episode_windows(cfg, n_vehicles=n, seed=21 + n, count=1)[0] for n in (1, 2, 5, 1, 5)]
    batch = md.prepare_batch(windows, cfg)
    pi, pj = [], []
    for w, off in zip(windows, batch.offsets):
        for i in range(w.n):
            for j in range(i + 1, w.n):
                pi.append(off + i)
                pj.append(off + j)
    assert batch.pair_i.tolist() == pi
    assert batch.pair_j.tolist() == pj
    assert batch.pair_i.dtype == batch.pair_j.dtype == np.intp


def test_prepare_batch_skips_pairs_without_targets():
    cfg = tiny_config()
    labelled = episode_windows(cfg, n_vehicles=3, seed=22, count=2)
    bare = [md.make_window(random_frames(3, cfg.t_obs, seed=23 + k), cfg) for k in range(2)]
    assert len(md.prepare_batch(labelled, cfg).pair_i) == 6
    for windows in (bare, [labelled[0], bare[0]]):
        batch = md.prepare_batch(windows, cfg)
        assert batch.target_disp is None
        for pairs in (batch.pair_i, batch.pair_j):
            assert pairs.dtype == np.intp and pairs.shape == (0,)


def test_no_tam_lays_out_and_attends_over_the_last_frame_only():
    cfg = tiny_config(gru_layers=0)
    model = md.init_model(cfg, seed=5)
    windows = [md.make_window(random_frames(n, cfg.t_obs, seed=60 + n, spread=8.0), cfg) for n in (1, 3, 4)]
    total = sum(w.n for w in windows)
    batch = md.prepare_batch(windows, cfg)
    copies = oracles.copy_windows(windows, cfg)
    assert np.array_equal(batch.x, np.concatenate([w.features[-1] for w in copies]))
    ((t_lo, t_hi, src, dst),) = batch.edges
    last = oracles.frame_edges(copies, cfg.t_obs - 1)
    assert (t_lo, t_hi) == (0, 1) and np.array_equal(src, last[0]) and np.array_equal(dst, last[1])
    counter = WorkCounter()
    md.forward_batch(model, batch, counter)
    k = cfg.k_heads
    assert counter.score_evals == cfg.l_s * k * len(src)
    assert counter.all_pairs_equivalent == cfg.l_s * k * total**2
    # the last frame's outputs of the GAT run over all T frames
    assert_matches_oracle(
        lambda: forward_readout(md.forward_batch(model, batch)),
        lambda: forward_readout(oracles.forward_per_frame(model, copies)),
        model.params,
    )


def test_predict_episodes_matches_per_window_loop():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=11)
    counts = [1, 2, 3, 5]
    frames = [random_frames(counts[k % len(counts)], cfg.t_obs, seed=100 + k) for k in range(md.PREDICT_CHUNK + 6)]
    stack = md.predict_episodes(model, [one_window(f, cfg) for f in frames])
    rows = sum(f[0].n for f in frames)
    for key in ("point", "lower", "upper"):
        assert getattr(stack, key).shape == (rows, cfg.t_pred, 2)
    start = 0
    for f in frames:
        solo = oracles.predict_one(model, oracles.copy_windows([md.make_window(f, cfg)], cfg)[0])
        for key in ("point", "lower", "upper"):
            got = getattr(stack, key)[start : start + f[0].n]
            assert np.allclose(got, getattr(solo, key), rtol=0.0, atol=1e-12)
        start += f[0].n
    graphs = one_window(frames[0], cfg)[0]
    for pieces in ([], [(graphs, 0, 0)]):
        empty = md.predict_episodes(model, pieces)
        for key in ("point", "lower", "upper"):
            assert getattr(empty, key).shape == (0, cfg.t_pred, 2)


def episode_states(n, count, seed, spread):
    return np.stack([f.vehicles for f in random_frames(n, count, seed=seed, spread=spread)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(0, 6), st.sampled_from([5.0, 20.0, 60.0])),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.sampled_from([0, 40, 400, 2**15]),
    st.integers(1, 9),
    st.integers(0, 2**16),
    st.data(),
)
def test_episode_batch_matches_the_per_window_path(episodes, no_tam, budget, chunk, seed, data):
    cfg = tiny_config(gru_layers=0 if no_tam else 2)
    model = md.init_model(cfg, seed=seed % 5)
    pieces = []
    for k, (n, extra, spread) in enumerate(episodes):
        states = episode_states(n, cfg.t_obs + extra, seed + k, spread)
        graphs = md.episode_graphs(states, cfg.radius)
        windows = extra + 1
        lo = data.draw(st.integers(0, windows))
        hi = data.draw(st.integers(lo, windows))
        # a piece may be empty, and the same episode may come back in a later piece
        pieces += [(graphs, lo, hi), (graphs, 0, data.draw(st.integers(0, windows)))]
    windows = [
        oracles.window_from_states(g.states[s : s + cfg.t_obs], cfg) for g, lo, hi in pieces for s in range(lo, hi)
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "GAT_EDGE_BUDGET", budget)
        mp.setattr(md, "PREDICT_CHUNK", chunk)
        if windows:
            got, want = md.episode_batch(pieces, cfg), oracles.prepare_batch(windows, cfg)
            assert_batches_equal(got, want)
            assert got.target_disp is None and len(got.pair_i) == len(got.pair_j) == 0
        stack, ref = md.predict_episodes(model, pieces), oracles.predict_windows(model, windows)
    for key in ("point", "lower", "upper"):
        assert np.array_equal(getattr(stack, key), getattr(ref, key)), key


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(0, 4), st.sampled_from([5.0, 20.0, 60.0])),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.sampled_from([0, 40, 400, 2**15]),
    st.integers(0, 2**16),
    st.randoms(use_true_random=False),
)
def test_prepare_batch_of_shuffled_windows_matches_the_per_window_path(episodes, no_tam, budget, seed, random):
    # the training shape: one-window pieces of episodes with different N, interleaved
    cfg = tiny_config(gru_layers=0 if no_tam else 2)
    eps = []
    for k, (n, extra, spread) in enumerate(episodes):
        states = episode_states(n, cfg.t_obs + cfg.t_pred + extra, seed + k, spread)
        times = np.arange(len(states)) * cfg.dt
        eps.append(sc.Episode(k, "cv", cfg.dt, frames=states, times=times, danger=False, contact_time=None))
    windows = sc.dataset_windows(eps, cfg)
    random.shuffle(windows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "GAT_EDGE_BUDGET", budget)
        got, want = md.prepare_batch(windows, cfg), oracles.prepare_batch(oracles.copy_windows(windows, cfg), cfg)
    assert_batches_equal(got, want)
    for key in ("target_disp", "pair_i", "pair_j"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert getattr(got, key).dtype == getattr(want, key).dtype, key


@pytest.mark.parametrize("n", [250, 1000])
def test_episode_batch_matches_the_per_window_path_on_a_dense_scene(n):
    cfg = md.desk_config()
    states = pl.constant_density_frames(n, cfg, 0.02, seed=n)
    got = md.prepare_batch([md.make_window([SceneFrame(timestamp=0.0, vehicles=v) for v in states], cfg)], cfg)
    assert_batches_equal(got, oracles.prepare_batch([oracles.window_from_states(states, cfg)], cfg))


def test_episode_targets_are_the_windows_futures():
    cfg = tiny_config()
    graphs = md.episode_graphs(episode_states(3, cfg.t_obs + cfg.t_pred + 4, 5, 20.0), cfg.radius)
    pieces = [(graphs, 1, 4), (graphs, 0, 5)]
    want = np.concatenate(
        [
            graphs.states[s + cfg.t_obs : s + cfg.t_obs + cfg.t_pred, :, 0:2].transpose(1, 0, 2)
            for _, lo, hi in pieces
            for s in range(lo, hi)
        ]
    )
    assert np.array_equal(md.episode_targets(pieces, cfg), want)
    assert md.episode_targets([], cfg).shape == (0, cfg.t_pred, 2)
    with pytest.raises(ValueError, match="ground-truth futures"):
        md.episode_targets([(graphs, 0, 6)], cfg)


def prepare_with_budget(windows, cfg, budget):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(md, "GAT_EDGE_BUDGET", budget)
        return md.prepare_batch(windows, cfg)


def forward_readout(out):
    return oracles.concat_cols([out.hf, out.disp])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=6),
    st.sampled_from([8.0, 20.0, 60.0]),
    st.integers(0, 2**16),
)
def test_frame_runs_match_the_per_frame_path(counts, spread, seed):
    cfg = tiny_config()
    model = md.init_model(cfg, seed=seed % 7)
    windows = [
        md.make_window(random_frames(n, cfg.t_obs, seed=seed + k, spread=spread), cfg)
        for k, n in enumerate(counts)
    ]
    total = sum(counts)
    copies = oracles.copy_windows(windows, cfg)
    frames = [oracles.frame_edges(copies, t) for t in range(cfg.t_obs)]
    n_edges = sum(len(src) for src, _ in frames)
    k = cfg.k_heads
    reference = WorkCounter()
    oracles.forward_per_frame(model, copies, reference)
    assert reference.score_evals == cfg.l_s * k * n_edges
    assert reference.all_pairs_equivalent == cfg.l_s * k * cfg.t_obs * total**2
    budgets = (0, 300, 10**9)
    batches = [prepare_with_budget(windows, cfg, b) for b in budgets]
    for budget, batch in zip(budgets, batches):
        assert [r[0] for r in batch.edges] == [0] + [r[1] for r in batch.edges[:-1]]
        assert batch.edges[-1][1] == cfg.t_obs
        for t_lo, t_hi, src, dst in batch.edges:
            assert t_lo < t_hi
            assert len(src) <= budget or t_hi - t_lo == 1
            assert (np.diff(dst) >= 0).all()
            for got, i in ((src, 0), (dst, 1)):
                want = np.concatenate([frames[t][i] + (t - t_lo) * total for t in range(t_lo, t_hi)])
                assert np.array_equal(got, want)
        counter = WorkCounter()
        md.forward_batch(model, batch, counter)
        assert counter == reference
    assert len(batches[0].edges) == cfg.t_obs and len(batches[-1].edges) == 1
    whole = lambda: forward_readout(md.forward_batch(model, batches[-1]))
    assert_matches_oracle(whole, lambda: forward_readout(oracles.forward_per_frame(model, copies)), model.params)
    for batch in batches[:-1]:
        assert_matches_oracle(lambda: forward_readout(md.forward_batch(model, batch)), whole, model.params)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_pinball_level_half_is_half_absolute_error(rng):
    pred = rng.standard_normal((3, 4))
    target = rng.standard_normal((3, 4))
    value, _ = md._pinball(pred, target, 0.5)
    assert np.allclose(value, 0.5 * np.abs(target - pred).mean(), atol=1e-12)


def test_pinball_asymmetry():
    pred = np.zeros((1, 1))
    over = md._pinball(pred, np.ones((1, 1)), 0.9)[0]  # under-prediction
    under = md._pinball(pred, -np.ones((1, 1)), 0.9)[0]
    assert over == pytest.approx(0.9)
    assert under == pytest.approx(0.1)


def test_training_loss_reduces_to_mse_when_weights_zero():
    cfg = tiny_config(pinball_weight=0.0, collision_weight=0.0)
    model = md.init_model(cfg, seed=3)
    windows = episode_windows(cfg, n_vehicles=2, seed=30, count=2)
    batch = md.prepare_batch(windows, cfg)
    out = md.forward_batch(model, batch)
    _, parts = md.training_loss(out, batch, cfg)
    expected = np.mean((out.disp.data[:, : cfg.t_pred * 2] - batch.target_disp) ** 2)
    assert parts["loss"] == pytest.approx(expected, abs=1e-14)
    assert parts["collision"] == 0.0


def test_collision_penalty_hand_value():
    # two vehicles a constant 1 m apart, radius 2: penalty (2-1)^2 = 1
    cfg = tiny_config(collision_weight=0.5, collision_radius=2.0, pinball_weight=0.0)
    n, tp2 = 2, cfg.t_pred * 2
    batch = md.PreparedBatch(
        x=np.zeros((0, FEATURE_DIM)),
        edges=[],
        offsets=[0, n],
        last_pos=np.array([[0.0, 0.0], [1.0, 0.0]]),
        target_disp=np.zeros((n, tp2)),
        pair_i=np.array([0]),
        pair_j=np.array([1]),
    )
    out = md.ForwardOutputs(hf=ad.constant(np.zeros((n, 1))), disp=ad.constant(np.zeros((n, 3 * tp2))))
    _, parts = md.training_loss(out, batch, cfg)
    assert parts["collision"] == pytest.approx(1.0, abs=1e-9)
    assert parts["loss"] == pytest.approx(0.5 * 1.0, abs=1e-9)


@pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
def test_decoder_node_matches_the_mlp_oracle(hidden):
    rng = np.random.default_rng(len(hidden))
    store = ParameterStore()
    hf = store.add("hf", rng.standard_normal((7, 5)))
    layers = md._build_decoders(store, rng, [5, *hidden, 4], 3)
    for path in store.paths():  # nonzero biases, so the ReLU masks vary by row
        store[path].data += rng.standard_normal(store[path].shape) * 0.3
    store.make_trainable()
    out = md.decode(hf, layers)
    assert out.shape == (7, 12)
    assert out._parents == (hf, *(t for wb in layers for t in wb))  # one node
    assert_matches_oracle(lambda: md.decode(hf, layers), lambda: oracles.decode(hf, layers, 3), store)
    assert grad_check(lambda: oracles.sum_all(oracles.square(md.decode(hf, layers))), store, rng=rng) < 1e-6


LOSS_CASES = ["pairs", "no_pairs", "no_collision_loss", "pinball_weight_0", "u_zero_ties", "gap_zero"]


def loss_case(case):
    """(config, batch, store holding the disp parameter) for one loss case."""
    overrides = {"collision_weight": 0.0} if case == "no_collision_loss" else {}
    if case == "pinball_weight_0":
        overrides["pinball_weight"] = 0.0
    cfg = tiny_config(collision_radius=40.0, **overrides)
    counts = (1, 1, 1) if case == "no_pairs" else (2, 3, 1)
    windows = [episode_windows(cfg, n_vehicles=n, seed=70 + k, count=1)[0] for k, n in enumerate(counts)]
    batch = md.prepare_batch(windows, cfg)
    assert (len(batch.pair_i) == 0) == (case == "no_pairs")
    rng = np.random.default_rng(LOSS_CASES.index(case))
    width = cfg.t_pred * 2
    disp = np.tile(batch.target_disp, 3) + rng.standard_normal((len(batch.last_pos), 3 * width))
    if case == "u_zero_ties":
        ties = rng.random(disp[:, width:].shape) < 0.5
        disp[:, width:][ties] = np.tile(batch.target_disp, 2)[ties]
    if case == "gap_zero":  # the median distance sits exactly at the radius
        abs_pred = disp[:, :width] + np.tile(batch.last_pos, (1, cfg.t_pred))
        diff = abs_pred[batch.pair_i] - abs_pred[batch.pair_j]
        dx, dy = diff[:, 0::2], diff[:, 1::2]
        dist = np.sort(np.sqrt(dx * dx + dy * dy + 1e-12).reshape(-1))
        cfg.collision_radius = float(dist[len(dist) // 2])
        assert dist[0] < cfg.collision_radius < dist[-1]
    store = ParameterStore()
    store.add("disp", disp)
    store.make_trainable()
    return cfg, batch, store


@pytest.mark.parametrize("case", LOSS_CASES)
def test_loss_node_matches_the_chain_oracle(case):
    cfg, batch, store = loss_case(case)
    disp = store["disp"]
    out = md.ForwardOutputs(hf=ad.constant(np.zeros((len(disp.data), 1))), disp=disp)
    fused = lambda: md.training_loss(out, batch, cfg)
    loss, parts = fused()
    assert loss._parents == (disp,)  # one node
    want, want_parts = oracles.training_loss(disp, batch, cfg)
    assert parts == pytest.approx(want_parts, rel=1e-12, abs=0.0)
    assert (parts["collision"] > 0.0) == (case in ("pairs", "pinball_weight_0", "u_zero_ties", "gap_zero"))
    assert_matches_oracle(lambda: fused()[0], lambda: oracles.training_loss(disp, batch, cfg)[0], store)
    if case not in ("u_zero_ties", "gap_zero"):  # central differences need a smooth point
        assert grad_check(lambda: fused()[0], store, max_coords_per_param=40) < 1e-6


def test_no_collision_loss_flag_disables_penalty():
    cfg = tiny_config(collision_weight=0.0, pinball_weight=0.0)
    model = md.init_model(cfg, seed=3)
    windows = episode_windows(cfg, n_vehicles=2, seed=31, count=1)
    batch = md.prepare_batch(windows, cfg)
    _, parts = md.training_loss(md.forward_batch(model, batch), batch, cfg)
    assert parts["collision"] == 0.0


def test_training_loss_requires_targets():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=3)
    frames = random_frames(2, cfg.t_obs, seed=32)
    batch = md.prepare_batch([md.make_window(frames, cfg)], cfg)
    with pytest.raises(ValueError):
        md.training_loss(md.forward_batch(model, batch), batch, cfg)


def test_end_to_end_gradient_check():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=4)
    windows = episode_windows(cfg, n_vehicles=2, seed=40, count=1)
    batch = md.prepare_batch(windows, cfg)

    def f():
        loss, _ = md.training_loss(md.forward_batch(model, batch), batch, cfg)
        return loss

    assert grad_check(f, model.params) < 1e-4


def graph_size(root):
    """Distinct autodiff nodes reachable from ``root`` through its parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("flag", ["full", "no_sam", "no_tam"])
def test_training_step_node_count(flag):
    # fused layers keep the graph of a desk-config step of 32 windows small:
    # one node per GRU layer, one per GAT layer (the batch's frames are one
    # run), one attention node, one node for all three decoders, one loss
    # node, and one leaf per packed parameter tensor (25 in all), for a
    # model marked trainable as ``train`` marks it
    cfg = md.desk_config(**MODEL_ABLATIONS.get(flag, {}))
    model = md.init_model(cfg, seed=0)
    model.params.make_trainable()
    windows = [episode_windows(cfg, n_vehicles=2 + k % 3, seed=k, count=1)[0] for k in range(32)]
    batch = md.prepare_batch(windows, cfg)
    loss, _ = md.training_loss(md.forward_batch(model, batch), batch, cfg)
    assert len(batch.pair_i) > 0  # the collision term is part of the graph
    assert graph_size(loss) <= 40


def dense_batch(cfg, n):
    """The batch of one window of ``n`` vehicles at constant density."""
    states = pl.constant_density_frames(n, cfg, seed=0)
    return md.episode_batch([(md.episode_graphs(states, cfg.radius), 0, 1)], cfg)


def test_frozen_forward_keeps_no_graph():
    cfg = md.desk_config()
    model = md.init_model(cfg, seed=0)
    out = md.forward_batch(model, dense_batch(cfg, 20))
    for t in (out.hf, out.disp):
        assert not t.requires_grad and t._parents == () and t._backward is None


def test_frozen_forward_holds_no_memory_after_return():
    # with a graph, the closures of one N = 250 forward held about 14 MB
    cfg = md.desk_config()
    model = md.init_model(cfg, seed=0)
    batch = dense_batch(cfg, 250)
    md.forward_batch(model, batch)  # warm-up
    tracemalloc.start()
    try:
        out = md.forward_batch(model, batch)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.disp.shape == (250, 3 * cfg.t_pred * 2)
    assert held <= 1 << 20


def test_models_are_frozen_unless_trained(tmp_path):
    cfg = tiny_config()
    frozen = md.init_model(cfg, seed=0)
    save_checkpoint(tmp_path / "m.ckpt", frozen.params, cfg.to_dict())
    store, _ = load_checkpoint(tmp_path / "m.ckpt")
    rebuilt = md.rebuild_model(cfg, store)
    trained, _ = md.train(episode_windows(cfg, count=2), cfg, seed=0, epochs=1, batch_size=2)
    for model, trainable in ((frozen, False), (rebuilt, False), (trained, True)):
        assert [t.requires_grad for _, t in model.params.items()] == [trainable] * len(model.params.paths())


def test_trained_model_passes_the_gradient_check():
    cfg = tiny_config()
    windows = episode_windows(cfg, n_vehicles=3, seed=41, count=2)
    model, _ = md.train(windows, cfg, seed=0, epochs=1, batch_size=2)
    batch = md.prepare_batch(windows, cfg)

    def f():
        loss, _ = md.training_loss(md.forward_batch(model, batch), batch, cfg)
        return loss

    model.params.zero_grad()
    f().backward()
    assert all(t.grad is not None for _, t in model.params.items())
    assert grad_check(f, model.params) < 1e-4


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_train_same_seed_is_bit_identical():
    cfg = tiny_config()
    windows = episode_windows(cfg, n_vehicles=2, seed=50, count=4)
    m1, h1 = md.train(windows, cfg, seed=1, epochs=3, batch_size=2, base_lr=1e-3)
    m2, h2 = md.train(windows, cfg, seed=1, epochs=3, batch_size=2, base_lr=1e-3)
    assert h1 == h2
    for path in m1.params.paths():
        assert np.array_equal(m1.params[path].data, m2.params[path].data)


def test_train_zero_lr_leaves_parameters_at_init():
    cfg = tiny_config()
    windows = episode_windows(cfg, n_vehicles=2, seed=51, count=2)
    model, history = md.train(windows, cfg, seed=2, epochs=2, batch_size=2, base_lr=0.0)
    init = md.init_model(cfg, seed=2)
    for path in model.params.paths():
        assert np.array_equal(model.params[path].data, init.params[path].data)
    assert len(history) == 2 and history[0]["lr"] == 0.0


def test_train_reduces_loss():
    cfg = tiny_config(pinball_weight=0.0, collision_weight=0.0)
    windows = episode_windows(cfg, n_vehicles=2, seed=52, count=4)
    _, history = md.train(windows, cfg, seed=0, epochs=15, batch_size=4, base_lr=3e-3)
    assert history[-1]["loss"] < history[0]["loss"]


def test_train_rejects_empty_and_aborts_on_nonfinite():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        md.train([], cfg)
    windows = episode_windows(cfg, n_vehicles=2, seed=53, count=1)
    windows[0].target_abs[:] = 1e200  # squared error overflows
    with pytest.raises(FloatingPointError):
        md.train(windows, cfg, seed=0, epochs=1, batch_size=1)


def test_checkpoint_rebuild_predicts_identically(tmp_path):
    cfg = tiny_config()
    windows = episode_windows(cfg, n_vehicles=2, seed=54, count=2)
    model, _ = md.train(windows, cfg, seed=3, epochs=2, batch_size=2, base_lr=1e-3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model.params, cfg.to_dict())
    store, cfg_dict = load_checkpoint(path)
    rebuilt = md.rebuild_model(md.HstanConfig.from_dict(cfg_dict), store)
    probe = [one_window(random_frames(3, cfg.t_obs, seed=55), cfg)]
    a = md.predict_episodes(model, probe)
    b = md.predict_episodes(rebuilt, probe)
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)


def test_rebuild_rejects_shape_mismatch():
    cfg = tiny_config()
    other = md.init_model(tiny_config(d_h=16), seed=0)
    with pytest.raises(ValueError):
        md.rebuild_model(cfg, other.params)
