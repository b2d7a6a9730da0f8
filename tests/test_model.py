"""End-to-end predictor: windowing, forward invariances, losses, training."""
import numpy as np
import pytest

import fcw.autodiff as ad
import fcw.model as md
from fcw.checkpoint import load_checkpoint, save_checkpoint
from fcw.optim import grad_check
from fcw.scene_graph import SceneFrame

from conftest import labelled_window, random_frames, tiny_config

import oracles


def episode_windows(config, n_vehicles=2, seed=0, count=3):
    """Small list of labelled windows from one synthetic episode."""
    total = config.t_obs + config.t_pred
    windows = []
    for k in range(count):
        frames = random_frames(n_vehicles, total, seed=seed + k)
        windows.append(labelled_window(frames, config))
    return windows


def predict_frames(model, frames):
    return md.predict_windows(model, [md.make_window(frames, model.config)])[0]


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


def test_config_single_head_forces_one_head():
    cfg = tiny_config(single_head=True)
    assert cfg.k_heads == 1
    assert cfg.m_heads == 1


def test_config_dict_roundtrip():
    cfg = tiny_config(no_sam=True, alpha=0.2)
    again = md.HstanConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_make_window_counts_frames():
    cfg = tiny_config()
    frames = random_frames(2, cfg.t_obs + 1)
    with pytest.raises(ValueError):
        md.make_window(frames, cfg)
    states = np.stack([f.vehicles for f in frames])
    with pytest.raises(ValueError):
        md.window_from_states(states[: cfg.t_obs], cfg, future_pos=states[:2, :, 0:2])


def test_make_window_rejects_roster_change():
    cfg = tiny_config()
    frames = random_frames(2, cfg.t_obs)
    frames[-1] = random_frames(3, 1, seed=5)[0]
    with pytest.raises(ValueError):
        md.make_window(frames, cfg)


def test_make_window_centers_and_scales_features():
    cfg = tiny_config()
    frames = random_frames(3, cfg.t_obs, seed=4)
    w = md.make_window(frames, cfg)
    centroid = frames[0].vehicles[:, 0:2].mean(axis=0)
    raw = np.stack([f.vehicles for f in frames]).copy()
    raw[:, :, 0:2] -= centroid
    assert np.allclose(w.features, raw * cfg.input_scale, atol=1e-12)
    assert np.array_equal(w.last_pos, frames[-1].vehicles[:, 0:2])


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
    for w, pred in zip(windows, merged):
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
    no_sam = md.init_model(tiny_config(no_sam=True), seed=0).params.paths()
    no_tam = md.init_model(tiny_config(no_tam=True), seed=0).params.paths()
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


def test_predict_windows_matches_per_window_loop():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=11)
    counts = [1, 2, 3, 5]
    windows = [
        episode_windows(cfg, n_vehicles=counts[k % len(counts)], seed=100 + k, count=1)[0]
        for k in range(md.PREDICT_CHUNK + 6)
    ]
    preds = md.predict_windows(model, windows)
    assert len(preds) == len(windows)
    for w, pred in zip(windows, preds):
        solo = oracles.predict_one(model, w)
        assert pred.point.shape == (w.n, cfg.t_pred, 2)
        for key in ("point", "lower", "upper"):
            assert np.allclose(getattr(pred, key), getattr(solo, key), rtol=0.0, atol=1e-12)
    assert md.predict_windows(model, []) == []


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_pinball_level_half_is_half_absolute_error(rng):
    pred = ad.constant(rng.standard_normal((3, 4)))
    target = ad.constant(rng.standard_normal((3, 4)))
    out = md._pinball(pred, target, 0.5)
    assert np.allclose(out.item(), 0.5 * np.abs(target.data - pred.data).mean(), atol=1e-12)


def test_pinball_asymmetry():
    pred = ad.constant([[0.0]])
    over = md._pinball(pred, ad.constant([[1.0]]), 0.9).item()  # under-prediction
    under = md._pinball(pred, ad.constant([[-1.0]]), 0.9).item()
    assert over == pytest.approx(0.9)
    assert under == pytest.approx(0.1)


def test_training_loss_reduces_to_mse_when_weights_zero():
    cfg = tiny_config(pinball_weight=0.0, collision_weight=0.0)
    model = md.init_model(cfg, seed=3)
    windows = episode_windows(cfg, n_vehicles=2, seed=30, count=2)
    batch = md.prepare_batch(windows, cfg)
    out = md.forward_batch(model, batch)
    _, parts = md.training_loss(out, batch, cfg)
    expected = np.mean((out.point_disp.data - batch.target_disp) ** 2)
    assert parts["loss"] == pytest.approx(expected, abs=1e-14)
    assert parts["collision"] == 0.0


def test_collision_penalty_hand_value():
    # two vehicles a constant 1 m apart, radius 2: penalty (2-1)^2 = 1
    cfg = tiny_config(collision_weight=0.5, collision_radius=2.0, pinball_weight=0.0)
    n, tp2 = 2, cfg.t_pred * 2
    batch = md.PreparedBatch(
        x_steps=[],
        edges=[],
        offsets=[0, n],
        last_pos=np.array([[0.0, 0.0], [1.0, 0.0]]),
        target_disp=np.zeros((n, tp2)),
        pair_i=np.array([0]),
        pair_j=np.array([1]),
    )
    zero = ad.constant(np.zeros((n, tp2)))
    out = md.ForwardOutputs(hf=zero, point_disp=zero, lower_disp=zero, upper_disp=zero)
    _, parts = md.training_loss(out, batch, cfg)
    assert parts["collision"] == pytest.approx(1.0, abs=1e-9)
    assert parts["loss"] == pytest.approx(0.5 * 1.0, abs=1e-9)


def test_no_collision_loss_flag_disables_penalty():
    cfg = tiny_config(no_collision_loss=True, collision_weight=10.0, pinball_weight=0.0)
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
    # one node per GRU layer, per GAT layer and frame, one attention node
    cfg = md.desk_config(**({} if flag == "full" else {flag: True}))
    model = md.init_model(cfg, seed=0)
    windows = [episode_windows(cfg, n_vehicles=2 + k % 3, seed=k, count=1)[0] for k in range(32)]
    batch = md.prepare_batch(windows, cfg)
    loss, _ = md.training_loss(md.forward_batch(model, batch), batch, cfg)
    assert len(batch.pair_i) > 0  # the collision term is part of the graph
    assert graph_size(loss) <= 150


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
    probe = episode_windows(cfg, n_vehicles=3, seed=55, count=1)[0]
    (a,) = md.predict_windows(model, [probe])
    (b,) = md.predict_windows(rebuilt, [probe])
    assert np.array_equal(a.point, b.point)
    assert np.array_equal(a.lower, b.lower)
    assert np.array_equal(a.upper, b.upper)


def test_rebuild_rejects_shape_mismatch():
    cfg = tiny_config()
    other = md.init_model(tiny_config(d_h=16), seed=0)
    with pytest.raises(ValueError):
        md.rebuild_model(cfg, other.params)
