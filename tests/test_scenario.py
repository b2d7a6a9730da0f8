"""Synthetic scenario families, car-following dynamics, labels, datasets."""
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fcw.cli as cli
import fcw.model as md
import fcw.scenario as sc
import fcw.scene_graph as sg
from conftest import assert_batches_equal, cv_episodes, scene_frames, tiny_config

import oracles


# ---------------------------------------------------------------------------
# car-following model
# ---------------------------------------------------------------------------


def test_idm_free_flow_equilibrium():
    p = sc.IDMParams()
    acc = sc.idm_acceleration(p.v0, p.v0, 1e6, p)
    assert abs(acc) < 1e-3


def test_idm_short_gap_brakes_hard():
    p = sc.IDMParams()
    acc = sc.idm_acceleration(15.0, 15.0, p.s0 / 2, p)
    assert acc < -5.0


def test_idm_equilibrium_spacing_sustained():
    # solve the equilibrium gap numerically, then follow a steady leader for
    # 100 Euler steps, as the congested-traffic generator integrates IDM
    p = sc.IDMParams()
    v = 12.0
    s_star = p.s0 + v * p.t_headway  # v == v_lead kills the closing term
    gap = s_star / math.sqrt(1.0 - (v / p.v0) ** p.delta)
    speed = v
    for _ in range(100):
        acc = sc.idm_acceleration(speed, v, gap, p)
        assert abs(acc) < 0.01
        gap += (v - speed) * 0.1
        speed = max(0.0, speed + acc * 0.1)


# ---------------------------------------------------------------------------
# spec validation and generation
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        sc.ScenarioSpec(family="rocket_launch")
    with pytest.raises(ValueError):
        sc.ScenarioSpec(family="cut_in", dt=0.0)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(family="cut_in", duration=1.05, dt=0.1)
    with pytest.raises(ValueError):
        sc.ScenarioSpec(family="cut_in", noise=-0.1)


def test_sudden_braking_contact_time_closed_form():
    # lead at 20 m/s brakes at -6 m/s^2 from t=5; inattentive follower keeps
    # 20 m/s from a 30 m gap. Center gap(t) = 30 - 3(t-5)^2 while the lead
    # still moves, so gap = 2 at t = 5 + sqrt(28/3).
    spec = sc.ScenarioSpec(
        family="sudden_braking",
        n_vehicles=2,
        duration=10.0,
        lead_speed=20.0,
        gap=30.0,
        brake_time=5.0,
        brake_decel=-6.0,
        attentive=False,
        noise=0.0,
        seed=0,
    )
    ep = sc.gen_scenario(spec)
    assert ep.danger
    expected = 5.0 + math.sqrt(28.0 / 3.0)
    assert ep.contact_time == pytest.approx(expected, abs=2 * spec.dt)


def test_sudden_braking_attentive_follower_avoids_contact():
    spec = sc.ScenarioSpec(
        family="sudden_braking",
        n_vehicles=2,
        duration=10.0,
        lead_speed=20.0,
        gap=30.0,
        brake_time=5.0,
        attentive=True,
        seed=0,
    )
    ep = sc.gen_scenario(spec)
    assert not ep.danger and ep.contact_time is None


def test_congested_zero_noise_no_contact():
    spec = sc.ScenarioSpec(family="congested_traffic", duration=12.0, noise=0.0, seed=7)
    ep = sc.gen_scenario(spec)
    assert not ep.danger
    # stop-and-go: the wave forces some near-stopped and some moving ticks
    speeds = np.hypot(*ep.frames[:, 0, 2:4].T)
    assert speeds.min() < 2.0 < speeds.max()


def test_same_seed_identical_episodes():
    spec = sc.ScenarioSpec(family="cut_in", duration=6.0, noise=0.1, seed=11)
    a = sc.gen_scenario(spec)
    b = sc.gen_scenario(spec)
    assert np.array_equal(a.frames, b.frames) and np.array_equal(a.times, b.times)
    assert (a.danger, a.contact_time) == (b.danger, b.contact_time)


def test_infeasible_overlap_rejected():
    spec = sc.ScenarioSpec(family="sudden_braking", n_vehicles=2, gap=0.5, seed=0)
    with pytest.raises(ValueError, match="infeasible"):
        sc.gen_scenario(spec)


def test_every_family_generates():
    for fi, family in enumerate(sc.FAMILIES):
        ep = sc.gen_scenario(sc.ScenarioSpec(family=family, duration=6.0, seed=fi))
        assert ep.frames.shape == (61, ep.n, 8)
        assert np.array_equal(ep.times, np.arange(61) * 0.1)
        assert ep.family == family


def test_danger_label_matches_bruteforce_scan():
    for seed in range(6):
        spec = sc.ScenarioSpec(family="urban_intersection", duration=8.0, seed=seed)
        ep = sc.gen_scenario(spec)
        hit = None
        for t, f in enumerate(ep.frames):
            pos = f[:, 0:2]
            for i in range(ep.n):
                for j in range(i + 1, ep.n):
                    if np.hypot(*(pos[i] - pos[j])) < sc.CONTACT_THRESHOLD:
                        hit = t if hit is None else hit
        assert ep.danger == (hit is not None)
        if hit is not None:
            assert ep.contact_time == pytest.approx(hit * spec.dt)


def dense_contact_scan(pos):
    """First frame of (F, N, 2) positions whose dense adjacency at the
    contact threshold links two distinct vehicles."""
    n = pos.shape[1]
    hits = [t for t, p in enumerate(pos) if (oracles.dense_adjacency(p, sc.CONTACT_THRESHOLD) > np.eye(n)).any()]
    return hits[0] if hits else None


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.sampled_from([0.0, 1e6 + 0.1]),
)
def test_contact_scan_matches_the_dense_per_frame_scan(frames, n, seed, step, offset):
    # grid positions: coincident, touching, exactly-at-threshold and apart pairs
    pos = np.random.default_rng(seed).integers(0, 8, size=(frames, n, 2)) * step + offset
    assert sc._contact_scan(pos) == dense_contact_scan(pos)


def test_contact_scan_takes_the_first_frame_strictly_inside():
    pos = np.zeros((4, 3, 2))
    pos[:, :, 0] = [0.0, 10.0, 20.0]
    pos[1, 1, 0] = 2.0  # exactly at the threshold: no contact
    pos[2, 2, 0] = 11.99  # inside it
    pos[3, 1, 0] = 1.0
    assert sc._contact_scan(pos) == dense_contact_scan(pos) == 2
    assert sc._contact_scan(pos[:2]) is None
    assert sc._contact_scan(pos[:, :1]) is None  # a lone vehicle never touches


def test_kinematic_consistency_noiseless():
    ep = sc.gen_scenario(sc.ScenarioSpec(family="highway_merging", duration=5.0, seed=3))
    for t in range(len(ep.frames) - 1):
        fd = (ep.frames[t + 1, :, 0:2] - ep.frames[t, :, 0:2]) / ep.dt
        assert np.allclose(ep.frames[t, :, 2:4], fd, atol=1e-9)


def test_curved_road_preserves_speed():
    ep = sc.gen_scenario(sc.ScenarioSpec(family="curved_road", duration=5.0, seed=4))
    speeds = np.hypot(*ep.frames[:-2, 0, 2:4].T)
    assert speeds.std() / speeds.mean() < 1e-3


def test_cut_in_crosses_into_lane():
    ep = sc.gen_scenario(sc.ScenarioSpec(family="cut_in", duration=6.0, seed=5))
    y = ep.frames[:, 1, 1]
    assert y[0] == pytest.approx(3.5, abs=0.1)  # starts in the adjacent lane
    assert abs(y[-1]) < 0.1  # ends in the ego lane


# ---------------------------------------------------------------------------
# constant-velocity baseline
# ---------------------------------------------------------------------------


def test_cv_baseline_exact_on_linear_motion(rng):
    pos0 = rng.uniform(-20, 20, (3, 2))
    vel = rng.uniform(-10, 10, (3, 2))
    dt, t_pred = 0.1, 5
    pred = sc.cv_baseline(pos0 + vel * (3 * dt), vel, t_pred, dt)
    for k in range(t_pred):
        truth = pos0 + vel * ((3 + k + 1) * dt)
        assert np.allclose(pred[:, k, :], truth, atol=1e-12)


def test_cv_baseline_braking_fde_closed_form():
    # truth decelerates at a from the last observed frame: FDE = 0.5*a*(T'*dt)^2
    a, dt, t_pred, v = 4.0, 0.1, 10, 20.0
    t0 = dt  # last observed time
    pred = sc.cv_baseline(np.array([[v * t0, 0.0]]), np.array([[v, 0.0]]), t_pred, dt)
    h = t_pred * dt
    truth_x = v * t0 + v * h - 0.5 * a * h**2
    fde = abs(pred[0, -1, 0] - truth_x)
    assert fde == pytest.approx(0.5 * a * h**2, abs=1e-12)


def test_cv_baseline_stationary():
    pred = sc.cv_baseline(np.array([[3.0, 4.0]]), np.zeros((1, 2)), 4, 0.1)
    assert np.allclose(pred, [[[3.0, 4.0]] * 4], atol=1e-12)


# ---------------------------------------------------------------------------
# windows and splits
# ---------------------------------------------------------------------------


def test_exact_length_episode_gives_one_window():
    cfg = tiny_config()  # T=4, T'=3
    span = cfg.t_obs + cfg.t_pred
    ep = cv_episodes(1, n_vehicles=2, duration=(span - 1) * 0.1, seed=0)[0]
    assert len(ep.frames) == span
    assert len(sc.dataset_windows([ep], cfg)) == 1


def test_window_count_formula():
    cfg = tiny_config(t_obs=8, t_pred=12)
    ep = cv_episodes(1, n_vehicles=2, duration=9.9, seed=0)[0]  # 100 frames
    assert len(ep.frames) == 100
    assert len(sc.dataset_windows([ep], cfg)) == 81  # 100 - 20 + 1


def test_short_episode_rejected():
    cfg = tiny_config(t_obs=8, t_pred=12)
    ep = cv_episodes(1, n_vehicles=2, duration=1.0, seed=0)[0]
    with pytest.raises(ValueError):
        sc.dataset_windows([ep], cfg)


def test_split_by_episode_never_by_window():
    cfg = tiny_config()
    eps = cv_episodes(10, n_vehicles=2, duration=3.0, seed=1)
    splits = sc.make_dataset(eps, cfg, split_seed=0)
    train_ids = {w.episode_id for w in splits.train}
    cal_ids = {w.episode_id for w in splits.cal}
    test_ids = {w.episode_id for w in splits.test}
    assert train_ids.isdisjoint(cal_ids)
    assert train_ids.isdisjoint(test_ids)
    assert cal_ids.isdisjoint(test_ids)
    assert len(train_ids | cal_ids | test_ids) == 10


def test_split_fractions_and_determinism():
    cfg = tiny_config()
    eps = cv_episodes(20, n_vehicles=2, duration=3.0, seed=2)
    a = sc.make_dataset(eps, cfg, split_seed=5)
    b = sc.make_dataset(eps, cfg, split_seed=5)
    assert len(a.test_episodes) == 3 and len(a.cal_episodes) == 3
    assert len(a.train_episodes) == 14
    assert [e.episode_id for e in a.test_episodes] == [e.episode_id for e in b.test_episodes]


def test_make_dataset_empty_raises():
    with pytest.raises(ValueError):
        sc.make_dataset([], tiny_config())


def test_split_episodes_matches_make_dataset():
    cfg = tiny_config()
    eps = cv_episodes(12, n_vehicles=2, duration=2.0, seed=3)
    train, cal, test = sc.split_episodes(eps, split_seed=4)
    splits = sc.make_dataset(eps, cfg, split_seed=4)
    for got, want in ((train, splits.train_episodes), (cal, splits.cal_episodes), (test, splits.test_episodes)):
        assert [e.episode_id for e in got] == [e.episode_id for e in want]
        assert [e.episode_id for e in got] == sorted(e.episode_id for e in got)  # input order
    assert sorted(e.episode_id for e in train + cal + test) == list(range(12))
    windows = sc.dataset_windows(cal, cfg)
    assert [(w.episode_id, w.start) for w in windows] == [(w.episode_id, w.start) for w in splits.cal]


def test_episode_windows_reuse_one_graph_build(monkeypatch):
    # vehicle pairs 25.2 m apart close to 25.1 m, so the graph changes over the episode
    cfg = tiny_config(radius=25.15)
    ep = sc.gen_scenario(sc.ScenarioSpec(family="congested_traffic", duration=2.0, seed=1), 0)
    calls = []
    real = sg.edges_from_positions

    def counting(positions, radius):
        calls.append(positions.shape)
        return real(positions, radius)

    monkeypatch.setattr(sg, "edges_from_positions", counting)
    windows = sc.dataset_windows([ep], cfg)
    observed = len(windows) + cfg.t_obs - 1  # the last t_pred frames are only ever a future
    assert calls == [(observed, ep.n, 2)]  # one stacked call for every observed frame
    keep = cfg.t_obs + cfg.t_pred - 1  # one frame short of a window with its future
    short = dataclasses.replace(ep, frames=ep.frames[:keep], times=ep.times[:keep])
    with pytest.raises(ValueError, match="needs >="):
        sc.dataset_windows([short], cfg)
    assert len(calls) == 1  # no window, no graph
    monkeypatch.undo()
    assert [w.start for w in windows] == list(range(len(windows)))
    for w in windows:
        # a window is a view: the episode's one graph build and its states, copied nowhere
        assert w.graphs is windows[0].graphs and w.graphs.states is ep.frames
        assert np.shares_memory(w.target_abs, ep.frames)
        fresh = oracles.window_from_states(ep.frames[w.start : w.start + cfg.t_obs], cfg)
        assert_batches_equal(md.prepare_batch([w], cfg), oracles.prepare_batch([fresh], cfg))
        future = scene_frames(ep)[w.start + cfg.t_obs : w.start + cfg.t_obs + cfg.t_pred]
        assert np.array_equal(w.target_abs, np.stack([f.positions for f in future]))
        assert len(w.edge_lists) == cfg.t_obs
        for (src, dst), (want_src, want_dst) in zip(w.edge_lists, fresh.edge_lists):
            assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path):
    eps = [
        sc.gen_scenario(sc.ScenarioSpec(family="cut_in", duration=3.0, noise=0.05, seed=8), 0),
        sc.gen_scenario(sc.ScenarioSpec(family="curved_road", duration=3.0, seed=9), 1),
    ]
    traj, labels = tmp_path / "traj.csv", tmp_path / "labels.csv"
    sc.save_dataset(traj, labels, eps)
    loaded = sc.load_dataset(traj, labels)
    assert len(loaded) == 2
    for orig, back in zip(eps, loaded):
        assert back.family == orig.family
        assert back.danger == orig.danger
        assert back.contact_time == orig.contact_time
        assert back.dt == orig.dt
        assert back.curvature == orig.curvature
        assert np.array_equal(orig.frames, back.frames)
        assert np.array_equal(orig.times, back.times)


def test_load_rejects_wrong_header(tmp_path):
    traj, labels = tmp_path / "t.csv", tmp_path / "l.csv"
    traj.write_text("bad,header\n")
    labels.write_text(sc.LABELS_HEADER + "\n")
    with pytest.raises(ValueError):
        sc.load_dataset(traj, labels)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_save_load_roundtrip_property(tmp_path_factory, data):
    episodes = []
    for eid in data.draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3, unique=True)):
        n_frames, n = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 6))
        dt = data.draw(st.floats(1e-3, 10.0))
        states = data.draw(hnp.arrays(np.float64, (n_frames, n, 8), elements=st.floats(-1e6, 1e6)))
        states[..., 6:8] = np.abs(states[..., 6:8]) + 0.5  # positive length and width
        contact = data.draw(st.none() | st.floats(0.0, 100.0))
        episodes.append(
            sc.Episode(
                episode_id=eid,
                family=data.draw(st.sampled_from(sc.FAMILIES)),
                dt=dt,
                frames=states,
                times=np.arange(n_frames) * dt,
                danger=data.draw(st.booleans()),
                contact_time=contact,
                curvature=data.draw(st.floats(-0.1, 0.1)),
            )
        )
    out = tmp_path_factory.mktemp("roundtrip")
    sc.save_dataset(out / "t.csv", out / "l.csv", episodes)
    loaded = sc.load_dataset(out / "t.csv", out / "l.csv")
    assert len(loaded) == len(episodes)
    for orig, back in zip(sorted(episodes, key=lambda e: e.episode_id), loaded):
        assert np.array_equal(orig.frames, back.frames) and np.array_equal(orig.times, back.times)
        labels = ("episode_id", "family", "dt", "danger", "contact_time", "curvature")
        assert [getattr(back, k) for k in labels] == [getattr(orig, k) for k in labels]


def test_episode_validates_its_array():
    ep = cv_episodes(1, n_vehicles=2, duration=0.4, seed=0)[0]  # 5 frames
    nan, thin = ep.frames.copy(), ep.frames.copy()
    nan[2, 1, 3] = np.nan
    thin[0, 0, 7] = 0.0
    bad = [
        dict(frames=ep.frames[0]),  # one frame, not an episode
        dict(frames=ep.frames[:, :0]),  # no vehicles
        dict(frames=ep.frames[:, :, :7]),  # a feature missing
        dict(frames=nan),
        dict(frames=thin),
        dict(times=ep.times[:-1]),
        dict(times=np.full(5, np.inf)),
    ]
    for change in bad:
        with pytest.raises(ValueError):
            dataclasses.replace(ep, **change)


def _rows(text):
    return [line.split(",") for line in text.strip().split("\n")]


def _set(row, col, value):
    def mutate(rows):
        rows[row][col] = value
    return mutate


# each mutation of a valid two-episode file, the file its error names, and
# a fragment of the error
MALFORMED = {
    "wrong field count": (lambda rows: rows[3].pop(), "traj", ":4: expected 11 fields"),
    "a field missing from every row": (lambda rows: [r.pop() for r in rows[1:]], "traj", ":2: expected 11 fields"),
    "blank interior line": (lambda rows: rows.insert(3, [""]), "traj", ":4: expected 11 fields"),
    "comment line": (lambda rows: rows.insert(3, ["# vehicle 1 left"]), "traj", ":4: expected 11 fields"),
    "commented-out row": (lambda rows: rows[3].__setitem__(0, "#" + rows[3][0]), "traj", "could not convert"),
    "field does not parse": (_set(3, 4, "abc"), "traj", "could not convert"),
    "non-integer episode id": (_set(3, 0, "0.5"), "traj", "ids integer"),
    "non-integer vehicle id": (_set(3, 2, "1.5"), "traj", "ids integer"),
    "non-finite time": (_set(3, 1, "nan"), "traj", "must be finite"),
    "duplicate row": (lambda rows: rows.append(list(rows[3])), "traj", "duplicate row for episode 0"),
    "vehicle missing from a frame": (lambda rows: rows.pop(3), "traj", "vehicle set changes"),
    "vehicle replaced in a frame": (_set(3, 2, "7"), "traj", "vehicle set changes"),
    "non-finite value": (_set(3, 5, "inf"), "traj", "non-finite vehicle features"),
    "zero width": (_set(3, 10, "0.0"), "traj", "length/width must be positive"),
    "episode without a label row": (lambda rows: rows.pop(2), "labels", "no label row for episode 1"),
    "second label row": (lambda rows: rows.append(list(rows[1])), "labels", "second label row"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_rejects_malformed_dataset(tmp_path, capsys, case):
    mutate, named, fragment = MALFORMED[case]
    traj, labels = tmp_path / "trajectories.csv", tmp_path / "labels.csv"
    sc.save_dataset(traj, labels, cv_episodes(2, n_vehicles=2, duration=0.3, seed=4))
    path = traj if named == "traj" else labels
    rows = _rows(path.read_text())
    mutate(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(ValueError, match=re.escape(str(path))) as caught:
        sc.load_dataset(traj, labels)
    assert fragment in str(caught.value)
    assert cli.main(["eval", "--data", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cv_episodes_respect_max_speed():
    eps = cv_episodes(5, n_vehicles=3, duration=2.0, max_speed=6.0, seed=3)
    for ep in eps:
        assert np.all(np.abs(ep.frames[:-1, :, 2:4]) <= 6.0 + 1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sc.FAMILIES))
def test_generation_deterministic_property(seed, family):
    spec = sc.ScenarioSpec(family=family, duration=4.0, noise=0.05, seed=seed)
    a = sc.gen_scenario(spec)
    b = sc.gen_scenario(spec)
    assert np.array_equal(a.frames, b.frames)
