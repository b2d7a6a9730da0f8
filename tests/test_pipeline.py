"""Episode replay, event logs, evaluation reports, scaling benchmark."""
import dataclasses

import numpy as np
import pytest

import fcw.model as md
import fcw.pipeline as pl
import fcw.scenario as sc
from fcw.drta import RiskWeights
from fcw.scene_graph import check_vehicle_states

from conftest import assert_batches_equal, cv_episodes, scene_frames, tiny_config

import oracles


def small_model(**cfg_overrides):
    cfg = tiny_config(**cfg_overrides)
    return md.init_model(cfg, seed=0), cfg


# ---------------------------------------------------------------------------
# window reconstruction and prediction metrics
# ---------------------------------------------------------------------------


def test_cv_baseline_metrics_near_zero_on_cv_data():
    cfg = tiny_config()
    eps = cv_episodes(4, n_vehicles=2, duration=2.0, seed=0)
    stats = pl.prediction_metrics(None, eps, cfg, baseline="cv")
    assert stats["ade"] < 1e-9
    assert stats["fde"] < 1e-9


def test_cv_baseline_metrics_match_extrapolation_from_the_episode():
    # braking with tracker noise: the velocity changes from frame to frame
    cfg = tiny_config()
    ep = sc.gen_scenario(sc.ScenarioSpec(family="sudden_braking", duration=3.0, noise=0.05, seed=2), 0)
    windows = sc.dataset_windows([ep], cfg)
    errors = []
    for w in windows:
        tick = w.start + cfg.t_obs - 1
        steps = np.arange(1, cfg.t_pred + 1)[:, None, None]
        guess = ep.frames[tick, :, 0:2] + ep.frames[tick, :, 2:4] * (steps * cfg.dt)
        errors.append(np.hypot(*(guess - ep.frames[tick + 1 : tick + 1 + cfg.t_pred, :, 0:2]).T))
    stats = pl.prediction_metrics(None, [ep], cfg, baseline="cv")
    assert stats["ade"] == pytest.approx(np.mean(errors), rel=1e-12)
    assert stats["fde"] == pytest.approx(np.mean([e[:, -1] for e in errors]), rel=1e-12)


def test_prediction_metrics_with_correction_reports_coverage():
    model, cfg = small_model()
    eps = cv_episodes(3, n_vehicles=2, duration=2.0, seed=1)
    import fcw.cqr as cq

    corr = cq.calibrate(*cq.raw_intervals(model, eps), alpha=0.2)
    stats = pl.prediction_metrics(model, eps, cfg, corr=corr)
    assert 0.0 <= stats["raw_coverage"] <= 1.0
    assert stats["coverage"] >= 0.8 - 0.1  # in-sample, conformal level 0.8
    assert stats["mean_width"] >= 0.0
    # the per-window route, through a copy of each window, gives the same figures
    windows = sc.dataset_windows(eps, cfg)
    assert stats == oracles.prediction_metrics(model, windows, cfg, corr=corr)


def test_prediction_metrics_need_episodes_with_a_full_window():
    model, cfg = small_model()
    ep = cv_episodes(1, n_vehicles=2, duration=2.0, seed=1)[0]
    span = cfg.t_obs + cfg.t_pred
    short = dataclasses.replace(ep, frames=ep.frames[: span - 1], times=ep.times[: span - 1])
    for m, baseline in ((model, None), (None, "cv")):
        with pytest.raises(ValueError, match=f"has {span - 1} frames, needs >= {span}"):
            pl.prediction_metrics(m, [ep, short], cfg, baseline=baseline)
        with pytest.raises(ValueError, match="at least one episode"):
            pl.prediction_metrics(m, [], cfg, baseline=baseline)


# ---------------------------------------------------------------------------
# replay and event logs
# ---------------------------------------------------------------------------


def test_warn_episode_tick_count_and_determinism():
    model, cfg = small_model()
    ep = sc.gen_scenario(sc.ScenarioSpec(family="cut_in", duration=3.0, seed=3), 7)
    weights = RiskWeights()
    a = pl.warn_episode(model, None, ep, weights)
    b = pl.warn_episode(model, None, ep, weights)
    assert a.episode_id == 7
    assert len(a.events) == len(ep.frames) - cfg.t_obs + 1
    assert a == b


@pytest.mark.parametrize("no_cqr", [False, True])
def test_warn_episode_matches_per_tick_loop(no_cqr):
    import fcw.cqr as cq

    model, cfg = small_model()
    ep = sc.gen_scenario(sc.ScenarioSpec(family="sudden_braking", duration=4.0, seed=5), 2)
    short = cfg.t_obs - 1
    episodes = [
        ep,
        dataclasses.replace(ep, frames=ep.frames[:, :1]),  # the ego alone: no threats
        dataclasses.replace(ep, frames=ep.frames[:short], times=ep.times[:short]),  # no tick to replay
        dataclasses.replace(ep, frames=ep.frames[:1], times=ep.times[:1]),
        dataclasses.replace(ep, frames=ep.frames[: cfg.t_obs], times=ep.times[: cfg.t_obs]),  # one tick
    ]
    corr = cq.ConformalCorrection(q=np.full((cfg.t_pred, 2), 0.5), alpha=0.1, n_cal=10)
    weights = RiskWeights(lam=1.5, window_size=20)
    for ep in episodes:
        got = pl.warn_episode(model, corr, ep, weights, no_cqr=no_cqr).events

        # one forward pass per tick, in tick order
        ticks = range(cfg.t_obs - 1, len(ep.frames))
        stream = []
        for tick in ticks:
            history = scene_frames(ep)[tick - cfg.t_obs + 1 : tick + 1]
            window = oracles.window_from_states(ep.frames[tick - cfg.t_obs + 1 : tick + 1], cfg)
            pred = oracles.predict_one(model, window)
            pred = cq.apply_correction(pred, None if no_cqr else corr)
            inputs = oracles.risk_inputs_one_tick(pred, history[-1].vehicles, ep.curvature, ep.dt, cfg.collision_radius)
            if no_cqr:
                inputs = dataclasses.replace(inputs, sigma_pred=0.0)
            stream.append(inputs)
        expected = oracles.replay_stream(stream, weights, times=[tick * ep.dt for tick in ticks])

        assert len(got) == len(expected) == max(0, len(ep.frames) - cfg.t_obs + 1)
        assert [e.triggered for e in got] == [e.triggered for e in expected]
        for g, e in zip(got, expected):
            assert (g.tick, g.time) == (e.tick, e.time)
            for name in ("risk", "r_pred", "r_kin", "r_geo", "mu", "sigma", "threshold"):
                value, want = getattr(g, name), getattr(e, name)
                # Python scalars, so the event log prints them as plain numbers
                assert type(value) is float, name
                assert value == pytest.approx(want, rel=0.0, abs=1e-12), name
            assert type(g.triggered) is bool and type(g.tick) is int


def test_warn_episode_reuses_one_graph_build(monkeypatch):
    import fcw.scene_graph as sg

    # vehicle pairs 25.2 m apart close to 25.1 m, so the graph changes over the episode
    model, cfg = small_model(radius=25.15)
    ep = sc.gen_scenario(sc.ScenarioSpec(family="congested_traffic", duration=2.0, seed=1), 1)
    calls, seen = [], []
    real_edges, real_predict = sg.edges_from_positions, pl.predict_episodes

    def counting(positions, radius):
        calls.append(positions.shape)
        return real_edges(positions, radius)

    def capturing(model, pieces):
        seen.extend(pieces)
        return real_predict(model, pieces)

    monkeypatch.setattr(sg, "edges_from_positions", counting)
    monkeypatch.setattr(pl, "predict_episodes", capturing)
    pl.warn_episode(model, None, ep, RiskWeights())
    assert calls == [(len(ep.frames), ep.n, 2)]  # one stacked call for the whole episode
    monkeypatch.undo()
    assert [(lo, hi) for _, lo, hi in seen] == [(0, len(ep.frames) - cfg.t_obs + 1)]
    # the batch laid out from the episode array is the one of the per-tick windows
    got = md.episode_batch(seen, cfg)
    fresh = [
        oracles.window_from_states(ep.frames[tick - cfg.t_obs + 1 : tick + 1], cfg)
        for tick in range(cfg.t_obs - 1, len(ep.frames))
    ]
    assert_batches_equal(got, oracles.prepare_batch(fresh, cfg))


def test_no_cqr_zeroes_uncertainty():
    model, cfg = small_model()
    ep = sc.gen_scenario(sc.ScenarioSpec(family="cut_in", duration=3.0, seed=4), 0)
    import fcw.cqr as cq

    corr = cq.ConformalCorrection(q=np.full((cfg.t_pred, 2), 5.0), alpha=0.1, n_cal=10)
    with_cqr = pl.warn_episode(model, corr, ep, RiskWeights())
    without = pl.warn_episode(model, corr, ep, RiskWeights(), no_cqr=True)
    # huge widening inflates the prediction risk term unless no_cqr disables it
    assert any(
        w.r_pred > wo.r_pred for w, wo in zip(with_cqr.events, without.events)
    ) or all(e.r_pred == 0 for e in with_cqr.events)


def test_event_log_roundtrip(tmp_path):
    model, _ = small_model()
    eps = [
        sc.gen_scenario(sc.ScenarioSpec(family="sudden_braking", duration=3.0, seed=s), s)
        for s in range(2)
    ]
    events = [pl.warn_episode(model, None, ep, RiskWeights()) for ep in eps]
    path = tmp_path / "events.csv"
    pl.save_events(path, events)
    loaded = pl.load_events(path)
    assert loaded == events


def test_load_events_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError):
        pl.load_events(path)


def test_outcomes_from_events_maps_warning_times():
    ep = sc.gen_scenario(
        sc.ScenarioSpec(family="sudden_braking", duration=3.0, seed=1), 3
    )
    ee = pl.EpisodeEvents(episode_id=3)
    from fcw.drta import WarningEvent

    for tick, trig in ((0, False), (1, True), (2, True)):
        ee.events.append(
            WarningEvent(
                tick=tick, time=0.1 * tick, risk=1.0, threshold=0.5, triggered=trig,
                r_pred=0, r_kin=0, r_geo=0, mu=0, sigma=0,
            )
        )
    outcomes = pl.outcomes_from_events([ep], [ee], tiny_config().t_obs)
    assert outcomes[0].warning_times == [pytest.approx(0.1), pytest.approx(0.2)]
    assert outcomes[0].danger == ep.danger


def test_build_report_lead_time_percentile():
    import fcw.metrics as mt

    outcomes = [
        mt.EpisodeOutcome(0, True, 10.0, [7.0]),
        mt.EpisodeOutcome(1, True, 10.0, [9.0]),
        mt.EpisodeOutcome(2, False, None, []),
    ]
    report = pl.build_report(None, outcomes)
    assert report.counts.tp == 2 and report.counts.tn == 1
    assert report.awlt_mean == pytest.approx(2.0)
    assert report.lead_time_p5 == pytest.approx(np.percentile([3.0, 1.0], 5))


# ---------------------------------------------------------------------------
# scaling benchmark
# ---------------------------------------------------------------------------


def test_constant_density_frames_shape():
    cfg = tiny_config()
    states = pl.constant_density_frames(15, cfg, seed=1)
    assert states.shape == (cfg.t_obs, 15, 8)
    check_vehicle_states(states, 3)
    # constant velocity: frame t is frame 0 moved t*dt along each velocity
    for t in range(cfg.t_obs):
        assert np.array_equal(states[t, :, 0:2], states[0, :, 0:2] + states[0, :, 2:4] * (t * cfg.dt))
        assert np.array_equal(states[t, :, 2:], states[0, :, 2:])


def test_fit_r2_exact_fits():
    x = np.arange(1.0, 9.0)
    assert pl._fit_r2(x, 3 * x + 1, 1) == pytest.approx(1.0)
    assert pl._fit_r2(x, x**2, 2) == pytest.approx(1.0)
    assert pl._fit_r2(x, x**2, 1) < 0.99


@pytest.mark.parametrize("budget", [0, 10**9])
def test_run_bench_counts_work_per_frame(monkeypatch, budget):
    # frame runs change how many GAT calls a forward makes, not the counted
    # work: l_s*k*sum|E_t| scores and l_s*k*T*N^2 all-pairs per forward
    monkeypatch.setattr(md, "GAT_EDGE_BUDGET", budget)
    model, cfg = small_model()
    n_grid = [8, 40, 120]
    report = pl.run_bench(model, n_grid=n_grid, repeats=1, density=0.005, seed=0)
    for n, evals, pairs in zip(n_grid, report.score_evals, report.all_pairs):
        window = oracles.window_from_states(pl.constant_density_frames(n, cfg, 0.005, 0), cfg)
        assert evals == cfg.l_s * cfg.k_heads * sum(len(src) for src, _ in window.edge_lists)
        assert pairs == cfg.l_s * cfg.k_heads * cfg.t_obs * n * n


def test_run_bench_smoke():
    model, _ = small_model()
    report = pl.run_bench(model, n_grid=[8, 16, 32, 64], repeats=2, seed=0)
    assert report.score_evals == sorted(report.score_evals)
    assert all(s <= a for s, a in zip(report.score_evals, report.all_pairs))
    # beyond the fully-connected regime the edge count falls behind all-pairs
    assert report.score_evals[-1] < report.all_pairs[-1]
    text = report.to_text()
    assert "linear_r2_edges=" in text
    assert "p50_ms" in text and "prep_p50_ms" in text
    assert len(report.prep_p50_ms) == 4 and all(t > 0 for t in report.prep_p50_ms)
    with pytest.raises(ValueError, match="repeats"):
        pl.run_bench(model, n_grid=[8], repeats=0)


@pytest.mark.parametrize("n_grid", [[1], [5, 9], [5, 9, 9, 5], [0, 8, 16], [-4, 8, 16]])
def test_run_bench_rejects_degenerate_grids(n_grid):
    # a fit through at most two distinct sizes reads R^2 = 1 whatever the work
    model, _ = small_model()
    with pytest.raises(ValueError, match="at least 3 distinct sizes"):
        pl.run_bench(model, n_grid=n_grid, repeats=1)
