"""Glue between the predictor, conformal calibration, and the warning engine:
episode replay, event logs, evaluation reports, and the scaling benchmark."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import cqr as cqr_mod
from . import metrics as me
from .drta import RiskWeights, TrackState, WarningEvent, extract_risk_inputs
from .model import (
    HstanConfig,
    HstanModel,
    WindowSample,
    forward_batch,
    make_window,
    predict_windows,
    prepare_batch,
    window_from_states,
)
from .scenario import Episode, cv_baseline
from .scene_graph import SceneFrame, WorkCounter, frame_edge_lists

EVENT_HEADER = "episode_id,tick,time,risk,r_pred,r_kin,r_geo,mu,sigma,threshold,triggered"


@dataclass
class EpisodeEvents:
    episode_id: int
    events: list[WarningEvent] = field(default_factory=list)


def warn_episode(
    model: HstanModel,
    corr,
    episode: Episode,
    weights: RiskWeights,
    window_size: int = 50,
    fixed_threshold: float | None = None,
    no_cqr: bool = False,
) -> EpisodeEvents:
    """Replay one episode tick-by-tick; ego is vehicle 0, the rest are threats.

    Every frame's radius graph is built once for the episode, and every
    tick's window is predicted up front in one batched call; the threshold
    state machine then steps through the ticks in order.
    """
    cfg = model.config
    track = TrackState(weights=weights, window_size=window_size, fixed_threshold=fixed_threshold)
    out = EpisodeEvents(episode_id=episode.episode_id)
    threats = list(range(1, episode.n))
    states = episode.frames
    ticks = range(cfg.t_obs - 1, len(states))
    edges = frame_edge_lists(states[:, :, 0:2], cfg.radius)
    windows = [
        window_from_states(states[lo : lo + cfg.t_obs], cfg, edges=edges[lo : lo + cfg.t_obs])
        for lo in range(len(ticks))
    ]
    preds = predict_windows(model, windows)
    for tick, pred in zip(ticks, preds):
        pred = cqr_mod.apply_correction(pred, None if no_cqr else corr)
        inputs = extract_risk_inputs(
            pred, 0, threats, states[tick], episode.curvature, episode.dt, cfg.collision_radius
        )
        if no_cqr:
            inputs = replace(inputs, sigma_pred=0.0)
        event = track.step(inputs, time=tick * episode.dt)
        out.events.append(event)
    return out


def save_events(path: str | Path, episodes_events: list[EpisodeEvents]) -> None:
    lines = [EVENT_HEADER]
    for ee in episodes_events:
        for ev in ee.events:
            lines.append(
                f"{ee.episode_id},{ev.tick},{ev.time!r},{ev.risk!r},{ev.r_pred!r},"
                f"{ev.r_kin!r},{ev.r_geo!r},{ev.mu!r},{ev.sigma!r},{ev.threshold!r},"
                f"{int(ev.triggered)}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def load_events(path: str | Path) -> list[EpisodeEvents]:
    lines = Path(path).read_text().strip().split("\n")
    if lines[0] != EVENT_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    by_ep: dict[int, EpisodeEvents] = {}
    for line in lines[1:]:
        parts = line.split(",")
        eid = int(parts[0])
        ev = WarningEvent(
            tick=int(parts[1]),
            time=float(parts[2]),
            risk=float(parts[3]),
            r_pred=float(parts[4]),
            r_kin=float(parts[5]),
            r_geo=float(parts[6]),
            mu=float(parts[7]),
            sigma=float(parts[8]),
            threshold=float(parts[9]),
            triggered=bool(int(parts[10])),
        )
        by_ep.setdefault(eid, EpisodeEvents(episode_id=eid)).events.append(ev)
    return [by_ep[k] for k in sorted(by_ep)]


def outcomes_from_events(
    episodes: list[Episode], episodes_events: list[EpisodeEvents]
) -> list[me.EpisodeOutcome]:
    by_id = {ee.episode_id: ee for ee in episodes_events}
    outcomes = []
    for ep in episodes:
        ee = by_id.get(ep.episode_id, EpisodeEvents(episode_id=ep.episode_id))
        warning_times = [ev.time for ev in ee.events if ev.triggered]
        outcomes.append(
            me.EpisodeOutcome(
                episode_id=ep.episode_id,
                danger=ep.danger,
                contact_time=ep.contact_time,
                warning_times=warning_times,
            )
        )
    return outcomes


def prediction_metrics(
    model: HstanModel | None,
    windows: list[WindowSample],
    config: HstanConfig,
    corr=None,
    baseline: str | None = None,
) -> dict:
    """ADE/FDE/collision-rate (and coverage when calibrated) over windows."""
    truth = np.concatenate([w.target_abs.transpose(1, 0, 2) for w in windows])  # (sumN, T', 2)
    if baseline == "cv":
        preds = None
        # the last observed velocities are model inputs, stored scaled
        points = [
            cv_baseline(w.last_pos, w.features[-1, :, 2:4] / config.input_scale, config.t_pred, config.dt)
            for w in windows
        ]
    else:
        preds = predict_windows(model, windows)
        points = [p.point for p in preds]
    all_pred = np.concatenate(points)
    out = {
        "ade": me.ade(all_pred, truth),
        "fde": me.fde(all_pred, truth),
        "collision_rate": me.collision_rate(points, config.collision_radius / 2.0),
    }
    if preds is not None and corr is not None:
        lower = np.concatenate([p.lower for p in preds])
        upper = np.concatenate([p.upper for p in preds])
        out["raw_coverage"], _ = cqr_mod.empirical_coverage(lower, upper, truth)
        lower, upper = cqr_mod.conformal_interval(lower, upper, corr)
        out["coverage"], out["mean_width"] = cqr_mod.empirical_coverage(lower, upper, truth)
    return out


def build_report(
    prediction: dict | None,
    outcomes: list[me.EpisodeOutcome] | None,
    latency: dict | None = None,
    extras: dict | None = None,
) -> me.EvalReport:
    report = me.EvalReport(latency=latency, extras=extras or {})
    if prediction:
        report.ade = prediction.get("ade")
        report.fde = prediction.get("fde")
        report.collision_rate = prediction.get("collision_rate")
        report.coverage = prediction.get("coverage")
        report.raw_coverage = prediction.get("raw_coverage")
        report.mean_width = prediction.get("mean_width")
    if outcomes:
        counts, rates = me.classification_metrics(outcomes)
        report.counts = counts
        report.precision = rates["precision"]
        report.recall = rates["recall"]
        report.f1 = rates["f1"]
        report.fpr = rates["fpr"]
        report.fnr = rates["fnr"]
        lead = me.awlt(outcomes)
        if lead is not None:
            report.awlt_mean, report.awlt_std = lead
            leads = []
            for o in outcomes:
                if o.danger and o.contact_time is not None:
                    pre = [t for t in o.warning_times if t < o.contact_time]
                    if pre:
                        leads.append(o.contact_time - min(pre))
            report.lead_time_p5 = float(np.percentile(leads, 5))
    return report


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------


def constant_density_frames(
    n_vehicles: int, config: HstanConfig, density: float = 0.02, seed: int = 0
) -> list[SceneFrame]:
    """T observed frames of a road strip whose area scales with N."""
    rng = np.random.default_rng(seed)
    width = 40.0
    length = max(n_vehicles / (density * width), width)
    pos = np.column_stack(
        [rng.uniform(0, length, n_vehicles), rng.uniform(0, width, n_vehicles)]
    )
    vel = rng.uniform(-5, 5, size=(n_vehicles, 2))
    dims = np.tile([4.5, 1.8], (n_vehicles, 1))
    frames = []
    for t in range(config.t_obs):
        p = pos + vel * (t * config.dt)
        feats = np.concatenate([p, vel, np.zeros_like(vel), dims], axis=1)
        frames.append(SceneFrame(timestamp=t * config.dt, vehicles=feats))
    return frames


def _fit_r2(x: np.ndarray, y: np.ndarray, degree: int) -> float:
    coeffs = np.polyfit(x, y, degree)
    resid = y - np.polyval(coeffs, x)
    ss_res = float((resid**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


@dataclass
class BenchReport:
    n_grid: list[int]
    score_evals: list[int]
    all_pairs: list[int]
    latency_ms: dict[int, dict]
    prep_p50_ms: list[float]  # median make_window time per N
    linear_r2_edges: float
    quadratic_r2_all_pairs: float
    linear_r2_all_pairs: float

    def to_text(self) -> str:
        lines = [
            f"linear_r2_edges={self.linear_r2_edges:.6f}",
            f"quadratic_r2_all_pairs={self.quadratic_r2_all_pairs:.6f}",
            f"linear_r2_all_pairs={self.linear_r2_all_pairs:.6f}",
            "",
            "N      edges      all_pairs  prep_p50_ms  p50_ms    p90_ms    p99_ms",
        ]
        for i, n in enumerate(self.n_grid):
            lat = self.latency_ms[n]
            lines.append(
                f"{n:<6} {self.score_evals[i]:<10} {self.all_pairs[i]:<10} {self.prep_p50_ms[i]:<12.3f} "
                f"{lat['p50']:<9.3f} {lat['p90']:<9.3f} {lat['p99']:<9.3f}"
            )
        return "\n".join(lines) + "\n"


def run_bench(
    model: HstanModel,
    n_grid: list[int] | None = None,
    repeats: int = 5,
    density: float = 0.02,
    seed: int = 0,
) -> BenchReport:
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    n_grid = n_grid or [10, 20, 40, 80, 120]
    cfg = model.config
    score_evals, all_pairs, latency, prep = [], [], {}, []
    for n in n_grid:
        frames = constant_density_frames(n, cfg, density, seed)
        prep_samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            window = make_window(frames, cfg)
            prep_samples.append((time.perf_counter() - t0) * 1000.0)
        prep.append(float(np.median(prep_samples)))
        batch = prepare_batch([window], cfg)
        counter = WorkCounter()
        forward_batch(model, batch, counter)
        score_evals.append(counter.score_evals)
        all_pairs.append(counter.all_pairs_equivalent)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            forward_batch(model, batch)
            samples.append((time.perf_counter() - t0) * 1000.0)
        latency[n] = me.latency_percentiles(samples)
    xs = np.asarray(n_grid, dtype=np.float64)
    return BenchReport(
        n_grid=n_grid,
        score_evals=score_evals,
        all_pairs=all_pairs,
        latency_ms=latency,
        prep_p50_ms=prep,
        linear_r2_edges=_fit_r2(xs, np.asarray(score_evals, dtype=np.float64), 1),
        quadratic_r2_all_pairs=_fit_r2(xs, np.asarray(all_pairs, dtype=np.float64), 2),
        linear_r2_all_pairs=_fit_r2(xs, np.asarray(all_pairs, dtype=np.float64), 1),
    )
