"""Glue between the predictor, conformal calibration, and the warning engine:
episode replay, event logs, evaluation reports, and the scaling benchmark."""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import cqr as cqr_mod
from . import metrics as me
from .drta import RiskWeights, WarningEvent, replay_ticks, risk_inputs_per_tick
from .model import (
    HstanConfig,
    HstanModel,
    episode_batch,
    episode_graphs,
    episode_targets,
    forward_batch,
    predict_episodes,
)
from .scenario import Episode, cv_baseline, window_pieces
from .scene_graph import FEATURE_DIM, WorkCounter

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
    fixed_threshold: float | None = None,
    no_cqr: bool = False,
) -> EpisodeEvents:
    """The warning events of every tick of one episode; ego is vehicle 0,
    the rest are threats.

    Every frame's radius graph is built once for the episode, and every
    tick's window is predicted from the episode array in one batched call
    (``model.predict_episodes``). The correction, the risk inputs
    (``drta.risk_inputs_per_tick``), the thresholds and the decisions
    (``drta.replay_ticks``) then run over all ticks at once. An episode
    shorter than ``t_obs`` has no tick to replay.
    """
    cfg = model.config
    states = episode.frames
    ticks = np.arange(cfg.t_obs - 1, len(states))
    piece = (episode_graphs(states, cfg.radius), 0, len(ticks))
    pred = cqr_mod.apply_correction(predict_episodes(model, [piece]), None if no_cqr else corr)
    inputs = risk_inputs_per_tick(
        pred, states[cfg.t_obs - 1 :], episode.curvature, episode.dt, cfg.collision_radius
    )
    if no_cqr:
        inputs = replace(inputs, sigma_pred=np.zeros(len(ticks)))
    events = replay_ticks(inputs, ticks * episode.dt, weights, fixed_threshold)
    return EpisodeEvents(episode_id=episode.episode_id, events=events)


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
    width = EVENT_HEADER.count(",") + 1
    by_ep: dict[int, EpisodeEvents] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(parts)}")
        try:
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
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        by_ep.setdefault(eid, EpisodeEvents(episode_id=eid)).events.append(ev)
    return [by_ep[k] for k in sorted(by_ep)]


def outcomes_from_events(
    episodes: list[Episode], episodes_events: list[EpisodeEvents], t_obs: int
) -> list[me.EpisodeOutcome]:
    """Each episode's warning times from the log of its replay.

    The log must hold exactly the episodes that have a tick to replay,
    those with at least ``t_obs`` frames; a shorter episode never warns.
    """
    by_id = {ee.episode_id: ee for ee in episodes_events}
    logged = sorted(ee.episode_id for ee in episodes_events if ee.events)
    replayed = sorted(ep.episode_id for ep in episodes if len(ep.frames) >= t_obs)
    if logged != replayed:
        raise ValueError(f"event log holds episodes {logged}, but the split replays episodes {replayed}")
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
    episodes: list[Episode],
    config: HstanConfig,
    corr=None,
    baseline: str | None = None,
) -> dict:
    """ADE/FDE/collision-rate (and coverage when calibrated) over every
    sliding window of the episodes."""
    if not episodes:
        raise ValueError("prediction metrics need at least one episode")
    pieces = window_pieces(episodes, config)
    truth = episode_targets(pieces, config)  # (sumN, T', 2)
    pred = None
    if baseline == "cv":
        last = np.concatenate(
            [g.states[lo + config.t_obs - 1 : hi + config.t_obs - 1].reshape(-1, FEATURE_DIM) for g, lo, hi in pieces]
        )
        # each row extrapolates with its own episode's time step (one piece per episode)
        dt = np.repeat([ep.dt for ep in episodes], [(hi - lo) * g.states.shape[1] for g, lo, hi in pieces])
        points = cv_baseline(last[:, 0:2], last[:, 2:4], config.t_pred, dt)
    else:
        pred = predict_episodes(model, pieces)
        points = pred.point
    counts = np.repeat([g.states.shape[1] for g, _, _ in pieces], [hi - lo for _, lo, hi in pieces])
    out = {
        "ade": me.ade(points, truth),
        "fde": me.fde(points, truth),
        "collision_rate": me.collision_rate(np.split(points, np.cumsum(counts)[:-1]), config.collision_radius / 2.0),
    }
    if pred is not None and corr is not None:
        out["raw_coverage"], _ = cqr_mod.empirical_coverage(pred.lower, pred.upper, truth)
        lower, upper = cqr_mod.conformal_interval(pred.lower, pred.upper, corr)
        out["coverage"], out["mean_width"] = cqr_mod.empirical_coverage(lower, upper, truth)
    return out


def build_report(prediction: dict | None, outcomes: list[me.EpisodeOutcome] | None) -> me.EvalReport:
    report = me.EvalReport()
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
            report.lead_time_p5 = float(np.percentile(me.lead_times(outcomes), 5))
    return report


# ---------------------------------------------------------------------------
# Scaling benchmark
# ---------------------------------------------------------------------------


def constant_density_frames(
    n_vehicles: int, config: HstanConfig, density: float = 0.02, seed: int = 0
) -> np.ndarray:
    """The (T, N, 8) states of T observed frames of a road strip whose area
    scales with N, every vehicle at constant velocity."""
    rng = np.random.default_rng(seed)
    width = 40.0
    length = max(n_vehicles / (density * width), width)
    pos = np.column_stack(
        [rng.uniform(0, length, n_vehicles), rng.uniform(0, width, n_vehicles)]
    )
    vel = rng.uniform(-5, 5, size=(n_vehicles, 2))
    states = np.empty((config.t_obs, n_vehicles, 8))
    states[:, :, 0:2] = pos + vel * (np.arange(config.t_obs) * config.dt)[:, None, None]
    states[:, :, 2:4] = vel
    states[:, :, 4:6] = 0.0
    states[:, :, 6:8] = [4.5, 1.8]
    return states


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
    prep_p50_ms: list[float]  # median time per N to build the window's graphs and batch (episode_batch)
    linear_r2_edges: float
    quadratic_r2_all_pairs: float | None  # None below 4 distinct sizes, which a degree-2 fit passes through exactly
    linear_r2_all_pairs: float

    def to_text(self) -> str:
        quadratic = self.quadratic_r2_all_pairs
        lines = [
            f"linear_r2_edges={self.linear_r2_edges:.6f}",
            f"quadratic_r2_all_pairs={'n/a' if quadratic is None else f'{quadratic:.6f}'}",
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
    """Work counts and latencies of one window per scene size; the scaling
    fits need at least 3 distinct sizes, each of at least one vehicle, and
    the quadratic one at least 4."""
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    n_grid = n_grid or [10, 20, 40, 80, 120]
    if min(n_grid) < 1 or len(set(n_grid)) < 3:
        raise ValueError(f"n_grid needs at least 3 distinct sizes, each >= 1, got {n_grid}")
    cfg = model.config
    score_evals, all_pairs, latency, prep = [], [], {}, []
    for n in n_grid:
        states = constant_density_frames(n, cfg, density, seed)
        prep_samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            batch = episode_batch([(episode_graphs(states, cfg.radius), 0, 1)], cfg)
            prep_samples.append((time.perf_counter() - t0) * 1000.0)
        prep.append(float(np.median(prep_samples)))
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
    xs, pairs = np.asarray(n_grid, dtype=np.float64), np.asarray(all_pairs, dtype=np.float64)
    return BenchReport(
        n_grid=n_grid,
        score_evals=score_evals,
        all_pairs=all_pairs,
        latency_ms=latency,
        prep_p50_ms=prep,
        linear_r2_edges=_fit_r2(xs, np.asarray(score_evals, dtype=np.float64), 1),
        quadratic_r2_all_pairs=_fit_r2(xs, pairs, 2) if len(set(n_grid)) > 3 else None,
        linear_r2_all_pairs=_fit_r2(xs, pairs, 1),
    )
