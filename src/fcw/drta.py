"""Risk potential and adaptive warning threshold.

Instantaneous risk combines a prediction term (distance, predicted time to
contact, interval uncertainty), a kinematic term (closing speed and
acceleration), and a geometric term (curvature). The warning threshold is
mean + lambda * std over a sliding window of recent risk values, computed
from values strictly before the current tick so a spike cannot raise its
own threshold.

``replay_ticks`` runs a whole sequence of ticks as one array program: the
risk of a tick never depends on the threshold, and a threshold reads only
earlier risks, so no loop over ticks is needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import PredictionBatch, check_finite

LAMBDA_PRESETS = {"highway": 2.6, "urban": 2.0, "default": 2.2}
WARMUP_MIN_SAMPLES = 5
D_MIN_CLAMP = 0.1


@dataclass
class RiskWeights:
    w_pred: float = 0.5
    w_kin: float = 0.3
    w_geo: float = 0.2
    tau: float = 1.0
    v_safe: float = 15.0
    a_max: float = 8.0
    gamma: float = 1.0
    beta: float = 0.5
    lam: float = 2.2
    window_size: int = 50  # risks the threshold statistics read

    def __post_init__(self):
        check_finite(self, ("w_pred", "w_kin", "w_geo", "gamma", "beta"), positive=False)
        check_finite(self, ("tau", "v_safe", "a_max"), positive=True)
        ws = (self.w_pred, self.w_kin, self.w_geo)
        if abs(sum(ws) - 1.0) > 1e-9:
            raise ValueError(f"risk weights must sum to 1, got {ws}")
        if not 1.5 <= self.lam <= 3.0:
            raise ValueError(f"lambda must lie in [1.5, 3.0], got {self.lam}")
        if self.window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {self.window_size}")


@dataclass
class RiskInputs:
    """Risk inputs of one tick as floats, or of a run of ticks as one array
    per field (``kappa`` may stay one float for all of them)."""

    d_min: float  # min predicted ego-to-threat distance over the horizon (m)
    ttc: float  # predicted time to first contact (s), +inf if none
    sigma_pred: float  # half mean calibrated interval width (m)
    v_rel: float  # closing speed along the ego-threat line (m/s, positive = approaching)
    a_rel: float  # closing acceleration (m/s^2)
    kappa: float  # signed road curvature (1/m)
    v_ego: float  # ego speed (m/s)

    def __post_init__(self):
        if any(np.any(np.less(v, 0.0)) for v in (self.d_min, self.v_ego, self.sigma_pred)):
            raise ValueError("d_min, v_ego, sigma_pred must be nonnegative")


# The three risk terms take one tick's inputs or arrays of them, with one
# formula for both, so a tick computed alone agrees with a replay bit for bit.


def risk_pred(inp: RiskInputs, w: RiskWeights):
    """Zero when no contact is predicted (ttc = +inf)."""
    d = np.maximum(inp.d_min, D_MIN_CLAMP)
    risk = (1.0 / d) * np.exp(-inp.ttc / w.tau) * (1.0 + inp.sigma_pred)
    return np.where(np.isinf(inp.ttc), 0.0, risk)[()]


def risk_kin(inp: RiskInputs, w: RiskWeights):
    # Receding traffic may push this negative; bounded at -1.
    return np.maximum(-1.0, inp.v_rel / w.v_safe + w.gamma * inp.a_rel / w.a_max)


def risk_geo(inp: RiskInputs, w: RiskWeights):
    return 1.0 + w.beta * np.abs(inp.kappa) * inp.v_ego


def risk_terms(inp: RiskInputs, w: RiskWeights) -> tuple:
    """(r_pred, r_kin, r_geo, risk): the three terms and their weighted sum."""
    rp, rk, rg = risk_pred(inp, w), risk_kin(inp, w), risk_geo(inp, w)
    return rp, rk, rg, w.w_pred * rp + w.w_kin * rk + w.w_geo * rg


@dataclass
class WarningEvent:
    """One tick's decision; the fields are the event log's columns, in order."""

    tick: int
    time: float
    risk: float
    r_pred: float
    r_kin: float
    r_geo: float
    mu: float
    sigma: float
    threshold: float
    triggered: bool


# ---------------------------------------------------------------------------
# Whole replays as arrays
# ---------------------------------------------------------------------------


def risk_inputs_per_tick(
    pred: PredictionBatch,
    last: np.ndarray,
    curvature: float,
    dt: float,
    r_collision: float = 4.0,
) -> RiskInputs:
    """The risk inputs of a run of ticks, with vehicle 0 the ego and every
    other vehicle a threat.

    ``last`` is the ticks' last observed states, (ticks, N, 8), and
    ``pred`` stacks the ticks' calibrated (N, T', 2) predictions tick after
    tick, as ``model.predict_episodes`` returns them for the piece of an
    episode's ticks. Returns one (ticks,) array per field:

    - d_min scans every (step, threat) pair of predicted center distances;
    - ttc is dt times the first 1-based step at which some threat's
      distance is at or below ``r_collision``;
    - v_rel and a_rel project the last observed relative state onto the
      ego-to-nearest-threat line (the first threat at the minimum);
    - sigma_pred is half the ego's mean interval width.
    """
    ticks, n = last.shape[:2]
    steps = pred.point.shape[1]
    point, lower, upper = (a.reshape(ticks, n, steps, 2) for a in (pred.point, pred.lower, pred.upper))
    ego_v, ego_a = last[:, 0, 2:4], last[:, 0, 4:6]
    width = (upper[:, 0] - lower[:, 0]).reshape(ticks, steps * 2)
    sigma_pred = np.maximum(0.0, 0.5 * width.mean(axis=1))
    v_ego = np.hypot(ego_v[:, 0], ego_v[:, 1])
    if n == 1:
        none, zero = np.full(ticks, math.inf), np.zeros(ticks)
        return RiskInputs(
            d_min=none, ttc=none, sigma_pred=sigma_pred, v_rel=zero, a_rel=zero, kappa=curvature, v_ego=v_ego
        )

    gap = point[:, :1] - point[:, 1:]  # (ticks, threats, T', 2)
    dists = np.hypot(gap[..., 0], gap[..., 1])
    closest = dists.min(axis=2)  # (ticks, threats)
    nearest = 1 + closest.argmin(axis=1)  # the first threat at the minimum
    d_min = closest.min(axis=1)
    touch = (dists <= r_collision).any(axis=1)  # (ticks, T'): some threat in contact at that step
    ttc = np.where(touch.any(axis=1), (touch.argmax(axis=1) + 1) * dt, math.inf)

    other = last[np.arange(ticks), nearest]  # (ticks, 8)
    rel = other[:, 0:2] - last[:, 0, 0:2]
    norm = np.hypot(rel[:, 0], rel[:, 1])
    apart = norm > 1e-9
    unit = rel / np.where(apart, norm, 1.0)[:, None]

    def closing(ego: np.ndarray, threat: np.ndarray) -> np.ndarray:
        # one (1, 2) @ (2, 1) product per tick: the same dot product as a 2-vector ``@``
        along = np.matmul((ego - threat)[:, None, :], unit[:, :, None])[:, 0, 0]
        return np.where(apart, along, 0.0)

    return RiskInputs(
        d_min=d_min,
        ttc=ttc,
        sigma_pred=sigma_pred,
        v_rel=closing(ego_v, other[:, 2:4]),
        a_rel=closing(ego_a, other[:, 4:6]),
        kappa=curvature,
        v_ego=v_ego,
    )


def window_stats_per_tick(risks: np.ndarray, window_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mean and sample std (W-1 denominator; 0 for a single value) of
    the (up to) ``window_size`` risks before each tick of a risk sequence,
    and how many there are.

    Row t of a (ticks, window_size) table holds risks[t - window_size : t],
    zero-padded on the left; the padding is masked out of the deviations.
    A row with the window full sums in the same order as ``np.mean`` and
    ``np.std`` over that window; a shorter one may differ from them in the
    last bits.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    ticks = len(risks)
    table = sliding_window_view(np.concatenate([np.zeros(window_size), risks]), window_size)[:ticks]
    count = np.minimum(np.arange(ticks), window_size)
    held = np.arange(window_size) >= (window_size - count)[:, None]
    mu = table.sum(axis=1) / np.maximum(count, 1)
    dev = np.where(held, table - mu[:, None], 0.0)
    sigma = np.sqrt((dev * dev).sum(axis=1) / np.maximum(count - 1, 1))
    return mu, sigma, count


def replay_ticks(
    inputs: RiskInputs,
    times: np.ndarray,
    weights: RiskWeights,
    fixed_threshold: float | None = None,
) -> list[WarningEvent]:
    """The warning events of a track's ticks, from the start of the track,
    given the risk inputs of every tick (one array per field).

    Risks come from the shared risk terms. Each threshold is mean + lambda *
    std of the (up to) ``weights.window_size`` risks before its tick
    (``window_stats_per_tick``), so a spike cannot raise its own threshold;
    it is +inf during the warm-up of ``WARMUP_MIN_SAMPLES`` ticks, and
    ``fixed_threshold`` replaces it on every tick. A tick warns where its
    risk is strictly above its threshold. Event fields are Python scalars.
    """
    rp, rk, rg, risk = risk_terms(inputs, weights)
    mu, sigma, count = window_stats_per_tick(risk, weights.window_size)
    if fixed_threshold is not None:
        threshold = np.full(len(risk), fixed_threshold, dtype=np.float64)
    else:
        threshold = np.where(count >= WARMUP_MIN_SAMPLES, mu + weights.lam * sigma, math.inf)
    columns = (times, risk, rp, rk, rg, mu, sigma, threshold, risk > threshold)
    return [
        WarningEvent(tick, *row) for tick, row in enumerate(zip(*(np.asarray(c).tolist() for c in columns)))
    ]
