"""Risk potential and adaptive warning threshold.

Instantaneous risk combines a prediction term (distance, predicted time to
contact, interval uncertainty), a kinematic term (closing speed and
acceleration), and a geometric term (curvature). The warning threshold is
mean + lambda * std over a sliding window of recent risk values, computed
from values strictly before the current tick so a spike cannot raise its
own threshold.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import PredictionBatch
from .scene_graph import SceneFrame

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

    def __post_init__(self):
        ws = (self.w_pred, self.w_kin, self.w_geo)
        if any(w < 0 for w in ws) or abs(sum(ws) - 1.0) > 1e-9:
            raise ValueError(f"risk weights must be nonnegative and sum to 1, got {ws}")
        if self.tau <= 0 or self.v_safe <= 0 or self.a_max <= 0:
            raise ValueError("tau, v_safe, a_max must be positive")
        if not 1.5 <= self.lam <= 3.0:
            raise ValueError(f"lambda must lie in [1.5, 3.0], got {self.lam}")


@dataclass
class RiskInputs:
    d_min: float  # min predicted ego-to-threat distance over the horizon (m)
    ttc: float  # predicted time to first contact (s), +inf if none
    sigma_pred: float  # half mean calibrated interval width (m)
    v_rel: float  # closing speed along the ego-threat line (m/s, positive = approaching)
    a_rel: float  # closing acceleration (m/s^2)
    kappa: float  # signed road curvature (1/m)
    v_ego: float  # ego speed (m/s)

    def __post_init__(self):
        if self.d_min < 0 or self.v_ego < 0 or self.sigma_pred < 0:
            raise ValueError("d_min, v_ego, sigma_pred must be nonnegative")


def risk_pred(inp: RiskInputs, w: RiskWeights) -> float:
    if math.isinf(inp.ttc):
        return 0.0
    d = max(inp.d_min, D_MIN_CLAMP)
    return (1.0 / d) * math.exp(-inp.ttc / w.tau) * (1.0 + inp.sigma_pred)


def risk_kin(inp: RiskInputs, w: RiskWeights) -> float:
    # Receding traffic may push this negative; bounded at -1.
    return max(-1.0, inp.v_rel / w.v_safe + w.gamma * inp.a_rel / w.a_max)


def risk_geo(inp: RiskInputs, w: RiskWeights) -> float:
    return 1.0 + w.beta * abs(inp.kappa) * inp.v_ego


def risk_total(inp: RiskInputs, w: RiskWeights) -> float:
    return w.w_pred * risk_pred(inp, w) + w.w_kin * risk_kin(inp, w) + w.w_geo * risk_geo(inp, w)


class SlidingWindow:
    """Bounded buffer of recent risk values; oldest evicted first."""

    def __init__(self, capacity: int = 50):
        if capacity < 2:
            raise ValueError("window capacity must be >= 2")
        self.capacity = capacity
        self.values: deque[float] = deque(maxlen=capacity)

    def push(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)


def window_stats(window: SlidingWindow) -> tuple[float, float]:
    """Mean and sample std (W-1 denominator); a single value has std 0."""
    n = len(window)
    if n == 0:
        return 0.0, 0.0
    vals = np.asarray(window.values, dtype=np.float64)
    mu = float(vals.mean())
    sigma = float(vals.std(ddof=1)) if n >= 2 else 0.0
    return mu, sigma


def dynamic_threshold(mu: float, sigma: float, lam: float) -> float:
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return mu + lam * sigma


@dataclass
class WarningEvent:
    tick: int
    time: float
    risk: float
    threshold: float
    triggered: bool
    r_pred: float
    r_kin: float
    r_geo: float
    mu: float
    sigma: float


def decide(risk: float, threshold: float) -> bool:
    """Strict inequality: risk exactly at the threshold does not trigger."""
    return risk > threshold


@dataclass
class TrackState:
    """Per-track warning state; step sequence on one track is strictly ordered."""

    weights: RiskWeights = field(default_factory=RiskWeights)
    window_size: int = 50
    min_samples: int = WARMUP_MIN_SAMPLES
    fixed_threshold: float | None = None
    window: SlidingWindow = None
    tick: int = 0

    def __post_init__(self):
        if self.window is None:
            self.window = SlidingWindow(self.window_size)

    def step(self, inputs: RiskInputs, time: float = 0.0) -> WarningEvent:
        w = self.weights
        rp = risk_pred(inputs, w)
        rk = risk_kin(inputs, w)
        rg = risk_geo(inputs, w)
        risk = risk_total(inputs, w)
        mu, sigma = window_stats(self.window)
        if self.fixed_threshold is not None:
            threshold = self.fixed_threshold
        elif len(self.window) >= self.min_samples:
            threshold = dynamic_threshold(mu, sigma, w.lam)
        else:
            threshold = math.inf  # warm-up: no warnings yet
        event = WarningEvent(
            tick=self.tick,
            time=time,
            risk=risk,
            threshold=threshold,
            triggered=decide(risk, threshold),
            r_pred=rp,
            r_kin=rk,
            r_geo=rg,
            mu=mu,
            sigma=sigma,
        )
        self.window.push(risk)
        self.tick += 1
        return event


def extract_risk_inputs(
    pred: PredictionBatch,
    ego_index: int,
    threat_indices: list[int],
    frames: list[SceneFrame],
    curvature: float,
    dt: float,
    r_collision: float = 4.0,
) -> RiskInputs:
    """Reduce a calibrated prediction batch to the scalar risk inputs.

    d_min scans every (step, threat) pair of predicted center distances;
    predicted time to contact is dt times the first 1-based step whose
    distance is at or below r_collision. Kinematics project the last
    observed relative state onto the ego-to-nearest-threat line.
    """
    last = frames[-1].vehicles
    ego_v = last[ego_index, 2:4]
    ego_a = last[ego_index, 4:6]
    v_ego = float(np.hypot(*ego_v))

    if not threat_indices:
        return RiskInputs(
            d_min=math.inf, ttc=math.inf, sigma_pred=_sigma_pred(pred, ego_index),
            v_rel=0.0, a_rel=0.0, kappa=curvature, v_ego=v_ego,
        )

    ego_traj = pred.point[ego_index]  # (T', 2)
    d_min = math.inf
    ttc = math.inf
    nearest = threat_indices[0]
    for j in threat_indices:
        dists = np.hypot(*(ego_traj - pred.point[j]).T)
        jmin = float(dists.min())
        if jmin < d_min:
            d_min = jmin
            nearest = j
        contact = np.nonzero(dists <= r_collision)[0]
        if contact.size:
            ttc = min(ttc, (int(contact[0]) + 1) * dt)

    rel = last[nearest, 0:2] - last[ego_index, 0:2]
    norm = np.hypot(*rel)
    if norm > 1e-9:
        unit = rel / norm
        v_rel = float((ego_v - last[nearest, 2:4]) @ unit)
        a_rel = float((ego_a - last[nearest, 4:6]) @ unit)
    else:
        v_rel = 0.0
        a_rel = 0.0

    return RiskInputs(
        d_min=max(d_min, 0.0),
        ttc=ttc,
        sigma_pred=_sigma_pred(pred, ego_index),
        v_rel=v_rel,
        a_rel=a_rel,
        kappa=curvature,
        v_ego=v_ego,
    )


def _sigma_pred(pred: PredictionBatch, ego_index: int) -> float:
    width = pred.upper[ego_index] - pred.lower[ego_index]
    return max(0.0, 0.5 * float(width.mean()))
