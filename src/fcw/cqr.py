"""Split-conformal calibration of the quantile branch.

Nonconformity scores are E = max(L - y, y - U); the correction is the
ceil((1-a)(1+1/n) * n)-th order statistic of the calibration scores,
clamped to the maximum when the level exceeds one. One correction is kept
per (prediction-step, coordinate) pair, pooled across vehicles.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import HstanModel, PredictionBatch, WindowSample, predict_windows


def nonconformity(lower, upper, y):
    """max(L - y, y - U); negative when y lies strictly inside (L, U)."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return np.maximum(lower - y, y - upper)


@dataclass
class ConformalCorrection:
    """Per-dimension correction (meters); may be negative when raw intervals over-cover."""

    q: np.ndarray  # (T', 2) or any broadcastable shape
    alpha: float
    n_cal: int


def calibrate_scores(scores: np.ndarray, alpha: float) -> float:
    """Finite-sample conformal quantile of a 1-D score sample."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = scores.size
    if n < 1:
        raise ValueError("empty calibration set")
    level = (1.0 - alpha) * (1.0 + 1.0 / n)
    k = math.ceil(level * n)
    k = min(max(k, 1), n)  # level > 1 clamps to the max score
    return float(np.sort(scores)[k - 1])


def calibrate(lower: np.ndarray, upper: np.ndarray, targets: np.ndarray, alpha: float) -> ConformalCorrection:
    """Calibrate per trailing-dimension streams.

    Inputs have shape (n_examples, *dims); a separate correction is fitted
    for every entry of ``dims`` by pooling over the example axis.
    """
    scores = nonconformity(lower, upper, targets)
    if scores.ndim == 1:
        q = np.array(calibrate_scores(scores, alpha))
    else:
        flat = scores.reshape(scores.shape[0], -1)
        q = np.array([calibrate_scores(flat[:, j], alpha) for j in range(flat.shape[1])])
        q = q.reshape(scores.shape[1:])
    return ConformalCorrection(q=q, alpha=alpha, n_cal=scores.shape[0])


def conformal_interval(lower, upper, corr: ConformalCorrection):
    """Widen (or shrink) raw intervals by the correction; crossings collapse to midpoint."""
    lo = np.asarray(lower, dtype=np.float64) - corr.q
    up = np.asarray(upper, dtype=np.float64) + corr.q
    crossed = lo > up
    if np.any(crossed):
        mid = 0.5 * (lo + up)
        lo = np.where(crossed, mid, lo)
        up = np.where(crossed, mid, up)
    return lo, up


def empirical_coverage(lower, upper, targets) -> tuple[float, float]:
    """Fraction of targets inside [L, U] (inclusive), and mean interval width."""
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if lower.shape != targets.shape or upper.shape != targets.shape:
        raise ValueError(f"count mismatch: {lower.shape}, {upper.shape}, {targets.shape}")
    inside = (lower <= targets) & (targets <= upper)
    return float(inside.mean()), float((upper - lower).mean())


# ---------------------------------------------------------------------------
# Model-level calibration
# ---------------------------------------------------------------------------


def raw_intervals(model: HstanModel, windows: list[WindowSample]):
    """Stack raw lower/upper/target trajectories over calibration windows.

    Returns arrays of shape (n_vehicles_total, T', 2); each vehicle in each
    window is one pooled example.
    """
    if any(w.target_abs is None for w in windows):
        raise ValueError("calibration windows need ground-truth futures")
    preds = predict_windows(model, windows)
    return (
        np.concatenate([p.lower for p in preds]),
        np.concatenate([p.upper for p in preds]),
        np.concatenate([w.target_abs.transpose(1, 0, 2) for w in windows]),  # (N, T', 2)
    )


def apply_correction(pred: PredictionBatch, corr: ConformalCorrection | None) -> PredictionBatch:
    if corr is None:
        lo, up = np.minimum(pred.lower, pred.upper), np.maximum(pred.lower, pred.upper)
        return PredictionBatch(point=pred.point, lower=lo, upper=up, conformal_applied=False)
    lo, up = conformal_interval(pred.lower, pred.upper, corr)
    return PredictionBatch(point=pred.point, lower=lo, upper=up, conformal_applied=True)


def save_correction(path: str | Path, corr: ConformalCorrection, checkpoint_sha256: str) -> None:
    """Write the correction with the sha256 of the checkpoint it was fitted for."""
    payload = {
        "alpha": corr.alpha,
        "n_cal": corr.n_cal,
        "q_shape": list(np.asarray(corr.q).shape),
        "q": np.asarray(corr.q).reshape(-1).tolist(),
        "checkpoint_sha256": checkpoint_sha256,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def load_correction(path: str | Path, checkpoint_sha256: str | None = None) -> ConformalCorrection:
    """Read a correction; with ``checkpoint_sha256``, also require that it
    was fitted for the checkpoint with that hash."""
    payload = json.loads(Path(path).read_text())
    keys = {"alpha", "n_cal", "q", "q_shape", "checkpoint_sha256"}
    if not isinstance(payload, dict) or not keys <= set(payload):
        raise ValueError(f"{path}: calibration needs the keys alpha, checkpoint_sha256, n_cal, q and q_shape")
    if checkpoint_sha256 is not None and payload["checkpoint_sha256"] != checkpoint_sha256:
        raise ValueError(
            f"{path}: calibration was fitted for the checkpoint with sha256 "
            f"{payload['checkpoint_sha256']!r}, not for this one ({checkpoint_sha256})"
        )
    try:
        q = np.asarray(payload["q"], dtype=np.float64).reshape(payload["q_shape"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: q does not match q_shape ({exc})") from None
    return ConformalCorrection(q=q, alpha=payload["alpha"], n_cal=payload["n_cal"])
