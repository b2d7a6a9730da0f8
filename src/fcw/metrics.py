"""Evaluation quantities: displacement errors, predicted-collision rate,
episode-level warning classification, warning lead time, coverage/width,
and latency percentiles."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scene_graph as sg


def ade(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance over vehicles and steps; arrays (..., 2)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    d = np.sqrt(((pred - truth) ** 2).sum(axis=-1))
    return float(d.mean())


def fde(pred: np.ndarray, truth: np.ndarray) -> float:
    """Final-step displacement error; step axis is the second-to-last."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    d = np.sqrt(((pred[..., -1, :] - truth[..., -1, :]) ** 2).sum(axis=-1))
    return float(d.mean())


def collision_rate(window_preds: list[np.ndarray], threshold: float) -> float:
    """Fraction of windows whose predicted trajectories bring any pair below threshold.

    Each entry is an (N, T', 2) predicted batch. One neighbour search runs
    over every (window, step) group of all windows at once.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if not window_preds:
        return 0.0
    steps = [np.asarray(p, dtype=np.float64).transpose(1, 0, 2) for p in window_preds]  # (T', N, 2)
    n_steps = [s.shape[0] for s in steps]
    points = np.concatenate([s.reshape(-1, 2) for s in steps])
    group = np.repeat(np.arange(sum(n_steps)), np.repeat([s.shape[1] for s in steps], n_steps))
    i, _ = sg._radius_pairs(points, group, threshold)
    hit_windows = np.repeat(np.arange(len(steps)), n_steps)[group[i]]
    return len(np.unique(hit_windows)) / len(window_preds)


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0


@dataclass
class EpisodeOutcome:
    """Ground truth plus the warning times emitted for one episode."""

    episode_id: int
    danger: bool
    contact_time: float | None
    warning_times: list[float] = field(default_factory=list)


def classification_metrics(outcomes: list[EpisodeOutcome]) -> tuple[ConfusionCounts, dict]:
    """Episode-level confusion: a warning counts only if it fires before contact."""
    if not outcomes:
        raise ValueError("empty evaluation set")
    counts = ConfusionCounts()
    for o in outcomes:
        if o.danger:
            pre_contact = [t for t in o.warning_times if o.contact_time is None or t < o.contact_time]
            if pre_contact:
                counts.tp += 1
            else:
                counts.fn += 1
        else:
            if o.warning_times:
                counts.fp += 1
            else:
                counts.tn += 1
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    fnr = fn / (fn + tp) if fn + tp else 0.0
    rates = {"precision": precision, "recall": recall, "f1": f1, "fpr": fpr, "fnr": fnr}
    return counts, rates


def lead_times(outcomes: list[EpisodeOutcome]) -> np.ndarray:
    """contact_time - first pre-contact warning of each dangerous episode
    with a contact time and a warning before it, in episode order."""
    leads = []
    for o in outcomes:
        if not o.danger or o.contact_time is None:
            continue
        pre = [t for t in o.warning_times if t < o.contact_time]
        if pre:
            leads.append(o.contact_time - min(pre))
    return np.asarray(leads, dtype=np.float64)


def awlt(outcomes: list[EpisodeOutcome]) -> tuple[float, float] | None:
    """Mean and sample std of the ``lead_times``; None when no episode has one."""
    leads = lead_times(outcomes)
    if not len(leads):
        return None
    std = float(leads.std(ddof=1)) if len(leads) >= 2 else 0.0
    return float(leads.mean()), std


def latency_percentiles(samples_ms: list[float]) -> dict:
    arr = np.asarray(samples_ms, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
    }


def report_text(values: dict) -> str:
    """A report's values as ``key=value`` lines in their order, floats to 9
    significant digits, then the same values as a table."""
    fields = [(key, f"{value:.9g}" if isinstance(value, float) else str(value)) for key, value in values.items()]
    table = ["", "metric                 value", "-" * 30, *(f"{key:<22} {text}" for key, text in fields)]
    return "\n".join([*(f"{key}={text}" for key, text in fields), *table]) + "\n"
