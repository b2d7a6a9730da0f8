"""Independent oracles for the benchmark's correctness checks.

Nothing here calls the code it checks: each function recomputes a result
from plain NumPy and the method's definition, or tests a property the
method must have. Every check returns a list of failure messages.
"""
from __future__ import annotations

import math

import numpy as np


def pairs_within(pos: np.ndarray, radius: float) -> np.ndarray:
    """Unordered pairs (i, j), i < j, with centre distance strictly below ``radius``.

    A sweep over the x-sorted points: the k-th neighbour in x order is a
    candidate while some gap in x is below the radius.
    """
    order = np.argsort(pos[:, 0], kind="stable")
    xs = pos[order]
    found = []
    for k in range(1, len(xs)):
        near = (xs[k:, 0] - xs[:-k, 0]) < radius
        if not near.any():
            break
        i = np.nonzero(near)[0]
        d = np.hypot(*(xs[i + k] - xs[i]).T)
        keep = i[d < radius]
        a, b = order[keep], order[keep + k]
        found.append(np.column_stack([np.minimum(a, b), np.maximum(a, b)]))
    if not found:
        return np.zeros((0, 2), dtype=np.intp)
    return np.concatenate(found)


def check_edges(positions: np.ndarray, src: np.ndarray, dst: np.ndarray, radius: float) -> list[str]:
    """Directed edge list equals both directions of every close pair plus self-loops."""
    n = len(positions)
    pairs = pairs_within(positions, radius)
    ref_src = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
    ref_dst = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
    ref = np.sort(ref_dst * n + ref_src)
    got = np.sort(np.asarray(dst, dtype=np.int64) * n + np.asarray(src, dtype=np.int64))
    if ref.shape != got.shape or not np.array_equal(ref, got):
        return [f"edge list of a {n}-vehicle frame: {len(got)} edges, radius search finds {len(ref)}"]
    return []


def any_close_pair(traj: np.ndarray, threshold: float) -> bool:
    """True when two of the (N, T', 2) trajectories come below ``threshold`` at one step."""
    return any(len(pairs_within(traj[:, t, :], threshold)) for t in range(traj.shape[1]))


def check_thresholds(rows: list[dict], weights: tuple, lam: float, window: int, min_samples: int) -> list[str]:
    """Event-log rows of one episode, in tick order, against the risk and threshold definitions."""
    failures = []
    risks: list[float] = []
    w_pred, w_kin, w_geo = weights
    for row in rows:
        risk = row["risk"]
        combined = w_pred * row["r_pred"] + w_kin * row["r_kin"] + w_geo * row["r_geo"]
        if abs(risk - combined) > 1e-12 * max(1.0, abs(combined)):
            failures.append(f"tick {row['tick']}: risk {risk!r} != w.(r_pred, r_kin, r_geo) {combined!r}")
        prev = risks[-window:]
        if len(prev) < min_samples:
            expected = math.inf
        else:
            vals = np.asarray(prev)
            expected = float(vals.mean() + lam * vals.std(ddof=1))
        got = row["threshold"]
        if math.isinf(expected) or math.isinf(got):
            ok = expected == got
        else:
            ok = abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
        if not ok:
            failures.append(f"tick {row['tick']}: threshold {got!r}, recomputed {expected!r}")
        if row["triggered"] != (risk > got):
            failures.append(f"tick {row['tick']}: triggered={row['triggered']} but risk {risk!r} vs {got!r}")
        risks.append(risk)
    return failures


def confusion(episodes: dict[int, dict], warnings: dict[int, list[float]]) -> dict[str, int]:
    """Episode-level tp/fp/tn/fn: a warning counts for a dangerous episode only before contact."""
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for eid, times in warnings.items():
        label = episodes[eid]
        if label["danger"]:
            contact = label["contact_time"]
            early = [t for t in times if contact is None or t < contact]
            counts["tp" if early else "fn"] += 1
        else:
            counts["fp" if times else "tn"] += 1
    return counts


def cv_errors(positions: np.ndarray, velocities: np.ndarray, t_obs: int, t_pred: int, dt: float):
    """Per-(window, vehicle, step) errors of constant-velocity extrapolation.

    ``positions`` and ``velocities`` are one episode's (F, N, 2) arrays; every
    window start with a full horizon is used. Returns (step errors, final-step errors).
    """
    frames = positions.shape[0]
    steps = np.arange(1, t_pred + 1)[:, None, None] * dt
    errs, finals = [], []
    for start in range(frames - t_obs - t_pred + 1):
        last = start + t_obs - 1
        pred = positions[last][None] + velocities[last][None] * steps  # (T', N, 2)
        truth = positions[last + 1 : last + 1 + t_pred]
        d = np.hypot(*(pred - truth).transpose(2, 0, 1))  # (T', N)
        errs.append(d.reshape(-1))
        finals.append(d[-1])
    return np.concatenate(errs), np.concatenate(finals)


def central_difference_check(
    loss_fn, params: list[tuple[str, np.ndarray, np.ndarray]], rng, coords: int, h: float, tol: float
) -> list[str]:
    """Compare analytic gradients with central differences on sampled coordinates.

    ``params`` holds (path, data array, analytic gradient); ``loss_fn()`` returns
    the scalar loss for the current parameter values.
    """
    failures = []
    for path, data, grad in params:
        flat = data.reshape(-1)
        for c in rng.choice(flat.size, size=min(coords, flat.size), replace=False):
            orig = flat[c]
            flat[c] = orig + h
            up = loss_fn()
            flat[c] = orig - h
            down = loss_fn()
            flat[c] = orig
            numeric = (up - down) / (2.0 * h)
            analytic = float(grad.reshape(-1)[c])
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            if not err <= tol:
                failures.append(f"{path}[{c}]: backward {analytic!r}, central difference {numeric!r}")
    return failures
