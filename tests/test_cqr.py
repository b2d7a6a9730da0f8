"""Split-conformal calibration: score oracles, finite-sample coverage."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcw.cqr as cq
import fcw.model as md
import fcw.scenario as sc

from conftest import cv_episodes, tiny_config

import oracles


# ---------------------------------------------------------------------------
# nonconformity scores
# ---------------------------------------------------------------------------


def test_nonconformity_inside_is_negative():
    assert cq.nonconformity(0.0, 2.0, 1.0) == -1.0


def test_nonconformity_outside():
    assert cq.nonconformity(0.0, 2.0, 3.5) == 1.5
    assert cq.nonconformity(0.0, 2.0, -0.5) == 0.5


def test_nonconformity_on_boundary_is_zero():
    assert cq.nonconformity(0.0, 2.0, 2.0) == 0.0
    assert cq.nonconformity(0.0, 2.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# quantile of scores
# ---------------------------------------------------------------------------


def test_calibrate_scores_hand_value():
    # n=4, alpha=0.5: level = 0.5*1.25 = 0.625, k = ceil(2.5) = 3
    scores = np.array([0.1, 0.2, 0.3, 0.4])
    assert cq.calibrate_scores(scores, 0.5) == pytest.approx(0.3)


def test_calibrate_scores_clamps_to_max():
    # small n and small alpha push the level past 1: take the max score
    scores = np.array([1.0, 5.0, 2.0])
    assert cq.calibrate_scores(scores, 0.05) == 5.0


def test_calibrate_scores_order_invariant(rng):
    scores = rng.standard_normal(50)
    a = cq.calibrate_scores(scores, 0.2)
    b = cq.calibrate_scores(rng.permutation(scores), 0.2)
    assert a == b


def test_calibrate_scores_empty_raises():
    with pytest.raises(ValueError):
        cq.calibrate_scores(np.array([]), 0.1)


def test_calibrate_per_dimension():
    # two dims with very different score scales get separate corrections
    n = 40
    rng = np.random.default_rng(0)
    y = rng.standard_normal((n, 2))
    lower = y.copy()
    upper = y.copy()
    lower[:, 0] -= 0.1  # dim 0 already covers
    upper[:, 0] += 0.1
    lower[:, 1] += 5.0  # dim 1 badly miscovers
    upper[:, 1] -= 5.0
    corr = cq.calibrate(lower, upper, y, alpha=0.1)
    assert corr.q.shape == (2,)
    assert corr.q[0] < 0 < corr.q[1]
    assert corr.n_cal == n


# ---------------------------------------------------------------------------
# corrected intervals
# ---------------------------------------------------------------------------


def test_interval_widening():
    corr = cq.ConformalCorrection(q=np.array(0.5), alpha=0.1, n_cal=10)
    lo, up = cq.conformal_interval(1.0, 3.0, corr)
    assert (lo, up) == (0.5, 3.5)


def test_interval_crossing_collapses_to_midpoint():
    # negative correction larger than half the width: bounds 2.2 > 1.8 cross
    # and collapse to their midpoint 2.0
    corr = cq.ConformalCorrection(q=np.array(-1.2), alpha=0.1, n_cal=10)
    lo, up = cq.conformal_interval(np.array(1.0), np.array(3.0), corr)
    assert lo == pytest.approx(2.0)
    assert up == pytest.approx(2.0)


def test_empirical_coverage_counts_inclusive():
    lower = np.array([0.0, 0.0, 0.0])
    upper = np.array([1.0, 1.0, 1.0])
    y = np.array([1.0, 0.5, 2.0])  # boundary counts as covered
    cov, width = cq.empirical_coverage(lower, upper, y)
    assert cov == pytest.approx(2 / 3)
    assert width == pytest.approx(1.0)


def test_empirical_coverage_shape_mismatch():
    with pytest.raises(ValueError):
        cq.empirical_coverage(np.zeros(3), np.zeros(3), np.zeros(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.1, 0.2, 0.3]))
def test_split_conformal_coverage_guarantee(seed, alpha):
    # property: on exchangeable data, corrected intervals cover >= 1 - alpha
    # in expectation; with a fresh i.i.d. test split the guarantee holds
    # up to finite-sample noise
    rng = np.random.default_rng(seed)
    n_cal, n_test = 2000, 2000
    y_cal = rng.standard_normal(n_cal)
    y_test = rng.standard_normal(n_test)
    # deliberately narrow raw intervals so the correction has work to do
    corr = cq.calibrate(np.full(n_cal, -0.1), np.full(n_cal, 0.1), y_cal, alpha)
    lo, up = cq.conformal_interval(np.full(n_test, -0.1), np.full(n_test, 0.1), corr)
    cov, _ = cq.empirical_coverage(lo, up, y_test)
    # two noise sources, each with sd ~ sqrt(alpha (1 - alpha) / n): the
    # calibration quantile's true coverage (Beta-distributed over n_cal draws)
    # and the binomial count over n_test. At alpha <= 0.3 each sd is <= 0.0103,
    # so their sum has sd <= 0.0145 and 0.08 is ~5.5 of its sigmas.
    assert cov >= 1 - alpha - 0.08


def test_coverage_exact_oracle_discrete():
    # tiny discrete oracle, worked by hand: calibration residuals
    # {1, 2, 3, 4, 5} around point 0 with degenerate [0, 0] intervals.
    # alpha=0.4 -> level 0.6*1.2 = 0.72, k = ceil(3.6) = 4 -> q = 4
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    corr = cq.calibrate(np.zeros(5), np.zeros(5), y, alpha=0.4)
    assert float(corr.q) == 4.0


# ---------------------------------------------------------------------------
# model-level calibration
# ---------------------------------------------------------------------------


def test_calibrate_raw_intervals_shapes_and_apply():
    cfg = tiny_config()
    model = md.init_model(cfg, seed=0)
    episodes = cv_episodes(2, n_vehicles=2, duration=1.0, seed=70)
    windows = sc.dataset_windows(episodes, cfg)
    lower, upper, targets = cq.raw_intervals(model, episodes)
    assert lower.shape == upper.shape == targets.shape == (sum(w.n for w in windows), cfg.t_pred, 2)
    assert np.array_equal(targets, np.concatenate([w.target_abs.transpose(1, 0, 2) for w in windows]))
    corr = cq.calibrate(lower, upper, targets, alpha=0.2)
    assert corr.q.shape == (cfg.t_pred, 2)
    assert corr.n_cal == sum(w.n for w in windows)
    pred = oracles.predict_one(model, oracles.copy_windows(windows[:1], cfg)[0])
    assert np.allclose(lower[: windows[0].n], pred.lower, rtol=0.0, atol=1e-12)
    adj = cq.apply_correction(pred, corr)
    want_lower, want_upper = cq.conformal_interval(pred.lower, pred.upper, corr)
    assert np.array_equal(adj.lower, want_lower) and np.array_equal(adj.upper, want_upper)
    assert np.all(adj.lower <= adj.upper + 1e-12)


def test_apply_correction_none_orders_bounds():
    pred = md.PredictionBatch(
        point=np.zeros((1, 2, 2)),
        lower=np.ones((1, 2, 2)),
        upper=np.zeros((1, 2, 2)),
    )
    adj = cq.apply_correction(pred, None)
    assert np.all(adj.lower <= adj.upper)


def test_raw_intervals_require_targets():
    # an episode too short for one window with its T' future frames
    cfg = tiny_config()
    model = md.init_model(cfg, seed=0)
    ep = cv_episodes(1, n_vehicles=2, duration=1.0, seed=71)[0]
    span = cfg.t_obs + cfg.t_pred
    short = dataclasses.replace(ep, frames=ep.frames[: span - 1], times=ep.times[: span - 1])
    with pytest.raises(ValueError, match=f"has {span - 1} frames, needs >= {span}"):
        cq.raw_intervals(model, [ep, short])


def test_correction_file_roundtrip(tmp_path):
    corr = cq.ConformalCorrection(
        q=np.arange(6, dtype=np.float64).reshape(3, 2), alpha=0.1, n_cal=42
    )
    path = tmp_path / "corr.json"
    cq.save_correction(path, corr, "abc")
    for loaded in (cq.load_correction(path), cq.load_correction(path, "abc")):
        assert loaded.alpha == corr.alpha
        assert loaded.n_cal == corr.n_cal
        assert np.array_equal(loaded.q, corr.q)
    with pytest.raises(ValueError, match="abd"):
        cq.load_correction(path, "abd")
