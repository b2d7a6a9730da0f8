"""Evaluation metrics against hand arithmetic and brute-force recomputation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fcw.metrics as mt

import oracles


def outcome(eid, danger, contact, warnings):
    return mt.EpisodeOutcome(
        episode_id=eid, danger=danger, contact_time=contact, warning_times=warnings
    )


# ---------------------------------------------------------------------------
# displacement errors
# ---------------------------------------------------------------------------


def test_ade_hand_value():
    pred = np.array([[[0.0, 0.0], [3.0, 4.0]]])  # one vehicle, two steps
    truth = np.zeros((1, 2, 2))
    assert mt.ade(pred, truth) == pytest.approx(2.5)  # (0 + 5) / 2


def test_fde_hand_value():
    pred = np.array([[[1.0, 0.0], [3.0, 4.0]]])
    truth = np.zeros((1, 2, 2))
    assert mt.fde(pred, truth) == pytest.approx(5.0)


def test_ade_perfect_prediction_is_zero(rng):
    x = rng.standard_normal((4, 6, 2))
    assert mt.ade(x, x.copy()) == 0.0
    assert mt.fde(x, x.copy()) == 0.0


def test_ade_translation_adds_constant(rng):
    x = rng.standard_normal((3, 5, 2))
    shifted = x + np.array([3.0, 4.0])
    assert mt.ade(shifted, x) == pytest.approx(5.0)
    assert mt.fde(shifted, x) == pytest.approx(5.0)


def test_ade_shape_mismatch():
    with pytest.raises(ValueError):
        mt.ade(np.zeros((2, 3, 2)), np.zeros((2, 4, 2)))


def test_ade_matches_bruteforce(rng):
    pred = rng.standard_normal((5, 7, 2))
    truth = rng.standard_normal((5, 7, 2))
    total = 0.0
    for i in range(5):
        for t in range(7):
            total += float(np.hypot(*(pred[i, t] - truth[i, t])))
    assert mt.ade(pred, truth) == pytest.approx(total / 35, abs=1e-12)


# ---------------------------------------------------------------------------
# predicted-collision rate
# ---------------------------------------------------------------------------


def test_collision_rate_hand_value():
    close = np.stack([np.zeros((3, 2)), np.full((3, 2), 0.5)])  # pair 0.707 m apart
    far = np.stack([np.zeros((3, 2)), np.full((3, 2), 50.0)])
    assert mt.collision_rate([close, far], threshold=4.0) == pytest.approx(0.5)


def test_collision_rate_single_vehicle_never_counts():
    solo = np.zeros((1, 4, 2))
    assert mt.collision_rate([solo, solo], threshold=4.0) == 0.0


def test_collision_rate_empty_and_validation():
    assert mt.collision_rate([], threshold=1.0) == 0.0
    with pytest.raises(ValueError):
        mt.collision_rate([np.zeros((2, 2, 2))], threshold=0.0)


# Grid coordinates put pairs exactly at the threshold along an axis, and
# NaN stands for a vehicle with no prediction at that step.
THRESHOLD = 2.0
PRED_COORD = st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False),
    st.just(np.nan),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
            lambda shape: hnp.arrays(np.float64, (*shape, 2), elements=PRED_COORD)
        ),
        min_size=1,
        max_size=8,
    )
)
def test_collision_rate_matches_dense_reference(windows):
    assert mt.collision_rate(windows, THRESHOLD) == oracles.dense_collision_rate(windows, THRESHOLD)


# ---------------------------------------------------------------------------
# episode-level classification
# ---------------------------------------------------------------------------


def test_confusion_hand_values():
    outcomes = [
        outcome(0, True, 5.0, [3.0]),  # TP: warning before contact
        outcome(1, True, 5.0, [6.0]),  # FN: warning after contact only
        outcome(2, True, 5.0, []),  # FN: silent
        outcome(3, False, None, [1.0]),  # FP
        outcome(4, False, None, []),  # TN
    ]
    counts, rates = mt.classification_metrics(outcomes)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 2)
    assert rates["precision"] == pytest.approx(0.5)
    assert rates["recall"] == pytest.approx(1 / 3)
    assert rates["f1"] == pytest.approx(2 * 0.5 * (1 / 3) / (0.5 + 1 / 3))
    assert rates["fpr"] == pytest.approx(0.5)
    assert rates["fnr"] == pytest.approx(2 / 3)


def test_confusion_degenerate_rates_are_zero():
    counts, rates = mt.classification_metrics([outcome(0, False, None, [])])
    assert counts.tn == 1
    assert rates["precision"] == 0.0 and rates["recall"] == 0.0 and rates["f1"] == 0.0


def test_confusion_empty_raises():
    with pytest.raises(ValueError):
        mt.classification_metrics([])


# ---------------------------------------------------------------------------
# warning lead time
# ---------------------------------------------------------------------------


def test_awlt_hand_value():
    outcomes = [
        outcome(0, True, 10.0, [7.0, 8.0]),  # lead 3.0 from the earliest warning
        outcome(1, True, 6.0, [5.0]),  # lead 1.0
        outcome(2, True, 6.0, []),  # silent: excluded
        outcome(3, False, None, [1.0]),  # not dangerous: excluded
    ]
    mean, std = mt.awlt(outcomes)
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(np.std([3.0, 1.0], ddof=1))


def test_awlt_ignores_post_contact_warnings():
    mean, std = mt.awlt([outcome(0, True, 5.0, [6.0, 4.0])])
    assert mean == pytest.approx(1.0) and std == 0.0


def test_lead_times_hand_value():
    outcomes = [
        outcome(0, True, 10.0, [7.0, 8.0]),  # lead 3.0 from the earliest warning
        outcome(1, False, None, [1.0]),  # not dangerous: excluded
        outcome(2, True, 5.0, [6.0, 4.5]),  # lead 0.5; the post-contact warning is ignored
        outcome(3, True, None, [1.0]),  # no contact time: excluded
        outcome(4, True, 6.0, []),  # silent: excluded
    ]
    leads = mt.lead_times(outcomes)
    assert leads.dtype == np.float64 and leads.tolist() == [3.0, 0.5]
    assert mt.lead_times(outcomes[3:]).shape == (0,)


def test_awlt_none_when_no_true_positive():
    assert mt.awlt([outcome(0, True, 5.0, [])]) is None


# ---------------------------------------------------------------------------
# latency and report
# ---------------------------------------------------------------------------


def test_latency_percentiles():
    out = mt.latency_percentiles(list(np.arange(1.0, 101.0)))
    assert out["p50"] == pytest.approx(50.5)
    assert out["p90"] == pytest.approx(90.1)


def test_report_text_roundtrip():
    report = mt.EvalReport(
        ade=0.123456789,
        f1=0.9,
        counts=mt.ConfusionCounts(tp=3, fp=1, tn=5, fn=0),
    )
    text = report.to_text()
    kv = dict(
        line.split("=", 1) for line in text.splitlines() if "=" in line and " " not in line
    )
    assert float(kv["ade_m"]) == pytest.approx(0.123456789)
    assert kv["tp"] == "3" and kv["fn"] == "0"
    assert "metric" in text  # human-readable table present
