"""Risk potential, adaptive threshold, and warning decisions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcw.drta as dr
import fcw.model as md

import oracles


def make_inputs(**overrides):
    base = dict(
        d_min=10.0, ttc=1.0, sigma_pred=0.0, v_rel=0.0, a_rel=0.0, kappa=0.0, v_ego=0.0
    )
    base.update(overrides)
    return dr.RiskInputs(**base)


def quiet_stream(n, risk_kwargs=None):
    return [make_inputs(**(risk_kwargs or {})) for _ in range(n)]


# ---------------------------------------------------------------------------
# component risks
# ---------------------------------------------------------------------------


def test_weights_validation():
    with pytest.raises(ValueError):
        dr.RiskWeights(w_pred=0.5, w_kin=0.5, w_geo=0.5)
    with pytest.raises(ValueError):
        dr.RiskWeights(w_pred=1.2, w_kin=-0.1, w_geo=-0.1)
    with pytest.raises(ValueError):
        dr.RiskWeights(lam=1.0)
    with pytest.raises(ValueError):
        dr.RiskWeights(tau=0.0)


def test_inputs_validation():
    with pytest.raises(ValueError):
        make_inputs(d_min=-1.0)
    with pytest.raises(ValueError):
        make_inputs(sigma_pred=-0.1)


def test_risk_pred_hand_value():
    # d=10, ttc=tau, sigma=0: (1/10) * e^-1
    w = dr.RiskWeights()
    out = dr.risk_pred(make_inputs(d_min=10.0, ttc=w.tau), w)
    assert out == pytest.approx(math.exp(-1.0) / 10.0, abs=1e-15)


def test_risk_pred_no_contact_is_zero():
    assert dr.risk_pred(make_inputs(ttc=math.inf), dr.RiskWeights()) == 0.0


def test_risk_pred_distance_clamp():
    # d_min below the clamp behaves like d = 0.1, keeping risk finite
    w = dr.RiskWeights()
    tiny = dr.risk_pred(make_inputs(d_min=0.0, ttc=0.0), w)
    assert tiny == pytest.approx(1.0 / dr.D_MIN_CLAMP)


def test_risk_pred_uncertainty_inflation():
    w = dr.RiskWeights()
    base = dr.risk_pred(make_inputs(sigma_pred=0.0), w)
    wide = dr.risk_pred(make_inputs(sigma_pred=1.0), w)
    assert wide == pytest.approx(2.0 * base)


def test_risk_kin_hand_value():
    # 10/20 + 1.0 * 2/8 = 0.75
    w = dr.RiskWeights(v_safe=20.0, a_max=8.0, gamma=1.0)
    assert dr.risk_kin(make_inputs(v_rel=10.0, a_rel=2.0), w) == pytest.approx(0.75)


def test_risk_kin_floor_at_minus_one():
    w = dr.RiskWeights()
    assert dr.risk_kin(make_inputs(v_rel=-1000.0), w) == -1.0


def test_risk_geo_hand_value():
    # 1 + 0.5 * 0.01 * 20 = 1.1
    w = dr.RiskWeights(beta=0.5)
    assert dr.risk_geo(make_inputs(kappa=0.01, v_ego=20.0), w) == pytest.approx(1.1)


def test_risk_geo_uses_absolute_curvature():
    w = dr.RiskWeights()
    left = dr.risk_geo(make_inputs(kappa=0.02, v_ego=10.0), w)
    right = dr.risk_geo(make_inputs(kappa=-0.02, v_ego=10.0), w)
    assert left == right


def test_risk_total_weighted_sum():
    # components 0.0368, 0.75, 1.1 at weights (0.5, 0.3, 0.2)
    w = dr.RiskWeights(w_pred=0.5, w_kin=0.3, w_geo=0.2, v_safe=20.0, beta=0.5)
    inp = make_inputs(d_min=10.0, ttc=1.0, v_rel=10.0, a_rel=2.0, kappa=0.01, v_ego=20.0)
    expected = (
        0.5 * (math.exp(-1.0) / 10.0) + 0.3 * 0.75 + 0.2 * 1.1
    )
    assert oracles.risk_total(inp, w) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# window and threshold
# ---------------------------------------------------------------------------


def test_window_stats_hand_value():
    win = dr.SlidingWindow(10)
    for v in (1.0, 2.0, 3.0):
        win.push(v)
    mu, sigma = dr.window_stats(win)
    assert mu == pytest.approx(2.0)
    assert sigma == pytest.approx(1.0)  # sample std, W-1 denominator


def test_window_evicts_oldest():
    win = dr.SlidingWindow(3)
    for v in (1.0, 2.0, 3.0, 4.0):
        win.push(v)
    assert list(win.values) == [2.0, 3.0, 4.0]


def test_window_single_value_std_zero():
    win = dr.SlidingWindow(5)
    win.push(7.0)
    assert dr.window_stats(win) == (7.0, 0.0)


def test_window_capacity_validation():
    with pytest.raises(ValueError):
        dr.SlidingWindow(1)


def test_dynamic_threshold_formula():
    assert dr.dynamic_threshold(2.0, 1.0, 2.2) == pytest.approx(4.2)
    with pytest.raises(ValueError):
        dr.dynamic_threshold(0.0, -1.0, 2.2)


def test_decide_strict_inequality():
    assert not dr.decide(1.0, 1.0)
    assert dr.decide(1.0 + 1e-12, 1.0)


# ---------------------------------------------------------------------------
# track stepping
# ---------------------------------------------------------------------------


def test_warmup_suppresses_warnings():
    track = dr.TrackState(weights=dr.RiskWeights())
    events = [track.step(make_inputs(d_min=0.1, ttc=0.1)) for _ in range(dr.WARMUP_MIN_SAMPLES)]
    assert all(not e.triggered for e in events)
    assert all(e.threshold == math.inf for e in events)


def test_threshold_computed_before_push():
    # the spike's own value must not enter the stats that gate it
    track = dr.TrackState(weights=dr.RiskWeights(), min_samples=2)
    track.step(make_inputs())
    track.step(make_inputs())
    spike = track.step(make_inputs(d_min=0.1, ttc=0.01))
    baseline = oracles.risk_total(make_inputs(), dr.RiskWeights())
    assert spike.mu == pytest.approx(baseline)
    assert spike.sigma == pytest.approx(0.0)
    assert spike.triggered


def test_constant_stream_never_triggers():
    events = oracles.replay_stream(quiet_stream(200), dr.RiskWeights())
    assert not any(e.triggered for e in events)


def test_step_spike_triggers_exactly_at_spike_tick(rng):
    stream = quiet_stream(100)
    stream[60] = make_inputs(d_min=0.2, ttc=0.05)
    events = oracles.replay_stream(stream, dr.RiskWeights())
    assert [e.tick for e in events if e.triggered] == [60]


def test_lambda_nesting_on_random_streams():
    # lower lambda can only add triggered ticks, never remove them
    rng = np.random.default_rng(3)
    for _ in range(20):
        stream = [
            make_inputs(d_min=float(rng.uniform(2, 40)), ttc=float(rng.uniform(0.2, 5)))
            for _ in range(80)
        ]
        trig = {}
        for lam in (1.5, 2.2, 3.0):
            events = oracles.replay_stream(stream, dr.RiskWeights(lam=lam))
            trig[lam] = {e.tick for e in events if e.triggered}
        assert trig[3.0] <= trig[2.2] <= trig[1.5]


def test_decisions_invariant_under_positive_rescale():
    rng = np.random.default_rng(4)
    stream = [
        make_inputs(d_min=float(rng.uniform(2, 40)), ttc=float(rng.uniform(0.2, 5)))
        for _ in range(80)
    ]
    events = oracles.replay_stream(stream, dr.RiskWeights())
    base = [e.triggered for e in events]
    # rescale the risk stream itself: push scaled values through threshold logic
    for scale in (0.25, 7.0):
        track = dr.SlidingWindow(50)
        decisions = []
        for i, e in enumerate(events):
            mu, sigma = dr.window_stats(track)
            thr = dr.dynamic_threshold(mu, sigma, 2.2) if len(track) >= 5 else math.inf
            decisions.append(dr.decide(scale * e.risk, thr))
            track.push(scale * e.risk)
        assert decisions == base


def test_fixed_threshold_bypasses_statistics():
    stream = quiet_stream(10, {"d_min": 0.2, "ttc": 0.05})
    events = oracles.replay_stream(stream, dr.RiskWeights(), fixed_threshold=0.5)
    assert all(e.triggered for e in events)  # no warm-up with a fixed threshold
    assert all(e.threshold == 0.5 for e in events)


def test_replay_matches_manual_stepping():
    # recompute every tick from scratch: risk from risk_total, threshold from
    # the previous (up to 50) risks, warm-up for the first five ticks
    rng = np.random.default_rng(5)
    weights = dr.RiskWeights()
    stream = [
        make_inputs(d_min=float(rng.uniform(1, 30)), v_rel=float(rng.uniform(-5, 5)))
        for _ in range(80)
    ]
    events = oracles.replay_stream(stream, weights)
    risks = []
    for i, (inp, ev) in enumerate(zip(stream, events)):
        risk = oracles.risk_total(inp, weights)
        assert ev.risk == risk  # the one risk formula, bit for bit
        assert (ev.r_pred, ev.r_kin, ev.r_geo) == (
            dr.risk_pred(inp, weights), dr.risk_kin(inp, weights), dr.risk_geo(inp, weights)
        )
        recent = np.array(risks[-50:])
        if len(recent) < dr.WARMUP_MIN_SAMPLES:
            threshold = math.inf
        else:
            threshold = recent.mean() + weights.lam * recent.std(ddof=1)
        assert ev.tick == i
        assert ev.threshold == pytest.approx(threshold, rel=1e-12, abs=1e-12)
        assert ev.triggered == (risk > ev.threshold)
        risks.append(risk)


# ---------------------------------------------------------------------------
# risk-input extraction from predictions
# ---------------------------------------------------------------------------


def test_extract_risk_inputs_head_on():
    # ego at origin moving +x at 10; threat 30 m ahead, stationary
    last = np.array(
        [
            [0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 4.5, 1.8],
            [30.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.5, 1.8],
        ]
    )
    t_pred, dt = 4, 0.5
    ego = np.array([[5.0, 0.0], [10.0, 0.0], [15.0, 0.0], [20.0, 0.0]])
    threat = np.tile([30.0, 0.0], (t_pred, 1))
    pred = md.PredictionBatch(
        point=np.stack([ego, threat]),
        lower=np.stack([ego, threat]) - 1.0,
        upper=np.stack([ego, threat]) + 1.0,
    )
    inp = dr.extract_risk_inputs(pred, 0, [1], last, curvature=0.0, dt=dt, r_collision=4.0)
    # closest approach 10 m at the last step; never within 4 m, so no contact
    assert inp.d_min == pytest.approx(10.0)
    assert inp.ttc == math.inf
    assert inp.v_rel == pytest.approx(10.0)  # closing at ego speed
    assert inp.v_ego == pytest.approx(10.0)
    assert inp.sigma_pred == pytest.approx(1.0)  # half of the uniform width 2


def test_extract_risk_inputs_contact_step():
    last = np.array(
        [
            [0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 4.5, 1.8],
            [12.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.5, 1.8],
        ]
    )
    dt = 0.5
    ego = np.array([[5.0, 0.0], [9.0, 0.0], [11.0, 0.0]])
    threat = np.tile([12.0, 0.0], (3, 1))
    pred = md.PredictionBatch(point=np.stack([ego, threat]), lower=np.stack([ego, threat]), upper=np.stack([ego, threat]))
    inp = dr.extract_risk_inputs(pred, 0, [1], last, curvature=0.0, dt=dt, r_collision=4.0)
    # first step with distance <= 4 m is step 2 (1-based): ttc = 2 * 0.5
    assert inp.ttc == pytest.approx(1.0)
    assert inp.d_min == pytest.approx(1.0)


def test_extract_risk_inputs_no_threats():
    last = np.array([[0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 4.5, 1.8]])
    traj = np.zeros((3, 2))
    pred = md.PredictionBatch(point=traj[None], lower=traj[None], upper=traj[None])
    inp = dr.extract_risk_inputs(pred, 0, [], last, curvature=0.01, dt=0.1)
    assert inp.ttc == math.inf and inp.d_min == math.inf
    assert inp.v_rel == 0.0 and inp.kappa == 0.01
    assert dr.risk_pred(inp, dr.RiskWeights()) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_risk_total_nonnegative_weights_bounded_below(seed):
    # total risk is bounded below by -w_kin (kin floored at -1, others >= 0)
    rng = np.random.default_rng(seed)
    w = dr.RiskWeights()
    inp = make_inputs(
        d_min=float(rng.uniform(0, 50)),
        ttc=float(rng.uniform(0, 10)),
        sigma_pred=float(rng.uniform(0, 3)),
        v_rel=float(rng.uniform(-50, 50)),
        a_rel=float(rng.uniform(-20, 20)),
        kappa=float(rng.uniform(-0.1, 0.1)),
        v_ego=float(rng.uniform(0, 40)),
    )
    assert oracles.risk_total(inp, w) >= -w.w_kin - 1e-12
