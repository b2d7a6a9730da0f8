"""Risk potential, adaptive threshold, and warning decisions."""
import dataclasses
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


def stack_inputs(stream):
    """One ``RiskInputs`` of (ticks,) arrays from per-tick inputs."""
    names = [f.name for f in dataclasses.fields(dr.RiskInputs)]
    return dr.RiskInputs(**{k: np.array([getattr(i, k) for i in stream], dtype=np.float64) for k in names})


def replay(stream, weights, fixed_threshold=None):
    """``replay_ticks`` over a list of per-tick inputs, tick i at time i."""
    return dr.replay_ticks(stack_inputs(stream), np.arange(len(stream), dtype=np.float64), weights, fixed_threshold)


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
    mu, sigma, count = dr.window_stats_per_tick(np.array([1.0, 2.0, 3.0, 9.0]), 10)
    assert (mu[3], count[3]) == (pytest.approx(2.0), 3)
    assert sigma[3] == pytest.approx(1.0)  # sample std, W-1 denominator


def test_window_evicts_oldest():
    # at window_size the oldest risk leaves: tick 4 reads 2, 3, 4 only
    mu, sigma, count = dr.window_stats_per_tick(np.array([1.0, 2.0, 3.0, 4.0, 9.0]), 3)
    assert count.tolist() == [0, 1, 2, 3, 3]
    assert (mu[4], sigma[4]) == (pytest.approx(3.0), pytest.approx(1.0))


def test_window_single_value_std_zero():
    mu, sigma, count = dr.window_stats_per_tick(np.array([7.0, 1.0]), 5)
    assert (mu[1], sigma[1], count[1]) == (7.0, 0.0, 1)
    assert (mu[0], sigma[0], count[0]) == (0.0, 0.0, 0)  # nothing before the first tick


def test_window_capacity_validation():
    for size in (1, 0):
        with pytest.raises(ValueError, match="window_size"):
            dr.RiskWeights(window_size=size)


def test_dynamic_threshold_formula():
    stream = quiet_stream(8) + [make_inputs(d_min=float(d)) for d in range(2, 12)]
    for e in replay(stream, dr.RiskWeights(lam=2.6)):
        if e.tick >= dr.WARMUP_MIN_SAMPLES:
            assert e.threshold == e.mu + 2.6 * e.sigma


def test_decide_strict_inequality():
    weights = dr.RiskWeights()
    risk = float(dr.risk_terms(make_inputs(), weights)[3])
    assert not any(e.triggered for e in replay(quiet_stream(3), weights, fixed_threshold=risk))
    below = np.nextafter(risk, -math.inf)
    assert all(e.triggered for e in replay(quiet_stream(3), weights, fixed_threshold=below))


# ---------------------------------------------------------------------------
# replayed tracks
# ---------------------------------------------------------------------------


def test_warmup_suppresses_warnings():
    stream = quiet_stream(dr.WARMUP_MIN_SAMPLES, {"d_min": 0.1, "ttc": 0.1}) + quiet_stream(3)
    events = replay(stream, dr.RiskWeights())
    assert [e.threshold == math.inf for e in events] == [t < dr.WARMUP_MIN_SAMPLES for t in range(len(stream))]
    assert all(not e.triggered for e in events[: dr.WARMUP_MIN_SAMPLES])


def test_threshold_computed_before_push():
    # the spike's own value must not enter the stats that gate it
    stream = quiet_stream(dr.WARMUP_MIN_SAMPLES) + [make_inputs(d_min=0.1, ttc=0.01)]
    spike = replay(stream, dr.RiskWeights())[-1]
    baseline = oracles.risk_total(make_inputs(), dr.RiskWeights())
    assert spike.mu == pytest.approx(baseline)
    assert spike.sigma == pytest.approx(0.0)
    assert spike.triggered


def test_constant_stream_never_triggers():
    events = replay(quiet_stream(200), dr.RiskWeights())
    assert not any(e.triggered for e in events)


def test_step_spike_triggers_exactly_at_spike_tick(rng):
    stream = quiet_stream(100)
    stream[60] = make_inputs(d_min=0.2, ttc=0.05)
    events = replay(stream, dr.RiskWeights())
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
            events = replay(stream, dr.RiskWeights(lam=lam))
            trig[lam] = {e.tick for e in events if e.triggered}
        assert trig[3.0] <= trig[2.2] <= trig[1.5]


def test_decisions_invariant_under_positive_rescale():
    rng = np.random.default_rng(4)
    stream = [
        make_inputs(d_min=float(rng.uniform(2, 40)), ttc=float(rng.uniform(0.2, 5)))
        for _ in range(80)
    ]
    weights = dr.RiskWeights()
    events = replay(stream, weights)
    base = [e.triggered for e in events]
    # rescale the risk stream itself: run the scaled risks through the window statistics
    risks = np.array([e.risk for e in events])
    for scale in (0.25, 7.0):
        mu, sigma, count = dr.window_stats_per_tick(scale * risks, weights.window_size)
        thr = np.where(count >= dr.WARMUP_MIN_SAMPLES, mu + weights.lam * sigma, math.inf)
        assert (scale * risks > thr).tolist() == base


def test_fixed_threshold_bypasses_statistics():
    stream = quiet_stream(10, {"d_min": 0.2, "ttc": 0.05})
    events = replay(stream, dr.RiskWeights(), fixed_threshold=0.5)
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
    events = replay(stream, weights)
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
# risk inputs from predictions
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
    inp = dr.risk_inputs_per_tick(pred, last[None], curvature=0.0, dt=dt, r_collision=4.0)
    # closest approach 10 m at the last step; never within 4 m, so no contact
    assert inp.d_min == pytest.approx([10.0])
    assert inp.ttc.tolist() == [math.inf]
    assert inp.v_rel == pytest.approx([10.0])  # closing at ego speed
    assert inp.v_ego == pytest.approx([10.0])
    assert inp.sigma_pred == pytest.approx([1.0])  # half of the uniform width 2


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
    inp = dr.risk_inputs_per_tick(pred, last[None], curvature=0.0, dt=dt, r_collision=4.0)
    # first step with distance <= 4 m is step 2 (1-based): ttc = 2 * 0.5
    assert inp.ttc == pytest.approx([1.0])
    assert inp.d_min == pytest.approx([1.0])


def test_extract_risk_inputs_no_threats():
    last = np.array([[0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 4.5, 1.8]])
    traj = np.zeros((3, 2))
    pred = md.PredictionBatch(point=traj[None], lower=traj[None], upper=traj[None])
    inp = dr.risk_inputs_per_tick(pred, last[None], curvature=0.01, dt=0.1)
    assert inp.ttc.tolist() == [math.inf] and inp.d_min.tolist() == [math.inf]
    assert inp.v_rel.tolist() == [0.0] and inp.kappa == 0.01
    assert dr.risk_pred(inp, dr.RiskWeights()).tolist() == [0.0]


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


# ---------------------------------------------------------------------------
# whole replays as arrays against the streamed track
# ---------------------------------------------------------------------------


def random_stream(rng, ticks, spikes):
    """Quiet random ticks, and at ``spikes`` a near-contact tick whose risk
    lies far (over 10 sigma) above the quiet ones."""
    stream = []
    for i in range(ticks):
        if i in spikes:
            stream.append(make_inputs(d_min=0.1, ttc=0.05, sigma_pred=float(rng.uniform(0, 2))))
            continue
        stream.append(
            make_inputs(
                d_min=float(rng.uniform(5, 40)),
                ttc=math.inf if rng.random() < 0.3 else float(rng.uniform(0.5, 5)),
                sigma_pred=float(rng.uniform(0, 2)),
                v_rel=float(rng.uniform(-10, 10)),
                a_rel=float(rng.uniform(-3, 3)),
                kappa=float(rng.uniform(-0.02, 0.02)),
                v_ego=float(rng.uniform(0, 30)),
            )
        )
    return stream


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ticks=st.integers(0, 90),
    window_size=st.integers(2, 60),
    fixed=st.one_of(st.none(), st.floats(0.0, 3.0)),
    spikes=st.sets(st.integers(0, 89), max_size=4),
    lam=st.sampled_from([1.5, 2.2, 3.0]),
)
def test_replay_ticks_matches_the_streamed_track(seed, ticks, window_size, fixed, spikes, lam):
    weights = dr.RiskWeights(lam=lam, window_size=window_size)
    stream = random_stream(np.random.default_rng(seed), ticks, spikes)
    got = replay(stream, weights, fixed)
    want = oracles.replay_stream(stream, weights, fixed_threshold=fixed)
    assert len(got) == len(want) == ticks
    for g, e in zip(got, want):
        assert (g.tick, g.time) == (e.tick, e.time)
        # one risk formula for both paths, bit for bit
        assert (g.risk, g.r_pred, g.r_kin, g.r_geo) == (e.risk, e.r_pred, e.r_kin, e.r_geo)
        if g.tick >= window_size:  # a full window sums in the same order
            assert (g.mu, g.sigma) == (e.mu, e.sigma)
        assert g.mu == pytest.approx(e.mu, rel=0.0, abs=1e-12)
        assert g.sigma == pytest.approx(e.sigma, rel=0.0, abs=1e-12)
        if fixed is not None or math.isinf(e.threshold):
            assert g.threshold == e.threshold
        else:
            assert g.threshold == pytest.approx(e.threshold, rel=0.0, abs=1e-12)
        # a decision flips only when the risk lies within rounding of the threshold
        if abs(e.risk - e.threshold) > 1e-12 * max(1.0, abs(e.threshold)):
            assert g.triggered == e.triggered
        assert all(type(getattr(g, k)) is float for k in ("time", "risk", "threshold", "mu", "sigma"))
        assert type(g.triggered) is bool


def test_replay_ticks_spike_warns_at_its_tick():
    stream = random_stream(np.random.default_rng(3), 80, {60})
    events = replay(stream, dr.RiskWeights())
    warned = [e.tick for e in events if e.triggered]
    assert warned == [e.tick for e in oracles.replay_stream(stream, dr.RiskWeights()) if e.triggered]
    assert 60 in warned
    events = replay(stream[:10], dr.RiskWeights())
    assert [math.isinf(e.threshold) for e in events] == [t < dr.WARMUP_MIN_SAMPLES for t in range(10)]


def test_replay_ticks_rejects_a_one_slot_window():
    # the window size reaches replay_ticks in its RiskWeights, and its
    # statistics come from window_stats_per_tick: both refuse one slot
    with pytest.raises(ValueError, match="window_size"):
        replay(quiet_stream(3), dr.RiskWeights(window_size=1))
    with pytest.raises(ValueError, match="window_size"):
        dr.window_stats_per_tick(np.zeros(3), 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    ticks=st.integers(0, 6),
    n=st.integers(1, 5),
    steps=st.integers(1, 5),
)
def test_risk_inputs_per_tick_match_the_tick_loop(seed, ticks, n, steps):
    rng = np.random.default_rng(seed)
    last = rng.uniform(-8, 8, size=(ticks, n, 8))
    # a 16 m box around a 4 m contact radius: contact and none both common
    point = rng.uniform(-8, 8, size=(ticks * n, steps, 2))
    lower = point - rng.uniform(0, 2, size=point.shape)
    upper = point + rng.uniform(0, 2, size=point.shape)
    if ticks and n >= 3:
        point[2] = point[1]  # two threats tie for the nearest
        last[0, 1, 0:2] = last[0, 0, 0:2]  # and the first sits on the ego: no ego-threat line
    got = dr.risk_inputs_per_tick(md.PredictionBatch(point, lower, upper), last, 0.01, 0.1, 4.0)
    for t in range(ticks):
        rows = slice(t * n, (t + 1) * n)
        pred = md.PredictionBatch(point=point[rows], lower=lower[rows], upper=upper[rows])
        want = oracles.risk_inputs_one_tick(pred, last[t], 0.01, 0.1, 4.0)
        for f in dataclasses.fields(dr.RiskInputs):
            value = getattr(got, f.name)
            assert (value if np.ndim(value) == 0 else value[t]) == getattr(want, f.name), f.name
