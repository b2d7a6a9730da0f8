"""Exit criteria for the whole system. Each test prints one pass/fail line.

Training-based criteria pin their recipes (dataset, seeds, hyperparameters)
so every run of this suite is bit-reproducible on the same platform.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

import fcw.cli as cli
import fcw.cqr as cq
import fcw.drta as dr
import fcw.metrics as mt
import fcw.model as md
import fcw.pipeline as pl
import fcw.scenario as sc
from fcw.drta import RiskWeights

from conftest import cv_episodes, grad_check, labelled_window, random_frames, tiny_config


def report(capfd, num, ok, detail):
    line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared training runs (module scope: built once, reused across criteria)
# ---------------------------------------------------------------------------


def _interaction_specs():
    """Two interaction-heavy families; brake onsets propagate with delays
    longer than the prediction horizon, so neighbor state carries signal."""
    specs = []
    for fi, family in enumerate(("sudden_braking", "cut_in")):
        for k in range(40):
            specs.append(
                sc.ScenarioSpec(
                    family=family,
                    duration=6.5,
                    n_vehicles=3,
                    brake_time=1.5,
                    seed=3 * 100_003 + fi * 1009 + k,
                    attentive=True,
                )
            )
    return specs


@pytest.fixture(scope="module")
def c3_bundle():
    episodes = sc.generate_episodes(_interaction_specs())
    config = md.desk_config(l_s=1)
    splits = sc.make_dataset(episodes, config, split_seed=0)
    t0 = time.perf_counter()
    model, _ = md.train(splits.train, config, seed=0, epochs=50, batch_size=32, base_lr=1e-2)
    train_seconds = time.perf_counter() - t0
    full = pl.prediction_metrics(model, splits.test_episodes, config)
    cv = pl.prediction_metrics(None, splits.test_episodes, config, baseline="cv")
    return {
        "config": config,
        "splits": splits,
        "model": model,
        "train_seconds": train_seconds,
        "ade_full": full["ade"],
        "ade_cv": cv["ade"],
    }


def _train_ablation(bundle, ablation, epochs=50):
    config = md.desk_config(**{"l_s": 1, **cli.MODEL_ABLATIONS[ablation]})
    model, _ = md.train(
        bundle["splits"].train, config, seed=0, epochs=epochs, batch_size=32, base_lr=1e-2
    )
    return model, config


def _ablation_report(model, config, bundle, fixed_threshold=None, no_cqr=False):
    """Full pipeline for one switch: calibrate, replay, evaluate."""
    splits = bundle["splits"]
    corr = cq.calibrate(*cq.raw_intervals(model, splits.cal_episodes), config.alpha)
    test_eps = splits.test_episodes[:2]
    events = [
        pl.warn_episode(
            model, corr, ep, RiskWeights(), fixed_threshold=fixed_threshold, no_cqr=no_cqr
        )
        for ep in test_eps
    ]
    outcomes = pl.outcomes_from_events(test_eps, events, config.t_obs)
    prediction = pl.prediction_metrics(model, splits.test_episodes, config, corr=corr)
    return pl.build_report(prediction, outcomes)


# ---------------------------------------------------------------------------
# 1. end-to-end gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_correctness(capfd):
    t0 = time.perf_counter()
    config = tiny_config()  # 3 vehicles below; T=4, T'=3, D_h=8
    model = md.init_model(config, seed=0)
    frames = random_frames(3, config.t_obs + config.t_pred, seed=1)
    window = labelled_window(frames, config)
    batch = md.prepare_batch([window], config)

    def f():
        loss, _ = md.training_loss(md.forward_batch(model, batch), batch, config)
        return loss

    err = grad_check(f, model.params, h=1e-5)
    elapsed = time.perf_counter() - t0
    report(
        capfd, 1, err < 1e-4 and elapsed < 30.0,
        f"max relative gradient error {err:.3e} (< 1e-4), {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 2. conformal coverage on heteroscedastic data
# ---------------------------------------------------------------------------


def test_criterion_2_conformal_coverage(capfd):
    t0 = time.perf_counter()
    master = 13000  # pinned so the 20-seed averages are reproducible
    levels = (0.70, 0.75, 0.80, 0.85, 0.90)
    n_cal = n_test = 1000
    results = {}
    for level in levels:
        alpha = 1.0 - level
        cal_cov, raw_cov = [], []
        for s in range(20):
            rng = np.random.default_rng(master + s)

            def draw(n):
                x = rng.uniform(0, 1, n)
                return x, 2 * x + (0.5 + x) * rng.standard_normal(n)

            xc, yc = draw(n_cal)
            xt, yt = draw(n_test)
            lo_c, up_c = 2 * xc - 0.5 * (0.5 + xc), 2 * xc + 0.5 * (0.5 + xc)
            lo_t, up_t = 2 * xt - 0.5 * (0.5 + xt), 2 * xt + 0.5 * (0.5 + xt)
            corr = cq.calibrate(lo_c, up_c, yc, alpha)
            lo, up = cq.conformal_interval(lo_t, up_t, corr)
            cal_cov.append(cq.empirical_coverage(lo, up, yt)[0])
            raw_cov.append(cq.empirical_coverage(lo_t, up_t, yt)[0])
        results[level] = (float(np.mean(cal_cov)), float(np.mean(raw_cov)))
    elapsed = time.perf_counter() - t0
    ok = all(level <= results[level][0] <= level + 0.03 for level in levels) and elapsed < 300
    detail = "; ".join(
        f"{level:.2f}: cal {c:.4f} (raw {r:.4f})" for level, (c, r) in results.items()
    )
    report(capfd, 2, ok, f"{detail}; {elapsed:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 3. learning beats the physics baseline
# ---------------------------------------------------------------------------


def test_criterion_3_beats_cv_baseline(capfd, c3_bundle):
    ade_full, ade_cv = c3_bundle["ade_full"], c3_bundle["ade_cv"]
    improvement = 1.0 - ade_full / ade_cv
    ok = ade_full <= 0.8 * ade_cv and c3_bundle["train_seconds"] < 600
    report(
        capfd, 3, ok,
        f"test ADE {ade_full:.4f} m vs CV {ade_cv:.4f} m "
        f"({improvement:.1%} better, need >= 20%), "
        f"trained in {c3_bundle['train_seconds']:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 4. exact learnability on constant-velocity data
# ---------------------------------------------------------------------------


def test_criterion_4_cv_learnability(capfd):
    episodes = cv_episodes(400, n_vehicles=1, duration=2.0, max_speed=6.0, seed=5)
    config = md.desk_config(pinball_weight=0.0, collision_weight=0.0, gru_hidden=64)
    splits = sc.make_dataset(episodes, config, split_seed=0)
    model, _ = md.train(splits.train, config, seed=0, epochs=50, batch_size=16, base_lr=5e-3)
    ade = pl.prediction_metrics(model, splits.test_episodes, config)["ade"]
    report(capfd, 4, ade < 0.05, f"trained test ADE {ade:.4f} m (< 0.05 m)")


# ---------------------------------------------------------------------------
# 5. warning-threshold invariants
# ---------------------------------------------------------------------------


def test_criterion_5_drta_invariants(capfd):
    weights = RiskWeights()

    def replay(pairs, weights):
        # one tick per (d_min, ttc) pair, every other input 0
        d, t = np.array(pairs, dtype=np.float64).T
        zero = np.zeros(len(d))
        inputs = dr.RiskInputs(d_min=d, ttc=t, sigma_pred=zero, v_rel=zero, a_rel=zero, kappa=0.0, v_ego=zero)
        return dr.replay_ticks(inputs, np.arange(len(d), dtype=np.float64), weights)

    # (a) constant stream: no warnings ever
    const_events = replay([(10.0, 1.0)] * 200, weights)
    a_ok = not any(e.triggered for e in const_events)

    # (b) step spike triggers exactly at the spike tick
    stream = [(10.0, 1.0)] * 100
    stream[60] = (0.2, 0.05)
    spike_events = replay(stream, weights)
    b_ok = [e.tick for e in spike_events if e.triggered] == [60]

    # (c) lambda nesting over 100 replayed random streams
    rng = np.random.default_rng(42)
    c_ok = True
    for _ in range(100):
        rand = [(float(rng.uniform(2, 40)), float(rng.uniform(0.2, 5.0))) for _ in range(60)]
        trig = {
            lam: {e.tick for e in replay(rand, RiskWeights(lam=lam)) if e.triggered}
            for lam in (1.5, 2.2, 3.0)
        }
        c_ok = c_ok and trig[3.0] <= trig[2.2] <= trig[1.5]

    # (d) decisions invariant under positive rescaling of the risk stream
    risks = np.array([e.risk for e in spike_events])
    d_ok = True
    for scale in (0.1, 13.0):
        mu, sigma, count = dr.window_stats_per_tick(scale * risks, weights.window_size)
        thr = np.where(count >= dr.WARMUP_MIN_SAMPLES, mu + weights.lam * sigma, math.inf)
        d_ok = d_ok and (scale * risks > thr).tolist() == [e.triggered for e in spike_events]

    report(
        capfd, 5, a_ok and b_ok and c_ok and d_ok,
        f"(a) constant quiet {a_ok}, (b) spike tick exact {b_ok}, "
        f"(c) lambda nesting x100 {c_ok}, (d) rescale invariance {d_ok}",
    )


# ---------------------------------------------------------------------------
# 6. attention work scales linearly at fixed density
# ---------------------------------------------------------------------------


def test_criterion_6_linear_scaling(capfd):
    model = md.init_model(tiny_config(), seed=0)
    bench = pl.run_bench(
        model, n_grid=[10, 20, 40, 60, 80, 100, 120], repeats=2, density=0.005, seed=0
    )
    text = bench.to_text()
    ok = (
        bench.linear_r2_edges > 0.99
        and bench.quadratic_r2_all_pairs > 0.999
        and bench.linear_r2_all_pairs < 0.99
        and "linear_r2_edges" in text
        and "quadratic_r2_all_pairs" in text
    )
    report(
        capfd, 6, ok,
        f"edges linear R^2 {bench.linear_r2_edges:.4f} (> 0.99); all-pairs quadratic "
        f"R^2 {bench.quadratic_r2_all_pairs:.4f}, linear R^2 {bench.linear_r2_all_pairs:.4f}",
    )


# ---------------------------------------------------------------------------
# 7. metric oracles on a 10-episode micro-set
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracles(capfd):
    rng = np.random.default_rng(7)
    n_eps, n_veh, t_pred = 10, 3, 5
    preds, truths, outcomes = [], [], []
    for eid in range(n_eps):
        pred = rng.uniform(-30, 30, size=(n_veh, t_pred, 2))
        truth = pred + rng.normal(0, 2, size=pred.shape)
        preds.append(pred)
        truths.append(truth)
        danger = eid % 2 == 0
        contact = 5.0 + eid if danger else None
        if danger and eid % 4 == 0:
            warnings = [contact - 1.5, contact + 1.0]
        elif danger:
            warnings = []
        elif eid % 3 == 0:
            warnings = [2.0]
        else:
            warnings = []
        outcomes.append(mt.EpisodeOutcome(eid, danger, contact, warnings))

    # brute-force recomputation with plain loops
    dsum = dcount = 0.0
    fsum = fcount = 0.0
    hits = 0
    threshold = 4.0
    for pred, truth in zip(preds, truths):
        any_close = False
        for i in range(n_veh):
            for t in range(t_pred):
                dsum += math.hypot(*(pred[i, t] - truth[i, t]))
                dcount += 1
            fsum += math.hypot(*(pred[i, -1] - truth[i, -1]))
            fcount += 1
            for j in range(i + 1, n_veh):
                for t in range(t_pred):
                    if math.hypot(*(pred[i, t] - pred[j, t])) < threshold:
                        any_close = True
        hits += any_close
    tp = fp = tn = fn = 0
    leads = []
    for o in outcomes:
        if o.danger:
            pre = [t for t in o.warning_times if t < o.contact_time]
            if pre:
                tp += 1
                leads.append(o.contact_time - min(pre))
            else:
                fn += 1
        elif o.warning_times:
            fp += 1
        else:
            tn += 1

    all_pred, all_truth = np.concatenate(preds), np.concatenate(truths)
    counts, _ = mt.classification_metrics(outcomes)
    awlt_mean, _ = mt.awlt(outcomes)
    checks = {
        "ade": abs(mt.ade(all_pred, all_truth) - dsum / dcount) < 1e-9,
        "fde": abs(mt.fde(all_pred, all_truth) - fsum / fcount) < 1e-9,
        "collision_rate": mt.collision_rate(preds, threshold) == hits / n_eps,
        "counts": (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn),
        "awlt": abs(awlt_mean - float(np.mean(leads))) < 1e-9,
    }
    report(
        capfd, 7, all(checks.values()),
        "brute-force match on 10 episodes: "
        + ", ".join(f"{k} {'ok' if v else 'MISMATCH'}" for k, v in checks.items()),
    )


# ---------------------------------------------------------------------------
# 8. ablation mechanics and degradation direction
# ---------------------------------------------------------------------------


def test_criterion_8_ablations(capfd, c3_bundle):
    ade_full = c3_bundle["ade_full"]
    results = {}

    # model-stage switches: trained on the criterion-3 dataset
    no_sam_model, no_sam_cfg = _train_ablation(c3_bundle, "no_sam")
    no_tam_model, no_tam_cfg = _train_ablation(c3_bundle, "no_tam")
    ade_no_sam = pl.prediction_metrics(no_sam_model, c3_bundle["splits"].test_episodes, no_sam_cfg)["ade"]
    ade_no_tam = pl.prediction_metrics(no_tam_model, c3_bundle["splits"].test_episodes, no_tam_cfg)["ade"]

    results["no_sam"] = _ablation_report(no_sam_model, no_sam_cfg, c3_bundle)
    results["no_tam"] = _ablation_report(no_tam_model, no_tam_cfg, c3_bundle)
    for flag in ("single_head", "no_collision_loss"):
        m, cfg = _train_ablation(c3_bundle, flag, epochs=3)
        results[flag] = _ablation_report(m, cfg, c3_bundle)
    # warning-stage switches reuse the full model
    results["fixed_threshold"] = _ablation_report(
        c3_bundle["model"], c3_bundle["config"], c3_bundle, fixed_threshold=1.0
    )
    results["no_cqr"] = _ablation_report(
        c3_bundle["model"], c3_bundle["config"], c3_bundle, no_cqr=True
    )

    mechanics_ok = all(
        isinstance(r, mt.EvalReport) and r.ade is not None and "ade_m=" in r.to_text()
        for r in results.values()
    )
    direction_ok = ade_no_sam > ade_full and ade_no_tam > ade_full
    report(
        capfd, 8, mechanics_ok and direction_ok,
        f"all 6 switches produced reports ({mechanics_ok}); test ADE full "
        f"{ade_full:.4f} < no_sam {ade_no_sam:.4f} and < no_tam {ade_no_tam:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. bit-identical training and replay
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(capfd, tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "model.d_h = 8\nmodel.k_heads = 2\nmodel.l_s = 1\nmodel.gru_hidden = 8\n"
        "model.gru_layers = 1\nmodel.m_heads = 2\nmodel.t_obs = 4\nmodel.t_pred = 3\n"
        "model.decoder_hidden = 8\n"
        "data.episodes_per_family = 3\ndata.families = sudden_braking, cut_in\n"
        "data.duration = 3.0\ndata.noise = 0.02\n"
        "train.epochs = 2\ntrain.batch_size = 16\ntrain.lr = 0.003\n"
    )
    data = tmp_path / "data"
    assert cli.main(["gen", "--config", str(cfg), "--seed", "3", "--out", str(data)]) == 0

    ckpts = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        assert (
            cli.main(["train", "--config", str(cfg), "--seed", "3",
                      "--data", str(data), "--out", str(out)]) == 0
        )
        ckpts.append(out.read_bytes())
    train_ok = ckpts[0] == ckpts[1]

    logs = []
    for name in ("e1.csv", "e2.csv"):
        out = tmp_path / name
        assert (
            cli.main(["warn", "--config", str(cfg), "--seed", "3",
                      "--checkpoint", str(tmp_path / "a.ckpt"),
                      "--data", str(data), "--out", str(out)]) == 0
        )
        logs.append(out.read_bytes())
    warn_ok = logs[0] == logs[1]

    report(
        capfd, 9, train_ok and warn_ok,
        f"checkpoints bit-identical {train_ok}, event logs bit-identical {warn_ok}",
    )


# ---------------------------------------------------------------------------
# 10. non-reproducible published figures are declared out of scope
# ---------------------------------------------------------------------------


def test_criterion_10_nonreproducibility_statement(capfd):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    needles = ["0.73", "0.912", "8.2", "2.8", "12.3", "not reproduced"]
    missing = [n for n in needles if n not in text]
    report(
        capfd, 10, not missing,
        "README states the published absolute figures (ADE/F1/FPR/AWLT/latency) "
        + ("are out of scope and not reproduced" if not missing else f"MISSING: {missing}"),
    )
