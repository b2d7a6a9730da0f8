"""Command-line surface: configuration parsing and the full command flow."""
import numpy as np
import pytest

import fcw.cli as cli

TEST_CFG = """\
# desk-scale settings for the command-flow tests
model.d_h = 8
model.k_heads = 2
model.l_s = 1
model.gru_hidden = 8
model.gru_layers = 1
model.m_heads = 2
model.t_obs = 4
model.t_pred = 3
model.decoder_hidden = 8

data.episodes_per_family = 3
data.families = sudden_braking, cut_in
data.duration = 3.0
data.noise = 0.0

train.epochs = 2
train.batch_size = 16
train.lr = 0.003
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "test.cfg"
    path.write_text(TEST_CFG)
    return str(path)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------


def test_parse_config_values(cfg_file):
    cfg = cli.parse_config_file(cfg_file)
    assert cfg.model.d_h == 8
    assert cfg.model.decoder_hidden == (8,)
    assert cfg.data.families == ("sudden_braking", "cut_in")
    assert cfg.train.lr == pytest.approx(0.003)


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.flux_capacitor = 1\n")
    with pytest.raises(ValueError, match="unknown field"):
        cli.parse_config_file(path)
    path.write_text("warp.speed = 9\n")
    with pytest.raises(ValueError, match="unknown section"):
        cli.parse_config_file(path)
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="key = value"):
        cli.parse_config_file(path)


def test_parse_config_revalidates_model(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("model.d_h = 9\n")  # not divisible by default k_heads
    with pytest.raises(ValueError):
        cli.parse_config_file(path)


def test_checked_in_smoke_config_parses():
    cfg = cli.parse_config_file("configs/smoke.cfg")
    assert cfg.model.d_h == 16
    assert cfg.train.epochs == 2


def test_parse_ablations():
    out = cli._parse_ablations("no_cqr,fixed_threshold=2.5", cli.WARN_ABLATIONS)
    assert out == {"no_cqr": True, "fixed_threshold": 2.5}
    with pytest.raises(ValueError, match="not applicable"):
        cli._parse_ablations("no_sam", cli.WARN_ABLATIONS)


# ---------------------------------------------------------------------------
# full command flow on a desk-scale dataset
# ---------------------------------------------------------------------------


def run(argv):
    return cli.main(argv)


def test_full_command_flow(tmp_path, cfg_file, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    calib = tmp_path / "calib.json"
    events = tmp_path / "events.csv"
    report = tmp_path / "report.txt"

    assert run(["gen", "--config", cfg_file, "--seed", "0", "--out", str(data)]) == 0
    assert (data / "trajectories.csv").exists()
    assert (data / "labels.csv").exists()

    assert (
        run(["train", "--config", cfg_file, "--seed", "0", "--data", str(data), "--out", str(ckpt)])
        == 0
    )
    assert ckpt.exists() and (tmp_path / "model.ckpt.log").exists()

    assert (
        run(
            ["calibrate", "--config", cfg_file, "--checkpoint", str(ckpt),
             "--data", str(data), "--alpha", "0.2", "--out", str(calib)]
        )
        == 0
    )
    assert "calibrated coverage" in capsys.readouterr().out

    assert (
        run(
            ["warn", "--config", cfg_file, "--checkpoint", str(ckpt),
             "--calibration", str(calib), "--data", str(data), "--out", str(events)]
        )
        == 0
    )
    first = events.read_bytes()

    # identical invocation is bit-identical (determinism contract)
    assert (
        run(
            ["warn", "--config", cfg_file, "--checkpoint", str(ckpt),
             "--calibration", str(calib), "--data", str(data), "--out", str(events)]
        )
        == 0
    )
    assert events.read_bytes() == first

    assert (
        run(
            ["eval", "--config", cfg_file, "--data", str(data), "--events", str(events),
             "--checkpoint", str(ckpt), "--calibration", str(calib), "--out", str(report)]
        )
        == 0
    )
    text = report.read_text()
    assert "ade_m=" in text and "coverage=" in text and "tp=" in text

    assert run(["bench", "--checkpoint", str(ckpt), "--n-grid", "8,16,32", "--repeats", "1"]) == 0
    assert "linear_r2_edges=" in capsys.readouterr().out


def test_calibrate_one_pass_matches_prediction_metrics(tmp_path, cfg_file, capsys, monkeypatch):
    import fcw.cqr as cq
    import fcw.model as md
    import fcw.pipeline as pl
    import fcw.scenario as sc

    data, ckpt, calib = tmp_path / "data", tmp_path / "model.ckpt", tmp_path / "calib.json"
    assert run(["gen", "--config", cfg_file, "--seed", "2", "--out", str(data)]) == 0
    assert run(["train", "--config", cfg_file, "--seed", "2", "--data", str(data), "--out", str(ckpt)]) == 0
    capsys.readouterr()

    # count forward passes; a small chunk makes the calibration split span several
    chunk = 10
    rows_per_call = []
    real_forward = md.forward_batch

    def counting_forward(model, batch, counter=None):
        rows_per_call.append(len(batch.offsets) - 1)
        return real_forward(model, batch, counter)

    monkeypatch.setattr(md, "forward_batch", counting_forward)
    monkeypatch.setattr(md, "PREDICT_CHUNK", chunk)
    assert run(["calibrate", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(data), "--alpha", "0.2", "--out", str(calib)]) == 0
    printed = capsys.readouterr().out

    model, model_cfg = cli._load_model(str(ckpt))
    episodes = sc.load_dataset(data / "trajectories.csv", data / "labels.csv")
    cal = sc.make_dataset(episodes, model_cfg, split_seed=cli.parse_config_file(cfg_file).data.split_seed).cal
    assert len(cal) > chunk
    assert len(rows_per_call) == -(-len(cal) // chunk)  # one pass per chunk, not two per window
    assert sum(rows_per_call) == len(cal)

    stats = pl.prediction_metrics(model, cal, model_cfg, corr=cq.load_correction(calib))
    assert (
        f"raw coverage={stats['raw_coverage']:.3f}  calibrated coverage={stats['coverage']:.3f}  "
        f"mean width={stats['mean_width']:.3f} m"
    ) in printed


def test_commands_window_only_their_split_and_match_make_dataset(tmp_path, cfg_file, capsys):
    import fcw.cqr as cq
    import fcw.model as md
    import fcw.pipeline as pl
    import fcw.scenario as sc
    from fcw.checkpoint import save_checkpoint

    data, ckpt, calib = tmp_path / "data", tmp_path / "model.ckpt", tmp_path / "calib.json"
    events, report = tmp_path / "events.csv", tmp_path / "report.txt"
    assert run(["gen", "--config", cfg_file, "--seed", "3", "--out", str(data)]) == 0
    assert run(["train", "--config", cfg_file, "--seed", "3", "--data", str(data), "--out", str(ckpt)]) == 0
    assert run(["calibrate", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(data), "--alpha", "0.2", "--out", str(calib)]) == 0
    assert run(["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--calibration", str(calib),
                "--data", str(data), "--out", str(events)]) == 0
    assert run(["eval", "--config", cfg_file, "--data", str(data), "--events", str(events),
                "--checkpoint", str(ckpt), "--calibration", str(calib), "--out", str(report)]) == 0
    capsys.readouterr()

    # the same artifacts written from make_dataset, which windows every split
    cfg = cli.parse_config_file(cfg_file)
    traj, labels = data / "trajectories.csv", data / "labels.csv"
    splits = sc.make_dataset(sc.load_dataset(traj, labels), cfg.model, split_seed=cfg.data.split_seed)
    assert splits.cal and splits.test_episodes
    model, _ = md.train(splits.train, cfg.model, seed=3, epochs=cfg.train.epochs,
                        batch_size=cfg.train.batch_size, base_lr=cfg.train.lr)
    ref = tmp_path / "ref"
    ref.mkdir()
    save_checkpoint(ref / "model.ckpt", model.params, cfg.model.to_dict())
    assert (ref / "model.ckpt").read_bytes() == ckpt.read_bytes()

    model, model_cfg = cli._load_model(str(ckpt))
    model_cfg.alpha = 0.2
    lower, upper, targets = cq.raw_intervals(model, splits.cal)
    corr = cq.calibrate(lower, upper, targets, model_cfg.alpha)
    cq.save_correction(ref / "calib.json", corr, fingerprint=str(traj))
    assert (ref / "calib.json").read_bytes() == calib.read_bytes()

    replayed = [
        pl.warn_episode(model, corr, ep, cfg.risk.weights(), window_size=cfg.risk.window_size)
        for ep in splits.test_episodes
    ]
    pl.save_events(ref / "events.csv", replayed)
    assert (ref / "events.csv").read_bytes() == events.read_bytes()

    prediction = pl.prediction_metrics(model, splits.test, model_cfg, corr=corr)
    outcomes = pl.outcomes_from_events(splits.test_episodes, replayed)
    assert pl.build_report(prediction, outcomes).to_text() == report.read_text()


def test_train_is_bit_identical_across_runs(tmp_path, cfg_file):
    data = tmp_path / "data"
    assert run(["gen", "--config", cfg_file, "--seed", "1", "--out", str(data)]) == 0
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for out in (c1, c2):
        assert (
            run(["train", "--config", cfg_file, "--seed", "1", "--data", str(data), "--out", str(out)])
            == 0
        )
    assert c1.read_bytes() == c2.read_bytes()


def test_train_ablation_switch(tmp_path, cfg_file):
    data = tmp_path / "data"
    assert run(["gen", "--config", cfg_file, "--out", str(data)]) == 0
    ckpt = tmp_path / "ns.ckpt"
    assert (
        run(["train", "--config", cfg_file, "--data", str(data), "--out", str(ckpt),
             "--ablation", "no_sam"])
        == 0
    )
    from fcw.checkpoint import load_checkpoint

    store, cfg_dict = load_checkpoint(ckpt)
    assert cfg_dict["no_sam"] is True
    assert not any(p.startswith("gat") for p in store.paths())


def test_warn_fixed_threshold_and_no_cqr(tmp_path, cfg_file):
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    assert run(["gen", "--config", cfg_file, "--out", str(data)]) == 0
    assert run(["train", "--config", cfg_file, "--data", str(data), "--out", str(ckpt)]) == 0
    ev = tmp_path / "ev.csv"
    assert (
        run(["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(data),
             "--out", str(ev), "--ablation", "fixed_threshold=0.9,no_cqr"])
        == 0
    )
    import fcw.pipeline as pl

    for ee in pl.load_events(ev):
        assert all(e.threshold == 0.9 for e in ee.events)


def test_cli_errors_exit_nonzero(tmp_path, cfg_file, capsys):
    # missing dataset directory
    assert run(["train", "--config", cfg_file, "--data", str(tmp_path / "nope"),
                "--out", str(tmp_path / "x.ckpt")]) == 1
    assert "error:" in capsys.readouterr().err
    # invalid ablation name
    data = tmp_path / "data"
    assert run(["gen", "--config", cfg_file, "--out", str(data)]) == 0
    assert run(["train", "--config", cfg_file, "--data", str(data),
                "--out", str(tmp_path / "y.ckpt"), "--ablation", "no_cqr"]) == 1


def test_empty_calibration_split_is_clean_error(tmp_path, cfg_file, capsys):
    # two episodes only: the splitter keeps everything in train
    few = tmp_path / "few.cfg"
    few.write_text(TEST_CFG.replace("data.episodes_per_family = 3", "data.episodes_per_family = 1"))
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    assert run(["gen", "--config", str(few), "--out", str(data)]) == 0
    assert run(["train", "--config", str(few), "--data", str(data), "--out", str(ckpt)]) == 0
    rc = run(["calibrate", "--config", str(few), "--checkpoint", str(ckpt),
              "--data", str(data), "--out", str(tmp_path / "c.json")])
    assert rc == 1
    assert "calibration split is empty" in capsys.readouterr().err


def test_lambda_presets_via_mode(tmp_path, cfg_file):
    cfg = cli.parse_config_file(cfg_file)
    ns = type("A", (), {"config": cfg_file, "seed": None, "alpha": None, "mode": "highway", "lam": None})()
    loaded = cli._load_config(ns)
    assert loaded.risk.lam == pytest.approx(2.6)
