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
    from fcw.checkpoint import checkpoint_sha256, save_checkpoint

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
    cq.save_correction(ref / "calib.json", corr, checkpoint_sha256(ckpt))
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


# ---------------------------------------------------------------------------
# malformed checkpoint and calibration files end in a clean error
# ---------------------------------------------------------------------------


@pytest.fixture
def artifacts(tmp_path, cfg_file):
    """A dataset, an untrained checkpoint and its calibration."""
    import fcw.model as md
    from fcw.checkpoint import save_checkpoint

    data, ckpt, calib = tmp_path / "data", tmp_path / "model.ckpt", tmp_path / "calib.json"
    assert run(["gen", "--config", cfg_file, "--seed", "0", "--out", str(data)]) == 0
    model_cfg = cli.parse_config_file(cfg_file).model
    save_checkpoint(ckpt, md.init_model(model_cfg, seed=0).params, model_cfg.to_dict())
    assert run(["calibrate", "--config", cfg_file, "--checkpoint", str(ckpt),
                "--data", str(data), "--out", str(calib)]) == 0
    return data, ckpt, calib


def assert_clean_error(argv, capsys, *needles):
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    for needle in needles:
        assert needle in err


def calibrate_argv(cfg_file, data, ckpt, tmp_path):
    return ["calibrate", "--config", cfg_file, "--checkpoint", str(ckpt),
            "--data", str(data), "--out", str(tmp_path / "out.json")]


def test_truncated_checkpoint_header_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    data, ckpt, _ = artifacts
    blob = ckpt.read_bytes()
    for cut in (12, 40):  # inside the length field, inside the header
        ckpt.write_bytes(blob[:cut])
        assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, str(ckpt), "truncated")


def test_trailing_checkpoint_bytes_are_clean_error(tmp_path, cfg_file, capsys, artifacts):
    data, ckpt, _ = artifacts
    ckpt.write_bytes(ckpt.read_bytes() + b"\0")
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, str(ckpt), "trailing")


@pytest.mark.parametrize("change", ["unknown", "missing"])
def test_checkpoint_config_keys_are_checked(tmp_path, cfg_file, capsys, artifacts, change):
    from fcw.checkpoint import load_checkpoint, save_checkpoint

    data, ckpt, _ = artifacts
    store, config = load_checkpoint(ckpt)
    if change == "unknown":
        config["flux_capacitor"] = 1
    else:
        del config["radius"]
    save_checkpoint(ckpt, store, config)
    key = "flux_capacitor" if change == "unknown" else "radius"
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, f"{change} ['{key}']")


@pytest.mark.parametrize("change", ["no n_cal", "q not q_shape"])
def test_malformed_calibration_is_clean_error(tmp_path, cfg_file, capsys, artifacts, change):
    import json

    data, ckpt, calib = artifacts
    payload = json.loads(calib.read_text())
    if change == "no n_cal":
        del payload["n_cal"]
    else:
        payload["q"] = payload["q"][:-1]
    calib.write_text(json.dumps(payload))
    assert_clean_error(
        ["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--calibration", str(calib),
         "--data", str(data), "--out", str(tmp_path / "events.csv")],
        capsys, str(calib),
    )


def rewrite_header(ckpt, change):
    """Apply ``change`` to the checkpoint's JSON header in place, keeping the data bytes."""
    import json

    blob = ckpt.read_bytes()
    end = 16 + int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:end])
    change(header)
    text = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + len(text).to_bytes(8, "little") + text + blob[end:])


def set_entry(i, **fields):
    def change(header):
        header["params"][i].update(fields)
    return change


def drop_key(i, key):
    def change(header):
        del header["params"][i][key]
    return change


PARAM_ENTRY_CASES = {
    "params not a list": (lambda h: h.update(params={"embed/w": [8, 8]}), "must be a list"),
    "entry not a dict": (lambda h: h["params"].__setitem__(0, ["embed/w", [8, 8]]), "parameter entry 0"),
    "no path": (drop_key(0, "path"), "parameter entry 0"),
    "no shape": (drop_key(0, "shape"), "parameter entry 0"),
    "shape of one integer": (set_entry(0, shape=[64]), "two non-negative integers"),
    "negative shape": (set_entry(0, shape=[-8, -8]), "two non-negative integers"),
    "fractional shape": (set_entry(0, shape=[8.0, 8]), "two non-negative integers"),
    "duplicate path": (lambda h: h["params"][1].update(path=h["params"][0]["path"]), "duplicate parameter"),
}


@pytest.mark.parametrize("case", sorted(PARAM_ENTRY_CASES))
def test_checkpoint_parameter_entries_are_checked(tmp_path, cfg_file, capsys, artifacts, case):
    data, ckpt, calib = artifacts
    change, needle = PARAM_ENTRY_CASES[case]
    rewrite_header(ckpt, change)
    common = ["--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(data)]
    for argv in (
        calibrate_argv(cfg_file, data, ckpt, tmp_path),
        ["warn", *common, "--calibration", str(calib), "--out", str(tmp_path / "events.csv")],
        ["eval", *common, "--out", str(tmp_path / "report.txt")],
    ):
        assert_clean_error(argv, capsys, str(ckpt), needle)


def test_calibration_is_bound_to_its_checkpoint(tmp_path, cfg_file, capsys, artifacts):
    import json

    import fcw.model as md
    from fcw.checkpoint import checkpoint_sha256, save_checkpoint

    data, ckpt, calib = artifacts  # calibrated on the seed-0 model
    assert json.loads(calib.read_text())["checkpoint_sha256"] == checkpoint_sha256(ckpt)
    other = tmp_path / "seed1.ckpt"
    model_cfg = cli.parse_config_file(cfg_file).model
    save_checkpoint(other, md.init_model(model_cfg, seed=1).params, model_cfg.to_dict())
    for model in (other, ckpt):
        warn = ["warn", "--config", cfg_file, "--checkpoint", str(model), "--calibration", str(calib),
                "--data", str(data), "--out", str(tmp_path / "events.csv")]
        evaluate = ["eval", "--config", cfg_file, "--checkpoint", str(model), "--calibration", str(calib),
                    "--data", str(data), "--out", str(tmp_path / "report.txt")]
        if model == other:
            assert_clean_error(warn, capsys, str(calib), checkpoint_sha256(other))
            assert_clean_error(evaluate, capsys, str(calib), checkpoint_sha256(other))
        else:
            assert run(warn) == 0 and run(evaluate) == 0
    # a calibration without the hash is refused too
    payload = json.loads(calib.read_text())
    del payload["checkpoint_sha256"]
    calib.write_text(json.dumps(payload))
    assert_clean_error(warn, capsys, str(calib), "checkpoint_sha256")
