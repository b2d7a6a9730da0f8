"""Command-line surface: configuration parsing and the full command flow."""
import warnings

import numpy as np
import pytest

import fcw.cli as cli

import oracles

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
    # a value equal to 1 stays a value, told apart from the bare switch by type
    for raw in ("fixed_threshold=1", "fixed_threshold=1.0"):
        value = cli._parse_ablations(raw, cli.WARN_ABLATIONS)["fixed_threshold"]
        assert type(value) is float and value == 1.0
    assert cli._parse_ablations("fixed_threshold", cli.WARN_ABLATIONS) == {"fixed_threshold": True}
    with pytest.raises(ValueError, match="not applicable"):
        cli._parse_ablations("no_sam", cli.WARN_ABLATIONS)
    for raw, allowed in (("no_cqr=0", cli.WARN_ABLATIONS), ("no_sam=1", cli.MODEL_ABLATIONS)):
        with pytest.raises(ValueError, match="takes no value"):
            cli._parse_ablations(raw, allowed)


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
    out = capsys.readouterr().out
    assert "linear_r2_edges=" in out and "linear_r2_p50=" in out and "p50_us_per_vehicle" in out


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
    splits = sc.make_dataset(episodes, model_cfg, split_seed=cli.parse_config_file(cfg_file).data.split_seed)
    cal = splits.cal
    assert len(cal) > chunk
    assert len(rows_per_call) == -(-len(cal) // chunk)  # one pass per chunk, not two per window
    assert sum(rows_per_call) == len(cal)

    stats = pl.prediction_metrics(model, splits.cal_episodes, model_cfg, corr=cq.load_correction(calib))
    assert (
        f"raw coverage={stats['raw_coverage']:.3f}  calibrated coverage={stats['coverage']:.3f}  "
        f"mean width={stats['mean_width_m']:.3f} m"
    ) in printed


def test_commands_window_only_their_split_and_match_make_dataset(tmp_path, cfg_file, capsys):
    import fcw.cqr as cq
    import fcw.metrics as mt
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

    # the same artifacts written from make_dataset's windows, and the
    # per-window prediction route of tests/oracles.py over a copy of each
    # window; the commands build batches from episode arrays
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
    pred = oracles.predict_windows(model, oracles.copy_windows(splits.cal, model_cfg))
    targets = np.concatenate([w.target_abs.transpose(1, 0, 2) for w in splits.cal])
    corr = cq.calibrate(pred.lower, pred.upper, targets, model_cfg.alpha)
    cq.save_correction(ref / "calib.json", corr, checkpoint_sha256(ckpt))
    assert (ref / "calib.json").read_bytes() == calib.read_bytes()

    replayed = [oracles.warn_episode(model, corr, ep, cfg.risk) for ep in splits.test_episodes]
    pl.save_events(ref / "events.csv", replayed)
    assert (ref / "events.csv").read_bytes() == events.read_bytes()

    prediction = oracles.prediction_metrics(model, splits.test, model_cfg, corr=corr)
    outcomes = pl.outcomes_from_events(splits.test_episodes, replayed, model_cfg.t_obs)
    assert mt.report_text(pl.build_report(prediction, outcomes)) == report.read_text()


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
    assert cfg_dict["l_s"] == 0 and "no_sam" not in cfg_dict
    assert not any(p.startswith("gat") for p in store.paths())


# each --ablation name and the model settings it stands for, spelled out
ABLATION_SETTINGS = {
    "no_sam": "model.l_s = 0\n",
    "no_tam": "model.gru_layers = 0\n",
    "single_head": "model.k_heads = 1\nmodel.m_heads = 1\n",
    "no_collision_loss": "model.collision_weight = 0\n",
}


def checkpoint_data(ckpt):
    """The parameter bytes of a checkpoint, after its header."""
    blob = ckpt.read_bytes()
    return blob[16 + int.from_bytes(blob[8:16], "little") :]


@pytest.mark.parametrize("name", sorted(ABLATION_SETTINGS))
def test_train_ablation_is_its_settings(tmp_path, cfg_file, name):
    data = tmp_path / "data"
    assert run(["gen", "--config", cfg_file, "--seed", "2", "--out", str(data)]) == 0
    settings = tmp_path / "settings.cfg"
    settings.write_text(TEST_CFG + ABLATION_SETTINGS[name])
    train = ["train", "--seed", "2", "--data", str(data)]
    full, ablated, spelled = tmp_path / "full.ckpt", tmp_path / "ablated.ckpt", tmp_path / "spelled.ckpt"
    assert run([*train, "--config", cfg_file, "--out", str(full)]) == 0
    assert run([*train, "--config", cfg_file, "--out", str(ablated), "--ablation", name]) == 0
    assert run([*train, "--config", str(settings), "--out", str(spelled)]) == 0
    assert checkpoint_data(ablated) == checkpoint_data(spelled)
    assert (tmp_path / "ablated.ckpt.log").read_bytes() == (tmp_path / "spelled.ckpt.log").read_bytes()
    # the ablation changes training
    assert (tmp_path / "ablated.ckpt.log").read_bytes() != (tmp_path / "full.ckpt.log").read_bytes()


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


@pytest.mark.parametrize("grid", ["1", "5,9", "0", "0,8,16", "8,16,8"])
def test_bench_grid_of_fewer_than_three_sizes_is_clean_error(tmp_path, cfg_file, capsys, artifacts, grid):
    # a scaling fit through at most two sizes reads R^2 = 1 whatever the work
    _, ckpt, _ = artifacts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_clean_error(["bench", "--checkpoint", str(ckpt), "--n-grid", grid, "--repeats", "1"], capsys,
                           "at least 3 distinct sizes")
    assert caught == []


def test_bench_prints_no_quadratic_fit_below_four_sizes(cfg_file, capsys, artifacts):
    # a degree-2 fit passes exactly through any 3 points
    _, ckpt, _ = artifacts
    for grid, quadratic in (("8,16,32", "n/a"), ("8,16,32,64", "1.000000")):
        capsys.readouterr()
        assert run(["bench", "--checkpoint", str(ckpt), "--n-grid", grid, "--repeats", "1"]) == 0
        assert f"quadratic_r2_all_pairs={quadratic}\n" in capsys.readouterr().out


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


def test_checkpoint_with_the_old_ablation_switches_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    # the header of a checkpoint written before the ablations became presets
    data, ckpt, _ = artifacts
    old = {"c": 8, "no_sam": False, "no_tam": False, "single_head": False, "no_collision_loss": False}
    rewrite_header(ckpt, lambda h: h["config"].update(old))
    needle = "unknown ['c', 'no_collision_loss', 'no_sam', 'no_tam', 'single_head'], missing []"
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, "model config keys differ", needle)


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


CONFIG_VALUE_CASES = {
    "int as string": ("d_h", "8"),
    "int as bool": ("k_heads", True),
    "int as float": ("l_s", 1.0),
    "float as string": ("radius", "30.0"),
    "hidden not a list": ("decoder_hidden", 8),
    "hidden of zero width": ("decoder_hidden", [8, 0]),
    "hidden of strings": ("decoder_hidden", ["8"]),
}


@pytest.mark.parametrize("case", sorted(CONFIG_VALUE_CASES))
def test_checkpoint_config_value_types_are_checked(tmp_path, cfg_file, capsys, artifacts, case):
    data, ckpt, _ = artifacts
    key, value = CONFIG_VALUE_CASES[case]
    rewrite_header(ckpt, lambda h: h["config"].update({key: value}))
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, f"model config {key} must be")


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_checkpoint_dt_is_range_checked(tmp_path, cfg_file, capsys, artifacts, dt):
    data, ckpt, _ = artifacts
    rewrite_header(ckpt, lambda h: h["config"].update(dt=dt))
    needle = f"dt must be finite and positive, got {dt!r}"
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, needle)


def test_checkpoint_config_accepts_an_int_for_a_float(tmp_path, cfg_file, artifacts):
    data, ckpt, _ = artifacts
    rewrite_header(ckpt, lambda h: h["config"].update(radius=30))
    assert run(calibrate_argv(cfg_file, data, ckpt, tmp_path)) == 0


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


@pytest.mark.parametrize("change", ["missing", "unknown"])
def test_checkpoint_parameter_set_must_match_the_model(tmp_path, cfg_file, capsys, artifacts, change):
    from fcw.checkpoint import load_checkpoint, save_checkpoint
    from fcw.optim import ParameterStore

    data, ckpt, _ = artifacts
    store, config = load_checkpoint(ckpt)
    edited = ParameterStore()
    for path, t in store.items():
        if not (change == "missing" and path == "gru0/u_h"):
            edited.add(path, t.data)
    if change == "unknown":
        edited.add("extra/w", np.zeros((2, 2)))
    save_checkpoint(ckpt, edited, config)
    needle = "missing ['gru0/u_h']" if change == "missing" else "unknown ['extra/w']"
    for argv in (calibrate_argv(cfg_file, data, ckpt, tmp_path), ["bench", "--checkpoint", str(ckpt)]):
        assert_clean_error(argv, capsys, needle)


def test_checkpoint_of_the_per_head_format_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    data, ckpt, _ = artifacts
    ckpt.write_bytes(b"FCWCKPT1" + ckpt.read_bytes()[8:])
    assert_clean_error(calibrate_argv(cfg_file, data, ckpt, tmp_path), capsys, str(ckpt), "bad magic b'FCWCKPT1'")


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


def replayed_log(tmp_path, cfg_file, artifacts):
    """The event log of ``fcw warn`` on the artifacts, and the eval argv that reads it."""
    data, ckpt, calib = artifacts
    events = tmp_path / "events.csv"
    assert run(["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--calibration", str(calib),
                "--data", str(data), "--out", str(events)]) == 0
    return events, ["eval", "--config", cfg_file, "--data", str(data), "--events", str(events)]


def test_eval_event_row_with_wrong_field_count_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    events, evaluate = replayed_log(tmp_path, cfg_file, artifacts)
    assert run(evaluate) == 0
    good = events.read_text().split("\n")
    short = list(good)
    short[2] = short[2].rsplit(",", 1)[0]  # the second event loses its triggered field
    events.write_text("\n".join(short))
    assert_clean_error(evaluate, capsys, f"{events}:3: expected 11 fields")
    garbled = list(good)
    garbled[1] = garbled[1].replace(",", ",x", 1)  # a tick that is not a number
    events.write_text("\n".join(garbled))
    assert_clean_error(evaluate, capsys, f"{events}:2: ")


def test_eval_event_flag_other_than_zero_or_one_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    events, evaluate = replayed_log(tmp_path, cfg_file, artifacts)
    rows = events.read_text().split("\n")
    rows[1] = rows[1].rsplit(",", 1)[0] + ",3"  # the first event's triggered field
    events.write_text("\n".join(rows))
    assert_clean_error(evaluate, capsys, f"{events}:2: a flag must be 0 or 1, got '3'")


def test_eval_event_log_of_other_episodes_is_clean_error(tmp_path, cfg_file, capsys, artifacts):
    events, evaluate = replayed_log(tmp_path, cfg_file, artifacts)
    header, *rows = events.read_text().strip().split("\n")
    events.write_text("\n".join([header] + ["999," + row.split(",", 1)[1] for row in rows]) + "\n")
    assert_clean_error(evaluate, capsys, "[999]", "replays episodes")
    events.write_text(header + "\n")  # no episode at all
    assert_clean_error(evaluate, capsys, "event log holds episodes []")


# ---------------------------------------------------------------------------
# risk settings and warning ablations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("value", ["1", "1.0"])
def test_warn_fixed_threshold_of_one_is_fixed(tmp_path, cfg_file, artifacts, value):
    import fcw.pipeline as pl

    data, ckpt, calib = artifacts
    events = tmp_path / "events.csv"
    assert run(["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--calibration", str(calib),
                "--data", str(data), "--out", str(events), "--ablation", f"fixed_threshold={value}"]) == 0
    logged = [e for ee in pl.load_events(events) for e in ee.events]
    assert logged and all(e.threshold == 1.0 and e.triggered == (e.risk > 1.0) for e in logged)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc", ""])
def test_fixed_threshold_must_be_a_finite_number(tmp_path, cfg_file, capsys, artifacts, value):
    data, ckpt, calib = artifacts
    events = tmp_path / "events.csv"
    argv = ["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--calibration", str(calib),
            "--data", str(data), "--out", str(events), "--ablation", f"fixed_threshold={value}"]
    assert_clean_error(argv, capsys, f"ablation 'fixed_threshold' takes a finite number, got {value!r}")
    assert not events.exists()


def test_main_calls_share_one_parser_and_no_state(tmp_path, cfg_file, capsys, artifacts, monkeypatch):
    data, ckpt, _ = artifacts
    seen = []
    real = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda args: seen.append(args) or real(args))
    argv = calibrate_argv(cfg_file, data, ckpt, tmp_path)
    capsys.readouterr()
    assert run([*argv, "--alpha", "0.2"]) == 0
    assert run(argv) == 0
    assert [args.alpha for args in seen] == [0.2, None]
    assert seen[0] is not seen[1]
    assert cli.build_parser() is cli.build_parser()
    default_alpha = cli.parse_config_file(cfg_file).model.alpha
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("alpha=")]
    assert [line.split()[0] for line in printed] == ["alpha=0.2", f"alpha={default_alpha}"]


@pytest.mark.parametrize("argv", [[], ["calibrate"], ["warn", "--bogus"], ["eval", "--data", "d", "--baseline", "ca"]])
def test_parse_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "usage: fcw" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["2", "0", "-0.5", "1"])
def test_calibrate_alpha_is_validated(tmp_path, cfg_file, capsys, artifacts, alpha):
    data, ckpt, _ = artifacts
    argv = calibrate_argv(cfg_file, data, ckpt, tmp_path)
    assert_clean_error([*argv, "--alpha", alpha], capsys, "alpha must be in (0, 1)")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, switch", [("warn", "no_cqr=0"), ("train", "no_sam=1")])
def test_value_on_an_on_off_switch_is_clean_error(tmp_path, cfg_file, capsys, artifacts, command, switch):
    data, ckpt, calib = artifacts
    argv = [command, "--config", cfg_file, "--data", str(data), "--out", str(tmp_path / "out")]
    if command == "warn":
        argv += ["--checkpoint", str(ckpt), "--calibration", str(calib)]
    assert_clean_error(argv + ["--ablation", switch], capsys, f"ablation {switch.split('=')[0]!r} is an on/off switch")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting, flags, needle",
    [
        ("risk.mode = highway", [], "unknown field 'risk.mode'"),
        ("risk.lam = 3.5", [], "lambda must lie in [1.5, 3.0], got 3.5"),
        ("", ["--lambda", "1.2"], "lambda must lie in [1.5, 3.0], got 1.2"),
        ("risk.window_size = 1", [], "window_size must be >= 2, got 1"),
        ("risk.w_pred = nan", [], "w_pred must be finite and nonnegative, got nan"),
        ("risk.v_safe = nan", [], "v_safe must be finite and positive, got nan"),
        ("risk.gamma = nan", [], "gamma must be finite and nonnegative, got nan"),
        ("risk.beta = -inf", [], "beta must be finite and nonnegative, got -inf"),
        ("risk.tau = inf", [], "tau must be finite and positive, got inf"),
    ],
    ids=["mode in config", "lambda in config", "lambda flag", "one-slot window", "nan weight", "nan v_safe",
         "nan gamma", "minus infinite beta", "infinite tau"],
)
def test_risk_settings_are_checked_at_load(tmp_path, capsys, setting, flags, needle):
    # the checkpoint and data do not exist: the config must fail before they are read
    cfg = tmp_path / "risk.cfg"
    cfg.write_text(TEST_CFG + setting + "\n")
    argv = ["warn", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.ckpt"),
            "--data", str(tmp_path / "none"), "--out", str(tmp_path / "events.csv"), *flags]
    assert_clean_error(argv, capsys, needle)


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "setting, needle",
    [
        ("model.k_heads = 0", "k_heads must be >= 1, got 0"),
        ("model.m_heads = 0", "m_heads must be >= 1, got 0"),
        ("model.l_s = -1", "l_s must be >= 0, got -1"),
        ("model.decoder_hidden = 0", "decoder_hidden must be widths >= 1, got (0,)"),
        ("model.radius = -5", "radius must be finite and positive, got -5.0"),
        ("model.dt = nan", "model.dt is not set: a checkpoint records its training data's dt"),
        ("model.input_scale = inf", "input_scale must be finite and positive, got inf"),
        ("model.collision_radius = -1", "collision_radius must be finite and positive, got -1.0"),
        ("model.pinball_weight = nan", "pinball_weight must be finite and nonnegative, got nan"),
        ("model.collision_weight = -0.1", "collision_weight must be finite and nonnegative, got -0.1"),
        ("train.lr = -0.1", "lr must be finite and positive, got -0.1"),
        ("train.lr = nan", "lr must be finite and positive, got nan"),
        ("train.epochs = 0", "epochs must be >= 1, got 0"),
        ("train.batch_size = 0", "batch_size must be >= 1, got 0"),
        ("data.duration = -1", "duration must be finite and positive, got -1.0"),
        ("data.dt = 0", "dt must be finite and positive, got 0.0"),
        ("data.episodes_per_family = 0", "episodes_per_family must be >= 1, got 0"),
        ("data.noise = nan", "noise must be finite and nonnegative, got nan"),
        ("data.families =", "families must be one or more of ['highway_merging',"),
        ("data.families = cut_in, warp_drive", "got ['cut_in', 'warp_drive']"),
    ],
)
def test_config_values_are_validated(tmp_path, capsys, setting, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TEST_CFG + setting + "\n")
    assert_clean_error(["gen", "--config", str(cfg), "--out", str(tmp_path / "data")], capsys, needle)
    assert not (tmp_path / "data").exists()


def test_cv_baseline_extrapolates_with_each_episodes_time_step(tmp_path):
    # the data's time step differs from model.dt (0.1)
    import fcw.scenario as sc

    cfg = tmp_path / "dt.cfg"
    cfg.write_text(TEST_CFG + "data.dt = 0.2\n")
    data, out = tmp_path / "data", tmp_path / "cv.txt"
    assert run(["gen", "--config", str(cfg), "--out", str(data)]) == 0
    assert run(["eval", "--config", str(cfg), "--data", str(data), "--baseline", "cv", "--out", str(out)]) == 0
    report = dict(line.split("=") for line in out.read_text().splitlines() if "=" in line)
    _, _, test_eps = sc.split_episodes(sc.load_dataset(data / "trajectories.csv", data / "labels.csv"), 0)
    t_obs, t_pred = 4, 3
    errors, finals = [], []
    for ep in test_eps:
        step = ep.times[1] - ep.times[0]
        assert step == pytest.approx(0.2)
        for now in range(t_obs - 1, len(ep.frames) - t_pred):
            pos, vel = ep.frames[now, :, 0:2], ep.frames[now, :, 2:4]
            for k in range(1, t_pred + 1):
                miss = np.hypot(*(pos + vel * (k * step) - ep.frames[now + k, :, 0:2]).T)
                errors.extend(miss)
            finals.extend(miss)
    assert float(report["ade_m"]) == pytest.approx(np.mean(errors), rel=1e-8)
    assert float(report["fde_m"]) == pytest.approx(np.mean(finals), rel=1e-8)


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_episode_shorter_than_a_window_with_its_future_is_clean_error(tmp_path, cfg_file, capsys, artifacts, command):
    # the model was trained on 3 s episodes; these last 0.5 s, fewer than t_obs + t_pred = 7 frames
    _, ckpt, calib = artifacts
    short_cfg, short = tmp_path / "short.cfg", tmp_path / "short"
    short_cfg.write_text(TEST_CFG.replace("data.duration = 3.0", "data.duration = 0.5"))
    assert run(["gen", "--config", str(short_cfg), "--out", str(short)]) == 0
    argv = [command, "--config", str(short_cfg), "--checkpoint", str(ckpt), "--data", str(short)]
    if command == "calibrate":
        argv += ["--out", str(tmp_path / "c.json")]
    else:
        argv += ["--calibration", str(calib), "--out", str(tmp_path / "report.txt")]
    assert_clean_error(argv, capsys, "frames, needs >= 7")


@pytest.mark.parametrize(
    "flags, needle",
    [
        ([], "nothing to evaluate: give --checkpoint, --baseline cv or --events"),
        (["--calibration", "{calib}", "--baseline", "cv"], "--calibration corrects a --checkpoint model's intervals"),
        (["--calibration", "{calib}", "--events", "{events}"], "it needs --checkpoint, not --baseline"),
        (["--calibration", "/nonexistent.json"], "it needs --checkpoint"),
        (["--checkpoint", "{ckpt}", "--calibration", "{calib}", "--baseline", "cv"], "--calibration corrects"),
    ],
    ids=["nothing", "calibration of the baseline", "calibration without a model", "calibration alone",
         "calibration with a model and the baseline"],
)
def test_eval_refuses_input_it_would_ignore(tmp_path, cfg_file, capsys, artifacts, flags, needle):
    data, ckpt, calib = artifacts
    events, _ = replayed_log(tmp_path, cfg_file, artifacts)
    paths = {"calib": calib, "ckpt": ckpt, "events": events}
    out = tmp_path / "report.txt"
    argv = ["eval", "--config", cfg_file, "--data", str(data), "--out", str(out)]
    assert_clean_error(argv + [flag.format(**paths) for flag in flags], capsys, needle)
    assert not out.exists()


def test_empty_test_split_is_clean_error(tmp_path, cfg_file, capsys):
    # two episodes only: the splitter keeps everything in train, so eval has no window to score
    few = tmp_path / "few.cfg"
    few.write_text(TEST_CFG.replace("data.episodes_per_family = 3", "data.episodes_per_family = 1"))
    data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
    assert run(["gen", "--config", str(few), "--out", str(data)]) == 0
    assert run(["train", "--config", str(few), "--data", str(data), "--out", str(ckpt)]) == 0
    for extra in (["--checkpoint", str(ckpt)], ["--baseline", "cv"]):
        assert_clean_error(["eval", "--config", str(few), "--data", str(data), *extra], capsys, "at least one episode")


# ---------------------------------------------------------------------------
# a checkpoint is bound to the time step of its training data
# ---------------------------------------------------------------------------


def use_argvs(cfg_file, data, ckpt, tmp_path):
    """calibrate, warn and eval of ``ckpt`` on the dataset in ``data``."""
    return [
        calibrate_argv(cfg_file, data, ckpt, tmp_path),
        ["warn", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "events.csv")],
        ["eval", "--config", cfg_file, "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "report.txt")],
    ]


def test_checkpoint_records_the_training_dt_and_refuses_another(tmp_path, cfg_file, capsys):
    from fcw.checkpoint import load_checkpoint

    slow_cfg = tmp_path / "slow.cfg"
    slow_cfg.write_text(TEST_CFG + "data.dt = 0.2\n")
    fast, slow, ckpt = tmp_path / "fast", tmp_path / "slow", tmp_path / "model.ckpt"
    assert run(["gen", "--config", cfg_file, "--seed", "0", "--out", str(fast)]) == 0
    assert run(["gen", "--config", str(slow_cfg), "--seed", "0", "--out", str(slow)]) == 0
    assert run(["train", "--config", cfg_file, "--data", str(slow), "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt)[1]["dt"] == 0.2  # the data's dt, not the config's 0.1
    for argv in use_argvs(cfg_file, slow, ckpt, tmp_path):
        assert run(argv) == 0
    for argv in use_argvs(cfg_file, fast, ckpt, tmp_path):
        assert_clean_error(argv, capsys, "time step 0.1 s", "trained at 0.2 s")
    # eval without a checkpoint reads no dt
    assert run(["eval", "--config", cfg_file, "--data", str(fast), "--baseline", "cv"]) == 0
    # a default-dt training run keeps the configured dt in the header
    other = tmp_path / "fast.ckpt"
    assert run(["train", "--config", cfg_file, "--data", str(fast), "--out", str(other)]) == 0
    assert load_checkpoint(other)[1]["dt"] == 0.1
    assert_clean_error(calibrate_argv(cfg_file, slow, other, tmp_path), capsys, "trained at 0.1 s")


def test_training_split_of_mixed_dt_is_refused(tmp_path, cfg_file, capsys, monkeypatch):
    data = tmp_path / "data"
    assert run(["gen", "--config", cfg_file, "--seed", "0", "--out", str(data)]) == 0
    load = cli.scenario.load_dataset

    def mixed(*paths):
        episodes = load(*paths)
        for ep in episodes[::2]:  # 3 of 6 episodes, so the 4 training episodes hold both
            ep.dt = 0.2
        return episodes

    monkeypatch.setattr(cli.scenario, "load_dataset", mixed)
    ckpt = tmp_path / "model.ckpt"
    assert_clean_error(["train", "--config", cfg_file, "--data", str(data), "--out", str(ckpt)], capsys,
                       "training episodes mix time steps [0.1, 0.2]")
    assert not ckpt.exists()
