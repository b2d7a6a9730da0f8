"""Command-line surface: gen | train | calibrate | warn | eval | bench.

Configuration is a plain-text file of ``key = value`` lines (see
configs/smoke.cfg); command-line flags override file values. All commands
are deterministic given (config, seed), except wall-clock fields in bench.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field, fields as dc_fields, replace
from operator import itemgetter
from pathlib import Path

from . import cqr as cqr_mod
from . import metrics, pipeline, scenario
from .checkpoint import checkpoint_sha256, load_checkpoint, save_checkpoint
from .drta import LAMBDA_PRESETS, RiskWeights
from .model import HstanConfig, check_finite, desk_config, rebuild_model, train
from .pipeline import run_bench

# the paper's model ablations, each a preset of existing model settings
MODEL_ABLATIONS = {
    "no_sam": {"l_s": 0},
    "no_tam": {"gru_layers": 0},
    "single_head": {"k_heads": 1, "m_heads": 1},
    "no_collision_loss": {"collision_weight": 0.0},
}
WARN_ABLATIONS = {"no_cqr", "fixed_threshold"}
VALUED_ABLATIONS = {"fixed_threshold"}
# the .log beside a checkpoint: one row per epoch of model.train's history
TRAIN_LOG_COLUMNS = {"epoch": int, "lr": float, "loss": float, "mse": float, "pinball": float, "collision": float}


@dataclass
class DataConfig:
    episodes_per_family: int = 2
    families: tuple = scenario.FAMILIES
    duration: float = 8.0
    dt: float = 0.1
    noise: float = 0.05
    seed: int = 0
    split_seed: int = 0

    def __post_init__(self):
        check_finite(self, ("duration", "dt"), positive=True)
        check_finite(self, ("noise",), positive=False)
        if self.episodes_per_family < 1:
            raise ValueError(f"episodes_per_family must be >= 1, got {self.episodes_per_family}")
        unknown = [name for name in self.families if name not in scenario.FAMILIES]
        if unknown or not self.families:
            raise ValueError(
                f"families must be one or more of {list(scenario.FAMILIES)}, got {list(self.families)}"
            )


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_finite(self, ("lr",), positive=True)


@dataclass
class RunConfig:
    model: HstanConfig = field(default_factory=desk_config)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    risk: RiskWeights = field(default_factory=RiskWeights)


def _coerce(current, raw: str):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if current and isinstance(current[0], int):
            return tuple(int(p) for p in parts)
        return tuple(parts)
    return raw.strip()


def parse_config_file(path: str | Path, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    sections = {"model": cfg.model, "data": cfg.data, "train": cfg.train, "risk": cfg.risk}
    for lineno, line in enumerate(Path(path).read_text().split("\n"), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        if "." not in key:
            raise ValueError(f"{path}:{lineno}: keys are section.field, got {key!r}")
        section, name = key.split(".", 1)
        if section not in sections:
            raise ValueError(f"{path}:{lineno}: unknown section {section!r}")
        target = sections[section]
        if not any(f.name == name for f in dc_fields(target)):
            raise ValueError(f"{path}:{lineno}: unknown field {key!r}")
        if key == "model.dt":
            raise ValueError(f"{path}:{lineno}: model.dt is not set: a checkpoint records its training data's dt")
        try:
            value = _coerce(getattr(target, name), raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        setattr(target, name, value)
    for section in sections.values():
        section.__post_init__()
    return cfg


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(args.config, cfg)
    if getattr(args, "seed", None) is not None:
        cfg.data.seed = args.seed
        cfg.train.seed = args.seed
    if getattr(args, "mode", None):
        cfg.risk.lam = LAMBDA_PRESETS[args.mode]
    if getattr(args, "lam", None) is not None:
        cfg.risk.lam = args.lam
    cfg.risk.__post_init__()
    return cfg


def _parse_ablations(raw: str | None, allowed: set) -> dict:
    """``name`` switches map to True, ``name=VALUE`` to a finite float; only
    the ``VALUED_ABLATIONS`` take a value."""
    out = {}
    if not raw:
        return out
    for item in raw.split(","):
        name, eq, value = (part.strip() for part in item.partition("="))
        if not name:
            continue
        if name not in allowed:
            raise ValueError(
                f"ablation {name!r} not applicable here (choose from {sorted(allowed)})"
            )
        if not eq:
            out[name] = True
        elif name in VALUED_ABLATIONS:
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise ValueError(f"ablation {name!r} takes a finite number, got {value!r}")
            out[name] = number
        else:
            raise ValueError(f"ablation {name!r} is an on/off switch and takes no value, got {item.strip()!r}")
    return out


def _dataset_paths(data_dir: str) -> tuple[Path, Path]:
    d = Path(data_dir)
    return d / "trajectories.csv", d / "labels.csv"


def _write_report(text: str, out: str | None) -> int:
    """Print a command's report, and write it to ``out`` when given."""
    if out:
        Path(out).write_text(text)
    print(text, end="")
    return 0


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    specs = scenario.default_specs(
        episodes_per_family=cfg.data.episodes_per_family,
        families=tuple(cfg.data.families),
        duration=cfg.data.duration,
        dt=cfg.data.dt,
        noise=cfg.data.noise,
        seed=cfg.data.seed,
    )
    episodes = scenario.generate_episodes(specs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario.save_dataset(*_dataset_paths(out), episodes)
    span = cfg.model.t_obs + cfg.model.t_pred
    n_windows = sum(max(0, len(ep.frames) - span + 1) for ep in episodes)
    n_danger = sum(ep.danger for ep in episodes)
    print(f"wrote {len(episodes)} episodes ({n_danger} dangerous), {n_windows} windows to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    presets = [MODEL_ABLATIONS[name] for name in _parse_ablations(args.ablation, MODEL_ABLATIONS.keys())]
    # each ablation sets the model settings it stands for; replace re-runs the config checks
    cfg.model = replace(cfg.model, **{k: v for preset in presets for k, v in preset.items()})
    episodes = scenario.load_dataset(*_dataset_paths(args.data))
    train_eps, _, _ = scenario.split_episodes(episodes, cfg.data.split_seed)
    # the checkpoint header records the time step the model learned its horizon at
    dts = sorted({ep.dt for ep in train_eps})
    if len(dts) > 1:
        raise ValueError(f"training episodes mix time steps {dts}; one checkpoint serves one dt")
    if dts:
        cfg.model = replace(cfg.model, dt=dts[0])
    model, history = train(
        scenario.dataset_windows(train_eps, cfg.model),
        cfg.model,
        seed=cfg.train.seed,
        epochs=cfg.train.epochs,
        batch_size=cfg.train.batch_size,
        base_lr=cfg.train.lr,
        log_hook=lambda rec: print(f"epoch {rec['epoch']:>3}  lr {rec['lr']:.2e}  loss {rec['loss']:.6f}"),
    )
    save_checkpoint(args.out, model.params, cfg.model.to_dict())
    scenario.write_table(
        str(args.out) + ".log", TRAIN_LOG_COLUMNS, list(map(itemgetter(*TRAIN_LOG_COLUMNS), history))
    )
    print(f"checkpoint written to {args.out}")
    return 0


def _load_model(ckpt_path: str):
    store, config_dict = load_checkpoint(ckpt_path)
    model_cfg = HstanConfig.from_dict(config_dict)
    return rebuild_model(model_cfg, store), model_cfg


def _check_dt(episodes, model_cfg: HstanConfig) -> None:
    """Every episode must have the time step the checkpoint was trained at:
    the model predicts a fixed number of frames, so another dt changes what
    its horizon means."""
    for ep in episodes:
        if ep.dt != model_cfg.dt:
            raise ValueError(
                f"episode {ep.episode_id} has time step {ep.dt!r} s, "
                f"but the checkpoint was trained at {model_cfg.dt!r} s"
            )


def _load_calibration(args):
    """The ``--calibration`` correction, which must have been fitted for ``--checkpoint``."""
    if not args.calibration:
        return None
    return cqr_mod.load_correction(args.calibration, checkpoint_sha256(args.checkpoint))


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    model, model_cfg = _load_model(args.checkpoint)
    if args.alpha is not None:
        model_cfg = replace(model_cfg, alpha=args.alpha)
    episodes = scenario.load_dataset(*_dataset_paths(args.data))
    _, cal_eps, _ = scenario.split_episodes(episodes, cfg.data.split_seed)
    if not cal_eps:
        print("error: calibration split is empty", file=sys.stderr)
        return 1
    _check_dt(cal_eps, model_cfg)
    lower, upper, targets = cqr_mod.raw_intervals(model, cal_eps)
    corr = cqr_mod.calibrate(lower, upper, targets, model_cfg.alpha)
    cqr_mod.save_correction(args.out, corr, checkpoint_sha256(args.checkpoint))
    raw_coverage, _ = cqr_mod.empirical_coverage(lower, upper, targets)
    coverage, width = cqr_mod.empirical_coverage(*cqr_mod.conformal_interval(lower, upper, corr), targets)
    print(
        f"alpha={model_cfg.alpha}  raw coverage={raw_coverage:.3f}  "
        f"calibrated coverage={coverage:.3f}  mean width={width:.3f} m"
    )
    return 0


def cmd_warn(args) -> int:
    cfg = _load_config(args)
    switches = _parse_ablations(args.ablation, WARN_ABLATIONS)
    model, model_cfg = _load_model(args.checkpoint)
    corr = _load_calibration(args)
    episodes = scenario.load_dataset(*_dataset_paths(args.data))
    _, _, test_eps = scenario.split_episodes(episodes, cfg.data.split_seed)
    _check_dt(test_eps, model_cfg)
    fixed = switches.get("fixed_threshold")
    if isinstance(fixed, bool):  # the bare switch
        fixed = 1.0
    all_events = [
        pipeline.warn_episode(model, corr, ep, cfg.risk, fixed_threshold=fixed, no_cqr="no_cqr" in switches)
        for ep in test_eps
    ]
    pipeline.save_events(args.out, all_events)
    n_trig = sum(ev.triggered for ee in all_events for ev in ee.events)
    print(f"replayed {len(all_events)} test episodes, {n_trig} warning ticks -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.calibration and (args.baseline or not args.checkpoint):
        raise ValueError(
            "--calibration corrects a --checkpoint model's intervals; it needs --checkpoint, not --baseline"
        )
    if not (args.checkpoint or args.baseline or args.events):
        raise ValueError("nothing to evaluate: give --checkpoint, --baseline cv or --events")
    cfg = _load_config(args)
    _, _, test_eps = scenario.split_episodes(scenario.load_dataset(*_dataset_paths(args.data)), cfg.data.split_seed)
    prediction, outcomes, model_cfg = None, None, cfg.model
    if args.checkpoint:
        model, model_cfg = _load_model(args.checkpoint)
        _check_dt(test_eps, model_cfg)
    if args.baseline == "cv":
        prediction = pipeline.prediction_metrics(None, test_eps, model_cfg, baseline="cv")
    elif args.checkpoint:
        prediction = pipeline.prediction_metrics(model, test_eps, model_cfg, corr=_load_calibration(args))
    if args.events:
        outcomes = pipeline.outcomes_from_events(test_eps, pipeline.load_events(args.events), model_cfg.t_obs)
    return _write_report(metrics.report_text(pipeline.build_report(prediction, outcomes)), args.out)


def cmd_bench(args) -> int:
    model, _ = _load_model(args.checkpoint)
    grid = [int(n) for n in args.n_grid.split(",")] if args.n_grid else None
    report = run_bench(model, n_grid=grid, repeats=args.repeats)
    return _write_report(report.to_text(), args.out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fcw`` argument parser, built once per process: ``parse_args``
    fills a fresh namespace on every call, so calls share no state."""
    parser = argparse.ArgumentParser(prog="fcw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="key = value configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="overrides data/train seeds")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the predictor")
    common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--ablation", help=f"comma list from {sorted(MODEL_ABLATIONS)}")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit the conformal correction")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float, help="miscoverage level")
    p.add_argument("--out", required=True, help="calibration artifact path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("warn", help="replay test episodes into a warning log")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--calibration", help="calibration artifact path")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="event log path")
    p.add_argument("--lambda", dest="lam", type=float, help="threshold sensitivity")
    p.add_argument("--mode", choices=sorted(LAMBDA_PRESETS))
    p.add_argument("--ablation", help="no_cqr and/or fixed_threshold=VALUE")
    p.set_defaults(func=cmd_warn)

    p = sub.add_parser("eval", help="metrics report from logs and predictions")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--events", help="warning event log")
    p.add_argument("--checkpoint", help="compute prediction metrics from this model")
    p.add_argument("--calibration", help="include coverage/width")
    p.add_argument("--baseline", choices=["cv"], help="evaluate the physics baseline instead")
    p.add_argument("--out", help="report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="latency and work-scaling benchmark")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--n-grid", help="comma list of scene sizes")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", help="report path")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
