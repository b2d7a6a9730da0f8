"""Command-line surface: gen | train | calibrate | warn | eval | bench.

Configuration is a plain-text file of ``key = value`` lines (see
configs/smoke.cfg); command-line flags override file values. All commands
are deterministic given (config, seed), except wall-clock fields in bench.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields as dc_fields
from pathlib import Path

from . import cqr as cqr_mod
from . import pipeline, scenario
from .checkpoint import checkpoint_sha256, load_checkpoint, save_checkpoint
from .drta import LAMBDA_PRESETS, RiskWeights
from .model import HstanConfig, desk_config, rebuild_model, train
from .pipeline import run_bench

MODEL_ABLATIONS = {"no_sam", "no_tam", "single_head", "no_collision_loss"}
WARN_ABLATIONS = {"no_cqr", "fixed_threshold"}


@dataclass
class DataConfig:
    episodes_per_family: int = 2
    families: tuple = scenario.FAMILIES
    duration: float = 8.0
    dt: float = 0.1
    noise: float = 0.05
    seed: int = 0
    split_seed: int = 0


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0


@dataclass
class RiskConfig:
    window_size: int = 50
    lam: float = 2.2
    mode: str = "default"
    w_pred: float = 0.5
    w_kin: float = 0.3
    w_geo: float = 0.2
    tau: float = 1.0
    v_safe: float = 15.0
    a_max: float = 8.0
    gamma: float = 1.0
    beta: float = 0.5

    def weights(self) -> RiskWeights:
        return RiskWeights(
            w_pred=self.w_pred,
            w_kin=self.w_kin,
            w_geo=self.w_geo,
            tau=self.tau,
            v_safe=self.v_safe,
            a_max=self.a_max,
            gamma=self.gamma,
            beta=self.beta,
            lam=self.lam,
        )


@dataclass
class RunConfig:
    model: HstanConfig = field(default_factory=desk_config)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    risk: RiskConfig = field(default_factory=RiskConfig)


def _coerce(current, raw: str):
    if isinstance(current, bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
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
        setattr(target, name, _coerce(getattr(target, name), raw))
    cfg.model.__post_init__()
    return cfg


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(args.config, cfg)
    if getattr(args, "seed", None) is not None:
        cfg.data.seed = args.seed
        cfg.train.seed = args.seed
    if getattr(args, "alpha", None) is not None:
        cfg.model.alpha = args.alpha
    if getattr(args, "mode", None):
        cfg.risk.mode = args.mode
        cfg.risk.lam = LAMBDA_PRESETS[args.mode]
    if getattr(args, "lam", None) is not None:
        cfg.risk.lam = args.lam
    return cfg


def _parse_ablations(raw: str | None, allowed: set) -> dict:
    out = {}
    if not raw:
        return out
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            name, value = item.split("=", 1)
            name = name.strip()
            out[name] = float(value)
        else:
            name = item
            out[name] = True
        if name not in allowed:
            raise ValueError(
                f"ablation {name!r} not applicable here (choose from {sorted(allowed)})"
            )
    return out


def _apply_model_ablations(model_cfg: HstanConfig, switches: dict) -> HstanConfig:
    for name in MODEL_ABLATIONS & set(switches):
        setattr(model_cfg, name, True)
    model_cfg.__post_init__()
    return model_cfg


def _dataset_paths(data_dir: str) -> tuple[Path, Path]:
    d = Path(data_dir)
    return d / "trajectories.csv", d / "labels.csv"


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
    traj, labels = _dataset_paths(out)
    scenario.save_dataset(traj, labels, episodes)
    span = cfg.model.t_obs + cfg.model.t_pred
    n_windows = sum(max(0, len(ep.frames) - span + 1) for ep in episodes)
    n_danger = sum(ep.danger for ep in episodes)
    print(f"wrote {len(episodes)} episodes ({n_danger} dangerous), {n_windows} windows to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    switches = _parse_ablations(args.ablation, MODEL_ABLATIONS)
    _apply_model_ablations(cfg.model, switches)
    traj, labels = _dataset_paths(args.data)
    episodes = scenario.load_dataset(traj, labels)
    train_eps, _, _ = scenario.split_episodes(episodes, cfg.data.split_seed)
    log_lines = ["epoch,lr,loss,mse,pinball,collision"]

    def hook(rec):
        log_lines.append(
            f"{rec['epoch']},{rec['lr']!r},{rec['loss']!r},{rec['mse']!r},"
            f"{rec['pinball']!r},{rec['collision']!r}"
        )
        print(f"epoch {rec['epoch']:>3}  lr {rec['lr']:.2e}  loss {rec['loss']:.6f}")

    model, _ = train(
        scenario.dataset_windows(train_eps, cfg.model),
        cfg.model,
        seed=cfg.train.seed,
        epochs=cfg.train.epochs,
        batch_size=cfg.train.batch_size,
        base_lr=cfg.train.lr,
        log_hook=hook,
    )
    save_checkpoint(args.out, model.params, cfg.model.to_dict())
    Path(str(args.out) + ".log").write_text("\n".join(log_lines) + "\n")
    print(f"checkpoint written to {args.out}")
    return 0


def _load_model(ckpt_path: str):
    store, config_dict = load_checkpoint(ckpt_path)
    model_cfg = HstanConfig.from_dict(config_dict)
    return rebuild_model(model_cfg, store), model_cfg


def _load_calibration(args):
    """The ``--calibration`` correction, which must have been fitted for ``--checkpoint``."""
    if not args.calibration:
        return None
    return cqr_mod.load_correction(args.calibration, checkpoint_sha256(args.checkpoint))


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    model, model_cfg = _load_model(args.checkpoint)
    if args.alpha is not None:
        model_cfg.alpha = args.alpha
    traj, labels = _dataset_paths(args.data)
    episodes = scenario.load_dataset(traj, labels)
    _, cal_eps, _ = scenario.split_episodes(episodes, cfg.data.split_seed)
    cal = scenario.dataset_windows(cal_eps, model_cfg)
    if not cal:
        print("error: calibration split is empty", file=sys.stderr)
        return 1
    lower, upper, targets = cqr_mod.raw_intervals(model, cal)
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
    traj, labels = _dataset_paths(args.data)
    episodes = scenario.load_dataset(traj, labels)
    _, _, test_eps = scenario.split_episodes(episodes, cfg.data.split_seed)
    weights = cfg.risk.weights()
    fixed = switches.get("fixed_threshold")
    fixed = float(fixed) if fixed not in (None, True) else (1.0 if fixed is True else None)
    all_events = [
        pipeline.warn_episode(
            model,
            corr,
            ep,
            weights,
            window_size=cfg.risk.window_size,
            fixed_threshold=fixed,
            no_cqr="no_cqr" in switches,
        )
        for ep in test_eps
    ]
    pipeline.save_events(args.out, all_events)
    n_trig = sum(ev.triggered for ee in all_events for ev in ee.events)
    print(f"replayed {len(all_events)} test episodes, {n_trig} warning ticks -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    traj, labels = _dataset_paths(args.data)
    episodes = scenario.load_dataset(traj, labels)

    prediction = None
    model = None
    model_cfg = cfg.model
    if args.checkpoint:
        model, model_cfg = _load_model(args.checkpoint)
    _, _, test_eps = scenario.split_episodes(episodes, cfg.data.split_seed)
    if args.baseline == "cv":
        test = scenario.dataset_windows(test_eps, model_cfg)
        prediction = pipeline.prediction_metrics(None, test, model_cfg, baseline="cv")
    elif model is not None:
        corr = _load_calibration(args)
        test = scenario.dataset_windows(test_eps, model_cfg)
        prediction = pipeline.prediction_metrics(model, test, model_cfg, corr=corr)

    outcomes = None
    if args.events:
        events = pipeline.load_events(args.events)
        outcomes = pipeline.outcomes_from_events(test_eps, events)

    report = pipeline.build_report(prediction, outcomes)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_bench(args) -> int:
    model, _ = _load_model(args.checkpoint)
    grid = [int(n) for n in args.n_grid.split(",")] if args.n_grid else None
    report = run_bench(model, n_grid=grid, repeats=args.repeats)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
