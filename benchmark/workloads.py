"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs whole
rounds of identical operations through the program's public functions, and
checks the outputs of its last round against the oracles in ``checks``.
Every workload reports ``windows_per_s``: the observation windows its timed
operations processed over the run, divided by the seconds they took. Timed
regions read the ``clock`` the workload is given, which leaves out the speed
probe's reference jobs; ``run.py`` scales the total to nominal machine speed.
"""
from __future__ import annotations

import contextlib
import gc
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

from fcw import checkpoint, cli, cqr, metrics, scenario, scene_graph
from fcw import model as fm

# The episode split is the same for every seed, so every seed puts the same
# scenario families, hence the same scene sizes and amount of work, into each
# split; the seed drives the trajectories, the model and the dense frames.
# With two episodes per family this split holds out a curved_road episode
# (never dangerous, nonzero curvature) and a sudden_braking one (nearly always
# dangerous), so the replayed warnings meet both outcomes.
SPLIT_SEED = 6


def _no_span(name: str):
    return contextlib.nullcontext()


# Per-command rates of the replay workload, reported by the traced run from
# its untraced rounds: name -> unit.
STAGE_RATES = {
    "cli.calibrate_windows_per_s": "windows/s",
    "cli.warn_ticks_per_s": "ticks/s",
    "cli.eval_windows_per_s": "windows/s",
}


@dataclass
class RoundResult:
    samples: dict[str, list[float]] = field(default_factory=dict)
    windows: int = 0  # observation windows through the timed regions
    busy: float = 0.0  # seconds inside timed regions
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, metric: str, rate: float) -> None:
        self.samples.setdefault(metric, []).append(rate)


class Workload:
    """A workload provides ``setup()``, ``warmup()``, ``run_round(span)`` and
    ``check()``, the last returning failure messages; ``span(name)`` opens a
    trace span around a stage of the round."""

    def __init__(self, seed: int, workdir: Path, clock: Callable[[], float]):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock


# ---------------------------------------------------------------------------
# train: fcw.model.train epochs on the six-family dataset
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """Backward passes and Adam on 32-window batches of small scenes."""

    EPISODES_PER_FAMILY = 3
    EPOCHS_PER_ROUND = 3
    GRAD_COORDS = 2  # sampled coordinates per parameter tensor

    def setup(self) -> None:
        self.config = fm.desk_config()
        specs = scenario.default_specs(
            episodes_per_family=self.EPISODES_PER_FAMILY, duration=8.0, noise=0.05, seed=self.seed
        )
        episodes = scenario.generate_episodes(specs)
        self.windows = scenario.make_dataset(episodes, self.config, split_seed=SPLIT_SEED).train
        self.histories: list[list[dict]] = []
        self.model = None

    def warmup(self) -> None:
        fm.train(self.windows[:64], self.config, seed=self.seed, epochs=1, batch_size=32)

    def run_round(self, span=_no_span) -> RoundResult:
        result = RoundResult()
        n = len(self.windows)
        mark = [0.0]

        def hook(record):
            result.windows += n
            result.busy += self.clock() - mark[0]
            result.attempted += 1
            gc.collect()
            mark[0] = self.clock()

        gc.collect()
        with span("train.epochs"):
            mark[0] = self.clock()
            try:
                self.model, history = fm.train(
                    self.windows, self.config, seed=self.seed,
                    epochs=self.EPOCHS_PER_ROUND, batch_size=32, log_hook=hook,
                )
                self.histories.append(history)
            except Exception as exc:  # a failed round counts its missing epochs
                missing = self.EPOCHS_PER_ROUND - result.attempted
                result.attempted += missing
                result.failed += missing
                result.errors.append(f"train: {exc!r}")
        return result

    def check(self) -> list[str]:
        failures = []
        for history in self.histories:
            if not history[-1]["loss"] < history[0]["loss"]:
                failures.append(f"last epoch loss {history[-1]['loss']!r} not below first {history[0]['loss']!r}")
        if any(h != self.histories[0] for h in self.histories):
            failures.append("repeated training rounds gave different loss histories")
        if self.model is None:
            return failures + ["no training round completed"]
        failures += self._gradient_check()
        return failures

    def _gradient_check(self) -> list[str]:
        rng = np.random.default_rng(self.seed)
        chunk = [self.windows[i] for i in rng.choice(len(self.windows), size=32, replace=False)]
        batch = fm.prepare_batch(chunk, self.config)
        model = self.model

        def loss_value() -> float:
            loss, _ = fm.training_loss(fm.forward_batch(model, batch), batch, self.config)
            return loss.item()

        model.params.zero_grad()
        loss, _ = fm.training_loss(fm.forward_batch(model, batch), batch, self.config)
        loss.backward()
        params = [
            (path, t.data, np.zeros_like(t.data) if t.grad is None else t.grad.copy())
            for path, t in model.params.items()
        ]
        return checks.central_difference_check(
            loss_value, params, rng, coords=self.GRAD_COORDS, h=1e-6, tol=1e-6
        )


# ---------------------------------------------------------------------------
# replay: fcw calibrate / warn / eval through the command line entry point
# ---------------------------------------------------------------------------

RUN_CONFIG = """\
model.d_h = 16
model.k_heads = 2
model.l_s = 2
model.gru_hidden = 32
model.gru_layers = 2
model.m_heads = 2
model.decoder_hidden = 64, 32
model.alpha = 0.1
data.episodes_per_family = 2
data.duration = 8.0
data.noise = 0.05
data.split_seed = {split_seed}
train.epochs = 3
train.batch_size = 32
train.lr = 0.003
risk.window_size = {window}
risk.lam = {lam}
risk.w_pred = {weights[0]}
risk.w_kin = {weights[1]}
risk.w_geo = {weights[2]}
"""
RISK_WEIGHTS = (0.5, 0.3, 0.2)  # w_pred, w_kin, w_geo
RISK_LAMBDA = 2.2
RISK_WINDOW = 50
WARMUP_SAMPLES = 5  # risks needed before the threshold is finite


class ReplayWorkload(Workload):
    """Single-window inference: calibrate, warn and eval as a user runs them."""

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def _fcw(self, *argv: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"fcw {argv[0]} exited {code}: {out.getvalue().strip()[-300:]}")

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = self._path("run.cfg")
        Path(cfg).write_text(RUN_CONFIG.format(
            split_seed=SPLIT_SEED, window=RISK_WINDOW, lam=RISK_LAMBDA, weights=RISK_WEIGHTS
        ))
        data, ckpt = self._path("data"), self._path("model.ckpt")
        self._fcw("gen", "--config", cfg, "--seed", str(self.seed), "--out", data)
        self._fcw("train", "--config", cfg, "--seed", str(self.seed), "--data", data, "--out", ckpt)
        common = ("--config", cfg, "--data", data, "--checkpoint", ckpt)
        calib, events = self._path("calib.json"), self._path("events.csv")
        self.commands = [
            ("calibrate", "cli.calibrate_windows_per_s", ("calibrate", *common, "--out", calib)),
            ("warn", "cli.warn_ticks_per_s", ("warn", *common, "--calibration", calib, "--out", events)),
            ("eval", "cli.eval_windows_per_s",
             ("eval", *common, "--calibration", calib, "--events", events, "--out", self._path("report.txt"))),
        ]
        # work per command, from the same split every command makes
        self.model_config = fm.desk_config()
        episodes = scenario.load_dataset(Path(data) / "trajectories.csv", Path(data) / "labels.csv")
        splits = scenario.make_dataset(episodes, self.model_config, split_seed=SPLIT_SEED)
        self.cal_windows = splits.cal
        self.work = {
            "calibrate": len(splits.cal),
            "warn": sum(len(ep.frames) - self.model_config.t_obs + 1 for ep in splits.test_episodes),
            "eval": len(splits.test),
        }
        self.event_logs: set[bytes] = set()

    def warmup(self) -> None:
        self._fcw(*self.commands[0][2])

    def run_round(self, span=_no_span) -> RoundResult:
        result = RoundResult()
        for name, metric, argv in self.commands:
            gc.collect()
            result.attempted += 1
            with span(f"replay.{name}"):
                start = self.clock()
                try:
                    self._fcw(*argv)
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"{name}: {exc!r}")
                    continue
                seconds = self.clock() - start
            result.add(metric, self.work[name] / seconds)
            result.busy += seconds
            result.windows += self.work[name]
        self.event_logs.add(Path(self._path("events.csv")).read_bytes())
        return result

    def check(self) -> list[str]:
        failures = []
        if len(self.event_logs) != 1:
            failures.append(f"repeated warn rounds wrote {len(self.event_logs)} different event logs")
        events = self._read_events()
        labels = self._read_labels()
        for eid, rows in events.items():
            failures += [f"episode {eid}: {m}" for m in checks.check_thresholds(
                rows, RISK_WEIGHTS, RISK_LAMBDA, RISK_WINDOW, WARMUP_SAMPLES)]
        failures += self._check_coverage()
        failures += self._check_confusion(events, labels)
        failures += self._check_cv_baseline(events, labels)
        return failures

    def _read_events(self) -> dict[int, list[dict]]:
        lines = Path(self._path("events.csv")).read_text().strip().split("\n")
        names = lines[0].split(",")
        by_episode: dict[int, list[dict]] = {}
        for line in lines[1:]:
            row = dict(zip(names, line.split(",")))
            parsed = {k: float(v) for k, v in row.items() if k not in ("episode_id", "tick", "triggered")}
            parsed["tick"] = int(row["tick"])
            parsed["triggered"] = row["triggered"] == "1"
            by_episode.setdefault(int(row["episode_id"]), []).append(parsed)
        for rows in by_episode.values():
            rows.sort(key=lambda r: r["tick"])
        return by_episode

    def _read_labels(self) -> dict[int, dict]:
        lines = Path(self._path("data"), "labels.csv").read_text().strip().split("\n")
        names = lines[0].split(",")
        out = {}
        for line in lines[1:]:
            row = dict(zip(names, line.split(",")))
            out[int(row["episode_id"])] = {
                "danger": row["danger"] == "1",
                "contact_time": float(row["contact_time"]) if row["contact_time"] else None,
                "dt": float(row["dt"]),
            }
        return out

    def _report(self, name: str) -> dict[str, float]:
        text = Path(self._path(name)).read_text()
        pairs = (line.split("=", 1) for line in text.split("\n") if "=" in line)
        return {k: float(v) for k, v in pairs}

    def _check_coverage(self) -> list[str]:
        """Calibrated intervals cover >= 1 - alpha of the calibration split, per (step, coordinate)."""
        corr = cqr.load_correction(self._path("calib.json"))
        store, config = checkpoint.load_checkpoint(self._path("model.ckpt"))
        model = fm.rebuild_model(fm.HstanConfig.from_dict(config), store)
        batch = fm.prepare_batch(self.cal_windows, model.config)
        preds = fm.outputs_to_predictions(fm.forward_batch(model, batch), batch, model.config)
        lower = np.concatenate([p.lower for p in preds]) - corr.q
        upper = np.concatenate([p.upper for p in preds]) + corr.q
        truth = np.concatenate([w.target_abs.transpose(1, 0, 2) for w in self.cal_windows])
        # 1e-9 m absorbs rounding between batched and single-window forward passes
        inside = (lower - 1e-9 <= truth) & (truth <= upper + 1e-9)
        coverage = inside.mean(axis=0)  # (T', 2)
        worst = float(coverage.min())
        if worst < 1.0 - corr.alpha:
            return [f"calibrated coverage {worst:.4f} below {1.0 - corr.alpha} on the calibration split"]
        return []

    def _check_confusion(self, events, labels) -> list[str]:
        warnings = {eid: [r["time"] for r in rows if r["triggered"]] for eid, rows in events.items()}
        expected = checks.confusion(labels, warnings)
        report = self._report("report.txt")
        got = {k: int(report.get(k, -1)) for k in expected}
        return [] if got == expected else [f"eval confusion {got}, recomputed from events.csv {expected}"]

    def _check_cv_baseline(self, events, labels) -> list[str]:
        """fcw eval --baseline cv against constant-velocity extrapolation from trajectories.csv."""
        self._fcw("eval", "--config", self._path("run.cfg"), "--data", self._path("data"),
                  "--baseline", "cv", "--out", self._path("cv.txt"))
        report = self._report("cv.txt")
        table = np.loadtxt(self._path("data/trajectories.csv"), delimiter=",", skiprows=1)
        cfg = self.model_config
        errs, finals = [], []
        for eid in sorted(events):
            rows = table[table[:, 0] == eid]
            times = np.unique(rows[:, 1])
            n = int(rows[:, 2].max()) + 1
            order = np.lexsort((rows[:, 2], rows[:, 1]))
            state = rows[order].reshape(len(times), n, -1)
            e, f = checks.cv_errors(state[:, :, 3:5], state[:, :, 5:7], cfg.t_obs, cfg.t_pred, labels[eid]["dt"])
            errs.append(e)
            finals.append(f)
        ade, fde = float(np.concatenate(errs).mean()), float(np.concatenate(finals).mean())
        failures = []
        # the report prints 9 significant digits
        for key, ref in (("ade_m", ade), ("fde_m", fde)):
            if not math.isclose(report.get(key, math.nan), ref, rel_tol=1e-8):
                failures.append(f"cv baseline {key}={report.get(key)} but extrapolation gives {ref!r}")
        return failures


# ---------------------------------------------------------------------------
# dense_scene: single windows of hundreds of vehicles at constant density
# ---------------------------------------------------------------------------


class DenseSceneWorkload(Workload):
    """The window pipeline on large scenes, where the O(N^2) stages show."""

    SIZES = (250, 500, 750, 1000)
    DENSITY = 0.02  # vehicles per square metre
    ROAD_WIDTH = 40.0  # metres; road length grows with N
    SUBSETS = 6  # random vehicle subsets per window for the collision oracle
    SUBSET_SIZE = 40

    def _frames(self, n: int, rng) -> list:
        length = n / (self.DENSITY * self.ROAD_WIDTH)
        pos = np.column_stack([rng.uniform(0, length, n), rng.uniform(0, self.ROAD_WIDTH, n)])
        vel = rng.uniform(-5.0, 5.0, size=(n, 2))
        dims = np.tile([4.5, 1.8], (n, 1))
        dt = self.config.dt
        return [
            scene_graph.SceneFrame(
                timestamp=t * dt,
                vehicles=np.concatenate([pos + vel * (t * dt), vel, np.zeros_like(vel), dims], axis=1),
            )
            for t in range(self.config.t_obs)
        ]

    def setup(self) -> None:
        self.config = fm.desk_config()
        self.model = fm.init_model(self.config, seed=self.seed)
        rng = np.random.default_rng(self.seed)
        self.scenes = [self._frames(n, rng) for n in self.SIZES]
        self.threshold = self.config.collision_radius / 2.0  # as prediction_metrics uses it

    def _pipeline(self, frames, counter=None):
        window = fm.make_window(frames, self.config)
        batch = fm.prepare_batch([window], self.config)
        out = fm.forward_batch(self.model, batch, counter)
        pred = fm.outputs_to_predictions(out, batch, self.config)[0]
        rate = metrics.collision_rate([pred.point], self.threshold)
        return window, pred, rate

    def warmup(self) -> None:
        self._pipeline(self._frames(100, np.random.default_rng(self.seed + 1)))

    def run_round(self, span=_no_span) -> RoundResult:
        result = RoundResult()
        self.counter = scene_graph.WorkCounter()
        self.outputs = []
        for frames in self.scenes:
            gc.collect()
            result.attempted += 1
            with span(f"dense.n{frames[0].n}"):
                start = self.clock()
                try:
                    out = self._pipeline(frames, self.counter)
                except Exception as exc:
                    result.failed += 1
                    result.errors.append(f"n={frames[0].n}: {exc!r}")
                    continue
                result.busy += self.clock() - start
            self.outputs.append(out)
        result.windows = len(self.outputs)
        return result

    def check(self) -> list[str]:
        failures = []
        cfg = self.config
        rng = np.random.default_rng(self.seed + 2)
        edges = 0
        for frames, (window, pred, rate) in zip(self.scenes, self.outputs):
            n = frames[0].n
            for frame, (src, dst) in zip(frames, window.edge_lists):
                failures += checks.check_edges(frame.positions, src, dst, cfg.radius)
                edges += len(src)
            if not all(np.isfinite(a).all() for a in (pred.point, pred.lower, pred.upper)):
                failures.append(f"n={n}: non-finite predictions")
            if rate != float(checks.any_close_pair(pred.point, self.threshold)):
                failures.append(f"n={n}: collision_rate {rate} disagrees with the pair check")
            subsets = [pred.point[rng.choice(n, self.SUBSET_SIZE, replace=False)] for _ in range(self.SUBSETS)]
            expected = sum(checks.any_close_pair(s, self.threshold) for s in subsets) / len(subsets)
            got = metrics.collision_rate(subsets, self.threshold)
            if got != expected:
                failures.append(f"n={n}: collision_rate on subsets {got}, pair check {expected}")
        expected_evals = cfg.l_s * cfg.k_heads * edges
        if self.counter.score_evals != expected_evals:
            failures.append(f"score_evals {self.counter.score_evals} != l_s*k_heads*sum|E_t| = {expected_evals}")
        failures += self._check_equivariance(rng)
        return failures

    def _check_equivariance(self, rng) -> list[str]:
        """Translating and permuting the vehicles moves and permutes the predictions alike."""
        frames = self.scenes[0]
        _, pred, _ = self.outputs[0]
        n = frames[0].n
        perm = rng.permutation(n)
        shift = rng.uniform(-500.0, 500.0, size=2)
        moved = []
        for f in frames:
            v = f.vehicles[perm].copy()
            v[:, 0:2] += shift
            moved.append(scene_graph.SceneFrame(timestamp=f.timestamp, vehicles=v))
        _, moved_pred, _ = self._pipeline(moved)
        worst = max(
            float(np.abs(getattr(moved_pred, k) - shift - getattr(pred, k)[perm]).max())
            for k in ("point", "lower", "upper")
        )
        return [] if worst <= 1e-8 else [f"translation/permutation changes predictions by {worst!r} m"]


WORKLOADS = {
    "train": TrainWorkload,
    "replay": ReplayWorkload,
    "dense_scene": DenseSceneWorkload,
}
