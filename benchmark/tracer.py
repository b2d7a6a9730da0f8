"""Span tracer for the traced benchmark run.

The program is not modified: each public function listed in ``TARGETS`` is
wrapped from outside, in every ``fcw`` module namespace that holds it, and
unwrapped again after each traced round. A wrapper records one span (name,
start, end, parent) per call; a span's self time is its duration minus the
time covered by the spans it caused. A target that the program no longer
has is reported as absent and its metrics read 0.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (metric prefix, fcw module, attribute path inside the module)
TARGETS = [
    ("scene_graph.edges_from_positions", "scene_graph", "edges_from_positions"),
    ("model.make_window", "model", "make_window"),
    ("model.prepare_batch", "model", "prepare_batch"),
    ("metrics.collision_rate", "metrics", "collision_rate"),
    ("scene_graph.embed_features", "scene_graph", "embed_features"),
    ("scene_graph.gat_layer_edges", "scene_graph", "gat_layer_edges"),
    ("temporal.gru_encode_steps", "temporal", "gru_encode_steps"),
    ("temporal.mha_blocks", "temporal", "mha_blocks"),
    ("model.forward_batch_self", "model", "forward_batch"),
    ("model.training_loss", "model", "training_loss"),
    ("autodiff.backward", "autodiff", "Tensor.backward"),
    ("optim.adam_step", "optim", "adam_step"),
    ("scenario.load_dataset", "scenario", "load_dataset"),
    ("scenario.make_dataset", "scenario", "make_dataset"),
    ("checkpoint.load_checkpoint", "checkpoint", "load_checkpoint"),
    ("cqr.calibrate_model", "cqr", "calibrate_model"),
    ("pipeline.prediction_metrics_self", "pipeline", "prediction_metrics"),
    ("cqr.apply_correction", "cqr", "apply_correction"),
    ("drta.extract_risk_inputs", "drta", "extract_risk_inputs"),
    ("drta.track_step", "drta", "TrackState.step"),
    ("pipeline.warn_episode_self", "pipeline", "warn_episode"),
]

# Counts per traced round, except the two "per call" figures.
COUNTS = [
    "scene_graph.edges",  # directed edges returned by edges_from_positions
    "scene_graph.score_evals",  # WorkCounter attention-score evaluations
    "model.collision_pairs",  # collision pairs built by prepare_batch
    "model.forward_calls",
    "model.rows_per_forward",  # mean vehicle rows per forward_batch call
    "autodiff.nodes_per_step",  # median graph size reachable from the loss
]

OVERHEAD = "trace.overhead_pct"

PACKAGE = "fcw"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    return (
        [(prefix + "_s", "s") for prefix, _, _ in TARGETS]
        + [(name, "count") for name in COUNTS]
        + [(OVERHEAD, "%")]
    )


def _graph_size(root) -> int:
    """Distinct autodiff nodes reachable from ``root`` through its parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[list] = []  # [span index, start, child time]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.nodes_per_step: list[int] = []
        self.rows: int = 0
        self.forward_by_stage: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.rounds = 0
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append([len(self.spans) - 1, time.perf_counter(), 0.0])

    def _end(self, name: str) -> None:
        end = time.perf_counter()
        index, start, child = self._open.pop()
        self.spans[index] = (name, start, end, self.spans[index][3])
        self.calls[name] += 1
        self.self_time[name] += (end - start) - child
        if self._open:
            self._open[-1][2] += end - start

    @contextmanager
    def span(self, name: str):
        self._begin(name)
        try:
            yield
        finally:
            self._end(name)

    # -- wrapping ------------------------------------------------------------

    def _modules(self) -> list:
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]

    def _wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "autodiff.backward":
                tracer.nodes_per_step.append(_graph_size(args[0]))
            counter = before = None
            if name == "model.forward_batch_self":
                counter = args[2] if len(args) > 2 else kwargs.get("counter")
                if counter is None:
                    counter = tracer._work_counter()
                    if len(args) > 2:
                        args = (*args[:2], counter, *args[3:])
                    else:
                        kwargs["counter"] = counter
                before = counter.score_evals
            tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(name)
            tracer._count(name, args, result)
            if counter is not None:
                tracer.counts["scene_graph.score_evals"] += counter.score_evals - before
            return result

        return traced

    def _work_counter(self):
        return sys.modules[PACKAGE + ".scene_graph"].WorkCounter()

    def _count(self, name: str, args, result) -> None:
        if name == "scene_graph.edges_from_positions":
            self.counts["scene_graph.edges"] += len(result[0])
        elif name == "model.prepare_batch":
            self.counts["model.collision_pairs"] += len(result.pair_i)
        elif name == "model.forward_batch_self":
            self.counts["model.forward_calls"] += 1
            # the span just inside the round names the workload stage that called
            stage = self.spans[self._open[1][0]][0] if len(self._open) > 1 else "round"
            self.forward_by_stage[stage] += 1
            self.rows += args[1].offsets[-1]

    def install(self) -> None:
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        self.absent = []
        for name, module_name, path in TARGETS:
            owner = modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrapper(name, original)
            if owner_path:  # a method: patch the class once
                self._patches.append((owner, attr, original, wrapper))
                setattr(owner, attr, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    @contextmanager
    def traced_round(self):
        self.install()
        try:
            with self.span("round"):
                yield
        finally:
            self.uninstall()
            self.rounds += 1

    # -- report --------------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        rounds = max(self.rounds, 1)
        out: dict[str, float] = {}
        for prefix, _, _ in TARGETS:
            calls = self.calls.get(prefix, 0)
            out[prefix + "_s"] = self.self_time[prefix] / calls if calls else 0.0
        for name in COUNTS:
            out[name] = self.counts.get(name, 0) / rounds
        calls = self.counts.get("model.forward_calls", 0)
        out["model.rows_per_forward"] = self.rows / calls if calls else 0.0
        out["autodiff.nodes_per_step"] = (
            float(statistics.median(self.nodes_per_step)) if self.nodes_per_step else 0.0
        )
        out[OVERHEAD] = overhead_pct
        return out

    def summary(self) -> list[str]:
        """Human-readable lines: calls and self time per span name."""
        lines = [f"traced rounds: {self.rounds}, spans: {len(self.spans)}"]
        for name in sorted(self.self_time, key=self.self_time.get, reverse=True):
            calls = self.calls[name]
            lines.append(
                f"  {name:<40} calls/round {calls / max(self.rounds, 1):>10.1f}"
                f"  self {self.self_time[name] / max(self.rounds, 1):>9.4f} s/round"
            )
        for stage, calls in sorted(self.forward_by_stage.items()):
            lines.append(f"  forward_batch calls/round under {stage}: {calls / max(self.rounds, 1):.1f}")
        for name in self.absent:
            lines.append(f"  {name:<40} absent")
        return lines

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")
