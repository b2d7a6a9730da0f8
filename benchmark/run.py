"""Benchmark of the fcw pipeline: one workload, one seed, one process.

    python3 benchmark/run.py --workload {train,replay,dense_scene} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead (see README.md in this directory).
"""
import os
import sys
import time

_START = time.perf_counter()  # set-up is timed from here: before NumPy and the program are imported

from speed import SpeedProbe  # noqa: E402  (pure Python; the probe runs through set-up and the timed rounds)

PROBE = SpeedProbe()
PROBE.start()

# Single-threaded BLAS: must be set before NumPy is first imported. Two BLAS
# threads on a two-core machine made training both slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "replay", "dense_scene"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_program():
    if not (SRC / "fcw" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'fcw'}")
    sys.path.insert(0, str(SRC))
    import fcw

    if Path(fcw.__file__).resolve().parent != SRC / "fcw":
        raise SystemExit(f"error: imported fcw from {fcw.__file__}, not from {SRC}")


def _measure(workload, seconds: float, tracer):
    """Run whole rounds until ``seconds`` have passed.

    In a traced run every second round is traced, so traced and untraced
    rounds interleave and the busy time of each kind gives the overhead.
    """
    samples: dict[str, list[float]] = {}
    busy = {False: [], True: []}
    attempted = failed = rounds = windows = 0
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        with tracer.traced_round() if traced else nullcontext():
            result = workload.run_round(tracer.span) if traced else workload.run_round()
        rounds += 1
        busy[traced].append(result.busy)
        attempted += result.attempted
        failed += result.failed
        errors += result.errors
        if not traced:
            windows += result.windows
            for name, values in result.samples.items():
                samples.setdefault(name, []).extend(values)
        if time.perf_counter() - start >= seconds and (tracer is None or rounds % 2 == 0):
            break
    return samples, busy, windows, attempted, failed, errors


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _import_program()
    import tracer as tracing
    from workloads import STAGE_RATES, WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir, PROBE.clock)
    try:
        workload.setup()
        workload.warmup()
        setup_raw_s = PROBE.clock() - _START
        setup_speed = PROBE.speed_factor(since=(0.0, 0))
        if args.trace:  # the traced run reports raw times; the probe would only add to every span
            PROBE.stop()
        gc.collect()
        tracer = tracing.Tracer() if args.trace else None
        mark = PROBE.mark()
        samples, busy, windows, attempted, failed, errors = _measure(workload, args.seconds, tracer)
        run_speed = None if args.trace else PROBE.speed_factor(since=mark)
        PROBE.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in errors[:10] + failures[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if args.trace:
        untraced, traced = statistics.median(busy[False]), statistics.median(busy[True])
        values = tracer.metrics(100.0 * (traced - untraced) / untraced)
        for name in STAGE_RATES:  # from the untraced rounds; 0 where the workload has no such stage
            values[name] = statistics.median(samples[name]) if name in samples else 0.0
        print("\n".join(tracer.summary()), file=sys.stderr)
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
        units = tracing.metric_names() + list(STAGE_RATES.items())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    else:
        raw_rate = windows / sum(busy[False])
        print(f"{args.workload}: raw set-up {setup_raw_s:.4f} s at speed factor {setup_speed:.4f}; "
              f"raw {raw_rate:.4f} windows/s at speed factor {run_speed:.4f}", file=sys.stderr)
        metrics = {
            "setup_s": {"value": setup_raw_s / setup_speed, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "windows_per_s": {"value": raw_rate * run_speed, "unit": "windows/s"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
