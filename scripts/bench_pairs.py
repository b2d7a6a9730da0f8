#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload train --seeds 1101-1110 --claimed windows_per_s --out BENCH_9.json

Each pair runs ``python3 benchmark/run.py --workload W --seed S --seconds 30``
once from each checkout, one run at a time, the parent first on even pair
offsets. The end-to-end metrics come from the last stdout line of each run,
the raw rate and the two speed factors from its stderr line. Per metric the
summary holds both medians, their ratio, the parent's interquartile range
and the pairs the change won. A workload already in ``--out`` is replaced;
the others are kept, so each workload can be run on its own.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 30  # run length of every benchmark run, as the benchmark protocol fixes it

# NumPy's version and the BLAS it was built against, from the interpreter that runs the benchmark
NUMPY_INFO = (
    "import json, numpy; blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
    "print(json.dumps({'numpy': numpy.__version__, 'blas': blas['name'], 'blas_version': blas['version']}))"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

SPEED_LINE = re.compile(
    r"raw set-up (?P<setup_raw>[\d.]+) s at speed factor (?P<setup_speed_factor>[\d.]+); "
    r"raw (?P<raw_windows_per_s>[\d.]+) windows/s at speed factor (?P<run_speed_factor>[\d.]+)"
)


def parse_seeds(text: str) -> list[int]:
    """``1101-1110`` or ``1101,1103,1107``."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run from ``checkout``: its end-to-end values and speed factors."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {checkout} {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    run = {key: report[key] for key in ("correct", "attempted", "failed")}
    run.update({name: entry["value"] for name, entry in report["metrics"].items()})
    speed = SPEED_LINE.search(proc.stderr)
    if speed:
        run.update({k: float(v) for k, v in speed.groupdict().items() if k != "setup_raw"})
    return run


def iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        out[name] = {
            "better": better,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "parent_iqr": iqr(parent),
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True, choices=["train", "replay", "dense_scene"])
    ap.add_argument("--seeds", required=True, help="one seed per pair: 1101-1110 or 1101,1102")
    ap.add_argument("--claimed", default=None, help="the end-to-end metric the change claims to improve")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = parse_seeds(args.seeds)
    pairs = []
    for offset, seed in enumerate(seeds):
        order = ("parent", "change") if offset % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed)
        pairs.append({key: pair[key] for key in ("seed", "first", "parent", "change")})
        p, c = pair["parent"]["windows_per_s"], pair["change"]["windows_per_s"]
        print(f"{args.workload} seed {seed}: parent {p:.2f}, change {c:.2f} windows/s", file=sys.stderr)

    title = subprocess.run(
        ["git", "log", "-1", "--format=%s"], cwd=checkouts["change"], capture_output=True, text=True
    ).stdout.strip()
    numpy_info = json.loads(
        subprocess.run([sys.executable, "-c", NUMPY_INFO], capture_output=True, text=True, check=True).stdout
    )
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "description": (
            f"Alternating parent/change pairs of `python3 benchmark/run.py --workload W --seed S "
            f"--seconds {SECONDS}`, each side run from its own checkout; the parent side runs first on "
            "even pair offsets. Metrics are the end-to-end values the harness prints (speed-scaled); "
            "`raw_windows_per_s` and the two speed factors come from its stderr line."
        ),
        "change": title,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            **numpy_info,
            **{name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
            "platform": platform.platform(),
        },
    })
    doc.setdefault("workloads", {})[args.workload] = {
        "claimed": args.claimed,
        "seeds": seeds,
        "all_correct": all(p[side]["correct"] for p in pairs for side in ("parent", "change")),
        "failed": sum(p[side]["failed"] for p in pairs for side in ("parent", "change")),
        "summary": summarise(pairs, spec["end_to_end"]),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
