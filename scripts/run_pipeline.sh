#!/bin/sh
# End-to-end smoke run: generate data, train, calibrate, replay, evaluate, bench.
# Every output but bench.txt (wall-clock times) is deterministic, so two
# checkouts compare with: diff -r -x bench.txt OUT_A OUT_B
set -eu

OUT=${1:-runs/smoke}
CFG=configs/smoke.cfg
mkdir -p "$OUT"

python3 -m fcw.cli gen --config "$CFG" --seed 0 --out "$OUT/data"
python3 -m fcw.cli train --config "$CFG" --seed 0 --data "$OUT/data" --out "$OUT/model.ckpt"
python3 -m fcw.cli calibrate --config "$CFG" --checkpoint "$OUT/model.ckpt" \
    --data "$OUT/data" --alpha 0.1 --out "$OUT/calib.json"
python3 -m fcw.cli warn --config "$CFG" --checkpoint "$OUT/model.ckpt" \
    --calibration "$OUT/calib.json" --data "$OUT/data" --out "$OUT/events.csv"
python3 -m fcw.cli warn --config "$CFG" --checkpoint "$OUT/model.ckpt" \
    --calibration "$OUT/calib.json" --data "$OUT/data" --out "$OUT/events_ablated.csv" \
    --ablation no_cqr,fixed_threshold=0.9
python3 -m fcw.cli eval --config "$CFG" --data "$OUT/data" --events "$OUT/events.csv" \
    --checkpoint "$OUT/model.ckpt" --calibration "$OUT/calib.json" --out "$OUT/report.txt"
python3 -m fcw.cli eval --config "$CFG" --data "$OUT/data" --baseline cv --out "$OUT/cv.txt"
python3 -m fcw.cli bench --checkpoint "$OUT/model.ckpt" --n-grid 10,20,40,80,120 \
    --out "$OUT/bench.txt"

echo "artifacts in $OUT"
