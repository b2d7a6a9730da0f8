#!/usr/bin/env python3
"""Train the predictor on the interaction-heavy families and compare its
test ADE/FDE against the constant-velocity baseline on the same split."""
import argparse
import time

from fcw import model as md
from fcw import pipeline as pl
from fcw import scenario as sc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--episodes-per-family", type=int, default=40)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--out", help="optional checkpoint path")
    args = ap.parse_args()

    specs = []
    for fi, family in enumerate(("sudden_braking", "cut_in")):
        for k in range(args.episodes_per_family):
            specs.append(
                sc.ScenarioSpec(
                    family=family,
                    duration=6.5,
                    n_vehicles=3,
                    brake_time=1.5,
                    seed=3 * 100_003 + fi * 1009 + k,
                    attentive=True,
                )
            )
    episodes = sc.generate_episodes(specs)
    config = md.desk_config(l_s=1)
    train_eps, cal_eps, test_eps = sc.split_episodes(episodes, split_seed=0)
    train = sc.dataset_windows(train_eps, config)
    span = config.t_obs + config.t_pred
    cal, test = (sum(len(ep.frames) - span + 1 for ep in eps) for eps in (cal_eps, test_eps))
    print(f"{len(train)} train / {cal} cal / {test} test windows")

    t0 = time.perf_counter()
    model, history = md.train(
        train,
        config,
        seed=args.seed,
        epochs=args.epochs,
        batch_size=32,
        base_lr=args.lr,
        log_hook=lambda r: print(
            f"epoch {r['epoch']:>3}  lr {r['lr']:.2e}  loss {r['loss']:.5f}"
        ),
    )
    print(f"trained in {time.perf_counter() - t0:.0f}s")

    full = pl.prediction_metrics(model, test_eps, config)
    cv = pl.prediction_metrics(None, test_eps, config, baseline="cv")
    gain = 1.0 - full["ade_m"] / cv["ade_m"]
    print(f"model ADE {full['ade_m']:.4f} m  FDE {full['fde_m']:.4f} m")
    print(f"cv    ADE {cv['ade_m']:.4f} m  FDE {cv['fde_m']:.4f} m")
    print(f"improvement over constant velocity: {gain:.1%}")

    if args.out:
        from fcw.checkpoint import save_checkpoint

        save_checkpoint(args.out, model.params, config.to_dict())
        print(f"checkpoint written to {args.out}")


if __name__ == "__main__":
    main()
