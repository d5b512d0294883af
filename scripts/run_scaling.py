#!/usr/bin/env python3
"""Dimension-scaling study: AdaDGS on one function at several dimensions.

Each dimension gets a budget proportional to d (default 3000*d) and the
script reports the median reduction factor from the initial loss.

Example:
    python3 scripts/run_scaling.py --func ackley --dims 200 400 1000 \
        --trials 5 --out results/scaling
"""
import argparse
import statistics

from adadgs.harness import (
    ExperimentSpec,
    parse_trace_csv,
    preset,
    run_experiment,
)


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--func", default="ackley")
    p.add_argument("--dims", type=int, nargs="+", default=[200, 400, 1000])
    p.add_argument("--evals-per-dim", type=int, default=3000)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results/scaling")
    args = p.parse_args()

    for d in args.dims:
        budget = args.evals_per_dim * d
        spec = ExperimentSpec(
            function=args.func, dim=d, optimizer="adadgs", budget=budget,
            trials=args.trials, seed=args.seed, out_dir=f"{args.out}/d{d}",
            adadgs=preset("paper-1000d"),
        )
        summary = run_experiment(spec)
        ratios = []
        for k in range(args.trials):
            rows = list(parse_trace_csv(
                (spec.run_dir / f"trial_{k}.csv").read_text()))
            ratios.append(rows[0].f_best / max(rows[-1].f_best, 1e-300))
        print(f"d={d:5d} budget={budget:8d} "
              f"median f_best = {summary['final']['median_f_best']:.6g}, "
              f"median reduction = {statistics.median(ratios):.3e}x")


if __name__ == "__main__":
    main()
