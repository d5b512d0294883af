"""Write the no-tuning scorecard: how AdaDGS does on every benchmark, with
no per-function tuning.

The grid is two configs (the `paper-1000d` preset and the default
`AdaDgsConfig()`) x the 12 benchmark functions x d in {50, 100}, each cell
an experiment of 3 trials with a budget of 3000*d evaluations and seed 0.
Each cell records, from the files `run_experiment` writes and nothing else:

- `median_gap`: the median over trials of the final f_best minus the optimum;
- `median_reduction`: `summary.json`'s median of the initial over the final gap;
- `median_after_best_share`: the median share of the budget spent after a
  trial first reached its final f_best;
- `min_final_sigma`: the smallest smoothing radius a trial ended with;
- `csv_sha256`: each trial CSV's sha256, in trial order.

No field is a timing, so two runs on one machine write the same bytes, at
any `ADADGS_WORKERS`. A diff of two scorecards shows which trajectories a
change moved, and which way.

    python tools/scorecard.py [--out SCORECARD.json]

The default output is `SCORECARD.json` next to this script's directory;
the experiments run in a temporary directory that is removed afterwards.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from adadgs.benchmarks import BENCHMARKS  # noqa: E402
from adadgs.harness import ExperimentSpec, preset, run_experiment  # noqa: E402
from adadgs.optimizer import AdaDgsConfig  # noqa: E402

CONFIGS = {"paper-1000d": preset("paper-1000d"), "default": AdaDgsConfig()}
DIMS = (50, 100)
TRIALS = 3
EVALS_PER_DIM = 3000
SEED = 0


def cell(run_dir: Path) -> dict:
    """One experiment's row, read from its manifest, summary and trial CSVs."""
    manifest = json.loads((run_dir / "manifest.json").read_text())
    summary = json.loads((run_dir / "summary.json").read_text())
    csvs = [(run_dir / f"trial_{k}.csv").read_bytes() for k in range(manifest["trials"])]
    finals = [list(csv.DictReader(text.decode().splitlines()))[-1] for text in csvs]
    return {
        "median_gap": statistics.median(float(row["f_best"]) - manifest["optimum"]
                                        for row in finals),
        "median_reduction": summary["final"]["median_reduction"],
        "median_after_best_share": statistics.median(
            trial["after_best_share"] for trial in summary["trials"]),
        "min_final_sigma": min(float(row["sigma"]) for row in finals),
        "csv_sha256": [hashlib.sha256(text).hexdigest() for text in csvs],
    }


def scorecard(out_dir: Path) -> dict:
    """Run the grid under `out_dir` and return the scorecard."""
    cells = []
    for name, config in CONFIGS.items():
        for dim in DIMS:
            for function in sorted(BENCHMARKS):
                spec = ExperimentSpec(function, dim, "adadgs", budget=EVALS_PER_DIM * dim,
                                      trials=TRIALS, seed=SEED,
                                      out_dir=str(out_dir / name), adadgs=config)
                run_experiment(spec)
                cells.append({"config": name, "function": function, "dim": dim,
                              **cell(spec.run_dir)})
    return {"grid": {"configs": list(CONFIGS), "dims": list(DIMS), "trials": TRIALS,
                     "budget": f"{EVALS_PER_DIM}*d", "seed": SEED},
            "cells": cells}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "SCORECARD.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        card = scorecard(Path(tmp))
    args.out.write_text(json.dumps(card, indent=2) + "\n")


if __name__ == "__main__":
    main()
