"""Multi-trial experiment runner with CSV/JSON persistence.

Each trial draws its own benchmark instance (rotation + optimum location)
and initial point from seeds derived deterministically from the master
seed, runs the chosen optimizer, and writes one CSV. A summary aggregates
best-loss statistics across trials on a fixed evaluation-count grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, es_bpop_minimize, fd_minimize, nesterov_minimize
from .benchmarks import BENCHMARKS, make_benchmark, optimum_value
from .optimizer import AdaDgsConfig, adadgs_minimize
from .trace import Trace

OPTIMIZERS = ("adadgs", "es_bpop", "nesterov", "fd")
# the baseline_overrides keys each optimizer reads
_OVERRIDES_READ = {"adadgs": (), "es_bpop": ("learning_rate", "sigma_or_h", "population"),
                   "nesterov": ("learning_rate", "sigma_or_h"),
                   "fd": ("learning_rate", "sigma_or_h")}
PRESETS = ("paper-1000d",)
WORKERS_ENV = "ADADGS_WORKERS"
N_CHECKPOINTS = 100


@dataclass(frozen=True)
class ExperimentSpec:
    function: str
    dim: int
    optimizer: str
    budget: int
    trials: int = 20
    seed: int = 0
    out_dir: str = "results"
    adadgs: AdaDgsConfig = field(default_factory=AdaDgsConfig)
    baseline_overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.function not in BENCHMARKS:
            raise ValueError(f"unknown function {self.function!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for key in self.baseline_overrides:
            if key not in _OVERRIDES_READ[self.optimizer]:
                raise ValueError(f"optimizer {self.optimizer!r} does not read "
                                 f"the baseline option {key!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")

    @property
    def run_dir(self) -> Path:
        return Path(self.out_dir) / f"{self.function}_{self.dim}_{self.optimizer}"


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int, int]:
    """Deterministic (benchmark, x0, optimizer) seeds for one trial."""
    ss = np.random.SeedSequence([int(master_seed), int(trial)])
    a, b, c = ss.generate_state(3)
    return int(a), int(b), int(c)


def default_baseline_config(spec: ExperimentSpec, objective) -> BaselineConfig:
    """Scale-aware baseline defaults; the source text specifies none.

    An override is used as given, so an invalid one fails validation. The
    default es_bpop population, M*d, is rounded up to even.
    """
    width = objective.domain_width
    learning_rate, sigma_or_h = {
        "es_bpop": (0.002 * width, 0.02 * width),
        "nesterov": (0.001 * width, 1e-5 * width),
        "fd": (0.001, 1e-5 * width),
    }[spec.optimizer]
    population = None
    if spec.optimizer == "es_bpop":
        population = spec.adadgs.M * spec.dim
        population += population % 2
    settings = dict(learning_rate=learning_rate, sigma_or_h=sigma_or_h,
                    population=population, budget=spec.budget)
    return BaselineConfig(**{**settings, **spec.baseline_overrides})


def run_trial(spec: ExperimentSpec, trial: int) -> Trace:
    """Run a single seeded trial and return its trace."""
    bench_seed, x0_seed, opt_seed = trial_seeds(spec.seed, trial)
    objective = make_benchmark(spec.function, spec.dim, bench_seed)
    x0 = np.random.default_rng(x0_seed).uniform(
        objective.lower, objective.upper, size=spec.dim
    )
    if spec.optimizer == "adadgs":
        cfg = dataclasses.replace(spec.adadgs, budget=spec.budget, seed=opt_seed)
        _, _, trace = adadgs_minimize(objective, x0, cfg)
    else:
        cfg = dataclasses.replace(
            default_baseline_config(spec, objective), seed=opt_seed
        )
        run = {"es_bpop": es_bpop_minimize, "nesterov": nesterov_minimize,
               "fd": fd_minimize}[spec.optimizer]
        _, _, trace = run(objective, x0, cfg)
    return trace


def _run_trial_csv(args) -> tuple[int, str]:
    spec, trial = args
    return trial, run_trial(spec, trial).to_csv(trial)


def _trial_csvs(spec: ExperimentSpec, workers: int):
    """Yield (trial, CSV text) in trial order, in-process or from a pool."""
    jobs = [(spec, k) for k in range(spec.trials)]
    if workers > 1 and spec.trials > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_run_trial_csv, jobs)
    else:
        yield from map(_run_trial_csv, jobs)


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checkpoint_grid(budget: int, n: int = N_CHECKPOINTS) -> list[int]:
    grid = sorted({max(1, budget * k // n) for k in range(1, n + 1)})
    return grid


def summarize(traces: list[Trace], budget: int) -> dict:
    """Mean/std of best loss across trials on an evaluation-count grid."""
    grid = checkpoint_grid(budget)
    rows = []
    for cp in grid:
        vals = np.array([tr.f_best_at(cp) for tr in traces])
        rows.append({
            "evals": cp,
            "mean_f_best": float(np.mean(vals)),
            "std_f_best": float(np.std(vals)),
            "median_f_best": float(np.median(vals)),
        })
    final = np.array([tr.final.f_best for tr in traces])
    return {
        "checkpoints": rows,
        "final": {
            "mean_f_best": float(np.mean(final)),
            "std_f_best": float(np.std(final)),
            "median_f_best": float(np.median(final)),
            "min_f_best": float(np.min(final)),
            "max_f_best": float(np.max(final)),
        },
    }


def n_workers() -> int:
    """The worker count from ADADGS_WORKERS: 1 when unset, and a ValueError
    naming the variable when it is not a positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return workers


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run all trials, write per-trial CSVs plus summary and manifest."""
    spec.validate()
    workers = n_workers()
    run_dir = spec.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "function": spec.function,
        "dim": spec.dim,
        "optimizer": spec.optimizer,
        "trials": spec.trials,
        "budget": spec.budget,
        "seed": spec.seed,
        "optimum": optimum_value(spec.function, spec.dim),
        "adadgs_config": dataclasses.asdict(spec.adadgs),
        "baseline_overrides": dict(spec.baseline_overrides),
        "trial_seeds": {
            str(k): trial_seeds(spec.seed, k) for k in range(spec.trials)
        },
        "complete": False,
    }
    _atomic_write(run_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    # each CSV is written when its trial arrives; if a trial raises, the
    # earlier CSVs stay and the manifest stays marked incomplete
    csv_texts = []
    for trial, csv_text in _trial_csvs(spec, workers):
        _atomic_write(run_dir / f"trial_{trial}.csv", csv_text)
        csv_texts.append(csv_text)

    traces = [parse_trace_csv(text) for text in csv_texts]
    summary = summarize(traces, spec.budget)
    _atomic_write(run_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    manifest["complete"] = True
    _atomic_write(run_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return summary


def parse_trace_csv(text: str) -> Trace:
    """Rebuild a Trace from CSV text (inverse of Trace.to_csv)."""
    trace = Trace()
    lines = text.strip().splitlines()
    for line in lines[1:]:
        _, it, ev, f_cur, f_best, sigma, step = line.split(",")
        trace.append(int(it), int(ev), float(f_cur), float(f_best),
                     float(sigma), float(step))
    return trace


def preset(name: str) -> AdaDgsConfig:
    """Named hyper-parameter presets for the large-scale benchmark runs."""
    if name == "paper-1000d":
        # M=5, gamma=0 (exploration off), sigma0 = 5 * domain width,
        # S=200 line-search points with contraction factor 0.9;
        # L_max stays at its default (domain diagonal)
        return AdaDgsConfig(M=5, gamma=0.0, S=200, contraction=0.9,
                            sigma0_scale=5.0)
    raise ValueError(f"unknown preset {name!r}")


def list_functions() -> list[dict]:
    """Alphabetical registry of benchmark functions for display."""
    rows = []
    for name in sorted(BENCHMARKS):
        info = BENCHMARKS[name]
        if info.optimum_per_dim != 0.0:
            opt = f"{info.optimum_per_dim:.3f}*d"
        else:
            opt = f"{info.optimum_offset:g}"
        rows.append({
            "name": name,
            "domain": f"[{info.lower:g}, {info.upper:g}]^d",
            "optimum": opt,
        })
    return rows
