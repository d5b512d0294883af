"""Multi-trial experiment runner with CSV/JSON persistence.

Each trial draws its own benchmark instance (rotation + optimum location)
and initial point from seeds derived deterministically from the master
seed, runs the chosen optimizer and hands back its `Trace`, written as one
CSV that `parse_trace_csv` reads back. A summary aggregates best-loss
statistics across the traces on a fixed evaluation-count grid.

A spec's optimizer reads its own config (`adadgs` or `baseline`) and the
other stays at its default. `ExperimentSpec.validate` resolves it once, with
the spec's budget: `manifest.json` records it, and each trial runs it.

A trial runs with numpy's BLAS on one thread (`blas_threads`), so its CSV
does not depend on the machine's BLAS thread count; a large stencil is
spread over the CPUs by the benchmark itself (`benchmarks.eval_threads`).

`run_trial`, `summarize`, `make_benchmark` and the three baseline
`*_minimize` functions stay module-level names, looked up through this
module on every call, and `parse_trace_csv` stays defined here:
`perfbench/tracer.py` times each in-process layer by rebinding them from
outside. A pool's workers start by the platform's default method, so a
name rebound in the parent need not reach them.

`ProcessPoolExecutor` is imported where a run first makes its pool, so an
in-process run, like `import adadgs`, loads neither
`concurrent.futures.process` nor `multiprocessing`.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import os
import platform
import re
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import BaselineConfig, es_bpop_minimize, fd_minimize, nesterov_minimize
from .benchmarks import (BENCHMARKS, Objective, eval_threads, make_benchmark, openblas_function,
                         optimum_value)
from .errors import check_count
from .optimizer import AdaDgsConfig, adadgs_minimize
from .trace import Trace

OPTIMIZERS = ("adadgs", "es_bpop", "nesterov", "fd")
# named starting configs; the paper's large-scale setting is used at every
# dimension, with L_max at its default (the domain diagonal)
PRESETS = {
    "paper-1000d": AdaDgsConfig(M=5, gamma=0.0, S=200, contraction=0.9, sigma0_scale=5.0),
}
WORKERS_ENV = "ADADGS_WORKERS"
# the BLAS thread count every trial runs under: a matvec's rounding depends on
# it, and a second BLAS thread spins on a CPU that a stencil's blocks can use
BLAS_THREADS = 1
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
    baseline: BaselineConfig = field(default_factory=BaselineConfig)

    def validate(self) -> AdaDgsConfig | BaselineConfig:
        """Reject the spec before any output is written; return its resolved config."""
        if self.function not in BENCHMARKS:
            raise ValueError(f"unknown function {self.function!r}")
        for name, low in (("dim", 2), ("trials", 1), ("budget", 1), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        # each optimizer reads only its own config, so the other stays at its default
        cfg, other = (self.adadgs, self.baseline) if self.optimizer == "adadgs" \
            else (self.baseline, self.adadgs)
        unread = changed_fields(other)
        if unread:
            raise ValueError(f"optimizer {self.optimizer!r} does not read "
                             f"the option {unread[0]!r}")
        # the spec's own budget and seed set the run's, so its config sets neither
        owned = [name for name in ("budget", "seed") if getattr(cfg, name) is not None]
        if owned:
            raise ValueError(f"the spec sets {owned[0]}, so {type(cfg).__name__}.{owned[0]} "
                             f"must be None, got {getattr(cfg, owned[0])!r}")
        # the configs read only the domain, so no rotation is drawn
        info = BENCHMARKS[self.function]
        objective = Objective(info.fn, self.dim, (info.lower, info.upper))
        cfg = dataclasses.replace(cfg, budget=self.budget)
        return cfg.resolved(objective) if self.optimizer == "adadgs" \
            else cfg.resolved(objective, self.optimizer)

    @property
    def run_dir(self) -> Path:
        return Path(self.out_dir) / f"{self.function}_{self.dim}_{self.optimizer}"


def trial_seeds(master_seed: int, trial: int) -> tuple[int, int, int]:
    """Deterministic (benchmark, x0, optimizer) seeds for one trial."""
    ss = np.random.SeedSequence([int(master_seed), int(trial)])
    a, b, c = ss.generate_state(3)
    return int(a), int(b), int(c)


def changed_fields(cfg) -> list[str]:
    """The fields in which the config `cfg` differs from its class's default."""
    default = type(cfg)()
    return [f.name for f in dataclasses.fields(cfg)
            if getattr(cfg, f.name) != getattr(default, f.name)]


def _blas_thread_functions():
    """numpy's bundled OpenBLAS (get, set) thread-count functions, or None
    where there are none to be found."""
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                           ("openblas_", "")):
        found = [openblas_function(f"{prefix}{verb}_num_threads{suffix}")
                 for verb in ("get", "set")]
        if None not in found:
            # each takes or returns a C int, whatever the library's integers
            (get, _), (set_, _) = found
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def blas_threads():
    """Run the block with numpy's BLAS on `BLAS_THREADS` threads, restoring
    the previous count on exit; where no setter was found, the BLAS keeps
    its own count."""
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    before = get()
    set_(BLAS_THREADS)
    try:
        yield
    finally:
        set_(before)


def run_trial(spec: ExperimentSpec, trial: int) -> Trace:
    """Run a single seeded trial, under `blas_threads`, and return its trace;
    the optimizer runs the config `spec.validate()` resolves, with the trial's seed."""
    bench_seed, x0_seed, opt_seed = trial_seeds(spec.seed, trial)
    cfg = dataclasses.replace(spec.validate(), seed=opt_seed)
    with blas_threads():
        objective = make_benchmark(spec.function, spec.dim, bench_seed)
        x0 = np.random.default_rng(x0_seed).uniform(
            objective.lower, objective.upper, size=spec.dim
        )
        # looked up at call time, so a rebound *_minimize is the one called
        run = {"adadgs": adadgs_minimize, "es_bpop": es_bpop_minimize,
               "nesterov": nesterov_minimize, "fd": fd_minimize}[spec.optimizer]
        _, _, trace = run(objective, x0, cfg)
    return trace


def _trial_traces(spec: ExperimentSpec, workers: int):
    """Yield each trial's Trace in trial order, in-process or from a pool."""
    jobs = ([spec] * spec.trials, range(spec.trials))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # on first use: see the docstring
        with ProcessPoolExecutor(workers) as pool:
            yield from pool.map(run_trial, *jobs)
    else:
        yield from map(run_trial, *jobs)


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


def summarize(traces: list[Trace], budget: int, optimum: float) -> dict:
    """Mean/std of best loss across trials on an evaluation-count grid, the
    median over trials of (f_best[0] - optimum) / max(f_best[-1] - optimum, 1e-300),
    and per trial the share of evaluations after it first reached its final f_best."""
    grid = checkpoint_grid(budget)
    columns = [np.array(tr.rows)[:, [1, 3]].T for tr in traces]  # evals, f_best
    # each checkpoint's f_best: the last row's within it, or the first row's;
    # a C-contiguous (checkpoints, trials) array reduces as each 1-D row would
    vals = np.stack([f_best[np.maximum(np.searchsorted(evals, grid, "right") - 1, 0)]
                     for evals, f_best in columns], axis=-1)
    stats = [stat(vals, axis=-1).tolist() for stat in (np.mean, np.std, np.median)]
    rows = [{"evals": cp, "mean_f_best": mean, "std_f_best": std, "median_f_best": median}
            for cp, mean, std, median in zip(grid, *stats)]
    final = np.array([tr.final.f_best for tr in traces])
    reached = [tr.rows[np.argmax(f_best == f_best[-1])].evals
               for tr, (_, f_best) in zip(traces, columns)]
    reduction = [(tr.rows[0].f_best - optimum) / max(tr.final.f_best - optimum, 1e-300)
                 for tr in traces]
    return {
        "checkpoints": rows,
        "final": {
            "mean_f_best": float(np.mean(final)),
            "std_f_best": float(np.std(final)),
            "median_f_best": float(np.median(final)),
            "min_f_best": float(np.min(final)),
            "max_f_best": float(np.max(final)),
            "median_reduction": float(np.median(reduction)),
        },
        "trials": [{"after_best_share": (tr.final.evals - at) / tr.final.evals}
                   for tr, at in zip(traces, reached)],
    }


def n_workers() -> int:
    """The worker count from ADADGS_WORKERS: 1 when unset, and a ValueError
    naming the variable when it is not a positive integer."""
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    check_count(WORKERS_ENV, workers, 1)
    return workers


def hardware() -> dict:
    """What the base functions' speed depends on: the CPU model, the CPUs in
    this process's affinity mask and the SIMD extensions numpy found; a fact
    the platform does not offer (/proc/cpuinfo, an affinity mask) is null."""
    model = cpus = None
    with contextlib.suppress(OSError):
        model = next((line.split(":", 1)[1].strip() for line in
                      Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), None)
    with contextlib.suppress(AttributeError):
        cpus = sorted(os.sched_getaffinity(0))
    return {"cpu": model, "cpus": cpus,
            "simd": np.show_config(mode="dicts")["SIMD Extensions"]}


def _write_json(path: Path, obj) -> None:
    # a spec may hold numpy integers; they are written as plain numbers
    _atomic_write(path, json.dumps(obj, indent=2, default=np.generic.item) + "\n")


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run all trials, write per-trial CSVs plus summary and manifest."""
    config = spec.validate()
    workers = min(n_workers(), spec.trials)  # 1: the trials run in-process
    optimum = optimum_value(spec.function, spec.dim)
    run_dir = spec.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    manifest = {
        "function": spec.function,
        "dim": spec.dim,
        "optimizer": spec.optimizer,
        "trials": spec.trials,
        "budget": spec.budget,
        "seed": spec.seed,
        "optimum": optimum,
        "config": dataclasses.asdict(config),
        # blas is null where numpy's BLAS offers no thread setter; the trial
        # CSVs may then depend on the machine's BLAS thread count
        "threads": {"blas": BLAS_THREADS if _blas_thread_functions() else None,
                    "eval": eval_threads(), "workers": workers},
        "software": {"adadgs": __version__, "python": platform.python_version(),
                     "numpy": np.__version__,
                     "blas": {key: blas.get(key) for key in ("name", "version")}},
        "hardware": hardware(),
        "trial_seeds": {
            str(k): trial_seeds(spec.seed, k) for k in range(spec.trials)
        },
        "complete": False,
    }
    # nothing of an earlier run into the same directory stays beside this one
    for path in run_dir.iterdir():
        if re.fullmatch(r"trial_\d+\.csv|summary\.json|manifest\.json", path.name):
            path.unlink()
    _write_json(run_dir / "manifest.json", manifest)

    # each CSV is written when its trial arrives; if a trial raises, the
    # earlier CSVs stay and the manifest stays marked incomplete
    traces = []
    for trial, trace in enumerate(_trial_traces(spec, workers)):
        _atomic_write(run_dir / f"trial_{trial}.csv", trace.to_csv(trial))
        traces.append(trace)
    summary = summarize(traces, spec.budget, optimum)
    _write_json(run_dir / "summary.json", summary)
    manifest["complete"] = True
    _write_json(run_dir / "manifest.json", manifest)
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
    """The named preset from PRESETS."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return PRESETS[name]


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
