"""adadgs benchmark: one workload per invocation, end-to-end or traced.

    python3 perfbench/run.py --workload dgs-1000d --seed 0 --seconds 55 --trace 0

With --trace 0 the workload is repeated in-process until --seconds have
passed and the end-to-end metrics are reported: setup_s (median of several
fresh-process set-ups), wall_s and evals_per_s (medians over repetitions)
and peak_rss_mb (this process and its children). With --trace 1 it runs
untraced, traced and untraced again, in-process; the per-layer metrics and
the tracing overhead come from those runs. Every traced run then makes the
same side runs, whatever the workload, so that each layer is measured in
each traced run: the d=100 AdaDGS trials in-process and through the process
pool (workers' wall and CPU time), the baseline optimizers untraced and
traced (the baselines.* metrics), and one AdaDGS trial untraced and traced
against sphere_worker.py over the line protocol. Every run's outputs are
checked (see `check_*`), and all runs of one seed must write byte-identical
trial CSVs.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Full results, the
machine facts and (traced) the span logs go to .perfbench_out/ in the
repository root. The benchmark sets no BLAS or OpenMP thread variable; it
sets ADADGS_WORKERS only for the duration of a workload's own run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
ENV_FACTS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ADADGS_WORKERS")
# f_best may sit below the known optimum only by rounding
OPTIMUM_TOL = 1e-9
# the AdaDGS trial against sphere_worker.py over the H/E line protocol
SPHERE_DIM, SPHERE_BUDGET = 20, 20_000

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}
# computed from array shapes (GFLOP of the rotation matmul, stencil bytes) and
# CSV text length, not timed: they repeat exactly for a given seed
COMPUTED = ("benchmarks.rotation_gflop", "gradient.stencil_mb", "trace.csv_mb")


@dataclass
class Rep:
    """One repetition of a workload and what its outputs showed."""

    wall: float = 0.0
    child_cpu: float = 0.0  # CPU of reaped children: pool workers, sphere worker
    attempted: int = 0
    failed: int = 0
    evals: list[int] = field(default_factory=list)  # final evals per trial, run order
    gaps: list[float] = field(default_factory=list)  # final f_best - optimum per trial
    after_best: int = 0  # evaluations spent after each trial's last improvement
    hashes: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def f_best_gap(self) -> float:
        return statistics.median(self.gaps) if self.gaps else math.nan


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
        blas_config = blas.get("openblas configuration", "")
    except (TypeError, KeyError, AttributeError):
        blas_name, blas_config = "unknown", ""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_config": blas_config,
        "env": {k: os.environ.get(k) for k in ENV_FACTS},
    }


def measure_setup(name: str, seed: int, out_dir: Path) -> list[float]:
    """Seconds from spawning a fresh process to its being ready for trial 0."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(out_dir)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return times


# -- correctness checks ------------------------------------------------


def check_trace_csv(text: str, trial: int, budget: int, optimum: float, rep: Rep,
                    where: str) -> float | None:
    """Check header, monotone evals, finite non-increasing f_best, budget and
    optimum; record the trial in `rep` and return its final f_best."""
    from adadgs.trace import CSV_HEADER

    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        rep.problems.append(f"{where}: bad CSV header")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        rep.problems.append(f"{where}: CSV has no rows")
        return None
    evals = [int(r[2]) for r in rows]
    f_best = [float(r[4]) for r in rows]
    if any(int(r[0]) != trial for r in rows):
        rep.problems.append(f"{where}: wrong trial column")
    if any(b <= a for a, b in zip(evals, evals[1:])):
        rep.problems.append(f"{where}: evals not strictly increasing")
    if not all(math.isfinite(f) for f in f_best):
        rep.problems.append(f"{where}: non-finite f_best")
    if any(b > a for a, b in zip(f_best, f_best[1:])):
        rep.problems.append(f"{where}: f_best increased")
    if evals[-1] > budget:
        rep.problems.append(f"{where}: {evals[-1]} evals exceed budget {budget}")
    gap = f_best[-1] - optimum
    if gap < -OPTIMUM_TOL * max(1.0, abs(optimum)):
        rep.problems.append(f"{where}: f_best {f_best[-1]!r} below optimum {optimum!r}")
    last_improvement = evals[f_best.index(f_best[-1])]
    rep.evals.append(evals[-1])
    rep.gaps.append(gap)
    rep.after_best += evals[-1] - last_improvement
    return f_best[-1]


def check_experiment(spec, rep: Rep) -> None:
    """Check one run_experiment output directory."""
    run_dir = spec.run_dir
    where = run_dir.name
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    if manifest.get("complete") is not True:
        rep.problems.append(f"{where}: manifest.json is not complete")
    optimum = manifest.get("optimum")
    if optimum is None:
        from adadgs.benchmarks import optimum_value

        optimum = optimum_value(spec.function, spec.dim)
    finals = []
    rep.attempted += spec.trials
    for trial in range(spec.trials):
        path = run_dir / f"trial_{trial}.csv"
        if not path.exists():
            rep.failed += 1
            continue
        text = path.read_text()
        rep.hashes[f"{where}/{path.name}"] = hashlib.sha256(text.encode()).hexdigest()
        final = check_trace_csv(text, trial, spec.budget, optimum, rep, f"{where}/{path.name}")
        if final is not None:
            finals.append(final)
    summary_path = run_dir / "summary.json"
    if summary_path.exists() and len(finals) == spec.trials:
        summary = json.loads(summary_path.read_text())
        if summary["final"]["median_f_best"] != statistics.median(finals):
            rep.problems.append(f"{where}: summary.json median disagrees with the CSVs")
    elif rep.failed == 0:
        rep.problems.append(f"{where}: summary.json missing")


# -- one repetition ----------------------------------------------------


def run_once(make_specs, seed: int, out_dir: Path, workers: int, tracer=None) -> Rep:
    """Run the experiments `make_specs` builds into a fresh `out_dir` and check
    them."""
    from adadgs.harness import WORKERS_ENV, run_experiment

    specs = make_specs(seed, str(out_dir))
    rep = Rep()
    found = os.environ.get(WORKERS_ENV)
    os.environ[WORKERS_ENV] = str(workers)
    cpu0 = children_cpu()
    start = perf_counter()
    try:
        for spec in specs:
            try:
                if tracer is None:
                    run_experiment(spec)
                else:
                    with tracer.span("harness.run"):
                        run_experiment(spec)
            except Exception as exc:  # a failed trial is counted, not fatal
                rep.problems.append(f"{spec.run_dir.name}: {type(exc).__name__}: {exc}")
    finally:
        rep.wall = perf_counter() - start
        rep.child_cpu = children_cpu() - cpu0
        if found is None:
            del os.environ[WORKERS_ENV]
        else:
            os.environ[WORKERS_ENV] = found
    for spec in specs:
        check_experiment(spec, rep)
    return rep


def run_sphere(seed: int, out_dir: Path, tracer) -> Rep:
    """One AdaDGS trial against the external sphere worker.

    Wall time covers the trial and writing its CSV, not the worker's start
    and handshake.
    """
    import numpy as np

    from adadgs.benchmarks import SubprocessObjective
    from adadgs.harness import trial_seeds
    from adadgs.optimizer import AdaDgsConfig, adadgs_minimize

    _, x0_seed, opt_seed = trial_seeds(seed, 0)
    x0 = np.random.default_rng(x0_seed).uniform(-5.0, 5.0, size=SPHERE_DIM)
    config = AdaDgsConfig(budget=SPHERE_BUDGET, seed=opt_seed)
    rep = Rep(attempted=1)
    out_dir.mkdir(parents=True, exist_ok=True)
    count_file = out_dir / "worker_evals.txt"
    csv_path = out_dir / "trial_0.csv"
    command = [sys.executable, str(HERE / "sphere_worker.py"), str(count_file)]
    cpu0 = children_cpu()
    start = None
    try:
        with SubprocessObjective(command, SPHERE_DIM, bounds=(-5.0, 5.0)) as F:
            start = perf_counter()
            if tracer is None:
                x_best, f_best, trace = adadgs_minimize(F, x0, config)
            else:
                tracer.trial, tracer.n_trials = 0, 1
                with tracer.span("harness.trial"):
                    x_best, f_best, trace = adadgs_minimize(F, x0, config)
            csv_path.write_text(trace.to_csv(0))
            rep.wall = perf_counter() - start
            counted = F.evals
    except Exception as exc:  # a failed trial is counted, not fatal
        if start is not None and not rep.wall:
            rep.wall = perf_counter() - start
        rep.failed = 1
        rep.problems.append(f"sphere: {type(exc).__name__}: {exc}")
        return rep
    finally:
        rep.child_cpu = children_cpu() - cpu0
    text = csv_path.read_text()
    rep.hashes[csv_path.name] = hashlib.sha256(text.encode()).hexdigest()
    check_trace_csv(text, 0, SPHERE_BUDGET, 0.0, rep, csv_path.name)
    served = int(count_file.read_text()) if count_file.exists() else -1
    if not rep.evals or not rep.evals[0] == counted == served:
        rep.problems.append(
            f"sphere: accounting mismatch: trace {rep.evals}, objective {counted}, "
            f"worker {served}")
    if sum(v * v for v in x_best.tolist()) != f_best:
        rep.problems.append("sphere: f_best is not the sphere value at x_best")
    return rep


# -- the two modes -----------------------------------------------------


def timed_reps(make_specs, seed: int, seconds: float, out_root: Path) -> list[Rep]:
    """Repeat the workload; start another repetition only if it should fit."""
    reps = []
    start = perf_counter()
    while True:
        reps.append(run_once(make_specs, seed, out_root / f"rep{len(reps)}", 1))
        typical = statistics.median(r.wall for r in reps)
        if perf_counter() - start + typical > seconds:
            return reps


def check_repeats(reps: list[Rep], label: str) -> list[str]:
    first = reps[0]
    return [f"{label} {k}: trial CSVs differ from the first run"
            for k, rep in enumerate(reps[1:], 1) if rep.hashes != first.hashes]


def layer_metrics(tracer, traced: Rep, untraced_wall: float, serial: Rep, pooled: Rep,
                  control_tracer, control: Rep, sphere_tracer, sphere: Rep) -> dict:
    """Per-layer metrics: the workload's own from its traced run, the
    baselines.*, pool and subprocess ones from the side runs."""
    from tracer import percentile

    def ratio(a, b):
        return a / b if b else 0.0

    total, own, durations = tracer.totals()
    c = tracer.counts
    ms = [1e3 * d for d in durations["optimizer.step"]]
    objective_calls = len(durations["benchmarks.objective"])
    rotation_s = own["benchmarks.objective"]
    evals = sum(traced.evals)
    ctotal, cown, cdurations = control_tracer.totals()
    control_calls = len(cdurations["benchmarks.objective"])
    subprocess_s = sphere_tracer.totals()[0]["benchmarks.subprocess"]
    subprocess_points = sum(sphere_tracer.trial_points.values())

    m = {
        "benchmarks.objective_s": (total["benchmarks.objective"], "s"),
        "benchmarks.objective_calls": (objective_calls, "count"),
        "benchmarks.points_per_call": (
            ratio(sum(tracer.trial_points.values()), objective_calls), "count"),
        "benchmarks.base_fn_s": (total["benchmarks.base_fn"], "s"),
        "benchmarks.rotation_s": (rotation_s, "s"),
        "benchmarks.rotation_gflop": (tracer.rotation_flop / 1e9, "GFLOP"),
        "benchmarks.rotation_gflops": (ratio(tracer.rotation_flop / 1e9, rotation_s), "GFLOP/s"),
        "benchmarks.make_s": (total["benchmarks.make"], "s"),
        "benchmarks.subprocess_us_per_eval": (1e6 * ratio(subprocess_s, subprocess_points), "us"),
        "benchmarks.subprocess_wait_s": (subprocess_s - sphere.child_cpu, "s"),
        "gradient.stencil_s": (own["gradient.stencil"], "s"),
        "gradient.stencil_calls": (len(durations["gradient.stencil"]), "count"),
        "gradient.stencil_mb": (tracer.stencil_bytes / 1e6, "MB"),
        "gradient.assembly_s": (own["gradient.dgs"], "s"),
        "gradient.directional_calls": (c["directional_calls"], "count"),
        "optimizer.step_s": (own["optimizer.step"], "s"),
        "optimizer.iter_ms_p50": (percentile(ms, 50), "ms"),
        "optimizer.iter_ms_p90": (percentile(ms, 90), "ms"),
        "optimizer.iter_samples": (len(ms), "count"),
        "optimizer.line_search_s": (own["optimizer.line_search"], "s"),
        "optimizer.line_search_calls": (len(durations["optimizer.line_search"]), "count"),
        "optimizer.line_search_hit_ratio": (
            ratio(c["line_search_wins"], len(durations["optimizer.line_search"])), "ratio"),
        "optimizer.reset_calls": (len(durations["optimizer.reset"]), "count"),
        "optimizer.reset_s": (total["optimizer.reset"], "s"),
        "optimizer.budget_after_best_share": (ratio(traced.after_best, evals), "ratio"),
        "baselines.wall_s": (control.wall, "s"),
        "baselines.objective_s": (ctotal["benchmarks.objective"], "s"),
        "baselines.points_per_call": (
            ratio(sum(control_tracer.trial_points.values()), control_calls), "count"),
        "baselines.self_s": (cown["baselines.trial"], "s"),
        "baselines.iterations": (control_tracer.counts["baseline_iterations"], "count"),
        "baselines.to_csv_s": (ctotal["trace.to_csv"], "s"),
        "baselines.parse_s": (cown["harness.parse"], "s"),
        "trace.to_csv_s": (total["trace.to_csv"], "s"),
        "trace.csv_mb": (c["csv_bytes"] / 1e6, "MB"),
        "harness.summarize_s": (total["harness.summarize"], "s"),
        "harness.parse_s": (own["harness.parse"], "s"),
        "harness.self_s": (own["harness.run"], "s"),
        "harness.pool_serial_wall_s": (serial.wall, "s"),
        "harness.pool_wall_s": (pooled.wall, "s"),
        "harness.pool_cpu_s": (pooled.child_cpu, "s"),
        "result.evals": (evals, "count"),
        "tracing.untraced_wall_s": (untraced_wall, "s"),
        "tracing.traced_wall_s": (traced.wall, "s"),
        "tracing.overhead_s": (traced.wall - untraced_wall, "s"),
        "tracing.overhead_share": (ratio(traced.wall - untraced_wall, untraced_wall), "ratio"),
    }
    if traced.gaps:  # with every trial failed there is no gap; the run is not correct
        m["result.f_best_gap"] = (traced.f_best_gap, "f")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def check_points(tracer, rep: Rep, label: str) -> list[str]:
    """The objective's points per trial, counted while tracing, must equal the
    final evals in the trace CSVs."""
    per_trial = [tracer.trial_points[k] for k in range(tracer.n_trials)]
    if rep.evals == per_trial:
        return []
    return [f"{label}: objective points per trial {per_trial} differ from trace "
            f"evals {rep.evals}"]


def traced_runs(make_specs, seed: int, out_root: Path) -> tuple[list[Rep], dict, list[str]]:
    """The workload untraced, traced and again untraced, all in-process; then
    the side runs: POOL in-process and through the pool, CONTROL untraced and
    traced, and one sphere trial untraced and traced against the external
    worker."""
    from tracer import Tracer
    from workloads import CONTROL, POOL, POOL_WORKERS

    def traced_run(run, *args):
        tracer = Tracer()
        with tracer.install():
            return tracer, run(*args, tracer)

    before = run_once(make_specs, seed, out_root / "untraced", 1)
    tracer, traced = traced_run(run_once, make_specs, seed, out_root / "traced", 1)
    after = run_once(make_specs, seed, out_root / "untraced-after", 1)
    serial = run_once(POOL, seed, out_root / "pool-serial", 1)
    pooled = run_once(POOL, seed, out_root / "pool", POOL_WORKERS)
    control = run_once(CONTROL, seed, out_root / "control", 1)
    control_tracer, control_traced = traced_run(
        run_once, CONTROL, seed, out_root / "control-traced", 1)
    sphere = run_sphere(seed, out_root / "sphere", None)
    sphere_tracer, sphere_traced = traced_run(run_sphere, seed, out_root / "sphere-traced")
    for t, name in ((tracer, "spans"), (control_tracer, "spans-control"),
                    (sphere_tracer, "spans-sphere")):
        t.write_csv(out_root / f"{name}.csv")

    problems = (check_repeats([before, traced, after], "untraced/traced run")
                + check_repeats([serial, pooled], "in-process/pooled run")
                + check_repeats([control, control_traced], "untraced/traced control run")
                + check_repeats([sphere, sphere_traced], "untraced/traced sphere run")
                + check_points(tracer, traced, "traced")
                + check_points(control_tracer, control_traced, "traced control"))
    metrics = layer_metrics(tracer, traced, (before.wall + after.wall) / 2, serial, pooled,
                            control_tracer, control, sphere_tracer, sphere_traced)
    reps = [before, traced, after, serial, pooled, control, control_traced, sphere,
            sphere_traced]
    return reps, metrics, problems


def end_to_end(reps: list[Rep], setup: list[float]) -> dict:
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in reps),
        "evals_per_s": statistics.median(sum(r.evals) / r.wall if r.wall else 0.0
                                         for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "adadgs" / "__init__.py").is_file():
        print(f"perfbench: adadgs sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import POOL_WORKERS, WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    name, make_specs = args.workload, WORKLOADS[args.workload]
    facts = machine_facts()
    out_root = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
    if out_root.exists():
        shutil.rmtree(out_root)
    out_root.mkdir(parents=True)

    setup = []  # set-up is timed only where setup_s is reported
    if args.trace:
        reps, metrics, problems = traced_runs(make_specs, args.seed, out_root)
    else:
        setup = measure_setup(name, args.seed, out_root / "setup")
        reps = timed_reps(make_specs, args.seed, args.seconds, out_root)
        problems = check_repeats(reps, "repetition")
        metrics = end_to_end(reps, setup)
        for k in range(1, len(reps)):  # rep0 is kept for inspection
            shutil.rmtree(out_root / f"rep{k}")
    for rep in reps:
        problems.extend(rep.problems)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)

    print(f"perfbench workload={name} seed={args.seed} trace={args.trace} "
          f"runs={len(reps)}")
    print("facts " + json.dumps(facts, sort_keys=True))
    if not args.trace:
        print(f"end-to-end, median of {len(reps)} in-process repetition(s):")
        print(f"  {'setup_s':34s} {statistics.median(setup):12.6g} s  "
              f"(median of {len(setup)} fresh-process set-ups)")
        for key in ("wall_s", "evals_per_s", "peak_rss_mb"):
            print(f"  {key:34s} {metrics[key]['value']:12.6g} {metrics[key]['unit']}")
        print(f"  {'f_best_gap':34s} {reps[0].f_best_gap:12.6g} f  "
              f"(median over trials; checked identical in every repetition)")
        print(f"  {'trials_failed':34s} {failed:12d} of {attempted} attempted")
    else:
        print("per layer, from one traced in-process run:")
        for key, m in metrics.items():
            note = "  (computed, not timed)" if key in COMPUTED else ""
            print(f"  {key:34s} {m['value']:12.6g} {m['unit']}{note}")
        pool = metrics["harness.pool_wall_s"]["value"]
        cpu = metrics["harness.pool_cpu_s"]["value"]
        alone = metrics["harness.pool_serial_wall_s"]["value"]
        print(f"pool of {POOL_WORKERS}: wall {pool:.3f} s, workers' CPU {cpu:.3f} s; "
              f"in-process wall {alone:.3f} s")
    for problem in problems:
        print("CHECK FAILED: " + problem)

    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (out_root / "result.json").write_text(json.dumps({
        **result, "workload": name, "seed": args.seed, "trace": args.trace,
        "facts": facts, "setup_s": setup, "problems": problems,
        "runs": [{"wall_s": r.wall, "children_cpu_s": r.child_cpu, "evals": r.evals,
                  "f_best_gap": r.f_best_gap if r.gaps else None, "hashes": r.hashes}
                 for r in reps],
    }, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
