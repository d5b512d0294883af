import argparse
import dataclasses
import importlib
import itertools
import json
import os
import platform
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adadgs
from adadgs import cli, harness
from adadgs.baselines import BaselineConfig
from adadgs.benchmarks import make_benchmark, optimum_value
from adadgs.cli import main
from adadgs.harness import (
    ExperimentSpec,
    checkpoint_grid,
    list_functions,
    parse_trace_csv,
    preset,
    run_experiment,
    run_trial,
    summarize,
    trial_seeds,
)
from adadgs.optimizer import AdaDgsConfig
from adadgs.trace import CSV_HEADER, Trace


def small_spec(tmp_path, **kw):
    args = dict(function="rastrigin", dim=5, optimizer="adadgs", budget=500,
                trials=3, seed=42, out_dir=str(tmp_path))
    args.update(kw)
    return ExperimentSpec(**args)


def test_run_experiment_outputs(tmp_path):
    spec = small_spec(tmp_path)
    summary = run_experiment(spec)
    run_dir = spec.run_dir
    assert (run_dir / "summary.json").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["function"] == "rastrigin"
    assert len(manifest["trial_seeds"]) == 3
    for k in range(3):
        csv = (run_dir / f"trial_{k}.csv").read_text()
        assert csv.splitlines()[0] == CSV_HEADER
        assert all(line.startswith(f"{k},") for line in csv.splitlines()[1:])
    assert summary["final"]["median_f_best"] <= summary["checkpoints"][0]["mean_f_best"] \
        or True  # medians and means are not ordered in general; presence check
    assert len(summary["checkpoints"]) >= 1


def test_single_row_when_budget_tiny(tmp_path):
    # budget covers the initial evaluation but not one full iteration
    spec = small_spec(tmp_path, budget=20, trials=1)
    run_experiment(spec)
    lines = (spec.run_dir / "trial_0.csv").read_text().splitlines()
    assert len(lines) == 2  # header + exactly one data row


@pytest.mark.parametrize("optimizer", harness.OPTIMIZERS)
def test_rerun_byte_identical(tmp_path, optimizer):
    spec1 = small_spec(tmp_path / "a", optimizer=optimizer)
    spec2 = small_spec(tmp_path / "b", optimizer=optimizer)
    run_experiment(spec1)
    run_experiment(spec2)
    for name in [f"trial_{k}.csv" for k in range(3)] + ["manifest.json"]:
        assert (spec1.run_dir / name).read_bytes() == (spec2.run_dir / name).read_bytes()


@pytest.mark.parametrize("optimizer", harness.OPTIMIZERS)
def test_parallel_execution_byte_identical(tmp_path, monkeypatch, optimizer):
    spec1 = small_spec(tmp_path / "serial", optimizer=optimizer)
    run_experiment(spec1)
    monkeypatch.setenv("ADADGS_WORKERS", "3")
    spec2 = small_spec(tmp_path / "parallel", optimizer=optimizer)
    run_experiment(spec2)
    for k in range(3):
        a = (spec1.run_dir / f"trial_{k}.csv").read_bytes()
        b = (spec2.run_dir / f"trial_{k}.csv").read_bytes()
        assert a == b


@pytest.mark.parametrize("raw", ["two", "0", "-1", "1.5", ""])
def test_bad_worker_count_is_an_error_before_any_output(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("ADADGS_WORKERS", raw)
    spec = small_spec(tmp_path, trials=2)
    with pytest.raises(ValueError, match="ADADGS_WORKERS"):
        run_experiment(spec)
    assert not (spec.run_dir / "manifest.json").exists()


def test_failing_trial_keeps_earlier_csvs(tmp_path, monkeypatch):
    def run_or_fail(spec, trial):
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        return run_trial(spec, trial)

    monkeypatch.setattr(harness, "run_trial", run_or_fail)
    spec = small_spec(tmp_path)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_experiment(spec)
    assert (spec.run_dir / "trial_0.csv").read_text().splitlines()[0] == CSV_HEADER
    assert not (spec.run_dir / "trial_1.csv").exists()
    assert not (spec.run_dir / "trial_2.csv").exists()
    assert not (spec.run_dir / "summary.json").exists()
    assert json.loads((spec.run_dir / "manifest.json").read_text())["complete"] is False


def test_rerun_into_the_same_directory_leaves_only_its_own_trials(tmp_path):
    run_experiment(small_spec(tmp_path, trials=4))
    spec = small_spec(tmp_path, trials=2)
    run_experiment(spec)
    assert sorted(p.name for p in spec.run_dir.glob("trial_*")) == ["trial_0.csv",
                                                                      "trial_1.csv"]
    assert json.loads((spec.run_dir / "manifest.json").read_text())["trials"] == 2


def test_failing_rerun_leaves_no_summary_of_the_earlier_run(tmp_path, monkeypatch):
    run_experiment(small_spec(tmp_path))

    def run_or_fail(spec, trial):
        if trial == 1:
            raise RuntimeError("trial 1 failed")
        return run_trial(spec, trial)

    monkeypatch.setattr(harness, "run_trial", run_or_fail)
    spec = small_spec(tmp_path)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_experiment(spec)
    assert sorted(p.name for p in spec.run_dir.iterdir()) == ["manifest.json", "trial_0.csv"]
    assert json.loads((spec.run_dir / "manifest.json").read_text())["complete"] is False


def test_summary_recomputable_from_csvs(tmp_path):
    spec = small_spec(tmp_path, optimizer="fd", budget=400)
    summary = run_experiment(spec)
    traces = [parse_trace_csv((spec.run_dir / f"trial_{k}.csv").read_text())
              for k in range(spec.trials)]
    # the summary is made from the in-memory traces; the CSVs hold them exactly
    assert summarize(traces, spec.budget, optimum_value("rastrigin", 5)) == summary


def reference_summary(traces, budget, optimum):
    """The summary as first written: every trace scanned once per checkpoint."""
    def f_best_at(trace, eval_budget):
        best = trace.rows[0].f_best
        for row in trace.rows:
            if row.evals > eval_budget:
                break
            best = row.f_best
        return best

    rows = []
    for cp in checkpoint_grid(budget):
        vals = np.array([f_best_at(tr, cp) for tr in traces])
        rows.append({"evals": cp, "mean_f_best": float(np.mean(vals)),
                     "std_f_best": float(np.std(vals)), "median_f_best": float(np.median(vals))})
    final = np.array([tr.final.f_best for tr in traces])
    reached = [next(r.evals for r in tr if r.f_best == tr.final.f_best) for tr in traces]
    reduction = [(tr.rows[0].f_best - optimum) / max(tr.final.f_best - optimum, 1e-300)
                 for tr in traces]
    return {
        "checkpoints": rows,
        "final": {"mean_f_best": float(np.mean(final)), "std_f_best": float(np.std(final)),
                  "median_f_best": float(np.median(final)), "min_f_best": float(np.min(final)),
                  "max_f_best": float(np.max(final)),
                  "median_reduction": float(np.median(reduction))},
        "trials": [{"after_best_share": (tr.final.evals - at) / tr.final.evals}
                   for tr, at in zip(traces, reached)],
    }


@st.composite
def monotone_traces(draw):
    """A trace whose evals strictly increase from >= 1 and whose f_best
    never increases, with ties."""
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([0.0, 0.5, 3.0]) | st.floats(-1e6, 1e6),
                           min_size=n, max_size=n))
    trace = Trace()
    for k, (evals, f_best) in enumerate(zip(itertools.accumulate(gaps),
                                            sorted(values, reverse=True))):
        trace.append(k, evals, f_best + k, f_best, 1.0, 0.0)
    return trace


@settings(max_examples=300, deadline=None)
@given(traces=st.lists(monotone_traces(), min_size=1, max_size=25),
       budget=st.integers(1, 2000), optimum=st.sampled_from([0.0, -2.0, 0.25]))
def test_summarize_equals_the_per_checkpoint_scan(traces, budget, optimum):
    # 20 and more trials take numpy's pairwise sum; every field, bit for bit
    summary = summarize(traces, budget, optimum)
    reference = reference_summary(traces, budget, optimum)
    assert summary == reference
    assert json.dumps(summary) == json.dumps(reference)  # -0.0 and 0.0 differ as text


def test_trace_evals_must_strictly_increase():
    trace = Trace()
    trace.append(0, 5, 2.0, 2.0, 1.0, 0.0)
    for evals in (5, 4):
        with pytest.raises(ValueError, match="strictly increasing"):
            trace.append(1, evals, 1.0, 1.0, 1.0, 0.0)
    assert len(trace) == 1


def test_trace_f_best_must_not_increase():
    trace = Trace()
    trace.append(0, 1, 2.0, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="non-increasing"):
        trace.append(1, 2, 3.0, 2.5, 1.0, 0.0)
    trace.append(1, 2, 3.0, 2.0, 1.0, 0.0)  # a tie is no increase
    assert [row.f_best for row in trace] == [2.0, 2.0]


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_atomic_write_that_fails_leaves_the_target_and_no_temporary_file(
        tmp_path, monkeypatch, fail):
    target = tmp_path / "summary.json"
    target.write_text("earlier\n")
    if fail == "replace":
        def replace(src, dst):
            raise OSError("replace failed")
        monkeypatch.setattr(os, "replace", replace)
        text, error = "later\n", OSError
    else:
        text, error = "later \ud800\n", UnicodeEncodeError  # a lone surrogate has no encoding
    with pytest.raises(error):
        harness._atomic_write(target, text)
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]
    assert target.read_text() == "earlier\n"


@pytest.mark.parametrize("optimizer", ["adadgs", "fd"])
def test_after_best_share_recomputable_from_csvs(tmp_path, optimizer):
    # the share of a trial's evaluations spent after the first row that
    # reached its final f_best
    spec = small_spec(tmp_path, optimizer=optimizer, budget=2000)
    summary = run_experiment(spec)
    shares = []
    for k in range(spec.trials):
        rows = [row.split(",") for row in
                (spec.run_dir / f"trial_{k}.csv").read_text().splitlines()[1:]]
        evals, f_best = [int(r[2]) for r in rows], [float(r[4]) for r in rows]
        shares.append((evals[-1] - evals[f_best.index(f_best[-1])]) / evals[-1])
    assert [t["after_best_share"] for t in summary["trials"]] == shares
    saved = json.loads((spec.run_dir / "summary.json").read_text())
    assert saved["trials"] == summary["trials"]
    assert 0.0 <= min(shares) and max(shares) < 1.0


@pytest.mark.parametrize("function", ["rastrigin", "styblinski_tang"])
def test_median_reduction_recomputable_from_csvs(tmp_path, function):
    # styblinski_tang's optimum value is -39.166*d, not 0
    spec = small_spec(tmp_path, function=function)
    summary = run_experiment(spec)
    f_star = optimum_value(function, spec.dim)
    ratios = []
    for k in range(spec.trials):
        rows = (spec.run_dir / f"trial_{k}.csv").read_text().splitlines()[1:]
        first, last = (float(row.split(",")[4]) for row in (rows[0], rows[-1]))
        ratios.append((first - f_star) / max(last - f_star, 1e-300))
    assert summary["final"]["median_reduction"] == float(np.median(ratios))
    saved = json.loads((spec.run_dir / "summary.json").read_text())
    assert saved["final"]["median_reduction"] == float(np.median(ratios))


def test_perfbench_tracer_reaches_every_layer(tmp_path, monkeypatch):
    # perfbench/tracer.py times each layer by rebinding module-level names
    # of adadgs; a rename or an inlined call would silently drop its spans
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delenv("ADADGS_WORKERS", raising=False)
    tracer = importlib.import_module("tracer").Tracer()
    specs = [small_spec(tmp_path, dim=6, trials=2, budget=2000)] + [
        small_spec(tmp_path, dim=6, trials=1, budget=600, optimizer=optimizer)
        for optimizer in ("es_bpop", "nesterov", "fd")]
    with tracer.install():
        for spec in specs:
            run_experiment(spec)
    assert {"optimizer.step", "optimizer.reset", "optimizer.line_search", "gradient.dgs",
            "gradient.stencil", "benchmarks.objective", "benchmarks.base_fn",
            "benchmarks.make", "baselines.trial", "harness.trial", "trace.to_csv",
            "harness.summarize"} <= set(tracer.names)

    csvs = [(spec.run_dir / f"trial_{k}.csv").read_text().splitlines()
            for spec in specs for k in range(spec.trials)]
    adadgs_iterations = sum(len(csv) - 2 for csv in csvs[:2])  # less header and f(x0)
    assert tracer.names.count("optimizer.step") == adadgs_iterations
    # every trial's points, counted at the objective, are its final evals
    assert [tracer.trial_points[k] for k in range(5)] == [
        int(csv[-1].split(",")[2]) for csv in csvs]


def test_every_perfbench_spec_validates(tmp_path, monkeypatch):
    # the benchmark's specs are built outside src/; a rule they break would
    # stop the benchmark, not a test
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    builders = [*workloads.WORKLOADS.values(), workloads.POOL, workloads.CONTROL]
    specs = [spec for build in builders for spec in build(0, str(tmp_path))]
    assert {spec.optimizer for spec in specs} == set(harness.OPTIMIZERS)
    for spec in specs:
        spec.validate()


SRC = Path(__file__).resolve().parents[1] / "src"


def run_in_subprocess(script, env_overrides, timeout=120):
    """Run `script` in a fresh interpreter and its own process group, which
    is killed if it has not finished within `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env_overrides}
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          start_new_session=True) as proc:
        try:
            assert proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail(f"subprocess did not finish within {timeout} s")


def trial_csvs(spec):
    return [(spec.run_dir / f"trial_{k}.csv").read_bytes() for k in range(spec.trials)]


def test_trial_csvs_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    # at d=100 a multi-threaded BLAS rounds some products differently from a
    # single thread, so unpinned, the bytes would follow the machine
    monkeypatch.delenv("ADADGS_WORKERS", raising=False)
    spec = small_spec(tmp_path / "in-process", dim=100, budget=6000, trials=2)
    run_experiment(spec)
    monkeypatch.setenv("ADADGS_WORKERS", "2")
    pooled = small_spec(tmp_path / "pooled", dim=100, budget=6000, trials=2)
    run_experiment(pooled)
    one_thread = small_spec(tmp_path / "one-thread", dim=100, budget=6000, trials=2)
    run_in_subprocess(
        "from adadgs.harness import ExperimentSpec, run_experiment\n"
        "from adadgs.baselines import BaselineConfig\n"
        "from adadgs.optimizer import AdaDgsConfig\n"
        f"run_experiment({one_thread!r})", {"OPENBLAS_NUM_THREADS": "1", "ADADGS_WORKERS": "1"})
    assert trial_csvs(pooled) == trial_csvs(spec)
    assert trial_csvs(one_thread) == trial_csvs(spec)


def test_a_forked_worker_evaluates_blocks_in_threads(tmp_path):
    # with one direction per block a d=10 stencil goes to a thread pool; the
    # process that made such pools then forks the trial workers, which must
    # make their own pools and write the in-process run's bytes
    serial = small_spec(tmp_path / "in-process", dim=10, budget=400, trials=2)
    pooled = small_spec(tmp_path / "pooled", dim=10, budget=400, trials=2)
    run_in_subprocess(
        "import os\n"
        "from adadgs import benchmarks\n"
        "from adadgs.harness import ExperimentSpec, run_experiment\n"
        "from adadgs.baselines import BaselineConfig\n"
        "from adadgs.optimizer import AdaDgsConfig\n"
        "benchmarks.BLOCK_ELEMENTS = 4 * 10\n"
        f"run_experiment({serial!r})\n"
        "os.environ['ADADGS_WORKERS'] = '2'\n"
        f"run_experiment({pooled!r})", {"ADADGS_WORKERS": "1"}, timeout=60)
    assert trial_csvs(pooled) == trial_csvs(serial)
    default = small_spec(tmp_path / "default-blocks", dim=10, budget=400, trials=2)
    run_experiment(default)
    assert trial_csvs(default) == trial_csvs(serial)


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_the_trial_pool_runs_under_every_start_method(method, tmp_path):
    # the pool starts its workers by the platform's default method, here set
    # in a fresh process. In-process, the parent's rebound make_benchmark
    # logs the parent's pid for each trial; pooled, it never does (a forked
    # worker logs its own pid, a fresh one runs the module's own), and the
    # pooled CSVs are the in-process run's bytes
    serial = small_spec(tmp_path / "in-process", trials=2, budget=200)
    pooled = small_spec(tmp_path / "pooled", trials=2, budget=200)
    log = tmp_path / "pids"
    run_in_subprocess(
        "import multiprocessing, os\n"
        "from adadgs import harness\n"
        "from adadgs.harness import ExperimentSpec\n"
        "from adadgs.baselines import BaselineConfig\n"
        "from adadgs.optimizer import AdaDgsConfig\n"
        f"multiprocessing.set_start_method({method!r}, force=True)\n"
        "make = harness.make_benchmark\n"
        "def logged(*args):\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    return make(*args)\n"
        "harness.make_benchmark = logged\n"
        f"harness.run_experiment({serial!r})\n"
        f"assert open({str(log)!r}).read().split() == [str(os.getpid())] * 2\n"
        f"open({str(log)!r}, 'w').close()\n"
        "os.environ['ADADGS_WORKERS'] = '2'\n"
        f"harness.run_experiment({pooled!r})\n"
        f"assert str(os.getpid()) not in open({str(log)!r}).read().split()",
        {"ADADGS_WORKERS": "1"}, timeout=60)
    assert json.loads((pooled.run_dir / "manifest.json").read_text())["threads"]["workers"] == 2
    assert trial_csvs(pooled) == trial_csvs(serial)


def test_manifest_records_the_thread_counts(tmp_path, monkeypatch):
    # workers is the number of processes that ran trials: never more than
    # the trials, and 1 when they ran in-process
    blas = 1 if harness._blas_thread_functions() is not None else None
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    for raw, trials, workers in ((None, 1, 1), ("5", 1, 1), ("5", 2, 2)):
        if raw is None:
            monkeypatch.delenv("ADADGS_WORKERS", raising=False)
        else:
            monkeypatch.setenv("ADADGS_WORKERS", raw)
        spec = small_spec(tmp_path / f"{raw}-{trials}", trials=trials, budget=100)
        run_experiment(spec)
        manifest = json.loads((spec.run_dir / "manifest.json").read_text())
        assert manifest["threads"] == {"blas": blas, "eval": len(os.sched_getaffinity(0)),
                                       "workers": workers}
        assert manifest["software"] == {
            "adadgs": adadgs.__version__, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": built["name"], "version": built["version"]}}
        hardware = manifest["hardware"]
        assert set(hardware) == {"cpu", "cpus", "simd"}
        assert hardware["cpus"] == sorted(os.sched_getaffinity(0))
        assert hardware["simd"] == np.show_config(mode="dicts")["SIMD Extensions"]


def test_a_trial_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    functions = harness._blas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS has no thread setter here")
    get, set_ = functions
    seen = []

    def make(*args):
        seen.append(get())
        return make_benchmark(*args)

    monkeypatch.setattr(harness, "make_benchmark", make)
    before = get()
    set_(2)
    try:
        run_trial(ExperimentSpec("ackley", 4, "adadgs", budget=100), 0)
        assert seen == [1] and get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("kw,named", [
    (dict(optimizer="es_bpop", adadgs=AdaDgsConfig(M=3)), "'M'"),
    (dict(optimizer="fd", adadgs=AdaDgsConfig(gamma=0.5)), "'gamma'"),
    (dict(optimizer="nesterov", adadgs=preset("paper-1000d")), "'S'"),
    (dict(optimizer="es_bpop", adadgs=AdaDgsConfig(sigma0=2.0)), "'sigma0'"),
    (dict(optimizer="adadgs", baseline=BaselineConfig(learning_rate=0.1)),
     "'adadgs' does not read the option 'learning_rate'"),
    (dict(optimizer="fd", baseline=BaselineConfig(population=10)),
     "'fd' does not read the option 'population'"),
    (dict(optimizer="nesterov", baseline=BaselineConfig(budget=60)),
     "BaselineConfig.budget must be None"),
    (dict(optimizer="es_bpop", baseline=BaselineConfig(seed=3)),
     "BaselineConfig.seed must be None"),
], ids=["es_bpop-M-override", "fd-gamma", "nesterov-preset", "es_bpop-sigma0",
        "adadgs-learning-rate", "fd-population", "nesterov-budget", "es_bpop-seed"])
def test_spec_with_an_option_the_optimizer_never_reads_is_rejected(kw, named):
    spec = ExperimentSpec("ackley", 3, budget=60, **kw)
    with pytest.raises(ValueError, match=named):
        spec.validate()


@pytest.mark.parametrize("optimizer", ["es_bpop", "nesterov", "fd"])
def test_a_baseline_spec_takes_only_the_default_adadgs_config(optimizer):
    # es_bpop's default population is 5*d rounded up to even whatever M is,
    # so a baseline reads no AdaDgsConfig field, M included, and no preset
    assert ExperimentSpec("ackley", 3, optimizer, budget=60).validate().population == \
        (16 if optimizer == "es_bpop" else None)
    for adadgs, named in ((AdaDgsConfig(M=3), "'M'"), (AdaDgsConfig(seed=1), "'seed'"),
                          (preset("paper-1000d"), "'S'")):
        spec = ExperimentSpec("ackley", 3, optimizer, budget=60, adadgs=adadgs)
        with pytest.raises(ValueError, match=f"{optimizer!r} does not read the option {named}"):
            spec.validate()


def test_trial_seeds_deterministic_and_distinct():
    s0 = trial_seeds(7, 0)
    assert s0 == trial_seeds(7, 0)
    assert s0 != trial_seeds(7, 1)
    assert s0 != trial_seeds(8, 0)


def test_budget_accounting_all_optimizers():
    for opt in ("adadgs", "es_bpop", "nesterov", "fd"):
        spec = ExperimentSpec(function="ackley", dim=4, optimizer=opt,
                              budget=300, trials=1, seed=1, out_dir="unused")
        trace = run_trial(spec, 0)
        assert trace.final.evals <= 300


def test_default_es_population_rounds_up_to_even():
    spec = ExperimentSpec(function="ellipsoidal", dim=5, optimizer="es_bpop", budget=300)
    assert spec.validate().population == 26  # 5*d = 25


def test_manifest_records_the_resolved_config(tmp_path):
    # the config every trial ran with, seed aside; it reads only the domain,
    # so any instance of the function resolves it
    domain = make_benchmark("rastrigin", 5, 0)
    spec = small_spec(tmp_path, trials=1, adadgs=preset("paper-1000d"))
    run_experiment(spec)
    config = json.loads((spec.run_dir / "manifest.json").read_text())["config"]
    resolved = dataclasses.replace(preset("paper-1000d"), budget=500).resolved(domain)
    assert config == dataclasses.asdict(resolved)
    assert all(np.isfinite(config[key]) for key in ("L_max", "L_min", "S", "sigma0"))

    spec = small_spec(tmp_path, trials=1, optimizer="es_bpop")
    run_experiment(spec)
    manifest = json.loads((spec.run_dir / "manifest.json").read_text())
    assert "adadgs_config" not in manifest and "baseline_overrides" not in manifest
    width = domain.domain_width
    assert manifest["config"] == dataclasses.asdict(BaselineConfig(
        learning_rate=0.002 * width, sigma_or_h=0.02 * width, population=26, budget=500))


@pytest.mark.parametrize("optimizer", ["adadgs", "es_bpop"])
def test_each_trial_runs_the_config_the_manifest_records(tmp_path, monkeypatch, optimizer):
    # the optimizer is handed the resolved config itself, not the spec's to
    # resolve again, with its trial's seed
    run, seen = getattr(harness, f"{optimizer}_minimize"), []
    monkeypatch.setattr(harness, f"{optimizer}_minimize",
                        lambda F, x0, cfg: seen.append(cfg) or run(F, x0, cfg))
    spec = small_spec(tmp_path, trials=2, optimizer=optimizer)
    run_experiment(spec)
    config = json.loads((spec.run_dir / "manifest.json").read_text())["config"]
    assert len(seen) == 2
    for trial, cfg in enumerate(seen):
        assert dataclasses.asdict(dataclasses.replace(cfg, seed=None)) == config
        assert cfg.seed == trial_seeds(spec.seed, trial)[2]


@pytest.mark.parametrize("kw,named", [
    (dict(trials=2.5), "must be an integer"), (dict(dim=3.5), "must be an integer"),
    (dict(trials=True), "must be an integer"), (dict(budget=1e3), "must be an integer"),
    (dict(budget=100.7), "must be an integer"), (dict(budget=True), "must be an integer"),
    (dict(seed=1.5), "seed must be an integer"), (dict(seed=-1), "seed must be >= 0"),
], ids=["trials-float", "dim-float", "trials-bool", "budget-float", "budget-fraction",
        "budget-bool", "seed-float", "seed-negative"])
def test_invalid_spec_count_is_an_error_before_any_output(tmp_path, kw, named):
    spec = ExperimentSpec(**{**dict(function="ackley", dim=3, optimizer="adadgs", budget=60,
                                    trials=2, out_dir=str(tmp_path)), **kw})
    with pytest.raises(ValueError, match=named):
        run_experiment(spec)
    assert list(tmp_path.iterdir()) == []


def test_unknown_optimizer_is_an_error_before_any_output(tmp_path):
    with pytest.raises(ValueError, match="unknown optimizer 'cmaes'"):
        run_experiment(small_spec(tmp_path, optimizer="cmaes"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["budget", "seed"])
def test_an_adadgs_spec_owns_budget_and_seed(tmp_path, name):
    # the spec's budget and seed set the run's; a config that sets its own
    # would be replaced without a word, so it is an error before any output
    spec = ExperimentSpec("ackley", 3, "adadgs", 60, trials=1, out_dir=str(tmp_path),
                          adadgs=AdaDgsConfig(**{name: 7}))
    with pytest.raises(ValueError, match=f"AdaDgsConfig.{name} must be None"):
        run_experiment(spec)
    assert list(tmp_path.iterdir()) == []


def test_numpy_integer_dim_and_trials_are_accepted(tmp_path):
    spec = ExperimentSpec("ackley", np.int64(3), "adadgs", budget=60, trials=np.int64(2),
                          out_dir=str(tmp_path))
    run_experiment(spec)
    manifest = json.loads((tmp_path / "ackley_3_adadgs" / "manifest.json").read_text())
    assert manifest["dim"] == 3 and manifest["trials"] == 2 and manifest["complete"]


def test_checkpoint_grid():
    grid = checkpoint_grid(1000)
    assert grid[-1] == 1000
    assert len(grid) == 100
    assert all(a < b for a, b in zip(grid, grid[1:]))


# --- presets -----------------------------------------------------------------


def test_preset_paper_1000d():
    cfg = preset("paper-1000d")
    assert cfg.M == 5
    assert cfg.gamma == 0.0
    assert cfg.S == 200
    assert cfg.contraction == 0.9
    assert cfg.sigma0_scale == 5.0


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset("paper-9000d")


def test_preset_dimension_independent():
    cfg = dataclasses.replace(preset("paper-1000d"), budget=1000)
    for d in (10, 2000):
        b = make_benchmark("ackley", d, 0)
        r = cfg.resolved(b)
        assert r.S == 200 and r.M == 5 and r.gamma == 0.0
        assert r.sigma0 == pytest.approx(5.0 * b.domain_width)


# --- function listing ----------------------------------------------------------


def test_list_functions_table():
    rows = list_functions()
    assert len(rows) == 12
    names = [r["name"] for r in rows]
    assert names == sorted(names)
    styb = next(r for r in rows if r["name"] == "styblinski_tang")
    assert styb["optimum"] == "-39.166*d"


# --- CLI ---------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "styblinski_tang" in out and "-39.166*d" in out


def test_cli_presets(capsys):
    # each preset is listed with the fields that differ from AdaDgsConfig()
    assert main(["presets"]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("paper-1000d: ")
    fields = set(line.split(": ", 1)[1].split(", "))
    assert fields == {"S=200", "sigma0_scale=5.0", "gamma=0.0", "contraction=0.9"}


def test_cli_run_and_errors(tmp_path, capsys):
    rc = main(["run", "--func", "sphere", "--dim", "5", "--optimizer", "adadgs",
               "--budget", "100"])
    assert rc == 1
    assert "error" in capsys.readouterr().err

    rc = main(["run", "--func", "wavy", "--dim", "4", "--optimizer", "adadgs",
               "--trials", "2", "--budget", "300", "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "wavy_4_adadgs" / "summary.json").exists()


@pytest.mark.parametrize("args,named", [
    (["--dim", "1"], "dim must be >= 2"),
    (["--dim", "3", "--gh-points", "1"], "1-point rule"),
    (["--dim", "3", "--reset-interval", "-4"], "reset_interval"),
    (["--dim", "3", "--gamma", "nan"], "gamma"),
    (["--dim", "3", "--budget", "0"], "budget must be >= 1"),
    (["--dim", "3", "--seed", "-1"], "seed must be >= 0"),
    (["--dim", "3", "--optimizer", "fd", "--learning-rate", "inf"],
     "learning_rate must be positive and finite"),
    (["--dim", "3", "--optimizer", "es_bpop", "--sigma-or-h", "inf"],
     "sigma_or_h must be positive and finite"),
    (["--dim", "3", "--contraction", "1.5"], "contraction must be in (0, 1), got 1.5"),
    (["--dim", "3", "--contraction", "2", "--line-points", "2000"],
     "contraction must be in (0, 1), got 2.0"),
    (["--dim", "3", "--sigma0-scale", "-1"], "sigma0_scale must be positive and finite"),
], ids=["dim-1", "gh-points-1", "reset-interval", "gamma-nan", "budget-0", "seed-negative",
        "fd-learning-rate-inf", "es_bpop-sigma-or-h-inf", "contraction-1.5",
        "contraction-overflows", "sigma0-scale-negative"])
def test_cli_invalid_run_is_an_error_before_any_output(tmp_path, capsys, args, named):
    assert main(["run", "--func", "ackley", "--optimizer", "adadgs", "--trials", "2",
                 "--budget", "300", "--out", str(tmp_path), *args]) == 1
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_required(tmp_path, capsys):
    # a malformed command line is argparse's usage error: status 2, naming the flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "--func", "ackley"])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err

    base = ["run", "--func", "ellipsoidal", "--optimizer", "es_bpop", "--trials", "1",
            "--budget", "60", "--out", str(tmp_path)]
    for extra, named in [
        (["--dim", "three"], "--dim"),
        (["--dim", "3", "--gh-points", "3.5"], "--gh-points"),
        (["--dim", "3", "--learning-rate", "fast"], "--learning-rate"),
        (["--dim", "3", "--config", "x.ini"], "unrecognized arguments: --config"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_output_directory_that_cannot_be_made_is_an_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(run_args(blocker / "x")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and str(blocker) in lines[0]


def test_cli_preset_flag(tmp_path):
    assert main(["run", "--func", "ackley", "--dim", "4", "--optimizer", "adadgs",
                 "--trials", "1", "--budget", "300", "--preset", "paper-1000d",
                 "--line-points", "12", "--out", str(tmp_path)]) == 0
    manifest = json.loads(
        (tmp_path / "ackley_4_adadgs" / "manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.0  # from preset
    assert manifest["config"]["S"] == 12  # explicit flag overrides


@pytest.mark.parametrize("optimizer", ["es_bpop", "nesterov", "fd"])
def test_cli_preset_is_an_error_for_a_baseline(tmp_path, capsys, optimizer):
    assert main(run_args(tmp_path, "--preset", "paper-1000d", optimizer=optimizer)) == 1
    assert f"optimizer {optimizer!r} does not read --preset" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def run_args(tmp_path, *extra, optimizer="adadgs"):
    return ["run", "--func", "ellipsoidal", "--dim", "3", "--optimizer", optimizer,
            "--trials", "1", "--budget", "60", "--out", str(tmp_path), *extra]


def read_manifest(tmp_path, optimizer="adadgs"):
    return json.loads((tmp_path / f"ellipsoidal_3_{optimizer}" / "manifest.json").read_text())


@pytest.mark.parametrize("flag,value", [
    ("--learning-rate", "0"), ("--sigma-or-h", "0"), ("--population", "7"),
])
def test_cli_baseline_override_is_used_as_given(tmp_path, capsys, flag, value):
    # an explicit invalid value is rejected, not replaced by the default,
    # before any output is written
    assert main(run_args(tmp_path, flag, value, optimizer="es_bpop")) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "ellipsoidal_3_es_bpop").exists()


@pytest.mark.parametrize("optimizer,flag,value,key", [
    ("fd", "--population", "7", "population"),
    ("nesterov", "--population", "8", "population"),
    ("adadgs", "--learning-rate", "0.5", "learning_rate"),
    ("fd", "--gamma", "0.5", "gamma"),
    ("nesterov", "--line-points", "99", "S"),
    ("es_bpop", "--sigma0", "0.5", "sigma0"),
])
def test_cli_baseline_flag_the_optimizer_never_reads_is_an_error(
        tmp_path, capsys, optimizer, flag, value, key):
    assert main(run_args(tmp_path, flag, value, optimizer=optimizer)) == 1
    err = capsys.readouterr().err
    assert repr(optimizer) in err and repr(key) in err
    assert not (tmp_path / f"ellipsoidal_3_{optimizer}").exists()


@pytest.mark.parametrize("value", ["3", "5"])
def test_cli_gh_points_is_an_error_for_es_bpop_whatever_its_value(tmp_path, capsys, value):
    # 5 is M's default: es_bpop's population is 5*d whatever M is, so it reads no M
    assert main(run_args(tmp_path, "--gh-points", value, optimizer="es_bpop")) == 1
    err = capsys.readouterr().err
    assert "'es_bpop' does not read --gh-points (field 'M')" in err
    assert list(tmp_path.iterdir()) == []


# Every adadgs and baseline flag and the field it sets: the flag names are
# the public interface, so they are spelled out here.
FLAGS = {
    "--gh-points": ("adadgs", "M", "4"),
    "--lmax": ("adadgs", "L_max", "3.5"),
    "--lmin": ("adadgs", "L_min", "0.25"),
    "--line-points": ("adadgs", "S", "5"),
    "--sigma0": ("adadgs", "sigma0", "0.75"),
    "--sigma0-scale": ("adadgs", "sigma0_scale", "2.5"),
    "--gamma": ("adadgs", "gamma", "0.125"),
    "--contraction": ("adadgs", "contraction", "0.5"),
    "--reset-interval": ("adadgs", "reset_interval", "3"),
    "--learning-rate": ("baseline", "learning_rate", "0.125"),
    "--sigma-or-h": ("baseline", "sigma_or_h", "0.0625"),
    "--population": ("baseline", "population", "6"),
}


def test_cli_flag_table_is_the_field_tables():
    tables = {"adadgs": cli._ADADGS_FIELDS, "baseline": cli._BASELINE_FIELDS}
    listed = {(section, flag[2:].replace("-", "_"), fld)
              for flag, (section, fld, _) in FLAGS.items()}
    assert listed == {(section, key, fld) for section, table in tables.items()
                      for key, (fld, _) in table.items()}


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_flag_tables_name_the_run_parsers_flags():
    tables = re.findall(r"^\| (?:Run|AdaDGS|Baseline) flag \|.*\n\|---.*\n((?:\|.*\n)+)",
                        README, re.MULTILINE)
    assert len(tables) == 3
    listed = {flag for table in tables for row in table.splitlines()
              for flag in re.findall(r"`(--[a-z0-9-]+)`", row.split("|")[1])}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {flag for action in subparsers.choices["run"]._actions
             for flag in action.option_strings if flag not in ("-h", "--help")}
    assert listed == flags


def test_readme_quick_start_runs_as_written():
    section = README.split("## Quick start", 1)[1]
    namespace = {}
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], namespace)
    F, x0, trace = namespace["F"], namespace["x0"], namespace["trace"]
    assert namespace["f_best"] < F(x0)
    assert len(trace.rows) >= 2


def readme_loop_commands():
    """Each `adadgs run` of the README's comparison and scaling loops, as
    argv with the loop variable substituted."""
    section = README.split("### Comparisons and scaling studies", 1)[1]
    script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands, loop = [], None
    for line in script.splitlines():
        line = line.strip()
        if match := re.fullmatch(r"for (\w+) in (.*); do", line):
            loop = match[1], match[2].split()
        elif line == "done":
            loop = None
        elif line.startswith("adadgs run"):
            name, values = loop or (None, [None])
            for value in values:
                command = line
                if name:
                    command = re.sub(rf"\$\(\((\d+) \* {name}\)\)",
                                     lambda m: str(int(m[1]) * int(value)), command)
                    command = command.replace("$" + name, value)
                commands.append(shlex.split(command)[1:])
    return commands


def test_readme_comparison_and_scaling_commands_are_valid():
    commands = readme_loop_commands()
    optimizers = {argv[argv.index("--optimizer") + 1] for argv in commands}
    dims = {argv[argv.index("--dim") + 1] for argv in commands}
    assert optimizers == set(harness.OPTIMIZERS) and {"200", "400", "1000"} <= dims
    for argv in commands:
        cli.build_spec(cli.build_parser().parse_args(argv)).validate()


@pytest.mark.parametrize("flag", FLAGS)
def test_cli_flag_sets_its_field(tmp_path, flag):
    section, fld, value = FLAGS[flag]
    optimizer = "adadgs" if section == "adadgs" else "es_bpop"
    expected = float(value) if "." in value else int(value)

    assert main(run_args(tmp_path / "flag", flag, value, optimizer=optimizer)) == 0
    assert read_manifest(tmp_path / "flag", optimizer)["config"][fld] == expected
