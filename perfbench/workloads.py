"""Workload definitions shared by the benchmark and its set-up probe.

Every workload is built from the benchmark seed alone: a function
(seed, out_dir) -> run_experiment specs, in run order. The `why` of each
workload, and which layers it stresses or bypasses, is recorded in
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

from adadgs.harness import ExperimentSpec, preset

# paper-1000d: M=5 with the zero node skipped gives 4*d stencil points, plus
# S=200 line-search points per iteration; 6 iterations plus f(x0)
DGS_1000D_BUDGET = 1 + 6 * (4 * 1000 + 200)


def dgs_1000d(seed, out_dir):
    return [ExperimentSpec("ackley", 1000, "adadgs", DGS_1000D_BUDGET, trials=1,
                           seed=seed, out_dir=out_dir, adadgs=preset("paper-1000d"))]


def dgs_100d(seed, out_dir):
    return [ExperimentSpec("rastrigin", 100, "adadgs", 50_000, trials=2,
                           seed=seed, out_dir=out_dir)]


def baselines_100d(seed, out_dir):
    return [ExperimentSpec("rastrigin", 100, opt, 25_000, trials=1, seed=seed,
                           out_dir=out_dir)
            for opt in ("es_bpop", "nesterov", "fd")]


# the workloads timed end to end
WORKLOADS = {"dgs-1000d": dgs_1000d, "dgs-100d": dgs_100d}

# Side runs made by every traced run, so that each layer is measured in every
# traced run whatever the workload: POOL runs in-process and through a pool
# of POOL_WORKERS, and CONTROL, the baseline optimizers, bypasses the
# gradient and optimizer modules. Timed end to end, both followed the host's
# speed more than the program's (see CHANGES.md).
POOL, POOL_WORKERS = dgs_100d, 2
CONTROL = baselines_100d
