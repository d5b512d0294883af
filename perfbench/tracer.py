"""Spans and counts recorded from outside adadgs.

`Tracer.install()` rebinds public functions of the adadgs modules (for
example `adadgs.optimizer.dgs_gradient`) to timing wrappers, and restores
them on exit; no file under src/ changes. Spans stay in memory as
(name, start, end, parent span, trial) and are written once, at the end.
A layer's self time is its spans' durations minus the child spans inside.
"""

from __future__ import annotations

import contextlib
import dataclasses
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import adadgs.benchmarks as benchmarks
import adadgs.gradient as gradient
import adadgs.harness as harness
import adadgs.optimizer as optimizer
import adadgs.trace as trace


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trials: list[int] = []
        self._stack: list[int] = []
        self.trial = -1  # index of the running trial, in run order
        self.n_trials = 0
        self.counts: Counter = Counter()
        self.trial_points: Counter = Counter()  # objective points per trial
        self.rotation_flop = 0  # computed from shapes, see _wrap_objective
        self.stencil_bytes = 0  # largest stencil array, from its shape

    # -- recording -----------------------------------------------------
    #
    # Both timestamps are taken at the outer edges: the span's bookkeeping,
    # and any counting a wrapper does, fall inside the span, so they never
    # inflate the caller's self time.

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.trials.append(self.trial)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, start: float) -> None:
        self._stack.pop()
        self.starts[sid] = start
        self.ends[sid] = perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        start = perf_counter()
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, start)

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
            finally:
                self._close(sid, start)
            return out

        return wrapper

    def _wrap_objective(self, name, call):
        # counts points from the objective's own counter, and rotation work
        # from its shape: an (n, d) @ (d, d) matmul per call
        def wrapper(obj, x):
            start = perf_counter()
            sid = self._open(name)
            try:
                before = obj.evals
                out = call(obj, x)
                n = obj.evals - before
                self.trial_points[self.trial] += n
                self.rotation_flop += 2 * n * obj.dim * obj.dim
            finally:
                self._close(sid, start)
            return out

        return wrapper

    # -- the layer boundaries ------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Wrap the adadgs layer boundaries for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            if isinstance(owner, dict):
                saved.append((owner, attr, owner[attr]))
                owner[attr] = new
            else:
                saved.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, new)

        # SubprocessObjective inherits __call__; its own binding is removed
        # again on exit
        objective_call = benchmarks.Objective.__call__
        patch(benchmarks.Objective, "__call__",
              self._wrap_objective("benchmarks.objective", objective_call))
        patch(benchmarks.SubprocessObjective, "__call__",
              self._wrap_objective("benchmarks.subprocess", objective_call))
        for name, info in list(benchmarks.BENCHMARKS.items()):
            patch(benchmarks.BENCHMARKS, name, dataclasses.replace(
                info, fn=self._wrap("benchmarks.base_fn", info.fn)))
        patch(harness, "make_benchmark",
              self._wrap("benchmarks.make", harness.make_benchmark))

        def on_stencil(args, out):
            # dgs_gradient takes one directional derivative per stencil
            # direction: d of them, from the stencil's shape
            self.counts["directional_calls"] += out.points.shape[1]
            self.stencil_bytes = max(self.stencil_bytes, out.points.nbytes)

        patch(gradient, "dgs_stencil",
              self._wrap("gradient.stencil", gradient.dgs_stencil, on_stencil))
        patch(optimizer, "dgs_gradient",
              self._wrap("gradient.dgs", optimizer.dgs_gradient))

        def on_line_search(args, out):
            self.counts["line_search_wins"] += out.j is not None

        patch(optimizer, "line_search",
              self._wrap("optimizer.line_search", optimizer.line_search, on_line_search))
        patch(optimizer, "random_rotation",
              self._wrap("optimizer.reset", optimizer.random_rotation))
        patch(optimizer, "adadgs_step",
              self._wrap("optimizer.step", optimizer.adadgs_step))

        def on_baseline(args, out):
            self.counts["baseline_iterations"] += len(out[2]) - 1

        for fn in ("es_bpop_minimize", "nesterov_minimize", "fd_minimize"):
            patch(harness, fn, self._wrap("baselines.trial", getattr(harness, fn), on_baseline))

        run_trial = harness.run_trial

        def traced_trial(spec, trial):
            self.trial = self.n_trials
            self.n_trials += 1
            with self.span("harness.trial"):
                return run_trial(spec, trial)

        patch(harness, "run_trial", traced_trial)

        def on_csv(args, out):
            self.counts["csv_bytes"] += len(out)

        patch(trace.Trace, "to_csv", self._wrap("trace.to_csv", trace.Trace.to_csv, on_csv))
        patch(harness, "parse_trace_csv",
              self._wrap("harness.parse", harness.parse_trace_csv))
        patch(harness, "summarize", self._wrap("harness.summarize", harness.summarize))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = old
                elif old is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, old)

    # -- analysis ------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total time, self time, and the list of durations."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        total, own, durations = defaultdict(float), defaultdict(float), defaultdict(list)
        for name, d, c in zip(self.names, dur.tolist(), child.tolist()):
            total[name] += d
            own[name] += d - c
            durations[name].append(d)
        return total, own, durations

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,trial\n")
            for k, row in enumerate(zip(self.names, self.starts, self.ends,
                                        self.parents, self.trials)):
                name, start, end, parent, trial = row
                fh.write(f"{k},{name},{start!r},{end!r},{parent},{trial}\n")


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
