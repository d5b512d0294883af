"""Append-only optimization traces and their CSV form."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

CSV_HEADER = "trial,iteration,evals,f_current,f_best,sigma,step"


class TraceRow(NamedTuple):
    iteration: int
    evals: int
    f_current: float
    f_best: float
    sigma: float
    step: float


@dataclass
class Trace:
    """One row per iteration: cumulative evaluations and loss progress."""

    rows: list[TraceRow] = field(default_factory=list)

    def append(self, iteration, evals, f_current, f_best, sigma, step):
        if self.rows:
            last = self.rows[-1]
            if evals <= last.evals:
                raise ValueError("cumulative evals must be strictly increasing")
            if f_best > last.f_best:
                raise ValueError("f_best must be non-increasing")
        self.rows.append(
            TraceRow(int(iteration), int(evals), float(f_current), float(f_best),
                     float(sigma), float(step))
        )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]

    def to_csv(self, trial: int) -> str:
        """CSV body with shortest round-trip decimal formatting."""
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for r in self.rows:
            buf.write(
                f"{trial},{r.iteration},{r.evals},{r.f_current!r},"
                f"{r.f_best!r},{r.sigma!r},{r.step!r}\n"
            )
        return buf.getvalue()


def parse_trace_csv(text: str) -> Trace:
    """Rebuild a Trace from CSV text (inverse of Trace.to_csv)."""
    trace = Trace()
    lines = text.strip().splitlines()
    for line in lines[1:]:
        _, it, ev, f_cur, f_best, sigma, step = line.split(",")
        trace.append(int(it), int(ev), float(f_cur), float(f_best),
                     float(sigma), float(step))
    return trace
