"""Reference optimizers: big-population GS evolution strategy, Nesterov
random search with forward differences, and central-finite-difference
gradient descent.

These use fixed learning rates and difference steps; they exist as
comparison curves, not as tuned competitors. Like AdaDGS, each samples
along lines, one `Lines` batch per iteration. Each supplies only its
per-iteration step to `optimizer.drive`, the loop shared with AdaDGS: a
generator `iterations(x0, f0)` that yields one `Iterate` per iteration,
and the fixed number of evaluations an iteration uses. The driver owns
the budget, the best point, the trace and the evaluation count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .benchmarks import Lines
from .errors import check_count, check_positive
from .gradient import SampledGradient, finite_samples, gs_mc_gradient
from .optimizer import Iterate, check_caps, drive


@dataclass(frozen=True)
class BaselineConfig:
    """A baseline's settings. `resolved(objective, optimizer)` gives each None
    one a default from the domain width w and the dimension d (the source
    text specifies none), rejects a population for all but es_bpop, and
    calls `validate`: learning_rate and sigma_or_h by `check_positive`,
    population by `check_count` (>= 2, and even), the caps as AdaDGS's."""

    learning_rate: float | None = None
    sigma_or_h: float | None = None  # GS radius for es_bpop, difference step for nesterov/fd
    population: int | None = None  # es_bpop only
    budget: int | None = None
    T_max: int | None = None
    seed: int | None = None

    def resolved(self, objective, optimizer: str) -> "BaselineConfig":
        if optimizer != "es_bpop" and self.population is not None:
            raise ValueError(f"optimizer {optimizer!r} does not read the option 'population'")
        w, d = objective.domain_width, objective.dim
        defaults = {"es_bpop": (0.002 * w, 0.02 * w, 5 * d + d % 2),  # 5*d rounded up to even
                    "nesterov": (0.001 * w, 1e-5 * w, None),
                    "fd": (0.001, 1e-5 * w, None)}[optimizer]
        cfg = dataclasses.replace(self, **{
            name: value for name, value in zip(("learning_rate", "sigma_or_h", "population"),
                                               defaults) if getattr(self, name) is None})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        check_positive("learning_rate", self.learning_rate)
        check_positive("sigma_or_h", self.sigma_or_h)
        if self.population is not None:
            check_count("population", self.population, 2)
            if self.population % 2:
                raise ValueError(f"population must be even, got {self.population}")
        check_caps(self.T_max, self.budget)


def _descend(F, x0, cfg: BaselineConfig, cost: int, estimate):
    """Gradient descent on `estimate(x)`, a SampledGradient; each iteration
    reports its best sample, rebuilt by `Lines.point`, as f_current."""
    lam = cfg.learning_rate

    def iterations(x, f0):
        while True:
            est = estimate(x)
            k = int(np.argmin(est.values))
            x_new = x - lam * est.vector
            f_k = float(est.values[k])
            yield Iterate(f_k, cfg.sigma_or_h, float(np.linalg.norm(x_new - x)),
                          est.lines.point(k), f_k)
            x = x_new

    return drive(F, x0, cfg.sigma_or_h, iterations, cost, cfg.T_max, cfg.budget)


def es_bpop_minimize(F, x0, cfg: BaselineConfig):
    """Gradient descent on the MC Gaussian-smoothing gradient estimate.

    Antithetic sampling with `population` samples per iteration; the
    per-iteration f_current is the best sampled value (the iterate itself
    is never evaluated after initialization, keeping the accounting at
    exactly `population` evaluations per iteration).
    """
    cfg = cfg.resolved(F, "es_bpop")
    rng = np.random.default_rng(cfg.seed)
    return _descend(F, x0, cfg, cfg.population,
                    lambda x: gs_mc_gradient(F, x, cfg.sigma_or_h, cfg.population, rng=rng))


def nesterov_minimize(F, x0, cfg: BaselineConfig):
    """Random search with forward-difference directional derivative.

    Per step: draw u ~ N(0, I), estimate F'(x; u) = (F(x+hu) - F(x))/h,
    move x <- x - lr * F' * u. Exactly 2 evaluations per step, in one batch.
    """
    cfg = cfg.resolved(F, "nesterov")
    rng = np.random.default_rng(cfg.seed)
    h, lam = cfg.sigma_or_h, cfg.learning_rate

    def iterations(x, f0):
        while True:
            u = rng.standard_normal(x.shape[0])
            fx, fxh = finite_samples(F(Lines(x, u[None], np.array([0.0, h])))).tolist()
            deriv = (fxh - fx) / h
            x_new = x - lam * deriv * u
            best = (x + h * u, fxh) if fxh < fx else (x, fx)
            yield Iterate(fx, h, float(np.linalg.norm(x_new - x)), *best)
            x = x_new

    return drive(F, x0, h, iterations, 2, cfg.T_max, cfg.budget)


def fd_gradient(F, x, h: float) -> SampledGradient:
    """Central-difference gradient estimate: 2d evaluations, as one batch
    `Lines(x, None, [h, -h])` along the coordinate axes, which a benchmark
    rotates once per trial. The step h is checked by `check_positive`."""
    check_positive("h", h)
    x = np.asarray(x, float)
    lines = Lines(x, None, np.array([h, -h]))
    values = finite_samples(F(lines))
    plus, minus = values.reshape(-1, 2).T
    return SampledGradient((plus - minus) / (2.0 * h), lines, values)


def fd_minimize(F, x0, cfg: BaselineConfig):
    """Gradient descent on the central-finite-difference gradient.

    Exactly 2d evaluations per iteration; f_current is the best probe
    value of the iteration (the iterate is only evaluated once, at x0).
    """
    cfg = cfg.resolved(F, "fd")
    return _descend(F, x0, cfg, 2 * F.dim, lambda x: fd_gradient(F, x, cfg.sigma_or_h))
