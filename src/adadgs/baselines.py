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

from dataclasses import dataclass

import numpy as np

from .benchmarks import Lines
from .gradient import Frame, SampledGradient, finite_samples, gs_mc_gradient
from .optimizer import Iterate, check_caps, drive


@dataclass(frozen=True)
class BaselineConfig:
    learning_rate: float
    sigma_or_h: float  # GS radius for es_bpop, difference step for nesterov/fd
    population: int | None = None  # es_bpop only; default M*d handled by caller
    budget: int | None = None
    T_max: int | None = None
    seed: int | None = None

    def validate(self) -> None:
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not self.sigma_or_h > 0:
            raise ValueError(f"sigma_or_h must be positive, got {self.sigma_or_h}")
        pop = self.population
        if pop is not None and (not isinstance(pop, (int, np.integer)) or pop < 2 or pop % 2):
            raise ValueError(f"population must be a positive even integer, got {pop}")
        check_caps(self.T_max, self.budget)


def _descend(F, x0, cfg: BaselineConfig, cost: int, estimate):
    """Gradient descent on `estimate(x)`, a SampledGradient; each iteration
    reports its best sample, rebuilt as `Lines.points` builds it, as f_current."""
    lam = cfg.learning_rate

    def iterations(x, f0):
        while True:
            est = estimate(x)
            k = int(np.argmin(est.values))
            origin, directions, offsets = est.lines
            i, j = divmod(k, len(offsets))
            x_new = x - lam * est.vector
            f_k = float(est.values[k])
            yield Iterate(f_k, cfg.sigma_or_h, float(np.linalg.norm(x_new - x)),
                          origin + offsets[j] * directions[i], f_k)
            x = x_new

    return drive(F, x0, cfg.sigma_or_h, iterations, cost, cfg.T_max, cfg.budget)


def es_bpop_minimize(F, x0, cfg: BaselineConfig):
    """Gradient descent on the MC Gaussian-smoothing gradient estimate.

    Antithetic sampling with `population` samples per iteration; the
    per-iteration f_current is the best sampled value (the iterate itself
    is never evaluated after initialization, keeping the accounting at
    exactly `population` evaluations per iteration).
    """
    cfg.validate()
    if cfg.population is None:
        raise ValueError("es_bpop needs a population")
    rng = np.random.default_rng(cfg.seed)
    return _descend(F, x0, cfg, cfg.population,
                    lambda x: gs_mc_gradient(F, x, cfg.sigma_or_h, cfg.population, rng=rng))


def nesterov_minimize(F, x0, cfg: BaselineConfig):
    """Random search with forward-difference directional derivative.

    Per step: draw u ~ N(0, I), estimate F'(x; u) = (F(x+hu) - F(x))/h,
    move x <- x - lr * F' * u. Exactly 2 evaluations per step, in one batch.
    """
    cfg.validate()
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


def fd_gradient(F, x, h: float, eye=None) -> SampledGradient:
    """Central-difference gradient estimate: 2d evaluations, as one batch
    `Lines(x, eye, [h, -h])`; pass a read-only identity reused over a trial
    (a `Frame`'s matrix) so that a benchmark rotates it once."""
    x = np.asarray(x, float)
    lines = Lines(x, np.eye(x.shape[0]) if eye is None else eye, np.array([h, -h]))
    values = finite_samples(F(lines))
    plus, minus = values.reshape(-1, 2).T
    return SampledGradient((plus - minus) / (2.0 * h), lines, values)


def fd_minimize(F, x0, cfg: BaselineConfig):
    """Gradient descent on the central-finite-difference gradient.

    Exactly 2d evaluations per iteration; f_current is the best probe
    value of the iteration (the iterate is only evaluated once, at x0).
    """
    cfg.validate()
    eye = Frame.identity(np.asarray(x0).shape[0]).matrix
    return _descend(F, x0, cfg, 2 * len(eye), lambda x: fd_gradient(F, x, cfg.sigma_or_h, eye))
