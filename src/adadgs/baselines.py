"""Reference optimizers: big-population GS evolution strategy, Nesterov
random search with forward differences, and central-finite-difference
gradient descent.

These use fixed learning rates and difference steps; they exist as
comparison curves, not as tuned competitors. Each supplies only its
per-iteration step to `optimizer.drive`, the loop shared with AdaDGS: a
generator `iterations(x0, f0)` that yields one `Iterate` per iteration,
and the fixed number of evaluations an iteration uses. The driver owns
the budget, the best point, the trace and the evaluation count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import SampledGradient, finite_samples, gs_mc_gradient
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
        if self.population is not None and (self.population < 2 or self.population % 2):
            raise ValueError(f"population must be a positive even integer, got {self.population}")
        check_caps(self.T_max, self.budget)


def _descend(F, x0, cfg: BaselineConfig, cost: int, estimate):
    """Gradient descent on `estimate(x)`, a SampledGradient; each iteration
    reports its best sample as f_current."""
    lam = cfg.learning_rate

    def iterations(x, f0):
        while True:
            est = estimate(x)
            k = int(np.argmin(est.values))
            x_new = x - lam * est.vector
            f_k = float(est.values[k])
            yield Iterate(f_k, cfg.sigma_or_h, float(np.linalg.norm(x_new - x)),
                          est.points[k], f_k)
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
    move x <- x - lr * F' * u. Exactly 2 evaluations per step.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    h, lam = cfg.sigma_or_h, cfg.learning_rate

    def iterations(x, f0):
        while True:
            u = rng.standard_normal(x.shape[0])
            x_h = x + h * u
            fx, fxh = finite_samples([F(x), F(x_h)]).tolist()
            deriv = (fxh - fx) / h
            x_new = x - lam * deriv * u
            best = (x_h, fxh) if fxh < fx else (x, fx)
            yield Iterate(fx, h, float(np.linalg.norm(x_new - x)), *best)
            x = x_new

    return drive(F, x0, h, iterations, 2, cfg.T_max, cfg.budget)


def fd_gradient(F, x, h: float) -> SampledGradient:
    """Central-difference gradient estimate (2d evaluations, batched)."""
    x = np.asarray(x, float)
    d = x.shape[0]
    E = h * np.eye(d)
    points = np.concatenate([x[None, :] + E, x[None, :] - E])
    values = finite_samples(np.concatenate([F(points[:d]), F(points[d:])]))
    vector = (values[:d] - values[d:]) / (2.0 * h)
    return SampledGradient(vector, points, values)


def fd_minimize(F, x0, cfg: BaselineConfig):
    """Gradient descent on the central-finite-difference gradient.

    Exactly 2d evaluations per iteration; f_current is the best probe
    value of the iteration (the iterate is only evaluated once, at x0).
    """
    cfg.validate()
    d = np.asarray(x0).shape[0]
    return _descend(F, x0, cfg, 2 * d, lambda x: fd_gradient(F, x, cfg.sigma_or_h))
