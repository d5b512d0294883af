"""Adaptive DGS optimizer: line search along the smoothed gradient plus
radius adaptation and random-exploration triggers.

Per iteration: estimate the DGS gradient at the current iterate, pick the
step length by an exhaustive log-spaced line search along the negative
gradient direction, set the next smoothing radius to the mean of the
current radius and the learned step, and re-randomize the direction frame
(resetting the radius) whenever relative improvement falls below gamma.

`drive` is the one loop behind AdaDGS and the baselines; each of them
supplies only its per-iteration step (see `drive` for the contract).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .benchmarks import Lines, Objective, haar_rotation
from .gradient import Frame, dgs_gradient, finite_samples, gauss_hermite_rule
from .trace import Trace

DEGENERATE_NORM = 1e-12
_NEVER_RESET = -(10**9)


@dataclass(frozen=True)
class AdaDgsConfig:
    """Hyper-parameters; None fields are resolved from the objective.

    M is the Gauss-Hermite order (2 to 64); a zero node, which odd M has,
    is never sampled. L_max defaults to the search-domain diagonal, L_min
    to 0.005*L_max (or L_max * contraction**(S-1) when a contraction factor
    is given), S to max(12, round(0.05*M*d)), and sigma0 to sigma0_scale
    times the domain width. The search starts from the identity frame; a
    reset draws a random one. The next radius is the mean of the current
    one and the distance the line search moved.
    """

    M: int = 5
    L_max: float | None = None
    L_min: float | None = None
    S: int | None = None
    sigma0: float | None = None
    sigma0_scale: float = 1.0  # used when sigma0 is resolved from the domain
    gamma: float = 0.001
    T_max: int | None = None
    budget: int | None = None
    reset_interval: int = 10
    contraction: float | None = None
    seed: int | None = None

    def resolved(self, objective: Objective) -> "AdaDgsConfig":
        d = objective.dim
        L_max = self.L_max if self.L_max is not None else objective.domain_diagonal
        S = self.S if self.S is not None else max(12, round(0.05 * self.M * d))
        if self.L_min is not None:
            L_min = self.L_min
        elif self.contraction is not None:
            L_min = L_max * self.contraction ** (S - 1)
        else:
            L_min = 0.005 * L_max
        sigma0 = self.sigma0 if self.sigma0 is not None \
            else self.sigma0_scale * objective.domain_width
        cfg = dataclasses.replace(self, L_max=L_max, L_min=L_min, S=S, sigma0=sigma0)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not 2 <= self.M <= 64:
            raise ValueError(f"M must be in 2..64 (the 1-point rule's only node "
                             f"is 0, so it samples nothing), got {self.M}")
        if not (self.L_min is not None and 0 < self.L_min < self.L_max):
            raise ValueError(f"need 0 < L_min < L_max, got {self.L_min}, {self.L_max}")
        if self.S < 2:
            raise ValueError(f"S must be >= 2, got {self.S}")
        if not self.sigma0 > 0:
            raise ValueError(f"sigma0 must be positive, got {self.sigma0}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.T_max is None and self.budget is None:
            raise ValueError("need at least one of T_max, budget")

    def stencil_size(self, d: int) -> int:
        return (self.M - self.M % 2) * d  # odd M: the zero node is skipped


@dataclass
class OptimizerState:
    x: np.ndarray
    sigma: float
    frame: Frame
    t: int
    f_current: float
    last_reset_t: int
    rng: np.random.Generator
    last_step: float = 0.0


class Iterate(NamedTuple):
    """What one iteration reports to the driver."""

    f_current: float  # the trace row's loss
    sigma: float
    step: float  # distance the iterate moved
    x_sample: np.ndarray  # the best point evaluated in the iteration
    f_sample: float  # and its value


def drive(F, x0, sigma0, iterations, cost, T_max, budget) -> tuple[np.ndarray, float, Trace]:
    """The one optimizer loop; returns (x_best, f_best, trace).

    An optimizer supplies only its step: `iterations(x0, f0)`, a generator
    whose every `next` runs one iteration, uses at most `cost` evaluations
    of the Objective F, and yields an `Iterate`. The driver evaluates f(x0),
    starts an iteration only while fewer than T_max have run and `cost`
    more evaluations fit in the budget (either cap may be None), keeps the
    best point, and appends one trace row per iteration, its evaluation
    count read from F's own counter.
    """
    x0 = np.asarray(x0, float)
    start = F.evals
    f0 = float(finite_samples(F(x0)))
    x_best, f_best = x0, f0
    trace = Trace()
    trace.append(0, 1, f0, f0, sigma0, 0.0)
    steps = iterations(x0, f0)
    t, evals = 0, 1
    while (T_max is None or t < T_max) and (budget is None or evals + cost <= budget):
        it = next(steps)
        used = F.evals - start - evals
        if used > cost:
            raise RuntimeError(f"iteration {t + 1} used {used} evaluations, "
                               f"more than its cost {cost}")
        t, evals = t + 1, evals + used
        if it.f_sample < f_best:
            x_best, f_best = it.x_sample, it.f_sample
        trace.append(t, evals, it.f_current, f_best, it.sigma, it.step)
    return x_best, f_best, trace


class LineSearchResult(NamedTuple):
    j: int | None  # winning candidate index; None when the incumbent wins
    step_distance: float
    x_new: np.ndarray
    f_new: float


def gradient_norm(g) -> float:
    """||g||, inf when it overflows (no warning is raised); a g whose norm
    is not finite, or at most DEGENERATE_NORM, gives no usable direction."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(g))


def line_search(F, x, g, L_max, L_min, S, f_x) -> LineSearchResult:
    """Exhaustive log-spaced line search along -g.

    Candidates are x - L_max * rho^j * g/||g||, j = 0..S-1, with
    rho = (L_min/L_max)^(1/(S-1)). The incumbent x, of value f_x, competes:
    a candidate must strictly improve on f_x to win, so the result never
    worsens. Ties between candidates go to the smaller j (the longer step).
    A non-finite candidate value ranks as +inf, so it never wins. The
    candidates go to F as one `Lines` batch along ghat.
    """
    x = np.asarray(x, float)
    g = np.asarray(g, float)
    gnorm = gradient_norm(g)
    if not DEGENERATE_NORM < gnorm < np.inf:
        raise ValueError(f"degenerate gradient: ||g|| = {gnorm:.3e}")

    rho = (L_min / L_max) ** (1.0 / (S - 1))
    steps = L_max * rho ** np.arange(S)
    ghat = g / gnorm
    fvals = F(Lines(x, ghat[None, :], -steps))
    fvals = np.where(np.isfinite(fvals), fvals, np.inf)

    j = int(np.argmin(fvals))  # first minimum: smallest j wins ties
    if fvals[j] < f_x:
        step = float(steps[j])
        return LineSearchResult(j, step, x - steps[j] * ghat, float(fvals[j]))
    return LineSearchResult(None, 0.0, x, float(f_x))


def sigma_update(sigma_prev: float, step: float) -> float:
    """Next smoothing radius: the mean of the previous radius and the step."""
    if not sigma_prev > 0:
        raise ValueError(f"sigma_prev must be positive, got {sigma_prev}")
    return 0.5 * (sigma_prev + step)


def random_rotation(d: int, rng: np.random.Generator) -> Frame:
    """Haar-distributed random orthonormal frame."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return Frame(haar_rotation(d, rng))


def adadgs_step(F, state: OptimizerState, cfg: AdaDgsConfig) -> OptimizerState:
    """Advance the optimizer by one iteration (gradient + line search)."""
    rule = gauss_hermite_rule(cfg.M)
    grad = dgs_gradient(F, state.x, state.frame, state.sigma, rule)

    if not DEGENERATE_NORM < gradient_norm(grad.vector) < np.inf:
        # no usable direction: stay put, and explore as if stalled
        ls = LineSearchResult(None, 0.0, state.x, state.f_current)
        sigma, stalled = state.sigma, True
    else:
        ls = line_search(F, state.x, grad.vector, cfg.L_max, cfg.L_min, cfg.S,
                         f_x=state.f_current)
        sigma = sigma_update(state.sigma, ls.step_distance)
        rel_change = abs(ls.f_new - state.f_current) / max(abs(state.f_current), 1e-12)
        stalled = rel_change < cfg.gamma

    frame, last_reset = state.frame, state.last_reset_t
    if stalled and state.t - state.last_reset_t >= cfg.reset_interval:
        # re-randomize the frame and reset the radius
        frame = random_rotation(state.x.shape[0], state.rng)
        sigma, last_reset = cfg.sigma0, state.t

    return dataclasses.replace(
        state, x=ls.x_new, sigma=sigma, frame=frame, t=state.t + 1,
        f_current=ls.f_new, last_reset_t=last_reset, last_step=ls.step_distance,
    )


def adadgs_minimize(F, x0, cfg: AdaDgsConfig) -> tuple[np.ndarray, float, Trace]:
    """Run the adaptive DGS loop until the iteration or evaluation cap.

    The step is `adadgs_step`, driven by `drive`; an iteration is only
    started if its full evaluation cost (stencil + line search) fits in
    the remaining budget.
    """
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("non-finite initial point")
    cfg = cfg.resolved(F)
    d = x0.shape[0]
    rng = np.random.default_rng(cfg.seed)

    def iterations(x, f0):
        state = OptimizerState(x=x, sigma=cfg.sigma0, frame=Frame.identity(d), t=0,
                               f_current=f0, last_reset_t=_NEVER_RESET, rng=rng)
        while True:
            state = adadgs_step(F, state, cfg)
            yield Iterate(state.f_current, state.sigma, state.last_step,
                          state.x, state.f_current)

    return drive(F, x0, cfg.sigma0, iterations, cfg.stencil_size(d) + cfg.S,
                 cfg.T_max, cfg.budget)
