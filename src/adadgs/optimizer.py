"""Adaptive DGS optimizer: line search along the smoothed gradient plus
radius adaptation and random-exploration triggers.

Per iteration: estimate the DGS gradient at the current iterate, pick the
step length by an exhaustive log-spaced line search along the negative
gradient direction, set the next smoothing radius to the mean of the
current radius and the learned step, and re-randomize the direction frame
(resetting the radius) whenever relative improvement falls below gamma.

`drive` is the one loop behind AdaDGS and the baselines; each of them
supplies only its per-iteration step (see `drive` for the contract).

`adadgs_step`, `random_rotation`, `dgs_gradient` and `line_search` stay
module-level names, looked up through this module on every call:
`perfbench/tracer.py` times each layer by rebinding them from outside.
`random_rotation` is the draw itself, `benchmarks.haar_rotation`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .benchmarks import Lines, Objective, haar_rotation
from .errors import check_count, check_positive, check_real
from .gradient import MAX_ORDER, dgs_gradient, finite_samples, gauss_hermite_rule
from .trace import Trace

DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class AdaDgsConfig:
    """Hyper-parameters; None fields are resolved from the objective.

    M is the Gauss-Hermite order (2 to MAX_ORDER, 64); a zero node, which
    odd M has, is never sampled. L_max defaults to the search-domain
    diagonal, L_min to 0.005*L_max (or L_max * contraction**(S-1) when a
    contraction factor is given), S to max(12, round(0.05*M*d)), and sigma0
    to sigma0_scale times the domain width. The search starts from the
    coordinate axes; a reset draws a random frame. The next radius is the mean
    of the current one and the distance the line search moved.

    `resolved` checks each setting once, as it first computes with it, so
    each error names its setting: M, then a set contraction (a real number
    in (0, 1)), sigma0_scale, L_max, S, L_min (below L_max), sigma0, gamma
    (a real number >= 0), reset_interval, T_max and budget. The counts go
    through `check_count`, the radii and sigma0_scale through
    `check_positive` (positive and finite). In an `ExperimentSpec` the
    spec's own budget and seed set the run's, and this config must leave
    both None.
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
        if self.M == 1:
            raise ValueError(f"M must be in 2..{MAX_ORDER} (the 1-point rule's only node "
                             f"is 0, so it samples nothing), got {self.M!r}")
        check_count("M", self.M, 2, MAX_ORDER)
        if self.contraction is not None:
            check_real("contraction", self.contraction)
            if not 0 < self.contraction < 1:
                raise ValueError(f"contraction must be in (0, 1), got {self.contraction}")
        check_positive("sigma0_scale", self.sigma0_scale)
        L_max = self.L_max if self.L_max is not None else objective.domain_diagonal
        check_positive("L_max", L_max)
        S = self.S if self.S is not None else max(12, round(0.05 * self.M * objective.dim))
        check_count("S", S, 2)
        if self.L_min is not None:
            L_min = self.L_min
        elif self.contraction is not None:
            L_min = L_max * self.contraction ** (S - 1)
        else:
            L_min = 0.005 * L_max
        check_positive("L_min", L_min)
        if not L_min < L_max:
            raise ValueError(f"need L_min < L_max, got {L_min}, {L_max}")
        sigma0 = self.sigma0 if self.sigma0 is not None \
            else self.sigma0_scale * objective.domain_width
        check_positive("sigma0", sigma0)
        check_real("gamma", self.gamma)
        if not self.gamma >= 0:  # NaN included: it would turn the stall test off
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        check_count("reset_interval", self.reset_interval, 0)
        check_caps(self.T_max, self.budget)
        return dataclasses.replace(self, L_max=L_max, L_min=L_min, S=S, sigma0=sigma0)

    def stencil_size(self, d: int) -> int:
        return (self.M - self.M % 2) * d  # odd M: the zero node is skipped


def check_caps(T_max, budget) -> None:
    """Need T_max >= 0 iterations, a budget of >= 1 evaluation (f(x0)), or both."""
    if T_max is None and budget is None:
        raise ValueError("need at least one of T_max, budget")
    if T_max is not None:
        check_count("T_max", T_max, 0)
    if budget is not None:
        check_count("budget", budget, 1)


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
    count read from F's own counter. A start point with a non-finite
    coordinate is a ValueError before any evaluation.
    """
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("non-finite initial point")
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
    candidates go to F as one `Lines` batch along ghat. S, L_max and L_min
    are checked as `AdaDgsConfig.resolved` checks them, with its messages.
    """
    check_count("S", S, 2)
    check_positive("L_max", L_max)
    check_positive("L_min", L_min)
    if not L_min < L_max:
        raise ValueError(f"need L_min < L_max, got {L_min}, {L_max}")
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
    check_positive("sigma_prev", sigma_prev)
    return 0.5 * (sigma_prev + step)


random_rotation = haar_rotation  # a reset's frame, row i its direction i


def adadgs_step(F, x, f, frame: np.ndarray | None, sigma: float, cfg: AdaDgsConfig):
    """One iteration at x, of value f: the DGS gradient on `frame` (None: the
    coordinate axes) with radius sigma, then the line search along it.

    Returns (x_new, f_new, step, sigma_next, stalled); `stalled` is set when
    the relative improvement is below gamma, or when the gradient gives no
    usable direction, in which case x stays put and sigma is unchanged.
    """
    g = dgs_gradient(F, x, frame, sigma, gauss_hermite_rule(cfg.M))
    if not DEGENERATE_NORM < gradient_norm(g) < np.inf:
        return x, f, 0.0, sigma, True  # stay put, and explore as if stalled
    ls = line_search(F, x, g, cfg.L_max, cfg.L_min, cfg.S, f_x=f)
    rel_change = abs(ls.f_new - f) / max(abs(f), 1e-12)
    return (ls.x_new, ls.f_new, ls.step_distance, sigma_update(sigma, ls.step_distance),
            rel_change < cfg.gamma)


def adadgs_minimize(F, x0, cfg: AdaDgsConfig) -> tuple[np.ndarray, float, Trace]:
    """Run the adaptive DGS loop until the iteration or evaluation cap.

    The step is `adadgs_step`, driven by `drive`; an iteration is only
    started if its full evaluation cost (stencil + line search) fits in
    the remaining budget. A stalled iteration re-randomizes the frame and
    resets the radius to sigma0, unless the last reset was fewer than
    `reset_interval` iterations ago.
    """
    x0 = np.asarray(x0, float)
    cfg = cfg.resolved(F)
    d = x0.shape[0]
    rng = np.random.default_rng(cfg.seed)

    def iterations(x, f):
        frame, sigma, last_reset = None, cfg.sigma0, None
        for t in itertools.count():
            x, f, step, sigma, stalled = adadgs_step(F, x, f, frame, sigma, cfg)
            if stalled and (last_reset is None or t - last_reset >= cfg.reset_interval):
                frame = None  # the old frame dies before the next is drawn
                frame, sigma, last_reset = random_rotation(d, rng), cfg.sigma0, t
            yield Iterate(f, sigma, step, x, f)

    return drive(F, x0, cfg.sigma0, iterations, cfg.stencil_size(d) + cfg.S,
                 cfg.T_max, cfg.budget)
