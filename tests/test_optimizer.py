import dataclasses

import numpy as np
import pytest

from adadgs.baselines import BaselineConfig, es_bpop_minimize, fd_minimize, nesterov_minimize
from adadgs.benchmarks import Lines, Objective
from adadgs.errors import EvaluationError
from adadgs.gradient import Frame
from adadgs.optimizer import (
    AdaDgsConfig,
    Iterate,
    adadgs_minimize,
    adadgs_step,
    drive,
    line_search,
    random_rotation,
    sigma_update,
)


def sphere(d, width=10.0):
    return Objective(lambda X: np.sum(X**2, axis=1), d, (-width, width))


class StencilRecorder(Objective):
    """An Objective that keeps every DGS stencil it evaluates (a `Lines`
    batch with one direction per dimension), so a test can see the frame
    and the iterate of each iteration from outside the optimizer."""

    def __init__(self, fn, dim, bounds):
        super().__init__(fn, dim, bounds)
        self.stencils = []

    def _eval_lines(self, lines):
        if lines.directions.shape[0] == self.dim:
            self.stencils.append(lines)
        return super()._eval_lines(lines)

    @property
    def frames(self):
        return [lines.directions for lines in self.stencils]


# --- line search -------------------------------------------------------------


def brute_force_j(F, x, g, L_max, L_min, S):
    rho = (L_min / L_max) ** (1.0 / (S - 1))
    ghat = g / np.linalg.norm(g)
    vals = [float(F(x - L_max * rho**j * ghat)) for j in range(S)]
    return int(np.argmin(vals)), vals


def test_line_search_1d_quadratic():
    F = sphere(1)
    x, g = np.array([1.0]), np.array([2.0])
    res = line_search(F, x, g, L_max=2.0, L_min=0.01, S=12, f_x=F(x))
    j_ref, vals = brute_force_j(sphere(1), x, g, 2.0, 0.01, 12)
    assert res.j == j_ref
    assert res.f_new == pytest.approx(min(vals))
    assert res.step_distance == pytest.approx(2.0 * (0.005 ** (1 / 11)) ** res.j)


def test_line_search_random_problems_match_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d = rng.integers(1, 6)
        A = rng.normal(size=(d, d))
        A = A @ A.T + np.eye(d)
        F = Objective(lambda X, A=A: np.einsum("ni,ij,nj->n", X, A, X), d, (-10, 10))
        x = rng.normal(size=d)
        g = rng.normal(size=d)
        L_max, L_min, S = 5.0, 0.01, rng.integers(5, 30)
        res = line_search(F, x, g, L_max, L_min, int(S), f_x=F(x))
        j_ref, vals = brute_force_j(F, x, g, L_max, L_min, int(S))
        if min(vals) < float(F(x)):
            assert res.j == j_ref
        else:
            assert res.j is None and res.step_distance == 0.0


def test_line_search_tie_prefers_longer_step():
    # piecewise-constant objective: all candidates tie below the incumbent
    F = Objective(lambda X: np.where(np.abs(X[:, 0] - 1.0) < 1e-9, 1.0, 0.0),
                  1, (-10, 10))
    res = line_search(F, np.array([1.0]), np.array([1.0]), 2.0, 0.01, 8, f_x=1.0)
    assert res.j == 0  # smallest j = longest step


def test_line_search_constant_keeps_incumbent():
    F = Objective(lambda X: np.full(X.shape[0], 7.0), 2, (-10, 10))
    x = np.array([0.3, -0.4])
    res = line_search(F, x, np.array([1.0, 1.0]), 1.0, 0.01, 12, f_x=7.0)
    assert res.step_distance == 0.0
    assert np.array_equal(res.x_new, x)
    assert res.f_new == 7.0


def test_line_search_degenerate_gradient():
    F = sphere(2)
    with pytest.raises(ValueError):
        line_search(F, np.zeros(2), np.full(2, 1e-14), 1.0, 0.01, 12, f_x=0.0)


def test_line_search_rejects_overflowing_norm():
    # ||g||^2 = 2e400 overflows: g/||g|| would be 0 and every candidate x
    F = sphere(2)
    with pytest.raises(ValueError, match="degenerate"):
        line_search(F, np.zeros(2), np.full(2, 1e200), 1.0, 0.01, 12, f_x=0.0)
    assert F.evals == 0


def test_line_search_dominance_and_lambda_identity():
    rng = np.random.default_rng(2)
    F = Objective(lambda X: np.cos(X).sum(axis=1) + 0.05 * (X**2).sum(axis=1),
                  3, (-10, 10))
    x, g = rng.normal(size=3), rng.normal(size=3)
    res = line_search(F, x, g, 4.0, 0.02, 15, f_x=F(x))
    _, vals = brute_force_j(F, x, g, 4.0, 0.02, 15)
    assert res.f_new <= min(vals) and res.f_new <= float(F(x))
    # the step is x_new = x - lam * g with learning rate lam = step / ||g||
    lam = res.step_distance / np.linalg.norm(g)
    np.testing.assert_allclose(res.x_new, x - lam * g, rtol=1e-12, atol=1e-15)


def test_line_search_nan_candidate_does_not_hide_improvement():
    # NaN beyond ||x||^2 > 50: the long steps are NaN, a finite one near
    # step 4.24 reaches about 0, far below f(x) = 18
    F = Objective(lambda X: np.where(np.sum(X**2, axis=1) > 50, np.nan,
                                     np.sum(X**2, axis=1)), 2, (-10, 10))
    x = np.array([3.0, 3.0])
    res = line_search(F, x, np.array([1.0, 1.0]), 20.0, 0.01, 12, f_x=18.0)
    assert res.j is not None
    assert res.f_new < 1.0


# --- sigma update ------------------------------------------------------------


def test_sigma_update_paper_value():
    assert sigma_update(4.0, 2.0) == 3.0


def test_sigma_update_fixed_point():
    assert sigma_update(1.7, 1.7) == 1.7


def test_sigma_update_geometric_decay():
    s = 1.0
    for k in range(1, 20):
        s = sigma_update(s, 0.0)
        assert s == 2.0**-k


def test_sigma_update_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma_update(0.0, 1.0)


# --- random rotation ---------------------------------------------------------


@pytest.mark.parametrize("d,seed", [(1, 0), (2, 1), (5, 2), (40, 3)])
def test_random_rotation_orthonormal(d, seed):
    f = random_rotation(d, np.random.default_rng(seed))
    assert np.max(np.abs(f.matrix @ f.matrix.T - np.eye(d))) < 1e-10
    np.testing.assert_allclose(np.linalg.norm(f.matrix, axis=1), 1.0, atol=1e-12)


def test_random_rotation_d1():
    vals = {float(random_rotation(1, np.random.default_rng(s)).matrix[0, 0])
            for s in range(20)}
    assert vals <= {1.0, -1.0} and len(vals) == 2


def test_random_rotation_haar_mean():
    # Monte-Carlo sanity check: entries have mean 0 on the 1/sqrt(d) scale
    rng = np.random.default_rng(0)
    d, n = 200, 3000
    acc = 0.0
    for _ in range(n):
        acc += random_rotation(d, rng).matrix[0, 0]
    se = (1.0 / np.sqrt(d)) / np.sqrt(n)
    assert abs(acc / n) < 4.0 * se


# --- adadgs step -------------------------------------------------------------


def resolved(F, **kw):
    base = dict(T_max=100, gamma=0.0)
    base.update(kw)
    return AdaDgsConfig(**base).resolved(F)


def test_step_decreases_quadratic():
    rng = np.random.default_rng(4)
    d = 10
    A = rng.normal(size=(d, d))
    A = A @ A.T + np.eye(d)
    F = Objective(lambda X: 0.5 * np.einsum("ni,ij,nj->n", X, A, X), d, (-5, 5))
    cfg = resolved(F, M=5)
    x = rng.normal(size=d) * 3
    f, sigma, frame = F(x), cfg.sigma0, Frame.identity(d)
    for _ in range(15):
        x, f_new, _, sigma, _ = adadgs_step(F, x, f, frame, sigma, cfg)
        assert f_new <= f
        assert sigma > 0
        f = f_new
    assert f < 1e-2 * F(np.full(d, 3.0))


def tilted_plateau(d, slope=1e-9):
    # almost flat with a tiny usable gradient: the line search improves by
    # a sub-gamma relative amount every step, exercising the gamma trigger
    return StencilRecorder(lambda X: 1.0 + slope * X[:, 0], d, (-1, 1))


def minimize(F, x0, T_max, **kw):
    """Run T_max iterations; F.frames[t] is the frame iteration t ran on,
    so F.frames[t + 1] shows whether iteration t reset it."""
    cfg = AdaDgsConfig(T_max=T_max, **kw)
    _, _, trace = adadgs_minimize(F, x0, cfg)
    assert len(F.stencils) == T_max
    return cfg.resolved(F), list(trace)


def test_gamma_zero_never_triggers():
    F = tilted_plateau(3)
    _, rows = minimize(F, np.zeros(3), 6, gamma=0.0)
    # improvement is minuscule every step, yet the frame never rotates
    assert all(np.array_equal(frame, np.eye(3)) for frame in F.frames)
    # and the radius is never reset: every one is the mean of the last and the step
    assert all(b.sigma == sigma_update(a.sigma, b.step) for a, b in zip(rows, rows[1:]))


def test_stall_triggers_rotation_and_reset():
    F = tilted_plateau(3)
    cfg, rows = minimize(F, np.zeros(3), 2, gamma=0.001)
    assert not np.array_equal(F.frames[1], np.eye(3))
    assert rows[1].sigma == cfg.sigma0


def test_reset_interval_guard():
    F = tilted_plateau(2)
    cfg, rows = minimize(F, np.zeros(2), 12, gamma=0.001, reset_interval=10)
    frames = F.frames
    # a reset fires at the first iteration (t = 0) ...
    assert not np.array_equal(frames[1], np.eye(2))
    assert rows[1].sigma == cfg.sigma0
    # ... and none at t = 1..9, within the guard window
    assert all(np.array_equal(frame, frames[1]) for frame in frames[2:11])
    assert all(r.sigma != cfg.sigma0 for r in rows[2:11])
    # at t = 10 the guard is satisfied
    assert rows[11].sigma == cfg.sigma0
    assert not np.array_equal(frames[11], frames[1])


def test_degenerate_gradient_explores_without_moving():
    F = StencilRecorder(lambda X: np.full(X.shape[0], 5.0), 3, (-1, 1))
    cfg, rows = minimize(F, np.ones(3), 2, gamma=0.0)
    assert np.array_equal(F.stencils[1].origin, np.ones(3))
    assert rows[1].step == 0.0
    assert rows[1].sigma == cfg.sigma0
    assert not np.array_equal(F.frames[1], np.eye(3))
    # only the stencil was evaluated; the line search was skipped
    assert rows[1].evals - rows[0].evals == cfg.stencil_size(3)


def test_overflowing_gradient_norm_is_degenerate():
    # every sample is finite and g = (1e160, 1e160, 1e160), but ||g||^2 =
    # 3e320 overflows: the step must take the degenerate path, not run a
    # line search along g/inf = 0
    F = StencilRecorder(lambda X: 1e160 * np.sum(X, axis=1), 3, (-1, 1))
    cfg, rows = minimize(F, np.ones(3), 2, gamma=0.0)
    assert np.array_equal(F.stencils[1].origin, np.ones(3))
    assert rows[1].sigma == cfg.sigma0
    # the reset fired at the first iteration
    assert not np.array_equal(F.frames[1], np.eye(3))
    assert rows[1].evals - rows[0].evals == cfg.stencil_size(3)


def test_radius_update_uses_step_distance():
    # sigma is a length: the next radius averages it with the distance moved
    F = sphere(4)
    x = np.random.default_rng(8).normal(size=4)
    cfg = resolved(F)
    x_new, _, step, sigma, stalled = adadgs_step(F, x, F(x), Frame.identity(4),
                                                 cfg.sigma0, cfg)
    assert step > 0.0
    assert step == pytest.approx(np.linalg.norm(x_new - x), rel=1e-12)
    assert sigma == sigma_update(cfg.sigma0, step)
    assert not stalled


# --- full minimize -----------------------------------------------------------


def test_minimize_degenerate_budget():
    F = sphere(5)
    x0 = np.ones(5)
    cfg = AdaDgsConfig(budget=10)  # less than one stencil
    x_best, f_best, trace = adadgs_minimize(F, x0, cfg)
    assert np.array_equal(x_best, x0)
    assert f_best == F(x0)
    assert len(trace) == 1
    assert F.evals == 2  # one from the run, one from the assertion above


def test_minimize_sphere_50d():
    F = sphere(50)
    x0 = np.random.default_rng(0).uniform(-10, 10, 50)
    # fine line-search grid so step lengths can shrink below the target
    cfg = AdaDgsConfig(T_max=50, gamma=0.0, S=200, contraction=0.9, seed=0)
    _, f_best, trace = adadgs_minimize(F, x0, cfg)
    assert f_best < 1e-6
    assert len(trace) == 51


def test_minimize_budget_respected_and_accounted():
    F = sphere(6)
    x0 = np.full(6, 2.0)
    cfg = AdaDgsConfig(budget=300, gamma=0.001, seed=1)
    _, _, trace = adadgs_minimize(F, x0, cfg)
    assert trace.final.evals <= 300
    assert trace.final.evals == F.evals
    # next full iteration would not have fit
    step_cost = AdaDgsConfig(T_max=1).resolved(F).stencil_size(6) + 12
    assert trace.final.evals + step_cost > 300


def test_minimize_trace_invariants():
    F = Objective(lambda X: np.sum(np.abs(X) ** 1.5, axis=1)
                  - np.cos(X).sum(axis=1), 8, (-4, 4))
    x0 = np.random.default_rng(3).uniform(-4, 4, 8)
    cfg = AdaDgsConfig(T_max=40, gamma=0.01, seed=5)
    _, f_best, trace = adadgs_minimize(F, x0, cfg)
    rows = list(trace)
    assert all(b.evals > a.evals for a, b in zip(rows, rows[1:]))
    assert all(b.f_best <= a.f_best for a, b in zip(rows, rows[1:]))
    assert all(r.sigma > 0 for r in rows)
    assert f_best == rows[-1].f_best


def test_minimize_seed_determinism():
    def run():
        F = sphere(7)
        x0 = np.linspace(-3, 3, 7)
        cfg = AdaDgsConfig(T_max=25, gamma=0.01, seed=123)
        return adadgs_minimize(F, x0, cfg)

    (x1, f1, t1), (x2, f2, t2) = run(), run()
    assert np.array_equal(x1, x2) and f1 == f2
    assert list(t1) == list(t2)


def test_positive_scaling_invariance():
    # scale by a power of two: gradient direction and argmin are unchanged
    def run(scale):
        F = Objective(lambda X: scale * (np.sum(X**2, axis=1)
                                         + np.sin(X).sum(axis=1)), 5, (-6, 6))
        x0 = np.array([3.0, -2.0, 1.0, 4.0, -5.0])
        cfg = AdaDgsConfig(T_max=20, gamma=0.0, seed=0)
        _, _, trace = adadgs_minimize(F, x0, cfg)
        return trace

    t1, t4 = run(1.0), run(4.0)
    for a, b in zip(t1, t4):
        assert a.evals == b.evals
        assert a.step == b.step
        assert b.f_current == 4.0 * a.f_current


def test_sigma_bounded_without_resets():
    F = sphere(5)
    x0 = np.full(5, 3.0)
    cfg = AdaDgsConfig(T_max=60, gamma=0.0, seed=2)
    _, _, trace = adadgs_minimize(F, x0, cfg)
    rcfg = cfg.resolved(F)
    assert all(r.sigma <= max(rcfg.sigma0, rcfg.L_max) for r in trace)


def test_minimize_nonfinite_start_raises():
    F = Objective(lambda X: np.where(np.all(X == 1.0, axis=1), np.inf, 1.0), 3, (-1, 1))
    with pytest.raises(EvaluationError):
        adadgs_minimize(F, np.ones(3), AdaDgsConfig(T_max=2))


@pytest.mark.parametrize("run,cfg", [
    (adadgs_minimize, AdaDgsConfig(T_max=3)),
    (es_bpop_minimize, BaselineConfig(0.1, 0.1, population=10, T_max=3)),
    (nesterov_minimize, BaselineConfig(0.1, 1e-3, T_max=3)),
    (fd_minimize, BaselineConfig(0.1, 1e-3, T_max=3)),
], ids=["adadgs", "es_bpop", "nesterov", "fd"])
def test_nan_start_point_is_an_error_before_any_evaluation(run, cfg):
    # one rule in drive for all four: the start point is at fault, not the objective
    F = sphere(3)
    with pytest.raises(ValueError, match="non-finite initial point"):
        run(F, np.array([0.5, np.nan, 0.5]), cfg)
    assert F.evals == 0


def test_drive_rejects_iteration_over_its_cost():
    F = sphere(2)

    def iterations(x, f0):
        while True:
            F(Lines(np.zeros(2), np.eye(2)[:1], np.ones(3)))  # three against a cost of two
            yield Iterate(f0, 1.0, 0.0, x, f0)

    with pytest.raises(RuntimeError, match="cost"):
        drive(F, np.ones(2), 1.0, iterations, 2, 5, None)


# --- config resolution -------------------------------------------------------


def test_config_defaults_resolution():
    F = sphere(100)  # domain [-10, 10]^100
    cfg = AdaDgsConfig(T_max=1).resolved(F)
    assert cfg.L_max == pytest.approx(20.0 * np.sqrt(100))
    assert cfg.L_min == pytest.approx(0.005 * cfg.L_max)
    assert cfg.S == max(12, round(0.05 * 5 * 100))
    assert cfg.sigma0 == 20.0


def test_config_contraction_sets_lmin():
    F = sphere(10)
    cfg = AdaDgsConfig(T_max=1, S=200, contraction=0.9).resolved(F)
    assert cfg.L_min == pytest.approx(cfg.L_max * 0.9**199)


@pytest.mark.parametrize("bad", [
    dict(S=1), dict(gamma=-0.1), dict(sigma0=-1.0), dict(M=0),
    dict(L_min=5.0, L_max=1.0), dict(M=1),
    dict(budget=0), dict(budget=-3), dict(T_max=-2), dict(reset_interval=-5),
    dict(sigma0=np.inf), dict(L_max=np.inf, L_min=1.0),
    dict(M=2.5), dict(S=12.5), dict(gamma=np.nan),
    dict(reset_interval=2.5), dict(T_max=True), dict(budget=1e4),
    dict(sigma0="1.0"), dict(L_max=True),
    dict(gamma=None), dict(sigma0_scale="1"), dict(contraction="0.5"),
    dict(M="5"), dict(L_max="30"), dict(S="12", contraction=0.5),
])
def test_config_validation(bad):
    # the error names the first setting given, never a bare TypeError from
    # resolved computing with a setting it has not checked
    F = sphere(3)
    with pytest.raises(ValueError, match=next(iter(bad))):
        AdaDgsConfig(**{"T_max": 1, **bad}).resolved(F)


def test_one_point_rule_rejected_before_any_evaluation():
    # the 1-point rule's only node is 0: its stencil would sample nothing
    F = sphere(3)
    with pytest.raises(ValueError, match="1-point rule"):
        adadgs_minimize(F, np.ones(3), AdaDgsConfig(M=1, T_max=2))
    assert F.evals == 0


def test_unbounded_domain_is_rejected_before_any_evaluation():
    # sigma0 defaults to a multiple of the domain width, here inf
    F = Objective(lambda X: np.sum(X**2, axis=1), 3, (-np.inf, np.inf))
    with pytest.raises(ValueError, match="sigma0"):
        adadgs_minimize(F, np.ones(3), AdaDgsConfig(L_max=4.0, budget=100))
    assert F.evals == 0


def test_config_requires_some_cap():
    F = sphere(3)
    with pytest.raises(ValueError):
        AdaDgsConfig().resolved(F)
