import dataclasses
import json

import numpy as np
import pytest

from adadgs.baselines import (
    BaselineConfig,
    es_bpop_minimize,
    fd_gradient,
    fd_minimize,
    nesterov_minimize,
)
from adadgs.benchmarks import Objective, make_benchmark
from adadgs.errors import EvaluationError
from adadgs.harness import ExperimentSpec, run_experiment


def sphere(d, width=10.0):
    return Objective(lambda X: np.sum(X**2, axis=1), d, (-width, width))


def constant(d, value=3.0):
    return Objective(lambda X: np.full(X.shape[0], value), d, (-1, 1))


# --- ES with big population ---------------------------------------------------


def test_es_sphere_decreases():
    F = sphere(10)
    cfg = BaselineConfig(learning_rate=0.05, sigma_or_h=0.1,
                         population=50, budget=20_000, seed=0)
    x0 = np.full(10, 3.0)
    _, f_best, trace = es_bpop_minimize(F, x0, cfg)
    assert f_best < float(F(x0))
    assert trace.final.f_best == f_best


def test_es_constant_never_moves():
    F = constant(4)
    cfg = BaselineConfig(learning_rate=0.1, sigma_or_h=0.5,
                         population=10, T_max=20, seed=1)
    x0 = np.array([0.1, 0.2, 0.3, 0.4])
    x_best, f_best, trace = es_bpop_minimize(F, x0, cfg)
    # antithetic estimator is exactly zero, so the iterate never moves
    assert all(r.step == 0.0 for r in trace)
    assert f_best == 3.0


@pytest.mark.parametrize("run", [es_bpop_minimize, nesterov_minimize, fd_minimize])
def test_a_baseline_resolves_the_config_the_manifest_records(tmp_path, monkeypatch, run):
    # the defaults live in BaselineConfig.resolved alone: called directly, a
    # minimizer runs with the config the harness records for the same domain
    optimizer = run.__name__.removesuffix("_minimize")
    spec = ExperimentSpec("ellipsoidal", 5, optimizer, budget=300, trials=1,
                          out_dir=str(tmp_path))
    run_experiment(spec)
    recorded = json.loads((spec.run_dir / "manifest.json").read_text())["config"]
    seen = []
    resolved = BaselineConfig.resolved
    monkeypatch.setattr(BaselineConfig, "resolved",
                        lambda cfg, *args: seen.append(resolved(cfg, *args)) or seen[-1])
    F = make_benchmark("ellipsoidal", 5, 1)
    run(F, np.ones(5), BaselineConfig(T_max=2, seed=1))
    assert [dataclasses.replace(cfg, T_max=None, seed=None, budget=300) for cfg in seen] == \
        [BaselineConfig(**recorded)]
    assert (seen[0].population is None) == (optimizer != "es_bpop")
    if optimizer != "es_bpop":  # only es_bpop reads a population: an error before f(x0)
        evals = F.evals
        named = f"{optimizer!r} does not read the option 'population'"
        with pytest.raises(ValueError, match=named):
            run(F, np.ones(5), BaselineConfig(population=10, T_max=2))
        assert F.evals == evals


def test_es_budget_below_population():
    F = sphere(3)
    x0 = np.ones(3)
    cfg = BaselineConfig(learning_rate=0.1, sigma_or_h=0.1,
                         population=40, budget=20, seed=0)
    x_best, f_best, trace = es_bpop_minimize(F, x0, cfg)
    assert len(trace) == 1
    assert np.array_equal(x_best, x0)
    assert f_best == 3.0


def test_es_eval_accounting():
    F = sphere(5)
    cfg = BaselineConfig(learning_rate=0.01, sigma_or_h=0.1,
                         population=20, T_max=7, seed=2)
    _, _, trace = es_bpop_minimize(F, np.ones(5), cfg)
    rows = list(trace)
    assert [r.evals for r in rows] == [1 + 20 * k for k in range(8)]
    assert F.evals == rows[-1].evals


def test_es_rejects_odd_population():
    with pytest.raises(ValueError):
        es_bpop_minimize(sphere(2), np.ones(2),
                         BaselineConfig(0.1, 0.1, population=7, T_max=1))


# --- Nesterov random search -----------------------------------------------------


def test_nesterov_forward_difference_exact_on_linear():
    c = np.array([2.0, -1.0, 0.5])
    F = Objective(lambda X: X @ c, 3, (-10, 10))
    # one step with a seeded direction reproduces the oracle exactly
    cfg = BaselineConfig(learning_rate=0.1, sigma_or_h=1e-3,
                         T_max=1, seed=9)
    x0 = np.zeros(3)
    _, _, trace = nesterov_minimize(F, x0, cfg)
    u = np.random.default_rng(9).standard_normal(3)
    deriv = (F(1e-3 * u) - F(x0)) / 1e-3
    assert deriv == pytest.approx(float(c @ u), rel=1e-9)
    assert trace.final.step == pytest.approx(0.1 * abs(deriv) * np.linalg.norm(u), rel=1e-9)


def test_nesterov_sphere_regression():
    F = sphere(10)
    x0 = np.full(10, 2.0)
    cfg = BaselineConfig(learning_rate=1e-3, sigma_or_h=1e-4,
                         T_max=10_000, seed=3)
    _, f_best, trace = nesterov_minimize(F, x0, cfg)
    assert trace.final.f_best < float(F(x0)) / 10


def test_nesterov_constant_no_movement():
    F = constant(3)
    cfg = BaselineConfig(learning_rate=0.1, sigma_or_h=1e-3,
                         T_max=50, seed=4)
    _, _, trace = nesterov_minimize(F, np.zeros(3), cfg)
    assert all(r.step == 0.0 for r in trace)


def test_nesterov_eval_accounting():
    F = sphere(4)
    cfg = BaselineConfig(learning_rate=1e-3, sigma_or_h=1e-4,
                         budget=101, seed=5)
    _, _, trace = nesterov_minimize(F, np.ones(4), cfg)
    assert trace.final.evals == 101  # 1 initial + 50 steps * 2
    assert F.evals == 101


# --- central finite differences ---------------------------------------------


def test_fd_gradient_matches_analytic():
    rng = np.random.default_rng(6)
    d = 8
    A = rng.normal(size=(d, d))
    A = A + A.T
    F = Objective(lambda X: 0.5 * np.einsum("ni,ij,nj->n", X, A, X), d, (-5, 5))
    x = rng.normal(size=d)
    g = fd_gradient(F, x, h=1e-5)
    np.testing.assert_allclose(g.vector, A @ x, rtol=1e-6)
    assert F.evals == 2 * d
    # one batch along the coordinate axes, with no identity array built
    assert g.lines.directions is None
    np.testing.assert_array_equal(g.lines.offsets, [1e-5, -1e-5])


@pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
def test_fd_gradient_rejects_a_step_that_is_not_positive_and_finite(h):
    # a step of 0, NaN or inf gave an all-NaN gradient with no error
    F = sphere(3)
    with pytest.raises(ValueError, match="h must be positive and finite"):
        fd_gradient(F, np.ones(3), h)
    assert F.evals == 0


def test_fd_sphere_one_step():
    F = sphere(6)
    x0 = np.full(6, 2.5)
    cfg = BaselineConfig(learning_rate=0.5, sigma_or_h=1e-6, T_max=1, seed=0)
    _, _, trace = fd_minimize(F, x0, cfg)
    # grad = 2x, so x - 0.5 * 2x lands at the origin (up to h^2 noise)
    assert trace.final.step == pytest.approx(np.linalg.norm(x0), rel=1e-9)


def test_fd_rastrigin_traps_in_local_minimum():
    F = make_benchmark("rastrigin", 100, 0)
    x0 = np.random.default_rng(1).uniform(F.lower, F.upper, 100)
    cfg = BaselineConfig(learning_rate=1e-3, sigma_or_h=1e-5,
                         budget=100_000, seed=1)
    _, f_best, _ = fd_minimize(F, x0, cfg)
    assert f_best > 1.0  # local-gradient descent cannot find the global basin


def test_fd_eval_accounting():
    F = sphere(5)
    cfg = BaselineConfig(learning_rate=0.1, sigma_or_h=1e-5, T_max=6, seed=0)
    _, _, trace = fd_minimize(F, np.ones(5), cfg)
    rows = list(trace)
    assert [r.evals for r in rows] == [1 + 10 * k for k in range(7)]
    assert F.evals == rows[-1].evals


# --- the best point --------------------------------------------------------


@pytest.mark.parametrize("run,cfg", [
    (es_bpop_minimize, BaselineConfig(0.05, 0.1, population=10, T_max=20, seed=0)),
    (nesterov_minimize, BaselineConfig(0.01, 1e-3, T_max=20, seed=0)),
    (fd_minimize, BaselineConfig(0.05, 1e-3, T_max=20, seed=0)),
], ids=["es_bpop", "nesterov", "fd"])
def test_x_best_is_the_point_that_gave_f_best(run, cfg):
    # the best sample is rebuilt from its index in the batch; on a plain
    # Objective it must be the very point whose value is f_best
    F = Objective(lambda X: np.sum(X**2 + np.cos(3.0 * X), axis=1), 5, (-3, 3))
    x0 = np.linspace(-1.7, 1.9, 5)
    x_best, f_best, _ = run(F, x0, cfg)
    assert f_best < F.fn(x0[None])[0]  # so x_best is a sample, not x0
    assert F.fn(x_best[None])[0] == f_best


# --- non-finite objective values --------------------------------------------


@pytest.mark.parametrize("run,cfg", [
    (es_bpop_minimize, BaselineConfig(0.1, 0.1, population=10, T_max=3)),
    (nesterov_minimize, BaselineConfig(0.1, 1e-3, T_max=3)),
    (fd_minimize, BaselineConfig(0.1, 1e-3, T_max=3)),
])
@pytest.mark.parametrize("finite_at_start", [False, True])
def test_all_nan_objective_raises(run, cfg, finite_at_start):
    # NaN everywhere, or everywhere but the start point, so that the
    # gradient samples are what raises
    F = Objective(lambda X: np.where(np.all(X == 1.0, axis=1) & finite_at_start,
                                     3.0, np.nan), 3, (-1, 1))
    with pytest.raises(EvaluationError):
        run(F, np.ones(3), cfg)


# --- config ----------------------------------------------------------------


@pytest.mark.parametrize("kw", [
    dict(learning_rate=0.0, sigma_or_h=0.1, T_max=1),
    dict(learning_rate=-0.1, sigma_or_h=0.1, T_max=1),
    dict(learning_rate=0.1, sigma_or_h=0.0, T_max=1),
    dict(learning_rate=0.1, sigma_or_h=0.1),
    dict(learning_rate=0.1, sigma_or_h=0.1, budget=0),
    dict(learning_rate=0.1, sigma_or_h=0.1, budget=-3),
    dict(learning_rate=0.1, sigma_or_h=0.1, T_max=-2),
    dict(learning_rate=0.1, sigma_or_h=0.1, T_max=1, population=7),
    dict(learning_rate=0.1, sigma_or_h=0.1, T_max=1, population=8.0),
    dict(learning_rate=0.1, sigma_or_h=0.1, budget=50.5),
    dict(learning_rate="0.1", sigma_or_h=0.1, T_max=1),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        BaselineConfig(**kw).validate()


def test_an_unresolved_config_names_the_missing_setting():
    # validate on a config whose rate is still None names the rate, not a
    # TypeError from comparing None with a number
    with pytest.raises(ValueError, match="learning_rate"):
        BaselineConfig(T_max=3).validate()


def test_seed_determinism():
    def run():
        F = sphere(6)
        cfg = BaselineConfig(learning_rate=0.03, sigma_or_h=0.2,
                             population=12, T_max=30, seed=77)
        return es_bpop_minimize(F, np.full(6, 1.5), cfg)

    (x1, f1, t1), (x2, f2, t2) = run(), run()
    assert np.array_equal(x1, x2) and f1 == f2 and list(t1) == list(t2)
