"""Randomized invariant battery for the optimizer stack.

Each property runs under hypothesis with enough examples that the whole
module exercises well over a thousand generated cases.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adadgs.benchmarks import Objective
from adadgs.gradient import Frame, dgs_stencil
from adadgs.optimizer import (
    AdaDgsConfig,
    adadgs_minimize,
    line_search,
    random_rotation,
    sigma_update,
)
from adadgs.gradient import gauss_hermite_rule

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def quadratic(d, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    A = A @ A.T + 0.1 * np.eye(d)
    b = rng.normal(size=d)
    return Objective(
        lambda X: 0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b, d, (-10, 10)
    )


@settings(max_examples=250, deadline=None)
@given(d=dims, seed=seeds, gamma=st.sampled_from([0.0, 1e-3, 0.5]))
def test_trace_invariants_and_eval_accounting(d, seed, gamma):
    F = quadratic(d, seed)
    x0 = np.random.default_rng(seed ^ 0xA5A5).uniform(-5, 5, d)
    cfg = AdaDgsConfig(M=3, T_max=4, gamma=gamma, seed=seed)
    _, f_best, trace = adadgs_minimize(F, x0, cfg)
    rows = list(trace)
    # f_best is monotone non-increasing and consistent with f_current
    assert all(a.f_best >= b.f_best for a, b in zip(rows, rows[1:]))
    assert all(r.f_best <= r.f_current for r in rows)
    assert f_best == rows[-1].f_best == min(r.f_current for r in rows)
    # sigma stays strictly positive
    assert all(r.sigma > 0 for r in rows)
    # the trace eval counter matches the objective's own count exactly
    assert rows[-1].evals == F.evals
    assert all(a.evals < b.evals for a, b in zip(rows, rows[1:]))


@settings(max_examples=250, deadline=None)
@given(d=dims, seed=seeds, budget_extra=st.integers(min_value=0, max_value=50))
def test_budget_never_exceeded(d, seed, budget_extra):
    F = quadratic(d, seed)
    x0 = np.random.default_rng(seed).uniform(-5, 5, d)
    stencil = AdaDgsConfig(M=3, budget=1).stencil_size(d)
    budget = 1 + stencil + budget_extra
    cfg = AdaDgsConfig(M=3, budget=budget, seed=seed)
    _, _, trace = adadgs_minimize(F, x0, cfg)
    assert trace.final.evals <= budget
    assert trace.final.evals == F.evals


@settings(max_examples=200, deadline=None)
@given(d=st.integers(min_value=1, max_value=40), seed=seeds)
def test_random_rotation_orthonormal(d, seed):
    frame = random_rotation(d, np.random.default_rng(seed))
    R = frame.matrix
    assert np.max(np.abs(R @ R.T - np.eye(d))) < 1e-10
    assert abs(abs(np.linalg.det(R)) - 1.0) < 1e-8


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=64))
def test_quadrature_rule_invariants(m):
    rule = gauss_hermite_rule(m)
    assert np.all(rule.weights > 0)
    assert np.sum(rule.weights) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.all(np.diff(rule.nodes) > 0) or m == 1


@settings(max_examples=150, deadline=None)
@given(
    sigma=st.floats(min_value=1e-6, max_value=1e6),
    step=st.floats(min_value=0.0, max_value=1e6),
)
def test_sigma_update_stays_positive_and_bounded(sigma, step):
    new = sigma_update(sigma, step)
    assert new > 0
    assert min(sigma, step) <= new <= max(sigma, step)
    assert new == 0.5 * (sigma + step)


@settings(max_examples=150, deadline=None)
@given(d=dims, m=st.integers(min_value=2, max_value=6), seed=seeds)
def test_stencil_shape_and_membership(d, m, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, d)
    sigma = float(rng.uniform(0.1, 5.0))
    frame = Frame.identity(d)
    rule = gauss_hermite_rule(m)
    st_pts = dgs_stencil(x, frame, sigma, rule)
    expected = (m - 1) * d if m % 2 == 1 else m * d
    assert st_pts.points.shape == (expected, d)
    assert np.all(np.isfinite(st_pts.points))
    # every stencil point lies on the line x + t * xi_i for its direction,
    # which is its row index divided by the points per direction
    per_dir = expected // d
    for row, p in enumerate(st_pts.points):
        i = row // per_dir
        delta = p - x
        off_axis = delta - (delta @ frame.matrix[i]) * frame.matrix[i]
        assert np.max(np.abs(off_axis)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(d=dims, seed=seeds, cut=st.floats(min_value=0.1, max_value=100.0),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), S=st.integers(2, 30))
def test_line_search_never_loses_to_a_finite_candidate(d, seed, cut, bad, S):
    # the objective turns non-finite beyond a radius; the search result must
    # still be no worse than the incumbent and than every finite candidate
    plain = quadratic(d, seed)
    F = Objective(lambda X: np.where(np.sum(X**2, axis=1) > cut, bad, plain.fn(X)),
                  d, (-10, 10))
    rng = np.random.default_rng(seed)
    x, g = rng.uniform(-3, 3, d), rng.normal(size=d)
    f_x = float(plain(x))
    res = line_search(F, x, g, 8.0, 0.01, S, f_x=f_x)
    rho = (0.01 / 8.0) ** (1.0 / (S - 1))
    ghat = g / np.linalg.norm(g)
    vals = F.fn(x[None, :] - (8.0 * rho ** np.arange(S))[:, None] * ghat[None, :])
    finite = vals[np.isfinite(vals)]
    assert np.isfinite(res.f_new) and res.f_new <= f_x
    if finite.size:
        assert res.f_new <= finite.min()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=2, max_value=4), seed=st.integers(0, 10_000))
def test_positive_scaling_preserves_trajectory_shape(d, seed):
    # scaling the objective by a power of two rescales every f by the same
    # factor without changing any argmin decision, so the iterates coincide
    scale = 4.0
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-3, 3, d)
    A = rng.normal(size=(d, d))
    A = A @ A.T + 0.5 * np.eye(d)

    def run(c):
        F = Objective(lambda X: c * np.einsum("ni,ij,nj->n", X, A, X), d, (-10, 10))
        return adadgs_minimize(F, x0, AdaDgsConfig(M=3, T_max=3, gamma=0.0, seed=seed))

    x1, f1, t1 = run(1.0)
    x2, f2, t2 = run(scale)
    assert np.array_equal(x1, x2)
    assert f2 == scale * f1
    for r1, r2 in zip(t1, t2):
        assert r1.evals == r2.evals and r1.step == r2.step and r1.sigma == r2.sigma
