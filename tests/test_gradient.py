import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adadgs

from adadgs.benchmarks import Lines, Objective, haar_rotation
from adadgs.errors import EvaluationError
from adadgs.gradient import (
    dgs_gradient,
    dgs_stencil,
    directional_derivative,
    gs_mc_gradient,
)
from adadgs.gradient import gauss_hermite_rule
from adadgs.optimizer import random_rotation


def counted(fn, d, width=10.0):
    return Objective(fn, d, (-width, width))


def quadratic_objective(A):
    d = A.shape[0]
    return counted(lambda X: 0.5 * np.einsum("ni,ij,nj->n", X, A, X), d)


def linear_objective(c):
    c = np.asarray(c, float)
    return counted(lambda X: X @ c, c.shape[0])


# --- stencil ---------------------------------------------------------------


def test_frame_matrix_is_a_read_only_copy():
    # a random frame is a plain (d, d) array that no caller can write to,
    # through it or through an array it is a view of
    frame = random_rotation(3, np.random.default_rng(1))
    value = frame[0, 0]
    with pytest.raises(ValueError):
        frame[0, 0] = 2.0
    assert frame.base is None and frame.flags.owndata
    assert frame[0, 0] == value


def test_stencil_is_one_lines_batch_along_the_frame():
    rule = gauss_hermite_rule(5)
    frame = random_rotation(3, np.random.default_rng(1))
    x = np.array([0.5, -1.0, 2.0])
    st = dgs_stencil(x, frame, 0.7, rule)
    assert isinstance(st, Lines)
    assert st.origin is x and st.directions is frame
    # the zero node of the 5-point rule is never sampled
    np.testing.assert_array_equal(st.offsets, np.sqrt(2.0) * 0.7 * rule.nodes[[0, 1, 3, 4]])
    # the coordinate axes go into the batch as None, with no array built
    axes = dgs_stencil(x, None, 0.7, rule)
    assert axes.origin is x and axes.directions is None
    np.testing.assert_array_equal(axes.offsets, st.offsets)
    with pytest.raises(ValueError, match="frame shape"):
        dgs_stencil(x, frame[:2], 0.7, rule)


def test_stencil_counts_skip():
    rule = gauss_hermite_rule(3)
    st = dgs_stencil(np.zeros(2), None, 1.0, rule)
    assert st.points.shape == (4, 2)


def test_stencil_points_m2_1d():
    # sqrt(2) * sigma * (+-1/sqrt(2)) = +-1
    rule = gauss_hermite_rule(2)
    st = dgs_stencil(np.zeros(1), None, 1.0, rule)
    np.testing.assert_allclose(np.sort(st.points[:, 0]), [-1.0, 1.0], atol=1e-14)


def test_stencil_rejects_bad_input():
    rule = gauss_hermite_rule(3)
    with pytest.raises(ValueError):
        dgs_stencil(np.array([np.nan, 0.0]), None, 1.0, rule)
    with pytest.raises(ValueError):
        dgs_stencil(np.zeros(2), None, -1.0, rule)
    with pytest.raises(ValueError):
        dgs_stencil(np.zeros(2), None, np.inf, rule)


# --- directional derivative ------------------------------------------------


def test_affine_exactness_m2():
    # F(y) = 3y, sigma=2: values at y=-2, 2; central difference is exact
    rule = gauss_hermite_rule(2)
    got = directional_derivative(np.array([-6.0, 6.0]), 2.0, rule)
    assert got == pytest.approx(3.0, abs=1e-14)


@pytest.mark.parametrize("M", [2, 3, 5, 9])
def test_even_function_zero(M):
    # symmetric values against antisymmetric weights: zero up to the
    # rounding noise of the fixed ascending summation order
    rule = gauss_hermite_rule(M)
    sigma = 1.7
    values = (np.sqrt(2) * sigma * rule.nodes) ** 2
    assert abs(directional_derivative(values, sigma, rule)) < 1e-13 * sigma**2


def test_cubic_smoothed_derivative_matches_convolution():
    # independent oracle: dense quadrature of (1/sigma) E[(sigma v)^3 v]
    sigma = 1.0
    v = np.linspace(-14, 14, 4_000_001)
    phi = np.exp(-(v**2) / 2) / np.sqrt(2 * np.pi)
    ref = np.trapezoid((sigma * v) ** 3 * v * phi, v) / sigma
    assert ref == pytest.approx(3.0 * sigma**2, abs=1e-8)

    rule = gauss_hermite_rule(3)
    y = np.sqrt(2) * sigma * rule.nodes
    got = directional_derivative(y**3, sigma, rule)
    assert got == pytest.approx(ref, abs=1e-8)


def test_nonfinite_value_reports_index():
    # the sample at x + sqrt(2) v_m xi_1 for the upper node is NaN: with the
    # zero node skipped it is row 1*2 + 1 of the direction-major stencil
    x = np.zeros(3)
    F = counted(lambda X: np.where(X[:, 1] > 0.5, np.nan, X.sum(axis=1)), 3)
    with pytest.raises(EvaluationError) as exc:
        dgs_gradient(F, x, None, 1.0, gauss_hermite_rule(3))
    assert exc.value.index == 3


def test_directional_derivative_rejects_partial_layout():
    rule = gauss_hermite_rule(3)
    with pytest.raises(ValueError):
        directional_derivative(np.array([1.0, 2.0]), 1.0, rule)


# --- dgs gradient ----------------------------------------------------------


def test_linear_gradient_any_frame():
    rng = np.random.default_rng(5)
    c = rng.normal(size=7)
    F = linear_objective(c)
    frame = random_rotation(7, rng)
    rule = gauss_hermite_rule(4)
    g = dgs_gradient(F, rng.normal(size=7), frame, 2.5, rule)
    np.testing.assert_allclose(g, c, rtol=1e-10)


def test_quadratic_gradient_matches_matrix_product():
    rng = np.random.default_rng(11)
    d = 5
    A = rng.normal(size=(d, d))
    A = A + A.T
    F = quadratic_objective(A)
    x = rng.normal(size=d)
    frame = random_rotation(d, rng)
    rule = gauss_hermite_rule(2)
    g = dgs_gradient(F, x, frame, 3.0, rule)
    np.testing.assert_allclose(g, A @ x, rtol=1e-8)


def test_identity_frame_decouples():
    F = counted(lambda X: np.sum(X**4, axis=1), 2)
    rule = gauss_hermite_rule(5)
    x = np.array([0.7, -1.3])
    g = dgs_gradient(F, x, None, 0.8, rule)
    # on the axes the derivatives are the gradient: no product with I, whose
    # result they equal bit for bit
    assert np.array_equal(g, dgs_gradient(F, x, np.eye(2), 0.8, rule))
    for i in range(2):
        y = np.sqrt(2) * 0.8 * rule.nodes
        vals = (x[i] + y) ** 4
        # remove contribution of frozen coordinates (constant along the ray)
        vals = vals + x[1 - i] ** 4
        # with the identity frame the gradient is the directional derivatives
        assert g[i] == pytest.approx(
            directional_derivative(vals, 0.8, rule), rel=1e-12
        )


def test_reassembly_invariant():
    rng = np.random.default_rng(3)
    d = 6
    F = counted(lambda X: np.sin(X).sum(axis=1) + (X**2).sum(axis=1), d)
    frame = random_rotation(d, rng)
    x = rng.normal(size=d)
    rule = gauss_hermite_rule(5)
    g = dgs_gradient(F, x, frame, 1.2, rule)
    directional = per_direction_reference(F, x, frame, 1.2, rule, skip_zero_node=True)
    np.testing.assert_allclose(
        g, directional @ frame, rtol=1e-12, atol=1e-15
    )


def test_frame_invariance_for_linear():
    rng = np.random.default_rng(21)
    c = rng.normal(size=4)
    F = linear_objective(c)
    rule = gauss_hermite_rule(3)
    x = rng.normal(size=4)
    g1 = dgs_gradient(F, x, random_rotation(4, rng), 1.5, rule)
    g2 = dgs_gradient(F, x, random_rotation(4, rng), 1.5, rule)
    np.testing.assert_allclose(g1, g2, rtol=1e-9)


@pytest.mark.parametrize("d", [3, 7, 10])
def test_rotation_covariance_on_quadratics(d):
    rng = np.random.default_rng(d)
    A = rng.normal(size=(d, d))
    A = A + A.T
    R = haar_rotation(d, rng)
    x = rng.normal(size=d)
    frame = random_rotation(d, rng)
    rule = gauss_hermite_rule(3)
    sigma = 0.9

    F = quadratic_objective(A)
    F_rot = counted(lambda X: F.fn(X @ R.T), d)

    g_rot = dgs_gradient(F_rot, x, frame, sigma, rule)
    rotated_frame = frame @ R.T  # directions R @ xi_i
    g_plain = dgs_gradient(F, R @ x, rotated_frame, sigma, rule)
    np.testing.assert_allclose(g_rot, R.T @ g_plain, rtol=1e-8)


def per_direction_reference(F, x, frame, sigma, rule, skip_zero_node):
    # one directional_derivative call per direction, each on its own
    # cross-section; a skipped zero node's slot is left at 0, an unskipped
    # one holds its sample
    nodes = [m for m in range(rule.order) if not (skip_zero_node and rule.nodes[m] == 0.0)]
    directional = np.empty(len(frame))
    for i, xi in enumerate(frame):
        full = np.zeros(rule.order)
        for m in nodes:
            full[m] = F(x + np.sqrt(2.0) * sigma * rule.nodes[m] * xi)
        directional[i] = directional_derivative(full, sigma, rule)
    return directional


@pytest.mark.parametrize("M,ref_skips", [(2, True), (3, True), (3, False), (5, True),
                                         (8, True), (9, False), (13, True)])
def test_single_call_assembly_matches_per_direction_loop(M, ref_skips):
    # dgs_gradient never samples a zero node; it matches the reference
    # bit for bit whether or not the reference samples it
    rng = np.random.default_rng(M)
    d = 9
    F = counted(lambda X: np.sin(3 * X).sum(axis=1) + (X**2).sum(axis=1) ** 1.5, d)
    x = rng.normal(size=d)
    frame = random_rotation(d, rng)
    rule = gauss_hermite_rule(M)
    g = dgs_gradient(F, x, frame, 0.7, rule)
    ref = per_direction_reference(F, x, frame, 0.7, rule, ref_skips)
    np.testing.assert_array_equal(g, ref @ frame)


def test_zero_node_skip_bit_identical():
    rng = np.random.default_rng(9)
    d = 4
    F = counted(lambda X: np.cos(X).sum(axis=1) * np.exp(-np.abs(X).sum(axis=1) / 10), d)
    x = rng.normal(size=d)
    frame = random_rotation(d, rng)
    rule = gauss_hermite_rule(5)
    g_skip = dgs_gradient(F, x, frame, 1.1, rule)
    # the same quadrature with the zero node sampled: every node, every direction
    c = np.sqrt(2.0) * 1.1 * rule.nodes
    full = F(Lines(x, frame, c)).reshape(d, rule.order)
    assert np.all(full[:, 2] != 0.0)  # the zero node's samples are real values
    directional = directional_derivative(full, 1.1, rule)
    assert np.array_equal(g_skip, directional @ frame)


@pytest.mark.parametrize("M,has_zero_node,per_dir", [(4, False, 4), (5, True, 4),
                                                     (2, False, 2), (3, True, 2)])
def test_evals_used(M, has_zero_node, per_dir):
    d = 3
    rule = gauss_hermite_rule(M)
    assert (0.0 in rule.nodes) == has_zero_node
    F = counted(lambda X: (X**2).sum(axis=1), d)
    dgs_gradient(F, np.zeros(d), None, 1.0, rule)
    assert F.evals == per_dir * d


# --- Monte-Carlo GS gradient -----------------------------------------------


def test_mc_constant_exactly_zero():
    F = counted(lambda X: np.full(X.shape[0], 4.2), 3)
    g = gs_mc_gradient(F, np.zeros(3), 1.0, 64,
                       rng=np.random.default_rng(0))
    assert np.all(g.vector == 0.0)


def test_mc_linear_statistical():
    c = np.array([1.0, -2.0, 0.5])
    F = linear_objective(c)
    n = 100_000
    # fixed-seed fixture: this particular draw lands within 3/sqrt(n)
    g = gs_mc_gradient(F, np.zeros(3), 1.0, n,
                       rng=np.random.default_rng(1))
    np.testing.assert_allclose(g.vector, c, atol=3.0 / np.sqrt(n))


def test_mc_two_sample_identity():
    rng = np.random.default_rng(7)
    d, sigma = 4, 0.7
    F = counted(lambda X: np.sin(X).sum(axis=1), d)
    x = rng.normal(size=d)
    u = np.random.default_rng(123).standard_normal((1, d))[0]
    g = gs_mc_gradient(F, x, sigma, 2,
                       rng=np.random.default_rng(123))
    expected = (F(x + sigma * u) - F(x - sigma * u)) / (2 * sigma) * u
    np.testing.assert_allclose(g.vector, expected, rtol=1e-12)
    # the samples come back with the batch they were taken from
    np.testing.assert_array_equal(g.lines.points, [x + sigma * u, x - sigma * u])
    np.testing.assert_array_equal(g.values, F.fn(g.lines.points))


def test_mc_odd_samples_rejected_when_antithetic():
    F = counted(lambda X: (X**2).sum(axis=1), 2)
    with pytest.raises(ValueError):
        gs_mc_gradient(F, np.zeros(2), 1.0, 3,
                       rng=np.random.default_rng(0))


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
def test_mc_rejects_a_radius_that_is_not_positive_and_finite(sigma):
    # a radius of 0, NaN or inf gave an all-NaN gradient with no error
    F = counted(lambda X: (X**2).sum(axis=1), 3)
    with pytest.raises(ValueError, match="sigma must be positive and finite"):
        gs_mc_gradient(F, np.ones(3), sigma, 4, rng=np.random.default_rng(0))
    assert F.evals == 0


def test_mc_nonfinite_raises():
    F = counted(lambda X: np.where(X[:, 0] > 0, np.inf, 1.0), 2)
    with pytest.raises(EvaluationError):
        gs_mc_gradient(F, np.zeros(2), 1.0, 8, rng=np.random.default_rng(1))


def test_import_does_not_load_scipy():
    # the Gauss-Hermite rule comes from numpy; numpy is the only dependency
    src = str(Path(adadgs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, adadgs; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
