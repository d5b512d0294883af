import math

import numpy as np
import pytest

from adadgs.gradient import MAX_ORDER, gauss_hermite_rule


def gaussian_moment(k: int) -> float:
    """Analytic value of integral v^k exp(-v^2) dv over the real line."""
    if k % 2 == 1:
        return 0.0
    return math.gamma((k + 1) / 2)


def test_m1_rule():
    r = gauss_hermite_rule(1)
    assert r.nodes[0] == 0.0
    assert r.weights[0] == pytest.approx(math.sqrt(math.pi), abs=1e-12)


def test_m2_rule_fixture():
    # expected values frozen from eigen-decomposition of the 2x2 Jacobi
    # matrix, cross-checked against dense numerical integration below
    r = gauss_hermite_rule(2)
    np.testing.assert_allclose(r.nodes, [-0.7071067812, 0.7071067812], atol=1e-9)
    np.testing.assert_allclose(r.weights, [0.8862269255, 0.8862269255], atol=1e-9)


def test_m3_rule_fixture():
    r = gauss_hermite_rule(3)
    np.testing.assert_allclose(r.nodes, [-1.2247448714, 0.0, 1.2247448714], atol=1e-9)
    np.testing.assert_allclose(
        r.weights, [0.2954089752, 1.1816359006, 0.2954089752], atol=1e-9
    )


def test_m2_against_brute_force_integration():
    # independent oracle: high-resolution trapezoid of v^2 exp(-v^2)
    v = np.linspace(-12, 12, 2_000_001)
    ref = np.trapezoid(v**2 * np.exp(-(v**2)), v)
    r = gauss_hermite_rule(2)
    assert np.sum(r.weights * r.nodes**2) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("M", [1, 2, 3, 5, 8, 13, 21, 34, 64])
def test_invariants(M):
    r = gauss_hermite_rule(M)
    assert r.order == M
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(r.weights > 0)
    np.testing.assert_allclose(r.nodes, -r.nodes[::-1], atol=1e-12)
    np.testing.assert_allclose(r.weights, r.weights[::-1], atol=1e-12)
    assert np.sum(r.weights) == pytest.approx(math.sqrt(math.pi), abs=1e-12)
    if M % 2 == 1:
        assert r.nodes[M // 2] == 0.0


@pytest.mark.parametrize("M", range(1, 11))
def test_polynomial_exactness(M):
    r = gauss_hermite_rule(M)
    for k in range(2 * M):
        terms = r.weights * r.nodes**k
        got = float(np.sum(terms))
        want = gaussian_moment(k)
        if k % 2 == 1:
            # zero by symmetry; only rounding noise of the ordered sum
            # remains, bounded relative to the term magnitudes
            assert abs(got) <= 1e-12 * np.sum(np.abs(terms)) + 1e-300
        else:
            assert got == pytest.approx(want, rel=1e-10)


def test_increasing_order_stable_for_fixed_degree():
    # a degree-6 polynomial integrates identically once M >= 4
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 0.1, 0.05])
    results = []
    for M in range(4, 12):
        r = gauss_hermite_rule(M)
        vals = sum(c * r.nodes**k for k, c in enumerate(coeffs))
        results.append(float(np.sum(r.weights * vals)))
    np.testing.assert_allclose(results, results[0], rtol=1e-10)


@pytest.mark.parametrize("M", [0, -1, MAX_ORDER + 1, 2.5, "3"])
def test_invalid_order(M):
    with pytest.raises(ValueError):
        gauss_hermite_rule(M)


def test_results_immutable():
    r = gauss_hermite_rule(4)
    with pytest.raises(ValueError):
        r.nodes[0] = 0.0
