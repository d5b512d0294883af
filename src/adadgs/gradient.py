"""Directional-Gaussian-smoothing gradient and the Monte-Carlo GS estimator.

The smoothed directional derivative along a unit vector xi is estimated by
Gauss-Hermite quadrature,

    D[G_sigma](0) ~= (1 / (sqrt(pi) * sigma)) * sum_m w_m F(x + sqrt(2) sigma v_m xi) sqrt(2) v_m,

and the d per-direction derivatives are assembled against the orthonormal
frame to form a gradient surrogate in ambient coordinates. The M-point
Gauss-Hermite rule (physicists' convention, weight exp(-v^2)) is numpy's
`numpy.polynomial.hermite.hermgauss`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .benchmarks import Lines
from .errors import EvaluationError, check_count, check_positive

SQRT2 = np.sqrt(2.0)
SQRT_PI = np.sqrt(np.pi)
MAX_ORDER = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an M-point Gauss-Hermite rule.

    Nodes are strictly ascending and exactly symmetric about zero; for odd
    order the middle node is exactly 0.0 so it can be skipped by callers.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """The M-point Gauss-Hermite rule, exact for polynomials of degree
    <= 2M-1 under the weight exp(-v^2); its arrays are read-only."""
    check_count("order", order, 1, MAX_ORDER)
    nodes, weights = np.polynomial.hermite.hermgauss(int(order))
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=int(order), nodes=nodes, weights=weights)


class SampledGradient(NamedTuple):
    """A gradient estimate with the `Lines` batch it sampled and its values."""

    vector: np.ndarray  # shape (d,)
    lines: Lines
    values: np.ndarray  # shape (n,)


def finite_samples(values) -> np.ndarray:
    """The one non-finite rule for objective samples that every estimator,
    and the driver's f(x0), pass through.

    Returns the values as a float array, or raises EvaluationError naming
    the first non-finite sample, so no estimate is made from a NaN or inf.
    """
    values = np.asarray(values, float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluationError(f"non-finite objective value at sample {bad[0]}",
                              index=int(bad[0]))
    return values


def dgs_stencil(x: np.ndarray, frame: np.ndarray | None, sigma: float,
                rule: QuadratureRule) -> Lines:
    """Sample locations x + sqrt(2) sigma v_m xi_i for every direction i and
    nonzero node v_m, as one `Lines` batch along the frame's directions
    (direction-major); no point array is built.

    A frame is a (d, d) array whose row i is the direction xi_i, or None for
    the d coordinate axes, which go into the batch as None. A zero node's
    summand is multiplied by v_m = 0, so it is never sampled.
    """
    x = np.asarray(x, float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite point x")
    check_positive("sigma", sigma)
    if frame is not None and frame.shape != (len(x), len(x)):
        raise ValueError(f"frame shape {frame.shape} != ({len(x)}, {len(x)})")
    nodes = rule.nodes
    return Lines(x, frame, SQRT2 * sigma * nodes[nodes != 0.0])


def directional_derivative(
    values: np.ndarray,
    sigma: float,
    rule: QuadratureRule,
) -> float | np.ndarray:
    """GH estimate of the smoothed derivative from cross-section samples.

    The last axis of `values` aligns index-for-index with the rule's nodes;
    any leading axes index directions, so one call assembles them all.
    sigma is checked with `check_positive`.
    """
    check_positive("sigma", sigma)
    values = np.asarray(values, float)
    if values.shape[-1] != rule.order:
        raise ValueError(
            f"got {values.shape[-1]} values for a rule of order {rule.order}"
        )
    # the summand for a zero node is exactly 0, so a zero node's slot may
    # hold 0 instead of a sample and the sum is bit-identical
    terms = rule.weights * values * (SQRT2 * rule.nodes)
    return np.sum(terms, axis=-1) / (SQRT_PI * sigma)


def dgs_gradient(
    F,
    x: np.ndarray,
    frame: np.ndarray | None,
    sigma: float,
    rule: QuadratureRule,
) -> np.ndarray:
    """The DGS gradient surrogate at x, shape (d,): the per-direction
    smoothed derivatives from one batched stencil, assembled against the
    frame; on the axes (frame None) they are the gradient."""
    lines = dgs_stencil(x, frame, sigma, rule)
    full = np.zeros((len(lines.origin), rule.order))
    full[:, rule.nodes != 0.0] = finite_samples(F(lines)).reshape(len(full), -1)
    derivatives = directional_derivative(full, sigma, rule)
    return derivatives if frame is None else derivatives @ frame


def gs_mc_gradient(
    F,
    x: np.ndarray,
    sigma: float,
    n_samples: int,
    rng: np.random.Generator,
) -> SampledGradient:
    """Monte-Carlo estimate of the Gaussian-smoothed gradient.

    Returns (1 / (n sigma)) sum_k F(x + sigma u_k) u_k with u_k standard
    normal, sampled antithetically as one batch `Lines(x, U, [sigma, -sigma])`:
    each (u, -u) pair cancels even-order terms exactly (a constant F yields
    exactly 0).
    """
    x = np.asarray(x, float)
    check_positive("sigma", sigma)
    check_count("n_samples", n_samples, 2)
    if n_samples % 2:
        raise ValueError(f"n_samples must be even, got {n_samples}")
    U = rng.standard_normal((n_samples // 2, x.shape[0]))
    lines = Lines(x, U, np.array([sigma, -sigma]))
    values = finite_samples(F(lines))
    # pairwise form of the estimator: exact cancellation when F constant
    plus, minus = values.reshape(-1, 2).T
    return SampledGradient((plus - minus) @ U / (n_samples * sigma), lines, values)
