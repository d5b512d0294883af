"""Shared exception types, and the rules every setting of a run is
checked by.

`check_count` is the one rule for a count (a dimension, a trial count, a
budget, a seed, a quadrature order, a population): an int or numpy
integer, never a bool, within its bounds. `check_real` is the rule for a
real number: an int, float or numpy number, never a bool. `check_positive`
is the one rule for a radius, a step or a rate: a real number, positive and
finite, so NaN and inf are rejected. Each raises a ValueError that names
the setting.
"""

import numpy as np


class EvaluationError(RuntimeError):
    """An objective evaluation failed or returned a non-finite value.

    `index` identifies the offending sample within the batch, when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def check_count(name: str, value, low: int, high: int | None = None) -> None:
    """Raise a ValueError naming `name` unless `value` is an integer (a bool
    is not one) in low..high, or at least `low` when `high` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def check_real(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is a real number (an
    int, float, numpy integer or numpy floating; a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is a real number (a
    bool is not one) that is positive and finite."""
    check_real(name, value)
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
