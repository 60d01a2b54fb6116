"""Task vectors (fine-tuned minus pre-trained) and their gradient-relative
three-way decomposition into orthogonal / positive / negative components."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleShapes
from .mlp import checked_fraction, is_finite_number
from .params import Checkpoint, ew_combine


@dataclass(frozen=True, eq=False)  # array fields: == is identity
class Decomposition:
    """Disjoint-support split of a flat delta by the sign of grad * delta."""

    orthogonal: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    zero_tol: float


def compute_task_vector(theta_k: Checkpoint, theta_pre: Checkpoint) -> Checkpoint:
    return ew_combine(theta_k, theta_pre, "sub")


def decompose(delta: np.ndarray, grad: np.ndarray, zero_tol: float = 0.0) -> Decomposition:
    """Split each coordinate by the product p = grad[n] * delta[n].

    |p| <= zero_tol goes to the orthogonal component, p > 0 to positive,
    p < 0 to negative; the three parts sum back to the delta exactly.
    """
    # +inf is in range (every coordinate orthogonal); NaN, bools and strings are not
    if not ((is_finite_number(zero_tol) or zero_tol == math.inf) and zero_tol >= 0):
        raise ConfigError(f"zero_tol must be >= 0, got {zero_tol!r}")
    if grad.shape != delta.shape:
        raise IncompatibleShapes("gradient does not match the task vector's structure")
    p = grad * delta
    near_zero = np.abs(p) <= zero_tol
    parts = (near_zero, ~near_zero & (p > 0), ~near_zero & (p < 0))
    orth, pos, neg = (np.where(m, delta, 0.0) for m in parts)
    return Decomposition(orth, pos, neg, zero_tol)


def percentile_zero_tol(delta: np.ndarray, grad: np.ndarray, fraction: float) -> float:
    """Tolerance placing the lowest ``fraction`` of |grad * delta| products in
    the orthogonal set (an exact ``zero_tol`` of 0 is measure-zero in floats)."""
    checked_fraction(fraction, "decomposition fraction")
    products = np.abs(grad * delta)
    if products.size == 0 or fraction == 0.0:
        return 0.0
    k = int(np.ceil(fraction * products.size))
    return float(np.sort(products)[k - 1])
