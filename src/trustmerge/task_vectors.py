"""Task vectors (fine-tuned minus pre-trained) and their gradient-relative
three-way decomposition into orthogonal / positive / negative components."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibleShapes
from .params import Checkpoint, ew_combine


@dataclass(frozen=True)
class Decomposition:
    """Disjoint-support split of a delta by the sign of grad * delta."""

    orthogonal: Checkpoint
    positive: Checkpoint
    negative: Checkpoint
    zero_tol: float


def compute_task_vector(theta_k: Checkpoint, theta_pre: Checkpoint) -> Checkpoint:
    if not theta_k.compatible(theta_pre):
        raise IncompatibleShapes("fine-tuned and pre-trained checkpoints differ in structure")
    return ew_combine(theta_k, theta_pre, "sub")


def decompose(delta: Checkpoint, grad: Checkpoint, zero_tol: float = 0.0) -> Decomposition:
    """Split each coordinate by the product p = grad[n] * delta[n].

    |p| <= zero_tol goes to the orthogonal component, p > 0 to positive,
    p < 0 to negative; the three parts sum back to the delta exactly.
    """
    if not zero_tol >= 0:  # NaN fails too
        raise ConfigError(f"zero_tol must be >= 0, got {zero_tol!r}")
    if not grad.compatible(delta):
        raise IncompatibleShapes("gradient does not match the task vector's structure")
    d = delta.flat()
    p = grad.flat() * d
    near_zero = np.abs(p) <= zero_tol
    parts = (near_zero, ~near_zero & (p > 0), ~near_zero & (p < 0))
    orth, pos, neg = (Checkpoint.from_flat(delta, np.where(m, d, 0.0)) for m in parts)
    return Decomposition(orth, pos, neg, zero_tol)


def checked_fraction(fraction: float) -> float:
    """``fraction`` if it lies in [0, 1]; a ConfigError otherwise."""
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"decomposition fraction must lie in [0, 1], got {fraction!r}")
    return fraction


def percentile_zero_tol(delta: Checkpoint, grad: Checkpoint, fraction: float) -> float:
    """Tolerance placing the lowest ``fraction`` of |grad * delta| products in
    the orthogonal set (an exact ``zero_tol`` of 0 is measure-zero in floats)."""
    checked_fraction(fraction)
    products = np.abs(grad.flat() * delta.flat())
    if products.size == 0 or fraction == 0.0:
        return 0.0
    k = int(np.ceil(fraction * products.size))
    return float(np.sort(products)[k - 1])
