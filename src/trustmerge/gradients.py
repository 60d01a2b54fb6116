"""Absolute-gradient estimates at the pre-trained point.

The exemplar estimate averages |per-example gradient| with the expectation
outside the absolute value (mean-of-abs, not abs-of-mean); the zero-shot
surrogate uses |delta| itself and needs no data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyExemplarSet
from .mlp import LabeledBatch, backward
from .params import Checkpoint, ElementwiseMap, ew_abs
from .task_vectors import TaskVector


@dataclass(frozen=True)
class GradientEstimate:
    task_id: int
    abs_grad: ElementwiseMap
    source: str  # "exemplar" | "zero_shot"
    exemplar_count: int = 0

    def __post_init__(self):
        if self.source not in ("exemplar", "zero_shot"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "exemplar" and self.exemplar_count < 1:
            raise EmptyExemplarSet("exemplar estimate requires at least one example")


def estimate_abs_gradient(
    theta_pre: Checkpoint, exemplars: LabeledBatch, task_id: int = 0
) -> GradientEstimate:
    """Mean over single examples of |cross-entropy gradient| at theta_pre.

    Per-example gradients are taken one example at a time and summed into
    one vector in ascending example order, so the result is deterministic.
    """
    n = len(exemplars)
    if n == 0:
        raise EmptyExemplarSet("no exemplars supplied")
    total = np.zeros(theta_pre.total_dims)
    for i in range(n):
        _, grads = backward(theta_pre, exemplars.take(np.array([i])))
        total += np.abs(grads.flat())
    mean_abs = Checkpoint.from_flat(theta_pre, (1.0 / n) * total)
    return GradientEstimate(task_id, mean_abs, "exemplar", n)


def zero_shot_abs_gradient(tv: TaskVector) -> GradientEstimate:
    """|delta| as a data-free stand-in for the absolute gradient."""
    return GradientEstimate(tv.task_id, ew_abs(tv.delta), "zero_shot", 0)
