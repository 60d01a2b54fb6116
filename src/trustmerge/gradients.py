"""Absolute-gradient estimates at the pre-trained point.

The exemplar estimate averages |per-example gradient| with the expectation
outside the absolute value (mean-of-abs, not abs-of-mean).  The zero-shot
surrogate needs no data: it is ``ew_abs`` of the task vector itself.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyExemplarSet
from .mlp import LabeledBatch, backward
from .params import Checkpoint


def estimate_abs_gradient(theta_pre: Checkpoint, exemplars: LabeledBatch) -> Checkpoint:
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
    return Checkpoint.from_flat(theta_pre, (1.0 / n) * total)
