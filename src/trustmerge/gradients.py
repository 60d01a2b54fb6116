"""Absolute-gradient estimates at the pre-trained point.

The exemplar estimate averages |per-example gradient| with the expectation
outside the absolute value (mean-of-abs, not abs-of-mean).  It takes one
forward pass and one backprop over all exemplars: a layer's weight gradient
for example r is the outer product dZ[r]ᵀH[r] of the row's pre-activation
gradient and the layer's input, so its absolute value factorises and the
mean over the n rows is |dZ|ᵀ|H| / n (Goodfellow, arXiv 1510.01799); the
bias term is Σ_r |dZ[r]| / n.  The zero-shot surrogate needs no data: it is
``ew_abs`` of the task vector itself.
"""

from __future__ import annotations

from .errors import IncompatibleShapes
from .mlp import LabeledBatch, _abs_example_gradient_sum
from .params import Checkpoint


def estimate_abs_gradient(theta_pre: Checkpoint, exemplars: LabeledBatch) -> Checkpoint:
    """Mean over single examples of |cross-entropy gradient| at theta_pre.

    One batched pass gives the same value as taking each example's gradient
    on its own, up to rounding: the batched products add the rows in their
    own order, so the result can differ from the per-example loop in the
    last bits (relative error ~1e-15).  One exemplar is a one-row product
    and equals |backward(theta_pre, exemplars)| exactly.  The result is
    deterministic for fixed inputs.
    """
    n = len(exemplars)
    if n == 0:
        raise IncompatibleShapes("no exemplars supplied")
    return Checkpoint.from_flat(theta_pre, (1.0 / n) * _abs_example_gradient_sum(theta_pre, exemplars))
