"""Per-dimension conflict sensitivity, proportional threshold selection, and
trust-region mask construction.

The sensitivity of dimension n sums f_j * g_i over ordered task pairs i != j,
for task factors the variant takes from the gradient estimates and deltas, as
(Σf)(Σg) − Σfg: deterministic, but not the last bits of the pair loop that the
tests keep as its reference.  The top tau-fraction is excluded from merging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import write_csv
from .errors import ConfigError, IncompatibleShapes
from .mlp import checked_fraction
from .params import Checkpoint, stack, sum_rows

# variant -> (task-j factor f, task-i factor g) of the pair term, each computed
# row-wise from the (K, N) |gradient| estimates and deltas
_PAIR_FACTORS = {
    "standard": (lambda g, d: g, lambda g, d: np.abs(d)),
    "zero_shot": (lambda g, d: np.abs(d), lambda g, d: np.abs(d)),
    "ntk": (lambda g, d: g, lambda g, d: g),
    "signed_positive": (lambda g, d: g, lambda g, d: d),
    "signed_negative": (lambda g, d: -g, lambda g, d: d),
}
VARIANTS = tuple(_PAIR_FACTORS)


@dataclass(frozen=True)
class Sensitivity:
    values: Checkpoint
    variant: str


@dataclass(frozen=True)
class TrustRegionMask:
    mask: Checkpoint  # {0,1} per coordinate
    tau: float
    epsilon: float
    excluded_count: int


def sensitivity(grads: np.ndarray, deltas: np.ndarray, variant: str = "standard") -> np.ndarray:
    """The flat sensitivity of the (K, N) task-vector rows ``deltas`` to the
    (K, N) |gradient| rows ``grads``: (Σf)(Σg) − Σfg = Σ_{i≠j} f_j g_i, rows
    added in ascending order, so deterministic but not a pair loop's last bits
    (the tests' reference); + 0.0 makes a -0.0 the 0.0 that such a loop gives.

    The uniform 1/(K(K-1)) normalization is dropped: it rescales every
    coordinate identically and cannot change which dimensions are selected.
    """
    try:
        factor_j, factor_i = _PAIR_FACTORS[variant]
    except KeyError:
        raise ConfigError(f"unknown sensitivity variant {variant!r}") from None
    k = len(deltas)
    if k < 2 or len(grads) != k:
        raise IncompatibleShapes(f"need >= 2 tasks with one gradient each, got {len(grads)}/{k}")
    f, g = factor_j(grads, deltas), factor_i(grads, deltas)
    return sum_rows(f) * sum_rows(g) - sum_rows(f * g) + 0.0


def compute_sensitivity(
    grads: list[Checkpoint], tvs: list[Checkpoint], variant: str = "standard"
) -> Sensitivity:
    """:func:`sensitivity` of checkpoint lists, laid out like the task vectors."""
    deltas = stack(tvs, tvs[0] if tvs else None)  # an empty list: "nothing to stack"
    omega = sensitivity(stack(grads, tvs[0]), deltas, variant)
    return Sensitivity(Checkpoint.from_flat(tvs[0], omega), variant)


def build_mask(values: np.ndarray, tau: float, like: Checkpoint) -> TrustRegionMask:
    """Binary mask, laid out like ``like``, that is 0 exactly on the first
    ceil(tau*N) positions of the flat ``values`` sorted in descending order.

    Ties at the boundary break by ascending flat index so the excluded count
    is exact.  epsilon is the smallest excluded value, +inf when nothing is
    excluded.
    """
    m = int(np.ceil(checked_fraction(tau, "tau") * values.size))
    # stable argsort of -values: descending by value, ascending index on ties
    excluded = np.argsort(-values, kind="stable")[:m]
    flat = np.ones(values.size)
    flat[excluded] = 0.0
    epsilon = float(values[excluded[-1]]) if m else float("inf")
    return TrustRegionMask(Checkpoint.from_flat(like, flat), tau, epsilon, m)


def per_layer_sensitivity(omega: Sensitivity) -> list[tuple[str, float]]:
    """(tensor name, mean sensitivity) rows in checkpoint order."""
    return [(name, float(np.mean(arr))) for name, arr in omega.values]


def write_per_layer_csv(rows: list[tuple[str, float]], path) -> None:
    write_csv(path, ["layer", "mean_sensitivity"], ((name, repr(mean)) for name, mean in rows))
