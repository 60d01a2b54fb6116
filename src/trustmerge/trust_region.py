"""Per-dimension conflict sensitivity, proportional threshold selection, and
trust-region mask construction.

The sensitivity of dimension n sums, over ordered task pairs (i, j) with
i != j, a product of the task-j gradient estimate and the task-i delta; the
variant decides which factors are taken in absolute value.  The highest
tau-fraction of dimensions is excluded from merging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .datasets import write_csv
from .errors import ConfigError, IncompatibleShapes
from .params import Checkpoint, stack

# variant -> (task-j factor, task-i factor) of the pair term, each computed
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


def compute_sensitivity(
    grads: list[Checkpoint], tvs: list[Checkpoint], variant: str = "standard"
) -> Sensitivity:
    """Accumulates over ordered pairs (i, j), i != j, in ascending (j, i) order.

    The uniform 1/(K(K-1)) normalization is dropped: it rescales every
    coordinate identically and cannot change which dimensions are selected.
    """
    try:
        factor_j, factor_i = _PAIR_FACTORS[variant]
    except KeyError:
        raise ConfigError(f"unknown sensitivity variant {variant!r}") from None
    k = len(tvs)
    if k < 2 or len(grads) != k:
        raise IncompatibleShapes(f"need >= 2 tasks with one gradient each, got {len(grads)}/{k}")
    g, d = stack(grads, tvs[0]), stack(tvs, tvs[0])
    fj, fi = factor_j(g, d), factor_i(g, d)
    acc = np.zeros(d.shape[1])
    for j, i in permutations(range(k), 2):  # ascending (j, i), i != j
        acc += fj[j] * fi[i]
    return Sensitivity(Checkpoint.from_flat(tvs[0], acc), variant)


def proportion_selection(omega: Sensitivity, tau: float) -> tuple[float, np.ndarray]:
    """Descending sort; the first ceil(tau*N) positions are excluded.

    Ties at the boundary break by ascending flat index so the excluded count
    is exact.  Returns (epsilon, excluded flat indices); epsilon is the
    smallest excluded value, +inf when nothing is excluded.
    """
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {tau!r}")
    values = omega.values.flat()
    n = values.size
    m = int(np.ceil(tau * n))
    if m == 0:
        return float("inf"), np.empty(0, dtype=np.int64)
    # stable argsort of -values: descending by value, ascending index on ties
    order = np.argsort(-values, kind="stable")
    excluded = order[:m]
    return float(values[excluded[-1]]), np.sort(excluded)


def build_mask(omega: Sensitivity, tau: float) -> TrustRegionMask:
    """Binary mask that is 0 exactly on the excluded coordinates."""
    epsilon, excluded = proportion_selection(omega, tau)
    flat = np.ones(omega.values.total_dims)
    flat[excluded] = 0.0
    mask = Checkpoint.from_flat(omega.values, flat)
    return TrustRegionMask(mask, tau, epsilon, excluded.size)


def per_layer_sensitivity(omega: Sensitivity) -> list[tuple[str, float]]:
    """(tensor name, mean sensitivity) rows in checkpoint order."""
    return [(name, float(np.mean(arr))) for name, arr in omega.values]


def write_per_layer_csv(rows: list[tuple[str, float]], path) -> None:
    write_csv(path, ["layer", "mean_sensitivity"], ((name, repr(mean)) for name, mean in rows))
