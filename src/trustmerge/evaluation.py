"""Knowledge-conflict measurement, accuracy tables, and the loss-landscape
grid over the orthogonal/positive/negative task-vector plane."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import TaskBundle
from .datasets import write_csv
from .errors import ConfigError, IncompatibleShapes
# perfbench traces knowledge_conflict's merges through this binding
from .merging import MergeConfig, MergeResult, merge_bundle
from .mlp import backward, checked_fraction, evaluate_accuracy, forward, is_count
from .params import Checkpoint, ew_combine, sum_in_order
from .task_vectors import decompose, percentile_zero_tol

GRID_COORDS = tuple((i - 2) / 10 for i in range(15))  # -0.2 .. 1.2 step 0.1


@dataclass(frozen=True)
class ConflictReport:
    pairwise: np.ndarray  # K x K, NaN on the diagonal
    total: float
    normalized: float  # total / (K (K - 1))
    basis: str  # "loss" | "accuracy"


@dataclass(frozen=True)
class LandscapeGrid:
    anchor_positive: Checkpoint  # plane coordinate (0, 1)
    anchor_negative: Checkpoint  # plane coordinate (0, 0)
    anchor_orthogonal: Checkpoint  # plane coordinate (1, 0)
    rows: list[tuple[float, float, float]]  # (u, v, loss)
    reference_task: int | None  # None = total loss over all tasks


def _task_metric(merged: Checkpoint, bundle: TaskBundle, j: int, basis: str) -> float:
    """Task j's test loss, or its accuracy negated: larger is worse on both bases."""
    if basis == "loss":
        return forward(merged, bundle.test_sets[j])[1]
    return -evaluate_accuracy(merged, bundle.test_sets[j])


def knowledge_conflict(
    bundle: TaskBundle,
    cfg: MergeConfig,
    basis: str = "loss",
    exemplar_count: int | None = None,
) -> ConflictReport:
    """Per ordered pair (i, j): the change in task j's metric caused by
    including task i in the merge, metric(all) - metric(all but i).  The
    accuracy basis negates accuracy, so a drop is reported positive as a loss
    rise is; (-a) - (-b) equals b - a exactly."""
    if basis not in ("loss", "accuracy"):
        raise ConfigError(f"unknown basis {basis!r}")
    k = bundle.num_tasks
    if k < 2:
        raise IncompatibleShapes(f"need >= 2 tasks, got {k}")
    merged_all = merge_bundle(bundle, cfg, exemplar_count).merged
    metric_all = [_task_metric(merged_all, bundle, j, basis) for j in range(k)]
    pairwise = np.full((k, k), np.nan)
    for i in range(k):
        rest = [t for t in range(k) if t != i]
        merged_excl = merge_bundle(bundle.subset(rest), cfg, exemplar_count).merged
        for j in rest:
            pairwise[i, j] = metric_all[j] - _task_metric(merged_excl, bundle, j, basis)
    total = float(np.nansum(pairwise))
    return ConflictReport(pairwise, total, total / (k * (k - 1)), basis)


def signed_gradient(bundle: TaskBundle, j: int) -> Checkpoint:
    """Exact full-batch cross-entropy gradient of task j at the pre-trained
    point, evaluated on the task's test set (the loss shown in the grid)."""
    _, grads = backward(bundle.theta_pre, bundle.test_sets[j])
    return grads


def landscape(
    bundle: TaskBundle,
    reference_task: int | None = None,
    decomposition_fraction: float = 0.05,
) -> LandscapeGrid:
    """15x15 loss grid on the plane through the three component anchors.

    The grid shows the loss of ``loss_tasks``: the reference task, or every
    task for the total view (None).  The delta, the sum of every task vector
    but the reference's, is split against the sum of ``loss_tasks``'
    gradients; the lowest ``decomposition_fraction`` of |grad * delta|
    products forms the orthogonal set.  Plane point (u, v) is
    theta_neg + u (theta_orth - theta_neg) + v (theta_pos - theta_neg).
    """
    k = bundle.num_tasks
    if k < 2:
        raise IncompatibleShapes(f"need >= 2 tasks, got {k}")
    if reference_task is not None and not (is_count(reference_task) and 0 <= reference_task < k):
        raise ConfigError(f"reference task {reference_task!r} is out of range for {k} tasks")
    checked_fraction(decomposition_fraction, "decomposition fraction")
    loss_tasks = range(k) if reference_task is None else [reference_task]
    delta = sum_in_order(tv for j, tv in enumerate(bundle.task_vectors()) if j != reference_task)
    grad = sum_in_order(signed_gradient(bundle, j) for j in loss_tasks)
    tol = percentile_zero_tol(delta, grad, decomposition_fraction)
    dec = decompose(delta, grad, tol)

    theta_pos, theta_neg, theta_orth = (ew_combine(bundle.theta_pre, part, "add")
                                        for part in (dec.positive, dec.negative, dec.orthogonal))
    neg = theta_neg.flat()
    axis_u, axis_v = theta_orth.flat() - neg, theta_pos.flat() - neg
    rows = []
    for u in GRID_COORDS:
        for v in GRID_COORDS:
            point = Checkpoint.from_flat(theta_neg, neg + u * axis_u + v * axis_v)
            rows.append((u, v, sum(forward(point, bundle.test_sets[j])[1] for j in loss_tasks)))
    return LandscapeGrid(theta_pos, theta_neg, theta_orth, rows, reference_task)


def accuracy_table(
    bundle: TaskBundle, results: list[tuple[str, MergeResult]]
) -> list[tuple[str, list[float], float]]:
    """Rows of (method, per-task accuracies, average); always includes the
    pre-trained reference row and the per-task individual upper bound."""
    named = bundle.baseline_accuracies() + [
        (name, [evaluate_accuracy(result.merged, t) for t in bundle.test_sets])
        for name, result in results
    ]
    return [(name, accs, float(np.mean(accs))) for name, accs in named]


def write_conflict_csv(report: ConflictReport, path) -> None:
    k = report.pairwise.shape[0]
    rows = [(i, j, repr(float(report.pairwise[i, j]))) for i in range(k) for j in range(k) if i != j]
    rows += [("total", "", repr(report.total)), ("normalized", "", repr(report.normalized))]
    write_csv(path, ["i", "j", "C"], rows)


def write_landscape_csv(grid: LandscapeGrid, path) -> None:
    write_csv(path, ["u", "v", "loss"], (map(repr, row) for row in grid.rows))


def write_accuracy_csv(rows, num_tasks: int, path) -> None:
    write_csv(path, ["method"] + [f"task{j}" for j in range(num_tasks)] + ["avg"],
              ([name, *map(repr, accs), repr(avg)] for name, accs, avg in rows))
