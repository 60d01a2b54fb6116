"""Knowledge-conflict measurement, accuracy tables, and the loss-landscape
grid over the orthogonal/positive/negative task-vector plane.

Every score here comes from ``TaskBundle._model_scores``: one forward pass
over a bundle's test sets stacked on a leading axis, so a model costs one
pass, not one per task, and each score is bit for bit the one-set
``forward`` loss or ``evaluate_accuracy``.  ``knowledge_conflict`` hands it
all K + 1 of its merges and ``accuracy_table`` all its merged models in one
call; ``landscape`` one grid row of 15 points per call.  It stacks as many
small models into one pass as keep its arrays within 128 KiB."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import TaskBundle
from .datasets import write_csv
from .errors import ConfigError, IncompatibleShapes
# perfbench traces knowledge_conflict's merges through this binding
from .merging import MergeConfig, MergeResult, merge_bundle
from .mlp import backward, checked_fraction, is_count
from .params import Checkpoint, _check_finite, stack, sum_rows
from .task_vectors import decompose, percentile_zero_tol

GRID_COORDS = tuple((i - 2) / 10 for i in range(15))  # -0.2 .. 1.2 step 0.1


@dataclass(frozen=True, eq=False)  # an array field: == is identity, and a report hashes
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


def knowledge_conflict(
    bundle: TaskBundle,
    cfg: MergeConfig,
    basis: str = "loss",
    exemplar_count: int | None = None,
) -> ConflictReport:
    """Per ordered pair (i, j): the change in task j's metric caused by
    including task i in the merge, metric(all) - metric(all but i).  The
    accuracy basis negates accuracy, so a drop is reported positive as a loss
    rise is; (-a) - (-b) equals b - a exactly.  The K + 1 merges are scored
    in one call on the bundle's test stack, each set bit for bit as alone;
    the diagonal (all but i on set i) is scored and dropped."""
    if basis not in ("loss", "accuracy"):
        raise ConfigError(f"unknown basis {basis!r}")
    k = bundle.num_tasks
    if k < 2:
        raise IncompatibleShapes(f"need >= 2 tasks, got {k}")
    if k < 3 and cfg.method in ("tatr", "ties_tatr", "ada_tatr"):
        raise IncompatibleShapes(f"{cfg.method} needs >= 3 tasks, got {k}: each leave-one-out "
                                 f"merge needs two tasks for the trust region's sensitivity")
    accuracy = basis == "accuracy"
    tasks = [bundle] + [bundle.subset([t for t in range(k) if t != i]) for i in range(k)]
    merged = [merge_bundle(sub, cfg, exemplar_count).merged for sub in tasks]
    scores = bundle._model_scores(bundle.theta_pre, stack(merged, bundle.theta_pre), accuracy)
    pairwise = scores[1:] - scores[0] if accuracy else scores[0] - scores[1:]
    np.fill_diagonal(pairwise, np.nan)
    total = float(np.nansum(pairwise))
    return ConflictReport(pairwise, total, total / (k * (k - 1)), basis)


def landscape(
    bundle: TaskBundle,
    reference_task: int | None = None,
    decomposition_fraction: float = 0.05,
) -> LandscapeGrid:
    """15x15 loss grid on the plane through the three component anchors.

    The grid shows the test loss of the reference task, or of every task for
    the total view (None).  The delta, the sum of every task vector but the
    reference's, is split against the sum of those tasks' test-loss gradients
    at theta_pre; the lowest ``decomposition_fraction`` of |grad * delta|
    products forms the orthogonal set.  Plane point (u, v) is
    theta_neg + u (theta_orth - theta_neg) + v (theta_pos - theta_neg); a point
    that is not finite raises NonFiniteValues naming its first such tensor,
    as a Checkpoint of it would, before its grid row is scored.
    """
    k = bundle.num_tasks
    if k < 2:
        raise IncompatibleShapes(f"need >= 2 tasks, got {k}")
    if reference_task is not None and not (is_count(reference_task) and 0 <= reference_task < k):
        raise ConfigError(f"reference task {reference_task!r} is out of range for {k} tasks")
    checked_fraction(decomposition_fraction, "decomposition fraction")
    pre = bundle.theta_pre
    scored = bundle if reference_task is None else bundle.subset([reference_task])
    others = [tv for j, tv in enumerate(bundle.task_vectors()) if j != reference_task]
    delta = sum_rows(stack(others, pre))
    grad = sum_rows(stack([backward(pre, t)[1] for t in scored.test_sets], pre))
    dec = decompose(delta, grad, percentile_zero_tol(delta, grad, decomposition_fraction))

    theta_pos, theta_neg, theta_orth = (Checkpoint.from_flat(pre, pre.flat() + part)
                                        for part in (dec.positive, dec.negative, dec.orthogonal))
    neg = theta_neg.flat()
    axis_u, axis_v = theta_orth.flat() - neg, theta_pos.flat() - neg
    v_steps = np.array(GRID_COORDS)[:, None] * axis_v  # v * axis_v of each grid column
    rows = []
    for u in GRID_COORDS:
        points = (neg + u * axis_u) + v_steps  # one grid row, (15, N)
        _check_finite(pre.layout, points)
        losses = scored._model_scores(theta_neg, points)
        rows += [(u, v, sum(point)) for v, point in zip(GRID_COORDS, losses.tolist())]
    return LandscapeGrid(theta_pos, theta_neg, theta_orth, rows, reference_task)


def accuracy_table(
    bundle: TaskBundle, results: list[tuple[str, MergeResult]]
) -> list[tuple[str, list[float], float]]:
    """Rows of (method, per-task accuracies, average); always includes the
    pre-trained reference row and the per-task individual upper bound.  The
    merged models are stacked, so they must share one layout."""
    models = [result.merged for _, result in results]
    scores = bundle._model_scores(models[0], stack(models, models[0]), True).tolist() if models else []
    named = bundle.baseline_accuracies() + [(name, accs) for (name, _), accs in zip(results, scores)]
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
