"""Merging backends: weight averaging, task arithmetic, trust-region masked
task arithmetic (tatr), ties, ties+tatr, and entropy-trained task-wise
coefficients on top of the trust region (ada_tatr).  The task-vector merges
take the (K, N) task-vector rows, and the trust-region ones the region's flat
{0, 1} vector, and return the flat step that merge_bundle adds to theta_pre."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bundle import TaskBundle, checked_exemplar_count
from .errors import ConfigError, IncompatibleShapes, MalformedArtifact, MissingArtifact
from .mlp import (LabeledBatch, _entropy_sets, checked_fraction, is_count, is_finite_number,
                  plain_fields, stacked_sets)
from .params import (Checkpoint, _tensor_dot, ew_scale, load_checkpoint, save_checkpoint, stack,
                     sum_in_order, sum_rows)
from .trust_region import VARIANTS, TrustRegionMask, build_mask, sensitivity

METHODS = ("average", "task_arithmetic", "tatr", "ties", "ties_tatr", "ada_tatr")


@dataclass(frozen=True)
class AdaConfig:
    steps: int = 100
    learning_rate: float = 0.01
    init_lambda: float = 0.3

    def __post_init__(self):
        plain_fields(self)
        if not (is_count(self.steps) and self.steps >= 0):
            raise ConfigError(f"ada steps must be an integer >= 0, got {self.steps!r}")
        if not (is_finite_number(self.learning_rate) and is_finite_number(self.init_lambda)):
            raise ConfigError("ada learning rate and initial lambda must be finite")


def _checked_trim_keep(keep: float) -> float:
    if not (is_finite_number(keep) and 0.0 < keep <= 1.0):
        raise ConfigError(f"ties_trim_keep must lie in (0, 1], got {keep!r}")
    return keep


@dataclass(frozen=True)
class MergeConfig:
    method: str = "tatr"
    lam: float = 0.3
    tau: float = 0.01
    ties_trim_keep: float = 0.2
    ties_mask_from_trimmed: bool = False
    sensitivity_variant: str = "standard"
    ada: AdaConfig = field(default_factory=AdaConfig)

    def __post_init__(self):
        plain_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not (is_finite_number(self.lam) and self.lam > 0):
            raise ConfigError("lambda must be finite and positive")
        checked_fraction(self.tau, "tau")
        _checked_trim_keep(self.ties_trim_keep)
        if not isinstance(self.ties_mask_from_trimmed, bool):
            raise ConfigError("ties_mask_from_trimmed must be a bool")
        if self.sensitivity_variant not in VARIANTS:
            raise ConfigError(f"unknown sensitivity variant {self.sensitivity_variant!r}")
        if not isinstance(self.ada, AdaConfig):
            raise ConfigError(f"ada must be an AdaConfig, got {type(self.ada).__name__}")


@dataclass(frozen=True)
class MergeResult:
    merged: Checkpoint
    mask_used: TrustRegionMask | None
    coefficients: list[float]
    # what merge_bundle ran: its config and exemplar count (None = full pools)
    config: MergeConfig | None = None
    exemplars: int | None = None


def weight_average(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Coordinate-wise arithmetic mean of compatible checkpoints."""
    return ew_scale(sum_in_order(checkpoints), 1.0 / len(checkpoints))


def task_arithmetic(deltas: np.ndarray, lam: float) -> np.ndarray:
    """lam * the sum of the rows, added in ascending task order."""
    return lam * sum_rows(deltas)


def tatr_merge(deltas: np.ndarray, region: np.ndarray, lam: float) -> np.ndarray:
    """Task arithmetic restricted to the trust region.  With the all-ones
    region of tau=0 the step is bitwise that of plain task arithmetic
    (x * 1.0 == x and the summation order is shared)."""
    return task_arithmetic(deltas * region, lam)


def ties_phi(deltas: np.ndarray, trim_keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Trim / elect-sign / align step of ties merging on the (K, N) task
    vectors; returns the (K, N) aligned vectors and the N elected signs.

    Trim keeps, per task, the ceil(trim_keep*N) globally largest |values|
    (ties by ascending flat index); the elected sign at each coordinate is
    the sign of the trimmed values summed in ascending task order (0 maps to
    +1); alignment zeroes coordinates whose trimmed sign disagrees with the
    elected sign.
    """
    keep = int(np.ceil(_checked_trim_keep(trim_keep) * deltas.shape[1]))
    kept_idx = np.argsort(-np.abs(deltas), axis=1, kind="stable")[:, :keep]
    trimmed = np.zeros(deltas.shape)
    np.put_along_axis(trimmed, kept_idx, np.take_along_axis(deltas, kept_idx, axis=1), axis=1)
    elected = np.where(sum_rows(trimmed) < 0.0, -1.0, 1.0)
    agree = np.sign(trimmed) * elected >= 0.0  # zeros never disagree
    return np.where(agree, trimmed, 0.0), elected


def ties_merge(deltas: np.ndarray, lam: float, trim_keep: float) -> np.ndarray:
    """lam * the disjoint mean of the ties-aligned rows: per coordinate, the
    mean of the nonzero aligned values, summed in ascending task order (0
    when none survive)."""
    return _ties_mean(ties_phi(deltas, trim_keep)[0], lam)


def _ties_mean(aligned: np.ndarray, lam: float) -> np.ndarray:
    """lam * the disjoint mean of the (K, N) ties-aligned rows (see ties_merge)."""
    counts = (aligned != 0.0).sum(axis=0)
    sums = sum_rows(aligned)
    return lam * np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)


def ties_tatr(deltas: np.ndarray, region: np.ndarray, lam: float, trim_keep: float) -> np.ndarray:
    """Ties merging restricted to the trust region."""
    return ties_merge(deltas, lam, trim_keep) * region


def _combined(rows: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum of the rows scaled by their coefficients, in ascending row order."""
    # equal coefficients factor out so a shared-lambda merge stays bitwise
    # identical to the tatr path
    if np.all(coeffs == coeffs[0]):
        return float(coeffs[0]) * sum_rows(rows)
    return sum_rows(coeffs[:, None] * rows)


def ada_coefficient_gradient(
    theta_pre: Checkpoint, masked: np.ndarray, coeffs: np.ndarray, pools: np.ndarray,
    work: list | None = None,
) -> tuple[float, np.ndarray]:
    """Summed prediction entropy over the (P, n, d) stack of unlabeled pools
    and its analytic gradient in the per-task coefficients (the merge is affine
    in each): the entropy gradient's dot with each masked row, in tensor order
    as ew_dot.  One stacked pass, into the hidden-layer arrays of ``work``
    (see _entropy_sets), and no Checkpoint."""
    losses, grads = _entropy_sets(theta_pre, theta_pre.flat() + _combined(masked, coeffs), pools,
                                  work)
    grad_theta = sum_rows(grads)
    return sum(losses.tolist()), np.array([_tensor_dot(grad_theta, row, theta_pre.layout)
                                           for row in masked])


def ada_tatr(
    theta_pre: Checkpoint, masked: np.ndarray, unlabeled: list[LabeledBatch], ada: AdaConfig,
) -> tuple[np.ndarray, list[float]]:
    """Task-wise coefficients trained by full-batch gradient descent on the
    summed prediction entropy of the merge of ``masked``, the task-vector rows
    times the trust region; returns the step and the coefficients.  The pools
    are stacked once, and every step writes into one set of hidden-layer
    arrays; merge_bundle checks finiteness, on the merged model."""
    pools, _ = stacked_sets(unlabeled, "unlabeled pools")
    coeffs = np.full(len(masked), float(ada.init_lambda))
    work = []
    for _ in range(ada.steps):
        _, dcoeffs = ada_coefficient_gradient(theta_pre, masked, coeffs, pools, work)
        coeffs = coeffs - ada.learning_rate * dcoeffs
    return _combined(masked, coeffs), [float(c) for c in coeffs]


def merge_bundle(
    bundle: TaskBundle, cfg: MergeConfig, exemplar_count: int | None = None
) -> MergeResult:
    """Run the configured merge method on a bundle (or bundle subset); the
    result records ``cfg`` and ``exemplar_count``, which must be None or >= 0
    even for the methods that use no exemplars.  The one boundary of the
    merge math: it stacks the task vectors once, passes the rows (and the
    trust region's flat vector) to the merge, and adds the step it returns
    to theta_pre.  The trust-region methods share one mask: the sensitivity
    of the task-vector rows (for ties_tatr with ``ties_mask_from_trimmed``,
    of its aligned rows, which its step then reuses) to the stacked gradient
    estimates, with the top ``cfg.tau`` fraction excluded."""
    exemplar_count = checked_exemplar_count(exemplar_count)
    pre, k = bundle.theta_pre, bundle.num_tasks
    if cfg.method == "average":
        return MergeResult(weight_average(bundle.experts), None, [1.0 / k] * k, cfg, exemplar_count)
    deltas = stack(bundle.task_vectors(), pre)
    mask, coefficients = None, [cfg.lam] * k
    if cfg.method == "task_arithmetic":
        step = task_arithmetic(deltas, cfg.lam)
    elif cfg.method == "ties":
        step = ties_merge(deltas, cfg.lam, cfg.ties_trim_keep)
    else:  # the trust-region methods
        grads = stack(bundle.gradient_estimates(exemplar_count), pre)
        basis = deltas
        if cfg.method == "ties_tatr" and cfg.ties_mask_from_trimmed:
            basis, _ = ties_phi(deltas, cfg.ties_trim_keep)
        mask = build_mask(sensitivity(grads, basis, cfg.sensitivity_variant), cfg.tau, pre)
        region = mask.mask.flat()
        if cfg.method == "tatr":
            step = tatr_merge(deltas, region, cfg.lam)
        elif cfg.method == "ties_tatr" and basis is not deltas:  # the aligned rows: align once
            step = _ties_mean(basis, cfg.lam) * region
        elif cfg.method == "ties_tatr":
            step = ties_tatr(deltas, region, cfg.lam, cfg.ties_trim_keep)
        else:  # ada_tatr: the per-task test inputs serve as the unlabeled pools
            step, coefficients = ada_tatr(pre, deltas * region, bundle.test_sets, cfg.ada)
    merged = Checkpoint.from_flat(pre, pre.flat() + step)  # the merge's one finiteness check
    return MergeResult(merged, mask, coefficients, cfg, exemplar_count)


def save_merge_result(result: MergeResult, out_dir) -> None:
    """merged.tmrg, mask.tmrg for the trust-region methods (any other removes
    an earlier merge's), and run.json: the config and exemplar count, the
    coefficients, and the mask's epsilon (null when nothing is excluded) and
    excluded count.  run.json is strict JSON and holds no paths or times, so a
    repeated merge writes the same bytes."""
    mask = result.mask_used
    record = {
        "config": None if result.config is None else asdict(result.config),
        "exemplars": result.exemplars,
        "coefficients": result.coefficients,
        "mask": None if mask is None else {
            "epsilon": mask.epsilon if math.isfinite(mask.epsilon) else None,
            "excluded_count": mask.excluded_count,
        },
    }
    # encoded first: a value JSON cannot hold fails before any file is written
    text = json.dumps(record, indent=2, allow_nan=False) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.merged, out / "merged.tmrg")
    if mask is None:
        (out / "mask.tmrg").unlink(missing_ok=True)
    else:
        save_checkpoint(mask.mask, out / "mask.tmrg")
    (out / "run.json").write_text(text, "utf-8")


def load_merge_result(out_dir, like: Checkpoint) -> MergeResult:
    """The merged model of a directory written by save_merge_result, which
    must be laid out like ``like``, and the config its run.json records
    (None without a record or for a null config).  The config is rebuilt
    through MergeConfig and AdaConfig, so each field passes the checks of a
    config built in code, and it must hold every field, as save_merge_result
    writes it."""
    root = Path(out_dir)
    path, record = root / "merged.tmrg", root / "run.json"
    if not path.exists():
        raise MissingArtifact(str(path))
    merged = load_checkpoint(path)
    if not merged.compatible(like):
        raise IncompatibleShapes(f"{path} does not have the bundle's parameter layout")
    try:
        config = json.loads(record.read_text("utf-8"))["config"] if record.exists() else None
        if config is not None:
            rebuilt = MergeConfig(**{**config, "ada": AdaConfig(**config["ada"])})
            if asdict(rebuilt) != config:
                raise MalformedArtifact(f"{record}: the config does not hold every field")
            config = rebuilt
    # ConfigError is a ValueError; TypeError is a non-mapping or an unknown field
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedArtifact(f"{record}: {exc!r}") from exc
    return MergeResult(merged, None, [], config)
