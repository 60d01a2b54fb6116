"""Merging backends: weight averaging, task arithmetic, trust-region masked
task arithmetic (tatr), ties, ties+tatr, and entropy-trained task-wise
coefficients on top of the trust region (ada_tatr)."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .bundle import TaskBundle, checked_exemplar_count
from .errors import ConfigError, IncompatibleShapes, MalformedArtifact, MissingArtifact
from .mlp import LabeledBatch, entropy_loss, is_count, is_finite_number
from .params import (
    Checkpoint,
    ew_dot,
    ew_scale,
    load_checkpoint,
    save_checkpoint,
    stack,
    sum_in_order,
    sum_rows,
)
from .trust_region import VARIANTS, TrustRegionMask, build_mask, compute_sensitivity

METHODS = ("average", "task_arithmetic", "tatr", "ties", "ties_tatr", "ada_tatr")


@dataclass(frozen=True)
class AdaConfig:
    steps: int = 100
    learning_rate: float = 0.01
    init_lambda: float = 0.3

    def __post_init__(self):
        if not (is_count(self.steps) and self.steps >= 0):
            raise ConfigError(f"ada steps must be an integer >= 0, got {self.steps!r}")
        if not (is_finite_number(self.learning_rate) and is_finite_number(self.init_lambda)):
            raise ConfigError("ada learning rate and initial lambda must be finite")


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
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if not (is_finite_number(self.lam) and self.lam > 0):
            raise ConfigError("lambda must be finite and positive")
        if not (is_finite_number(self.tau) and 0.0 <= self.tau <= 1.0):
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau!r}")
        if not (is_finite_number(self.ties_trim_keep) and 0.0 < self.ties_trim_keep <= 1.0):
            raise ConfigError(f"ties_trim_keep must lie in (0, 1], got {self.ties_trim_keep!r}")
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


def _shifted(theta_pre: Checkpoint, step: np.ndarray) -> Checkpoint:
    return Checkpoint.from_flat(theta_pre, theta_pre.flat() + step)


def weight_average(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Coordinate-wise arithmetic mean of compatible checkpoints."""
    if not checkpoints:
        raise IncompatibleShapes("no checkpoints to average")
    return ew_scale(sum_in_order(checkpoints), 1.0 / len(checkpoints))


def task_arithmetic(theta_pre: Checkpoint, tvs: list[Checkpoint], lam: float) -> MergeResult:
    """theta_pre + lam * sum of deltas, summed in ascending task order."""
    step = lam * sum_rows(stack(tvs, theta_pre))
    return MergeResult(_shifted(theta_pre, step), None, [lam] * len(tvs))


def tatr_merge(
    theta_pre: Checkpoint,
    tvs: list[Checkpoint],
    grads: list[Checkpoint],
    lam: float,
    tau: float,
    variant: str = "standard",
) -> MergeResult:
    """Task arithmetic restricted to the trust region.

    With tau=0 the mask is all ones and the output is bitwise identical to
    plain task arithmetic (x * 1.0 == x and the summation order is shared).
    """
    deltas = stack(tvs, theta_pre)
    mask = build_mask(compute_sensitivity(grads, tvs, variant), tau)
    step = lam * sum_rows(deltas * mask.mask.flat())
    return MergeResult(_shifted(theta_pre, step), mask, [lam] * len(tvs))


def ties_phi(deltas: np.ndarray, trim_keep: float) -> tuple[np.ndarray, np.ndarray]:
    """Trim / elect-sign / align step of ties merging on the (K, N) task
    vectors; returns the (K, N) aligned vectors and the N elected signs.

    Trim keeps, per task, the ceil(trim_keep*N) globally largest |values|
    (ties by ascending flat index); the elected sign at each coordinate is
    the sign of the trimmed values summed in ascending task order (0 maps to
    +1); alignment zeroes coordinates whose trimmed sign disagrees with the
    elected sign.
    """
    if not 0.0 < trim_keep <= 1.0:
        raise ConfigError(f"ties_trim_keep must lie in (0, 1], got {trim_keep!r}")
    keep = int(np.ceil(trim_keep * deltas.shape[1]))
    kept_idx = np.argsort(-np.abs(deltas), axis=1, kind="stable")[:, :keep]
    trimmed = np.zeros(deltas.shape)
    np.put_along_axis(trimmed, kept_idx, np.take_along_axis(deltas, kept_idx, axis=1), axis=1)
    elected = np.where(sum_rows(trimmed) < 0.0, -1.0, 1.0)
    agree = np.sign(trimmed) * elected >= 0.0  # zeros never disagree
    return np.where(agree, trimmed, 0.0), elected


def _disjoint_mean(aligned: np.ndarray) -> np.ndarray:
    """Per coordinate: mean of the aligned nonzero values, summed in ascending
    task order (0 when none survive)."""
    counts = (aligned != 0.0).sum(axis=0)
    sums = sum_rows(aligned)
    return np.divide(sums, counts, out=np.zeros(sums.shape), where=counts > 0)


def ties_merge(
    theta_pre: Checkpoint, tvs: list[Checkpoint], lam: float, trim_keep: float
) -> MergeResult:
    aligned, _ = ties_phi(stack(tvs, theta_pre), trim_keep)
    return MergeResult(_shifted(theta_pre, lam * _disjoint_mean(aligned)), None, [lam] * len(tvs))


def ties_tatr(
    theta_pre: Checkpoint,
    tvs: list[Checkpoint],
    grads: list[Checkpoint],
    lam: float,
    tau: float,
    trim_keep: float,
    mask_from_trimmed: bool = False,
    variant: str = "standard",
) -> MergeResult:
    """Ties merging restricted to the trust region.

    The mask defaults to the sensitivity of the original, un-trimmed task
    vectors; ``mask_from_trimmed`` switches to the trimmed ones.
    """
    aligned, _ = ties_phi(stack(tvs, theta_pre), trim_keep)
    if mask_from_trimmed:
        tvs = [Checkpoint.from_flat(theta_pre, row) for row in aligned]
    mask = build_mask(compute_sensitivity(grads, tvs, variant), tau)
    step = lam * (_disjoint_mean(aligned) * mask.mask.flat())
    return MergeResult(_shifted(theta_pre, step), mask, [lam] * len(tvs))


def _assemble(theta_pre: Checkpoint, masked: list[Checkpoint], coeffs: np.ndarray) -> Checkpoint:
    rows = stack(masked, theta_pre)
    # equal coefficients factor out so a shared-lambda merge stays bitwise
    # identical to the tatr path
    if np.all(coeffs == coeffs[0]):
        return _shifted(theta_pre, float(coeffs[0]) * sum_rows(rows))
    return _shifted(theta_pre, sum_rows(coeffs[:, None] * rows))


def ada_coefficient_gradient(
    theta_pre: Checkpoint,
    masked: list[Checkpoint],
    coeffs: np.ndarray,
    unlabeled: list[LabeledBatch],
) -> tuple[float, np.ndarray]:
    """Summed prediction entropy over the unlabeled pools and its analytic
    gradient in the per-task coefficients (the merge is affine in each)."""
    merged = _assemble(theta_pre, masked, coeffs)
    losses, grads = zip(*(entropy_loss(merged, batch) for batch in unlabeled))
    grad_theta = sum_in_order(grads)
    return sum(losses), np.array([ew_dot(grad_theta, m) for m in masked])


def ada_tatr(
    theta_pre: Checkpoint,
    tvs: list[Checkpoint],
    grads: list[Checkpoint],
    tau: float,
    unlabeled: list[LabeledBatch],
    ada: AdaConfig,
    variant: str = "standard",
) -> MergeResult:
    """Task-wise coefficients trained by full-batch gradient descent on the
    summed prediction entropy, merging only inside the trust region."""
    deltas = stack(tvs, theta_pre)
    if not unlabeled or any(len(b) == 0 for b in unlabeled):
        raise IncompatibleShapes("need a nonempty unlabeled pool per task")
    mask = build_mask(compute_sensitivity(grads, tvs, variant), tau)
    masked = [Checkpoint.from_flat(theta_pre, row) for row in deltas * mask.mask.flat()]
    coeffs = np.full(len(tvs), float(ada.init_lambda))
    for _ in range(ada.steps):
        _, dcoeffs = ada_coefficient_gradient(theta_pre, masked, coeffs, unlabeled)
        coeffs = coeffs - ada.learning_rate * dcoeffs
    merged = _assemble(theta_pre, masked, coeffs)
    return MergeResult(merged, mask, [float(c) for c in coeffs])


def merge_bundle(
    bundle: TaskBundle, cfg: MergeConfig, exemplar_count: int | None = None
) -> MergeResult:
    """Run the configured merge method on a bundle (or bundle subset); the
    result records ``cfg`` and ``exemplar_count``, which must be None or >= 0
    even for the methods that use no exemplars."""
    checked_exemplar_count(exemplar_count)
    pre, tvs, k = bundle.theta_pre, bundle.task_vectors(), bundle.num_tasks
    if cfg.method == "average":
        result = MergeResult(weight_average(bundle.experts), None, [1.0 / k] * k)
    elif cfg.method == "task_arithmetic":
        result = task_arithmetic(pre, tvs, cfg.lam)
    elif cfg.method == "ties":
        result = ties_merge(pre, tvs, cfg.lam, cfg.ties_trim_keep)
    else:  # the trust-region methods
        grads = bundle.gradient_estimates(exemplar_count)
        if cfg.method == "tatr":
            result = tatr_merge(pre, tvs, grads, cfg.lam, cfg.tau, cfg.sensitivity_variant)
        elif cfg.method == "ties_tatr":
            result = ties_tatr(pre, tvs, grads, cfg.lam, cfg.tau, cfg.ties_trim_keep,
                               cfg.ties_mask_from_trimmed, cfg.sensitivity_variant)
        else:  # ada_tatr: the per-task test inputs serve as the unlabeled pools
            result = ada_tatr(pre, tvs, grads, cfg.tau, bundle.test_sets, cfg.ada,
                              cfg.sensitivity_variant)
    return replace(result, config=cfg, exemplars=exemplar_count)


def save_merge_result(result: MergeResult, out_dir) -> None:
    """merged.tmrg, mask.tmrg for the trust-region methods, and run.json: the
    config and exemplar count, the coefficients, and the mask's epsilon (null
    when nothing is excluded) and excluded count.  run.json is strict JSON and
    holds no paths or times, so a repeated merge writes the same bytes."""
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
    if mask is not None:
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
