"""Merging backends: weight averaging, task arithmetic, trust-region masked
task arithmetic (tatr), ties, ties+tatr, and entropy-trained task-wise
coefficients on top of the trust region (ada_tatr)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyList, EmptyUnlabeledSet, IncompatibleShapes, TrimOutOfRange
from .gradients import GradientEstimate
from .mlp import LabeledBatch, entropy_loss
from .params import (
    Checkpoint,
    ElementwiseMap,
    ew_combine,
    ew_dot,
    ew_scale,
    save_checkpoint,
    sum_in_order,
    zeros_like,
)
from .task_vectors import TaskVector
from .trust_region import Sensitivity, TrustRegionMask, build_mask, compute_sensitivity

METHODS = ("average", "task_arithmetic", "tatr", "ties", "ties_tatr", "ada_tatr")


@dataclass(frozen=True)
class AdaConfig:
    steps: int = 100
    learning_rate: float = 0.01
    init_lambda: float = 0.3


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
            raise ValueError(f"unknown method {self.method!r}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError("lambda must be finite and positive")


@dataclass(frozen=True)
class MergeResult:
    merged: Checkpoint
    mask_used: TrustRegionMask | None
    coefficients: list[float]
    provenance: dict[str, str]


def _check_tvs(tvs: list[TaskVector]) -> Checkpoint:
    if not tvs:
        raise EmptyList("no task vectors")
    ref = tvs[0].delta
    for tv in tvs[1:]:
        if not tv.delta.compatible(ref):
            raise IncompatibleShapes("task vectors disagree in structure")
    return ref


def weight_average(checkpoints: list[Checkpoint]) -> Checkpoint:
    """Coordinate-wise arithmetic mean of compatible checkpoints."""
    if not checkpoints:
        raise EmptyList("no checkpoints to average")
    return ew_scale(sum_in_order(checkpoints), 1.0 / len(checkpoints))


def _provenance(method: str, **kv) -> dict[str, str]:
    out = {"method": method}
    out.update({k: str(v) for k, v in kv.items()})
    return out


def task_arithmetic(theta_pre: Checkpoint, tvs: list[TaskVector], lam: float) -> MergeResult:
    """theta_pre + lam * sum of deltas, summed in ascending task order."""
    _check_tvs(tvs)
    merged = ew_combine(theta_pre, ew_scale(sum_in_order([tv.delta for tv in tvs]), lam), "add")
    return MergeResult(merged, None, [lam] * len(tvs), _provenance("task_arithmetic", **{"lambda": lam}))


def _masked_deltas(tvs: list[TaskVector], mask: TrustRegionMask) -> list[ElementwiseMap]:
    return [ew_combine(tv.delta, mask.mask, "hadamard") for tv in tvs]


def tatr_merge(
    theta_pre: Checkpoint,
    tvs: list[TaskVector],
    grads: list[GradientEstimate],
    lam: float,
    tau: float,
    variant: str = "standard",
) -> MergeResult:
    """Task arithmetic restricted to the trust region.

    With tau=0 the mask is all ones and the output is bitwise identical to
    plain task arithmetic (x * 1.0 == x and the summation order is shared).
    """
    _check_tvs(tvs)
    omega = compute_sensitivity(grads, tvs, variant)
    mask = build_mask(omega, tau)
    merged = ew_combine(
        theta_pre, ew_scale(sum_in_order(_masked_deltas(tvs, mask)), lam), "add"
    )
    source = grads[0].source if grads else "none"
    prov = _provenance("tatr", tau=tau, grad_source=source, variant=variant, **{"lambda": lam})
    return MergeResult(merged, mask, [lam] * len(tvs), prov)


def ties_phi(
    tvs: list[TaskVector], trim_keep: float
) -> tuple[list[TaskVector], ElementwiseMap]:
    """Trim / elect-sign / align step of ties merging.

    Trim keeps, per task, the ceil(trim_keep*N) globally largest |values|
    (ties by ascending flat index); the elected sign at each coordinate is
    the sign of the summed trimmed values (0 maps to +1); alignment zeroes
    coordinates whose trimmed sign disagrees with the elected sign.
    """
    if not 0.0 < trim_keep <= 1.0:
        raise TrimOutOfRange(repr(trim_keep))
    ref = _check_tvs(tvs)
    flats = np.stack([tv.delta.flat() for tv in tvs])
    keep = int(np.ceil(trim_keep * ref.total_dims))
    kept_idx = np.argsort(-np.abs(flats), axis=1, kind="stable")[:, :keep]
    trimmed = np.zeros_like(flats)
    np.put_along_axis(trimmed, kept_idx, np.take_along_axis(flats, kept_idx, axis=1), axis=1)
    elected = np.where(trimmed.sum(axis=0) < 0.0, -1.0, 1.0)
    agree = np.sign(trimmed) * elected >= 0.0  # zeros never disagree
    aligned = np.where(agree, trimmed, 0.0)
    return (
        [TaskVector(tv.task_id, Checkpoint.from_flat(ref, row)) for tv, row in zip(tvs, aligned)],
        Checkpoint.from_flat(ref, elected),
    )


def _disjoint_mean(aligned: list[TaskVector], ref: Checkpoint) -> ElementwiseMap:
    """Per coordinate: mean of the aligned nonzero values (0 when none survive)."""
    flats = np.stack([tv.delta.flat() for tv in aligned])
    nonzero = flats != 0.0
    counts = nonzero.sum(axis=0)
    sums = flats.sum(axis=0)
    mean = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return Checkpoint.from_flat(ref, mean)


def ties_merge(
    theta_pre: Checkpoint, tvs: list[TaskVector], lam: float, trim_keep: float
) -> MergeResult:
    ref = _check_tvs(tvs)
    aligned, _ = ties_phi(tvs, trim_keep)
    merged = ew_combine(theta_pre, ew_scale(_disjoint_mean(aligned, ref), lam), "add")
    prov = _provenance("ties", trim_keep=trim_keep, **{"lambda": lam})
    return MergeResult(merged, None, [lam] * len(tvs), prov)


def ties_tatr(
    theta_pre: Checkpoint,
    tvs: list[TaskVector],
    grads: list[GradientEstimate],
    lam: float,
    tau: float,
    trim_keep: float,
    mask_from_trimmed: bool = False,
) -> MergeResult:
    """Ties merging restricted to the trust region.

    The mask defaults to the sensitivity of the original, un-trimmed task
    vectors; ``mask_from_trimmed`` switches to the trimmed ones.
    """
    ref = _check_tvs(tvs)
    aligned, _ = ties_phi(tvs, trim_keep)
    mask_tvs = aligned if mask_from_trimmed else tvs
    omega = compute_sensitivity(grads, mask_tvs, "standard")
    mask = build_mask(omega, tau)
    combined = ew_combine(_disjoint_mean(aligned, ref), mask.mask, "hadamard")
    merged = ew_combine(theta_pre, ew_scale(combined, lam), "add")
    source = grads[0].source if grads else "none"
    prov = _provenance(
        "ties_tatr", tau=tau, trim_keep=trim_keep, grad_source=source,
        mask_from_trimmed=mask_from_trimmed, **{"lambda": lam},
    )
    return MergeResult(merged, mask, [lam] * len(tvs), prov)


def _assemble(theta_pre: Checkpoint, masked: list[ElementwiseMap], coeffs: np.ndarray) -> Checkpoint:
    # equal coefficients factor out so a shared-lambda merge stays bitwise
    # identical to the tatr path
    if np.all(coeffs == coeffs[0]):
        return ew_combine(theta_pre, ew_scale(sum_in_order(masked), float(coeffs[0])), "add")
    return ew_combine(
        theta_pre, sum_in_order([ew_scale(m, float(c)) for m, c in zip(masked, coeffs)]), "add"
    )


def ada_coefficient_gradient(
    theta_pre: Checkpoint,
    masked: list[ElementwiseMap],
    coeffs: np.ndarray,
    unlabeled: list[LabeledBatch],
) -> tuple[float, np.ndarray]:
    """Summed prediction entropy over the unlabeled pools and its analytic
    gradient in the per-task coefficients (the merge is affine in each)."""
    merged = _assemble(theta_pre, masked, coeffs)
    total = 0.0
    grad_theta: Checkpoint | None = None
    for batch in unlabeled:
        loss, g = entropy_loss(merged, batch)
        total += loss
        grad_theta = g if grad_theta is None else ew_combine(grad_theta, g, "add")
    assert grad_theta is not None
    dcoeffs = np.array([ew_dot(grad_theta, m) for m in masked])
    return total, dcoeffs


def ada_tatr(
    theta_pre: Checkpoint,
    tvs: list[TaskVector],
    grads: list[GradientEstimate],
    tau: float,
    unlabeled: list[LabeledBatch],
    ada: AdaConfig,
) -> MergeResult:
    """Task-wise coefficients trained by full-batch gradient descent on the
    summed prediction entropy, merging only inside the trust region."""
    _check_tvs(tvs)
    if not unlabeled or any(len(b) == 0 for b in unlabeled):
        raise EmptyUnlabeledSet("need a nonempty unlabeled pool per task")
    omega = compute_sensitivity(grads, tvs, "standard")
    mask = build_mask(omega, tau)
    masked = _masked_deltas(tvs, mask)
    coeffs = np.full(len(tvs), float(ada.init_lambda))
    for _ in range(ada.steps):
        _, dcoeffs = ada_coefficient_gradient(theta_pre, masked, coeffs, unlabeled)
        coeffs = coeffs - ada.learning_rate * dcoeffs
    merged = _assemble(theta_pre, masked, coeffs)
    source = grads[0].source if grads else "none"
    prov = _provenance(
        "ada_tatr", tau=tau, steps=ada.steps, ada_lr=ada.learning_rate,
        init_lambda=ada.init_lambda, grad_source=source,
    )
    return MergeResult(merged, mask, [float(c) for c in coeffs], prov)


def save_merge_result(result: MergeResult, out_dir) -> None:
    """merged.tmrg + optional mask.tmrg + key=value provenance sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.merged, out / "merged.tmrg")
    if result.mask_used is not None:
        save_checkpoint(result.mask_used.mask, out / "mask.tmrg")
    lines = dict(result.provenance)
    lines["coefficients"] = ",".join(repr(c) for c in result.coefficients)
    if result.mask_used is not None:
        lines["tau"] = str(result.mask_used.tau)
        lines["epsilon"] = repr(result.mask_used.epsilon)
        lines["excluded_count"] = str(result.mask_used.excluded_count)
    with open(out / "provenance.txt", "w") as fh:
        for k, v in lines.items():
            fh.write(f"{k}={v}\n")
