"""Synthetic conflicting-task generation: rotated, relabeled Gaussian blobs.

All tasks share the same class centers on a circle; a task is a rotation of
the input distribution plus a permutation of the class labels.  Distinct
rotation/permutation combinations force genuinely conflicting fine-tuned
models from a common starting point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedArtifact
from .mlp import LabeledBatch

DEFAULT_EXEMPLARS = 128
_CENTER_RADIUS = 2.0


@dataclass(frozen=True)
class SyntheticTaskSpec:
    task_id: int
    num_classes: int = 4
    rotation_deg: float = 0.0
    label_perm: tuple[int, ...] | None = None  # None = identity
    noise_std: float = 0.45
    samples_train: int = 512
    samples_test: int = 256
    exemplar_count: int = DEFAULT_EXEMPLARS
    seed: int = 0
    center_angles_deg: tuple[float, ...] | None = None  # None = evenly spaced

    def __post_init__(self):
        if not 0.0 <= self.rotation_deg < 360.0:
            raise ValueError("rotation must lie in [0, 360)")
        if not np.isfinite(self.noise_std) or self.noise_std < 0:
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std!r}")
        if self.samples_train <= 0 or self.samples_test <= 0:
            raise ValueError("sample counts must be positive")
        if self.exemplar_count < 0:
            raise ValueError(f"exemplar_count must be >= 0, got {self.exemplar_count}")
        perm = self.label_perm
        if perm is None:
            perm = tuple(range(self.num_classes))
        else:
            perm = tuple(int(p) for p in perm)
            if len(perm) != self.num_classes or sorted(perm) != list(range(len(perm))):
                raise ValueError(f"not a valid permutation of {self.num_classes} labels")
        object.__setattr__(self, "label_perm", perm)
        if self.center_angles_deg is not None:
            if len(self.center_angles_deg) != self.num_classes:
                raise ValueError("need one center angle per class")
            angles = tuple(float(a) for a in self.center_angles_deg)
            if not np.all(np.isfinite(angles)):
                raise ValueError(f"center angles must be finite, got {angles!r}")
            object.__setattr__(self, "center_angles_deg", angles)


def class_centers(num_classes: int, angles_deg: tuple[float, ...] | None = None) -> np.ndarray:
    """Fixed 2-D centers on a circle; evenly spaced unless angles are given."""
    if angles_deg is None:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    else:
        angles = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    return _CENTER_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _rotation_matrix(deg: float) -> np.ndarray:
    rad = np.deg2rad(deg)
    c, s = np.cos(rad), np.sin(rad)
    return np.array([[c, -s], [s, c]])


def _sample_split(spec: SyntheticTaskSpec, rng: np.random.Generator, n: int) -> LabeledBatch:
    centers = class_centers(spec.num_classes, spec.center_angles_deg) @ _rotation_matrix(
        spec.rotation_deg
    ).T
    base_labels = rng.integers(0, spec.num_classes, size=n)
    points = centers[base_labels] + rng.normal(0.0, spec.noise_std, size=(n, 2))
    labels = np.asarray(spec.label_perm)[base_labels]
    return LabeledBatch(points, labels)


def generate_task(spec: SyntheticTaskSpec) -> tuple[LabeledBatch, LabeledBatch, LabeledBatch]:
    """Seeded (train, test, exemplars); exemplars are a subsample of train."""
    rng = np.random.default_rng(spec.seed)
    train = _sample_split(spec, rng, spec.samples_train)
    test = _sample_split(spec, rng, spec.samples_test)
    k = min(spec.exemplar_count, len(train))
    idx = np.sort(rng.choice(len(train), size=k, replace=False)) if k else np.empty(0, np.int64)
    exemplars = train.take(idx.astype(np.int64))
    return train, test, exemplars


def save_batch_csv(batch: LabeledBatch, path) -> None:
    """Header "x0,x1,...,label", one row per sample."""
    dim = batch.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dim)] + ["label"])
        for row, label in zip(batch.inputs, batch.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_batch_csv(path) -> LabeledBatch:
    """Read a file written by :func:`save_batch_csv`; any other shape of
    contents raises :class:`MalformedArtifact`."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            dim = len(header) - 1
            if dim < 1 or header != [f"x{i}" for i in range(dim)] + ["label"]:
                raise MalformedArtifact(f"{path}: header is not x0,...,label")
            inputs, labels = [], []
            for row in reader:
                try:
                    if len(row) != dim + 1:
                        raise ValueError(f"{len(row)} fields, expected {dim + 1}")
                    inputs.append([float(v) for v in row[:dim]])
                    labels.append(int(row[dim]))
                    if not 0 <= labels[-1] < 2**63:
                        raise ValueError(f"label {labels[-1]} is not a class index")
                except ValueError as exc:
                    raise MalformedArtifact(f"{path}, line {reader.line_num}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:  # bytes that do not decode or parse as CSV text
        raise MalformedArtifact(f"{path}: {exc}") from exc
    return LabeledBatch(
        np.asarray(inputs, dtype=np.float64).reshape(len(labels), dim),
        np.asarray(labels, dtype=np.int64),
    )
