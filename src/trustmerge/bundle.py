"""Desk-scale task bundles: a shared pre-trained MLP plus K conflicting
fine-tuned experts, with exemplar and test sets, and their on-disk layout.

Fine-tuning always starts from the shared pre-trained checkpoint (trained on
a balanced mixture of all task distributions by default) so every expert
descends from a common ancestor.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

import numpy as np

from .datasets import (
    DEFAULT_EXEMPLARS,
    SyntheticTaskSpec,
    generate_task,
    load_batch_csv,
    save_batch_csv,
)
from .errors import ConfigError, MalformedArtifact, MissingArtifact
from .gradients import estimate_abs_gradient
from .mlp import LabeledBatch, MlpSpec, TrainConfig, _layout, evaluate_accuracy, init_params, train
from .params import Checkpoint, ew_abs, load_checkpoint, save_checkpoint
from .task_vectors import compute_task_vector

# Default label permutations for the 4-task bundle.  Combined with the
# {0, 90, 180, 270} degree rotations these give each task a distinct
# region-to-label assignment that only partially overlaps with the others,
# so the fine-tuned experts genuinely disagree without making the merged
# problem hopeless.
DEFAULT_ROTATIONS = (0.0, 90.0, 180.0, 270.0)
DEFAULT_PERMS = (
    (0, 1, 2, 3),
    (1, 3, 2, 0),
    (2, 3, 1, 0),
    (3, 0, 2, 1),
)
# Irregular center angles break the 4-fold symmetry of the rotations: each
# task occupies its own quarter of the circle, overlapping its neighbours
# only at the sector boundaries, so conflicts are real but not total.
DEFAULT_CENTER_ANGLES = (0.0, 30.0, 60.0, 90.0)


@dataclass(frozen=True)
class BundleConfig:
    seed: int = 0
    num_tasks: int = 4
    num_classes: int = 4
    hidden: tuple[int, ...] = (16, 16)
    rotations: tuple[float, ...] = DEFAULT_ROTATIONS
    label_perms: tuple[tuple[int, ...], ...] = DEFAULT_PERMS
    center_angles: tuple[float, ...] | None = None  # None = auto per class count
    noise_std: float = 0.45
    samples_train: int = 512
    samples_test: int = 256
    exemplar_count: int = DEFAULT_EXEMPLARS
    # Mixture pretraining places theta_pre near the joint optimum of all
    # tasks, the regime the trust-region analysis assumes; base-task-only
    # pretraining is available for ablations.
    pretrain_on_mixture: bool = True
    pretrain: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=60))
    finetune: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=120))

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_tasks < 1:
            raise ValueError("need at least one task")
        if len(self.rotations) < self.num_tasks or len(self.label_perms) < self.num_tasks:
            raise ValueError("need a rotation and label permutation per task")
        # keep the ones the tasks use, so a saved and reloaded config compares equal
        vars(self).update(rotations=tuple(self.rotations[: self.num_tasks]),
                          label_perms=tuple(self.label_perms[: self.num_tasks]))
        # built here so bad sizes or task settings fail as config errors, not mid-run
        object.__setattr__(self, "_mlp_spec", MlpSpec((2, *self.hidden, self.num_classes)))
        for k in range(self.num_tasks):
            self.task_spec(k)

    @property
    def mlp_spec(self) -> MlpSpec:
        return self._mlp_spec

    @property
    def resolved_center_angles(self) -> tuple[float, ...] | None:
        if self.center_angles is not None:
            return self.center_angles
        return DEFAULT_CENTER_ANGLES if self.num_classes == 4 else None

    def task_spec(self, k: int) -> SyntheticTaskSpec:
        return SyntheticTaskSpec(
            task_id=k,
            num_classes=self.num_classes,
            rotation_deg=self.rotations[k],
            label_perm=self.label_perms[k],
            noise_std=self.noise_std,
            samples_train=self.samples_train,
            samples_test=self.samples_test,
            exemplar_count=self.exemplar_count,
            seed=self.seed * 1000 + 101 + k,
            center_angles_deg=self.resolved_center_angles,
        )


def checked_exemplar_count(count: int | None) -> int | None:
    """``count``, an exemplar count per task: None (the full pools) or >= 0."""
    if count is not None and count < 0:
        raise ConfigError(f"exemplar count must be >= 0, got {count}")
    return count


@dataclass(frozen=True)
class TaskBundle:
    config: BundleConfig
    theta_pre: Checkpoint
    experts: list[Checkpoint]
    train_sets: list[LabeledBatch]
    test_sets: list[LabeledBatch]
    exemplar_sets: list[LabeledBatch]
    # Per-bundle memo: gradient estimates per effective exemplar count,
    # sub-bundles per task-id tuple, and the baseline accuracy rows.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_tasks(self) -> int:
        return len(self.experts)

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def task_vectors(self) -> list[Checkpoint]:
        return [compute_task_vector(ck, self.theta_pre) for ck in self.experts]

    def gradient_estimates(self, exemplar_count: int | None = None) -> list[Checkpoint]:
        """Per-task absolute-gradient estimates at the pre-trained point.

        ``exemplar_count`` trims the exemplar pool; 0 switches every task to
        the zero-shot surrogate, the task vector's absolute value, and a
        negative count is a ConfigError.

        Exemplar estimates depend only on ``theta_pre`` and the exemplars, so
        they are computed once per bundle and per effective exemplar count
        (``None`` and any count at or above a pool's size share an entry) and
        memoized; each call returns a new list.  The memo assumes the bundle
        is never mutated: build a new bundle instead.
        """
        if checked_exemplar_count(exemplar_count) == 0:
            return [ew_abs(tv) for tv in self.task_vectors()]
        sizes = tuple(
            len(ex) if exemplar_count is None else min(exemplar_count, len(ex))
            for ex in self.exemplar_sets
        )
        return list(self._memoized(("estimates", sizes), lambda: [
            estimate_abs_gradient(self.theta_pre, ex.take(np.arange(n)))
            for ex, n in zip(self.exemplar_sets, sizes)
        ]))

    def subset(self, task_ids: list[int]) -> "TaskBundle":
        """The bundle of the given tasks, in the given order.  Memoized per
        id sequence, so repeated calls return the same bundle and share its
        memo."""
        pick = lambda xs: [xs[i] for i in task_ids]
        return self._memoized(("subset", tuple(task_ids)), lambda: TaskBundle(
            self.config,
            self.theta_pre,
            pick(self.experts),
            pick(self.train_sets),
            pick(self.test_sets),
            pick(self.exemplar_sets),
        ))

    def baseline_accuracies(self) -> list[tuple[str, list[float]]]:
        """Test accuracies of the pre-trained model on every task
        ("pretrained") and of each expert on its own task ("individual").
        Computed once per bundle; each call returns new lists."""
        rows = self._memoized("baseline_accuracies", lambda: [
            ("pretrained", [evaluate_accuracy(self.theta_pre, t) for t in self.test_sets]),
            ("individual", [evaluate_accuracy(ck, t) for ck, t in zip(self.experts, self.test_sets)]),
        ])
        return [(name, list(accs)) for name, accs in rows]


def _pretrain_data(cfg: BundleConfig) -> LabeledBatch:
    if not cfg.pretrain_on_mixture:
        base_spec = SyntheticTaskSpec(
            task_id=-1,
            num_classes=cfg.num_classes,
            noise_std=cfg.noise_std,
            samples_train=cfg.samples_train,
            samples_test=cfg.samples_test,
            exemplar_count=cfg.exemplar_count,
            seed=cfg.seed * 1000 + 7,
            center_angles_deg=cfg.resolved_center_angles,
        )
        base_train, _, _ = generate_task(base_spec)
        return base_train
    # balanced sample from every task's distribution, drawn with seeds
    # disjoint from the fine-tuning splits
    parts = []
    per_task = max(1, cfg.samples_train // cfg.num_tasks)
    for k in range(cfg.num_tasks):
        spec = replace(
            cfg.task_spec(k),
            samples_train=per_task,
            samples_test=1,
            exemplar_count=0,
            seed=cfg.seed * 1000 + 601 + k,
        )
        tr, _, _ = generate_task(spec)
        parts.append(tr)
    inputs = np.concatenate([p.inputs for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    order = np.random.default_rng(cfg.seed * 1000 + 5).permutation(len(labels))
    return LabeledBatch(inputs[order], labels[order])


def make_bundle(cfg: BundleConfig) -> TaskBundle:
    """Pre-train on the task mixture (or the base task), then fine-tune one
    expert per task from the shared pre-trained checkpoint."""
    base_train = _pretrain_data(cfg)
    theta_init = init_params(cfg.mlp_spec, seed=cfg.seed * 1000 + 13)
    theta_pre = train(theta_init, base_train, replace(cfg.pretrain, seed=cfg.seed * 1000 + 17))

    experts, trains, tests, exemplars = [], [], [], []
    for k in range(cfg.num_tasks):
        tr, te, ex = generate_task(cfg.task_spec(k))
        theta_k = train(theta_pre, tr, replace(cfg.finetune, seed=cfg.seed * 1000 + 31 + k))
        experts.append(theta_k)
        trains.append(tr)
        tests.append(te)
        exemplars.append(ex)
    return TaskBundle(cfg, theta_pre, experts, trains, tests, exemplars)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_bundle(bundle: TaskBundle, out_dir) -> None:
    """Checkpoints as TMRG, datasets as CSV, and a hash manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []

    def emit(name: str, save, value) -> None:
        save(value, out / name)
        files.append(out / name)

    emit("theta_pre.tmrg", save_checkpoint, bundle.theta_pre)
    for k in range(bundle.num_tasks):
        emit(f"task{k}.tmrg", save_checkpoint, bundle.experts[k])
        emit(f"task{k}_train.csv", save_batch_csv, bundle.train_sets[k])
        emit(f"task{k}_test.csv", save_batch_csv, bundle.test_sets[k])
        emit(f"task{k}_exemplars.csv", save_batch_csv, bundle.exemplar_sets[k])
    emit("bundle_config.txt", _save_config, bundle.config)

    with open(out / "manifest.txt", "w") as fh:
        for path in files:
            fh.write(f"{_sha256(path)}  {path.name}\n")


def _parse_config_file(path: Path) -> dict[str, str]:
    out = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {number} {line!r} is not key=value")
        out[key.strip()] = value.strip()
    return out


def _flag(text: str) -> bool:
    """``true/false``, ``1/0`` or ``yes/no``, in any case."""
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true/false/1/0/yes/no, got {text!r}")
    return value in ("1", "true", "yes")


def _tuple_of(parse, sep=","):
    return lambda text: tuple(parse(part) for part in text.split(sep))


def _joined(fmt, sep=","):
    return lambda values: sep.join(fmt(v) for v in values)


# bundle_config.txt, one key per line in this order: key -> (the BundleConfig
# field it holds, "outer.inner" inside a TrainConfig; its parser; its format).
# A None value is written, and an empty value read, as "keep the default".
_CONFIG_KEYS = {
    "seed": ("seed", int, str),
    "num_tasks": ("num_tasks", int, str),
    "num_classes": ("num_classes", int, str),
    "hidden": ("hidden", _tuple_of(int), _joined(str)),
    "rotations": ("rotations", _tuple_of(float), _joined(repr)),
    "label_perms": ("label_perms", _tuple_of(_tuple_of(int), ";"), _joined(_joined(str), ";")),
    "center_angles": ("center_angles", _tuple_of(float), _joined(repr)),
    "noise_std": ("noise_std", float, repr),
    "samples_train": ("samples_train", int, str),
    "samples_test": ("samples_test", int, str),
    "exemplar_count": ("exemplar_count", int, str),
    "pretrain_on_mixture": ("pretrain_on_mixture", _flag, str),
    "pretrain_epochs": ("pretrain.epochs", int, str),
    "pretrain_batch_size": ("pretrain.batch_size", int, str),
    "pretrain_learning_rate": ("pretrain.learning_rate", float, repr),
    "finetune_epochs": ("finetune.epochs", int, str),
    "finetune_batch_size": ("finetune.batch_size", int, str),
    "finetune_learning_rate": ("finetune.learning_rate", float, repr),
}


def _save_config(cfg: BundleConfig, path: Path) -> None:
    with open(path, "w") as fh:
        for key, (field_path, _, fmt) in _CONFIG_KEYS.items():
            value = reduce(getattr, field_path.split("."), cfg)
            fh.write(f"{key}={'' if value is None else fmt(value)}\n")


def bundle_config_from_mapping(kv: dict[str, str]) -> BundleConfig:
    """Build a BundleConfig from flat key=value strings (file or CLI flags).
    An empty value keeps the default; an unknown key is a ValueError."""
    unknown = sorted(set(kv) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    top, nested = {}, defaultdict(dict)
    for key, value in kv.items():
        if value != "":
            field_path, parse, _ = _CONFIG_KEYS[key]
            outer, _, name = field_path.rpartition(".")
            (nested[outer] if outer else top)[name] = parse(value)
    cfg = BundleConfig(**top)
    return replace(cfg, **{outer: replace(getattr(cfg, outer), **kw) for outer, kw in nested.items()})


def _bundle_files(cfg: BundleConfig) -> set[str]:
    tasks = range(cfg.num_tasks)
    return {"bundle_config.txt", "theta_pre.tmrg"} | {f"task{k}.tmrg" for k in tasks} | {
        f"task{k}_{split}.csv" for k in tasks for split in ("train", "test", "exemplars")
    }


def _load_batch(path: Path, rows: int, cfg: BundleConfig) -> LabeledBatch:
    batch = load_batch_csv(path)
    if len(batch) != rows:
        raise MalformedArtifact(f"{path}: {len(batch)} rows, the bundle config says {rows}")
    if batch.inputs.shape[1] != cfg.mlp_spec.input_dim:
        raise MalformedArtifact(f"{path}: {batch.inputs.shape[1]} input columns")
    if np.any(batch.labels >= cfg.num_classes):
        raise MalformedArtifact(f"{path}: label outside the {cfg.num_classes} classes")
    return batch


def _load_model(path: Path, cfg: BundleConfig) -> Checkpoint:
    ckpt = load_checkpoint(path)
    if ckpt.layout != _layout(cfg.mlp_spec):
        raise MalformedArtifact(f"{path}: not the layout of a {cfg.mlp_spec.layer_sizes} network")
    return ckpt


def load_bundle(path) -> TaskBundle:
    """Load a bundle written by save_bundle.  The manifest must be UTF-8 and
    list exactly the files the bundle config implies, each once and with a
    matching hash; the checkpoints must have the layout of the config's
    network, and every CSV the rows, input columns and labels it implies."""
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise MissingArtifact(str(manifest))
    try:
        entries = [line.partition("  ")[::2] for line in manifest.read_text("utf-8").splitlines()]
    except UnicodeDecodeError as exc:
        raise MalformedArtifact(f"{manifest}: {exc}") from exc
    digests = {name: digest for digest, name in entries}
    if len(digests) != len(entries):
        raise MalformedArtifact(f"{manifest} lists a file more than once")

    def verified(name: str) -> Path:
        if name not in digests:
            raise MalformedArtifact(f"{manifest} does not list {name}")
        target = root / name
        if not target.is_file():
            raise MissingArtifact(str(target))
        if _sha256(target) != digests[name]:
            raise MissingArtifact(f"{target} does not match its manifest hash")
        return target

    try:
        cfg = bundle_config_from_mapping(_parse_config_file(verified("bundle_config.txt")))
    except ValueError as exc:
        raise MalformedArtifact(f"{root / 'bundle_config.txt'}: {exc}") from exc
    expected = _bundle_files(cfg)
    if set(digests) != expected:
        raise MalformedArtifact(
            f"{manifest} lists {sorted(set(digests) - expected)} and omits "
            f"{sorted(expected - set(digests))}"
        )
    for name in sorted(expected - {"bundle_config.txt"}):
        verified(name)
    theta_pre = _load_model(root / "theta_pre.tmrg", cfg)
    exemplar_rows = min(cfg.exemplar_count, cfg.samples_train)
    experts, trains, tests, exemplars = [], [], [], []
    for k in range(cfg.num_tasks):
        experts.append(_load_model(root / f"task{k}.tmrg", cfg))
        trains.append(_load_batch(root / f"task{k}_train.csv", cfg.samples_train, cfg))
        tests.append(_load_batch(root / f"task{k}_test.csv", cfg.samples_test, cfg))
        exemplars.append(_load_batch(root / f"task{k}_exemplars.csv", exemplar_rows, cfg))
    return TaskBundle(cfg, theta_pre, experts, trains, tests, exemplars)
