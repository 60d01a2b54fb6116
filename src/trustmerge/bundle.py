"""Desk-scale task bundles: a shared pre-trained MLP plus K conflicting
fine-tuned experts, with exemplar and test sets, and their on-disk layout.

Fine-tuning always starts from the shared pre-trained checkpoint (trained on
a balanced mixture of all task distributions by default) so every expert
descends from a common ancestor.  The K experts are fine-tuned in lockstep by
one ``train_experts`` call, bit for bit as K separate ``train`` runs would.
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
from .errors import ConfigError, IncompatibleShapes, MalformedArtifact, MissingArtifact
from .gradients import estimate_abs_gradient
from .mlp import (LabeledBatch, MlpSpec, TrainConfig, _layout, checked_tuple, evaluate_accuracy,
                  init_params, is_count, plain_fields, train, train_experts)
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
        plain_fields(self)
        if not (is_count(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if not (is_count(self.num_tasks) and self.num_tasks >= 1):
            raise ConfigError(f"need at least one task, got {self.num_tasks!r}")
        if not (isinstance(self.pretrain_on_mixture, bool) and isinstance(self.pretrain, TrainConfig)
                and isinstance(self.finetune, TrainConfig)):
            raise ConfigError(f"pretrain_on_mixture must be a bool and pretrain and finetune "
                              f"TrainConfigs, got {self.pretrain_on_mixture!r}, {self.pretrain!r}, "
                              f"{self.finetune!r}")
        hidden, rotations, perms = (checked_tuple(getattr(self, name), name)
                                    for name in ("hidden", "rotations", "label_perms"))
        if len(rotations) < self.num_tasks or len(perms) < self.num_tasks:
            raise ConfigError("need a rotation and label permutation per task")
        # tuples of the values the tasks use, so the config hashes and a saved and
        # reloaded config compares equal.  The network and the task specs are built
        # here so bad settings fail as config errors, not mid-run; each task's spec
        # checks its permutation and makes it a tuple.
        vars(self).update(
            hidden=hidden,
            rotations=rotations[: self.num_tasks],
            label_perms=perms[: self.num_tasks],
            center_angles=None if self.center_angles is None
            else checked_tuple(self.center_angles, "center_angles"),
            _mlp_spec=MlpSpec((2, *hidden, self.num_classes)),
        )
        vars(self).update(label_perms=tuple(self.task_spec(k).label_perm for k in range(self.num_tasks)))

    @property
    def mlp_spec(self) -> MlpSpec:
        return self._mlp_spec

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
            center_angles_deg=DEFAULT_CENTER_ANGLES
            if self.center_angles is None and self.num_classes == 4 else self.center_angles,
        )


def checked_exemplar_count(count: int | None) -> int | None:
    """``count``, an exemplar count per task: None (the full pools) or an int >= 0."""
    if count is not None and not (is_count(count) and count >= 0):
        raise ConfigError(f"exemplar count must be None or an integer >= 0, got {count!r}")
    return None if count is None else int(count)


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
    """A shuffled, balanced sample of every task's distribution, or the
    unrotated, unpermuted base task; seeds disjoint from the fine-tuning
    splits.  Only train splits are used, and each is drawn first."""
    if cfg.pretrain_on_mixture:
        per_task = max(1, cfg.samples_train // cfg.num_tasks)
        specs = [replace(cfg.task_spec(k), samples_train=per_task, seed=cfg.seed * 1000 + 601 + k)
                 for k in range(cfg.num_tasks)]
    else:
        specs = [replace(cfg.task_spec(0), task_id=-1, rotation_deg=0.0, label_perm=None,
                         seed=cfg.seed * 1000 + 7)]
    parts = [generate_task(replace(spec, samples_test=1, exemplar_count=0))[0] for spec in specs]
    data = LabeledBatch(np.concatenate([p.inputs for p in parts]),
                        np.concatenate([p.labels for p in parts]))
    if cfg.pretrain_on_mixture:
        data = data.take(np.random.default_rng(cfg.seed * 1000 + 5).permutation(len(data)))
    return data


def make_bundle(cfg: BundleConfig) -> TaskBundle:
    """Pre-train on the task mixture (or the base task), then fine-tune one
    expert per task from the shared pre-trained checkpoint."""
    base_train = _pretrain_data(cfg)
    theta_init = init_params(cfg.mlp_spec, seed=cfg.seed * 1000 + 13)
    theta_pre = train(theta_init, base_train, replace(cfg.pretrain, seed=cfg.seed * 1000 + 17))

    splits = [generate_task(cfg.task_spec(k)) for k in range(cfg.num_tasks)]
    experts = train_experts(theta_pre, [tr for tr, _, _ in splits],
                            [replace(cfg.finetune, seed=cfg.seed * 1000 + 31 + k)
                             for k in range(cfg.num_tasks)])
    return TaskBundle(cfg, theta_pre, experts, *map(list, zip(*splits)))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_bundle(bundle: TaskBundle, out_dir) -> None:
    """Checkpoints as TMRG, datasets as CSV, and a hash manifest."""
    if bundle.num_tasks != bundle.config.num_tasks:
        raise IncompatibleShapes("a subset bundle cannot be saved: its config names every task")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(bundle.theta_pre, out / "theta_pre.tmrg")
    for k in range(bundle.num_tasks):
        save_checkpoint(bundle.experts[k], out / f"task{k}.tmrg")
        save_batch_csv(bundle.train_sets[k], out / f"task{k}_train.csv")
        save_batch_csv(bundle.test_sets[k], out / f"task{k}_test.csv")
        save_batch_csv(bundle.exemplar_sets[k], out / f"task{k}_exemplars.csv")
    _save_config(bundle.config, out / "bundle_config.txt")
    with open(out / "manifest.txt", "w") as fh:
        for name in _bundle_files(bundle.config):
            fh.write(f"{_sha256(out / name)}  {name}\n")


def _parse_config_file(path: Path) -> dict[str, str]:
    """The key=value lines of a config file; a ConfigError naming the file if
    it is not UTF-8 or has a line of another form."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {number} {line!r} is not key=value")
        out[key.strip()] = value.strip()
    return out


def _flag(text: str) -> bool:
    """``true/false``, ``1/0`` or ``yes/no``, in any case."""
    value = text.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ConfigError(f"expected true/false/1/0/yes/no, got {text!r}")
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
    An empty value keeps the default; an unknown key, a value that does not
    parse and a setting out of range are ConfigErrors."""
    unknown = sorted(set(kv) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    top, nested = {}, defaultdict(dict)
    for key, value in kv.items():
        if value != "":
            field_path, parse, _ = _CONFIG_KEYS[key]
            outer, _, name = field_path.rpartition(".")
            try:
                (nested[outer] if outer else top)[name] = parse(value)
            except ConfigError:
                raise
            except ValueError as exc:  # int() or float() of text that is not a number
                raise ConfigError(f"{key}: {exc}") from exc
    cfg = BundleConfig(**top)
    return replace(cfg, **{outer: replace(getattr(cfg, outer), **kw) for outer, kw in nested.items()})


def _bundle_files(cfg: BundleConfig) -> list[str]:
    """The files of a bundle, in manifest order."""
    per_task = (f"task{k}{suffix}" for k in range(cfg.num_tasks)
                for suffix in (".tmrg", "_train.csv", "_test.csv", "_exemplars.csv"))
    return ["theta_pre.tmrg", *per_task, "bundle_config.txt"]


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
    list exactly the files the bundle config implies, each once and in any
    order; each file must match its hash, checked just before it is parsed.
    The checkpoints must have the layout of the config's network, and every
    CSV the rows, input columns and labels it implies."""
    root = Path(path)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise MissingArtifact(str(manifest))
    try:
        entries = [line.partition("  ")[::2] for line in manifest.read_text("utf-8").splitlines()]
    except UnicodeDecodeError as exc:
        raise MalformedArtifact(f"{manifest}: {exc}") from exc
    digests = {name: digest for digest, name in entries}

    def verified(name: str) -> Path:
        if name not in digests:
            raise MalformedArtifact(f"{manifest} does not list {name}")
        target = root / name
        if not target.is_file():
            raise MissingArtifact(str(target))
        if _sha256(target) != digests[name]:
            raise MalformedArtifact(f"{target} does not match its manifest hash")
        return target

    config = verified("bundle_config.txt")
    try:
        kv = _parse_config_file(config)
    except ConfigError as exc:  # its message names the file
        raise MalformedArtifact(exc.args[0]) from exc
    try:
        cfg = bundle_config_from_mapping(kv)
    except ConfigError as exc:
        raise MalformedArtifact(f"{config}: {exc.args[0]}") from exc
    expected = _bundle_files(cfg)
    if sorted(name for _, name in entries) != sorted(expected):
        raise MalformedArtifact(f"{manifest} does not list each of {', '.join(expected)} once")
    theta_pre = _load_model(verified("theta_pre.tmrg"), cfg)
    exemplar_rows = min(cfg.exemplar_count, cfg.samples_train)
    experts, trains, tests, exemplars = [], [], [], []
    for k in range(cfg.num_tasks):
        experts.append(_load_model(verified(f"task{k}.tmrg"), cfg))
        trains.append(_load_batch(verified(f"task{k}_train.csv"), cfg.samples_train, cfg))
        tests.append(_load_batch(verified(f"task{k}_test.csv"), cfg.samples_test, cfg))
        exemplars.append(_load_batch(verified(f"task{k}_exemplars.csv"), exemplar_rows, cfg))
    return TaskBundle(cfg, theta_pre, experts, trains, tests, exemplars)
