"""Six error classes, each named for what the caller must fix, and every
``raise`` in the package names one of them."""

import ast
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

import trustmerge
from trustmerge import errors, mlp
from trustmerge.bundle import BundleConfig, make_bundle
from trustmerge.datasets import SyntheticTaskSpec
from trustmerge.errors import ConfigError, TrustMergeError
from trustmerge.evaluation import landscape, merge_bundle
from trustmerge.merging import AdaConfig, MergeConfig, ties_phi
from trustmerge.mlp import MlpSpec, TrainConfig
from trustmerge.params import Checkpoint
from trustmerge.task_vectors import decompose, percentile_zero_tol
from trustmerge.trust_region import build_mask

from conftest import tiny_bundle_config

SIX = {"TrustMergeError", "ConfigError", "MalformedArtifact", "MissingArtifact",
       "IncompatibleShapes", "NonFiniteValues"}
# functions whose parser raises a ValueError that the same function catches
# and raises again as MalformedArtifact
TRANSLATE_THEIR_OWN_VALUE_ERRORS = {"load_batch_csv"}


def test_errors_defines_exactly_the_six_classes():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == SIX
    assert all(issubclass(getattr(errors, name), TrustMergeError) for name in SIX)
    assert issubclass(ConfigError, ValueError)  # a bad setting is still a ValueError to callers


_VEC = Checkpoint([("x", np.array([1.0, -2.0, 3.0]))])
_FLAT = _VEC.flat()


@functools.cache
def _tiny_bundle():
    return make_bundle(tiny_bundle_config())


def _raises():
    """(file, innermost enclosing function, Raise node) for every raise in the package."""
    found = []

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                found.append((path.name, func, child))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if is_def else func)

    for path in sorted(Path(trustmerge.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path, None)
    return found


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_every_raise_names_a_toolkit_error_or_re_raises():
    raises = _raises()
    assert len(raises) > 50  # the walk found the package's raises
    stray = [
        f"{path}:{node.lineno} in {func}: {ast.unparse(node)}"
        for path, func, node in raises
        if node.exc is not None
        and _raised_name(node) not in SIX
        and not (_raised_name(node) == "ValueError" and func in TRANSLATE_THEIR_OWN_VALUE_ERRORS)
    ]
    assert stray == []


@pytest.mark.parametrize("make, detail", [
    (lambda: MergeConfig(lam="abc"), "lambda"),
    (lambda: MergeConfig(lam=10**400), "lambda"),
    (lambda: MergeConfig(tau=None), "tau"),
    (lambda: MergeConfig(tau=np.True_), "tau"),
    (lambda: MergeConfig(ties_trim_keep="0.5"), "ties_trim_keep"),
    (lambda: AdaConfig(learning_rate=10**400), "learning rate"),
    (lambda: AdaConfig(init_lambda="0.3"), "initial lambda"),
    (lambda: TrainConfig(epochs="3"), "epochs"),
    (lambda: TrainConfig(batch_size=2.5), "batch_size"),
    (lambda: TrainConfig(learning_rate="0.1"), "learning rate"),
    (lambda: MlpSpec((2, "4", 3)), "layer sizes"),
    (lambda: MlpSpec(5), "layer_sizes"),
    (lambda: merge_bundle(_tiny_bundle(), MergeConfig(), 2.5), "exemplar count"),
    (lambda: merge_bundle(_tiny_bundle(), MergeConfig(), True), "exemplar count"),
    (lambda: landscape(_tiny_bundle(), True), "reference task"),
    (lambda: TrainConfig(seed=-1), "seed"),
    (lambda: SyntheticTaskSpec(task_id=0, noise_std="0.3"), "noise_std"),
    (lambda: SyntheticTaskSpec(task_id=0, rotation_deg=None), "rotation"),
    (lambda: BundleConfig(seed="0"), "seed"),
    (lambda: BundleConfig(hidden=None), "hidden"),
    (lambda: BundleConfig(rotations=None), "rotations"),
    (lambda: BundleConfig(label_perms=None), "label_perms"),
    (lambda: BundleConfig(label_perms=(0, 1, 2, 3)), "label_perm"),
    (lambda: BundleConfig(center_angles=30.0), "center_angles"),
    (lambda: BundleConfig(pretrain_on_mixture="no"), "pretrain_on_mixture"),
    (lambda: BundleConfig(pretrain=3), "TrainConfigs"),
    (lambda: BundleConfig(finetune=None), "TrainConfigs"),
    (lambda: SyntheticTaskSpec(task_id=0, label_perm=(0.5, 1, 2, 3)), "permutation"),
    (lambda: SyntheticTaskSpec(task_id=0, label_perm=("a", 1, 2, 3)), "permutation"),
    (lambda: SyntheticTaskSpec(task_id=0, label_perm=4), "label_perm"),
    (lambda: build_mask(_FLAT, False, _VEC), "tau"),
    (lambda: build_mask(_FLAT, None, _VEC), "tau"),
    (lambda: build_mask(_FLAT, True, _VEC), "tau"),
    (lambda: build_mask(_FLAT, "0.5", _VEC), "tau"),
    (lambda: mlp.checked_fraction(True, "fraction"), "fraction"),
    (lambda: mlp.checked_fraction("0.5", "fraction"), "fraction"),
    (lambda: percentile_zero_tol(_FLAT, _FLAT, True), "decomposition fraction"),
    (lambda: percentile_zero_tol(_FLAT, _FLAT, None), "decomposition fraction"),
    (lambda: landscape(_tiny_bundle(), None, True), "decomposition fraction"),
    (lambda: landscape(_tiny_bundle(), None, "0.5"), "decomposition fraction"),
    (lambda: ties_phi(np.ones((2, 3)), True), "ties_trim_keep"),
    (lambda: ties_phi(np.ones((2, 3)), "0.5"), "ties_trim_keep"),
    (lambda: decompose(_FLAT, _FLAT, True), "zero_tol"),
    (lambda: decompose(_FLAT, _FLAT, None), "zero_tol"),
], ids=["lambda-string", "lambda-huge-int", "tau-none", "tau-numpy-bool", "trim-string",
        "ada-lr-huge-int", "ada-init-string", "epochs-string", "batch-float", "lr-string", "layer-string", "layer-sizes-int",
        "exemplars-float", "exemplars-bool", "landscape-task-bool", "train-seed-negative",
        "noise-string", "rotation-none", "bundle-seed-string", "hidden-none", "rotations-none",
        "perms-none", "perm-not-a-sequence", "center-angles-float", "mixture-flag-string",
        "pretrain-int", "finetune-none", "perm-entry-float", "perm-entry-string",
        "spec-perm-int", "selection-tau-bool", "selection-tau-none", "mask-tau-bool",
        "mask-tau-string", "fraction-bool", "fraction-string", "percentile-fraction-bool",
        "percentile-fraction-none", "landscape-fraction-bool", "landscape-fraction-string",
        "ties-keep-bool", "ties-keep-string", "zero-tol-bool", "zero-tol-none"])
def test_a_setting_of_the_wrong_type_is_a_config_error(make, detail):
    with pytest.raises(ConfigError, match=detail):
        make()
