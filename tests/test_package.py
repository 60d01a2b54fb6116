"""The package exports exactly its documented API; every other name is
imported from its module."""

import importlib
import inspect
import re
import runpy
from pathlib import Path

import trustmerge

EXPORTS = {
    "BundleConfig", "Checkpoint", "MergeConfig", "accuracy_table", "compute_sensitivity",
    "knowledge_conflict", "landscape", "load_bundle", "make_bundle", "merge_bundle", "save_bundle",
}
README = Path(__file__).resolve().parent.parent / "README.md"
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_the_package_exports_exactly_the_documented_names():
    assert sorted(trustmerge.__all__) == sorted(EXPORTS)
    public = {name for name, value in vars(trustmerge).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTS


def test_the_readme_imports_only_exported_names():
    blocks = re.findall(r"from trustmerge import \(([^)]*)\)", README.read_text("utf-8"))
    names = {name.strip() for block in blocks for name in block.split(",") if name.strip()}
    assert names and names <= EXPORTS


def test_the_method_and_variant_lists_are_module_attributes():
    assert "tatr" in trustmerge.merging.METHODS
    assert "standard" in trustmerge.trust_region.VARIANTS


def test_every_tracer_target_names_a_package_function():
    # the benchmark's tracer patches each (module, attribute) of its TARGETS, so a
    # renamed or deleted one breaks its traced runs; run_path reads tracer.py and
    # writes no bytecode next to it
    def resolves(module, attr):
        target = importlib.import_module(f"trustmerge.{module}")
        for part in attr.split("."):  # a method is "Class.method"
            target = getattr(target, part, None)
        return callable(target)

    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = [f"{module}.{attr}" for module, attr, _, _ in targets if not resolves(module, attr)]
    assert targets and missing == []
