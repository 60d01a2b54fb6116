"""Trust-region task-vector merging toolkit with a synthetic training harness.

The package exports the names below; every other name is imported from its
module (``trustmerge.params``, ``trustmerge.merging``, ...)."""

from .bundle import BundleConfig, load_bundle, make_bundle, save_bundle
from .evaluation import accuracy_table, knowledge_conflict, landscape
from .merging import MergeConfig, merge_bundle
from .params import Checkpoint
from .trust_region import compute_sensitivity

__all__ = [
    "BundleConfig", "Checkpoint", "MergeConfig", "accuracy_table", "compute_sensitivity",
    "knowledge_conflict", "landscape", "load_bundle", "make_bundle", "merge_bundle", "save_bundle",
]
__version__ = "0.1.0"
