"""Trust-region task-vector merging toolkit with a synthetic training harness."""

from .params import (
    Checkpoint,
    ew_abs,
    ew_combine,
    ew_dot,
    ew_scale,
    load_checkpoint,
    save_checkpoint,
)
from .mlp import (
    LabeledBatch,
    MlpSpec,
    TrainConfig,
    backward,
    entropy_loss,
    evaluate_accuracy,
    forward,
    init_params,
    train,
)
from .datasets import SyntheticTaskSpec, generate_task
from .task_vectors import Decomposition, compute_task_vector, decompose
from .gradients import estimate_abs_gradient
from .trust_region import (
    Sensitivity,
    TrustRegionMask,
    build_mask,
    compute_sensitivity,
    per_layer_sensitivity,
    proportion_selection,
)
from .merging import (
    AdaConfig,
    MergeConfig,
    MergeResult,
    ada_tatr,
    merge_bundle,
    task_arithmetic,
    tatr_merge,
    ties_merge,
    ties_phi,
    ties_tatr,
    weight_average,
)
from .bundle import BundleConfig, TaskBundle, load_bundle, make_bundle, save_bundle
from .evaluation import (
    ConflictReport,
    LandscapeGrid,
    accuracy_table,
    knowledge_conflict,
    landscape,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
