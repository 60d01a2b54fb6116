"""Span tracer for the trustmerge benchmark.

Wrappers are installed from the benchmark's side, around the public
functions of each trustmerge module.  A function imported with
``from .x import y`` is a separate binding in every importing module, so
:meth:`Tracer.install` replaces every binding of the original object in every
loaded ``trustmerge`` module, not only the one in the defining module.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples and are
written out by :meth:`Tracer.write` when the benchmark ends.  Per-span
quantities (samples, rows, bytes, ...) are accumulated outside the timed
interval of the span.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sgd_steps(args, kwargs, result):
    data, cfg = _arg(args, kwargs, 1, "data"), _arg(args, kwargs, 2, "cfg")
    return {"sgd_steps": cfg.epochs * math.ceil(len(data) / cfg.batch_size)}


def _manifest_bytes(args, kwargs, result):
    root = Path(_arg(args, kwargs, 0, "path"))
    total = 0
    for line in (root / "manifest.txt").read_text().splitlines():
        total += os.path.getsize(root / line.partition("  ")[2])
    return {"bytes_verified": total}


def _input_key(theta_pre, exemplars) -> bytes:
    h = hashlib.sha1(theta_pre.flat().tobytes())
    h.update(exemplars.inputs.tobytes())
    h.update(exemplars.labels.tobytes())
    return h.digest()


# (defining module, attribute, span name, quantities(args, kwargs, result)).
# A method is given as "Class.method".
TARGETS = (
    ("params", "ew_combine", "params.ew", None),
    ("params", "ew_scale", "params.ew", None),
    ("params", "ew_abs", "params.ew", None),
    ("params", "ew_dot", "params.ew", None),
    ("params", "sum_in_order", "params.ew", None),
    ("params", "save_checkpoint", "params.save_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("params", "load_checkpoint", "params.load_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("datasets", "generate_task", "datasets.generate_task", None),
    ("datasets", "save_batch_csv", "datasets.save_batch_csv",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "batch"))}),
    ("datasets", "load_batch_csv", "datasets.load_batch_csv",
     lambda a, k, r: {"rows": len(r)}),
    ("mlp", "train", "mlp.train", _sgd_steps),
    ("mlp", "backward", "mlp.backward",
     lambda a, k, r: {"samples": len(_arg(a, k, 1, "batch"))}),
    ("mlp", "forward", "mlp.forward",
     lambda a, k, r: {"samples": len(_arg(a, k, 1, "batch"))}),
    ("mlp", "evaluate_accuracy", "mlp.forward",
     lambda a, k, r: {"samples": len(_arg(a, k, 1, "test"))}),
    ("mlp", "entropy_loss", "mlp.entropy_loss", None),
    ("gradients", "estimate_abs_gradient", "gradients.estimate_abs_gradient",
     lambda a, k, r: {"exemplars": len(_arg(a, k, 1, "exemplars"))}),
    ("task_vectors", "compute_task_vector", "task_vectors.compute_task_vector", None),
    ("task_vectors", "decompose", "task_vectors.decompose", None),
    ("trust_region", "compute_sensitivity", "trust_region.compute_sensitivity", None),
    ("trust_region", "build_mask", "trust_region.build_mask", None),
    ("merging", "weight_average", "merging.weight_average", None),
    ("merging", "task_arithmetic", "merging.task_arithmetic", None),
    ("merging", "tatr_merge", "merging.tatr_merge", None),
    ("merging", "ties_merge", "merging.ties_merge", None),
    ("merging", "ties_tatr", "merging.ties_tatr", None),
    ("merging", "ada_tatr", "merging.ada_tatr", None),
    ("merging", "ada_coefficient_gradient", "merging.ada_coefficient_gradient", None),
    ("bundle", "make_bundle", "bundle.make_bundle", None),
    ("bundle", "save_bundle", "bundle.save_bundle", None),
    ("bundle", "load_bundle", "bundle.load_bundle", _manifest_bytes),
    ("bundle", "TaskBundle.gradient_estimates", "bundle.TaskBundle.gradient_estimates", None),
    ("evaluation", "merge_bundle", "evaluation.merge_bundle", None),
    ("evaluation", "knowledge_conflict", "evaluation.knowledge_conflict", None),
    ("evaluation", "landscape", "evaluation.landscape", None),
    ("evaluation", "accuracy_table", "evaluation.accuracy_table", None),
)

ESTIMATE = "gradients.estimate_abs_gradient"
CONSTRUCTIONS = "params.Checkpoint.constructions"


def _trustmerge_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "trustmerge" or n.startswith("trustmerge."))
    ]


class Tracer:
    """Records spans around calls into trustmerge while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.quantities: dict[str, float] = defaultdict(float)
        self.estimate_inputs: dict[int, set] = defaultdict(set)
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, quantities):
        tracer = self
        estimate = name == ESTIMATE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)
            if quantities is not None:
                for key, value in quantities(args, kwargs, result).items():
                    tracer.quantities[f"{name}.{key}"] += value
            if estimate:
                tracer.estimate_inputs[tracer.op].add(
                    _input_key(_arg(args, kwargs, 0, "theta_pre"), _arg(args, kwargs, 1, "exemplars"))
                )
            return result

        return wrapper

    def install(self) -> None:
        """Patch every binding of every target in the loaded trustmerge modules."""
        import trustmerge.cli  # noqa: F401  (every module must be loaded to be patched)
        from trustmerge import params

        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _trustmerge_modules()
        for mod_name, attr, name, quantities in TARGETS:
            owner = sys.modules[f"trustmerge.{mod_name}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, name, quantities))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name, quantities)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, orig, wrapper)

        orig_init = params.Checkpoint.__init__
        tracer = self

        @functools.wraps(orig_init)
        def counting_init(ckpt, *args, **kwargs):
            tracer.quantities[CONSTRUCTIONS] += 1
            orig_init(ckpt, *args, **kwargs)

        self._patch(params.Checkpoint, "__init__", orig_init, counting_init)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    @contextmanager
    def recording(self, op: int):
        """Install the wrappers for the duration of one op."""
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    @contextmanager
    def span(self, name: str):
        """A span opened from the benchmark itself (e.g. around ``cli.main``)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def summary(self, ops: int) -> dict[str, float]:
        """Per-layer totals divided by ``ops``, keyed ``<span>.<quantity>``."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        estimate_calls: dict[int, int] = defaultdict(int)
        backward_in_estimate = 0
        merges_in_conflict = 0
        for idx, (name, _, _, parent, op) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[idx]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == ESTIMATE:
                estimate_calls[op] += 1
            elif name == "mlp.backward" and parent_name == ESTIMATE:
                backward_in_estimate += 1
            elif name == "evaluation.merge_bundle" and parent_name == "evaluation.knowledge_conflict":
                merges_in_conflict += 1
        for key, value in self.quantities.items():
            out[key] += value
        out["evaluation.knowledge_conflict.merges"] = merges_in_conflict
        exemplars = out.get(f"{ESTIMATE}.exemplars", 0)
        out = {k: v / ops for k, v in out.items()}
        out["gradients.backward_per_exemplar"] = backward_in_estimate / exemplars if exemplars else 0.0
        ratios = [len(self.estimate_inputs[op]) / n for op, n in estimate_calls.items()]
        out["gradients.distinct_ratio"] = sum(ratios) / len(ratios) if ratios else 0.0
        return out

    def write(self, path) -> None:
        """Write spans as tab-separated ``op name start end parent`` lines."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
