"""Tests of the benchmark itself: tracer completeness, smoke runs of every
workload, and the shape of BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import trustmerge as tm  # noqa: E402
from trustmerge.bundle import bundle_config_from_mapping  # noqa: E402

import bench  # noqa: E402
from tracer import ESTIMATE, TARGETS, Tracer, _trustmerge_modules  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_config(seed: int = 0):
    return bundle_config_from_mapping({**bench.SMALL_CONFIG, "seed": str(seed)})


def children(spans):
    out = defaultdict(list)
    for idx, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            out[parent].append(idx)
    return out


def assert_children_within_parents(tracer: Tracer) -> None:
    spans = tracer.spans
    for parent, kids in children(spans).items():
        _, start, end, _, _ = spans[parent]
        covered = sum(spans[k][2] - spans[k][1] for k in kids)
        assert covered <= end - start + 1e-12, spans[parent]
        assert all(start <= spans[k][1] <= spans[k][2] <= end for k in kids)
    assert min(tracer.self_times()) >= -1e-12


@pytest.fixture(scope="module")
def traced_make_bundle():
    cfg = tm.BundleConfig(seed=0)
    tracer = Tracer()
    with tracer.recording(0):
        tm.make_bundle(cfg)
    return cfg, tracer


def test_make_bundle_backward_calls_follow_from_the_config(traced_make_bundle):
    cfg, tracer = traced_make_bundle
    pretrain_rows = cfg.num_tasks * max(1, cfg.samples_train // cfg.num_tasks)
    expected = cfg.pretrain.epochs * math.ceil(pretrain_rows / cfg.pretrain.batch_size)
    expected += cfg.num_tasks * cfg.finetune.epochs * math.ceil(
        cfg.samples_train / cfg.finetune.batch_size
    )
    assert expected == 8640  # the default bundle
    summary = tracer.summary(1)
    assert summary["mlp.backward.calls"] == expected
    assert summary["mlp.train.sgd_steps"] == expected
    assert summary["mlp.train.calls"] == 1 + cfg.num_tasks
    assert summary["params.Checkpoint.constructions"] > 2 * expected
    assert_children_within_parents(tracer)


def test_one_conflict_basis_estimates_gradients_per_subset():
    bundle = tm.make_bundle(small_config())
    k = bundle.num_tasks
    tracer = Tracer()
    with tracer.recording(0):
        tm.knowledge_conflict(bundle, tm.MergeConfig(method="tatr"), "loss")
    spans = tracer.spans
    estimates = [i for i, s in enumerate(spans) if s[0] == ESTIMATE]
    assert len(estimates) == k + k * (k - 1)
    kids = children(spans)
    per_call = len(bundle.exemplar_sets[0])
    for idx in estimates:
        assert sum(spans[c][0] == "mlp.backward" for c in kids[idx]) == per_call
    summary = tracer.summary(1)
    assert summary["gradients.backward_per_exemplar"] == 1.0
    assert summary["gradients.distinct_ratio"] == pytest.approx(k / (k + k * (k - 1)))
    assert summary["evaluation.knowledge_conflict.merges"] == 1 + k
    assert_children_within_parents(tracer)


def test_install_patches_every_binding_and_uninstall_restores_them():
    import trustmerge.cli  # noqa: F401

    def bindings():
        return {
            (mod.__name__, name): value
            for mod in _trustmerge_modules() for name, value in vars(mod).items()
            if callable(value)
        }

    before = bindings()
    init = tm.Checkpoint.__init__
    originals = {}
    for mod_name, attr, _, _ in TARGETS:
        owner = sys.modules[f"trustmerge.{mod_name}"]
        cls, _, meth = attr.rpartition(".")
        originals[attr] = getattr(owner, cls).__dict__[meth] if cls else getattr(owner, attr)
    tracer = Tracer()
    with tracer.recording(0):
        during = bindings()
        for attr, orig in originals.items():
            if "." not in attr:
                assert all(value is not orig for value in during.values()), attr
        assert sys.modules["trustmerge.bundle"].train is not originals["train"]
        assert sys.modules["trustmerge.cli"].load_checkpoint is not originals["load_checkpoint"]
        assert tm.Checkpoint.__init__ is not init
    assert bindings() == before
    assert tm.Checkpoint.__init__ is init


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_follows_the_declared_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1].startswith("perfbench/")
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
