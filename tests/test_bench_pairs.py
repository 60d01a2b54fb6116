"""tools/bench_pairs.py: the seed range and the per-metric summary."""

import argparse
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text", ["501", "501-509", "510-501"])
def test_seed_range_shorter_than_ten_pairs_is_rejected(text):
    with pytest.raises(argparse.ArgumentTypeError, match="at least 10"):
        bench_pairs.parse_seeds(text)


def test_summary_counts_wins_and_flags_spread():
    def result(value):
        return {"metrics": {"op_p50_s": {"value": value}}}

    runs = [(result(1.0 + i / 100), result(0.8 + i / 100)) for i in range(10)]
    runs[3] = (result(1.0), result(1.5))
    m = bench_pairs.summarize(runs, {"op_p50_s": {"better": "lower", "bound": 0.05}})["op_p50_s"]
    assert m["pairs"] == 10 and m["change_better_pairs"] == 9
    assert m["parent"]["median"] == pytest.approx(1.045)
    assert m["unresolved"]


def test_differing_digests_names_changed_and_one_sided_lines():
    parent = ["digest seed=0 bundle/manifest.txt aa", "digest seed=0 merges/tatr/run.json bb",
              "digest seed=1 conflict/conflict_loss.csv cc"]
    change = ["digest seed=0 bundle/manifest.txt aa", "digest seed=0 merges/tatr/run.json bd",
              "digest seed=1 sweep/tau_sweep.csv dd"]
    assert bench_pairs.differing_digests(parent, change) == [
        "seed=0 merges/tatr/run.json", "seed=1 conflict/conflict_loss.csv",
        "seed=1 sweep/tau_sweep.csv"]
    assert bench_pairs.differing_digests(parent, parent) == []
