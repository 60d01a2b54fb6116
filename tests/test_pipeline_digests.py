"""tools/pipeline_digests.py: the file-by-file comparison of two output trees."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def pipeline_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # it imports bench_pairs from its own directory
    import pipeline_digests

    return pipeline_digests


def test_differing_names_changed_and_one_sided_files(pipeline_digests, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        (root / "tatr").mkdir(parents=True)
        (root / "manifest.txt").write_bytes(b"same\n")
        (root / "tatr" / "run.json").write_bytes(b"{}\n")
    (parent / "tatr" / "merged.tmrg").write_bytes(b"TMRG\x00")
    (change / "tatr" / "merged.tmrg").write_bytes(b"TMRG\x01")
    (parent / "sweep.csv").write_bytes(b"tau\r\n")
    (change / "eval.csv").write_bytes(b"method\r\n")
    assert pipeline_digests.differing(parent, change) == (
        ["eval.csv", "sweep.csv", "tatr/merged.tmrg"], 2)
    assert pipeline_digests.differing(parent, parent) == ([], 4)
