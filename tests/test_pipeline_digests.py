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


def test_first_difference_names_the_first_differing_line_of_text_files(pipeline_digests, tmp_path):
    files = {"a.csv": b"tau,avg\r\n0.1,0.5\r\n0.2,0.6\r\n",
             "b.csv": b"tau,avg\r\n0.1,0.25\r\n0.2,0.7\r\n",
             "short.csv": b"tau,avg\r\n",
             "text.tmrg": b"TMRG\n",
             "binary.tmrg": b"TMRG\xff\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    first = lambda a, b: pipeline_digests.first_difference(tmp_path / a, tmp_path / b)
    assert first("a.csv", "b.csv") == (2, "0.1,0.5\r\n", "0.1,0.25\r\n")
    assert first("a.csv", "short.csv") == (2, "0.1,0.5\r\n", None)
    assert first("short.csv", "a.csv") == (2, None, "0.1,0.5\r\n")
    assert first("text.tmrg", "binary.tmrg") is None  # one side is not UTF-8
    assert first("a.csv", "missing.csv") is None  # one side did not write it
    assert first("a.csv", "a.csv") is None
