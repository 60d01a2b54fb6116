"""Byte-level fuzzing of the TMRG and CSV readers.

Whatever the bytes on disk, ``load_checkpoint`` and ``load_batch_csv`` either
return a value or raise ``MalformedArtifact``, the error that blames the file;
no other exception escapes.
Mutations start from a valid file: truncation, overwritten bytes, spliced-in
bytes, a corrupted header, and (for TMRG) count, length, rank and dimension
fields set to arbitrary, mostly oversized, values.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trustmerge.datasets import load_batch_csv, save_batch_csv
from trustmerge.errors import MalformedArtifact
from trustmerge.mlp import LabeledBatch
from trustmerge.params import Checkpoint, load_checkpoint, save_checkpoint

FUZZ = settings(max_examples=150, deadline=None)


def _saved(save, value) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        save(value, path)
        return path.read_bytes()


NAME = b"layer0.weight"
TMRG = _saved(save_checkpoint, Checkpoint([
    (NAME.decode(), np.arange(6.0).reshape(2, 3)),
    ("layer0.bias", np.ones(2)),
]))
CSV = _saved(save_batch_csv, LabeledBatch(np.array([[0.5, -1.25], [2.0, 3.5]]), np.array([0, 3])))

# (offset, struct format) of the first tensor's header fields in TMRG
_NDIM_AT = 4 + 8 + 2 + len(NAME)
TMRG_FIELDS = [(8, "<I"), (12, "<H"), (_NDIM_AT, "<B"), (_NDIM_AT + 1, "<I"), (_NDIM_AT + 5, "<I")]


def _overwrite(base: bytes, edits) -> bytes:
    out = bytearray(base)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


def byte_mutations(base: bytes, header_len: int):
    n = len(base)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: base[:k]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)), min_size=1, max_size=8)
        .map(lambda edits: _overwrite(base, edits)),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=16))
        .map(lambda t: base[: t[0]] + t[1] + base[t[0] :]),
        st.binary(max_size=2 * header_len).map(lambda head: head + base[header_len:]),
    )


def tmrg_field_edits():
    def set_field(field, value):
        offset, fmt = field
        size = struct.calcsize(fmt)
        return TMRG[:offset] + struct.pack(fmt, value % 2 ** (8 * size)) + TMRG[offset + size :]

    return st.builds(set_field, st.sampled_from(TMRG_FIELDS), st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "artifact"


def load_or_reject(load, path: Path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        load(path)
    except MalformedArtifact:
        pass


@FUZZ
@given(data=st.one_of(byte_mutations(TMRG, header_len=12), tmrg_field_edits()))
@example(data=TMRG[:-8] + struct.pack("<d", float("nan")))  # not a finite value
def test_tmrg_reader_raises_only_toolkit_errors(artifact, data):
    load_or_reject(load_checkpoint, artifact, data)


@FUZZ
@given(data=byte_mutations(CSV, header_len=CSV.index(b"\n") + 1))
@example(data=CSV.replace(b"0.5", b"0\x005"))  # NUL byte
@example(data=CSV.replace(b"0.5", b"\xff\xfe"))  # not UTF-8
@example(data=CSV.replace(b"0.5", b"9" * 200_000))  # field over the csv size limit
@example(data=CSV.replace(b"0.5", b"nan"))  # not a finite input
@example(data=CSV.replace(b"-1.25", b"1e400"))  # overflows to inf
def test_csv_reader_raises_only_toolkit_errors(artifact, data):
    load_or_reject(load_batch_csv, artifact, data)
