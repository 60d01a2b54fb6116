"""Whole-directory fuzzing of the CLI boundary.

Each example copies a saved tiny bundle and one merge of it, applies one
mutation (file bytes, a line of a text file, a ``bundle_config.txt`` or
``run.json`` value, a missing or an extra file), re-hashes the manifest or
not, and runs ``merge``, ``eval`` or ``conflict`` in-process.  Two outcomes
are allowed: exit 0 with finite outputs, or exit 1 or 2 with a
``TrustMergeError`` name on stderr and no output directory.  Any other
exception fails the test.
"""

import contextlib
import csv
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmerge.bundle import _CONFIG_KEYS, save_bundle
from trustmerge.cli import main
from trustmerge.errors import TrustMergeError
from trustmerge.merging import AdaConfig, MergeConfig
from trustmerge.params import load_checkpoint

from conftest import rehash, tiny_bundle_config

FUZZ = settings(max_examples=120, deadline=None)

TASKS = range(tiny_bundle_config().num_tasks)
BUNDLE_FILES = ["manifest.txt", "bundle_config.txt", "theta_pre.tmrg"] + [
    f"task{k}{suffix}" for k in TASKS
    for suffix in (".tmrg", "_train.csv", "_test.csv", "_exemplars.csv")
]
FILES = [f"bundle/{name}" for name in BUNDLE_FILES] + [
    f"merged/{name}" for name in ("merged.tmrg", "mask.tmrg", "run.json")
]
TEXT_FILES = [f for f in FILES if f.endswith((".txt", ".csv", ".json"))]
EXTRA_FILES = ["bundle/notes.txt", f"bundle/task{len(TASKS)}.tmrg", "merged/notes.txt"]


def _names(cls):
    return {cls.name}.union(*(_names(sub) for sub in cls.__subclasses__()))


ERROR_LINE = re.compile(rf"({'|'.join(sorted(_names(TrustMergeError)))})(: |\n)")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory, small_bundle):
    """A bundle directory and a tatr merge of it, side by side."""
    root = tmp_path_factory.mktemp("pristine")
    save_bundle(small_bundle, root / "bundle")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["merge", "--bundle", str(root / "bundle"), "--out", str(root / "merged")]) == 0
    assert sorted(str(p.relative_to(root)) for p in root.glob("*/*")) == sorted(FILES)
    return root


# -- mutations: (function, *args), called as function(root of a copy, *args) --


def _at(data, fraction: float) -> int:
    return int(fraction * len(data))


def overwrite(root, name, edits):
    data = bytearray((root / name).read_bytes())
    for fraction, value in edits:
        if data:
            data[_at(data, fraction) % len(data)] = value
    (root / name).write_bytes(bytes(data))


def truncate(root, name, fraction):
    data = (root / name).read_bytes()
    (root / name).write_bytes(data[: _at(data, fraction)])


def splice(root, name, fraction, insert):
    data = (root / name).read_bytes()
    at = _at(data, fraction)
    (root / name).write_bytes(data[:at] + insert + data[at:])


def edit_line(root, name, op, fraction, text):
    lines = (root / name).read_bytes().splitlines(keepends=True)
    at = _at(lines, fraction)
    if op == "drop":
        del lines[at : at + 1]
    elif op == "repeat":
        lines[at:at] = lines[at : at + 1]
    else:  # "insert"
        lines.insert(at, text.encode() + b"\n")
    (root / name).write_bytes(b"".join(lines))


def config_value(root, key, value):
    path = root / "bundle" / "bundle_config.txt"
    lines = [line for line in path.read_text().splitlines() if not line.startswith(f"{key}=")]
    path.write_text("".join(f"{line}\n" for line in lines + [f"{key}={value}"]))


DELETE = "<delete>"


def record_value(root, keys, value):
    path = root / "merged" / "run.json"
    record = json.loads(path.read_text())
    target = record
    for key in keys[:-1]:
        target = target[key]
    if value == DELETE:
        target.pop(keys[-1], None)
    else:
        target[keys[-1]] = value
    path.write_text(json.dumps(record))


def delete(root, name):
    (root / name).unlink()


def add(root, name, data):
    (root / name).write_bytes(data)


fractions = st.floats(0, 1)
config_values = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "2", "3", "5", "8", "8,8", "0.5", "nan", "inf",
                     "1e400", "abc", "true", "no", "0,1;1,0", "3,2,1,0", "9" * 30]),
    st.text(max_size=6),
)
json_values = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 2, 10**400, "x", ["x"], {}, DELETE]),
    st.sampled_from(("average", "tatr", "ada_tatr", "standard")),
    st.floats(),
    st.lists(st.integers(-1, 2), max_size=2),
)
record_keys = st.sampled_from(
    [("config",), ("exemplars",), ("coefficients",), ("mask",), ("config", "extra")]
    + [("config", name) for name in MergeConfig.__dataclass_fields__]
    + [("config", "ada", name) for name in AdaConfig.__dataclass_fields__]
)
mutations = st.one_of(
    st.tuples(st.just(overwrite), st.sampled_from(FILES),
              st.lists(st.tuples(fractions, st.integers(0, 255)), min_size=1, max_size=4)),
    st.tuples(st.just(truncate), st.sampled_from(FILES), fractions),
    st.tuples(st.just(splice), st.sampled_from(FILES), fractions,
              st.binary(min_size=1, max_size=12)),
    st.tuples(st.just(edit_line), st.sampled_from(TEXT_FILES),
              st.sampled_from(["drop", "repeat", "insert"]), fractions, st.text(max_size=80)),
    st.tuples(st.just(config_value), st.sampled_from([*_CONFIG_KEYS, "hiden"]),
              config_values),
    st.tuples(st.just(record_value), record_keys, json_values),
    st.tuples(st.just(delete), st.sampled_from(FILES)),
    st.tuples(st.just(add), st.sampled_from(EXTRA_FILES), st.binary(max_size=16)),
)


def assert_finite_outputs(out: Path) -> None:
    for path in out.iterdir():
        if path.suffix == ".tmrg":
            load_checkpoint(path)  # a checkpoint holds finite values only
        elif path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path}: {c}"))
        else:
            with open(path, newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    # past the row name, every field is empty or a finite number
                    assert all(f == "" or math.isfinite(float(f)) for f in row[1:]), (path, row)


@FUZZ
@given(mutation=mutations, rehashed=st.booleans(),
       command=st.sampled_from(["merge", "eval", "conflict"]))
def test_cli_exits_0_with_finite_outputs_or_names_its_error(pristine, mutation, rehashed, command):
    with tempfile.TemporaryDirectory(dir=pristine.parent) as tmp:
        root = Path(tmp) / "copy"
        shutil.copytree(pristine, root)
        edit, *args = mutation
        edit(root, *args)
        bundle = root / "bundle"
        if rehashed:  # when the manifest is still there and decodes
            with contextlib.suppress(FileNotFoundError, UnicodeDecodeError):
                rehash(bundle, [p.name for p in bundle.iterdir() if p.name != "manifest.txt"])
        out = root / "out"
        argv = [command, "--bundle", str(bundle), "--out", str(out)]
        if command == "eval":
            argv += ["--merged", str(root / "merged")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert_finite_outputs(out)
        else:
            assert code in (1, 2)
            assert ERROR_LINE.match(err.getvalue()), err.getvalue()
            assert not out.exists()
