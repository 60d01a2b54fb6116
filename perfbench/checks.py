"""Output checks and artifact digests for the trustmerge benchmark.

The TMRG and CSV readers here are written from the file formats, not taken
from trustmerge, so a defect in the program's own readers cannot hide one in
its writers.  Every check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import struct
from pathlib import Path

import numpy as np

LANDSCAPE_ROWS = 225


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_checkpoint(ckpt) -> str:
    """Digest of a checkpoint's names, shapes and little-endian float64 values."""
    h = hashlib.sha256()
    for name, arr in ckpt:
        h.update(name.encode("utf-8"))
        h.update(repr(arr.shape).encode("ascii"))
        h.update(arr.astype("<f8", copy=False).tobytes())
    return h.hexdigest()


def sha256_array(arr) -> str:
    return hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()


def read_tmrg(path) -> dict[str, np.ndarray]:
    """Parse a TMRG file: magic, version, count, then (name, shape, f8 data)."""
    data = Path(path).read_bytes()
    if data[:4] != b"TMRG":
        raise ValueError(f"{path}: bad magic")
    version, count = struct.unpack_from("<II", data, 4)
    if version != 1:
        raise ValueError(f"{path}: version {version}")
    pos, out = 12, {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos : pos + name_len].decode("utf-8")
        pos += name_len
        (ndim,) = struct.unpack_from("<B", data, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        numel = math.prod(shape)
        if pos + 8 * numel > len(data):
            raise ValueError(f"{path}: truncated tensor {name}")
        out[name] = np.frombuffer(data, "<f8", numel, pos).reshape(shape)
        pos += 8 * numel
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes")
    return out


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty")
    return rows[0], rows[1:]


def check_tmrg(path) -> list[str]:
    try:
        tensors = read_tmrg(path)
    except (OSError, ValueError, struct.error) as exc:
        return [str(exc)]
    if not tensors:
        return [f"{path}: no tensors"]
    return [f"{path}: {n} not finite" for n, a in tensors.items() if not np.all(np.isfinite(a))]


def check_numeric_csv(path, want_rows: int | None = None) -> list[str]:
    """Every field parses as a finite number (labels included); at least one
    row, or exactly ``want_rows`` when given."""
    try:
        header, rows = read_csv(path)
        values = np.array([[float(v) for v in row] for row in rows])
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    wrong_count = not rows if want_rows is None else len(rows) != want_rows
    if wrong_count:
        problems.append(f"{path}: {len(rows)} rows, wanted {want_rows or 'some'}")
    if values.size and (values.shape[1] != len(header) or not np.all(np.isfinite(values))):
        problems.append(f"{path}: ragged or non-finite rows")
    return problems


def check_bundle_dir(root, num_tasks: int) -> list[str]:
    """Files exist, TMRG and CSV contents are finite, the manifest matches."""
    root = Path(root)
    problems = check_tmrg(root / "theta_pre.tmrg")
    for k in range(num_tasks):
        problems += check_tmrg(root / f"task{k}.tmrg")
        for split in ("train", "test", "exemplars"):
            problems += check_numeric_csv(root / f"task{k}_{split}.csv")
    try:
        for line in (root / "manifest.txt").read_text().splitlines():
            digest, _, name = line.partition("  ")
            if sha256_file(root / name) != digest:
                problems.append(f"{root / name}: manifest hash mismatch")
    except OSError as exc:
        problems.append(str(exc))
    return problems


def digest_tree(root) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): sha256_file(p)
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _in_unit_interval(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.all((values >= 0.0) & (values <= 1.0)))


def check_battery(out: dict, num_tasks: int) -> list[str]:
    """Checks on the in-process analysis battery (see ``bench.analysis_battery``)."""
    problems = []
    for name, result in out["merges"].items():
        if not all(np.all(np.isfinite(a)) for _, a in result.merged):
            problems.append(f"merge {name}: non-finite weights")
    for name, accs, avg in out["accuracy"]:
        if not _in_unit_interval(list(accs) + [avg]):
            problems.append(f"accuracy {name}: outside [0, 1]")
    off_diagonal = ~np.eye(num_tasks, dtype=bool)
    for report in out["conflict"]:
        pairwise = report.pairwise
        if not (np.all(np.isfinite(pairwise[off_diagonal])) and np.all(np.isnan(np.diag(pairwise)))):
            problems.append(f"conflict {report.basis}: want finite off-diagonal, NaN diagonal")
    rows = np.asarray(out["landscape"].rows, dtype=np.float64)
    if rows.shape != (LANDSCAPE_ROWS, 3) or not np.all(np.isfinite(rows)):
        problems.append(f"landscape: want {LANDSCAPE_ROWS} finite rows, got shape {rows.shape}")
    for omega in out["sensitivity"]:
        if not all(np.all(np.isfinite(a)) for _, a in omega.values):
            problems.append(f"sensitivity {omega.variant}: non-finite")
    for grid, values in out["sweep"].items():
        if not _in_unit_interval(values):
            problems.append(f"sweep {grid}: accuracy outside [0, 1]")
    if sha256_checkpoint(out["tatr_tau0"].merged) != sha256_checkpoint(
        out["merges"]["task_arithmetic"].merged
    ):
        problems.append("tatr with tau=0 differs from task_arithmetic")
    return problems


def digest_battery(out: dict) -> dict[str, str]:
    digests = {f"merge/{n}": sha256_checkpoint(r.merged) for n, r in out["merges"].items()}
    digests["accuracy"] = sha256_array([accs + [avg] for _, accs, avg in out["accuracy"]])
    for report in out["conflict"]:
        digests[f"conflict/{report.basis}"] = sha256_array(report.pairwise)
    digests["landscape"] = sha256_array(out["landscape"].rows)
    for omega in out["sensitivity"]:
        digests[f"sensitivity/{omega.variant}"] = sha256_checkpoint(omega.values)
    for grid, values in out["sweep"].items():
        digests[f"sweep/{grid}"] = sha256_array(values)
    return digests


# ``write_conflict_csv`` writes ``repr`` of numpy scalars, which numpy >= 2
# spells ``np.float64(x)``.  The finiteness check reads the number inside;
# :func:`cli_format_defects` reports the format itself on every run.
NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def conflict_value(text: str) -> float:
    match = NUMPY_REPR.match(text)
    return float(match.group(1) if match else text)


def cli_format_defects(root) -> list[str]:
    """Fields of the CLI's CSV outputs written as numpy reprs, not plain numbers."""
    root = Path(root)
    out = []
    for path in sorted(root.rglob("*.csv")):
        _, rows = read_csv(path)
        wrapped = sum(bool(NUMPY_REPR.match(v)) for row in rows for v in row)
        if wrapped:
            out.append(f"{path.relative_to(root).as_posix()}: {wrapped} fields written as np.float64(...)")
    return out


def check_cli_outputs(root, num_tasks: int, merges: list[str]) -> list[str]:
    """Checks on the files the CLI pipeline wrote under ``root``."""
    root = Path(root)
    problems = check_bundle_dir(root / "bundle", num_tasks)
    for name in merges:
        problems += check_tmrg(root / name / "merged.tmrg")
    try:
        _, rows = read_csv(root / "eval" / "accuracy.csv")
        if len(rows) != 2 + len(merges) or not _in_unit_interval(
            [float(v) for row in rows for v in row[1:]]
        ):
            problems.append("accuracy.csv: wrong row count or accuracy outside [0, 1]")
        for basis in ("loss", "accuracy"):
            _, rows = read_csv(root / "conflict" / f"conflict_{basis}.csv")
            values = [conflict_value(row[2]) for row in rows]
            if len(rows) != num_tasks * (num_tasks - 1) + 2 or not all(map(math.isfinite, values)):
                problems.append(f"conflict_{basis}.csv: wrong row count or non-finite")
        for grid in ("tau_sweep", "exemplar_sweep"):
            _, rows = read_csv(root / "sweep" / f"{grid}.csv")
            if not rows or not _in_unit_interval([float(row[1]) for row in rows]):
                problems.append(f"{grid}.csv: accuracy outside [0, 1]")
        _, rows = read_csv(root / "sens" / "sensitivity_per_layer.csv")
        if not rows or not all(math.isfinite(float(row[1])) for row in rows):
            problems.append("sensitivity_per_layer.csv: non-finite")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"cli outputs: {exc}")
    problems += check_numeric_csv(root / "scape" / "landscape.csv", LANDSCAPE_ROWS)
    return problems
