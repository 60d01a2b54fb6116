"""Compare the files the README pipeline writes at two commits, by sha256.

Exports each commit with ``bench_pairs.export`` into a temporary directory and
runs the pipeline there, with ``PYTHONPATH=<export>/src``:

    trustmerge gen-train --seed 0 --out b [--set KEY=VALUE ...]
    trustmerge merge --bundle b --method M --out b/M      (each of the six methods)
    trustmerge merge --bundle b --method ties_tatr --ties-mask-from-trimmed \\
        --out b/ties_tatr_trimmed
    trustmerge merge --bundle b --method ada_tatr --exemplars 0 --ada-steps 5 \\
        --ada-lr 0.5 --out b/ada_tatr_zero_shot
    trustmerge eval --bundle b --merged b/<each M> --out b/eval
    trustmerge conflict --bundle b --out b/conflict
    trustmerge conflict --bundle b --method ada_tatr --out b/conflict_ada_tatr
    trustmerge conflict --bundle b --exemplars 8 --out b/conflict_exemplars8
    trustmerge landscape --bundle b --out b/landscape
    trustmerge landscape --bundle b --task 1 --out b/landscape_task1
    trustmerge sensitivity --bundle b --out b/sensitivity
    trustmerge sweep --bundle b --out b/sweep

Prints every file whose bytes differ, or that only one side wrote, and exits 1
if there is one; otherwise prints how many files are identical and exits 0.

    python3 tools/pipeline_digests.py --parent HEAD~1 --change HEAD \\
        [--set pretrain_on_mixture=false]

A nine-class bundle covers the class counts at which numpy's pairwise sums
stop adding in turn (8 and more):

    python3 tools/pipeline_digests.py --parent HEAD~1 --change HEAD \\
        --set num_classes=9 \\
        --set "label_perms=0,1,2,3,4,5,6,7,8;1,2,3,4,5,6,7,8,0;2,3,4,5,6,7,8,0,1;3,4,5,6,7,8,0,1,2"

The paper's eight tasks need a rotation and a label permutation per task,
and at K = 8 a stacked hidden-layer array of a test pass is 256 KiB:

    python3 tools/pipeline_digests.py --parent HEAD~1 --change HEAD \
        --set num_tasks=8 --set "rotations=0,45,90,135,180,225,270,315" \
        --set "label_perms=0,1,2,3;1,2,3,0;2,3,0,1;3,0,1,2;1,0,3,2;3,2,1,0;0,2,1,3;2,0,3,1"

Standard library only.  Nothing in the repository is written.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export, git

METHODS = ("average", "task_arithmetic", "tatr", "ties", "ties_tatr", "ada_tatr")


def pipeline(bundle: str, overrides: list[str]) -> list[list[str]]:
    """The trustmerge argument lists of the README pipeline, in order."""
    runs = [["gen-train", "--seed", "0", "--out", bundle,
             *(arg for kv in overrides for arg in ("--set", kv))]]
    runs += [["merge", "--bundle", bundle, "--method", m, "--out", f"{bundle}/{m}"]
             for m in METHODS]
    runs.append(["merge", "--bundle", bundle, "--method", "ties_tatr", "--ties-mask-from-trimmed",
                 "--out", f"{bundle}/ties_tatr_trimmed"])
    runs.append(["merge", "--bundle", bundle, "--method", "ada_tatr", "--exemplars", "0",
                 "--ada-steps", "5", "--ada-lr", "0.5", "--out", f"{bundle}/ada_tatr_zero_shot"])
    runs.append(["eval", "--bundle", bundle, "--merged", *(f"{bundle}/{m}" for m in METHODS),
                 "--out", f"{bundle}/eval"])
    for command, out, flags in [("conflict", "conflict", []),
                                ("conflict", "conflict_ada_tatr", ["--method", "ada_tatr"]),
                                ("conflict", "conflict_exemplars8", ["--exemplars", "8"]),
                                ("landscape", "landscape", []),
                                ("landscape", "landscape_task1", ["--task", "1"]),
                                ("sensitivity", "sensitivity", []), ("sweep", "sweep", [])]:
        runs.append([command, "--bundle", bundle, "--out", f"{bundle}/{out}", *flags])
    return runs


def run_pipeline(tree: Path, overrides: list[str]) -> Path:
    """Run the pipeline with the trustmerge of ``tree``; the bundle directory."""
    bundle = tree / "pipeline"
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for args in pipeline(str(bundle), overrides):
        proc = subprocess.run([sys.executable, "-m", "trustmerge.cli", *args], env=env,
                              cwd=tree, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"trustmerge {' '.join(args)} in {tree} exited "
                               f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return bundle


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by path relative to it."""
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def differing(parent: Path, change: Path) -> tuple[list[str], int]:
    """The relative paths whose bytes differ or that only one tree holds, and
    the number of files both trees hold with equal bytes."""
    a, b = digests(parent), digests(change)
    changed = sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))
    return changed, len(a.keys() | b.keys()) - len(changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="a gen-train config override (repeatable)")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="pipeline_digests-"))
    try:
        outputs = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            export(commit, work / side)
            print(f"{side} {commit}: running the pipeline", file=sys.stderr, flush=True)
            outputs[side] = run_pipeline(work / side, args.set)
        changed, same = differing(outputs["parent"], outputs["change"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in changed:
        print(f"differs: {name}")
    print(f"{same} files identical, {len(changed)} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
