"""Compare two commits on the perfbench workloads in alternating run pairs.

Exports each commit with ``git archive`` into a temporary directory, then runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
the two exports for each of the three workloads (T is the ``run_seconds`` of
the change's ``BENCHMARK.json``), one run at a time: one pair per seed, the
parent first on even pair indices and the change first on odd ones.  Writes a
``BENCH_<n>.json`` with every run's end-to-end values, per-side quartiles,
how many pairs the change wins per metric, an ``unresolved`` flag for each
metric whose spread exceeds its ``BENCHMARK.json`` bound, and per pair the
names of the digest lines that differ.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seeds 501-510 \\
        --claim "analyze op_p50_s falls by >= 15%" --out BENCH_<n>.json

Standard library only.  Nothing in the repository is modified except the
output file.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "analyze", "cli")
MIN_PAIRS = 10  # a claimed gain must win on at least nine of ten pairs
PAIR_METRIC = "op_p50_s"  # also listed in each pair entry
PROVENANCE_KEYS = ("blas", "cpu_model", "load_generator", "nproc", "numpy", "python", "thread_env")
METHOD = (
    "one pair of runs per seed, parent and change alternating which runs first "
    "(even pair index: parent first), one run at a time; each value is the "
    "reference-scaled end-to-end median that perfbench prints for one run; quartiles "
    "are numpy linear percentiles; 'unresolved' marks a metric whose IQR/median "
    "exceeds its bound on either side"
)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` to ``dest`` (no .git, no untracked files)."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result line, provenance and digest lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    provenance = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    result["provenance"] = provenance
    result["digests"] = sorted(l for l in lines if l.startswith("digest "))
    return result


def differing_digests(parent: list[str], change: list[str]) -> list[str]:
    """The sorted names (a ``digest`` line less its prefix and its sha) of the
    digest lines whose sha differs, or that only one side printed."""
    a, b = (dict(line.removeprefix("digest ").rsplit(" ", 1) for line in lines)
            for lines in (parent, change))
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def quartiles(values: list[float]) -> dict:
    # 'inclusive' interpolates like numpy's default (linear) percentile
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def summarize(runs: list[tuple[dict, dict]], declared: dict) -> dict:
    """Per-metric statistics over (parent, change) result pairs."""
    metrics = {}
    for name, spec in declared.items():
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        sign = 1 if spec["better"] == "lower" else -1
        metrics[name] = {
            **sides,
            "change_vs_parent_median": sides["change"]["median"] / sides["parent"]["median"] - 1,
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(runs),
            "bound": spec["bound"],
            "unresolved": any(s["iqr_over_median"] > spec["bound"] for s in sides.values()),
            "parent_runs": parent,
            "change_runs": change,
        }
    return metrics


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < MIN_PAIRS:
        raise argparse.ArgumentTypeError(f"{text!r} gives {len(seeds)} pairs; "
                                         f"need at least {MIN_PAIRS}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("501-510"),
                        help="seed range FIRST-LAST, one pair per seed (default 501-510)")
    parser.add_argument("--claim", default="", help="the claim the runs test")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in (("parent", args.parent), ("change", args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    workloads, provenance = {}, {}
    try:
        trees = {side: work / side for side in commits}
        for side, tree in trees.items():
            export(commits[side], tree)
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        declared = {m["name"]: m for m in benchmark["end_to_end"]}
        seconds = benchmark["run_seconds"]
        for workload in WORKLOADS:
            pairs, runs = [], []
            for index, seed in enumerate(args.seeds):
                order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
                result = {}
                for side in order:
                    print(f"{workload} seed={seed} {side}", file=sys.stderr, flush=True)
                    result[side] = run_once(trees[side], workload, seed, seconds)
                parent, change = result["parent"], result["change"]
                provenance = provenance or {k: parent["provenance"][k] for k in PROVENANCE_KEYS}
                runs.append((parent, change))
                pairs.append({
                    "seed": seed,
                    "first": order[0],
                    "attempted": [parent["attempted"], change["attempted"]],
                    "failed": [parent["failed"], change["failed"]],
                    "digests_identical": parent["digests"] == change["digests"],
                    "digests_differing": differing_digests(parent["digests"], change["digests"]),
                    "digest_lines": len(change["digests"]),
                    PAIR_METRIC: [parent["metrics"][PAIR_METRIC]["value"],
                                  change["metrics"][PAIR_METRIC]["value"]],
                })
            workloads[workload] = {"pairs": pairs, "metrics": summarize(runs, declared)}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "claim": args.claim,
        "command": "python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds:g} --trace 0",
        "method": METHOD,
        "workloads": workloads,
        "provenance": provenance,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for workload, data in workloads.items():
        m = data["metrics"][PAIR_METRIC]
        print(f"{workload} {PAIR_METRIC}: {m['parent']['median']:.4g} -> "
              f"{m['change']['median']:.4g} ({m['change_vs_parent_median']:+.1%}, "
              f"{m['change_better_pairs']}/{m['pairs']} pairs); failed runs: "
              f"{sum(sum(p['failed']) > 0 for p in data['pairs'])}; digests identical: "
              f"{all(p['digests_identical'] for p in data['pairs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
