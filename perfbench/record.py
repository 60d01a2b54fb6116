#!/usr/bin/env python3
"""Record one untraced and one traced run of every workload into a results file.

    python3 perfbench/record.py --seed 0 --out perfbench/results/<name>.json

Each workload's entry holds the result line of both runs, the provenance,
the whole-op wall summary lines and the artifact digests of the untraced run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    out = {"result": json.loads(lines[-1]), "notes": [], "digests": {}}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            out["provenance"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith("digest "):
            _, seed_field, artifact, sha = line.split()
            out["digests"][f"{seed_field} {artifact}"] = sha
        elif not line.startswith(("metric ", "# ")):
            out["notes"].append(line)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        record["provenance"] = {k: v for k, v in untraced.pop("provenance").items() if k != "workload"}
        traced.pop("provenance")
        traced.pop("digests")
        record["workloads"][workload] = {"untraced": untraced, "traced": traced}
        print(f"{workload}: correct={untraced['result']['correct'] and traced['result']['correct']}",
              file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
