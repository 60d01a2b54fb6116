"""Raise mutants: is every guard in the package load-bearing?

Replaces each ``raise`` of an exception in ``src/trustmerge`` with ``pass``,
one at a time, in a copy of the tree, runs the tier-1 suite there, and lists
the mutants that the suite does not kill (the survivors).  A survivor is a
guard that no test depends on: add a test that fails without it, or delete
it where another check already raises the same class.

    python tools/raise_mutants.py [--jobs 2]

The suite runs with ``-x``, and ``tests/test_acceptance.py``, which takes most
of its time, runs last, so a mutant that a fast test kills stops early.  Each
run has a time limit and an address-space cap, so a mutant that loops or
allocates without bound fails instead of hanging or filling the host.  Exit
status 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated suite does not pass.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/trustmerge")
SLOW_LAST = "test_acceptance.py"
TIMEOUT_S = 600  # per suite run; an unmutated run takes ~20 s
MEMORY_CAP = 4 * 2**30  # address space per suite run, in bytes
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     ".perfbench_work", ".bench_build")

# sets the address-space cap, then becomes the command that follows it (a
# preexec_fn is not safe while other threads run)
_CAPPED = ("import os, resource, sys; n = int(sys.argv[1]); "
           "resource.setrlimit(resource.RLIMIT_AS, (n, n)); os.execv(sys.argv[2], sys.argv[2:])")


def raise_spans(source: str) -> list[tuple[int, int, int, int]]:
    """(line, column, end line, end column) of each ``raise`` statement that
    names an exception, in source order; columns are UTF-8 byte offsets, as
    ``ast`` gives them.  A bare ``raise`` re-raises and is left alone."""
    return sorted(
        (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and node.exc is not None
    )


def mutate(source: str, span: tuple[int, int, int, int]) -> str:
    """``source`` with the statement at ``span`` replaced by ``pass``; the
    rest of its first and last line (an ``if x:`` before it, a comment after
    it) is kept."""
    lines = source.encode("utf-8").splitlines(keepends=True)
    line, col, end_line, end_col = span
    joined = lines[line - 1][:col] + b"pass" + lines[end_line - 1][end_col:]
    return b"".join(lines[: line - 1] + [joined] + lines[end_line:]).decode("utf-8")


def mutants(package: Path) -> list[tuple[str, int, str]]:
    """(file name, line, mutated source) of every raise mutant of ``package``."""
    found = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text("utf-8")
        found += [(path.name, span[0], mutate(source, span)) for span in raise_spans(source)]
    return found


def suite_command(tree: Path) -> list[str]:
    files = sorted(p.name for p in (tree / "tests").glob("test_*.py"))
    ordered = [f for f in files if f != SLOW_LAST] + [f for f in files if f == SLOW_LAST]
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *(f"tests/{f}" for f in ordered)]


def run_suite(tree: Path) -> str:
    """"pass", "fail" or "timeout" for the tier-1 suite in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    capped = [sys.executable, "-c", _CAPPED, str(MEMORY_CAP), *suite_command(tree)]
    try:
        proc = subprocess.run(capped, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="suites run at once, one tree copy each")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error("--jobs must lie in [1, the number of CPUs]")
    cases = mutants(ROOT / PACKAGE)
    with tempfile.TemporaryDirectory(prefix="raise-mutants-") as work:
        copies = [Path(shutil.copytree(ROOT, Path(work) / f"tree{j}", ignore=COPY_IGNORE))
                  for j in range(args.jobs)]
        baseline = run_suite(copies[0])
        if baseline != "pass":
            print(f"the unmutated suite does not pass ({baseline})", file=sys.stderr)
            return 2
        trees: queue.Queue = queue.Queue()
        for tree in copies:
            trees.put(tree)

        def run(case):
            name, line, source = case
            tree = trees.get()
            target = tree / PACKAGE / name
            original = target.read_text("utf-8")
            try:
                target.write_text(source, "utf-8")
                outcome = run_suite(tree)
            finally:
                target.write_text(original, "utf-8")
                trees.put(tree)
            verdict = {"pass": "SURVIVED", "fail": "killed", "timeout": "killed (timeout)"}[outcome]
            print(f"{name}:{line}: {verdict}", flush=True)
            return outcome

        with ThreadPoolExecutor(args.jobs) as pool:
            outcomes = list(pool.map(run, cases))
    survivors = [f"{name}:{line}" for (name, line, _), o in zip(cases, outcomes) if o == "pass"]
    print(f"{len(cases)} mutants, {len(survivors)} survivors"
          + (": " + ", ".join(survivors) if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
