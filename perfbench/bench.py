"""The trustmerge benchmark: workloads, metrics and the result line.

Three closed-loop workloads, each with one client in this process that
starts its next operation only when the previous one has finished:

``train``    make_bundle + save_bundle of a default bundle, cycling over three
             seeds derived from the workload seed.  Almost all of its time is
             SGD in ``mlp.train``; it runs no merge math in the op itself.
``analyze``  load_bundle of a default bundle built during set-up, then the
             CLI's analysis battery in-process.  No training; the time goes
             to per-example backward passes in ``gradients``.
``cli``      the README pipeline as ``trustmerge`` subprocesses on the small
             test config.  Mostly interpreter start-up and artifact IO.

Every end-to-end metric is reported on every workload.  The stage metrics
(``merge_tatr_s`` ... ``eval_s``) come from the in-process analysis battery
on ``analyze``, from the same battery on a small bundle (the test config,
built in set-up) after each timed op on ``train``, and from the wall time of
the matching subcommand on ``cli``.  ``cli_startup_s`` is ``trustmerge
--help`` as a subprocess, run every cycle on every workload.

Each timed piece of an op is a lap (see :class:`Laps`), scaled by a fixed
reference loop timed around it.  Per op, a stage metric sums its laps
(averaging repeats) and ``op_p50_s`` sums all the laps of the op; a metric
is the median of those per-op values over the run.

With ``trace`` on, every cycle runs the op once untraced and once under
:class:`tracer.Tracer`, and the result reports the per-layer metrics per
traced op plus the tracing overhead (median traced minus median untraced
op wall time), all unscaled.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import trustmerge as tm
import trustmerge.cli as tmcli
from trustmerge.bundle import bundle_config_from_mapping

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("train", "analyze", "cli")

# The small test config of the README pipeline (and of smoke runs).
SMALL_CONFIG = {
    "hidden": "8", "samples_train": "96", "samples_test": "48",
    "exemplar_count": "12", "pretrain_epochs": "6", "finetune_epochs": "10",
}
CLI_MERGES = {"tatr": "tatr", "task_arithmetic": "ta", "ties": "ties", "ada_tatr": "ada"}
FAST_METHODS = ("average", "task_arithmetic", "ties")
TRAIN_SEED_PERIOD = 3
STARTUP_REPEATS = 2
SUBPROCESS_TIMEOUT_S = 120
# ``trustmerge`` as its console-script entry point would run it.
CLI_ENTRY = [sys.executable, "-c", "import sys; from trustmerge.cli import main; sys.exit(main())"]

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("merge_tatr_s", "s"),
    ("merge_ada_tatr_s", "s"),
    ("merge_fast_s", "s"),
    ("conflict_s", "s"),
    ("landscape_s", "s"),
    ("sensitivity_s", "s"),
    ("sweep_s", "s"),
    ("eval_s", "s"),
    ("cli_startup_s", "s"),
)
# the metrics that are sums of laps of one kind (all but set-up, op and memory)
STAGES = tuple(n for n, _ in END_TO_END if n not in ("setup_s", "op_p50_s", "peak_rss_mb"))
CLI_COMMANDS = ("gen-train", "merge", "eval", "conflict", "landscape", "sensitivity", "sweep")


def _layer(span: str, *quantities: str) -> list[tuple[str, str]]:
    def unit(q):
        return "s" if q.endswith("_s") else "B" if q.startswith("bytes") else "count"

    return [(f"{span}.{q}", unit(q)) for q in quantities]


PER_LAYER = (
    _layer("params.Checkpoint", "constructions")
    + _layer("params.ew", "calls", "self_s")
    + _layer("params.save_checkpoint", "calls", "bytes", "self_s")
    + _layer("params.load_checkpoint", "calls", "bytes", "self_s")
    + _layer("datasets.generate_task", "self_s")
    + _layer("datasets.save_batch_csv", "rows", "self_s")
    + _layer("datasets.load_batch_csv", "rows", "self_s")
    + _layer("mlp.train", "calls", "sgd_steps", "self_s")
    + _layer("mlp.backward", "calls", "samples", "self_s")
    + _layer("mlp.forward", "calls", "samples", "self_s")
    + _layer("mlp.entropy_loss", "calls", "self_s")
    + _layer("gradients.estimate_abs_gradient", "calls", "exemplars", "self_s")
    + [("gradients.distinct_ratio", "ratio"), ("gradients.backward_per_exemplar", "ratio")]
    + _layer("task_vectors.compute_task_vector", "calls", "self_s")
    + _layer("task_vectors.decompose", "self_s")
    + _layer("trust_region.compute_sensitivity", "calls", "self_s")
    + _layer("trust_region.build_mask", "calls", "self_s")
    + [m for f in ("weight_average", "task_arithmetic", "tatr_merge", "ties_merge",
                   "ties_tatr", "ada_tatr") for m in _layer(f"merging.{f}", "self_s")]
    + _layer("merging.ada_coefficient_gradient", "calls", "self_s")
    + _layer("bundle.make_bundle", "self_s")
    + _layer("bundle.save_bundle", "self_s")
    + _layer("bundle.load_bundle", "self_s", "bytes_verified")
    + _layer("bundle.TaskBundle.gradient_estimates", "calls", "self_s")
    + _layer("evaluation.merge_bundle", "calls", "self_s")
    + _layer("evaluation.knowledge_conflict", "merges", "self_s")
    + _layer("evaluation.landscape", "self_s")
    + _layer("evaluation.accuracy_table", "self_s")
    + [("cli.startup_s", "s")]
    + [m for c in CLI_COMMANDS for m in _layer(f"cli.{c}", "wall_s", "self_s")]
    + [("trace.op_p50_s", "s"), ("trace.untraced_op_p50_s", "s"), ("trace.overhead_s", "s")]
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def bundle_config(seed: int, small: bool):
    if small:
        return bundle_config_from_mapping({**SMALL_CONFIG, "seed": str(seed)})
    return tm.BundleConfig(seed=seed)


def setup_probe(workload: str, seed: int, out_dir: str, small: bool) -> None:
    """The set-up a workload needs before its first op, run in a fresh process:
    the bundle ``analyze`` analyses, or the small bundle of ``train``'s stage
    metrics."""
    if workload != "cli":
        cfg = bundle_config(seed, small or workload == "train")
        tm.save_bundle(tm.make_bundle(cfg), out_dir)


def provenance(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if head.returncode == 0:
            commit, dirty = head.stdout.strip(), bool(status.stdout.strip())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "git_commit": commit,
        "git_dirty": dirty,
        "load_generator": "1 process, 1 closed-loop client",
    }


# How fast the host runs the program moves by up to 2x for seconds at a time
# when other machines load the shared cores; even the fastest lap of a run
# can be slow.  A fixed loop of the same kind of work as the program's inner
# loops (tiny numpy products behind Python calls) slows down with it, so
# every lap is scaled by REFERENCE_S / (the loop's time around the lap): the
# end-to-end times are seconds on a host that runs this loop in REFERENCE_S
# (about what the host this was written on takes when nothing else runs).
REFERENCE_S = 3e-4
SAMPLE_INTERVAL_S = 0.05
_REF_W = np.random.default_rng(0).random((16, 16))
_REF_X = np.random.default_rng(1).random((8, 16))


def reference_time() -> float:
    """Median wall time of five runs of the fixed reference loop."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0.0
        for _ in range(100):
            total += float(np.tanh(_REF_X @ _REF_W).sum())
        times.append(perf_counter() - start)
    return statistics.median(times)


class Laps:
    """Wall times of the named pieces of one op, in the order they ran.

    A key is ``<metric>`` or ``<metric>/<part>`` for the pieces that make up
    an end-to-end metric, or another name for the rest of the op.  The
    reference loop runs before the first lap and after every lap; each lap
    is kept raw and scaled by the mean reference time around it.  With
    ``sample_inside`` (in-process laps only), a timer signal also runs the
    loop every SAMPLE_INTERVAL_S inside the lap, so that a long lap is scaled
    by the host's speed during it, not only at its ends; the time the
    samples take is left out of the lap.
    """

    def __init__(self, sample_inside: bool = False):
        self.items: list[tuple[str, float, float]] = []  # (key, raw s, scaled s)
        self._ref = reference_time()
        self._sample_inside = sample_inside

    @contextmanager
    def __call__(self, key: str):
        refs, paused = [self._ref], 0.0

        def sample(signum, frame):
            nonlocal paused
            begin = perf_counter()
            refs.append(reference_time())
            paused += perf_counter() - begin

        if self._sample_inside:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = perf_counter()
        try:
            yield
        finally:
            if self._sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            raw = perf_counter() - start - paused
            self._ref = reference_time()
            refs.append(self._ref)
            self.items.append((key, raw, raw * REFERENCE_S / statistics.fmean(refs)))


def analysis_battery(bundle, laps: Laps, fast_repeats: int) -> dict:
    """The CLI's analysis battery in-process; returns its outputs."""
    MC = tm.MergeConfig
    merges = {}
    with laps("merge_tatr_s"):
        merges["tatr"] = tm.merge_bundle(bundle, MC(method="tatr"))
    with laps("merge_ada_tatr_s"):
        merges["ada_tatr"] = tm.merge_bundle(bundle, MC(method="ada_tatr"))
    with laps("merge_ties_tatr"):
        merges["ties_tatr"] = tm.merge_bundle(bundle, MC(method="ties_tatr"))
    # a millisecond each: repeated so the mean clears timer noise
    for _ in range(fast_repeats):
        with laps("merge_fast_s"):
            merges.update({m: tm.merge_bundle(bundle, MC(method=m)) for m in FAST_METHODS})
    results = [(m, merges[m]) for m in tm.merging.METHODS]
    for _ in range(fast_repeats):
        with laps("eval_s"):
            accuracy = tm.accuracy_table(bundle, results)
    conflict = []
    for basis in ("loss", "accuracy"):
        with laps(f"conflict_s/{basis}"):
            conflict.append(tm.knowledge_conflict(bundle, MC(method="tatr"), basis))
    with laps("landscape_s"):
        grid = tm.landscape(bundle, None, 0.05)
    sensitivity = []
    for variant in tm.trust_region.VARIANTS:
        with laps(f"sensitivity_s/{variant}"):
            sensitivity.append(tm.compute_sensitivity(
                bundle.gradient_estimates(None), bundle.task_vectors(), variant
            ))

    def avg_acc(key, cfg, exemplars=None) -> float:
        with laps(key):
            result = tm.merge_bundle(bundle, cfg, exemplars)
            return tm.accuracy_table(bundle, [(cfg.method, result)])[-1][2]

    # the two grids of ``trustmerge sweep``
    sweep = {
        "tau": [avg_acc(f"sweep_s/tau={t}", MC(method="tatr", tau=t)) for t in tmcli.TAU_GRID],
        "exemplars": [avg_acc(f"sweep_s/exemplars={n}", MC(method="tatr"), n)
                      for n in tmcli.EXEMPLAR_GRID],
    }
    return {
        "merges": merges, "accuracy": accuracy, "conflict": conflict,
        "landscape": grid, "sensitivity": sensitivity, "sweep": sweep,
    }


# Lap key of each command of the CLI pipeline (merges by method).
CLI_LAPS = {
    "gen-train": "gen-train",
    "tatr": "merge_tatr_s",
    "task_arithmetic": "merge_fast_s/task_arithmetic",
    "ties": "merge_fast_s/ties",
    "ada_tatr": "merge_ada_tatr_s",
    "eval": "eval_s",
    "conflict": "conflict_s",
    "landscape": "landscape_s",
    "sensitivity": "sensitivity_s",
    "sweep": "sweep_s",
}


def cli_pipeline(root: Path, seed: int) -> list[tuple[str, list[str]]]:
    """(lap key, argv) of each README pipeline command, on the small test config."""
    bundle = str(root / "bundle")
    sets = [a for k, v in SMALL_CONFIG.items() for a in ("--set", f"{k}={v}")]
    argvs = [["gen-train", "--seed", str(seed), "--out", bundle, *sets]]
    for method, out in CLI_MERGES.items():
        argvs.append(["merge", "--bundle", bundle, "--out", str(root / out), "--method", method])
    argvs += [
        ["eval", "--bundle", bundle, "--merged", *(str(root / d) for d in CLI_MERGES.values()),
         "--out", str(root / "eval")],
        ["conflict", "--bundle", bundle, "--method", "task_arithmetic", "--out", str(root / "conflict")],
        ["landscape", "--bundle", bundle, "--out", str(root / "scape")],
        ["sensitivity", "--bundle", bundle, "--out", str(root / "sens")],
        ["sweep", "--bundle", bundle, "--out", str(root / "sweep")],
    ]
    return [(CLI_LAPS[argv[-1] if argv[0] == "merge" else argv[0]], argv) for argv in argvs]


class OpFailed(Exception):
    pass


def _cli_main(argv: list[str]) -> None:
    code = tmcli.main(argv)
    if code != 0:
        raise OpFailed(f"trustmerge {argv[0]} returned {code} in-process")


class Run:
    """State of one benchmark run: per-op samples, digests and op counts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke, self.work = trace, smoke, work
        self.fast_repeats = 2 if smoke else 20
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.digests: dict[tuple[int, str], str] = {}
        self.attempted = self.failed = 0
        self.setup_problems: list[str] = []
        self.format_defects: set[str] = set()
        self.tracer = Tracer() if trace else None
        self.traced_ops = 0
        self.env = child_env()
        self.bundle_dir = work / "bundle"
        self.num_tasks = bundle_config(0, smoke).num_tasks

    # -- helpers ----------------------------------------------------------

    def record_laps(self, laps: Laps, op_part: bool = True) -> None:
        """Add one sample per end-to-end metric that ``laps`` timed: the sum
        over its keys of each key's mean scaled lap (repeats average); all
        laps together are one sample of the op when ``op_part``."""
        per_key = defaultdict(list)
        for key, _, scaled in laps.items:
            per_key[key].append(scaled)
        for name in STAGES:
            parts = [statistics.fmean(v) for k, v in per_key.items() if k.split("/")[0] == name]
            if parts:
                self.samples[name].append(sum(parts))
        if op_part:
            self.samples["op_p50_s"].append(sum(scaled for _, _, scaled in laps.items))

    def record_digests(self, seed: int, digests: dict[str, str]) -> list[str]:
        problems = []
        for artifact, sha in digests.items():
            known = self.digests.setdefault((seed, artifact), sha)
            if known != sha:
                problems.append(f"seed {seed} {artifact}: digest {sha} differs from {known}")
        return problems

    def subprocess(self, argv: list[str], cwd: Path) -> None:
        proc = subprocess.run(
            argv, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode} from {argv[3:]}: {proc.stderr.strip()[-500:]}")

    def traced(self):
        self.traced_ops += 1
        return self.tracer.recording(self.traced_ops - 1)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        reps = 1 if self.smoke else (3 if self.workload == "analyze" else 5)
        probe = [
            sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--setup-probe", str(self.bundle_dir),
        ] + (["--smoke"] if self.smoke else [])
        laps = Laps()
        for _ in range(reps):
            with laps("setup_s"):
                self.subprocess(probe, self.work)
            if self.workload != "cli":
                self.setup_problems += checks.check_bundle_dir(self.bundle_dir, self.num_tasks)
                self.setup_problems += self.record_digests(self.seed, {
                    f"{self.workload}_setup/{k}": v for k, v in checks.digest_tree(self.bundle_dir).items()
                })
        self.samples["setup_s"] = [scaled for _, _, scaled in laps.items]
        if self.workload == "train":
            self.small_bundle = tm.load_bundle(self.bundle_dir)

    # -- ops --------------------------------------------------------------

    def battery_checks(self, bundle, seed: int, outputs: dict) -> list[str]:
        outputs["tatr_tau0"] = tm.merge_bundle(bundle, tm.MergeConfig(method="tatr", tau=0.0))
        return checks.check_battery(outputs, bundle.num_tasks) + self.record_digests(
            seed, {f"battery/{k}": v for k, v in checks.digest_battery(outputs).items()}
        )

    def train_op(self, i: int, traced: bool) -> list[str]:
        seed = TRAIN_SEED_PERIOD * self.seed + i % TRAIN_SEED_PERIOD
        cfg = bundle_config(seed, self.smoke)
        out = self.work / f"train{i}{'t' if traced else ''}"
        laps = Laps(sample_inside=not self.trace)
        start = perf_counter()
        with self.traced() if traced else nullcontext():
            with laps("make_bundle"):
                bundle = tm.make_bundle(cfg)
            with laps("save_bundle"):
                tm.save_bundle(bundle, out)
        self.samples["traced_op_wall" if traced else "op_wall"].append(perf_counter() - start)
        problems = checks.check_bundle_dir(out, cfg.num_tasks) + self.record_digests(
            seed, {f"bundle/{k}": v for k, v in checks.digest_tree(out).items()}
        )
        shutil.rmtree(out)
        if self.trace:
            return problems
        self.record_laps(laps)
        # The stage metrics, outside the op, on the small bundle of the set-up:
        # short laps, many samples, and a second size next to ``analyze``.
        laps = Laps(sample_inside=True)
        outputs = analysis_battery(self.small_bundle, laps, self.fast_repeats)
        self.record_laps(laps, op_part=False)
        return problems + self.battery_checks(self.small_bundle, self.seed, outputs)

    def analyze_op(self, i: int, traced: bool) -> list[str]:
        laps = Laps(sample_inside=not self.trace)
        start = perf_counter()
        with self.traced() if traced else nullcontext():
            with laps("load_bundle"):
                bundle = tm.load_bundle(self.bundle_dir)
            outputs = analysis_battery(bundle, laps, self.fast_repeats)
        self.samples["traced_op_wall" if traced else "op_wall"].append(perf_counter() - start)
        if not self.trace:
            self.record_laps(laps)
        return self.battery_checks(bundle, self.seed, outputs)

    def cli_op(self, i: int, mode: str) -> list[str]:
        """mode: "subprocess" (the timed op), "inprocess" or "traced" (cli.main in-process)."""
        root = self.work / f"cli{i}{mode[0]}"
        root.mkdir()
        pipeline = cli_pipeline(root, self.seed)
        laps = Laps()
        start = perf_counter()
        if mode == "subprocess":
            for key, argv in pipeline:
                with laps(key):
                    self.subprocess(CLI_ENTRY + argv, root)
        else:
            with redirect_stdout(io.StringIO()), self.traced() if mode == "traced" else nullcontext():
                for _, argv in pipeline:
                    with self.tracer.span(f"cli.{argv[0]}") if mode == "traced" else nullcontext():
                        _cli_main(argv)
        wall = {"subprocess": "op_wall", "inprocess": "inprocess_op_wall", "traced": "traced_op_wall"}
        self.samples[wall[mode]].append(perf_counter() - start)
        if mode == "subprocess":
            self.record_laps(laps)
            for command in CLI_COMMANDS:
                self.samples[f"cli.{command}.wall_s"].append(sum(
                    raw for (_, raw, _), (_, argv) in zip(laps.items, pipeline) if argv[0] == command
                ))
        problems = checks.check_cli_outputs(root, self.num_tasks, list(CLI_MERGES.values()))
        self.format_defects.update(checks.cli_format_defects(root))
        problems += self.record_digests(self.seed, {f"cli/{k}": v for k, v in checks.digest_tree(root).items()})
        shutil.rmtree(root)
        return problems

    def cycle(self, i: int) -> list[list[str]]:
        """One closed-loop cycle; returns the problems of each op it ran."""
        laps = Laps()
        for _ in range(STARTUP_REPEATS):
            with laps("cli_startup_s"):
                self.subprocess(CLI_ENTRY + ["--help"], self.work)
        self.record_laps(laps, op_part=False)
        self.samples["cli.startup_s"] += [raw for _, raw, _ in laps.items]
        if self.workload == "cli":
            modes = ("subprocess", "inprocess", "traced") if self.trace else ("subprocess",)
            return [self.cli_op(i, m) for m in modes]
        op = self.train_op if self.workload == "train" else self.analyze_op
        return [op(i, traced) for traced in ((False, True) if self.trace else (False,))]

    def loop(self) -> int:
        ops_per_cycle = (3 if self.workload == "cli" else 2) if self.trace else 1
        start = perf_counter()
        i = 0
        while i == 0 or perf_counter() - start < self.seconds:
            try:
                results = self.cycle(i)
            except Exception:  # an op that raises counts as failed; keep measuring
                traceback.print_exc()
                results = [["raised"]] * ops_per_cycle
            self.attempted += len(results)
            for problems in results:
                if problems:
                    self.failed += 1
                    print(f"cycle {i}: op failed: {problems[:5]}", file=sys.stderr)
            i += 1
        return i

    # -- report -----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload == "cli":
            rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        out = {name: _median(self.samples[name]) for name, _ in END_TO_END}
        out["peak_rss_mb"] = (rss_kb / 1024.0, 1)
        return out

    def per_layer(self) -> dict[str, tuple[float, int]]:
        n = self.traced_ops
        summary = self.tracer.summary(n) if n else {}
        out = {name: (summary.get(name, 0.0), n) for name, _ in PER_LAYER}
        for name in ["cli.startup_s"] + [f"cli.{c}.wall_s" for c in CLI_COMMANDS]:
            out[name] = _median(self.samples[name])
        untraced = self.samples["inprocess_op_wall" if self.workload == "cli" else "op_wall"]
        traced, untraced = _median(self.samples["traced_op_wall"]), _median(untraced)
        out["trace.op_p50_s"] = traced
        out["trace.untraced_op_p50_s"] = untraced
        out["trace.overhead_s"] = (traced[0] - untraced[0], traced[1])
        return out


def _median(values: list[float]) -> tuple[float, int]:
    return (statistics.median(values), len(values)) if values else (0.0, 0)


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir()
    try:
        state = Run(workload, seed, seconds, trace, smoke, work)
        state.setup()
        cycles = state.loop()
        if trace:
            spans_path = WORK_ROOT / f"spans-{workload}.tsv"
            state.tracer.write(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = PER_LAYER if trace else END_TO_END
    values = state.per_layer() if trace else state.end_to_end()
    correct = state.failed == 0 and not state.setup_problems
    print(f"# trustmerge benchmark: workload={workload} seed={seed} trace={int(trace)} "
          f"seconds={seconds} smoke={int(smoke)} cycles={cycles}")
    print("provenance " + json.dumps(provenance(workload, seed), sort_keys=True))
    for problem in state.setup_problems:
        print(f"setup problem: {problem}")
    for defect in sorted(state.format_defects):
        print(f"warning: output format defect (not counted as failed): {defect}")
    for name, unit in declared:
        value, n = values[name]
        print(f"metric {name} = {value!r} {unit} (n={n})")
    for key in ("op_wall", "inprocess_op_wall", "traced_op_wall"):
        walls = sorted(state.samples[key])
        if walls:
            print(f"{key}: median={statistics.median(walls):.4f} s max={walls[-1]:.4f} s "
                  f"min={walls[0]:.4f} s (n={len(walls)})")
    print(f"ops attempted={state.attempted} failed={state.failed} "
          f"failed_frac={state.failed / state.attempted!r}")
    if trace:
        print(f"spans written to {spans_path.relative_to(ROOT)} ({len(state.tracer.spans)} spans)")
    for (digest_seed, artifact), sha in sorted(state.digests.items()):
        print(f"digest seed={digest_seed} {artifact} {sha}")
    print(json.dumps({
        "correct": correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in declared},
    }))
    return 0
