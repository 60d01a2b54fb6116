"""Command-line surface: generate-and-train bundles, merge, and emit the
analysis CSVs (accuracy tables, conflict matrices, landscape grids,
per-layer sensitivity, hyper-parameter sweeps)."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bundle import (
    bundle_config_from_mapping,
    checked_exemplar_count,
    load_bundle,
    make_bundle,
    save_bundle,
    _parse_config_file,
)
from .datasets import write_csv
from .errors import ConfigError, TrustMergeError
from .evaluation import (
    accuracy_table,
    knowledge_conflict,
    landscape,
    write_accuracy_csv,
    write_conflict_csv,
    write_landscape_csv,
)
from .merging import (METHODS, AdaConfig, MergeConfig, load_merge_result, merge_bundle,
                      save_merge_result)
from .mlp import checked_fraction
# unused here, but perfbench/tests check that the tracer patches this binding
from .params import load_checkpoint  # noqa: F401
from .trust_region import VARIANTS, compute_sensitivity, per_layer_sensitivity, write_per_layer_csv

TAU_GRID = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05)
_DEFAULT = MergeConfig()  # the flags' defaults
EXEMPLAR_GRID = (0, 1, 2, 4, 8, 16, 32, 64, 128)


def _task(text: str) -> int | None:
    """``--task``: a task index, or ``total`` (None) for all tasks."""
    return None if text == "total" else int(text)


def _config_from_flags(args) -> MergeConfig:
    ada = AdaConfig(
        steps=args.ada_steps, learning_rate=args.ada_lr, init_lambda=args.ada_init_lambda
    )
    return MergeConfig(
        method=args.method,
        lam=args.lam,
        tau=args.tau,
        ties_trim_keep=args.ties_trim_keep,
        ties_mask_from_trimmed=args.ties_mask_from_trimmed,
        sensitivity_variant=args.variant,
        ada=ada,
    )


def _add_merge_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=METHODS, default=_DEFAULT.method)
    parser.add_argument("--lambda", dest="lam", type=float, default=_DEFAULT.lam)
    parser.add_argument("--tau", type=float, default=_DEFAULT.tau)
    parser.add_argument("--ties-trim-keep", type=float, default=_DEFAULT.ties_trim_keep)
    parser.add_argument("--ties-mask-from-trimmed", action="store_true")
    parser.add_argument("--variant", choices=VARIANTS, default=_DEFAULT.sensitivity_variant)
    parser.add_argument("--exemplars", type=int, default=None,
                        help="exemplars per task; 0 switches to zero-shot gradients")
    parser.add_argument("--ada-steps", type=int, default=_DEFAULT.ada.steps)
    parser.add_argument("--ada-lr", type=float, default=_DEFAULT.ada.learning_rate)
    parser.add_argument("--ada-init-lambda", type=float, default=_DEFAULT.ada.init_lambda)


def cmd_gen_train(args) -> int:
    kv = _parse_config_file(Path(args.config)) if args.config else {}
    for override in args.set:
        key, sep, value = override.partition("=")
        if not sep:
            raise ConfigError(f"override {override!r} is not key=value")
        kv[key] = value
    cfg = bundle_config_from_mapping(kv)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    bundle = make_bundle(cfg)
    save_bundle(bundle, args.out)
    print(f"bundle written to {args.out}")
    return 0


def cmd_merge(args) -> int:
    cfg = _config_from_flags(args)
    bundle = load_bundle(args.bundle)
    save_merge_result(merge_bundle(bundle, cfg, args.exemplars), args.out)
    print(f"merged model written to {args.out}")
    return 0


def _out_dir(args) -> Path:
    """``--out``, created: call it once the work is done, so a failed command writes nothing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_eval(args) -> int:
    bundle = load_bundle(args.bundle)
    results = [load_merge_result(path, bundle.theta_pre) for path in args.merged]
    named = [(Path(p).name if r.config is None else r.config.method, r)
             for p, r in zip(args.merged, results)]
    rows = accuracy_table(bundle, named)
    write_accuracy_csv(rows, bundle.num_tasks, _out_dir(args) / "accuracy.csv")
    for name, _, avg in rows[2:]:
        print(f"{name} avg_acc={avg}")
    return 0


def cmd_conflict(args) -> int:
    cfg = _config_from_flags(args)
    bundle = load_bundle(args.bundle)
    reports = [knowledge_conflict(bundle, cfg, basis, args.exemplars)
               for basis in ("loss", "accuracy")]
    out = _out_dir(args)
    # loss and accuracy bases are emitted as separate files, never mixed
    for report in reports:
        write_conflict_csv(report, out / f"conflict_{report.basis}.csv")
    print(f"conflict matrices written to {out}")
    return 0


def cmd_landscape(args) -> int:
    bundle = load_bundle(args.bundle)
    grid = landscape(bundle, args.task, args.decomp_fraction)
    path = _out_dir(args) / "landscape.csv"
    write_landscape_csv(grid, path)
    print(f"landscape grid written to {path}")
    return 0


def cmd_sensitivity(args) -> int:
    bundle = load_bundle(args.bundle)
    omega = compute_sensitivity(
        bundle.gradient_estimates(args.exemplars), bundle.task_vectors(), args.variant
    )
    out = _out_dir(args)
    write_per_layer_csv(per_layer_sensitivity(omega), out / "sensitivity_per_layer.csv")
    print(f"per-layer sensitivity written to {out}")
    return 0


def cmd_sweep(args) -> int:
    base = MergeConfig(method="tatr", lam=args.lam, tau=args.tau)
    bundle = load_bundle(args.bundle)

    def avg_acc(cfg: MergeConfig, exemplars) -> float:
        result = merge_bundle(bundle, cfg, exemplars)
        rows = accuracy_table(bundle, [(cfg.method, result)])
        return rows[-1][2]

    # every merge runs before the first file is written
    taus = [(tau, avg_acc(replace(base, tau=tau), args.exemplars)) for tau in TAU_GRID]
    counts = [(count, avg_acc(base, count)) for count in EXEMPLAR_GRID]
    out = _out_dir(args)
    write_csv(out / "tau_sweep.csv", ["tau", "avg_acc"], taus)
    write_csv(out / "exemplar_sweep.csv", ["exemplars", "avg_acc"], counts)
    print(f"sweeps written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trustmerge")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every command that reads a bundle
    bundle_io = argparse.ArgumentParser(add_help=False)
    bundle_io.add_argument("--bundle", required=True)
    bundle_io.add_argument("--out", required=True)

    p = sub.add_parser("gen-train", help="generate synthetic tasks and train the experts")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_train)

    p = sub.add_parser("merge", parents=[bundle_io], help="merge a bundle's experts")
    _add_merge_flags(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("eval", parents=[bundle_io], help="accuracy table for merged models")
    p.add_argument("--merged", nargs="+", required=True, help="merge output directories")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("conflict", parents=[bundle_io], help="knowledge-conflict matrices")
    _add_merge_flags(p)
    p.set_defaults(func=cmd_conflict)

    p = sub.add_parser("landscape", parents=[bundle_io], help="loss grid over the component plane")
    p.add_argument("--task", type=_task, default=None, help="task index or 'total'")
    p.add_argument("--decomp-fraction", type=float, default=0.05,
                   help="fraction of lowest |grad*delta| products treated as orthogonal")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("sensitivity", parents=[bundle_io], help="per-layer mean sensitivity")
    p.add_argument("--variant", choices=VARIANTS, default=_DEFAULT.sensitivity_variant)
    p.add_argument("--exemplars", type=int, default=None)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("sweep", parents=[bundle_io], help="tau and exemplar-count grids")
    p.add_argument("--lambda", dest="lam", type=float, default=_DEFAULT.lam)
    p.add_argument("--tau", type=float, default=_DEFAULT.tau)
    p.add_argument("--exemplars", type=int, default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # settings that need no bundle, before any bundle is read (--task needs its task count)
        checked_exemplar_count(getattr(args, "exemplars", None))
        checked_fraction(getattr(args, "decomp_fraction", 0.0), "decomposition fraction")
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except TrustMergeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
