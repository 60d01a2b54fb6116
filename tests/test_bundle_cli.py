import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

import trustmerge.bundle
from trustmerge.bundle import (
    DEFAULT_ROTATIONS,
    BundleConfig,
    bundle_config_from_mapping,
    load_bundle,
    make_bundle,
    save_bundle,
    _parse_config_file,
)
from trustmerge.cli import _config_from_flags, build_parser, main
from trustmerge.errors import ConfigError, IncompatibleShapes, MalformedArtifact, MissingArtifact
from trustmerge.evaluation import accuracy_table, knowledge_conflict
from trustmerge.gradients import estimate_abs_gradient
from trustmerge.merging import AdaConfig, MergeConfig
from trustmerge.mlp import TrainConfig, evaluate_accuracy
from trustmerge.params import ew_abs

from conftest import BAD_TMRG, rehash, tiny_bundle_config


TINY_FLAGS = [
    "--set", "hidden=8",
    "--set", "samples_train=96",
    "--set", "samples_test=48",
    "--set", "exemplar_count=12",
    "--set", "pretrain_epochs=6",
    "--set", "finetune_epochs=10",
]


# every bundle_config.txt key, each at a value other than its default, as
# save_bundle writes it, and the config it must parse to
NON_DEFAULT = {
    "seed": "5",
    "num_tasks": "2",
    "num_classes": "3",
    "hidden": "8,4",
    "rotations": "45.0,200.0",
    "label_perms": "2,0,1;1,2,0",
    "center_angles": "10.0,130.0,250.0",
    "noise_std": "0.3",
    "samples_train": "64",
    "samples_test": "32",
    "exemplar_count": "8",
    "pretrain_on_mixture": "False",
    "pretrain_epochs": "5",
    "pretrain_batch_size": "16",
    "pretrain_learning_rate": "0.1",
    "finetune_epochs": "7",
    "finetune_batch_size": "8",
    "finetune_learning_rate": "0.02",
}
NON_DEFAULT_CONFIG = BundleConfig(
    seed=5,
    num_tasks=2,
    num_classes=3,
    hidden=(8, 4),
    rotations=(45.0, 200.0),
    label_perms=((2, 0, 1), (1, 2, 0)),
    center_angles=(10.0, 130.0, 250.0),
    noise_std=0.3,
    samples_train=64,
    samples_test=32,
    exemplar_count=8,
    pretrain_on_mixture=False,
    pretrain=TrainConfig(epochs=5, batch_size=16, learning_rate=0.1),
    finetune=TrainConfig(epochs=7, batch_size=8, learning_rate=0.02),
)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "b3"
    code = main(["gen-train", "--seed", "3", "--out", str(out)] + TINY_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def hidden5_dir(tmp_path_factory):
    """``bundle_dir``'s bundle with 5 hidden units in place of 8."""
    out = tmp_path_factory.mktemp("bundles") / "b3h5"
    code = main(["gen-train", "--seed", "3", "--out", str(out), *TINY_FLAGS, "--set", "hidden=5"])
    assert code == 0
    return out


class TestBundle:
    def test_deterministic_construction(self, small_bundle):
        again = make_bundle(tiny_bundle_config())
        assert again.theta_pre == small_bundle.theta_pre
        for a, b in zip(again.experts, small_bundle.experts):
            assert a == b

    def test_experts_differ_from_pretrained_and_each_other(self, small_bundle):
        for expert in small_bundle.experts:
            assert expert != small_bundle.theta_pre
        assert small_bundle.experts[0] != small_bundle.experts[1]

    def test_subset(self, small_bundle):
        sub = small_bundle.subset([2, 0])
        assert sub.num_tasks == 2
        assert sub.experts[0] == small_bundle.experts[2]
        assert sub.test_sets[1] is small_bundle.test_sets[0]

    def test_gradient_estimates_trim_exemplars(self, small_bundle):
        full = small_bundle.gradient_estimates()
        pool = small_bundle.exemplar_sets[0]
        assert len(pool) == 12
        assert full[0] == estimate_abs_gradient(small_bundle.theta_pre, pool)
        assert small_bundle.gradient_estimates(3)[0] != full[0]
        zero_shot = small_bundle.gradient_estimates(0)
        assert zero_shot == [ew_abs(d) for d in small_bundle.task_vectors()]

    def test_gradient_estimates_return_a_new_list_each_call(self, small_bundle):
        first = small_bundle.gradient_estimates()
        second = small_bundle.gradient_estimates()
        assert first is not second
        assert first == second
        first.clear()
        assert small_bundle.gradient_estimates() == second

    def test_gradient_estimates_computed_once_per_effective_count(
        self, small_bundle, monkeypatch
    ):
        bundle = dataclasses.replace(small_bundle)  # a copy with an empty memo
        calls = []

        def counted(*args):
            calls.append(args)
            return estimate_abs_gradient(*args)

        monkeypatch.setattr(trustmerge.bundle, "estimate_abs_gradient", counted)
        full = bundle.gradient_estimates()
        size = len(bundle.exemplar_sets[0])
        for count in (None, size, size + 5):
            assert all(a is b for a, b in zip(bundle.gradient_estimates(count), full))
        assert len(calls) == bundle.num_tasks
        assert full == small_bundle.gradient_estimates()

    def test_second_conflict_basis_reuses_the_subset_estimates(self, small_bundle, monkeypatch):
        bundle = dataclasses.replace(small_bundle)  # a copy with an empty memo
        calls = []

        def counted(*args):
            calls.append(args)
            return estimate_abs_gradient(*args)

        monkeypatch.setattr(trustmerge.bundle, "estimate_abs_gradient", counted)
        k = bundle.num_tasks
        knowledge_conflict(bundle, MergeConfig(method="tatr"), "loss")
        assert len(calls) == k + k * (k - 1)
        knowledge_conflict(bundle, MergeConfig(method="tatr"), "accuracy")
        assert len(calls) == k + k * (k - 1)

    def test_subset_is_memoized_per_id_sequence(self, small_bundle):
        bundle = dataclasses.replace(small_bundle)
        assert bundle.subset([0, 2]) is bundle.subset([0, 2])
        assert bundle.subset((0, 2)) is bundle.subset([0, 2])
        assert bundle.subset([2, 0]) is not bundle.subset([0, 2])
        assert bundle.subset([2, 0]).experts[0] == bundle.experts[2]
        assert dataclasses.replace(bundle).subset([0, 2]) is not bundle.subset([0, 2])

    def test_baseline_accuracies_evaluated_once_per_bundle(self, small_bundle, monkeypatch):
        bundle = dataclasses.replace(small_bundle)
        calls = []

        def counted(*args):
            calls.append(args)
            return evaluate_accuracy(*args)

        monkeypatch.setattr(trustmerge.bundle, "evaluate_accuracy", counted)
        first = accuracy_table(bundle, [])
        assert [row[0] for row in first] == ["pretrained", "individual"]
        assert len(calls) == 2 * bundle.num_tasks
        first[0][1][0] = -1.0
        bundle.baseline_accuracies()[1][1].append(2.0)
        second = accuracy_table(bundle, [])
        assert len(calls) == 2 * bundle.num_tasks
        assert second[0][1][0] == evaluate_accuracy(bundle.theta_pre, bundle.test_sets[0])
        assert len(second[1][1]) == bundle.num_tasks
        assert second[1:] == first[1:]

    def test_trimmed_estimates_equal_fresh_estimates(self, small_bundle):
        for k, est in enumerate(small_bundle.gradient_estimates(3)):
            ex = small_bundle.exemplar_sets[k]
            assert est == estimate_abs_gradient(small_bundle.theta_pre, ex.take(np.arange(3)))

    def test_subset_estimates_equal_the_parents(self, small_bundle):
        parent = small_bundle.gradient_estimates()
        sub = small_bundle.subset([2, 0]).gradient_estimates()
        assert sub[0] == parent[2]
        assert sub[1] == parent[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BundleConfig(num_tasks=0)
        with pytest.raises(ValueError):
            BundleConfig(num_tasks=5)  # only 4 default rotations/perms

    def test_pretraining_mode_changes_theta_pre(self):
        from dataclasses import replace

        mix = make_bundle(tiny_bundle_config())
        base = make_bundle(replace(tiny_bundle_config(), pretrain_on_mixture=False))
        assert mix.theta_pre != base.theta_pre

    def test_base_task_pretraining_writes_the_pinned_bytes(self, tmp_path):
        """The manifest pins the sha256 of all 17 files of a bundle pretrained
        on the base task, which test_golden.py does not cover."""
        cfg = dataclasses.replace(tiny_bundle_config(seed=3), pretrain_on_mixture=False)
        save_bundle(make_bundle(cfg), tmp_path)
        assert hashlib.sha256((tmp_path / "manifest.txt").read_bytes()).hexdigest() == (
            "44d40e54a10ebb6456ef3194c186c9bbdb339bcc94bb013875097350338da103")


class TestBundleRoundTrip:
    def test_save_load(self, small_bundle, tmp_path):
        out = tmp_path / "bundle"
        save_bundle(small_bundle, out)
        loaded = load_bundle(out)
        assert loaded.theta_pre == small_bundle.theta_pre
        assert loaded.config == small_bundle.config
        for a, b in zip(loaded.experts, small_bundle.experts):
            assert a == b
        for a, b in zip(loaded.test_sets, small_bundle.test_sets):
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.labels, b.labels)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingArtifact):
            load_bundle(tmp_path)

    def test_tampered_file_detected(self, small_bundle, tmp_path):
        out = tmp_path / "bundle"
        save_bundle(small_bundle, out)
        target = out / "task0_test.csv"
        target.write_text(target.read_text().replace("0", "1", 1))
        with pytest.raises(MalformedArtifact, match="task0_test.csv does not match its manifest hash"):
            load_bundle(out)

    def test_a_csv_with_another_input_width_exits_1(self, small_bundle, tmp_path, capsys):
        out = tmp_path / "bundle"
        save_bundle(small_bundle, out)
        target = out / "task0_test.csv"
        _, *rows = target.read_text().splitlines()
        wide = ["x0,x1,x2,label", *(f"0.0,{row}" for row in rows)]
        target.write_text("\n".join(wide) + "\n")
        rehash(out, {"task0_test.csv"})
        assert main(["merge", "--bundle", str(out), "--out", str(tmp_path / "m")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedArtifact: ") and "task0_test.csv: 3 input columns" in err
        assert not (tmp_path / "m").exists()

    def test_config_mapping_round_trip(self, small_bundle, tmp_path):
        out = tmp_path / "bundle"
        save_bundle(small_bundle, out)
        cfg = bundle_config_from_mapping(_parse_config_file(out / "bundle_config.txt"))
        assert cfg == small_bundle.config

    def test_every_config_key_is_read_into_its_field(self, small_bundle, tmp_path):
        save_bundle(small_bundle, tmp_path)
        assert set(NON_DEFAULT) == set(_parse_config_file(tmp_path / "bundle_config.txt"))
        default = BundleConfig()
        for phase in ("pretrain", "finetune"):
            ours, theirs = getattr(NON_DEFAULT_CONFIG, phase), getattr(default, phase)
            for field in ("epochs", "batch_size", "learning_rate"):
                assert getattr(ours, field) != getattr(theirs, field)
        for field in dataclasses.fields(BundleConfig):
            assert getattr(NON_DEFAULT_CONFIG, field.name) != getattr(default, field.name)
        assert bundle_config_from_mapping(NON_DEFAULT) == NON_DEFAULT_CONFIG
        for key in NON_DEFAULT:  # an empty value keeps the default
            assert bundle_config_from_mapping({key: ""}) == default

    def test_non_default_config_survives_save_and_load(self, tmp_path):
        bundle = make_bundle(NON_DEFAULT_CONFIG)
        save_bundle(bundle, tmp_path)
        assert _parse_config_file(tmp_path / "bundle_config.txt") == NON_DEFAULT
        loaded = load_bundle(tmp_path)
        assert loaded.config == NON_DEFAULT_CONFIG
        assert loaded.theta_pre == bundle.theta_pre
        assert loaded.experts == bundle.experts

    def test_config_of_lists_is_stored_as_tuples_and_survives_save_and_load(
        self, small_bundle, tmp_path
    ):
        cfg = dataclasses.replace(small_bundle.config, hidden=[8],
                                  rotations=list(DEFAULT_ROTATIONS),
                                  label_perms=[list(p) for p in small_bundle.config.label_perms],
                                  center_angles=[0.0, 30.0, 60.0, 90.0])
        assert (cfg.hidden, cfg.rotations) == ((8,), DEFAULT_ROTATIONS)
        assert all(type(p) is tuple for p in cfg.label_perms)
        assert hash(cfg) == hash(dataclasses.replace(cfg))
        save_bundle(dataclasses.replace(small_bundle, config=cfg), tmp_path)
        assert load_bundle(tmp_path).config == cfg

    def test_a_config_of_numpy_numbers_is_saved_as_the_plain_one(self, small_bundle, tmp_path):
        plain = small_bundle.config
        cfg = dataclasses.replace(
            plain, seed=np.int64(plain.seed), hidden=tuple(np.array(plain.hidden)),
            rotations=tuple(np.array([0.0, 90.0, 180.0, 270.0])), noise_std=np.float64(0.45),
            label_perms=tuple(tuple(np.array(p)) for p in plain.label_perms),
            samples_train=np.int32(plain.samples_train),
            finetune=TrainConfig(epochs=np.int64(plain.finetune.epochs),
                                 learning_rate=np.float64(plain.finetune.learning_rate)))
        assert cfg == plain and type(cfg.noise_std) is float and type(cfg.rotations[0]) is float
        save_bundle(dataclasses.replace(small_bundle, config=cfg), tmp_path / "numpy")
        save_bundle(small_bundle, tmp_path / "plain")
        text = (tmp_path / "numpy" / "bundle_config.txt").read_bytes()
        assert text == (tmp_path / "plain" / "bundle_config.txt").read_bytes()
        assert load_bundle(tmp_path / "numpy").config == plain

    def test_a_reordered_manifest_still_loads(self, small_bundle, tmp_path):
        save_bundle(small_bundle, tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(reversed(manifest.read_text().splitlines(keepends=True))))
        assert load_bundle(tmp_path).experts == small_bundle.experts

    def test_a_subset_bundle_is_not_saved(self, small_bundle, tmp_path):
        with pytest.raises(IncompatibleShapes, match="subset"):
            save_bundle(small_bundle.subset([0, 1]), tmp_path / "sub")
        assert not (tmp_path / "sub").exists()

    def test_config_keeps_the_rotations_and_perms_its_tasks_use(self):
        cfg = BundleConfig(num_tasks=2)
        assert cfg.rotations == DEFAULT_ROTATIONS[:2]
        assert len(cfg.label_perms) == 2
        assert bundle_config_from_mapping({"num_tasks": "2"}) == cfg

    def test_mapping_defaults_and_overrides(self):
        cfg = bundle_config_from_mapping({"seed": "7", "noise_std": "0.2"})
        assert cfg.seed == 7
        assert cfg.noise_std == 0.2
        assert cfg.num_tasks == BundleConfig().num_tasks
        assert cfg.pretrain == TrainConfig(epochs=60)


class TestCli:
    def test_merge_eval_pipeline(self, bundle_dir, tmp_path, capsys):
        merged = tmp_path / "tatr"
        assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
        assert (merged / "merged.tmrg").exists()
        assert sorted(p.name for p in merged.iterdir()) == ["mask.tmrg", "merged.tmrg", "run.json"]
        record = json.loads((merged / "run.json").read_text())
        assert record["config"] == dataclasses.asdict(MergeConfig())
        assert record["exemplars"] is None

        out = tmp_path / "eval"
        code = main([
            "eval", "--bundle", str(bundle_dir), "--merged", str(merged),
            "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "avg_acc=" in captured
        assert captured.splitlines()[-1].startswith("tatr avg_acc=")
        assert (out / "accuracy.csv").exists()

    def test_tau_zero_merge_matches_task_arithmetic_bytes(self, bundle_dir, tmp_path):
        a = tmp_path / "ta"
        b = tmp_path / "tatr0"
        main(["merge", "--bundle", str(bundle_dir), "--method", "task_arithmetic",
              "--out", str(a)])
        main(["merge", "--bundle", str(bundle_dir), "--method", "tatr", "--tau", "0",
              "--out", str(b)])
        assert (a / "merged.tmrg").read_bytes() == (b / "merged.tmrg").read_bytes()

    def test_repeated_merge_writes_identical_files(self, bundle_dir, tmp_path):
        flags = ["--method", "ties_tatr", "--ties-mask-from-trimmed", "--tau", "0.05",
                 "--exemplars", "3", "--lambda", "0.4"]
        dirs = [tmp_path / "first", tmp_path / "second" / "nested"]
        for out in dirs:
            assert main(["merge", "--bundle", str(bundle_dir), "--out", str(out), *flags]) == 0
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in dirs]
        assert sorted(files[0]) == ["mask.tmrg", "merged.tmrg", "run.json"]
        assert files[0] == files[1]
        record = files[0]["run.json"].decode()
        assert str(tmp_path) not in record
        config = json.loads(record)["config"]
        assert (config["method"], config["ties_mask_from_trimmed"], config["lam"]) == (
            "ties_tatr", True, 0.4)

    def test_merge_is_idempotent(self, bundle_dir, tmp_path):
        a = tmp_path / "m1"
        b = tmp_path / "m2"
        for out in (a, b):
            main(["merge", "--bundle", str(bundle_dir), "--out", str(out)])
        assert (a / "merged.tmrg").read_bytes() == (b / "merged.tmrg").read_bytes()

    def test_zero_exemplar_flag_switches_source(self, bundle_dir, tmp_path):
        out = tmp_path / "zs"
        main(["merge", "--bundle", str(bundle_dir), "--exemplars", "0",
              "--out", str(out)])
        assert json.loads((out / "run.json").read_text())["exemplars"] == 0

    def test_eval_rejects_a_merge_of_another_model_shape(self, bundle_dir, tmp_path, capsys):
        other = tmp_path / "hidden5"
        assert main(["gen-train", "--seed", "3", "--out", str(other), *TINY_FLAGS,
                     "--set", "hidden=5"]) == 0
        merged = tmp_path / "ta5"
        assert main(["merge", "--bundle", str(other), "--method", "task_arithmetic",
                     "--out", str(merged)]) == 0
        capsys.readouterr()
        code = main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(tmp_path / "eval")])
        assert code == 1
        assert "IncompatibleShapes: " in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("data", [
        b"{not json", b"[]", b'{"exemplars": 0}', b'{"config": {}}', b'{"config": 3}', b"\xff",
    ], ids=["not-json", "list", "no-config", "no-method", "config-not-object", "not-utf8"])
    def test_eval_of_malformed_run_json_exits_1(self, bundle_dir, tmp_path, capsys, data):
        merged = tmp_path / "merged"
        assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
        (merged / "run.json").write_bytes(data)
        capsys.readouterr()
        code = main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "MalformedArtifact: " in capsys.readouterr().err

    def test_eval_names_a_row_by_its_directory_without_a_record(self, bundle_dir, tmp_path):
        merged = tmp_path / "unrecorded"
        assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
        (merged / "run.json").unlink()
        out = tmp_path / "eval"
        assert main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(out)]) == 0
        assert (out / "accuracy.csv").read_text().splitlines()[-1].startswith("unrecorded,")

    def test_conflict_emits_both_bases(self, bundle_dir, tmp_path):
        out = tmp_path / "conflict"
        code = main(["conflict", "--bundle", str(bundle_dir),
                     "--method", "task_arithmetic", "--out", str(out)])
        assert code == 0
        assert (out / "conflict_loss.csv").exists()
        assert (out / "conflict_accuracy.csv").exists()

    def test_landscape_csv(self, bundle_dir, tmp_path):
        out = tmp_path / "scape"
        code = main(["landscape", "--bundle", str(bundle_dir), "--out", str(out)])
        assert code == 0
        lines = (out / "landscape.csv").read_text().splitlines()
        assert len(lines) == 226

    def test_sensitivity_csv(self, bundle_dir, tmp_path):
        out = tmp_path / "sens"
        code = main(["sensitivity", "--bundle", str(bundle_dir), "--exemplars", "4",
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sensitivity_per_layer.csv").read_text().splitlines()
        assert lines[0] == "layer,mean_sensitivity"
        assert len(lines) == 5  # 2 layers x weight+bias

    def test_sweep_csvs(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--bundle", str(bundle_dir), "--exemplars", "4",
                     "--out", str(out)])
        assert code == 0
        tau_lines = (out / "tau_sweep.csv").read_text().splitlines()
        ex_lines = (out / "exemplar_sweep.csv").read_text().splitlines()
        assert tau_lines[0] == "tau,avg_acc"
        assert len(tau_lines) == 7
        assert ex_lines[0] == "exemplars,avg_acc"
        assert len(ex_lines) == 10

    def test_every_pipeline_csv_starts_with_its_header_and_ends_lines_with_crlf(
        self, bundle_dir, tmp_path
    ):
        """Every CSV goes through ``write_csv``: header first, the csv module's
        ``\\r\\n`` line ends."""
        for argv in (
            ["merge", "--out", str(tmp_path / "tatr")],
            ["merge", "--method", "task_arithmetic", "--out", str(tmp_path / "ta")],
            ["eval", "--merged", str(tmp_path / "tatr"), str(tmp_path / "ta"),
             "--out", str(tmp_path / "eval")],
            ["conflict", "--method", "task_arithmetic", "--out", str(tmp_path / "conflict")],
            ["landscape", "--out", str(tmp_path / "scape")],
            ["sensitivity", "--out", str(tmp_path / "sens")],
            ["sweep", "--exemplars", "4", "--out", str(tmp_path / "sweep")],
        ):
            assert main([*argv, "--bundle", str(bundle_dir)]) == 0
        headers = {
            "accuracy.csv": "method,task0,task1,task2,task3,avg",
            "conflict_loss.csv": "i,j,C",
            "conflict_accuracy.csv": "i,j,C",
            "landscape.csv": "u,v,loss",
            "sensitivity_per_layer.csv": "layer,mean_sensitivity",
            "tau_sweep.csv": "tau,avg_acc",
            "exemplar_sweep.csv": "exemplars,avg_acc",
        }
        headers.update({f"task{k}_{split}.csv": "x0,x1,label"
                        for k in range(4) for split in ("train", "test", "exemplars")})
        written = sorted(bundle_dir.glob("*.csv")) + sorted(tmp_path.rglob("*.csv"))
        assert sorted(p.name for p in written) == sorted(headers)
        for path in written:
            data = path.read_bytes()
            assert data.startswith(headers[path.name].encode() + b"\r\n"), path.name
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), path.name

    @pytest.mark.parametrize("command", ["merge", "conflict"])
    def test_merge_flag_defaults_are_the_library_defaults(self, command):
        args = build_parser().parse_args([command, "--bundle", "x", "--out", "y"])
        assert _config_from_flags(args) == MergeConfig()

    def test_sweep_and_sensitivity_defaults_are_the_library_defaults(self):
        sweep = build_parser().parse_args(["sweep", "--bundle", "x", "--out", "y"])
        assert (sweep.lam, sweep.tau) == (MergeConfig().lam, MergeConfig().tau)
        sens = build_parser().parse_args(["sensitivity", "--bundle", "x", "--out", "y"])
        assert sens.variant == MergeConfig().sensitivity_variant

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code = main(["gen-train", "--set", "nonsense", "--out", str(tmp_path / "x")])
        assert code == 2
        code = main(["gen-train", "--set", "num_tasks=zero", "--out", str(tmp_path / "y")])
        assert code == 2

    def test_missing_bundle_exits_1(self, tmp_path, capsys):
        code = main(["merge", "--bundle", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "m")])
        assert code == 1

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, code, message", [
        ("merge --lambda 0", 2, "ConfigError: lambda must be finite and positive"),
        ("merge --lambda nan", 2, "ConfigError: lambda must be finite and positive"),
        ("merge --tau 2", 2, "ConfigError: tau must lie in [0, 1]"),
        ("merge --ties-trim-keep 0", 2, "ConfigError: ties_trim_keep must lie in (0, 1]"),
        ("merge --ada-steps -1", 2, "ConfigError: ada steps must be an integer >= 0"),
        ("sweep --lambda 0", 2, "ConfigError: lambda must be finite and positive"),
        ("landscape --decomp-fraction 2", 2, "ConfigError: decomposition fraction must lie in [0, 1]"),
        ("landscape --task abc", 2, "argument --task"),
        ("landscape --task 9", 2, "ConfigError: reference task 9 is out of range"),
        ("gen-train --set hidden=0", 2, "ConfigError: layer sizes"),
        ("gen-train --set samples_train=0", 2, "ConfigError: sample counts"),
        ("gen-train --set exemplar_count=-1", 2, "ConfigError: exemplar_count must be >= 0"),
        ("gen-train --set noise_std=nan", 2, "ConfigError: noise_std"),
        ("gen-train --set noise_std=inf", 2, "ConfigError: noise_std"),
        ("gen-train --set pretrain_learning_rate=nan", 2, "ConfigError: learning rate"),
        ("gen-train --set finetune_learning_rate=inf", 2, "ConfigError: learning rate"),
        ("gen-train --set center_angles=nan,0,1,2", 2, "ConfigError: center angles"),
        (f"gen-train --set num_classes={'9' * 30}", 2, "ConfigError: not a valid permutation"),
        ("gen-train --set hiden=8", 2, "ConfigError: unknown config key 'hiden'"),
        ("gen-train --set seed", 2, "ConfigError: override 'seed' is not key=value"),
        ("gen-train --seed -1", 2, "ConfigError: seed must be >= 0"),
        ("gen-train --set seed=-1", 2, "ConfigError: seed must be >= 0"),
        ("gen-train --set pretrain_on_mixture=ture", 2, "ConfigError: expected true/false"),
        ("gen-train --config {tmp}/no_equals.cfg", 2, "no_equals.cfg: line 2 'hidden' is not key"),
        ("gen-train --config {tmp}/latin1.cfg", 2, "latin1.cfg: 'utf-8' codec can't decode"),
        ("eval --merged {tmp}/absent", 1, "MissingArtifact: "),
    ])
    def test_bad_input_exit_code(self, bundle_dir, tmp_path, capsys, argv, code, message):
        (tmp_path / "no_equals.cfg").write_text("# a line without '='\nhidden\n")
        (tmp_path / "latin1.cfg").write_bytes("# caf\u00e9\nhidden=8\n".encode("latin-1"))
        command, *flags = argv.format(tmp=tmp_path).split()
        args = [command, "--out", str(tmp_path / "out"), *flags]
        if command != "gen-train":
            args += ["--bundle", str(bundle_dir)]
        try:
            result = main(args)
        except SystemExit as exc:  # argparse rejected a flag value
            result = exc.code
        assert result == code
        assert message in capsys.readouterr().err
        if command == "gen-train":  # rejected before any data or training
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, make", [
        ("merge --lambda 0", lambda: MergeConfig(lam=0.0)),
        ("merge --lambda nan", lambda: MergeConfig(lam=float("nan"))),
        ("merge --tau 2", lambda: MergeConfig(tau=2.0)),
        ("merge --tau nan", lambda: MergeConfig(tau=float("nan"))),
        ("merge --ties-trim-keep 0", lambda: MergeConfig(ties_trim_keep=0.0)),
        ("merge --ada-steps -1", lambda: AdaConfig(steps=-1)),
        ("merge --ada-lr inf", lambda: AdaConfig(learning_rate=float("inf"))),
        ("merge --ada-init-lambda nan", lambda: AdaConfig(init_lambda=float("nan"))),
        ("sweep --tau 2", lambda: MergeConfig(tau=2.0)),
    ])
    def test_flag_ranges_are_the_library_rules(self, bundle_dir, tmp_path, capsys, argv, make):
        with pytest.raises(ConfigError) as expected:
            make()
        command, *flags = argv.split()
        out = tmp_path / "out"
        assert main([command, "--bundle", str(bundle_dir), "--out", str(out), *flags]) == 2
        assert str(expected.value) in capsys.readouterr().err.splitlines()
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("merge --tau 2", "tau"),
        ("merge --exemplars -1", "exemplar count"),
        ("conflict --exemplars -1", "exemplar count"),
        ("sensitivity --exemplars -1", "exemplar count"),
        ("sweep --exemplars -1", "exemplar count"),
        ("landscape --decomp-fraction 2", "decomposition fraction"),
    ], ids=["merge-tau", "merge-exemplars", "conflict-exemplars", "sensitivity-exemplars",
            "sweep-exemplars", "landscape-fraction"])
    def test_bad_setting_exits_2_before_the_bundle_is_read(self, tmp_path, capsys, argv, message):
        command, *flags = argv.split()
        out = tmp_path / "out"
        code = main([command, "--bundle", str(tmp_path / "absent"), "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "merge --method task_arithmetic --exemplars -1",
        "conflict --exemplars -1",
        "sensitivity --exemplars -1",
        "sweep --exemplars -1",
        "landscape --task -1",
        "landscape --decomp-fraction nan",
    ])
    def test_out_of_range_argument_exits_2_and_writes_nothing(
        self, bundle_dir, tmp_path, capsys, argv
    ):
        command, *flags = argv.split()
        out = tmp_path / "out"
        assert main([command, "--bundle", str(bundle_dir), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("ConfigError: ")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_TMRG))
    def test_eval_of_corrupt_merged_file_exits_1(self, bundle_dir, tmp_path, capsys, case):
        data, detail = BAD_TMRG[case]
        merged = tmp_path / "merged"
        merged.mkdir()
        (merged / "merged.tmrg").write_bytes(data)
        code = main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"MalformedArtifact: {merged / 'merged.tmrg'}: " in err and detail in err

    @pytest.mark.parametrize("text", ["", "x0,x1,label\n0.5,0.5\n", "x0,x1,label\n0.5,abc,1\n"])
    def test_merge_with_malformed_exemplar_csv_exits_1(self, bundle_dir, tmp_path, capsys, text):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        (bundle / "task0_exemplars.csv").write_text(text)
        rehash(bundle, ["task0_exemplars.csv"])
        code = main(["merge", "--bundle", str(bundle), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "MalformedArtifact: " in capsys.readouterr().err

    def test_merge_with_a_nan_exemplar_blames_the_file(self, bundle_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        target = bundle / "task0_exemplars.csv"
        lines = target.read_text().splitlines(keepends=True)
        lines[2] = "nan," + lines[2].partition(",")[2]
        target.write_text("".join(lines))
        rehash(bundle, ["task0_exemplars.csv"])
        out = tmp_path / "m"
        assert main(["merge", "--bundle", str(bundle), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"MalformedArtifact: {target}, line 3: NaN or inf")
        assert not out.exists()

    def test_manifest_must_list_every_bundle_file(self, bundle_dir, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        shutil.copy(bundle / "task0.tmrg", bundle / "task1.tmrg")
        manifest = bundle / "manifest.txt"
        manifest.write_text("".join(
            line + "\n" for line in manifest.read_text().splitlines()
            if not line.endswith("  task1.tmrg")
        ))
        code = main(["merge", "--bundle", str(bundle), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "MalformedArtifact: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, edit", [
        ("merge", "bundle_config.txt", lambda lines: [
            "hidden=abc\n" if line.startswith("hidden=") else line for line in lines]),
        ("eval", "task0_test.csv", lambda lines: lines[:1]),
        ("conflict", "task0_test.csv", lambda lines: lines[:1]),
        ("merge", "task2_train.csv", lambda lines: lines[:-1]),
        ("merge", "task1_exemplars.csv", lambda lines: lines + lines[-1:]),
        ("merge", "task3_test.csv", lambda lines: [lines[0]] + [
            line.rpartition(",")[0] + ",7\n" for line in lines[1:]]),
        ("merge", "bundle_config.txt", lambda lines: lines + ["hiden=8\n"]),
        ("merge", "bundle_config.txt", lambda lines: lines + ["noise_std\n"]),
        ("merge", "bundle_config.txt", lambda lines: lines + [f"num_classes={'9' * 30}\n"]),
        ("merge", "bundle_config.txt", lambda lines: lines + [f"hidden={'9' * 30}\n"]),
    ], ids=["unparsable-config", "eval-header-only-test", "conflict-header-only-test",
            "short-train", "long-exemplars", "label-beyond-classes", "unknown-config-key",
            "config-line-without-equals", "huge-num-classes", "huge-hidden"])
    def test_rehashed_bundle_that_contradicts_its_config_exits_1(
        self, bundle_dir, tmp_path, capsys, command, name, edit
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        lines = (bundle / name).read_text().splitlines(keepends=True)
        (bundle / name).write_bytes("".join(edit(lines)).encode())
        rehash(bundle, [name])
        args = [command, "--bundle", str(bundle), "--out", str(tmp_path / "out")]
        if command == "eval":
            merged = tmp_path / "merged"
            assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
            args += ["--merged", str(merged)]
        capsys.readouterr()
        assert main(args) == 1
        assert "MalformedArtifact: " in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda text: text + b"\xff\xfe  notes.txt\n",
        lambda text: b"0" * 64 + b"  theta_pre.tmrg\n" + text,
        lambda text: b"".join(line for line in text.splitlines(keepends=True)
                              if not line.endswith(b"  bundle_config.txt\n")),
        lambda text: text + text.splitlines(keepends=True)[-1],
    ], ids=["not-utf8", "file-listed-twice", "config-omitted", "config-listed-twice"])
    def test_malformed_manifest_exits_1(self, bundle_dir, tmp_path, capsys, edit):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        manifest = bundle / "manifest.txt"
        manifest.write_bytes(edit(manifest.read_bytes()))
        out = tmp_path / "out"
        assert main(["merge", "--bundle", str(bundle), "--out", str(out)]) == 1
        assert "MalformedArtifact: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["merge", "conflict"])
    @pytest.mark.parametrize("names", [
        ["theta_pre.tmrg", "task0.tmrg", "task1.tmrg", "task2.tmrg", "task3.tmrg"],
        ["task2.tmrg"],
    ], ids=["every-checkpoint", "one-expert"])
    def test_checkpoints_of_another_architecture_exit_1(
        self, bundle_dir, hidden5_dir, tmp_path, capsys, command, names
    ):
        bundle = tmp_path / "bundle"
        shutil.copytree(bundle_dir, bundle)
        for name in names:
            shutil.copy(hidden5_dir / name, bundle / name)
        rehash(bundle, names)
        out = tmp_path / "out"
        assert main([command, "--bundle", str(bundle), "--out", str(out)]) == 1
        assert "MalformedArtifact: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda config: config.update(method=["x"]),
        lambda config: config.update(lam="abc"),
        lambda config: config.update(tau=2.0),
        lambda config: config.update(lam=10**400),
        lambda config: config["ada"].update(steps=-1),
        lambda config: config["ada"].update(learning_rate=10**400),
        lambda config: config["ada"].pop("init_lambda"),
        lambda config: config.pop("tau"),
        lambda config: config.update(seed=0),
    ], ids=["method-list", "lambda-string", "tau-out-of-range", "lambda-huge-int",
            "ada-steps-negative", "ada-lr-huge-int", "ada-field-missing", "field-missing",
            "unknown-field"])
    def test_eval_rebuilds_the_recorded_config(self, bundle_dir, tmp_path, capsys, edit):
        merged = tmp_path / "merged"
        assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
        record = json.loads((merged / "run.json").read_text())
        edit(record["config"])
        (merged / "run.json").write_text(json.dumps(record))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(out)]) == 1
        assert "MalformedArtifact: " in capsys.readouterr().err
        assert not out.exists()

    def test_eval_names_a_row_by_its_directory_for_a_null_config(self, bundle_dir, tmp_path):
        merged = tmp_path / "unconfigured"
        assert main(["merge", "--bundle", str(bundle_dir), "--out", str(merged)]) == 0
        (merged / "run.json").write_text('{"config": null}')
        out = tmp_path / "eval"
        assert main(["eval", "--bundle", str(bundle_dir), "--merged", str(merged),
                     "--out", str(out)]) == 0
        assert (out / "accuracy.csv").read_text().splitlines()[-1].startswith("unconfigured,")

    def test_gen_train_with_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# comment line\n"
            "hidden=8\nsamples_train=64\nsamples_test=32\nexemplar_count=8\n"
            "pretrain_epochs=4\nfinetune_epochs=6\n"
        )
        out = tmp_path / "bundle"
        code = main(["gen-train", "--config", str(cfg), "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        loaded = load_bundle(out)
        assert loaded.config.seed == 11
        assert loaded.config.hidden == (8,)
