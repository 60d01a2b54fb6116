import ast
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trustmerge
from trustmerge.errors import ConfigError, MalformedArtifact
from trustmerge.datasets import (
    MAX_CLASSES,
    SyntheticTaskSpec,
    class_centers,
    generate_task,
    load_batch_csv,
    save_batch_csv,
)


class TestSpecValidation:
    def test_rotation_range(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_id=0, rotation_deg=360.0)
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_id=0, rotation_deg=-1.0)

    def test_identity_perm_default(self):
        spec = SyntheticTaskSpec(task_id=0, num_classes=3)
        assert spec.label_perm == (0, 1, 2)

    def test_invalid_perm(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_id=0, num_classes=3, label_perm=(0, 1, 1))

    @pytest.mark.parametrize("classes", [MAX_CLASSES + 1, 10**30])
    def test_too_many_classes_fail_before_the_identity_permutation_is_built(self, classes):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="num_classes"):
                SyntheticTaskSpec(task_id=0, num_classes=classes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # the identity permutation of MAX_CLASSES + 1 labels takes over 2 MB

    def test_a_billion_classes_fail_without_allocating_them(self):
        # A child process with its address space capped at 1 GiB: code that built the
        # billion-entry permutation would die there with MemoryError, not fill the host's memory.
        script = ("import resource\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                  "from trustmerge.datasets import SyntheticTaskSpec\n"
                  "from trustmerge.errors import ConfigError\n"
                  "try:\n"
                  "    SyntheticTaskSpec(task_id=0, num_classes=10**9)\n"
                  "except ConfigError:\n"
                  "    print('ConfigError')\n")
        env = dict(os.environ, PYTHONPATH=str(Path(trustmerge.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.stdout == "ConfigError\n", run.stderr

    def test_negative_noise(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_id=0, noise_std=-0.1)

    def test_center_angle_count(self):
        with pytest.raises(ValueError):
            SyntheticTaskSpec(task_id=0, num_classes=4, center_angles_deg=(0.0, 90.0))


class TestCenters:
    def test_even_spacing_matches_explicit_angles(self):
        auto = class_centers(4)
        explicit = class_centers(4, (0.0, 90.0, 180.0, 270.0))
        np.testing.assert_allclose(auto, explicit, atol=1e-12)

    def test_radius(self):
        centers = class_centers(5)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 2.0, atol=1e-12)

    def test_two_classes_opposite(self):
        centers = class_centers(2)
        np.testing.assert_allclose(centers[0], -centers[1], atol=1e-12)


class TestGeneration:
    def test_deterministic(self):
        spec = SyntheticTaskSpec(task_id=0, seed=5)
        a = generate_task(spec)
        b = generate_task(spec)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)
            assert np.array_equal(x.labels, y.labels)

    def test_split_sizes(self):
        spec = SyntheticTaskSpec(
            task_id=0, samples_train=50, samples_test=20, exemplar_count=8
        )
        train, test, ex = generate_task(spec)
        assert (len(train), len(test), len(ex)) == (50, 20, 8)

    def test_exemplars_are_train_rows(self):
        train, _, ex = generate_task(SyntheticTaskSpec(task_id=0, exemplar_count=10))
        rows = {tuple(r) for r in train.inputs}
        assert all(tuple(r) in rows for r in ex.inputs)

    def test_noiseless_points_sit_on_rotated_centers(self):
        spec = SyntheticTaskSpec(
            task_id=0, noise_std=0.0, rotation_deg=90.0, samples_train=64
        )
        train, _, _ = generate_task(spec)
        centers = class_centers(4)
        rotated = centers[:, ::-1] * np.array([-1.0, 1.0])  # 90 degree rotation
        for point in train.inputs:
            assert min(np.linalg.norm(rotated - point, axis=1)) < 1e-12

    def test_label_perm_applied(self):
        perm = (2, 3, 0, 1)
        spec = SyntheticTaskSpec(
            task_id=0, noise_std=0.0, label_perm=perm, samples_train=64
        )
        train, _, _ = generate_task(spec)
        centers = class_centers(4)
        for point, label in zip(train.inputs, train.labels):
            base = int(np.argmin(np.linalg.norm(centers - point, axis=1)))
            assert label == perm[base]

    def test_rotation_changes_inputs_not_label_distribution(self):
        a, _, _ = generate_task(SyntheticTaskSpec(task_id=0, seed=3, rotation_deg=0.0))
        b, _, _ = generate_task(SyntheticTaskSpec(task_id=0, seed=3, rotation_deg=90.0))
        assert np.array_equal(a.labels, b.labels)
        assert not np.allclose(a.inputs, b.inputs)


class TestCsv:
    def test_csv_writer_is_used_only_inside_write_csv(self):
        """Every CSV the package writes goes through ``datasets.write_csv``."""
        found = []

        def visit(node, path, func):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Attribute) and child.attr == "writer" and (
                    isinstance(child.value, ast.Name) and child.value.id == "csv"
                ):
                    found.append(f"{path.name}:{func}")
                is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                visit(child, path, child.name if is_def else func)

        for path in sorted(Path(trustmerge.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text("utf-8")), path, None)
        assert found == ["datasets.py:write_csv"]

    def test_round_trip_exact(self, tmp_path):
        train, _, _ = generate_task(SyntheticTaskSpec(task_id=0, samples_train=30))
        path = tmp_path / "t.csv"
        save_batch_csv(train, path)
        loaded = load_batch_csv(path)
        assert np.array_equal(loaded.inputs, train.inputs)
        assert np.array_equal(loaded.labels, train.labels)

    def test_header(self, tmp_path):
        train, _, _ = generate_task(SyntheticTaskSpec(task_id=0, samples_train=5))
        path = tmp_path / "t.csv"
        save_batch_csv(train, path)
        assert path.read_text().splitlines()[0] == "x0,x1,label"

    @pytest.mark.parametrize("text", [
        "",                                  # empty file
        "label\n",                           # no input column
        "a,b,c\n0.5,0.5,1\n",                # foreign header
        "x0,x1,label\n0.5,0.5\n",            # short row
        "x0,x1,label\n0.5,0.5,1,7\n",        # long row
        "x0,x1,label\n0.5,abc,1\n",          # non-numeric input
        "x0,x1,label\n0.5,0.5,1.5\n",        # non-integer label
        "x0,x1,label\n0.5,0.5,-1\n",         # negative label
        "x0,x1,label\n0.5,0.5,99999999999999999999\n",  # label overflows int64
    ])
    def test_malformed_file_raises(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(MalformedArtifact):
            load_batch_csv(path)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_input_names_the_file_and_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x0,x1,label\n0.5,0.5,1\n0.5,{value},1\n0.5,0.5,0\n")
        with pytest.raises(MalformedArtifact, match=r"bad\.csv, line 3: NaN or inf input"):
            load_batch_csv(path)
