import numpy as np
import pytest

import trustmerge.evaluation
from trustmerge.bundle import TaskBundle
from trustmerge.errors import ConfigError, IncompatibleShapes
from trustmerge.evaluation import (
    accuracy_table,
    knowledge_conflict,
    landscape,
    merge_bundle,
    signed_gradient,
    write_accuracy_csv,
    write_conflict_csv,
    write_landscape_csv,
)
from trustmerge.merging import AdaConfig, MergeConfig, tatr_merge
from trustmerge.mlp import backward, forward
from trustmerge.params import ew_abs, ew_scale, sum_in_order
from trustmerge.trust_region import build_mask, compute_sensitivity


ALL_METHODS = ("average", "task_arithmetic", "tatr", "ties", "ties_tatr", "ada_tatr")


def degenerate_bundle(bundle):
    """Every expert equals the pre-trained model: all task vectors are zero."""
    k = bundle.num_tasks
    return TaskBundle(
        bundle.config,
        bundle.theta_pre,
        [bundle.theta_pre] * k,
        bundle.train_sets,
        bundle.test_sets,
        bundle.exemplar_sets,
    )


class TestMergeBundle:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_dispatch_produces_valid_result(self, small_bundle, method):
        cfg = MergeConfig(method=method, ada=AdaConfig(steps=2))
        result = merge_bundle(small_bundle, cfg, exemplar_count=4)
        assert result.merged.compatible(small_bundle.theta_pre)
        assert result.config == cfg
        assert result.exemplars == 4

    def test_average_is_expert_mean(self, small_bundle):
        result = merge_bundle(small_bundle, MergeConfig(method="average"))
        k = small_bundle.num_tasks
        expected = ew_scale(sum_in_order(small_bundle.experts), 1.0 / k)
        assert result.merged == expected

    def test_zero_exemplars_switch_to_zero_shot(self, small_bundle):
        cfg = MergeConfig(method="tatr")
        result = merge_bundle(small_bundle, cfg, exemplar_count=0)
        tvs = small_bundle.task_vectors()
        grads = [ew_abs(d) for d in tvs]
        mask = build_mask(compute_sensitivity(grads, tvs), cfg.tau)
        zero_shot = tatr_merge(small_bundle.theta_pre, tvs, mask, cfg.lam)
        assert result.merged == zero_shot.merged
        assert result.mask_used.mask == zero_shot.mask_used.mask

    def test_a_numpy_exemplar_count_is_recorded_as_an_int(self, small_bundle):
        cfg = MergeConfig(method="tatr")
        result = merge_bundle(small_bundle, cfg, np.int64(8))
        assert type(result.exemplars) is int and result.exemplars == 8
        assert result.merged == merge_bundle(small_bundle, cfg, 8).merged


    @pytest.mark.parametrize("method", ["tatr", "ties_tatr", "ada_tatr"])
    def test_trust_region_follows_the_sensitivity_variant(self, small_bundle, method):
        cfg = MergeConfig(method=method, sensitivity_variant="ntk", ada=AdaConfig(steps=1))
        omega = compute_sensitivity(
            small_bundle.gradient_estimates(), small_bundle.task_vectors(), "ntk"
        )
        result = merge_bundle(small_bundle, cfg)
        assert result.mask_used.mask == build_mask(omega, cfg.tau).mask


class TestOutOfRangeArguments:
    @pytest.mark.parametrize("call", [
        lambda b: landscape(b, -1),
        lambda b: landscape(b, b.num_tasks),
        lambda b: landscape(b, None, 1.5),
        lambda b: b.gradient_estimates(-1),
        lambda b: merge_bundle(b, MergeConfig(method="task_arithmetic"), -1),
    ])
    def test_raise_config_error(self, small_bundle, call):
        with pytest.raises(ConfigError):
            call(small_bundle)


class TestKnowledgeConflict:
    def test_zero_task_vectors_give_zero_conflict(self, small_bundle):
        bundle = degenerate_bundle(small_bundle)
        report = knowledge_conflict(bundle, MergeConfig(method="task_arithmetic"))
        k = bundle.num_tasks
        off_diag = ~np.eye(k, dtype=bool)
        assert np.all(report.pairwise[off_diag] == 0.0)
        assert report.total == 0.0
        assert report.normalized == 0.0

    def test_diagonal_is_nan_and_normalization(self, small_bundle):
        report = knowledge_conflict(small_bundle, MergeConfig(method="task_arithmetic"))
        k = small_bundle.num_tasks
        assert np.all(np.isnan(np.diag(report.pairwise)))
        assert report.normalized == pytest.approx(report.total / (k * (k - 1)))
        assert report.basis == "loss"

    def test_loss_entry_matches_direct_computation(self, small_bundle):
        cfg = MergeConfig(method="task_arithmetic")
        report = knowledge_conflict(small_bundle, cfg)
        merged_all = merge_bundle(small_bundle, cfg).merged
        rest = [t for t in range(small_bundle.num_tasks) if t != 0]
        merged_excl = merge_bundle(small_bundle.subset(rest), cfg).merged
        j = rest[0]
        expected = (
            forward(merged_all, small_bundle.test_sets[j])[1]
            - forward(merged_excl, small_bundle.test_sets[j])[1]
        )
        assert report.pairwise[0, j] == pytest.approx(expected, abs=1e-15)

    def test_accuracy_basis_flips_sign(self, small_bundle):
        cfg = MergeConfig(method="task_arithmetic")
        report = knowledge_conflict(small_bundle, cfg, basis="accuracy")
        from trustmerge.mlp import evaluate_accuracy

        merged_all = merge_bundle(small_bundle, cfg).merged
        rest = [t for t in range(small_bundle.num_tasks) if t != 0]
        merged_excl = merge_bundle(small_bundle.subset(rest), cfg).merged
        j = rest[0]
        expected = evaluate_accuracy(
            merged_excl, small_bundle.test_sets[j]
        ) - evaluate_accuracy(merged_all, small_bundle.test_sets[j])
        assert report.pairwise[0, j] == pytest.approx(expected, abs=1e-15)
        assert report.basis == "accuracy"

    def test_unknown_basis(self, small_bundle):
        with pytest.raises(ConfigError, match="unknown basis 'f1'"):
            knowledge_conflict(small_bundle, MergeConfig(), basis="f1")

    def test_needs_two_tasks(self, small_bundle):
        single = small_bundle.subset([0])
        with pytest.raises(IncompatibleShapes, match="need >= 2 tasks, got 1"):
            knowledge_conflict(single, MergeConfig())


class TestSignedGradient:
    def test_matches_direct_backward(self, small_bundle):
        g = signed_gradient(small_bundle, 1)
        _, expected = backward(small_bundle.theta_pre, small_bundle.test_sets[1])
        assert g == expected


class TestLandscape:
    def test_grid_shape_and_coordinates(self, small_bundle):
        grid = landscape(small_bundle)
        assert len(grid.rows) == 225
        us = sorted({u for u, _, _ in grid.rows})
        vs = sorted({v for _, v, _ in grid.rows})
        np.testing.assert_allclose(us, np.arange(-0.2, 1.21, 0.1), atol=1e-12)
        np.testing.assert_allclose(vs, us, atol=1e-12)

    def test_anchor_rows_match_direct_evaluation(self, small_bundle):
        grid = landscape(small_bundle)

        def total_loss(point):
            return sum(forward(point, t)[1] for t in small_bundle.test_sets)

        by_coord = {(round(u, 10), round(v, 10)): loss for u, v, loss in grid.rows}
        assert by_coord[(0.0, 0.0)] == pytest.approx(
            total_loss(grid.anchor_negative), abs=1e-12
        )
        assert by_coord[(0.0, 1.0)] == pytest.approx(
            total_loss(grid.anchor_positive), abs=1e-12
        )
        assert by_coord[(1.0, 0.0)] == pytest.approx(
            total_loss(grid.anchor_orthogonal), abs=1e-12
        )

    def test_reference_task_view(self, small_bundle):
        grid = landscape(small_bundle, reference_task=2)
        assert grid.reference_task == 2
        assert len(grid.rows) == 225
        by_coord = {(round(u, 10), round(v, 10)): loss for u, v, loss in grid.rows}
        direct = forward(grid.anchor_negative, small_bundle.test_sets[2])[1]
        assert by_coord[(0.0, 0.0)] == pytest.approx(direct, abs=1e-12)

    def test_a_numpy_reference_task(self, small_bundle):
        assert landscape(small_bundle, np.int64(1)).rows == landscape(small_bundle, 1).rows

    def test_needs_two_tasks(self, small_bundle):
        with pytest.raises(IncompatibleShapes, match="need >= 2 tasks, got 1"):
            landscape(small_bundle.subset([0]))

    @pytest.mark.parametrize("fraction", [-0.1, 2.0, float("nan")])
    def test_bad_fraction_fails_before_any_gradient(self, small_bundle, monkeypatch, fraction):
        calls = []
        monkeypatch.setattr(
            trustmerge.evaluation, "signed_gradient", lambda *a: calls.append(a)
        )
        with pytest.raises(ConfigError, match="decomposition fraction"):
            landscape(small_bundle, None, fraction)
        assert calls == []


class TestAccuracyTable:
    def test_reference_rows_always_present(self, small_bundle):
        rows = accuracy_table(small_bundle, [])
        assert [r[0] for r in rows] == ["pretrained", "individual"]
        for _, accs, avg in rows:
            assert len(accs) == small_bundle.num_tasks
            assert avg == pytest.approx(np.mean(accs))

    def test_merged_rows_appended(self, small_bundle):
        result = merge_bundle(small_bundle, MergeConfig(method="task_arithmetic"))
        rows = accuracy_table(small_bundle, [("ta", result)])
        assert rows[2][0] == "ta"


class TestCsvWriters:
    def test_conflict_csv(self, small_bundle, tmp_path):
        report = knowledge_conflict(small_bundle, MergeConfig(method="task_arithmetic"))
        path = tmp_path / "c.csv"
        write_conflict_csv(report, path)
        lines = path.read_text().splitlines()
        k = small_bundle.num_tasks
        assert lines[0] == "i,j,C"
        assert len(lines) == 1 + k * (k - 1) + 2
        assert lines[-2].startswith("total,")
        assert float(lines[-2].split(",")[2]) == report.total
        assert float(lines[-1].split(",")[2]) == report.normalized
        for line in lines[1:-2]:
            i, j, c = line.split(",")
            assert float(c) == report.pairwise[int(i), int(j)]

    def test_landscape_csv(self, small_bundle, tmp_path):
        grid = landscape(small_bundle)
        path = tmp_path / "l.csv"
        write_landscape_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "u,v,loss"
        assert len(lines) == 226
        u, v, loss = lines[1].split(",")
        assert (float(u), float(v)) == (-0.2, -0.2)
        assert float(loss) == grid.rows[0][2]

    def test_accuracy_csv(self, small_bundle, tmp_path):
        rows = accuracy_table(small_bundle, [])
        path = tmp_path / "a.csv"
        write_accuracy_csv(rows, small_bundle.num_tasks, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "method," + ",".join(
            f"task{j}" for j in range(small_bundle.num_tasks)
        ) + ",avg"
        assert len(lines) == 3
