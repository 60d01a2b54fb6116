import numpy as np
import pytest

import trustmerge.evaluation
from trustmerge.bundle import BundleConfig, TaskBundle
from trustmerge.errors import ConfigError, IncompatibleShapes
from trustmerge.evaluation import (
    GRID_COORDS,
    accuracy_table,
    knowledge_conflict,
    landscape,
    merge_bundle,
    write_accuracy_csv,
    write_conflict_csv,
    write_landscape_csv,
)
from trustmerge.merging import AdaConfig, MergeConfig, _combined, tatr_merge
from trustmerge.mlp import (LabeledBatch, _entropy_sets, entropy_loss, evaluate_accuracy, forward,
                            init_params)
from trustmerge.params import Checkpoint, ew_abs, ew_dot, ew_scale, stack, sum_in_order
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
        pre = small_bundle.theta_pre
        mask = build_mask(compute_sensitivity(grads, tvs).values.flat(), cfg.tau, pre).mask
        step = tatr_merge(stack(tvs, pre), mask.flat(), cfg.lam)
        assert result.merged == Checkpoint.from_flat(pre, pre.flat() + step)
        assert result.mask_used.mask == mask

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
        assert result.mask_used.mask == build_mask(omega.values.flat(), cfg.tau, omega.values).mask


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

    def test_a_report_compares_by_identity_and_hashes(self, small_bundle):
        cfg = MergeConfig(method="task_arithmetic")
        report, again = (knowledge_conflict(small_bundle, cfg) for _ in range(2))
        assert (report == again) is False and (report == report) is True
        assert len({report, again}) == 2

    def test_unknown_basis(self, small_bundle):
        with pytest.raises(ConfigError, match="unknown basis 'f1'"):
            knowledge_conflict(small_bundle, MergeConfig(), basis="f1")

    def test_needs_two_tasks(self, small_bundle):
        single = small_bundle.subset([0])
        with pytest.raises(IncompatibleShapes, match="need >= 2 tasks, got 1"):
            knowledge_conflict(single, MergeConfig())


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
            trustmerge.evaluation, "backward", lambda *a: calls.append(a)
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

    def test_test_sets_of_two_sizes_are_rejected(self, small_bundle):
        tests = list(small_bundle.test_sets)
        tests[1] = tests[1].take(np.arange(len(tests[1]) - 1))
        bundle = TaskBundle(small_bundle.config, small_bundle.theta_pre, small_bundle.experts,
                            small_bundle.train_sets, tests, small_bundle.exemplar_sets)
        with pytest.raises(IncompatibleShapes, match="test sets of one size"):
            accuracy_table(bundle, [])


def random_bundle(hidden, samples, seed=0, tasks=4):
    """A bundle of ``tasks`` random experts around a random pre-trained model,
    with random test and exemplar sets; nothing is trained."""
    rng = np.random.default_rng(seed)
    cfg = BundleConfig(seed=seed, num_tasks=tasks, hidden=hidden, samples_test=samples,
                       rotations=(0.0,) * tasks, label_perms=((0, 1, 2, 3),) * tasks)
    pre = init_params(cfg.mlp_spec, seed)
    experts = [Checkpoint.from_flat(pre, pre.flat() + rng.normal(0.0, 0.5, pre.total_dims))
               for _ in range(tasks)]

    def sets(n):
        return [LabeledBatch(rng.normal(0.0, 1.5, (n, 2)), rng.integers(0, 4, n))
                for _ in range(tasks)]

    return TaskBundle(cfg, pre, experts, sets(samples), sets(samples), sets(6))


def per_set_landscape(grid, tests):
    """The rows of ``grid`` recomputed with one ``forward`` call per (point, test set)."""
    neg = grid.anchor_negative.flat()
    axis_u, axis_v = grid.anchor_orthogonal.flat() - neg, grid.anchor_positive.flat() - neg
    return [(u, v, sum(forward(Checkpoint.from_flat(grid.anchor_negative,
                                                    neg + u * axis_u + v * axis_v), t)[1]
                       for t in tests))
            for u in GRID_COORDS for v in GRID_COORDS]


class TestStackedScoringOracle:
    """One stacked pass per model is bit for bit a loop of one-set passes.
    Concatenating the sets' rows instead changes last bits at some of these
    shapes (BLAS picks its kernel by the row count)."""

    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (5, 3), (33,)])
    @pytest.mark.parametrize("samples", [1, 7, 37, 50, 129, 300])
    def test_matches_one_set_passes(self, hidden, samples):
        bundle = random_bundle(hidden, samples)
        tests = bundle.test_sets
        for model in [bundle.theta_pre, *bundle.experts]:
            assert bundle.test_scores(model).tolist() == [forward(model, t)[1] for t in tests]
            assert (bundle.test_scores(model, accuracy=True).tolist()
                    == [evaluate_accuracy(model, t) for t in tests])

        total, task2 = landscape(bundle), landscape(bundle, reference_task=2)
        assert total.rows == per_set_landscape(total, tests)
        assert task2.rows == per_set_landscape(task2, [tests[2]])

        cfg = MergeConfig(method="tatr")
        result = merge_bundle(bundle, cfg)
        rows = accuracy_table(bundle, [("tatr", result)])
        assert rows[0][1] == [evaluate_accuracy(bundle.theta_pre, t) for t in tests]
        assert rows[2][1] == [evaluate_accuracy(result.merged, t) for t in tests]

        for basis, score in (("loss", lambda m, t: forward(m, t)[1]),
                             ("accuracy", lambda m, t: -evaluate_accuracy(m, t))):
            expected = np.full((4, 4), np.nan)
            for i in range(4):
                excl = merge_bundle(bundle.subset([t for t in range(4) if t != i]), cfg).merged
                for j in range(4):
                    if j != i:
                        expected[i, j] = score(result.merged, tests[j]) - score(excl, tests[j])
            report = knowledge_conflict(bundle, cfg, basis)
            assert np.array_equal(report.pairwise, expected, equal_nan=True)


def ada_loop_on_checkpoints(bundle, cfg):
    """merge_bundle's ada_tatr merge as a loop on Checkpoints: per step, the
    merged model, one entropy_loss per test set, their gradients added with
    sum_in_order, then one ew_dot per masked row.  The mask is merge_bundle's."""
    pre, tests = bundle.theta_pre, bundle.test_sets
    region = merge_bundle(bundle, cfg).mask_used.mask.flat()
    masked = stack(bundle.task_vectors(), pre) * region
    coeffs = np.full(len(masked), cfg.ada.init_lambda)
    for _ in range(cfg.ada.steps):
        merged = Checkpoint.from_flat(pre, pre.flat() + _combined(masked, coeffs))
        grad = sum_in_order(entropy_loss(merged, t)[1] for t in tests)
        dcoeffs = np.array([ew_dot(grad, Checkpoint.from_flat(pre, row)) for row in masked])
        coeffs = coeffs - cfg.ada.learning_rate * dcoeffs
    return Checkpoint.from_flat(pre, pre.flat() + _combined(masked, coeffs)), coeffs.tolist()


class TestStackedEntropyOracle:
    """The entropy and its gradient over stacked sets are bit for bit a loop
    of one-set passes, and so is every step of ada_tatr, on the shapes of
    TestStackedScoringOracle."""

    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (5, 3), (33,)])
    @pytest.mark.parametrize("samples", [1, 7, 37, 50, 129, 300])
    def test_matches_one_set_passes(self, hidden, samples):
        bundle = random_bundle(hidden, samples)
        tests = bundle.test_sets
        inputs = np.stack([t.inputs for t in tests])
        for model in [bundle.theta_pre, *bundle.experts]:
            losses, grads = _entropy_sets(model, model.flat(), inputs)
            one = [entropy_loss(model, t) for t in tests]
            assert losses.tolist() == [loss for loss, _ in one]
            assert grads.tobytes() == np.stack([g.flat() for _, g in one]).tobytes()

        for steps in (0, 1, 5):
            cfg = MergeConfig(method="ada_tatr", ada=AdaConfig(steps=steps, learning_rate=0.5))
            result = merge_bundle(bundle, cfg)
            merged, coeffs = ada_loop_on_checkpoints(bundle, cfg)
            assert result.merged.flat().tobytes() == merged.flat().tobytes()
            assert result.coefficients == coeffs


class TestEightTaskEntropyOracle:
    """At K = 8, 16 hidden units and 300 rows a stacked hidden-layer array
    (300 KiB) is above the allocator's mmap threshold: ada_tatr, which writes
    every step into one set of them, is still the loop of one-set passes, and
    a work list reused across models gives the bits of fresh arrays."""

    def test_ada_tatr_matches_one_set_passes(self):
        bundle = random_bundle((16, 16), 300, tasks=8)
        for steps in (0, 1, 5):
            cfg = MergeConfig(method="ada_tatr", ada=AdaConfig(steps=steps, learning_rate=0.5))
            result = merge_bundle(bundle, cfg)
            merged, coeffs = ada_loop_on_checkpoints(bundle, cfg)
            assert result.merged.flat().tobytes() == merged.flat().tobytes()
            assert result.coefficients == coeffs

    def test_a_reused_work_list_gives_fresh_bits(self):
        bundle = random_bundle((16, 16), 300, tasks=8)
        inputs = np.stack([t.inputs for t in bundle.test_sets])
        work = []
        for model in bundle.experts[:2]:
            losses, grads = _entropy_sets(model, model.flat(), inputs, work)
            fresh_losses, fresh_grads = _entropy_sets(model, model.flat(), inputs)
            assert losses.tobytes() == fresh_losses.tobytes()
            assert grads.tobytes() == fresh_grads.tobytes()
        assert len(work) == 2 and all(a.shape == (8, 300, 16) for arrays in work for a in arrays)


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
