import dataclasses

import numpy as np
import pytest

import trustmerge.bundle
import trustmerge.evaluation
import trustmerge.mlp
from trustmerge.bundle import _PASS_ELEMENTS, BundleConfig, TaskBundle
from trustmerge.errors import ConfigError, IncompatibleShapes, NonFiniteValues
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

    def test_a_grid_point_that_is_not_finite_raises_before_it_is_scored(self, monkeypatch):
        """Task vectors of 5e307 on layer1 alone, so task 3's view adds a finite
        delta of 1.5e308 there.  With every coordinate orthogonal the points
        are theta_pre + u delta, and only the last grid row (u = 1.2) overflows."""
        bundle = random_bundle((8,), 20)
        pre = bundle.theta_pre
        shift = Checkpoint((name, np.full(pre[name].shape, 5e307 * name.startswith("layer1.")))
                           for name in pre.names).flat()
        experts = [Checkpoint.from_flat(pre, pre.flat() + sign * shift) for sign in (1, 1, 1, -1)]
        bundle = dataclasses.replace(bundle, experts=experts)
        counts = models_per_pass(monkeypatch)
        with pytest.raises(NonFiniteValues, match="^NonFiniteValues: layer1.weight$"), \
                np.errstate(all="ignore"):
            landscape(bundle, reference_task=3, decomposition_fraction=1.0)
        assert sum(counts) == 14 * 15  # every point before the last row, not an anchor

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

    def test_a_table_of_mixed_layouts_is_rejected(self, small_bundle):
        """The merged models are stacked, so they must share one layout; the
        same tensors in another order score alone but not beside the others."""
        ta = merge_bundle(small_bundle, MergeConfig(method="task_arithmetic"))
        reordered = dataclasses.replace(ta, merged=Checkpoint(reversed(list(ta.merged))))
        assert accuracy_table(small_bundle, [("r", reordered)]) == accuracy_table(small_bundle,
                                                                                [("r", ta)])
        with pytest.raises(IncompatibleShapes, match="name/shape sequences differ"):
            accuracy_table(small_bundle, [("ta", ta), ("r", reordered)])

    def test_test_sets_of_two_sizes_are_rejected(self, small_bundle):
        tests = list(small_bundle.test_sets)
        tests[1] = tests[1].take(np.arange(len(tests[1]) - 1))
        bundle = TaskBundle(small_bundle.config, small_bundle.theta_pre, small_bundle.experts,
                            small_bundle.train_sets, tests, small_bundle.exemplar_sets)
        with pytest.raises(IncompatibleShapes, match="test sets of one size"):
            accuracy_table(bundle, [])


def random_bundle(hidden, samples, seed=0, tasks=4, classes=4):
    """A bundle of ``tasks`` random experts around a random pre-trained model
    of ``classes`` classes, with random test and exemplar sets; nothing is trained."""
    rng = np.random.default_rng(seed)
    cfg = BundleConfig(seed=seed, num_tasks=tasks, num_classes=classes, hidden=hidden,
                       samples_test=samples, rotations=(0.0,) * tasks,
                       label_perms=(tuple(range(classes)),) * tasks)
    pre = init_params(cfg.mlp_spec, seed)
    experts = [Checkpoint.from_flat(pre, pre.flat() + rng.normal(0.0, 0.5, pre.total_dims))
               for _ in range(tasks)]

    def sets(n):
        return [LabeledBatch(rng.normal(0.0, 1.5, (n, 2)), rng.integers(0, classes, n))
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
            assert (bundle._model_scores(model, model.flat()[None])[0].tolist()
                    == [forward(model, t)[1] for t in tests])
            assert (bundle._model_scores(model, model.flat()[None], True)[0].tolist()
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


@pytest.mark.parametrize("tasks, classes", [(8, 4), (4, 9)])
@pytest.mark.parametrize("hidden", [(8,), (16, 16)])
def test_individual_accuracies_match_one_expert_passes(tasks, classes, hidden):
    # the individual row pairs expert k with test set k in one pass
    bundle = random_bundle(hidden, 37, seed=tasks + classes, tasks=tasks, classes=classes)
    (_, pretrained), (_, individual) = bundle.baseline_accuracies()
    assert pretrained == [evaluate_accuracy(bundle.theta_pre, t) for t in bundle.test_sets]
    assert individual == [evaluate_accuracy(e, t) for e, t in zip(bundle.experts, bundle.test_sets)]
    assert len(set(individual)) > 1


def test_individual_accuracies_need_experts_laid_out_like_theta_pre():
    bundle = random_bundle((8,), 12)
    experts = list(bundle.experts)
    experts[1] = Checkpoint((name, experts[1][name]) for name in reversed(experts[1].names))
    reordered = TaskBundle(bundle.config, bundle.theta_pre, experts, bundle.train_sets,
                           bundle.test_sets, bundle.exemplar_sets)
    with pytest.raises(IncompatibleShapes):
        reordered.baseline_accuracies()


def models_per_pass(monkeypatch):
    """The number of models of each scoring pass of ``TaskBundle``, in order,
    recorded from the logits of each ``_score_sets`` call, once each model
    of the pass has been checked to be finite."""
    counts, score_sets = [], trustmerge.bundle._score_sets

    def recorded(layers, *args):
        assert all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers)
        logits, scores = score_sets(layers, *args)
        counts.append(int(np.prod(logits.shape[:-3])))
        return logits, scores

    monkeypatch.setattr(trustmerge.bundle, "_score_sets", recorded)
    return counts


class TestStackedModelsOracle:
    """P models scored in stacked passes are bit for bit P one-model calls:
    around the pass size, at a landscape row (15) and at a whole grid (225),
    on shapes whose passes hold one model and several."""

    @pytest.mark.parametrize("tasks, classes", [(4, 4), (8, 4), (4, 9)])
    @pytest.mark.parametrize("hidden", [(8,), (16, 16), (33,)])
    @pytest.mark.parametrize("samples", [1, 7, 48, 300])
    def test_matches_one_model_calls(self, tasks, classes, hidden, samples):
        bundle = random_bundle(hidden, samples, tasks=tasks, classes=classes)
        pre = bundle.theta_pre
        per_pass = max(1, _PASS_ELEMENTS // (tasks * samples * max(*hidden, classes)))
        rows = max(225, per_pass + 1)
        flats = pre.flat() + np.random.default_rng(1).normal(0.0, 0.5, (rows, pre.total_dims))
        models = [Checkpoint.from_flat(pre, row) for row in flats]
        for accuracy in (False, True):
            expected = np.array([bundle._model_scores(model, model.flat()[None], accuracy)[0]
                                 for model in models])
            for p in {1, max(1, per_pass - 1), per_pass, per_pass + 1, 15, 225}:
                scores = bundle._model_scores(pre, flats[:p], accuracy)
                assert scores.shape == (p, tasks)
                assert scores.tobytes() == expected[:p].tobytes()

    @pytest.mark.parametrize("hidden, samples, grid_row", [((8,), 48, [10, 5]),
                                                           ((16, 16), 256, [1] * 15)])
    def test_a_pass_holds_up_to_128_KiB_per_array(self, monkeypatch, hidden, samples, grid_row):
        """The test config's bundle scores 10 models a pass, the default one 1."""
        bundle = random_bundle(hidden, samples)
        counts = models_per_pass(monkeypatch)
        landscape(bundle)
        assert counts == 15 * grid_row


def per_group_conflict(bundle, cfg, basis, exemplars):
    """``knowledge_conflict`` one task group at a time: each group's merge is
    scored with one ``_model_scores`` row on that group's own bundle, the
    accuracy basis negates those scores, and row i is metric(all) minus
    metric(all but i) on the other tasks.  (pairwise, total, normalized)."""
    accuracy = basis == "accuracy"

    def metric(tasks):
        merged = merge_bundle(tasks, cfg, exemplars).merged
        scores = tasks._model_scores(merged, merged.flat()[None], accuracy)[0]
        return -scores if accuracy else scores

    k = bundle.num_tasks
    metric_all = metric(bundle)
    pairwise = np.full((k, k), np.nan)
    for i in range(k):
        rest = [t for t in range(k) if t != i]
        pairwise[i, rest] = metric_all[rest] - metric(bundle.subset(rest))
    total = float(np.nansum(pairwise))
    return pairwise, total, total / (k * (k - 1))


class TestOneCallConflictOracle:
    """The K + 1 merges of a conflict, scored in one call on the whole test
    stack, give bit for bit the per-group scores: at K = 3, 4 and 8, with
    nine classes, on shapes whose passes hold one model and several."""

    @pytest.mark.parametrize("tasks, classes", [(3, 4), (4, 4), (8, 4), (4, 9)])
    @pytest.mark.parametrize("hidden", [(8,), (33,)])
    @pytest.mark.parametrize("method", ["task_arithmetic", "tatr"])
    @pytest.mark.parametrize("exemplars", [None, 0])
    def test_matches_per_group_scores(self, tasks, classes, hidden, method, exemplars):
        cfg = MergeConfig(method=method)
        # a fresh bundle each time, so neither side reads the other's memo
        make = lambda: random_bundle(hidden, 37, seed=tasks + classes, tasks=tasks, classes=classes)
        for basis in ("loss", "accuracy"):
            pairwise, total, normalized = per_group_conflict(make(), cfg, basis, exemplars)
            report = knowledge_conflict(make(), cfg, basis, exemplars)
            assert report.pairwise.tobytes() == pairwise.tobytes()
            assert np.isnan(np.diag(report.pairwise)).all()
            assert np.count_nonzero(pairwise[~np.isnan(pairwise)]) > tasks
            assert (report.total, report.normalized, report.basis) == (total, normalized, basis)

    def test_scores_every_merge_in_one_call(self, monkeypatch):
        bundle = random_bundle((8,), 37)
        calls, model_scores = [], TaskBundle._model_scores

        def recorded(self, like, flats, accuracy=False):
            calls.append((self, len(flats)))
            return model_scores(self, like, flats, accuracy)

        monkeypatch.setattr(TaskBundle, "_model_scores", recorded)
        knowledge_conflict(bundle, MergeConfig(method="tatr"), "accuracy")
        assert calls == [(bundle, 5)]


def test_passes_of_one_shape_write_into_the_same_hidden_arrays(monkeypatch):
    """A bundle keeps each pass shape's hidden-layer arrays, so no pass makes
    and frees (4, 256, 16) arrays, 128 KiB each, of the default bundle."""
    bundle = random_bundle((16, 16), 256)
    hidden, forward_pass = [], trustmerge.mlp._forward_pass

    def recorded(layers, x, out=None):
        logits, acts = forward_pass(layers, x, out)
        if x.ndim == 3:  # a scoring pass over the stacked test sets, not a one-set backward
            hidden.append(acts[1:])
        return logits, acts

    monkeypatch.setattr(trustmerge.mlp, "_forward_pass", recorded)
    landscape(bundle)
    knowledge_conflict(bundle, MergeConfig(method="task_arithmetic"), "accuracy")
    assert len(hidden) == 15 * 15 + 5
    assert [a.shape for a in hidden[0]] == [(4, 256, 16)] * 2
    assert all(a is b for arrays in hidden for a, b in zip(arrays, hidden[0], strict=True))


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
