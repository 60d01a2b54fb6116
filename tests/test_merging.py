import dataclasses
import functools
import json

import numpy as np
import pytest

from trustmerge.bundle import BundleConfig, TaskBundle
from trustmerge.errors import ConfigError, IncompatibleShapes, NonFiniteValues
from trustmerge.evaluation import merge_bundle
from trustmerge.merging import (
    AdaConfig,
    MergeConfig,
    MergeResult,
    _combined,
    ada_coefficient_gradient,
    ada_tatr,
    load_merge_result,
    save_merge_result,
    task_arithmetic,
    tatr_merge,
    ties_merge,
    ties_phi,
    ties_tatr,
    weight_average,
)
from trustmerge.mlp import LabeledBatch, entropy_loss, init_params, MlpSpec
from trustmerge.params import (Checkpoint, ew_abs, ew_combine, ew_dot, ew_scale, load_checkpoint,
                               stack, sum_in_order)
from trustmerge.trust_region import build_mask, compute_sensitivity


def ck(values):
    return Checkpoint([("x", np.asarray(values, dtype=np.float64))])


def zs_grads(tvs):
    return [ew_abs(tv) for tv in tvs]


def region(grads, tvs, tau, variant="standard"):
    """The trust region merge_bundle builds for these estimates and task vectors."""
    return build_mask(compute_sensitivity(grads, tvs, variant).values.flat(), tau, tvs[0])


def flat_region(grads, tvs, tau):
    """That trust region's flat {0, 1} vector, as merge_bundle passes it to a merge."""
    return region(grads, tvs, tau).mask.flat()


def rows(tvs):
    """The (K, N) task-vector rows merge_bundle passes to a merge."""
    return stack(tvs, tvs[0])


def shifted(pre, step):
    """The merged model merge_bundle builds from a merge's step."""
    return Checkpoint.from_flat(pre, pre.flat() + step)


def stacked(pools):
    """The (P, n, d) inputs ada_tatr stacks its unlabeled pools into."""
    return np.stack([b.inputs for b in pools])


def strict_json(path):
    """Parse a file as JSON, rejecting NaN and Infinity."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def random_merge_inputs(seed, n=12, k=3):
    rng = np.random.default_rng(seed)
    pre = ck(rng.normal(size=n))
    tvs = [ck(rng.normal(size=n)) for _ in range(k)]
    grads = [ck(np.abs(rng.normal(size=n))) for _ in range(k)]
    return pre, tvs, grads


class TestWeightAverage:
    def test_hand_value(self):
        avg = weight_average([ck([1.0, 2.0]), ck([3.0, 6.0])])
        assert np.array_equal(avg["x"], [2.0, 4.0])

    def test_empty(self):
        with pytest.raises(IncompatibleShapes, match="nothing to sum"):
            weight_average([])

    def test_incompatible(self):
        with pytest.raises(IncompatibleShapes):
            weight_average([ck([1.0]), ck([1.0, 2.0])])


class TestTaskArithmetic:
    def test_hand_value(self):
        pre = ck([1.0, 1.0])
        tvs = [ck([1.0, 0.0]), ck([0.0, 0.0])]
        step = task_arithmetic(rows(tvs), lam=0.3)
        assert np.array_equal(step, [0.3, 0.0])
        experts = [ew_combine(pre, tv, "add") for tv in tvs]
        cfg = MergeConfig(method="task_arithmetic", lam=0.3)
        recorded = merge_bundle(TaskBundle(BundleConfig(), pre, experts, [], [], []), cfg)
        assert np.array_equal(recorded.merged["x"], [1.3, 1.0])
        assert recorded.merged == shifted(pre, step)
        assert recorded.coefficients == [0.3, 0.3]
        assert (recorded.config, recorded.exemplars) == (cfg, None)

    def test_no_tasks(self):
        empty = TaskBundle(BundleConfig(), ck([1.0]), [], [], [], [])
        with pytest.raises(IncompatibleShapes, match="nothing to stack"):
            merge_bundle(empty, MergeConfig(method="task_arithmetic"))


class TestTatr:
    def test_tau_zero_bitwise_equals_task_arithmetic(self):
        for seed in range(10):
            pre, tvs, grads = random_merge_inputs(seed)
            plain = task_arithmetic(rows(tvs), 0.3)
            masked = tatr_merge(rows(tvs), flat_region(grads, tvs, 0.0), 0.3)
            assert masked.tobytes() == plain.tobytes()

    def test_excluded_coordinate_keeps_pretrained_value(self):
        pre = ck([1.0, 2.0, 3.0, 4.0])
        tvs = [ck([1.0, 1.0, 1.0, 1.0]), ck([1.0, 1.0, 1.0, 1.0])]
        grads = [ck([9.0, 0.1, 0.1, 0.1]) for _ in range(2)]
        mask = region(grads, tvs, 0.25)
        merged = pre.flat() + tatr_merge(rows(tvs), mask.mask.flat(), 0.5)
        assert merged[0] == 1.0  # highest sensitivity: untouched
        np.testing.assert_allclose(merged[1:], [3.0, 4.0, 5.0])
        assert mask.excluded_count == 1


class TestTies:
    def test_phi_hand_example(self):
        aligned, elected = ties_phi(np.array([[2.0, 1.0], [-2.0, 0.5]]), trim_keep=0.5)
        # each task keeps only its largest-|value| coordinate
        assert np.array_equal(aligned[0], [2.0, 0.0])
        # summed trimmed values are 0 at both coords: elected sign is +1,
        # so task 1's -2 disagrees and is zeroed
        assert np.array_equal(elected, [1.0, 1.0])
        assert np.array_equal(aligned[1], [0.0, 0.0])

    def test_merge_hand_example(self):
        pre = ck([10.0, 20.0])
        tvs = [ck([2.0, 1.0]), ck([-2.0, 0.5])]
        merged = pre.flat() + ties_merge(rows(tvs), lam=0.5, trim_keep=0.5)
        # disjoint mean: coord 0 -> mean of [2] = 2; coord 1 -> no survivors -> 0
        assert np.array_equal(merged, [11.0, 20.0])

    def test_elected_sign_majority(self):
        deltas = np.array([[3.0, -1.0], [-1.0, -2.0], [-1.0, 5.0]])
        _, elected = ties_phi(deltas, trim_keep=1.0)
        # sums: [1, 2] -> both positive
        assert np.array_equal(elected, [1.0, 1.0])

    def test_disjoint_mean_averages_survivors(self):
        tvs = [ck([2.0]), ck([4.0]), ck([-1.0])]
        step = ties_merge(rows(tvs), lam=1.0, trim_keep=1.0)
        # elected +1; survivors 2 and 4; mean 3
        assert step[0] == 3.0

    def test_trim_out_of_range(self):
        for keep in (0.0, 1.5, -0.1):
            with pytest.raises(ConfigError, match=r"ties_trim_keep must lie in \(0, 1\]"):
                ties_phi(np.array([[1.0]]), keep)

    def test_trim_out_of_range_is_a_config_error(self):
        # a range error exits 2 like every other bad setting, with MergeConfig's message
        with pytest.raises(ConfigError) as raised:
            ties_phi(np.array([[1.0]]), 0.0)
        with pytest.raises(ConfigError) as config:
            MergeConfig(ties_trim_keep=0.0)
        assert str(raised.value) == str(config.value)

    def test_ties_tatr_tau_zero_bitwise_equals_ties(self):
        for seed in range(10):
            pre, tvs, grads = random_merge_inputs(seed + 100)
            plain = ties_merge(rows(tvs), 0.3, 0.4)
            masked = ties_tatr(rows(tvs), flat_region(grads, tvs, 0.0), 0.3, 0.4)
            assert masked.tobytes() == plain.tobytes()

    def test_ties_tatr_mask_source_flag(self, small_bundle):
        # merge_bundle builds the ties_tatr mask from the task vectors or their aligned rows
        pre, tvs = small_bundle.theta_pre, small_bundle.task_vectors()
        grads = small_bundle.gradient_estimates()
        aligned, _ = ties_phi(np.stack([tv.flat() for tv in tvs]), 0.4)
        trimmed = [Checkpoint.from_flat(pre, row) for row in aligned]
        for variant in ("standard", "zero_shot"):
            masks = []
            for flag, basis in ((False, tvs), (True, trimmed)):
                cfg = MergeConfig(method="ties_tatr", tau=0.25, ties_trim_keep=0.4,
                                  ties_mask_from_trimmed=flag, sensitivity_variant=variant)
                result = merge_bundle(small_bundle, cfg)
                assert result.mask_used.mask == region(grads, basis, 0.25, variant).mask
                step = ties_tatr(rows(tvs), result.mask_used.mask.flat(), 0.3, 0.4)
                assert result.merged == shifted(pre, step)
                masks.append(result.mask_used.mask)
            assert masks[0] != masks[1]


class TestAdaTatr:
    def _setup(self, seed=0):
        spec = MlpSpec((2, 6, 3))
        rng = np.random.default_rng(seed)
        pre = init_params(spec, seed=seed)
        tvs = [Checkpoint((n, 0.2 * rng.normal(size=v.shape)) for n, v in pre) for _ in range(2)]
        pools = [
            LabeledBatch(rng.normal(size=(10, 2)), np.zeros(10, dtype=int))
            for _ in range(2)
        ]
        return pre, tvs, pools

    def test_zero_steps_bitwise_equals_tatr(self):
        pre, tvs, pools = self._setup()
        grads = zs_grads(tvs)
        mask = flat_region(grads, tvs, 0.05)
        step, coeffs = ada_tatr(pre, rows(tvs) * mask, pools, AdaConfig(steps=0, init_lambda=0.3))
        assert step.tobytes() == tatr_merge(rows(tvs), mask, 0.3).tobytes()
        assert coeffs == [0.3, 0.3]

    def test_coefficient_gradient_matches_finite_differences(self):
        pre, tvs, pools = self._setup(1)
        masked = rows(tvs)
        coeffs = np.array([0.3, 0.5])

        def total_entropy(c):
            merged = shifted(pre, c @ masked)
            return sum(entropy_loss(merged, b)[0] for b in pools)

        _, analytic = ada_coefficient_gradient(pre, masked, coeffs, stacked(pools))
        step = 1e-5
        for k in range(2):
            up, down = coeffs.copy(), coeffs.copy()
            up[k] += step
            down[k] -= step
            numeric = (total_entropy(up) - total_entropy(down)) / (2 * step)
            assert abs(analytic[k] - numeric) / max(abs(numeric), 1e-12) < 1e-5

    @pytest.mark.parametrize("seed", range(4))
    def test_coefficient_gradient_dots_in_tensor_order(self, seed):
        # one dot per tensor, summed in layout order, as ew_dot: bit for bit
        # the reference, which one matrix-vector product would not be
        pre, tvs, pools = self._setup(seed)
        coeffs = np.array([0.3, 0.5])
        merged = ew_combine(pre, ew_combine(*(ew_scale(tv, c) for tv, c in zip(tvs, coeffs)),
                                            "add"), "add")
        losses, grads = zip(*(entropy_loss(merged, b) for b in pools))
        total, dcoeffs = ada_coefficient_gradient(pre, rows(tvs), coeffs, stacked(pools))
        assert total == sum(losses)
        expected = [ew_dot(sum_in_order(grads), m) for m in tvs]
        assert dcoeffs.tobytes() == np.array(expected).tobytes()

    def test_descent_reduces_entropy(self):
        pre, tvs, pools = self._setup(2)
        grads = zs_grads(tvs)
        cfg = AdaConfig(steps=25, learning_rate=0.05, init_lambda=0.3)
        step, coeffs = ada_tatr(pre, rows(tvs) * flat_region(grads, tvs, 0.0), pools, cfg)
        start = sum(
            entropy_loss(shifted(pre, task_arithmetic(rows(tvs), 0.3)), b)[0] for b in pools
        )
        end = sum(entropy_loss(shifted(pre, step), b)[0] for b in pools)
        assert end < start
        assert len(coeffs) == 2

    def test_empty_pool_rejected(self):
        pre, tvs, _ = self._setup(3)
        with pytest.raises(IncompatibleShapes, match="nonempty unlabeled pool"):
            ada_tatr(pre, rows(tvs), [], AdaConfig())

    def test_pools_of_two_sizes_rejected(self):
        pre, tvs, pools = self._setup(3)
        pools[1] = pools[1].take(np.arange(9))
        with pytest.raises(IncompatibleShapes, match=r"of one size, got sizes \[10, 9\]"):
            ada_tatr(pre, rows(tvs), pools, AdaConfig())

    def test_steps_build_no_checkpoint(self, small_bundle, monkeypatch):
        small_bundle.gradient_estimates()  # memoized, so no merge below estimates them
        adopted = []
        adopt = Checkpoint._adopt

        def counting(ckpt, *args):
            adopted.append(ckpt)
            adopt(ckpt, *args)

        monkeypatch.setattr(Checkpoint, "_adopt", counting)
        counts = []
        for steps in (1, 5):
            adopted.clear()
            merge_bundle(small_bundle, MergeConfig(method="ada_tatr", ada=AdaConfig(steps=steps)))
            counts.append(len(adopted))
        assert counts[0] == counts[1]

    def test_a_non_finite_step_fails_on_the_merged_model(self, small_bundle):
        # the first merged vector overflows and the steps carry NaN to the end
        cfg = MergeConfig(method="ada_tatr", ada=AdaConfig(steps=3, init_lambda=1e308))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValues):
            merge_bundle(small_bundle, cfg)


class TestSummationOrder:
    """Every summing merge adds the tasks one at a time in ascending order.
    numpy's ``sum(axis=0)`` adds pairwise when N == 1 and K >= 8, which rounds
    differently, so each merge is compared bit for bit with a left fold."""

    @staticmethod
    def fold(maps):
        return functools.reduce(lambda a, b: ew_combine(a, b, "add"), maps)

    def assert_in_order(self, pre, tvs, coeffs):
        lam, k, deltas = 0.3, len(tvs), rows(tvs)
        folded = ew_combine(pre, ew_scale(self.fold(tvs), lam), "add")
        plain = shifted(pre, task_arithmetic(deltas, lam))
        assert plain.flat().tobytes() == folded.flat().tobytes()
        tatr = shifted(pre, tatr_merge(deltas, flat_region(zs_grads(tvs), tvs, 0.0), lam))
        assert tatr.flat().tobytes() == folded.flat().tobytes()
        mean = ew_scale(self.fold(tvs), 1.0 / k)
        assert weight_average(tvs).flat().tobytes() == mean.flat().tobytes()
        assert not np.all(coeffs == coeffs[0])
        scaled = [ew_scale(tv, float(c)) for tv, c in zip(tvs, coeffs)]
        assembled = ew_combine(pre, self.fold(scaled), "add")
        combined = shifted(pre, _combined(deltas, coeffs))
        assert combined.flat().tobytes() == assembled.flat().tobytes()

    @pytest.mark.parametrize("n", [1, 2, 388])
    def test_random_tasks_match_a_left_fold(self, n):
        rng = np.random.default_rng(n)
        for k in range(2, 17):
            scales = 10.0 ** rng.integers(-8, 9, size=k)
            tvs = [ck(s * rng.normal(size=n)) for s in scales]
            self.assert_in_order(ck(rng.normal(size=n)), tvs, rng.uniform(0.1, 1.0, size=k))

    def test_one_then_seven_tiny_terms(self):
        # added in order, 1.0 absorbs each 2**-53; added pairwise, the seven
        # tiny terms first combine into 3 * 2**-52 and survive
        tvs = [ck([1.0])] + [ck([2.0**-53])] * 7
        assert self.fold(tvs)["x"][0] == 1.0
        self.assert_in_order(ck([0.0]), tvs, np.array([1.0] * 7 + [2.0]))


class TestTiesSummationOrder:
    """ties adds the tasks one at a time in ascending order too: its elected
    sign and its disjoint mean equal a left fold of the trimmed and the
    aligned rows, bit for bit."""

    @staticmethod
    def reference(pre, tvs, lam, keep):
        deltas = np.array([tv.flat() for tv in tvs])
        trimmed = np.zeros_like(deltas)
        for row, delta in zip(trimmed, deltas):
            kept = np.argsort(-np.abs(delta), kind="stable")[: int(np.ceil(keep * delta.size))]
            row[kept] = delta[kept]
        elected = np.where(functools.reduce(np.add, trimmed) < 0.0, -1.0, 1.0)
        aligned = np.where(np.sign(trimmed) * elected >= 0.0, trimmed, 0.0)
        counts = (aligned != 0.0).sum(axis=0)
        mean = np.where(counts > 0, functools.reduce(np.add, aligned) / np.maximum(counts, 1), 0.0)
        return pre.flat() + lam * mean

    @pytest.mark.parametrize("n", [1, 2, 388])
    def test_random_tasks_match_a_left_fold(self, n):
        # one scale, so that no task's terms absorb the others' rounding
        rng = np.random.default_rng(n)
        for k in range(2, 17):
            tvs = [ck(rng.normal(size=n)) for _ in range(k)]
            pre = ck(rng.normal(size=n))
            for keep in (1.0, 0.5):
                merged = shifted(pre, ties_merge(rows(tvs), 0.3, keep))
                assert merged.flat().tobytes() == self.reference(pre, tvs, 0.3, keep).tobytes()

    def test_one_then_seven_tiny_terms(self):
        # in order, 1.0 absorbs each 2**-53, so the mean of the 8 survivors is 1/8
        tvs = [ck([1.0])] + [ck([2.0**-53])] * 7
        assert ties_merge(rows(tvs), 1.0, 1.0)[0] == 0.125

class TestMergeConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MergeConfig(method="soup")

    def test_lambda_must_be_positive(self):
        with pytest.raises(ValueError):
            MergeConfig(lam=0.0)
        with pytest.raises(ValueError):
            MergeConfig(lam=float("nan"))

    @pytest.mark.parametrize("make", [
        lambda: MergeConfig(method="average", sensitivity_variant="bogus", ties_trim_keep=7.0),
        lambda: MergeConfig(sensitivity_variant="bogus"),
        lambda: MergeConfig(ties_trim_keep=7.0),
        lambda: MergeConfig(ties_trim_keep=0.0),
        lambda: MergeConfig(tau=float("nan")),
        lambda: MergeConfig(tau=float("inf")),
        lambda: MergeConfig(tau=-0.01),
        lambda: MergeConfig(tau=1.5),
        lambda: MergeConfig(ties_mask_from_trimmed="no"),
        lambda: MergeConfig(ada={"steps": 3}),
        lambda: AdaConfig(steps=-3),
        lambda: AdaConfig(steps=2.5),
        lambda: AdaConfig(steps=True),
        lambda: AdaConfig(learning_rate=float("nan")),
        lambda: AdaConfig(init_lambda=float("inf")),
    ])
    def test_rejects_out_of_range_fields(self, make):
        with pytest.raises(ValueError):
            make()

    def test_accepts_the_range_ends(self):
        MergeConfig(tau=0.0, ties_trim_keep=1.0, ada=AdaConfig(steps=0, learning_rate=-1.0))
        MergeConfig(tau=1, sensitivity_variant="ntk")


class TestSaveMergeResult:
    def test_files_and_provenance(self, small_bundle, tmp_path):
        cfg = MergeConfig(method="tatr", tau=0.25)
        result = merge_bundle(small_bundle, cfg, 4)
        out = tmp_path / "merge"
        save_merge_result(result, out)
        assert sorted(p.name for p in out.iterdir()) == ["mask.tmrg", "merged.tmrg", "run.json"]
        assert load_checkpoint(out / "merged.tmrg") == result.merged
        assert load_checkpoint(out / "mask.tmrg") == result.mask_used.mask
        record = strict_json(out / "run.json")
        assert record == {
            "config": dataclasses.asdict(cfg),
            "exemplars": 4,
            "coefficients": result.coefficients,
            "mask": {
                "epsilon": result.mask_used.epsilon,
                "excluded_count": result.mask_used.excluded_count,
            },
        }
        ada = AdaConfig(**record["config"]["ada"])
        assert MergeConfig(**{**record["config"], "ada": ada}) == cfg

    def test_tau_zero_epsilon_is_null(self, small_bundle, tmp_path):
        result = merge_bundle(small_bundle, MergeConfig(method="tatr", tau=0.0))
        assert result.mask_used.epsilon == float("inf")
        save_merge_result(result, tmp_path)
        record = strict_json(tmp_path / "run.json")
        assert record["mask"] == {"epsilon": None, "excluded_count": 0}
        assert record["exemplars"] is None

    def test_a_config_of_numpy_numbers_writes_a_record_that_reads_back(
        self, small_bundle, tmp_path
    ):
        ada = AdaConfig(steps=np.int64(2), learning_rate=np.float32(0.01),
                        init_lambda=np.float64(0.3))
        cfg = MergeConfig(method="ada_tatr", lam=np.float64(0.3), tau=np.float32(0.01),
                          ties_trim_keep=np.float64(0.2), ada=ada)
        assert [type(v) for v in (cfg.lam, cfg.tau, ada.steps, ada.learning_rate)] == [
            float, float, int, float]
        save_merge_result(merge_bundle(small_bundle, cfg, np.int64(4)), tmp_path)
        record = strict_json(tmp_path / "run.json")
        assert (record["config"]["tau"], record["exemplars"]) == (float(np.float32(0.01)), 4)
        assert load_merge_result(tmp_path, small_bundle.theta_pre).config == cfg

    def test_record_json_cannot_hold_writes_nothing(self, tmp_path):
        pre, tvs, grads = random_merge_inputs(5)
        result = MergeResult(pre, region(grads, tvs, 0.25), [float("nan")], MergeConfig())
        with pytest.raises(ValueError):
            save_merge_result(result, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_no_mask_file_for_plain_merge(self, tmp_path):
        pre, tvs, _ = random_merge_inputs(6)
        result = MergeResult(shifted(pre, task_arithmetic(rows(tvs), 0.3)), None, [0.3] * 3)
        out = tmp_path / "ta"
        save_merge_result(result, out)
        assert not (out / "mask.tmrg").exists()
        assert strict_json(out / "run.json") == {
            "config": None, "exemplars": None, "coefficients": [0.3] * 3, "mask": None,
        }
