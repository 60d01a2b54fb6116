import numpy as np
import pytest

from trustmerge.errors import IncompatibleShapes
from trustmerge.gradients import estimate_abs_gradient
from trustmerge.mlp import LabeledBatch, MlpSpec, backward, init_params
from trustmerge.params import Checkpoint, ew_abs

from conftest import per_example_reference


def linear_net():
    """2-in 2-out softmax with zero weights: uniform predictions."""
    return Checkpoint([
        ("layer0.weight", np.zeros((2, 2))),
        ("layer0.bias", np.zeros(2)),
    ])


class TestExemplarEstimate:
    def test_mean_of_abs_not_abs_of_mean(self):
        # two examples whose per-example gradients cancel exactly: the
        # full-batch gradient is zero but the per-example magnitudes are not
        params = linear_net()
        batch = LabeledBatch(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 1]))
        _, full = backward(params, batch)
        assert np.allclose(full["layer0.weight"], 0.0)
        assert np.allclose(full["layer0.bias"], 0.0)
        est = estimate_abs_gradient(params, batch)
        np.testing.assert_allclose(
            est["layer0.weight"], [[0.5, 0.0], [0.5, 0.0]], atol=1e-15
        )
        np.testing.assert_allclose(est["layer0.bias"], [0.5, 0.5], atol=1e-15)

    def test_single_example_equals_abs_full_gradient(self):
        rng = np.random.default_rng(0)
        params = Checkpoint([
            ("layer0.weight", rng.normal(size=(3, 2))),
            ("layer0.bias", rng.normal(size=3)),
        ])
        one = LabeledBatch(rng.normal(size=(1, 2)), np.array([1]))
        _, g = backward(params, one)
        assert estimate_abs_gradient(params, one) == ew_abs(g)

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_equals_per_example_reference_bitwise(self, n):
        # one row is a one-row product either way, so n = 1 is bit-exact; the
        # batched products add n > 1 rows in their own order
        rng = np.random.default_rng(n)
        params = init_params(MlpSpec((2, 5, 4, 3)), seed=n)
        batch = LabeledBatch(rng.normal(size=(n, 2)), rng.integers(0, 3, size=n))
        reference = per_example_reference(params, batch)
        est = estimate_abs_gradient(params, batch)
        assert est.compatible(reference)
        if n == 1:
            assert np.array_equal(est.flat(), reference.flat())
        else:
            np.testing.assert_allclose(est.flat(), reference.flat(), rtol=1e-12, atol=0)

    def test_duplicating_examples_is_invariant(self):
        rng = np.random.default_rng(1)
        params = linear_net()
        x = rng.normal(size=(4, 2))
        y = rng.integers(0, 2, size=4)
        base = estimate_abs_gradient(params, LabeledBatch(x, y))
        doubled = estimate_abs_gradient(
            params, LabeledBatch(np.concatenate([x, x]), np.concatenate([y, y]))
        )
        for n, v in base:
            np.testing.assert_allclose(doubled[n], v, atol=1e-14)

    def test_result_is_nonnegative(self):
        rng = np.random.default_rng(2)
        params = linear_net()
        batch = LabeledBatch(rng.normal(size=(8, 2)), rng.integers(0, 2, size=8))
        assert np.all(estimate_abs_gradient(params, batch).flat() >= 0.0)

    def test_empty_exemplars(self):
        params = linear_net()
        empty = LabeledBatch(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(IncompatibleShapes, match="no exemplars supplied"):
            estimate_abs_gradient(params, empty)

    def test_wrong_input_width(self):
        params = linear_net()
        batch = LabeledBatch(np.zeros((3, 5)), np.zeros(3, dtype=int))
        with pytest.raises(IncompatibleShapes, match="layer0 expects 2 features, got 5"):
            estimate_abs_gradient(params, batch)

    @pytest.mark.parametrize("label", [2, -1])
    def test_label_out_of_range(self, label):
        params = linear_net()
        batch = LabeledBatch(np.zeros((3, 2)), np.array([0, label, 1]))
        with pytest.raises(IncompatibleShapes, match="label index out of range"):
            estimate_abs_gradient(params, batch)
