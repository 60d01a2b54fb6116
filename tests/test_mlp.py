from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_bundle_config
from trustmerge.bundle import make_bundle
from trustmerge.errors import ConfigError, IncompatibleShapes, NonFiniteValues
from trustmerge.mlp import (
    LabeledBatch,
    MlpSpec,
    TrainConfig,
    backward,
    entropy_loss,
    evaluate_accuracy,
    forward,
    init_params,
    is_count,
    train,
    train_experts,
)
from trustmerge.params import Checkpoint


def small_net(seed=0, sizes=(2, 5, 3)):
    return MlpSpec(sizes), init_params(MlpSpec(sizes), seed=seed)


def random_batch(rng, n, dim, classes):
    return LabeledBatch(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n))


def finite_difference(loss_fn, params, step=1e-5):
    """Central differences on every coordinate; loss_fn maps Checkpoint -> float."""
    grads = []
    for name, arr in params:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index

            def at(offset):
                bumped = {n: a.copy() for n, a in params}
                bumped[name][idx] += offset
                return loss_fn(Checkpoint(bumped.items()))

            g[idx] = (at(step) - at(-step)) / (2 * step)
        grads.append((name, g))
    return Checkpoint(grads)


def rel_err(analytic, numeric):
    a, b = analytic.flat(), numeric.flat()
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


class TestSpecAndBatch:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((2,))
        with pytest.raises(ValueError):
            MlpSpec((2, 0, 3))
        with pytest.raises(ValueError):
            MlpSpec((2, 4, 1))
        assert MlpSpec((2, 4, 3)).num_classes == 3
        assert MlpSpec((2, 4, 3)).input_dim == 2

    def test_batch_validation(self):
        with pytest.raises(IncompatibleShapes, match="disagree on sample count"):
            LabeledBatch(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(IncompatibleShapes, match="inputs must be 2-D"):
            LabeledBatch(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(NonFiniteValues, match="non-finite input rows"):
            LabeledBatch(np.array([[np.inf, 0.0]]), np.array([0]))

    def test_batch_arrays_are_read_only(self):
        inputs = np.zeros((2, 2))
        b = LabeledBatch(inputs, np.array([0, 1]))
        with pytest.raises(ValueError):
            b.inputs[0, 0] = 1.0
        with pytest.raises(ValueError):
            b.labels[0] = 1
        assert b.inputs is inputs  # a float64 array is frozen in place, not copied

    def test_take(self):
        b = LabeledBatch(np.arange(6.0).reshape(3, 2), np.array([0, 1, 2]))
        sub = b.take(np.array([2, 0]))
        assert np.array_equal(sub.inputs, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.labels, [2, 0])

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    def test_counts_may_be_numpy_integers_and_are_stored_as_ints(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8), seed=np.uint8(1),
                          learning_rate=np.float64(0.5))
        assert cfg == TrainConfig(epochs=3, batch_size=8, learning_rate=0.5, seed=1)
        assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed, cfg.learning_rate)] == [
            int, int, int, float]
        assert MlpSpec((np.int64(2), np.int64(3))).layer_sizes == (2, 3)
        assert is_count(np.int64(3)) and not any(
            map(is_count, (True, np.bool_(True), 3.0, np.float64(3.0), "3")))
        for bad in (np.float64(3.0), np.bool_(True), np.array([3])):
            with pytest.raises(ConfigError, match="epochs/batch_size"):
                TrainConfig(epochs=bad)


class TestForward:
    def test_zero_params_loss_is_log_num_classes(self):
        spec, params = small_net()
        params = Checkpoint.from_flat(params, np.zeros(params.total_dims))
        rng = np.random.default_rng(0)
        batch = random_batch(rng, 10, 2, 3)
        _, loss = forward(params, batch)
        assert loss == pytest.approx(np.log(3), abs=1e-15)

    def test_logits_shape(self):
        spec, params = small_net()
        rng = np.random.default_rng(1)
        batch = random_batch(rng, 7, 2, 3)
        logits, _ = forward(params, batch)
        assert logits.shape == (7, 3)

    def test_label_out_of_range(self):
        spec, params = small_net()
        for label in (3, 99):
            batch = LabeledBatch(np.zeros((1, 2)), np.array([label]))
            for fn in (forward, evaluate_accuracy):  # neither scores a label it cannot predict
                with pytest.raises(IncompatibleShapes, match="label index out of range"):
                    fn(params, batch)

    def test_wrong_input_width(self):
        spec, params = small_net()
        batch = LabeledBatch(np.zeros((1, 5)), np.array([0]))
        with pytest.raises(IncompatibleShapes, match="layer0 expects 2 features, got 5"):
            forward(params, batch)

    @pytest.mark.parametrize("tensors, detail", [
        ([("layer0.weight", np.zeros((3, 2))), ("layer0.bias", np.zeros(1))],
         r"layer0.weight has shape \(3, 2\) and layer0.bias \(1,\)"),
        ([("layer0.weight", np.zeros(6)), ("layer0.bias", np.zeros(6))],
         r"layer0.weight has shape \(6,\)"),
        ([("layer0.weight", np.zeros((4, 2))), ("layer0.bias", np.zeros(4)),
          ("layer1.weight", np.zeros((3, 5))), ("layer1.bias", np.zeros(3))],
         "layer1 expects 5 features, got 4"),
        ([("layer0.weight", np.zeros((3, 2)))], "naming convention"),
    ], ids=["bias-per-row", "weight-2d", "widths-chain", "naming"])
    def test_malformed_layers(self, tensors, detail):
        params = Checkpoint(tensors)
        batch = LabeledBatch(np.zeros((2, 2)), np.array([0, 1]))
        for fn in (forward, backward, entropy_loss, evaluate_accuracy):
            with pytest.raises(IncompatibleShapes, match=detail):
                fn(params, batch)
        with pytest.raises(IncompatibleShapes, match=detail):
            train(params, batch, TrainConfig(epochs=1))

    def test_softmax_shift_invariance(self):
        # huge logits must not overflow
        params = Checkpoint([
            ("layer0.weight", np.array([[500.0, 0.0], [-500.0, 0.0]])),
            ("layer0.bias", np.zeros(2)),
        ])
        batch = LabeledBatch(np.array([[1.0, 0.0]]), np.array([0]))
        _, loss = forward(params, batch)
        assert np.isfinite(loss)


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cross_entropy_matches_finite_differences(self, seed):
        spec, params = small_net(seed)
        rng = np.random.default_rng(100 + seed)
        batch = random_batch(rng, 6, 2, 3)
        loss, grads = backward(params, batch)
        _, loss_check = forward(params, batch)
        assert loss == loss_check
        numeric = finite_difference(lambda p: forward(p, batch)[1], params)
        assert rel_err(grads, numeric) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_entropy_matches_finite_differences(self, seed):
        spec, params = small_net(seed, sizes=(2, 4, 4))
        rng = np.random.default_rng(200 + seed)
        batch = random_batch(rng, 6, 2, 4)
        _, grads = entropy_loss(params, batch)
        numeric = finite_difference(lambda p: entropy_loss(p, batch)[0], params)
        assert rel_err(grads, numeric) < 1e-4

    def test_entropy_max_at_uniform_with_zero_gradient(self):
        spec, params = small_net()
        params = Checkpoint.from_flat(params, np.zeros(params.total_dims))
        rng = np.random.default_rng(3)
        batch = random_batch(rng, 5, 2, 3)
        loss, grads = entropy_loss(params, batch)
        assert loss == pytest.approx(np.log(3), abs=1e-15)
        assert all(np.allclose(g, 0.0, atol=1e-15) for _, g in grads)

    def test_entropy_ignores_labels(self):
        spec, params = small_net(4)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2))
        a = LabeledBatch(x, np.zeros(5, dtype=int))
        b = LabeledBatch(x, np.full(5, 2))
        assert entropy_loss(params, a)[0] == entropy_loss(params, b)[0]

    def test_gradient_shapes_match_params(self):
        spec, params = small_net(5)
        rng = np.random.default_rng(5)
        _, grads = backward(params, random_batch(rng, 3, 2, 3))
        assert grads.names == params.names
        for n, g in grads:
            assert g.shape == params[n].shape


class TestTraining:
    def test_zero_learning_rate_is_identity(self):
        spec, params = small_net(6)
        rng = np.random.default_rng(6)
        data = random_batch(rng, 32, 2, 3)
        out = train(params, data, TrainConfig(epochs=3, learning_rate=0.0))
        assert out == params

    def test_deterministic_for_fixed_seed(self):
        spec, params = small_net(7)
        rng = np.random.default_rng(7)
        data = random_batch(rng, 40, 2, 3)
        cfg = TrainConfig(epochs=4, seed=9)
        assert train(params, data, cfg) == train(params, data, cfg)

    def test_different_seed_changes_result(self):
        spec, params = small_net(8)
        rng = np.random.default_rng(8)
        data = random_batch(rng, 40, 2, 3)
        a = train(params, data, TrainConfig(epochs=4, seed=1))
        b = train(params, data, TrainConfig(epochs=4, seed=2))
        assert a != b

    def test_training_reduces_loss_on_separable_data(self):
        spec, params = small_net(9)
        x = np.concatenate([np.full((20, 2), 2.0), np.full((20, 2), -2.0)])
        y = np.array([0] * 20 + [1] * 20)
        data = LabeledBatch(x, y)
        _, before = forward(params, data)
        trained = train(params, data, TrainConfig(epochs=30))
        _, after = forward(trained, data)
        assert after < before
        assert evaluate_accuracy(trained, data) == 1.0

    def test_wrong_input_width(self):
        _, params = small_net(10)
        data = LabeledBatch(np.zeros((40, 5)), np.zeros(40, dtype=int))
        with pytest.raises(IncompatibleShapes, match="layer0 expects 2 features, got 5"):
            train(params, data, TrainConfig(epochs=2, batch_size=8))

    def test_label_out_of_range_in_a_late_minibatch(self):
        _, params = small_net(10)
        labels = np.zeros(40, dtype=int)
        labels[-1] = 3  # the net has 3 classes
        with pytest.raises(IncompatibleShapes, match="label index out of range"):
            train(params, LabeledBatch(np.zeros((40, 2)), labels), TrainConfig(epochs=2, batch_size=8))

    def test_overflowing_run_raises_instead_of_returning_nan(self):
        _, params = small_net(10)
        data = random_batch(np.random.default_rng(10), 40, 2, 3)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValues):
            train(params, data, TrainConfig(epochs=3, batch_size=8, learning_rate=1e308))

    def test_empty_data_returns_the_input(self):
        _, params = small_net(10)
        data = LabeledBatch(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert train(params, data, TrainConfig(epochs=2)) == params


def _reference_forward(params, x):
    """Layers looked up by name and the activations feeding each layer."""
    layers, i = [], 0
    while f"layer{i}.weight" in params.tensors:
        layers.append((params[f"layer{i}.weight"], params[f"layer{i}.bias"]))
        i += 1
    acts, h = [x], x
    for li, (w, b) in enumerate(layers):
        z = h @ w.T + b
        if li < len(layers) - 1:
            h = np.tanh(z)
            acts.append(h)
    shifted = z - z.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return layers, acts, logp


def _reference_backprop(params, layers, acts, dlogits):
    grads, dz = {}, dlogits
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        grads[f"layer{li}.weight"] = dz.T @ acts[li]
        grads[f"layer{li}.bias"] = dz.sum(axis=0)
        if li > 0:
            dh = dz @ w
            dz = dh * (1.0 - acts[li] ** 2)
    return Checkpoint((n, grads[n]) for n in params.names)


def reference_backward(params, batch):
    """Cross-entropy backward as a per-tensor loop over named layers."""
    layers, acts, logp = _reference_forward(params, batch.inputs)
    n = len(batch)
    loss = -float(np.mean(logp[np.arange(n), batch.labels]))
    dlogits = np.exp(logp).copy()
    dlogits[np.arange(n), batch.labels] -= 1.0
    dlogits /= n
    return loss, _reference_backprop(params, layers, acts, dlogits)


def reference_entropy_loss(params, batch):
    layers, acts, logp = _reference_forward(params, batch.inputs)
    probs = np.exp(logp)
    row_entropy = -(probs * logp).sum(axis=1)
    dlogits = -probs * (logp + row_entropy[:, None]) / len(batch)
    return float(np.mean(row_entropy)), _reference_backprop(params, layers, acts, dlogits)


def reference_train(params, data, cfg):
    """SGD with a fresh checkpoint and per-tensor update on every step."""
    rng = np.random.default_rng(cfg.seed)
    current = {n: a.copy() for n, a in params}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = LabeledBatch(data.inputs[idx], data.labels[idx])
            _, grads = reference_backward(Checkpoint(current.items()), batch)
            for n in current:
                current[n] = current[n] - cfg.learning_rate * grads[n]
    return Checkpoint(current.items())


def assert_bitwise(a: Checkpoint, b: Checkpoint):
    assert a.names == b.names
    assert a.flat().tobytes() == b.flat().tobytes()


class TestBitwiseReference:
    """The model core against the per-tensor reference above, bit for bit,
    on two hidden layers and on a checkpoint stored in a non-standard order."""

    @pytest.fixture(params=["standard", "reordered"])
    def net(self, request):
        _, params = small_net(11, sizes=(2, 6, 5, 3))
        if request.param == "reordered":
            names = params.names
            params = Checkpoint((n, params[n]) for n in names[3:] + names[:3][::-1])
        return params

    def test_forward_and_backward(self, net):
        rng = np.random.default_rng(12)
        for n in (1, 7, 40):
            batch = random_batch(rng, n, 2, 3)
            ref_loss, ref_grads = reference_backward(net, batch)
            loss, grads = backward(net, batch)
            assert loss == ref_loss and forward(net, batch)[1] == ref_loss
            assert_bitwise(grads, ref_grads)

    def test_entropy_loss(self, net):
        batch = random_batch(np.random.default_rng(13), 9, 2, 3)
        ref_loss, ref_grads = reference_entropy_loss(net, batch)
        loss, grads = entropy_loss(net, batch)
        assert loss == ref_loss
        assert_bitwise(grads, ref_grads)

    def test_train(self, net):
        data = random_batch(np.random.default_rng(14), 50, 2, 3)
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.3, seed=5)
        assert_bitwise(train(net, data, cfg), reference_train(net, data, cfg))


class TestTrainExperts:
    """K experts stepped together against K runs of the per-tensor
    ``reference_train``, bit for bit."""

    @staticmethod
    def assert_matches_reference(params, datasets, cfgs):
        experts = train_experts(params, datasets, cfgs)
        assert len(experts) == len(datasets)
        for expert, data, cfg in zip(experts, datasets, cfgs):
            assert_bitwise(expert, reference_train(params, data, cfg))
        return experts

    @pytest.mark.parametrize("seed", range(10))
    def test_tiny_bundle_experts(self, seed):
        cfg = tiny_bundle_config(seed)
        bundle = make_bundle(cfg)
        cfgs = [replace(cfg.finetune, seed=seed * 1000 + 31 + k) for k in range(cfg.num_tasks)]
        experts = self.assert_matches_reference(bundle.theta_pre, bundle.train_sets, cfgs)
        for expert, ours in zip(bundle.experts, experts):
            assert_bitwise(expert, ours)

    @pytest.mark.parametrize("samples, batch_size, k", [
        (50, 16, 3),  # a ragged last batch of 2 rows
        (33, 8, 2),   # a one-row last batch
        (12, 1, 3),   # one row per step
        (40, 16, 1),  # a single expert
    ], ids=["ragged", "one-row-tail", "batch-1", "k-1"])
    def test_batch_shapes(self, samples, batch_size, k):
        _, params = small_net(15, sizes=(2, 6, 5, 3))
        rng = np.random.default_rng(16)
        datasets = [random_batch(rng, samples, 2, 3) for _ in range(k)]
        cfgs = [TrainConfig(epochs=3, batch_size=batch_size, learning_rate=0.3, seed=20 + i)
                for i in range(k)]
        self.assert_matches_reference(params, datasets, cfgs)

    def test_reordered_checkpoint_layout(self):
        _, params = small_net(11, sizes=(2, 6, 5, 3))
        names = params.names
        params = Checkpoint((n, params[n]) for n in names[3:] + names[:3][::-1])
        rng = np.random.default_rng(17)
        datasets = [random_batch(rng, 50, 2, 3) for _ in range(3)]
        cfgs = [TrainConfig(epochs=3, batch_size=16, learning_rate=0.3, seed=i) for i in range(3)]
        self.assert_matches_reference(params, datasets, cfgs)

    @pytest.mark.parametrize("sizes, cfgs", [
        ((40, 41), [TrainConfig(seed=0), TrainConfig(seed=1)]),
        ((40, 40), [TrainConfig(seed=0), TrainConfig(seed=1, epochs=3)]),
        ((40, 40), [TrainConfig(seed=0), TrainConfig(seed=1, learning_rate=0.1)]),
        ((40, 40), [TrainConfig(seed=0)]),
        ((), []),
    ], ids=["set-sizes", "epochs", "learning-rate", "config-count", "empty"])
    def test_config_errors(self, sizes, cfgs):
        _, params = small_net(18)
        rng = np.random.default_rng(18)
        with pytest.raises(ConfigError):
            train_experts(params, [random_batch(rng, n, 2, 3) for n in sizes], cfgs)

    @pytest.mark.parametrize("bad", range(3))
    def test_label_out_of_range_in_any_set(self, bad):
        _, params = small_net(19)
        rng = np.random.default_rng(19)
        datasets = [random_batch(rng, 40, 2, 3) for _ in range(3)]
        labels = datasets[bad].labels.copy()
        labels[-1] = 3  # the net has 3 classes
        datasets[bad] = LabeledBatch(datasets[bad].inputs, labels)
        cfgs = [TrainConfig(epochs=2, batch_size=8, seed=i) for i in range(3)]
        with pytest.raises(IncompatibleShapes, match="label index out of range"):
            train_experts(params, datasets, cfgs)

    def test_overflowing_run_raises_instead_of_returning_nan(self):
        _, params = small_net(20)
        rng = np.random.default_rng(20)
        datasets = [random_batch(rng, 40, 2, 3) for _ in range(2)]
        cfgs = [TrainConfig(epochs=3, batch_size=8, learning_rate=1e308, seed=i) for i in range(2)]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteValues):
            train_experts(params, datasets, cfgs)


class TestAccuracy:
    def test_tie_breaks_toward_lowest_class_index(self):
        # zero params give identical logits for every class
        spec, params = small_net()
        params = Checkpoint.from_flat(params, np.zeros(params.total_dims))
        batch = LabeledBatch(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
        assert evaluate_accuracy(params, batch) == 0.5

    def test_perfect_and_zero(self):
        params = Checkpoint([
            ("layer0.weight", np.array([[1.0, 0.0], [-1.0, 0.0]])),
            ("layer0.bias", np.zeros(2)),
        ])
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert evaluate_accuracy(params, LabeledBatch(x, np.array([0, 1]))) == 1.0
        assert evaluate_accuracy(params, LabeledBatch(x, np.array([1, 0]))) == 0.0
