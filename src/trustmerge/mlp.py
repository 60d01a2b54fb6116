"""Minimal MLP with hand-written backprop, plus SGD training and evaluation.

Parameters live in a :class:`~trustmerge.params.Checkpoint` under the naming
convention ``layer{i}.weight`` / ``layer{i}.bias`` so the network maps 1:1
onto the checkpoint machinery.  Hidden activation is tanh (smooth, so
finite-difference gradient checks are clean); the output is softmax.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, IncompatibleShapes, NonFiniteValues
from .params import Checkpoint, _slices


def is_count(value) -> bool:
    """Whether ``value`` is an integer, Python or numpy, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


_PLAIN = frozenset((int, float, str, bool, type(None)))  # np.float64 is a float subclass


def _plain(value):
    """``value`` with its numpy scalars, also inside tuples and lists, as Python values."""
    if isinstance(value, (tuple, list)):
        return type(value)(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


def plain_fields(config) -> None:
    """Store the fields of the frozen dataclass ``config``, from its __post_init__,
    through _plain, so that whatever a config accepts it can also write and read back."""
    values = vars(config)  # at the start of __post_init__, exactly the fields
    for name, value in values.items():
        if type(value) not in _PLAIN:
            values[name] = _plain(value)  # replaces a value: the iteration stays valid


def is_finite_number(value) -> bool:
    """Whether ``value`` is a number, not a (numpy) bool, whose float is finite.  The
    settings check their types with it, so a string, None or an int too large
    for a float fails as their ConfigError and not as a TypeError."""
    try:
        return not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def checked_fraction(value, name: str) -> float:
    """``value`` if it is a number in [0, 1] (see is_finite_number); a
    ConfigError naming ``name`` otherwise."""
    if not (is_finite_number(value) and 0.0 <= value <= 1.0):
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def checked_tuple(value, name: str) -> tuple:
    """``value``, a tuple or list, as a tuple; a ConfigError naming ``name`` otherwise."""
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{name} must be a tuple or list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...]  # (input, hidden..., classes)

    def __post_init__(self):
        sizes = checked_tuple(self.layer_sizes, "layer_sizes")
        if len(sizes) < 2:
            raise ConfigError("need at least input and output layer")
        if not all(is_count(s) and s > 0 for s in sizes):
            raise ConfigError(f"layer sizes must be positive integers, got {sizes!r}")
        if sizes[-1] < 2:
            raise ConfigError("need at least 2 classes")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]


@dataclass(frozen=True)
class LabeledBatch:
    inputs: np.ndarray  # (samples, input_dim)
    labels: np.ndarray  # (samples,) int class indices

    def __post_init__(self):
        object.__setattr__(self, "inputs", np.asarray(self.inputs, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if not np.all(np.isfinite(self.inputs)):
            raise NonFiniteValues("non-finite input rows")
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise IncompatibleShapes("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise IncompatibleShapes("inputs and labels disagree on sample count")
        # frozen like Checkpoint tensors, so estimates memoized on a bundle stay valid
        self.inputs.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "LabeledBatch":
        """The batch of rows ``idx``."""
        return LabeledBatch(self.inputs[idx], self.labels[idx])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        plain_fields(self)
        if not all(is_count(n) and n > 0 for n in (self.epochs, self.batch_size)):
            raise ConfigError(f"epochs/batch_size must be positive integers, "
                              f"got {self.epochs!r}/{self.batch_size!r}")
        if not (is_finite_number(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning rate must be finite and nonnegative, got {self.learning_rate!r}")
        if not (is_count(self.seed) and self.seed >= 0):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")


def _layout(spec: MlpSpec) -> tuple:
    """(name, shape) of each tensor of a ``spec`` network, in checkpoint order."""
    sizes = spec.layer_sizes
    return tuple(entry for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
                 for entry in ((f"layer{i}.weight", (n_out, n_in)), (f"layer{i}.bias", (n_out,))))


def init_params(spec: MlpSpec, seed: int) -> Checkpoint:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    return Checkpoint((name, np.zeros(shape) if len(shape) == 1 else
                       rng.uniform(-1.0 / np.sqrt(shape[1]), 1.0 / np.sqrt(shape[1]), shape))
                      for name, shape in _layout(spec))


@functools.lru_cache(maxsize=64)
def _architecture(layout: tuple) -> tuple[tuple[slice, tuple, slice], ...]:
    """Per layer of a checkpoint layout: the weight slice and shape and the
    bias slice in its flat vector.  The tensors may come in any order; they
    must chain as 2-D ``layer{i}.weight`` and 1-D ``layer{i}.bias`` with one
    entry per weight row."""
    spans = {name: (slice(start, stop), shape) for name, start, stop, shape in _slices(layout)}
    layers, width = [], None  # width: the previous layer's output
    while (weight := f"layer{len(layers)}.weight") in spans and (
        bias := f"layer{len(layers)}.bias"
    ) in spans:
        (w_slice, w_shape), (b_slice, b_shape) = spans[weight], spans[bias]
        if len(w_shape) != 2 or b_shape != w_shape[:1]:
            raise IncompatibleShapes(f"{weight} has shape {w_shape} and {bias} {b_shape}")
        if width is not None and w_shape[1] != width:
            raise IncompatibleShapes(f"layer{len(layers)} expects {w_shape[1]} features, got {width}")
        layers.append((w_slice, w_shape, b_slice))
        width = w_shape[0]
    if not layers or 2 * len(layers) != len(layout):
        raise IncompatibleShapes("checkpoint does not follow the layer{i} naming convention")
    return tuple(layers)


def _layers(params: Checkpoint, flat: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views per layer of a flat vector laid out like
    ``params``, by default ``params.flat()``, or of a (K, N) stack of such
    vectors: weights (..., out, in) and biases (..., 1, out), so a bias
    broadcasts over the rows of a batch."""
    flat = params.flat() if flat is None else flat
    lead = flat.shape[:-1]
    return [(flat[..., ws].reshape(lead + shape), flat[..., None, bs])
            for ws, shape, bs in _architecture(params.layout)]


def _checked_layers(params: Checkpoint, inputs: np.ndarray, labels: np.ndarray | None = None):
    """``params``' layers, once ``inputs`` have the first layer's width and
    ``labels``, when given, index the last layer's classes."""
    layers = _layers(params)
    expected = layers[0][0].shape[1]
    if inputs.shape[1] != expected:
        raise IncompatibleShapes(f"layer0 expects {expected} features, got {inputs.shape[1]}")
    classes = layers[-1][0].shape[0]
    if labels is not None and labels.size and (labels.max() >= classes or labels.min() < 0):
        raise IncompatibleShapes("label index out of range")
    return layers


def _forward_pass(layers, x: np.ndarray):
    """Returns (logits, activations) with activations[i] the input to layer i.
    ``x`` is (samples, in), or (K, samples, in) for a (K, N) stack of layers;
    every array below keeps that leading stack axis."""
    acts = [x]
    for w, b in layers[:-1]:
        x = np.tanh(x @ w.swapaxes(-1, -2) + b)
        acts.append(x)
    w, b = layers[-1]
    return x @ w.swapaxes(-1, -2) + b, acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(params: Checkpoint, batch: LabeledBatch) -> tuple[np.ndarray, float]:
    """Logits and mean cross-entropy loss over the batch."""
    logits, _ = _forward_pass(_checked_layers(params, batch.inputs, batch.labels), batch.inputs)
    logp = _log_softmax(logits)
    loss = -float(np.mean(logp[np.arange(len(batch)), batch.labels]))
    return logits, loss


def _layer_deltas(layers, acts: list[np.ndarray], dlogits: np.ndarray):
    """Yield (layer index, dZ, H) from the last layer down: H is the layer's
    input and dZ the loss gradient w.r.t. its pre-activation, one row per
    sample.  The layer's weight gradient is dZᵀH, its bias gradient dZ's
    column sums."""
    dz = dlogits
    for li in range(len(layers) - 1, -1, -1):
        yield li, dz, acts[li]
        if li > 0:
            dz = (dz @ layers[li][0]) * (1.0 - acts[li] ** 2)  # tanh'


def _backprop(layers, acts: list[np.ndarray], dlogits: np.ndarray, grads) -> None:
    """Propagate d(loss)/d(logits) back into ``grads``, the (weight, bias)
    gradient views of each layer."""
    for li, dz, h in _layer_deltas(layers, acts, dlogits):
        dw, db = grads[li]
        np.matmul(dz.swapaxes(-1, -2), h, out=dw)
        dz.sum(axis=-2, keepdims=True, out=db)


def _cross_entropy_deltas(layers, inputs: np.ndarray, labels: np.ndarray):
    """Forward pass; returns the log-probabilities, the activations and each
    row's own d(cross-entropy)/d(logits), ``softmax - onehot``."""
    logits, acts = _forward_pass(layers, inputs)
    logp = _log_softmax(logits)
    dlogits = np.exp(logp)
    rows = dlogits.reshape(-1, dlogits.shape[-1])  # a view: np.exp returns a contiguous array
    rows[np.arange(len(rows)), labels.reshape(-1)] -= 1.0
    return logp, acts, dlogits


def _abs_example_gradient_sum(params: Checkpoint, batch: LabeledBatch) -> np.ndarray:
    """Flat sum over the rows of ``batch`` of |the cross-entropy gradient of
    that row alone|, from one forward pass and one backprop: row r's weight
    gradient is the outer product dZ[r]ᵀH[r], so Σ_r |dZ[r]ᵀH[r]| = |dZ|ᵀ|H|,
    and its bias gradient is dZ[r]."""
    layers = _checked_layers(params, batch.inputs, batch.labels)
    _, acts, dlogits = _cross_entropy_deltas(layers, batch.inputs, batch.labels)
    flat = np.empty(params.total_dims)
    grads = _layers(params, flat)
    for li, dz, h in _layer_deltas(layers, acts, dlogits):
        dw, db = grads[li]
        abs_dz = np.abs(dz)
        np.matmul(abs_dz.T, np.abs(h), out=dw)
        abs_dz.sum(axis=0, keepdims=True, out=db)
    return flat


def backward(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean cross-entropy loss and its analytic gradient w.r.t. all parameters."""
    layers = _checked_layers(params, batch.inputs, batch.labels)
    logp, acts, dlogits = _cross_entropy_deltas(layers, batch.inputs, batch.labels)
    dlogits /= len(batch)
    flat = np.empty(params.total_dims)
    _backprop(layers, acts, dlogits, _layers(params, flat))
    loss = -float(np.mean(logp[np.arange(len(batch)), batch.labels]))
    return loss, Checkpoint.from_flat(params, flat)


def entropy_loss(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean Shannon entropy of the softmax outputs and its gradient.

    Labels in ``batch`` are ignored; only the inputs matter.
    """
    layers = _checked_layers(params, batch.inputs)
    logits, acts = _forward_pass(layers, batch.inputs)
    logp = _log_softmax(logits)
    probs = np.exp(logp)
    row_entropy = -(probs * logp).sum(axis=1)
    loss = float(np.mean(row_entropy))
    # dH/dz_k = -p_k (log p_k + H) per row, mean reduction over the batch
    dlogits = -probs * (logp + row_entropy[:, None]) / len(batch)
    flat = np.empty(params.total_dims)
    _backprop(layers, acts, dlogits, _layers(params, flat))
    return loss, Checkpoint.from_flat(params, flat)


def train(params: Checkpoint, data: LabeledBatch, cfg: TrainConfig) -> Checkpoint:
    """Plain SGD over seeded shuffled minibatches; deterministic for a fixed seed.
    One expert of :func:`train_experts`, which makes every check."""
    return train_experts(params, [data], [cfg])[0]


def train_experts(params: Checkpoint, datasets: list[LabeledBatch],
                  cfgs: list[TrainConfig]) -> list[Checkpoint]:
    """``train(params, datasets[k], cfgs[k])`` for every k, all K experts
    stepped together and bit for bit the same as K separate runs.

    The K parameter vectors are the rows of one (K, N) array, updated in
    place, and their gradients the rows of a second, reused by every step.
    Each expert draws its minibatch order from its own ``cfg.seed``; the sets
    have one size and the configs differ only in ``seed``, so every step
    takes equal-sized batches.  Shapes and labels are checked once per set
    before the first step, and finiteness once, on each returned checkpoint.
    """
    if not datasets or len(datasets) != len(cfgs):
        raise ConfigError(f"need one config per dataset, got {len(datasets)} datasets "
                          f"and {len(cfgs)} configs")
    if len({len(data) for data in datasets}) != 1:
        raise ConfigError(f"datasets must have one size, got {[len(d) for d in datasets]}")
    if len({replace(c, seed=0) for c in cfgs}) != 1:
        raise ConfigError(f"configs may differ only in seed, got {cfgs!r}")
    for data in datasets:
        _checked_layers(params, data.inputs, data.labels)
    cfg, size = cfgs[0], len(datasets[0])
    rngs = [np.random.default_rng(c.seed) for c in cfgs]
    flat = np.tile(params.flat(), (len(datasets), 1))
    layers = _layers(params, flat)
    grad = np.empty_like(flat)
    grads = _layers(params, grad)
    for _ in range(cfg.epochs):
        orders = [rng.permutation(size) for rng in rngs]
        xs = np.stack([data.inputs[order] for data, order in zip(datasets, orders)])
        ys = np.stack([data.labels[order] for data, order in zip(datasets, orders)])
        for start in range(0, size, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            _, acts, dlogits = _cross_entropy_deltas(layers, xs[:, batch], ys[:, batch])
            dlogits /= dlogits.shape[-2]
            _backprop(layers, acts, dlogits, grads)
            flat -= cfg.learning_rate * grad
    return [Checkpoint.from_flat(params, row) for row in flat]


def evaluate_accuracy(params: Checkpoint, test: LabeledBatch) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    logits, _ = _forward_pass(_checked_layers(params, test.inputs, test.labels), test.inputs)
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == test.labels))
