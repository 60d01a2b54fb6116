"""Minimal MLP with hand-written backprop, plus SGD training and evaluation.

Parameters live in a :class:`~trustmerge.params.Checkpoint` under the naming
convention ``layer{i}.weight`` / ``layer{i}.bias`` so the network maps 1:1
onto the checkpoint machinery.  Hidden activation is tanh (smooth, so
finite-difference gradient checks are clean); the output is softmax.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .params import Checkpoint, _slices


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...]  # (input, hidden..., classes)

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.layer_sizes[-1] < 2:
            raise ValueError("need at least 2 classes")
        object.__setattr__(self, "layer_sizes", tuple(self.layer_sizes))

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
            raise ShapeMismatch("non-finite input rows")
        self._seal()

    def _seal(self) -> None:
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeMismatch("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeMismatch("inputs and labels disagree on sample count")
        # frozen like Checkpoint tensors, so estimates memoized on a bundle stay valid
        self.inputs.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "LabeledBatch":
        """Rows ``idx``; they were validated with this batch, so only shapes are checked."""
        batch = object.__new__(LabeledBatch)
        object.__setattr__(batch, "inputs", self.inputs[idx])
        object.__setattr__(batch, "labels", self.labels[idx])
        batch._seal()
        return batch


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("epochs/batch_size must be positive")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning rate must be finite and nonnegative, got {self.learning_rate!r}")


def init_params(spec: MlpSpec, seed: int) -> Checkpoint:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors = []
    for i, (fan_in, fan_out) in enumerate(zip(spec.layer_sizes, spec.layer_sizes[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        tensors.append((f"layer{i}.weight", rng.uniform(-bound, bound, (fan_out, fan_in))))
        tensors.append((f"layer{i}.bias", np.zeros(fan_out)))
    return Checkpoint(tensors)


@functools.lru_cache(maxsize=64)
def _architecture(layout: tuple) -> tuple[tuple[str, str, slice, tuple, slice], ...]:
    """Per layer of a checkpoint layout: (weight name, bias name, weight
    slice and shape, bias slice) in its flat vector.  The tensors may come in
    any order; they must chain as 2-D ``layer{i}.weight`` and 1-D
    ``layer{i}.bias`` with one entry per weight row."""
    spans = {name: (slice(start, stop), shape) for name, start, stop, shape in _slices(layout)}
    layers, width = [], None  # width: the previous layer's output
    while (weight := f"layer{len(layers)}.weight") in spans and (
        bias := f"layer{len(layers)}.bias"
    ) in spans:
        (w_slice, w_shape), (b_slice, b_shape) = spans[weight], spans[bias]
        if len(w_shape) != 2 or b_shape != w_shape[:1]:
            raise ShapeMismatch(f"{weight} has shape {w_shape} and {bias} {b_shape}")
        if width is not None and w_shape[1] != width:
            raise ShapeMismatch(f"layer{len(layers)} expects {w_shape[1]} features, got {width}")
        layers.append((weight, bias, w_slice, w_shape, b_slice))
        width = w_shape[0]
    if not layers or 2 * len(layers) != len(layout):
        raise ShapeMismatch("checkpoint does not follow the layer{i} naming convention")
    return tuple(layers)


def _layers(params: Checkpoint, flat: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) per layer: ``params``' own tensors, or views of a flat
    vector laid out like ``params``."""
    arch = _architecture(params.layout)
    if flat is None:
        tensors = params.tensors
        return [(tensors[w], tensors[b]) for w, b, _, _, _ in arch]
    return [(flat[ws].reshape(shape), flat[bs]) for _, _, ws, shape, bs in arch]


def _check_inputs(layers, inputs: np.ndarray) -> None:
    expected = layers[0][0].shape[1]
    if inputs.shape[1] != expected:
        raise ShapeMismatch(f"layer0 expects {expected} features, got {inputs.shape[1]}")


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.size and (labels.max() >= num_classes or labels.min() < 0):
        raise ShapeMismatch("label index out of range")


def _checked_layers(params: Checkpoint, batch: LabeledBatch):
    """``params``' layers, once ``batch``'s input width and labels fit them."""
    layers = _layers(params)
    _check_inputs(layers, batch.inputs)
    _check_labels(batch.labels, layers[-1][0].shape[0])
    return layers


def _forward_pass(layers, x: np.ndarray):
    """Returns (logits, activations) with activations[i] the input to layer i."""
    acts = [x]
    for w, b in layers[:-1]:
        x = np.tanh(x @ w.T + b)
        acts.append(x)
    w, b = layers[-1]
    return x @ w.T + b, acts


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(params: Checkpoint, batch: LabeledBatch) -> tuple[np.ndarray, float]:
    """Logits and mean cross-entropy loss over the batch."""
    logits, _ = _forward_pass(_checked_layers(params, batch), batch.inputs)
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
        np.matmul(dz.T, h, out=dw)
        dz.sum(axis=0, out=db)


def _cross_entropy_deltas(layers, inputs: np.ndarray, labels: np.ndarray):
    """Forward pass; returns the log-probabilities, the activations and each
    row's own d(cross-entropy)/d(logits), ``softmax - onehot``."""
    logits, acts = _forward_pass(layers, inputs)
    logp = _log_softmax(logits)
    dlogits = np.exp(logp)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    return logp, acts, dlogits


def _cross_entropy_backprop(layers, inputs: np.ndarray, labels: np.ndarray, grads) -> np.ndarray:
    """Write the mean cross-entropy gradient into ``grads``; returns the
    log-probabilities."""
    logp, acts, dlogits = _cross_entropy_deltas(layers, inputs, labels)
    dlogits /= len(labels)
    _backprop(layers, acts, dlogits, grads)
    return logp


def _abs_example_gradient_sum(params: Checkpoint, batch: LabeledBatch) -> np.ndarray:
    """Flat sum over the rows of ``batch`` of |the cross-entropy gradient of
    that row alone|, from one forward pass and one backprop: row r's weight
    gradient is the outer product dZ[r]ᵀH[r], so Σ_r |dZ[r]ᵀH[r]| = |dZ|ᵀ|H|,
    and its bias gradient is dZ[r]."""
    layers = _checked_layers(params, batch)
    _, acts, dlogits = _cross_entropy_deltas(layers, batch.inputs, batch.labels)
    flat = np.empty(params.total_dims)
    grads = _layers(params, flat)
    for li, dz, h in _layer_deltas(layers, acts, dlogits):
        dw, db = grads[li]
        abs_dz = np.abs(dz)
        np.matmul(abs_dz.T, np.abs(h), out=dw)
        abs_dz.sum(axis=0, out=db)
    return flat


def backward(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean cross-entropy loss and its analytic gradient w.r.t. all parameters."""
    layers = _checked_layers(params, batch)
    flat = np.empty(params.total_dims)
    logp = _cross_entropy_backprop(layers, batch.inputs, batch.labels, _layers(params, flat))
    loss = -float(np.mean(logp[np.arange(len(batch)), batch.labels]))
    return loss, Checkpoint.from_flat(params, flat)


def entropy_loss(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean Shannon entropy of the softmax outputs and its gradient.

    Labels in ``batch`` are ignored; only the inputs matter.
    """
    layers = _layers(params)
    _check_inputs(layers, batch.inputs)
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

    The parameters and their gradient are two flat vectors reused by every
    step.  Shapes and labels are checked once before the first step, and
    finiteness once, on the returned checkpoint.
    """
    _checked_layers(params, data)
    rng = np.random.default_rng(cfg.seed)
    flat = params.flat().copy()
    layers = _layers(params, flat)
    grad = np.empty(params.total_dims)
    grads = _layers(params, grad)
    inputs, labels = data.inputs, data.labels
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _cross_entropy_backprop(layers, inputs[idx], labels[idx], grads)
            flat -= cfg.learning_rate * grad
    return Checkpoint.from_flat(params, flat)


def evaluate_accuracy(params: Checkpoint, test: LabeledBatch) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    layers = _layers(params)
    _check_inputs(layers, test.inputs)
    logits, _ = _forward_pass(layers, test.inputs)
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == test.labels))
