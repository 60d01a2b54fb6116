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
from .params import Checkpoint


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
def _layer_slots(names: tuple[str, ...]) -> tuple[tuple[str, int, str, int], ...]:
    """(weight name, its position, bias name, its position) per layer, for
    checkpoint tensor names in any order."""
    position = {n: p for p, n in enumerate(names)}
    slots = []
    while (weight := f"layer{len(slots)}.weight") in position:
        bias = f"layer{len(slots)}.bias"
        if bias not in position:
            break
        slots.append((weight, position[weight], bias, position[bias]))
    if 2 * len(slots) != len(names):
        raise ShapeMismatch("checkpoint does not follow the layer{i} naming convention")
    return tuple(slots)


def _forward_pass(params: Checkpoint, x: np.ndarray):
    """Returns (logits, activations) with activations[i] the input to layer i."""
    tensors = params.tensors
    slots = _layer_slots(tuple(tensors))
    acts = [x]
    h = x
    for li, (weight, _, bias, _) in enumerate(slots):
        w = tensors[weight]
        if h.shape[1] != w.shape[1]:
            raise ShapeMismatch(f"layer{li} expects {w.shape[1]} features, got {h.shape[1]}")
        z = h @ w.T + tensors[bias]
        if li == len(slots) - 1:
            return z, acts
        h = np.tanh(z)
        acts.append(h)
    raise ShapeMismatch("checkpoint has no layers")


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.size and (labels.max() >= num_classes or labels.min() < 0):
        raise ShapeMismatch("label index out of range")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(params: Checkpoint, batch: LabeledBatch) -> tuple[np.ndarray, float]:
    """Logits and mean cross-entropy loss over the batch."""
    logits, _ = _forward_pass(params, batch.inputs)
    _check_labels(batch.labels, logits.shape[1])
    logp = _log_softmax(logits)
    loss = -float(np.mean(logp[np.arange(len(batch)), batch.labels]))
    return logits, loss


def _backprop(params: Checkpoint, acts: list[np.ndarray], dlogits: np.ndarray) -> Checkpoint:
    """Propagate d(loss)/d(logits) back to parameter gradients."""
    tensors = params.tensors
    slots = _layer_slots(tuple(tensors))
    grads: list = [None] * len(tensors)  # in checkpoint order
    dz = dlogits
    for li in range(len(slots) - 1, -1, -1):
        weight, w_pos, bias, b_pos = slots[li]
        grads[w_pos] = (weight, dz.T @ acts[li])
        grads[b_pos] = (bias, dz.sum(axis=0))
        if li > 0:
            dh = dz @ tensors[weight]
            dz = dh * (1.0 - acts[li] ** 2)  # tanh'
    return Checkpoint(grads)


def backward(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean cross-entropy loss and its analytic gradient w.r.t. all parameters."""
    logits, acts = _forward_pass(params, batch.inputs)
    _check_labels(batch.labels, logits.shape[1])
    logp = _log_softmax(logits)
    n = len(batch)
    picked = (np.arange(n), batch.labels)
    loss = -float(np.mean(logp[picked]))
    dlogits = np.exp(logp)
    dlogits[picked] -= 1.0
    dlogits /= n
    return loss, _backprop(params, acts, dlogits)


def entropy_loss(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean Shannon entropy of the softmax outputs and its gradient.

    Labels in ``batch`` are ignored; only the inputs matter.
    """
    logits, acts = _forward_pass(params, batch.inputs)
    logp = _log_softmax(logits)
    probs = np.exp(logp)
    row_entropy = -(probs * logp).sum(axis=1)
    loss = float(np.mean(row_entropy))
    n = len(batch)
    # dH/dz_k = -p_k (log p_k + H) per row, mean reduction over the batch
    dlogits = -probs * (logp + row_entropy[:, None]) / n
    return loss, _backprop(params, acts, dlogits)


def train(params: Checkpoint, data: LabeledBatch, cfg: TrainConfig) -> Checkpoint:
    """Plain SGD over seeded shuffled minibatches; deterministic for a fixed seed.

    The parameters are one writable flat vector updated in place; each step
    differentiates an immutable snapshot of it.
    """
    rng = np.random.default_rng(cfg.seed)
    flat = params.flat().copy()
    current = params.views(flat)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grads = backward(Checkpoint(current), data.take(idx))
            flat -= cfg.learning_rate * grads.flat()
    return Checkpoint(current)


def evaluate_accuracy(params: Checkpoint, test: LabeledBatch) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    logits, _ = _forward_pass(params, test.inputs)
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == test.labels))
