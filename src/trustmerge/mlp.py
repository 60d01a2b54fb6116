"""Minimal MLP with hand-written backprop, plus SGD training and evaluation.

Parameters live in a :class:`~trustmerge.params.Checkpoint` under the naming
convention ``layer{i}.weight`` / ``layer{i}.bias`` so the network maps 1:1
onto the checkpoint machinery.  Hidden activation is tanh (smooth, so
finite-difference gradient checks are clean); the output is softmax.
"""

from __future__ import annotations

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
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeMismatch("inputs must be 2-D and labels 1-D")
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeMismatch("inputs and labels disagree on sample count")
        if not np.all(np.isfinite(self.inputs)):
            raise ShapeMismatch("non-finite input rows")
        # frozen like Checkpoint tensors, so estimates memoized on a bundle stay valid
        self.inputs.flags.writeable = False
        self.labels.flags.writeable = False

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "LabeledBatch":
        return LabeledBatch(self.inputs[idx], self.labels[idx])


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate < 0:
            raise ValueError("epochs/batch_size must be positive, lr nonnegative")


def init_params(spec: MlpSpec, seed: int) -> Checkpoint:
    """Seeded uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors = []
    for i, (fan_in, fan_out) in enumerate(zip(spec.layer_sizes, spec.layer_sizes[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        tensors.append((f"layer{i}.weight", rng.uniform(-bound, bound, (fan_out, fan_in))))
        tensors.append((f"layer{i}.bias", np.zeros(fan_out)))
    return Checkpoint(tensors)


def _layers(params: Checkpoint) -> list[tuple[np.ndarray, np.ndarray]]:
    pairs = []
    i = 0
    while f"layer{i}.weight" in params.tensors:
        pairs.append((params[f"layer{i}.weight"], params[f"layer{i}.bias"]))
        i += 1
    if 2 * len(pairs) != len(params):
        raise ShapeMismatch("checkpoint does not follow the layer{i} naming convention")
    return pairs


def _forward_pass(params: Checkpoint, x: np.ndarray):
    """Returns (logits, activations) with activations[i] the input to layer i."""
    layers = _layers(params)
    acts = [x]
    h = x
    for li, (w, b) in enumerate(layers):
        if h.shape[1] != w.shape[1]:
            raise ShapeMismatch(f"layer{li} expects {w.shape[1]} features, got {h.shape[1]}")
        z = h @ w.T + b
        if li < len(layers) - 1:
            h = np.tanh(z)
            acts.append(h)
        else:
            return z, acts
    raise AssertionError("unreachable")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(params: Checkpoint, batch: LabeledBatch) -> tuple[np.ndarray, float]:
    """Logits and mean cross-entropy loss over the batch."""
    logits, _ = _forward_pass(params, batch.inputs)
    if np.any(batch.labels >= logits.shape[1]) or np.any(batch.labels < 0):
        raise ShapeMismatch("label index out of range")
    logp = _log_softmax(logits)
    loss = -float(np.mean(logp[np.arange(len(batch)), batch.labels]))
    return logits, loss


def _backprop(params: Checkpoint, acts: list[np.ndarray], dlogits: np.ndarray) -> Checkpoint:
    """Propagate d(loss)/d(logits) back to parameter gradients."""
    layers = _layers(params)
    grads: dict[str, np.ndarray] = {}
    dz = dlogits
    for li in range(len(layers) - 1, -1, -1):
        w, _ = layers[li]
        h_in = acts[li]
        grads[f"layer{li}.weight"] = dz.T @ h_in
        grads[f"layer{li}.bias"] = dz.sum(axis=0)
        if li > 0:
            dh = dz @ w
            dz = dh * (1.0 - acts[li] ** 2)  # tanh'
    return Checkpoint((n, grads[n]) for n in params.names)


def backward(params: Checkpoint, batch: LabeledBatch) -> tuple[float, Checkpoint]:
    """Mean cross-entropy loss and its analytic gradient w.r.t. all parameters."""
    logits, acts = _forward_pass(params, batch.inputs)
    if np.any(batch.labels >= logits.shape[1]) or np.any(batch.labels < 0):
        raise ShapeMismatch("label index out of range")
    logp = _log_softmax(logits)
    n = len(batch)
    loss = -float(np.mean(logp[np.arange(n), batch.labels]))
    probs = np.exp(logp)
    dlogits = probs.copy()
    dlogits[np.arange(n), batch.labels] -= 1.0
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
    """Plain SGD over seeded shuffled minibatches; deterministic for a fixed seed."""
    rng = np.random.default_rng(cfg.seed)
    current = {n: a.copy() for n, a in params}
    for _ in range(cfg.epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            snapshot = Checkpoint(current.items())
            _, grads = backward(snapshot, data.take(idx))
            for n in current:
                current[n] = current[n] - cfg.learning_rate * grads[n]
    return Checkpoint(current.items())


def evaluate_accuracy(params: Checkpoint, test: LabeledBatch) -> float:
    """Argmax accuracy; argmax ties break toward the lowest class index."""
    logits, _ = _forward_pass(params, test.inputs)
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == test.labels))
