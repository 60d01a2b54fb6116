"""Named parameter tensors, element-wise arithmetic, and the TMRG binary format.

A :class:`Checkpoint` is one contiguous, read-only, finite float64 vector plus
a layout, the ``(name, shape)`` of each named tensor in order; ``flat()``
returns that vector itself, not a copy.  Weights, task vectors, gradient
estimates, sensitivities and {0,1} masks are all checkpoints.  The merges
work on :func:`stack`, which puts K compatible checkpoints into the rows of
one (K, N) array, and add rows in ascending order with :func:`sum_rows`.
"""

from __future__ import annotations

import functools
import math
import struct
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, IncompatibleShapes, MalformedArtifact, NonFiniteValues

_MAGIC = b"TMRG"
_VERSION = 1


@functools.lru_cache(maxsize=64)
def _slices(layout: tuple) -> tuple:
    """(name, start, stop, shape) of each tensor of ``layout`` in the flat vector."""
    out, pos = [], 0
    for name, shape in layout:
        size = math.prod(shape)
        out.append((name, pos, pos + size, shape))
        pos += size
    return tuple(out)


def _check_finite(layout: tuple, flats: np.ndarray) -> None:
    """A NonFiniteValues naming the first tensor of ``layout`` with a value that
    is not finite in the first such row of ``flats``, flat vectors (..., N)
    laid out as ``layout``: the error a Checkpoint of each row, built in
    order, would raise."""
    finite = np.isfinite(flats)
    if not finite.all():
        ends = [stop for _, _, stop, _ in _slices(layout)]
        first = np.argmin(finite.reshape(-1)) % flats.shape[-1]
        raise NonFiniteValues(layout[np.searchsorted(ends, first, "right")][0])


class Checkpoint:
    """Ordered, immutable map of named float64 tensors over one flat vector."""

    __slots__ = ("_tensors", "_layout", "_flat")

    def __init__(self, tensors: Iterable[tuple[str, np.ndarray]]):
        """Copy ``tensors`` into the checkpoint's own vector; the caller's
        arrays are neither kept nor frozen."""
        seen: set[str] = set()
        layout, arrays = [], []
        for name, arr in tensors:
            if not name:
                raise IncompatibleShapes("tensor name must be non-empty")
            if name in seen:
                raise IncompatibleShapes(f"duplicate tensor name {name!r}")
            seen.add(name)
            arr = np.asarray(arr, dtype=np.float64)
            layout.append((name, arr.shape))
            arrays.append(arr)
        flat = np.concatenate(arrays, axis=None) if arrays else np.empty(0)
        self._adopt(tuple(layout), flat)

    def _adopt(self, layout: tuple, flat: np.ndarray) -> None:
        """Own the 1-D float64 ``flat``: reject non-finite entries (naming the
        first bad tensor) and lock it.  Its tensors are views of it, made on
        first access, because gradients and element-wise results are mostly
        read through ``flat()`` alone."""
        _check_finite(layout, flat)
        flat.flags.writeable = False
        self._layout = layout
        self._flat = flat
        self._tensors = None

    @classmethod
    def _over(cls, layout: tuple, flat: np.ndarray) -> "Checkpoint":
        """Checkpoint owning the 1-D float64 ``flat``; its tensors are views of it."""
        ckpt = cls.__new__(cls)
        ckpt._adopt(layout, flat)
        return ckpt

    @property
    def tensors(self) -> dict[str, np.ndarray]:
        if self._tensors is None:
            self._tensors = {
                name: self._flat[a:b].reshape(shape) for name, a, b, shape in _slices(self._layout)
            }
        return self._tensors

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self._layout]

    @property
    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of each tensor, in order."""
        return self._layout

    @property
    def total_dims(self) -> int:
        return self._flat.size

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self.tensors.items())

    def __len__(self) -> int:
        return len(self._layout)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return self.compatible(other) and np.array_equal(self._flat, other._flat)

    def __repr__(self) -> str:
        return f"Checkpoint({len(self)} tensors, N={self.total_dims})"

    def compatible(self, other: "Checkpoint") -> bool:
        return self._layout == other._layout

    def flat(self) -> np.ndarray:
        """All tensors concatenated in checkpoint order (the read-only vector itself)."""
        return self._flat

    @classmethod
    def from_flat(cls, reference: "Checkpoint", flat: np.ndarray) -> "Checkpoint":
        """Checkpoint shaped like ``reference`` over a copy of a flat vector."""
        flat = np.array(flat, dtype=np.float64).reshape(-1)
        if flat.size != reference.total_dims:
            raise IncompatibleShapes(
                f"flat vector has {flat.size} entries, expected {reference.total_dims}"
            )
        return cls._over(reference._layout, flat)


_OPS = {"add": np.add, "sub": np.subtract}


def _check_compat(a: Checkpoint, b: Checkpoint) -> None:
    if not a.compatible(b):
        raise IncompatibleShapes(
            f"name/shape sequences differ: {a.names} vs {b.names}"
        )


def ew_combine(a: Checkpoint, b: Checkpoint, op: str) -> Checkpoint:
    """Element-wise add / sub over two compatible checkpoints."""
    _check_compat(a, b)
    if op not in _OPS:
        raise ConfigError(f"unknown op {op!r}")
    return Checkpoint._over(a._layout, _OPS[op](a._flat, b._flat))


def ew_scale(a: Checkpoint, c: float) -> Checkpoint:
    if not math.isfinite(c):
        raise NonFiniteValues(f"non-finite scalar {c!r}")
    return Checkpoint._over(a._layout, c * a._flat)


def ew_abs(a: Checkpoint) -> Checkpoint:
    return Checkpoint._over(a._layout, np.abs(a._flat))


def _tensor_dot(a: np.ndarray, b: np.ndarray, layout: tuple) -> float:
    """Inner product of two flat vectors laid out as ``layout``, accumulated in
    fixed tensor / flat-index order (per-tensor partial sums, which round
    differently from one whole-vector dot or a matrix-vector product)."""
    total = 0.0
    for _, start, stop, _ in _slices(layout):
        total += float(np.dot(a[start:stop], b[start:stop]))
    return total


def ew_dot(a: Checkpoint, b: Checkpoint) -> float:
    """Inner product accumulated in fixed tensor order (see :func:`_tensor_dot`)."""
    _check_compat(a, b)
    return _tensor_dot(a._flat, b._flat, a._layout)


def stack(maps: list[Checkpoint], like: Checkpoint) -> np.ndarray:
    """The flat vectors of ``maps``, in list order, as the rows of one
    C-contiguous (K, N) float64 array; each map must be laid out like
    ``like``."""
    if not maps:
        raise IncompatibleShapes("nothing to stack")
    for m in maps:
        _check_compat(like, m)
    return np.array([m._flat for m in maps])


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (K, N) array, added one at a time in ascending
    row order.  ``rows.sum(axis=0)`` may add pairwise (it does for N == 1 and
    K >= 8), which rounds differently."""
    acc = rows[0].copy()
    for row in rows[1:]:
        acc += row
    return acc


def sum_in_order(maps: Iterable[Checkpoint]) -> Checkpoint:
    """Sum checkpoint-shaped maps in the given order (ascending task index)."""
    maps = list(maps)
    if not maps:
        raise IncompatibleShapes("nothing to sum")
    return Checkpoint._over(maps[0]._layout, sum_rows(stack(maps, maps[0])))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` in the TMRG binary format (little-endian, bit-exact)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(ckpt)))
        for name, arr in ckpt:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a TMRG file back into a checkpoint, preserving tensor order."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise MalformedArtifact(f"{path}: bad magic, not a TMRG file")
        buf = memoryview(fh.read())  # slices of a view share its bytes
    pos = 0

    def take(n: int) -> memoryview:
        # every length is checked against the bytes left, so a corrupt size never builds an array
        nonlocal pos
        if n > len(buf) - pos:
            raise MalformedArtifact(f"{path}: truncated: wanted {n} bytes, {len(buf) - pos} left")
        pos += n
        return buf[pos - n:pos]

    version, count = struct.unpack("<II", take(8))
    if version != _VERSION:
        raise MalformedArtifact(f"{path}: unsupported TMRG version {version}")
    tensors: list[tuple[str, np.ndarray]] = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedArtifact(f"{path}: tensor name is not UTF-8") from exc
        (ndim,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            tensors.append((name, data.reshape(shape)))
        except ValueError as exc:  # over 64 dims, or a size-0 shape numpy cannot hold
            raise MalformedArtifact(f"{path}: shape {shape}: {exc}") from exc
    if pos != len(buf):
        raise MalformedArtifact(f"{path}: trailing bytes after the last tensor")
    try:
        return Checkpoint(tensors)
    except (IncompatibleShapes, NonFiniteValues) as exc:  # a repeated name, NaN or inf
        raise MalformedArtifact(f"{path}: {exc}") from exc
