import hashlib
import struct

import numpy as np
import pytest

from trustmerge.bundle import BundleConfig, make_bundle
from trustmerge.errors import MalformedArtifact, TruncatedFile
from trustmerge.mlp import TrainConfig, backward
from trustmerge.params import Checkpoint, ew_abs, ew_scale, sum_in_order


def random_checkpoint(rng, include_degenerate=False):
    """Random small checkpoint; optionally with empty and scalar tensors."""
    tensors = [
        ("layer0.weight", rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))),
        ("layer0.bias", rng.normal(size=rng.integers(1, 5))),
        ("layer1.weight", rng.normal(size=(3,))),
    ]
    if include_degenerate:
        tensors.append(("scalar", np.float64(rng.normal())))
        tensors.append(("empty", np.empty((0,), dtype=np.float64)))
        tensors.append(("empty2d", np.empty((3, 0), dtype=np.float64)))
    return Checkpoint(tensors)


def per_example_reference(params, batch):
    """``estimate_abs_gradient`` as a loop: one single-row backward per
    example, summed in ascending example order, then scaled by 1/n."""
    return ew_scale(sum_in_order([
        ew_abs(backward(params, batch.take(np.array([i])))[1]) for i in range(len(batch))
    ]), 1.0 / len(batch))


def rehash(bundle, names) -> None:
    """Rewrite the manifest hashes of the files ``names`` to match their
    bytes; every other line stays as it is."""
    manifest = bundle / "manifest.txt"
    lines = []
    for line in manifest.read_text("utf-8").splitlines():
        digest, sep, name = line.partition("  ")
        if sep and name in names:
            digest = hashlib.sha256((bundle / name).read_bytes()).hexdigest()
        lines.append(f"{digest}{sep}{name}\n")
    manifest.write_text("".join(lines), "utf-8")


def tmrg_bytes(name=b"x", shape=(2,), payload=struct.pack("<2d", 1.0, 2.0)) -> bytes:
    """A one-tensor TMRG file written field by field, so any field can be corrupt."""
    return (
        b"TMRG" + struct.pack("<II", 1, 1)
        + struct.pack("<H", len(name)) + name
        + struct.pack("<B", len(shape)) + b"".join(struct.pack("<I", d) for d in shape)
        + payload
    )


# corrupt TMRG files and the error each must raise
BAD_TMRG = {
    "numel-wraps-int64": (tmrg_bytes(shape=(2**31, 2**31, 2**31)), TruncatedFile),
    "16-GB-payload": (tmrg_bytes(shape=(2**31,)), TruncatedFile),
    "non-utf8-name": (tmrg_bytes(name=b"\xff\xfe"), MalformedArtifact),
    "trailing-bytes": (tmrg_bytes() + b"\x00", MalformedArtifact),
    "65-dims": (tmrg_bytes(shape=(1,) * 65, payload=struct.pack("<d", 1.0)), MalformedArtifact),
    "empty-but-too-big": (tmrg_bytes(shape=(0,) + (2**32 - 1,) * 3, payload=b""), MalformedArtifact),
}


def tiny_bundle_config(seed=3):
    """Small, fast bundle for integration tests (seconds, not minutes)."""
    return BundleConfig(
        seed=seed,
        hidden=(8,),
        samples_train=96,
        samples_test=48,
        exemplar_count=12,
        pretrain=TrainConfig(epochs=6),
        finetune=TrainConfig(epochs=10),
    )


@pytest.fixture(scope="session")
def small_bundle():
    return make_bundle(tiny_bundle_config())


@pytest.fixture(scope="session")
def bundle_cache():
    """Shared cache of full-size bundles keyed by seed."""
    cache = {}

    def get(seed: int):
        if seed not in cache:
            cache[seed] = make_bundle(BundleConfig(seed=seed))
        return cache[seed]

    return get
