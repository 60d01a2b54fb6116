"""Golden sha256 digests of the bundle and merge artifacts.

These pin byte-identical output for a fixed small config: every file that
``save_bundle`` writes for ``tiny_bundle_config(seed=3)``, and ``merged.tmrg``
(plus ``mask.tmrg`` where written) from ``save_merge_result`` for each merge
method on that bundle with the default ``MergeConfig``, and the analysis CSVs
whose values are forward losses or accuracies: the tatr conflict matrix on
both bases (the accuracy basis computed after the loss basis on the same
bundle object, so it reuses whatever the bundle memoized), the total-loss
landscape grid, and the accuracy table of every method from a repeated
``accuracy_table`` call.  A refactor that is meant to keep outputs unchanged
must leave every digest here untouched.

The digests hold per numpy/BLAS build only: floating-point reductions and
matrix products may round differently elsewhere.  They were generated with
numpy 2.4.6 linked against scipy-openblas 0.3.31 (Python 3.11, x86-64).
Regenerate them only for a deliberate output change or a new reference build.
"""

import hashlib

import pytest

from trustmerge.bundle import make_bundle, save_bundle
from trustmerge.evaluation import (
    accuracy_table,
    knowledge_conflict,
    landscape,
    merge_bundle,
    write_accuracy_csv,
    write_conflict_csv,
    write_landscape_csv,
)
from trustmerge.merging import METHODS, MergeConfig, save_merge_result

from conftest import tiny_bundle_config

BUNDLE_DIGESTS = {
    "bundle_config.txt": "94453858d5b2100709aadb65d7f01f740be4c45eea0675c564ba63153b2edf6b",
    "manifest.txt": "9f31556f792e95d01ca5a53c4dcb4c6a3f0038dbb02870e0eb8e9ead6e1bcdd2",
    "task0.tmrg": "cdbb9edef529c8987aed8f537c215d53d3661250632f2e61a87c8b95c1e8efe4",
    "task0_exemplars.csv": "130b660435109c7a1d392fd02400b71fddf0beed270fd4d892663de2beb3c6ab",
    "task0_test.csv": "06b632f1c4b13bb0ab68ad25c5e0f1dae408803169934f5004f52730605edb3e",
    "task0_train.csv": "23852b780e4d90b13ec75dac7616e164623e31c231107d420bba3c19d177cb0f",
    "task1.tmrg": "62b1e676d0fbc130b0d63843503962c9d3188de0299d04e1993938f663170c4a",
    "task1_exemplars.csv": "e4074c9c6924a2f943e25ec8b48e88c4eb16daf7f6bc7a35cd93f1cf31e32cd8",
    "task1_test.csv": "051bd31c1f72ec730593bb122ffc6f491c7c38d36acde5bf9f763bbe40254ee1",
    "task1_train.csv": "14c7c17ee88802d189f51231dd992cef848dba3cc76a1a90742cbc0ef0692500",
    "task2.tmrg": "aff80f2b42588e9070181393f77415a40b46cf2976032becf1211a74f74764ea",
    "task2_exemplars.csv": "44b556e59eeee7e768bdabaf9f0c0127f99aefbb51a0170635a8bbd69f8e6f58",
    "task2_test.csv": "b0118600fea9b2ab9b5953af02e088c7f487a1c9ec2c6cf271985088d0ab76a6",
    "task2_train.csv": "61ce1e51e8fd649308cb1c2dbaae268fd8fe80618e8c475dd0010a6a533cc70e",
    "task3.tmrg": "da4fc58f05bd09f33b29e2e0315c45f033d232136096ba557d3323f77e556f59",
    "task3_exemplars.csv": "bb785bb115c31181176a8371e72dffa17a65cbdd8005230aa42f47425ca9e0a8",
    "task3_test.csv": "1d0758e784371ed209501ac1d5b1a85d1045aa4a157f16a395ea0f0a8d1a60b7",
    "task3_train.csv": "80cc1ac06a7304a3aa756ecb1e2146d5a89934b2393ebce77b64b8fa8b620f6e",
    "theta_pre.tmrg": "d0480057b163f9883db63421a5f3f579679d0202f6c3577f06fef7ce9232ce65",
}

TATR_MASK = "2210f4f90c35c694e54690cc591041937d1a944aa9c5545fe4561782cc520562"
MERGE_DIGESTS = {
    "average": {
        "merged.tmrg": "b7114e9f9393da7fe9088f5fadd7f2292063b3871a2b0aa2f55b8b79114a0387",
    },
    "task_arithmetic": {
        "merged.tmrg": "6ed7fdd94c88abec45a0c635bf18650d726150853c28971bed65b6b32afced45",
    },
    "tatr": {
        "merged.tmrg": "9d46bcc22b2ade1ebc90db63fbd0391b0848a2a7cb6ce33c21bdad490167be70",
        "mask.tmrg": TATR_MASK,
    },
    "ties": {
        "merged.tmrg": "ba46213011a76d77557366b1380c55d949469d944653400d60fd6e519dc1a199",
    },
    "ties_tatr": {
        "merged.tmrg": "99ba065f27476f04477e0b1e7ac36c12bbd50627235abaa4595cf913377075a6",
        "mask.tmrg": TATR_MASK,
    },
    "ada_tatr": {
        "merged.tmrg": "1b8a9e4425e50ee53b345e763281ce8ca16133d1a9665dc141013ac49608e295",
        "mask.tmrg": TATR_MASK,
    },
}

CONFLICT_TATR_LOSS = "715515a490bc9349ce49c9573675fb4bb2422eb95d551b8dbd4c6b0b04790c82"
CONFLICT_TATR_ACCURACY = "f05294c435d0fa897e288eb75211147ef9746f54ce3907159d61a0a5c3b14bdf"
ACCURACY_TABLE = "26803f7207f63706775665e6b2f67f38084200c8990c5a8a003b21c840a823d8"
LANDSCAPE_TOTAL = "dc602c62f368dfa3f87c6435f1442e84197d5b09cd84d0d93077f9a1b0f51bc7"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_bundle():
    return make_bundle(tiny_bundle_config(seed=3))


def test_bundle_files(golden_bundle, tmp_path):
    save_bundle(golden_bundle, tmp_path)
    written = {p.name: _sha256(p) for p in tmp_path.iterdir()}
    assert written == BUNDLE_DIGESTS


def test_merge_methods_cover_all():
    assert set(MERGE_DIGESTS) == set(METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_merge_artifacts(golden_bundle, tmp_path, method):
    save_merge_result(merge_bundle(golden_bundle, MergeConfig(method=method)), tmp_path)
    written = {name: _sha256(tmp_path / name)
               for name in ("merged.tmrg", "mask.tmrg") if (tmp_path / name).exists()}
    assert written == MERGE_DIGESTS[method]


def test_conflict_csv(golden_bundle, tmp_path):
    report = knowledge_conflict(golden_bundle, MergeConfig(method="tatr"), "loss")
    write_conflict_csv(report, tmp_path / "conflict.csv")
    assert _sha256(tmp_path / "conflict.csv") == CONFLICT_TATR_LOSS


def test_conflict_accuracy_basis_after_loss_basis(golden_bundle, tmp_path):
    cfg = MergeConfig(method="tatr")
    for basis, digest in (("loss", CONFLICT_TATR_LOSS), ("accuracy", CONFLICT_TATR_ACCURACY)):
        write_conflict_csv(knowledge_conflict(golden_bundle, cfg, basis), tmp_path / basis)
        assert _sha256(tmp_path / basis) == digest


def test_repeated_accuracy_table_csv(golden_bundle, tmp_path):
    results = [(m, merge_bundle(golden_bundle, MergeConfig(method=m))) for m in METHODS]
    accuracy_table(golden_bundle, results)
    rows = accuracy_table(golden_bundle, results)
    write_accuracy_csv(rows, golden_bundle.num_tasks, tmp_path / "accuracy.csv")
    assert _sha256(tmp_path / "accuracy.csv") == ACCURACY_TABLE


def test_landscape_csv(golden_bundle, tmp_path):
    write_landscape_csv(landscape(golden_bundle), tmp_path / "landscape.csv")
    assert _sha256(tmp_path / "landscape.csv") == LANDSCAPE_TOTAL
