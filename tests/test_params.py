import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmerge.errors import ConfigError, IncompatibleShapes, MalformedArtifact, NonFiniteValues
from trustmerge.params import (
    Checkpoint,
    ew_abs,
    ew_combine,
    ew_dot,
    ew_scale,
    load_checkpoint,
    save_checkpoint,
    stack,
    sum_in_order,
)

from conftest import BAD_TMRG, random_checkpoint, tmrg_bytes


def ck(**named):
    return Checkpoint((n, np.asarray(v, dtype=np.float64)) for n, v in named.items())


class TestCheckpoint:
    def test_preserves_insertion_order(self):
        c = ck(b=[1.0], a=[2.0])
        assert c.names == ["b", "a"]

    def test_total_dims(self):
        c = ck(w=[[1.0, 2.0], [3.0, 4.0]], b=[5.0])
        assert c.total_dims == 5

    def test_duplicate_name_rejected(self):
        with pytest.raises(IncompatibleShapes, match="duplicate tensor name 'x'"):
            Checkpoint([("x", np.ones(2)), ("x", np.ones(2))])

    def test_empty_name_rejected(self):
        with pytest.raises(IncompatibleShapes, match="tensor name must be non-empty"):
            Checkpoint([("", np.ones(2))])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteValues):
            ck(x=[1.0, np.inf])
        with pytest.raises(NonFiniteValues):
            ck(x=[np.nan])

    def test_tensors_read_only(self):
        c = ck(x=[1.0, 2.0])
        with pytest.raises(ValueError):
            c["x"][0] = 9.0

    def test_equality_checks_values_and_order(self):
        a = ck(x=[1.0], y=[2.0])
        assert a == ck(x=[1.0], y=[2.0])
        assert a != ck(y=[2.0], x=[1.0])
        assert a != ck(x=[1.5], y=[2.0])

    def test_compatible_requires_same_names_and_shapes(self):
        a = ck(x=[1.0, 2.0])
        assert a.compatible(ck(x=[5.0, 6.0]))
        assert not a.compatible(ck(x=[[5.0, 6.0]]))
        assert not a.compatible(ck(y=[5.0, 6.0]))

    def test_flat_concatenates_in_order(self):
        c = ck(w=[[1.0, 2.0], [3.0, 4.0]], b=[5.0])
        assert np.array_equal(c.flat(), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_flat_is_the_read_only_vector(self):
        c = ck(w=[[1.0, 2.0]], b=[3.0])
        assert c.flat() is c.flat()
        with pytest.raises(ValueError):
            c.flat()[0] = 9.0

    def test_from_flat_copies_its_input(self):
        c = ck(x=[1.0, 2.0])
        source = np.array([3.0, 4.0])
        rebuilt = Checkpoint.from_flat(c, source)
        source[0] = 9.0
        assert np.array_equal(rebuilt["x"], [3.0, 4.0])

    def test_from_flat_round_trip(self):
        rng = np.random.default_rng(0)
        c = random_checkpoint(rng)
        assert Checkpoint.from_flat(c, c.flat()) == c

    def test_from_flat_wrong_size(self):
        c = ck(x=[1.0, 2.0])
        with pytest.raises(IncompatibleShapes):
            Checkpoint.from_flat(c, np.ones(3))


class TestElementwiseOps:
    def test_add_sub_hadamard_hand_values(self):
        a = ck(x=[1.0, 2.0])
        b = ck(x=[3.0, 5.0])
        assert np.array_equal(ew_combine(a, b, "add")["x"], [4.0, 7.0])
        assert np.array_equal(ew_combine(a, b, "sub")["x"], [-2.0, -3.0])
        assert np.array_equal(ew_combine(a, b, "hadamard")["x"], [3.0, 10.0])

    def test_unknown_op(self):
        a = ck(x=[1.0])
        with pytest.raises(ConfigError, match="unknown op 'divide'"):
            ew_combine(a, a, "divide")

    def test_incompatible_operands(self):
        with pytest.raises(IncompatibleShapes):
            ew_combine(ck(x=[1.0]), ck(y=[1.0]), "add")

    def test_scale_and_abs(self):
        a = ck(x=[-2.0, 3.0])
        assert np.array_equal(ew_scale(a, -0.5)["x"], [1.0, -1.5])
        assert np.array_equal(ew_abs(a)["x"], [2.0, 3.0])

    def test_scale_rejects_non_finite(self):
        with pytest.raises(NonFiniteValues, match="non-finite scalar nan"):
            ew_scale(ck(x=[1.0]), float("nan"))

    def test_dot_hand_value(self):
        assert ew_dot(ck(x=[1.0, 2.0]), ck(x=[3.0, 5.0])) == 13.0

    def test_dot_spans_all_tensors(self):
        a = ck(x=[1.0], y=[2.0])
        b = ck(x=[10.0], y=[100.0])
        assert ew_dot(a, b) == 210.0

    def test_stack(self):
        a, b = ck(x=[1.0, 2.0], y=[3.0]), ck(x=[4.0, 5.0], y=[6.0])
        rows = stack([b, a], a)
        assert np.array_equal(rows, [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
        assert rows.dtype == np.float64 and rows.flags.c_contiguous
        with pytest.raises(IncompatibleShapes):
            stack([a, ck(x=[1.0, 2.0], z=[3.0])], a)
        with pytest.raises(IncompatibleShapes, match="nothing to stack"):
            stack([], a)

    def test_sum_in_order(self):
        parts = [ck(x=[1.0]), ck(x=[2.0]), ck(x=[4.0])]
        assert sum_in_order(parts)["x"][0] == 7.0
        with pytest.raises(IncompatibleShapes, match="nothing to sum"):
            sum_in_order([])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_add_commutes_and_sub_inverts(self, seed):
        rng = np.random.default_rng(seed)
        a = random_checkpoint(rng)
        b = Checkpoint((n, rng.normal(size=v.shape)) for n, v in a)
        assert ew_combine(a, b, "add") == ew_combine(b, a, "add")
        round_trip = ew_combine(ew_combine(a, b, "add"), b, "sub")
        for n, v in a:
            np.testing.assert_allclose(round_trip[n], v, rtol=0, atol=1e-12)


class TestTmrgFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        c = random_checkpoint(rng, include_degenerate=True)
        path = tmp_path / "c.tmrg"
        save_checkpoint(c, path)
        loaded = load_checkpoint(path)
        assert loaded == c
        assert loaded.names == c.names
        for n, a in c:
            assert loaded[n].shape == a.shape
            assert loaded[n].tobytes() == a.tobytes()

    def test_double_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        c = random_checkpoint(rng, include_degenerate=True)
        p1, p2 = tmp_path / "a.tmrg", tmp_path / "b.tmrg"
        save_checkpoint(c, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tmrg"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(MalformedArtifact, match="bad.tmrg: bad magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.tmrg"
        path.write_bytes(b"TMRG" + struct.pack("<II", 9, 0))
        with pytest.raises(MalformedArtifact, match="v9.tmrg: unsupported TMRG version 9"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.tmrg"
        save_checkpoint(ck(x=[1.0, 2.0, 3.0]), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(MalformedArtifact, match="t.tmrg: truncated"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.tmrg"
        path.write_bytes(b"TMRG\x01\x00")
        with pytest.raises(MalformedArtifact, match="h.tmrg: truncated"):
            load_checkpoint(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.tmrg"
        name = b"x"
        path.write_bytes(
            b"TMRG" + struct.pack("<II", 1, 1)
            + struct.pack("<H", len(name)) + name
            + struct.pack("<B", 1) + struct.pack("<I", 2)
            + struct.pack("<2d", 1.0, float("nan"))
        )
        with pytest.raises(MalformedArtifact, match="nan.tmrg: NonFiniteValues: x"):
            load_checkpoint(path)

    def test_hand_built_file_loads(self, tmp_path):
        path = tmp_path / "ok.tmrg"
        path.write_bytes(tmrg_bytes())
        assert load_checkpoint(path) == ck(x=[1.0, 2.0])

    @pytest.mark.parametrize("case", sorted(BAD_TMRG))
    def test_corrupt_file_raises_toolkit_error(self, tmp_path, case):
        data, detail = BAD_TMRG[case]
        path = tmp_path / "bad.tmrg"
        path.write_bytes(data)
        with pytest.raises(MalformedArtifact, match=re.escape(detail)):
            load_checkpoint(path)

    def test_unicode_names(self, tmp_path):
        c = Checkpoint([("émbedding.weight", np.array([1.5, -2.5]))])
        path = tmp_path / "u.tmrg"
        save_checkpoint(c, path)
        assert load_checkpoint(path) == c
