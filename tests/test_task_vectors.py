import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmerge.errors import ConfigError, IncompatibleShapes
from trustmerge.params import Checkpoint, ew_combine, sum_in_order
from trustmerge.task_vectors import compute_task_vector, decompose, percentile_zero_tol

from conftest import random_checkpoint


def ck(values):
    return Checkpoint([("x", np.asarray(values, dtype=np.float64))])


class TestTaskVector:
    def test_hand_value(self):
        pre = ck([1.0, 2.0])
        tuned = ck([1.5, 0.5])
        tv = compute_task_vector(tuned, pre)
        assert np.array_equal(tv["x"], [0.5, -1.5])

    def test_incompatible(self):
        with pytest.raises(IncompatibleShapes):
            compute_task_vector(ck([1.0]), ck([1.0, 2.0]))

    def test_adding_back_recovers_tuned(self):
        rng = np.random.default_rng(0)
        pre = random_checkpoint(rng)
        tuned = Checkpoint((n, v + rng.normal(size=v.shape)) for n, v in pre)
        tv = compute_task_vector(tuned, pre)
        assert ew_combine(pre, tv, "add") == tuned


class TestDecompose:
    def test_hand_example(self):
        delta = ck([2.0, 3.0, 0.5, -1.0])
        grad = ck([1.0, -1.0, 0.0, 2.0])
        dec = decompose(delta, grad)
        assert np.array_equal(dec.positive["x"], [2.0, 0.0, 0.0, 0.0])
        assert np.array_equal(dec.negative["x"], [0.0, 3.0, 0.0, -1.0])
        assert np.array_equal(dec.orthogonal["x"], [0.0, 0.0, 0.5, 0.0])

    def test_tolerance_grows_orthogonal_set(self):
        delta = ck([1.0, 1.0, 1.0])
        grad = ck([0.1, -0.5, 2.0])
        dec = decompose(delta, grad, zero_tol=0.5)
        assert np.array_equal(dec.orthogonal["x"], [1.0, 1.0, 0.0])
        assert np.array_equal(dec.positive["x"], [0.0, 0.0, 1.0])

    def test_negative_tolerance(self):
        delta = ck([1.0])
        for tol in (-1e-9, float("nan")):  # NaN compares false to any bound
            with pytest.raises(ConfigError, match="zero_tol must be >= 0"):
                decompose(delta, ck([1.0]), zero_tol=tol)

    def test_incompatible_gradient(self):
        delta = ck([1.0])
        with pytest.raises(IncompatibleShapes):
            decompose(delta, ck([1.0, 2.0]))

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_partition_is_exact_and_disjoint(self, seed, tol):
        rng = np.random.default_rng(seed)
        base = random_checkpoint(rng)
        delta = base
        grad = Checkpoint((n, rng.normal(size=v.shape)) for n, v in base)
        dec = decompose(delta, grad, zero_tol=tol)
        # the three parts recombine to the delta bitwise
        assert sum_in_order([dec.orthogonal, dec.positive, dec.negative]) == base
        # supports are pairwise disjoint
        for n, v in base:
            supports = [
                dec.orthogonal[n] != 0.0,
                dec.positive[n] != 0.0,
                dec.negative[n] != 0.0,
            ]
            assert not np.any(supports[0] & supports[1])
            assert not np.any(supports[0] & supports[2])
            assert not np.any(supports[1] & supports[2])


class TestPercentileTol:
    def test_hand_value(self):
        delta = ck([1.0, 2.0, 3.0, 4.0])
        grad = ck([4.0, 0.5, 1.0, 0.25])
        # |products| = [4, 1, 3, 1]; sorted [1, 1, 3, 4]
        assert percentile_zero_tol(delta, grad, 0.5) == 1.0
        assert percentile_zero_tol(delta, grad, 0.75) == 3.0
        assert percentile_zero_tol(delta, grad, 1.0) == 4.0

    def test_zero_fraction(self):
        delta = ck([1.0, 2.0])
        assert percentile_zero_tol(delta, ck([1.0, 1.0]), 0.0) == 0.0

    def test_out_of_range(self):
        delta = ck([1.0])
        with pytest.raises(ValueError):
            percentile_zero_tol(delta, ck([1.0]), 1.5)

    def test_fraction_lands_in_orthogonal_set(self):
        rng = np.random.default_rng(1)
        base = random_checkpoint(rng)
        delta = base
        grad = Checkpoint((n, rng.normal(size=v.shape)) for n, v in base)
        tol = percentile_zero_tol(delta, grad, 0.25)
        dec = decompose(delta, grad, tol)
        n_total = base.total_dims
        n_orth = sum(int(np.count_nonzero(np.abs(grad[n] * base[n]) <= tol)) for n, _ in base)
        assert n_orth >= int(np.ceil(0.25 * n_total))
        assert dec.zero_tol == tol
