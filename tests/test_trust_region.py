import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trustmerge.errors import ConfigError, IncompatibleShapes
from trustmerge.merging import MergeConfig
from trustmerge.params import Checkpoint

from conftest import PAIR_TERMS, pair_loop_sensitivity, random_checkpoint
from trustmerge.cli import TAU_GRID
from trustmerge.trust_region import (
    VARIANTS,
    Sensitivity,
    build_mask,
    compute_sensitivity,
    per_layer_sensitivity,
    write_per_layer_csv,
)


def ck(values):
    return Checkpoint([("x", np.asarray(values, dtype=np.float64))])


def two_task_setup():
    grads = [ck([1.0, 2.0]), ck([3.0, 4.0])]
    tvs = [ck([1.0, -1.0]), ck([-2.0, 0.5])]
    return grads, tvs


class TestSensitivity:
    def test_standard_hand_value(self):
        grads, tvs = two_task_setup()
        # (j=0,i=1): [1,2]*|[-2,.5]| = [2,1]; (j=1,i=0): [3,4]*|[1,-1]| = [3,4]
        omega = compute_sensitivity(grads, tvs, "standard")
        assert np.array_equal(omega.values["x"], [5.0, 5.0])

    def test_zero_shot_hand_value(self):
        grads, tvs = two_task_setup()
        omega = compute_sensitivity(grads, tvs, "zero_shot")
        assert np.array_equal(omega.values["x"], [4.0, 1.0])

    def test_ntk_hand_value(self):
        grads, tvs = two_task_setup()
        omega = compute_sensitivity(grads, tvs, "ntk")
        assert np.array_equal(omega.values["x"], [6.0, 16.0])

    def test_signed_variants_are_negations(self):
        grads, tvs = two_task_setup()
        pos = compute_sensitivity(grads, tvs, "signed_positive")
        neg = compute_sensitivity(grads, tvs, "signed_negative")
        assert np.array_equal(pos.values["x"], [1.0, -3.0])
        assert np.array_equal(neg.values["x"], [-1.0, 3.0])

    def test_three_task_pair_count(self):
        # with equal inputs every ordered pair contributes the same term,
        # so the result is K(K-1) times a single term
        g = [ck([2.0]) for _ in range(3)]
        tvs = [ck([3.0]) for _ in range(3)]
        omega = compute_sensitivity(g, tvs, "standard")
        assert omega.values["x"][0] == 6 * 6.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_per_tensor_reference(self, variant):
        # the closed form against a per-tensor loop over ordered pairs in
        # ascending (j, i) order: bit for bit on integers, where float64 is
        # exact; on floats within 4K^2 eps (sum|f|)(sum|g|) of each value, the
        # bound of both sums' rounding, and with the same masks
        rng = np.random.default_rng(5)
        eps = np.finfo(np.float64).eps
        draws = {
            "integer": lambda a, k: (rng.integers(-9, 10, (k, *a.shape)).astype(np.float64),
                                     rng.integers(0, 4, (k, *a.shape)).astype(np.float64)),
            "float": lambda a, k: (rng.normal(size=(k, *a.shape)),
                                   np.abs(rng.normal(size=(k, *a.shape)))),
        }
        for k in range(2, 9):
            base = random_checkpoint(rng, include_degenerate=True)
            for kind, draw in draws.items():
                pairs = {name: draw(arr, k) for name, arr in base}  # name -> (deltas, grads)
                tvs = [Checkpoint((n, d[t]) for n, (d, _) in pairs.items()) for t in range(k)]
                grads = [Checkpoint((n, g[t]) for n, (_, g) in pairs.items()) for t in range(k)]
                omega = compute_sensitivity(grads, tvs, variant).values.flat()
                expected = Checkpoint((n, pair_loop_sensitivity(g, d, variant))
                                      for n, (d, g) in pairs.items()).flat()
                if kind == "integer":
                    assert omega.tobytes() == expected.tobytes(), k
                    continue
                scale = Checkpoint((n, sum(np.abs(PAIR_TERMS[variant](g, d, j, i))
                                           for j in range(k) for i in range(k)))
                                   for n, (d, g) in pairs.items()).flat()
                assert np.all(np.abs(omega - expected) <= 4 * k * k * eps * scale), k
                for tau in TAU_GRID:
                    assert build_mask(omega, tau, base).mask == build_mask(expected, tau, base).mask, (k, tau)

    def test_too_few_tasks(self):
        grads, tvs = two_task_setup()
        with pytest.raises(IncompatibleShapes, match="need >= 2 tasks"):
            compute_sensitivity(grads[:1], tvs[:1])
        with pytest.raises(IncompatibleShapes):
            compute_sensitivity([], [])

    def test_unknown_variant(self):
        grads, tvs = two_task_setup()
        with pytest.raises(ConfigError, match="unknown sensitivity variant 'fisher'"):
            compute_sensitivity(grads, tvs, "fisher")

    def test_structure_mismatch(self):
        grads, tvs = two_task_setup()
        bad = [ck([1.0]), ck([2.0])]
        with pytest.raises(IncompatibleShapes):
            compute_sensitivity(grads, bad)


def select(values, tau):
    """(epsilon, excluded flat indices) of the mask build_mask makes from ``values``."""
    tr = build_mask(np.asarray(values, dtype=np.float64), tau, ck(values))
    excluded = np.flatnonzero(tr.mask.flat() == 0.0)
    assert tr.excluded_count == excluded.size
    return tr.epsilon, excluded


class TestProportionSelection:
    def test_hand_example_with_ties(self):
        eps, excluded = select([5.0, 1.0, 5.0, 3.0], 0.5)
        assert eps == 5.0
        assert np.array_equal(excluded, [0, 2])

    def test_single_exclusion_takes_lowest_index_on_tie(self):
        eps, excluded = select([5.0, 1.0, 5.0, 3.0], 0.25)
        assert eps == 5.0
        assert np.array_equal(excluded, [0])

    def test_tau_zero(self):
        eps, excluded = select([1.0, 2.0], 0.0)
        assert eps == float("inf")
        assert excluded.size == 0

    def test_tau_one_excludes_everything(self):
        eps, excluded = select([1.0, 2.0, 3.0], 1.0)
        assert eps == 1.0
        assert np.array_equal(excluded, [0, 1, 2])

    def test_tau_out_of_range(self):
        for tau in (-0.1, 1.1):
            with pytest.raises(ConfigError, match=r"tau must lie in \[0, 1\]"):
                select([1.0], tau)

    def test_tau_out_of_range_is_a_config_error(self):
        # a range error exits 2 like every other bad setting, with MergeConfig's message
        with pytest.raises(ConfigError) as raised:
            select([1.0], 2.0)
        with pytest.raises(ConfigError) as config:
            MergeConfig(tau=2.0)
        assert str(raised.value) == str(config.value)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_exact_cardinality(self, seed, tau):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        _, excluded = select(rng.normal(size=n), tau)
        assert excluded.size == int(np.ceil(tau * n))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=40)
        base = build_mask(values, 0.1, ck(values)).mask
        for c in (1e-6, 1.0, 1e6):
            assert build_mask(c * values, 0.1, ck(values)).mask == base

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nesting_in_tau(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=60)
        prev = set()
        for tau in (0.0, 0.1, 0.3, 0.7, 1.0):
            _, excluded = select(values, tau)
            current = set(excluded.tolist())
            assert prev <= current
            prev = current


class TestMask:
    def test_zero_exactly_on_excluded(self):
        tr = build_mask(np.array([5.0, 1.0, 5.0, 3.0]), 0.5, ck([0.0] * 4))
        assert np.array_equal(tr.mask["x"], [0.0, 1.0, 0.0, 1.0])
        assert tr.excluded_count == 2
        assert tr.epsilon == 5.0
        assert tr.tau == 0.5

    def test_excluded_values_not_below_kept(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=100)
        tr = build_mask(values, 0.2, ck(values))
        kept = values[tr.mask["x"] == 1.0]
        dropped = values[tr.mask["x"] == 0.0]
        assert dropped.min() >= kept.max() or np.isclose(dropped.min(), kept.max())


class TestPerLayer:
    def test_rows_in_checkpoint_order(self):
        omega = Sensitivity(
            Checkpoint([("a", np.array([1.0, 3.0])), ("b", np.array([5.0]))]), "standard"
        )
        rows = per_layer_sensitivity(omega)
        assert rows == [("a", 2.0), ("b", 5.0)]

    def test_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        write_per_layer_csv([("a", 2.0), ("b", 5.0)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "layer,mean_sensitivity"
        assert lines[1] == "a,2.0"
        assert len(lines) == 3
