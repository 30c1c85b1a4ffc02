import numpy as np
import pytest

from ordersafe.errors import ContractViolationError
from ordersafe.geometry import ConeSpec, Metric, project_cone
from ordersafe.isotonic import WeightedSeries, pava, simple_order_consistency

from conftest import av, level_sets, minmax_project


def series(values, weights=None):
    return WeightedSeries(np.asarray(values, dtype=float), weights)


class TestWeightedSeries:
    @pytest.mark.parametrize("weights", [[1.0, np.inf], [np.nan, 1.0], [1.0, 0.0], [-1.0, 1.0]],
                             ids=["inf", "nan", "zero", "negative"])
    def test_weights_must_be_finite_and_positive(self, weights):
        """An infinite weight used to pass and give a NaN fit with a RuntimeWarning."""
        with pytest.raises(ContractViolationError, match="weights must be finite"):
            series([0.0, 1.0], weights)

    def test_values_must_be_finite(self):
        with pytest.raises(ContractViolationError, match="values must be finite"):
            series([0.0, np.inf])


class TestAv:
    """The block average of the partition oracle (conftest.av)."""

    def test_plain_mean(self):
        assert av(series([1, 2, 3]), 0, 2) == 2.0

    def test_partial_range(self):
        assert av(series([0, 2, 1]), 1, 2) == 1.5

    def test_weighted_by_hand(self):
        # (3*4 + 1*2) / 4
        assert av(series([4, 2], weights=[3, 1]), 0, 1) == 3.5


class TestPava:
    def test_monotone_input_unchanged(self):
        fit = pava(series([1, 2, 3]))
        np.testing.assert_allclose(fit.fitted, [1, 2, 3])
        assert level_sets(fit.fitted) == ((0, 1), (1, 2), (2, 3))
        assert fit.objective == 0.0

    def test_two_point_pool(self):
        """Brute-force oracle: minimize (2-a)^2 + (1-b)^2 over a <= b."""
        fit = pava(series([2, 1]))
        np.testing.assert_allclose(fit.fitted, [1.5, 1.5])
        grid = np.linspace(0, 3, 301)
        best = min(
            (2 - a) ** 2 + (1 - b) ** 2 for a in grid for b in grid if a <= b
        )
        assert fit.objective <= best + 1e-9

    def test_three_point_example(self):
        fit = pava(series([0, 2, 1]))
        np.testing.assert_allclose(fit.fitted, [0, 1.5, 1.5])
        assert level_sets(fit.fitted) == ((0, 1), (1, 3))

    def test_matches_generic_cone_projection(self, rng):
        """Cross-module oracle: the monotone cone under a diagonal metric."""
        for _ in range(30):
            k = rng.integers(2, 5)
            vals = rng.standard_normal(k) * 2
            w = rng.uniform(0.2, 3.0, size=k)
            fit = pava(series(vals, w))
            cone = ConeSpec.simple_order(k)
            metric = Metric(np.diag(1.0 / w))
            np.testing.assert_allclose(
                fit.fitted, project_cone(vals, cone, metric), atol=1e-8
            )

    def test_mean_preservation(self, rng):
        for _ in range(50):
            k = rng.integers(1, 10)
            vals = rng.standard_normal(k)
            w = rng.uniform(0.1, 2.0, size=k)
            fit = pava(series(vals, w))
            assert w @ fit.fitted == pytest.approx(w @ vals, abs=1e-10)

    def test_block_values_are_block_averages(self, rng):
        vals = rng.standard_normal(8)
        w = rng.uniform(0.5, 1.5, size=8)
        s = series(vals, w)
        fit = pava(s)
        for start, stop in level_sets(fit.fitted):
            np.testing.assert_allclose(
                fit.fitted[start:stop], av(s, start, stop - 1), atol=1e-12
            )

    def test_fitted_nondecreasing(self, rng):
        for _ in range(50):
            vals = rng.standard_normal(12)
            fit = pava(series(vals))
            assert np.all(np.diff(fit.fitted) >= -1e-12)


class TestMinMaxEquivalence:
    def test_examples(self):
        np.testing.assert_allclose(minmax_project(series([1, 2, 3])), [1, 2, 3])
        np.testing.assert_allclose(minmax_project(series([2, 1])), [1.5, 1.5])
        np.testing.assert_allclose(minmax_project(series([0, 2, 1])), [0, 1.5, 1.5])

    def test_random_equivalence_with_pava(self, rng):
        for _ in range(100):
            k = rng.integers(1, 13)
            vals = rng.standard_normal(k) * 3
            w = rng.uniform(0.1, 4.0, size=k)
            s = series(vals, w)
            np.testing.assert_allclose(
                pava(s).fitted, minmax_project(s), atol=1e-10
            )


class TestSimpleOrderConsistency:
    def test_one_group_is_refused(self):
        with pytest.raises(ContractViolationError, match="need at least two groups"):
            simple_order_consistency(series([1.0]))

    def test_constant_vector_has_no_split(self):
        check = simple_order_consistency(series([0, 0, 0]))
        assert not check.consistent and check.witness is None

    def test_up_then_down_with_high_tail_average(self):
        # 0 < min(2, 1.5): split after the first coordinate
        check = simple_order_consistency(series([0, 2, 1]))
        assert check.consistent and check.witness == 0

    def test_decreasing_vector_fails_both_splits(self):
        check = simple_order_consistency(series([1, 0, -1]))
        assert not check.consistent

    def test_strict_inequality_no_slack(self):
        assert not simple_order_consistency(series([1.0, 1.0])).consistent
        assert simple_order_consistency(series([1.0, 1.0 + 1e-12])).consistent

    def test_split_and_merge_property(self, rng):
        """A firing split lets the two halves be pooled independently."""
        for _ in range(50):
            k = rng.integers(2, 9)
            vals = rng.standard_normal(k) * 2
            w = rng.uniform(0.2, 2.0, size=k)
            s = series(vals, w)
            check = simple_order_consistency(s)
            if not check.consistent:
                continue
            i = check.witness
            left = pava(series(vals[: i + 1], w[: i + 1])).fitted
            right = pava(series(vals[i + 1 :], w[i + 1 :])).fitted
            np.testing.assert_allclose(
                np.concatenate([left, right]), pava(s).fitted, atol=1e-10
            )
