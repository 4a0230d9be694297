"""Convergence diagnostics and regulator extraction."""

import numpy as np
import pytest

from glsreg.criteria import (
    TrajectoryBatch,
    criterion_functional,
    extract_regulator,
    regulator_ratio_matrix,
)
from glsreg.errors import DomainError, IndexOutOfRange, NonpositiveDelta
from glsreg.sequences import PowerLogSequence

SMALL = TrajectoryBatch(values=np.asarray([[3.0, 1.0, 0.5], [0.2, 2.0, 0.1]]))


def random_batch(seed=0, rows=50, width=20):
    rng = np.random.default_rng(seed)
    return TrajectoryBatch(values=rng.exponential(size=(rows, width)))


class TestTrajectoryBatch:
    def test_shape_guards(self):
        with pytest.raises(DomainError):
            TrajectoryBatch(values=np.ones(3))
        with pytest.raises(DomainError):
            TrajectoryBatch(values=np.ones((0, 3)))
        with pytest.raises(DomainError):
            TrajectoryBatch(values=np.asarray([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            TrajectoryBatch(values=np.asarray([[np.inf]]))
        with pytest.raises(DomainError):
            TrajectoryBatch(values=np.ones((2, 2)), index_start=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 3), (4, 5)])
    def test_rejects_every_non_finite_value(self, bad, where):
        values = np.random.default_rng(0).normal(size=(5, 6))
        values[where] = bad
        with pytest.raises(DomainError):
            TrajectoryBatch(values=values)

    def test_coerces_to_float(self):
        batch = TrajectoryBatch(values=np.asarray([[1, 2], [3, 4]]))
        assert batch.values.dtype == np.float64

    def test_window_bookkeeping(self):
        batch = TrajectoryBatch(values=np.ones((4, 6)), index_start=3)
        assert batch.last_index == 8
        np.testing.assert_array_equal(batch.indices(), [3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        assert batch.column_of(3) == 0 and batch.column_of(8) == 5

    def test_column_out_of_range(self):
        batch = TrajectoryBatch(values=np.ones((2, 3)), index_start=2)
        with pytest.raises(IndexOutOfRange):
            batch.column_of(1)
        with pytest.raises(IndexOutOfRange):
            batch.column_of(5)


class TestCriterionFunctional:
    def test_hand_computed_values(self):
        # row sups over [2, 3]: 1.0 and 2.0, transformed 1/2 and 2/3
        est = criterion_functional(SMALL, 2)
        assert est.value == pytest.approx((0.5 + 2.0 / 3.0) / 2.0, rel=1e-12)
        assert est.last_index == 3
        full = criterion_functional(SMALL, 1)
        assert full.value == pytest.approx((0.75 + 2.0 / 3.0) / 2.0, rel=1e-12)

    def test_nonincreasing_in_window_start(self):
        batch = random_batch(3)
        values = [criterion_functional(batch, n).value for n in (1, 5, 10, 20)]
        assert values == sorted(values, reverse=True)

    def test_bounded_below_one(self):
        batch = random_batch(4)
        est = criterion_functional(batch, 1)
        assert 0.0 <= est.value < 1.0
        assert est.half_width > 0.0


class TestRatioMatrix:
    def test_broadcast(self):
        out = regulator_ratio_matrix(np.asarray([[-2.0, 9.0]]), np.asarray([2.0, 3.0]))
        np.testing.assert_array_equal(out, [[1.0, 3.0]])

    def test_without_out_is_pure_and_matches_expression(self):
        values = np.random.default_rng(3).normal(size=(7, 13))
        delta = np.arange(1, 14, dtype=float) ** -0.5
        kept = values.copy()
        ratios = regulator_ratio_matrix(values, delta)
        np.testing.assert_array_equal(values, kept)
        np.testing.assert_array_equal(ratios, np.abs(kept) / delta)

    def test_out_may_be_the_input(self):
        values = np.random.default_rng(4).normal(size=(7, 13))
        delta = np.arange(1, 14, dtype=float) ** -0.5
        expected = np.abs(values) / delta
        assert regulator_ratio_matrix(values, delta, out=values) is values
        np.testing.assert_array_equal(values, expected)

    def test_delta_guards(self):
        values = np.ones((1, 2))
        for bad in ([0.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], []):
            with pytest.raises(NonpositiveDelta):
                regulator_ratio_matrix(values, np.asarray(bad))


class TestExtractRegulator:
    def test_factorization_is_exact_in_ratio_domain(self):
        batch = random_batch(7, rows=30, width=40)
        seq = PowerLogSequence(rate=0.5)
        ext = extract_regulator(batch, seq)
        ratios = regulator_ratio_matrix(batch.values, ext.delta_values)
        assert np.all(ratios <= ext.factors[:, None])
        np.testing.assert_array_equal(ratios.max(axis=1), ext.factors)
        np.testing.assert_array_equal(ext.delta_values, seq.values(batch.indices()))

    def test_factors_scale_with_values(self):
        batch = random_batch(8, rows=5, width=6)
        doubled = TrajectoryBatch(values=2.0 * batch.values)
        seq = PowerLogSequence(rate=1.0)
        np.testing.assert_allclose(
            extract_regulator(doubled, seq).factors,
            2.0 * extract_regulator(batch, seq).factors,
            rtol=1e-15,
        )
