"""Convergence diagnostics and regulator extraction, folded over plain 2-D index blocks."""

import numpy as np
import pytest

from glsreg.criteria import (
    criterion_functional,
    criterion_terms,
    extract_regulator,
    regulator_ratio_matrix,
)
from glsreg.errors import DomainError, NonpositiveDelta
from glsreg.estimates import mean_estimate
from glsreg.sequences import PowerLogSequence

# indices 1..3 of two trajectories: (3.0, 1.0, 0.5) and (0.2, 2.0, 0.1)
SMALL = np.asarray([[3.0, 0.2], [1.0, 2.0], [0.5, 0.1]])


def random_block(seed=0, trajectories=50, indices=20):
    return np.random.default_rng(seed).exponential(size=(indices, trajectories))


def fold(block, n, index_start=1):
    """The sups of one block folded into zeros, as the column pass starts its running sups."""
    return criterion_functional(block, n, index_start, out=np.zeros(np.shape(block)[-1]))


def factors(block, delta):
    """The regulator factors of one block folded into zeros, as simulate_eta starts them."""
    return extract_regulator(block, delta, out=np.zeros(np.shape(block)[-1]))


def functional(block, n, index_start=1):
    return mean_estimate(criterion_terms(fold(block, n, index_start)))


class TestTrajectoryBatch:
    """An index block is a plain 2-D array, one row per index, plus the index of its first row."""

    def test_shape_guards(self):
        with pytest.raises(DomainError):
            fold(np.ones(3), 1)
        with pytest.raises(DomainError):
            fold(np.ones((0, 3)), 1)
        with pytest.raises(DomainError):
            fold(np.ones((2, 0)), 1)
        with pytest.raises(DomainError):
            factors(np.ones(3), np.ones(3))
        with pytest.raises(DomainError):
            factors(np.ones((0, 3)), np.ones(3))
        with pytest.raises(DomainError):
            fold(np.asarray([[1.0, np.nan]]), 1)
        with pytest.raises(DomainError):
            factors(np.asarray([[np.inf]]), np.ones(1))
        with pytest.raises(DomainError):
            fold(np.ones((2, 2)), 1, index_start=0)

    @pytest.mark.parametrize("n, index_start", [(1.5, 1), (1, 1.5), (2.0, 1), (1, 1.0)])
    def test_non_integer_window_start_or_index_start_is_a_domain_error(self, n, index_start):
        # a float start died in the window slice with a bare TypeError
        with pytest.raises(DomainError, match="must be an integer >= 1"):
            fold(np.ones((3, 2)), n, index_start)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 3), (4, 5)])
    def test_rejects_every_non_finite_value(self, bad, where):
        values = np.random.default_rng(0).normal(size=(5, 6))  # indices 1..5 of 6 trajectories
        values[where] = bad
        with pytest.raises(DomainError):
            fold(values, 1)
        with pytest.raises(DomainError):
            fold(values, 1 + where[0])
        with pytest.raises(DomainError):  # sups folded before do not hide it
            criterion_functional(values, 1, 1, out=np.full(6, 0.5))
        with pytest.raises(DomainError):
            factors(values, np.ones(5))

    def test_coerces_to_float(self):
        # trajectories (1, 2) and (3, 4) over indices 1..2
        sups = fold(np.asarray([[1, 3], [2, 4]]), 1)
        assert sups.dtype == np.float64
        np.testing.assert_array_equal(criterion_terms(sups), [2.0 / 3.0, 4.0 / 5.0])
        np.testing.assert_array_equal(factors(np.asarray([[1, 3], [2, 4]]), np.ones(2)), [2.0, 4.0])

    def test_window_bookkeeping(self):
        # indices 3..8: the window starting at 3 is the whole block, at 8 the last row
        block = np.tile(np.arange(6.0, 0.0, -1.0)[:, None], (1, 4))

        def terms(n):
            return criterion_terms(fold(block, n, index_start=3))

        np.testing.assert_array_equal(terms(3), np.full(4, 6.0 / 7.0))
        np.testing.assert_array_equal(terms(8), np.full(4, 0.5))
        np.testing.assert_array_equal(terms(6), np.full(4, 0.75))

    def test_column_out_of_range(self):
        # indices 2..4: a window start before the block takes all of it, one past it folds nothing
        block = np.ones((3, 2))
        np.testing.assert_array_equal(fold(block, 1, index_start=2), [1.0, 1.0])
        out = np.full(2, 0.5)
        assert criterion_functional(block, 5, 2, out=out) is out
        np.testing.assert_array_equal(out, [0.5, 0.5])
        with pytest.raises(DomainError):
            fold(block, 0, index_start=2)


class TestCriterionFunctional:
    def test_hand_computed_values(self):
        # row sups over [2, 3]: 1.0 and 2.0, transformed 1/2 and 2/3
        est = functional(SMALL, 2)
        assert est.value == pytest.approx((0.5 + 2.0 / 3.0) / 2.0, rel=1e-12)
        full = functional(SMALL, 1)
        assert full.value == pytest.approx((0.75 + 2.0 / 3.0) / 2.0, rel=1e-12)

    def test_nonincreasing_in_window_start(self):
        block = random_block(3)
        values = [functional(block, n).value for n in (1, 5, 10, 20)]
        assert values == sorted(values, reverse=True)

    def test_bounded_below_one(self):
        est = functional(random_block(4), 1)
        assert 0.0 <= est.value < 1.0
        assert est.half_width > 0.0

    def test_out_receives_the_terms(self):
        # ``out`` receives the running sups (from zeros), which criterion_terms turns into the terms
        block = random_block(5, trajectories=6, indices=4)
        out = np.full(8, -1.0)
        out[1:7] = 0.0
        assert criterion_functional(block, 2, 1, out=out[1:7]).base is out
        np.testing.assert_array_equal(out[1:7], np.abs(block[1:]).max(axis=0))
        assert out[0] == out[7] == -1.0
        running = np.zeros(6)  # two blocks, indices 1..2 and 3..4, fold to the whole block's sups
        criterion_functional(block[:2], 2, 1, out=running)
        criterion_functional(block[2:], 2, 3, out=running)
        np.testing.assert_array_equal(running, out[1:7])


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
        block = random_block(7, trajectories=30, indices=40)
        delta = PowerLogSequence(rate=0.5).values(np.arange(1, 41, dtype=float))
        ratios = regulator_ratio_matrix(block, delta[:, None])
        folded = factors(block, delta)
        assert np.all(ratios <= folded)
        np.testing.assert_array_equal(ratios.max(axis=0), folded)

    def test_factors_scale_with_values(self):
        block = random_block(8, trajectories=5, indices=6)
        delta = PowerLogSequence(rate=1.0).values(np.arange(1, 7, dtype=float))
        np.testing.assert_allclose(
            factors(2.0 * block, delta),
            2.0 * factors(block.copy(), delta),
            rtol=1e-15,
        )

    def test_row_chunks_match_one_ratio_matrix_bitwise(self):
        # 40 index rows folded in blocks of 3, as the column pass hands them over: 13 full blocks and a one-row tail
        block = random_block(9, trajectories=10, indices=40)
        delta = PowerLogSequence(rate=0.5).values(np.arange(1, 41, dtype=float))
        ratios = np.abs(block) / delta[:, None]
        running = np.zeros(10)
        for lo in range(0, 40, 3):
            assert extract_regulator(block[lo : lo + 3].copy(), delta[lo : lo + 3], out=running) is running
        np.testing.assert_array_equal(running, ratios.max(axis=0))

    def test_ratios_overwrite_a_float_block(self):
        block = random_block(11, trajectories=4, indices=5)
        delta = np.arange(1, 6, dtype=float) ** -0.5
        expected = np.abs(block) / delta[:, None]
        factors(block, delta)
        np.testing.assert_array_equal(block, expected)
