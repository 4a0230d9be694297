"""Trajectory simulation, certified truncation, and exact-model oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from glsreg import simulate as simulate_module
from glsreg.criteria import regulator_ratio_matrix
from glsreg.errors import (
    DomainError,
    InvalidEpsilon,
    MomentInfinite,
    ToleranceUnreachable,
    TruncationInfeasible,
)
from glsreg.sequences import _chunked_sum
from glsreg.simulate import (
    ExponentialPower,
    FixedTruncation,
    GaussianPower,
    SimulationPlan,
    TailTargetTruncation,
    _discard_tail_bound,
    _moment_tail_remainder,
    asymptotic_tail_constant,
    bonferroni_sums,
    exact_eta_moment,
    exact_eta_tail,
    exp_power_sum,
    exp_power_sum_tail_bound,
    exp_power_threshold,
    model_from_config,
    plan_from_config,
    resolve_n_last,
    simulate_eta,
    simulate_trajectories,
    truncation_bound,
)

MODELS = [ExponentialPower, GaussianPower]


def fresh_stream_row(plan, trajectory):
    """Row ``trajectory`` of a plan, drawn from its own fresh Philox(key=(seed, trajectory))."""
    n_idx = np.arange(plan.index_start, resolve_n_last(plan) + 1, dtype=float)
    gen = np.random.Generator(np.random.Philox(key=np.asarray([plan.seed, trajectory], dtype=np.uint64)))
    u = gen.random(n_idx.size)
    if isinstance(plan.model, ExponentialPower):
        magnitudes = -np.log1p(-u)
    else:
        magnitudes = math.sqrt(2.0) * special.erfinv(u)
    return magnitudes * n_idx ** (-plan.alpha), n_idx ** (-(plan.alpha - plan.eps))


def exp_plan(eps=0.5, trajectories=100, seed=7, start=1, **kw):
    return SimulationPlan(
        model=ExponentialPower(alpha=1.0, index_start=start),
        eps=eps,
        trajectories=trajectories,
        seed=seed,
        **kw,
    )


class TestModels:
    def test_exponential_envelope_is_gamma_root(self):
        env = ExponentialPower(alpha=1.5, index_start=2).moment_envelope()
        assert env.alpha == 1.5 and env.index_start == 2
        assert env.envelope.value(4.0) == pytest.approx(24.0**0.25, rel=1e-9)

    def test_gaussian_envelope_normalizes_at_two(self):
        env = GaussianPower(alpha=1.0).moment_envelope()
        assert env.envelope.value(2.0) == pytest.approx(1.0, rel=1e-9)

    def test_exponential_inverse_cdf(self):
        model = ExponentialPower(alpha=1.0)
        u = np.asarray([0.0, 1.0 - math.exp(-2.0)])
        np.testing.assert_allclose(model.draw_magnitudes(u), [0.0, 2.0], atol=1e-12)

    def test_gaussian_inverse_cdf(self):
        model = GaussianPower(alpha=1.0)
        u = np.asarray([0.0, float(special.erf(1.0 / math.sqrt(2.0)))])
        np.testing.assert_allclose(model.draw_magnitudes(u), [0.0, 1.0], atol=1e-9)

    def test_draws_without_out_are_pure_and_match_expressions(self):
        u = np.random.default_rng(2).random((4, 9))
        kept = u.copy()
        exp_draw = ExponentialPower(alpha=1.0).draw_magnitudes(u)
        np.testing.assert_array_equal(u, kept)
        np.testing.assert_array_equal(exp_draw, -np.log1p(-kept))
        gauss_draw = GaussianPower(alpha=1.0).draw_magnitudes(u)
        np.testing.assert_array_equal(u, kept)
        np.testing.assert_array_equal(gauss_draw, math.sqrt(2.0) * special.erfinv(kept))

    @pytest.mark.parametrize("model", MODELS)
    def test_draws_in_place_match_draws_into_new_array(self, model):
        u = np.random.default_rng(3).random((4, 9))
        expected = model(alpha=1.0).draw_magnitudes(u)
        assert model(alpha=1.0).draw_magnitudes(u, out=u) is u
        np.testing.assert_array_equal(u, expected)

    def test_field_guards(self):
        with pytest.raises(DomainError):
            ExponentialPower(alpha=0.0)
        with pytest.raises(DomainError):
            GaussianPower(alpha=1.0, index_start=0)


class TestChunkedSum:
    def test_stop_ends_within_two_chunks(self):
        visited = []

        def term(n):
            visited.append(n.size)
            return -np.ones_like(n)

        total = _chunked_sum(term, 1, 10**9, stop=lambda total, _: total <= -100.0)
        assert total <= -100.0
        assert sum(visited) <= 2048

    def test_stop_sees_last_index_summed(self):
        tops = []

        def stop(total, top):
            tops.append(top)
            return top >= 5000

        total = _chunked_sum(lambda n: np.ones_like(n), 3, 10**9, stop)
        # chunks of 1024, 2048 and 4096 cells from index 3
        assert tops == [1026, 3074, 7170]
        assert total == 7170 - 3 + 1

    def test_sums_every_cell_across_chunk_boundaries(self):
        lo, hi = 3, 3 + 1024 + 2048 + 4096 + 17
        assert _chunked_sum(lambda n: n, lo, hi) == (hi * (hi + 1) - (lo - 1) * lo) / 2


class TestExpPowerCertified:
    def test_threshold_frozen_value(self):
        assert exp_power_threshold(1.0, 0.5, 1e-6) == 304

    def test_threshold_is_minimal(self):
        n = exp_power_threshold(1.0, 0.5, 1e-6)
        assert exp_power_sum_tail_bound(1.0, 0.5, n) <= 1e-6
        assert exp_power_sum_tail_bound(1.0, 0.5, n - 1) > 1e-6

    def test_threshold_past_float_precision_returns_certified(self, deadline):
        # the first estimate is 3.9e23 > 2**53, where n and n - 1 are the same float
        with deadline(1.0):
            n = exp_power_threshold(1e-4, 0.25, 1e-12)
        assert n > 2**53
        assert exp_power_sum_tail_bound(1e-4, 0.25, n) <= 1e-12

    def test_tail_bound_dominates_series(self):
        for n_last in (1, 5, 50):
            idx = np.arange(n_last + 1, 50_000, dtype=float)
            direct = float(np.sum(np.exp(-np.sqrt(idx))))
            assert exp_power_sum_tail_bound(1.0, 0.5, n_last) >= direct

    def test_sum_matches_brute_force(self):
        idx = np.arange(1.0, 5_000.0)
        brute = float(np.sum(np.exp(-1.3 * np.sqrt(idx))))
        assert exp_power_sum(1.3, 0.5, abs_tol=1e-10) == pytest.approx(brute, abs=1e-9)

    def test_sum_across_chunk_boundaries_matches_fsum(self):
        # n_last is about 4.4e5, so the geometric chunk schedule crosses about 9 boundaries
        n_last = exp_power_threshold(0.05, 0.5, 1e-10)
        idx = np.arange(1.0, n_last + 1.0)
        brute = math.fsum(np.exp(-0.05 * idx**0.5))
        assert exp_power_sum(0.05, 0.5, abs_tol=1e-10) == pytest.approx(brute, abs=1e-12)

    def test_sum_start_index_drops_head(self):
        full = exp_power_sum(1.0, 0.5, abs_tol=1e-12)
        late = exp_power_sum(1.0, 0.5, abs_tol=1e-12, index_start=3)
        head = math.exp(-1.0) + math.exp(-math.sqrt(2.0))
        assert late == pytest.approx(full - head, abs=1e-11)

    def test_argument_guards(self):
        with pytest.raises(DomainError):
            exp_power_threshold(0.0, 0.5, 1e-6)
        with pytest.raises(DomainError):
            exp_power_threshold(1.0, 2.5, 1e-6)
        with pytest.raises(DomainError):
            exp_power_threshold(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            exp_power_sum_tail_bound(1.0, 0.5, 0)
        with pytest.raises(DomainError):
            exp_power_sum(1.0, 0.5, index_start=0)


class TestPlanValidation:
    def test_eps_window_respects_alpha(self):
        SimulationPlan(model=ExponentialPower(alpha=0.6), eps=0.5, trajectories=1)
        with pytest.raises(InvalidEpsilon):
            SimulationPlan(model=ExponentialPower(alpha=0.6), eps=0.6, trajectories=1)
        with pytest.raises(InvalidEpsilon):
            SimulationPlan(model=ExponentialPower(alpha=2.0), eps=1.0, trajectories=1)
        with pytest.raises(InvalidEpsilon):
            exp_plan(eps=0.0)

    def test_grid_and_count_guards(self):
        with pytest.raises(DomainError):
            exp_plan(trajectories=0)
        with pytest.raises(DomainError):
            exp_plan(p_grid=(0.5,))
        with pytest.raises(DomainError):
            exp_plan(u_grid=(-1.0,))
        with pytest.raises(DomainError):
            exp_plan(seed=-1)

    def test_model_delegates(self):
        plan = exp_plan(start=4)
        assert plan.alpha == 1.0 and plan.index_start == 4


class TestResolveNLast:
    def test_fixed_is_honored(self):
        plan = exp_plan(truncation=FixedTruncation(n_last=50))
        assert resolve_n_last(plan) == 50

    def test_fixed_before_start_rejected(self):
        with pytest.raises(DomainError):
            plan = exp_plan(start=5, truncation=FixedTruncation(n_last=3))
            resolve_n_last(plan)

    def test_tail_target_matches_threshold(self):
        plan = exp_plan(truncation=TailTargetTruncation(rho=1e-6, u_min=1.0))
        assert resolve_n_last(plan) == 304

    def test_default_rho_scales_with_batch(self):
        plan = exp_plan(trajectories=1000)
        assert resolve_n_last(plan) == exp_power_threshold(1.0, 0.5, 1e-6)

    def test_infeasible_target(self):
        plan = exp_plan(eps=0.25, truncation=TailTargetTruncation(rho=1e-6, u_min=0.05))
        with pytest.raises(TruncationInfeasible):
            resolve_n_last(plan)

    def test_truncation_field_guards(self):
        with pytest.raises(DomainError):
            FixedTruncation(n_last=0)
        with pytest.raises(DomainError):
            TailTargetTruncation(rho=1.5)
        with pytest.raises(DomainError):
            TailTargetTruncation(u_min=0.0)


class TestSimulateEta:
    def test_matches_manual_philox_streams(self):
        plan = exp_plan(trajectories=3, seed=11, truncation=FixedTruncation(n_last=10))
        samples = simulate_eta(plan)
        n_idx = np.arange(1, 11, dtype=float)
        for t, sample in enumerate(samples):
            gen = np.random.Generator(np.random.Philox(key=np.asarray([11, t], dtype=np.uint64)))
            theta = -np.log1p(-gen.random(10))
            z = theta * n_idx**-1.0
            eta = float(np.max(np.abs(z) / n_idx**-0.5))
            assert sample.value == eta

    def test_deterministic_and_seed_sensitive(self):
        plan = exp_plan(trajectories=64, seed=3, truncation=FixedTruncation(n_last=32))
        a = [s.value for s in simulate_eta(plan)]
        b = [s.value for s in simulate_eta(plan)]
        assert a == b
        other = exp_plan(trajectories=64, seed=4, truncation=FixedTruncation(n_last=32))
        assert a != [s.value for s in simulate_eta(other)]

    def test_chunked_rows_match_manual_philox_streams(self, monkeypatch):
        # chunks of 1500 rows of width 5000 split 4000 rows into three chunks
        monkeypatch.setattr(simulate_module, "_ROW_CHUNK_CELLS", 1500 * 5000)
        plan = exp_plan(trajectories=4000, seed=9, truncation=FixedTruncation(n_last=5000))
        rows_per_chunk = simulate_module._ROW_CHUNK_CELLS // 5000
        assert rows_per_chunk < 2000 < 2 * rows_per_chunk < 4000
        values = simulate_eta(plan).value
        n_idx = np.arange(1, 5001, dtype=float)
        for t in (0, rows_per_chunk - 1, rows_per_chunk, 1999, 2000, 2 * rows_per_chunk - 1, 2 * rows_per_chunk, 3999):
            gen = np.random.Generator(np.random.Philox(key=np.asarray([9, t], dtype=np.uint64)))
            theta = -np.log1p(-gen.random(5000))
            assert values[t] == float(np.max(np.abs(theta * n_idx**-1.0) / n_idx**-0.5)), t

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("width", [1, 3, 5, 39])
    @pytest.mark.parametrize("seed", [12, 2**64 - 1])
    def test_rekeyed_rows_match_fresh_streams_across_chunks(self, monkeypatch, model, width, seed):
        # widths that are not multiples of 4 leave a partly used Philox buffer after each row;
        # chunks of 4 rows put a boundary between rows 3|4 and 7|8
        monkeypatch.setattr(simulate_module, "_ROW_CHUNK_CELLS", 4 * width)
        plan = SimulationPlan(
            model=model(alpha=1.0), eps=0.5, trajectories=10, seed=seed, truncation=FixedTruncation(n_last=width)
        )
        eta = simulate_eta(plan).value
        batch = simulate_trajectories(plan).values
        for t in range(plan.trajectories):
            row, delta = fresh_stream_row(plan, t)
            np.testing.assert_array_equal(batch[t], row)
            assert eta[t] == float(np.max(np.abs(row) / delta)), t

    def test_one_philox_per_chunk(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(simulate_module, "_ROW_CHUNK_CELLS", 50 * 300)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        plan = exp_plan(trajectories=1000, seed=21, truncation=FixedTruncation(n_last=50))
        chunks = len(simulate_module._row_chunks(plan.trajectories, 50))
        assert chunks == 4
        values = simulate_eta(plan).value
        assert 1 <= len(built) <= chunks
        for t in (0, 299, 300, 999):
            row, delta = fresh_stream_row(plan, t)
            assert values[t] == float(np.max(np.abs(row) / delta)), t

    def test_eta_peak_memory_near_one_chunk(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_ROW_CHUNK_CELLS", 1 << 20)
        plan = exp_plan(trajectories=3000, seed=5, truncation=FixedTruncation(n_last=1000))
        chunks = simulate_module._row_chunks(plan.trajectories, 1000)
        assert len(chunks) >= 2
        chunk_bytes = len(chunks[0]) * 1000 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            values = simulate_eta(plan).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * chunk_bytes
        for t in (0, len(chunks[0]) - 1, len(chunks[0]), 2999):
            row, delta = fresh_stream_row(plan, t)
            assert values[t] == float(np.max(np.abs(row) / delta)), t

    def test_eta_peak_memory_at_default_chunk(self):
        # 20k rows of width 500 would fill 80 MB; the default chunk holds about 1 MiB of them
        plan = exp_plan(trajectories=20_000, seed=5, truncation=FixedTruncation(n_last=500))
        eta_bytes = plan.trajectories * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            simulate_eta(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (4 << 20) + eta_bytes

    def test_truncation_bounds_certified_above_u_min(self):
        m = 500
        rho = 1e-3 / m
        for u_min in (1.0, 0.3):
            plan = exp_plan(trajectories=m, truncation=TailTargetTruncation(u_min=u_min))
            values = simulate_eta(plan).value
            assert np.all(np.isfinite(values)) and np.all(values > 0.0)
            bound = truncation_bound(plan, values)
            assert 0.0 <= bound <= 1.0
            if values.min() >= u_min:
                assert bound <= rho
        assert values.min() >= 0.3  # the u_min = 0.3 batch exercises the certified branch

    @pytest.mark.parametrize("model", [ExponentialPower, GaussianPower])
    @pytest.mark.parametrize("start", [1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_truncation_bound_is_largest_per_sample_bound(self, model, start, alpha):
        for seed in (1, 2, 3):
            plan = SimulationPlan(model=model(alpha=alpha, index_start=start), eps=0.5, trajectories=400, seed=seed)
            values = simulate_eta(plan).value
            n_last = resolve_n_last(plan)
            reference = max(_discard_tail_bound(plan.model, plan.eps, float(v), n_last) for v in values)
            assert truncation_bound(plan, values) == reference

    def test_gaussian_first_column_mean(self):
        plan = SimulationPlan(
            model=GaussianPower(alpha=1.0),
            eps=0.5,
            trajectories=20_000,
            seed=5,
            truncation=FixedTruncation(n_last=3),
        )
        batch = simulate_trajectories(plan)
        mean = float(batch.values[:, batch.column_of(1)].mean())
        assert mean == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.025)


class TestTrajectoryBatches:
    def test_shape_and_metadata(self):
        plan = exp_plan(trajectories=8, seed=2, start=3, truncation=FixedTruncation(n_last=12))
        batch = simulate_trajectories(plan)
        assert batch.values.shape == (8, 10)
        assert batch.index_start == 3 and batch.last_index == 12
        assert batch.column_of(3) == 0 and batch.column_of(12) == 9

    def test_eta_agrees_bitwise_with_batch_reduction(self):
        plan = exp_plan(trajectories=40, seed=6, truncation=FixedTruncation(n_last=25))
        batch = simulate_trajectories(plan)
        delta = np.arange(1, 26, dtype=float) ** -0.5
        reduced = regulator_ratio_matrix(batch.values, delta).max(axis=1)
        eta = np.asarray([s.value for s in simulate_eta(plan)])
        np.testing.assert_array_equal(reduced, eta)

    def test_eta_chunks_agree_bitwise_with_batch_reduction(self, monkeypatch):
        # 300 rows of width 25 in chunks of 40 rows: the last chunk is short
        monkeypatch.setattr(simulate_module, "_ROW_CHUNK_CELLS", 1000)
        plan = exp_plan(trajectories=300, seed=8, truncation=FixedTruncation(n_last=25))
        reduced = regulator_ratio_matrix(simulate_trajectories(plan).values, np.arange(1, 26, dtype=float) ** -0.5)
        np.testing.assert_array_equal(reduced.max(axis=1), simulate_eta(plan).value)

    def test_batch_peak_memory_near_batch_size(self):
        plan = exp_plan(trajectories=2000, seed=4, truncation=FixedTruncation(n_last=1000))
        tracemalloc.start()
        try:
            batch = simulate_trajectories(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * batch.values.nbytes
        for t in (0, 1999):
            gen = np.random.Generator(np.random.Philox(key=np.asarray([4, t], dtype=np.uint64)))
            row = -np.log1p(-gen.random(1000)) * np.arange(1, 1001, dtype=float) ** -1.0
            np.testing.assert_array_equal(batch.values[t], row)

    def test_batch_peak_memory_within_five_percent_of_batch(self):
        plan = exp_plan(trajectories=2000, seed=4, truncation=FixedTruncation(n_last=1000))
        tracemalloc.start()
        try:
            batch = simulate_trajectories(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * batch.values.nbytes


class TestExactTail:
    def test_frozen_values(self):
        assert exact_eta_tail(1.0, 0.5, 1.0) == pytest.approx(0.8418440335677413, abs=1e-12)
        assert exact_eta_tail(1.0, 0.5, 5.0) == pytest.approx(0.007820281621509263, abs=1e-12)

    def test_brute_force_product(self):
        idx = np.arange(1.0, 200_000.0)
        brute = -math.expm1(float(np.sum(np.log1p(-np.exp(-2.0 * np.sqrt(idx))))))
        assert exact_eta_tail(1.0, 0.5, 2.0) == pytest.approx(brute, rel=1e-9)

    def test_alpha_only_gates_eps(self):
        assert exact_eta_tail(1.0, 0.5, 3.0) == exact_eta_tail(7.0, 0.5, 3.0)
        with pytest.raises(InvalidEpsilon):
            exact_eta_tail(0.4, 0.5, 3.0)

    def test_later_start_lowers_tail(self):
        t1 = exact_eta_tail(1.0, 0.5, 2.0)
        t2 = exact_eta_tail(1.0, 0.5, 2.0, index_start=2)
        assert t2 < t1
        assert t2 == pytest.approx(1.0 - (1.0 - t1) / (1.0 - math.exp(-2.0)), rel=1e-9)

    def test_small_u_saturates(self):
        assert exact_eta_tail(1.0, 0.5, 1e-8) == 1.0

    @pytest.mark.parametrize("u", [0.01, 0.05])
    def test_small_u_stops_within_abs_tol(self, u):
        value = exact_eta_tail(1.0, 0.5, u)
        assert value <= 1.0
        assert 1.0 - value <= 1e-12

    @pytest.mark.parametrize("u", [0.2, 0.5])
    def test_matches_fsum_product(self, u):
        idx = np.arange(1.0, 400_001.0)
        brute = -math.expm1(math.fsum(np.log1p(-np.exp(-u * np.sqrt(idx)))))
        assert exact_eta_tail(1.0, 0.5, u) == pytest.approx(brute, rel=1e-9)

    def test_argument_guards(self):
        with pytest.raises(DomainError):
            exact_eta_tail(1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            exact_eta_tail(1.0, 0.5, 1.0, abs_tol=0.0)
        with pytest.raises(DomainError):
            exact_eta_tail(1.0, 0.5, 1.0, index_start=0)


class TestBonferroni:
    def test_frozen_values(self):
        s1, s2 = bonferroni_sums(0.5, 1.0)
        assert s1 == pytest.approx(1.6704068179653595, abs=1e-11)
        assert s2 == pytest.approx(1.2544063681904971, abs=1e-11)

    @pytest.mark.parametrize("u", [1e-4, 0.05])
    def test_unreachable_tolerance_raises_before_summing(self, u):
        # exp_power_threshold asks for 3.9e23 terms at u 1e-4 and 1.3e12 at u 0.05
        with pytest.raises(ToleranceUnreachable, match="terms"):
            bonferroni_sums(0.25, u)

    def test_brute_force_at_u_two(self):
        idx = np.arange(1.0, 5_000.0)
        terms = np.exp(-2.0 * np.sqrt(idx))
        brute_s1 = float(np.sum(terms))
        brute_s2 = 0.5 * (brute_s1**2 - float(np.sum(terms**2)))
        s1, s2 = bonferroni_sums(0.5, 2.0)
        assert s1 == pytest.approx(brute_s1, rel=1e-10)
        assert s2 == pytest.approx(brute_s2, rel=1e-10)

    def test_sandwich_brackets_exact_tail(self):
        for u in (1.0, 2.0, 5.0, 20.0):
            s1, s2 = bonferroni_sums(0.5, u, abs_tol=1e-13)
            tail = exact_eta_tail(1.0, 0.5, u, abs_tol=1e-13)
            assert s1 - s2 <= tail + 1e-12
            assert tail <= s1 + 1e-12

    def test_asymptotic_constant(self):
        assert asymptotic_tail_constant(0.5) == pytest.approx(2.0, rel=1e-12)
        assert asymptotic_tail_constant(0.25) == pytest.approx(24.0, rel=1e-12)
        with pytest.raises(DomainError):
            asymptotic_tail_constant(1.0)


class TestExactMoment:
    def test_frozen_values(self):
        assert exact_eta_moment(1.0, 0.5, 1.0) == pytest.approx(1.6949790294055491, rel=3e-6)
        assert exact_eta_moment(1.0, 0.5, 1.5) == pytest.approx(1.7892009394112762, rel=3e-6)

    def test_independent_quadrature(self):
        # trapezoid on a dense grid of the same exact tail, p = 1
        u = np.linspace(1e-6, 64.0, 20_001)
        tail = np.asarray([exact_eta_tail(1.0, 0.5, float(x), abs_tol=1e-10) for x in u])
        trapezoid = float(np.trapezoid(tail, u))
        assert exact_eta_moment(1.0, 0.5, 1.0) == pytest.approx(trapezoid, rel=1e-4)

    def test_monotone_tail_brackets_moment(self):
        # T(u) = P(eta > u) never increases, so on 0 = u_0 < ... < u_K = U
        #   sum (u_{k+1}^p - u_k^p) T(u_{k+1}) <= ||eta||_p^p
        #   <= sum (u_{k+1}^p - u_k^p) T(u_k) + remainder beyond U
        # checks the quadrature independently of its own error estimate
        upper, tol = 32.0, 1e-12
        u = np.linspace(0.0, upper, 4001)
        tail = np.asarray([1.0] + [exact_eta_tail(1.0, 0.5, float(x), abs_tol=tol) for x in u[1:]])
        for p in (1.0, 1.5, 1.98):
            weights = np.diff(u**p)
            slack = tol * upper**p
            lower = float(np.sum(weights * tail[1:])) - slack
            top = float(np.sum(weights * tail[:-1])) + slack + _moment_tail_remainder(0.5, p, upper, 1)
            moment_p = exact_eta_moment(1.0, 0.5, p) ** p
            assert lower <= moment_p <= top
            assert top - lower <= 1e-2 * moment_p

    def test_dominates_first_term_moment(self):
        # eta >= Z_1 pointwise, so ||eta||_p >= Gamma(p+1)^(1/p)
        for p in (1.0, 1.5, 1.9):
            lower = math.exp(special.gammaln(p + 1.0) / p)
            assert exact_eta_moment(1.0, 0.5, p) >= lower * (1.0 - 1e-5)

    def test_rule_stable_under_node_doubling(self, monkeypatch):
        points = [(0.5, p, start) for p in (1.0, 1.5, 1.8, 1.98) for start in (1, 2)]
        points += [(0.25, p, 1) for p in (1.0, 2.0, 3.5)]
        sixteen = [exact_eta_moment(1.0, eps, p, index_start=start) for eps, p, start in points]
        nodes, weights = np.polynomial.legendre.leggauss(32)
        monkeypatch.setattr(simulate_module, "_GL_NODES", nodes)
        monkeypatch.setattr(simulate_module, "_GL_WEIGHTS", weights)
        for (eps, p, start), value in zip(points, sixteen):
            assert exact_eta_moment(1.0, eps, p, index_start=start) == pytest.approx(value, rel=1e-9, abs=0.0)

    def test_infinite_moment_guard(self):
        with pytest.raises(MomentInfinite):
            exact_eta_moment(1.0, 0.5, 2.0)
        with pytest.raises(MomentInfinite):
            exact_eta_moment(1.0, 0.5, 3.5)

    def test_argument_guards(self):
        with pytest.raises(DomainError):
            exact_eta_moment(1.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            exact_eta_moment(1.0, 0.5, 1.0, rel_tol=0.0)


class TestConfig:
    def test_model_round_trips(self):
        model = model_from_config({"kind": "exponential_power", "alpha": 2.0, "index_start": 3})
        assert isinstance(model, ExponentialPower)
        assert model.alpha == 2.0 and model.index_start == 3
        model = model_from_config({"kind": "gaussian_power", "alpha": 1.0})
        assert isinstance(model, GaussianPower) and model.index_start == 1

    def test_plan_round_trip_fixed(self):
        plan = plan_from_config(
            {
                "model": {"kind": "exponential_power", "alpha": 1.0},
                "eps": 0.5,
                "trajectories": 100,
                "seed": 9,
                "truncation": {"n_last": 25},
                "p_grid": [2.5, 3],
                "u_grid": [1, 2],
            }
        )
        assert plan == exp_plan(
            trajectories=100, seed=9, truncation=FixedTruncation(n_last=25),
            p_grid=(2.5, 3.0), u_grid=(1.0, 2.0),
        )

    def test_plan_round_trip_tail_target(self):
        plan = plan_from_config(
            {
                "model": {"kind": "exponential_power", "alpha": 1.0},
                "eps": 0.5,
                "trajectories": 10,
                "truncation": {"rho": 1e-6, "u_min": 2.0},
            }
        )
        assert plan.truncation == TailTargetTruncation(rho=1e-6, u_min=2.0)
        assert plan.seed == 0 and plan.p_grid == ()


class TestEtaRecords:
    def test_one_float_value_field(self):
        samples = simulate_eta(exp_plan(trajectories=7, truncation=FixedTruncation(n_last=10)))
        assert isinstance(samples, np.recarray)
        assert samples.dtype.names == ("value",) and samples.value.dtype == np.float64
        assert len(samples) == 7 and samples[3].value == samples.value[3]
