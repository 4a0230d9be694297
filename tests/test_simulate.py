"""Trajectory simulation, certified truncation, and exact-model oracles."""

import functools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

from glsreg import simulate as simulate_module
from glsreg import verify
from glsreg.criteria import criterion_functional, criterion_terms, extract_regulator, regulator_ratio_matrix
from glsreg.errors import (
    DomainError,
    GLSError,
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
    plan_from_config,
    regulator_delta,
    resolve_n_last,
    simulate_eta,
    simulate_trajectories,
    truncation_bound,
)

MODELS = [ExponentialPower, GaussianPower]

EPSILONS = st.sampled_from([0.25, 0.5, 0.75])
TOLERANCES = st.sampled_from([1e-10, 1e-12, 1e-13])
# a reference that would sum more terms than this is skipped for time: it
# costs about 60 ms per 1e6 terms
REFERENCE_TERMS = 1 << 22


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def truncated_fsum(term, n_last, stop=None):
    """sum_{n=1}^{n_last} term(n) by math.fsum, ending after the first chunk where ``stop(total)`` holds.

    The oracles' algorithm without the integral bracket: drop everything
    past a remainder-bound threshold.  Each chunk's sum is rounded once and the
    chunk sums are added by fsum again, so the total is within a few ulps of
    the exact partial sum.
    """
    parts = []
    lo = 1
    while lo <= n_last:
        assume(lo <= REFERENCE_TERMS)
        top = min(n_last, lo + (1 << 16) - 1)
        parts.append(math.fsum(term(np.arange(lo, top + 1, dtype=float)).tolist()))
        if stop is not None and stop(math.fsum(parts)):
            break
        lo = top + 1
    return math.fsum(parts)


@pytest.fixture()
def summed_cells(monkeypatch):
    """Cells that each ``_chunked_sum`` call made by ``glsreg.simulate`` hands to its term, one count per call."""
    counts = []
    chunked = simulate_module._chunked_sum

    def counting(term, lo, hi, stop=None):
        counts.append(0)

        def counted(n):
            counts[-1] += n.size
            return term(n)

        return chunked(counted, lo, hi, stop)

    monkeypatch.setattr(simulate_module, "_chunked_sum", counting)
    return counts


@pytest.fixture()
def gammaincc_calls(monkeypatch):
    """Argument tuples of the ``special.gammaincc`` calls that ``glsreg.simulate`` makes."""
    calls = []

    class Counting:
        def __getattr__(self, name):
            return getattr(special, name)

        @staticmethod
        def gammaincc(*args):
            calls.append(args)
            return special.gammaincc(*args)

    monkeypatch.setattr(simulate_module, "special", Counting())
    return calls


def fresh_stream_column(plan, n):
    """Z_n of every trajectory of a plan: trajectory j reads word j of a fresh Philox(key=(seed, n))."""
    gen = np.random.Generator(np.random.Philox(key=np.asarray([plan.seed, n], dtype=np.uint64)))
    u = gen.random(plan.trajectories)
    if isinstance(plan.model, ExponentialPower):
        magnitudes = -np.log1p(-u)
    else:
        magnitudes = math.sqrt(2.0) * special.erfinv(u)
    return magnitudes * np.asarray([float(n)]) ** (-plan.alpha)


def fresh_stream_batch(plan):
    """A plan's Z_n from fresh streams, one trajectory per row, and delta_n at its columns."""
    n_idx = np.arange(plan.index_start, resolve_n_last(plan) + 1, dtype=float)
    batch = np.column_stack([fresh_stream_column(plan, int(n)) for n in n_idx])
    return batch, n_idx ** (-(plan.alpha - plan.eps))


def fresh_stream_eta(plan):
    """The regulator of every trajectory of a plan, from ``fresh_stream_batch``."""
    batch, delta = fresh_stream_batch(plan)
    return (np.abs(batch) / delta).max(axis=1)


def pass_blocks(plan):
    """(rows, a copy of the block) for every index block of the one column pass over a plan."""
    blocks = []
    simulate_trajectories(plan, lambda rows, block: blocks.append((rows, block.copy())))
    return blocks


def pass_batch(plan):
    """Every Z_n of a plan read through the one column pass, one trajectory per row."""
    return np.vstack([block for _, block in pass_blocks(plan)]).T


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

    @pytest.mark.parametrize("index_start", [2.5, 2.0, "2", None])
    def test_index_start_is_an_integer_everywhere(self, index_start):
        # one gate: a float start once built a model that simulate_eta could not run, and the
        # oracles answered between the tails of two integer starts
        calls = [
            lambda: ExponentialPower(alpha=1.0, index_start=index_start),
            lambda: GaussianPower(alpha=1.0, index_start=index_start),
            lambda: exact_eta_tail(1.0, 0.5, 1.0, index_start=index_start),
            lambda: exact_eta_moment(1.0, 0.5, 1.5, index_start=index_start),
            lambda: bonferroni_sums(0.5, 1.0, index_start=index_start),
            lambda: exp_power_sum(1.0, 0.5, index_start=index_start),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="index_start must be an integer >= 1"):
                call()

    def test_index_start_takes_numpy_integers(self):
        start = np.int64(2)
        assert ExponentialPower(alpha=1.0, index_start=start).index_start == 2
        assert exact_eta_tail(1.0, 0.5, 1.0, index_start=start) == exact_eta_tail(1.0, 0.5, 1.0, index_start=2)


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

    @pytest.mark.parametrize("c, gamma, rho", [(1e-200, 0.5, 5e-7), (1e-300, 0.25, 1e-12), (1e-300, 1.0, 1e-4)])
    def test_threshold_past_float_range_raises(self, c, gamma, rho, deadline):
        with deadline(1.0), pytest.raises(TruncationInfeasible, match=r"needs n_last > 1e\+300"):
            exp_power_threshold(c, gamma, rho)

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
        # the cut, where the term meets 1e-10, is about 2.1e5, so the geometric
        # chunk schedule crosses about 8 boundaries; past it the sum adds the
        # midpoint of the integral bracket [I(N + 1), I(N)]
        n_cut = math.ceil((math.log(1e10) / 0.05) ** 2)
        idx = np.arange(1.0, n_cut + 1.0)
        rest = exp_power_sum_tail_bound(0.05, 0.5, n_cut + 1) + exp_power_sum_tail_bound(0.05, 0.5, n_cut)
        brute = math.fsum(np.exp(-0.05 * idx**0.5)) + 0.5 * rest
        assert exp_power_sum(0.05, 0.5, abs_tol=1e-10) == pytest.approx(brute, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(eps=EPSILONS, u=log_uniform(0.5, 50.0), abs_tol=TOLERANCES)
    def test_sum_within_abs_tol_of_truncated_fsum(self, eps, u, abs_tol):
        n_last = exp_power_threshold(u, eps, abs_tol / 1000.0)
        assume(n_last <= REFERENCE_TERMS)
        reference = truncated_fsum(lambda n: np.exp(-u * n**eps), n_last)
        assert abs(exp_power_sum(u, eps, abs_tol) - reference) <= abs_tol

    def test_sum_start_index_drops_head(self):
        full = exp_power_sum(1.0, 0.5, abs_tol=1e-12)
        late = exp_power_sum(1.0, 0.5, abs_tol=1e-12, index_start=3)
        head = math.exp(-1.0) + math.exp(-math.sqrt(2.0))
        assert late == pytest.approx(full - head, abs=1e-11)

    @pytest.mark.parametrize(
        "call", [lambda: exp_power_sum(28.37, 0.002), lambda: bonferroni_sums(0.0005, 50.0)], ids=["sum", "bonferroni"]
    )
    def test_sum_past_the_float_range_raises_before_summing(self, summed_cells, deadline, call):
        # the terms fall below abs_tol at once, but Gamma(1 + 1/gamma) c**(-1/gamma) passes the
        # float range, so the sum is at least I(2) = inf; the error says so and sums nothing
        with deadline(0.5), pytest.raises(ToleranceUnreachable, match="the sum passes the float range"):
            call()
        assert summed_cells == []

    def test_tail_bound_past_float_range_is_inf(self):
        # Gamma(51) c**(-50) passes the float range at c = 1e-8; a stated bound of +inf still holds
        assert exp_power_sum_tail_bound(1e-8, 0.02, 1) == math.inf
        plan = exp_plan(eps=0.02, truncation=FixedTruncation(n_last=1))
        assert truncation_bound(plan, np.asarray([1e-5, 3.0])) == 1.0

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

    def test_target_past_float_range_is_infeasible(self):
        plan = exp_plan(truncation=TailTargetTruncation(u_min=1e-200))
        with pytest.raises(TruncationInfeasible, match=r"needs n_last > 1e\+300"):
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
        theta = np.empty((3, 10))
        for k, n in enumerate(range(1, 11)):  # index n: one stream, word t for trajectory t
            gen = np.random.Generator(np.random.Philox(key=np.asarray([11, n], dtype=np.uint64)))
            theta[:, k] = -np.log1p(-gen.random(3))
        z = theta * n_idx**-1.0
        for t, sample in enumerate(samples):
            assert sample.value == float(np.max(np.abs(z[t]) / n_idx**-0.5))

    def test_deterministic_and_seed_sensitive(self):
        plan = exp_plan(trajectories=64, seed=3, truncation=FixedTruncation(n_last=32))
        a = [s.value for s in simulate_eta(plan)]
        b = [s.value for s in simulate_eta(plan)]
        assert a == b
        other = exp_plan(trajectories=64, seed=4, truncation=FixedTruncation(n_last=32))
        assert a != [s.value for s in simulate_eta(other)]

    def test_chunked_rows_match_manual_philox_streams(self):
        # 131072 // 3000 = 43 indices a block split indices 1..200 into five blocks, the last one short
        plan = exp_plan(trajectories=3000, seed=9, truncation=FixedTruncation(n_last=200))
        blocks = simulate_module._index_blocks(plan)
        assert [len(b) for b in blocks] == [43, 43, 43, 43, 28]
        values = simulate_eta(plan).value
        n_idx = np.arange(1, 201, dtype=float)
        theta = np.column_stack(
            [
                -np.log1p(-np.random.Generator(np.random.Philox(key=np.asarray([9, n], dtype=np.uint64))).random(3000))
                for n in range(1, 201)
            ]
        )
        np.testing.assert_array_equal(values, (np.abs(theta * n_idx**-1.0) / n_idx**-0.5).max(axis=1))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("width", [1, 3, 5, 39])
    @pytest.mark.parametrize("seed", [12, 2**64 - 1])
    def test_rekeyed_rows_match_fresh_streams_across_chunks(self, monkeypatch, model, width, seed):
        # a row holds one index for all ``width`` trajectories; widths that are not multiples of 4
        # leave a partly used Philox buffer after each row; blocks of 4 rows split indices 4|5 and 8|9
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 4 * width)
        plan = SimulationPlan(
            model=model(alpha=1.0), eps=0.5, trajectories=width, seed=seed, truncation=FixedTruncation(n_last=10)
        )
        eta = simulate_eta(plan).value
        blocks = pass_blocks(plan)
        assert [rows for rows, _ in blocks] == [slice(0, 4), slice(4, 8), slice(8, 10)]
        batch, delta = fresh_stream_batch(plan)
        np.testing.assert_array_equal(np.vstack([block for _, block in blocks]).T, batch)
        np.testing.assert_array_equal(eta, (np.abs(batch) / delta).max(axis=1))

    def test_one_philox_per_chunk(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 13 * 300)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        plan = exp_plan(trajectories=300, seed=21, truncation=FixedTruncation(n_last=50))
        blocks = len(simulate_module._index_blocks(plan))
        assert blocks == 4
        values = simulate_eta(plan).value
        assert 1 <= len(built) <= blocks
        np.testing.assert_array_equal(values, fresh_stream_eta(plan))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", [31, 2**64 - 1])
    def test_draw_depends_only_on_seed_trajectory_and_index(self, monkeypatch, model, seed):
        # Z_n of trajectory j is the same whatever the block size, n_last, index_start or
        # trajectory count (a prefix property: more trajectories only append columns)
        def cells(**kw):
            args = {"trajectories": 10, "index_start": 1, "n_last": 30, **kw}
            plan = SimulationPlan(
                model=model(alpha=1.5, index_start=args["index_start"]),
                eps=0.5,
                trajectories=args["trajectories"],
                seed=seed,
                truncation=FixedTruncation(n_last=args["n_last"]),
            )
            return {
                plan.index_start + rows.start + k: row[:10].copy()
                for rows, block in pass_blocks(plan)
                for k, row in enumerate(block)
            }

        reference = cells()
        assert sorted(reference) == list(range(1, 31))
        variants = [cells(n_last=20), cells(n_last=45), cells(index_start=7), cells(trajectories=25)]
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1)  # one index a block
        variants.append(cells())
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 7 * 10)  # seven indices a block, the last one short
        variants.append(cells())
        for variant in variants:
            shared = sorted(set(variant) & set(reference))
            assert len(shared) >= 20
            for n in shared:
                np.testing.assert_array_equal(variant[n], reference[n])

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        alpha=st.sampled_from([0.75, 1.0, 2.0]),
        seed=st.integers(0, 2**64 - 1),
        trajectories=st.integers(1, 300),
        indices=st.integers(2, 1000).flatmap(
            lambda n_last: st.integers(2, n_last).flatmap(
                lambda m: st.tuples(st.integers(1, m - 1), st.just(m), st.just(n_last))
            )
        ),
    )
    def test_head_pass_folds_into_a_later_start(self, model, alpha, seed, trajectories, indices):
        # row n is keyed by (seed, n) alone and eta is a max, so eta from start k is the elementwise
        # max of a pass over the head rows k..m-1 and eta from start m, bit for bit (T = 300 puts
        # 436 indices in a block, so long heads and tails cross blocks)
        k, m, n_last = indices

        def eta(start, last):
            model_at = model(alpha=alpha, index_start=start)
            plan = SimulationPlan(model_at, 0.5, trajectories, FixedTruncation(n_last=last), seed)
            return simulate_eta(plan).value

        folded = np.maximum(eta(k, m - 1), eta(m, n_last))
        assert folded.tobytes() == eta(k, n_last).tobytes()

    def test_eta_peak_memory_near_one_chunk(self, monkeypatch):
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 20)
        plan = exp_plan(trajectories=3000, seed=5, truncation=FixedTruncation(n_last=1000))
        blocks = simulate_module._index_blocks(plan)
        assert len(blocks) >= 2
        block_bytes = len(blocks[0]) * plan.trajectories * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            values = simulate_eta(plan).value
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * block_bytes
        np.testing.assert_array_equal(values, fresh_stream_eta(plan))

    def test_eta_peak_memory_at_default_chunk(self):
        # 20k rows of width 500 would fill 80 MB; the default block holds about 1 MiB of them
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
        mean = float(pass_batch(plan)[:, 0].mean())  # column 0 holds index 1
        assert mean == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.025)


class TestTrajectoryBatches:
    def test_shape_and_metadata(self):
        plan = exp_plan(trajectories=8, seed=2, start=3, truncation=FixedTruncation(n_last=12))
        blocks = pass_blocks(plan)
        assert [rows for rows, _ in blocks] == [slice(0, 10)]
        block = blocks[0][1]
        assert block.shape == (10, 8) and block.flags.c_contiguous
        for k in range(10):  # row k holds index 3 + k for every trajectory
            np.testing.assert_array_equal(block[k], fresh_stream_column(plan, 3 + k))
        np.testing.assert_array_equal(regulator_delta(plan), np.arange(3, 13, dtype=float) ** -0.5)
        # window starts 3 (the whole block), 12 (its last row) and 13 (past it)
        for n, sups in ((3, np.abs(block).max(axis=0)), (12, np.abs(block[9])), (13, np.zeros(8))):
            np.testing.assert_array_equal(criterion_functional(block, n, 3, out=np.zeros(8)), sups)
        with pytest.raises(DomainError):
            criterion_functional(block, 3, 0, out=np.zeros(8))

    def test_eta_agrees_bitwise_with_batch_reduction(self):
        plan = exp_plan(trajectories=40, seed=6, truncation=FixedTruncation(n_last=25))
        delta = np.arange(1, 26, dtype=float) ** -0.5
        reduced = regulator_ratio_matrix(pass_batch(plan), delta).max(axis=1)
        eta = np.asarray([s.value for s in simulate_eta(plan)])
        np.testing.assert_array_equal(reduced, eta)

    def test_eta_chunks_agree_bitwise_with_batch_reduction(self, monkeypatch):
        # 300 trajectories over indices 1..25 in blocks of 3 indices: the last block is short
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1000)
        plan = exp_plan(trajectories=300, seed=8, truncation=FixedTruncation(n_last=25))
        assert len(simulate_module._index_blocks(plan)) == 9
        reduced = regulator_ratio_matrix(pass_batch(plan), np.arange(1, 26, dtype=float) ** -0.5)
        np.testing.assert_array_equal(reduced.max(axis=1), simulate_eta(plan).value)

    def test_one_pass_is_chunk_invariant(self, monkeypatch):
        # the convergence-diagnostics plan at 1000 trajectories, against columns from fresh Philox streams
        plan = verify._exponential_plan(301, 1000, alpha=2.0)
        width = resolve_n_last(plan)
        assert width == 304
        starts = (1, 10, 100)
        reference, delta = fresh_stream_batch(plan)
        pass_delta = regulator_delta(plan)
        expected_sups = [np.abs(reference[:, n - 1 :]).max(axis=1) for n in starts]
        expected_factors = (np.abs(reference) / delta).max(axis=1)
        records = []
        # one index a block; 7 indices a block with a short last block; the default (131 + 131 + 42)
        for cells, blocks in ((1000, 304), (7 * 1000, 44), (simulate_module._BLOCK_CELLS, 3)):
            monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", cells)
            assert len(simulate_module._index_blocks(plan)) == blocks
            np.testing.assert_array_equal(pass_batch(plan), reference)
            for n, sups in zip(starts, expected_sups):
                running = np.zeros(plan.trajectories)
                simulate_trajectories(
                    plan, lambda rows, block: criterion_functional(block, n, plan.index_start + rows.start, out=running)
                )
                np.testing.assert_array_equal(criterion_terms(running), sups / (1.0 + sups))
            factors = np.zeros(plan.trajectories)
            simulate_trajectories(
                plan, lambda rows, block: extract_regulator(block, pass_delta[rows], out=factors)
            )
            np.testing.assert_array_equal(factors, expected_factors)
            np.testing.assert_array_equal(simulate_eta(plan).value, expected_factors)
            records.append(verify.check_convergence_diagnostics(301, 1000, functools.cache(verify._eta_values)))
        assert records[0] == records[1] == records[2]
        assert [r.estimate for r in records[0][2:]] == [0.0, 0.0]

    def test_diagnostics_check_peak_memory_under_4_mib(self):
        # the check once held a 10k x 394 batch (31.5 MB); its column pass keeps four floats a trajectory
        verify.run_suite(["convergence-diagnostics"], seed=301, trajectories=20_000)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            verify.run_suite(["convergence-diagnostics"], seed=301, trajectories=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak


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

    def test_unreachable_tolerance_past_the_cap_raises_before_summing(self, summed_cells, deadline):
        # the term cut passes the cap, the product stays near 1 and the bracket at the
        # capped cut is 1.2e-11 wide; the moment meets the same tail at one of its nodes
        with deadline(0.5), pytest.raises(ToleranceUnreachable, match="past index 100000001"):
            exact_eta_tail(1.0, 0.05, 10.0)
        assert summed_cells == []
        with deadline(0.5), pytest.raises(ToleranceUnreachable, match="past index 100000001"):
            exact_eta_moment(1.0, 0.1, 1.5)

    @pytest.mark.parametrize("eps, u", [(0.02, 10.0), (0.5, 1e-200)])
    def test_saturated_tail_past_the_cap_returns_before_summing(self, summed_cells, deadline, eps, u):
        # the term cut passes the cap (at u 1e-200 it is about 8e402, past the float range), but
        # the log product is at most -I(1) (about -3e14 at eps 0.02, -inf at u 1e-200), so the
        # tail is 1 within abs_tol; at eps 0.02 the termwise sum once took 33.5M terms to see it
        with deadline(0.5):
            assert exact_eta_tail(1.0, eps, u) == 1.0
        assert summed_cells == []
        assert simulate_module._log_product_ceiling(u, eps, 1) < math.log(1e-12)

    @pytest.mark.parametrize("eps, u, cut", [(0.002, 28.370986119011363, 1), (0.0005, 27.59, 20)])
    def test_saturated_tail_with_an_overflowing_rest_returns_one(self, deadline, eps, u, cut):
        # the terms fall below abs_tol within a few indices, so the term cut is small, but the
        # integral on the rest past it (Gamma(1 + 1/eps) u**(-1/eps) up front) passes the float
        # range; the ceiling -I(1) is then -inf, so the product is below abs_tol and the tail is 1
        assert simulate_module._term_cut(u, eps, 1e-12, 1) == cut
        assert math.isinf(simulate_module._tail_integrals(u, eps, cut)[0])
        with deadline(0.5):
            assert exact_eta_tail(1.0, eps, u) == 1.0

    @pytest.mark.parametrize("eps, u, index_start", [(0.5, 0.3, 1), (0.25, 2.0, 1), (0.5, 1.0, 40), (0.9, 5.0, 3)])
    def test_log_product_ceiling_bounds_the_log_product(self, eps, u, index_start):
        idx = np.arange(float(index_start), 2_000_000.0)
        log_product = math.fsum(np.log1p(-np.exp(-u * idx**eps)))
        assert log_product <= simulate_module._log_product_ceiling(u, eps, index_start)

    @pytest.mark.parametrize("eps, u, index_start", [(0.5, 0.3, 1), (0.25, 2.0, 1), (0.5, 1.0, 40), (0.9, 5.0, 3)])
    def test_log_product_floor_bounds_the_log_product(self, eps, u, index_start):
        idx = np.arange(float(index_start), 2_000_000.0)
        log_product = math.fsum(np.log1p(-np.exp(-u * idx**eps)))
        assert simulate_module._log_product_floor(u, eps, index_start) <= log_product

    @settings(max_examples=30, deadline=None)
    @given(eps=EPSILONS, u=log_uniform(1e-3, 100.0), abs_tol=TOLERANCES)
    def test_within_abs_tol_of_truncated_fsum(self, eps, u, abs_tol):
        ref_tol = abs_tol / 1000.0
        log_product = truncated_fsum(
            lambda n: np.log1p(-np.exp(-u * n**eps)),
            exp_power_threshold(u, eps, ref_tol),
            lambda total: total <= math.log(ref_tol),
        )
        reference = min(1.0, -math.expm1(log_product))
        assert abs(exact_eta_tail(1.0, eps, u, abs_tol) - reference) <= abs_tol

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


class TestTermCut:
    def test_sums_stop_where_the_term_meets_the_tolerance(self, summed_cells):
        # a sum that drops its remainder runs to the remainder-bound threshold, 3.3e6 here
        cut = math.ceil(math.log(1e13) ** 4)
        exact_eta_tail(1.0, 0.25, 1.0, abs_tol=1e-13)
        exp_power_sum(1.0, 0.25, abs_tol=1e-13)
        assert len(summed_cells) == 2
        assert max(summed_cells) <= cut

    @pytest.mark.parametrize(
        "oracle, calls",
        [
            (lambda: exp_power_sum(1.0, 0.5), 1),
            (lambda: exact_eta_tail(1.0, 0.5, 10.0), 1),
            # at u 0.01 the product stop fires before the bracket, which then costs nothing
            (lambda: (exact_eta_tail(1.0, 0.5, 10.0), exact_eta_tail(1.0, 0.5, 0.01)), 1),
            (lambda: bonferroni_sums(0.5, 1.0), 2),
        ],
        ids=["exp_power_sum", "exact_eta_tail", "exact_eta_tail-product-stop", "bonferroni_sums"],
    )
    def test_one_gammaincc_call_per_bracket(self, gammaincc_calls, oracle, calls):
        oracle()
        assert len(gammaincc_calls) == calls


class TestBonferroni:
    def test_frozen_values(self):
        s1, s2 = bonferroni_sums(0.5, 1.0)
        assert s1 == pytest.approx(1.6704068179653595, abs=1e-11)
        assert s2 == pytest.approx(1.2544063681904971, abs=1e-11)

    @pytest.mark.parametrize("u", [1e-4, 0.05, 1e-300])
    def test_unreachable_tolerance_raises_before_summing(self, u, summed_cells, deadline):
        # the term cut asks for 5.8e21 terms at u 1e-4, 9.3e10 at u 0.05 and
        # about 6e1205 at u 1e-300, which overflows a float
        with deadline(1.0), pytest.raises(ToleranceUnreachable, match="terms"):
            bonferroni_sums(0.25, u)
        assert summed_cells == []

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 2.0])
    def test_eps_outside_unit_interval_rejected(self, eps):
        with pytest.raises(InvalidEpsilon):
            bonferroni_sums(eps, 1.0)

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

    def test_small_eps_raises_a_typed_error(self):
        # the remainder's head at U = 32 would span 1.3e10 (eps 0.02) and 1e40 (eps 0.005)
        # indices: its bound is +inf instead, the cut doubles, and the quadrature raises
        for eps in (0.02, 0.005):
            assert _moment_tail_remainder(eps, 1.5, 32.0, 1) == math.inf
            start = time.perf_counter()
            with pytest.raises(GLSError):
                exact_eta_moment(1.0, eps, 1.5)
            assert time.perf_counter() - start < 1.0

    def test_remainder_past_a_float_is_infinite(self):
        # the tail's log bound is 1980 here, so e**700 would bound nothing
        assert _moment_tail_remainder(0.001, 1.5, 51.0, 1) == math.inf
        # the head's passes a float at the first cut U = 4p of exact_eta_moment(1, 0.002, 400)
        assert _moment_tail_remainder(0.002, 400.0, 1600.0, 1) == math.inf

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
        model = plan_from_config(
            {"model": {"kind": "exponential_power", "alpha": 2.0, "index_start": 3}, "eps": 0.5, "trajectories": 1}
        ).model
        assert isinstance(model, ExponentialPower)
        assert model.alpha == 2.0 and model.index_start == 3
        model = plan_from_config({"model": {"kind": "gaussian_power", "alpha": 1.0}, "eps": 0.5, "trajectories": 1}).model
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
        assert plan == exp_plan(trajectories=100, seed=9, truncation=FixedTruncation(n_last=25))

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
        assert plan.seed == 0


class TestEtaRecords:
    def test_one_float_value_field(self):
        samples = simulate_eta(exp_plan(trajectories=7, truncation=FixedTruncation(n_last=10)))
        assert isinstance(samples, np.recarray)
        assert samples.dtype.names == ("value",) and samples.value.dtype == np.float64
        assert len(samples) == 7 and samples[3].value == samples.value[3]
