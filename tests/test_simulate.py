"""Trajectory simulation, certified truncation, and exact-model oracles."""

import decimal
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special

from glsreg import moments as moments_module
from glsreg import simulate as simulate_module
from glsreg import verify
from glsreg.bounds import regulator_lp_bound
from glsreg.criteria import criterion_functional, criterion_terms, extract_regulator, regulator_ratio_matrix
from glsreg.errors import (
    DomainError,
    InvalidEpsilon,
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
# costs about 60 ms per 1e6 terms; the heaviest catalogue input (eps 0.25, u 1,
# abs_tol 1e-13) needs 6.3e6
REFERENCE_TERMS = 1 << 23


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def truncated_fsum(term, n_last, stop=None, index_start=1):
    """sum_{n=index_start}^{n_last} term(n) by math.fsum, ending after the first chunk where ``stop(total)`` holds.

    The oracles' algorithm without the integral bracket: drop everything
    past a remainder-bound threshold.  Each chunk's sum is rounded once and the
    chunk sums are added by fsum again, so the total is within a few ulps of
    the exact partial sum.
    """
    parts = []
    lo = index_start
    while lo <= n_last:
        assume(lo - index_start < REFERENCE_TERMS)
        top = min(n_last, lo + (1 << 16) - 1)
        parts.append(math.fsum(term(np.arange(lo, top + 1, dtype=float)).tolist()))
        if stop is not None and stop(math.fsum(parts)):
            break
        lo = top + 1
    return math.fsum(parts)


# gamma -> rates c of the kernel property: at gamma 0.25 and c in [0.75, 1.5] the
# product neither stops nor reaches its remainder threshold within 2**22 terms, so
# random draws skip that band for time; an explicit example covers c = 1
KERNEL_RATES = {
    0.25: st.one_of(log_uniform(1e-6, 0.75), log_uniform(1.5, 100.0)),
    0.75: log_uniform(1e-6, 100.0),
    1.0: log_uniform(1e-6, 100.0),
    2.0: log_uniform(1e-6, 100.0),
}

# (gamma, c, index_start) at which the floor and ceiling of the log product are checked
LOG_PRODUCT_BOUND_CASES = [
    (0.5, 0.3, 1),
    (0.25, 2.0, 1),
    (0.5, 1.0, 40),
    (0.9, 5.0, 3),
    (2.0, 1e-3, 1),
    (0.75, 0.3, 100),
    (2.0, 1e-4, 100),
]


@functools.cache
def fsum_log_product(c, gamma, index_start):
    """sum_{n=index_start}^{2e6 - 1} log1p(-exp(-c n**gamma)) by math.fsum; at every bound case its rest is < 1e-27."""
    idx = np.arange(float(index_start), 2_000_000.0)
    return math.fsum(np.log1p(-np.exp(-c * idx**gamma)))


# (eps, p, index_start) at which exact_eta_moment is checked against the union bracket;
# eps 0.1 waits for ROADMAP item 27: each of its moments takes about 1 s
UNION_POINTS = [(0.5, p, start) for p in (5.0, 8.0, 12.0, 16.0, 24.0, 32.0, 50.0, 100.0) for start in (1, 2)]
UNION_POINTS += [(0.25, p, start) for p in (9.0, 12.0, 16.0, 24.0, 32.0, 50.0, 100.0) for start in (1, 2)]
# measured: from p 16 the rule's norm lies 1.3e-5 (eps 0.5, n0 1, p 16) up to 2.3e-3 (eps 0.25, n0 2, p 32)
# above the union bound's ceiling, through the exact tails' midpoint error at large u
UNION_BRACKET_OVERSHOOT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the exact tails' midpoint error at large u puts the moment above the union bound "
    "from p 16",
)

# (eps, p, index_start) at which exact_eta_moment is checked against its own refinements
RULE_POINTS = [(0.5, p, start) for p in (1.0, 1.5, 1.8, 1.98, 2.5, 4.0, 6.0) for start in (1, 2)]
RULE_POINTS += [(0.25, p, 1) for p in (1.0, 2.0, 3.5, 4.0, 8.0)]


class TailGrid:
    """The exact tail T(u) = P(eta > u) at n0 = index_start on the grid 0 = u_0 < ... < u_K = upper of K equal steps."""

    def __init__(self, eps, upper, steps, tol=1e-12, index_start=1):
        self.eps, self.upper, self.tol, self.index_start = eps, upper, tol, index_start
        self.u = np.linspace(0.0, upper, steps + 1)
        self.tail = np.asarray(
            [1.0] + [exact_eta_tail(1.0, eps, float(x), abs_tol=tol, index_start=index_start) for x in self.u[1:]]
        )

    def moment_bracket(self, p):
        """[lower, top] on ||eta||_p^p: T never increases, so with w_k = u_{k+1}^p - u_k^p
        sum w_k T(u_{k+1}) <= ||eta||_p^p <= sum w_k T(u_k) + remainder beyond upper; tol upper^p covers T's error."""
        weights = np.diff(self.u**p)
        slack = self.tol * self.upper**p
        lower = float(np.sum(weights * self.tail[1:])) - slack
        remainder = _moment_tail_remainder(self.eps, p, self.upper, self.index_start)
        top = float(np.sum(weights * self.tail[:-1])) + slack + remainder
        return lower, top


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
    """Argument tuples of the calls that ``glsreg.simulate`` makes to its Q(a, x), ``_log_q``."""
    calls = []
    log_q = simulate_module._log_q

    def counting(*args):
        calls.append(args)
        return log_q(*args)

    monkeypatch.setattr(simulate_module, "_log_q", counting)
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


def dense_eta(plan):
    """The regulator of every trajectory from the dense pass: every cell transformed and folded by extract_regulator."""
    delta = regulator_delta(plan)
    factors = np.zeros(plan.trajectories)
    simulate_trajectories(plan, lambda rows, block: extract_regulator(block, delta[rows], out=factors))
    return factors


def traced_peak(call):
    """Peak bytes that tracemalloc sees while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


# the a the Q(a, x) tests probe: 1/eps - 1 (the moment remainder) and 1/gamma (the tail integrals) across
# eps and gamma in (0, 1), from 0.001 (eps 0.999) and 1/0.95 - 1 through eps 0.9, 0.75, 0.25, 0.05 and
# 0.002 to 10000 (eps or gamma 1e-4)
GAMMA_Q_A = [0.001, 1.0 / 0.95 - 1.0, 0.111, 0.5, 1.0, 4.0 / 3.0, 2.0, 4.0, 20.0, 500.0, 1000.0, 2000.0, 10000.0]


def gamma_q_points(a):
    """x across the seam x = a + 1 of _log_q's two methods, through the bulk and out past Q's underflow."""
    seam = [a + 1.0 + d for d in (-1e-9, 0.0, 1e-9)]
    bulk = [a + k * math.sqrt(a) for k in (-3.0, -1.0, -0.25, 0.5, 2.0, 6.0)]
    return [x for x in [1e-6, 1e-3, 0.1, 0.9 * a, *seam, *bulk, 3.0 * a + 50.0, 10.0 * a + 800.0, 1e6] if x > 0.0]


def q_budget(a, x):
    """_log_q's stated budget d at (a, x)."""
    log_gamma = simulate_module._log_gamma(a)
    return moments_module._LOG_GAMMA_ERR * (1.0 + abs(log_gamma)) + simulate_module._Q_ERR * (
        1.0 + x + a * abs(math.log(x))
    )


class TestGammaFunctions:
    @pytest.mark.parametrize("a", GAMMA_Q_A)
    def test_log_q_lies_within_its_bound_of_mpmath(self, a):
        mpmath = pytest.importorskip("mpmath")
        xs = gamma_q_points(a)
        for x, got in zip(xs, simulate_module._log_q(a, xs)):
            with mpmath.workprec(140):
                upper = mpmath.gammainc(a, x, regularized=True)
                lower = mpmath.gammainc(a, 0, x, regularized=True)
                ref = float(mpmath.log(upper) if lower > 0.5 else mpmath.log1p(-lower))
                ratio = float(lower / upper)
            widest = 2.0 * q_budget(a, x) * max(1.0, ratio)
            assert ref <= got <= ref + widest, (a, x, got, ref, widest)

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 10, 40])
    def test_log_q_of_integer_a_lies_within_its_bound_of_the_closed_form(self, a):
        # Q(n, x) = e**-x sum_{k < n} x**k / k!, in 400-digit decimals: enough to resolve 1 - Q = 1e-288
        with decimal.localcontext() as ctx:
            ctx.prec = 400
            xs = gamma_q_points(float(a))
            for x, got in zip(xs, simulate_module._log_q(float(a), xs)):
                x_dec = decimal.Decimal(x)
                q = (-x_dec).exp() * sum(x_dec**k / math.factorial(k) for k in range(a))
                ref = float(q.ln())
                widest = 2.0 * q_budget(a, x) * max(1.0, float(1 / q - 1))
                assert ref <= got <= ref + widest, (a, x, got, ref, widest)

    def test_log_q_ends(self):
        assert simulate_module._log_q(2.0, [0.0, math.inf]) == [0.0, -math.inf]


class TestExpPowerCertified:
    def test_threshold_frozen_value(self):
        assert exp_power_threshold(1.0, 0.5, 1e-6) == 304

    @pytest.mark.parametrize(
        "c, gamma, rho, n",
        [
            (0.5, 1.0, 1e-08, 39),
            (0.5, 1.0, 1e-3 / 3000, 32),
            (1.0, 0.5, 1e-08, 496),
            (1.0, 0.5, 5e-08, 424),
            (1.0, 0.5, 1e-07, 394),
            (1.0, 0.5, 5e-07, 330),
        ],
    )
    def test_threshold_of_every_shipped_plan(self, c, gamma, rho, n):
        # every threshold that configs/*.json, the verify catalogue and the benchmark workloads ask
        # for, as scipy's gammainccinv and gammaincc gave it
        assert exp_power_threshold(c, gamma, rho) == n

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

    @pytest.mark.parametrize(
        "c, gamma, rho",
        [(30.66, 0.01244, 0.3646), (24.0, 0.00518, 4.56e-4), (9.74, 0.0153, 0.568), (1.0, 0.01, 1e-7), (1.0, 0.5, 1e-8)],
    )
    def test_threshold_takes_bounded_work(self, monkeypatch, deadline, c, gamma, rho):
        # a Newton estimate just short of the crossing walked one float step of n per call here:
        # 130 870 calls and 1.5 s at the first input
        calls = []
        bound = simulate_module.exp_power_sum_tail_bound

        def counting(*args):
            calls.append(args)
            return bound(*args)

        monkeypatch.setattr(simulate_module, "exp_power_sum_tail_bound", counting)
        with deadline(0.1):
            n = exp_power_threshold(c, gamma, rho)
        assert len(calls) <= 100
        assert bound(c, gamma, n) <= rho

    @pytest.mark.parametrize(
        "c, gamma, rho",
        [
            (0.5, 1.0, 1e-08),
            (0.5, 1.0, 1e-3 / 3000),
            (1.0, 0.5, 1e-08),
            (1.0, 0.5, 5e-08),
            (1.0, 0.5, 1e-07),
            (1.0, 0.5, 5e-07),
            (1.0, 0.5, 1e-06),
            (30.66, 0.01244, 0.3646),
            (24.0, 0.00518, 4.56e-4),
            (9.74, 0.0153, 0.568),
            (1.0, 0.01, 1e-7),
        ],
    )
    def test_threshold_against_the_true_integral(self, c, gamma, rho):
        # I(n) = Gamma(1 + a) c**(-a) Q(a, c n**gamma), a = 1/gamma, at 140 bits: n meets rho,
        # and up to 2**53 n - 1 does not
        mpmath = pytest.importorskip("mpmath")
        n = exp_power_threshold(c, gamma, rho)
        with mpmath.workprec(140):
            a, c_mp = 1 / mpmath.mpf(gamma), mpmath.mpf(c)

            def integral(m):
                x = c_mp * mpmath.mpf(m) ** mpmath.mpf(gamma)
                return mpmath.gamma(1 + a) * c_mp ** (-a) * mpmath.gammainc(a, x, regularized=True)

            assert integral(n) <= rho, (c, gamma, rho, n)
            if n <= 2**53:
                assert rho < integral(n - 1), (c, gamma, rho, n)

    @pytest.mark.parametrize("n_last", [10**200, 10**400], ids=["power-past-range", "start-past-range"])
    def test_tail_bound_past_the_float_range_of_the_index_power(self, n_last):
        # n**1.6 alone passes the float range at these starts, so c n**1.6 is taken in log space
        assert exp_power_sum_tail_bound(1.0, 1.6, n_last) == 0.0
        assert exp_power_sum_tail_bound(1.0, 1.5, n_last) == 0.0

    def test_threshold_where_only_the_index_power_passes_the_float_range(self, deadline):
        # at c = 5e-321 the threshold lies near 7.2e201, where n**1.6 passes the float range
        # but c n**1.6 is a few hundred
        with deadline(1.0):
            n = exp_power_threshold(5e-321, 1.6, 1e-4)
        assert n > 2**53
        assert exp_power_sum_tail_bound(5e-321, 1.6, n) <= 1e-4 < exp_power_sum_tail_bound(5e-321, 1.6, n // 2)

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
        # the convex cut N, where the bracket width w = c gamma N**(gamma - 1) f(N) / 8 meets
        # 1e-10, is about 5.6e4 (the term cut is 2.1e5), so the geometric chunk schedule
        # crosses 5 boundaries; from N on the sum adds the midpoint of
        # [I(N) + f(N)/2, I(N) + f(N)/2 + w]
        c, gamma = 0.05, 0.5
        idx = np.arange(1.0, 1e5)
        width = c * gamma * idx ** (gamma - 1.0) * np.exp(-c * idx**gamma) / 8.0
        n, convex = simulate_module._cut(c, gamma, 1e-10, 1, simulate_module._term_cut(c, gamma, 1e-10, 1))
        assert convex
        assert width[n - 1] <= 1e-10 < width[int(0.999 * n) - 1]  # within 0.1% of the first such N
        lo = exp_power_sum_tail_bound(c, gamma, n) + 0.5 * math.exp(-c * n**gamma)
        brute = math.fsum(np.exp(-c * idx[: n - 1] ** gamma)) + lo + 0.5 * width[n - 1]
        assert exp_power_sum(c, gamma, abs_tol=1e-10) == pytest.approx(brute, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(eps=EPSILONS, u=log_uniform(0.5, 50.0), abs_tol=TOLERANCES)
    @example(eps=0.25, u=1.0, abs_tol=1e-13)  # the catalogue's heaviest sum
    @example(eps=0.1, u=10.0, abs_tol=1e-10)  # convex cut 147, term cut 4190
    @example(eps=2.0, u=0.01, abs_tol=1e-12)  # the sum crosses t* = 7.1, where f turns convex
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

    def test_tail_bound_refuses_a_non_integer_start(self):
        # I(2.9) = e**-29 / 10 = 2.54e-14 falls below the sum over n > 2.9, 9.36e-14: the start must be an index
        rest = math.fsum(math.exp(-10.0 * n) for n in range(3, 40))
        assert math.exp(-29.0) / 10.0 < rest <= exp_power_sum_tail_bound(10.0, 1.0, 2)
        for start in (2.9, 3.0):
            with pytest.raises(DomainError, match="tail start must be an integer"):
                exp_power_sum_tail_bound(10.0, 1.0, start)


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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: exp_plan(seed=1.5),  # drew the seed-1 stream and reported seed 1.5
            lambda: exp_plan(seed=2.0),
            lambda: exp_plan(trajectories=2.5),  # a bare TypeError deep in numpy
            lambda: FixedTruncation(n_last=10.5),
        ],
        ids=["seed-1.5", "seed-2.0", "trajectories-2.5", "n_last-10.5"],
    )
    def test_integer_fields_refuse_floats(self, build):
        with pytest.raises(DomainError, match="must be an integer"):
            build()

    def test_integer_fields_take_numpy_integers(self):
        plan = exp_plan(trajectories=np.int64(3), seed=np.uint64(2**64 - 1), truncation=FixedTruncation(np.int32(5)))
        assert simulate_eta(plan).value.shape == (3,)

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

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        alpha=st.sampled_from([0.75, 1.0, 2.0]),
        eps=st.sampled_from([0.1, 0.25, 0.5]),
        trajectories=st.integers(1, 300),
        start=st.integers(1, 6),
        extra=st.one_of(st.none(), st.integers(0, 300)),
        seed=st.integers(0, 2**64 - 1),
        block_cells=st.sampled_from([1, 7 * 13, 4096, 1 << 17]),
        fold_cells=st.sampled_from([7, 64, 1000, 1 << 13]),
        refresh=st.sampled_from([1, 1.5, 2, 64]),
    )
    @example(
        model=ExponentialPower, alpha=1.0, eps=0.5, trajectories=100_000, start=1, extra=39, seed=42,
        block_cells=1 << 17, fold_cells=1 << 13, refresh=2,
    )
    def test_thresholded_fold_equals_dense_pass(
        self, model, alpha, eps, trajectories, start, extra, seed, block_cells, fold_cells, refresh
    ):
        # simulate_eta transforms only the cells above each trajectory's skip threshold; the dense
        # pass transforms every cell, so the two agree bit for bit only if no skipped cell could
        # raise a factor.  extra None is a tail-target truncation (at eps 0.5: n_last 16 to 261);
        # 7 and 1000 cells split rows into pieces, and a refresh ratio of 1 re-reads every tile
        if extra is None:
            eps, truncation = 0.5, TailTargetTruncation()
        else:
            truncation = FixedTruncation(n_last=start + extra)
        plan = SimulationPlan(model(alpha=alpha, index_start=start), eps, trajectories, truncation, seed)
        with mock.patch.multiple(
            simulate_module, _BLOCK_CELLS=block_cells, _FOLD_CELLS=fold_cells, _REFRESH_RATIO=refresh
        ):
            assert simulate_eta(plan).value.tobytes() == dense_eta(plan).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.one_of(
            st.floats(-(2.0**-51), 1.0 - 2.0**-51),
            st.floats(0.0, 0.5, exclude_max=True),  # floats finer than 2**-53
            st.integers(0, 2**53 - 4).map(lambda k: k * 2.0**-53),
        ),
        words=st.lists(st.integers(0, 2**64 - 1), max_size=8),
    )
    @example(t=-(2.0**-51), words=[0])
    @example(t=-5e-324, words=[2**11 - 1])
    @example(t=0.0, words=[0, 2**11 - 1, 2**11])
    @example(t=3 * 2.0**-53, words=[])
    @example(t=0.25 + 2.0**-55, words=[])
    @example(t=1.0 - 2.0**-51, words=[2**64 - 1])
    def test_word_threshold_admits_exactly_the_uniforms_above_t(self, t, words):
        # the fold compares Philox words w with W(t) instead of their uniforms (w >> 11) 2**-53 with t;
        # the two tests must agree on every word, most of all on K 2**11 - 1 and K 2**11, either side
        # of the threshold's K = floor(t 2**53) + 1
        k = max(0, math.floor(t * 2.0**53) + 1)
        threshold = int(simulate_module._word_thresholds(np.array([t]))[0])
        assert threshold == k * 2**11
        words = np.array(words + [k * 2**11] + [k * 2**11 - 1] * (k > 0), dtype=np.uint64)
        uniforms = simulate_module._uniforms(words.copy())
        assert uniforms.tolist() == [(int(w) >> 11) / 2**53 for w in words]
        np.testing.assert_array_equal(words >= np.uint64(threshold), uniforms > t)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("fold_cells", [6, 9])
    def test_word_pieces_that_split_the_philox_buffer_match_fresh_streams(self, monkeypatch, model, fold_cells):
        # rows of 17 words go in pieces of 6, 6, 5 or 9, 8, so most pieces start inside Philox's 4-word
        # buffer: in the fold's fresh draws and in the dense pass's rows alike.  A tile of 6 passes whole
        # from its first passing cell on; tiles of 9 and 8 also take the gather branch.  The cells the
        # fold transforms are the ones a float test u > t_j admits, replayed on the same words
        monkeypatch.setattr(simulate_module, "_FOLD_CELLS", fold_cells)
        plan = SimulationPlan(model(alpha=1.0), 0.5, 17, FixedTruncation(n_last=200), 2**64 - 3)
        events, converted = [], []
        uniform_tiles, skip_thresholds, uniforms = (
            simulate_module._uniform_tiles, simulate_module._skip_thresholds, simulate_module._uniforms
        )

        def recorded_tiles(plan, cells):
            for indices, columns, tile in uniform_tiles(plan, cells):
                events.append((columns, tile.copy()))
                yield indices, columns, tile

        def recorded_thresholds(*args, **kwargs):
            thresholds = skip_thresholds(*args, **kwargs)
            events.append(thresholds.copy())
            return thresholds

        def counted_uniforms(words):
            converted.append(words.size)
            return uniforms(words)

        with mock.patch.multiple(
            simulate_module,
            _uniform_tiles=recorded_tiles,
            _skip_thresholds=recorded_thresholds,
            _uniforms=counted_uniforms,
        ):
            eta = simulate_eta(plan).value
        np.testing.assert_array_equal(eta, fresh_stream_eta(plan))
        np.testing.assert_array_equal(pass_batch(plan), fresh_stream_batch(plan)[0])
        # a read follows its tile's event and holds for that tile; the first tiles admit every cell
        thresholds, admitted, branches = np.full(plan.trajectories, -1.0), 0, set()
        for event, after in zip(events, events[1:] + [None]):
            if isinstance(event, np.ndarray):
                continue
            columns, words = event
            if isinstance(after, np.ndarray):
                thresholds = after
            count = np.count_nonzero((words >> 11) * 2.0**-53 > thresholds[columns])
            whole = 8 * count > words.size
            admitted += words.size if whole else count
            branches.add("whole" if whole else "gather" if count else "skip")
        assert sum(converted) == admitted
        assert branches == ({"whole", "skip"} if fold_cells == 6 else {"whole", "gather", "skip"})

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(MODELS),
        alpha=st.sampled_from([0.75, 1.0, 2.0]),
        eps=st.sampled_from([0.01, 0.1, 0.5, 0.7]),
        index=st.integers(1, 10**6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_skip_threshold_lies_below_every_cell_that_raises(self, model, alpha, eps, index, seed):
        # each trajectory's factor is the ratio of its own cell u at the read's row, as when that
        # cell has just set it; the next float above u at that row and u itself at the next rows
        # must then pass the skip test wherever their computed ratio is larger.  The uniforms are
        # the plan's own draws plus the floats next to 0 and next to 1, where g is steep
        assume(eps < alpha)
        plan = SimulationPlan(
            model(alpha=alpha, index_start=index), eps, 4096, FixedTruncation(n_last=index + 3), seed
        )
        words = next(simulate_module._uniform_tiles(plan, 4096))[2][0]
        u = np.concatenate(
            [
                np.minimum(simulate_module._uniforms(words), 1.0 - 2.0**-52),
                2.0**-53 * np.arange(1, 65),
                1.0 - 2.0**-53 * np.arange(2, 66),
                1.0 - 2.0 ** -np.arange(2, 53),
            ]
        )  # every next float lies below 1, as every draw does
        scale, delta = simulate_module._index_powers(plan, -plan.alpha), regulator_delta(plan)

        def ratios(k, cells):
            magnitudes = plan.model.draw_magnitudes(cells.copy())
            return regulator_ratio_matrix(magnitudes * scale[k], delta[k])

        factors = ratios(0, u)
        thresholds = simulate_module._skip_thresholds(plan.model, factors, scale[0] / delta[0], np.empty_like(u))
        for k, cells in ((0, np.nextafter(u, 1.0)), (1, u), (3, u), (3, np.nextafter(u, 1.0))):
            raises = ratios(k, cells) > factors
            assert np.all(cells[raises] > thresholds[raises])

    def test_eta_peak_memory_near_one_chunk(self, monkeypatch):
        # the fold draws tiles of _FOLD_CELLS cells; at the size of the dense block it holds about one
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 20)
        monkeypatch.setattr(simulate_module, "_FOLD_CELLS", 1 << 20)
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
        assert traced_peak(lambda: simulate_eta(plan)) < (4 << 20) + eta_bytes
        # at 100k trajectories a dense block is one row, 8 bytes a trajectory; the thresholded fold
        # holds its skip thresholds instead and draws the row in small tiles, so it stays at the
        # dense pass's level (1.63 MiB), where a tile of one whole row would not
        wide = exp_plan(trajectories=100_000, seed=5, truncation=FixedTruncation(n_last=40))
        assert traced_peak(lambda: simulate_eta(wide)) <= traced_peak(lambda: dense_eta(wide))

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
            per_sample = (exp_power_sum_tail_bound(*plan.model.tail_exponent(v, plan.eps), n_last) for v in values)
            reference = max(min(1.0, bound) for bound in per_sample)
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

    def test_tail_past_the_term_cap_lies_in_the_integral_bracket(self, summed_cells, deadline):
        # the term cut passes the cap and the integral bracket at the capped cut is 1.2e-11
        # wide, so this raised; the convex cut is 1.2e4.  Reference: an fsum over 2**22
        # terms plus the integral-test bracket on the rest past them, about 5e-10 wide
        with deadline(0.5):
            value = exact_eta_tail(1.0, 0.05, 10.0)
        assert sum(summed_cells) <= 10**5
        n = 1 << 22
        head = math.fsum(np.log1p(-np.exp(-10.0 * np.arange(1.0, n + 1.0) ** 0.05)))
        i_n, i_next = simulate_module._tail_integrals(10.0, 0.05, n, n + 1)
        floor, ceiling = head + i_n / math.expm1(-10.0 * (n + 1) ** 0.05), head - i_next
        assert -math.expm1(ceiling) - 1e-12 <= value <= -math.expm1(floor) + 1e-12

    @pytest.mark.parametrize("eps, u", [(0.02, 10.0), (0.5, 1e-200)])
    def test_saturated_tail_past_the_cap_returns_before_summing(self, summed_cells, deadline, eps, u):
        # the term cut passes the cap (at u 1e-200 it is about 8e402, past the float range), but
        # the log product is at most -I(1) (about -3e14 at eps 0.02, -inf at u 1e-200), so the
        # tail is 1 within abs_tol; at eps 0.02 the termwise sum once took 33.5M terms to see it
        with deadline(0.5):
            assert exact_eta_tail(1.0, eps, u) == 1.0
        assert summed_cells == []
        assert simulate_module._log_rest(u, eps, 1, False)[1] < math.log(1e-12)

    @pytest.mark.parametrize("eps, u, cut", [(0.002, 28.370986119011363, 1), (0.0005, 27.59, 20)])
    def test_saturated_tail_with_an_overflowing_rest_returns_one(self, deadline, eps, u, cut):
        # the terms fall below abs_tol within a few indices, so the term cut is small, but the
        # integral on the rest past it (Gamma(1 + 1/eps) u**(-1/eps) up front) passes the float
        # range; the ceiling -I(1) is then -inf, so the product is below abs_tol and the tail is 1
        assert simulate_module._term_cut(u, eps, 1e-12, 1) == cut
        assert math.isinf(simulate_module._tail_integrals(u, eps, cut)[0])
        with deadline(0.5):
            assert exact_eta_tail(1.0, eps, u) == 1.0

    @pytest.mark.parametrize("gamma, c, index_start", LOG_PRODUCT_BOUND_CASES)
    def test_log_product_ceiling_bounds_the_log_product(self, gamma, c, index_start):
        assert fsum_log_product(c, gamma, index_start) <= simulate_module._log_rest(c, gamma, index_start, False)[1]

    @pytest.mark.parametrize("gamma, c, index_start", LOG_PRODUCT_BOUND_CASES)
    def test_log_product_floor_bounds_the_log_product(self, gamma, c, index_start):
        assert simulate_module._log_rest(c, gamma, index_start, False)[0] <= fsum_log_product(c, gamma, index_start)

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

    @settings(max_examples=40, deadline=None)
    @given(
        gamma_and_c=st.sampled_from(sorted(KERNEL_RATES)).flatmap(
            lambda gamma: st.tuples(st.just(gamma), KERNEL_RATES[gamma])
        ),
        index_start=st.sampled_from([1, 2, 10, 100]),
        abs_tol=TOLERANCES,
    )
    @example(gamma_and_c=(0.25, 1.0), index_start=1, abs_tol=1e-13)  # the catalogue's heaviest tail
    @example(gamma_and_c=(0.1, 10.0), index_start=1, abs_tol=1e-10)
    @example(gamma_and_c=(2.0, 0.01), index_start=1, abs_tol=1e-12)  # crosses t* = 7.1
    def test_kernel_within_abs_tol_of_truncated_fsum(self, gamma_and_c, index_start, abs_tol):
        gamma, c = gamma_and_c
        ref_tol = abs_tol / 1000.0
        log_product = truncated_fsum(
            lambda n: np.log1p(-np.exp(-c * n**gamma)),
            exp_power_threshold(c, gamma, ref_tol),
            lambda total: total <= math.log(ref_tol),
            index_start,
        )
        kernel = simulate_module._log_product(c, gamma, abs_tol, index_start)
        assert abs(math.expm1(kernel) - math.expm1(log_product)) <= abs_tol

    def test_kernel_rest_below_the_tolerance_returns_its_top_end(self, summed_cells):
        # convexity: the convex cut is index_start itself and the rest is about 151, so its I_2
        # part alone is 3.5e-4 wide, more than 2 abs_tol; integral test: the term cut is 1 and
        # the bracket on the rest from 2 is 7.69 wide.  In both the rest's top end already puts
        # the product below abs_tol, so the kernel returns that end: nothing or one cell summed
        cases = [(2e-5, 1.0, 1e-4, 290_000, True), (28.062258499190293, 0.01, 1e-12, 1, False)]
        for c, gamma, abs_tol, index_start, convex in cases:
            n, cut_is_convex = simulate_module._cut(
                c, gamma, abs_tol, index_start, simulate_module._term_cut(c, gamma, abs_tol, index_start)
            )
            assert cut_is_convex == convex
            lo, hi = simulate_module._log_rest(c, gamma, n, convex)
            assert hi - lo > 2.0 * abs_tol
            assert simulate_module._log_product(c, gamma, abs_tol, index_start) <= math.log(abs_tol)
        assert summed_cells == [0, 1]

    def test_kernel_unreachable_rest_raises_before_summing(self, summed_cells, deadline):
        # from index 5e7 the term cut passes the cap, and the floor on the log product (-22.13)
        # sits above ln(1e-13) (-29.93), so no sum could stop the kernel: the 1.49e-6 wide
        # bracket on the rest past the capped cut raises before any cell is summed
        with deadline(0.5), pytest.raises(ToleranceUnreachable, match="bracketed only to 1.49e-06"):
            exact_eta_tail(1.0, 0.1, 2.54691843897454, 1e-13, 50_000_000)
        assert summed_cells == []

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

    def test_tail_lies_in_the_unit_interval_at_every_return_of_the_kernel(self):
        # _log_product is <= 0 at each return, so -expm1 of it needs no clamp at 1.  The grid
        # reaches the cap's -inf (eps 0.02 up to u 10), the stopped product (eps 0.5 at u 0.05)
        # and the midpoint (every eps at u 50); the last point reaches the rest's top end
        points = [
            (eps, u, start)
            for eps in (0.02, 0.25, 0.5, 0.9)
            for u in (1e-3, 0.05, 1.0, 10.0, 50.0, 300.0)
            for start in (1, 7)
        ] + [(0.01, 28.062258499190293, 1)]
        for eps, u, start in points:
            assert 0.0 <= exact_eta_tail(1.0, eps, u, index_start=start) <= 1.0, (eps, u, start)

    @pytest.mark.parametrize("u, index_start", [(800.0, 1), (700.0, 3), (1e300, 1)])
    def test_tail_past_every_term_is_plus_zero(self, u, index_start):
        # every factor rounds to 1 here; the tail read -0.0
        assert math.copysign(1.0, exact_eta_tail(1.0, 0.5, u, index_start=index_start)) == 1.0

    @pytest.mark.parametrize(
        "oracle",
        [lambda u: exact_eta_tail(1.0, 0.5, u), lambda u: bonferroni_sums(0.5, u)],
        ids=["exact_eta_tail", "bonferroni_sums"],
    )
    @pytest.mark.parametrize("u", [math.inf, math.nan, 0.0, -1.0])
    def test_oracles_share_one_threshold_check(self, oracle, u):
        with pytest.raises(DomainError, match="tail threshold must be finite and positive"):
            oracle(u)

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

    def test_convex_cut_sums_few_cells(self, summed_cells):
        # the term cut is 2.66e7 and summed 26.6M cells; the kernel's convex cut is about 8.1e4
        exact_eta_tail(1.0, 0.1, 5.0)
        assert sum(summed_cells) <= 10**5

    def test_bonferroni_check_sums_few_cells(self, summed_cells):
        # 150 tails and 300 sums at abs_tol 1e-13: the term cuts summed 5.3M cells, the convex cuts 0.81M
        verify.run_suite(["bonferroni-sandwich"])
        assert sum(summed_cells) <= 10**6

    @pytest.mark.parametrize(
        "oracle, calls",
        [
            (lambda: exp_power_sum(1.0, 0.5), 1),
            (lambda: exact_eta_tail(1.0, 0.5, 10.0), 1),
            # at u 0.01 the product stop fires before the bracket, which then costs nothing
            (lambda: (exact_eta_tail(1.0, 0.5, 10.0), exact_eta_tail(1.0, 0.5, 0.01)), 1),
            (lambda: bonferroni_sums(0.5, 1.0), 2),
            # the integral-test bracket lies wholly below ln(abs_tol): its top end is returned
            (lambda: exact_eta_tail(1.0, 0.01, 28.062258499190293), 1),
        ],
        ids=[
            "exp_power_sum",
            "exact_eta_tail",
            "exact_eta_tail-product-stop",
            "bonferroni_sums",
            "exact_eta_tail-top-end",
        ],
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

    def test_threshold_whose_double_overflows(self):
        # 2u reads inf here, and sigma1(2u) <= sigma1(u) = 0.0; this raised "exponential rate must be positive"
        assert bonferroni_sums(0.5, 1e308) == (0.0, 0.0)

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
        # past p = 1/eps, where the moments were once refused
        past = {1: (2.009952, 2.420825, 3.079452, 5.296423), 2: (1.613427, 1.865740, 2.280208, 3.772402)}
        for start, values in past.items():
            for p, value in zip((2.5, 4.0, 6.0, 12.0), values):
                assert exact_eta_moment(1.0, 0.5, p, index_start=start) == pytest.approx(value, rel=1e-6)

    def test_independent_quadrature(self):
        # trapezoid on a dense grid of the same exact tail, p = 1
        u = np.linspace(1e-6, 64.0, 20_001)
        tail = np.asarray([exact_eta_tail(1.0, 0.5, float(x), abs_tol=1e-10) for x in u])
        trapezoid = float(np.trapezoid(tail, u))
        assert exact_eta_moment(1.0, 0.5, 1.0) == pytest.approx(trapezoid, rel=1e-4)

    def test_monotone_tail_brackets_moment(self):
        # checks the quadrature independently of its own error estimate; at n0 100 and 1000 eta lies
        # near 0.46 and 0.21, below the drop's n0-1 centre, so the head's cut steps down
        for start, tails in (
            (1, TailGrid(0.5, 32.0, 4000)),
            (100, TailGrid(0.5, 10.0, 10000, tol=1e-14, index_start=100)),
            (1000, TailGrid(0.5, 10.0, 30000, tol=1e-14, index_start=1000)),
        ):
            for p in (1.0, 1.5, 1.98, 2.0, 2.5, 4.0, 6.0):
                lower, top = tails.moment_bracket(p)
                moment_p = exact_eta_moment(1.0, 0.5, p, index_start=start) ** p
                assert lower <= moment_p <= top, (start, p)
                assert top - lower <= 1e-2 * moment_p, (start, p)

    def test_tail_evaluations_per_moment(self, monkeypatch):
        # the anchor tail at u = 1, one head tail at e**t_lo, and 16 nodes on each of the 10 panels
        # eps wide from t_lo to t_hi: benchmarks/tracing.py reports this count as
        # simulate.exact_eta_moment.p1.5.tail_evals
        calls = []

        def counting(*args):
            calls.append(args)
            return exact_eta_tail(*args)

        monkeypatch.setattr(simulate_module, "exact_eta_tail", counting)
        exact_eta_moment(1.0, 0.5, 1.5)
        assert len(calls) == 1 + 1 + 16 * 10
        anchor, head, nodes = calls[0][2], calls[1][2], [args[2] for args in calls[2:]]
        assert anchor == 1.0 and head < min(nodes)

    def test_cut_anchor_holds_within_the_tails_abs_tol(self, monkeypatch):
        # the tail at u = 1 may read up to its abs_tol 1e-12 high, far above T(1) = 7.5e-42 at n0 10 000;
        # the cuts rest on a lower bound of T(1), so such a reading may not move them; it moved p 30 by 2.5e-3
        honest = exact_eta_moment(1.0, 0.5, 30.0, index_start=10_000)

        def high_at_one(alpha, eps, u, abs_tol, index_start):
            value = exact_eta_tail(alpha, eps, u, abs_tol, index_start)
            return value + abs_tol if u == 1.0 else value

        monkeypatch.setattr(simulate_module, "exact_eta_tail", high_at_one)
        moved = exact_eta_moment(1.0, 0.5, 30.0, index_start=10_000)
        assert abs(moved - honest) <= simulate_module._MOMENT_REL_TOL * honest

    def test_dominates_first_term_moment(self):
        # eta >= Z_1 pointwise, so ||eta||_p >= Gamma(p+1)^(1/p)
        for p in (1.0, 1.5, 1.9):
            lower = math.exp(special.gammaln(p + 1.0) / p)
            assert exact_eta_moment(1.0, 0.5, p) >= lower * (1.0 - 1e-5)

    def test_rule_stable_under_node_doubling(self, monkeypatch):
        sixteen = [exact_eta_moment(1.0, eps, p, index_start=start) for eps, p, start in RULE_POINTS]
        nodes, weights = np.polynomial.legendre.leggauss(32)
        monkeypatch.setattr(simulate_module, "_GL_NODES", nodes)
        monkeypatch.setattr(simulate_module, "_GL_WEIGHTS", weights)
        for (eps, p, start), value in zip(RULE_POINTS, sixteen):
            assert exact_eta_moment(1.0, eps, p, index_start=start) == pytest.approx(value, rel=1e-9, abs=0.0)

    def test_rule_stable_under_panel_halving(self, monkeypatch):
        # the largest move, 7.6e-10 at eps 0.25 and p 8, is the tails' absolute error at u 20-49
        whole = [exact_eta_moment(1.0, eps, p, index_start=start) for eps, p, start in RULE_POINTS]
        monkeypatch.setattr(simulate_module, "_PANEL_WIDTH", 0.5)
        for (eps, p, start), value in zip(RULE_POINTS, whole):
            assert exact_eta_moment(1.0, eps, p, index_start=start) == pytest.approx(value, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("eps", [0.95, 0.5, 0.02, 0.002])
    def test_moment_is_served_or_refused_on_a_log_grid_of_p(self, eps):
        # every p either gets a finite positive norm, nondecreasing in p, or ToleranceUnreachable where
        # p u**p passes the float range; no OverflowError and no nan
        served = []
        for p in np.geomspace(1.0, 1000.0, 7):
            try:
                served.append(exact_eta_moment(1.0, eps, float(p)))
            except ToleranceUnreachable:
                continue
            assert math.isfinite(served[-1]) and served[-1] > 0.0, p
        assert len(served) >= 4 and served == sorted(served)

    def test_small_eps_node_whose_rest_lies_below_the_tolerance_is_one(self, deadline):
        # the remainder's bound at U = 32 exceeds rel_tol/2 of the anchor tail, so the cut lies past 32
        anchor = exact_eta_tail(1.0, 0.005, 1.0)
        assert _moment_tail_remainder(0.005, 1.5, 32.0, 1) > 0.5 * 1e-6 * anchor
        # a node of exact_eta_moment(1, 0.01, 1.5): the term cut is 1 and I(1) = 1.44e13, so the
        # integral-test bracket is 7.69 wide, but it lies wholly below ln(abs_tol); this raised
        with deadline(0.5):
            assert exact_eta_tail(1.0, 0.01, 28.062258499190293) >= 1.0 - 1e-12

    @pytest.mark.parametrize(
        "eps, upper, points",
        [
            (0.1, 16.0, 200),
            (0.02, 64.0, 640),
            (0.01, 128.0, 320),
            (0.005, 256.0, 320),
            (0.003, 256.0, 320),
        ],
    )
    def test_small_eps_moment_lies_in_a_monotone_bracket(self, deadline, eps, upper, points):
        # these raised ToleranceUnreachable: at eps 0.1 and 0.02 while the tails near the drop of
        # P(eta > u) needed more than SERIES_TERM_CAP terms, below that at a node whose
        # integral-test bracket lay wholly below ln(abs_tol)
        with deadline(2.0):
            moment_p = exact_eta_moment(1.0, eps, 1.5) ** 1.5
        lower, top = TailGrid(eps, upper, points).moment_bracket(1.5)
        assert lower <= moment_p <= top
        assert top - lower <= 3e-2 * moment_p

    def test_moment_rises_strictly_as_eps_falls(self, deadline):
        # eta = sup theta_n n**(-eps) falls pointwise as eps grows, so ||eta||_p rises as eps falls
        with deadline(2.0):
            moments = [exact_eta_moment(1.0, eps, 1.5) for eps in (0.5, 0.25, 0.02, 0.01, 0.005, 0.003, 0.002, 0.001)]
        assert all(a < b for a, b in zip(moments, moments[1:]))

    def test_remainder_bound_is_within_three_times_the_termwise_sum(self):
        # the bound against sum_{n >= n0} p Gamma(p) n**(-p eps) Q(p, U n**eps), summed up to where
        # U n**eps passes U n0**eps + 40 (the rest moves no ratio here by 1e-15)
        for eps in (0.95, 0.9, 0.5, 0.25, 0.1):
            for p in (1.0, 1.5, 1.98, 3.0, 6.0, 12.0):
                for upper in (k * max(32.0, 4.0 * p) for k in (1, 2, 8)):
                    for n0 in (1, 2, 7, 100):
                        first = upper * n0**eps
                        n = np.arange(n0, math.ceil(((first + 40.0) / upper) ** (1.0 / eps)) + 1, dtype=float)
                        terms = n ** (-p * eps) * special.gammaincc(p, upper * n**eps)
                        termwise = p * math.gamma(p) * math.fsum(terms.tolist())
                        if termwise == 0.0:  # every term underflowed
                            continue
                        bound = _moment_tail_remainder(eps, p, upper, n0)
                        assert termwise <= bound <= 3.0 * termwise, (eps, p, upper, n0)

    def test_remainder_below_its_range_is_infinite(self):
        # Gamma(p, x) <= 2 x**(p-1) e**-x needs x >= 2 (p - 1): U = 16 lies below that at p = 12
        assert _moment_tail_remainder(0.5, 12.0, 16.0, 1) == math.inf

    def test_underflowed_gamma_drops_no_term(self, monkeypatch):
        # with Q read as 0, the rest is bounded by 2 x**(a-1) e**-x where x >= 2 (a - 1),
        # else the bound is +inf (eps 0.05: a = 19 against x = 32); neither falls below the bound
        points = [(0.5, 1.5, 32.0, 1), (0.25, 3.0, 64.0, 7), (0.1, 6.0, 32.0, 2), (0.05, 1.5, 32.0, 1)]
        bounds = [_moment_tail_remainder(*point) for point in points]
        monkeypatch.setattr(simulate_module, "_log_q", lambda a, xs: [-math.inf for _ in xs])
        for point, bound in zip(points, bounds):
            assert _moment_tail_remainder(*point) >= bound, point

    @pytest.mark.parametrize("eps", [0.02, 0.03])
    @pytest.mark.parametrize("p", [1.0, 1.5, 1.98, 3.0])
    def test_small_eps_remainder_certifies_the_first_cut(self, eps, p):
        # the summed head of 2**20 indices read +inf here, and the cut doubled to 64
        bound = _moment_tail_remainder(eps, p, 32.0, 1)
        assert bound < 0.5 * 1e-6 * exact_eta_tail(1.0, eps, 1.0)

    def test_small_eps_moment_against_a_converged_bracket(self):
        # the midpoint of an 80 000-step monotone bracket of the exact tail on [0, 64]; at the
        # cut U = 64 the rule read 19.719005
        assert exact_eta_moment(1.0, 0.02, 1.5) == pytest.approx(19.7193521, rel=1e-7)

    def test_remainder_past_a_float_is_infinite(self):
        # the log of the bound is 1980 here, so e**700 would bound nothing
        assert _moment_tail_remainder(0.001, 1.5, 51.0, 1) == math.inf
        # the bound passes a float at U = 4p = 1600 at eps 0.002 and p 400
        assert _moment_tail_remainder(0.002, 400.0, 1600.0, 1) == math.inf

    def test_cut_that_would_step_past_the_float_range_stops_at_its_edge(self):
        # at eps 0.5 the cut's step of e**0.5 in U jumped past the float range's edge before the
        # remainder passed, and p 102.9-104 raised; the cut now tests the edge itself
        moments = [exact_eta_moment(1.0, 0.5, p) for p in (102.5, 103.0, 104.0)]
        assert all(math.isfinite(m) for m in moments)
        assert moments == sorted(moments)

    @pytest.mark.parametrize("eps, p", [(0.5, 120.0), (0.002, 400.0)])
    def test_rule_past_the_float_range_raises(self, deadline, eps, p):
        # p U**p bounds every partial sum of the rule; at eps 0.002 the weights overflowed and the moment read nan
        with deadline(0.1), pytest.raises(ToleranceUnreachable, match="float range"):
            exact_eta_moment(1.0, eps, p)

    @pytest.mark.parametrize(
        "start, p",
        [(2, 2.5), (2, 3.0), (2, 4.0), (2, 6.0)]
        + [
            pytest.param(
                1,
                p,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 1a: regulator_lp_bound ignores index_start, and at n0 1 the exact "
                    "moment (2.4208 at p 4, 3.0795 at p 6) exceeds it (2.213, 2.667)",
                ),
            )
            for p in (4.0, 6.0)
        ],
    )
    def test_exact_moment_lies_below_the_regulator_bound(self, start, p):
        # the monotone bracket's top end, not the rule's point value, against the bound's p-th power
        _, top = TailGrid(0.5, 32.0, 4000, index_start=start).moment_bracket(p)
        assert top <= regulator_lp_bound(ExponentialPower(alpha=1.0, index_start=start).moment_envelope(), 0.5, p) ** p

    @pytest.mark.parametrize(
        "eps, p, start",
        [point if point[1] < 16.0 else pytest.param(*point, marks=UNION_BRACKET_OVERSHOOT) for point in UNION_POINTS],
    )
    def test_moment_lies_in_the_union_bracket(self, eps, p, start):
        # with S1 = zeta(p eps, n0): Gamma(p+1) [S1 - 2**(-p-1) (zeta(p eps / 2, n0)**2 - S1)] <= E eta**p
        # <= Gamma(p+1) S1, by Bonferroni and AM-GM below and the union bound above, in log space.
        # The rule's two cuts may each drop _MOMENT_REL_TOL / 2 of the moment, so the floor may
        # sit that far above it; nothing may sit above the ceiling
        s1 = float(special.zeta(p * eps, start))
        rest = s1 - 2.0 ** (-p - 1.0) * (float(special.zeta(p * eps / 2.0, start)) ** 2 - s1)
        log_gamma = float(special.gammaln(p + 1.0))
        floor = log_gamma + math.log(rest) if rest > 0.0 else -math.inf
        log_moment = p * math.log(exact_eta_moment(1.0, eps, p, index_start=start))
        assert floor <= log_moment + math.log1p(simulate_module._MOMENT_REL_TOL)
        assert log_moment <= log_gamma + math.log(s1)

    def test_argument_guards(self):
        with pytest.raises(DomainError):
            exact_eta_moment(1.0, 0.5, 0.5)


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
