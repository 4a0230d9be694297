"""Moment curves, sup-norms, and conjugate transforms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from glsreg import moments
from glsreg.errors import DomainError, EmptyDomain, EmptySample, LengthMismatch
from glsreg.estimates import ConfidenceValue, mean_estimate, power_mean_estimate, proportion_estimate
from glsreg.generating import ExponentInterval, Extremal, PowerRoot, Product, Tabulated, TwoSidedSingular
from glsreg.moments import (
    _logsumexp_rows,
    classical_grand_norm,
    constant_moments,
    discrete_moment_lanes,
    discrete_moments,
    empirical_tail,
    exponential_tail_bound,
    gls_norm,
    gls_norm_scan,
    half_normal_moments,
    scaled_moments,
    std_exponential_moments,
    sup_moment_function,
    table_moments,
    young_fenchel,
    young_fenchel_scan,
)
from glsreg.sequences import GeometricSequence, PowerLogSequence
from glsreg.simulate import exp_power_sum


class TestLogGamma:
    def test_lies_within_its_bound_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        # log-spaced on [1, 1e3], the integers there, both sides of 10, both zeros of ln Gamma and
        # the a below 1 that Q(a, x) takes
        xs = [10.0 ** (3.0 * k / 400) for k in range(401)] + [float(n) for n in range(1, 1001)]
        xs += [1e-300, 1e-8, 0.111, 0.5, 0.9]
        xs += [10.0 + d for d in (-1e-12, -0.5, 0.5)] + [z + d for z in (1.0, 2.0) for d in (-1e-6, -1e-12, 1e-12, 1e-6)]
        for x in xs:
            with mpmath.workprec(120):
                ref = float(mpmath.loggamma(x))
            assert abs(moments._log_gamma(x) - ref) <= moments._LOG_GAMMA_ERR * (1.0 + abs(ref)), x

    def test_ends(self):
        assert moments._log_gamma(1.0) == moments._log_gamma(2.0) == 0.0
        assert moments._log_gamma(math.inf) == math.inf

    def test_array_form_is_the_scalar_one(self):
        x = np.array([[0.5, 1.0, 2.5], [9.99, 10.0, 1e300]])
        expected = [[moments._log_gamma(float(v)) for v in row] for row in x]
        np.testing.assert_array_equal(moments._log_gamma_array(x), expected)


class TestStdExponentialMoments:
    def test_matches_gamma_closed_form(self):
        m = std_exponential_moments()
        assert m.value(1.0) == pytest.approx(1.0)
        assert m.value(2.0) == pytest.approx(math.sqrt(2.0))
        # Gamma(5)^(1/4), frozen against independent arithmetic
        assert m.value(4.0) == pytest.approx(2.213363839400643, rel=1e-12)

    def test_nondecreasing_in_p(self):
        m = std_exponential_moments()
        ps = np.linspace(1.0, 40.0, 200)
        assert np.all(np.diff(m.values(ps)) >= 0)


class TestHalfNormalMoments:
    def test_low_order_values(self):
        m = half_normal_moments()
        assert m.value(2.0) == pytest.approx(1.0, rel=1e-12)
        assert m.value(1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_fourth_moment(self):
        # E g^4 = 3 for a standard normal
        assert half_normal_moments().value(4.0) == pytest.approx(3.0 ** 0.25, rel=1e-12)


class TestDiscreteMoments:
    def test_single_atom_is_constant(self):
        m = discrete_moments([2.5], [1.0])
        for p in (1.0, 3.0, 17.0):
            assert m.value(p) == pytest.approx(2.5, rel=1e-12)

    def test_two_atoms_brute_force(self):
        m = discrete_moments([1.0, 3.0], [0.25, 0.75])
        for p in (1.0, 2.0, 5.0):
            expect = (0.25 * 1.0**p + 0.75 * 3.0**p) ** (1.0 / p)
            assert m.value(p) == pytest.approx(expect, rel=1e-12)

    def test_weights_normalised(self):
        a = discrete_moments([2.0], [0.1])
        b = discrete_moments([2.0], [7.0])
        assert a.value(3.0) == pytest.approx(b.value(3.0), rel=1e-12)

    def test_validation(self):
        with pytest.raises(EmptySample):
            discrete_moments([], [])
        with pytest.raises(LengthMismatch):
            discrete_moments([1.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            discrete_moments([1.0], [-1.0])

    def test_log_sum_exp_matches_scipy(self):
        # 4 ulp relative to max(1, |ref|): a log-sum-exp errs by a few ulp of its
        # unit-sized shifted sum, so near ref = 0 the error is absolute, not relative
        rng = np.random.default_rng(17)
        p = np.concatenate([np.linspace(1.0, 10.0, 40), np.geomspace(10.0, 1e3, 40)])
        for case in range(200):
            atoms = rng.lognormal(0.0, 1.5, size=int(rng.integers(2, 9)))
            if case % 3 == 0:
                atoms[0] = 0.0
            weights = rng.uniform(0.1, 2.0, size=atoms.size)
            log_w = np.log(weights) - math.log(float(weights.sum()))
            with np.errstate(divide="ignore"):
                x = p[:, None] * np.log(atoms)[None, :] + log_w[None, :]
            ref = special.logsumexp(x, axis=1)
            got = _logsumexp_rows(x)
            assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(ref))), case
            np.testing.assert_allclose(discrete_moments(atoms, weights).values(p), np.exp(ref / p), rtol=1e-13)

    def test_zero_atoms_and_large_exponents(self):
        p = np.asarray([1.0, 2.0, 50.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            all_zero = discrete_moments([0.0, 0.0], [0.3, 0.7]).values(p)
            one_zero = discrete_moments([0.0, 3.0], [0.5, 0.5]).values(p)
            large = discrete_moments([1e3, 2e3, 0.5], [1.0, 1.0, 1.0]).values(p)
        assert np.array_equal(all_zero, np.zeros(p.size))
        np.testing.assert_allclose(one_zero, 3.0 * 0.5 ** (1.0 / p), rtol=1e-14)
        # (2000^p / 3)^(1/p) with 2000^1000 far beyond the float range: no overflow
        assert np.all(np.isfinite(large))
        assert large[-1] == pytest.approx(2e3 * 3.0 ** (-1e-3) * (1.0 + 2.0**-1e3) ** 1e-3, rel=1e-14)


LANE_ATOMS = [
    [2.5],
    [1.0, 3.0],
    [0.0, 1.5, 2.0],  # a zero atom
    [2.0, 2.0, 0.5, 2.0],  # three atoms tie for the maximum
    [0.3, 1.0, 2.5, 4.0, 4.0],
    [0.7, 1.1, 0.2, 5.0, 3.3, 0.9],
]
LANE_WEIGHTS = [
    [1.0],
    [0.25, 0.75],
    [0.5, 0.3, 0.2],
    [0.1, 0.4, 0.3, 0.2],
    [0.4, 0.3, 0.2, 0.05, 0.05],
    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestDiscreteMomentLanes:
    def test_rows_equal_each_curve_bitwise(self):
        lanes = discrete_moment_lanes(LANE_ATOMS, LANE_WEIGHTS)
        curves = [discrete_moments(a, w) for a, w in zip(LANE_ATOMS, LANE_WEIGHTS)]
        shared = np.concatenate([[1.0], np.geomspace(1.0 + 1e-12, 1e4, 97)])
        table = np.array([np.geomspace(1.0 + 0.3 * i, 50.0 * (i + 1), 64) for i in range(len(curves))])
        column = np.linspace(1.0, 8.0, len(curves))[:, None]
        for p in (shared, table, column):
            got = lanes.evaluator(p)
            assert got.shape == (len(curves), p.shape[-1])
            for i, curve in enumerate(curves):
                row = p if p.ndim == 1 else p[i]
                assert _bits(got[i]) == _bits(curve.values(row)), (i, p.shape)

    def test_two_thousand_random_lanes_bitwise(self, monkeypatch):
        rng = np.random.default_rng(11)
        atoms, weights = [], []
        for _ in range(2000):
            k = int(rng.integers(1, 7))
            atoms.append(rng.lognormal(0.0, 1.0, size=k))
            weights.append(rng.uniform(0.2, 1.0, size=k))
        p = np.geomspace(1.0, 1e4, 98)
        want = [_bits(discrete_moments(a, w).values(p)) for a, w in zip(atoms, weights)]
        lane_cells = max(map(len, atoms)) * p.size  # one lane's atom table: 6 x 98 cells
        # one lane a chunk; 7 lanes a chunk, whose last chunk holds 2000 % 7 = 5; the default
        # (55 lanes, last chunk 20); every lane in one chunk
        for budget in (1, 7 * lane_cells, moments._LANE_CELLS, 2000 * lane_cells):
            monkeypatch.setattr(moments, "_LANE_CELLS", budget)
            got = discrete_moment_lanes(atoms, weights).evaluator(p)
            for i, row in enumerate(got):
                assert _bits(row) == want[i], (budget, i)

    def test_scaled_and_sup_of_lane_families(self):
        rng = np.random.default_rng(2)
        others = [rng.lognormal(0.0, 1.0, size=len(a)) for a in LANE_ATOMS]
        c = rng.lognormal(0.0, 1.0, size=len(LANE_ATOMS))
        lanes = discrete_moment_lanes(LANE_ATOMS, LANE_WEIGHTS)
        scaled = scaled_moments(lanes, -c[:, None]).evaluator
        family = sup_moment_function([lanes, discrete_moment_lanes(others, LANE_WEIGHTS)])
        p = np.geomspace(1.0, 300.0, 50)
        for i, (a, w) in enumerate(zip(LANE_ATOMS, LANE_WEIGHTS)):
            curve = discrete_moments(a, w)
            alone = scaled_moments(curve, -float(c[i])).values(p)
            assert _bits(alone) == _bits(abs(float(c[i])) * curve.values(p))  # the scalar factor keeps its bits
            assert _bits(scaled(p)[i]) == _bits(alone)
            pair = sup_moment_function([curve, discrete_moments(others[i], w)])
            assert _bits(family.evaluator(p)[i]) == _bits(pair.values(p))

    @pytest.mark.parametrize("refine", [True, False])
    def test_gls_norm_of_lanes_equals_one_norm_per_lane(self, refine):
        weights = [
            PowerRoot(m=0.7),
            TwoSidedSingular(b=6.0, alpha=0.5, beta=1.0),
            Tabulated(((1.0, 1.0), (2.0, 1.5), (4.0, 3.0), (9.0, 4.0))),
            Extremal(2.5),
            TwoSidedSingular(b=3.0, alpha=0.0, beta=0.2),
            PowerRoot(m=3.0),
        ]
        lanes = discrete_moment_lanes(LANE_ATOMS, LANE_WEIGHTS)
        norms = gls_norm(lanes, weights, n_points=96, refine=refine)
        assert all(type(v) is float for v in norms)
        # a sequence of weights is scanned on each lane's grid alone: refine applies to a single weight
        for a, w, psi, value in zip(LANE_ATOMS, LANE_WEIGHTS, weights, norms):
            assert _bits(value) == _bits(gls_norm(discrete_moments(a, w), psi, n_points=96, refine=False))

    def test_validation(self):
        with pytest.raises(LengthMismatch):
            discrete_moment_lanes([[1.0], [2.0]], [[1.0]])
        with pytest.raises(EmptySample):
            discrete_moment_lanes([[1.0], []], [[1.0], []])
        with pytest.raises(DomainError):
            discrete_moment_lanes([[1.0, 2.0]], [[0.5, 0.0]])


class TestTableMoments:
    def test_interpolates_at_knots(self):
        m = table_moments([1.0, 2.0, 8.0], [1.0, 1.5, 3.0])
        assert m.value(2.0) == pytest.approx(1.5, rel=1e-12)

    def test_outside_hull_infinite(self):
        m = table_moments([2.0, 4.0], [1.0, 2.0])
        assert m.value(1.5) == math.inf

    def test_validation(self):
        with pytest.raises(DomainError):
            table_moments([1.0], [1.0])
        with pytest.raises(LengthMismatch):
            table_moments([1.0, 2.0], [1.0])


class TestScaledAndSup:
    def test_scaling_moves_every_moment(self):
        m = scaled_moments(std_exponential_moments(), 3.0)
        assert m.value(2.0) == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)

    def test_negative_scale_uses_absolute_value(self):
        m = scaled_moments(constant_moments(2.0), -2.0)
        assert m.value(5.0) == pytest.approx(4.0)

    def test_sup_is_pointwise_max(self):
        a = constant_moments(1.0)
        b = constant_moments(2.0)
        assert sup_moment_function([a, b]).value(3.0) == 2.0

    def test_sup_needs_members(self):
        with pytest.raises(EmptySample):
            sup_moment_function([])

    def test_sup_disjoint_domains(self):
        a = table_moments([1.0, 2.0], [1.0, 1.0])
        b = table_moments([5.0, 6.0], [1.0, 1.0])
        with pytest.raises(EmptyDomain):
            sup_moment_function([a, b])


class TestEmpirical:
    def test_moments_match_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.exponential(size=400)
        for p in (1.0, 2.0, 4.0):
            assert power_mean_estimate(x, p).value == pytest.approx(np.mean(np.abs(x) ** p) ** (1.0 / p), rel=1e-9)

    def test_moments_carry_half_widths(self):
        x = np.asarray([1.0, 2.0, 3.0, 4.0])
        for p in (1.0, 2.0):
            assert power_mean_estimate(x, p).half_width > 0

    @pytest.mark.parametrize("x", [[7.45, 2.0, 7.45, 0.0], [0.1, 0.05]])
    def test_moments_past_the_float_range_read_the_max(self, x):
        # p ln max|x| overflows to +-inf here, and (|x| / max|x|)**p is 0 below the max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = power_mean_estimate(np.asarray(x), 1.7e308)
        assert est.value == max(x)
        assert est.half_width == pytest.approx(0.0, abs=1e-300)

    def test_one_sample_has_an_infinite_half_width(self):
        assert mean_estimate(np.asarray([0.25])) == ConfidenceValue(0.25, math.inf)
        assert power_mean_estimate(np.asarray([-2.0]), 3.0) == ConfidenceValue(2.0, math.inf)

    @pytest.mark.parametrize("p", [1.0, 2.5])
    def test_all_zero_sample_has_zero_norm_and_width(self, p):
        assert power_mean_estimate(np.zeros(5), p) == ConfidenceValue(0.0, 0.0)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -1.0, 0.0, 0.5])
    def test_moments_reject_exponents_outside_one_to_infinity(self, p):
        with pytest.raises(DomainError):
            power_mean_estimate(np.asarray([0.5, 1.0, 2.0]), p)

    def test_tail_uses_closed_inequality(self):
        assert empirical_tail(np.asarray([1.0]), 0.0).value == 1.0
        assert empirical_tail(np.asarray([1.0]), 1.0).value == 1.0
        assert empirical_tail(np.asarray([1.0]), 1.0 + 1e-9).value == 0.0

    def test_tail_counts_magnitudes(self):
        x = np.asarray([-3.0, 0.5, 2.0])
        assert empirical_tail(x, 2.0).value == pytest.approx(2.0 / 3.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(DomainError):
            empirical_tail(np.asarray([1.0]), -0.5)

    def test_nan_threshold_rejected(self):
        with pytest.raises(DomainError):
            empirical_tail(np.asarray([0.5, 1.0, 2.0]), math.nan)

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptySample):
            empirical_tail(np.asarray([]), 1.0)


class TestGlsNorm:
    def test_extremal_reduces_to_plain_norm(self):
        m = std_exponential_moments()
        assert gls_norm(m, Extremal(3.0)) == m.value(3.0)

    def test_natural_weight_gives_unit_norm(self):
        from glsreg.generating import natural_function

        m = half_normal_moments()
        assert gls_norm(m, natural_function(m)) == 1.0

    def test_known_supremum(self):
        # m(p) = 2 constant, psi = p^(1/2): sup 2/sqrt(p) sits at p = 1
        value = gls_norm(constant_moments(2.0), PowerRoot(m=2.0))
        assert value == pytest.approx(2.0, rel=1e-12)

    def test_homogeneity(self):
        m = discrete_moments([1.0, 2.0], [0.5, 0.5])
        psi = TwoSidedSingular(b=6.0, alpha=0.3, beta=0.7)
        base = gls_norm(m, psi)
        assert gls_norm(scaled_moments(m, 5.0), psi) == pytest.approx(5.0 * base, rel=1e-9)

    def test_scan_reports_grid_and_argmax(self):
        scan = gls_norm_scan(constant_moments(1.0), PowerRoot(m=1.0))
        assert scan.value == pytest.approx(1.0)
        assert scan.argmax == pytest.approx(1.0)
        assert scan.grid.size == scan.objective.size

    def test_unbounded_flagged(self):
        # Gamma(p+1)^(1/p) grows like p/e, beating sqrt(p): sup is infinite
        scan = gls_norm_scan(std_exponential_moments(), PowerRoot(m=2.0))
        assert scan.unbounded
        assert scan.value == math.inf


class TestClassicalGrandNorm:
    def test_constant_curve_oracle(self):
        # sup_{0<e<1} e^(1/(2-e)) * 1 -> 1 as e -> 1 (frozen dense-grid oracle)
        value = classical_grand_norm(constant_moments(1.0), 2.0)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_exponential_curve_at_q3(self):
        # supremum near p -> 1: (3-p)^(1/p) Gamma(p+1)^(1/p) -> 2
        value = classical_grand_norm(std_exponential_moments(), 3.0)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_needs_q_above_one(self):
        with pytest.raises(EmptyDomain):
            classical_grand_norm(constant_moments(1.0), 1.0)


class TestYoungFenchel:
    def test_identity_weight_closed_form(self):
        psi = PowerRoot(m=1.0)
        for v in (1.0, 2.0, 3.0):
            assert young_fenchel(psi, v) == pytest.approx(math.exp(v - 1.0), abs=1e-6)

    def test_zero_weight_log_gives_linear_sup(self):
        # psi == 1 on [1, 4): h*(v) = sup p v = 4v for v > 0 (approached at cap)
        psi = Tabulated(points=((1.0, 1.0), (4.0, 1.0)))
        assert young_fenchel(psi, 2.0) == pytest.approx(8.0, rel=1e-6)

    def test_scan_identity_with_direct_minimum(self):
        # exp(-h*(ln t)) equals inf_p (psi(p)/t)^p on the same grid
        psi = PowerRoot(m=1.0)
        for t in (math.e, 5.0, 20.0):
            scan = young_fenchel_scan(psi, math.log(t), refine=False)
            with np.errstate(over="ignore"):
                direct = np.min((psi.values(scan.grid) / t) ** scan.grid)
            assert math.exp(-scan.value) == pytest.approx(direct, rel=1e-9)

    def test_product_below_the_float_range_keeps_a_finite_transform(self):
        # the two-sided factor is below the float range on the whole grid, so the log of the
        # product read -inf and h*(1) read +inf; the factors' closed-form logs keep it finite.
        # Reference: the maximum of p (1 - ln psi(p)) over a geometric grid, in log space
        psi = Product((TwoSidedSingular(b=1e4, alpha=100.0, beta=100.0), PowerRoot(m=1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = young_fenchel(psi, np.array([1.0]))[0]
            p = np.geomspace(1.0, 1e4, 200_001)[1:-1]
            grid_max = float(np.max(p * (1.0 + 100.0 * np.log(p - 1.0) + 100.0 * np.log(1e4 - p) - np.log(p))))
        assert value == pytest.approx(grid_max, rel=1e-8)

    def test_one_factor_product_has_its_factor_transform(self):
        # the product's log starts from 0.0, and 0.0 + x is x
        vs = np.linspace(-2.0, 5.0, 15)
        product = young_fenchel(Product((PowerRoot(m=2.0),)), vs)
        assert product.tobytes() == young_fenchel(PowerRoot(m=2.0), vs).tobytes()


class TestExponentialTailBound:
    def test_rejects_small_thresholds(self):
        with pytest.raises(DomainError):
            exponential_tail_bound(PowerRoot(m=1.0), 2.0)

    def test_clamped_to_unit(self):
        b = exponential_tail_bound(PowerRoot(m=1.0), math.e)
        assert 0.0 <= b <= 1.0

    def test_decreasing_in_t(self):
        psi = PowerRoot(m=1.0)
        ts = [math.e, 4.0, 9.0, 25.0]
        bounds = [exponential_tail_bound(psi, t) for t in ts]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_known_value_for_identity_weight(self):
        # h*(ln t) = t/e for psi(p) = p, so the bound is exp(-t/e)
        t = 12.0
        assert exponential_tail_bound(PowerRoot(m=1.0), t) == pytest.approx(math.exp(-t / math.e), rel=1e-6)

    def test_unbounded_transform_gives_a_zero_bound(self):
        # h*(ln t) peaks at p = t/e = 22073, past the scan cap, so the transform reads +inf
        # and exp(-inf) is 0.0
        t = 6e4
        assert young_fenchel(PowerRoot(m=1.0), math.log(t)) == math.inf
        assert exponential_tail_bound(PowerRoot(m=1.0), t) == 0.0
        assert exponential_tail_bound(PowerRoot(m=1.0), np.array([t])).tolist() == [0.0]


class TestDiagnostics:
    def test_lyapunov_clean_for_exponential(self):
        # p-norms on a probability space are nondecreasing in p
        values = std_exponential_moments().values(np.asarray([1.0, 2.0, 4.0, 8.0]))
        assert np.all(np.diff(values) >= 0)

    def test_log_convexity_clean_for_half_normal(self):
        # p -> p ln ||f||_p is convex: on an even grid each point sits on or below its neighbours' midpoint
        ps = np.linspace(1.0, 16.0, 31)
        h = ps * np.log(half_normal_moments().values(ps))
        assert np.all(0.5 * (h[:-2] + h[2:]) - h[1:-1] >= -1e-9 * np.maximum(1.0, np.abs(h[1:-1])))


@st.composite
def moment_curves(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    atoms = draw(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=k, max_size=k))
    return discrete_moments(atoms, weights)


class TestNormProperties:
    @given(moment_curves(), st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_randomised(self, m, c):
        psi = PowerRoot(m=1.5)
        base = gls_norm(m, psi, n_points=64, refine=False)
        scaled = gls_norm(scaled_moments(m, c), psi, n_points=64, refine=False)
        assert scaled == pytest.approx(c * base, rel=1e-9)

    @given(moment_curves(), st.floats(min_value=1.0, max_value=30.0))
    @settings(max_examples=60, deadline=None)
    def test_extremal_reduction_randomised(self, m, r):
        assert gls_norm(m, Extremal(r)) == m.value(r)

    @given(moment_curves())
    @settings(max_examples=40, deadline=None)
    def test_natural_norm_one_randomised(self, m):
        from glsreg.generating import natural_function

        assert gls_norm(m, natural_function(m), n_points=64, refine=False) == 1.0


# input guards no other test raises, with the type and message each raises
UNRAISED_GUARDS = {
    "mean-empty": (lambda: mean_estimate([]), EmptySample, "mean of an empty sample"),
    "proportion-empty": (lambda: proportion_estimate(0, 0), EmptySample, "proportion of an empty sample"),
    "power-mean-empty": (lambda: power_mean_estimate([], 2.0), EmptySample, "p-norm of an empty sample"),
    "lanes-empty": (
        lambda: discrete_moment_lanes([], []), EmptySample, "a family of discrete moment curves needs at least one curve"
    ),
    "product-empty": (lambda: Product(()), DomainError, "a product needs at least one factor"),
    "constant-negative": (
        lambda: constant_moments(-1.0), DomainError, "a p-norm level must be finite and nonnegative, got -1.0"
    ),
    "power-log-rate-zero": (lambda: PowerLogSequence(rate=0.0), DomainError, "decay rate must be positive, got 0.0"),
    "power-log-log-power-nan": (
        lambda: PowerLogSequence(rate=1.0, log_power=math.nan), DomainError, "log exponent must be finite, got nan"
    ),
    "geometric-scale-zero": (
        lambda: GeometricSequence(q=0.5, scale=0.0), DomainError, "geometric scale must be positive, got 0.0"
    ),
    "exp-power-sum-tol-zero": (
        lambda: exp_power_sum(1.0, 0.5, abs_tol=0.0), DomainError, "abs_tol must lie in (0, 1), got 0.0"
    ),
}


@pytest.mark.parametrize("call, error, message", UNRAISED_GUARDS.values(), ids=UNRAISED_GUARDS.keys())
def test_input_guard_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
