"""Regulator moment bounds, sigma series with certified truncation, sequences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from glsreg import bounds as bounds_module
from glsreg.bounds import MomentEnvelope, regulator_lp_bound, sigma_function
from glsreg.cli import _pair_from_config
from glsreg.errors import (
    Divergent,
    DomainError,
    InvalidEpsilon,
    InvalidExponent,
    ToleranceUnreachable,
)
from glsreg.generating import Tabulated, natural_function
from glsreg.moments import std_exponential_moments
from glsreg.sequences import (
    DecaySequencePair,
    GeometricSequence,
    PowerLogSequence,
)


def slowly_varying_reference(rate: float, table: tuple[float, ...], n: np.ndarray) -> np.ndarray:
    """n**(-rate) * L(n), L tabulated on 1..len(table) and extended by its last value.

    This is the formula of the former SlowlyVaryingSequence.values, kept as the
    reference that a PowerLogSequence table must reproduce bit for bit.
    """
    idx = np.minimum(n.astype(int), len(table)) - 1
    return n ** (-rate) * np.asarray(table)[idx]


def constant_envelope(level: float, alpha: float = 1.0, index_start: int = 1) -> MomentEnvelope:
    psi = Tabulated(points=((1.0, level), (1000.0, level)))
    return MomentEnvelope(envelope=psi, alpha=alpha, index_start=index_start)


def forbid_sums_past(monkeypatch, n_mono: int) -> None:
    """Fail any _chunked_sum call in bounds that would sum past index n_mono."""
    chunked = bounds_module._chunked_sum

    def guarded(term, lo, hi, stop=None):
        assert hi <= n_mono, "an unreachable tolerance must raise before the main sum"
        return chunked(term, lo, hi, stop)

    monkeypatch.setattr(bounds_module, "_chunked_sum", guarded)


class TestRegulatorLpBound:
    def test_frozen_value(self):
        # K = 3, eps = 5/8, p = 3: 3 * (15/8 - 1)^(-1/3) = 3 * (7/8)^(-1/3)
        env = constant_envelope(3.0)
        assert regulator_lp_bound(env, 0.625, 3.0) == pytest.approx(3.136547751448261, rel=1e-12)

    def test_exponential_envelope_values(self):
        env = MomentEnvelope(envelope=natural_function(std_exponential_moments()), alpha=1.0, index_start=2)
        # Gamma(p+1)^(1/p) (p/2 - 1)^(-1/p) at p = 4
        assert regulator_lp_bound(env, 0.5, 4.0) == pytest.approx(2.213363839400643, rel=1e-12)
        assert regulator_lp_bound(env, 0.5, 2.5) == pytest.approx(2.814844964752713, rel=1e-12)

    def test_blows_up_at_threshold(self):
        env = constant_envelope(1.0)
        assert regulator_lp_bound(env, 0.5, 2.0 + 1e-12) > 1e6

    def test_exponent_guard(self):
        env = constant_envelope(1.0)
        with pytest.raises(InvalidExponent):
            regulator_lp_bound(env, 0.5, 2.0)

    def test_eps_guard(self):
        env = constant_envelope(1.0, alpha=0.4)
        with pytest.raises(InvalidEpsilon):
            regulator_lp_bound(env, 0.5, 10.0)
        with pytest.raises(InvalidEpsilon):
            regulator_lp_bound(constant_envelope(1.0), 0.0, 10.0)

    def test_envelope_validation(self):
        with pytest.raises(DomainError):
            constant_envelope(1.0, alpha=0.0)
        with pytest.raises(DomainError):
            constant_envelope(1.0, index_start=0)


class TestGeometricSigma:
    def test_spec_example(self):
        pair = DecaySequencePair(GeometricSequence(q=0.25), GeometricSequence(q=0.5))
        assert sigma_function(pair, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_closed_form_general(self):
        pair = DecaySequencePair(GeometricSequence(q=0.3), GeometricSequence(q=0.6))
        for p in (1.0, 2.0, 5.0):
            assert sigma_function(pair, p) == pytest.approx((1.0 - 0.5**p) ** (-1.0 / p), rel=1e-12)

    def test_series_matches_closed_form(self):
        pair = DecaySequencePair(GeometricSequence(q=0.45), GeometricSequence(q=0.5))
        for p in (1.0, 2.0, 5.0):
            closed = sigma_function(pair, p)
            series = sigma_function(pair, p, rel_tol=1e-9, force_series=True)
            assert series == pytest.approx(closed, rel=1e-9)

    def test_scales_carry_through(self):
        # eps_n = 3 q^n against beta_n = Q^n multiplies sigma by 3
        base = DecaySequencePair(GeometricSequence(q=0.25), GeometricSequence(q=0.5))
        scaled = DecaySequencePair(GeometricSequence(q=0.25, scale=3.0), GeometricSequence(q=0.5))
        assert sigma_function(scaled, 2.0) == pytest.approx(3.0 * sigma_function(base, 2.0), rel=1e-12)

    def test_series_near_one_ratio(self):
        # delta = 0.999998 needs about 6.9M terms; they are counted in closed form and summed in numpy
        pair = DecaySequencePair(GeometricSequence(q=0.499999), GeometricSequence(q=0.5))
        closed = sigma_function(pair, 1.0)
        series = sigma_function(pair, 1.0, force_series=True)
        assert series <= closed
        assert series == pytest.approx(closed, rel=1e-6)

    def test_series_over_term_cap_raises_before_summing(self, monkeypatch):
        def no_sum(*args, **kwargs):
            raise AssertionError("the term count alone must reject this series")

        monkeypatch.setattr(bounds_module, "_chunked_sum", no_sum)
        pair = DecaySequencePair(GeometricSequence(q=0.5 * (1.0 - 1e-9)), GeometricSequence(q=0.5))
        with pytest.raises(ToleranceUnreachable):
            sigma_function(pair, 1.0, force_series=True)

    def test_uniform_cap(self):
        for delta in (0.1, 0.5, 0.9):
            pair = DecaySequencePair(GeometricSequence(q=0.5 * delta), GeometricSequence(q=0.5))
            for p in (1.0, 2.0, 5.0):
                assert sigma_function(pair, p) <= 1.0 / (1.0 - delta) + 1e-12


class TestPowerLogSigma:
    def test_zeta_oracle(self):
        # ratio n^(-1/2), p = 4: sum n^(-2) = zeta(2); frozen value
        pair = DecaySequencePair(PowerLogSequence(rate=1.0), PowerLogSequence(rate=0.5))
        assert sigma_function(pair, 4.0, rel_tol=1e-8) == pytest.approx(1.1324971656480405, rel=1e-7)

    def test_brute_force_agreement(self):
        pair = DecaySequencePair(PowerLogSequence(rate=2.0), PowerLogSequence(rate=0.5))
        n = np.arange(1.0, 2_000_000.0)
        brute = float(np.sum((n**-1.5) ** 3.0) ** (1.0 / 3.0))
        assert sigma_function(pair, 3.0, rel_tol=1e-6) == pytest.approx(brute, rel=1e-5)

    def test_log_correction_brute_force(self):
        # ratio n^(-1) ln(n+1): converges for p = 3 despite the log growth
        pair = DecaySequencePair(PowerLogSequence(rate=1.5, log_power=1.0), PowerLogSequence(rate=0.5))
        n = np.arange(1.0, 3_000_000.0)
        brute = float(np.sum((n**-1.0 * np.log(n + 1.0)) ** 3.0) ** (1.0 / 3.0))
        assert sigma_function(pair, 3.0, rel_tol=1e-6) == pytest.approx(brute, rel=1e-4)

    def test_divergent_below_threshold(self):
        pair = DecaySequencePair(PowerLogSequence(rate=1.0), PowerLogSequence(rate=0.5))
        with pytest.raises(Divergent):
            sigma_function(pair, 1.5)

    def test_divergent_boundary_with_log(self):
        # p * gamma = 1 and p * mu = 0 >= -1: harmonic-like, diverges
        pair = DecaySequencePair(PowerLogSequence(rate=1.0), PowerLogSequence(rate=0.5))
        with pytest.raises(Divergent):
            sigma_function(pair, 2.0)

    def test_boundary_converges_with_strong_log_decay(self):
        # p * gamma = 1, p * mu = -2 < -1: sum n^(-1) ln(n+1)^(-2) converges
        pair = DecaySequencePair(
            PowerLogSequence(rate=1.0, log_power=-1.0), PowerLogSequence(rate=0.5)
        )
        value = sigma_function(pair, 2.0, rel_tol=0.05)
        n = np.arange(1.0, 5_000_000.0)
        brute = float(np.sum(n**-1.0 * np.log(n + 1.0) ** -2.0) ** 0.5)
        # 1/ln(N) remainder: both estimates sit a little below the limit
        assert value == pytest.approx(brute, rel=0.05)

    def test_boundary_tight_tolerance_unreachable(self, monkeypatch):
        # the 1/ln(N) remainder cannot certify 1e-4 within the term cap; the
        # remainder bound holds from n_mono = 2 on, and no sum may pass it
        forbid_sums_past(monkeypatch, 2)
        pair = DecaySequencePair(
            PowerLogSequence(rate=1.0, log_power=-1.0), PowerLogSequence(rate=0.5)
        )
        with pytest.raises(ToleranceUnreachable):
            sigma_function(pair, 2.0, rel_tol=1e-4)

    def test_tolerance_cap(self, monkeypatch):
        # p gamma - 1 = 1e-3 needs ~1e9000 terms at 1e-9: unreachable, and
        # known so before any sum past n_mono = 1
        forbid_sums_past(monkeypatch, 1)
        pair = DecaySequencePair(PowerLogSequence(rate=1.0), PowerLogSequence(rate=0.5))
        with pytest.raises(ToleranceUnreachable):
            sigma_function(pair, 2.002, rel_tol=1e-9)

    def test_validity_index_beyond_float_range(self, monkeypatch):
        # 2 mu / (gamma - 1) = 2e4: the mu > 0 remainder bound holds only past
        # e^20000 terms, an index math.exp cannot even represent
        forbid_sums_past(monkeypatch, 0)
        pair = DecaySequencePair(PowerLogSequence(rate=1.0, log_power=0.5), PowerLogSequence(rate=0.5))
        with pytest.raises(ToleranceUnreachable):
            sigma_function(pair, 2.0002)

    @pytest.mark.parametrize("level", [1e-10, 1e10])
    def test_tiny_or_huge_ratio_is_scaled_out(self, level):
        # (1e-10 n^-1.5)^40 underflows to 0 for every n and (1e10)^40 overflows
        # to inf; sigma is linear in the table level, so it must scale exactly
        unit = DecaySequencePair(PowerLogSequence(rate=2.0, table=(1.0,)), PowerLogSequence(rate=0.5))
        pair = DecaySequencePair(PowerLogSequence(rate=2.0, table=(level,)), PowerLogSequence(rate=0.5))
        assert sigma_function(unit, 40.0) == pytest.approx(1.0, rel=1e-15)
        assert sigma_function(pair, 40.0) == pytest.approx(level, rel=1e-12)

    def test_log_bump_at_large_p_stays_finite(self):
        # ratio n^(-1/2) ln(n+1)^2 peaks near n = e^4 at about 2.18, and its
        # 2000th power overflows; sigma lies between the peak and 1.01 x it
        pair = DecaySequencePair(PowerLogSequence(rate=1.0, log_power=2.0), PowerLogSequence(rate=0.5))
        peak = float(np.max(pair.ratio_values(np.arange(1.0, 1000.0))))
        assert peak <= sigma_function(pair, 2000.0) <= 1.01 * peak

    def test_slowly_varying_constant_table_scales_sigma(self):
        plain = DecaySequencePair(PowerLogSequence(rate=2.0), PowerLogSequence(rate=0.5))
        tabled = DecaySequencePair(PowerLogSequence(rate=2.0, table=(2.0, 2.0)), PowerLogSequence(rate=0.5))
        # constant table means every ratio term doubles, so sigma doubles
        assert sigma_function(tabled, 4.0, rel_tol=1e-8) == pytest.approx(
            2.0 * sigma_function(plain, 4.0, rel_tol=1e-8), rel=1e-9
        )


class TestSigmaValidation:
    def test_p_below_one_rejected(self):
        pair = DecaySequencePair(GeometricSequence(q=0.25), GeometricSequence(q=0.5))
        with pytest.raises(DomainError):
            sigma_function(pair, 0.5)

    def test_rel_tol_range(self):
        pair = DecaySequencePair(GeometricSequence(q=0.25), GeometricSequence(q=0.5))
        with pytest.raises(DomainError):
            sigma_function(pair, 1.0, rel_tol=0.0)
        with pytest.raises(DomainError):
            sigma_function(pair, 1.0, rel_tol=1.5)


class TestSequences:
    def test_power_log_values(self):
        seq = PowerLogSequence(rate=1.0, log_power=1.0)
        np.testing.assert_allclose(seq.values(np.asarray([1.0, 2.0])), [math.log(2.0), math.log(3.0) / 2.0])

    def test_power_log_start_index(self):
        with pytest.raises(DomainError):
            PowerLogSequence(rate=1.0).values(np.asarray([0.0]))

    def test_geometric_values_and_start(self):
        seq = GeometricSequence(q=0.5, scale=2.0)
        np.testing.assert_allclose(seq.values(np.asarray([0.0, 1.0, 3.0])), [2.0, 1.0, 0.25])

    def test_geometric_q_range(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                GeometricSequence(q=bad)

    def test_slowly_varying_extends_by_last_value(self):
        seq = PowerLogSequence(rate=1.0, table=(2.0, 3.0))
        np.testing.assert_allclose(seq.values(np.asarray([1.0, 2.0, 5.0])), [2.0, 1.5, 0.6])

    @given(
        st.floats(min_value=0.01, max_value=20.0),
        st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=40),
        st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_matches_slowly_varying_reference_bitwise(self, rate, table, indices):
        n = np.asarray(indices, dtype=float)
        got = PowerLogSequence(rate=rate, table=tuple(table)).values(n)
        np.testing.assert_array_equal(got, slowly_varying_reference(rate, tuple(table), n))

    def test_log_factor_and_table_multiply(self):
        seq = PowerLogSequence(rate=1.0, log_power=1.0, table=(2.0, 3.0))
        n = np.asarray([1.0, 2.0, 5.0])
        np.testing.assert_allclose(seq.values(n), n**-1.0 * np.log(n + 1.0) * [2.0, 3.0, 3.0], rtol=1e-15)

    def test_table_values_must_be_positive_and_finite(self):
        for bad in ((1.0, 0.0), (-1.0,), (math.inf,), (math.nan,)):
            with pytest.raises(DomainError):
                PowerLogSequence(rate=1.0, table=bad)

    def test_pair_requires_decaying_ratio(self):
        with pytest.raises(DomainError):
            DecaySequencePair(GeometricSequence(q=0.5), GeometricSequence(q=0.25))
        with pytest.raises(DomainError):
            DecaySequencePair(PowerLogSequence(rate=0.5), PowerLogSequence(rate=1.0))

    def test_pair_rejects_mixed_kinds(self):
        with pytest.raises(DomainError, match="cannot pair a GeometricSequence with a PowerLogSequence"):
            DecaySequencePair(GeometricSequence(q=0.25), PowerLogSequence(rate=1.0))
        with pytest.raises(DomainError, match="cannot pair a PowerLogSequence with a GeometricSequence"):
            DecaySequencePair(PowerLogSequence(rate=1.0, table=(1.0,)), GeometricSequence(q=0.5))

    def test_ratio_values(self):
        pair = DecaySequencePair(PowerLogSequence(rate=1.5), PowerLogSequence(rate=0.5))
        n = np.asarray([1.0, 4.0, 9.0])
        np.testing.assert_allclose(pair.ratio_values(n), n**-1.0)

    def test_from_config_shapes(self):
        # the CLI's pair reader: alpha/m or theta/nu with nu negated, q or Q
        pair = _pair_from_config(
            {
                "eps": {"form": "power_log", "alpha": 1.0, "m": 2.0},
                "beta": {"form": "power_log", "theta": 0.5, "nu": 1.0},
            }
        )
        assert pair.eps_seq.rate == 1.0 and pair.eps_seq.log_power == 2.0
        assert pair.beta_seq.rate == 0.5 and pair.beta_seq.log_power == -1.0
        pair = _pair_from_config(
            {"eps": {"form": "geometric", "q": 0.25}, "beta": {"form": "geometric", "Q": 0.5, "scale": 2.0}}
        )
        assert pair.eps_seq == GeometricSequence(q=0.25)
        assert pair.beta_seq.q == 0.5 and pair.beta_seq.scale == 2.0
        pair = _pair_from_config(
            {
                "eps": {"form": "slowly_varying", "alpha": 1.5, "table": [1.0]},
                "beta": {"form": "slowly_varying", "alpha": 1.0, "table": [1.0, 2.0]},
            }
        )
        assert pair.beta_seq == PowerLogSequence(rate=1.0, table=(1.0, 2.0))

    @given(st.floats(min_value=0.05, max_value=0.9), st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_geometric_sigma_between_one_and_cap(self, delta, p):
        pair = DecaySequencePair(GeometricSequence(q=0.5 * delta), GeometricSequence(q=0.5))
        value = sigma_function(pair, p)
        assert 1.0 <= value <= 1.0 / (1.0 - delta) + 1e-9
