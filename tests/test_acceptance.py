"""Acceptance gate: one test per headline guarantee, one printed verdict each.

Every test prints "[criterion N] PASS/FAIL - detail" before asserting, so a
full run documents all ten outcomes.  Criterion 4 asserts the claimed
u**(-1/eps) tail comparison at large u; the exact tail of the exponential
model decays like exp(-u) there, so the test reports its honest failure
rather than weakening the threshold (the tail-regimes check of glsreg verify
states the true large-u and small-u regimes).
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from glsreg.bounds import regulator_lp_bound, sigma_function
from glsreg.criteria import criterion_functional, criterion_terms, extract_regulator, regulator_ratio_matrix
from glsreg.estimates import mean_estimate, power_mean_estimate, proportion_estimate
from glsreg.generating import PowerRoot
from glsreg.moments import young_fenchel, young_fenchel_scan
from glsreg.sequences import DecaySequencePair, GeometricSequence
from glsreg.simulate import (
    ExponentialPower,
    SimulationPlan,
    asymptotic_tail_constant,
    bonferroni_sums,
    exact_eta_moment,
    exact_eta_tail,
    exp_power_sum_tail_bound,
    regulator_delta,
    resolve_n_last,
    simulate_eta,
    simulate_trajectories,
)
from glsreg.verify import norm_axiom_violations

SEED = 42
EPS = 0.5


def timed(fn):
    start = time.monotonic()
    out = fn()
    return out, time.monotonic() - start


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def eta_start2():
    plan = SimulationPlan(
        model=ExponentialPower(alpha=1.0, index_start=2), eps=EPS, trajectories=100_000, seed=SEED
    )
    samples, elapsed = timed(lambda: simulate_eta(plan))
    return samples.value, plan, elapsed


@pytest.fixture(scope="module")
def eta_start1():
    plan = SimulationPlan(
        model=ExponentialPower(alpha=1.0, index_start=1), eps=EPS, trajectories=100_000, seed=SEED
    )
    samples, elapsed = timed(lambda: simulate_eta(plan))
    return samples.value, resolve_n_last(plan), elapsed


def test_01_regulator_moment_bound(eta_start2):
    values, plan, sim_elapsed = eta_start2
    env = plan.model.moment_envelope()

    def check():
        rows = []
        for p in (2.5, 3.0, 4.0, 6.0):
            est = power_mean_estimate(values, p)
            bound = math.exp(special.gammaln(p + 1.0) / p) * (p * EPS - 1.0) ** (-1.0 / p)
            assert regulator_lp_bound(env, EPS, p) == pytest.approx(bound, rel=1e-12)
            rows.append((p, est.value, est.half_width, bound))
        return rows

    rows, elapsed = timed(check)
    ok = all(est <= bound + 3.0 * hw for _, est, hw, bound in rows)
    worst = max(est - bound for _, est, _, bound in rows)
    report(1, ok, f"worst margin {-worst:.3f} over p grid, {sim_elapsed + elapsed:.1f}s")
    assert ok
    assert sim_elapsed + elapsed < 60.0


def test_02_tail_matches_exact_oracle(eta_start1):
    values, n_last, sim_elapsed = eta_start1

    def check():
        rows = []
        for u in (1.0, 2.0, 5.0, 10.0, 20.0):
            est = proportion_estimate(int(np.count_nonzero(values >= u)), values.size)
            exact = exact_eta_tail(1.0, EPS, u)
            allowance = 3.0 * est.half_width + exp_power_sum_tail_bound(u, EPS, n_last)
            rows.append((u, abs(est.value - exact), allowance))
        return rows

    rows, elapsed = timed(check)
    ok = all(violation <= allowance for _, violation, allowance in rows)
    worst = max(violation / allowance for _, violation, allowance in rows)
    report(2, ok, f"worst violation at {worst:.2f}x allowance, {sim_elapsed + elapsed:.1f}s")
    assert ok
    assert sim_elapsed + elapsed < 60.0


def test_03_bonferroni_sandwich():
    def check():
        worst = 0.0
        for eps in (0.25, 0.5, 0.75):
            for u in np.geomspace(1.0, 100.0, 50):
                s1, s2 = bonferroni_sums(eps, float(u), abs_tol=1e-13)
                tail = exact_eta_tail(1.0, eps, float(u), abs_tol=1e-13)
                worst = max(worst, (s1 - s2) - tail, tail - s1)
        return worst

    worst, elapsed = timed(check)
    ok = worst <= 1e-12
    report(3, ok, f"worst bracket violation {worst:.2e}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 5.0


def test_04_tail_power_law_at_large_u():
    def ratio(u):
        return exact_eta_tail(1.0, EPS, u) * u ** (1.0 / EPS) / asymptotic_tail_constant(EPS)

    (r10, r50), elapsed = timed(lambda: (ratio(10.0), ratio(50.0)))
    ok = 0.85 <= r50 <= 1.15 and abs(r50 - 1.0) < abs(r10 - 1.0)
    report(4, ok, f"ratio {r50:.3e} at u=50 vs {r10:.3e} at u=10, {elapsed:.1f}s")
    assert elapsed < 5.0
    assert ok, (
        "the scaled tail ratio leaves [0.85, 1.15] and recedes from 1 as u grows; "
        "the exact tail decays exponentially at large u"
    )


def test_05_moment_blowup_bracket():
    def check():
        factors = []
        lower_ok = True
        for p in (1.0, 1.5, 1.8, 1.98):
            moment = exact_eta_moment(1.0, EPS, p)
            factors.append(moment * (1.0 / EPS - p) ** (1.0 / p))
            floor = math.exp(special.gammaln(p + 1.0) / p)
            lower_ok = lower_ok and moment >= floor * (1.0 - 3e-6)
        return factors, lower_ok

    (factors, lower_ok), elapsed = timed(check)
    spread = max(factors) / min(factors)
    ok = lower_ok and all(math.isfinite(f) and f > 0 for f in factors) and spread <= 10.0
    report(5, ok, f"bracket spread {spread:.2f}, first-term floor held: {lower_ok}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_06_high_exponent_envelope(eta_start1):
    values, _, sim_elapsed = eta_start1

    def check():
        rows = []
        for p in (8.0, 10.0, 12.0):
            est = power_mean_estimate(values, p)
            bound = 3.0 ** (1.0 / EPS) * math.exp(special.gammaln(p + 1.0) / p)
            rows.append((est.value, est.half_width, bound))
        return rows

    rows, elapsed = timed(check)
    ok = all(est <= bound + 3.0 * hw for est, hw, bound in rows)
    slack = min(bound - est for est, _, bound in rows)
    report(6, ok, f"minimum slack {slack:.1f} below 9 K(p), {sim_elapsed + elapsed:.1f}s")
    assert ok
    assert sim_elapsed + elapsed < 60.0


def test_07_geometric_sigma_closed_form():
    def check():
        worst = 0.0
        cap_ok = True
        for delta in (0.1, 0.5, 0.9):
            pair = DecaySequencePair(GeometricSequence(q=0.5 * delta), GeometricSequence(q=0.5))
            for p in (1.0, 2.0, 5.0):
                closed = sigma_function(pair, p)
                series = sigma_function(pair, p, rel_tol=1e-9, force_series=True)
                worst = max(worst, abs(series - closed) / closed)
                cap_ok = cap_ok and closed <= 1.0 / (1.0 - delta) + 1e-12
        return worst, cap_ok

    (worst, cap_ok), elapsed = timed(check)
    ok = worst <= 1e-9 and cap_ok
    report(7, ok, f"series-vs-closed rel err {worst:.2e}, uniform cap held: {cap_ok}, {elapsed:.1f}s")
    assert ok
    assert elapsed < 1.0


def test_08_conjugate_closed_form_and_identity():
    psi = PowerRoot(m=1.0)

    def check():
        worst_closed = max(
            abs(young_fenchel(psi, v) - math.exp(v - 1.0)) for v in (1.0, 2.0, 3.0)
        )
        worst_identity = 0.0
        for t in (math.e, 5.0, 20.0, 80.0):
            scan = young_fenchel_scan(psi, math.log(t), refine=False)
            with np.errstate(over="ignore"):
                direct = float(np.min((psi.values(scan.grid) / t) ** scan.grid))
            worst_identity = max(
                worst_identity, abs(math.exp(-scan.value) - direct) / direct
            )
        return worst_closed, worst_identity

    (worst_closed, worst_identity), elapsed = timed(check)
    ok = worst_closed <= 1e-6 and worst_identity <= 1e-9
    report(
        8, ok,
        f"closed form abs err {worst_closed:.2e}, grid identity rel err {worst_identity:.2e}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 1.0


def test_09_norm_axioms_randomized():
    violations, elapsed = timed(lambda: norm_axiom_violations(SEED, 1000))
    ok = (
        violations["homogeneity"] <= 1e-9
        and violations["anti_monotonicity"] <= 1e-12
        and violations["extremal"] == 0.0
        and violations["natural"] == 0.0
    )
    report(
        9, ok,
        "max violations: homogeneity {homogeneity:.1e}, anti-monotonicity {anti_monotonicity:.1e}, "
        "extremal {extremal:.1e}, natural {natural:.1e}".format(**violations) + f", {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 1.0


def test_10_convergence_criteria_and_bitwise_regulator():
    plan = SimulationPlan(
        model=ExponentialPower(alpha=2.0, index_start=1), eps=EPS, trajectories=10_000, seed=SEED
    )

    def check():
        starts = (1, 10, 100)
        assert resolve_n_last(plan) >= starts[-1]  # a window past the data would fold nothing and read 0
        sups = np.zeros((len(starts), plan.trajectories))
        factors = np.zeros(plan.trajectories)
        delta = regulator_delta(plan)
        exact = []

        def reduce(rows, block):
            for n, running in zip(starts, sups):
                criterion_functional(block, n, plan.index_start + rows.start, out=running)
            ratios = regulator_ratio_matrix(block, delta[rows, None])
            before = factors.copy()
            extract_regulator(block, delta[rows], out=factors)
            exact.append(bool(np.all(ratios <= factors)))
            exact.append(bool(np.array_equal(np.maximum(before, ratios.max(axis=0)), factors)))

        simulate_trajectories(plan, reduce)
        functional = [mean_estimate(criterion_terms(running)).value for running in sups]
        factorization = all(exact)
        eta = simulate_eta(plan).value
        bitwise = bool(np.array_equal(factors, eta))
        return functional, factorization, bitwise

    (functional, factorization, bitwise), elapsed = timed(check)
    nonincreasing = functional == sorted(functional, reverse=True)
    small = functional[-1] < 0.02
    ok = nonincreasing and small and factorization and bitwise
    report(
        10, ok,
        f"functional {functional[0]:.3f} -> {functional[-1]:.2e}, factorization exact: {factorization}, "
        f"regulator bitwise: {bitwise}, {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 30.0
