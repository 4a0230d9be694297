"""Verification suite: every closed-form claim is checked against an oracle.

Each check simulates or evaluates both sides of one inequality and returns
CheckRecords; ``run_suite`` aggregates them into a VerificationReport.  The
suite is honest by construction: the tail-asymptote check compares the exact
tail against the claimed power-law comparison at large thresholds and is
expected to FAIL, because the exact tail of the exponential-power model
decays exponentially there (see the asymptote records' claims).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np
from scipy import special

from .bounds import regulator_lp_bound, sigma_function
from .criteria import criterion_functional, extract_regulator, regulator_ratio_matrix
from .errors import GLSError
from .estimates import power_mean_estimate
from .generating import (
    Extremal,
    PowerRoot,
    Product,
    Tabulated,
    TwoSidedSingular,
    natural_function,
)
from .moments import (
    MomentFunction,
    discrete_moments,
    empirical_tail,
    gls_norm,
    scaled_moments,
    std_exponential_moments,
    sup_moment_function,
    young_fenchel,
)
from .reports import CheckRecord, VerificationReport
from .sequences import DecaySequencePair, GeometricSequence, PowerLogSequence
from .simulate import (
    ExponentialPower,
    SimulationPlan,
    asymptotic_tail_constant,
    bonferroni_sums,
    exact_eta_moment,
    exact_eta_tail,
    simulate_eta,
    simulate_trajectories,
    truncation_bound,
)

__all__ = ["CHECKS", "DEFAULT_SUITE", "run_suite", "norm_axiom_violations"]


#: Regulator values of a plan and their truncation bound, memoised per run_suite call.
EtaValues = Callable[[SimulationPlan], tuple[np.ndarray, float]]


def _eta_values(plan: SimulationPlan) -> tuple[np.ndarray, float]:
    values = simulate_eta(plan).value
    values.flags.writeable = False  # one array serves every check that asks for this plan
    return values, truncation_bound(plan, values)


def _exponential_plan(seed: int, trajectories: int, alpha: float = 1.0, index_start: int = 1) -> SimulationPlan:
    return SimulationPlan(
        model=ExponentialPower(alpha=alpha, index_start=index_start),
        eps=0.5,
        trajectories=trajectories,
        seed=seed,
    )


def check_moment_sup_bound(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Empirical ||eta||_p against the envelope bound K(p) (p eps - 1)^(-1/p)."""
    plan = _exponential_plan(seed, trajectories, index_start=2)
    values, trunc = eta_values(plan)
    env = plan.model.moment_envelope()
    records = []
    for p in (2.5, 3.0, 4.0, 6.0):
        est = power_mean_estimate(values, p)
        records.append(
            CheckRecord(
                check_id=f"moment-sup-bound-p{p:g}",
                claim="empirical ||eta||_p stays below the envelope moment bound",
                kind="upper",
                theoretical=regulator_lp_bound(env, plan.eps, p),
                estimate=est.value,
                half_width=est.half_width,
                truncation_bound=trunc,
                params={"p": p, "eps": plan.eps, "index_start": 2, "trajectories": trajectories},
            )
        )
    return records


def check_tail_oracle_agreement(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Empirical tail of simulated eta against the exact infinite-product tail."""
    plan = _exponential_plan(seed, trajectories)
    values, trunc = eta_values(plan)
    records = []
    for u in (1.0, 2.0, 5.0, 10.0, 20.0):
        est = empirical_tail(values, u)
        records.append(
            CheckRecord(
                check_id=f"tail-oracle-agreement-u{u:g}",
                claim="empirical tail frequency matches the exact product tail",
                kind="equality",
                theoretical=exact_eta_tail(plan.alpha, plan.eps, u),
                estimate=est.value,
                half_width=est.half_width,
                truncation_bound=trunc,
                params={"u": u, "eps": plan.eps, "trajectories": trajectories},
            )
        )
    return records


def check_bonferroni_sandwich(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """sigma1 - sigma2 <= exact tail <= sigma1 on a log grid of thresholds."""
    del seed, trajectories, eta_values  # exact arithmetic, no randomness
    records = []
    for eps in (0.25, 0.5, 0.75):
        worst = -math.inf
        for u in np.geomspace(1.0, 100.0, 50):
            tail = exact_eta_tail(1.0, eps, float(u), abs_tol=1e-13)
            s1, s2 = bonferroni_sums(eps, float(u), abs_tol=1e-13)
            worst = max(worst, (s1 - s2) - tail, tail - s1)
        records.append(
            CheckRecord(
                check_id=f"bonferroni-sandwich-eps{eps:g}",
                claim="the inclusion-exclusion sandwich brackets the exact tail",
                kind="equality",
                theoretical=0.0,
                estimate=max(worst, 0.0),
                tolerance=1e-12,
                params={"eps": eps, "u_grid": "50 points log-spaced in [1, 100]"},
            )
        )
    return records


def check_tail_asymptote(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Claimed power-law tail comparison at large u; expected to FAIL.

    The claim under test: exact_tail(u) * u^(1/eps) / Gamma(1 + 1/eps) sits
    near 1 at u = 50 and approaches 1 monotonically over u in {10, 20, 50}.
    The exact tail instead decays like exp(-u) once u is large, so the ratio
    collapses toward 0; the records report that honestly.
    """
    del seed, trajectories, eta_values
    eps = 0.5
    c = asymptotic_tail_constant(eps)
    ratio = {u: exact_eta_tail(1.0, eps, u) * u ** (1.0 / eps) / c for u in (10.0, 20.0, 50.0)}
    return [
        CheckRecord(
            check_id="tail-asymptote-constant",
            claim="exact tail times u^(1/eps)/Gamma(1 + 1/eps) is within 0.15 of 1 at u = 50",
            kind="equality",
            theoretical=1.0,
            estimate=ratio[50.0],
            tolerance=0.15,
            params={"eps": eps, "u": 50.0},
        ),
        CheckRecord(
            check_id="tail-asymptote-approach",
            claim="the ratio sits strictly closer to 1 at u = 50 than at u = 10",
            kind="upper",
            theoretical=0.0,
            estimate=abs(ratio[50.0] - 1.0) - abs(ratio[10.0] - 1.0),
            params={"eps": eps, "u_pair": [10.0, 50.0]},
        ),
    ]


def check_moment_blowup_bracket(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Exact moments: bracketed blowup rate near p = 1/eps, and eta >= Z_1."""
    del seed, trajectories, eta_values
    eps, rel_tol = 0.5, 1e-6
    p_grid = (1.0, 1.5, 1.8, 1.98)
    records = []
    factors = []
    for p in p_grid:
        moment = exact_eta_moment(1.0, eps, p, rel_tol=rel_tol)
        factors.append(moment * (1.0 / eps - p) ** (1.0 / p))
        records.append(
            CheckRecord(
                check_id=f"moment-lower-bound-p{p:g}",
                claim="the exact ||eta||_p dominates ||Z_1||_p = Gamma(p+1)^(1/p)",
                kind="lower",
                theoretical=math.exp(special.gammaln(p + 1.0) / p),
                estimate=moment,
                tolerance=2.0 * rel_tol * moment,
                params={"p": p, "eps": eps},
            )
        )
    records.append(
        CheckRecord(
            check_id="moment-blowup-bracket",
            claim="||eta||_p (1/eps - p)^(1/p) varies by at most a factor of 10 up to p = 1.98",
            kind="upper",
            theoretical=10.0,
            estimate=max(factors) / min(factors),
            tolerance=1e-3,
            params={"p_grid": list(p_grid), "eps": eps},
        )
    )
    return records


def check_natural_envelope_bound(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """High-exponent moment bound 3^(1/eps) K(p) for the truncated regulator."""
    plan = _exponential_plan(seed, trajectories)
    values, trunc = eta_values(plan)
    k = std_exponential_moments()
    front = 3.0 ** (1.0 / plan.eps)
    records = []
    for p in (8.0, 10.0, 12.0):
        est = power_mean_estimate(values, p)
        records.append(
            CheckRecord(
                check_id=f"natural-envelope-bound-p{p:g}",
                claim="truncated ||eta||_p stays below 3^(1/eps) Gamma(p+1)^(1/p)",
                kind="upper",
                theoretical=front * k.value(p),
                estimate=est.value,
                half_width=est.half_width,
                truncation_bound=trunc,
                params={"p": p, "eps": plan.eps, "front_factor": front},
            )
        )
    return records


def check_sigma_closed_form(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Geometric sigma: truncated series vs closed form, plus the uniform cap."""
    del seed, trajectories, eta_values
    rel_tol = 1e-9
    worst_rel, worst_cap = 0.0, -math.inf
    for delta in (0.1, 0.5, 0.9):
        pair = DecaySequencePair(GeometricSequence(q=0.5 * delta), GeometricSequence(q=0.5))
        for p in (1.0, 2.0, 5.0):
            closed = sigma_function(pair, p, rel_tol)
            series = sigma_function(pair, p, rel_tol, force_series=True)
            worst_rel = max(worst_rel, abs(series - closed) / closed)
            worst_cap = max(worst_cap, closed - 1.0 / (1.0 - delta))
    return [
        CheckRecord(
            check_id="sigma-closed-form",
            claim="truncated sigma series agrees with (1 - delta^p)^(-1/p)",
            kind="equality",
            theoretical=0.0,
            estimate=worst_rel,
            tolerance=rel_tol,
            params={"delta_grid": [0.1, 0.5, 0.9], "p_grid": [1, 2, 5]},
        ),
        CheckRecord(
            check_id="sigma-uniform-cap",
            claim="sigma(p) never exceeds (1 - delta)^(-1)",
            kind="equality",
            theoretical=0.0,
            estimate=max(worst_cap, 0.0),
            tolerance=1e-12,
            params={"delta_grid": [0.1, 0.5, 0.9], "p_grid": [1, 2, 5]},
        ),
    ]


def check_conjugate_closed_form(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Conjugate of p ln p against its stationary-point closed form e^(v-1)."""
    del seed, trajectories, eta_values
    vs = (1.0, 2.0, 3.0)
    estimates = young_fenchel(PowerRoot(m=1.0), np.asarray(vs))
    return [
        CheckRecord(
            check_id=f"conjugate-closed-form-v{v:g}",
            claim="numeric conjugate of p ln p matches e^(v-1)",
            kind="equality",
            theoretical=math.exp(v - 1.0),
            estimate=float(h),
            tolerance=1e-6,
            params={"v": v},
        )
        for v, h in zip(vs, estimates)
    ]


# ---------------------------------------------------------------------------
# randomized norm axioms


def _random_moment_curve(rng: np.random.Generator):
    k = int(rng.integers(1, 7))
    atoms = rng.lognormal(mean=0.0, sigma=1.0, size=k)
    weights = rng.uniform(0.2, 1.0, size=k)
    return discrete_moments(atoms, weights)


def _random_generating(rng: np.random.Generator):
    form = int(rng.integers(0, 3))
    if form == 0:
        return PowerRoot(m=float(rng.uniform(0.5, 4.0)))
    if form == 1:
        return TwoSidedSingular(b=float(rng.uniform(3.0, 20.0)), alpha=float(rng.uniform(0.0, 1.5)), beta=float(rng.uniform(0.0, 1.5)))
    knots_p = np.sort(rng.uniform(1.0, 40.0, size=4))
    knots_p[0] = 1.0
    knots_v = rng.uniform(0.5, 3.0, size=4)
    return Tabulated(points=tuple((float(a), float(b)) for a, b in zip(knots_p, knots_v)))


def norm_axiom_violations(seed: int, cases: int) -> dict[str, float]:
    """Largest observed violation of each norm axiom over randomized inputs.

    Returns relative violations for homogeneity, signed gaps for
    anti-monotonicity (positive means broken), absolute gaps for the
    extremal reduction to the plain p-norm, and |norm - 1| for natural
    generating functions of single curves and of pointwise-sup families.
    """
    rng = np.random.default_rng(seed)
    worst = {"homogeneity": 0.0, "anti_monotonicity": -math.inf, "extremal": 0.0, "natural": 0.0}
    n_points = 96
    for _ in range(cases):
        m = _random_moment_curve(rng)
        psi = _random_generating(rng)

        c = float(rng.lognormal(mean=0.0, sigma=1.0))
        base = gls_norm(m, psi, n_points=n_points, refine=False)
        scaled = gls_norm(scaled_moments(m, c), psi, n_points=n_points, refine=False)
        if math.isfinite(base) and base > 0 and math.isfinite(scaled):
            worst["homogeneity"] = max(worst["homogeneity"], abs(scaled - c * base) / (c * base))

        # constant factor >= 1 on the full domain keeps both scans on one grid
        k = 1.0 + float(rng.uniform(0.0, 2.0))
        grown = MomentFunction(psi.domain, lambda p, k=k: np.full_like(p, k))
        big = gls_norm(m, Product((psi, grown)), n_points=n_points, refine=False)
        if math.isfinite(base) and math.isfinite(big):
            worst["anti_monotonicity"] = max(worst["anti_monotonicity"], big - base)

        r = float(rng.uniform(1.0, 8.0))
        worst["extremal"] = max(worst["extremal"], abs(gls_norm(m, Extremal(r)) - m.value(r)))

        natural = natural_function(m)
        worst["natural"] = max(worst["natural"], abs(gls_norm(m, natural, n_points=n_points, refine=False) - 1.0))
        family = sup_moment_function([m, _random_moment_curve(rng)])
        fam_norm = max(
            gls_norm(member, natural_function(family), n_points=n_points, refine=False)
            for member in (m, family)
        )
        worst["natural"] = max(worst["natural"], abs(fam_norm - 1.0))
    return worst


def check_norm_axioms(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    del trajectories, eta_values
    cases = 250
    worst = norm_axiom_violations(seed, cases)
    axiom_checks = {
        "homogeneity": ("norm of c*f equals |c| times the norm of f", worst["homogeneity"], 1e-9),
        "anti-monotonicity": ("growing the weight never grows the norm", max(worst["anti_monotonicity"], 0.0), 1e-12),
        "extremal-reduction": ("a single-point weight reduces the norm to ||f||_r", worst["extremal"], 1e-12),
        "natural-norm-one": ("normalising by the natural weight gives norm 1", worst["natural"], 1e-12),
    }
    return [
        CheckRecord(
            check_id=f"norm-axioms-{name}",
            claim=claim,
            kind="equality",
            theoretical=0.0,
            estimate=value,
            tolerance=tol,
            params={"cases": cases, "seed": seed},
        )
        for name, (claim, value, tol) in axiom_checks.items()
    ]


def check_convergence_diagnostics(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Monotone criterion functional, smallness at n = 100, exact extraction."""
    m = min(trajectories, 10_000)
    plan = _exponential_plan(seed, m, alpha=2.0)
    batch = simulate_trajectories(plan)
    estimates = {n: criterion_functional(batch, n) for n in (1, 10, 100)}
    worst_increase = max(
        estimates[10].value - estimates[1].value,
        estimates[100].value - estimates[10].value,
    )
    extraction = extract_regulator(batch, PowerLogSequence(rate=plan.alpha - plan.eps))
    ratios = regulator_ratio_matrix(batch.values, extraction.delta_values)
    factor_gap = float(np.max(np.subtract(ratios, extraction.factors[:, None], out=ratios)))
    eta, _ = eta_values(plan)  # simulate_eta, not the batch, so regulator-eta-bitwise compares two routes
    return [
        CheckRecord(
            check_id="criterion-monotone",
            claim="the sup-criterion estimate never increases with the start index",
            kind="upper",
            theoretical=0.0,
            estimate=worst_increase,
            params={"n_grid": [1, 10, 100], "trajectories": m},
        ),
        CheckRecord(
            check_id="criterion-small-at-100",
            claim="the sup-criterion estimate drops below 0.02 by n = 100",
            kind="upper",
            theoretical=0.02,
            estimate=estimates[100].value,
            half_width=estimates[100].half_width,
            params={"alpha": 2.0, "trajectories": m},
        ),
        CheckRecord(
            check_id="regulator-factorization",
            claim="every |x_n| / delta_n is dominated by the extracted factor, exactly",
            kind="upper",
            theoretical=0.0,
            estimate=factor_gap,
            params={"trajectories": m},
        ),
        CheckRecord(
            check_id="regulator-eta-bitwise",
            claim="extraction and direct simulation agree bitwise on shared seeds",
            kind="equality",
            theoretical=0.0,
            estimate=float(np.max(np.abs(extraction.factors - eta))),
            params={"trajectories": m},
        ),
    ]


CHECKS = {
    "moment-sup-bound": check_moment_sup_bound,
    "tail-oracle-agreement": check_tail_oracle_agreement,
    "bonferroni-sandwich": check_bonferroni_sandwich,
    "tail-asymptote": check_tail_asymptote,
    "moment-blowup-bracket": check_moment_blowup_bracket,
    "natural-envelope-bound": check_natural_envelope_bound,
    "sigma-closed-form": check_sigma_closed_form,
    "conjugate-closed-form": check_conjugate_closed_form,
    "norm-axioms": check_norm_axioms,
    "convergence-diagnostics": check_convergence_diagnostics,
}

DEFAULT_SUITE = tuple(CHECKS)


def run_suite(
    check_ids=None,
    seed: int = 42,
    trajectories: int = 20_000,
    config_sha: str = "",
) -> VerificationReport:
    """Run the selected checks (default: all) and collect a report."""
    ids = tuple(check_ids) if check_ids else DEFAULT_SUITE
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise GLSError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(CHECKS)})")
    eta_values = functools.cache(_eta_values)  # one simulation per distinct plan, for this call only
    records: list[CheckRecord] = []
    for check_id in ids:
        records.extend(CHECKS[check_id](seed, trajectories, eta_values))
    return VerificationReport(records=tuple(records), seed=seed, config_sha256=config_sha)
