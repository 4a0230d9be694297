"""Verification suite: every closed-form claim is checked against an oracle.

Each check simulates or evaluates both sides of one inequality and returns
CheckRecords; ``run_suite`` aggregates them into a VerificationReport.  The
suite is honest by construction: the tail-asymptote check compares the exact
tail against the claimed power-law comparison at large thresholds and is
expected to FAIL, because the exact tail of the exponential-power model
decays exponentially there (see the asymptote records' claims).  The
tail-regimes check beside it states what does hold: the exponential rate at
large thresholds, and the power law for the first Bonferroni sum at small ones.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import replace

import numpy as np

from .bounds import regulator_lp_bound, sigma_function
from .criteria import criterion_functional, criterion_terms, extract_regulator
from .errors import DomainError, GLSError
from .estimates import mean_estimate, power_mean_estimate
from .generating import (
    Extremal,
    PowerRoot,
    Product,
    Tabulated,
    TwoSidedSingular,
)
from .moments import (
    _lane_norms,
    constant_moments,
    discrete_moment_lanes,
    empirical_tail,
    gls_norm,
    scaled_moments,
    std_exponential_moments,
    sup_moment_function,
    young_fenchel,
)
from .reports import CheckRecord, VerificationReport
from .sequences import DecaySequencePair, GeometricSequence
from .simulate import (
    _MOMENT_REL_TOL,
    ExponentialPower,
    FixedTruncation,
    SimulationPlan,
    asymptotic_tail_constant,
    bonferroni_sums,
    exact_eta_moment,
    exact_eta_tail,
    exp_power_sum,
    regulator_delta,
    resolve_n_last,
    simulate_eta,
    simulate_trajectories,
    truncation_bound,
)

__all__ = ["CHECKS", "run_suite", "norm_axiom_violations"]


#: Regulator values of a plan and their truncation bound.  ``run_suite`` memoises them per call
#: (``_stream_eta_values``): one column pass per stream, and each start index's eta folded from it.
EtaValues = Callable[[SimulationPlan], tuple[np.ndarray, float]]


def _eta_values(plan: SimulationPlan, held: tuple[int, np.ndarray] | None = None) -> tuple[np.ndarray, float]:
    """eta of a plan and its truncation bound; given ``held``, only the head rows are drawn.

    ``held`` is (s, eta at start s) of the plan's stream, s > index_start:
    row n of the column pass is keyed by (seed, n) alone and eta is a max,
    which is exact, so the elementwise max of the held eta and a pass over
    the rows index_start..s-1 alone is the plan's eta, bit for bit.
    """
    if held is None:
        values = simulate_eta(plan).value
    else:
        start, later = held
        values = simulate_eta(replace(plan, truncation=FixedTruncation(n_last=start - 1))).value
        np.maximum(values, later, out=values)
    values.flags.writeable = False  # one array serves every check that asks for this plan
    return values, truncation_bound(plan, values)


def _stream_eta_values() -> EtaValues:
    """A fresh memo in which plans that differ only in index_start share one column pass.

    The stream is the seed, the trajectory count, the model with index_start
    set to 1, eps and the resolved n_last.  The memo holds the lowest start
    folded so far for each stream; a lower start draws only its head rows
    and folds them in, another plan at or above it gets a fresh pass.
    """
    folds: dict[tuple, tuple[int, np.ndarray]] = {}  # stream -> (lowest start folded, its eta)

    @functools.cache
    def eta_values(plan: SimulationPlan) -> tuple[np.ndarray, float]:
        stream = (plan.seed, plan.trajectories, replace(plan.model, index_start=1), plan.eps, resolve_n_last(plan))
        held = folds.get(stream)
        if held is not None and plan.index_start >= held[0]:
            return _eta_values(plan)
        values, trunc = _eta_values(plan, held)
        folds[stream] = (plan.index_start, values)
        return values, trunc

    return eta_values


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
    near 1 at u = 50 and closer to 1 there than at u = 10.
    The exact tail instead decays like exp(-u) once u is large, so the ratio
    collapses toward 0; the records report that honestly.
    """
    del seed, trajectories, eta_values
    eps = 0.5
    c = asymptotic_tail_constant(eps)
    ratio = {u: exact_eta_tail(1.0, eps, u) * u ** (1.0 / eps) / c for u in (10.0, 50.0)}
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


def check_tail_regimes(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """The true statements of both tail regimes at eps 0.5 and n0 = 1.

    Large u: the first factor of the product dominates, so
    P(eta > u) e^(u n0^eps) -> 1, the next term being of order
    e^(-u ((n0 + 1)^eps - n0^eps)).  Small u: sigma1(u) is a Riemann sum of
    int exp(-u t^eps) dt = Gamma(1 + 1/eps) u^(-1/eps), so
    sigma1(u) u^(1/eps) / Gamma(1 + 1/eps) -> 1; the exact tail itself tends
    to 1 there, so the power law belongs to sigma1 only.  The large-u records
    stop at u = 20, where the oracle's abs_tol of 1e-12 is at most 4.9e-4 of
    the ratio.
    """
    del seed, trajectories, eta_values
    eps, n0, u_small = 0.5, 1, 0.05
    ratio = {u: exact_eta_tail(1.0, eps, u, index_start=n0) * math.exp(u * n0**eps) for u in (10.0, 20.0)}
    sum_ratio = exp_power_sum(u_small, eps, index_start=n0) * u_small ** (1.0 / eps) / asymptotic_tail_constant(eps)
    return [
        CheckRecord(
            check_id="tail-regimes-large-u",
            claim="exact tail times e^(u n0^eps) is within 1e-3 of 1 at u = 20",
            kind="equality",
            theoretical=1.0,
            estimate=ratio[20.0],
            tolerance=1e-3,
            params={"eps": eps, "index_start": n0, "u": 20.0},
        ),
        CheckRecord(
            check_id="tail-regimes-approach",
            claim="the ratio sits closer to 1 at u = 20 than at u = 10",
            kind="upper",
            theoretical=0.0,
            estimate=abs(ratio[20.0] - 1.0) - abs(ratio[10.0] - 1.0),
            params={"eps": eps, "index_start": n0, "u_pair": [10.0, 20.0]},
        ),
        CheckRecord(
            check_id="tail-regimes-small-u",
            claim="sigma1(u) u^(1/eps)/Gamma(1 + 1/eps) is within 1e-3 of 1 at u = 0.05",
            kind="equality",
            theoretical=1.0,
            estimate=sum_ratio,
            tolerance=1e-3,
            params={"eps": eps, "index_start": n0, "u": u_small},
        ),
    ]


def check_moment_blowup_bracket(seed: int, trajectories: int, eta_values: EtaValues) -> list[CheckRecord]:
    """Exact moments: bracketed blowup rate near p = 1/eps, and eta >= Z_1."""
    del seed, trajectories, eta_values
    eps = 0.5
    p_grid = (1.0, 1.5, 1.8, 1.98)
    k = std_exponential_moments()
    records = []
    factors = []
    for p in p_grid:
        moment = exact_eta_moment(1.0, eps, p)
        factors.append(moment * (1.0 / eps - p) ** (1.0 / p))
        records.append(
            CheckRecord(
                check_id=f"moment-lower-bound-p{p:g}",
                claim="the exact ||eta||_p dominates ||Z_1||_p = Gamma(p+1)^(1/p)",
                kind="lower",
                theoretical=k.value(p),
                estimate=moment,
                tolerance=2.0 * _MOMENT_REL_TOL * moment,
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


def _random_atoms(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k = int(rng.integers(1, 7))
    return rng.lognormal(mean=0.0, sigma=1.0, size=k), rng.uniform(0.2, 1.0, size=k)


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


def _random_case(rng: np.random.Generator):
    """One case: curve, weight, scale c, growth k, exponent r and a second curve, in this draw order."""
    curve, psi = _random_atoms(rng), _random_generating(rng)
    c = float(rng.lognormal(mean=0.0, sigma=1.0))
    k = 1.0 + float(rng.uniform(0.0, 2.0))
    r = float(rng.uniform(1.0, 8.0))
    return curve, psi, c, k, r, _random_atoms(rng)


def norm_axiom_violations(seed: int, cases: int) -> dict[str, float]:
    """Largest observed violation of each norm axiom over randomized inputs.

    Returns relative violations for homogeneity, signed gaps for
    anti-monotonicity (positive means broken), absolute gaps for the
    extremal reduction to the plain p-norm, and |norm - 1| for natural
    generating functions of single curves and of pointwise-sup families.
    All cases are drawn first; each kind of norm then runs as the lanes of
    one scan over a lane family of the random curves.  The extremal scan
    takes the sweep's grid size too: an extremal weight's domain holds the
    one float r, whose grid is the one point r at any size, so the size
    cannot move a value.  On [1, inf) a curve is its own natural weight
    (nu(1) at p = 1 and nu(p) above), so the natural scans weigh each lane
    by its own curve.
    """
    rng = np.random.default_rng(seed)
    worst = {"homogeneity": 0.0, "anti_monotonicity": -math.inf, "extremal": 0.0, "natural": 0.0}
    draws = [_random_case(rng) for _ in range(cases)]
    if not draws:
        return worst
    curves, psis, cs, ks, rs, others = zip(*draws)
    m = discrete_moment_lanes(*zip(*curves))
    n_points = 96

    base = gls_norm(m, psis, n_points=n_points)
    scaled = gls_norm(scaled_moments(m, np.array(cs)[:, None]), psis, n_points=n_points)
    # a constant factor >= 1 has the domain [1, inf), so the product keeps psi's domain and grid
    big = gls_norm(m, [Product((psi, constant_moments(k))) for psi, k in zip(psis, ks)], n_points=n_points)
    at_r = gls_norm(m, [Extremal(r) for r in rs], n_points=n_points)
    m_r = m.evaluator(np.array(rs)[:, None])[:, 0].tolist()
    natural = _lane_norms(m, m.domain, cases, m.evaluator, n_points)
    family = sup_moment_function([m, discrete_moment_lanes(*zip(*others))])
    # the family bounds each member pointwise, so a member's norm under its weight is at most the family's
    fam = _lane_norms(family, family.domain, cases, family.evaluator, n_points)

    for c, b, s, g, e, e_ref, n, f in zip(cs, base, scaled, big, at_r, m_r, natural, fam):
        if math.isfinite(b) and b > 0 and math.isfinite(s):
            worst["homogeneity"] = max(worst["homogeneity"], abs(s - c * b) / (c * b))
        if math.isfinite(b) and math.isfinite(g):
            worst["anti_monotonicity"] = max(worst["anti_monotonicity"], g - b)
        worst["extremal"] = max(worst["extremal"], abs(e - e_ref))
        worst["natural"] = max(worst["natural"], abs(n - 1.0), abs(f - 1.0))
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
    """Monotone criterion functional, smallness at n = 100, and a column pass's regulator factors against simulate_eta."""
    m = min(trajectories, 10_000)
    plan = _exponential_plan(seed, m, alpha=2.0)
    starts = (1, 10, 100)
    n_last = resolve_n_last(plan)
    if n_last < starts[-1]:  # the fold cannot see this: a window past the data would keep sups of 0 and pass
        raise DomainError(f"window start {starts[-1]} lies past the simulated indices (n_last = {n_last})")
    sups = np.zeros((len(starts), m))  # the column pass keeps four floats a trajectory: three sups and the factor
    factors = np.zeros(m)
    delta = regulator_delta(plan)

    def reduce(rows: slice, block: np.ndarray) -> None:
        for n, running in zip(starts, sups):
            criterion_functional(block, n, plan.index_start + rows.start, out=running)
        extract_regulator(block, delta[rows], out=factors)  # last: it overwrites the block

    simulate_trajectories(plan, reduce)
    estimates = {n: mean_estimate(criterion_terms(running)) for n, running in zip(starts, sups)}
    worst_increase = max(
        estimates[10].value - estimates[1].value,
        estimates[100].value - estimates[10].value,
    )
    eta, _ = eta_values(plan)  # a second pass, through simulate_eta's reducer
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
            claim="the directly simulated regulator dominates every |x_n| / delta_n of the batch",
            kind="upper",
            theoretical=0.0,
            estimate=float(np.max(factors - eta)),
            params={"trajectories": m},
        ),
        CheckRecord(
            check_id="regulator-eta-bitwise",
            claim="extraction and direct simulation agree bitwise on shared seeds",
            kind="equality",
            theoretical=0.0,
            estimate=float(np.max(np.abs(factors - eta))),
            params={"trajectories": m},
        ),
    ]


CHECKS = {
    "moment-sup-bound": check_moment_sup_bound,
    "tail-oracle-agreement": check_tail_oracle_agreement,
    "bonferroni-sandwich": check_bonferroni_sandwich,
    "tail-asymptote": check_tail_asymptote,
    "tail-regimes": check_tail_regimes,
    "moment-blowup-bracket": check_moment_blowup_bracket,
    "natural-envelope-bound": check_natural_envelope_bound,
    "sigma-closed-form": check_sigma_closed_form,
    "conjugate-closed-form": check_conjugate_closed_form,
    "norm-axioms": check_norm_axioms,
    "convergence-diagnostics": check_convergence_diagnostics,
}


def run_suite(
    check_ids=None,
    seed: int = 42,
    trajectories: int = 20_000,
) -> VerificationReport:
    """Run the selected checks (default: all) and collect a report.

    The checks share one ``_stream_eta_values`` memo, made fresh for this
    call.  In the catalogue's order, moment-sup-bound (n0 = 2) runs the
    column pass, and the n0 = 1 plan of tail-oracle-agreement and
    natural-envelope-bound draws index 1 alone and folds it in.
    """
    ids = tuple(check_ids) if check_ids else tuple(CHECKS)
    unknown = [i for i in ids if i not in CHECKS]
    if unknown:
        raise GLSError(f"unknown checks: {', '.join(unknown)} (known: {', '.join(CHECKS)})")
    eta_values = _stream_eta_values()
    records: list[CheckRecord] = []
    for check_id in ids:
        records.extend(CHECKS[check_id](seed, trajectories, eta_values))
    return VerificationReport(records=tuple(records), seed=seed)
