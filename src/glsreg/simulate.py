"""Trajectory simulation for power-decay sequence models, with exact oracles.

The generative models are Z_n = theta_n / n**alpha with i.i.d. standard
exponential theta_n, and Z_n = |g_n| / n**alpha with i.i.d. standard normal
g_n.  The regulator eta = sup_n n**(alpha - eps) |Z_n| is estimated by Monte
Carlo with a certified truncation index, and for the exponential model the
module also evaluates the exact tail

    P(eta > u) = 1 - prod_n (1 - exp(-u n**eps)),

its Bonferroni sandwich, and the exact moments by one fixed composite
Gauss-Legendre rule against that tail: only the moments' cut of the integral
at U is certified, and their rel_tol sets only that cut.  These exact
routines are the oracles every simulated quantity is verified against.

Randomness is counter-based: trajectory j of seed s reads from a Philox
stream keyed (s, j), and the n-th draw is a pure function of (s, j, n).
One Philox is re-keyed for every row: its state is set to counter 0, key
(s, j) and an empty buffer, which is the state of a fresh
``Philox(key=(s, j))``, so each row's stream is unchanged.
``simulate_eta`` generates rows chunk by chunk into one reused buffer of
about 1 MiB (``_ROW_CHUNK_CELLS`` float64 cells, at least one row),
transforms each chunk in place and keeps only each row's max, so it holds
one row chunk plus 8 bytes per trajectory; the chunk size affects memory
only, never a single bit of output.  ``glsreg simulate`` then streams
eta.csv in blocks (``persist.write_eta_samples``).
``simulate_trajectories`` writes every row straight into the batch matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import special

from .criteria import TrajectoryBatch, regulator_ratio_matrix
from .errors import DomainError, MomentInfinite, ToleranceUnreachable, TruncationInfeasible
from .generating import check_eps, natural_function
from .moments import half_normal_moments, std_exponential_moments
from .bounds import SERIES_TERM_CAP, MomentEnvelope, _check_model_fields
from .sequences import PowerLogSequence, _chunked_sum

__all__ = [
    "TRUNCATION_CAP",
    "ExponentialPower",
    "GaussianPower",
    "SequenceModel",
    "FixedTruncation",
    "TailTargetTruncation",
    "SimulationPlan",
    "resolve_n_last",
    "simulate_eta",
    "truncation_bound",
    "simulate_trajectories",
    "exp_power_sum_tail_bound",
    "exp_power_threshold",
    "exp_power_sum",
    "exact_eta_tail",
    "bonferroni_sums",
    "asymptotic_tail_constant",
    "exact_eta_moment",
    "model_from_config",
    "plan_from_config",
]

#: Hard cap on the truncation index of a simulated trajectory.
TRUNCATION_CAP = 10**7

_BATCH_CELL_CAP = 1 << 26
_ROW_CHUNK_CELLS = 1 << 17  # cells of simulate_eta's row buffer: 1 MiB of float64, cache-sized

# nodes and weights on [-1, 1] of the rule exact_eta_moment applies on every panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class ExponentialPower:
    """Z_n = theta_n / n**alpha with theta_n i.i.d. standard exponential."""

    alpha: float
    index_start: int = 1
    kind = "exponential_power"

    def __post_init__(self) -> None:
        _check_model_fields(self.alpha, self.index_start)

    def moment_envelope(self) -> MomentEnvelope:
        """Exact envelope: ||Z_n||_p = Gamma(p+1)**(1/p) * n**(-alpha)."""
        return MomentEnvelope(natural_function(std_exponential_moments()), self.alpha, self.index_start)

    def tail_exponent(self, u: float, eps: float) -> tuple[float, float]:
        """(c, gamma) with P(n**(alpha-eps) |Z_n| > u) <= exp(-c n**gamma); here an equality."""
        return u, eps

    def draw_magnitudes(self, uniforms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # -log1p(-u), one ufunc at a time so that ``out`` may be ``uniforms``
        out = np.negative(uniforms, out=out)
        np.log1p(out, out=out)
        return np.negative(out, out=out)


@dataclass(frozen=True)
class GaussianPower:
    """Z_n = |g_n| / n**alpha with g_n i.i.d. standard normal."""

    alpha: float
    index_start: int = 1
    kind = "gaussian_power"

    def __post_init__(self) -> None:
        _check_model_fields(self.alpha, self.index_start)

    def moment_envelope(self) -> MomentEnvelope:
        return MomentEnvelope(natural_function(half_normal_moments()), self.alpha, self.index_start)

    def tail_exponent(self, u: float, eps: float) -> tuple[float, float]:
        """(c, gamma) with P(n**(alpha-eps) |Z_n| > u) <= exp(-c n**gamma), from P(|g| > t) <= exp(-t^2 / 2)."""
        return u * u / 2.0, 2.0 * eps

    def draw_magnitudes(self, uniforms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # inverse CDF of |g|: P(|g| <= t) = erf(t / sqrt(2))
        out = special.erfinv(uniforms, out=out)
        return np.multiply(math.sqrt(2.0), out, out=out)


SequenceModel = Union[ExponentialPower, GaussianPower]


@dataclass(frozen=True)
class FixedTruncation:
    """Simulate exactly the indices index_start..n_last."""

    n_last: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_last <= TRUNCATION_CAP:
            raise DomainError(f"fixed truncation must lie in [1, {TRUNCATION_CAP}], got {self.n_last}")


@dataclass(frozen=True)
class TailTargetTruncation:
    """Pick n_last so P(discarded sup exceeds u_min) <= rho.

    ``rho = None`` resolves to 1e-3 / trajectories: with probability 0.999
    no trajectory in the whole batch is affected by truncation.
    """

    rho: float | None = None
    u_min: float = 1.0

    def __post_init__(self) -> None:
        if self.rho is not None and not (0.0 < self.rho < 1.0):
            raise DomainError(f"target remainder probability must lie in (0, 1), got {self.rho}")
        if not (math.isfinite(self.u_min) and self.u_min > 0):
            raise DomainError(f"u_min must be positive, got {self.u_min}")


Truncation = Union[FixedTruncation, TailTargetTruncation]


@dataclass(frozen=True)
class SimulationPlan:
    """Full description of one reproducible simulation run."""

    model: SequenceModel
    eps: float
    trajectories: int
    truncation: Truncation = field(default_factory=TailTargetTruncation)
    seed: int = 0
    p_grid: tuple[float, ...] = ()
    u_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        check_eps(self.eps, self.model.alpha)
        if self.trajectories < 1:
            raise DomainError(f"need at least one trajectory, got {self.trajectories}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")
        if any(p < 1.0 for p in self.p_grid):
            raise DomainError("every moment exponent in p_grid must be >= 1")
        if any(u < 0.0 for u in self.u_grid):
            raise DomainError("every tail threshold in u_grid must be >= 0")
        if isinstance(self.truncation, FixedTruncation) and self.truncation.n_last < self.index_start:
            raise DomainError(
                f"fixed truncation {self.truncation.n_last} sits before index_start {self.index_start}"
            )

    @property
    def alpha(self) -> float:
        return self.model.alpha

    @property
    def index_start(self) -> int:
        return self.model.index_start


# ---------------------------------------------------------------------------
# certified sums of exp(-c n**gamma)


def _check_exp_power_args(c: float, gamma: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise DomainError(f"exponential rate must be positive, got {c}")
    if not (0.0 < gamma <= 2.0):
        raise DomainError(f"index power must lie in (0, 2], got {gamma}")


def exp_power_sum_tail_bound(c: float, gamma: float, n_last: int) -> float:
    """Integral-test bound on sum_{n > n_last} exp(-c n**gamma)."""
    _check_exp_power_args(c, gamma)
    if n_last < 1:
        raise DomainError(f"tail start must be >= 1, got {n_last}")
    a = 1.0 / gamma
    log_front = special.gammaln(1.0 + a) - a * math.log(c)
    return math.exp(log_front) * float(special.gammaincc(a, c * n_last**gamma))


def exp_power_threshold(c: float, gamma: float, rho: float) -> int:
    """Smallest n_last whose exp_power_sum_tail_bound is <= rho (past 2**53: certified, maybe not smallest)."""
    _check_exp_power_args(c, gamma)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"target remainder must lie in (0, 1), got {rho}")
    a = 1.0 / gamma
    log_front = special.gammaln(1.0 + a) - a * math.log(c)
    q = rho * math.exp(-log_front)
    if q >= 1.0:
        return 1
    x = float(special.gammainccinv(a, q))
    n = max(1, math.ceil((x / c) ** a))
    # guard against ceil rounding; past 2**53, n and n - 1 are the same float,
    # so the upward step grows past one ulp of n and the minimality walk stops
    while exp_power_sum_tail_bound(c, gamma, n) > rho:
        n += 1 + (n >> 52)
    while 1 < n <= 2**53 and exp_power_sum_tail_bound(c, gamma, n - 1) <= rho:
        n -= 1
    return n


def exp_power_sum(c: float, gamma: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Certified evaluation of sum_{n >= index_start} exp(-c n**gamma).

    The returned partial sum is within abs_tol of the full series.  A
    tolerance that needs more than ``SERIES_TERM_CAP`` terms raises
    ``ToleranceUnreachable`` before the sum starts.
    """
    if index_start < 1:
        raise DomainError(f"index_start must be >= 1, got {index_start}")
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")
    n_last = max(index_start, exp_power_threshold(c, gamma, abs_tol))
    if n_last > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"a sum within {abs_tol} needs {n_last} > {SERIES_TERM_CAP} terms")
    return _chunked_sum(lambda n: np.exp(-c * n**gamma), index_start, n_last)


# ---------------------------------------------------------------------------
# truncation control


def _discard_tail_bound(model: SequenceModel, eps: float, u: float, n_last: int) -> float:
    """Bound P(sup_{n > n_last} n**(alpha-eps) |Z_n| > u) for a generative model."""
    if u <= 0.0:
        return 1.0
    return min(1.0, exp_power_sum_tail_bound(*model.tail_exponent(u, eps), n_last))


def resolve_n_last(plan: SimulationPlan) -> int:
    """Truncation index of a plan; certified for tail-target truncations."""
    if isinstance(plan.truncation, FixedTruncation):
        return plan.truncation.n_last
    rho = plan.truncation.rho if plan.truncation.rho is not None else 1e-3 / plan.trajectories
    n = max(exp_power_threshold(*plan.model.tail_exponent(plan.truncation.u_min, plan.eps), rho), plan.index_start)
    if n > TRUNCATION_CAP:
        raise TruncationInfeasible(f"meeting rho = {rho} needs n_last = {n} > {TRUNCATION_CAP}")
    return n


def truncation_bound(plan: SimulationPlan, values: np.ndarray) -> float:
    """Bound on the probability that indices n > n_last changed any of ``values``.

    The discarded-tail bound falls as u grows, so its largest value over a
    batch is the one at the smallest sample; it is evaluated there once.
    """
    return _discard_tail_bound(plan.model, plan.eps, float(np.min(values)), resolve_n_last(plan))


# ---------------------------------------------------------------------------
# trajectory generation


def _generate_rows(plan: SimulationPlan, n_idx: np.ndarray, rows: range, out: np.ndarray) -> np.ndarray:
    """Write trajectory rows ``rows`` into ``out`` (one row each) and return it.

    One Philox serves every row.  Before each row its state is set to
    counter 0, key (seed, trajectory) and buffer_pos 4, which drops any
    partly used 4-word buffer: the row reads exactly the stream of a fresh
    ``Philox(key=(seed, trajectory))``.  The state holds plain Python ints,
    which the ``Philox.state`` setter converts faster than numpy scalars.
    The magnitude draw and the decay then run over the whole of ``out`` in
    place.
    """
    key = [plan.seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=0)  # re-keyed before every row
    gen = np.random.Generator(bits)
    for trajectory, row in zip(rows, out):
        key[1] = trajectory
        bits.state = state
        gen.random(out=row)
    plan.model.draw_magnitudes(out, out=out)
    return np.multiply(out, n_idx ** (-plan.alpha), out=out)


def _row_chunks(trajectories: int, width: int) -> list[range]:
    rows_per_chunk = max(1, _ROW_CHUNK_CELLS // max(1, width))
    return [range(lo, min(trajectories, lo + rows_per_chunk)) for lo in range(0, trajectories, rows_per_chunk)]


def simulate_eta(plan: SimulationPlan) -> np.recarray:
    """Realize eta = max_{index_start <= n <= n_last} n**(alpha-eps) |Z_n| per trajectory.

    Returns one record per trajectory with the single field ``value``.
    Values are computed through the same elementwise ratio |Z_n| / delta_n
    (delta_n = n**(-(alpha-eps))) as regulator extraction from a trajectory
    batch, so the two agree bitwise on shared seeds.  ``truncation_bound``
    gives the batch's truncation risk.
    """
    n_idx = np.arange(plan.index_start, resolve_n_last(plan) + 1, dtype=float)
    delta = PowerLogSequence(rate=plan.alpha - plan.eps).values(n_idx)
    chunks = _row_chunks(plan.trajectories, n_idx.size)
    buffer = np.empty((len(chunks[0]), n_idx.size))
    eta = np.recarray(plan.trajectories, dtype=[("value", float)])  # filled in place: no copy at the end
    for rows in chunks:
        block = _generate_rows(plan, n_idx, rows, buffer[: len(rows)])
        regulator_ratio_matrix(block, delta, out=block).max(axis=1, out=eta.value[rows.start : rows.stop])
    return eta


def simulate_trajectories(plan: SimulationPlan) -> TrajectoryBatch:
    """Generate the raw Z_n matrix as a TrajectoryBatch (trajectory x index)."""
    n_last = resolve_n_last(plan)
    width = n_last - plan.index_start + 1
    if plan.trajectories * width > _BATCH_CELL_CAP:
        raise DomainError(
            f"batch of {plan.trajectories} x {width} exceeds {_BATCH_CELL_CAP} cells; "
            "reduce trajectories or tighten truncation"
        )
    n_idx = np.arange(plan.index_start, n_last + 1, dtype=float)
    values = _generate_rows(plan, n_idx, range(plan.trajectories), np.empty((plan.trajectories, width)))
    return TrajectoryBatch(values=values, index_start=plan.index_start)


# ---------------------------------------------------------------------------
# exact oracles for the exponential model


def exact_eta_tail(alpha: float, eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Exact tail P(eta > u) of the exponential-power model, within abs_tol.

    Evaluates 1 - prod_{n >= index_start} (1 - exp(-u n**eps)) by summing
    log1p terms; the product is cut once the certified remainder (either the
    discarded-factor sum or the size of the surviving product) drops below
    abs_tol.  alpha cancels from the tail and only gates eps.
    """
    _check_model_fields(alpha, index_start)
    check_eps(eps, alpha)
    if not u > 0.0:
        raise DomainError(f"tail threshold must be positive, got {u}")
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")
    n_last = max(index_start, exp_power_threshold(u, eps, abs_tol))
    # once the product is below abs_tol the sum may stop: later factors only shrink it
    log_product = _chunked_sum(
        lambda n: np.log1p(-np.exp(-u * n**eps)), index_start, n_last, lambda total, _: total <= math.log(abs_tol)
    )
    return min(1.0, -math.expm1(log_product))


def bonferroni_sums(eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> tuple[float, float]:
    """First- and second-order inclusion-exclusion sums for P(eta > u).

    Returns (sigma1, sigma2) with sigma1 = sum_n exp(-u n**eps) and
    sigma2 = sum_{n < m} exp(-u (n**eps + m**eps)) = (sigma1^2 - sigma1(2u)) / 2,
    so that sigma1 - sigma2 <= P(eta > u) <= sigma1.
    """
    if not u > 0.0:
        raise DomainError(f"tail threshold must be positive, got {u}")
    s1 = exp_power_sum(u, eps, abs_tol, index_start)
    s1_doubled = exp_power_sum(2.0 * u, eps, abs_tol, index_start)
    s2 = max(0.0, 0.5 * (s1 * s1 - s1_doubled))
    return s1, s2


def asymptotic_tail_constant(eps: float) -> float:
    """Gamma(1 + 1/eps), the constant of the u**(-1/eps) tail comparison."""
    check_eps(eps)
    return math.exp(special.gammaln(1.0 + 1.0 / eps))


def _moment_tail_remainder(eps: float, p: float, upper: float, index_start: int) -> float:
    """Certified bound on int_upper^inf p u**(p-1) P(eta > u) du.

    Uses P(eta > u) <= sum_n exp(-u n**eps) termwise:
    int_upper^inf p u**(p-1) e**(-u n**eps) du = p n**(-p eps) Gamma(p, upper n**eps).
    Head terms go through gammaincc; the rest through Gamma(p, x) <= 2 x**(p-1) e**(-x)
    (valid for x >= 2 (p - 1)) and an integral test on n.
    """
    n_head = max(index_start, math.ceil(((2.0 * (p - 1.0) + 50.0) / upper) ** (1.0 / eps)))
    idx = np.arange(index_start, n_head + 1, dtype=float)
    head_sum = float(np.sum(idx ** (-p * eps) * special.gammaincc(p, upper * idx**eps)))
    head = p * math.exp(special.gammaln(p) + math.log(head_sum)) if head_sum > 0.0 else 0.0
    a = 1.0 / eps - 1.0
    q = float(special.gammaincc(a, upper * n_head**eps))
    if q > 0.0:
        log_tail = (
            math.log(2.0 * p / eps)
            + (p - 1.0 / eps) * math.log(upper)
            + special.gammaln(a)
            + math.log(q)
        )
        tail = math.exp(min(700.0, log_tail))
    else:
        tail = 0.0
    return head + tail


def exact_eta_moment(
    alpha: float, eps: float, p: float, rel_tol: float = 1e-6, index_start: int = 1
) -> float:
    """Exact ||eta||_p for the exponential-power model by a fixed quadrature rule.

    Integrates p u**(p-1) P(eta > u) over [0, U] with a composite 16-node
    Gauss-Legendre rule on 29 fixed panels graded towards u = 0, each tail
    within 1e-12 absolute.  Only the cut at U is certified: U is pushed until
    the certified remainder beyond it is below rel_tol/2 of the integral, and
    rel_tol sets only that cut.  The rule carries no error estimate.  Only
    p < 1/eps is served, mirroring the moment-blowup threshold of the bound
    theory.
    """
    _check_model_fields(alpha, index_start)
    check_eps(eps, alpha)
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"moment exponent must be >= 1, got {p}")
    if p >= 1.0 / eps:
        raise MomentInfinite(f"moments are only served for p < 1/eps = {1.0 / eps}, got p = {p}")
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")

    tail_tol = 1e-12
    anchor = exact_eta_tail(alpha, eps, 1.0, tail_tol, index_start)  # integral >= anchor * 1**p
    upper = max(32.0, 4.0 * p)
    while _moment_tail_remainder(eps, p, upper, index_start) > 0.5 * rel_tol * anchor:
        upper *= 2.0
        if upper > 1e9:
            raise DomainError("moment quadrature cannot certify its truncation point")

    # [0, 1e-4], 12 geometric panels on [1e-4, 1], 9 unit panels on [1, 10], 7 geometric on [10, U]
    edges = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 13), np.arange(2.0, 11.0), np.geomspace(10.0, upper, 8)[1:]))
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half + half * _GL_NODES).ravel()
    tail = np.asarray([exact_eta_tail(alpha, eps, float(x), tail_tol, index_start) for x in u])
    value = float(np.sum((half * _GL_WEIGHTS).ravel() * p * u ** (p - 1.0) * tail))
    return value ** (1.0 / p)


# ---------------------------------------------------------------------------
# construction from schema-validated configs


def model_from_config(obj: dict) -> SequenceModel:
    model = ExponentialPower if obj["kind"] == ExponentialPower.kind else GaussianPower
    return model(alpha=float(obj["alpha"]), index_start=int(obj.get("index_start", 1)))


def plan_from_config(obj: dict) -> SimulationPlan:
    trunc_obj = obj.get("truncation", {})
    if "n_last" in trunc_obj:
        truncation: Truncation = FixedTruncation(n_last=int(trunc_obj["n_last"]))
    else:
        truncation = TailTargetTruncation(
            rho=float(trunc_obj["rho"]) if "rho" in trunc_obj else None,
            u_min=float(trunc_obj.get("u_min", 1.0)),
        )
    return SimulationPlan(
        model=model_from_config(obj["model"]),
        eps=float(obj["eps"]),
        trajectories=int(obj["trajectories"]),
        truncation=truncation,
        seed=int(obj.get("seed", 0)),
        p_grid=tuple(float(x) for x in obj.get("p_grid", ())),
        u_grid=tuple(float(x) for x in obj.get("u_grid", ())),
    )
