"""Trajectory simulation for power-decay sequence models, with exact oracles.

The generative models are Z_n = theta_n / n**alpha with i.i.d. standard
exponential theta_n, and Z_n = |g_n| / n**alpha with i.i.d. standard normal
g_n.  The regulator eta = sup_n n**(alpha - eps) |Z_n| is estimated by Monte
Carlo with a certified truncation index, and for the exponential model the
module also evaluates the exact tail

    P(eta > u) = 1 - prod_n (1 - exp(-u n**eps)),

its Bonferroni sandwich, and the exact moments by one fixed composite
Gauss-Legendre rule against that tail: only the moments' cut of the integral
at U is certified, and their rel_tol sets only that cut.  The tail and the
sandwich sums run only to the first index whose term is at most abs_tol and
add the midpoint of an integral bracket on the rest, so each is an estimate
certified within abs_tol (up to rounding), not a lower partial sum.  These
exact routines are the oracles every simulated quantity is verified against.

Randomness is counter-based: index n of seed s is a Philox stream keyed
(s, n), and trajectory j reads its word j, so the draw for (s, j, n) is a
pure function of the three and does not change with the block size,
n_last, index_start or a larger trajectory count.  ``simulate_trajectories``
is the one column pass: one re-key and one ``Generator.random`` call fill an
index's row of all T trajectories, and the rows go block by block into one
reused buffer of about 1 MiB (``_BLOCK_CELLS`` float64 cells, at least one
row) that is handed to a reducer.  Reducers fold each block into a few
floats per trajectory; ``simulate_eta`` keeps the running regulator factor,
so it holds one block plus 8 bytes per trajectory.  Max is exact, so the
block size affects memory only, never a single bit of output.
``glsreg simulate`` then streams eta.csv in blocks
(``persist.write_eta_samples``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy import special

from .criteria import extract_regulator
from .errors import DomainError, MomentInfinite, ToleranceUnreachable, TruncationInfeasible
from .generating import check_eps, natural_function
from .moments import half_normal_moments, std_exponential_moments
from .bounds import SERIES_TERM_CAP, MomentEnvelope, _check_index_start, _check_model_fields
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
    "regulator_delta",
    "exp_power_sum_tail_bound",
    "exp_power_threshold",
    "exp_power_sum",
    "exact_eta_tail",
    "bonferroni_sums",
    "asymptotic_tail_constant",
    "exact_eta_moment",
    "plan_from_config",
]

#: Hard cap on the truncation index of a simulated trajectory.
TRUNCATION_CAP = 10**7

_INDEX_MAX = 1e300  # exp_power_threshold reports no index past this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_BLOCK_CELLS = 1 << 17  # cells of the column pass's buffer: 1 MiB of float64, cache-sized
_MOMENT_HEAD_CAP = 1 << 20  # indices _moment_tail_remainder sums one by one; past it the bound is +inf

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

    def __post_init__(self) -> None:
        check_eps(self.eps, self.model.alpha)
        if self.trajectories < 1:
            raise DomainError(f"need at least one trajectory, got {self.trajectories}")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must fit an unsigned 64-bit integer")
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


def _tail_integrals(c: float, gamma: float, *starts: int) -> list[float]:
    """I(m) = int_m^inf exp(-c t**gamma) dt = Gamma(1 + a) c**(-a) Q(a, c m**gamma), a = 1/gamma, at each start m.

    One gammaln and one gammaincc call serve every start.  Where the front
    Gamma(1 + a) c**(-a) passes the float range, each I(m) reads +inf.
    """
    a = 1.0 / gamma
    log_front = special.gammaln(1.0 + a) - a * math.log(c)
    if log_front > _LOG_FLOAT_MAX:
        return [math.inf] * len(starts)
    front = math.exp(log_front)
    return [front * q for q in special.gammaincc(a, [c * m**gamma for m in starts]).tolist()]


def exp_power_sum_tail_bound(c: float, gamma: float, n_last: int) -> float:
    """Integral-test bound on sum_{n > n_last} exp(-c n**gamma); +inf past the float range."""
    _check_exp_power_args(c, gamma)
    if n_last < 1:
        raise DomainError(f"tail start must be >= 1, got {n_last}")
    return _tail_integrals(c, gamma, n_last)[0]


def exp_power_threshold(c: float, gamma: float, rho: float) -> int:
    """Smallest n_last whose exp_power_sum_tail_bound is <= rho (past 2**53: certified, maybe not smallest).

    The first estimate is taken in log space, so a tiny c cannot overflow it;
    an index past ``_INDEX_MAX`` raises ``TruncationInfeasible``.
    """
    _check_exp_power_args(c, gamma)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"target remainder must lie in (0, 1), got {rho}")
    a = 1.0 / gamma
    log_q = math.log(rho) - special.gammaln(1.0 + a) + a * math.log(c)
    if log_q >= 0.0:
        return 1
    x = float(special.gammainccinv(a, math.exp(log_q)))  # inf once q underflows
    log_n = a * (math.log(x) - math.log(c))
    if log_n > math.log(_INDEX_MAX):
        raise TruncationInfeasible(f"meeting rho = {rho} needs n_last > {_INDEX_MAX:g}")
    n = max(1, math.ceil(math.exp(log_n)))
    # guard against ceil rounding; past 2**53, n and n - 1 are the same float,
    # so the upward step grows past one ulp of n and the minimality walk stops
    while exp_power_sum_tail_bound(c, gamma, n) > rho:
        n += 1 + (n >> 52)
    while 1 < n <= 2**53 and exp_power_sum_tail_bound(c, gamma, n - 1) <= rho:
        n -= 1
    return n


def _term_cut(c: float, gamma: float, abs_tol: float, index_start: int) -> int:
    """First N >= index_start with c N**gamma >= ln(1/abs_tol), in log space and clamped just past SERIES_TERM_CAP."""
    log_cut = (math.log(-math.log(abs_tol)) - math.log(c)) / gamma
    return max(index_start, math.ceil(math.exp(min(log_cut, math.log(SERIES_TERM_CAP + 1.0)))))


def _bracket_midpoint(lo: float, hi: float, n_cut: int, abs_tol: float) -> float:
    """Midpoint of the bracket [lo, hi] on the rest past n_cut; wider than 2 abs_tol raises ``ToleranceUnreachable``."""
    if not hi - lo <= 2.0 * abs_tol:
        raise ToleranceUnreachable(f"the remainder past index {n_cut} is bracketed only to {hi - lo:.3g}")
    return 0.5 * (lo + hi)


def exp_power_sum(c: float, gamma: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Certified estimate of sum_{n >= index_start} exp(-c n**gamma), within abs_tol up to rounding.

    Sums the terms up to the first index N >= index_start whose term
    f(N) = exp(-c N**gamma) is <= abs_tol (``_term_cut``, so a tiny c cannot
    overflow it), then adds the midpoint of the integral bracket on the
    rest: for a nonincreasing term, sum_{n > N} f(n) lies in
    [I(N + 1), I(N)] with I(m) = int_m^inf f (``_tail_integrals``), and that
    bracket is int_N^{N+1} f <= f(N) <= abs_tol wide.  So the result is an
    estimate, not a lower partial sum, within abs_tol / 2 of the series (up
    to rounding).  A tolerance that needs more than ``SERIES_TERM_CAP`` terms,
    or a sum past the float range (I(N + 1) reads +inf), raises
    ``ToleranceUnreachable`` before the sum starts.
    """
    _check_index_start(index_start)
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")
    _check_exp_power_args(c, gamma)
    n_cut = _term_cut(c, gamma, abs_tol, index_start)
    if n_cut > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"a sum within {abs_tol} needs more than {SERIES_TERM_CAP} terms")
    i_cut, i_next = _tail_integrals(c, gamma, n_cut, n_cut + 1)
    if math.isinf(i_next):
        raise ToleranceUnreachable(
            f"the sum passes the float range: its rest past index {n_cut} is at least I({n_cut + 1}) = inf"
        )
    total = _chunked_sum(lambda n: np.exp(-c * n**gamma), index_start, n_cut)
    return total + _bracket_midpoint(i_next, i_cut, n_cut, abs_tol)


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
    c, gamma = plan.model.tail_exponent(plan.truncation.u_min, plan.eps)
    if c == 0.0:  # the rate underflowed (half-normal u_min**2 / 2): every discarded term up to the cap is 1
        raise TruncationInfeasible(f"meeting rho = {rho} needs n_last > {TRUNCATION_CAP}")
    n = max(exp_power_threshold(c, gamma, rho), plan.index_start)
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


def _index_blocks(plan: SimulationPlan) -> list[range]:
    """The column pass's index blocks: runs of max(1, _BLOCK_CELLS // trajectories) consecutive indices."""
    per_block = max(1, _BLOCK_CELLS // plan.trajectories)
    stop = resolve_n_last(plan) + 1
    return [range(lo, min(stop, lo + per_block)) for lo in range(plan.index_start, stop, per_block)]


def simulate_trajectories(plan: SimulationPlan, reduce: Callable[[slice, np.ndarray], object]) -> None:
    """The one column pass: call ``reduce(rows, block)`` on each index block of the plan's raw Z_n.

    ``block`` holds one row per index and one column per trajectory: its row
    k is Z_n at n = index_start + rows.start + k, so ``rows`` is the block's
    slice of the plan's indices index_start..n_last (and of
    ``regulator_delta``).  Row n is the stream of a fresh
    ``Philox(key=(seed, n))``, trajectory j reading its word j.  One Philox
    serves every row: before each row its state is set to counter 0, key
    (seed, n) and buffer_pos 4, which drops any partly used 4-word buffer.
    The state holds plain Python ints, which the ``Philox.state`` setter
    converts faster than numpy scalars.  Those two calls cost the same
    whatever T, so the pass is cheapest per cell when T is large against
    n_last; with few trajectories and a long n_last they, not the cells, set
    its time.  The next block reuses the block's buffer, so ``reduce`` keeps
    what it needs and may overwrite it.
    """
    blocks = _index_blocks(plan)
    n_idx = np.arange(plan.index_start, blocks[-1].stop, dtype=float)
    scale = (n_idx ** (-plan.alpha))[:, None]
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
    buffer = np.empty((len(blocks[0]), plan.trajectories))
    for indices in blocks:
        block = buffer[: len(indices)]
        for n, row in zip(indices, block):
            key[1] = n
            bits.state = state
            gen.random(out=row)
        rows = slice(indices.start - plan.index_start, indices.stop - plan.index_start)
        plan.model.draw_magnitudes(block, out=block)
        reduce(rows, np.multiply(block, scale[rows], out=block))


def regulator_delta(plan: SimulationPlan) -> np.ndarray:
    """delta_n = n**(-(alpha - eps)) at the plan's simulated indices index_start..n_last."""
    n_idx = np.arange(plan.index_start, resolve_n_last(plan) + 1, dtype=float)
    return PowerLogSequence(rate=plan.alpha - plan.eps).values(n_idx)


def simulate_eta(plan: SimulationPlan) -> np.recarray:
    """Realize eta = max_{index_start <= n <= n_last} n**(alpha-eps) |Z_n| per trajectory.

    Returns one record per trajectory with the single field ``value``: the
    column pass folding each block into the running factors of
    ``criteria.extract_regulator`` against ``regulator_delta``, so it holds
    one block plus 8 bytes per trajectory.  ``truncation_bound`` gives the
    batch's truncation risk.
    """
    delta = regulator_delta(plan)
    eta = np.recarray(plan.trajectories, dtype=[("value", float)])  # filled in place: no copy at the end
    factors = eta.value
    factors.fill(0.0)  # the fold's start: every ratio is >= 0
    simulate_trajectories(plan, lambda rows, block: extract_regulator(block, delta[rows], out=factors))
    return eta


# ---------------------------------------------------------------------------
# exact oracles for the exponential model


def _log_product_floor(u: float, eps: float, index_start: int) -> float:
    """Lower bound -(x_{n0} + I(n0)) / (1 - x_{n0}) on sum_{n >= n0} log1p(-x_n), n0 = index_start.

    x_n and I are as in ``exact_eta_tail``; the bound holds as -log1p(-x) <= x / (1 - x)
    and sum_{n >= n0} x_n <= x_{n0} + I(n0).  It is -inf where I(n0) passes the float range.
    """
    t0 = u * index_start**eps
    return -(math.exp(-t0) + _tail_integrals(u, eps, index_start)[0]) / -math.expm1(-t0)


def _log_product_ceiling(u: float, eps: float, index_start: int) -> float:
    """Upper bound -I(n0) on sum_{n >= n0} log1p(-x_n), the mirror of ``_log_product_floor``.

    It holds as log1p(-x) <= -x and, x_n being decreasing, sum_{n >= n0} x_n >= I(n0)
    by the integral test.  It is -inf where I(n0) passes the float range.
    """
    return -_tail_integrals(u, eps, index_start)[0]


def exact_eta_tail(alpha: float, eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Exact tail P(eta > u) of the exponential-power model, within abs_tol.

    Evaluates 1 - prod_{n >= index_start} (1 - x_n), x_n = exp(-u n**eps),
    through the sum of its log1p(-x_n) terms.  The sum stops as soon as the
    product is below abs_tol (later factors only shrink it, so the tail lies
    in [1 - abs_tol, 1]).  Otherwise it runs to the first index N whose x_N
    is <= abs_tol and adds the midpoint of a bracket on the rest of the log
    product: from x <= -log1p(-x) <= x / (1 - x) and the integral test on
    sum_{n > N} x_n, that rest lies in [-I(N) / (1 - x_{N+1}), -I(N + 1)]
    with I(m) = int_m^inf exp(-u t**eps) dt.  The bracket is
    I(N) - I(N + 1) + I(N) x_{N+1} / (1 - x_{N+1}) wide: at most x_N plus a
    term of order abs_tol * I(N), and a bracket wider than 2 abs_tol raises
    ``ToleranceUnreachable``, before the sum when N passes the cap and
    ``_log_product_floor`` keeps the product above abs_tol.  When N passes
    the cap and ``_log_product_ceiling`` already puts the product below
    abs_tol, the result is 1.0 without a sum; it is 1.0 after the sum when
    I(N) passes the float range, as the ceiling is then -inf.  The tail is
    1 - exp of the log product, so its error is at most the log product's:
    the result is an estimate within abs_tol of the tail (up to rounding),
    not a lower or upper bound.  alpha cancels from the tail and only gates eps.
    """
    _check_model_fields(alpha, index_start)
    check_eps(eps, alpha)
    if not u > 0.0:
        raise DomainError(f"tail threshold must be positive, got {u}")
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")

    n_cut = _term_cut(u, eps, abs_tol, index_start)
    log_tol = math.log(abs_tol)

    def rest() -> float:  # the bracket midpoint on the log sum past n_cut
        i_cut, i_next = _tail_integrals(u, eps, n_cut, n_cut + 1)
        if math.isinf(i_cut):  # then I(index_start) >= I(n_cut) is +inf too: the product is below abs_tol
            return -math.inf
        return _bracket_midpoint(i_cut / math.expm1(-u * (n_cut + 1) ** eps), -i_next, n_cut, abs_tol)

    if n_cut > SERIES_TERM_CAP:
        if _log_product_ceiling(u, eps, index_start) <= log_tol:
            return 1.0  # the product is already below abs_tol
        if _log_product_floor(u, eps, index_start) > log_tol:
            rest()  # the stop cannot fire: raise what the full sum would
    with np.errstate(divide="ignore"):  # a factor that rounds to 0 logs to -inf, which ends the product
        # once the product is below abs_tol the sum may stop: later factors only shrink it
        log_product = _chunked_sum(
            lambda n: np.log1p(-np.exp(-u * n**eps)), index_start, n_cut, lambda total, _: total <= log_tol
        )
        if log_product > log_tol:
            log_product += rest()
    return min(1.0, -math.expm1(log_product))


def bonferroni_sums(eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> tuple[float, float]:
    """First- and second-order inclusion-exclusion sums for P(eta > u).

    Returns (sigma1, sigma2) with sigma1 = sum_n exp(-u n**eps) and
    sigma2 = sum_{n < m} exp(-u (n**eps + m**eps)) = (sigma1^2 - sigma1(2u)) / 2,
    so that sigma1 - sigma2 <= P(eta > u) <= sigma1.
    """
    check_eps(eps)
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
    (valid for x >= 2 (p - 1)) and an integral test on n.  The bound is +inf, still
    true, when the head would pass ``_MOMENT_HEAD_CAP`` indices or either part a float.
    """
    reach = (2.0 * (p - 1.0) + 50.0) / upper
    if math.log(reach) / eps > math.log(_MOMENT_HEAD_CAP):
        return math.inf
    n_head = max(index_start, math.ceil(reach ** (1.0 / eps)))
    idx = np.arange(index_start, n_head + 1, dtype=float)
    head_sum = float(np.sum(idx ** (-p * eps) * special.gammaincc(p, upper * idx**eps)))
    log_head = special.gammaln(p) + math.log(head_sum) if head_sum > 0.0 else -math.inf
    if log_head > _LOG_FLOAT_MAX - math.log(p):
        return math.inf
    head = p * math.exp(log_head)
    a = 1.0 / eps - 1.0
    q = float(special.gammaincc(a, upper * n_head**eps))
    if q > 0.0:
        log_tail = (
            math.log(2.0 * p / eps)
            + (p - 1.0 / eps) * math.log(upper)
            + special.gammaln(a)
            + math.log(q)
        )
        if log_tail > _LOG_FLOAT_MAX:
            return math.inf
        tail = math.exp(log_tail)
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


def plan_from_config(obj: dict) -> SimulationPlan:
    """The plan of a schema-validated simulate config; its report grids stay in the config."""
    model_obj = obj["model"]
    model = ExponentialPower if model_obj["kind"] == ExponentialPower.kind else GaussianPower
    trunc_obj = obj.get("truncation", {})
    if "n_last" in trunc_obj:
        truncation: Truncation = FixedTruncation(n_last=int(trunc_obj["n_last"]))
    else:
        truncation = TailTargetTruncation(
            rho=float(trunc_obj["rho"]) if "rho" in trunc_obj else None,
            u_min=float(trunc_obj.get("u_min", 1.0)),
        )
    return SimulationPlan(
        model=model(alpha=float(model_obj["alpha"]), index_start=int(model_obj.get("index_start", 1))),
        eps=float(obj["eps"]),
        trajectories=int(obj["trajectories"]),
        truncation=truncation,
        seed=int(obj.get("seed", 0)),
    )
