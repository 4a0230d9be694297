"""Trajectory simulation for power-decay sequence models, with exact oracles.

The generative models are Z_n = theta_n / n**alpha with i.i.d. standard
exponential theta_n, and Z_n = |g_n| / n**alpha with i.i.d. standard normal
g_n.  The regulator eta = sup_n n**(alpha - eps) |Z_n| is estimated by Monte
Carlo with a certified truncation index, and for the exponential model the
module also evaluates the exact tail

    P(eta > u) = 1 - prod_n (1 - exp(-u n**eps)),

its Bonferroni sandwich, and the exact moments by a Gauss-Legendre rule
placed on that tail's drop, at every p >= 1: only the moments' two cuts of
the integral are certified, each by a closed-form bound.
The Gamma functions those bounds read are the package's own, with stated
error bounds: ln Gamma by Stirling's series (``moments._log_gamma``, within
2**-46 (1 + |ln Gamma|)), and Q(a, x) = Gamma(a, x) / Gamma(a) by its series
or continued fraction (``_log_q``), widened upward by its rounding budget,
so every certified bound reads both from above.  The exponential path so
loads no scipy; only the half-normal law's erf and erfinv do.
The sandwich sums (``exp_power_sum``) and the tail's log product
(``_log_product``) are kernels on (c, gamma, n0) with one cut rule (``_cut``):
they sum n0..N-1 and bracket the rest from N.  N is the convex cut, where the
convexity bracket first fits abs_tol, when that comes first, else one past the
term cut, the first index whose term is at most abs_tol, and the integral test
brackets the rest.  The cap on the number of terms is decided on the term
cut.  Each adds the bracket's midpoint, or, once the product is below abs_tol,
its top end.  So each is an estimate certified within abs_tol (up to
rounding), not a lower partial sum.  These exact routines are the oracles
every simulated quantity is verified against.

Randomness is counter-based: index n of seed s is a Philox stream keyed
(s, n), and trajectory j reads its 64-bit word j, so the draw for (s, j, n)
is a pure function of the three and does not change with the tile size,
n_last, index_start or a larger trajectory count.  ``_uniform_tiles`` is
that layout and the one place that keys a stream: one re-key per index,
then ``Philox.random_raw`` draws the index's row of words, tile by tile.
A word w is a uniform only once it is converted, as (w >> 11) 2**-53
(``_uniforms``), the double ``Generator.random`` makes of the same word.
Two folds read the words.  ``simulate_trajectories`` is the dense column
pass: it converts and transforms each block of about 1 MiB (``_BLOCK_CELLS``
cells, at least one row) whole, in place, and hands it to a reducer, which
folds it into a few floats per trajectory, as the convergence check does.
``simulate_eta`` transforms only the cells that can raise eta.  A cell's
ratio n**(alpha-eps) |Z_n| is g(u) w_n, with g the model's increasing draw
(-log1p(-u), or sqrt(2) erfinv(u)) and w_n = n**(-eps) decreasing, so a
cell with u <= g^-1(v_j / w_r) leaves trajectory j's running factor v_j as
it is at every index n >= r.  Each trajectory keeps one such threshold,
read from v_j with a margin for rounding (``_skip_thresholds``) whenever
the cells drawn have doubled, and held as the word threshold that the test
u > t_j reads on the words (``_word_thresholds``); v_j only grows, so a
stale threshold only lets more cells through.  Only the cells that pass are
converted and get the dense pass's arithmetic, and max is exact, so every
eta keeps its bits, which the ``regulator-eta-bitwise`` record of ``glsreg
verify`` checks against the dense pass.  At 100k trajectories, 1.0% of the
exponential model's cells (n_last 496) and 12% of the half-normal's (n_last
39) are transformed.  Tile and block sizes affect memory only.  ``glsreg
simulate`` then streams eta.csv in blocks (``persist.write_eta_samples``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

import numpy as np

from .criteria import extract_regulator
from .errors import DomainError, ToleranceUnreachable, TruncationInfeasible
from .generating import check_eps
from .moments import _LOG_GAMMA_ERR, _log_gamma, half_normal_moments, std_exponential_moments
from .bounds import SERIES_TERM_CAP, MomentEnvelope, _check_integer, _check_model_fields
from .sequences import _chunked_sum

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
_FOLD_CELLS = 1 << 13  # cells simulate_eta draws at a time, and the most words any draw makes: 64 KiB
_REFRESH_RATIO = 2  # simulate_eta re-reads its thresholds once the cells drawn reach this multiple of the last read's
_SKIP_MARGIN = 2.0**-40  # relative margin of the skip test on the ratio's rounding (``_skip_thresholds``)
_SKIP_SLACK = 2.0**-51  # absolute step of each skip threshold below g^-1: four float steps below u = 1
_MOMENT_REL_TOL = 1e-6  # each of exact_eta_moment's two cuts drops at most half this share of the integral
_PANEL_WIDTH = 1.0  # exact_eta_moment's panels are at most this many eps wide in t = ln u

# nodes and weights on [-1, 1] of the rule exact_eta_moment applies on every panel
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_Q_ERR = 2.0**-50  # _log_q's rounding budget per unit of 1 + x + a |ln x|
_Q_STEP_TOL = 2.0**-52  # _log_q's series and continued fraction stop at a relative step this small


@dataclass(frozen=True)
class SequenceModel:
    """Z_n = xi_n / n**alpha for n >= index_start, with xi_n i.i.d. copies of a law's magnitude.

    A law is a subclass that gives its ``kind``, the moment curve of xi
    (``_magnitude_moments``), ``tail_exponent``, and the draw
    ``draw_magnitudes`` with its inverse ``_magnitude_cdf``.
    """

    alpha: float
    index_start: int = 1

    def __post_init__(self) -> None:
        _check_model_fields(self.alpha, self.index_start)

    def moment_envelope(self) -> MomentEnvelope:
        """Exact envelope: ||Z_n||_p = ||xi||_p * n**(-alpha)."""
        return MomentEnvelope(self._magnitude_moments(), self.alpha, self.index_start)

    def _cells(self, words: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """In place, Z_n of Philox words: the uniform (``_uniforms``), its magnitude, times ``scale`` = n**(-alpha)."""
        cells = _uniforms(words)
        self.draw_magnitudes(cells, out=cells)
        return np.multiply(cells, scale, out=cells)


class ExponentialPower(SequenceModel):
    """Z_n = theta_n / n**alpha with theta_n i.i.d. standard exponential."""

    kind = "exponential_power"
    _magnitude_moments = staticmethod(std_exponential_moments)

    def tail_exponent(self, u: float, eps: float) -> tuple[float, float]:
        """(c, gamma) with P(n**(alpha-eps) |Z_n| > u) <= exp(-c n**gamma); here an equality."""
        return u, eps

    def draw_magnitudes(self, uniforms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # -log1p(-u), one ufunc at a time so that ``out`` may be ``uniforms``
        out = np.negative(uniforms, out=out)
        np.log1p(out, out=out)
        return np.negative(out, out=out)

    def _magnitude_cdf(self, magnitudes: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the inverse of draw_magnitudes: 1 - exp(-x) = -expm1(-x)
        np.negative(magnitudes, out=out)
        np.expm1(out, out=out)
        return np.negative(out, out=out)


class GaussianPower(SequenceModel):
    """Z_n = |g_n| / n**alpha with g_n i.i.d. standard normal."""

    kind = "gaussian_power"
    _magnitude_moments = staticmethod(half_normal_moments)

    def tail_exponent(self, u: float, eps: float) -> tuple[float, float]:
        """(c, gamma) with P(n**(alpha-eps) |Z_n| > u) <= exp(-c n**gamma), from P(|g| > t) <= exp(-t^2 / 2)."""
        return u * u / 2.0, 2.0 * eps

    def draw_magnitudes(self, uniforms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # inverse CDF of |g|: P(|g| <= t) = erf(t / sqrt(2)); scipy is imported by this law alone
        from scipy import special

        out = special.erfinv(uniforms, out=out)
        return np.multiply(math.sqrt(2.0), out, out=out)

    def _magnitude_cdf(self, magnitudes: np.ndarray, out: np.ndarray) -> np.ndarray:
        # the inverse of draw_magnitudes: erf(x / sqrt(2))
        from scipy import special

        np.divide(magnitudes, math.sqrt(2.0), out=out)
        return special.erf(out, out=out)


@dataclass(frozen=True)
class FixedTruncation:
    """Simulate exactly the indices index_start..n_last."""

    n_last: int

    def __post_init__(self) -> None:
        _check_integer("fixed truncation n_last", self.n_last, 1, TRUNCATION_CAP)


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
        _check_integer("trajectories", self.trajectories, 1)
        _check_integer("seed", self.seed, 0, 2**64 - 1)
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


def _rate_times_power(kc: float, m: int, gamma: float) -> float:
    """kc m**gamma; in log space, saturating to +inf, where m**gamma alone passes the float range."""
    try:
        return kc * m**gamma
    except OverflowError:
        log_x = math.log(kc) + gamma * math.log(m)
        return math.exp(log_x) if log_x < _LOG_FLOAT_MAX else math.inf


def _log_q(a: float, xs: list[float]) -> list[float]:
    """ln of an upper bound on Q(a, x) = Gamma(a, x) / Gamma(a), for each x >= 0 of ``xs``; a > 0.

    With F = x**a e**-x / Gamma(a), ln F = a ln x - x - ln Gamma(a)
    (``_log_gamma``): below x = a + 1, P = 1 - Q is F / a times
    sum_n x**n / ((a + 1) ... (a + n)) (DLMF 8.7.3); from there Q is F over
    the even part of the continued fraction of DLMF 8.9.2, by Lentz's method.
    Each stops at a relative step of ``_Q_STEP_TOL``.  The budget

        d = _LOG_GAMMA_ERR (1 + |ln Gamma(a)|) + _Q_ERR (1 + x + a |ln x|)

    covers ln Gamma's bound and the rounding of ln F, whose terms are up to
    x + a |ln x| large, and of the sum or the fraction.  It is taken as the
    error of P (relative) or of ln Q (absolute), and the value returned is
    widened by it: ln(1 - P (1 - d)) or ln Q + d.  So it lies at or above
    ln Q, and within 2 d max(1, P / Q) of it; below x = a + 1, P / Q < 48 for
    a >= 0.1.  The bound is stated for a in [0.001, 10000] and x in
    [0, +inf], where a test holds it against mpmath at 140 bits: the largest
    error seen there, before the widening, is below a quarter of d.  Its
    callers pass a = 1/eps - 1 and 1/gamma, so a > 10000 (eps or gamma below
    1e-4) and a < 0.001 (eps above 1/1.001) are untested.  Q(a, 0) = 1 and
    Q(a, inf) = 0 exactly.
    """
    log_gamma_a = _log_gamma(a)
    log_gamma_err = _LOG_GAMMA_ERR * (1.0 + abs(log_gamma_a))
    out = []
    for x in xs:
        if x == 0.0 or x == math.inf:
            out.append(0.0 if x == 0.0 else -math.inf)
            continue
        log_x = math.log(x)
        log_front = a * log_x - x - log_gamma_a
        err = log_gamma_err + _Q_ERR * (1.0 + x + a * abs(log_x))
        if x < a + 1.0:
            term = total = 1.0
            n = a
            while term > total * _Q_STEP_TOL:
                n += 1.0
                term *= x / n
                total += term
            p = math.exp(log_front) * total / a
            out.append(math.log1p(-p * (1.0 - err)))
        else:
            b = x + 1.0 - a
            f = c = b
            e = math.inf  # 1 / Lentz's D, as D itself turns subnormal once x passes 2**1022
            delta, n = 0.0, 0
            while abs(delta - 1.0) > _Q_STEP_TOL:
                n += 1
                step = -n * (n - a)
                b += 2.0
                e = b + step / e
                c = b + step / c
                delta = c / e
                f *= delta
            out.append(log_front - math.log(f) + err)
    return out


def _tail_integrals(c: float, gamma: float, *starts: int, powers: tuple[int, ...] = (1,)) -> list[float]:
    """I_k(m) = int_m^inf exp(-k c t**gamma) dt = Gamma(1 + a) (k c)**(-a) Q(a, k c m**gamma), a = 1/gamma.

    One value per power k and start m, powers outermost; I(m) is I_1(m).  One
    ``_log_q`` call serves every start and power.  Each value is taken on the
    upper side of both ln Gamma(1 + a), by ``_log_gamma``'s bound, and Q, by
    ``_log_q``'s, so it is at or above I_k(m) up to the rounding of
    a ln(k c) and of the exp.  Where the front Gamma(1 + a) c**(-a) passes the
    float range, each value reads +inf.
    """
    a = 1.0 / gamma
    log_gamma = _log_gamma(1.0 + a)
    log_front = log_gamma + _LOG_GAMMA_ERR * (1.0 + abs(log_gamma)) - a * math.log(c)
    if log_front > _LOG_FLOAT_MAX:
        return [math.inf] * (len(starts) * len(powers))
    log_fronts = [log_front - a * math.log(k) for k in powers for _ in starts]
    log_q = _log_q(a, [_rate_times_power(k * c, m, gamma) for k in powers for m in starts])
    return [math.exp(front + q) for front, q in zip(log_fronts, log_q)]


def exp_power_sum_tail_bound(c: float, gamma: float, n_last: int) -> float:
    """Integral-test bound on sum_{n > n_last} exp(-c n**gamma); +inf past the float range.

    It is I(n_last) (``_tail_integrals``), read on the upper side of ln Gamma
    and of Q by the bounds of ``_log_gamma`` and ``_log_q``, so it bounds the
    sum up to the rounding of a ln c and of one exp.
    """
    _check_exp_power_args(c, gamma)
    _check_integer("tail start", n_last, 1)
    return _tail_integrals(c, gamma, n_last)[0]


def exp_power_threshold(c: float, gamma: float, rho: float) -> int:
    """Smallest n_last whose exp_power_sum_tail_bound is <= rho; past 2**53, within one float step of it.

    It bisects that bound itself, so the n returned is certified on the same
    bounds (``_log_gamma``'s and ``_log_q``'s).  n squares from 1, up to
    ``_INDEX_MAX``, until the bound fits (else ``TruncationInfeasible``); the
    bracket then halves geometrically while it spans more than a factor of 2,
    then on ints, until it is one index wide, or past 2**53 one float step of
    its lower end: the bound reads n as a float.
    """
    _check_exp_power_args(c, gamma)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"target remainder must lie in (0, 1), got {rho}")
    lo, hi = 0, 1  # the bound fits at hi and not at lo
    while exp_power_sum_tail_bound(c, gamma, hi) > rho:
        if hi >= _INDEX_MAX:
            raise TruncationInfeasible(f"meeting rho = {rho} needs n_last > {_INDEX_MAX:g}")
        lo, hi = hi, min(max(2, hi * hi), int(_INDEX_MAX))
    while hi - lo > 1 << max(0, lo.bit_length() - 53):  # one index, or one float step of lo past 2**53
        mid = math.isqrt(lo * hi) if hi > 2 * lo else (lo + hi) // 2
        if exp_power_sum_tail_bound(c, gamma, mid) > rho:
            lo = mid
        else:
            hi = mid
    return hi


def _term_cut(c: float, gamma: float, abs_tol: float, index_start: int) -> int:
    """First N >= index_start with c N**gamma >= ln(1/abs_tol), in log space and clamped just past SERIES_TERM_CAP.

    There the term f(N) = exp(-c N**gamma) is at most abs_tol, so the
    integral-test bracket [I(N + 1), I(N)] on the rest past N, which is
    int_N^{N+1} f <= f(N) wide, fits within 2 abs_tol whatever gamma is.
    ``_cut`` takes a smaller cut wherever f is convex and falls slowly.
    """
    log_cut = (math.log(-math.log(abs_tol)) - math.log(c)) / gamma
    return max(index_start, math.ceil(math.exp(min(log_cut, math.log(SERIES_TERM_CAP + 1.0)))))


def _cut(c: float, gamma: float, abs_tol: float, lowest: int, n_cut: int) -> tuple[int, bool]:
    """(N, convex): the kernels sum up to N - 1 and bracket sum_{n >= N} f(n), by convexity if ``convex``.

    N is the convex cut where that comes before the term cut n_cut, else
    n_cut + 1, from where the integral test brackets the rest.  The convex cut
    is the first N >= lowest whose convexity bracket is at most abs_tol wide.
    f(t) = exp(-c t**gamma) is convex on [N, inf) once c gamma N**gamma >=
    gamma - 1: always for gamma <= 1, past t* = ((gamma - 1) / (c gamma))**(1/gamma)
    for gamma > 1.  There the trapezoid on each [n, n + 1] exceeds the integral
    by between 0 and (f'(n + 1) - f'(n)) / 8 (first-order Euler-Maclaurin), so
    the bracket is w = c gamma N**(gamma - 1) f(N) / 8 wide.  In x = ln N,
    w <= abs_tol reads G(x) = c e**(gamma x) + (1 - gamma) x >= r = ln(c gamma / (8 abs_tol)).
    G is convex, and increasing where f is convex, so Newton steps from
    x = ln(n_cut) never fall below the root; three fixed steps (no search, no
    gammaincc call) come close to it, and the rounded-up N is checked.  The
    target abs_tol is half the 2 abs_tol a midpoint allows: a margin for
    rounding.
    """
    if n_cut > lowest:
        r = math.log(c) + math.log(gamma) - math.log(8.0 * abs_tol)
        x = x_cut = math.log(n_cut)
        for _ in range(3):
            s = c * math.exp(gamma * x)
            slope = gamma * s + 1.0 - gamma  # G'(x), whose sign is that of f'' at e**x
            if slope <= 0.0:
                break
            x = min(x_cut, x - (s + (1.0 - gamma) * x - r) / slope)
        n = max(lowest, math.ceil(math.exp(x)))
        s = c * n**gamma
        if n < n_cut and s + (1.0 - gamma) * math.log(n) >= r and gamma * s >= gamma - 1.0:
            return n, True
    return n_cut + 1, False


def _bracket_midpoint(lo: float, hi: float, n_cut: int, abs_tol: float) -> float:
    """Midpoint of the bracket [lo, hi] on the rest past n_cut; wider than 2 abs_tol raises ``ToleranceUnreachable``."""
    if not hi - lo <= 2.0 * abs_tol:
        raise ToleranceUnreachable(f"the remainder past index {n_cut} is bracketed only to {hi - lo:.3g}")
    return 0.5 * (lo + hi)


def exp_power_sum(c: float, gamma: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Certified estimate of sum_{n >= index_start} exp(-c n**gamma), within abs_tol up to rounding.

    Sums the terms f(n) = exp(-c n**gamma) up to N - 1 (``_cut``) and adds
    the midpoint of a bracket on the rest sum_{n >= N} f(n), at most 2 abs_tol
    wide, so the result is an estimate, not a lower partial sum, within
    abs_tol of the series (up to rounding).  With I(m) = int_m^inf f
    (``_tail_integrals``), the rest lies in [I(N), I(N - 1)] by the integral
    test, and in [I(N) + f(N)/2, I(N) + f(N)/2 + c gamma N**(gamma - 1) f(N) / 8]
    by convexity.

    A tolerance whose term cut needs more than ``SERIES_TERM_CAP`` terms, or
    a sum past the float range (the rest's lower end reads +inf), raises
    ``ToleranceUnreachable`` before the sum starts.
    """
    _check_integer("index_start", index_start, 1)
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")
    _check_exp_power_args(c, gamma)
    n_cut = _term_cut(c, gamma, abs_tol, index_start)
    if n_cut > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"a sum within {abs_tol} needs more than {SERIES_TERM_CAP} terms")
    n, convex = _cut(c, gamma, abs_tol, index_start, n_cut)
    if convex:
        (i_rest,) = _tail_integrals(c, gamma, n)
        f = math.exp(-c * n**gamma)
        lo = i_rest + 0.5 * f
        hi = lo + c * gamma * n ** (gamma - 1.0) * f / 8.0
    else:
        hi, lo = _tail_integrals(c, gamma, n - 1, n)
    if math.isinf(lo):
        raise ToleranceUnreachable(
            f"the sum passes the float range: its rest past index {n - 1} is at least I({n}) = inf"
        )
    total = _chunked_sum(lambda m: np.exp(-c * m**gamma), index_start, n - 1)
    return total + _bracket_midpoint(lo, hi, n - 1, abs_tol)


# ---------------------------------------------------------------------------
# truncation control


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

    The bound on P(sup_{n > n_last} n**(alpha-eps) |Z_n| > u) falls as u
    grows, so its largest value over a batch is the one at the smallest
    sample; it is evaluated there once.
    """
    u = float(np.min(values))
    if u <= 0.0:
        return 1.0
    return min(1.0, exp_power_sum_tail_bound(*plan.model.tail_exponent(u, plan.eps), resolve_n_last(plan)))


# ---------------------------------------------------------------------------
# trajectory generation


def _index_blocks(plan: SimulationPlan, cells: int | None = None) -> list[range]:
    """A pass's index blocks: runs of max(1, cells // trajectories) indices; cells defaults to ``_BLOCK_CELLS``."""
    per_block = max(1, (cells or _BLOCK_CELLS) // plan.trajectories)
    stop = resolve_n_last(plan) + 1
    return [range(lo, min(stop, lo + per_block)) for lo in range(plan.index_start, stop, per_block)]


def _uniform_tiles(plan: SimulationPlan, cells: int) -> Iterator[tuple[range, slice, np.ndarray]]:
    """The one stream layout: (indices, columns, tile), tile[k, i] the Philox word of indices[k], columns.start + i.

    Row n is the stream of a fresh ``Philox(key=(seed, n))``, trajectory j
    reading its 64-bit word j; the word's uniform is ``_uniforms``.  One
    Philox serves every row: before each row its state is set to counter 0,
    key (seed, n) and buffer_pos 4, which drops any partly used 4-word
    buffer.  The state holds plain Python ints, which the ``Philox.state``
    setter converts faster than numpy scalars.  That call and each draw's
    fixed overhead cost the same whatever T, so a pass is cheapest per cell
    when T is large against n_last; with few trajectories and a long n_last
    they, not the cells, set its time.  Rows go ``_index_blocks(plan,
    cells)`` at a time into one reused buffer, each drawn by
    ``Philox.random_raw`` in pieces of at most ``_FOLD_CELLS`` words, so no
    draw holds more than one fold tile beside the buffer.  A row of more
    than ``cells`` trajectories goes in pieces of ``cells``, each a fresh
    draw continuing the row's stream where the last stopped, so the words
    are the same whatever ``cells`` is.  The next tile may reuse the buffer,
    so the caller keeps what it needs and may overwrite it.
    """
    width = min(plan.trajectories, cells)
    blocks = _index_blocks(plan, cells)
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
    if width < plan.trajectories:  # one index a block, in pieces
        for indices in blocks:
            key[1] = indices.start
            bits.state = state
            for lo in range(0, plan.trajectories, width):
                hi = min(plan.trajectories, lo + width)
                # bound to no name here, so simulate_eta can drop each piece before the next is drawn
                yield indices, slice(lo, hi), bits.random_raw(hi - lo)[None]
        return
    buffer = np.empty((len(blocks[0]), width), dtype=np.uint64)
    # each row's draws, made once: the row loop's own cost sets the time of few-trajectory passes
    pieces = [(slice(lo, lo + _FOLD_CELLS), min(_FOLD_CELLS, width - lo)) for lo in range(0, width, _FOLD_CELLS)]
    for indices in blocks:
        tile = buffer[: len(indices)]
        for n, row in zip(indices, tile):
            key[1] = n
            bits.state = state
            for piece, size in pieces:
                row[piece] = bits.random_raw(size)
        yield indices, slice(0, width), tile


def _uniforms(words: np.ndarray) -> np.ndarray:
    """In place, the uniforms (w >> 11) 2**-53 of Philox words: the float64 view of ``words``.

    That is the formula ``Generator.random`` applies to the same word, so
    each double keeps its bits.  ``words`` is overwritten; it is
    C-contiguous, so the cast goes through ``copyto`` on its flat view, which
    converts in place where a ufunc would first copy its overlapping input.
    """
    flat = np.right_shift(words, 11, out=words).reshape(-1)
    uniforms = flat.view(np.float64)
    np.copyto(uniforms, flat, casting="unsafe")  # exact: every shifted word lies below 2**53
    return np.multiply(uniforms, 2.0**-53, out=uniforms).reshape(words.shape)


def _word_thresholds(thresholds: np.ndarray) -> np.ndarray:
    """In place, W_j = (floor(t_j 2**53) + 1) 2**11, clipped at 0, from float64 t_j: the uint64 view of ``thresholds``.

    A word w passes w >= W_j iff its uniform (w >> 11) 2**-53 exceeds t_j
    (``_uniforms``): the uniform is k 2**-53 with k = w >> 11, and k > t_j 2**53
    iff k >= floor(t_j 2**53) + 1.  Both products by powers of two are exact,
    t_j <= 1 - 2**-51 (``_SKIP_SLACK``) keeps W_j below 2**64, and t_j < 0
    gives W_j = 0, which every word passes.  ``thresholds`` is 1-D, so the
    cast makes no copy, as in ``_uniforms``.
    """
    np.floor(np.multiply(thresholds, 2.0**53, out=thresholds), out=thresholds)
    np.maximum(np.add(thresholds, 1.0, out=thresholds), 0.0, out=thresholds)
    np.multiply(thresholds, 2.0**11, out=thresholds)
    words = thresholds.view(np.uint64)
    np.copyto(words, thresholds, casting="unsafe")  # exact: integers below 2**64
    return words


def _index_powers(plan: SimulationPlan, exponent: float) -> np.ndarray:
    """n**exponent at the plan's simulated indices index_start..n_last."""
    return np.arange(plan.index_start, resolve_n_last(plan) + 1, dtype=float) ** exponent


def simulate_trajectories(plan: SimulationPlan, reduce: Callable[[slice, np.ndarray], object]) -> None:
    """The dense column pass: call ``reduce(rows, block)`` on each index block of the plan's raw Z_n.

    ``block`` holds one row per index and one column per trajectory: its row
    k is Z_n at n = index_start + rows.start + k, so ``rows`` is the block's
    slice of the plan's indices index_start..n_last (and of
    ``regulator_delta``).  The rows of words come from ``_uniform_tiles`` in
    blocks of ``_BLOCK_CELLS`` cells (at least one whole row), each
    converted to uniforms in place (``_uniforms``) and transformed whole:
    magnitude, then times n**(-alpha).  The next block reuses the
    block's buffer, so ``reduce`` keeps what it needs and may overwrite it.
    """
    scale = _index_powers(plan, -plan.alpha)[:, None]
    for indices, _, words in _uniform_tiles(plan, max(_BLOCK_CELLS, plan.trajectories)):
        rows = slice(indices.start - plan.index_start, indices.stop - plan.index_start)
        reduce(rows, plan.model._cells(words, scale[rows]))


def regulator_delta(plan: SimulationPlan) -> np.ndarray:
    """delta_n = n**(-(alpha - eps)) at the plan's simulated indices index_start..n_last."""
    return _index_powers(plan, -(plan.alpha - plan.eps))


def simulate_eta(plan: SimulationPlan) -> np.recarray:
    """Realize eta = max_{index_start <= n <= n_last} n**(alpha-eps) |Z_n| per trajectory.

    Returns one record per trajectory with the single field ``value``: the
    regulator factors v_j of ``criteria.extract_regulator`` against
    ``regulator_delta``, bit for bit those of the dense pass
    (``simulate_trajectories``), but only the cells that can raise a factor
    are transformed.  A cell's ratio is g(u) w_n, with g the model's
    increasing draw and w_n = n**(-alpha) / delta_n = n**(-eps) decreasing
    in n, so a cell with u <= g^-1(v_j / w_r) leaves v_j as it is in every
    row n >= r.  The thresholds t_j are read from the running factors at a
    row r, with a margin for rounding (``_skip_thresholds``), and read again
    once the cells drawn reach ``_REFRESH_RATIO`` times those drawn at the
    last read.  v_j only grows, so a stale t_j only lets more cells through.
    The test runs on the Philox words of ``_uniform_tiles``, in tiles of
    ``_FOLD_CELLS`` cells: each t_j becomes a word threshold W_j
    (``_word_thresholds``), and a word w passes iff w >= W_j, which is
    exactly u > t_j for its uniform u (``_uniforms``).  Only the cells that
    pass are converted to uniforms.  A tile where more than an eighth pass is
    converted and transformed whole, in place; otherwise the passing words
    are gathered and converted.  Either way each transformed cell gets the
    dense pass's bits: magnitude, times n**(-alpha) (+0.0 or more, which the
    dense pass's |.| keeps), / delta_n, then the max.  The fold holds the
    factors, the word thresholds (whose float reads share their memory) and
    one tile with its mask and gathers: 16 bytes a trajectory plus about
    100 KiB.  A row wider than a tile comes in fresh draws, so each is
    dropped before the next is made.  The dense pass holds 8 bytes a
    trajectory plus a block of 1 MiB or one row, whichever is larger, so the
    fold is no heavier to within those 100 KiB.
    ``truncation_bound`` gives the batch's truncation risk.
    """
    delta = regulator_delta(plan)
    scale = _index_powers(plan, -plan.alpha)
    eta = np.recarray(plan.trajectories, dtype=[("value", float)])  # filled in place: no copy at the end
    factors = eta.value
    factors.fill(0.0)  # the fold's start: every ratio is >= 0
    thresholds = np.zeros(plan.trajectories, dtype=np.uint64)  # word thresholds: every word passes 0
    passing = None
    drawn = read_at = 0
    for indices, columns, tile in _uniform_tiles(plan, _FOLD_CELLS):
        row = indices.start - plan.index_start
        rows = slice(row, row + len(indices))
        if columns.start == 0 and drawn > read_at and drawn >= _REFRESH_RATIO * read_at:
            _word_thresholds(_skip_thresholds(plan.model, factors, scale[row] / delta[row], out=thresholds.view(float)))
            read_at = drawn
        drawn += tile.size
        if passing is None:  # later tiles are no larger than the first
            passing = np.empty(tile.shape, dtype=bool)
        mask = np.greater_equal(tile, thresholds[columns], out=passing[: tile.shape[0], : tile.shape[1]])
        count = np.count_nonzero(mask)
        if 8 * count > tile.size:  # the gathers would cost more time and memory than the whole tile
            extract_regulator(plan.model._cells(tile, scale[rows, None]), delta[rows], out=factors[columns])
        elif count:  # a tile of several rows may pass one trajectory twice, hence maximum.at
            passed = np.flatnonzero(mask)
            k, j = np.divmod(passed, tile.shape[1]) if len(indices) > 1 else (0, passed)
            cells = plan.model._cells(tile[k, j], scale[rows][k])
            np.maximum.at(factors[columns], j, np.divide(cells, delta[rows][k], out=cells))
        tile = cells = None  # a piece of a row is a fresh draw: drop this one before the next is made
    return eta


def _skip_thresholds(model: SequenceModel, factors: np.ndarray, weight: float, out: np.ndarray) -> np.ndarray:
    """Into ``out``, t_j = g^-1(v_j / (w (1 + _SKIP_MARGIN))) - _SKIP_SLACK: cells with u <= t_j cannot raise v_j.

    ``weight`` is w_r = n**(-alpha) / delta_n at the read's row r, and every
    later row's weight is smaller (w_n = n**(-eps)).  The margin covers the
    rounding of the cell's ratio: the draw g(u), the two products and the
    weights, each a few ulps, against 2**-40.  The slack, four float steps
    below 1, covers the rounding of g^-1 itself, which near u = 1 a margin
    on v_j cannot: there g is steep, so one step in u moves g(u) by more
    than the margin.  So u <= t_j gives g(u) <= v_j / (w_r (1 + margin)) and
    a computed ratio no larger than v_j.
    """
    np.divide(factors, weight * (1.0 + _SKIP_MARGIN), out=out)
    model._magnitude_cdf(out, out=out)
    return np.subtract(out, _SKIP_SLACK, out=out)


# ---------------------------------------------------------------------------
# exact oracles for the exponential model


def _log_rest(c: float, gamma: float, n: int, convex: bool) -> tuple[float, float]:
    """(lo, hi) on sum_{m >= n} log1p(-exp(-c m**gamma)): ``_log_product``'s convexity or integral-test bracket."""
    t = c * n**gamma
    x, one_minus_x = math.exp(-t), -math.expm1(-t)
    if convex:
        i_1, i_2 = _tail_integrals(c, gamma, n, powers=(1, 2))
        hi = -(i_1 + 0.5 * i_2) + 0.5 * math.log1p(-x)
        return hi - (0.5 * i_2 * x / one_minus_x + c * gamma * n ** (gamma - 1.0) * x / (8.0 * one_minus_x)), hi
    i_last, i_n = _tail_integrals(c, gamma, n - 1, n)
    return -i_last / one_minus_x, -i_n


def _log_product(c: float, gamma: float, abs_tol: float, index_start: int) -> float:
    """sum_{n >= index_start} log1p(-x_n), x_n = exp(-c n**gamma), within abs_tol, or a value <= ln(abs_tol).

    Sums the terms up to N - 1 (``_cut``), stopping once the sum is
    <= ln(abs_tol) (later terms only lower it), and brackets the rest
    sum_{n >= N} g_n, g = -log1p(-x) (``_log_rest``), with I_k(m) =
    int_m^inf x**k (``_tail_integrals``) and I = I_1:

    - integral test: x <= g <= x / (1 - x) puts it in
      [I(N), I(N - 1) / (1 - x_N)], at most x_{N-1} plus a term of order
      abs_tol * I(N) wide;
    - convexity: g is a convex increasing function of a convex x, so it lies
      in [J + g_N/2, J + g_N/2 + c gamma N**(gamma - 1) x_N / (8 (1 - x_N))],
      and J = int_N^inf g lies in [I_1 + I_2/2, I_1 + I_2 / (2 (1 - x_N))] by
      x + x**2/2 <= g <= x + x**2 / (2 (1 - x)).  Its cut is no lower than
      where x_N <= min(1/8, sqrt(abs_tol / ln(1/abs_tol))): if the rest's top end
      leaves the product above abs_tol, then I_1 < ln(1/abs_tol), so the I_2
      part is at most 4/7 abs_tol wide and the bracket fits.

    Either bracket's top end is returned once it puts the product below
    abs_tol; otherwise its midpoint is added, and a bracket wider than
    2 abs_tol raises ``ToleranceUnreachable``.  When the term cut passes the
    cap, the integral-test bracket on the whole sum, the rest from
    index_start, decides first: a ceiling <= ln(abs_tol) returns -inf, and a
    floor above it, which keeps both the stop and the top end from firing,
    raises before the sum what the bracket would after it.
    The top end is -inf where I(N) passes the float range.
    """
    n_cut = _term_cut(c, gamma, abs_tol, index_start)
    log_tol = math.log(abs_tol)
    floor = -math.inf
    if n_cut > SERIES_TERM_CAP:
        floor, ceiling = _log_rest(c, gamma, index_start, False)
        if ceiling <= log_tol:
            return -math.inf  # the product is already below abs_tol
    x_top = min(0.125, math.sqrt(abs_tol / -log_tol))
    n, convex = _cut(c, gamma, abs_tol, _term_cut(c, gamma, x_top, index_start), n_cut)
    if floor > log_tol:  # no sum can pass the floor: a bracket too wide raises now
        _bracket_midpoint(*_log_rest(c, gamma, n, convex), n - 1, abs_tol)
    with np.errstate(divide="ignore"):  # a factor that rounds to 0 logs to -inf, which ends the product
        log_product = _chunked_sum(
            lambda m: np.log1p(-np.exp(-c * m**gamma)), index_start, n - 1, lambda total, _: total <= log_tol
        )
    if log_product <= log_tol:
        return log_product
    lo, hi = _log_rest(c, gamma, n, convex)
    if log_product + hi <= log_tol:
        return log_product + hi
    return log_product + _bracket_midpoint(lo, hi, n - 1, abs_tol)


def _check_threshold(u: float) -> None:
    if not (math.isfinite(u) and u > 0.0):
        raise DomainError(f"tail threshold must be finite and positive, got {u}")


def exact_eta_tail(alpha: float, eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> float:
    """Exact tail P(eta > u) of the exponential-power model, within abs_tol.

    Evaluates 1 - prod_{n >= index_start} (1 - exp(-u n**eps)) as -expm1 of
    its log, ``_log_product`` at (c, gamma) = (u, eps).  Once the product is
    below abs_tol the tail lies in [1 - abs_tol, 1]; otherwise its error is at
    most the log's.  So the result is an estimate within abs_tol of the tail
    (up to rounding), not a lower or upper bound.  A tolerance the sum cannot
    reach raises ``ToleranceUnreachable``, before the sum where the term cut
    passes the cap.  alpha cancels from the tail and only gates eps.
    """
    _check_model_fields(alpha, index_start)
    check_eps(eps, alpha)
    _check_threshold(u)
    if not (0.0 < abs_tol < 1.0):
        raise DomainError(f"abs_tol must lie in (0, 1), got {abs_tol}")
    # _log_product is <= 0, so -expm1 lies in [0, 1]; max: a product that rounds to 1 gives -expm1(+0.0) = -0.0
    return max(0.0, -math.expm1(_log_product(u, eps, abs_tol, index_start)))


def bonferroni_sums(eps: float, u: float, abs_tol: float = 1e-12, index_start: int = 1) -> tuple[float, float]:
    """First- and second-order inclusion-exclusion sums for P(eta > u).

    Returns (sigma1, sigma2) with sigma1 = sum_n exp(-u n**eps) and
    sigma2 = sum_{n < m} exp(-u (n**eps + m**eps)) = (sigma1^2 - sigma1(2u)) / 2,
    so that sigma1 - sigma2 <= P(eta > u) <= sigma1.
    """
    check_eps(eps)
    _check_threshold(u)
    s1 = exp_power_sum(u, eps, abs_tol, index_start)
    if s1 == 0.0:  # sigma2 <= sigma1**2 / 2, and 2u may pass the float range
        return s1, 0.0
    s1_doubled = exp_power_sum(2.0 * u, eps, abs_tol, index_start)
    s2 = max(0.0, 0.5 * (s1 * s1 - s1_doubled))
    return s1, s2


def asymptotic_tail_constant(eps: float) -> float:
    """Gamma(1 + 1/eps), the constant of the u**(-1/eps) tail comparison."""
    check_eps(eps)
    return math.exp(_log_gamma(1.0 + 1.0 / eps))


def _moment_tail_remainder(eps: float, p: float, upper: float, index_start: int) -> float:
    """Certified closed-form bound on int_upper^inf p u**(p-1) P(eta > u) du.

    P(eta > u) <= sum_{n >= n0} exp(-u n**eps) bounds it by
    sum_n p n**(-p eps) Gamma(p, upper n**eps).  Gamma(a, x) <= 2 x**(a-1) e**(-x)
    for x >= 2 (a - 1) (DLMF 8.10) bounds term n by 2 p upper**(p-1) f(n), with
    f(t) = t**(-eps) e**(-upper t**eps) falling, so sum_{n >= n0} f(n) is at most
    f(n0) + int_{n0}^inf f = f(n0) + upper**(1 - 1/eps) Gamma(1/eps - 1, upper n0**eps) / eps.
    This needs upper >= 2 (p - 1), and never p < 1/eps; below that the bound
    is +inf.  It is taken in log space and is +inf past a float.
    ln Gamma(a, x) = ln Gamma(a) + ln Q(a, x) is read on the upper side of
    both, by the bounds of ``_log_gamma`` and ``_log_q``.  Where Q reads 0
    (x = +inf) the bound is +inf, so no term is dropped.
    """
    if upper < 2.0 * (p - 1.0):
        return math.inf
    x = upper * index_start**eps
    a = 1.0 / eps - 1.0
    (log_q,) = _log_q(a, [x])
    if log_q == -math.inf:
        return math.inf
    log_gamma = _log_gamma(a)
    log_gamma += _LOG_GAMMA_ERR * (1.0 + abs(log_gamma)) + log_q
    log_first = -eps * math.log(index_start) - x
    log_rest = (1.0 - 1.0 / eps) * math.log(upper) + log_gamma - math.log(eps)
    log_bound = math.log(2.0 * p) + (p - 1.0) * math.log(upper) + float(np.logaddexp(log_first, log_rest))
    return math.exp(log_bound) if log_bound <= _LOG_FLOAT_MAX else math.inf


def exact_eta_moment(alpha: float, eps: float, p: float, index_start: int = 1) -> float:
    """Exact ||eta||_p for the exponential-power model by a rule placed on the tail's drop, for every p >= 1.

    Integrates p e**(p t) T(e**t) over t = ln u, T(u) = P(eta > u) within
    1e-12, by 16-node Gauss-Legendre on panels at most ``_PANEL_WIDTH`` eps
    wide.  At n0 1, T drops near t_m = eps (ln Gamma(1 + 1/eps) - ln ln 2),
    over about eps.  Both cuts are certified within ``_MOMENT_REL_TOL``/2 of
    an anchor A <= P(eta > 1) <= the integral, A the larger of the tail at
    u = 1 less its abs_tol and e**(-n0**eps) = P(theta_{n0} > n0**eps).
    Where the tail reads at most its abs_tol and e**(-n0**eps) underflows
    (n0**eps past about 745), A is 0 and the cuts run until their bounds
    underflow.  t_lo steps down by eps from
    t_m - eps ln(40 / ln 2) until the head, in [e**(p t_lo) T, e**(p t_lo)], is
    that narrow (its lower end is taken), and t_hi up from t_m until
    ``_moment_tail_remainder`` is, on the bounds of ``_log_gamma`` and
    ``_log_q`` that it names.  The rule's own error is not bounded.
    p e**(p t_hi) bounds every partial sum, so t_hi stays where it is a float:
    a step that would pass the float range goes to the edge t_edge instead,
    and a remainder that fails there too raises ``ToleranceUnreachable``
    before the head's or any node's tail.
    """
    _check_model_fields(alpha, index_start)
    check_eps(eps, alpha)
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"moment exponent must be >= 1, got {p}")

    def tail(t: float) -> float:
        return exact_eta_tail(alpha, eps, math.exp(t), 1e-12, index_start)

    # what each cut may drop: the integral is at least T(1) = P(eta > 1), read on two lower bounds
    tol = 0.5 * _MOMENT_REL_TOL * max(tail(0.0) - 1e-12, math.exp(-(index_start**eps)))
    t_mid = eps * (_log_gamma(1.0 + 1.0 / eps) - math.log(math.log(2.0)))
    t_lo, t_hi = t_mid - eps * math.log(40.0 / math.log(2.0)), t_mid

    def in_range(t: float) -> bool:  # p e**(p t) is a float
        return math.log(p) + p * t < _LOG_FLOAT_MAX

    t_edge = (_LOG_FLOAT_MAX - math.log(p)) / p
    while not in_range(t_edge):
        t_edge = math.nextafter(t_edge, -math.inf)
    while in_range(t_hi) and _moment_tail_remainder(eps, p, math.exp(t_hi), index_start) > tol:
        t_hi = t_edge if t_hi < t_edge and not in_range(t_hi + eps) else t_hi + eps
    if not in_range(t_hi):
        raise ToleranceUnreachable(
            f"p u**p passes the float range past u = {math.exp(t_edge):g}, before the cut (p = {p})"
        )
    while math.exp(p * t_lo) * (1.0 - (head := tail(t_lo))) > tol:
        t_lo -= eps
    edges = np.linspace(t_lo, t_hi, math.ceil((t_hi - t_lo) / (_PANEL_WIDTH * eps)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half + half * _GL_NODES).ravel()
    nodes = np.asarray([tail(float(x)) for x in t])
    value = math.exp(p * t_lo) * head + float(np.sum((half * _GL_WEIGHTS).ravel() * p * np.exp(p * t) * nodes))
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
