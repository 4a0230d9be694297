"""Closed-form bounds for sup-regulators of a.e. convergent sequences.

Given a moment envelope ``||Z_n||_p <= K(p) * n**(-alpha)``, the regulator
``eta = sup_n n**(alpha - eps) |Z_n|`` satisfies

    ||eta||_p <= K(p) * (p*eps - 1)**(-1/p)      for p > 1/eps,

which ``regulator_lp_bound`` evaluates; the proof step behind it,
``sum_{n >= n0} n**(-p*eps) <= 1/(p*eps - 1)``, needs n0 >= 2.  For a
decay pair (eps_n, beta_n), ``sigma_function`` evaluates the series
``sigma(p) = (sum_n (eps_n/beta_n)**p)**(1/p)``, in closed form for
geometric pairs and for power-law pairs by summation cut once the
integral-test bound on the remainder is at most rel_tol x the partial sum.  A tolerance that no
cut within ``SERIES_TERM_CAP`` terms can certify raises before the sum, and
the largest ratio is factored out of the power sum, so a tiny or huge ratio
neither underflows to 0 nor overflows to inf.  The CLI's weighted-sum bound
is the product psi(p) * sigma(p).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Divergent, DomainError, InvalidExponent, ToleranceUnreachable
from .generating import GeneratingFunction, check_eps
from .sequences import DecaySequencePair, GeometricSequence, _chunked_sum

__all__ = [
    "SERIES_TERM_CAP",
    "MomentEnvelope",
    "regulator_lp_bound",
    "sigma_function",
]

#: Hard cap on the number of series terms a certified summation may visit.
SERIES_TERM_CAP = 10**8


@dataclass(frozen=True)
class MomentEnvelope:
    """Hypothesis ||Z_n||_p <= envelope(p) * n**(-alpha) for n >= index_start."""

    envelope: GeneratingFunction
    alpha: float
    index_start: int = 1

    def __post_init__(self) -> None:
        _check_model_fields(self.alpha, self.index_start)


def _check_integer(name: str, value: int, lowest: int, highest: float = math.inf) -> None:
    """``value`` must be an integer in [lowest, highest] (``operator.index``, so 2.0 and 1.5 are refused)."""
    try:
        if lowest <= operator.index(value) <= highest:
            return
    except TypeError:
        pass
    limits = f">= {lowest}" if highest == math.inf else f"in [{lowest}, {highest}]"
    raise DomainError(f"{name} must be an integer {limits}, got {value!r}")


def _check_model_fields(alpha: float, index_start: int) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise DomainError(f"decay exponent alpha must be positive, got {alpha}")
    _check_integer("index_start", index_start, 1)


def regulator_lp_bound(env: MomentEnvelope, eps: float, p: float) -> float:
    """Moment bound envelope(p) * (p*eps - 1)**(-1/p) for the sup-regulator.

    The bound rests on sum_{n >= n0} n**(-p*eps) <= 1/(p*eps - 1), which
    holds only for n0 = env.index_start >= 2; the formula ignores the index,
    so at index_start 1 it can fall below the true norm.
    """
    check_eps(eps, env.alpha)
    if not p > 1.0 / eps:
        raise InvalidExponent(f"the bound needs p > 1/eps = {1.0 / eps}, got {p}")
    return env.envelope.value(p) * (p * eps - 1.0) ** (-1.0 / p)


# ---------------------------------------------------------------------------
# sigma series


def _geometric_sigma_series(delta: float, p: float, rel_tol: float) -> float:
    # sum_{n<=N} d^n with d = delta**p; the exact remainder sum_{n>N} d^n =
    # d^(N+1) / (1 - d) is <= rel_tol x partial sum iff d^(N+1) <= rel_tol / (1 + rel_tol)
    d = delta**p
    n_last = max(0, math.ceil(math.log(rel_tol / (1.0 + rel_tol)) / (p * math.log(delta))) - 1)
    if n_last > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"geometric series needs more than {SERIES_TERM_CAP} terms")
    total = _chunked_sum(lambda n: d**n, 0, n_last)
    while d ** (n_last + 1) / (1.0 - d) > rel_tol * total:  # guards the rounding of the count
        n_last += 1
        total += d**n_last
    return total


def _power_remainder_bound(
    term: Callable[[np.ndarray], np.ndarray], gamma: float, mu: float, n_last: int
) -> float:
    """Certified upper bound on sum_{n > n_last} term(n).

    Valid once the term function is nonincreasing (n_last past the log bump)
    and n_last is past any tabulated head, so term(n) is exactly
    C * n**(-gamma) * ln(n+1)**mu there; the bound is written through
    term(n_last), so C, which may under- or overflow, never appears.
    """
    tail = n_last * float(term(np.asarray([float(n_last)]))[0])
    if gamma > 1.0:
        # mu > 0 trades half the power margin for the growing log factor
        denom = gamma - 1.0 if mu <= 0 else (gamma - 1.0) / 2.0
        return tail / denom
    # boundary gamma == 1, mu < -1: integral of ln^mu(x)/x
    return tail * math.log(n_last) ** (mu + 1.0) / math.log(n_last + 1.0) ** mu / (-1.0 - mu)


def _power_sigma_series(pair: DecaySequencePair, p: float, rel_tol: float) -> float:
    # past the head the p-th power of the ratio is C n**(-gamma) ln(n+1)**mu
    e, b = pair.eps_seq, pair.beta_seq
    gamma, mu, head = p * (e.rate - b.rate), p * (e.log_power - b.log_power), max(1, len(e.table), len(b.table))
    if gamma < 1.0 or (gamma == 1.0 and mu >= -1.0):
        raise Divergent(f"series of (eps_n/beta_n)^p diverges at p = {p} (gamma = {gamma}, mu = {mu})")
    # the remainder bound needs n >= 2 at gamma == 1 and, for mu > 0, ln n >= 2 mu / (gamma - 1);
    # clamped just past the cap, so exp stays finite and the cap check still fires
    log_valid = min(2.0 * mu / (gamma - 1.0) if mu > 0 else 0.0, math.log(2.0 * SERIES_TERM_CAP))
    n_mono = max(head, 2 if gamma == 1.0 else 1, math.ceil(math.exp(log_valid)))
    if n_mono > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"term function only becomes monotone past {n_mono} > {SERIES_TERM_CAP}")
    # past the table the ratio falls once ln(n+1) >= mu/gamma (< log_valid, so peak <= n_mono)
    peak = max(head, math.ceil(math.exp(mu / gamma))) if mu > 0 else head

    # sigma = r_max * (sum (r_n / r_max)**p)**(1/p), so no scaled term under- or overflows.  r_max lies
    # on the table or within 64 indices below peak: peak < 56 when mu/gamma < 4, and otherwise the
    # rise ends fewer than mu/gamma + 4 < 23 indices below peak (mu/gamma <= ln cap)
    idx = np.union1d(np.arange(1, head + 1), np.arange(max(1, peak - 64), peak + 1))
    r_max = float(np.max(pair.ratio_values(idx.astype(float))))

    def term(n: np.ndarray) -> np.ndarray:
        return (pair.ratio_values(n) / r_max) ** p

    def remainder(n: int) -> float:
        return _power_remainder_bound(term, gamma, mu, n)

    # the remainder bound falls past n_mono, so a tolerance the cap's remainder misses is unreachable:
    # tested against an upper bound on the whole sum before summing, and against the sum after
    cap_remainder = remainder(SERIES_TERM_CAP)
    total = 0.0
    if cap_remainder <= rel_tol * (_chunked_sum(term, 1, n_mono) + remainder(n_mono)):
        total = _chunked_sum(
            term, 1, SERIES_TERM_CAP, lambda partial, top: top >= n_mono and remainder(top) <= rel_tol * partial
        )
    if cap_remainder > rel_tol * total:
        raise ToleranceUnreachable(f"remainder bound after {SERIES_TERM_CAP} terms stays above {rel_tol} x the sum")
    return r_max * total ** (1.0 / p)


def sigma_function(pair: DecaySequencePair, p: float, rel_tol: float = 1e-6, force_series: bool = False) -> float:
    """L_p norm sigma(p) of the ratio sequence eps_n / beta_n.

    Geometric pairs, with delta = q/Q, use the closed form
    (scale ratio) * (1 - delta**p)**(-1/p) unless ``force_series`` asks for
    the truncated summation (the two must agree to rel_tol, which the
    verification suite checks).  Power-law pairs always sum from n = 1,
    truncating when the integral-test remainder drops below
    rel_tol x partial sum; a tolerance that SERIES_TERM_CAP terms cannot
    reach raises ``ToleranceUnreachable`` before the sum starts.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"sigma needs an exponent p >= 1, got {p}")
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    e, b = pair.eps_seq, pair.beta_seq
    if isinstance(e, GeometricSequence):
        delta = e.q / b.q
        if force_series:
            return e.scale / b.scale * _geometric_sigma_series(delta, p, rel_tol) ** (1.0 / p)
        return e.scale / b.scale * (1.0 - delta**p) ** (-1.0 / p)
    return _power_sigma_series(pair, p, rel_tol)
