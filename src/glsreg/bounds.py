"""Closed-form bounds for sup-regulators of a.e. convergent sequences.

Given a moment envelope ``||Z_n||_p <= K(p) * n**(-alpha)``, the regulator
``eta = sup_n n**(alpha - eps) |Z_n|`` satisfies

    ||eta||_p <= K(p) * (p*eps - 1)**(-1/p)      for p > 1/eps,

which ``regulator_lp_bound`` evaluates; the proof step behind it,
``sum_{n >= n0} n**(-p*eps) <= 1/(p*eps - 1)``, needs n0 >= 2.  For a
decay pair (eps_n, beta_n), ``sigma_function`` evaluates the series
``sigma(p) = (sum_n (eps_n/beta_n)**p)**(1/p)``, in closed form for
geometric pairs and otherwise by summation cut once the integral-test bound
on the remainder is at most rel_tol x the partial sum.  A tolerance that no
cut within ``SERIES_TERM_CAP`` terms can certify raises before the sum, and
the largest ratio is factored out of the power sum, so a tiny or huge ratio
neither underflows to 0 nor overflows to inf.  The CLI's weighted-sum bound
is the product psi(p) * sigma(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Divergent, DomainError, InvalidExponent, ToleranceUnreachable
from .generating import GeneratingFunction, check_eps, evaluate
from .sequences import DecaySequencePair, _chunked_sum

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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"decay exponent alpha must be positive, got {self.alpha}")
        if self.index_start < 1:
            raise DomainError(f"index_start must be >= 1, got {self.index_start}")


def regulator_lp_bound(env: MomentEnvelope, eps: float, p: float) -> float:
    """Moment bound envelope(p) * (p*eps - 1)**(-1/p) for the sup-regulator.

    The bound rests on sum_{n >= n0} n**(-p*eps) <= 1/(p*eps - 1), which
    holds only for n0 = env.index_start >= 2; the formula ignores the index,
    so at index_start 1 it can fall below the true norm.
    """
    check_eps(eps, env.alpha)
    if not p > 1.0 / eps:
        raise InvalidExponent(f"the bound needs p > 1/eps = {1.0 / eps}, got {p}")
    return evaluate(env.envelope, p) * (p * eps - 1.0) ** (-1.0 / p)


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


def _power_ratio_params(pair: DecaySequencePair, p: float) -> tuple[float, float, int]:
    gamma = p * pair.ratio_rate
    mu = p * pair.ratio_log_power
    head = pair.first_index
    for seq in (pair.eps_seq, pair.beta_seq):
        head = max(head, len(getattr(seq, "table", ())))
    return gamma, mu, head


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
    gamma, mu, head = _power_ratio_params(pair, p)
    if gamma < 1.0 or (gamma == 1.0 and mu >= -1.0):
        raise Divergent(f"series of (eps_n/beta_n)^p diverges at p = {p} (gamma = {gamma}, mu = {mu})")
    start = pair.first_index
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
    idx = np.union1d(np.arange(start, head + 1), np.arange(max(start, peak - 64), peak + 1))
    r_max = float(np.max(pair.ratio_values(idx.astype(float))))

    def term(n: np.ndarray) -> np.ndarray:
        return (pair.ratio_values(n) / r_max) ** p

    def remainder(n: int) -> float:
        return _power_remainder_bound(term, gamma, mu, n)

    # the remainder bound falls past n_mono, so a tolerance the cap's remainder misses is unreachable:
    # tested against an upper bound on the whole sum before summing, and against the sum after
    cap_remainder = remainder(SERIES_TERM_CAP)
    total = 0.0
    if cap_remainder <= rel_tol * (_chunked_sum(term, start, n_mono) + remainder(n_mono)):
        total = _chunked_sum(
            term, start, SERIES_TERM_CAP, lambda partial, top: top >= n_mono and remainder(top) <= rel_tol * partial
        )
    if cap_remainder > rel_tol * total:
        raise ToleranceUnreachable(f"remainder bound after {SERIES_TERM_CAP} terms stays above {rel_tol} x the sum")
    return r_max * total ** (1.0 / p)


def sigma_function(pair: DecaySequencePair, p: float, rel_tol: float = 1e-6, force_series: bool = False) -> float:
    """L_p norm sigma(p) of the ratio sequence eps_n / beta_n.

    Geometric pairs use the closed form (1 - delta**p)**(-1/p) unless
    ``force_series`` asks for the truncated summation (the two must agree to
    rel_tol, which the verification suite checks).  Power-type pairs always
    sum, truncating when the integral-test remainder drops below
    rel_tol x partial sum; a tolerance that SERIES_TERM_CAP terms cannot
    reach raises ``ToleranceUnreachable`` before the sum starts.
    """
    if not (math.isfinite(p) and p >= 1.0):
        raise DomainError(f"sigma needs an exponent p >= 1, got {p}")
    if not (0.0 < rel_tol < 1.0):
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if pair.kind == "geometric":
        scale = pair.eps_seq.scale / pair.beta_seq.scale
        if force_series:
            return scale * _geometric_sigma_series(pair.delta, p, rel_tol) ** (1.0 / p)
        return scale * (1.0 - pair.delta**p) ** (-1.0 / p)
    return _power_sigma_series(pair, p, rel_tol)
