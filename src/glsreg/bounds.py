"""Closed-form bounds for sup-regulators of a.e. convergent sequences.

Given a moment envelope ``||Z_n||_p <= K(p) * n**(-alpha)``, the regulator
``eta = sup_n n**(alpha - eps) |Z_n|`` satisfies

    ||eta||_p <= K(p) * (p*eps - 1)**(-1/p)      for p > 1/eps,

which ``regulator_lp_bound`` evaluates; the proof step behind it,
``sum_{n >= n0} n**(-p*eps) <= 1/(p*eps - 1)``, needs n0 >= 2.  For a
decay pair (eps_n, beta_n), ``sigma_function`` evaluates the series
``sigma(p) = (sum_n (eps_n/beta_n)**p)**(1/p)``, in closed form for
geometric pairs and otherwise by summation cut once the integral-test bound
on the remainder is at most rel_tol x the partial sum; ``generalized_bound``
is the product psi(p) * sigma(p).  The Tchebychev functions bound
P(n**(alpha-eps) |Z_n| > delta) for one term and for a whole tail.  The CLI
and ``verify`` call neither of these two groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Divergent, DomainError, InvalidExponent, ToleranceUnreachable
from .generating import GeneratingFunction, check_eps, evaluate
from .sequences import DecaySequencePair, _chunked_sum

__all__ = [
    "SERIES_TERM_CAP",
    "MomentEnvelope",
    "regulator_lp_bound",
    "sigma_function",
    "generalized_bound",
    "tchebychev_term_bound",
    "tchebychev_tail_sum_bound",
]

#: Hard cap on the number of series terms a certified summation may visit.
SERIES_TERM_CAP = 10**8

_CHUNK = 1 << 20


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


def _power_remainder_bound(pair: DecaySequencePair, p: float, gamma: float, mu: float, n_last: int) -> float:
    """Certified upper bound on sum_{n > n_last} (eps_n/beta_n)**p.

    Valid once the term function is nonincreasing (n_last past the log bump)
    and n_last is past any tabulated head, so the ratio is exactly
    c * x**(-rate) * ln(x+1)**(log_power) there.
    """
    c = float(pair.ratio_values(np.asarray([n_last]))[0]) / (
        n_last ** (-pair.ratio_rate) * math.log(n_last + 1.0) ** pair.ratio_log_power
    )
    scale = c**p
    log_term = math.log(n_last + 1.0) ** mu
    if gamma > 1.0:
        # mu > 0 trades half the power margin for the growing log factor
        denom = gamma - 1.0 if mu <= 0 else (gamma - 1.0) / 2.0
        return scale * log_term * n_last ** (1.0 - gamma) / denom
    # boundary gamma == 1, mu < -1: integral of ln^mu(x)/x
    return scale * math.log(n_last) ** (mu + 1.0) / (-1.0 - mu)


def _power_monotone_from(gamma: float, mu: float, head: int) -> int:
    n = head
    if mu > 0:
        n = max(n, math.ceil(math.exp(mu / gamma)))
        if gamma > 1.0:
            # validity threshold of the mu > 0 remainder bound above
            n = max(n, math.ceil(math.exp(2.0 * mu / (gamma - 1.0))))
    if gamma <= 1.0:
        n = max(n, 2)
    return n


def _power_sigma_series(pair: DecaySequencePair, p: float, rel_tol: float) -> float:
    gamma, mu, head = _power_ratio_params(pair, p)
    if gamma < 1.0 or (gamma == 1.0 and mu >= -1.0):
        raise Divergent(f"series of (eps_n/beta_n)^p diverges at p = {p} (gamma = {gamma}, mu = {mu})")
    start = pair.first_index
    n_mono = _power_monotone_from(gamma, mu, head)
    if n_mono > SERIES_TERM_CAP:
        raise ToleranceUnreachable(f"term function only becomes monotone past {n_mono} > {SERIES_TERM_CAP}")

    total = 0.0
    n = start - 1
    while True:
        hi = max(n_mono, 2 * n) if n >= n_mono else n_mono
        hi = min(hi, n + _CHUNK, SERIES_TERM_CAP)
        idx = np.arange(n + 1, hi + 1, dtype=float)
        total += float(np.sum(pair.ratio_values(idx) ** p))
        n = hi
        if n >= n_mono and _power_remainder_bound(pair, p, gamma, mu, n) <= rel_tol * total:
            return total
        if n >= SERIES_TERM_CAP:
            raise ToleranceUnreachable(
                f"remainder bound still above {rel_tol} x partial sum after {SERIES_TERM_CAP} terms"
            )


def sigma_function(pair: DecaySequencePair, p: float, rel_tol: float = 1e-6, force_series: bool = False) -> float:
    """L_p norm sigma(p) of the ratio sequence eps_n / beta_n.

    Geometric pairs use the closed form (1 - delta**p)**(-1/p) unless
    ``force_series`` asks for the truncated summation (the two must agree to
    rel_tol, which the verification suite checks).  Power-type pairs always
    sum, truncating when the integral-test remainder drops below
    rel_tol x partial sum.
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
    return _power_sigma_series(pair, p, rel_tol) ** (1.0 / p)


def generalized_bound(psi: GeneratingFunction, pair: DecaySequencePair, p: float, rel_tol: float = 1e-6) -> float:
    """Moment bound psi(p) * sigma(p) for a regulator normalised by beta_n.

    If ||Z_n||_p <= psi(p) * eps_n then zeta = sup_n |Z_n| / beta_n has
    ||zeta||_p below this product; +inf when p is outside psi's domain.
    """
    return evaluate(psi, p) * sigma_function(pair, p, rel_tol)


# ---------------------------------------------------------------------------
# single-term and tail-sum probability bounds


def _tchebychev_log_rate(env: MomentEnvelope, eps: float, p: float, delta: float) -> float:
    check_eps(eps, env.alpha)
    if not p > 1.0 / eps:
        raise InvalidExponent(f"the tail sum needs p > 1/eps = {1.0 / eps}, got {p}")
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"threshold delta must be positive, got {delta}")
    k_p = evaluate(env.envelope, p)
    return p * (math.log(k_p) - math.log(delta)) if math.isfinite(k_p) else math.inf


def tchebychev_term_bound(env: MomentEnvelope, eps: float, p: float, delta: float, n: int) -> float:
    """Markov bound min(1, (K(p)/delta)**p * n**(-p*eps)) on P(n**(alpha-eps) |Z_n| > delta)."""
    if n < 1:
        raise DomainError(f"index must be >= 1, got {n}")
    log_bound = _tchebychev_log_rate(env, eps, p, delta) - p * eps * math.log(n)
    return min(1.0, math.exp(min(0.0, log_bound)))


def tchebychev_tail_sum_bound(env: MomentEnvelope, eps: float, p: float, delta: float, n_last: int) -> float:
    """Integral-test bound on the whole discarded tail sum_{n > n_last}.

    Bounds P(sup_{n > n_last} n**(alpha-eps) |Z_n| > delta) by
    (K(p)/delta)**p * n_last**(1 - p*eps) / (p*eps - 1).  Simulation
    truncation does not use it; it cuts with ``exp_power_sum_tail_bound``.
    """
    if n_last < 1:
        raise DomainError(f"truncation index must be >= 1, got {n_last}")
    log_rate = _tchebychev_log_rate(env, eps, p, delta)
    log_tail = log_rate + (1.0 - p * eps) * math.log(n_last) - math.log(p * eps - 1.0)
    return min(1.0, math.exp(min(0.0, log_tail)))
