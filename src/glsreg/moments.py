"""Moment curves, sup-norms over exponents, and conjugate tail bounds.

The central object is the moment curve ``p -> ||f||_p``.  Against a
generating function ``psi`` it defines the norm

    ||f|| = sup_p ||f||_p / psi(p),

and on the conjugate side the Young-Fenchel transform of
``h(p) = p ln psi(p)`` turns a unit norm into the exponential tail bound
``P(|f| >= t) <= exp(-h*(ln t))`` for ``t >= e``.  The empirical tail
``P(|x| >= t)`` of a sample is estimated here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, EmptyDomain, EmptySample, LengthMismatch
from .estimates import ConfidenceValue, proportion_estimate
from .generating import Domain, ExponentInterval, GeneratingFunction, PointDomain, intersect_domains
from .scan import ScanResult, supremum_scan

__all__ = [
    "MomentFunction",
    "constant_moments",
    "std_exponential_moments",
    "half_normal_moments",
    "discrete_moments",
    "table_moments",
    "scaled_moments",
    "sup_moment_function",
    "empirical_tail",
    "gls_norm",
    "gls_norm_scan",
    "classical_grand_norm",
    "young_fenchel",
    "young_fenchel_scan",
    "exponential_tail_bound",
]


@dataclass(frozen=True)
class MomentFunction:
    """Map p -> ||f||_p on an exponent interval.

    ``evaluator`` is vectorised and is only consulted inside the domain;
    outside it the curve reports +inf (nothing is guaranteed there).
    """

    interval: ExponentInterval
    evaluator: Callable[[np.ndarray], np.ndarray]

    @property
    def domain(self) -> ExponentInterval:
        return self.interval

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        inside = self.interval.contains_array(p)
        out = np.full(p.shape, math.inf)
        if inside.any():
            out[inside] = self.evaluator(p[inside])
        return out

    def value(self, p: float) -> float:
        return float(self.values(np.asarray([p], dtype=float))[0])


# ---------------------------------------------------------------------------
# moment-curve constructors


def constant_moments(c: float, interval: ExponentInterval | None = None) -> MomentFunction:
    """Moment curve of a variable with ||f||_p = c for every p."""
    if c < 0 or not math.isfinite(c):
        raise DomainError(f"a p-norm level must be finite and nonnegative, got {c}")
    interval = interval or ExponentInterval(1.0, math.inf)
    return MomentFunction(interval, lambda p: np.full(p.shape, float(c)))


def std_exponential_moments() -> MomentFunction:
    """||theta||_p = Gamma(p+1)^(1/p) for a standard exponential variable."""
    from scipy import special

    return MomentFunction(ExponentInterval(1.0, math.inf), lambda p: np.exp(special.gammaln(p + 1.0) / p))


def half_normal_moments() -> MomentFunction:
    """||g||_p = (2^(p/2) Gamma((p+1)/2) / sqrt(pi))^(1/p) for |g|, g standard normal."""
    from scipy import special

    def ev(p: np.ndarray) -> np.ndarray:
        log_moment = 0.5 * p * math.log(2.0) + special.gammaln((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)
        return np.exp(log_moment / p)

    return MomentFunction(ExponentInterval(1.0, math.inf), ev)


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x), axis=1)) without overflow.

    Each row is shifted by its max, or by 0 when that max is not finite.  As
    in scipy.special.logsumexp, the terms equal to the max are counted, not
    summed: the result is log1p(rest / count) + log(count) + max, which is
    -inf with no warning for a row of -inf (all atoms zero).
    """
    top = x.max(axis=1)
    at_top = x == top[:, None]
    count = at_top.sum(axis=1, dtype=float)
    shift = np.where(np.isfinite(top), top, 0.0)
    rest = np.exp(np.where(at_top, -np.inf, x) - shift[:, None]).sum(axis=1)
    return np.log1p(rest / count) + np.log(count) + top


def discrete_moments(atoms: Sequence[float], weights: Sequence[float]) -> MomentFunction:
    """Moment curve of a discrete variable |f| with the given atoms and weights."""
    a = np.abs(np.asarray(atoms, dtype=float))
    w = np.asarray(weights, dtype=float)
    if a.size == 0:
        raise EmptySample("a discrete moment curve needs at least one atom")
    if a.size != w.size:
        raise LengthMismatch(f"{a.size} atoms vs {w.size} weights")
    if np.any(w <= 0) or not np.all(np.isfinite(w)) or not np.all(np.isfinite(a)):
        raise DomainError("weights must be positive and atoms finite")
    log_w = np.log(w) - math.log(float(w.sum()))
    with np.errstate(divide="ignore"):
        log_a = np.log(a)

    def ev(p: np.ndarray) -> np.ndarray:
        # log E|f|^p = logsumexp(p log a + log w), columns over atoms
        return np.exp(_logsumexp_rows(p[:, None] * log_a[None, :] + log_w[None, :]) / p)

    return MomentFunction(ExponentInterval(1.0, math.inf), ev)


def table_moments(ps: Sequence[float], vals: Sequence[float]) -> MomentFunction:
    """Moment curve through tabulated knots, geometric interpolation inside the hull."""
    ps = np.asarray(list(ps), dtype=float)
    vals = np.asarray(list(vals), dtype=float)
    if ps.size != vals.size:
        raise LengthMismatch("knot exponents and values differ in length")
    if ps.size < 2 or np.any(np.diff(ps) <= 0):
        raise DomainError("a moment table needs at least two strictly increasing exponents")
    if ps[0] < 1.0:
        raise DomainError("moment exponents start at 1")
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise DomainError("moment table values must be finite and nonnegative")
    interval = ExponentInterval(float(ps[0]), float(np.nextafter(ps[-1], math.inf)))
    log_p = np.log(ps)
    with np.errstate(divide="ignore"):
        log_v = np.log(vals)

    def ev(p: np.ndarray) -> np.ndarray:
        return np.exp(np.interp(np.log(p), log_p, log_v))

    return MomentFunction(interval, ev)


def scaled_moments(mf: MomentFunction, c: float) -> MomentFunction:
    """Moment curve of c*f: every p-norm scales by |c|."""
    s = abs(float(c))
    return MomentFunction(mf.interval, lambda p: s * mf.evaluator(p))


def sup_moment_function(members: Sequence[MomentFunction]) -> MomentFunction:
    """Pointwise sup of a finite family of moment curves on the common domain."""
    if not members:
        raise EmptySample("sup of an empty moment family")
    dom: Domain = members[0].interval
    for m in members[1:]:
        dom = intersect_domains(dom, m.interval)
    if isinstance(dom, PointDomain):
        raise EmptyDomain("moment family domains intersect in a single point")

    def ev(p: np.ndarray) -> np.ndarray:
        return np.max(np.stack([m.evaluator(p) for m in members]), axis=0)

    return MomentFunction(dom, ev)


# ---------------------------------------------------------------------------
# empirical tail


def empirical_tail(samples: np.ndarray, t: float) -> ConfidenceValue:
    """Empirical exceedance probability P(|x| >= t) with binomial half-width."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise EmptySample("empirical tail of an empty sample")
    if t < 0:
        raise DomainError(f"tail threshold must be nonnegative, got {t}")
    hits = int(np.count_nonzero(np.abs(x) >= t))
    return proportion_estimate(hits, x.size)


# ---------------------------------------------------------------------------
# norms


def gls_norm_scan(
    moments: MomentFunction,
    psi: GeneratingFunction,
    n_points: int = 512,
    refine: bool = True,
) -> ScanResult:
    """Scan detail behind gls_norm: grid, objective, argmax, unbounded flag."""
    dom = intersect_domains(moments.domain, psi.domain)

    def ratio(p: np.ndarray) -> np.ndarray:
        num = moments.values(p)
        den = psi.values(p)
        out = np.zeros(p.shape)
        den_finite = np.isfinite(den)
        np.divide(num, den, out=out, where=den_finite)
        out[~den_finite] = 0.0  # C / inf := 0
        return out

    return supremum_scan(ratio, dom, n_points=n_points, refine=refine)


def gls_norm(moments: MomentFunction, psi: GeneratingFunction, n_points: int = 512, refine: bool = True) -> float:
    """sup_p ||f||_p / psi(p) over the common exponent domain.

    Returns +inf when the ratio is still climbing at the scan cap of an
    unbounded domain; a capped finite value would understate the norm.
    """
    return gls_norm_scan(moments, psi, n_points=n_points, refine=refine).value


def classical_grand_norm(moments: MomentFunction, q: float, n_points: int = 512) -> float:
    """Classical grand Lebesgue norm sup_{0<eps<q-1} eps^(1/(q-eps)) ||f||_{q-eps}.

    Computed by substituting p = q - eps and scanning (q - p)^(1/p) ||f||_p
    over p in (1, q).
    """
    if not (math.isfinite(q) and q > 1.0):
        raise EmptyDomain(f"classical grand norm needs q > 1, got {q}")
    dom = intersect_domains(moments.domain, ExponentInterval(1.0, q, lower_open=True))

    def objective(p: np.ndarray) -> np.ndarray:
        return (q - p) ** (1.0 / p) * moments.values(p)

    return supremum_scan(objective, dom, n_points=n_points).value


# ---------------------------------------------------------------------------
# conjugate transform and tail bound


def young_fenchel_scan(psi: GeneratingFunction, v: float, n_points: int = 512, refine: bool = True) -> ScanResult:
    """Scan detail behind young_fenchel: sup_p [p v - p ln psi(p)]."""
    if not math.isfinite(v):
        raise DomainError(f"conjugate argument must be finite, got {v}")

    def objective(p: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            log_psi = np.log(psi.values(p))
        return p * (v - log_psi)

    return supremum_scan(objective, psi.domain, n_points=n_points, refine=refine)


def young_fenchel(psi: GeneratingFunction, v: float, n_points: int = 512, refine: bool = True) -> float:
    """Young-Fenchel transform of h(p) = p ln psi(p), evaluated at v.

    Returns +inf (flagged unbounded in the scan variant) when the objective
    keeps growing at the cap of an unbounded domain.
    """
    return young_fenchel_scan(psi, v, n_points=n_points, refine=refine).value


def exponential_tail_bound(psi: GeneratingFunction, t: float) -> float:
    """Tail bound exp(-h*(ln t)) for a variable of unit norm under psi.

    Valid for t >= e only; smaller thresholds are a hard error.  Callers
    must rescale their variable to unit norm first -- the bound is not
    homogeneous.  Equals inf_p (psi(p)/t)^p, hence always in [0, 1] after
    clamping.
    """
    if not (math.isfinite(t) and t >= math.e):
        raise DomainError(f"the conjugate tail bound needs t >= e, got {t}")
    h_star = young_fenchel(psi, math.log(t))
    if h_star == math.inf:
        return 0.0
    return min(1.0, math.exp(-h_star))
