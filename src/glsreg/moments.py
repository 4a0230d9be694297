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
from .generating import GRID_POINTS, ExponentInterval, GeneratingFunction, Tabulated, intersect_domains
from .scan import ScanResult, supremum_scan

__all__ = [
    "MomentFunction",
    "constant_moments",
    "std_exponential_moments",
    "half_normal_moments",
    "discrete_moments",
    "discrete_moment_lanes",
    "table_moments",
    "scaled_moments",
    "sup_moment_function",
    "empirical_tail",
    "norm_ratio",
    "gls_norm",
    "gls_norm_scan",
    "classical_grand_norm",
    "young_fenchel",
    "young_fenchel_scan",
    "exponential_tail_bound",
]

_LANE_CELLS = 1 << 15  # atom-table cells discrete_moment_lanes evaluates at a time


@dataclass(frozen=True)
class MomentFunction(GeneratingFunction):
    """Map p -> ||f||_p on an exponent interval.

    ``evaluator`` is vectorised and is only consulted inside the domain;
    outside it the curve reports +inf (nothing is guaranteed there).  A
    moment curve is itself a weight: a positive one serves as the
    ``psi`` of a norm.
    """

    interval: ExponentInterval
    evaluator: Callable[[np.ndarray], np.ndarray]

    @property
    def domain(self) -> ExponentInterval:
        return self.interval

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        return self.evaluator(q)


# ---------------------------------------------------------------------------
# moment-curve constructors


def constant_moments(c: float) -> MomentFunction:
    """Moment curve of a variable with ||f||_p = c for every p."""
    if c < 0 or not math.isfinite(c):
        raise DomainError(f"a p-norm level must be finite and nonnegative, got {c}")
    return MomentFunction(ExponentInterval(1.0, math.inf), lambda p: np.full(p.shape, float(c)))


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
    """log(sum(exp(x), axis=1)) without overflow; overwrites ``x``.

    Each row is shifted by its max, or by 0 when that max is not finite.  As
    in scipy.special.logsumexp, the terms equal to the max are counted, not
    summed: the result is log1p(rest / count) + log(count) + max, which is
    -inf with no warning for a row of -inf (all atoms zero).  The shifted
    terms are formed in ``x`` itself, so callers pass a table they discard.
    """
    top = x.max(axis=1)
    at_top = x == top[:, None]
    count = at_top.sum(axis=1, dtype=float)
    np.copyto(x, -np.inf, where=at_top)
    x -= np.where(np.isfinite(top), top, 0.0)[:, None]
    rest = np.exp(x, out=x).sum(axis=1)
    return np.log1p(rest / count) + np.log(count) + top


def _discrete_logs(
    atoms: Sequence[Sequence[float]], weights: Sequence[Sequence[float]]
) -> tuple[np.ndarray, np.ndarray]:
    """log |atom| and log normalised weight of discrete variables, a row each.

    Rows shorter than the longest are padded by atom 1 and weight 0, whose
    logs are 0 and -inf.
    """
    if len(atoms) != len(weights):
        raise LengthMismatch(f"{len(atoms)} atom lanes vs {len(weights)} weight lanes")
    if not atoms:
        raise EmptySample("a family of discrete moment curves needs at least one curve")
    a = [np.asarray(x, dtype=float) for x in atoms]
    w = [np.asarray(x, dtype=float) for x in weights]
    for a_i, w_i in zip(a, w):
        if a_i.size == 0:
            raise EmptySample("a discrete moment curve needs at least one atom")
        if a_i.size != w_i.size:
            raise LengthMismatch(f"{a_i.size} atoms vs {w_i.size} weights")
    flat_a, flat_w = np.abs(np.concatenate(a)), np.concatenate(w)
    if np.any(flat_w <= 0) or not np.all(np.isfinite(flat_w)) or not np.all(np.isfinite(flat_a)):
        raise DomainError("weights must be positive and atoms finite")
    size = np.array([a_i.size for a_i in a])
    real = np.arange(size.max()) < size[:, None]
    a_table, w_table = np.ones(real.shape), np.zeros(real.shape)
    a_table[real], w_table[real] = flat_a, flat_w
    with np.errstate(divide="ignore"):
        log_a, log_w = np.log(a_table), np.log(w_table)
    log_total = np.array([math.log(total) for total in w_table.sum(axis=1).tolist()])
    return log_a, log_w - log_total[:, None]


def discrete_moments(atoms: Sequence[float], weights: Sequence[float]) -> MomentFunction:
    """Moment curve of a discrete variable |f| with the given atoms and weights."""
    log_a, log_w = (row[0] for row in _discrete_logs([atoms], [weights]))

    def ev(p: np.ndarray) -> np.ndarray:
        # log E|f|^p = logsumexp(p log a + log w), columns over atoms
        return np.exp(_logsumexp_rows(p[:, None] * log_a[None, :] + log_w[None, :]) / p)

    return MomentFunction(ExponentInterval(1.0, math.inf), ev)


def discrete_moment_lanes(
    atoms: Sequence[Sequence[float]], weights: Sequence[Sequence[float]]
) -> MomentFunction:
    """Moment curves of several discrete variables, one lane each, evaluated as one table.

    Lane i is ``discrete_moments(atoms[i], weights[i])``.  The evaluator
    broadcasts its exponents against a column of lanes: an (n,) row or a
    (lanes x n) table, a row per lane, gives a (lanes x n) table whose row i
    is lane i's curve at that row's exponents.  Call ``evaluator`` directly:
    ``values`` takes exponents as a flat set and cannot keep them per lane.

    The atoms are padded to the longest lane by zero weights (log-weight
    -inf), which add exact zeros to a lane's sums.  The lanes are evaluated
    in chunks: each chunk's (atoms x lanes x n) table holds at most
    ``_LANE_CELLS`` cells (256 KiB of floats), or one lane where a lane
    alone holds more, so the evaluator's temporaries do not grow with the
    number of lanes.  The table holds one contiguous slab per atom and is
    summed over atoms slab by slab, in order; numpy sums a row of up to
    seven atoms in order too, so with at most seven atoms a lane equals its
    own curve bit for bit, whatever the chunk.
    """
    log_a, log_w = (np.ascontiguousarray(t.T)[:, :, None] for t in _discrete_logs(atoms, weights))

    def ev(p: np.ndarray) -> np.ndarray:
        p = np.broadcast_to(p, np.broadcast_shapes(p.shape, log_a.shape[1:]))  # (lanes, n)
        out = np.empty(p.shape)
        step = max(1, _LANE_CELLS // max(1, log_a.shape[0] * p.shape[1]))
        for lo in range(0, p.shape[0], step):
            lanes = slice(lo, lo + step)
            x = p[lanes] * log_a[:, lanes]  # (atoms, chunk, n)
            x += log_w[:, lanes]
            # the transpose views the slabs as rows of atoms without copying them
            lse = _logsumexp_rows(x.reshape(x.shape[0], -1).T).reshape(x.shape[1:])
            np.exp(lse / p[lanes], out=out[lanes])
        return out

    return MomentFunction(ExponentInterval(1.0, math.inf), ev)


def table_moments(ps: Sequence[float], vals: Sequence[float]) -> MomentFunction:
    """Moment curve through tabulated knots: the curve of ``generating.Tabulated`` on the same knots."""
    if len(ps) != len(vals):
        raise LengthMismatch("knot exponents and values differ in length")
    table = Tabulated(points=tuple(zip(map(float, ps), map(float, vals))))
    return MomentFunction(table.domain, table.on_domain)


def scaled_moments(mf: MomentFunction, c: float | np.ndarray) -> MomentFunction:
    """Moment curve of c*f: every p-norm scales by |c|.

    ``c`` is a number, or for a lane family (see ``discrete_moment_lanes``)
    a (lanes x 1) column of one factor per lane.
    """
    s = np.abs(np.asarray(c, dtype=float))
    return MomentFunction(mf.interval, lambda p: s * mf.evaluator(p))


def sup_moment_function(members: Sequence[MomentFunction]) -> MomentFunction:
    """Pointwise sup of a finite family of moment curves on the common domain."""
    if not members:
        raise EmptySample("sup of an empty moment family")
    dom = members[0].interval
    for m in members[1:]:
        dom = intersect_domains(dom, m.interval)

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
    if not t >= 0:  # NaN fails this too
        raise DomainError(f"tail threshold must be nonnegative, got {t}")
    hits = int(np.count_nonzero(np.abs(x) >= t))
    return proportion_estimate(hits, x.size)


# ---------------------------------------------------------------------------
# norms


def norm_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The ratio ||f||_p / psi(p) of moment values to weights, with C / inf := 0."""
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=np.isfinite(den))
    return out


def gls_norm_scan(
    moments: MomentFunction,
    psi: GeneratingFunction,
    n_points: int = GRID_POINTS,
    refine: bool = True,
) -> ScanResult:
    """Scan detail behind gls_norm: grid, objective, argmax, unbounded flag."""
    dom = intersect_domains(moments.domain, psi.domain)

    def ratio(p: np.ndarray, _: np.ndarray) -> np.ndarray:
        return norm_ratio(moments.values(p), psi.values(p))

    # one lane; the ratio takes no lane parameter
    return supremum_scan(ratio, dom, (0.0,), n_points=n_points, refine=refine)[0]


def _lane_norms(moments: MomentFunction, domains, lanes: int, weights_at: Callable, n_points: int) -> list[float]:
    """Each lane's sup_p ||f||_p / psi(p) on its grid alone, for the lane family ``moments``.

    ``domains`` is one domain per lane, or one shared by all ``lanes``.
    ``weights_at`` maps the grid (the shared (n,) row or the (lanes x n)
    table) to a (lanes x n) table of weights; the family's own ``evaluator``
    makes each curve its own weight, evaluated once per call.
    """

    def ratio(p: np.ndarray, _: np.ndarray) -> np.ndarray:
        num = moments.evaluator(p)
        return norm_ratio(num, num if weights_at is moments.evaluator else weights_at(p))

    return [scan.value for scan in supremum_scan(ratio, domains, np.arange(lanes), n_points, refine=False)]


def gls_norm(
    moments: MomentFunction,
    psi: GeneratingFunction | Sequence[GeneratingFunction],
    n_points: int = GRID_POINTS,
    refine: bool = True,
) -> float | list[float]:
    """sup_p ||f||_p / psi(p) over the common exponent domain.

    ``psi`` is one weight, giving a float, or a sequence of weights, one per
    lane of the lane family ``moments`` (see ``discrete_moment_lanes``),
    giving a list of floats from one lockstep scan in which every lane
    scans its own domain.  A sequence is scanned on each lane's grid alone;
    ``refine`` applies to a single weight.  A norm is +inf when the ratio is
    still climbing at the scan cap of an unbounded domain; a capped finite
    value would understate it.
    """
    if isinstance(psi, GeneratingFunction):
        return gls_norm_scan(moments, psi, n_points=n_points, refine=refine).value
    weights = list(psi)
    domains = [intersect_domains(moments.domain, w.domain) for w in weights]
    return _lane_norms(
        moments, domains, len(weights), lambda p: np.array([w.values(row) for w, row in zip(weights, p)]), n_points
    )


def classical_grand_norm(moments: MomentFunction, q: float) -> float:
    """Classical grand Lebesgue norm sup_{0<eps<q-1} eps^(1/(q-eps)) ||f||_{q-eps}.

    Computed by substituting p = q - eps and scanning (q - p)^(1/p) ||f||_p
    over the p in (1, q) where the curve is defined; raises EmptyDomain when
    no float is left there.
    """
    if not (math.isfinite(q) and q > 1.0):
        raise EmptyDomain(f"classical grand norm needs q > 1, got {q}")
    dom = intersect_domains(moments.domain, ExponentInterval(1.0, q, lower_open=True))

    def objective(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return (q - p) ** (1.0 / p) * moments.values(p)

    return supremum_scan(objective, dom, (q,))[0].value


# ---------------------------------------------------------------------------
# conjugate transform and tail bound


def _conjugate_scans(psi: GeneratingFunction, v, refine: bool = True) -> list[ScanResult]:
    """One lockstep scan of sup_p [p v - p ln psi(p)], a lane per entry of the 1-D array ``v``."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DomainError(f"conjugate arguments must form a 1-D array, got shape {v.shape}")
    bad = v[~np.isfinite(v)]
    if bad.size:
        raise DomainError(f"conjugate argument must be finite, got {float(bad[0])}")

    def objective(p: np.ndarray, v: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return p * (v - psi.log_values(p))

    return supremum_scan(objective, psi.domain, v, refine=refine)


def young_fenchel_scan(psi: GeneratingFunction, v: float, refine: bool = True) -> ScanResult:
    """Scan detail behind young_fenchel: sup_p [p v - p ln psi(p)]."""
    return _conjugate_scans(psi, [v], refine)[0]


def young_fenchel(psi: GeneratingFunction, v):
    """Young-Fenchel transform of h(p) = p ln psi(p), evaluated at v.

    ``v`` is a float, giving a float, or a 1-D array, giving an array with
    one lockstep scan for all its entries.  An entry is +inf (flagged
    unbounded in the scan variant) when the objective keeps growing at the
    cap of an unbounded domain.
    """
    if np.ndim(v) == 0:
        return young_fenchel_scan(psi, v).value
    return np.array([scan.value for scan in _conjugate_scans(psi, v)])


def exponential_tail_bound(psi: GeneratingFunction, t):
    """Tail bound exp(-h*(ln t)) for a variable of unit norm under psi.

    ``t`` is a float, giving a float, or a 1-D array, giving an array from
    one conjugate scan.  Valid for t >= e only; a smaller threshold anywhere
    is a hard error.  Callers must rescale their variable to unit norm
    first -- the bound is not homogeneous.  Equals inf_p (psi(p)/t)^p, hence
    always in [0, 1] after clamping.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise DomainError(f"tail thresholds must form a 1-D array, got shape {ts.shape}")
    bad = ts[~(np.isfinite(ts) & (ts >= math.e))]
    if bad.size:
        raise DomainError(f"the conjugate tail bound needs t >= e, got {float(bad[0])}")
    # math.log and math.exp per entry keep every value equal to the scalar formula's
    h_star = young_fenchel(psi, np.array([math.log(x) for x in ts]))
    bounds = np.array([min(1.0, math.exp(-h)) for h in h_star])
    return float(bounds[0]) if np.ndim(t) == 0 else bounds
