"""Generating functions: positive weights over integrability exponents.

A generating function ``psi`` assigns a weight ``psi(p) > 0`` to each
exponent ``p`` in its domain and ``+inf`` elsewhere.  It normalises the
moment curve ``p -> ||f||_p`` in the sup-norm

    ||f|| = sup_p ||f||_p / psi(p),

so evaluation is total: outside the domain the weight is infinite and the
corresponding ratio is zero (the convention ``C / inf := 0`` applies
downstream).  A weight gives only its domain and its formula ``on_domain``,
and may give ``log_on_domain`` in closed form where the weight itself leaves
the float range; ``GeneratingFunction.values`` and ``log_values`` alone mask
the domain and fill +inf.  A moment curve (``moments.MomentFunction``) is a
weight too.  The standing assumption ``inf psi > 0`` holds analytically for
the closed forms, and tables reject nonpositive knot values; a moment curve
is taken as given.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, EmptyDomain, InvalidEpsilon

__all__ = [
    "UPPER_CAP",
    "GRID_POINTS",
    "EDGE_INSET",
    "ExponentInterval",
    "check_eps",
    "intersect_domains",
    "GeneratingFunction",
    "PowerRoot",
    "TwoSidedSingular",
    "Extremal",
    "Tabulated",
    "NaturalFunction",
    "Product",
    "scan_grid_table",
    "natural_function",
]

#: Scan cap standing in for an infinite upper exponent endpoint.
UPPER_CAP = 1.0e4

#: Number of geometric grid points used by scans and validation checks.
GRID_POINTS = 512

#: Relative inset used to sample next to an open endpoint.
EDGE_INSET = 1.0e-9


@dataclass(frozen=True)
class ExponentInterval:
    """Interval of integrability exponents with an always-open upper end.

    This is the one exponent domain.  ``lower >= 1`` and ``upper`` may be
    ``math.inf``.  ``lower_open`` distinguishes ``[lower, upper)`` from
    ``(lower, upper)``; the two-sided singular family needs the open variant
    because its weight blows up at the left endpoint.  A single exponent r
    is ``[r, nextafter(r))``.  An interval must hold at least one float.
    """

    lower: float
    upper: float
    lower_open: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and self.lower >= 1.0):
            raise DomainError(f"interval must start at an exponent >= 1, got {self.lower}")
        smallest = math.nextafter(self.lower, math.inf) if self.lower_open else self.lower
        if not self.upper > smallest:
            raise EmptyDomain(f"empty exponent interval {self}")

    def __str__(self) -> str:
        return f"{'(' if self.lower_open else '['}{self.lower}, {self.upper})"

    def contains_array(self, p: np.ndarray) -> np.ndarray:
        above = p > self.lower if self.lower_open else p >= self.lower
        return above & (p < self.upper) & np.isfinite(p)


def check_eps(eps: float, alpha: float = 1.0) -> None:
    """Raise InvalidEpsilon unless the rate split eps lies in (0, min(1, alpha))."""
    limit = min(1.0, alpha)
    if not (0.0 < eps < limit):
        raise InvalidEpsilon(f"eps must lie in (0, {limit}), got {eps}")


def intersect_domains(a: ExponentInterval, b: ExponentInterval) -> ExponentInterval:
    """Intersection of two exponent domains; raises EmptyDomain if disjoint."""
    lower = max(a.lower, b.lower)
    lower_open = (a.lower_open and lower == a.lower) or (b.lower_open and lower == b.lower)
    try:
        return ExponentInterval(lower, min(a.upper, b.upper), lower_open)
    except EmptyDomain:
        raise EmptyDomain(f"intervals {a} and {b} are disjoint") from None


class GeneratingFunction(abc.ABC):
    """Positive exponent weight, evaluated as +inf off its domain.

    A subclass gives its domain and its formula ``on_domain``; ``values`` and
    ``log_values`` mask the domain, through one private path, and fill +inf
    everywhere else.
    """

    @property
    @abc.abstractmethod
    def domain(self) -> ExponentInterval:
        ...

    @abc.abstractmethod
    def on_domain(self, q: np.ndarray) -> np.ndarray:
        """The weight at exponents that all lie in the domain."""

    def log_on_domain(self, q: np.ndarray) -> np.ndarray:
        """ln of the weight at exponents that all lie in the domain; a weight that underflows reads -inf."""
        with np.errstate(divide="ignore"):
            return np.log(self.on_domain(q))

    def values(self, p: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; entries off the domain come back +inf."""
        return self._masked(p, self.on_domain)

    def log_values(self, p: np.ndarray) -> np.ndarray:
        """Vectorised ln psi(p); entries off the domain come back +inf."""
        return self._masked(p, self.log_on_domain)

    def _masked(self, p: np.ndarray, formula) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.full(p.shape, math.inf)
        inside = self.domain.contains_array(p)
        if inside.any():
            out[inside] = formula(p[inside])
        return out

    def value(self, p: float) -> float:
        return float(self.values(np.asarray([p], dtype=float))[0])


@dataclass(frozen=True)
class PowerRoot(GeneratingFunction):
    """psi(p) = p**(1/m) on [1, inf)."""

    m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0):
            raise DomainError(f"power-root order must be positive, got {self.m}")

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(1.0, math.inf)

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # +inf past the float range is the weight's value
            return q ** (1.0 / self.m)


@dataclass(frozen=True)
class TwoSidedSingular(GeneratingFunction):
    """psi(p) = (p - 1)**(-alpha) * (b - p)**(-beta) on the open interval (1, b)."""

    b: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b > 1.0):
            raise DomainError(f"upper endpoint must exceed 1, got {self.b}")
        if not all(math.isfinite(e) and e >= 0 for e in (self.alpha, self.beta)):
            raise DomainError(f"singularity exponents must be finite and nonnegative, got {self.alpha}, {self.beta}")
        self.domain  # (1, b) must hold a float

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(1.0, self.b, lower_open=True)

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # +inf past the float range is the weight's value
            return (q - 1.0) ** (-self.alpha) * (self.b - q) ** (-self.beta)

    def log_on_domain(self, q: np.ndarray) -> np.ndarray:
        return -self.alpha * np.log(q - 1.0) - self.beta * np.log(self.b - q)


@dataclass(frozen=True)
class Extremal(GeneratingFunction):
    """psi(p) = 1 at p = r and +inf elsewhere; the norm collapses to L_r.

    Its domain is [r, nextafter(r)), which holds r alone.
    """

    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 1.0):
            raise DomainError(f"extremal exponent must be finite and >= 1, got {self.r}")

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(self.r, math.nextafter(self.r, math.inf))

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        return np.ones(q.shape)


@dataclass(frozen=True)
class Tabulated(GeneratingFunction):
    """Geometric interpolation through positive knots; no extrapolation.

    Interpolation is linear in (log p, log psi), which reproduces power laws
    exactly between knots.  Off the knot hull the value is +inf: extrapolating
    a user table could only overestimate the weight and silently shrink norms.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise DomainError("a table needs at least two knots")
        ps = [p for p, _ in self.points]
        vs = [v for _, v in self.points]
        if not all(math.isfinite(p) for p in ps):
            raise DomainError(f"table knots must sit at finite exponents, got {ps}")
        if ps[0] < 1.0:
            raise DomainError(f"table knots must sit at exponents >= 1, got {ps[0]}")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise DomainError("table knots must be strictly increasing in p")
        if any(not (math.isfinite(v) and v > 0) for v in vs):
            raise DomainError("table values must be finite and positive")

    @property
    def domain(self) -> ExponentInterval:
        # nextafter keeps the last knot itself inside the always-open upper end
        return ExponentInterval(self.points[0][0], np.nextafter(self.points[-1][0], math.inf))

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        log_p = np.log([k for k, _ in self.points])
        log_v = np.log([v for _, v in self.points])
        return np.exp(np.interp(np.log(q), log_p, log_v))


@dataclass(frozen=True)
class NaturalFunction(GeneratingFunction):
    """Two-piece envelope built from a moment curve.

    With ``nu(p) = ||f||_p`` finite on ``(a, b)``, monotonicity of p-norms
    caps every lower exponent by ``nu(a)``, so the natural weight is the
    constant ``nu(a)`` on [1, a] and ``nu(p)`` on (a, b).  Normalising by it
    gives the variable sup-norm exactly 1.
    """

    moments: GeneratingFunction
    a: float
    nu_a: float
    upper: float

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(1.0, self.upper)

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        out = np.full(q.shape, self.nu_a)
        high = q > self.a
        if high.any():
            out[high] = self.moments.values(q[high])
        return out


@dataclass(frozen=True)
class Product(GeneratingFunction):
    """Pointwise product of generating functions on the intersected domain."""

    factors: tuple[GeneratingFunction, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise DomainError("a product needs at least one factor")
        self.domain  # force the intersection check at construction

    @property
    def domain(self) -> ExponentInterval:
        dom = self.factors[0].domain
        for f in self.factors[1:]:
            dom = intersect_domains(dom, f.domain)
        return dom

    def on_domain(self, q: np.ndarray) -> np.ndarray:
        out = np.ones(q.shape)
        for f in self.factors:
            out = out * f.values(q)
        return out


def scan_grid_table(domains: Sequence[ExponentInterval], n_points: int = GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Geometric evaluation grids over exponent domains, a row each, and each row's length.

    Row i holds n_points geometric points over domains[i], inset from its
    ends by EDGE_INSET, plus the two endpoint-adjacent samples, strictly
    increasing and inside the domain; it then repeats its last point out to
    the table's width.  The upper end is capped at UPPER_CAP: callers that
    care whether a domain extends beyond the cap must check that themselves.
    A domain that starts at or past the cap is sampled at its (inset) lower
    end alone, and a row that the insets leave empty keeps the domain's
    smallest exponent.  All the geometric grids come from one geomspace call.
    """
    lo = np.array([d.lower for d in domains], dtype=float)
    upper = np.array([d.upper for d in domains], dtype=float)
    lower_open = np.array([d.lower_open for d in domains], dtype=bool)
    hi = np.minimum(upper, UPPER_CAP)
    lo_eff = np.where(lower_open, lo * (1.0 + EDGE_INSET), lo)
    adjacent = (np.where(lower_open, lo * (1.0 + 1e-12), lo), hi * (1.0 - 1e-12))
    points = np.geomspace(lo_eff, hi * (1.0 - EDGE_INSET), n_points, axis=1)
    grid = np.concatenate([points, *(a[:, None] for a in adjacent)], axis=1)
    grid.sort(axis=1)
    keep = np.ones(grid.shape, dtype=bool)
    keep[:, 1:] = grid[:, 1:] != grid[:, :-1]  # as np.unique
    first = np.arange(grid.shape[1]) == 0
    single = hi <= lo
    grid[single, 0] = lo_eff[single]
    keep[single] = first
    above = np.where(lower_open[:, None], grid > lo[:, None], grid >= lo[:, None])
    keep &= above & (grid < upper[:, None]) & np.isfinite(grid)
    empty = ~keep.any(axis=1)
    grid[empty, 0] = np.where(lower_open, np.nextafter(lo, math.inf), lo)[empty]
    keep[empty] = first
    size = keep.sum(axis=1)
    kept = np.take_along_axis(grid, np.argsort(~keep, axis=1, kind="stable"), axis=1)
    pad = np.minimum(np.arange(size.max(initial=0)), size[:, None] - 1)
    return np.take_along_axis(kept, pad, axis=1), size


def natural_function(moments: GeneratingFunction) -> NaturalFunction:
    """Build the natural generating function of a moment curve.

    ``moments`` must expose a finite value at the lower end of its domain;
    that value extends constantly down to exponent 1.
    """
    from .errors import NoFiniteMoment

    dom = moments.domain
    a = dom.lower
    probe = a * (1.0 + EDGE_INSET) if dom.lower_open else a
    nu_a = float(moments.value(probe))
    if not (math.isfinite(nu_a) and nu_a > 0):
        raise NoFiniteMoment(f"moment curve is not finite and positive at exponent {a}")
    return NaturalFunction(moments=moments, a=probe, nu_a=nu_a, upper=dom.upper)
