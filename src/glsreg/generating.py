"""Generating functions: positive weights over integrability exponents.

A generating function ``psi`` assigns a weight ``psi(p) > 0`` to each
exponent ``p`` in its domain and ``+inf`` elsewhere.  It normalises the
moment curve ``p -> ||f||_p`` in the sup-norm

    ||f|| = sup_p ||f||_p / psi(p),

so evaluation is total: outside the domain the weight is infinite and the
corresponding ratio is zero (the convention ``C / inf := 0`` applies
downstream).  The standing assumption ``inf psi > 0`` holds analytically for
the closed forms, and tables reject nonpositive knot values; a wrapped
callable is taken as given.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DomainError, EmptyDomain, InvalidEpsilon

#: Scan cap standing in for an infinite upper exponent endpoint.
UPPER_CAP = 1.0e4

#: Number of geometric grid points used by scans and validation checks.
GRID_POINTS = 512

#: Relative inset used to sample next to an open endpoint.
EDGE_INSET = 1.0e-9


@dataclass(frozen=True)
class ExponentInterval:
    """Interval of integrability exponents with an always-open upper end.

    ``lower >= 1`` and ``upper`` may be ``math.inf``.  ``lower_open``
    distinguishes ``[lower, upper)`` from ``(lower, upper)``; the two-sided
    singular family needs the open variant because its weight blows up at
    the left endpoint.
    """

    lower: float
    upper: float
    lower_open: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and self.lower >= 1.0):
            raise DomainError(f"interval must start at an exponent >= 1, got {self.lower}")
        if not self.upper > self.lower:
            raise EmptyDomain(f"empty exponent interval [{self.lower}, {self.upper})")

    def contains(self, p: float) -> bool:
        if not math.isfinite(p):
            return False
        above = p > self.lower if self.lower_open else p >= self.lower
        return above and p < self.upper

    def contains_array(self, p: np.ndarray) -> np.ndarray:
        above = p > self.lower if self.lower_open else p >= self.lower
        return above & (p < self.upper) & np.isfinite(p)


@dataclass(frozen=True)
class PointDomain:
    """Degenerate exponent domain holding a single point."""

    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise DomainError(f"point domain needs a finite exponent >= 1, got {self.p}")

    def contains(self, p: float) -> bool:
        return p == self.p

    def contains_array(self, p: np.ndarray) -> np.ndarray:
        return p == self.p


Domain = Union[ExponentInterval, PointDomain]


def check_eps(eps: float, alpha: float = 1.0) -> None:
    """Raise InvalidEpsilon unless the rate split eps lies in (0, min(1, alpha))."""
    limit = min(1.0, alpha)
    if not (0.0 < eps < limit):
        raise InvalidEpsilon(f"eps must lie in (0, {limit}), got {eps}")


def intersect_domains(a: Domain, b: Domain) -> Domain:
    """Intersection of two exponent domains; raises EmptyDomain if disjoint."""
    if isinstance(a, PointDomain) and isinstance(b, PointDomain):
        if a.p == b.p:
            return a
        raise EmptyDomain(f"point domains {a.p} and {b.p} are disjoint")
    if isinstance(a, PointDomain):
        if b.contains(a.p):
            return a
        raise EmptyDomain(f"exponent {a.p} lies outside [{b.lower}, {b.upper})")
    if isinstance(b, PointDomain):
        return intersect_domains(b, a)
    lower = max(a.lower, b.lower)
    lower_open = (a.lower_open and lower == a.lower) or (b.lower_open and lower == b.lower)
    upper = min(a.upper, b.upper)
    if not upper > lower or (lower_open and upper == lower):
        raise EmptyDomain(f"intervals [{a.lower},{a.upper}) and [{b.lower},{b.upper}) are disjoint")
    return ExponentInterval(lower, upper, lower_open)


class GeneratingFunction(abc.ABC):
    """Positive exponent weight, evaluated as +inf off its domain."""

    @property
    @abc.abstractmethod
    def domain(self) -> Domain:
        ...

    @abc.abstractmethod
    def values(self, p: np.ndarray) -> np.ndarray:
        """Vectorised evaluation; entries off the domain come back +inf."""

    def value(self, p: float) -> float:
        return float(self.values(np.asarray([p], dtype=float))[0])


def evaluate(psi: GeneratingFunction, p: float) -> float:
    """Total evaluation of ``psi`` at ``p``: the weight, or +inf off-domain."""
    if not math.isfinite(p):
        return math.inf
    return psi.value(float(p))


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

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        inside = self.domain.contains_array(p)
        out = np.full(p.shape, math.inf)
        out[inside] = p[inside] ** (1.0 / self.m)
        return out


@dataclass(frozen=True)
class TwoSidedSingular(GeneratingFunction):
    """psi(p) = (p - 1)**(-alpha) * (b - p)**(-beta) on the open interval (1, b)."""

    b: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and self.b > 1.0):
            raise DomainError(f"upper endpoint must exceed 1, got {self.b}")
        if self.alpha < 0 or self.beta < 0:
            raise DomainError("singularity exponents must be nonnegative")

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(1.0, self.b, lower_open=True)

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        inside = self.domain.contains_array(p)
        out = np.full(p.shape, math.inf)
        q = p[inside]
        out[inside] = (q - 1.0) ** (-self.alpha) * (self.b - q) ** (-self.beta)
        return out


@dataclass(frozen=True)
class Extremal(GeneratingFunction):
    """psi(p) = 1 at p = r and +inf elsewhere; the norm collapses to L_r."""

    r: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 1.0):
            raise DomainError(f"extremal exponent must be finite and >= 1, got {self.r}")

    @property
    def domain(self) -> PointDomain:
        return PointDomain(self.r)

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.where(p == self.r, 1.0, math.inf)


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

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        log_p = np.log([q for q, _ in self.points])
        log_v = np.log([v for _, v in self.points])
        inside = self.domain.contains_array(p)
        out = np.full(p.shape, math.inf)
        out[inside] = np.exp(np.interp(np.log(p[inside]), log_p, log_v))
        return out


@dataclass(frozen=True)
class FromCallable(GeneratingFunction):
    """Positive vectorised callable restricted to an interval."""

    fn: Callable[[np.ndarray], np.ndarray]
    interval: ExponentInterval

    @property
    def domain(self) -> ExponentInterval:
        return self.interval

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        inside = self.interval.contains_array(p)
        out = np.full(p.shape, math.inf)
        if inside.any():
            out[inside] = self.fn(p[inside])
        return out


@dataclass(frozen=True)
class NaturalFunction(GeneratingFunction):
    """Two-piece envelope built from a moment curve.

    With ``nu(p) = ||f||_p`` finite on ``(a, b)``, monotonicity of p-norms
    caps every lower exponent by ``nu(a)``, so the natural weight is the
    constant ``nu(a)`` on [1, a] and ``nu(p)`` on (a, b).  Normalising by it
    gives the variable sup-norm exactly 1.
    """

    moments: object  # duck-typed: needs .domain and .values(ndarray)
    a: float
    nu_a: float
    upper: float

    @property
    def domain(self) -> ExponentInterval:
        return ExponentInterval(1.0, self.upper)

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.full(p.shape, math.inf)
        inside = self.domain.contains_array(p)
        low = inside & (p <= self.a)
        high = inside & (p > self.a)
        out[low] = self.nu_a
        if high.any():
            out[high] = self.moments.values(p[high])
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
    def domain(self) -> Domain:
        dom: Domain = self.factors[0].domain
        for f in self.factors[1:]:
            dom = intersect_domains(dom, f.domain)
        return dom

    def values(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.ones(p.shape)
        for f in self.factors:
            out = out * f.values(p)
        out[~self.domain.contains_array(p)] = math.inf
        return out


def scan_grid(domain: Domain, n_points: int = GRID_POINTS) -> np.ndarray:
    """Geometric evaluation grid over a domain, endpoint-adjacent samples included.

    The upper endpoint is capped at UPPER_CAP; callers that care whether the
    domain extends beyond the cap must check that themselves.
    """
    if isinstance(domain, PointDomain):
        return np.asarray([domain.p], dtype=float)
    lo, hi = domain.lower, min(domain.upper, UPPER_CAP)
    if hi <= lo:
        return np.asarray([lo if not domain.lower_open else lo * (1 + EDGE_INSET)])
    lo_eff = lo * (1.0 + EDGE_INSET) if domain.lower_open else lo
    hi_eff = hi * (1.0 - EDGE_INSET)
    pts = np.geomspace(lo_eff, hi_eff, n_points)
    adjacent = [lo * (1.0 + 1e-12) if domain.lower_open else lo, hi * (1.0 - 1e-12)]
    grid = np.unique(np.concatenate([pts, adjacent]))
    return grid[domain.contains_array(grid)]


def natural_function(moments) -> NaturalFunction:
    """Build the natural generating function of a moment curve.

    ``moments`` must expose a finite value at the lower end of its domain;
    that value extends constantly down to exponent 1.
    """
    from .errors import NoFiniteMoment

    dom = moments.domain
    if isinstance(dom, PointDomain):
        raise DomainError("a natural function needs moments on an interval, not a point")
    a = dom.lower
    probe = a * (1.0 + EDGE_INSET) if dom.lower_open else a
    nu_a = float(moments.values(np.asarray([probe]))[0])
    if not (math.isfinite(nu_a) and nu_a > 0):
        raise NoFiniteMoment(f"moment curve is not finite and positive at exponent {a}")
    return NaturalFunction(moments=moments, a=probe, nu_a=nu_a, upper=dom.upper)


def from_config(obj: dict) -> GeneratingFunction:
    """Build a generating function from its schema-validated JSON form.

    Shapes (the 'natural' form is built from a moment curve by the CLI):
      {"form": "power_root", "m": 1.0}
      {"form": "two_sided", "b": 2.0, "alpha": 1.0, "beta": 0.5}
      {"form": "extremal", "r": 3.0}
      {"form": "table", "points": [[p, value], ...]}
    """
    form = obj["form"]
    if form == "power_root":
        return PowerRoot(m=float(obj["m"]))
    if form == "two_sided":
        return TwoSidedSingular(b=float(obj["b"]), alpha=float(obj["alpha"]), beta=float(obj["beta"]))
    if form == "extremal":
        return Extremal(r=float(obj["r"]))
    return Tabulated(points=tuple((float(p), float(v)) for p, v in obj["points"]))
