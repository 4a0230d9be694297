"""Supremum scans over exponent domains.

Every sup over p in this package is computed the same way: evaluate the
objective on a geometric grid (plus endpoint-adjacent samples), then refine
the best bracket by golden-section search.  When the domain stretches past
the scan cap and the objective is still climbing at the cap, the scan
reports +inf with an ``unbounded`` flag instead of the capped value: a
finite underestimate would silently break the norm axioms.

A scan maximises a batch of objectives ``p -> f(p, c)``, one lane per lane
parameter ``c``, in lockstep: one call evaluates the whole (lanes x grid)
table, and each golden-section step evaluates every still-open lane in one
call.  Each lane does exactly the arithmetic of a scan of its own, so a
lane's result does not depend on the other lanes.  The grid is always a
table from ``scan_grid_table``: the lanes share one domain, whose one row
broadcasts over them, or each lane brings its own, and the ragged grids are
padded into one (lanes x n) table by repeating each lane's last point.  Each
lane reads only its own grid's points.  A padded point evaluates as the
point it repeats, so it never beats it in the argmax, which takes the first
maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import LengthMismatch
from .generating import GRID_POINTS, UPPER_CAP, ExponentInterval, scan_grid_table

__all__ = ["ScanResult", "supremum_scan"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a supremum scan."""

    value: float
    argmax: float
    unbounded: bool
    grid: np.ndarray
    objective: np.ndarray


def _finite_part(values: np.ndarray) -> np.ndarray:
    """The objective with NaN read as -inf."""
    return np.where(np.isnan(values), -math.inf, values)


def _golden_section_max(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    lanes: np.ndarray,
    iters: int = 90,
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section maximisation of objective(., lanes[i]) on [a[i], b[i]], all lanes in lockstep.

    A lane stops once its bracket is no wider than |b| 1e-15 + 1e-300, or
    after ``iters`` steps; each step evaluates the open lanes in one call.
    """
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f12 = _finite_part(objective(np.concatenate([x1, x2]), np.concatenate([lanes, lanes])))
    f1, f2 = f12[: a.size], f12[a.size :]
    best_x, best_f = np.empty(a.size), np.empty(a.size)
    open_ = np.arange(a.size)  # the lanes still searching; the arrays below hold only those

    def close(done: np.ndarray) -> None:
        first = f1[done] >= f2[done]
        best_x[open_[done]] = np.where(first, x1[done], x2[done])
        best_f[open_[done]] = np.where(first, f1[done], f2[done])

    for _ in range(iters):
        done = b - a <= np.abs(b) * 1e-15 + 1e-300
        if np.count_nonzero(done):
            close(done)
            left = ~done
            open_, a, b, x1, x2, f1, f2, lanes = (v[left] for v in (open_, a, b, x1, x2, f1, f2, lanes))
            if not open_.size:
                break
        # a rising lane moves a up to x1, keeps (x2, f2) as its new (x1, f1) and probes
        # a new x2; a falling lane moves b down to x2, keeps (x1, f1) as its new (x2, f2)
        # and probes a new x1
        rising = f1 < f2
        kept_x, kept_f = np.where(rising, x2, x1), np.where(rising, f2, f1)
        a, b = np.where(rising, x1, a), np.where(rising, b, x2)
        step = _INV_PHI * (b - a)
        x = np.where(rising, a + step, b - step)
        fx = _finite_part(objective(x, lanes))
        x1, f1 = np.where(rising, kept_x, x), np.where(rising, kept_f, fx)
        x2, f2 = np.where(rising, x, kept_x), np.where(rising, fx, kept_f)
    close(np.ones(open_.size, dtype=bool))
    return best_x, best_f


def _climbing_at_cap(obj: np.ndarray, best: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per lane: the grid maximum is the lane's last point and the objective still rises into it."""
    at_cap = (best == last) & (last >= 1)
    if not at_cap.any():
        return at_cap
    rows = np.arange(best.size)
    top, prev = obj[rows, last], obj[rows, np.maximum(last - 1, 0)]
    finite = np.isfinite(top) & np.isfinite(prev)
    with np.errstate(invalid="ignore"):
        rising = top > prev + 1e-12 * np.maximum(1.0, np.abs(top))
    return at_cap & finite & rising


def supremum_scan(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    domain: Union[ExponentInterval, Sequence[ExponentInterval]],
    lanes,
    n_points: int = GRID_POINTS,
    refine: bool = True,
) -> list[ScanResult]:
    """Maximise p -> objective(p, c) over an exponent domain, for every c in ``lanes``.

    ``domain`` is one domain for every lane, or a sequence of one domain per
    lane.  The grid is a ``scan_grid_table``.  ``objective`` must act
    elementwise under broadcasting: the grid is evaluated as
    objective(grid, c[:, None]) against a lane column, the grid being the
    table's one (n,) row for one domain and the (lanes x n) table, a row per
    lane, for per-lane domains; refinement steps pass matching (k,) arrays of
    points and lane parameters.  NaNs in the objective are treated as -inf.
    Each result keeps its lane's grid and grid objective so callers can
    re-check identities on the exact scan points.
    """
    c = np.asarray(lanes, dtype=float)
    shared = isinstance(domain, ExponentInterval)
    domains = [domain] if shared else list(domain)
    if not shared and len(domains) != c.size:
        raise LengthMismatch(f"{len(domains)} domains vs {c.size} lanes")
    if not domains:
        return []
    table, size = scan_grid_table(domains, n_points)
    grids = [row[:n] for row, n in zip(table, size)]
    if shared:  # the one row broadcasts over the lanes
        table, grids = table[0], grids * c.size
    last = np.broadcast_to(size - 1, c.shape)
    capped = np.broadcast_to([d.upper > UPPER_CAP for d in domains], c.shape)
    obj = np.empty((c.size, table.shape[-1]))
    obj[...] = _finite_part(objective(table, c[:, None]))  # a lane-free objective's row fills every lane

    rows = np.arange(c.size)
    table = np.broadcast_to(table, obj.shape)
    best = obj.argmax(axis=1)
    best_x, best_v = table[rows, best], obj[rows, best]
    unbounded = capped & _climbing_at_cap(obj, best, last)

    todo = ~unbounded & np.isfinite(best_v) & (last >= 1)  # a one-point grid has no bracket
    if refine and todo.any():
        lane = np.flatnonzero(todo)
        lo = table[lane, np.maximum(best[lane] - 1, 0)]
        hi = table[lane, np.minimum(best[lane] + 1, last[lane])]
        x, v = _golden_section_max(objective, lo, hi, c[lane])
        better = v > best_v[lane]
        best_x[lane[better]], best_v[lane[better]] = x[better], v[better]

    per_lane = zip(grids, obj, (last + 1).tolist(), unbounded.tolist(), best_v.tolist(), best_x.tolist())
    return [
        ScanResult(math.inf, math.inf, True, g, row[:n]) if flagged else ScanResult(v, x, False, g, row[:n])
        for g, row, n, flagged, v, x in per_lane
    ]
