"""Lockstep supremum scans: every lane equals a scan of its own, bit for bit."""

import math

import numpy as np
import pytest

from glsreg.errors import DomainError, LengthMismatch
from glsreg.generating import (
    EDGE_INSET,
    GRID_POINTS,
    UPPER_CAP,
    ExponentInterval,
    Extremal,
    PowerRoot,
    Tabulated,
    TwoSidedSingular,
    natural_function,
)
from glsreg.moments import discrete_moments, exponential_tail_bound, std_exponential_moments, young_fenchel
from glsreg.scan import _golden_section_max, supremum_scan

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# the one-objective scan, one scalar golden-section step at a time: the reference


def scan_grid(domain, n_points=GRID_POINTS):
    """The grid of one domain on its own: the reference for each row of scan_grid_table."""
    lo, hi = domain.lower, min(domain.upper, UPPER_CAP)
    if hi <= lo:  # the domain starts at or past the cap: its (inset) lower end alone
        grid = np.asarray([lo * (1 + EDGE_INSET) if domain.lower_open else lo])
    else:
        lo_eff = lo * (1.0 + EDGE_INSET) if domain.lower_open else lo
        pts = np.geomspace(lo_eff, hi * (1.0 - EDGE_INSET), n_points)
        adjacent = [lo * (1.0 + 1e-12) if domain.lower_open else lo, hi * (1.0 - 1e-12)]
        grid = np.unique(np.concatenate([pts, adjacent]))
    grid = grid[domain.contains_array(grid)]
    if not grid.size:  # the insets left nothing: the domain's smallest exponent
        grid = np.asarray([math.nextafter(lo, math.inf) if domain.lower_open else lo])
    return grid


def reference_golden_section_max(f, a, b, iters=90):
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a <= abs(b) * 1e-15 + 1e-300:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def reference_scan(objective, domain, n_points=GRID_POINTS):
    """(value, argmax, unbounded, grid objective) of sup_p objective(p)."""
    grid = scan_grid(domain, n_points)
    obj = np.asarray(objective(grid), dtype=float)
    obj = np.where(np.isnan(obj), -math.inf, obj)
    best = int(np.argmax(obj))
    best_x, best_v = float(grid[best]), float(obj[best])
    if domain.upper > UPPER_CAP and best == obj.size - 1 and obj.size >= 2:
        last, prev = obj[-1], obj[-2]
        if math.isfinite(last) and math.isfinite(prev) and last > prev + 1e-12 * max(1.0, abs(last)):
            return math.inf, math.inf, True, obj
    if grid.size >= 2 and math.isfinite(best_v):
        lo = grid[best - 1] if best > 0 else grid[0]
        hi = grid[best + 1] if best < grid.size - 1 else grid[-1]

        def scalar(x):
            v = float(objective(np.asarray([x]))[0])
            return -math.inf if math.isnan(v) else v

        x, v = reference_golden_section_max(scalar, float(lo), float(hi))
        if v > best_v:
            best_x, best_v = x, v
    return best_v, best_x, False, obj


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_same(result, reference):
    value, argmax, unbounded, obj = reference
    assert _bits(result.value) == _bits(value)
    assert _bits(result.argmax) == _bits(argmax)
    assert result.unbounded is unbounded
    assert result.objective.tobytes() == obj.tobytes()


# ---------------------------------------------------------------------------
# objectives


def conjugate_objective(psi):
    """p (v - ln psi(p)); a negative lane parameter makes the lane all NaN."""

    def objective(p, v):
        with np.errstate(invalid="ignore"):
            value = p * (v - np.log(psi.values(p)))
        return np.where(v < 0, math.nan, value)

    return objective


ATOMS, WEIGHTS = [0.3, 1.0, 2.5, 4.0], [0.4, 0.3, 0.2, 0.1]

WEIGHTS_UNDER_TEST = {
    "power-root-0.7": PowerRoot(m=0.7),
    "power-root-1": PowerRoot(m=1.0),
    "power-root-3": PowerRoot(m=3.0),
    "power-root-1.37": PowerRoot(m=1.371094),
    "two-sided": TwoSidedSingular(b=6.0, alpha=0.5, beta=1.0),
    "tabulated": Tabulated(((1.0, 1.0), (2.0, 1.5), (4.0, 3.0), (9.0, 4.0))),
    "extremal": Extremal(2.5),
    "natural-discrete": natural_function(discrete_moments(ATOMS, WEIGHTS)),
    "natural-exponential": natural_function(std_exponential_moments()),
}

# v on a linear grid and at ln t on a geometric one, plus one all-NaN lane
LANES = np.concatenate([np.linspace(0.0, 5.0, 60), np.log(np.geomspace(math.e, 50.0, 40)), [-1.0]])


@pytest.mark.parametrize("name", sorted(WEIGHTS_UNDER_TEST))
def test_every_lane_equals_its_scalar_scan(name):
    psi = WEIGHTS_UNDER_TEST[name]
    objective = conjugate_objective(psi)
    results = supremum_scan(objective, psi.domain, LANES)
    assert len(results) == LANES.size
    for c, result in zip(LANES, results):
        assert_same(result, reference_scan(lambda p: objective(p, float(c)), psi.domain))


def test_lanes_cover_unbounded_nan_and_point_domains():
    # the cases above that the lockstep bookkeeping has to keep apart
    cube = supremum_scan(conjugate_objective(PowerRoot(m=3.0)), PowerRoot(m=3.0).domain, LANES)
    assert 0 < sum(r.unbounded for r in cube) < LANES.size
    assert cube[-1].value == -math.inf and not np.isfinite(cube[-1].objective).any()
    point = supremum_scan(conjugate_objective(Extremal(2.5)), Extremal(2.5).domain, LANES)
    assert all(r.grid.size == 1 and r.argmax == 2.5 for r in point)


def test_extremal_past_the_cap_scans_one_point():
    # [2e4, nextafter(2e4)) reaches past UPPER_CAP, but one point cannot climb into the cap
    psi = Extremal(2e4)
    for result in supremum_scan(conjugate_objective(psi), psi.domain, LANES[:-1]):
        assert result.grid.tolist() == [2e4] and result.argmax == 2e4
        assert not result.unbounded and result.value == result.objective[0]


def test_nan_inside_a_bracket_reads_as_minus_inf():
    # NaN on a slab just below each lane's maximiser c, thinner than a grid step
    def objective(p, c):
        value = -((np.log(p) - np.log(c)) ** 2)
        return np.where((p > c * (1.0 - 1e-6)) & (p < c), math.nan, value)

    domain = PowerRoot(m=1.0).domain
    lanes = np.geomspace(1.5, 50.0, 7)
    for c, result in zip(lanes, supremum_scan(objective, domain, lanes)):
        assert np.isfinite(result.objective).all()
        assert_same(result, reference_scan(lambda p: objective(p, float(c)), domain))


@pytest.mark.parametrize("iters", [0, 1, 5, 40])
def test_step_cap_holds_per_lane(iters):
    # lanes whose brackets close after different numbers of steps
    def objective(p, c):
        return -((p - c) ** 2)

    a = np.array([1.0, 2.0, 3.0, 10.0])
    b = a * np.array([1.0 + 1e-14, 1.001, 2.0, 1e3])
    lanes = a * 1.3
    x, v = _golden_section_max(objective, a, b, lanes, iters=iters)
    for i, c in enumerate(lanes):
        ref = reference_golden_section_max(lambda p: float(objective(p, c)), float(a[i]), float(b[i]), iters)
        assert (_bits(x[i]), _bits(v[i])) == (_bits(ref[0]), _bits(ref[1]))


def test_no_lanes_gives_no_results():
    psi = PowerRoot(m=1.0)
    assert supremum_scan(conjugate_objective(psi), psi.domain, np.empty(0)) == []


def test_one_lane_ignoring_its_parameter():
    # a lane-free objective broadcasts against the lane column
    psi = TwoSidedSingular(b=6.0, alpha=0.5, beta=1.0)

    def objective(p, _):
        return -((np.log(p) - 0.5) ** 2) - np.log(psi.values(p))

    (result,) = supremum_scan(objective, psi.domain, (0.0,))
    assert_same(result, reference_scan(lambda p: objective(p, None), psi.domain))


@pytest.mark.parametrize("name", ["power-root-3", "natural-exponential", "two-sided"])
def test_lane_result_ignores_the_other_lanes(name):
    psi = WEIGHTS_UNDER_TEST[name]
    objective = conjugate_objective(psi)
    full = supremum_scan(objective, psi.domain, LANES)
    order = np.random.default_rng(7).permutation(LANES.size)
    for picked in (order, order[::3], order[:1]):
        for i, result in zip(picked, supremum_scan(objective, psi.domain, LANES[picked])):
            assert_same(result, (full[i].value, full[i].argmax, full[i].unbounded, full[i].objective))


class TestConjugateLanes:
    def test_float_in_float_out(self):
        psi = PowerRoot(m=1.0)
        assert type(young_fenchel(psi, 2.0)) is float
        assert type(exponential_tail_bound(psi, 5.0)) is float

    def test_array_equals_one_call_per_entry(self):
        psi = PowerRoot(m=3.0)
        vs = np.linspace(0.0, 5.0, 21)
        ts = np.geomspace(math.e, 80.0, 21)
        assert young_fenchel(psi, vs).tobytes() == np.array([young_fenchel(psi, float(v)) for v in vs]).tobytes()
        bounds = exponential_tail_bound(psi, ts)
        assert bounds.tobytes() == np.array([exponential_tail_bound(psi, float(t)) for t in ts]).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_each_v_is_checked(self, bad):
        with pytest.raises(DomainError, match="finite"):
            young_fenchel(PowerRoot(m=1.0), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("bad", [2.0, math.inf, math.nan])
    def test_each_t_is_checked(self, bad):
        with pytest.raises(DomainError, match="t >= e"):
            exponential_tail_bound(PowerRoot(m=1.0), np.array([5.0, bad]))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(DomainError):
            young_fenchel(PowerRoot(m=1.0), np.ones((2, 2)))
        with pytest.raises(DomainError):
            exponential_tail_bound(PowerRoot(m=1.0), np.full((2, 2), 5.0))


# ---------------------------------------------------------------------------
# one domain per lane


LANE_DOMAINS = [
    ExponentInterval(1.0, math.inf),  # climbs past the cap for large v
    ExponentInterval(1.0, 6.0, lower_open=True),
    ExponentInterval(2.5, 40.0),
    ExponentInterval(1.0, 1.5, lower_open=True),
    Extremal(2.5).domain,
    ExponentInterval(1.0, math.inf),
    ExponentInterval(3.0, 3.0 + 1e-9),
]
LANE_VS = np.array([40.0, 1.2, 3.0, 0.5, 2.0, -1.0, 1.0])  # -1 makes its lane all NaN


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("n_points", [5, 96, GRID_POINTS])
def test_lane_domains_equal_one_scan_per_lane(refine, n_points):
    objective = conjugate_objective(PowerRoot(m=3.0))
    results = supremum_scan(objective, LANE_DOMAINS, LANE_VS, n_points=n_points, refine=refine)
    assert len({r.grid.size for r in results}) > 2  # ragged
    for domain, v, result in zip(LANE_DOMAINS, LANE_VS, results):
        (alone,) = supremum_scan(objective, domain, [v], n_points=n_points, refine=refine)
        assert_same(result, (alone.value, alone.argmax, alone.unbounded, alone.objective))
        assert result.grid.tobytes() == scan_grid(domain, n_points).tobytes()
        if refine:
            assert_same(result, reference_scan(lambda p: objective(p, float(v)), domain, n_points))


def test_lane_domains_keep_each_lane_apart():
    objective = conjugate_objective(PowerRoot(m=3.0))
    results = supremum_scan(objective, LANE_DOMAINS, LANE_VS)
    climbing, nan_lane = results[0], results[5]
    assert climbing.unbounded and climbing.value == math.inf
    assert nan_lane.value == -math.inf and not np.isfinite(nan_lane.objective).any()
    assert results[1].grid[0] > 1.0  # the open lower end is not sampled
    assert results[4].grid.tolist() == [2.5] and results[4].argmax == 2.5
    assert not any(r.unbounded for i, r in enumerate(results) if i != 0)


def test_lane_domains_need_one_domain_per_lane():
    objective = conjugate_objective(PowerRoot(m=3.0))
    with pytest.raises(LengthMismatch):
        supremum_scan(objective, LANE_DOMAINS[:2], LANE_VS)
    assert supremum_scan(objective, [], np.empty(0)) == []
