"""Generating-function domains, values, and constructors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from glsreg.cli import _psi_from_config
from glsreg.errors import DomainError, EmptyDomain, NoFiniteMoment
from glsreg.generating import (
    EDGE_INSET,
    GRID_POINTS,
    UPPER_CAP,
    ExponentInterval,
    Extremal,
    PowerRoot,
    Product,
    Tabulated,
    TwoSidedSingular,
    intersect_domains,
    natural_function,
    scan_grid_table,
)
from glsreg.moments import MomentFunction, constant_moments, std_exponential_moments, table_moments
from test_scan import scan_grid


class TestExponentInterval:
    def test_contains_respects_open_sides(self):
        iv = ExponentInterval(1.0, 4.0, lower_open=True)
        np.testing.assert_array_equal(iv.contains_array(np.asarray([1.0, 2.0, 4.0])), [False, True, False])

    def test_closed_lower_contains_endpoint(self):
        iv = ExponentInterval(1.0, math.inf)
        np.testing.assert_array_equal(iv.contains_array(np.asarray([1.0, 1e6, math.inf])), [True, True, False])

    def test_lower_below_one_rejected(self):
        with pytest.raises(DomainError):
            ExponentInterval(0.5, 4.0)

    def test_empty_interval_rejected(self):
        with pytest.raises(DomainError):
            ExponentInterval(3.0, 3.0)

    def test_open_interval_is_named_with_a_round_bracket(self):
        with pytest.raises(EmptyDomain) as caught:
            ExponentInterval(1.0, math.nextafter(1.0, math.inf), lower_open=True)
        assert str(caught.value) == "empty exponent interval (1.0, 1.0000000000000002)"
        assert str(ExponentInterval(1.0, 4.0)) == "[1.0, 4.0)"


class TestIntersect:
    def test_interval_overlap(self):
        out = intersect_domains(ExponentInterval(1.0, 5.0), ExponentInterval(2.0, 9.0, lower_open=True))
        assert out.lower == 2.0 and out.upper == 5.0 and out.lower_open

    def test_disjoint_raises(self):
        with pytest.raises(EmptyDomain):
            intersect_domains(ExponentInterval(1.0, 2.0), ExponentInterval(3.0, 4.0))

    def test_point_inside_interval(self):
        point = Extremal(2.0).domain
        assert intersect_domains(point, ExponentInterval(1.0, 5.0)) == point
        assert intersect_domains(ExponentInterval(1.0, 5.0), point) == point

    def test_point_outside_interval_raises(self):
        with pytest.raises(EmptyDomain, match="disjoint"):
            intersect_domains(Extremal(9.0).domain, ExponentInterval(1.0, 5.0))

    def test_point_at_an_open_lower_end_raises(self):
        with pytest.raises(EmptyDomain) as caught:
            intersect_domains(Extremal(2.0).domain, ExponentInterval(2.0, 5.0, lower_open=True))
        assert str(caught.value) == "intervals [2.0, 2.0000000000000004) and (2.0, 5.0) are disjoint"


class TestPowerRoot:
    def test_values(self):
        psi = PowerRoot(m=2.0)
        assert psi.value(4.0) == 2.0
        assert psi.value(1.0) == 1.0

    def test_identity_weight(self):
        assert PowerRoot(m=1.0).value(3.0) == 3.0

    def test_nonpositive_m_rejected(self):
        with pytest.raises(DomainError):
            PowerRoot(m=0.0)

    @given(st.floats(min_value=0.2, max_value=8.0), st.floats(min_value=1.0, max_value=50.0))
    def test_always_at_least_one(self, m, p):
        assert PowerRoot(m=m).value(p) >= 1.0


class TestTwoSidedSingular:
    def test_blows_up_at_both_ends(self):
        psi = TwoSidedSingular(b=4.0, alpha=0.5, beta=1.0)
        mid = psi.value(2.0)
        assert mid == pytest.approx((2.0 - 1.0) ** -0.5 * (4.0 - 2.0) ** -1.0)
        assert psi.value(1.0 + 1e-12) > mid
        assert psi.value(4.0 - 1e-12) > mid

    def test_domain_is_open(self):
        psi = TwoSidedSingular(b=4.0, alpha=0.5, beta=1.0)
        assert not psi.domain.contains_array(np.asarray([1.0, 4.0])).any()
        assert psi.value(1.0) == math.inf

    def test_needs_b_above_one(self):
        with pytest.raises(DomainError):
            TwoSidedSingular(b=1.0, alpha=0.5, beta=0.5)

    def test_negative_exponents_rejected(self):
        with pytest.raises(DomainError):
            TwoSidedSingular(b=4.0, alpha=-0.1, beta=0.5)

    @pytest.mark.parametrize("alpha, beta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.5), (0.5, math.inf)])
    def test_non_finite_exponents_rejected(self, alpha, beta):
        # alpha nan built, and its weight read nan, 1.0 and nan at p = 1.5, 2 and 2.5
        with pytest.raises(DomainError):
            TwoSidedSingular(b=3.0, alpha=alpha, beta=beta)


class TestExtremal:
    def test_point_domain(self):
        psi = Extremal(r=3.0)
        assert psi.domain == ExponentInterval(3.0, math.nextafter(3.0, math.inf))
        assert psi.value(3.0) == 1.0
        assert psi.value(2.0) == math.inf

    def test_r_below_one_rejected(self):
        with pytest.raises(DomainError):
            Extremal(r=0.5)


class TestTabulated:
    def test_interpolates_geometrically(self):
        psi = Tabulated(points=((1.0, 1.0), (4.0, 4.0)))
        # log-log straight line through (1,1),(4,4) is the identity
        assert psi.value(2.0) == pytest.approx(2.0, rel=1e-12)

    def test_constant_table(self):
        psi = Tabulated(points=((1.0, 3.0), (100.0, 3.0)))
        assert psi.value(7.0) == pytest.approx(3.0)

    def test_outside_hull_is_infinite(self):
        psi = Tabulated(points=((2.0, 1.0), (3.0, 1.0)))
        assert psi.value(1.5) == math.inf
        assert psi.value(3.5) == math.inf

    def test_needs_two_increasing_knots(self):
        with pytest.raises(DomainError):
            Tabulated(points=((1.0, 1.0),))
        with pytest.raises(DomainError):
            Tabulated(points=((2.0, 1.0), (2.0, 2.0)))
        # a knot below 1 or off the finite exponents: a NaN knot read NaN at every p, and an
        # infinite last knot stretched the table's domain to [1, inf) with a flat tail
        below_one = ((0.5, 1.0), (2.0, 2.0))
        for points in (below_one, ((1.0, 1.0), (math.nan, 2.0), (3.0, 3.0)), ((1.0, 1.0), (2.0, 2.0), (math.inf, 3.0))):
            with pytest.raises(DomainError, match="table knots must sit at"):
                Tabulated(points=points)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            Tabulated(points=((1.0, 1.0), (2.0, 0.0)))


class TestMomentFunction:
    def test_wraps_callable(self):
        psi = MomentFunction(ExponentInterval(1.0, 10.0), lambda p: p + 1.0)
        assert psi.value(3.0) == 4.0


class TestProduct:
    def test_multiplies_values_and_intersects_domains(self):
        prod = Product((PowerRoot(m=1.0), TwoSidedSingular(b=3.0, alpha=1.0, beta=0.0)))
        assert prod.value(2.0) == pytest.approx(2.0)
        assert prod.domain.lower == 1.0 and prod.domain.lower_open and prod.domain.upper == 3.0

    def test_disjoint_factors_raise(self):
        with pytest.raises(EmptyDomain):
            Product((Tabulated(points=((1.0, 1.0), (2.0, 1.0))), Extremal(r=4.0)))


def grid_row(domain, n_points):
    table, size = scan_grid_table([domain], n_points)
    return table[0, : size[0]]


# interval ends: small exponents, widths of a few ulps, and lower ends around the scan cap
LOWER_ENDS = st.one_of(
    st.floats(1.0, 50.0),
    st.floats(0.5 * UPPER_CAP, 2.0 * UPPER_CAP),
    st.sampled_from([1.0, UPPER_CAP, math.nextafter(UPPER_CAP, 0.0), math.nextafter(UPPER_CAP, math.inf)]),
)


@st.composite
def interval_ends(draw):
    lower = draw(LOWER_ENDS)
    upper = draw(
        st.one_of(
            st.integers(0, 4).map(lambda ulps: lower + ulps * math.ulp(lower)),
            st.floats(1e-12, 1e-6).map(lambda width: lower * (1.0 + width)),
            st.floats(1.0, 1e3).map(lambda width: lower + width),
            st.just(math.inf),
        )
    )
    return lower, upper, draw(st.booleans())


class TestScanGrid:
    def test_includes_closed_endpoints_exactly(self):
        grid = grid_row(ExponentInterval(1.0, 8.0), 64)
        assert grid[0] == 1.0
        assert grid.max() < 8.0

    def test_insets_open_lower(self):
        grid = grid_row(ExponentInterval(2.0, 8.0, lower_open=True), 64)
        # first point is the endpoint-adjacent sample, strictly inside
        assert 2.0 < grid[0] <= 2.0 * (1.0 + EDGE_INSET)

    def test_caps_infinite_upper(self):
        grid = grid_row(ExponentInterval(1.0, math.inf), 64)
        assert grid.max() <= UPPER_CAP

    def test_point_domain(self):
        np.testing.assert_array_equal(grid_row(Extremal(3.0).domain, GRID_POINTS), [3.0])

    def test_strictly_increasing(self):
        grid = grid_row(ExponentInterval(1.0, 50.0, lower_open=True), 128)
        assert np.all(np.diff(grid) > 0)

    @given(interval_ends(), st.sampled_from([1, 2, 5, 96]))
    def test_empty_exactly_when_no_float_inside(self, ends, n_points):
        lower, upper, lower_open = ends
        smallest = math.nextafter(lower, math.inf) if lower_open else lower
        if not upper > smallest:
            with pytest.raises(EmptyDomain):
                ExponentInterval(lower, upper, lower_open)
            return
        domain = ExponentInterval(lower, upper, lower_open)
        grid = grid_row(domain, n_points)
        assert grid.size >= 1
        assert np.all(np.diff(grid) > 0)
        assert domain.contains_array(grid).all()

    def test_rows_left_empty_keep_the_smallest_exponent(self):
        # the insets step past an upper end a few ulps above the lower one
        for lower in (1.0, 3.0, 2.0 * UPPER_CAP):
            domain = ExponentInterval(lower, lower + 3 * math.ulp(lower), lower_open=True)
            np.testing.assert_array_equal(grid_row(domain, GRID_POINTS), [math.nextafter(lower, math.inf)])

    @pytest.mark.parametrize("n_points", [1, 2, 3, 96, 512])
    def test_table_rows_are_the_grids_padded_by_their_last_point(self, n_points):
        rng = np.random.default_rng(5)
        domains = [Extremal(2.5).domain, ExponentInterval(1.0, math.inf)]
        domains.append(ExponentInterval(UPPER_CAP, math.inf, lower_open=True))
        for _ in range(400):
            lower = float(rng.choice([1.0, rng.uniform(1.0, 50.0), rng.uniform(0.9 * UPPER_CAP, 2.0 * UPPER_CAP)]))
            upper = float(rng.choice([math.inf, lower + rng.uniform(1e-6, 100.0), 2.0 * lower]))
            domains.append(ExponentInterval(lower, upper, lower_open=bool(rng.integers(0, 2))))
        table, size = scan_grid_table(domains, n_points)
        assert table.shape == (len(domains), size.max())
        for domain, row, n in zip(domains, table, size):
            grid = scan_grid(domain, n_points)
            assert row[:n].tobytes() == grid.tobytes()
            assert np.all(row[n:] == grid[-1])


class TestNaturalFunction:
    def test_follows_the_moment_curve(self):
        m = std_exponential_moments()
        theta = natural_function(m)
        ps = np.asarray([1.0, 2.0, 5.0, 20.0])
        np.testing.assert_allclose(theta.values(ps), m.values(ps), rtol=0)

    def test_constant_below_anchor(self):
        m = constant_moments(2.5)
        theta = natural_function(m)
        assert theta.value(1.0) == 2.5

    def test_rejects_vanishing_moment(self):
        with pytest.raises(NoFiniteMoment):
            natural_function(constant_moments(0.0))


class TestFromConfig:
    """The CLI's reader of a config's psi block."""

    def test_power_root(self):
        psi = _psi_from_config({"psi": {"form": "power_root", "m": 2.0}})
        assert psi.value(16.0) == 4.0

    def test_two_sided(self):
        psi = _psi_from_config({"psi": {"form": "two_sided", "b": 4.0, "alpha": 0.5, "beta": 1.0}})
        assert psi.value(2.0) == pytest.approx(0.5)

    def test_extremal(self):
        assert _psi_from_config({"psi": {"form": "extremal", "r": 2.0}}).value(2.0) == 1.0

    def test_table(self):
        psi = _psi_from_config({"psi": {"form": "table", "points": [[1.0, 1.0], [4.0, 4.0]]}})
        assert psi.value(4.0) == 4.0


# one instance of each concrete weight: (weight, a point just outside its domain, a point inside)
WEIGHTS = {
    "PowerRoot": (PowerRoot(m=2.0), np.nextafter(1.0, 0.0), 2.0),
    "TwoSidedSingular": (TwoSidedSingular(b=4.0, alpha=0.5, beta=1.0), 1.0, 2.0),
    "Extremal": (Extremal(r=3.0), np.nextafter(3.0, math.inf), 3.0),
    "Tabulated": (Tabulated(points=((2.0, 1.0), (3.0, 2.0))), np.nextafter(2.0, 0.0), 2.5),
    "NaturalFunction": (natural_function(table_moments([1.0, 4.0], [1.0, 2.0])), np.nextafter(4.0, math.inf), 2.0),
    "Product": (Product((PowerRoot(m=1.0), TwoSidedSingular(b=3.0, alpha=1.0, beta=0.0))), 3.0, 2.0),
    "MomentFunction": (MomentFunction(ExponentInterval(1.0, 10.0), lambda p: p + 1.0), 10.0, 3.0),
}


class TestTotality:
    def test_weight_past_the_float_range_is_inf_without_a_warning(self):
        # p**(1/0.0072) passes the float range from p = 166, and (p - 1)**-80 next to p = 1
        p = np.asarray([1.0 + 1e-12, 2.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power = PowerRoot(m=0.0072).values(p)
            singular = TwoSidedSingular(b=2e4, alpha=80.0, beta=0.5).values(p)
        assert np.isfinite(power[:2]).all() and power[2] == math.inf
        assert singular[0] == math.inf and np.isfinite(singular[1:]).all()

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_infinite_off_domain(self, name):
        psi, outside, _ = WEIGHTS[name]
        ps = [math.nan, math.inf, -math.inf, 0.5, outside]
        assert not psi.domain.contains_array(np.asarray(ps)).any()
        np.testing.assert_array_equal(psi.values(np.asarray(ps)), math.inf)
        assert all(psi.value(p) == math.inf for p in ps)

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_value_is_values_entry(self, name):
        psi, _, inside = WEIGHTS[name]
        assert psi.value(inside) == psi.values(np.asarray([inside]))[0]
        assert math.isfinite(psi.value(inside)) and psi.value(inside) > 0
