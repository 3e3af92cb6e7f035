import functools
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from tselliptic.nonlinearity import nemytskii, parse
from tselliptic.operator import assemble, tridiag_solve
from tselliptic.solver import spectral_inverse
from tselliptic.spectral import spectrum_1d
from tselliptic.timescale import (
    DomainError,
    EmptyInteriorError,
    Grid,
    GridFunction,
    MeshParams,
    ProductGridFunction,
    Segment,
    TimeScale,
    delta_derivative,
    delta_integral,
    discretize,
    nabla_derivative,
    nabla_integral,
    product_delta_inner,
)

from conftest import random_dirichlet, random_grid, random_timescale


DISCRETE = TimeScale.parse("0,1,2,3")
HYBRID = TimeScale.parse("[0,1],2,3")


def oracle_member(ts, t):
    return any(s.lo <= t <= s.hi for s in ts.segments)


def oracle_sigma(ts, t):
    """inf{s in T : s > t}, and b at b."""
    if any(s.lo <= t < s.hi for s in ts.segments):
        return t
    return min((s.lo for s in ts.segments if s.lo > t), default=ts.b)


def oracle_rho(ts, t):
    """sup{s in T : s < t}, and a at a."""
    if any(s.lo < t <= s.hi for s in ts.segments):
        return t
    return max((s.hi for s in ts.segments if s.hi < t), default=ts.a)


class TestJumpOperators:
    def test_unit_gap_discrete(self):
        assert DISCRETE.sigma(1) == 2
        assert DISCRETE.mu(1) == 1

    def test_hybrid_left_dense_right_scattered(self):
        assert HYBRID.sigma(1) == 2
        assert HYBRID.mu(1) == 1
        assert HYBRID.nu(1) == 0

    def test_gaps_5_7_10(self):
        ts = TimeScale.parse("5,7,10")
        assert ts.mu(7) == 3
        assert ts.nu(7) == 2

    def test_endpoints_fixed(self):
        assert DISCRETE.sigma(3) == 3
        assert DISCRETE.rho(0) == 0

    def test_interval_interior_dense(self):
        assert HYBRID.sigma(0.5) == 0.5
        assert HYBRID.rho(0.5) == 0.5

    def test_not_member_raises(self):
        with pytest.raises(DomainError):
            DISCRETE.sigma(1.5)

    def test_sigma_rho_inverse_on_scattered_interior(self):
        for t in (0, 1, 2):
            assert DISCRETE.rho(DISCRETE.sigma(t)) == t

    def test_jump_operators_monotone(self):
        pts = [0.0, 0.3, 0.7, 1.0, 2.0, 3.0]
        sig = [HYBRID.sigma(t) for t in pts]
        rho = [HYBRID.rho(t) for t in pts]
        assert sig == sorted(sig)
        assert rho == sorted(rho)

    def test_random_scales_match_definitions(self, rng):
        # 0,[1,2],3 has a point followed by an interval: rho(1) = 0, sigma(1) = 1
        scales = [TimeScale.parse("0,[1,2],3")] + [random_timescale(rng) for _ in range(200)]
        for ts in scales:
            ends = [e for s in ts.segments for e in (s.lo, s.hi)]
            grid = discretize(ts, MeshParams(h=0.37)).points.tolist()
            near = [np.nextafter(e, side) for e in ends for side in (-np.inf, np.inf)]
            others = rng.uniform(ts.a - 1.0, ts.b + 1.0, 20).tolist()
            for t in ends + grid + near + others:
                member = oracle_member(ts, t)
                assert (t in ts) == member
                if member:
                    assert ts.sigma(t) == oracle_sigma(ts, t)
                    assert ts.rho(t) == oracle_rho(ts, t)
                else:
                    with pytest.raises(DomainError):
                        ts.sigma(t)
                    with pytest.raises(DomainError):
                        ts.rho(t)


class TestLiteralParsing:
    def test_roundtrip(self):
        for text in ("0,1,2,3", "[0,1],2,3", "[0,3]", "5,7,10", "[-1,0],[1,2],3",
                     "[1e307,1e308],1.7e308", "[0,1e-300],0.1"):
            ts = TimeScale.parse(text)
            assert TimeScale.parse(str(ts)) == ts

    def test_integral_ends_from_1e15_print_as_floats(self):
        ts = TimeScale.parse("123456789012345,1e15,1e16,[1e300,1e301]")
        assert str(ts) == "123456789012345,1000000000000000.0,1e+16,[1e+300,1e+301]"

    def test_length_beyond_the_doubles_refused(self):
        with pytest.raises(ValueError, match="longer than the largest double") as err:
            TimeScale.parse("[-1e308,1e308]")
        assert len(str(err.value)) < 80

    def test_whitespace_insignificant(self):
        assert TimeScale.parse(" [0, 1] ,2, 3 ") == HYBRID

    def test_bad_literals(self):
        for text in ("", "[0,1", "[1,0]", "0,0", "[0,1],[1,2]", "a,b"):
            with pytest.raises(ValueError):
                TimeScale.parse(text)
        # every segment is nonempty: a leading, doubled or trailing comma
        for text in (",1,2", "1,,2", "[0,1],", "1,2,", "[0,1],2, "):
            with pytest.raises(ValueError, match="bad number ''"):
                TimeScale.parse(text)


class TestDiscretize:
    def test_discrete_passthrough(self):
        g = discretize(DISCRETE, MeshParams(h=0.1))
        assert np.array_equal(g.points, [0, 1, 2, 3])

    def test_hybrid_quarter_step(self):
        g = discretize(HYBRID, MeshParams(h=0.25))
        assert np.array_equal(g.points, [0, 0.25, 0.5, 0.75, 1, 2, 3])

    def test_point_count_fine(self):
        g = discretize(TimeScale.parse("[0,3]"), MeshParams(h=1e-3))
        assert len(g.points) == 3001

    def test_per_interval_counts(self):
        g = discretize(TimeScale.parse("[0,1],[2,3]"), MeshParams(counts=(3, 5)))
        assert len(g.points) == 8

    def test_deterministic(self):
        g1 = discretize(HYBRID, MeshParams(h=0.1))
        g2 = discretize(HYBRID, MeshParams(h=0.1))
        assert np.array_equal(g1.points, g2.points)

    def test_endpoints_exact(self):
        g = discretize(TimeScale.parse("[0.1,0.7],2"), MeshParams(h=0.07))
        assert 0.1 in g.points and 0.7 in g.points and 2.0 in g.points

    def test_empty_interior_rejected(self):
        # two isolated points, or one interval meshed as its two ends
        for text, mesh in (
            ("0,1", None),
            ("[0,1]", MeshParams(h=2)),
            ("[0,1]", MeshParams(counts=(2,))),
        ):
            with pytest.raises(EmptyInteriorError):
                discretize(TimeScale.parse(text), mesh)

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            MeshParams(h=-1.0)
        with pytest.raises(ValueError):
            MeshParams(counts=(1,))
        with pytest.raises(ValueError):
            MeshParams(h=0.1, counts=(3,))


class TestIntegrals:
    def test_constant_measures_interval(self):
        g = discretize(TimeScale.parse("[0,3]"), MeshParams(h=0.1))
        one = GridFunction(g, np.ones(len(g.points)))
        assert delta_integral(one) == pytest.approx(3.0, abs=1e-14)
        assert nabla_integral(one) == pytest.approx(3.0, abs=1e-14)

    def test_unit_weights(self):
        g = discretize(DISCRETE)
        u = GridFunction(g, [0.0, 5.0, 7.0, 123.0])  # value at b unused
        assert delta_integral(u) == 12.0

    def test_identity_function(self):
        g = discretize(DISCRETE)
        u = GridFunction.from_callable(g, lambda t: t)
        assert delta_integral(u) == 3.0


class TestGridWeights:
    def test_hybrid_junction(self):
        # dense cells split in half, the scattered gaps go to their left
        # point, so t = 1 keeps half of the last dense cell
        g = discretize(HYBRID, MeshParams(h=0.5))
        assert np.array_equal(g.weights, [0.25, 0.5, 1.25, 1.0, 0.0])

    def test_scattered_to_dense_junction(self):
        g = discretize(TimeScale.parse("0,[1,2],3"), MeshParams(h=0.5))
        assert np.array_equal(g.weights, [1.0, 0.25, 0.5, 1.25, 0.0])

    def test_discrete_weights_are_mu(self, rng):
        for _ in range(20):
            g = random_grid(rng, discrete_only=True)
            assert np.array_equal(g.weights[:-1], g.mu)
            assert g.weights[-1] == 0.0

    def test_total_mass(self, rng):
        for _ in range(20):
            g = random_grid(rng)
            assert g.weights.sum() == pytest.approx(g.b - g.a, rel=1e-13)
            assert (g.weights[1:-1] > 0).all()


class TestDerivatives:
    def test_identity_slope_one(self):
        for g in (discretize(DISCRETE), discretize(HYBRID, MeshParams(h=0.2))):
            u = GridFunction.from_callable(g, lambda t: t)
            d = delta_derivative(u)
            assert np.allclose(d.values[:-1], 1.0)
            assert math.isnan(d.values[-1])

    def test_square_forward_difference(self):
        g = discretize(DISCRETE)
        u = GridFunction.from_callable(g, lambda t: t * t)
        assert np.array_equal(delta_derivative(u).values[:-1], [1, 3, 5])

    def test_nabla_marker_at_start(self):
        g = discretize(DISCRETE)
        u = GridFunction.from_callable(g, lambda t: t * t)
        d = nabla_derivative(u)
        assert math.isnan(d.values[0])
        assert np.array_equal(d.values[1:], [1, 3, 5])

    def test_nabla_is_shifted_delta(self, rng):
        # f^nabla(t_i) = f^delta(rho(t_i)) holds exactly on every grid
        for _ in range(20):
            g = random_grid(rng)
            u = GridFunction(g, rng.standard_normal(len(g.points)))
            dd = delta_derivative(u).values
            dn = nabla_derivative(u).values
            assert np.array_equal(dn[1:], dd[:-1])


class TestSummationByParts:
    def test_via_public_api(self):
        # the NaN markers at the undefined ends never reach the integrals
        g = discretize(HYBRID, MeshParams(h=0.25))
        f = GridFunction.from_callable(g, lambda t: t * t - 1.0)
        h = GridFunction.from_callable(g, lambda t: math.sin(t))
        fd = delta_derivative(f)
        hn = nabla_derivative(h)
        lhs = delta_integral(GridFunction(g, fd.values * h.values))
        boundary = f.values[-1] * h.values[-1] - f.values[0] * h.values[0]
        rhs = boundary - nabla_integral(GridFunction(g, f.values * hn.values))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(boundary)))

    def test_both_identities_random_grids(self, rng):
        for _ in range(100):
            g = random_grid(rng)
            f = GridFunction(g, rng.standard_normal(len(g.points)))
            h = GridFunction(g, rng.standard_normal(len(g.points)))
            fg = f.values * h.values
            boundary = fg[-1] - fg[0]
            scale = 1.0 + abs(boundary)
            # int f^delta g dDelta = fg| - int f g^nabla dNabla
            lhs = float(np.dot(np.diff(f.values) / g.mu * h.values[:-1], g.mu))
            rhs = boundary - float(
                np.dot(f.values[1:] * (np.diff(h.values) / g.mu), g.mu)
            )
            assert abs(lhs - rhs) <= 1e-12 * scale
            # int f^nabla g dNabla = fg| - int f g^delta dDelta
            lhs2 = float(np.dot((np.diff(f.values) / g.mu) * h.values[1:], g.mu))
            rhs2 = boundary - float(
                np.dot(f.values[:-1] * (np.diff(h.values) / g.mu), g.mu)
            )
            assert abs(lhs2 - rhs2) <= 1e-12 * scale


class TestValidation:
    def test_segments_must_be_separated(self):
        with pytest.raises(ValueError):
            TimeScale((Segment(0, 1), Segment(1, 2)))
        with pytest.raises(ValueError):
            TimeScale((Segment(1, 1), Segment(1, 1)))

    def test_interval_needs_positive_length(self):
        # a segment may be a point, lo == hi, but not reversed; a bracket in
        # a literal is an interval, so [2,2] is refused there
        with pytest.raises(ValueError, match="segment needs lo <= hi"):
            Segment(2, 1)
        with pytest.raises(ValueError, match=re.escape("interval needs lo < hi, got [2,2]")):
            TimeScale.parse("[2,2]")

    def test_values_length_checked(self):
        g = discretize(DISCRETE)
        with pytest.raises(ValueError):
            GridFunction(g, [1.0, 2.0])

    def test_caller_array_is_copied(self):
        g = discretize(DISCRETE)
        vals = np.array([0.0, 1.0, 2.0, 0.0])
        u = GridFunction(g, vals)
        vals[1] = 5.0
        assert u.values.tolist() == [0.0, 1.0, 2.0, 0.0]

    def test_from_interior_holds_one_closed_array(self):
        # 42^3 points: from_interior builds the closed array once and keeps
        # it, so its peak is that one array
        g = discretize(TimeScale.parse("[0,1],2"), MeshParams(h=2.5e-2))
        interior = np.ones((g.n_interior,) * 3)
        tracemalloc.start()
        try:
            u = GridFunction.from_interior((g, g, g), interior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * len(g.points) ** 3 * 8
        assert np.array_equal(u.interior, interior)
        assert u.boundary_max() == 0.0

    @pytest.mark.parametrize(
        "build, fragment",
        [
            (lambda: Segment(0.0, math.inf), "segment ends must be finite"),
            (lambda: Segment(math.nan, math.nan), "segment ends must be finite"),
            (lambda: TimeScale(()), "at least one segment"),
            (lambda: TimeScale((Segment(1.0, 1.0),)), "more than one point"),
            (lambda: TimeScale.parse("[0,1,2]"), "interval needs two endpoints"),
            (lambda: TimeScale.parse("[0,1]2"), "expected ',' at offset 5"),
            (
                lambda: discretize(TimeScale.parse("[0,1],[2,3]"), MeshParams(counts=(3,))),
                "mesh counts cover 1 intervals, need at least 2",
            ),
            (lambda: Grid([0.0], DISCRETE), "at least two points"),
            (lambda: Grid([0.0, 2.0, 1.0, 3.0], DISCRETE), "strictly increasing"),
            (lambda: Grid([0.0, 1.0, 3.0], DISCRETE), "isolated point 2.0 missing"),
            (lambda: Grid([0.0, 0.5, 2.0, 3.0], HYBRID), "interval endpoint 1.0 missing"),
            (lambda: Grid([0.0, 1.0, 1.5, 2.0, 3.0], HYBRID), "grid point 1.5 is not"),
        ],
        ids=[
            "interval-inf", "point-nan", "no-segments", "one-point", "three-endpoints",
            "no-comma", "counts-short", "grid-one-point", "grid-decreasing",
            "grid-isolated-missing", "grid-endpoint-missing", "grid-stray-point",
        ],
    )
    def test_refusals(self, build, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            build()

    def test_immutability(self):
        g = discretize(DISCRETE)
        u = GridFunction(g, [0.0, 1.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            u.values[1] = 5.0
        with pytest.raises(ValueError):
            g.points[0] = -1.0


class TestProductInner:
    def test_matches_explicit_tensor_weights(self, rng):
        # random product grids of 1 to 4 axes; "0,1,3" has one interior point
        one_point = discretize(TimeScale.parse("0,1,3"))
        for ndim in range(1, 5):
            for _ in range(5):
                grids = [random_grid(rng) for _ in range(ndim)]
                grids[rng.integers(ndim)] = one_point
                shape = tuple(len(g.points) for g in grids)
                u = GridFunction(grids, rng.standard_normal(shape))
                v = GridFunction(grids, rng.standard_normal(shape))
                w = functools.reduce(np.multiply.outer, [g.weights for g in grids])
                terms = u.values * v.values * w
                got = product_delta_inner(u, v)
                assert abs(got - terms.sum()) <= 1e-13 * np.abs(terms).sum()
                assert product_delta_inner(u, u) == pytest.approx(
                    (u.values**2 * w).sum(), rel=1e-13
                )

    def test_boundary_max_ignores_interior(self, rng):
        for axes in (["0,1,3"], ["[0,1]", "0,1,3"], ["0,1,2,3"] * 3):
            grids = [discretize(TimeScale.parse(a), MeshParams(h=0.25)) for a in axes]
            vals = rng.uniform(-1.0, 1.0, tuple(len(g.points) for g in grids))
            interior = tuple(slice(1, -1) for _ in grids)
            vals[interior] = 100.0
            corner = (-1,) * len(grids)
            vals[corner] = -3.0
            u = GridFunction(grids, vals)
            assert u.boundary_max() == 3.0
            assert GridFunction.from_interior(u.grids, u.interior).boundary_max() == 0.0


class TestOneAxisProduct:
    """A one-dimensional grid function is the product with one axis."""

    def test_interchangeable_on_random_grids(self, rng):
        f = parse("u^3 - x1")
        # random grids, then one and two interior points and a discrete-only scale
        edge = ("0,1,3", "[0,1],3", "0,0.25,1,2.5,3,7")
        grids = itertools.chain(
            (random_grid(rng) for _ in range(20)),
            (discretize(TimeScale.parse(t), MeshParams(h=0.5)) for t in edge),
        )
        for g in grids:
            u = random_dirichlet(rng, g)
            p = ProductGridFunction((g,), u.values)
            assert p.grids == u.grids == (g,)
            assert p.grid is g
            assert np.array_equal(p.values, u.values)
            v = GridFunction(g, rng.standard_normal(len(g.points)))
            assert product_delta_inner(u, v) == product_delta_inner(p, v)
            Fu = nemytskii(f, (g,), u)
            assert np.array_equal(Fu.values, u.values**3 - g.points)
            y = spectral_inverse([spectrum_1d(g)], u.interior)
            ref = tridiag_solve(assemble(g), u.interior)
            scale = np.abs(ref).max()
            assert np.abs(y - ref).max() <= 1e-10 * scale

    def test_grid_needs_one_axis(self):
        g = discretize(DISCRETE)
        u = GridFunction.zeros((g, g))
        assert u.grids == (g, g)
        with pytest.raises(ValueError):
            u.grid
