import math

import numpy as np
import pytest

from tselliptic.nonlinearity import nemytskii, parse
from tselliptic.operator import assemble, tridiag_solve, weighted_inner
from tselliptic.solver import spectral_inverse
from tselliptic.spectral import spectrum_1d
from tselliptic.timescale import (
    DomainError,
    EmptyInteriorError,
    GridFunction,
    Interval,
    MeshParams,
    Point,
    ProductGridFunction,
    TimeScale,
    delta_derivative,
    delta_integral,
    discretize,
    nabla_derivative,
    nabla_integral,
    product_delta_inner,
)

from conftest import random_dirichlet, random_grid


DISCRETE = TimeScale.parse("0,1,2,3")
HYBRID = TimeScale.parse("[0,1],2,3")


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


class TestLiteralParsing:
    def test_roundtrip(self):
        for text in ("0,1,2,3", "[0,1],2,3", "[0,3]", "5,7,10", "[-1,0],[1,2],3"):
            ts = TimeScale.parse(text)
            assert TimeScale.parse(str(ts)) == ts

    def test_whitespace_insignificant(self):
        assert TimeScale.parse(" [0, 1] ,2, 3 ") == HYBRID

    def test_bad_literals(self):
        for text in ("", "[0,1", "[1,0]", "0,0", "[0,1],[1,2]", "a,b"):
            with pytest.raises(ValueError):
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
        with pytest.raises(EmptyInteriorError):
            discretize(TimeScale.parse("0,1"))

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
            TimeScale((Interval(0, 1), Interval(1, 2)))
        with pytest.raises(ValueError):
            TimeScale((Point(1), Point(1)))

    def test_interval_needs_positive_length(self):
        with pytest.raises(ValueError):
            Interval(2, 2)

    def test_values_length_checked(self):
        g = discretize(DISCRETE)
        with pytest.raises(ValueError):
            GridFunction(g, [1.0, 2.0])

    def test_immutability(self):
        g = discretize(DISCRETE)
        u = GridFunction(g, [0.0, 1.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            u.values[1] = 5.0
        with pytest.raises(ValueError):
            g.points[0] = -1.0


class TestOneAxisProduct:
    """A one-dimensional grid function is the product with one axis."""

    def test_interchangeable_on_random_grids(self, rng):
        f = parse("u^3 - x1")
        for _ in range(20):
            g = random_grid(rng)
            u = random_dirichlet(rng, g)
            p = ProductGridFunction((g,), u.values)
            assert p.grids == u.grids == (g,)
            assert p.grid is g
            assert np.array_equal(p.values, u.values)
            v = GridFunction(g, rng.standard_normal(len(g.points)))
            assert weighted_inner(u, v) == product_delta_inner(p, v)
            Fu = nemytskii(f, (g,), u)
            assert np.array_equal(Fu.values, u.values**3 - g.points)
            y = spectral_inverse([spectrum_1d(g)], u)
            ref = tridiag_solve(assemble(g), u)
            scale = np.abs(ref.values).max()
            assert np.abs(y.values - ref.values).max() <= 1e-10 * scale

    def test_grid_needs_one_axis(self):
        g = discretize(DISCRETE)
        u = GridFunction.zeros((g, g))
        assert u.grids == (g, g)
        with pytest.raises(ValueError):
            u.grid
