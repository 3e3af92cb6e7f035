import numpy as np
import pytest

from tselliptic.operator import GreenKernel, apply, assemble, tridiag_solve
from tselliptic.timescale import (
    EmptyInteriorError,
    Grid,
    GridFunction,
    GridMismatchError,
    MeshParams,
    TimeScale,
    discretize,
    product_delta_inner,
)

from conftest import banded_solve, green_quadrature, random_dirichlet, random_grid

G4 = discretize(TimeScale.parse("0,1,2,3"))
PHI1 = GridFunction(G4, [0.0, 2**-0.5, 2**-0.5, 0.0])
PHI2 = GridFunction(G4, [0.0, 2**-0.5, -(2**-0.5), 0.0])


class TestAssemble:
    def test_unit_grid_rows(self):
        op = assemble(G4)
        assert np.array_equal(op.diag, [2.0, 2.0])
        assert np.array_equal(op.sup, [-1.0, -1.0])
        assert np.array_equal(op.sub, [-1.0, -1.0])

    def test_single_interior_5_7_10(self):
        op = assemble(discretize(TimeScale.parse("5,7,10")))
        assert op.diag[0] == pytest.approx(5.0 / 18.0, abs=1e-15)

    def test_single_interior_4_6_7(self):
        op = assemble(discretize(TimeScale.parse("4,6,7")))
        assert op.diag[0] == pytest.approx(1.5, abs=1e-15)

    def test_rejects_no_interior(self):
        # discretize refuses such a grid first; a hand-built one reaches assemble
        with pytest.raises(EmptyInteriorError):
            assemble(Grid([0.0, 1.0], TimeScale.parse("[0,1]")))

    def test_weighted_matrix_symmetric(self, rng):
        # mu_i * sup_i equals mu_{i+1} * sub_{i+1}, both -1/mu_i
        for _ in range(50):
            op = assemble(random_grid(rng))
            if op.n < 2:
                continue
            lhs = op.weight[:-1] * op.sup[:-1]
            rhs = op.weight[1:] * op.sub[1:]
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-15 * np.abs(lhs).max())

    def test_weighted_matrix_dominance(self, rng):
        # rows of diag(mu) A are weakly dominant, strictly at both ends
        for _ in range(50):
            op = assemble(random_grid(rng))
            d = op.weight * op.diag
            off = np.abs(op.weight * op.sub) + np.abs(op.weight * op.sup)
            assert (d > 0).all()
            assert (d >= off * (1 - 1e-14)).all()
            assert d[0] > abs(op.weight[0] * op.sup[0])
            assert d[-1] > abs(op.weight[-1] * op.sub[-1])


class TestApply:
    def test_zero(self):
        op = assemble(G4)
        out = apply(op, GridFunction.zeros(G4))
        assert np.array_equal(out.values, np.zeros(4))

    def test_plateau(self):
        op = assemble(G4)
        out = apply(op, GridFunction(G4, [0.0, 1.0, 1.0, 0.0]))
        assert np.array_equal(out.values, [0.0, 1.0, 1.0, 0.0])

    def test_eigenfunction(self):
        out = apply(assemble(G4), PHI1)
        assert np.allclose(out.values, PHI1.values, rtol=0, atol=1e-14)

    def test_nonzero_boundary_rejected(self):
        op = assemble(G4)
        with pytest.raises(ValueError):
            apply(op, GridFunction(G4, [0.1, 0.0, 0.0, 0.0]))

    def test_nan_boundary_rejected(self):
        # boundary_max is NaN, and NaN > tolerance is false
        with pytest.raises(ValueError, match="boundary values must vanish"):
            apply(assemble(G4), GridFunction(G4, [np.nan, 1.0, 1.0, 0.0]))

    def test_other_grid_rejected(self):
        other = discretize(TimeScale.parse("0,1,2,3,4"))
        with pytest.raises(GridMismatchError, match="does not match operator grid"):
            apply(assemble(G4), GridFunction.zeros(other))


class TestWeightedInner:
    def test_normalized_eigenfunction(self):
        assert product_delta_inner(PHI1, PHI1) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonality(self):
        assert abs(product_delta_inner(PHI1, PHI2)) <= 1e-12

    def test_constant(self):
        g = discretize(TimeScale.parse("[0,3]"), MeshParams(h=0.25))
        one = GridFunction(g, np.ones(len(g.points)))
        assert product_delta_inner(one, one) == pytest.approx(3.0, abs=1e-13)

    def test_mismatch(self):
        g2 = discretize(TimeScale.parse("5,7,10"))
        with pytest.raises(GridMismatchError):
            product_delta_inner(PHI1, GridFunction.zeros(g2))

    def test_same_points_other_weights_mismatch(self):
        # the grid of "[0,1],2,3" at h = 0.5 and the discrete scale of its
        # points share every point but not the measure
        g1 = discretize(TimeScale.parse("[0,1],2,3"), MeshParams(h=0.5))
        g2 = discretize(TimeScale.parse("0,0.5,1,2,3"))
        assert np.array_equal(g1.points, g2.points)
        with pytest.raises(GridMismatchError):
            product_delta_inner(GridFunction.zeros(g1), GridFunction.zeros(g2))


class TestGreenKernel:
    def test_symmetry_and_boundary(self):
        G = GreenKernel(0.0, 3.0)
        assert G(1.0, 2.0) == G(2.0, 1.0)
        assert G(0.0, 1.7) == 0.0
        assert G(3.0, 1.7) == 0.0

    def test_formula_and_max(self):
        G = GreenKernel(0.0, 3.0)
        assert G(1.0, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert G(1.5, 1.5) == pytest.approx(0.75, abs=1e-15)
        assert G.bound == 0.75

    def test_bounded_on_random_grids(self, rng):
        for _ in range(20):
            g = random_grid(rng)
            G = GreenKernel(g.a, g.b)
            vals = G(g.points[:, None], g.points[None, :])
            assert (vals >= -1e-15).all()
            assert vals.max() <= G.bound + 1e-12


class TestInverses:
    def test_unit_grid_example(self):
        op = assemble(G4)
        f = np.array([1.0, 0.0])
        y = tridiag_solve(op, f)
        assert np.allclose(y, [2 / 3, 1 / 3], rtol=0, atol=1e-14)
        assert np.allclose(banded_solve(op, f), y, rtol=0, atol=1e-12)

    def test_zero(self):
        op = assemble(G4)
        assert np.array_equal(tridiag_solve(op, np.zeros(2)), np.zeros(2))

    def test_continuous_ode_limit(self):
        # -y'' = c on [0, 3] has y = c t (3 - t) / 2; the grid solution
        # converges to it as the mesh refines
        c = 2.0
        errs = []
        for h in (0.05, 0.025):
            g = discretize(TimeScale.parse("[0,3]"), MeshParams(h=h))
            op = assemble(g)
            f = GridFunction(g, np.full(len(g.points), c))
            y = GridFunction.from_interior(f.grids, tridiag_solve(op, f.interior))
            exact = c * g.points * (3.0 - g.points) / 2.0
            errs.append(np.abs(y.values - exact).max())
        assert errs[0] <= 1e-10  # second difference of a quadratic is exact
        assert errs[1] <= 1e-10

    def test_green_matches_tridiag_random(self, rng):
        for _ in range(50):
            g = random_grid(rng)
            op = assemble(g)
            f = random_dirichlet(rng, g).interior
            y = tridiag_solve(op, f)
            scale = 1.0 + np.abs(y).max()
            for oracle in (green_quadrature, banded_solve):
                assert np.abs(oracle(op, f) - y).max() <= 1e-10 * scale

    def test_unit_load_fine_mesh(self):
        # Au = 1 on [0,1] has the quadratic t (1 - t)/2, which the scheme
        # reproduces exactly; at h = 1e-4 only rounding remains
        g = discretize(TimeScale.parse("[0,1]"), MeshParams(h=1e-4))
        y = tridiag_solve(assemble(g), np.ones(len(g.points) - 2))
        t = g.points[1:-1]
        assert np.abs(y - t * (1 - t) / 2).max() <= 1e-14 / 8

    def test_matches_quadrature_at_every_scale(self, rng):
        # the rounding of the sums is bounded componentwise by a multiple
        # of eps (A^-1 |f|)_i; banded elimination of the stored matrix
        # misses this bound for f = 1 on the 2,001-point grids
        grids = [random_grid(rng) for _ in range(50)] + [
            discretize(TimeScale.parse(ts), MeshParams(h=h))
            for ts, h in (("[0,1e5]", 50.0), ("[0,1e-80]", 5e-84))
        ]
        for g in grids:
            op = assemble(g)
            for f in (rng.standard_normal(op.n), np.ones(op.n)):
                ref = green_quadrature(op, f)
                bound = 1e-13 * green_quadrature(op, np.abs(f))
                assert (np.abs(tridiag_solve(op, f) - ref) <= bound).all()

    def test_roundtrips(self, rng):
        for _ in range(50):
            g = random_grid(rng)
            op = assemble(g)
            u = random_dirichlet(rng, g)
            back = GridFunction.from_interior(
                u.grids, tridiag_solve(op, apply(op, u).interior)
            )
            scale = 1.0 + np.abs(u.values).max()
            assert np.abs(back.values - u.values).max() <= 1e-10 * scale
            f = random_dirichlet(rng, g)
            y = GridFunction.from_interior(f.grids, tridiag_solve(op, f.interior))
            forward = apply(op, y)
            scale = 1.0 + np.abs(f.values).max()
            assert np.abs(forward.values[1:-1] - f.values[1:-1]).max() <= 1e-10 * scale


class TestSelfAdjointness:
    def test_symmetry_100_random(self, rng):
        for _ in range(100):
            g = random_grid(rng)
            op = assemble(g)
            y = random_dirichlet(rng, g)
            z = random_dirichlet(rng, g)
            ay_z = product_delta_inner(apply(op, y), z)
            y_az = product_delta_inner(y, apply(op, z))
            assert abs(ay_z - y_az) <= 1e-10 * (1.0 + abs(ay_z))

    def test_positivity_identity_100_random(self, rng):
        # <Ay, y> equals the nabla energy sum exactly
        for _ in range(100):
            g = random_grid(rng)
            op = assemble(g)
            y = random_dirichlet(rng, g)
            lhs = product_delta_inner(apply(op, y), y)
            dy = np.diff(y.values) / g.mu
            rhs = float(np.dot(dy**2, g.mu))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
            if np.abs(y.values).max() > 1e-12:
                assert lhs > 0.0
