import math

import numpy as np
import pytest
from scipy.optimize import brentq

from tselliptic import spectral
from tselliptic.operator import apply, assemble
from tselliptic.spectral import (
    InsufficientRootsError,
    eigen_shooting,
    expand,
    lambda1_lower_bound,
    reconstruct,
    shoot,
    spectrum_1d,
    symmetrize,
    tensor_spectrum,
)
from tselliptic.timescale import (
    GridFunction,
    GridMismatchError,
    MeshParams,
    ProductGridFunction,
    Segment,
    TimeScale,
    discretize,
    product_delta_inner,
)

from conftest import random_dirichlet, random_grid, random_timescale

DISCRETE = TimeScale.parse("0,1,2,3")
HYBRID = TimeScale.parse("[0,1],2,3")
CONT = TimeScale.parse("[0,3]")


def delta_scheme(ts, h):
    """The grid of ts at step h read as a discrete time scale: same points,
    every gap scattered, so its weights are the delta measure mu."""
    g = discretize(ts, MeshParams(h=h))
    return discretize(TimeScale(tuple(Segment(t, t) for t in g.points.tolist())))


def char_poly_roots(diag, off):
    """Roots of det(S - lambda I) by the tridiagonal determinant
    recurrence; an eigenvalue oracle independent of the symmetric solver."""
    p_prev = np.poly1d([1.0])
    p_cur = np.poly1d([-1.0, diag[0]])
    for k in range(1, len(diag)):
        p_next = np.poly1d([-1.0, diag[k]]) * p_cur - off[k - 1] ** 2 * p_prev
        p_prev, p_cur = p_cur, p_next
    return np.sort(np.roots(p_cur.coeffs).real)


class TestSymmetrize:
    def test_uniform_grid_unchanged(self):
        op = assemble(discretize(CONT, MeshParams(h=0.5)))
        assert np.allclose(symmetrize(op), op.sup[:-1], rtol=0, atol=1e-15)

    def test_unit_grid_matrix(self):
        op = assemble(discretize(DISCRETE))
        assert np.array_equal(op.diag, [2.0, 2.0])
        assert np.array_equal(symmetrize(op), [-1.0])

    def test_single_interior(self):
        op = assemble(discretize(TimeScale.parse("5,7,10")))
        assert op.diag[0] == pytest.approx(5.0 / 18.0, abs=1e-15)
        assert len(symmetrize(op)) == 0

    def test_similar_to_operator(self, rng):
        # S = W^{1/2} A W^{-1/2} entrywise on a random nonuniform grid
        for _ in range(20):
            g = random_grid(rng)
            op = assemble(g)
            if op.n < 2:
                continue
            off = symmetrize(op)
            w = np.sqrt(op.weight)
            assert np.allclose(off, op.sup[:-1] * w[:-1] / w[1:], rtol=1e-14)
            assert np.allclose(off, op.sub[1:] * w[1:] / w[:-1], rtol=1e-14)


class TestEigenSymmetricTridiagonal:
    """The symmetric eigenproblem that spectrum_1d solves: the rows of
    phis scaled by sqrt(w) are the eigenvectors of S = W^{1/2} A W^{-1/2}."""

    @staticmethod
    def eigenvectors(s, op):
        return s.phis[:, 1:-1] * np.sqrt(op.weight)

    def test_2x2(self):
        g = discretize(DISCRETE)
        s = spectrum_1d(g)
        V = self.eigenvectors(s, assemble(g))
        assert np.allclose(s.eigenvalues, [1.0, 3.0], rtol=0, atol=1e-14)
        assert np.allclose(V @ V.T, np.eye(2), rtol=0, atol=1e-14)

    def test_against_char_poly_oracle(self):
        # 10 interior points -> a 10x10 symmetric tridiagonal problem
        g = discretize(TimeScale.parse("[0,1]"), MeshParams(counts=(12,)))
        op = assemble(g)
        off = symmetrize(op)
        s = spectrum_1d(g)
        w, V = s.eigenvalues, self.eigenvectors(s, op)
        oracle = char_poly_roots(op.diag, off)
        assert np.abs(w - oracle).max() <= 1e-8 * np.abs(oracle).max()
        # residual per pair
        M = np.diag(op.diag) + np.diag(off, 1) + np.diag(off, -1)
        norm_S = np.abs(M).sum(axis=1).max()
        for k in range(op.n):
            r = M @ V[k] - w[k] * V[k]
            assert np.linalg.norm(r) <= 1e-10 * norm_S


class TestSpectrum1D:
    def test_discrete_pair(self):
        s = spectrum_1d(discretize(DISCRETE))
        assert s.eigenvalues[0] == 1.0
        assert s.eigenvalues[1] == 3.0
        assert np.allclose(s.phis[0][1:3], [2**-0.5, 2**-0.5], atol=1e-14)
        assert np.allclose(s.phis[1][1:3], [2**-0.5, -(2**-0.5)], atol=1e-14)

    def test_continuous_first_eigenvalue(self):
        g = discretize(CONT, MeshParams(h=1e-3))
        s = spectrum_1d(g, 1)
        assert s.eigenvalues[0] == pytest.approx(math.pi**2 / 9, abs=1e-4)

    def test_hybrid_first_eigenvalue(self):
        g = discretize(HYBRID, MeshParams(h=1e-3))
        s = spectrum_1d(g, 1)
        assert s.eigenvalues[0] == pytest.approx(0.840, abs=1e-3)

    def test_scale_free(self):
        # lambda_k L^2 on [0,L] at the default 8 cells is the same at every
        # L; stebz squares the off-diagonal, which unscaled overflows below
        # L = 1e-77 and underflows above L = 1e77 (13x off at L = 1e140)
        ref = spectrum_1d(discretize(TimeScale.parse("[0,1]")), 3).eigenvalues
        for length in (1e-150, 1e-80, 1e-6, 1e6, 1e140, 1e150):
            g = discretize(TimeScale.parse(f"[0,{length!r}]"))
            for k in (3, None):
                lams = spectrum_1d(g, k).eigenvalues[:3] * length**2
                assert np.abs(lams / ref - 1).max() <= 1e-13, (length, k)

    def test_refuses_eigenvalues_beyond_the_doubles(self):
        # a diagonal of inf (1 / 1e-320); one of 2e-316, so lambda_1 is
        # subnormal; and lambda_6 of 2.2e308 on [0,1e-153]
        for text, h, k in (("0,1e-160,2e-160", None, 1), ("[0,1e160]", 1e158, 1),
                           ("[0,1e-153]", None, 6)):
            grid = discretize(TimeScale.parse(text), MeshParams(h=h))
            with pytest.raises(ValueError, match="outside the normal doubles") as err:
                spectrum_1d(grid, k)
            assert str(grid.source) in str(err.value)
        assert spectrum_1d(discretize(TimeScale.parse("[0,1e-153]")), 5).count == 5

    def test_count_equals_interior(self, rng):
        for _ in range(10):
            g = random_grid(rng)
            s = spectrum_1d(g)
            assert s.count == g.n_interior
            assert (np.diff(s.eigenvalues) > 0).all()
            assert (s.eigenvalues > 0).all()

    def test_orthonormal_and_eigen_residual(self, rng):
        for _ in range(20):
            g = random_grid(rng)
            s = spectrum_1d(g)
            op = assemble(g)
            gram = (s.phis * g.weights) @ s.phis.T
            assert np.abs(gram - np.eye(s.count)).max() <= 1e-10
            for k in range(s.count):
                phi = s.phi(k)
                r = apply(op, phi).values - s.eigenvalues[k] * phi.values
                rn = math.sqrt(float(np.dot(r[:-1] ** 2, g.mu)))
                assert rn <= 1e-8 * (1.0 + s.eigenvalues[k])

    def test_sign_convention(self, rng):
        for _ in range(20):
            s = spectrum_1d(random_grid(rng))
            for row in s.phis:
                interior = row[1:-1]
                nz = interior[np.abs(interior) > 1e-12 * np.abs(interior).max()]
                assert nz[0] > 0

    def test_simplicity_gaps(self, rng):
        for _ in range(20):
            s = spectrum_1d(random_grid(rng))
            if s.count > 1:
                gaps = np.diff(s.eigenvalues)
                assert gaps.min() > 1e-8 * s.eigenvalues.max()


class TestShoot:
    def test_continuous_is_scaled_sine(self):
        for lam in (0.3, 1.0, 2.7):
            expected = math.sin(3 * math.sqrt(lam)) / math.sqrt(lam)
            assert shoot(CONT, lam) == pytest.approx(expected, rel=1e-12)

    def test_hybrid_transcendental_form(self):
        # y(3; lam) is proportional to
        # (lam^2 - 3 lam + 1) sin(sqrt(lam)) + (2 - lam) sqrt(lam) cos(sqrt(lam))
        for lam in (0.5, 0.840415965719, 2.0, 5.0):
            s = math.sqrt(lam)
            expected = ((lam**2 - 3 * lam + 1) * math.sin(s) + (2 - lam) * s * math.cos(s)) / s
            assert shoot(HYBRID, lam) == pytest.approx(expected, rel=1e-12)

    def test_discrete_characteristic_polynomial(self):
        assert shoot(DISCRETE, 1.0) == 0.0
        assert shoot(DISCRETE, 3.0) == 0.0
        # (lam - 1)(lam - 3) elsewhere
        assert shoot(DISCRETE, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_small_lambda_branch_continuous(self):
        # the closed form holds at small lambda as well
        for lam in (1e-9, 5e-9, 2e-8):
            got = shoot(CONT, lam)
            expected = math.sin(3 * math.sqrt(lam)) / math.sqrt(lam)
            assert got == pytest.approx(expected, rel=1e-10)

    def test_long_interval_small_lambda(self):
        # lam tau^2 = 0.01 and 10 on [0,1e5]: no series stands in for the
        # closed form at small lambda, whatever tau is
        ts = TimeScale.parse("[0,1e5]")
        for lam in (1e-12, 1e-9):
            expected = math.sin(math.sqrt(lam) * 1e5) / math.sqrt(lam)
            assert shoot(ts, lam) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_lambda_no_zeros(self):
        for lam in (-4.0, -0.5, 0.0):
            assert shoot(CONT, lam) > 0.0

    def test_rescaling_is_exact(self):
        # (y, y') is rescaled past 2**512; the unscaled recurrence, finite
        # here below 1e308, gives the same value bit for bit
        ts = TimeScale.parse(",".join(str(t) for t in range(21)))
        for lam in (1e12, 1e14, 1e15):
            y, v = 0.0, 1.0
            for _ in range(20):
                v, y = v - lam * y, y + (v - lam * y)
            assert abs(y) > 2.0**512
            assert shoot(ts, lam) == y

    def test_overflow_is_signed_infinity(self):
        # past 1e308 the value is infinite with the sign of the exact
        # recurrence, here in integers
        ts = TimeScale.parse(",".join(str(t) for t in range(31)))
        lam, y, v = 110_000_000_000, 0, 1
        for _ in range(30):
            v, y = v - lam * y, y + (v - lam * y)
        assert shoot(ts, float(lam)) == (math.inf if y > 0 else -math.inf)

    def test_negative_lambda_past_cosh_overflow(self):
        # cosh(sqrt(-lam) tau) overflows past sqrt(-lam) tau = 710; on [0, tau]
        # the value sinh(r tau) / r = e^(r tau) / (2 r) is still finite up to
        # about r tau = 710 + log(2 r), and +inf beyond
        for r, tau in ((711.0, 1.0), (7.2e5, 1e-3), (1e9, 7.3e-7)):
            expected = math.exp(r * tau - math.log(2 * r))
            got = shoot(TimeScale((Segment(0.0, tau),)), -r * r)
            assert got == pytest.approx(expected, rel=1e-12)
        assert shoot(TimeScale.parse("[0,0.36]"), -4e6) == math.inf  # r tau = 720
        assert shoot(CONT, -1e6) == math.inf
        assert shoot(TimeScale.parse("[0,1],2,[3,400]"), -1e3) == math.inf
        assert shoot(CONT, -1.7e308) == math.inf


class TestEigenShooting:
    def test_continuous_classical(self):
        lams = eigen_shooting(CONT, 3)
        expected = np.array([1.0, 4.0, 9.0]) * math.pi**2 / 9
        assert np.abs(lams - expected).max() <= 1e-9

    def test_discrete(self):
        lams = eigen_shooting(DISCRETE, 2)
        assert abs(lams[0] - 1.0) <= 1e-9
        assert abs(lams[1] - 3.0) <= 1e-9

    def test_hybrid_reference_values(self):
        lams = eigen_shooting(HYBRID, 3)
        assert abs(lams[0] - 0.840) <= 1e-3
        assert abs(lams[1] - 2.600) <= 1e-3
        assert abs(lams[2] - 11.907) <= 1e-3

    def test_insufficient_roots(self):
        # 0,1,...,30 has 29 eigenvalues, one per interior point; shoot
        # overflows long before lambda reaches the top of the doubles
        long_discrete = TimeScale.parse(",".join(str(t) for t in range(31)))
        for ts, k, found in ((DISCRETE, 5, 2), (long_discrete, 30, 29)):
            with pytest.raises(InsufficientRootsError) as err:
                eigen_shooting(ts, k)
            assert err.value.found == found

    def test_accurate_at_every_length(self):
        # the Dirichlet spectrum of [0, L] is (k pi / L)^2, from L = 1e-70 to 1e150
        for length in (1e-70, 1e-6, 1.0, 1e3, 3e4, 1e5, 1e10, 1e100, 1e150):
            lams = eigen_shooting(TimeScale.parse(f"[0,{length!r}]"), 3)
            exact = np.array([(k * math.pi / length) ** 2 for k in (1, 2, 3)])
            assert np.abs(lams / exact - 1).max() <= 1e-12, length

    def test_eigenvalues_below_the_doubles(self):
        # on [0,1e200] and [0,1e300] every eigenvalue rounds to 0
        for length in (1e200, 1e300):
            lams = eigen_shooting(TimeScale.parse(f"[0,{length!r}]"), 3)
            assert lams.tolist() == [0.0, 0.0, 0.0]

    def test_eigenvalues_above_the_doubles(self):
        # lambda_1 is about 1e400 on [0,1e-200] and 2e320 on 0,1e-160,2e-160
        for text in ("[0,1e-200]", "0,1e-160,2e-160"):
            with pytest.raises(InsufficientRootsError) as err:
                eigen_shooting(TimeScale.parse(text), 1)
            assert err.value.found == 0

    def test_matches_matrix_on_discrete(self, rng):
        # purely discrete scales: the grid is the scale, both routes exact;
        # clustered gaps put eigenvalues close together
        scales = [random_timescale(rng, discrete_only=True) for _ in range(15)]
        scales += [clustered_discrete(rng) for _ in range(15)]
        for ts in scales:
            grid = discretize(ts)
            s = spectrum_1d(grid)
            lams = eigen_shooting(ts, s.count)
            scale = np.abs(s.eigenvalues).max()
            assert np.abs(lams - s.eigenvalues).max() <= 1e-10 * scale

    def test_zero_count_is_eigenvalue_count_on_discrete(self, rng):
        # the oscillation theorem: the generalized zeros in (a, b] number
        # the eigenvalues below lambda (Sturm's count for a Jacobi matrix)
        scales = [random_timescale(rng, discrete_only=True) for _ in range(20)]
        scales += [clustered_discrete(rng) for _ in range(20)]
        for ts in scales:
            ev = spectrum_1d(discretize(ts)).eigenvalues
            for lam in rng.uniform(0.0, 1.2 * ev.max(), size=10):
                assert spectral._walk(ts, lam)[1] == np.count_nonzero(ev < lam)

    def test_zero_count_at_exact_zeros(self):
        # y(2) = 0 on 0,1,2,3 at lambda = 2 counts as a zero, and y(1) on
        # [0,1],2,3 at lambda = pi^2 is within rounding of a zero: the count
        # follows the computed sign of y
        lams = (0.5, 1.0, 2.0, 3.0, 4.0)
        assert [spectral._walk(DISCRETE, lam)[1] for lam in lams] == [0, 1, 1, 2, 2]
        assert spectral._walk(HYBRID, math.pi**2)[1] == 2

    def test_close_pair_not_skipped(self):
        # the 5th and 6th eigenvalues lie 2 % apart
        ts = TimeScale.parse("[0,1],[2,2.5]")
        lams = eigen_shooting(ts, 6)
        ref = spectrum_1d(discretize(ts, MeshParams(h=2e-4)), 6).eigenvalues
        assert np.abs(lams / ref - 1).max() <= 1e-5

    def test_roots_are_sign_changes_of_shoot(self, rng):
        fixed = ["[0,1],2,3", "0,0.5,1,2,3,[4,5]", "[0,1]", "[0,1],2", "0,1,2,3"]
        scales = [TimeScale.parse(s) for s in fixed]
        scales += [random_timescale(rng) for _ in range(200)]
        for ts in scales:
            try:
                lams = eigen_shooting(ts, 4)
            except InsufficientRootsError as err:
                lams = eigen_shooting(ts, err.found)
            for lam in lams:
                ref = brentq(
                    lambda x: shoot(ts, x), 0.999999999 * lam, 1.000000001 * lam,
                    xtol=1e-16 * lam, rtol=1e-15,
                )
                assert abs(lam - ref) <= 2e-13 * lam, (str(ts), lam, ref)


def clustered_discrete(rng):
    """Points 0 = t_0 < ... < t_n, 5 <= n <= 25, whose gaps mix four scales."""
    n = int(rng.integers(5, 26))
    gaps = rng.choice([1e-3, 1e-2, 0.1, 1.0], size=n) * rng.uniform(0.5, 1.5, size=n)
    return TimeScale(tuple(Segment(t, t) for t in np.cumsum(np.r_[0.0, gaps]).tolist()))


class TestMeshConvergence:
    def test_continuous_second_order(self):
        exact = eigen_shooting(CONT, 1)[0]
        gaps = []
        for h in (4e-3, 2e-3):
            g = discretize(CONT, MeshParams(h=h))
            gaps.append(abs(spectrum_1d(g, 1).eigenvalues[0] - exact))
        assert gaps[0] / gaps[1] >= 3.5

    def test_hybrid_first_order_at_junction(self):
        # the delta measure is a left-point quadrature, so a dense-to-
        # scattered junction costs one order: the gap is c*h with
        # c = lambda1 * phi1(junction)^2 / 2 ~= 0.198 for this scale
        exact = eigen_shooting(HYBRID, 1)[0]
        gaps = []
        for h in (4e-3, 2e-3):
            g = delta_scheme(HYBRID, h)
            gaps.append(spectrum_1d(g, 1).eigenvalues[0] - exact)
        ratio = gaps[0] / gaps[1]
        assert 1.8 <= ratio <= 2.2
        assert 0.17 <= gaps[1] / 2e-3 <= 0.23

    def test_routes_agree_across_junction_topologies(self):
        # both routes converge to each other under refinement on every
        # segment-boundary type (point-interval, interval-point, mixed);
        # the delta scheme does so at first order
        for lit in ("0,[1,2],3", "0,1,[2,3]", "[0,0.5],1,[2,3]"):
            ts = TimeScale.parse(lit)
            exact = eigen_shooting(ts, 2)
            gaps = []
            for h in (4e-3, 2e-3):
                g = delta_scheme(ts, h)
                gaps.append(np.abs(spectrum_1d(g, 2).eigenvalues - exact))
            assert gaps[1].max() <= 1e-2
            for g0, g1 in zip(gaps[0], gaps[1]):
                if g1 > 1e-9:
                    assert 1.6 <= g0 / g1 <= 2.5, lit

    def test_grid_second_order_across_junction_topologies(self):
        # the grid weights give a junction point half of its dense cell on
        # either side, so lambda1 and lambda2 converge at second order at
        # dense-to-scattered and scattered-to-dense junctions alike
        for lit in ("[0,1],2,3", "0,[1,2],3", "0,1,[2,3]", "[0,0.5],1,[2,3]"):
            ts = TimeScale.parse(lit)
            exact = eigen_shooting(ts, 2)
            gaps = []
            for h in (4e-3, 2e-3):
                g = discretize(ts, MeshParams(h=h))
                gaps.append(np.abs(spectrum_1d(g, 2).eigenvalues - exact))
            orders = np.log2(gaps[0] / gaps[1])
            assert (np.abs(orders - 2.0) <= 0.1).all(), (lit, orders)


class TestTensorSpectrum:
    def test_example_2d(self):
        s = spectrum_1d(discretize(DISCRETE))
        t = tensor_spectrum([s, s], 4)
        assert np.allclose(t.eigenvalues, [2.0, 4.0, 4.0, 6.0], atol=1e-12)
        assert [idx for idx, _ in t.entries] == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert t.exhausted

    def test_entry_sums_exact(self):
        s = spectrum_1d(discretize(DISCRETE))
        t = tensor_spectrum([s, s], 4)
        for idx, lam in t.entries:
            assert lam == sum(s.eigenvalues[p - 1] for p in idx)

    def test_three_axes_first(self):
        axes = [
            spectrum_1d(discretize(TimeScale.parse(a)))
            for a in ("0,1,2,3", "5,7,10", "4,6,7")
        ]
        t = tensor_spectrum(axes, 1)
        assert t.entries[0][0] == (1, 1, 1)
        assert t.entries[0][1] == pytest.approx(25.0 / 9.0, abs=1e-14)

    def test_single_axis_passthrough(self):
        s = spectrum_1d(discretize(TimeScale.parse("0,1,2,3,4,5")))
        t = tensor_spectrum([s], s.count)
        assert np.allclose(t.eigenvalues, s.eigenvalues, atol=0)

    def test_overrequest_flagged(self):
        s = spectrum_1d(discretize(DISCRETE))
        t = tensor_spectrum([s, s], 100)
        assert len(t.entries) == 4
        assert t.exhausted

    def test_truncated_axes_not_exhausted(self):
        g = discretize(TimeScale.parse("[0,1]"), MeshParams(h=1e-3))
        s = spectrum_1d(g, 3)
        t = tensor_spectrum([s], 3)
        assert not t.exhausted
        assert np.array_equal(t.eigenvalues, s.eigenvalues)
        assert not tensor_spectrum([s, s], 3).exhausted

    def test_too_few_axis_pairs_rejected(self):
        # the 4 smallest sums of one axis need its 4 smallest pairs
        g = discretize(TimeScale.parse("[0,1]"), MeshParams(h=1e-3))
        with pytest.raises(ValueError, match="holds 3 eigenpairs.*need 4"):
            tensor_spectrum([spectrum_1d(g, 3)], 4)
        with pytest.raises(ValueError, match="holds 2 eigenpairs.*need 3"):
            tensor_spectrum([spectrum_1d(g, 3), spectrum_1d(g, 2)], 3)
        # a grid with fewer interior points than K needs all of them only
        s = spectrum_1d(discretize(DISCRETE))
        assert len(tensor_spectrum([s, spectrum_1d(g, 8)], 8).entries) == 8

    def test_product_eigenfunctions_orthonormal(self):
        s = spectrum_1d(discretize(DISCRETE))
        t = tensor_spectrum([s, s], 4)
        gram = np.array(
            [
                [
                    product_delta_inner(t.eigenfunction(i), t.eigenfunction(j))
                    for j in range(4)
                ]
                for i in range(4)
            ]
        )
        assert np.abs(gram - np.eye(4)).max() <= 1e-10


class TestExpansion:
    def test_basis_function_coefficients(self):
        s = spectrum_1d(discretize(DISCRETE))
        c = expand(s, s.phi(1))
        assert np.allclose(c, [0.0, 1.0], atol=1e-13)

    def test_roundtrip_random(self, rng):
        for _ in range(30):
            g = random_grid(rng)
            s = spectrum_1d(g)
            f = random_dirichlet(rng, g)
            c = expand(s, f)
            back = reconstruct(s, c)
            scale = 1.0 + np.abs(f.values).max()
            assert np.abs(back.values[1:-1] - f.values[1:-1]).max() <= 1e-9 * scale
            # Parseval for interior-supported functions
            norm_sq = float(np.dot(f.values**2, g.weights))
            assert abs((c**2).sum() - norm_sq) <= 1e-9 * (1.0 + norm_sq)

    @pytest.mark.parametrize(
        "call, error, fragment",
        [
            (lambda s: eigen_shooting(DISCRETE, 0), ValueError, "k must be >= 1"),
            (lambda s: tensor_spectrum([s], 0), ValueError, "K must be >= 1"),
            (
                lambda s: expand(s, GridFunction.zeros(discretize(HYBRID))),
                GridMismatchError,
                "function grids do not match spectrum axes",
            ),
            (lambda s: reconstruct(s, [1.0]), ValueError, "coefficient count"),
        ],
        ids=["shooting-k0", "tensor-K0", "expand-other-grid", "reconstruct-count"],
    )
    def test_refusals(self, call, error, fragment):
        s = spectrum_1d(discretize(DISCRETE))
        with pytest.raises(error, match=fragment):
            call(s)

    def test_spectrum_1d_is_one_axis_tensor(self, rng):
        # a 1D spectrum reads as the one-axis tensor spectrum, so both give
        # the same coefficients and the same reconstruction
        for _ in range(20):
            g = random_grid(rng)
            s = spectrum_1d(g)
            t = tensor_spectrum([s], s.count)
            assert s.axes == (s,)
            assert s.entries == t.entries
            f = random_dirichlet(rng, g)
            c = expand(s, f)
            assert np.array_equal(c, expand(t, f))
            assert np.array_equal(reconstruct(s, c).values, reconstruct(t, c).values)

    def test_interior_ones_coefficients(self):
        # f = 1 at the interior points of {0,1,2,3}: c = (sqrt(2), 0)
        g = discretize(DISCRETE)
        s = spectrum_1d(g)
        f = GridFunction(g, [0.0, 1.0, 1.0, 0.0])
        c = expand(s, f)
        assert c[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert abs(c[1]) <= 1e-14
        assert (c**2).sum() == pytest.approx(2.0, abs=1e-13)

    def test_partial_tensor_projection(self, rng):
        # with only K of the modes, expand/reconstruct is the projection
        s = spectrum_1d(discretize(DISCRETE))
        full = tensor_spectrum([s, s], 4)
        part = tensor_spectrum([s, s], 2)
        target = ProductGridFunction(
            (s.grid, s.grid),
            0.7 * full.eigenfunction(0).values - 1.3 * full.eigenfunction(1).values,
        )
        back = reconstruct(part, expand(part, target))
        assert np.abs(back.values - target.values).max() <= 1e-12
        assert not part.exhausted

    def test_tensor_roundtrip(self, rng):
        s = spectrum_1d(discretize(DISCRETE))
        t = tensor_spectrum([s, s], 4)
        vals = np.zeros((4, 4))
        vals[1:-1, 1:-1] = rng.standard_normal((2, 2))
        f = ProductGridFunction((s.grid, s.grid), vals)
        c = expand(t, f)
        back = reconstruct(t, c)
        assert np.abs(back.values - f.values).max() <= 1e-12
        norm_sq = product_delta_inner(f, f)
        assert abs((c**2).sum() - norm_sq) <= 1e-12 * (1.0 + norm_sq)


class TestLowerBound:
    def test_values(self):
        assert lambda1_lower_bound(CONT) == pytest.approx(4.0 / 9.0, abs=1e-15)
        assert lambda1_lower_bound([DISCRETE, DISCRETE]) == pytest.approx(
            8.0 / 9.0, abs=1e-15
        )

    def test_long_axis_bound_is_zero(self):
        # (b - a)^2 = 1e320 is past the doubles
        assert lambda1_lower_bound(TimeScale.parse("[0,1e160]")) == 0.0

    def test_bound_holds(self):
        assert eigen_shooting(CONT, 1)[0] >= 4.0 / 9.0
        assert spectrum_1d(discretize(DISCRETE)).eigenvalues[0] >= 4.0 / 9.0

    def test_bound_on_random_scales(self, rng):
        for _ in range(25):
            ts = random_timescale(rng)
            lam1 = eigen_shooting(ts, 1)[0]
            assert lam1 >= lambda1_lower_bound(ts) * (1 - 1e-12)
