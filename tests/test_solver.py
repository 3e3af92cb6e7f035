import math
import re

import numpy as np
import pytest

from tselliptic import nonlinearity as nl
from tselliptic import solver
from tselliptic.nonlinearity import GrowthHypotheses, parse
from tselliptic.solver import (
    HypothesisError,
    Problem,
    SolverConfig,
    Status,
    _cramer,
    _dedupe,
    _dense_operator,
    apply_operator,
    apriori_radius,
    enumerate_small,
    homotopy_solve,
    picard_solve,
    residual,
    spectral_inverse,
)
from tselliptic.spectral import tensor_spectrum
from tselliptic.timescale import (
    MAX_AXIS_POINTS,
    GridFunction,
    MeshParams,
    ProductGridFunction,
    TimeScale,
    product_delta_inner,
    product_delta_norm,
)

from conftest import random_timescale

DISCRETE = TimeScale.parse("0,1,2,3")
HYBRID = TimeScale.parse("[0,1],2,3")


def make_problem(axes, f_text, bindings=None, mesh=None, hyp=None, config=None):
    return Problem(
        axes=[TimeScale.parse(a) if isinstance(a, str) else a for a in axes],
        f=parse(f_text, bindings=bindings),
        mesh=mesh or MeshParams(),
        hypotheses=hyp or GrowthHypotheses(),
        config=config or SolverConfig(),
    )


class TestSpectralInverse:
    def test_matches_green_inverse_1d(self):
        p = make_problem(["0,1,2,3"], "0")
        u = spectral_inverse(p.spectra, np.array([1.0, 0.0]))
        assert np.allclose(u, [2 / 3, 1 / 3], atol=1e-13)

    def test_eigenfunction_scaling(self):
        p = make_problem(["0,1,2,3", "0,1,2,3"], "0")
        tensor = tensor_spectrum(p.spectra, 4)
        for k in range(4):
            up = tensor.eigenfunction(k)
            lam = tensor.eigenvalues[k]
            got = spectral_inverse(p.spectra, up.interior)
            assert np.abs(got - up.interior / lam).max() <= 1e-12

    def test_2d_constant(self):
        # Au = -C over the 2x2 interior gives u = -C/2 everywhere
        p = make_problem(["0,1,2,3", "0,1,2,3"], "0")
        u = spectral_inverse(p.spectra, np.full((2, 2), -1.0))
        assert np.abs(u + 0.5).max() <= 1e-13

    def test_norm_bound_random(self, rng):
        for _ in range(40):
            ax = random_timescale(rng)
            p = Problem(axes=[ax], f=parse("0"))
            g = p.grids[0]
            vals = rng.standard_normal(len(g.points))
            vals[0] = vals[-1] = 0.0
            f = ProductGridFunction((g,), vals)
            u = GridFunction.from_interior(
                f.grids, spectral_inverse(p.spectra, f.interior)
            )
            assert (
                product_delta_norm(u)
                <= product_delta_norm(f) / p.lambda1 + 1e-10
            )

    def test_3d_unequal_axes_match_dense_solve(self, rng):
        p = make_problem(
            ["[0,1],2,3", "0,0.5,2,3", "[0,2]"], "0", mesh=MeshParams(h=0.25)
        )
        shape = tuple(g.n_interior for g in p.grids)
        assert len(set(shape)) == 3
        f = rng.standard_normal(shape)
        u = spectral_inverse(p.spectra, f)
        exact = np.linalg.solve(_dense_operator(p), f.ravel())
        assert np.abs(u.ravel() - exact).max() <= 1e-12

    @pytest.mark.parametrize("solve", [picard_solve, homotopy_solve])
    @pytest.mark.parametrize("axes", [["[0,1],2,3"], ["[0,1],2,3", "0,1,2,3"]])
    def test_only_nd_solves_build_the_eigenbasis(self, solve, axes):
        # in 1D the solvers invert by banded elimination
        p = make_problem(
            axes, "0.3*sin(u) + 1 + x1", mesh=MeshParams(h=1e-2),
            hyp=GrowthHypotheses(L=0.3, alpha=0.5, cbound=10.0),
        )
        assert solve(p).status is Status.CONVERGED
        assert ("spectra" in p.__dict__) == (len(axes) > 1)


class TestApplyOperator:
    def test_3d_diagonal_coefficient(self):
        p = make_problem(["0,1,2,3", "5,7,10", "4,6,7"], "0")
        probe = np.array([1.0, 0.0]).reshape(2, 1, 1)
        diag = apply_operator(p.operators, probe).ravel()[0]
        assert abs(diag - 34.0 / 9.0) <= 1e-12
        assert abs(sum(op.diag[0] for op in p.operators) - 34.0 / 9.0) <= 1e-12

    def test_energy_inequality_random(self, rng):
        # <Au, u> >= lambda1 ||u||^2 on random product domains
        for _ in range(30):
            n = int(rng.integers(1, 3))
            p = Problem(axes=[random_timescale(rng) for _ in range(n)], f=parse("0"))
            vals = rng.standard_normal(tuple(len(g.points) for g in p.grids))
            u = ProductGridFunction.from_interior(
                p.grids, vals[tuple(slice(1, -1) for _ in p.grids)]
            )
            Au = GridFunction.from_interior(u.grids, apply_operator(p.operators, u.interior))
            quad = product_delta_inner(Au, u)
            nrm2 = product_delta_inner(u, u)
            assert quad >= p.lambda1 * nrm2 - 1e-10 * (1.0 + abs(quad))

    @pytest.mark.parametrize(
        "axes", [["[0,1],2,3"], ["0,1,2,3", "[0,1],2"], ["0,1,2,3", "0,2,3", "[0,1],2"]]
    )
    def test_dense_operator_equals_unit_vector_probes(self, axes):
        p = make_problem(axes, "0", mesh=MeshParams(h=0.25))
        shape = tuple(g.n_interior for g in p.grids)
        d = math.prod(shape)
        # oracle: one apply_operator call per unit vector
        probed = np.zeros((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = 1.0
            probed[:, j] = apply_operator(p.operators, e.reshape(shape)).ravel()
        assert np.array_equal(_dense_operator(p), probed)


class TestPicard:
    def test_2d_constant_one_step(self):
        p = make_problem(
            ["0,1,2,3", "0,1,2,3"], "C", bindings={"C": 1.0},
            hyp=GrowthHypotheses(L=0.0),
        )
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.iterations == 1
        assert sol.residual <= 1e-10
        assert np.abs(sol.u.interior + 0.5).max() <= 1e-13

    def test_position_dependent_rhs(self):
        # f = g(x) with g(1) = 2, g(2) = 3 gives ((-2g1-g2)/3, (-g1-2g2)/3)
        p = make_problem(["0,1,2,3"], "1+x1", hyp=GrowthHypotheses(L=0.0))
        sol = picard_solve(p)
        assert np.allclose(sol.u.interior, [-7 / 3, -8 / 3], atol=1e-13)

    def test_hybrid_constant_against_closed_form(self):
        p = make_problem(
            ["[0,1],2,3"], "C", bindings={"C": 1.0},
            mesh=MeshParams(h=5e-3), hyp=GrowthHypotheses(L=0.0),
        )
        sol = picard_solve(p)
        t = p.grids[0].points
        exact = np.where(t <= 1.0, (3 * t**2 - 11 * t) / 6.0, -7.0 / 6.0)
        exact[-1] = 0.0
        # the grid weights make the scheme exact for this piecewise
        # quadratic, at the junction t = 1 too, so only rounding remains
        assert np.abs(sol.u.values - exact)[1:-1].max() <= 1e-9

    def test_contraction_iteration(self):
        p = make_problem(
            ["0,1,2,3"], "-0.5*u + 1", hyp=GrowthHypotheses(L=0.5)
        )
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.contraction_ratio is not None
        assert sol.contraction_ratio <= 0.5 / 1.0 + 0.05
        assert residual(p, sol.u) <= 1e-8

    @pytest.mark.parametrize("h", [5e-4, 2.5e-4])
    @pytest.mark.parametrize("a, b, c", [(0.3, 1.25, 0.5), (0.5, 2.0, 1.0)])
    def test_1d_reaches_default_residual_tol(self, h, a, b, c):
        # at these meshes the rounding floor of the residual stays below
        # the default residual_tol 1e-8
        p = make_problem(
            ["[0,1],2,3"], "a*sin(u) + b + c*x", bindings={"a": a, "b": b, "c": c},
            mesh=MeshParams(h=h), hyp=GrowthHypotheses(L=a),
        )
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert residual(p, sol.u) <= 1e-8

    def test_refuses_without_contraction(self):
        p = make_problem(["0,1,2,3"], "-u", hyp=GrowthHypotheses(L=1.0))
        sol = picard_solve(p)
        assert sol.status is Status.NON_CONTRACTION
        assert sol.iterations == 0

    def test_forced_run_converges_through_mixing(self):
        # L / lambda_1 = 2, so no contraction: the second step grows, mixing
        # takes over, and the residual alone certifies the solution u = 0
        cfg = SolverConfig(force=True, initial_guess=1.0, max_iter=200)
        p = make_problem(
            ["0,1,2,3"], "2*u", hyp=GrowthHypotheses(L=2.0), config=cfg
        )
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.contraction_ratio > 1.0
        assert residual(p, sol.u) <= 1e-8
        assert np.abs(sol.u.interior).max() <= 1e-8

    def test_forced_run_without_solution_names_cap(self):
        # Au + 1 + u^2 = 0 has no real solution on 0,1,2,3 (ex-7.8)
        cfg = SolverConfig(force=True, max_iter=200)
        p = make_problem(
            ["0,1,2,3"], "1 + u^2", hyp=GrowthHypotheses(L=2.0), config=cfg
        )
        sol = picard_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 200
        assert sol.diagnostics["note"] == "max_iter: 200 iterations reached"

    def test_non_finite_stops_with_note(self):
        p = make_problem(
            ["[0,1],2,3"], "a*sin(u)+1", bindings={"a": math.nan},
            mesh=MeshParams(h=1e-2), hyp=GrowthHypotheses(L=0.5),
        )
        sol = picard_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations <= 3
        assert "non-finite" in sol.diagnostics["note"]

    def test_requires_lipschitz(self):
        p = make_problem(["0,1,2,3"], "sin(u)")
        with pytest.raises(HypothesisError):
            picard_solve(p)

    def test_accepts_estimated_lipschitz(self):
        cfg = SolverConfig(accept_estimated_L=True)
        p = make_problem(["0,1,2,3"], "0.25*sin(u)", config=cfg)
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.diagnostics["L_is_estimate"]
        assert sol.diagnostics["L"] == pytest.approx(0.25, abs=1e-5)

    # |f| <= 4.3, so f u <= 0.5 u^2 + 4.3^2 / 2 and C = 10 will do
    SINE = ("[0,1],2,3", "0.3*sin(u) + 1 + x",
            GrowthHypotheses(L=0.3, alpha=0.5, cbound=10.0), SolverConfig())

    @pytest.mark.parametrize(
        "solve, problem, starts",
        [
            pytest.param(picard_solve, SINE, 1, id="picard_solve"),
            pytest.param(homotopy_solve, SINE, 1, id="homotopy_solve"),
            # the attempt at tau = 1 diverges, and the march evaluates F(u0)
            # again when it starts afresh
            pytest.param(
                homotopy_solve,
                ("[0,1]", "u^5 - 9*u - 50", GrowthHypotheses(alpha=0.0, cbound=1e4),
                 SolverConfig(assume_hypotheses=True)),
                2, id="homotopy_solve-march",
            ),
        ],
    )
    def test_one_f_evaluation_per_iteration(self, monkeypatch, solve, problem, starts):
        # F of each iterate serves its residual and the next step
        calls = []
        evaluate = solver._F
        monkeypatch.setattr(
            solver, "_F", lambda *a: calls.append(1) or evaluate(*a)
        )
        axis, f_text, hyp, config = problem
        p = make_problem([axis], f_text, mesh=MeshParams(h=1e-2), hyp=hyp, config=config)
        sol = solve(p)
        assert sol.status is Status.CONVERGED
        if solve is homotopy_solve:
            assert sol.diagnostics["path"] == ("direct" if starts == 1 else "march")
        assert len(calls) == sol.iterations + starts
        assert sol.residual == residual(p, sol.u)

    @pytest.mark.parametrize("solve", [picard_solve, homotopy_solve])
    def test_iterations_build_no_grid_functions(self, monkeypatch, solve):
        # the corrector works on interior arrays: two solves whose iteration
        # counts differ build the same number of grid functions
        built = []
        init, of = GridFunction.__post_init__, GridFunction.from_interior
        monkeypatch.setattr(
            GridFunction, "__post_init__", lambda gf: built.append(1) or init(gf)
        )
        # from_interior builds its own without the constructor's copy
        monkeypatch.setattr(
            GridFunction, "from_interior", lambda *a: built.append(1) or of(*a)
        )
        runs = []
        for a in (0.1, 0.5):
            p = make_problem(
                ["[0,1],2,3", "0,1,2,3"], "a*sin(u) + 1 + x1", bindings={"a": a},
                mesh=MeshParams(h=1e-2), hyp=GrowthHypotheses(L=a, alpha=0.5, cbound=10.0),
            )
            built.clear()
            sol = solve(p)
            assert sol.status is Status.CONVERGED
            runs.append((sol.iterations, len(built)))
        (it1, built1), (it2, built2) = runs
        assert it1 != it2
        assert built1 == built2

    def test_f_undefined_on_the_boundary_only(self):
        # the equation reads f at interior points, so 1/x solves on [0, 1]
        p = make_problem(["[0,1]"], "1/x", mesh=MeshParams(h=0.05), hyp=GrowthHypotheses(L=0.0))
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual == residual(p, sol.u)

    @pytest.mark.parametrize(
        "solve, hyp, cfg",
        [
            (picard_solve, GrowthHypotheses(), SolverConfig(accept_estimated_L=True)),
            (homotopy_solve, GrowthHypotheses(alpha=0.5, cbound=1e4), SolverConfig()),
        ],
        ids=["estimated-L", "one-sided"],
    )
    def test_hypothesis_checks_skip_the_boundary(self, solve, hyp, cfg):
        # the checks sample f where the equation reads it, at interior points
        p = make_problem(
            ["[0,1]"], "1/x + 0.1*sin(u)", mesh=MeshParams(h=0.05), hyp=hyp, config=cfg
        )
        sol = solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual == residual(p, sol.u)

    def test_diverging_steps_stop(self):
        # L = 0.5 passes the gate, but -u^3 is not 0.5-Lipschitz: from u = 3
        # the steps grow by more than 1e6 within three iterations
        p = make_problem(
            ["0,1,2,3"], "-u^3", hyp=GrowthHypotheses(L=0.5),
            config=SolverConfig(initial_guess=3.0),
        )
        sol = picard_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations == 3
        assert sol.diagnostics["note"] == solver.STOP_NOTES["diverged"]

    @pytest.mark.parametrize("solve", [picard_solve, homotopy_solve])
    @pytest.mark.parametrize(
        "axes, point", [(["0,1,2,3"], "(1.0,)"), (["0,1,2,3", "0,1,2,3"], "(1.0, 1.0)")]
    )
    def test_undefined_iterate_names_interior_point(self, solve, axes, point):
        # f is defined at u = 0 on the interior (not at x1 = 0); the first
        # step makes u negative, so sqrt fails where x1 = 1
        cfg = SolverConfig(assume_hypotheses=True)
        hyp = GrowthHypotheses(L=0.5, alpha=0.0, cbound=10.0)
        p = make_problem(axes, "1 + sqrt(u + x1 - 1)", hyp=hyp, config=cfg)
        with pytest.raises(nl.EvaluationError, match=f"at grid point {re.escape(point)}$"):
            solve(p)

    @pytest.mark.parametrize("solve", [picard_solve, homotopy_solve])
    def test_undefined_f_names_grid_point(self, solve):
        cfg = SolverConfig(accept_estimated_L=True)
        hyp = GrowthHypotheses(alpha=0.5, cbound=1.0)
        p = make_problem(["0,1,2,3"], "sqrt(u)", hyp=hyp, config=cfg)
        # the hypothesis checks sample the interior, whose first point is 1
        with pytest.raises(nl.EvaluationError, match=r"at grid point \(1\.0,\)"):
            solve(p)

    def test_2d_nonlinear_contraction(self):
        p = make_problem(
            ["0,1,2,3", "0,1,2,3"],
            "0.3*sin(u) + 1",
            hyp=GrowthHypotheses(L=0.3),
        )
        sol = picard_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        assert residual(p, sol.u) <= 1e-8
        assert sol.contraction_ratio <= 0.3 / 2.0 + 0.05
        assert sol.u.boundary_max() == 0.0

    def test_2d_solve_keeps_one_eigenbasis_per_axis(self):
        # the inverse synthesizes through phis; no axis caches a second copy
        p = make_problem(
            ["[0,1],2,3", "0,1,2,3"], "0.3*sin(u) + 1", mesh=MeshParams(h=0.05),
            hyp=GrowthHypotheses(L=0.3),
        )
        assert picard_solve(p).status is Status.CONVERGED
        for s in p.spectra:
            assert set(vars(s)) == {"grid", "eigenvalues", "phis"}

    @pytest.mark.parametrize(
        "axes, h, a, b, c",
        [
            (["[0,1],2,3"], 5e-4, 0.3, 1.25, 0.5),
            (["[0,1],2,3"], 2.5e-4, 0.3, 1.25, 0.5),
            (["[0,1],2,3"], 5e-4, 0.5, 2.0, 1.0),
            (["[0,1],2,3"], 2.5e-4, 0.5, 2.0, 1.0),
            (["0,1,2,3", "0,1,2,3"], None, 0.3, 1.0, 0.0),
        ],
        ids=["1d-5e-4-a", "1d-2.5e-4-a", "1d-5e-4-b", "1d-2.5e-4-b", "2d"],
    )
    def test_gated_run_never_mixes(self, monkeypatch, axes, h, a, b, c):
        # the inputs of test_1d_reaches_default_residual_tol and
        # test_2d_nonlinear_contraction converge by plain steps alone
        def no_mixing(*args):
            raise AssertionError("a gated Picard run switched to mixing")

        monkeypatch.setattr(solver, "_anderson", no_mixing)
        f = "a*sin(u) + b + c*x" if len(axes) == 1 else "a*sin(u) + b"
        p = make_problem(
            axes, f, bindings={"a": a, "b": b, "c": c},
            mesh=MeshParams(h=h) if h else None, hyp=GrowthHypotheses(L=a),
        )
        assert picard_solve(p).status is Status.CONVERGED

    def test_contraction_certificate_random(self, rng):
        # ||Ainv(c u) - Ainv(c v)|| <= (c / lambda1) ||u - v||
        for _ in range(30):
            p = Problem(axes=[random_timescale(rng)], f=parse("0"))
            c = 0.9 * p.lambda1 * rng.random()
            g = p.grids[0]
            vals = rng.standard_normal((2, len(g.points)))
            vals[:, 0] = vals[:, -1] = 0.0
            u = ProductGridFunction((g,), vals[0])
            v = ProductGridFunction((g,), vals[1])
            Gu = spectral_inverse(p.spectra, c * u.interior)
            Gv = spectral_inverse(p.spectra, c * v.interior)
            lhs = product_delta_norm(GridFunction.from_interior(u.grids, Gu - Gv))
            rhs = (c / p.lambda1) * product_delta_norm(
                GridFunction.from_interior(u.grids, u.interior - v.interior)
            )
            assert lhs <= rhs + 1e-10


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(homotopy_steps=0)
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(density=1)

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: make_problem(["0,1,2,3"] * 5, "u"), "between 1 and 4"),
            (
                lambda: make_problem(["0,1,2,3"], "x2 + u"),
                "nonlinearity uses x2 but the domain has dimension 1",
            ),
            (
                lambda: residual(
                    (p := make_problem(["0,1,2,3"], "u")),
                    GridFunction(p.grids, [0.0, 0.0, 0.0, 1.0]),
                ),
                "residual requires zero boundary values",
            ),
        ],
        ids=["five-axes", "x2-on-one-axis", "residual-boundary"],
    )
    def test_problem_refusals(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

    def test_enumerate_arguments(self):
        p = make_problem(["0,1,2,3"], "u")
        with pytest.raises(ValueError):
            enumerate_small(p, box=0.0, grid_density=10)
        with pytest.raises(ValueError):
            enumerate_small(p, box=1.0, grid_density=1)


class TestResidual:
    def test_exact_discrete_solution(self):
        p = make_problem(["0,1,2,3"], "C", bindings={"C": 1.0})
        u = GridFunction.from_interior(p.grids, -1.0)
        assert residual(p, u) <= 1e-12

    def test_zero_function_zero_f(self):
        p = make_problem(["0,1,2,3"], "0")
        assert residual(p, GridFunction.zeros(p.grids)) == 0.0

    def test_resonant_eigenfunction(self):
        p = make_problem(["0,1,2,3"], "-u")
        spec = p.spectra[0]
        u = ProductGridFunction((p.grids[0],), spec.phis[0])
        assert residual(p, u) <= 1e-9

    def test_nan_boundary_rejected(self):
        p = make_problem(["0,1,2,3"], "u")
        with pytest.raises(ValueError, match="residual requires zero boundary values"):
            residual(p, GridFunction(p.grids, [np.nan, 1.0, 1.0, 0.0]))


class TestAprioriRadius:
    def test_zero_bound(self):
        assert apriori_radius(1.0, 0.5, 0.0, 3.0) == 0.0

    def test_arithmetic(self):
        assert apriori_radius(1.0, 0.5, 1.0, 3.0) == pytest.approx(math.sqrt(6.0))

    def test_hypothesis_error(self):
        with pytest.raises(HypothesisError):
            apriori_radius(1.0, 1.0, 1.0, 3.0)

    def test_volume_of_product(self):
        p = make_problem(["0,1,2,3", "5,7,10"], "0")
        assert p.volume == 15.0


class TestHomotopy:
    def test_negative_linear_unique_zero(self):
        p = make_problem(
            ["0,1,2,3"], "-2*u", hyp=GrowthHypotheses(L=2.0, alpha=0.5, cbound=0.0)
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert np.abs(sol.u.interior).max() <= 1e-12
        # L = 2 >= lambda1, so uniqueness is not certified
        assert sol.diagnostics["nonuniqueness_risk"]

    def test_no_risk_below_lambda1(self):
        p = make_problem(
            ["0,1,2,3"],
            "-0.5*u + 1",
            hyp=GrowthHypotheses(L=0.5, alpha=0.75, cbound=1.0),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert not sol.diagnostics["nonuniqueness_risk"]

    def test_resonance_discrete(self):
        p = make_problem(
            ["0,1,2,3"], "-u", hyp=GrowthHypotheses(L=1.0, alpha=0.5, cbound=0.0)
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        assert sol.diagnostics["nonuniqueness_risk"]

    def test_resonance_hybrid_grid_lambda1(self):
        base = make_problem(["[0,1],2,3"], "0", mesh=MeshParams(h=0.05))
        lam1 = base.lambda1
        p = make_problem(
            ["[0,1],2,3"],
            "-lam1*u",
            bindings={"lam1": lam1},
            mesh=MeshParams(h=0.05),
            hyp=GrowthHypotheses(L=lam1, alpha=0.5 * lam1, cbound=0.0),
        )
        assert picard_solve(p).status is Status.NON_CONTRACTION
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        assert sol.diagnostics["nonuniqueness_risk"]

    def test_resonance_nonzero_start_reaches_family_member(self):
        # for tau < 1 the only fixed point of the linear resonance is 0,
        # so continuation lands on u = 0 whatever the start
        cfg = SolverConfig(initial_guess=0.7)
        p = make_problem(
            ["0,1,2,3"],
            "-u",
            hyp=GrowthHypotheses(L=1.0, alpha=0.5, cbound=0.0),
            config=cfg,
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        assert np.abs(sol.u.interior).max() <= 1e-10
        # at tau = 1 the start is already a fixed point, outside the ball of
        # radius 0, so the attempt is refused and the march runs
        assert sol.diagnostics["path"] == "march"
        assert sol.diagnostics["attempt_note"].startswith("iterate norm^2")

    def test_agrees_with_picard_on_linear(self):
        hyp = GrowthHypotheses(L=0.0, alpha=0.5, cbound=2.0)
        p1 = make_problem(["0,1,2,3"], "2", hyp=hyp)
        a = picard_solve(p1)
        b = homotopy_solve(p1)
        assert b.status is Status.CONVERGED
        assert np.abs(a.u.values - b.u.values).max() <= 1e-9

    def test_nonlinear_bounded(self):
        # f = -2u + sin(u): one-sided with alpha = 0.5, C = 1
        p = make_problem(
            ["0,1,2,3"],
            "-2*u + sin(u)",
            hyp=GrowthHypotheses(L=3.0, alpha=0.5, cbound=1.0),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        assert product_delta_norm(sol.u) <= sol.diagnostics["apriori_radius"] + 1e-9

    def test_missing_pair_rejected(self):
        p = make_problem(["0,1,2,3"], "-u", hyp=GrowthHypotheses(L=1.0))
        with pytest.raises(HypothesisError):
            homotopy_solve(p)

    def test_alpha_above_lambda1_rejected(self):
        p = make_problem(
            ["0,1,2,3"], "-u", hyp=GrowthHypotheses(alpha=2.0, cbound=0.0)
        )
        with pytest.raises(HypothesisError):
            homotopy_solve(p)

    def test_violated_one_sided_detected(self):
        p = make_problem(
            ["0,1,2,3"], "2*u", hyp=GrowthHypotheses(alpha=0.5, cbound=1.0)
        )
        with pytest.raises(HypothesisError):
            homotopy_solve(p)

    def test_slow_contraction_matches_linear_solve(self):
        # f = -9.7u + 1 on [0,1]: near tau = 1 the fixed-point map contracts
        # by about 0.98, too slowly for plain steps within the inner cap
        p = make_problem(
            ["[0,1]"], "-9.7*u + 1", mesh=MeshParams(h=1e-2),
            hyp=GrowthHypotheses(alpha=0.0, cbound=300.0),
            config=SolverConfig(max_iter=1000, homotopy_steps=20),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8
        A = _dense_operator(p)
        exact = np.linalg.solve(A - 9.7 * np.eye(len(A)), -np.ones(len(A)))
        assert np.abs(sol.u.interior - exact).max() <= 1e-8

    def test_slow_contraction_above_600_unknowns(self):
        p = make_problem(
            ["[0,1],2,3"], "-9.7*u + 1", mesh=MeshParams(h=1e-3),
            hyp=GrowthHypotheses(alpha=0.0, cbound=300.0),
            config=SolverConfig(max_iter=1000, homotopy_steps=20),
        )
        assert p.grids[0].n_interior > 600
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.residual <= 1e-8

    def test_large_system_reaches_tau_one(self):
        # tau = 1 in one step on 666 unknowns: the inner iteration contracts
        # by about 0.98, and mixing takes it to the solution, whose norm
        # lies outside the a priori ball of C = 100
        p = make_problem(
            ["[0,1]"], "-9.7*u + 1", mesh=MeshParams(h=1.5e-3),
            hyp=GrowthHypotheses(alpha=0.0, cbound=100.0),
            config=SolverConfig(max_iter=200, homotopy_steps=1, assume_hypotheses=True),
        )
        assert p.grids[0].n_interior == 666
        sol = homotopy_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.diagnostics["last_good_tau"] == 0.0
        assert sol.residual <= 1e-8
        note = sol.diagnostics["note"]
        assert "a priori" in note and note.endswith("at tau = 1")

    @pytest.mark.parametrize("f_text", ["1e308*10", "exp(u)*1e300 + 1"])
    def test_non_finite_stops_with_note(self, capfd, f_text):
        p = make_problem(
            ["0,1,2,3"], f_text,
            hyp=GrowthHypotheses(alpha=0.0, cbound=1.0),
            config=SolverConfig(assume_hypotheses=True),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        # one step of the attempt at tau = 1, then one of the march
        assert sol.diagnostics["attempt_iterations"] == 1
        assert sol.diagnostics["path"] == "march"
        assert sol.iterations == 2
        assert sol.diagnostics["note"].startswith("non-finite")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "f_text, cbound, config, reason",
        [
            ("-3*abs(u) - 1", 1e6, {"homotopy_steps": 1, "max_iter": 200},
             "inner cap: 200 steps reached at tau = 1"),
            # each tau-step may take 200 steps, but the path stops at max_iter
            ("-3*abs(u) - 1", 1e6, {"homotopy_steps": 20, "max_iter": 100},
             "max_iter: 100 iterations reached at tau"),
            # a loose step tolerance ends each tau-step short of its fixed point
            ("2 + 0.5*sin(u)", 3.0, {"step_tol": 1e-2}, "residual "),
        ],
        ids=["inner-cap", "max-iter", "residual"],
    )
    def test_unconverged_run_names_reason(self, f_text, cbound, config, reason):
        p = make_problem(
            ["0,1,2,3"], f_text,
            hyp=GrowthHypotheses(alpha=0.5, cbound=cbound),
            config=SolverConfig(assume_hypotheses=True, **config),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert sol.iterations <= p.config.max_iter
        assert sol.diagnostics["note"].startswith(reason)

    def test_contraction_goes_direct_to_picard_solution(self):
        # the homotopy-3d benchmark's family: |df/du| <= a + 1 < lambda_1, so
        # the attempt at tau = 1 converges and no march runs
        a, b, c = 0.3, 1.2, 0.6
        axes = ["[0,1],2"] * 3
        f_text = f"-{a}*u + sin(u) + {b} + {c}*x1*x2*x3"
        mesh = MeshParams(h=0.25)
        # eta sin(eta) <= eta^2 and |b + c x1 x2 x3| <= b + 8c
        hyp = GrowthHypotheses(L=a + 1, alpha=1.5 - a, cbound=(b + 8 * c) ** 2 / 2)
        sol = homotopy_solve(make_problem(axes, f_text, mesh=mesh, hyp=hyp))
        assert sol.status is Status.CONVERGED
        assert sol.diagnostics["path"] == "direct"
        assert "attempt_note" not in sol.diagnostics
        assert sol.iterations == sol.diagnostics["attempt_iterations"] <= solver.PLAIN_STEPS
        picard = picard_solve(make_problem(axes, f_text, mesh=mesh, hyp=hyp))
        assert np.abs(sol.u.values - picard.u.values).max() <= 1e-9

    @pytest.mark.parametrize(
        "axis, f_text, h, alpha, cbound, path, march_iterations",
        [
            ("[0,1],2,3", "-0.8*u + 2*sin(3*u) + 1", 1e-3, 0.5, 100.0, "march", 284),
            ("[0,1]", "u^5 - 9*u - 50", 1e-2, 0.0, 1e4, "march", 275),
            ("[0,1]", "-9.7*u + 1", 1e-3, 0.0, 300.0, "march", 638),
            ("[0,1]", "exp(-u) - 5", 1e-2, 1.0, 50.0, "direct", 145),
        ],
        ids=["sine", "quintic", "linear", "exp"],
    )
    def test_march_runs_only_where_attempt_fails(
        self, axis, f_text, h, alpha, cbound, path, march_iterations
    ):
        # march_iterations is what the 20-step march alone takes; a failed
        # attempt may add at most a quarter to it
        p = make_problem(
            [axis], f_text, mesh=MeshParams(h=h),
            hyp=GrowthHypotheses(alpha=alpha, cbound=cbound),
            config=SolverConfig(assume_hypotheses=True),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.CONVERGED
        assert sol.diagnostics["path"] == path
        assert sol.iterations <= 1.25 * march_iterations
        assert ("attempt_note" in sol.diagnostics) == (path == "march")
        assert "note" not in sol.diagnostics

    def test_bound_violation_surfaced_not_hidden(self):
        # f = -3u/(1+u^2) - 1 satisfies the one-sided pair (0.5, 1), yet
        # the continuation path leaves the a priori ball (the solution at
        # (2.1479, 2.1479) has norm^2 9.23 > 6); the run reports the last
        # good tau and the violation instead of silently continuing
        p = make_problem(
            ["0,1,2,3"],
            "-3*u/(1+u^2) - 1",
            hyp=GrowthHypotheses(L=3.0, alpha=0.5, cbound=1.0),
        )
        sol = homotopy_solve(p)
        assert sol.status is Status.MAX_ITERATIONS
        assert 0.0 < sol.diagnostics["last_good_tau"] < 1.0
        assert "a priori" in sol.diagnostics["note"]
        # the enumerator confirms a genuine solution out there
        res = enumerate_small(p, box=10.0, grid_density=61)
        assert any(
            abs(s.u.interior.ravel()[0] - 2.1478990) <= 1e-6 for s in res.solutions
        )


def nested(stack):
    """A (S, d, d) stack as the d x d nested list of length-S arrays."""
    d = stack.shape[-1]
    return [[stack[:, i, j] for j in range(d)] for i in range(d)]


class TestCramer:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_linalg_solve(self, rng, d):
        # diagonally dominant, so every system is well conditioned
        stack = rng.uniform(-1.0, 1.0, (500, d, d)) + 2 * d * np.eye(d)
        r = rng.standard_normal((500, d))
        got = _cramer(nested(stack), r.T).T
        want = np.linalg.solve(stack, r[..., None])[..., 0]
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert err.max() <= 1e-12

    @pytest.mark.parametrize(
        "singular",
        [[[1.0, 2.0], [2.0, 4.0]], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]],
    )
    def test_singular_system_not_finite(self, singular):
        d = len(singular)
        stack = np.array([singular, 3.0 * np.eye(d)])
        r = np.ones((d, 2))
        got = _cramer(nested(stack), r)
        assert not np.isfinite(got[:, 0]).any()
        assert np.array_equal(got[:, 1], np.full(d, 1.0 / 3.0))

    def test_sweep_skips_singular_start(self):
        # A = 2 and f = -2u + c: at u = 0 the difference quotient is -2
        # exactly, so the Jacobian is 0 and that start never moves
        p = make_problem(["0,1,2"], "-2*u + c", bindings={"c": 2.0**-20})
        assert np.array_equal(_dense_operator(p), [[2.0]])
        res = enumerate_small(p, box=8.0, grid_density=17)
        assert res.status is Status.NO_REAL_SOLUTION_SUSPECTED
        assert 0.0 in res.candidates


class TestEnumerateSmall:
    @pytest.mark.parametrize("f, F", [("1", [1.0, 1.0]), ("x1", [1.0, 2.0])])
    def test_f_free_of_u(self, f, F):
        # f's values do not have u's shape and broadcast to every start; the
        # one root solves the linear system A u = -F
        p = make_problem(["0,1,2,3"], f)
        res = enumerate_small(p, box=5.0, grid_density=11)
        [sol] = res.solutions
        want = np.linalg.solve(_dense_operator(p), -np.array(F))
        assert np.abs(sol.u.interior - want).max() <= 1e-12

    def test_superlinear_no_solution(self):
        p = make_problem(["0,1,2,3"], "1+u^2")
        res = enumerate_small(p, box=100.0, grid_density=150)
        assert res.status is Status.NO_REAL_SOLUTION_SUSPECTED
        assert res.solutions == []
        u1 = res.candidates[:, 0]
        quartic = u1**4 + 4 * u1**3 + 8 * u1**2 + 7 * u1 + 4
        assert (quartic > 0).all()

    def test_positive_linear_unique_zero(self):
        p = make_problem(["0,1,2,3"], "2*u")
        res = enumerate_small(p, box=10.0, grid_density=41)
        assert len(res.solutions) == 1
        assert np.abs(res.solutions[0].u.interior).max() <= 1e-9
        assert res.solutions[0].residual <= 1e-12

    def test_3d_quadratic_four_roots(self):
        p = make_problem(["0,1,2,3", "5,7,10", "4,6,7"], "u^2")
        res = enumerate_small(p, box=20.0, grid_density=120)
        assert len(res.solutions) == 4
        got = sorted(s.u.interior.ravel()[0] for s in res.solutions)
        oracle = sorted(
            np.roots([1.0, 68.0 / 9.0, 1462.0 / 81.0, 1075.0 / 81.0]).real
        ) + [0.0]
        assert np.abs(np.array(got) - np.array(oracle)).max() <= 1e-6
        # paired values swap between the two interior points
        for s in res.solutions:
            u1, u2 = s.u.interior.ravel()
            assert abs(u2 - ((34.0 / 9.0) * u1 + u1**2)) <= 1e-8

    def test_3d_shifted_quadratic_no_roots(self):
        p = make_problem(["0,1,2,3", "5,7,10", "4,6,7"], "1+2*u^2")
        res = enumerate_small(p, box=20.0, grid_density=120)
        assert res.status is Status.NO_REAL_SOLUTION_SUSPECTED

    def test_too_many_unknowns_rejected(self):
        p = make_problem(["0,1,2,3,4"], "u")  # 3 interior points
        enumerate_small(p, box=1.0, grid_density=3)
        p2 = make_problem(["0,1,2,3,4,5"], "u")  # 4 interior points
        with pytest.raises(ValueError):
            enumerate_small(p2, box=1.0, grid_density=3)

    def test_three_unknowns_quadratic_roots(self):
        # Au + u^2 - 4 = 0 with A = tridiag(-1, 2, -1): eliminating u2 and u3
        # leaves a degree-8 polynomial in u1, which has 6 real roots
        c = 4.0
        p = make_problem(["0,1,2,3,4"], "u^2 - c", bindings={"c": c})
        res = enumerate_small(p, box=10.0, grid_density=25)
        u1 = np.polynomial.Polynomial([0.0, 1.0])
        u2 = u1**2 + 2 * u1 - c
        z = ((u2**2 + 2 * u2 - u1 + 1 - c) ** 2 - (1 + u2 + c)).roots()
        x = np.sort(z[np.abs(z.imag) <= 1e-9].real)
        y = x**2 + 2 * x - c
        oracle = np.stack([x, y, -x + 2 * y + y**2 - c], axis=1)
        got = np.array(sorted(s.u.interior.tolist() for s in res.solutions))
        assert got.shape == (6, 3)
        assert np.abs(got - oracle).max() <= 1e-9
        assert all(s.residual <= 1e-10 for s in res.solutions)

    def test_partial_domain_nonlinearity(self):
        # sqrt(u + 20) is undefined on part of the start lattice; those
        # starts die instead of aborting the sweep or staying candidates
        p = make_problem(["0,1,2,3"], "sqrt(u + 20)")
        res = enumerate_small(p, box=30.0, grid_density=31)
        assert len(res.solutions) >= 1
        for s in res.solutions:
            assert s.residual <= 1e-10
        assert res.candidates.min() >= -20.0

    @pytest.mark.parametrize(
        "f, root", [("sqrt(u) + u - 3", ((37**0.5 - 1) / 6) ** 2), ("sqrt(u) + u", 0.0)],
        ids=["steps-from-0", "root-at-0"],
    )
    def test_undefined_difference_quotient_kills_moving_start(self, f, root):
        # A = 2; at u = 0 sqrt(u - h) is undefined, so the start there dies
        # when it must step (residual 3 in the first case) and stays when
        # it already solves the equation (the second)
        p = make_problem(["0,1,2"], f)
        res = enumerate_small(p, box=10.0, grid_density=11)
        assert [s.u.interior[0] for s in res.solutions] == pytest.approx([root], abs=1e-12)
        assert res.candidates.ravel() == pytest.approx([root], abs=1e-12)

    def test_single_unknown(self):
        # (5/18) u + u^2 = 0 has roots 0 and -5/18
        p = make_problem(["5,7,10"], "u^2")
        res = enumerate_small(p, box=2.0, grid_density=21)
        got = sorted(s.u.interior.ravel()[0] for s in res.solutions)
        assert np.allclose(got, [-5.0 / 18.0, 0.0], atol=1e-9)

    def test_non_finite_starts_die(self):
        # exp(u) overflows at the far starts; they die rather than stay put
        p = make_problem(["0,1,2,3"], "abs(u) - 2 + exp(u)")
        res = enumerate_small(p, box=1000.0, grid_density=41)
        assert res.status is Status.CONVERGED
        assert np.isfinite(np.exp(res.candidates)).all()

    def test_start_budget(self):
        p = make_problem(["0,1,2,3"], "u")
        # 10^14 starts: refused before numpy is asked for 1.6 PB
        with pytest.raises(ValueError, match=f"at most {MAX_AXIS_POINTS**2}$"):
            enumerate_small(p, box=1.0, grid_density=10_000_000)

    def test_blocks_match_one_block(self, monkeypatch):
        # A + diag(f'(u)) at u = (0, 0) is [[0.5, -1], [-1, 2]], singular with
        # exact difference quotients, and that start stays; starts with a
        # component at or below -3 die where sqrt(u + 3) or its difference
        # quotient is undefined
        f = "(2-x)*(-1.5*u + c) + (x-1)*(u^2 - 1) + 0*sqrt(u + 3)"
        p = make_problem(["0,1,2,3"], f, bindings={"c": 2.0**-20})
        monkeypatch.setattr(solver, "NEWTON_BLOCK", 10**9)
        whole = enumerate_small(p, box=5.0, grid_density=21)
        assert len(whole.solutions) == 2
        assert [0.0, 0.0] in whole.candidates.tolist()
        assert whole.candidates.min() > -3.0
        # 441 starts: 44 blocks of 10 and one of a single start
        monkeypatch.setattr(solver, "NEWTON_BLOCK", 10)
        blocked = enumerate_small(p, box=5.0, grid_density=21)
        assert blocked.status is whole.status
        got, want = ([s.u.interior.ravel() for s in r.solutions] for r in (blocked, whole))
        assert np.abs(np.array(got) - np.array(want)).max() <= 1e-12


def first_in_cell(points, tol):
    """The representatives by np.unique over the rounded rows."""
    key = np.round(points / tol).astype(np.int64)
    _, first = np.unique(key, axis=0, return_index=True)
    return points[np.sort(first)]


class TestDedupe:
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty(self, d, exact):
        assert _dedupe(np.empty((0, d)), 1e-6, exact).shape == (0, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_first_point_of_each_cell(self, rng, d):
        tol = 1e-6
        points = rng.uniform(-1.0, 1.0, (2000, d))
        # plant exact copies and near copies after their originals
        src = rng.integers(0, len(points), 800)
        near = points[src[400:]] + rng.uniform(-0.1, 0.1, (400, d)) * tol
        points = np.concatenate([points, points[src[:400]], near])
        rng.shuffle(points[1000:])
        want = first_in_cell(points, tol)
        assert len(want) < 2400
        for exact in (False, True):  # over 512 cells exact skips its pass
            assert np.array_equal(_dedupe(points, tol, exact), want)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_exact_merges_across_cell_edges(self, rng, d):
        tol = 1e-6
        # clusters 1 apart, each spread over 0.8 tol around a cell edge
        centers = (np.arange(20)[:, None] + (np.arange(d) + 0.5)[None, :] * tol)
        spread = rng.uniform(-0.4, 0.4, (20, 5, d)) * tol
        points = (centers[:, None, :] + spread).reshape(-1, d)
        rng.shuffle(points)
        assert len(_dedupe(points, tol, exact=False)) > 20
        kept = _dedupe(points, tol, exact=True)
        assert len(kept) == 20
        assert np.abs(np.sort(kept, axis=0) - centers).max() <= 0.4 * tol
