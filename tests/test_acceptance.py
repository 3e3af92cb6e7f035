"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 2 and 5 assert second-order mesh convergence at a dense-to-
scattered junction.  The grid weights give the junction point its half of
the last dense cell (see README, accuracy notes); the left-point delta
measure would drop it and reach only first order.
"""

import math

import numpy as np

from tselliptic.nonlinearity import GrowthHypotheses, parse
from tselliptic.operator import apply, assemble, tridiag_solve
from tselliptic.solver import (
    Problem,
    Status,
    apply_operator,
    enumerate_small,
    homotopy_solve,
    picard_solve,
    spectral_inverse,
)
from tselliptic.spectral import (
    eigen_shooting,
    expand,
    lambda1_lower_bound,
    spectrum_1d,
    tensor_spectrum,
)
from tselliptic.timescale import (
    GridFunction,
    MeshParams,
    ProductGridFunction,
    TimeScale,
    discretize,
    product_delta_inner,
    product_delta_norm,
)

from conftest import random_dirichlet, random_grid, random_timescale

DISCRETE = TimeScale.parse("0,1,2,3")
HYBRID = TimeScale.parse("[0,1],2,3")
CONT = TimeScale.parse("[0,3]")


def report(criterion: str, checks: list[tuple[str, bool, str]]):
    ok = all(c[1] for c in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    for name, good, detail in checks:
        print(f"    {'ok  ' if good else 'FAIL'} {name}: {detail}")
    failed = [f"{name} ({detail})" for name, good, detail in checks if not good]
    assert not failed, f"{criterion}: " + "; ".join(failed)


def test_criterion_01_discrete_spectrum_both_routes():
    matrix = spectrum_1d(discretize(DISCRETE)).eigenvalues
    shooting = eigen_shooting(DISCRETE, 2)
    checks = [
        (
            "matrix eigenvalues",
            bool(np.abs(matrix - [1.0, 3.0]).max() <= 1e-10),
            f"got {matrix}",
        ),
        (
            "shooting eigenvalues",
            bool(np.abs(shooting - [1.0, 3.0]).max() <= 1e-10),
            f"got {shooting}",
        ),
    ]
    report("criterion 1: discrete spectrum (1, 3) by both routes", checks)


def test_criterion_02_table_1():
    target = math.pi**2 / 9
    lam_shoot = float(eigen_shooting(CONT, 1)[0])
    grid_cont = discretize(CONT, MeshParams(h=1e-3))
    lam_mat = float(spectrum_1d(grid_cont, 1).eigenvalues[0])
    lam_disc = float(spectrum_1d(discretize(DISCRETE)).eigenvalues[0])
    hyb_shoot = float(eigen_shooting(HYBRID, 1)[0])
    gaps = []
    for h in (2e-3, 1e-3):
        lam_h = float(spectrum_1d(discretize(HYBRID, MeshParams(h=h)), 1).eigenvalues[0])
        gaps.append(abs(lam_h - hyb_shoot))
    order = math.log2(gaps[0] / gaps[1])
    checks = [
        (
            "[0,3] shooting vs pi^2/9 (1e-9)",
            abs(lam_shoot - target) <= 1e-9,
            f"err {abs(lam_shoot - target):.2e}",
        ),
        (
            "[0,3] matrix h=1e-3 (1e-4)",
            abs(lam_mat - target) <= 1e-4,
            f"err {abs(lam_mat - target):.2e}",
        ),
        ("{0,1,2,3} exactly 1", lam_disc == 1.0, f"got {lam_disc!r}"),
        (
            "hybrid shooting 0.840 (1e-3)",
            abs(hyb_shoot - 0.840) <= 1e-3,
            f"got {hyb_shoot:.6f}",
        ),
        (
            "hybrid matrix order >= 1.9 under halving",
            order >= 1.9,
            f"observed order {order:.3f} (gaps {gaps[0]:.3e} -> {gaps[1]:.3e})",
        ),
    ]
    report("criterion 2: Table 1 first eigenvalues", checks)


def test_criterion_03_hybrid_higher_modes():
    lams = eigen_shooting(HYBRID, 3)
    checks = [
        (
            "lambda2 vs 2.600 (1e-3)",
            abs(lams[1] - 2.600) <= 1e-3,
            f"got {lams[1]:.6f}",
        ),
        (
            "lambda3 vs 11.907 (1e-3)",
            abs(lams[2] - 11.907) <= 1e-3,
            f"got {lams[2]:.6f}",
        ),
    ]
    report("criterion 3: hybrid higher shooting modes", checks)


def test_criterion_04_2d_example():
    spec = spectrum_1d(discretize(DISCRETE))
    tensor = tensor_spectrum([spec, spec], 4)
    tensor_err = np.abs(tensor.eigenvalues - [2.0, 4.0, 4.0, 6.0]).max()
    p = Problem(
        axes=[DISCRETE, DISCRETE],
        f=parse("1"),
        hypotheses=GrowthHypotheses(L=0.0),
    )
    sol = picard_solve(p)
    dev = float(np.abs(sol.u.interior + 0.5).max())
    checks = [
        ("tensor eigenvalues (2,4,4,6) 1e-10", tensor_err <= 1e-10, f"err {tensor_err:.2e}"),
        ("picard converged", sol.status is Status.CONVERGED, sol.status.value),
        ("residual <= 1e-10", sol.residual <= 1e-10, f"res {sol.residual:.2e}"),
        ("u = -1/2 (1e-10)", dev <= 1e-10, f"dev {dev:.2e}"),
    ]
    report("criterion 4: 2D tensor spectrum and constant solve", checks)


def test_criterion_05_hybrid_linear_solve():
    p = Problem(
        axes=[HYBRID],
        f=parse("1"),
        mesh=MeshParams(h=1e-3),
        hypotheses=GrowthHypotheses(L=0.0),
    )
    sol = picard_solve(p)
    t = p.grids[0].points
    exact = np.where(t <= 1.0, (3 * t**2 - 11 * t) / 6.0, -7.0 / 6.0)
    exact[-1] = 0.0
    dev = float(np.abs(sol.u.values - exact)[1:-1].max())
    checks = [
        ("picard converged", sol.status is Status.CONVERGED, sol.status.value),
        (
            "max interior deviation <= 5e-5",
            dev <= 5e-5,
            f"dev {dev:.3e}",
        ),
    ]
    report("criterion 5: hybrid linear solve at h = 1e-3", checks)


def test_criterion_06_discrete_worked_solutions():
    checks = []
    p3 = Problem(axes=[DISCRETE], f=parse("1"), hypotheses=GrowthHypotheses(L=0.0))
    s3 = picard_solve(p3)
    checks.append(
        (
            "7.3: u = (-C, -C)",
            bool(np.abs(s3.u.interior + 1.0).max() <= 1e-12 and s3.residual <= 1e-12),
            f"u {s3.u.interior}, res {s3.residual:.2e}",
        )
    )
    p4 = Problem(axes=[DISCRETE], f=parse("1+x1"), hypotheses=GrowthHypotheses(L=0.0))
    s4 = picard_solve(p4)
    expected4 = np.array([-7.0 / 3.0, -8.0 / 3.0])
    checks.append(
        (
            "7.4: u = ((-2g1-g2)/3, (-g1-2g2)/3)",
            bool(
                np.abs(s4.u.interior - expected4).max() <= 1e-12
                and s4.residual <= 1e-12
            ),
            f"u {s4.u.interior}, res {s4.residual:.2e}",
        )
    )
    p5 = Problem(
        axes=[DISCRETE],
        f=parse("-2*u"),
        hypotheses=GrowthHypotheses(L=2.0, alpha=0.5, cbound=0.0),
    )
    s5 = homotopy_solve(p5)
    checks.append(
        (
            "7.5: u = 0",
            bool(np.abs(s5.u.interior).max() <= 1e-12 and s5.residual <= 1e-12),
            f"u {s5.u.interior}, res {s5.residual:.2e}",
        )
    )
    p6 = Problem(axes=[DISCRETE], f=parse("2*u"))
    r6 = enumerate_small(p6, box=10.0, grid_density=41)
    ok6 = (
        len(r6.solutions) == 1
        and np.abs(r6.solutions[0].u.interior).max() <= 1e-9
        and r6.solutions[0].residual <= 1e-12
    )
    checks.append(
        (
            "7.6: unique u = 0",
            bool(ok6),
            f"{len(r6.solutions)} solution(s)",
        )
    )
    report("criterion 6: discrete worked solutions 7.3-7.6", checks)


def test_criterion_07_nonexistence():
    p = Problem(axes=[DISCRETE], f=parse("1+u^2"))
    res = enumerate_small(p, box=100.0, grid_density=400)
    u1 = res.candidates[:, 0]
    quartic = u1**4 + 4 * u1**3 + 8 * u1**2 + 7 * u1 + 4
    sample = np.linspace(-100.0, 100.0, 100_001)
    quartic_sample = sample**4 + 4 * sample**3 + 8 * sample**2 + 7 * sample + 4
    checks = [
        ("no solutions found", len(res.solutions) == 0, f"{len(res.solutions)} found"),
        (
            "status no_real_solution_suspected",
            res.status is Status.NO_REAL_SOLUTION_SUSPECTED,
            res.status.value,
        ),
        (
            "reduced quartic positive at polished candidates",
            bool(len(u1) > 0 and quartic.min() > 0.0),
            f"min {quartic.min():.4f} over {len(u1)} candidates",
        ),
        (
            "reduced quartic positive on dense sample",
            bool(quartic_sample.min() > 0.0),
            f"min {quartic_sample.min():.4f}",
        ),
    ]
    report("criterion 7: superlinear nonexistence (box 100, density 400)", checks)


def test_criterion_08_3d_example():
    axes = [DISCRETE, TimeScale.parse("5,7,10"), TimeScale.parse("4,6,7")]
    p = Problem(axes=axes, f=parse("u^2"))
    diag_sum = float(sum(op.diag[0] for op in p.operators))
    res = enumerate_small(p, box=20.0, grid_density=200)
    has_zero = any(np.abs(s.u.interior).max() <= 1e-9 for s in res.solutions)
    p2 = Problem(axes=axes, f=parse("1+2*u^2"))
    res2 = enumerate_small(p2, box=20.0, grid_density=200)
    checks = [
        (
            "diagonal coefficient 34/9 (1e-12)",
            abs(diag_sum - 34.0 / 9.0) <= 1e-12,
            f"got {diag_sum!r}",
        ),
        (
            "f = u^2: exactly 4 solutions",
            len(res.solutions) == 4,
            f"{len(res.solutions)} found",
        ),
        ("u = 0 among them", has_zero, ""),
        (
            "f = 1 + 2u^2: none",
            len(res2.solutions) == 0,
            f"{len(res2.solutions)} found",
        ),
    ]
    report("criterion 8: 3D worked example", checks)


def test_criterion_09_property_suites():
    checks = []

    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        g = random_grid(rng)
        op = assemble(g)
        y, z = random_dirichlet(rng, g), random_dirichlet(rng, g)
        ay_z = product_delta_inner(apply(op, y), z)
        y_az = product_delta_inner(y, apply(op, z))
        worst = max(worst, abs(ay_z - y_az) / (1.0 + abs(ay_z)))
    checks.append(("self-adjointness 1e-10", worst <= 1e-10, f"worst {worst:.2e}"))

    rng = np.random.default_rng(1002)
    worst = 0.0
    positive = True
    for _ in range(100):
        g = random_grid(rng)
        op = assemble(g)
        y = random_dirichlet(rng, g)
        lhs = product_delta_inner(apply(op, y), y)
        dy = np.diff(y.values) / g.mu
        rhs = float(np.dot(dy**2, g.mu))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        positive &= lhs > 0.0
    checks.append(
        ("positivity identity 1e-10", worst <= 1e-10 and positive, f"worst {worst:.2e}")
    )

    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        g = random_grid(rng)
        op = assemble(g)
        u = random_dirichlet(rng, g)
        back = GridFunction.from_interior(
            u.grids, tridiag_solve(op, apply(op, u).interior)
        )
        scale = 1.0 + np.abs(u.values).max()
        worst = max(worst, np.abs(back.values - u.values).max() / scale)
        f = random_dirichlet(rng, g)
        y = GridFunction.from_interior(f.grids, tridiag_solve(op, f.interior))
        forward = apply(op, y)
        scale = 1.0 + np.abs(f.values).max()
        worst = max(
            worst, np.abs(forward.values[1:-1] - f.values[1:-1]).max() / scale
        )
    checks.append(("Green round-trips 1e-10", worst <= 1e-10, f"worst {worst:.2e}"))

    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(100):
        g = random_grid(rng)
        spec = spectrum_1d(g)
        f = random_dirichlet(rng, g)
        c = expand(spec, f)
        norm_sq = float(np.dot(f.values**2, g.weights))
        worst = max(worst, abs((c**2).sum() - norm_sq) / (1.0 + norm_sq))
    checks.append(("Parseval 1e-9 relative", worst <= 1e-9, f"worst {worst:.2e}"))

    rng = np.random.default_rng(1005)
    ok_bound = True
    for _ in range(100):
        n = int(rng.integers(1, 3))
        axes = [random_timescale(rng) for _ in range(n)]
        p = Problem(axes=axes, f=parse("0"))
        ok_bound &= p.lambda1 >= lambda1_lower_bound(axes) * (1.0 - 1e-12)
    checks.append(("lambda1 >= sum 4/(b-a)^2", ok_bound, ""))

    rng = np.random.default_rng(1006)
    worst = -1.0
    for _ in range(100):
        p = Problem(axes=[random_timescale(rng)], f=parse("0"))
        g = p.grids[0]
        f = ProductGridFunction((g,), random_dirichlet(rng, g).values)
        margin = (
            product_delta_norm(
                GridFunction.from_interior(f.grids, spectral_inverse(p.spectra, f.interior))
            )
            - product_delta_norm(f) / p.lambda1
        )
        worst = max(worst, margin)
    checks.append(("||Ainv f|| <= ||f||/lambda1 + 1e-10", worst <= 1e-10, f"worst margin {worst:.2e}"))

    rng = np.random.default_rng(1007)
    worst = -1.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        p = Problem(axes=[random_timescale(rng) for _ in range(n)], f=parse("0"))
        vals = rng.standard_normal(tuple(len(g.points) for g in p.grids))
        u = ProductGridFunction.from_interior(
            p.grids, vals[tuple(slice(1, -1) for _ in p.grids)]
        )
        Au = GridFunction.from_interior(u.grids, apply_operator(p.operators, u.interior))
        quad = product_delta_inner(Au, u)
        short = p.lambda1 * product_delta_inner(u, u) - quad
        worst = max(worst, short / (1.0 + abs(quad)))
    checks.append(("<Au,u> >= lambda1 ||u||^2", worst <= 1e-10, f"worst {worst:.2e}"))

    rng = np.random.default_rng(1008)
    worst = -1.0
    for _ in range(100):
        p = Problem(axes=[random_timescale(rng)], f=parse("0"))
        c = float(0.9 * p.lambda1 * rng.random())
        g = p.grids[0]
        u = ProductGridFunction((g,), random_dirichlet(rng, g).values)
        v = ProductGridFunction((g,), random_dirichlet(rng, g).values)
        Gu = spectral_inverse(p.spectra, c * u.interior)
        Gv = spectral_inverse(p.spectra, c * v.interior)
        lhs = product_delta_norm(GridFunction.from_interior(u.grids, Gu - Gv))
        rhs = (c / p.lambda1) * product_delta_norm(
            GridFunction.from_interior(u.grids, u.interior - v.interior)
        )
        worst = max(worst, lhs - rhs)
    checks.append(
        ("contraction ratio <= L/lambda1 (linear f)", worst <= 1e-10, f"worst {worst:.2e}")
    )

    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(100):
        g = random_grid(rng)
        f = random_dirichlet(rng, g).values + 0.3
        h = random_dirichlet(rng, g).values - 0.2
        boundary = f[-1] * h[-1] - f[0] * h[0]
        scale = 1.0 + abs(boundary)
        lhs = float(np.dot(np.diff(f) / g.mu * h[:-1], g.mu))
        rhs = boundary - float(np.dot(f[1:] * (np.diff(h) / g.mu), g.mu))
        worst = max(worst, abs(lhs - rhs) / scale)
        lhs2 = float(np.dot((np.diff(f) / g.mu) * h[1:], g.mu))
        rhs2 = boundary - float(np.dot(f[:-1] * (np.diff(h) / g.mu), g.mu))
        worst = max(worst, abs(lhs2 - rhs2) / scale)
    checks.append(("summation by parts 1e-12", worst <= 1e-12, f"worst {worst:.2e}"))

    report("criterion 9: randomized property suites (100 cases each)", checks)


def test_criterion_10_resonance_behavior():
    p = Problem(
        axes=[DISCRETE],
        f=parse("-u"),
        hypotheses=GrowthHypotheses(L=1.0, alpha=0.5, cbound=0.0),
    )
    picard = picard_solve(p)
    homotopy = homotopy_solve(p)
    checks = [
        (
            "picard refuses at L = lambda1",
            picard.status is Status.NON_CONTRACTION,
            picard.status.value,
        ),
        (
            "homotopy residual <= 1e-8",
            homotopy.status is Status.CONVERGED and homotopy.residual <= 1e-8,
            f"res {homotopy.residual:.2e}",
        ),
        (
            "non-uniqueness risk flagged",
            bool(homotopy.diagnostics["nonuniqueness_risk"]),
            "",
        ),
    ]
    report("criterion 10: resonance refusal and existence", checks)
