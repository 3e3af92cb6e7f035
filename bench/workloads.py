"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Each workload turns a seed into a list of per-op inputs (``make_inputs``),
runs one op on one input (``run``), and checks the op's output with code
paths of its own (``check``).  Coefficients are drawn stratified in blocks
of ``STRATA`` ops, so every block covers the whole range of each
coefficient: op times depend on them (iteration counts do), and a run's
median then moves little from seed to seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tselliptic import cli
from tselliptic import nonlinearity as nl
from tselliptic import operator as op_mod
from tselliptic import solver as sv
from tselliptic import spectral as sp
from tselliptic.timescale import (
    GridFunction,
    MeshParams,
    ProductGridFunction,
    TimeScale,
    discretize,
)

STRATA = 8
# Ops of a run cycle through this many generated inputs.  A 20 s run uses
# 30 to 50 on cli-mixed, the workload with the most ops, and set-up writes
# two config files for each, so set-up stays close to the work a run uses.
N_INPUTS = 64


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    picard_h: float
    homotopy_h: float
    enum_density1: int
    enum_density2: int
    cli_h1: float
    cli_h2: float


FULL = Sizes(
    picard_h=5e-4,      # 2,001 unknowns on [0,1],2,3
    homotopy_h=2.5e-2,  # 40 unknowns per axis, 64,000 in all
    enum_density1=400,  # 160,000 Newton starts
    enum_density2=200,
    cli_h1=1e-3,
    cli_h2=5e-3,        # 201 x 201 = 40,401 CSV rows
)
TINY = Sizes(
    picard_h=5e-2,
    homotopy_h=0.25,
    enum_density1=20,
    enum_density2=20,
    cli_h1=5e-2,
    cli_h2=0.1,
)


@dataclass
class Check:
    """Outcome of checking one op; ``files``/``bytes`` count CLI output."""

    ok: bool
    message: str = ""
    lam1_relerr: float | None = None
    files: int = 0
    bytes: int = 0


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    blocks = [
        lo + (hi - lo) * (rng.permutation(STRATA) + rng.random(STRATA)) / STRATA
        for _ in range(-(-n // STRATA))
    ]
    return np.concatenate(blocks)[:n]


def coefficients(rng: np.random.Generator, n: int, **ranges) -> list[dict]:
    cols = {k: stratified(rng, n, lo, hi) for k, (lo, hi) in ranges.items()}
    return [{k: float(v[i]) for k, v in cols.items()} for i in range(n)]


# ---------------------------------------------------------------------------
# Checks shared by the workloads.  They compute with code paths of their
# own: fresh grids, operator.apply (1D) or a slice-wise Kronecker sum (nD),
# and their own delta-measure weights, never solver.apply_operator.


def independent_residual(problem: sv.Problem, values: np.ndarray) -> float:
    """Delta norm of Au + F(u) for values on the closed product grid."""
    grids = tuple(discretize(ts, problem.mesh) for ts in problem.axes)
    if len(grids) == 1:
        g = grids[0]
        Au = op_mod.apply(op_mod.assemble(g), GridFunction(g, values)).values
    else:
        Au = np.zeros_like(values)
        for ax, g in enumerate(grids):
            A = op_mod.assemble(g)
            v = np.moveaxis(values, ax, 0)
            out = np.moveaxis(Au, ax, 0)
            col = (-1,) + (1,) * (values.ndim - 1)
            out[1:-1] += (
                A.diag.reshape(col) * v[1:-1]
                + A.sup.reshape(col) * v[2:]
                + A.sub.reshape(col) * v[:-2]
            )
    Fu = nl.nemytskii(problem.f, grids, ProductGridFunction(grids, values)).values
    r = np.zeros_like(values)
    inner = tuple(slice(1, -1) for _ in grids)
    r[inner] = Au[inner] + Fu[inner]
    w = r[tuple(slice(0, -1) for _ in grids)] ** 2
    for ax, g in enumerate(grids):
        shape = [1] * len(grids)
        shape[ax] = -1
        w = w * np.diff(g.points).reshape(shape)
    return math.sqrt(float(w.sum()))


def grid_lambda1(axes, mesh: MeshParams) -> tuple[float, float]:
    """lambda_1 of the grid operator from a k = 1 eigensolve per axis, and
    the absolute accuracy any eigensolver can claim for it, 64 eps ||A||."""
    lam = norm = 0.0
    for ts in axes:
        g = discretize(ts, mesh)
        lam += float(sp.spectrum_1d(g, 1).eigenvalues[0])
        A = op_mod.assemble(g)
        norm += float(np.max(np.abs(A.diag) + np.abs(A.sub) + np.abs(A.sup)))
    return lam, 64 * np.finfo(float).eps * norm


def relerr_vs_shooting(axes, lam1: float) -> float:
    exact = float(sum(sp.eigen_shooting(ts, 1)[0] for ts in axes))
    return abs(lam1 - exact) / exact


def check_solution(problem: sv.Problem, sol: sv.Solution) -> Check:
    if sol.status is not sv.Status.CONVERGED:
        return Check(False, f"status {sol.status.value} after {sol.iterations} iterations")
    tol = problem.config.residual_tol
    res = independent_residual(problem, sol.u.values)
    if not res <= tol:
        return Check(False, f"recomputed residual {res:.3e} above tolerance {tol:.1e}")
    lam1, lam_tol = grid_lambda1(problem.axes, problem.mesh)
    if not abs(sol.lambda1 - lam1) <= lam_tol:
        return Check(False, f"gated lambda1 {sol.lambda1!r} != grid lambda1 {lam1!r}")
    return Check(True, lam1_relerr=relerr_vs_shooting(problem.axes, sol.lambda1))


# ---------------------------------------------------------------------------
# picard-1d


PICARD_AXIS = "[0,1],2,3"
PICARD_F = "a*sin(u) + b + c*x"
# Explicit: with the default 1e-8 the solve at h = 5e-4 stalls near 1.4e-8,
# the O(h^-2) rounding floor of Au (see NOTES.md).
PICARD_RESIDUAL_TOL = 1e-7


def picard_inputs(rng, n, sizes, work):
    return coefficients(rng, n, a=(0.1, 0.5), b=(0.5, 2.0), c=(0.0, 1.0))


def picard_run(inp, sizes, work):
    f = nl.parse(PICARD_F, bindings=inp)
    problem = sv.Problem(
        axes=[TimeScale.parse(PICARD_AXIS)],
        f=f,
        mesh=MeshParams(h=sizes.picard_h),
        hypotheses=nl.GrowthHypotheses(L=inp["a"]),
        config=sv.SolverConfig(residual_tol=PICARD_RESIDUAL_TOL),
    )
    return problem, sv.picard_solve(problem)


def solution_check(inp, out, sizes):
    return check_solution(*out)


# ---------------------------------------------------------------------------
# homotopy-3d


HOMOTOPY_AXIS = "[0,1],2"
HOMOTOPY_F = "-a*u + sin(u) + b + c*x1*x2*x3"
ONE_SIDED_EPS = 0.5


def one_sided_pair(a: float, b: float, c: float, xmax: float) -> tuple[float, float]:
    """(alpha, C) with f(x, eta) eta <= alpha eta^2 + C for every eta.

    eta sin(eta) <= eta^2 and |b + c x1 x2 x3| <= B, so
    f eta <= (1 - a) eta^2 + B |eta| <= (1 - a + eps) eta^2 + B^2 / (4 eps).
    """
    bound = abs(b) + abs(c) * xmax**3
    return 1.0 - a + ONE_SIDED_EPS, bound**2 / (4.0 * ONE_SIDED_EPS)


def homotopy_inputs(rng, n, sizes, work):
    # Iteration counts depend mostly on a and dip to ~90 near a = 1; this
    # range keeps them near 150-180, so op times vary little between ops.
    return coefficients(rng, n, a=(0.25, 0.5), b=(0.5, 2.0), c=(0.0, 1.0))


def homotopy_run(inp, sizes, work):
    f = nl.parse(HOMOTOPY_F, bindings=inp)
    axis = TimeScale.parse(HOMOTOPY_AXIS)
    alpha, cbound = one_sided_pair(inp["a"], inp["b"], inp["c"], axis.b)
    problem = sv.Problem(
        axes=[axis] * 3,
        f=f,
        mesh=MeshParams(h=sizes.homotopy_h),
        hypotheses=nl.GrowthHypotheses(alpha=alpha, cbound=cbound),
    )
    return problem, sv.homotopy_solve(problem)


# ---------------------------------------------------------------------------
# enumerate-2u


ENUM1_AXES = ("0,1,2,3",)
ENUM1_F = "c + u^2"  # no real root for any c > 0
ENUM1_BOX = 100.0
ENUM2_AXES = ("0,1,2,3", "5,7,10", "4,6,7")
ENUM2_F = "s*u^2"
ENUM2_BOX = 20.0
# u1 components of the roots of Au + u^2 = 0 on ENUM2_AXES, besides u = 0
ENUM2_CUBIC = (1.0, 68.0 / 9.0, 1462.0 / 81.0, 1075.0 / 81.0)


def enumerate_inputs(rng, n, sizes, work):
    # s >= 0.5 keeps every root (largest component 3.35 at s = 1) in box 20
    return coefficients(rng, n, c=(0.25, 4.0), s=(0.5, 4.0))


def enumerate_run(inp, sizes, work):
    p1 = sv.Problem(
        axes=[TimeScale.parse(t) for t in ENUM1_AXES],
        f=nl.parse(ENUM1_F, bindings={"c": inp["c"]}),
    )
    r1 = sv.enumerate_small(p1, box=ENUM1_BOX, grid_density=sizes.enum_density1)
    p2 = sv.Problem(
        axes=[TimeScale.parse(t) for t in ENUM2_AXES],
        f=nl.parse(ENUM2_F, bindings={"s": inp["s"]}),
    )
    r2 = sv.enumerate_small(p2, box=ENUM2_BOX, grid_density=sizes.enum_density2)
    return p1, r1, p2, r2


def enumerate_check(inp, out, sizes):
    p1, r1, p2, r2 = out
    if r1.solutions or r1.status is not sv.Status.NO_REAL_SOLUTION_SUSPECTED:
        return Check(False, f"call 1: {len(r1.solutions)} roots, status {r1.status.value}")
    if len(r2.solutions) != 4:
        return Check(False, f"call 2: {len(r2.solutions)} roots, expected 4")
    cubic = np.roots(ENUM2_CUBIC)
    want = sorted(list(cubic.real / inp["s"]) + [0.0])
    got = sorted(float(s.u.interior.ravel()[0]) for s in r2.solutions)
    for g, w in zip(got, want):
        if not abs(g - w) <= 1e-6 * max(1.0, abs(w)):
            return Check(False, f"call 2: root u1 = {g!r}, closed form {w!r}")
    for s in r2.solutions:
        res = independent_residual(p2, s.u.values)
        if not res <= 1e-9:
            return Check(False, f"call 2: root residual {res:.3e}")
    lam1 = r2.solutions[0].lambda1
    return Check(True, lam1_relerr=relerr_vs_shooting(p2.axes, lam1))


# ---------------------------------------------------------------------------
# cli-mixed


CLI_F1 = "a*sin(u) + b + c*x"
CLI_F2 = "a*sin(u) + b + c*x1*x2"


def cli_inputs(rng, n, sizes, work):
    """Write two config files per op: a 1D hybrid scale with seeded
    scattered points, and the unit square; both seed their f parameters."""
    first = stratified(rng, n, 1.5, 2.0)
    gap = stratified(rng, n, 0.5, 1.0)
    one = coefficients(rng, n, a=(0.1, 0.5), b=(0.5, 2.0), c=(0.0, 1.0))
    two = coefficients(rng, n, a=(0.5, 4.0), b=(0.5, 2.0), c=(0.0, 4.0))
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i in range(n):
        p1 = round(float(first[i]), 6)
        p2 = round(p1 + float(gap[i]), 6)
        cfg1 = {
            "axes": [f"[0,1],{p1!r},{p2!r}"],
            "mesh": {"h": sizes.cli_h1},
            "f": CLI_F1,
            "params": one[i],
            "hypotheses": {"L": one[i]["a"]},
            "solver": {"method": "picard"},
        }
        cfg2 = {
            "axes": ["[0,1]", "[0,1]"],
            "mesh": {"h": sizes.cli_h2},
            "f": CLI_F2,
            "params": two[i],
            "hypotheses": {"L": two[i]["a"]},
            "solver": {"method": "picard"},
        }
        paths = []
        for tag, cfg in (("1d", cfg1), ("2d", cfg2)):
            path = cfg_dir / f"op{i:04d}-{tag}.json"
            path.write_text(json.dumps(cfg))
            paths.append(str(path))
        inputs.append({"config_1d": paths[0], "config_2d": paths[1], "cfg_1d": cfg1, "cfg_2d": cfg2})
    return inputs


def cli_run(inp, sizes, work):
    out = Path(tempfile.mkdtemp(prefix="op-", dir=work))
    commands = [
        ["spectrum", "--config", inp["config_1d"], "--k", "3", "--out", str(out / "spectrum")],
        ["solve", "--config", inp["config_1d"], "--format", "json", "--out", str(out / "solve1d")],
        ["solve", "--config", inp["config_2d"], "--out", str(out / "solve2d")],
    ]
    results = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        results.append((code, buf.getvalue()))
    return out, results


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _problem_of(cfg: dict) -> sv.Problem:
    """The problem a config describes, built without the CLI's own parser."""
    return sv.Problem(
        axes=[TimeScale.parse(t) for t in cfg["axes"]],
        f=nl.parse(cfg["f"], bindings=cfg["params"]),
        mesh=MeshParams(h=cfg["mesh"]["h"]),
    )


def cli_check(inp, out, sizes):
    outdir, results = out
    try:
        files = [p for p in outdir.rglob("*") if p.is_file()]
        written = {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}
        codes = [code for code, _ in results]
        if codes != [0, 0, 0]:
            return Check(False, f"exit codes {codes}", **written)
        try:
            return _cli_check(inp, outdir, results, written)
        except (OSError, ValueError, KeyError, IndexError) as err:
            return Check(False, f"unreadable output: {type(err).__name__}: {err}", **written)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _cli_check(inp, outdir: Path, results, written: dict) -> Check:
    p1 = _problem_of(inp["cfg_1d"])
    grid = discretize(p1.axes[0], p1.mesh)
    lam1, tol = grid_lambda1(p1.axes, p1.mesh)

    # spectrum --k 3
    printed = dict(
        line.split(" = ", 1) for line in results[0][1].splitlines() if " = " in line
    )
    if not abs(float(printed["lambda1"]) - lam1) <= tol + 1e-11 * lam1:
        return Check(False, f"printed lambda1 {printed['lambda1']} != {lam1!r}", **written)
    eig = _read_csv(outdir / "spectrum" / "eigenvalues.csv")
    if eig.shape != (3, 2) or not abs(eig[0, 1] - lam1) <= tol:
        return Check(False, f"eigenvalues.csv: shape {eig.shape}, first {eig[:1]}", **written)
    for k in (1, 2, 3):
        phi = _read_csv(outdir / "spectrum" / f"eigenfunction_{k:02d}.csv")
        if phi.shape != (len(grid.points), 2) or not np.isfinite(phi).all():
            return Check(False, f"eigenfunction_{k:02d}.csv malformed", **written)

    # solve --format json (1D)
    diag1 = json.loads(results[1][1])
    if diag1["status"] != "converged" or not abs(diag1["lambda1"] - lam1) <= tol:
        return Check(False, f"1D solve: {diag1['status']}, lambda1 {diag1['lambda1']!r}", **written)
    json.loads((outdir / "solve1d" / "diagnostics.json").read_text())
    sol1 = json.loads((outdir / "solve1d" / "solution.json").read_text())
    res1 = independent_residual(p1, np.array(sol1["values"], dtype=float))
    if not res1 <= p1.config.residual_tol:
        return Check(False, f"1D solve: recomputed residual {res1:.3e}", **written)

    # solve, CSV output (2D)
    diag2 = json.loads(results[2][1])
    json.loads((outdir / "solve2d" / "diagnostics.json").read_text())
    if diag2["status"] != "converged":
        return Check(False, f"2D solve: {diag2['status']}", **written)
    p2 = _problem_of(inp["cfg_2d"])
    rows = _read_csv(outdir / "solve2d" / "solution.csv")
    shape = tuple(len(discretize(ts, p2.mesh).points) for ts in p2.axes)
    if rows.shape != (math.prod(shape), 3):
        return Check(False, f"solution.csv has shape {rows.shape}", **written)
    res2 = independent_residual(p2, rows[:, 2].reshape(shape))
    if not res2 <= p2.config.residual_tol:
        return Check(False, f"2D solve: recomputed residual {res2:.3e}", **written)
    return Check(True, lam1_relerr=relerr_vs_shooting(p1.axes, diag1["lambda1"]), **written)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("picard-1d", picard_inputs, picard_run, solution_check),
        Workload("homotopy-3d", homotopy_inputs, homotopy_run, solution_check),
        Workload("enumerate-2u", enumerate_inputs, enumerate_run, enumerate_check),
        Workload("cli-mixed", cli_inputs, cli_run, cli_check),
    )
}
