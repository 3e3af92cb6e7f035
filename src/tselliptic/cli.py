"""Command-line front end.

Subcommands::

    tselliptic spectrum  --config CFG [--k N] [--h STEP] [--out DIR] [--format FMT]
    tselliptic solve     --config CFG [--method NAME] [--out DIR] [--format FMT]
    tselliptic greens    --config CFG --t T --s S [--apply FILE] [--out DIR]
    tselliptic reproduce ID [--out DIR] [--format FMT]

Exit codes: 0 success/converged, 2 not converged or no solution found,
3 configuration error.  CSV output is RFC-4180-style with '.' decimal
separator and 17 significant digits; plot data is plain two-column text.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import nonlinearity as nl
from . import operator as op_mod
from . import solver as sv
from . import spectral as sp
from .timescale import (
    GridFunction,
    MeshParams,
    TimeScale,
    discretize,
)

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(
        cfg, {"axes", "mesh", "f", "params", "hypotheses", "solver", "output"}, "config"
    )
    if "axes" not in cfg:
        raise ConfigError("config needs 'axes': a list of time-scale literals")
    return cfg


def build_problem(cfg: dict, h_override: float | None = None) -> tuple[sv.Problem, str]:
    """Translate a config dict into a Problem; returns (problem, method)."""
    axes_lit = cfg["axes"]
    if isinstance(axes_lit, str):
        axes_lit = [axes_lit]
    if not isinstance(axes_lit, list) or not axes_lit:
        raise ConfigError("'axes' must be a nonempty list of strings")
    try:
        axes = [TimeScale.parse(s) for s in axes_lit]
    except ValueError as err:
        raise ConfigError(f"bad time-scale literal: {err}") from None

    mesh_cfg = cfg.get("mesh", {})
    _check_keys(mesh_cfg, {"h", "counts"}, "'mesh'")
    try:
        mesh = MeshParams(
            h=h_override if h_override is not None else mesh_cfg.get("h"),
            counts=tuple(mesh_cfg["counts"]) if "counts" in mesh_cfg else None,
        )
    except ValueError as err:
        raise ConfigError(f"bad mesh: {err}") from None

    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object of named constants")
    try:
        f = nl.parse(cfg.get("f", "0"), bindings=params, dim=len(axes))
    except nl.ParseError as err:
        raise ConfigError(f"bad expression for f: {err}") from None

    hyp_cfg = cfg.get("hypotheses", {})
    _check_keys(hyp_cfg, {"L", "alpha", "C"}, "'hypotheses'")
    try:
        hypotheses = nl.GrowthHypotheses(
            L=hyp_cfg.get("L"), alpha=hyp_cfg.get("alpha"), cbound=hyp_cfg.get("C")
        )
    except ValueError as err:
        raise ConfigError(f"bad hypotheses: {err}") from None

    sol_cfg = dict(cfg.get("solver", {}))
    _check_keys(
        sol_cfg,
        {
            "method",
            "step_tol",
            "residual_tol",
            "max_iter",
            "homotopy_steps",
            "initial_guess",
            "accept_estimated_L",
            "force",
            "assume_hypotheses",
            "box",
            "density",
        },
        "'solver'",
    )
    method = sol_cfg.pop("method", "picard")
    if method not in ("picard", "homotopy", "enumerate"):
        raise ConfigError(f"unknown solver method {method!r}")
    try:
        config = sv.SolverConfig(**sol_cfg)
    except TypeError as err:
        raise ConfigError(f"bad solver config: {err}") from None

    out_cfg = cfg.get("output", {})
    _check_keys(out_cfg, {"dir", "formats"}, "'output'")

    try:
        problem = sv.Problem(
            axes=axes, f=f, mesh=mesh, hypotheses=hypotheses, config=config
        )
        problem.grids  # surface empty interiors and mesh errors up front
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return problem, method


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _resolve_output(args, cfg: dict | None) -> tuple[Path | None, str]:
    """Command-line flags win; the config's output block supplies defaults."""
    out_cfg = (cfg or {}).get("output", {})
    out = args.out if args.out is not None else out_cfg.get("dir")
    fmt = args.format if args.format is not None else None
    if fmt is None:
        formats = out_cfg.get("formats", [])
        fmt = formats[0] if formats else "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format {fmt!r}")
    outdir = None
    if out is not None:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
    return outdir, fmt


# --- spectrum ---------------------------------------------------------------


def cmd_spectrum(args) -> int:
    if args.k is not None and args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    cfg = load_config(args.config)
    problem, _ = build_problem(cfg, h_override=args.h)
    outdir, fmt = _resolve_output(args, cfg)

    k = args.k or (problem.spectra[0].count if problem.n == 1 else 8)
    entries = sp.tensor_spectrum(problem.spectra, k).entries

    lower = problem.lambda1_lower_bound
    print(",".join(format(l, ".12g") for _, l in entries))
    print(f"lambda1 = {problem.lambda1:.12g}")
    print(f"lower bound = {lower:.12g}")
    shoot_lam1 = None
    if problem.n == 1:
        shoot_lam1 = float(sp.eigen_shooting(problem.axes[0], 1)[0])
        print(f"shooting lambda1 = {shoot_lam1:.12g}")

    if outdir is not None:
        if fmt == "json":
            payload = {
                "eigenvalues": [
                    {"index": list(idx), "lambda": l} for idx, l in entries
                ],
                "lambda1": problem.lambda1,
                "lambda1_lower_bound": lower,
            }
            if shoot_lam1 is not None:
                payload["shooting_lambda1"] = shoot_lam1
            (outdir / "spectrum.json").write_text(json.dumps(payload, indent=2))
        else:
            _write_csv(
                outdir / "eigenvalues.csv",
                ["index", "eigenvalue"],
                [("-".join(map(str, idx)), float(l)) for idx, l in entries],
            )
            if problem.n == 1:
                spec = problem.spectra[0]
                for i in range(len(entries)):
                    _write_csv(
                        outdir / f"eigenfunction_{i + 1:02d}.csv",
                        ["t", "phi"],
                        zip(map(float, spec.grid.points), map(float, spec.phis[i])),
                    )
    return EXIT_OK


# --- solve ------------------------------------------------------------------


def _solution_rows(u: GridFunction):
    coords = [g.points for g in u.grids]
    for idx in np.ndindex(*u.values.shape):
        yield tuple(float(c[i]) for c, i in zip(coords, idx)) + (
            float(u.values[idx]),
        )


def _write_solution(outdir: Path, name: str, u: GridFunction, fmt: str):
    axis_names = [f"x{i + 1}" for i in range(u.ndim)]
    if fmt == "json":
        payload = {
            "axes": [[float(t) for t in g.points] for g in u.grids],
            "values": u.values.tolist(),
        }
        (outdir / f"{name}.json").write_text(json.dumps(payload))
    else:
        _write_csv(outdir / f"{name}.csv", axis_names + ["u"], _solution_rows(u))


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem, method = build_problem(cfg)
    if args.method:
        method = args.method
    outdir, fmt = _resolve_output(args, cfg)

    diagnostics: dict
    exit_code = EXIT_OK
    try:
        if method == "enumerate":
            result = sv.enumerate_small(
                problem, box=problem.config.box, grid_density=problem.config.density
            )
            diagnostics = {
                "method": method,
                "status": result.status.value,
                "lambda1": problem.lambda1,
                "lambda1_lower_bound": problem.lambda1_lower_bound,
                "solutions": [
                    {
                        "residual": s.residual,
                        "interior": s.u.interior.ravel().tolist(),
                    }
                    for s in result.solutions
                ],
            }
            if outdir is not None:
                for i, s in enumerate(result.solutions, 1):
                    _write_solution(outdir, f"solution_{i:02d}", s.u, fmt)
            if not result.solutions:
                exit_code = EXIT_NOT_CONVERGED
        else:
            solve_fn = sv.picard_solve if method == "picard" else sv.homotopy_solve
            sol = solve_fn(problem)
            diagnostics = {
                "method": method,
                "status": sol.status.value,
                "residual": sol.residual,
                "iterations": sol.iterations,
                "lambda1": sol.lambda1,
                "contraction_ratio": sol.contraction_ratio,
                **sol.diagnostics,
            }
            if outdir is not None:
                _write_solution(outdir, "solution", sol.u, fmt)
            if sol.status is not sv.Status.CONVERGED:
                exit_code = EXIT_NOT_CONVERGED
    except (sv.HypothesisError, nl.EvaluationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    text = json.dumps(diagnostics, indent=2)
    print(text)
    if outdir is not None:
        (outdir / "diagnostics.json").write_text(text)
    return exit_code


# --- greens -----------------------------------------------------------------


def cmd_greens(args) -> int:
    cfg = load_config(args.config)
    problem, _ = build_problem(cfg)
    if problem.n != 1:
        raise ConfigError("greens needs a one-dimensional domain")
    ts = problem.axes[0]
    for name, v in (("t", args.t), ("s", args.s)):
        if not ts.a <= v <= ts.b:
            raise ConfigError(f"{name} = {v:g} is outside [{ts.a:g}, {ts.b:g}]")
    kernel = op_mod.GreenKernel(ts.a, ts.b)
    value = float(kernel(args.t, args.s))
    print(f"G({args.t:g},{args.s:g}) = {value:.17g}")
    outdir, _ = _resolve_output(args, cfg)
    if args.apply is not None:
        grid = problem.grids[0]
        op = op_mod.assemble(grid)
        f = _read_function_file(args.apply, grid)
        y = op_mod.tridiag_solve(op, f)
        if outdir is not None:
            _write_csv(
                outdir / "inverse.csv",
                ["t", "y"],
                zip(map(float, grid.points), map(float, y.values)),
            )
        else:
            for t, v in zip(grid.points, y.values):
                print(f"{_fmt(float(t))},{_fmt(float(v))}")
    return EXIT_OK


def _read_function_file(path: str, grid) -> GridFunction:
    """Read rows of ``t,value`` matching the grid points exactly."""
    try:
        rows = [
            line.split(",")
            for line in Path(path).read_text().strip().splitlines()
            if line.strip() and not line.lower().startswith("t,")
        ]
        data = {float(t): float(v) for t, v in rows}
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read function file {path}: {err}") from None
    try:
        values = [data[float(t)] for t in grid.points]
    except KeyError as missing:
        raise ConfigError(f"function file misses grid point {missing}") from None
    return GridFunction(grid, np.array(values))


# --- reproduce --------------------------------------------------------------


def _scenarios() -> dict:
    discrete = "0,1,2,3"
    hybrid = "[0,1],2,3"
    return {
        "table-1": _reproduce_table1,
        "ex-7.1": _reproduce_ex71,
        "ex-7.2": _reproduce_ex72,
        "ex-7.3": lambda: _reproduce_linear(discrete, "1", [-1.0, -1.0], 1e-12),
        "ex-7.4": lambda: _reproduce_linear(
            discrete, "1+x1", [-7.0 / 3.0, -8.0 / 3.0], 1e-12
        ),
        "ex-7.5": _reproduce_ex75,
        "ex-7.6": _reproduce_ex76,
        "ex-7.7": _reproduce_ex77,
        "ex-7.8": _reproduce_ex78,
        "ex-7.9": _reproduce_ex79,
    }


def _check(name, got, expected, tol):
    ok = abs(got - expected) <= tol
    return (name, expected, got, tol, ok)


def _check_true(name, flag):
    return (name, True, flag, 0, bool(flag))


def _reproduce_table1():
    rows = []
    lam_cont = float(sp.eigen_shooting(TimeScale.parse("[0,3]"), 1)[0])
    rows.append(_check("[0,3] lambda1 (shooting)", lam_cont, math.pi**2 / 9, 1e-9))
    grid = discretize(TimeScale.parse("[0,3]"), MeshParams(h=1e-3))
    lam_mat = float(sp.spectrum_1d(grid, 1).eigenvalues[0])
    rows.append(_check("[0,3] lambda1 (matrix h=1e-3)", lam_mat, math.pi**2 / 9, 1e-4))
    lam_disc = float(
        sp.spectrum_1d(discretize(TimeScale.parse("0,1,2,3"))).eigenvalues[0]
    )
    rows.append(_check("{0,1,2,3} lambda1", lam_disc, 1.0, 1e-12))
    lam_hyb = float(sp.eigen_shooting(TimeScale.parse("[0,1],2,3"), 1)[0])
    rows.append(_check("[0,1]u{2,3} lambda1 (shooting)", lam_hyb, 0.840, 1e-3))
    return rows


def _reproduce_ex71():
    rows = []
    spec = sp.spectrum_1d(discretize(TimeScale.parse("0,1,2,3")))
    tensor = sp.tensor_spectrum([spec, spec], 4)
    for lam, expected in zip(tensor.eigenvalues, (2.0, 4.0, 4.0, 6.0)):
        rows.append(_check("2D eigenvalue", float(lam), expected, 1e-10))
    p = sv.Problem(
        axes=[TimeScale.parse("0,1,2,3")] * 2,
        f=nl.parse("1"),
        hypotheses=nl.GrowthHypotheses(L=0.0),
    )
    sol = sv.picard_solve(p)
    rows.append(_check("residual", sol.residual, 0.0, 1e-10))
    rows.append(
        _check("max |u - (-1/2)|", float(np.abs(sol.u.interior + 0.5).max()), 0.0, 1e-10)
    )
    return rows


def _reproduce_ex72():
    rows = []
    ts = TimeScale.parse("[0,1],2,3")
    lams = sp.eigen_shooting(ts, 3)
    for lam, expected in zip(lams, (0.840, 2.600, 11.907)):
        rows.append(_check("shooting eigenvalue", float(lam), expected, 1e-3))
    p = sv.Problem(
        axes=[ts],
        f=nl.parse("C", bindings={"C": 1.0}),
        hypotheses=nl.GrowthHypotheses(L=0.0),
        mesh=MeshParams(h=2e-3),
    )
    sol = sv.picard_solve(p)
    t = p.grids[0].points
    exact = np.where(t <= 1.0, (3 * t**2 - 11 * t) / 6.0, -7.0 / 6.0)
    exact[-1] = 0.0
    dev = float(np.abs(sol.u.values - exact)[1:-1].max())
    # the grid weights make the scheme exact for this piecewise quadratic,
    # at the junction too, so only rounding remains
    rows.append(_check("max |u - closed form| (h=2e-3)", dev, 0.0, 1e-9))
    rows.append(_check("u(2)", float(sol.u.values[-2]), -7.0 / 6.0, 1e-9))
    return rows


def _reproduce_linear(axis, f_text, expected, tol):
    p = sv.Problem(
        axes=[TimeScale.parse(axis)],
        f=nl.parse(f_text),
        hypotheses=nl.GrowthHypotheses(L=0.0),
    )
    sol = sv.picard_solve(p)
    rows = [_check("residual", sol.residual, 0.0, tol)]
    for got, want in zip(sol.u.interior, expected):
        rows.append(_check("u", float(got), want, tol))
    return rows


def _reproduce_ex75():
    p = sv.Problem(
        axes=[TimeScale.parse("0,1,2,3")],
        f=nl.parse("-2*u"),
        hypotheses=nl.GrowthHypotheses(L=2.0, alpha=0.5, cbound=0.0),
    )
    sol = sv.homotopy_solve(p)
    return [
        _check_true("homotopy converged", sol.status is sv.Status.CONVERGED),
        _check("max |u|", float(np.abs(sol.u.interior).max()), 0.0, 1e-12),
        _check("residual", sol.residual, 0.0, 1e-12),
    ]


def _reproduce_ex76():
    p = sv.Problem(axes=[TimeScale.parse("0,1,2,3")], f=nl.parse("2*u"))
    res = sv.enumerate_small(p, box=10.0, grid_density=41)
    rows = [_check("solution count", float(len(res.solutions)), 1.0, 0)]
    if res.solutions:
        rows.append(
            _check(
                "max |u|",
                float(np.abs(res.solutions[0].u.interior).max()),
                0.0,
                1e-9,
            )
        )
        rows.append(_check("residual", res.solutions[0].residual, 0.0, 1e-12))
    return rows


def _reproduce_ex77():
    p = sv.Problem(
        axes=[TimeScale.parse("0,1,2,3")],
        f=nl.parse("-u"),
        hypotheses=nl.GrowthHypotheses(L=1.0, alpha=0.5, cbound=0.0),
    )
    picard = sv.picard_solve(p)
    homotopy = sv.homotopy_solve(p)
    return [
        _check_true(
            "picard refuses (non_contraction)",
            picard.status is sv.Status.NON_CONTRACTION,
        ),
        _check_true("homotopy converged", homotopy.status is sv.Status.CONVERGED),
        _check("homotopy residual", homotopy.residual, 0.0, 1e-8),
        _check_true(
            "non-uniqueness risk flagged", homotopy.diagnostics["nonuniqueness_risk"]
        ),
    ]


def _reproduce_ex78():
    p = sv.Problem(axes=[TimeScale.parse("0,1,2,3")], f=nl.parse("1+u^2"))
    res = sv.enumerate_small(p, box=100.0, grid_density=200)
    quartic_min = 0.0
    if len(res.candidates):
        u1 = res.candidates[:, 0]
        quartic_min = float((u1**4 + 4 * u1**3 + 8 * u1**2 + 7 * u1 + 4).min())
    return [
        _check("solution count", float(len(res.solutions)), 0.0, 0),
        _check_true(
            "status no_real_solution_suspected",
            res.status is sv.Status.NO_REAL_SOLUTION_SUSPECTED,
        ),
        _check_true("reduced quartic positive at candidates", quartic_min > 0.0),
    ]


def _reproduce_ex79():
    axes = [
        TimeScale.parse("0,1,2,3"),
        TimeScale.parse("5,7,10"),
        TimeScale.parse("4,6,7"),
    ]
    p = sv.Problem(axes=axes, f=nl.parse("u^2"))
    diag_sum = float(sum(op.diag[0] for op in p.operators))
    rows = [_check("diagonal coefficient", diag_sum, 34.0 / 9.0, 1e-12)]
    res = sv.enumerate_small(p, box=20.0, grid_density=200)
    rows.append(_check("solution count (u^2)", float(len(res.solutions)), 4.0, 0))
    u1s = sorted(s.u.interior.ravel()[0] for s in res.solutions)
    cubic_roots = sorted(np.roots([1.0, 68.0 / 9.0, 1462.0 / 81.0, 1075.0 / 81.0]).real)
    for got, want in zip(u1s, cubic_roots + [0.0]):
        rows.append(_check("root u(1,7,6)", float(got), float(want), 1e-6))
    p2 = sv.Problem(axes=axes, f=nl.parse("1+2*u^2"))
    res2 = sv.enumerate_small(p2, box=20.0, grid_density=200)
    rows.append(_check("solution count (1+2u^2)", float(len(res2.solutions)), 0.0, 0))
    return rows


def cmd_reproduce(args) -> int:
    scenarios = _scenarios()
    if args.id not in scenarios:
        print(
            f"error: unknown id {args.id!r}; choose from {sorted(scenarios)}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    rows = scenarios[args.id]()
    all_ok = all(r[4] for r in rows)
    width = max(len(r[0]) for r in rows)
    for name, expected, got, tol, ok in rows:
        mark = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  expected={expected:<22.12g} got={got:<22.12g} {mark}")
    print(f"{args.id}: {'PASS' if all_ok else 'FAIL'}")
    outdir, fmt = _resolve_output(args, None)
    if outdir is not None:
        if fmt == "json":
            payload = [
                {
                    "item": r[0],
                    "expected": float(r[1]),
                    "got": float(r[2]),
                    "tolerance": float(r[3]),
                    "pass": bool(r[4]),
                }
                for r in rows
            ]
            (outdir / "report.json").write_text(json.dumps(payload, indent=2))
        else:
            _write_csv(
                outdir / "report.csv",
                ["item", "expected", "got", "tolerance", "pass"],
                [
                    (r[0], float(r[1]), float(r[2]), float(r[3]), str(r[4]))
                    for r in rows
                ],
            )
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


# --- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tselliptic",
        description="Elliptic Dirichlet problems on time scales",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="eigenvalues and eigenfunctions")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--k", type=int, default=None)
    p_spec.add_argument("--h", type=float, default=None, help="mesh step override")
    _common_flags(p_spec)

    p_solve = sub.add_parser("solve", help="solve the nonlinear problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument(
        "--method", choices=["picard", "homotopy", "enumerate"], default=None
    )
    _common_flags(p_solve)

    p_green = sub.add_parser("greens", help="Green's function queries")
    p_green.add_argument("--config", required=True)
    p_green.add_argument("--t", type=float, required=True)
    p_green.add_argument("--s", type=float, required=True)
    p_green.add_argument("--apply", default=None, help="CSV of t,value to invert")
    _common_flags(p_green)

    p_rep = sub.add_parser("reproduce", help="run a canned reference scenario")
    p_rep.add_argument("id", help="ex-7.1 .. ex-7.9 or table-1")
    _common_flags(p_rep)
    return parser


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=["csv", "json"], default=None)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "spectrum": cmd_spectrum,
        "solve": cmd_solve,
        "greens": cmd_greens,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
