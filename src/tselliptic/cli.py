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
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import nonlinearity as nl
from . import operator as op_mod
from . import solver as sv
from . import spectral as sp
from .timescale import GridFunction, MeshParams, TimeScale

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_CONFIG = 3

METHODS = ("picard", "homotopy", "enumerate")
FORMATS = ("csv", "json")

# The config format.  A dict is an object with those keys ({str: T} takes
# any key), [T] is a list of T, and a type is the JSON value a key takes.
# Each solver key takes the type of its SolverConfig default.
SCHEMA = {
    "axes": [str],
    "mesh": {"h": float, "counts": [int]},
    "f": str,
    "params": {str: float},
    "hypotheses": {"L": float, "alpha": float, "C": float},
    "solver": {
        "method": str,
        **{f.name: type(f.default) for f in dataclasses.fields(sv.SolverConfig)},
    },
    "output": {"dir": str, "formats": [str]},
}
# The JSON values of each type.  A bool is an int in Python, so true and
# false pass where a bool is asked for and nowhere else.
_KINDS = {
    dict: (dict, "an object"),
    list: (list, "a list"),
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
}


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def check_config(value, spec=SCHEMA, where: str = "config") -> None:
    """Raise ConfigError at the first value of another JSON type than
    ``spec`` asks for, or at the first key that it does not name."""
    kind = type(spec) if isinstance(spec, (dict, list)) else spec
    kinds, name = _KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value)}")
    if kind is dict:
        for key, item in value.items():
            if key not in spec and str not in spec:
                raise ConfigError(f"unknown key {key!r} in {where}")
            path = key if where == "config" else f"{where}.{key}"
            check_config(item, spec.get(key, spec.get(str)), path)
    elif kind is list:
        for i, item in enumerate(value):
            check_config(item, spec[0], f"{where}[{i}]")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None


def build_problem(cfg: dict, h_override: float | None = None) -> tuple[sv.Problem, str]:
    """Check a config against SCHEMA and translate it into a Problem;
    returns (problem, method)."""
    check_config(cfg)
    if "axes" not in cfg:
        raise ConfigError("config needs 'axes': a list of time-scale literals")
    mesh, hyp = cfg.get("mesh", {}), cfg.get("hypotheses", {})
    solver = dict(cfg.get("solver", {}))
    method = solver.pop("method", "picard")
    if method not in METHODS:
        raise ConfigError(f"unknown solver method {method!r}")
    try:
        axes = [TimeScale.parse(s) for s in cfg["axes"]]
        problem = sv.Problem(
            axes=axes,
            f=nl.parse(cfg.get("f", "0"), cfg.get("params"), len(axes)),
            mesh=MeshParams(
                h=mesh.get("h") if h_override is None else h_override,
                counts=mesh.get("counts"),
            ),
            hypotheses=nl.GrowthHypotheses(*map(hyp.get, ("L", "alpha", "C"))),
            config=sv.SolverConfig(**solver),
        )
        problem.grids  # surface empty interiors, mesh errors and the grid budget
    except nl.ParseError as err:
        raise ConfigError(f"bad expression for f: {err}") from None
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return problem, method


def run_method(problem: sv.Problem, method: str):
    """A Solution of the named method, or an EnumerationResult."""
    if method == "enumerate":
        return sv.enumerate_small(
            problem, box=problem.config.box, grid_density=problem.config.density
        )
    return (sv.picard_solve if method == "picard" else sv.homotopy_solve)(problem)


def _json(obj, **kwargs) -> str:
    """Strict JSON text; a NaN or an infinity is written as null."""
    return json.dumps(_finite(obj), allow_nan=False, **kwargs)


def _finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _resolve_output(args, cfg: dict) -> tuple[Path | None, str]:
    """Command-line flags win; the config's output block supplies defaults."""
    out_cfg = cfg.get("output", {})
    out = args.out if args.out is not None else out_cfg.get("dir")
    fmt = args.format or next(iter(out_cfg.get("formats", [])), "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    outdir = None
    if out is not None:
        outdir = Path(out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"cannot create output directory {out}: {err.strerror}"
            ) from None
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
            (outdir / "spectrum.json").write_text(_json(payload, indent=2))
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
        (outdir / f"{name}.json").write_text(_json(payload))
    else:
        _write_csv(outdir / f"{name}.csv", axis_names + ["u"], _solution_rows(u))


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    problem, method = build_problem(cfg)
    if args.method:
        method = args.method
    outdir, fmt = _resolve_output(args, cfg)

    try:
        result = run_method(problem, method)
    except (nl.EvaluationError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    diagnostics = {"method": method, "status": result.status.value}
    if method == "enumerate":
        diagnostics |= {
            "lambda1": problem.lambda1,
            "lambda1_lower_bound": problem.lambda1_lower_bound,
            "solutions": [
                {"residual": s.residual, "interior": s.u.interior.ravel().tolist()}
                for s in result.solutions
            ],
        }
        solutions = [
            (f"solution_{i:02d}", s.u) for i, s in enumerate(result.solutions, 1)
        ]
        ok = bool(result.solutions)
    else:
        diagnostics |= {
            "residual": result.residual,
            "iterations": result.iterations,
            "lambda1": result.lambda1,
            "contraction_ratio": result.contraction_ratio,
            **result.diagnostics,
        }
        solutions = [("solution", result.u)]
        ok = result.status is sv.Status.CONVERGED
    if outdir is not None:
        for name, u in solutions:
            _write_solution(outdir, name, u, fmt)

    text = _json(diagnostics, indent=2)
    print(text)
    if outdir is not None:
        (outdir / "diagnostics.json").write_text(text)
    return EXIT_OK if ok else EXIT_NOT_CONVERGED


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
    outdir, _ = _resolve_output(args, cfg)
    kernel = op_mod.GreenKernel(ts.a, ts.b)
    value = float(kernel(args.t, args.s))
    print(f"G({args.t:g},{args.s:g}) = {value:.17g}")
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

REPORT_FIELDS = ["item", "expected", "got", "tolerance", "pass"]


def cmd_reproduce(args) -> int:
    from . import reproduce  # imported here, since reproduce imports this module

    if args.id not in reproduce.SCENARIOS:
        raise ConfigError(
            f"unknown id {args.id!r}; choose from {sorted(reproduce.SCENARIOS)}"
        )
    rows = reproduce.SCENARIOS[args.id]()
    all_ok = all(r.ok for r in rows)
    width = max(len(r.item) for r in rows)
    for r in rows:
        print(
            f"{r.item:<{width}}  expected={r.expected:<22.12g} "
            f"got={r.got:<22.12g} {'PASS' if r.ok else 'FAIL'}"
        )
    print(f"{args.id}: {'PASS' if all_ok else 'FAIL'}")
    outdir, fmt = _resolve_output(args, {})
    if outdir is not None:
        records = [dataclasses.astuple(r) for r in rows]
        if fmt == "json":
            payload = [dict(zip(REPORT_FIELDS, rec)) for rec in records]
            (outdir / "report.json").write_text(_json(payload, indent=2))
        else:
            _write_csv(outdir / "report.csv", REPORT_FIELDS, records)
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
    p_solve.add_argument("--method", choices=METHODS, default=None)
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
    p.add_argument("--format", choices=FORMATS, default=None)


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
