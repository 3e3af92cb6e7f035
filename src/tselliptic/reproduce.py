"""Reference scenarios behind ``tselliptic reproduce ID``.

Every problem is a config dict built by ``cli.build_problem``, the path a
``--config`` file takes, and solved by the method the config names.  A
scenario returns one :class:`Row` per checked value; the CLI prints the
rows and writes them to ``report.csv`` or ``report.json``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cli
from . import solver as sv
from . import spectral as sp
from .timescale import MeshParams, TimeScale, discretize

DISCRETE = "0,1,2,3"
HYBRID = "[0,1],2,3"


@dataclass(frozen=True)
class Row:
    """One checked value; ``ok`` when |got - expected| <= tolerance."""

    item: str
    expected: float
    got: float
    tolerance: float
    ok: bool


def _check(item: str, got, expected, tol) -> Row:
    ok = bool(abs(got - expected) <= tol)
    return Row(item, float(expected), float(got), float(tol), ok)


def _check_true(item: str, flag) -> Row:
    return Row(item, 1.0, float(flag), 0.0, bool(flag))


def _solve(**cfg):
    """The problem a config describes, and the result of its solver method."""
    problem, method = cli.build_problem(cfg)
    return problem, cli.run_method(problem, method)


def _table_1() -> list[Row]:
    exact = math.pi**2 / 9
    grid = discretize(TimeScale.parse("[0,3]"), MeshParams(h=1e-3))
    discrete = sp.spectrum_1d(discretize(TimeScale.parse(DISCRETE)))
    return [
        _check(
            "[0,3] lambda1 (shooting)",
            float(sp.eigen_shooting(TimeScale.parse("[0,3]"), 1)[0]),
            exact,
            1e-9,
        ),
        _check(
            "[0,3] lambda1 (matrix h=1e-3)",
            float(sp.spectrum_1d(grid, 1).eigenvalues[0]),
            exact,
            1e-4,
        ),
        _check("{0,1,2,3} lambda1", float(discrete.eigenvalues[0]), 1.0, 1e-12),
        _check(
            "[0,1]u{2,3} lambda1 (shooting)",
            float(sp.eigen_shooting(TimeScale.parse(HYBRID), 1)[0]),
            0.840,
            1e-3,
        ),
    ]


def _ex_7_1() -> list[Row]:
    p, sol = _solve(axes=[DISCRETE] * 2, f="1", hypotheses={"L": 0.0})
    eigenvalues = sp.tensor_spectrum(p.spectra, 4).eigenvalues
    return [
        _check("2D eigenvalue", float(lam), expected, 1e-10)
        for lam, expected in zip(eigenvalues, (2.0, 4.0, 4.0, 6.0))
    ] + [
        _check("residual", sol.residual, 0.0, 1e-10),
        _check("max |u - (-1/2)|", float(np.abs(sol.u.interior + 0.5).max()), 0, 1e-10),
    ]


def _ex_7_2() -> list[Row]:
    p, sol = _solve(
        axes=[HYBRID],
        f="C",
        params={"C": 1.0},
        hypotheses={"L": 0.0},
        mesh={"h": 2e-3},
    )
    lams = sp.eigen_shooting(p.axes[0], 3)
    rows = [
        _check("shooting eigenvalue", float(lam), expected, 1e-3)
        for lam, expected in zip(lams, (0.840, 2.600, 11.907))
    ]
    t = p.grids[0].points
    exact = np.where(t <= 1.0, (3 * t**2 - 11 * t) / 6.0, -7.0 / 6.0)
    exact[-1] = 0.0
    dev = float(np.abs(sol.u.values - exact)[1:-1].max())
    # the grid weights make the scheme exact for this piecewise quadratic,
    # at the junction too, so only rounding remains
    return rows + [
        _check("max |u - closed form| (h=2e-3)", dev, 0.0, 1e-9),
        _check("u(2)", float(sol.u.values[-2]), -7.0 / 6.0, 1e-9),
    ]


def _linear(f: str, expected: list[float]) -> list[Row]:
    _, sol = _solve(axes=[DISCRETE], f=f, hypotheses={"L": 0.0})
    return [_check("residual", sol.residual, 0.0, 1e-12)] + [
        _check("u", float(got), want, 1e-12)
        for got, want in zip(sol.u.interior, expected)
    ]


def _ex_7_5() -> list[Row]:
    _, sol = _solve(
        axes=[DISCRETE],
        f="-2*u",
        hypotheses={"L": 2.0, "alpha": 0.5, "C": 0.0},
        solver={"method": "homotopy"},
    )
    return [
        _check_true("homotopy converged", sol.status is sv.Status.CONVERGED),
        _check("max |u|", float(np.abs(sol.u.interior).max()), 0.0, 1e-12),
        _check("residual", sol.residual, 0.0, 1e-12),
    ]


def _ex_7_6() -> list[Row]:
    _, res = _solve(
        axes=[DISCRETE],
        f="2*u",
        solver={"method": "enumerate", "box": 10.0, "density": 41},
    )
    rows = [_check("solution count", float(len(res.solutions)), 1.0, 0)]
    for s in res.solutions[:1]:
        rows += [
            _check("max |u|", float(np.abs(s.u.interior).max()), 0.0, 1e-9),
            _check("residual", s.residual, 0.0, 1e-12),
        ]
    return rows


def _ex_7_7() -> list[Row]:
    p, picard = _solve(
        axes=[DISCRETE], f="-u", hypotheses={"L": 1.0, "alpha": 0.5, "C": 0.0}
    )
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


def _ex_7_8() -> list[Row]:
    _, res = _solve(
        axes=[DISCRETE],
        f="1+u^2",
        solver={"method": "enumerate", "box": 100.0, "density": 200},
    )
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


def _ex_7_9() -> list[Row]:
    axes = [DISCRETE, "5,7,10", "4,6,7"]
    solver = {"method": "enumerate", "box": 20.0, "density": 200}
    p, res = _solve(axes=axes, f="u^2", solver=solver)
    diag_sum = float(sum(op.diag[0] for op in p.operators))
    rows = [
        _check("diagonal coefficient", diag_sum, 34.0 / 9.0, 1e-12),
        _check("solution count (u^2)", float(len(res.solutions)), 4.0, 0),
    ]
    u1s = sorted(s.u.interior.ravel()[0] for s in res.solutions)
    cubic_roots = sorted(np.roots([1.0, 68.0 / 9.0, 1462.0 / 81.0, 1075.0 / 81.0]).real)
    for got, want in zip(u1s, cubic_roots + [0.0]):
        rows.append(_check("root u(1,7,6)", float(got), float(want), 1e-6))
    _, res2 = _solve(axes=axes, f="1+2*u^2", solver=solver)
    rows.append(_check("solution count (1+2u^2)", float(len(res2.solutions)), 0.0, 0))
    return rows


SCENARIOS = {
    "table-1": _table_1,
    "ex-7.1": _ex_7_1,
    "ex-7.2": _ex_7_2,
    "ex-7.3": functools.partial(_linear, "1", [-1.0, -1.0]),
    "ex-7.4": functools.partial(_linear, "1+x1", [-7.0 / 3.0, -8.0 / 3.0]),
    "ex-7.5": _ex_7_5,
    "ex-7.6": _ex_7_6,
    "ex-7.7": _ex_7_7,
    "ex-7.8": _ex_7_8,
    "ex-7.9": _ex_7_9,
}
