"""Nonlinear Dirichlet solvers on product domains.

The problem -Laplacian(u) + f(x, u) = 0 with zero boundary values is the
operator equation Au = -F(u), so the fixed-point map iterated here is
u <- Ainv(-F(u)), on interior arrays: only the result is a grid function.
One Kronecker-sum function applies A (the dense matrix of a small system
is A applied to the identity).  Both solvers apply Ainv through one
function: in 1D Ainv is the Green's function's quadrature, two O(n)
cumulative sums; in higher dimensions Ainv goes into the product
eigenbasis one axis at a time and back.  Both are exact in finite
dimension.

One corrector iterates u <- tau * Ainv(-F(u)) for both solvers (tau = 1 for
Picard, each tau of the homotopy): plain steps, then Anderson mixing of the
same map once a step grows or plain steps run long, so no Jacobian is needed
at any size.  Its stops short of convergence (residual floor, non-finite or
diverging step, cap) have one note text each, shared by both solvers.

Three regimes:

* ``picard_solve`` -- contraction mapping when the Lipschitz constant of f
  is below the first eigenvalue; refuses to iterate otherwise.  A forced
  run past the gate may still converge through mixing, and then its
  residual is its only certificate.
* ``homotopy_solve`` -- under the one-sided growth condition, one corrector
  run straight at tau = 1, kept when it converges inside the a priori norm
  bound; otherwise continuation u = tau * Ainv(-F(u)) from tau = 0 to 1,
  with the bound enforced along the path; certifies existence by residual
  only.
* ``enumerate_small`` -- multi-start Newton enumeration of tiny algebraic
  systems (<= 3 unknowns), the honest fallback when neither hypothesis
  holds.  The starts are the columns of one array; they run in blocks of
  NEWTON_BLOCK columns, and each Newton step solves a block's d x d systems
  at once by Cramer's rule.  Starts where f is undefined or not finite die.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import nonlinearity as nl
from . import operator as op_mod
from . import spectral as sp
from .timescale import (
    MAX_AXIS_POINTS,
    Grid,
    GridFunction,
    MeshParams,
    TimeScale,
    array_norm,
    axis_apply,
    discretize,
)


# Plain fixed-point steps a corrector call takes before Anderson mixing
# starts, and the cap of the homotopy's attempt at tau = 1.  Mixing keeps
# ANDERSON_DEPTH + 1 iterates and steps in memory, so it stays off while
# plain steps converge: on the homotopy-3d benchmark the attempt converges
# in 11 to 14 plain steps, and a step of the march takes at most 12.
PLAIN_STEPS = 50
ANDERSON_DEPTH = 5

# Newton starts that enumerate_small runs together.  A block runs through
# all its steps before the next starts, so its arrays stay in cache.  On the
# enumerate-2u benchmark (2-core Xeon, 2 MiB L2 per core), blocks of 16,384
# and 32,768 tied as fastest among 4,096 to 65,536.  At 16,384 the arrays
# of one step (256 KiB each at d = 2) about fill L2, and op times varied
# twice as much as at 32,768, where they outgrow L2 whatever else runs.
NEWTON_BLOCK = 32_768

# The note of each corrector stop short of convergence; "cap" names the
# limit it reached, and the homotopy adds the tau it stopped at.
STOP_NOTES = {
    "floor": "stalled: step below tolerance with residual above",
    "non_finite": "non-finite: step or residual is NaN or infinite",
    "diverged": "diverged: step norm grew by more than 1e6",
    "cap": "{limit} reached",
}


class HypothesisError(ValueError):
    """A solver precondition on the growth hypotheses is violated."""


class Status(Enum):
    CONVERGED = "converged"
    NON_CONTRACTION = "non_contraction"
    MAX_ITERATIONS = "max_iterations"
    NO_REAL_SOLUTION_SUSPECTED = "no_real_solution_suspected"


@dataclass
class SolverConfig:
    step_tol: float = 1e-10
    residual_tol: float = 1e-8
    max_iter: int = 10_000
    homotopy_steps: int = 20
    initial_guess: float = 0.0
    accept_estimated_L: bool = False
    force: bool = False
    assume_hypotheses: bool = False
    box: float = 10.0
    density: int = 41

    def __post_init__(self):
        if self.step_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iter < 1 or self.homotopy_steps < 1:
            raise ValueError("iteration counts must be at least 1")
        if self.box <= 0 or self.density < 2:
            raise ValueError("need box > 0 and density >= 2")


@dataclass
class Problem:
    """Domain, mesh, nonlinearity, and solver configuration."""

    axes: list[TimeScale]
    f: nl.Expression
    mesh: MeshParams = field(default_factory=MeshParams)
    hypotheses: nl.GrowthHypotheses = field(default_factory=nl.GrowthHypotheses)
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError("problem dimension must be between 1 and 4")
        if (k := nl.max_coordinate(self.f)) > self.n:
            raise ValueError(f"nonlinearity uses x{k} but the domain has dimension {self.n}")

    @property
    def n(self) -> int:
        return len(self.axes)

    @functools.cached_property
    def grids(self) -> tuple[Grid, ...]:
        grids = tuple(discretize(ts, self.mesh) for ts in self.axes)
        # one grid function over the product may hold as many doubles as
        # one axis's dense eigenbasis
        points = math.prod(len(g.points) for g in grids)
        if points > MAX_AXIS_POINTS**2:
            raise ValueError(
                f"the product grid needs {points} points at this mesh; "
                f"it holds at most {MAX_AXIS_POINTS**2}"
            )
        return grids

    @functools.cached_property
    def interior_points(self) -> tuple[np.ndarray, ...]:
        """Each axis's interior points, where u may be nonzero: a solve reads f
        only at their product."""
        return tuple(g.points[1:-1] for g in self.grids)

    @functools.cached_property
    def operators(self) -> tuple[op_mod.DirichletOperator1D, ...]:
        return tuple(op_mod.assemble(g) for g in self.grids)

    @functools.cached_property
    def spectra(self) -> tuple[sp.Spectrum1D, ...]:
        return _per_grid(sp.spectrum_1d, self.grids)

    @functools.cached_property
    def lambda1(self) -> float:
        # one eigenpair per axis; the full eigenbasis waits for a caller
        lowest = _per_grid(lambda g: sp.spectrum_1d(g, 1), self.grids)
        return float(sum(s.eigenvalues[0] for s in lowest))

    @property
    def lambda1_lower_bound(self) -> float:
        return sp.lambda1_lower_bound(self.axes)

    @property
    def volume(self) -> float:
        return math.prod(ts.b - ts.a for ts in self.axes)


def _per_grid(fn, grids: Sequence[Grid]) -> tuple:
    """``fn`` of each grid, called once per distinct grid: equal axes
    (equal points and weights) share one result."""
    results = {g: fn(g) for g in dict.fromkeys(grids)}
    return tuple(results[g] for g in grids)


@dataclass
class Solution:
    u: GridFunction
    residual: float
    status: Status
    iterations: int
    lambda1: float
    contraction_ratio: float | None = None
    diagnostics: dict = field(default_factory=dict)


def apply_operator(ops: Sequence[op_mod.DirichletOperator1D], v) -> np.ndarray:
    """Kronecker-sum action of the per-axis Dirichlet operators on the
    leading ``len(ops)`` axes of an interior array; trailing axes ride
    along, so a stack of vectors goes at once."""
    out = np.zeros_like(v)
    for ax, op in enumerate(ops):
        w = np.moveaxis(v, ax, 0)
        o = np.moveaxis(out, ax, 0)
        shape = (-1,) + (1,) * (v.ndim - 1)
        o += op.diag.reshape(shape) * w
        o[:-1] += op.sup[:-1].reshape(shape) * w[1:]
        o[1:] += op.sub[1:].reshape(shape) * w[:-1]
    return out


def spectral_inverse(spectra: Sequence[sp.Spectrum1D], f: np.ndarray) -> np.ndarray:
    """Exact inverse of the Kronecker-sum operator on interior arrays.

    Transforms f into the tensor eigenbasis one axis at a time, divides by
    the eigenvalue sums, and transforms back; satisfies
    ||Ainv f|| <= ||f|| / lambda_1.
    """
    weights = [s.grid.weights[1:-1] for s in spectra]
    coeff = axis_apply(f, [s.phis[:, 1:-1] for s in spectra], weights)
    coeff /= functools.reduce(np.add.outer, [s.eigenvalues for s in spectra])
    return axis_apply(coeff, [s.phis[:, 1:-1].T for s in spectra])


def _inverse(problem: Problem, f: np.ndarray) -> np.ndarray:
    """The solvers' Ainv: the Green sums in 1D, and the per-axis eigenbasis
    transform otherwise."""
    if problem.n == 1:
        return op_mod.tridiag_solve(problem.operators[0], f)
    return spectral_inverse(problem.spectra, f)


def _F(problem: Problem, u: np.ndarray) -> np.ndarray:
    """F(u) for an interior array u."""
    return nl.substitute(problem.f, problem.interior_points, u)


def _norm(problem: Problem, v: np.ndarray) -> float:
    """The grid norm of an interior array: the boundary values are 0."""
    return array_norm(v, [g.weights[1:-1] for g in problem.grids])


def residual(problem: Problem, u: GridFunction) -> float:
    """Norm of Au + F(u) over interior points, in the grid weights.

    Uses the direct tridiagonal operator action, independent of the
    spectral route that produced u.
    """
    if not u.boundary_max() <= op_mod.BOUNDARY_TOL:  # NaN fails too
        raise ValueError("residual requires zero boundary values")
    return _residual(problem, u.interior, _F(problem, u.interior))


def _residual(problem: Problem, u: np.ndarray, Fu: np.ndarray) -> float:
    """:func:`residual` of an interior array u, given F(u)."""
    return _norm(problem, apply_operator(problem.operators, u) + Fu)


def apriori_radius(
    lambda1: float, alpha: float, cbound: float, volume: float
) -> float:
    """Norm bound sqrt(C |Omega| / (lambda_1 - alpha)) for the homotopy path."""
    if alpha >= lambda1:
        raise HypothesisError(
            f"one-sided coefficient alpha = {alpha} must be below "
            f"lambda_1 = {lambda1}"
        )
    return math.sqrt(cbound * volume / (lambda1 - alpha))


def _resolve_lipschitz(problem: Problem) -> tuple[float, bool]:
    hyp = problem.hypotheses
    if hyp.L is not None:
        return hyp.L, False
    if not problem.config.accept_estimated_L:
        raise HypothesisError(
            "no Lipschitz constant given; supply hypotheses.L or set "
            "accept_estimated_L to use the sampled estimate"
        )
    box = problem.config.box
    L = nl.estimate_lipschitz(
        problem.f, problem.interior_points, (-box, box), max(problem.config.density, 11)
    )
    return L, True


def picard_solve(problem: Problem) -> Solution:
    """Fixed-point iteration u <- Ainv(-F(u)) under the contraction gate.

    Refuses outright (status ``non_contraction``) when L / lambda_1 >= 1,
    unless the configuration forces iteration.
    """
    cfg = problem.config
    L, estimated = _resolve_lipschitz(problem)
    lam1 = problem.lambda1
    ratio_bound = L / lam1
    diag = {"L": L, "L_is_estimate": estimated, "contraction_bound": ratio_bound,
            "lambda1_lower_bound": problem.lambda1_lower_bound}
    if ratio_bound >= 1.0 and not cfg.force:
        run = _Run.start(problem)
        res = _residual(problem, run.u, run.Fu)
        u = GridFunction.from_interior(problem.grids, run.u)
        return Solution(u, res, Status.NON_CONTRACTION, 0, lam1, None, diag)
    with np.errstate(over="ignore", invalid="ignore"):
        run = _Run.start(problem)
        _fixed_point(problem, run, 1.0, cfg.max_iter, cfg.residual_tol)
    status = Status.CONVERGED if run.reason == "converged" else Status.MAX_ITERATIONS
    if run.reason != "converged":
        limit = f"max_iter: {cfg.max_iter} iterations"
        diag["note"] = STOP_NOTES[run.reason].format(limit=limit)
    u = GridFunction.from_interior(problem.grids, run.u)
    return Solution(u, run.residual, status, run.steps, lam1, run.ratio, diag)


def _dense_operator(problem: Problem) -> np.ndarray:
    """Materialize the Kronecker-sum operator (small systems only)."""
    shape = tuple(g.n_interior for g in problem.grids)
    d = math.prod(shape)
    return apply_operator(problem.operators, np.eye(d).reshape(shape + (d,))).reshape(d, d)


def _anderson(xs: Sequence[np.ndarray], gs: Sequence[np.ndarray]) -> np.ndarray:
    """Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).

    From iterates ``xs`` and their fixed-point steps ``gs = T(x) - x``,
    oldest first, take the affine combination of the steps with the least
    squares norm and return the next iterate it points to.  With a single
    iterate this is the plain step x + g.
    """
    x, g = xs[-1], gs[-1]
    dx = np.diff(np.reshape(xs, (len(xs), -1)), axis=0).T
    dg = np.diff(np.reshape(gs, (len(gs), -1)), axis=0).T
    gamma = np.linalg.lstsq(dg, g.ravel(), rcond=None)[0]
    return x + g - ((dx + dg) @ gamma).reshape(x.shape)


@dataclass
class _Run:
    """An iterate u and F(u), which the corrector advances in place so that
    no caller holds an earlier iterate, and how its last call ended."""

    u: np.ndarray  # interior values, as are those of Fu
    Fu: np.ndarray
    steps: int = 0
    ratio: float | None = None  # largest ratio of successive step norms
    residual: float | None = None  # of u, when the call had a residual_tol
    reason: str = "converged"  # or a key of STOP_NOTES

    @staticmethod
    def start(problem: Problem) -> _Run:
        shape = [g.n_interior for g in problem.grids]
        u = np.full(shape, problem.config.initial_guess, dtype=float)
        return _Run(u, _F(problem, u))


def _fixed_point(problem: Problem, run: _Run, tau: float, cap: int,
                 residual_tol: float | None = None) -> None:
    """Advance ``run`` by at most ``cap`` steps u <- tau * Ainv(-F(u)): plain
    steps until one grows by more than 1 % or PLAIN_STEPS pass, then Anderson
    mixing.  With ``residual_tol`` a residual at or below it converges and a
    step below ``step_tol`` is the ``floor``; without one that step
    converges.  An iterate that goes non-finite is kept."""
    step_tol = problem.config.step_tol
    xs, gs = [], []  # Anderson history, kept once mixing is on
    first_step = prev_step = run.ratio = run.residual = None
    run.steps, run.reason = 0, "cap"
    for it in range(1, cap + 1):
        threshold = step_tol * (1.0 + _norm(problem, run.u))
        Tu = _inverse(problem, -tau * run.Fu)
        # a plain step keeps no copy of T(u) - u, which bounds peak memory
        step = _norm(problem, Tu - run.u)
        if prev_step is not None:
            r = step / prev_step
            run.ratio = r if run.ratio is None else max(run.ratio, r)
        first_step = step if first_step is None else first_step
        finite, small = math.isfinite(step), step <= threshold
        if finite and not small and (
            xs or it > PLAIN_STEPS or (prev_step is not None and step > prev_step * 1.01)
        ):
            xs = (xs + [run.u])[-ANDERSON_DEPTH - 1 :]
            gs = (gs + [Tu - run.u])[-ANDERSON_DEPTH - 1 :]
            run.u = _anderson(xs, gs)
        else:
            run.u = Tu
        # F of each iterate serves its residual and the next step
        run.Fu = _F(problem, run.u)
        run.steps = it
        if residual_tol is not None:
            run.residual = _residual(problem, run.u, run.Fu)
            if run.residual <= residual_tol:
                run.reason = "converged"
                return
            finite = finite and math.isfinite(run.residual)
        if not finite:
            run.reason = "non_finite"
        elif step > 1e6 * max(first_step, 1e-300):
            run.reason = "diverged"
        elif small:
            run.reason = "converged" if residual_tol is None else "floor"
        else:
            prev_step = step
            continue
        return


def _refusal(problem: Problem, run: _Run, limit: str, bound_sq: float) -> str | None:
    """Why the corrector run at one tau is refused, or None when it converged
    with the iterate inside the a priori ball ``norm^2 <= bound_sq``."""
    if run.reason != "converged":
        return STOP_NOTES[run.reason].format(limit=limit)
    if (nrm_sq := _norm(problem, run.u) ** 2) > bound_sq:
        return f"iterate norm^2 = {nrm_sq:.6g} exceeded the a priori bound {bound_sq:.6g}"
    return None


def homotopy_solve(problem: Problem) -> Solution:
    """Solve u = Ainv(-F(u)) by one corrector run at tau = 1, falling back to
    continuation in tau for u = tau * Ainv(-F(u)), warm-started.

    The attempt runs from u0 at tau = 1 for at most PLAIN_STEPS steps (or
    ``max_iter``, if smaller) and is kept when it converges to ``step_tol``
    with the iterate inside the a priori ball, the test the march applies
    after each of its steps.  Otherwise the march of ``homotopy_steps``
    equal tau-steps starts again from u0 with the iterations that are left;
    with ``homotopy_steps == 1`` the march is the attempt, so only the march
    runs.  ``diagnostics["path"]`` is ``"direct"`` or ``"march"``,
    ``diagnostics["attempt_iterations"]`` the attempt's steps (counted in
    ``iterations`` too), and ``diagnostics["attempt_note"]`` why a march
    replaced the attempt.

    Existence is certified only by the final residual; uniqueness is never
    claimed, and the diagnostics flag the risk when L >= lambda_1.  A run
    that does not converge says why in ``diagnostics["note"]``, and a march
    that stops gives ``diagnostics["last_good_tau"]``.
    """
    cfg = problem.config
    hyp = problem.hypotheses
    lam1 = problem.lambda1
    if hyp.alpha is None or hyp.cbound is None:
        raise HypothesisError(
            "homotopy needs the one-sided pair (alpha, cbound) in hypotheses"
        )
    radius = apriori_radius(lam1, hyp.alpha, hyp.cbound, problem.volume)
    if not cfg.assume_hypotheses:
        span = max(10.0, 2.0 * radius)
        witness = nl.check_one_sided(
            problem.f, problem.interior_points, hyp.alpha, hyp.cbound, (-span, span)
        )
        if witness is not None:
            raise HypothesisError(
                f"one-sided condition violated at x = {witness[0]}, "
                f"eta = {witness[1]}"
            )
    risk = hyp.L is not None and hyp.L >= lam1 * (1.0 - 1e-9)
    diag = {"apriori_radius": radius, "nonuniqueness_risk": risk,
            "lambda1_lower_bound": problem.lambda1_lower_bound,
            "path": "march", "attempt_iterations": 0}
    bound_sq = 1.1 * radius**2 + 1e-14
    total_iters = 0
    last_good_tau = 0.0
    note = None
    J = cfg.homotopy_steps
    inner_cap = max(200, cfg.max_iter // J)
    with np.errstate(over="ignore", invalid="ignore"):
        run = _Run.start(problem)
        march = J  # tau-steps the march takes
        if J > 1:
            cap = min(PLAIN_STEPS, cfg.max_iter)
            _fixed_point(problem, run, 1.0, cap)
            total_iters = diag["attempt_iterations"] = run.steps
            limit = f"attempt cap: {cap} steps"
            if (refusal := _refusal(problem, run, limit, bound_sq)) is None:
                diag["path"], last_good_tau, march = "direct", 1.0, 0
            else:
                diag["attempt_note"] = f"{refusal} at tau = 1"
                # no iterate of the attempt is kept, so the peak does not grow
                run = _Run.start(problem)
        for j in range(1, march + 1):
            tau = j / J
            cap = min(inner_cap, cfg.max_iter - total_iters)
            _fixed_point(problem, run, tau, cap)
            total_iters += run.steps
            limit = (f"inner cap: {inner_cap} steps" if cap == inner_cap
                     else f"max_iter: {cfg.max_iter} iterations")
            if (refusal := _refusal(problem, run, limit, bound_sq)) is not None:
                note = f"{refusal} at tau = {tau:.3g}"
                diag["last_good_tau"] = last_good_tau
                break
            last_good_tau = tau
        res = _residual(problem, run.u, run.Fu)
    # tau = J / J is exactly 1.0 once every continuation step has succeeded
    converged = last_good_tau == 1.0 and res <= cfg.residual_tol
    if note is None and not converged:
        note = f"residual {res:.3g} above residual_tol {cfg.residual_tol:g}"
    if note is not None:
        diag["note"] = note
    status = Status.CONVERGED if converged else Status.MAX_ITERATIONS
    u = GridFunction.from_interior(problem.grids, run.u)
    return Solution(u, res, status, total_iters, lam1, diagnostics=diag)


# ---------------------------------------------------------------------------
# Brute-force enumeration for tiny systems


@dataclass
class EnumerationResult:
    solutions: list[Solution]
    candidates: np.ndarray  # deduplicated polished end points, shape (k, d)
    status: Status


def _det(M):
    """Determinant of a square nested list of scalars and same-shape arrays,
    expanded along the first row (cheap for the d <= 3 systems here)."""
    if len(M) == 1:
        return M[0][0]
    det = None
    for j, m in enumerate(M[0]):
        # one product per cofactor term, added or subtracted by its sign
        term = m * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        det = term if det is None else det - term if j % 2 else det + term
    return det


def _cramer(J, r) -> np.ndarray:
    """Solve J x = r by Cramer's rule, entrywise over arrays: ``J`` is a
    nested list as in ``_det`` and ``r`` has one row per unknown.  Where J
    is singular the solution is not finite."""
    cols = [
        _det([row[:i] + [ri] + row[i + 1 :] for row, ri in zip(J, r)])
        for i in range(len(J))
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.array(cols) / _det(J)


def _slopes(f_vals, u: np.ndarray) -> np.ndarray:
    """Central difference quotients of f in u at each column of ``u``: the
    diagonal that f adds to the Jacobian A + diag(f'(u))."""
    h = 1e-6 * np.maximum(1.0, np.abs(u))
    return (f_vals(u + h) - f_vals(u - h)) / (2.0 * h)


def _newton(A: np.ndarray, f_vals, u: np.ndarray, alive: np.ndarray):
    """At most 80 Newton steps for Au + F(u) = 0 from each column of the
    block ``u``, which it advances in place.  A start dies, leaving
    ``alive``, where F(u) is not finite, where it must step and its
    difference quotient is not, or where u leaves [-1e8, 1e8]^d; a start
    whose residual meets the tolerance, or whose Jacobian is singular, stays
    where it is.  Returns the last residuals and the max-norm of each u."""
    for steps in range(81):  # Newton steps taken so far, at most 80
        R = A @ u + f_vals(u)
        alive &= np.isfinite(R).all(axis=0)
        scale = np.abs(u).max(axis=0)
        active = alive & ~(np.abs(R).max(axis=0) <= 1e-11 * (1.0 + scale))
        if steps == 80 or not active.any():
            return R, scale
        fp = _slopes(f_vals, u)
        alive &= ~active | np.isfinite(fp).all(axis=0)
        # the Jacobian A + diag(f'(u)): arrays on the diagonal, scalars off it
        J = [[a + fp[i] if i == j else a for j, a in enumerate(row)]
             for i, row in enumerate(A)]
        step = _cramer(J, R)
        np.subtract(u, step, out=u, where=active & np.isfinite(step).all(axis=0))
        # leaving [-1e8, 1e8]^d kills a start, so live starts are finite
        alive &= (np.abs(u) <= 1e8).all(axis=0)
        np.copyto(u, np.nan, where=~alive)


def enumerate_small(
    problem: Problem, box: float, grid_density: int
) -> EnumerationResult:
    """Multi-start Newton over a dense lattice in [-box, box]^d.

    The starts are the columns of one (d, S) array.  They run in blocks of
    NEWTON_BLOCK columns, each block through all its Newton steps while it
    stays in cache, and every step solves a block's d x d systems at once
    by Cramer's rule.  Starts where f is undefined or not finite die.
    Polishes every start, keeps distinct converged roots inside the box,
    and reports ``no_real_solution_suspected`` when nothing converges.
    """
    if box <= 0 or grid_density < 2:
        raise ValueError("need box > 0 and grid_density >= 2")
    shape = tuple(g.n_interior for g in problem.grids)
    d = math.prod(shape)
    if d > 3:
        raise ValueError(f"enumeration supports at most 3 unknowns, got {d}")
    if (starts := grid_density**d) > MAX_AXIS_POINTS**2:
        raise ValueError(
            f"density {grid_density} gives {starts} Newton starts; "
            f"enumeration takes at most {MAX_AXIS_POINTS**2}"
        )
    A = _dense_operator(problem)
    # coordinates of the unknowns (C order of the interior tensor) as columns
    xs = [c.reshape(-1, 1) for c in np.meshgrid(*problem.interior_points, indexing="ij")]

    def f_vals(u: np.ndarray) -> np.ndarray:  # u: (d, S)
        try:
            out = nl.evaluate_arrays(problem.f, xs, u)
            if isinstance(out, np.ndarray) and out.shape == u.shape and out.dtype == float:
                return out
            return np.broadcast_to(out, u.shape).astype(float, copy=False)
        except nl.EvaluationError as err:
            # NaN where f is undefined, so that _newton kills those starts
            res = np.full(u.shape, np.nan)
            mask = True if err.mask is None else err.mask
            bad = np.broadcast_to(mask, u.shape).any(axis=0)
            if (~bad).any():
                res[:, ~bad] = f_vals(u[:, ~bad])
            return res

    lattice = np.meshgrid(*[np.linspace(-box, box, grid_density)] * d, indexing="ij")
    u = np.array([m.ravel() for m in lattice])  # (d, S): one start per column
    del lattice
    alive = np.ones(starts, dtype=bool)
    inside = np.empty_like(alive)  # converged to a root inside the box
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, starts, NEWTON_BLOCK):
            block = slice(lo, lo + NEWTON_BLOCK)
            R, scale = _newton(A, f_vals, u[:, block], alive[block])
            inside[block] = (
                alive[block]
                & (np.abs(R).max(axis=0) <= 1e-10 * (1.0 + scale))
                & (scale <= box * (1.0 + 1e-9))
            )
        roots = _dedupe(u.T[inside], 1e-6, exact=True)
        roots, singular = _merge_singular(A, f_vals, roots, 1e-6)
    candidates = _dedupe(u.T[alive], 1e-6, exact=False)
    solutions = [
        Solution(GridFunction.from_interior(problem.grids, r),
                 _residual(problem, r, _F(problem, r)), Status.CONVERGED, 0,
                 problem.lambda1,
                 diagnostics={"route": "enumeration", "near_singular": bool(flag)})
        for r, flag in zip((root.reshape(shape) for root in roots), singular)
    ]
    status = Status.CONVERGED if solutions else Status.NO_REAL_SOLUTION_SUSPECTED
    return EnumerationResult(solutions=solutions, candidates=candidates, status=status)


def _merge_singular(A: np.ndarray, f_vals, roots: np.ndarray, tol: float):
    """Merge the copies of a near-singular root among distinct ``roots``
    (one per row); returns the kept roots, in their order, and a flag per
    kept root that says whether it is near-singular.

    Where the Jacobian J = A + diag(f'(u)) is singular, Newton converges
    only linearly and stops wherever the residual R meets its tolerance, so
    the starts leave copies of the root spread wider than ``tol``.  Near a
    fold, R ~ c e^2 / 2 and J's least singular value s ~ c e at a distance
    e from the exact root, so e ~ 2 |R| / s; each root's radius is twice
    that.  A root is near-singular when its radius exceeds ``tol``, the
    spread that deduplication merges.  Two near-singular roots within the
    sum of their radii are one: the one of smaller radius is kept."""
    u = roots.T  # (d, k)
    res = np.linalg.norm(A @ u + f_vals(u), axis=0)
    J = A + _slopes(f_vals, u).T[:, :, None] * np.eye(len(A))  # (k, d, d)
    smin = np.full(len(roots), np.inf)  # no radius where J is not finite
    known = np.isfinite(J).all(axis=(1, 2))
    smin[known] = np.linalg.svd(J[known], compute_uv=False)[:, -1]
    with np.errstate(divide="ignore"):  # a singular J gives an infinite radius
        radius = np.where(res > 0, 4.0 * res / smin, 0.0)
    singular = radius > tol
    keep = ~singular
    firsts: list[int] = []  # the kept near-singular roots
    near = np.flatnonzero(singular)
    for i in near[np.argsort(radius[near], kind="stable")]:
        if all(np.linalg.norm(roots[i] - roots[j]) > radius[i] + radius[j] for j in firsts):
            firsts.append(i)
    keep[firsts] = True
    return roots[keep], singular[keep]


def _dedupe(points: np.ndarray, tol: float, exact: bool) -> np.ndarray:
    """Collapse near-duplicates: cell rounding, then (optionally) a greedy
    pass so clusters straddling a cell edge still merge."""
    if len(points) == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    key = np.round(points / tol).astype(np.int64)
    # one stable sort of the cells; its first point in each cell is the
    # cell's first point in ``points``
    order = np.lexsort(key.T[::-1])
    key = key[order]
    new_cell = np.ones(len(key), dtype=bool)
    new_cell[1:] = (key[1:] != key[:-1]).any(axis=1)
    reps = points[np.sort(order[new_cell])]
    if not exact or len(reps) > 512:
        return reps
    order = np.lexsort(reps.T[::-1])
    kept: list[np.ndarray] = []
    for p in reps[order]:
        if all(np.abs(p - q).max() > tol for q in kept):
            kept.append(p)
    return np.array(kept)
