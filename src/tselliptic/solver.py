"""Nonlinear Dirichlet solvers on product domains.

The problem -Laplacian(u) + f(x, u) = 0 with zero boundary values is the
operator equation Au = -F(u), so the fixed-point map iterated here is
u <- Ainv(-F(u)).  One Kronecker-sum function applies A (the dense matrix
of a small system is A applied to the identity); Ainv goes into the product
eigenbasis one axis at a time and back, which is exact in finite dimension.

Three regimes:

* ``picard_solve`` -- contraction mapping when the Lipschitz constant of f
  is below the first eigenvalue; refuses to iterate otherwise.
* ``homotopy_solve`` -- continuation u = tau * Ainv(-F(u)) from tau = 0 to
  1 under the one-sided growth condition, with the a priori norm bound
  enforced along the path; certifies existence by residual only.  Each
  continuation step takes plain fixed-point steps and switches to Anderson
  mixing of the same map when a step grows or the plain steps run long, so
  it needs no Jacobian and works at every size.
* ``enumerate_small`` -- dense multi-start Newton enumeration of tiny
  algebraic systems (<= 3 unknowns), the honest fallback when neither
  hypothesis holds.
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
    Grid,
    GridFunction,
    MeshParams,
    TimeScale,
    discretize,
    product_delta_norm,
)


# Plain fixed-point steps a continuation step takes before Anderson mixing
# starts.  Mixing keeps ANDERSON_DEPTH + 1 iterates and steps in memory, so
# it stays off while plain steps converge: on the homotopy-3d benchmark a
# continuation step takes at most 12 iterations.
PLAIN_STEPS = 50
ANDERSON_DEPTH = 5


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
        if not 1 <= len(self.axes) <= 4:
            raise ValueError("problem dimension must be between 1 and 4")
        if nl.max_coordinate(self.f) > len(self.axes):
            raise ValueError(
                f"nonlinearity uses x{nl.max_coordinate(self.f)} but the "
                f"domain has dimension {len(self.axes)}"
            )

    @property
    def n(self) -> int:
        return len(self.axes)

    @functools.cached_property
    def grids(self) -> tuple[Grid, ...]:
        return tuple(discretize(ts, self.mesh) for ts in self.axes)

    @functools.cached_property
    def operators(self) -> tuple[op_mod.DirichletOperator1D, ...]:
        return tuple(op_mod.assemble(g) for g in self.grids)

    @functools.cached_property
    def spectra(self) -> tuple[sp.Spectrum1D, ...]:
        return tuple(sp.spectrum_1d(g) for g in self.grids)

    @property
    def lambda1(self) -> float:
        return float(sum(s.eigenvalues[0] for s in self.spectra))

    @property
    def lambda1_lower_bound(self) -> float:
        return sp.lambda1_lower_bound(self.axes)

    @property
    def volume(self) -> float:
        return math.prod(ts.b - ts.a for ts in self.axes)

    def constant_function(self, c: float) -> GridFunction:
        return GridFunction.zeros(self.grids).with_interior(c)


@dataclass
class Solution:
    u: GridFunction
    residual: float
    status: Status
    iterations: int
    lambda1: float
    contraction_ratio: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _kronecker_sum(ops: Sequence[op_mod.DirichletOperator1D], v) -> np.ndarray:
    """Kronecker-sum action on the leading ``len(ops)`` axes of an interior
    array; trailing axes ride along, so a stack of vectors goes at once."""
    out = np.zeros_like(v)
    for ax, op in enumerate(ops):
        w = np.moveaxis(v, ax, 0)
        o = np.moveaxis(out, ax, 0)
        shape = (-1,) + (1,) * (v.ndim - 1)
        o += op.diag.reshape(shape) * w
        if len(op.diag) > 1:
            o[:-1] += op.sup[:-1].reshape(shape) * w[1:]
            o[1:] += op.sub[1:].reshape(shape) * w[:-1]
    return out


def apply_operator(
    ops: Sequence[op_mod.DirichletOperator1D], u: GridFunction
) -> GridFunction:
    """Kronecker-sum action of the per-axis Dirichlet operators."""
    return u.with_interior(_kronecker_sum(ops, u.interior))


def spectral_inverse(
    spectra: Sequence[sp.Spectrum1D], f: GridFunction
) -> GridFunction:
    """Exact inverse of the Kronecker-sum operator via eigenexpansion.

    Transforms f into the tensor eigenbasis one axis at a time, divides by
    the eigenvalue sums, and transforms back; satisfies
    ||Ainv f|| <= ||f|| / lambda_1.
    """
    weights = [s.grid.weights[1:-1] for s in spectra]
    coeff = sp._axis_apply(f.interior, [s.phis[:, 1:-1] for s in spectra], weights)
    coeff /= functools.reduce(np.add.outer, [s.eigenvalues for s in spectra])
    return f.with_interior(sp._axis_apply(coeff, [s._synthesis for s in spectra]))


def residual(problem: Problem, u: GridFunction) -> float:
    """Norm of Au + F(u) over interior points, in the grid weights.

    Uses the direct tridiagonal operator action, independent of the
    spectral route that produced u.
    """
    if u.boundary_max() > 1e-12:
        raise ValueError("residual requires zero boundary values")
    Au = apply_operator(problem.operators, u)
    Fu = nl.nemytskii(problem.f, problem.grids, u)
    r = u.with_interior(Au.interior + Fu.interior)
    return product_delta_norm(r)


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
    est = nl.estimate_lipschitz(
        problem.f, problem.grids, (-box, box), max(problem.config.density, 11)
    )
    return est.value, True


def picard_solve(problem: Problem) -> Solution:
    """Fixed-point iteration u <- Ainv(-F(u)) under the contraction gate.

    Refuses outright (status ``non_contraction``) when L / lambda_1 >= 1,
    unless the configuration forces iteration.
    """
    cfg = problem.config
    L, estimated = _resolve_lipschitz(problem)
    lam1 = problem.lambda1
    ratio_bound = L / lam1
    diag = {
        "L": L,
        "L_is_estimate": estimated,
        "contraction_bound": ratio_bound,
        "lambda1_lower_bound": problem.lambda1_lower_bound,
    }
    u = problem.constant_function(cfg.initial_guess)
    it = 0
    ratio = None
    if ratio_bound >= 1.0 and not cfg.force:
        status = Status.NON_CONTRACTION
        res = residual(problem, u)
    else:
        status = Status.MAX_ITERATIONS
        prev_step = None
        first_step = None
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, cfg.max_iter + 1):
                Fu = nl.nemytskii(problem.f, problem.grids, u)
                u_next = spectral_inverse(
                    problem.spectra, Fu.with_interior(-Fu.interior)
                )
                step = product_delta_norm(
                    u_next.with_interior(u_next.interior - u.interior)
                )
                if prev_step is not None and prev_step > 0:
                    r = step / prev_step
                    ratio = r if ratio is None else max(ratio, r)
                if first_step is None:
                    first_step = step
                u = u_next
                res = residual(problem, u)
                if res <= cfg.residual_tol:
                    status = Status.CONVERGED
                    break
                if not (math.isfinite(step) and math.isfinite(res)):
                    diag["note"] = "non-finite: step or residual is NaN or infinite"
                    break
                if step > 1e6 * max(first_step, 1e-300):
                    diag["note"] = "diverged: step norm grew by more than 1e6"
                    break
                if step <= cfg.step_tol * (1.0 + product_delta_norm(u)):
                    diag["note"] = "stalled: step below tolerance with residual above"
                    break
                prev_step = step
    return Solution(
        u=u,
        residual=res,
        status=status,
        iterations=it,
        lambda1=lam1,
        contraction_ratio=ratio,
        diagnostics=diag,
    )


def _dense_operator(problem: Problem) -> np.ndarray:
    """Materialize the Kronecker-sum operator (small systems only)."""
    shape = tuple(g.n_interior for g in problem.grids)
    d = math.prod(shape)
    probes = np.eye(d).reshape(shape + (d,))
    return _kronecker_sum(problem.operators, probes).reshape(d, d)


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


def homotopy_solve(problem: Problem) -> Solution:
    """Continuation in tau for u = tau * Ainv(-F(u)), warm-started.

    Existence is certified only by the final residual; uniqueness is never
    claimed, and the diagnostics flag the risk when L >= lambda_1.  A run
    that does not converge says why in ``diagnostics["note"]``.
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
        report = nl.check_one_sided(
            problem.f, problem.grids, hyp.alpha, hyp.cbound, (-span, span)
        )
        if not report.passed:
            raise HypothesisError(
                f"one-sided condition violated at x = {report.witness[0]}, "
                f"eta = {report.witness[1]}"
            )
    risk = hyp.L is not None and hyp.L >= lam1 * (1.0 - 1e-9)
    diag = {
        "apriori_radius": radius,
        "nonuniqueness_risk": risk,
        "lambda1_lower_bound": problem.lambda1_lower_bound,
    }
    bound_sq = 1.1 * radius**2 + 1e-14
    u = problem.constant_function(cfg.initial_guess)
    total_iters = 0
    last_good_tau = 0.0
    note = None
    J = cfg.homotopy_steps
    inner_cap = max(200, cfg.max_iter // J)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, J + 1):
            tau = j / J
            prev_step = math.inf
            xs, gs = [], []  # Anderson history, kept once mixing is on
            for k in range(inner_cap):
                total_iters += 1
                Fu = nl.nemytskii(problem.f, problem.grids, u)
                Tu = spectral_inverse(
                    problem.spectra, Fu.with_interior(-tau * Fu.interior)
                )
                g = Tu.interior - u.interior
                step = product_delta_norm(u.with_interior(g))
                if not math.isfinite(step):
                    note = f"non-finite: step is NaN or infinite at tau = {tau:.3g}"
                    break
                if step <= cfg.step_tol * (1.0 + product_delta_norm(u)):
                    u = Tu
                    break
                if xs or k >= PLAIN_STEPS or step > prev_step * 1.01:
                    xs = (xs + [u.interior])[-ANDERSON_DEPTH - 1 :]
                    gs = (gs + [g])[-ANDERSON_DEPTH - 1 :]
                    u = u.with_interior(_anderson(xs, gs))
                else:
                    u = Tu
                prev_step = step
            else:
                note = f"inner cap: {inner_cap} steps reached at tau = {tau:.3g}"
            if note is None and (nrm_sq := product_delta_norm(u) ** 2) > bound_sq:
                note = (
                    f"iterate norm^2 = {nrm_sq:.6g} exceeded the a priori "
                    f"bound {bound_sq:.6g} at tau = {tau:.3g}"
                )
            if note is not None:
                diag["last_good_tau"] = last_good_tau
                break
            last_good_tau = tau
        res = residual(problem, u)
    # tau = J / J is exactly 1.0 once every continuation step has succeeded
    converged = last_good_tau == 1.0 and res <= cfg.residual_tol
    if note is None and not converged:
        note = f"residual {res:.3g} above residual_tol {cfg.residual_tol:g}"
    if note is not None:
        diag["note"] = note
    status = Status.CONVERGED if converged else Status.MAX_ITERATIONS
    return Solution(
        u=u,
        residual=res,
        status=status,
        iterations=total_iters,
        lambda1=lam1,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Brute-force enumeration for tiny systems


@dataclass
class EnumerationResult:
    solutions: list[Solution]
    candidates: np.ndarray  # deduplicated polished end points, shape (k, d)
    status: Status


def _batched_solve(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve J x = r for stacks of d x d systems, d <= 3, via adjugates."""
    d = J.shape[-1]
    if d == 1:
        det = J[:, 0, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return r / det[:, None]
    if d == 2:
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        x = np.empty_like(r)
        with np.errstate(divide="ignore", invalid="ignore"):
            x[:, 0] = (J[:, 1, 1] * r[:, 0] - J[:, 0, 1] * r[:, 1]) / det
            x[:, 1] = (-J[:, 1, 0] * r[:, 0] + J[:, 0, 0] * r[:, 1]) / det
        return x
    cof = np.empty_like(J)
    for i in range(3):
        for j in range(3):
            rows = [k for k in range(3) if k != i]
            cols = [k for k in range(3) if k != j]
            minor = (
                J[:, rows[0], cols[0]] * J[:, rows[1], cols[1]]
                - J[:, rows[0], cols[1]] * J[:, rows[1], cols[0]]
            )
            cof[:, j, i] = (-1) ** (i + j) * minor
    det = (
        J[:, 0, 0] * cof[:, 0, 0] + J[:, 0, 1] * cof[:, 1, 0] + J[:, 0, 2] * cof[:, 2, 0]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.einsum("sij,sj->si", cof, r) / det[:, None]


def enumerate_small(
    problem: Problem, box: float, grid_density: int
) -> EnumerationResult:
    """Multi-start Newton over a dense lattice in [-box, box]^d.

    Polishes every start, keeps distinct converged roots inside the box,
    and reports ``no_real_solution_suspected`` when nothing converges.
    """
    if box <= 0 or grid_density < 2:
        raise ValueError("need box > 0 and grid_density >= 2")
    shape = tuple(g.n_interior for g in problem.grids)
    d = int(np.prod(shape))
    if d > 3:
        raise ValueError(f"enumeration supports at most 3 unknowns, got {d}")
    A = _dense_operator(problem)
    # coordinates of the d unknowns in C order of the interior tensor
    coords = np.array(
        [
            [float(g.points[1 + idx]) for g, idx in zip(problem.grids, multi)]
            for multi in np.ndindex(*shape)
        ]
    )  # (d, n)
    xs = [coords[:, ax] for ax in range(problem.n)]

    def f_vals(u: np.ndarray) -> np.ndarray:  # u: (S, d)
        try:
            out = nl.evaluate_arrays(problem.f, xs, u)
            return np.broadcast_to(out, u.shape).astype(float, copy=False)
        except nl.EvaluationError as err:
            # mark starts where f is undefined as dead instead of aborting
            res = np.full(u.shape, np.nan)
            if err.mask is not None:
                bad = np.broadcast_to(err.mask, u.shape).any(axis=1)
            else:
                bad = np.ones(len(u), dtype=bool)
            if (~bad).any():
                res[~bad] = f_vals(u[~bad])
            return res

    axes_1d = [np.linspace(-box, box, grid_density)] * d
    mesh = np.meshgrid(*axes_1d, indexing="ij")
    u = np.stack([m.ravel() for m in mesh], axis=-1)  # (S, d)
    alive = np.ones(len(u), dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(80):
            R = u @ A.T + f_vals(u)
            conv = np.linalg.norm(R, np.inf, axis=1) <= 1e-11 * (
                1.0 + np.abs(u).max(axis=1)
            )
            active = alive & ~conv
            if not active.any():
                break
            h = 1e-6 * np.maximum(1.0, np.abs(u))
            fp = (f_vals(u + h) - f_vals(u - h)) / (2.0 * h)
            J = np.broadcast_to(A, (len(u), d, d)).copy()
            J[:, np.arange(d), np.arange(d)] += fp
            step = _batched_solve(J[active], R[active])
            step[~np.isfinite(step).all(axis=1)] = 0.0
            u[active] = u[active] - step
            dead = ~np.isfinite(u).all(axis=1) | (
                np.nan_to_num(np.abs(u), nan=np.inf).max(axis=1) > 1e8
            )
            alive &= ~dead
            u[~alive] = np.nan
        finite = alive & np.isfinite(u).all(axis=1)
        Rn = np.full(len(u), np.inf)
        if finite.any():
            Rn[finite] = np.linalg.norm(
                u[finite] @ A.T + f_vals(u[finite]), np.inf, axis=1
            )
        scale = np.where(finite, np.nan_to_num(np.abs(u), nan=0.0).max(axis=1), 0.0)
        converged = finite & (Rn <= 1e-10 * (1.0 + scale))
        inside = converged & (scale <= box * (1.0 + 1e-9))
    roots = _dedupe(u[inside], 1e-6, exact=True)
    candidates = _dedupe(u[finite], 1e-6, exact=False)
    solutions = []
    for root in roots:
        gf = GridFunction.zeros(problem.grids).with_interior(
            root.reshape(shape)
        )
        solutions.append(
            Solution(
                u=gf,
                residual=residual(problem, gf),
                status=Status.CONVERGED,
                iterations=0,
                lambda1=problem.lambda1,
                diagnostics={"route": "enumeration"},
            )
        )
    status = Status.CONVERGED if solutions else Status.NO_REAL_SOLUTION_SUSPECTED
    return EnumerationResult(solutions=solutions, candidates=candidates, status=status)


def _dedupe(points: np.ndarray, tol: float, exact: bool) -> np.ndarray:
    """Collapse near-duplicates: cell rounding, then (optionally) a greedy
    pass so clusters straddling a cell edge still merge."""
    if len(points) == 0:
        return points.reshape(0, points.shape[1] if points.ndim == 2 else 0)
    key = np.round(points / tol).astype(np.int64)
    _, first = np.unique(key, axis=0, return_index=True)
    reps = points[np.sort(first)]
    if not exact or len(reps) > 512:
        return reps
    order = np.lexsort(reps.T[::-1])
    kept: list[np.ndarray] = []
    for p in reps[order]:
        if all(np.abs(p - q).max() > tol for q in kept):
            kept.append(p)
    return np.array(kept)
