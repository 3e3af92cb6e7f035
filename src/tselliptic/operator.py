"""The 1D Dirichlet operator A = -(.)^{nabla delta} and its exact inverse.

On a grid with forward gaps mu, backward gaps nu and weights w (the grid's
measure, :attr:`Grid.weights`), the operator acts on interior points as

    (Au)_i = -[(u_{i+1} - u_i)/mu_i - (u_i - u_{i-1})/nu_i] / w_i,

a tridiagonal action.  The stiffness rows w_i (Au)_i form a symmetric
matrix K that does not depend on the weights, which is how self-adjointness
in the weighted inner product shows up here.  The weights equal mu_i except
where an interval meets a scattered gap; there the trapezoid share of the
last dense cell keeps the scheme second order.  The Green's function
(t-a)(b-s)/(b-a) (for t <= s) is the inverse of K, so its quadrature
against the same weights is the *exact* inverse of A on the grid, not a
discretization of one, and doubles as an independent check on direct
elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .timescale import (
    EmptyInteriorError,
    Grid,
    GridFunction,
    GridMismatchError,
    product_delta_inner,
    product_delta_norm,
)

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DirichletOperator1D:
    """Tridiagonal action of A on interior points i = 1..m-1.

    ``sub``, ``diag``, ``sup`` hold the coefficients of row i against
    u_{i-1}, u_i, u_{i+1}; ``weight`` holds the grid weights w_i of the
    interior points, which divide the stiffness rows.
    """

    grid: Grid
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    weight: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)


def assemble(grid: Grid) -> DirichletOperator1D:
    """Build the Dirichlet operator for a grid (needs >= 1 interior point);
    an entry past the largest double is inf, which :func:`spectral.spectrum_1d`
    refuses."""
    if len(grid.points) < 3:
        raise EmptyInteriorError("grid has no interior points")
    mu = grid.mu
    mui = mu[1:]          # forward gap at interior point i = 1..m-1
    nui = mu[:-1]         # backward gap at interior point i
    w = grid.weights[1:-1]
    with np.errstate(over="ignore", divide="ignore"):
        fwd, bwd = 1.0 / (mui * w), 1.0 / (nui * w)
    diag, sup, sub = fwd + bwd, -fwd, -bwd
    for arr in (diag, sup, sub):
        arr.flags.writeable = False
    return DirichletOperator1D(grid=grid, sub=sub, diag=diag, sup=sup, weight=w)


def apply(op: DirichletOperator1D, u: GridFunction) -> GridFunction:
    """Apply A to a grid function vanishing at both endpoints."""
    if u.grid != op.grid:
        raise GridMismatchError("grid function does not match operator grid")
    if not (bmax := u.boundary_max()) <= BOUNDARY_TOL:  # NaN fails too
        raise ValueError(
            f"boundary values must vanish (|u| at boundary = {bmax:.3e})"
        )
    v = u.interior
    out = op.diag * v
    out[:-1] += op.sup[:-1] * v[1:]
    out[1:] += op.sub[1:] * v[:-1]
    return GridFunction.from_interior(u.grids, out)


# <u, v> = sum of u_i v_i w_i in the grid weights; one implementation for
# every dimension lives in timescale.
weighted_inner = product_delta_inner
weighted_norm = product_delta_norm


@dataclass(frozen=True)
class GreenKernel:
    """Dirichlet Green's function on [a, b]: symmetric, zero on the
    boundary, bounded by (b - a)/4 on the diagonal midpoint."""

    a: float
    b: float

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        width = self.b - self.a
        lo = np.minimum(t, s)
        hi = np.maximum(t, s)
        # dividing first keeps the product within the doubles at every scale
        return (lo - self.a) * ((self.b - hi) / width)

    @property
    def bound(self) -> float:
        return (self.b - self.a) / 4.0


def green_inverse(op: DirichletOperator1D, f: GridFunction) -> GridFunction:
    """Invert A by quadrature of the Green's function in the grid weights.

    y(t_i) = sum_j G(t_i, s_j) f(s_j) w_j.  On the grid this reproduces
    the tridiagonal inverse exactly; it is O(m^2), kept as the reference
    route against which elimination is checked.
    """
    if f.grid != op.grid:
        raise GridMismatchError("grid function does not match operator grid")
    pts = op.grid.points
    G = GreenKernel(pts[0], pts[-1])
    # G vanishes for s in {a, b} and t in {a, b}
    w = f.values * op.grid.weights
    kernel = G(pts[:, None], pts[None, :])
    y = kernel @ w
    y[0] = 0.0
    y[-1] = 0.0
    return GridFunction(op.grid, y)


def tridiag_solve(op: DirichletOperator1D, f: np.ndarray) -> np.ndarray:
    """Solve Au = f with Dirichlet zeros by banded elimination, on interior values."""
    ab = np.zeros((3, op.n))
    ab[0, 1:] = op.sup[:-1]
    ab[1, :] = op.diag
    ab[2, :-1] = op.sub[1:]
    # callers test for NaN and infinity: the solvers their iterates, and
    # `greens --apply` its function file
    return solve_banded((1, 1), ab, f, check_finite=False)
