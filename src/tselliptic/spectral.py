"""Spectra of the 1D Dirichlet problem and their tensor products.

Two independent routes to the eigenvalues:

* the *matrix* route diagonalizes the symmetrized tridiagonal operator of a
  grid (exact for the grid-as-time-scale, but the grid only approximates
  continuous intervals);
* the *shooting* route propagates the initial value problem y(a) = 0,
  y' = 1 across the exact time scale in closed form (trig on intervals, a
  two-term recurrence over scattered gaps), so its roots carry no mesh
  error at all.

Agreement of the two certifies the mesh; disagreement measures it.
Product-domain eigenvalues are sums of per-axis ones and are enumerated
best-first over the multi-index lattice.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from . import operator as op_mod
from .timescale import (
    EmptyInteriorError,
    Grid,
    GridFunction,
    GridMismatchError,
    Interval,
    TimeScale,
)

SMALL_LAMBDA = 1e-8


class InsufficientRootsError(RuntimeError):
    """The eigenvalue scan found fewer roots than requested."""

    def __init__(self, found: int, requested: int, scanned_up_to: float):
        self.found = found
        self.requested = requested
        super().__init__(
            f"found {found} of {requested} eigenvalues scanning up to "
            f"lambda = {scanned_up_to:.6g}"
        )


@dataclass(frozen=True, eq=False)
class SymmetricTridiagonal:
    """Symmetric tridiagonal matrix similar to a Dirichlet operator."""

    diag: np.ndarray
    off: np.ndarray


def symmetrize(op: op_mod.DirichletOperator1D) -> SymmetricTridiagonal:
    """Similarity transform S = W^{1/2} A W^{-1/2} with W = diag(w), the
    interior grid weights.

    S shares A's eigenvalues and is Euclidean-symmetric, so a standard
    symmetric tridiagonal eigensolver applies.  Its off-diagonal is
    sup_i sqrt(w_i / w_{i+1}) = -1 / (mu_i sqrt(w_i w_{i+1})).
    """
    w = op.weight
    off = -1.0 / (op.grid.mu[1:-1] * np.sqrt(w[:-1] * w[1:]))
    return SymmetricTridiagonal(diag=op.diag.copy(), off=off)


def eigen_symmetric_tridiagonal(
    S: SymmetricTridiagonal, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (as columns)."""
    n = len(S.diag)
    if k is None or k >= n:
        return eigh_tridiagonal(S.diag, S.off)
    return eigh_tridiagonal(S.diag, S.off, select="i", select_range=(0, k - 1))


@dataclass(frozen=True, eq=False)
class Spectrum1D:
    """Eigenvalues (ascending) and orthonormal eigenfunctions.

    ``phis[k]`` holds the k-th eigenfunction on the full grid, zero at the
    endpoints, normalized to <phi, phi> = 1 in the grid weights and signed
    so its first nonzero interior component is positive.
    """

    grid: Grid
    eigenvalues: np.ndarray
    phis: np.ndarray

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def phi(self, k: int) -> GridFunction:
        """k-th eigenfunction (0-based) as a grid function."""
        return GridFunction(self.grid, self.phis[k])


def spectrum_1d(grid: Grid, k: int | None = None) -> Spectrum1D:
    """Matrix-route spectrum of the Dirichlet problem on a grid."""
    if grid.n_interior < 1:
        raise EmptyInteriorError("grid has no interior points")
    A = op_mod.assemble(grid)
    S = symmetrize(A)
    w, V = eigen_symmetric_tridiagonal(S, k)
    phis = np.zeros((len(w), len(grid.points)))
    phis[:, 1:-1] = (V / np.sqrt(A.weight)[:, None]).T
    # Euclidean-orthonormal V makes these orthonormal in the grid weights
    # already; renormalize to remove solver rounding and fix the sign.
    for row in phis:
        nrm = math.sqrt(float(np.dot(row**2, grid.weights)))
        row /= nrm
        scale = np.max(np.abs(row[1:-1]))
        nz = np.nonzero(np.abs(row[1:-1]) > 1e-12 * scale)[0]
        if len(nz) and row[1:-1][nz[0]] < 0:
            row *= -1.0
    phis.flags.writeable = False
    return Spectrum1D(grid=grid, eigenvalues=w, phis=phis)


# ---------------------------------------------------------------------------
# Shooting route (exact on the time scale)


def _propagate_interval(y: float, v: float, tau: float, lam: float) -> tuple[float, float]:
    """Advance (y, y') across a continuous stretch of length tau for
    -y'' = lam * y, in closed form."""
    if abs(lam) < SMALL_LAMBDA:
        # series limit of the trig/hyperbolic propagator, smooth through 0
        c = 1.0 - lam * tau**2 / 2.0 + lam**2 * tau**4 / 24.0
        s = tau * (1.0 - lam * tau**2 / 6.0 + lam**2 * tau**4 / 120.0)
        return y * c + v * s, -lam * s * y + v * c
    if lam > 0:
        r = math.sqrt(lam)
        c, s = math.cos(r * tau), math.sin(r * tau) / r
        return y * c + v * s, -lam * s * y + v * c
    r = math.sqrt(-lam)
    c, s = math.cosh(r * tau), math.sinh(r * tau) / r
    return y * c + v * s, -lam * s * y + v * c


def shoot(ts: TimeScale, lam: float) -> float:
    """Value at b of the solution with y(a) = 0 and unit initial slope.

    Zeros of this function over lambda are exactly the Dirichlet
    eigenvalues of the time scale: intervals are crossed in closed form,
    and a scattered gap mu at an interior point t applies the recurrence
    v <- v - mu * lam * y followed by y <- y + mu * v, which is the dynamic
    equation itself, so no mesh enters.
    """
    y, v = 0.0, 1.0
    segments = ts.segments
    for i, seg in enumerate(segments):
        if isinstance(seg, Interval):
            y, v = _propagate_interval(y, v, seg.hi - seg.lo, lam)
            t = seg.hi
        else:
            t = seg.t
        if i + 1 < len(segments):
            gap = segments[i + 1].min - t
            if t != ts.a:
                v = v - gap * lam * y
            y = y + gap * v
    return y


def eigen_shooting(ts: TimeScale, k: int) -> np.ndarray:
    """First k eigenvalues of the exact time scale by root scanning.

    Scans lambda upward from half the lower bound 4/(b-a)^2, brackets each
    sign change, and polishes with Brent's method to relative tolerance
    well below 1e-10.  Eigenvalues are simple, so every root shows up as a
    sign change.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lb = 4.0 / (ts.b - ts.a) ** 2
    lam = 0.5 * lb
    step = 0.5 * lb
    f_prev = shoot(ts, lam)
    roots: list[float] = []
    probes = 0
    max_probes = 200_000
    lam_cap = max(1e12, 1e9 * lb)
    while len(roots) < k and probes < max_probes and lam < lam_cap:
        nxt = lam + step
        f_next = shoot(ts, nxt)
        probes += 1
        root = None
        if f_next == 0.0:
            root = nxt
        elif f_prev == 0.0:
            root = lam
        elif (f_prev < 0) != (f_next < 0):
            root = brentq(
                lambda x: shoot(ts, x), lam, nxt, rtol=1e-13, xtol=1e-14
            )
        if root is not None:
            roots.append(root)
            lam = root + max(1e-9, 1e-7 * root)
            f_prev = shoot(ts, lam)
            if len(roots) >= 2:
                step = 0.25 * (roots[-1] - roots[-2])
            step = max(step, 1e-6 * root)
        else:
            lam, f_prev = nxt, f_next
            if probes % 50 == 0:
                step *= 1.5
    if len(roots) < k:
        raise InsufficientRootsError(len(roots), k, lam)
    return np.array(roots)


# ---------------------------------------------------------------------------
# Tensor spectra


@dataclass(frozen=True, eq=False)
class TensorSpectrum:
    """Smallest product-domain eigenvalues with their multi-indices.

    ``entries`` is ascending in eigenvalue (ties resolved by lexicographic
    multi-index, multiplicity preserved); multi-indices are 1-based per
    axis.  ``exhausted`` flags that the entries are the entire finite
    spectrum (the request met or exceeded the total count).
    """

    axes: tuple[Spectrum1D, ...]
    entries: tuple[tuple[tuple[int, ...], float], ...]
    exhausted: bool

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([lam for _, lam in self.entries])

    def eigenfunction(self, entry: int) -> GridFunction:
        """Product eigenfunction of the given entry (0-based)."""
        idx, _ = self.entries[entry]
        vals = self.axes[0].phis[idx[0] - 1]
        for ax, p in zip(self.axes[1:], idx[1:]):
            vals = np.multiply.outer(vals, ax.phis[p - 1])
        return GridFunction(tuple(ax.grid for ax in self.axes), vals)


def tensor_spectrum(axes: Sequence[Spectrum1D], K: int) -> TensorSpectrum:
    """Best-first enumeration of the K smallest eigenvalue sums."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if any(ax.count < 1 for ax in axes):
        raise ValueError("every axis spectrum must be nonempty")
    axes = tuple(axes)
    counts = [ax.count for ax in axes]
    total = math.prod(counts)
    start = (1,) * len(axes)
    heap = [(sum(ax.eigenvalues[0] for ax in axes), start)]
    seen = {start}
    entries: list[tuple[tuple[int, ...], float]] = []
    while heap and len(entries) < min(K, total):
        lam, idx = heapq.heappop(heap)
        entries.append((idx, lam))
        for d in range(len(axes)):
            if idx[d] < counts[d]:
                nxt = idx[:d] + (idx[d] + 1,) + idx[d + 1 :]
                if nxt not in seen:
                    seen.add(nxt)
                    lam_next = lam - axes[d].eigenvalues[idx[d] - 1] + axes[
                        d
                    ].eigenvalues[idx[d]]
                    heapq.heappush(heap, (lam_next, nxt))
    return TensorSpectrum(axes=axes, entries=tuple(entries), exhausted=K >= total)


# ---------------------------------------------------------------------------
# Expansion in the eigenbasis


def expand(spec: Spectrum1D | TensorSpectrum, f) -> np.ndarray:
    """Fourier coefficients <f, phi_k> in the grid weights."""
    if isinstance(spec, Spectrum1D):
        if f.grid != spec.grid:
            raise GridMismatchError("function grid does not match spectrum grid")
        return (spec.phis * spec.grid.weights) @ f.values
    if tuple(f.grids) != tuple(ax.grid for ax in spec.axes):
        raise GridMismatchError("function grids do not match spectrum axes")
    coeff = f.values
    for d, ax in enumerate(spec.axes):
        analysis = ax.phis * ax.grid.weights
        coeff = np.moveaxis(
            np.tensordot(analysis, coeff, axes=([1], [d])), 0, d
        )
    return np.array([coeff[tuple(p - 1 for p in idx)] for idx, _ in spec.entries])


def reconstruct(spec: Spectrum1D | TensorSpectrum, c: np.ndarray):
    """Sum of c_k phi_k; inverse of :func:`expand` on a complete spectrum."""
    c = np.asarray(c, dtype=float)
    if isinstance(spec, Spectrum1D):
        if len(c) != spec.count:
            raise ValueError("coefficient count does not match spectrum")
        return GridFunction(spec.grid, c @ spec.phis)
    if len(c) != len(spec.entries):
        raise ValueError("coefficient count does not match spectrum entries")
    shape = tuple(ax.count for ax in spec.axes)
    coeff = np.zeros(shape)
    for ck, (idx, _) in zip(c, spec.entries):
        coeff[tuple(p - 1 for p in idx)] += ck
    vals = coeff
    for d, ax in enumerate(spec.axes):
        vals = np.moveaxis(np.tensordot(ax.phis.T, vals, axes=([1], [d])), 0, d)
    return GridFunction(tuple(ax.grid for ax in spec.axes), vals)


def lambda1_lower_bound(domain: TimeScale | Sequence[TimeScale]) -> float:
    """Analytic lower bound: sum over axes of 4 / (b_i - a_i)^2."""
    axes = [domain] if isinstance(domain, TimeScale) else list(domain)
    return sum(4.0 / (ts.b - ts.a) ** 2 for ts in axes)
