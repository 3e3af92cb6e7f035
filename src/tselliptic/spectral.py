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
best-first over the multi-index lattice.  A :class:`Spectrum1D` is also the
one-axis :class:`TensorSpectrum`, and every transform into or out of an
eigenbasis applies one matrix along each axis (``timescale.axis_apply``).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import operator as op_mod
from .timescale import (
    Grid,
    GridFunction,
    GridMismatchError,
    TimeScale,
    axis_apply,
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


def symmetrize(op: op_mod.DirichletOperator1D) -> np.ndarray:
    """Off-diagonal of the similarity transform S = W^{1/2} A W^{-1/2} with
    W = diag(w), the interior grid weights; S's diagonal is ``op.diag``.

    S shares A's eigenvalues and is Euclidean-symmetric, so a standard
    symmetric tridiagonal eigensolver applies.  Its off-diagonal is
    sup_i sqrt(w_i / w_{i+1}) = -1 / (mu_i sqrt(w_i w_{i+1})).
    """
    w = op.weight
    return -1.0 / (op.grid.mu[1:-1] * np.sqrt(w[:-1] * w[1:]))


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

    @property
    def axes(self) -> tuple[Spectrum1D]:
        return (self,)

    @property
    def entries(self) -> tuple[tuple[tuple[int], float], ...]:
        """1-based indices with eigenvalues, as in :class:`TensorSpectrum`."""
        return tuple(((i + 1,), lam) for i, lam in enumerate(self.eigenvalues))

    def phi(self, k: int) -> GridFunction:
        """k-th eigenfunction (0-based) as a grid function."""
        return GridFunction(self.grid, self.phis[k])


def spectrum_1d(grid: Grid, k: int | None = None) -> Spectrum1D:
    """Matrix-route spectrum of the Dirichlet problem on a grid: the k
    smallest eigenpairs (all when k is None) of the symmetrized operator."""
    A = op_mod.assemble(grid)
    top = {} if k is None or k >= A.n else {"select": "i", "select_range": (0, k - 1)}
    w, V = eigh_tridiagonal(A.diag, symmetrize(A), **top)
    phis = np.zeros((len(w), len(grid.points)))
    inner = phis[:, 1:-1]
    np.divide(V.T, np.sqrt(A.weight), out=inner)
    # Euclidean-orthonormal V makes these orthonormal in the grid weights
    # already; renormalize to remove solver rounding and fix the sign.
    del V  # so phis**2 below is the second n-by-n array, not the third
    phis /= np.sqrt(phis**2 @ grid.weights)[:, None]
    scale = np.maximum(inner.max(axis=1), -inner.min(axis=1))[:, None] * 1e-12
    first = np.argmax((inner > scale) | (inner < -scale), axis=1)
    phis *= np.where(inner[np.arange(len(w)), first] < 0, -1.0, 1.0)[:, None]
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
        t = seg.max
        if seg.min < t:  # a point has no length to cross
            y, v = _propagate_interval(y, v, t - seg.min, lam)
        if i + 1 < len(segments):
            gap = segments[i + 1].min - t
            if t != ts.a:
                v = v - gap * lam * y
            y = y + gap * v
    return y


def _brent_root(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb] by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, Prentice-Hall 1973, ch. 4).

    A step-for-step port of scipy's ``brentq.c``, so roots are bit-identical
    to ``scipy.optimize.brentq`` at the same tolerances: it stops when half
    the bracket is below delta = (xtol + rtol*|x|)/2.  Like ``brentq``, it
    raises ValueError on a bracket without a sign change or a NaN value of
    f, and RuntimeError after 100 iterations without convergence.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0) != (fcur < 0):  # a zero fcur returns below either way
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an underflowed slope; C's inf or nan step bisects too
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


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
            root = _brent_root(lambda x: shoot(ts, x), lam, nxt, xtol=1e-14, rtol=1e-13)
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
    spectrum (every axis spectrum is complete and the request met or
    exceeded the total count).
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
        vals = functools.reduce(
            np.multiply.outer, [ax.phis[p - 1] for ax, p in zip(self.axes, idx)]
        )
        return GridFunction(tuple(ax.grid for ax in self.axes), vals)


def tensor_spectrum(axes: Sequence[Spectrum1D], K: int) -> TensorSpectrum:
    """Best-first enumeration of the K smallest eigenvalue sums."""
    if K < 1:
        raise ValueError("K must be >= 1")
    # the K smallest sums use at most the K smallest pairs of each axis
    for ax in axes:
        if ax.count < (need := min(K, ax.grid.n_interior)):
            raise ValueError(f"an axis spectrum holds {ax.count} eigenpairs; "
                             f"the {K} smallest sums need {need}")
    axes = tuple(axes)
    counts = [ax.count for ax in axes]
    total = math.prod(counts)
    complete = all(ax.count == ax.grid.n_interior for ax in axes)
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
                    ev = axes[d].eigenvalues
                    heapq.heappush(heap, (lam - ev[idx[d] - 1] + ev[idx[d]], nxt))
    return TensorSpectrum(axes=axes, entries=tuple(entries), exhausted=complete and K >= total)


# ---------------------------------------------------------------------------
# Expansion in the eigenbasis


def expand(spec: Spectrum1D | TensorSpectrum, f) -> np.ndarray:
    """Fourier coefficients <f, phi_k> in the grid weights."""
    if tuple(f.grids) != tuple(ax.grid for ax in spec.axes):
        raise GridMismatchError("function grids do not match spectrum axes")
    mats = [ax.phis for ax in spec.axes]
    coeff = axis_apply(f.values, mats, [ax.grid.weights for ax in spec.axes])
    return coeff[tuple(np.array([idx for idx, _ in spec.entries]).T - 1)]


def reconstruct(spec: Spectrum1D | TensorSpectrum, c: np.ndarray) -> GridFunction:
    """Sum of c_k phi_k; inverse of :func:`expand` on a complete spectrum."""
    c = np.asarray(c, dtype=float)
    if len(c) != len(spec.entries):
        raise ValueError("coefficient count does not match spectrum entries")
    coeff = np.zeros(tuple(ax.count for ax in spec.axes))
    coeff[tuple(np.array([idx for idx, _ in spec.entries]).T - 1)] = c
    vals = axis_apply(coeff, [ax.phis.T for ax in spec.axes])
    return GridFunction(tuple(ax.grid for ax in spec.axes), vals)


def lambda1_lower_bound(domain: TimeScale | Sequence[TimeScale]) -> float:
    """Analytic lower bound: sum over axes of 4 / (b_i - a_i)^2."""
    axes = [domain] if isinstance(domain, TimeScale) else list(domain)
    return sum(4.0 / (ts.b - ts.a) ** 2 for ts in axes)
