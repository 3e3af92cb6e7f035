"""Spectra of the 1D Dirichlet problem and their tensor products.

Two independent routes to the eigenvalues:

* the *matrix* route diagonalizes the symmetrized tridiagonal operator of a
  grid (exact for the grid-as-time-scale, but the grid only approximates
  continuous intervals);
* the *shooting* route propagates the initial value problem y(a) = 0,
  y' = 1 across the exact time scale in closed form (trig on intervals, a
  two-term recurrence over scattered gaps), so its roots carry no mesh
  error at all; the zeros of its solution count the eigenvalues below lambda.

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


class InsufficientRootsError(RuntimeError):
    """Fewer eigenvalues than requested exist, or lie within the doubles."""

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
    smallest eigenpairs (all when k is None) of the symmetrized operator;
    refused where an entry, or an eigenvalue found, leaves the normal doubles."""
    A = op_mod.assemble(grid)
    top = {} if k is None or k >= A.n else {"select": "i", "select_range": (0, k - 1)}
    # stebz squares the off-diagonal: the matrix is scaled by a power of two
    # (exact) to a largest entry in [1/2, 1), and w back; inf past the doubles
    with np.errstate(over="ignore"):
        if finite := (big := A.diag.max()) < math.inf:
            e = math.frexp(big)[1]
            w, V = eigh_tridiagonal(np.ldexp(A.diag, -e), np.ldexp(symmetrize(A), -e), **top)
            w = np.ldexp(w, e)
    if not (finite and np.finfo(float).tiny <= w[0] and w[-1] < math.inf):
        raise ValueError(f"the operator of {grid.source._brief()} at this mesh "
                         "has eigenvalues outside the normal doubles")
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


def _propagate_interval(
    y: float, v: float, tau: float, lam: float
) -> tuple[float, float, int]:
    """Advance (y, y') across a continuous stretch of length tau for
    -y'' = lam * y, in closed form at every lam: the new pair is 2**k times
    the returned one, and k is 0 unless cosh(sqrt(-lam) tau) overflows."""
    if lam == 0:
        return y + v * tau, v, 0
    if lam > 0:
        r = math.sqrt(lam)
        c, s = math.cos(r * tau), math.sin(r * tau) / r
        return y * c + v * s, -lam * s * y + v * c, 0
    r = math.sqrt(-lam)
    try:
        c, s = math.cosh(r * tau), math.sinh(r * tau) / r
    except OverflowError:
        # past r tau = 710, cosh = sinh = e^(r tau) / 2 = 2^(k + f) in
        # doubles; 2^k goes to the caller
        q = r * tau / math.log(2.0) - 1.0
        k = math.floor(q)
        m = 2.0 ** (q - k)
        return m * (y + v / r), m * (r * y + v), k
    return y * c + v * s, -lam * s * y + v * c, 0


def _half_turns(y: float, theta: float) -> int:
    """floor(theta / pi) for theta = atan2(c y, v), c > 0, by y's sign."""
    return 0 if y > 0 else -1 if y < 0 else math.floor(theta / math.pi)


def _walk(ts: TimeScale, lam: float) -> tuple[float, int]:
    """:func:`shoot`'s value, and the number of generalized zeros of y in
    (a, b]: the number of eigenvalues at most lam (oscillation theorem;
    Agarwal, Bohner & Wong, *Appl. Math. Comput.* 99, 1999).

    In an interval the Prüfer angle atan2(sqrt(lam) y, y') grows by sqrt(lam)
    per unit length and passes a multiple of pi at each zero; across a gap,
    a sign change of y or y = 0 at the far end is one.  (y, y') is rescaled
    by exact powers of two: the value is the unscaled one where that is
    finite, and +-inf past overflow.
    """
    y, v, exp, zeros = 0.0, 1.0, 0, 0
    r = math.sqrt(lam) if lam > 0 else 0.0
    segments = ts.segments
    for i, seg in enumerate(segments):
        t = seg.hi
        if seg.lo < t:  # a point has no length to cross
            y0, theta0 = y, math.atan2(r * y, v)
            y, v, k = _propagate_interval(y, v, t - seg.lo, lam)
            exp += k
            if lam > 0:
                theta = math.atan2(r * y, v)
                turns = round((theta0 + r * (t - seg.lo) - theta) / (2 * math.pi))
                zeros += 2 * turns + _half_turns(y, theta) - _half_turns(y0, theta0)
        if i + 1 < len(segments):
            gap = segments[i + 1].lo - t
            if t != ts.a:
                v = v - gap * lam * y
            y0, y = y, y + gap * v
            zeros += y == 0 or y < 0 < y0 or y0 < 0 < y
        if abs(y) + abs(v) > 2.0**512:
            y, v, exp = y * 2.0**-512, v * 2.0**-512, exp + 512
    try:
        return math.ldexp(y, exp), zeros
    except OverflowError:
        return math.copysign(math.inf, y), zeros


def shoot(ts: TimeScale, lam: float) -> float:
    """Value at b of the solution with y(a) = 0 and unit initial slope.

    Zeros of this function over lambda are exactly the Dirichlet
    eigenvalues of the time scale: intervals are crossed in closed form,
    and a scattered gap mu at an interior point t applies the recurrence
    v <- v - mu * lam * y followed by y <- y + mu * v, which is the dynamic
    equation itself, so no mesh enters.
    """
    return _walk(ts, lam)[0]


def eigen_shooting(ts: TimeScale, k: int) -> np.ndarray:
    """First k eigenvalues of the exact time scale, of which a purely discrete
    one has one per interior point.  An upper bound doubles from a power of
    two at most 4 / (b - a)**2 until the zero count of :func:`_walk` reaches
    k, or would overflow; each eigenvalue is bisected on that count, so none
    is skipped, to 1e-13 relative or to adjacent doubles."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if all(seg.lo == seg.hi for seg in ts.segments) and k > len(ts.segments) - 2:
        raise InsufficientRootsError(len(ts.segments) - 2, k, math.inf)
    # b - a = m 2**e with m in [1/2, 1), so 2**(2 - 2e) <= 4 / (b - a)**2
    hi = 2.0 ** min(max(2 - 2 * math.frexp(ts.b - ts.a)[1], -1074), 1023)
    while (found := _walk(ts, hi)[1]) < k:
        if hi * 2 == math.inf:
            raise InsufficientRootsError(found, k, hi)
        hi *= 2
    top, lo, roots = hi, 0.0, []
    for j in range(1, k + 1):
        hi = top
        while hi - lo > 1e-13 * hi and lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (lo, mid) if _walk(ts, mid)[1] >= j else (mid, hi)
        roots.append(0.5 * (lo + hi))
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
    """Analytic lower bound: sum over axes of 4 / (b_i - a_i)^2 (0 past the doubles)."""
    axes = [domain] if isinstance(domain, TimeScale) else list(domain)
    return sum(4.0 / ((ts.b - ts.a) * (ts.b - ts.a)) for ts in axes)
