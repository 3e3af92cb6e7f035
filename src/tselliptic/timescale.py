"""Bounded time scales, their jump operators, and calculus on grids.

A time scale here is a finite union of closed segments [lo, hi]: an
interval when lo < hi, an isolated point when lo == hi.  ``discretize``
turns one into a computational :class:`Grid` by subdividing each interval
uniformly; the grid is itself a time scale, so every calculus identity
below holds on it exactly (not just in the limit).

The delta measure assigns each grid point its forward gap, which makes
``delta_integral`` a plain weighted sum.  The inner product of grid
functions reads one weight vector per grid, :attr:`Grid.weights`: the
trapezoid rule on cells that subdivide an interval of the source scale and
the delta measure on scattered gaps, so the grid measure stays second-order
accurate where an interval meets an isolated point.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


# Most points one axis may have: its dense eigenbasis holds n^2 doubles,
# 800 MB at this size, and the spectrum and the solvers build it.
MAX_AXIS_POINTS = 10_001

DEFAULT_SUBINTERVALS = 8  # per interval, when a mesh gives neither h nor counts


class DomainError(ValueError):
    """A point is not an element of the time scale."""


class EmptyInteriorError(ValueError):
    """A grid, or its time scale, has no point strictly between its ends."""


class GridMismatchError(ValueError):
    """Two grid functions do not live on the same grid."""


@dataclass(frozen=True)
class Segment:
    """Closed segment [lo, hi] of the real line: an interval when lo < hi,
    an isolated point when lo == hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("segment ends must be finite")
        if not self.lo <= self.hi:
            raise ValueError(f"segment needs lo <= hi, got {self.lo}, {self.hi}")

    def __str__(self) -> str:
        if self.lo == self.hi:
            return _fmt(self.lo)
        return f"[{_fmt(self.lo)},{_fmt(self.hi)}]"


def _fmt(x: float) -> str:
    """Text that reads back as x; an integral value below 1e15 drops ".0"."""
    return repr(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(float(x))


@dataclass(frozen=True)
class TimeScale:
    """Ordered union of disjoint segments with endpoints a = min, b = max.

    Segments must be strictly increasing with positive gaps between the
    closure of one and the start of the next, so membership and the jump
    operators are unambiguous, and b - a must be a finite double.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("time scale needs at least one segment")
        object.__setattr__(self, "segments", segs)
        for prev, cur in zip(segs, segs[1:]):
            if not prev.hi < cur.lo:
                raise ValueError(
                    f"segments must be separated by positive gaps: "
                    f"{prev} then {cur}"
                )
        if self.a == self.b:
            raise ValueError("time scale must contain more than one point")
        if not math.isfinite(self.b - self.a):
            raise ValueError(
                f"time scale {self._brief()} is longer than the largest double"
            )

    @property
    def a(self) -> float:
        return self.segments[0].lo

    @property
    def b(self) -> float:
        return self.segments[-1].hi

    def __contains__(self, t: float) -> bool:
        return any(s.lo <= t <= s.hi for s in self.segments)

    def _require_member(self, t: float) -> None:
        if t not in self:
            raise DomainError(f"{t} is not in the time scale {self._brief()}")

    def sigma(self, t: float) -> float:
        """Forward jump: the nearest scale point strictly right of t (or t)."""
        self._require_member(t)
        for s, nxt in zip(self.segments, self.segments[1:]):
            if s.lo <= t <= s.hi:
                return t if t < s.hi else nxt.lo
        return t  # right-dense in the last segment, or b

    def rho(self, t: float) -> float:
        """Backward jump: the nearest scale point strictly left of t (or t)."""
        self._require_member(t)
        for prev, s in zip(self.segments, self.segments[1:]):
            if s.lo <= t <= s.hi:
                return t if s.lo < t else prev.hi
        return t  # left-dense in the first segment, or a

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        return self.sigma(t) - t

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        return t - self.rho(t)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.segments)

    def _brief(self) -> str:
        """The literal for messages, in bounded length: a scale of more than
        five segments shows its first three, "...", its last and the count."""
        segs = self.segments
        if len(segs) <= 5:
            return str(self)
        head = ",".join(str(s) for s in segs[:3])
        return f"{head},...,{segs[-1]} ({len(segs)} segments)"

    @staticmethod
    def parse(text: str) -> "TimeScale":
        """Parse a time-scale literal such as ``"[0,1],2,3"``.

        The literal is a comma-separated list of segments: ``[lo,hi]`` with
        lo < hi for a closed interval, a bare number t for the isolated point
        [t, t].  No segment may be empty, so a leading, doubled or trailing
        comma is refused.  Whitespace is insignificant.
        """
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ValueError("empty time-scale literal")
        segments: list[Segment] = []
        pos = 0
        while True:
            if s.startswith("[", pos):
                end = s.find("]", pos)
                if end < 0:
                    raise ValueError(f"unclosed '[' at offset {pos} in {text!r}")
                body = s[pos + 1 : end]
                parts = body.split(",")
                if len(parts) != 2:
                    raise ValueError(f"interval needs two endpoints: [{body}]")
                lo, hi = _num(parts[0]), _num(parts[1])
                # lo >= hi with both ends finite; Segment refuses the others
                if -math.inf < hi <= lo < math.inf:
                    raise ValueError(f"interval needs lo < hi, got [{body}]")
                segments.append(Segment(lo, hi))
                pos = end + 1
            else:
                end = s.find(",", pos)
                if end < 0:
                    end = len(s)
                t = _num(s[pos:end])
                segments.append(Segment(t, t))
                pos = end
            if pos == len(s):
                return TimeScale(tuple(segments))
            if s[pos] != ",":
                raise ValueError(f"expected ',' at offset {pos} in {text!r}")
            pos += 1


def _num(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"bad number {tok!r} in time-scale literal") from None


@dataclass(frozen=True)
class MeshParams:
    """How to realize continuous intervals as uniform sub-grids.

    Either a global target step ``h`` (each interval gets
    ceil(length / h) subintervals) or explicit per-interval point
    ``counts`` (each must be >= 2).  With neither, every interval gets
    ``DEFAULT_SUBINTERVALS`` uniform subintervals.
    """

    h: float | None = None
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.h is not None and self.counts is not None:
            raise ValueError("give either h or counts, not both")
        if self.h is not None and not self.h > 0:
            raise ValueError("mesh step h must be positive")
        if self.counts is not None:
            object.__setattr__(self, "counts", tuple(self.counts))
            if any(c < 2 for c in self.counts):
                raise ValueError("per-interval point counts must be >= 2")

    def subintervals(self, length: float, interval_index: int) -> int:
        if self.counts is not None:
            try:
                return self.counts[interval_index] - 1
            except IndexError:
                raise ValueError(
                    f"mesh counts cover {len(self.counts)} intervals, "
                    f"need at least {interval_index + 1}"
                ) from None
        if self.h is not None:
            # a quotient that overflows to inf still counts, as the largest float
            return max(1, math.ceil(min(length / self.h - 1e-12, sys.float_info.max)))
        return DEFAULT_SUBINTERVALS


@dataclass(frozen=True, eq=False)
class Grid:
    """Finite point set t_0 = a < ... < t_m = b drawn from a time scale.

    ``mu[i] = t[i+1] - t[i]`` is the forward graininess at t_i; the backward
    graininess at t_i is ``mu[i-1]``.  The grid is itself a time scale, so the
    calculus on it (``delta_integral``, difference quotients) is exact.

    ``weights`` is the measure every inner product, operator row, expansion
    and inverse reads, one entry per point.  A cell inside an interval of
    the source is dense and gives half its length to each end; a scattered
    gap gives all of it to its left point, as the delta measure does.  So
    the weights sum to b - a, equal ``mu`` on purely discrete scales and at
    interior points of an interval, and keep the h/2 of the last dense cell
    at a junction, where the left-point rule would cost one order.  On the
    grid read as a discrete time scale (every point isolated) they are the
    delta measure, with weight 0 at b.
    """

    points: np.ndarray
    source: TimeScale
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("grid needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        dense = self._dense_cells(pts)
        mu = np.diff(pts)
        half = np.where(dense, 0.5 * mu, 0.0)
        w = np.append(mu - half, 0.0)
        w[1:] += half
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def _dense_cells(self, pts: np.ndarray) -> np.ndarray:
        """Validate the points against the source scale and flag the cells
        [t_i, t_{i+1}] inside one of its intervals: a bisection per segment."""
        member = np.zeros(len(pts), dtype=bool)
        dense = np.zeros(len(pts) - 1, dtype=bool)
        for seg in self.source.segments:
            lo, hi = np.searchsorted(pts, (seg.lo, seg.hi))  # its ends, if present
            what = "interval endpoint" if seg.lo < seg.hi else "isolated point"
            for end, i in ((seg.lo, lo), (seg.hi, hi)):
                if i == len(pts) or pts[i] != end:
                    raise ValueError(f"{what} {end} missing from grid")
            member[lo : hi + 1] = True
            dense[lo:hi] = True  # empty on a point
        if not member.all():
            stray = pts[~member][0]
            raise ValueError(f"grid point {stray} is not in the time scale")
        return dense

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def mu(self) -> np.ndarray:
        """Forward gaps, length m."""
        return np.diff(self.points)

    @property
    def n_interior(self) -> int:
        return len(self.points) - 2

    def __eq__(self, other) -> bool:
        # equal points with different weights are different measures
        return (
            isinstance(other, Grid)
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash((self.points.tobytes(), self.weights.tobytes()))


def discretize(ts: TimeScale, mesh: MeshParams | None = None) -> Grid:
    """Produce the computational grid for a time scale.

    Every isolated point and every interval endpoint is a grid point;
    each interval is filled with a uniform subdivision whose endpoints are
    generated by affine combinations, so they land on the interval ends
    exactly.  Deterministic: identical inputs give identical grids.  A grid
    with no interior point raises :class:`EmptyInteriorError`, for every caller.
    """
    mesh = mesh or MeshParams()
    intervals = [seg for seg in ts.segments if seg.lo < seg.hi]
    counts = [mesh.subintervals(seg.hi - seg.lo, i) for i, seg in enumerate(intervals)]
    n_points = sum(counts) + len(ts.segments)
    if n_points < 3:
        raise EmptyInteriorError(
            f"time scale {ts._brief()} has no interior grid point at this mesh"
        )
    if n_points > MAX_AXIS_POINTS:
        raise ValueError(
            f"{ts._brief()} needs {n_points} grid points at this mesh; "
            f"an axis holds at most {MAX_AXIS_POINTS}"
        )
    steps = iter(counts)
    points = np.concatenate(
        [
            np.linspace(seg.lo, seg.hi, next(steps) + 1)
            if seg.lo < seg.hi
            else [seg.lo]
            for seg in ts.segments
        ]
    )
    return Grid(points=points, source=ts)


def _axes(grids: Grid | Sequence[Grid]) -> tuple[Grid, ...]:
    return (grids,) if isinstance(grids, Grid) else tuple(grids)


def _shape(grids: Sequence[Grid]) -> tuple[int, ...]:
    return tuple(len(g.points) for g in grids)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values on the closed product of per-axis grids.

    ``values[i1, ..., in]`` sits at the point
    (grids[0].points[i1], ..., grids[-1].points[in]).  A one-dimensional
    function is the product with one axis: a bare :class:`Grid` passed as
    ``grids`` means ``(grid,)``, and :attr:`grid` returns that axis.
    """

    grids: tuple[Grid, ...]
    values: np.ndarray

    def __post_init__(self):
        grids = _axes(self.grids)
        object.__setattr__(self, "grids", grids)
        vals = np.array(self.values, dtype=float)  # the caller keeps its array
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        expected = _shape(grids)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, grids imply {expected}")

    @classmethod
    def from_interior(cls, grids: Grid | Sequence[Grid], interior) -> "GridFunction":
        """The function with these interior values (an array of the interior
        shape, or one value) and 0 on the boundary: one closed array, built
        here and kept without the constructor's copy."""
        grids = _axes(grids)
        vals = np.zeros(_shape(grids))
        vals[tuple(slice(1, -1) for _ in grids)] = interior
        vals.flags.writeable = False
        gf = object.__new__(cls)
        gf.__dict__.update(grids=grids, values=vals)
        return gf

    @staticmethod
    def from_callable(grid: Grid, fn: Callable[[float], float]) -> "GridFunction":
        return GridFunction(grid, np.array([fn(t) for t in grid.points]))

    @staticmethod
    def zeros(grids: Grid | Sequence[Grid]) -> "GridFunction":
        return GridFunction.from_interior(grids, 0.0)

    @property
    def grid(self) -> Grid:
        """The axis of a one-dimensional function."""
        if len(self.grids) != 1:
            raise ValueError(f"function has {len(self.grids)} axes, not one")
        return self.grids[0]

    @property
    def ndim(self) -> int:
        return len(self.grids)

    @property
    def interior(self) -> np.ndarray:
        return self.values[tuple(slice(1, -1) for _ in self.grids)]

    def boundary_max(self) -> float:
        """Largest absolute value on the boundary of the closed product."""
        vals = np.abs(self.values)
        vals[tuple(slice(1, -1) for _ in self.grids)] = 0.0
        return float(vals.max())


ProductGridFunction = GridFunction


def delta_integral(u: GridFunction) -> float:
    """Integral of u over [a, b) in the delta measure: sum of u_i * mu_i."""
    return float(np.dot(u.values[:-1], u.grid.mu))


def nabla_integral(u: GridFunction) -> float:
    """Integral of u over (a, b] in the nabla measure: sum of u_i * nu_i."""
    return float(np.dot(u.values[1:], u.grid.mu))


def delta_derivative(u: GridFunction) -> GridFunction:
    """Forward difference quotient; undefined at t_m, marked with NaN."""
    out = np.empty_like(u.values)
    out[:-1] = np.diff(u.values) / u.grid.mu
    out[-1] = np.nan
    return GridFunction(u.grid, out)


def nabla_derivative(u: GridFunction) -> GridFunction:
    """Backward difference quotient; undefined at t_0, marked with NaN."""
    out = np.empty_like(u.values)
    out[1:] = np.diff(u.values) / u.grid.mu
    out[0] = np.nan
    return GridFunction(u.grid, out)


def axis_apply(x: np.ndarray, mats, weights=None) -> np.ndarray:
    """Apply ``mats[d]`` along axis d of x, scaling that axis by ``weights[d]``
    first when given: one matrix product per axis on x as (before, n_d, after).
    Weighted sums over a product grid and eigenbasis transforms all use it."""
    for d, m in enumerate(mats):
        shape = x.shape
        x = x.reshape(math.prod(shape[:d]), shape[d], -1)
        if weights is not None:
            x = x * weights[d][:, None]
        # matmul would loop over the rows of a last axis; one product instead
        y = x[..., 0] @ m.T if x.shape[2] == 1 else m @ x
        x = y.reshape(shape[:d] + (m.shape[0],) + shape[d + 1 :])
    return x


def array_inner(x: np.ndarray, y: np.ndarray, weights: Sequence[np.ndarray]) -> float:
    """Sum of x y w over a product of grid points, where w is the tensor
    product of the per-axis ``weights``: every inner product and norm of the
    grid measure, on the closed grid or on the interior."""
    return float(axis_apply(x * y, [w[None, :] for w in weights]).sum())


def array_norm(x: np.ndarray, weights: Sequence[np.ndarray]) -> float:
    return math.sqrt(max(array_inner(x, x, weights), 0.0))


def product_delta_inner(u: GridFunction, v: GridFunction) -> float:
    """Inner product sum of u v w over the closed grid, where w is the tensor
    product of the per-axis grid weights (:attr:`Grid.weights`).

    The measure is the grid weights, not the delta measure ``mu``: the two
    differ where an interval meets a scattered gap.  The name is kept
    because ``bench/tracing.py`` traces this module's functions by name.
    """
    if u.grids != v.grids:
        raise GridMismatchError("grid functions live on different grids")
    return array_inner(u.values, v.values, [g.weights for g in u.grids])


def product_delta_norm(u: GridFunction) -> float:
    return array_norm(u.values, [g.weights for g in u.grids])
