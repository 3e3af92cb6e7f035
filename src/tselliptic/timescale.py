"""Bounded time scales, their jump operators, and calculus on grids.

A time scale here is a finite union of closed intervals and isolated
points.  ``discretize`` turns one into a computational :class:`Grid` by
subdividing each interval uniformly; the grid is itself a time scale, so
every calculus identity below holds on it exactly (not just in the limit).

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
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np


class DomainError(ValueError):
    """A point is not an element of the time scale."""


class EmptyInteriorError(ValueError):
    """The time scale has no points strictly between its endpoints."""


class GridMismatchError(ValueError):
    """Two grid functions do not live on the same grid."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with positive length."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"interval needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def min(self) -> float:
        return self.lo

    @property
    def max(self) -> float:
        return self.hi

    def __str__(self) -> str:
        return f"[{_fmt(self.lo)},{_fmt(self.hi)}]"


@dataclass(frozen=True)
class Point:
    """A single isolated point."""

    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError("point must be finite")

    @property
    def min(self) -> float:
        return self.t

    @property
    def max(self) -> float:
        return self.t

    def __str__(self) -> str:
        return _fmt(self.t)


Segment = Union[Interval, Point]


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


@dataclass(frozen=True)
class TimeScale:
    """Ordered union of disjoint segments with endpoints a = min, b = max.

    Segments must be strictly increasing with positive gaps between the
    closure of one and the start of the next, so membership and the jump
    operators are unambiguous.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("time scale needs at least one segment")
        object.__setattr__(self, "segments", segs)
        for prev, cur in zip(segs, segs[1:]):
            if not prev.max < cur.min:
                raise ValueError(
                    f"segments must be separated by positive gaps: "
                    f"{prev} then {cur}"
                )
        if self.a == self.b:
            raise ValueError("time scale must contain more than one point")

    @property
    def a(self) -> float:
        return self.segments[0].min

    @property
    def b(self) -> float:
        return self.segments[-1].max

    def __contains__(self, t: float) -> bool:
        return any(
            (isinstance(s, Point) and t == s.t)
            or (isinstance(s, Interval) and s.lo <= t <= s.hi)
            for s in self.segments
        )

    def has_interior(self) -> bool:
        """Whether (a, b) intersected with the scale is nonempty."""
        first = self.segments[0]
        if isinstance(first, Interval):
            return True  # (lo, hi) contributes interior points
        return len(self.segments) > 2 or isinstance(self.segments[-1], Interval)

    def _require_member(self, t: float) -> None:
        if t not in self:
            raise DomainError(f"{t} is not in the time scale {self}")

    def sigma(self, t: float) -> float:
        """Forward jump: the nearest scale point strictly right of t (or t)."""
        self._require_member(t)
        if t >= self.b:
            return self.b
        for i, s in enumerate(self.segments):
            if isinstance(s, Interval) and s.lo <= t < s.hi:
                return t  # right-dense
            if t == s.max:
                return self.segments[i + 1].min
        raise AssertionError("unreachable")

    def rho(self, t: float) -> float:
        """Backward jump: the nearest scale point strictly left of t (or t)."""
        self._require_member(t)
        if t <= self.a:
            return self.a
        for i, s in enumerate(self.segments):
            if isinstance(s, Interval) and s.lo < t <= s.hi:
                return t  # left-dense
            if t == s.min:
                return self.segments[i - 1].max
        raise AssertionError("unreachable")

    def mu(self, t: float) -> float:
        """Forward graininess sigma(t) - t."""
        return self.sigma(t) - t

    def nu(self, t: float) -> float:
        """Backward graininess t - rho(t)."""
        return t - self.rho(t)

    def __str__(self) -> str:
        return ",".join(str(s) for s in self.segments)

    @staticmethod
    def parse(text: str) -> "TimeScale":
        """Parse a time-scale literal such as ``"[0,1],2,3"``.

        The literal is a comma-separated list of segments: ``[lo,hi]`` for a
        closed interval, a bare number for an isolated point.  Whitespace is
        insignificant.
        """
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ValueError("empty time-scale literal")
        segments: list[Segment] = []
        pos = 0
        while pos < len(s):
            if s[pos] == "[":
                end = s.find("]", pos)
                if end < 0:
                    raise ValueError(f"unclosed '[' at offset {pos} in {text!r}")
                body = s[pos + 1 : end]
                parts = body.split(",")
                if len(parts) != 2:
                    raise ValueError(f"interval needs two endpoints: [{body}]")
                segments.append(Interval(_num(parts[0]), _num(parts[1])))
                pos = end + 1
            else:
                end = s.find(",", pos)
                if end < 0:
                    end = len(s)
                segments.append(Point(_num(s[pos:end])))
                pos = end
            if pos < len(s):
                if s[pos] != ",":
                    raise ValueError(f"expected ',' at offset {pos} in {text!r}")
                pos += 1
        return TimeScale(tuple(segments))


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
    ``default_subintervals`` uniform subintervals.
    """

    h: float | None = None
    counts: tuple[int, ...] | None = None
    default_subintervals: int = 8

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
            return max(1, math.ceil(length / self.h - 1e-12))
        return self.default_subintervals


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
    mesh: MeshParams
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
        [t_i, t_{i+1}] that lie inside one of its intervals."""
        member = np.zeros(len(pts), dtype=bool)
        dense = np.zeros(len(pts) - 1, dtype=bool)
        for seg in self.source.segments:
            if isinstance(seg, Point):
                member |= pts == seg.t
                if seg.t not in pts:
                    raise ValueError(f"isolated point {seg.t} missing from grid")
            else:
                inside = (pts >= seg.lo) & (pts <= seg.hi)
                member |= inside
                dense |= inside[:-1] & inside[1:]
                for end in (seg.lo, seg.hi):
                    if end not in pts:
                        raise ValueError(f"interval endpoint {end} missing from grid")
        if not member.all():
            stray = pts[~member][0]
            raise ValueError(f"grid point {stray} is not in the time scale")
        return dense

    @property
    def m(self) -> int:
        """Index of the last point (the grid has m + 1 points)."""
        return len(self.points) - 1

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
    def interior(self) -> np.ndarray:
        """Points strictly between a and b."""
        return self.points[1:-1]

    @property
    def n_interior(self) -> int:
        return len(self.points) - 2

    def index_of(self, t: float, tol: float = 1e-12) -> int:
        i = int(np.searchsorted(self.points, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j <= self.m and abs(self.points[j] - t) <= tol * max(1.0, abs(t)):
                return j
        raise DomainError(f"{t} is not a grid point")

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
    exactly.  Deterministic: identical inputs give identical grids.
    """
    mesh = mesh or MeshParams()
    if not ts.has_interior():
        raise EmptyInteriorError(f"time scale {ts} has empty interior")
    pieces: list[np.ndarray] = []
    interval_index = 0
    for seg in ts.segments:
        if isinstance(seg, Point):
            pieces.append(np.array([seg.t]))
        else:
            n = mesh.subintervals(seg.hi - seg.lo, interval_index)
            interval_index += 1
            pieces.append(np.linspace(seg.lo, seg.hi, n + 1))
    points = np.concatenate(pieces)
    return Grid(points=points, source=ts, mesh=mesh)


def _axes(grids: Grid | Sequence[Grid]) -> tuple[Grid, ...]:
    return (grids,) if isinstance(grids, Grid) else tuple(grids)


def _shape(grids: Sequence[Grid]) -> tuple[int, ...]:
    return tuple(len(g.points) for g in grids)


def coordinates(grids: Sequence[Grid]) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """Each axis's points shaped to broadcast over the closed product grid,
    and the shape of that grid."""
    n = len(grids)
    xs = [
        g.points.reshape([-1 if d == ax else 1 for d in range(n)])
        for ax, g in enumerate(grids)
    ]
    return xs, _shape(grids)


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
        vals = np.array(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        expected = _shape(grids)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, grids imply {expected}")

    @staticmethod
    def from_callable(grid: Grid, fn: Callable[[float], float]) -> "GridFunction":
        return GridFunction(grid, np.array([fn(t) for t in grid.points]))

    @staticmethod
    def zeros(grids: Grid | Sequence[Grid]) -> "GridFunction":
        grids = _axes(grids)
        return GridFunction(grids, np.zeros(_shape(grids)))

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

    def with_interior(self, interior: np.ndarray) -> "GridFunction":
        vals = np.zeros(self.values.shape)
        vals[tuple(slice(1, -1) for _ in self.grids)] = interior
        return GridFunction(self.grids, vals)

    def boundary_max(self) -> float:
        """Largest absolute value on the boundary of the closed product."""
        mask = np.zeros(self.values.shape, dtype=bool)
        for ax in range(self.ndim):
            sl0 = [slice(None)] * self.ndim
            sl0[ax] = 0
            mask[tuple(sl0)] = True
            sl0[ax] = -1
            mask[tuple(sl0)] = True
        if not mask.any():
            return 0.0
        return float(np.abs(self.values[mask]).max())


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


def product_delta_inner(u: GridFunction, v: GridFunction) -> float:
    """Inner product sum of u v w over the closed grid, where w is the tensor
    product of the per-axis grid weights (:attr:`Grid.weights`).

    The measure is the grid weights, not the delta measure ``mu``: the two
    differ where an interval meets a scattered gap.  The name is kept
    because ``bench/tracing.py`` traces this module's functions by name.
    """
    if u.grids != v.grids:
        raise GridMismatchError("grid functions live on different grids")
    w = u.values * v.values
    for ax, g in enumerate(u.grids):
        shape = [1] * u.ndim
        shape[ax] = -1
        w = w * g.weights.reshape(shape)
    return float(w.sum())


def product_delta_norm(u: GridFunction) -> float:
    return math.sqrt(max(product_delta_inner(u, u), 0.0))
