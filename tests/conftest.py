"""Shared generators for randomized property tests (fixed seeds)."""

import numpy as np
import pytest

from tselliptic.timescale import (
    EmptyInteriorError,
    Grid,
    GridFunction,
    MeshParams,
    Segment,
    TimeScale,
    discretize,
)


def random_timescale(rng: np.random.Generator, discrete_only: bool = False) -> TimeScale:
    """A small random union of intervals and isolated points."""
    while True:
        segments = []
        t = float(rng.uniform(-3.0, 3.0))
        for _ in range(int(rng.integers(2, 6))):
            if not discrete_only and rng.random() < 0.4:
                length = float(rng.uniform(0.3, 2.0))
                segments.append(Segment(t, t + length))
                t += length
            else:
                segments.append(Segment(t, t))
            t += float(rng.uniform(0.2, 1.5))
        ts = TimeScale(tuple(segments))
        try:
            discretize(ts)
        except EmptyInteriorError:
            continue  # two isolated points
        return ts


def random_grid(rng: np.random.Generator, discrete_only: bool = False) -> Grid:
    ts = random_timescale(rng, discrete_only=discrete_only)
    n = int(rng.integers(3, 9))
    return discretize(ts, MeshParams(counts=(n + 1,) * len(ts.segments)))


def random_dirichlet(rng: np.random.Generator, grid: Grid) -> GridFunction:
    vals = rng.standard_normal(len(grid.points))
    vals[0] = 0.0
    vals[-1] = 0.0
    return GridFunction(grid, vals)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
