"""Spans around calls into tselliptic's public functions, from outside.

The traced run replaces each function named in ``TRACED`` by a wrapper in
every tselliptic namespace that holds it, because the program looks names
up in different places: ``solver`` imports ``discretize`` and
``product_delta_norm`` by name, ``cli`` calls ``sv.*`` and ``sp.*``, and
``evaluate_arrays`` recurses through its own module global.  Spans are kept
in memory; ``layer_metrics`` turns them into per-op counts and self times.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = (
    "tselliptic",
    "tselliptic.timescale",
    "tselliptic.operator",
    "tselliptic.spectral",
    "tselliptic.nonlinearity",
    "tselliptic.solver",
    "tselliptic.cli",
)

# (layer, function) pairs whose calls become spans.
TRACED = (
    ("timescale", "discretize"),
    ("timescale", "product_delta_norm"),
    ("operator", "assemble"),
    ("operator", "tridiag_solve"),
    ("spectral", "spectrum_1d"),
    ("spectral", "eigen_shooting"),
    ("spectral", "tensor_spectrum"),
    ("nonlinearity", "nemytskii"),
    ("nonlinearity", "evaluate_arrays"),
    ("nonlinearity", "check_one_sided"),
    ("nonlinearity", "parse"),
    ("solver", "spectral_inverse"),
    ("solver", "residual"),
    ("solver", "apply_operator"),
    ("solver", "picard_solve"),
    ("solver", "homotopy_solve"),
    ("solver", "enumerate_small"),
    ("cli", "main"),
    ("cli", "build_problem"),
)

# Recursive functions whose nested calls are folded into the outermost span.
OUTERMOST_ONLY = {"nonlinearity.evaluate_arrays"}

_MARK = "__bench_span_wrapper__"
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top of an op
    op: int
    counts: dict = field(default_factory=dict)


def _counts(name: str, args, kwargs, result) -> dict:
    """Work counts read from the arguments and result of one call."""
    if name == "nonlinearity.nemytskii":
        return {"points": int(args[2].values.size)}
    if name == "spectral.spectrum_1d":
        return {"eigenpairs": result.count, "eigvec_bytes": int(result.phis.nbytes)}
    if name in ("solver.picard_solve", "solver.homotopy_solve"):
        return {"iterations": int(result.iterations)}
    if name == "solver.enumerate_small":
        problem = args[0]
        density = kwargs.get("grid_density", args[2] if len(args) > 2 else None)
        unknowns = int(np.prod([g.n_interior for g in problem.grids]))
        return {"starts": int(density) ** unknowns, "roots": len(result.solutions)}
    return {}


class Tracer:
    """Records spans while ``active``; one tracer serves one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    @contextlib.contextmanager
    def op(self, op: int):
        """Record spans, tagged with this op id, while the block runs."""
        self.op_id = op
        self._stack.clear()
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def wrap(self, name: str, fn):
        tracer = self
        outermost = name in OUTERMOST_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (outermost and tracer._depth.get(name, 0)):
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._depth[name] = tracer._depth.get(name, 0) + 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._depth[name] -= 1
                tracer._stack.pop()
            span.counts = _counts(name, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


class Patched:
    """Context manager that installs a tracer's wrappers and restores the
    original attributes on exit, whatever happened inside."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [sys.modules[m] for m in MODULES]
        for layer, func in TRACED:
            original = getattr(sys.modules[f"tselliptic.{layer}"], func)
            wrapper = self.tracer.wrap(f"{layer}.{func}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.saved.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in self.saved:
            setattr(mod, attr, original)
        return False


def leftover_wrappers() -> list[str]:
    """Names of tselliptic attributes that are still span wrappers."""
    return [
        f"{m}.{attr}"
        for m in MODULES
        for attr, value in vars(sys.modules[m]).items()
        if getattr(value, _MARK, False)
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics

# name -> (unit, better); every traced run emits all of them.  The solver
# entry points get self time only: each op calls one of them once.
_ENTRY_POINTS = {"solver.picard_solve", "solver.homotopy_solve", "solver.enumerate_small"}
LAYER_METRICS: dict[str, tuple[str, str]] = {}
for _name in (f"{layer}.{func}" for layer, func in TRACED):
    if _name not in _ENTRY_POINTS:
        LAYER_METRICS[f"{_name}.calls"] = ("count/op", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s/op", "lower")
LAYER_METRICS.update(
    {
        "spectral.eigenpairs": ("count/op", "lower"),
        "spectral.eigvec_mib": ("MiB/op", "lower"),
        "nonlinearity.nemytskii.points": ("count/op", "lower"),
        "solver.iterations": ("count/op", "lower"),
        "solver.f_evals_per_iter": ("ratio", "lower"),
        "solver.starts": ("count/op", "lower"),
        "solver.roots": ("count/op", "higher"),
        "solver.root_ratio": ("ratio", "higher"),
        "cli.files_written": ("count/op", "lower"),
        "cli.bytes_written": ("bytes/op", "lower"),
        "lam1_relerr": ("ratio", "lower"),
        "trace.op_s": ("s", "lower"),
        "trace.untraced_op_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    }
)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls run on one thread, so children never overlap each other.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], op_times: list[float], extras: dict) -> dict:
    """Per-op averages over the traced ops.

    ``op_times`` are the traced ops' wall times; ``extras`` carries what the
    benchmark measured outside the spans (files written, lam1_relerr and the
    paired untraced op times).
    """
    n_ops = max(len(op_times), 1)
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    totals: dict[str, int] = {}
    for s, st in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        for key, value in s.counts.items():
            totals[key] = totals.get(key, 0) + value

    # Nemytskii calls made while a fixed-point loop was running.
    loops = {"solver.picard_solve", "solver.homotopy_solve"}
    in_loop = 0
    for s in spans:
        if s.name != "nonlinearity.nemytskii":
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in loops:
            p = spans[p].parent
        in_loop += p >= 0

    out: dict[str, float] = {}
    for layer, func in TRACED:
        name = f"{layer}.{func}"
        if f"{name}.calls" in LAYER_METRICS:
            out[f"{name}.calls"] = calls.get(name, 0) / n_ops
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n_ops
    iterations = totals.get("iterations", 0)
    starts = totals.get("starts", 0)
    roots = totals.get("roots", 0)
    traced_op = float(np.median(op_times)) if op_times else 0.0
    untraced_op = float(np.median(extras["untraced_op_times"])) if op_times else 0.0
    out.update(
        {
            "spectral.eigenpairs": totals.get("eigenpairs", 0) / n_ops,
            "spectral.eigvec_mib": totals.get("eigvec_bytes", 0) / MIB / n_ops,
            "nonlinearity.nemytskii.points": totals.get("points", 0) / n_ops,
            "solver.iterations": iterations / n_ops,
            "solver.f_evals_per_iter": in_loop / iterations if iterations else 0.0,
            "solver.starts": starts / n_ops,
            "solver.roots": roots / n_ops,
            "solver.root_ratio": roots / starts if starts else 0.0,
            "cli.files_written": extras["files_written"] / n_ops,
            "cli.bytes_written": extras["bytes_written"] / n_ops,
            "lam1_relerr": extras["lam1_relerr"],
            "trace.op_s": traced_op,
            "trace.untraced_op_s": untraced_op,
            "trace.overhead_s": traced_op - untraced_op,
        }
    )
    if set(out) != set(LAYER_METRICS):
        raise RuntimeError(f"layer metrics out of sync: {set(out) ^ set(LAYER_METRICS)}")
    return out
