#!/usr/bin/env python3
"""tselliptic benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each workload is a closed loop with one client: an op
starts only after the previous one has returned and been checked.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs each input untraced and traced in turn and
reports per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Details go to ``.bench_out/`` in the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# BLAS threads are pinned before numpy loads; children inherit the setting.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7  # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 120
TAIL_BEYOND = 10   # samples that must lie beyond the tail percentile

END_TO_END = {
    "op_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_mib": "MiB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import tselliptic from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "tselliptic" / "__init__.py").is_file():
        raise SystemExit(f"error: no tselliptic sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import tselliptic

    if Path(tselliptic.__file__).resolve().parent != (src / "tselliptic").resolve():
        raise SystemExit(f"error: imported tselliptic from {tselliptic.__file__}")
    import workloads

    return workloads


def prepare(wl, seed: int, n: int, sizes, work: Path) -> list:
    """Set-up: generate the inputs (and, for the CLI, write config files)."""
    work.mkdir(parents=True, exist_ok=True)
    # numpy seeds must be non-negative; the modulus leaves those unchanged
    return wl.make_inputs(np.random.default_rng(seed % 2**64), n, sizes, work)


def environment() -> dict:
    import scipy

    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            sha = git.stdout.strip() or None
        except OSError:  # no git executable
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tselliptic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_instance": caches,
        "bytes_note": "all byte figures are computed sizes, not measured traffic",
    }


class Runner:
    """Runs ops of one workload, checks each outside the timed interval,
    and counts what was attempted and what failed."""

    def __init__(self, wl, inputs, sizes, work: Path):
        self.wl, self.inputs, self.sizes, self.work = wl, inputs, sizes, work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.relerr: list[float] = []

    def run(self, i: int, around=contextlib.nullcontext):
        """One op on input i, inside ``around(i)``; returns (op seconds,
        output), the output being None when the op raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with around(i):
                out = self.wl.run(self.inputs[i % len(self.inputs)], self.sizes, self.work)
        except Exception:  # an op that raises is a failed op; keep measuring
            self._fail(i, traceback.format_exc())
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, out

    def check(self, i: int, out):
        """Checks the output of the op on input i; returns (check seconds,
        Check), the Check being None when the op or its check raised."""
        if out is None:
            return 0.0, None
        t0 = time.perf_counter()
        try:
            check = self.wl.check(self.inputs[i % len(self.inputs)], out, self.sizes)
        except Exception:
            self._fail(i, traceback.format_exc())
            return time.perf_counter() - t0, None
        if not check.ok:
            self._fail(i, check.message)
        elif check.lam1_relerr is not None:
            self.relerr.append(check.lam1_relerr)
        return time.perf_counter() - t0, check

    def once(self, i: int, around=contextlib.nullcontext):
        """Runs and checks one op; returns (op seconds, check seconds, Check)."""
        op, out = self.run(i, around)
        chk, check = self.check(i, out)
        return op, chk, check

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {i}: {message}")
            print(f"# FAILED op {i}: {message}", file=sys.stderr)

    def loop(self, seconds: float, between) -> tuple[list[float], float]:
        """Ops back to back until `seconds` of timed wall time have passed;
        returns (op times, timed wall seconds).  The checks, and
        ``between(wall)`` after each op, are not timed."""
        times: list[float] = []
        untimed = 0.0
        start = time.perf_counter()
        while True:
            op, chk, _ = self.once(len(times))
            times.append(op)
            untimed += chk
            wall = time.perf_counter() - start - untimed
            if wall >= seconds:
                return times, wall
            t0 = time.perf_counter()
            between(wall)
            untimed += time.perf_counter() - t0


def measure_setup(args, count: int) -> list[float]:
    """Wall seconds of `count` fresh processes that import the program,
    generate the inputs and write the config files, then exit.

    Each child is reaped with a blocking ``wait()``: ``subprocess.run`` with
    a timeout polls instead, which rounds every sample up to its next poll
    tick.  A timer kills a child that hangs.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            if child.poll() is None:  # the wait was interrupted
                child.kill()
                child.wait()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
    return samples


def peak_mib(runner: Runner, i: int) -> float:
    """tracemalloc peak of one op on input i, its check excluded."""
    import tracemalloc

    peaks = []

    @contextlib.contextmanager
    def traced_memory(_):
        tracemalloc.start()
        try:
            yield
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    runner.once(i, traced_memory)
    return peaks[0] / float(1 << 20) if peaks else 0.0  # 0.0: the op raised


def tail(times: list[float]) -> tuple[float, float, int, str | None]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Short runs fall back: with at most TAIL_BEYOND samples no rank has that
    many beyond it, and the maximum is taken; with up to 2 * TAIL_BEYOND the
    rank would fall below the median, and the lowest sample not below the
    median is taken.  Returns (value, percentile, samples beyond it,
    fallback or None).
    """
    ranked = sorted(times)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        k, fallback = n - 1, "max"
    elif n - 1 - TAIL_BEYOND < n // 2:
        k, fallback = n // 2, "median"
    else:
        k, fallback = n - 1 - TAIL_BEYOND, None
    return ranked[k], 100.0 * (k + 1) / n, n - 1 - k, fallback


def run_end_to_end(args, runner: Runner, record: dict) -> dict:
    """Set-up is sampled before the timed loop, between its ops as it
    reaches each sixth of its length, and after it, so that the median of
    the samples spans the run and not one moment of a drifting machine."""
    setup: list[float] = []

    def sample_setup(wall: float) -> None:
        share = min(wall / args.seconds, 1.0) if args.seconds > 0 else 1.0
        due = 1 + int((SETUP_SAMPLES - 1) * share)
        setup.extend(measure_setup(args, due - len(setup)))

    sample_setup(0.0)
    # the peak pass runs first and untimed; it also warms caches
    peak = peak_mib(runner, len(runner.inputs) - 1)
    times, wall = runner.loop(args.seconds, sample_setup)
    setup.extend(measure_setup(args, SETUP_SAMPLES - len(setup)))
    value, pct, beyond, fallback = tail(times)
    record.update(
        op_times=times,
        timed_wall_s=wall,
        setup_samples=setup,
        tail={"percentile": pct, "samples_beyond": beyond, "samples": len(times),
              "fallback": fallback},
    )
    print(
        f"# {args.workload}: {len(times)} ops in {wall:.2f} s; op_tail_s is "
        f"p{pct:.1f} with {beyond} of {len(times)} samples beyond it"
        + (f" (short run: {fallback})" if fallback else "")
    )
    return {
        "op_s": statistics.median(times),
        "op_tail_s": value,
        "ops_per_s": len(times) / wall,
        "setup_s": statistics.median(setup),
        "peak_mib": peak,
    }


def run_traced(args, runner: Runner, record: dict) -> dict:
    """Each input runs twice, untraced and traced, in alternating order, so
    both runs of a pair see the same machine state and warm caches favour
    neither side.  Wrappers are installed only around the traced run."""
    import tracing

    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    checks = []
    busy = 0.0
    i = 0
    while i == 0 or busy < args.seconds:
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side:
                with tracing.Patched(tracer):
                    op, out = runner.run(i, tracer.op)
                _, check = runner.check(i, out)
                traced.append(op)
                checks.append(check)
            else:
                op, _, _ = runner.once(i)
                untraced.append(op)
            busy += op
        i += 1
    leftover = tracing.leftover_wrappers()
    n = len(traced)
    ok = [c for c in checks if c is not None and c.ok]
    relerr = [c.lam1_relerr for c in ok if c.lam1_relerr is not None] or [0.0]
    extras = {
        "untraced_op_times": untraced,
        "files_written": sum(c.files for c in ok),
        "bytes_written": sum(c.bytes for c in ok),
        "lam1_relerr": statistics.median(relerr),
    }
    metrics = tracing.layer_metrics(tracer.spans, traced, extras)
    record.update(untraced_op_times=untraced, traced_op_times=traced, leftover=leftover)
    trace_file = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    trace_file.write_text(
        json.dumps(
            [[s.name, s.start, s.end, s.parent, s.op, s.counts] for s in tracer.spans]
        )
    )
    op_total = sum(traced) / max(n, 1)
    spanned = sum(s.end - s.start for s in tracer.spans if s.parent < 0) / max(n, 1)
    print(f"# {args.workload}: {n} traced ops, spans in {trace_file.relative_to(ROOT)}")
    print(f"# tracing overhead {metrics['trace.overhead_s']:.5f} s/op; "
          f"op time outside every span {op_total - spanned:.5f} s/op")
    for name, value in sorted(metrics.items()):
        if name.endswith("self_s") and value > 0:
            print(f"#   {name:42s} {value:10.5f} s/op  {100 * value / op_total:5.1f}%")
    return metrics


def main(argv=None, sizes=None) -> int:
    """``sizes`` overrides the problem sizes (the smoke test uses TINY)."""
    args = parse_args(argv)
    wmod = load_program()
    sizes = sizes or wmod.FULL
    if args.workload not in wmod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wmod.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = wmod.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs = prepare(wl, args.seed, wmod.N_INPUTS, sizes, work)
        if args.setup_only:
            return 0
        runner = Runner(wl, inputs, sizes, work)
        record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                        "seconds": args.seconds, "environment": environment()}
        if args.trace:
            import tracing

            metrics = run_traced(args, runner, record)
            units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
        else:
            metrics = run_end_to_end(args, runner, record)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if runner.relerr:
        record["lam1_relerr_median"] = statistics.median(runner.relerr)
    record.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures,
                  fail_ratio=runner.failed / max(runner.attempted, 1), metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(f"# fail_ratio = {runner.failed}/{runner.attempted}"
          f"; lam1_relerr = {record.get('lam1_relerr_median')}")
    result = {
        "correct": runner.failed == 0 and not record.get("leftover"),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
