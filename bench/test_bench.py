"""Smoke test of the benchmark itself, at tiny problem sizes.

    python -m pytest bench/test_bench.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a traced run leaves no wrapper behind, and that the benchmark refuses
to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from tselliptic import cli  # noqa: E402
from tselliptic import nonlinearity as nl  # noqa: E402
from tselliptic import solver as sv  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def namespaces() -> dict:
    return {(m, a): v for m in tracing.MODULES for a, v in vars(sys.modules[m]).items()}


def result(capsys, monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_matches_benchmark():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layer == tracing.LAYER_METRICS


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(capsys, monkeypatch, workload):
    r = result(capsys, monkeypatch, workload, 0)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 2
    assert {k: v["unit"] for k, v in r["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in r["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_layers_and_restores(capsys, monkeypatch, workload):
    before = namespaces()
    r = result(capsys, monkeypatch, workload, 1)
    assert r["correct"] and r["failed"] == 0
    assert {k: v["unit"] for k, v in r["metrics"].items()} == {
        k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()
    }
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracing.leftover_wrappers() == []


def test_patching_reaches_every_namespace_and_spans_outermost_only():
    tracer = tracing.Tracer()
    discretize, picard_solve = sv.discretize, sv.picard_solve
    expr = nl.parse("sin(u) + 2*(u - 1)^2")
    with tracing.Patched(tracer):
        assert sv.discretize.__wrapped__ is discretize  # solver imports it by name
        assert cli.sv.picard_solve.__wrapped__ is picard_solve  # cli calls sv.*
        with tracer.op(0):
            nl.evaluate_arrays(expr, [], 0.5)
    assert sv.discretize is discretize and sv.picard_solve is picard_solve
    assert tracing.leftover_wrappers() == []
    assert [s.name for s in tracer.spans] == ["nonlinearity.evaluate_arrays"]


def test_self_time_excludes_children():
    spans = [
        tracing.Span("outer", 0.0, 10.0, -1, 0),
        tracing.Span("inner", 1.0, 4.0, 0, 0),
        tracing.Span("inner", 5.0, 7.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [5.0, 3.0, 2.0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout



def test_tail_falls_back_on_short_runs():
    assert run.tail(list(range(4))) == (3, 100.0, 0, "max")
    assert run.tail(list(range(15)))[:2] == (7, 800 / 15)
    assert run.tail(list(range(20))) == (10, 55.0, 9, "median")  # not below the median 9.5
    value, pct, beyond, fallback = run.tail(list(range(35)))
    assert (value, beyond, fallback) == (24, 10, None)
