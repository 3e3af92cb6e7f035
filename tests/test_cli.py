import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tselliptic import cli
from tselliptic import operator as op_mod
from tselliptic import solver as sv
from tselliptic import spectral as sp
from tselliptic.timescale import (
    MAX_AXIS_POINTS,
    GridFunction,
    MeshParams,
    TimeScale,
    discretize,
)


def write_config(tmp_path, name="cfg.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs))
    return str(path)


# the Quick start example of the README
README_CONFIG = {
    "axes": ["[0,1],2,3"],
    "mesh": {"h": 0.001},
    "f": "C",
    "params": {"C": 1.0},
    "hypotheses": {"L": 0.0},
    "solver": {"method": "picard"},
}


class TestConfig:
    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"], bogus=1)
        assert cli.main(["solve", "--config", cfg]) == 3

    def test_unknown_nested_key(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"], solver={"tol": 1})
        assert cli.main(["solve", "--config", cfg]) == 3

    def test_missing_axes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["spectrum", "--config", cfg]) == 3

    def test_bad_literal(self, tmp_path):
        cfg = write_config(tmp_path, axes=["[1,0]"])
        assert cli.main(["spectrum", "--config", cfg]) == 3

    def test_bad_expression(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"], f="1 +")
        assert cli.main(["solve", "--config", cfg]) == 3

    def test_missing_file(self):
        assert cli.main(["spectrum", "--config", "/nonexistent.json"]) == 3

    def test_empty_interior_axis(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1"])
        assert cli.main(["spectrum", "--config", cfg]) == 3
        assert cli.main(["solve", "--config", cfg]) == 3

    def test_greens_out_of_range(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        assert cli.main(["greens", "--config", cfg, "--t", "5", "--s", "1"]) == 3


class TestSpectrum:
    def test_discrete_prints_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        assert cli.main(["spectrum", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "1,3"
        assert "shooting lambda1 = 1" in out

    def test_shooting_lambda1_on_a_long_interval(self, tmp_path, capsys):
        # pi^2 / 1e10; the grid value at h = 50 is 2e-7 below it
        cfg = write_config(tmp_path, axes=["[0,1e5]"], mesh={"h": 50})
        assert cli.main(["spectrum", "--config", cfg, "--k", "1"]) == 0
        assert "shooting lambda1 = 9.86960440109e-10\n" in capsys.readouterr().out

    def test_hybrid_lambda1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["[0,1],2,3"], mesh={"h": 1e-3})
        assert cli.main(["spectrum", "--config", cfg, "--k", "1"]) == 0
        out = capsys.readouterr().out
        lam = float(out.splitlines()[0])
        assert abs(lam - 0.840) <= 1e-3

    def test_2d_tensor(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3", "0,1,2,3"])
        assert cli.main(["spectrum", "--config", cfg, "--k", "4"]) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "2,4,4,6"

    def test_csv_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "eigenvalues.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "eigenvalue"]
        assert rows[1] == ["1", "1"]
        assert rows[2] == ["2", "3"]
        phi = list(csv.reader(open(out / "eigenfunction_01.csv", newline="")))
        assert phi[0] == ["t", "phi"]
        assert len(phi) == 5  # header + 4 grid points
        assert float(phi[2][1]) == pytest.approx(2**-0.5, abs=1e-14)

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        out = tmp_path / "outj"
        assert (
            cli.main(
                ["spectrum", "--config", cfg, "--out", str(out), "--format", "json"]
            )
            == 0
        )
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["eigenvalues"][0]["lambda"] == 1.0
        assert payload["lambda1_lower_bound"] == pytest.approx(4 / 9)

    @pytest.mark.parametrize(
        "axes, k",
        [
            (["0,1,2,3", "0,1,2,3"], "0"),
            (["0,1,2,3,4,5,6,7,8,9"], "-2"),
            (["0,1,2,3"], "0"),
            # above the bound, refused before any eigensolve
            (["[0,1]", "[0,1]"], str(MAX_AXIS_POINTS + 1)),
        ],
    )
    def test_k_below_one_exit_3(self, tmp_path, capsys, monkeypatch, axes, k):
        monkeypatch.setattr(sp, "spectrum_1d", None)
        cfg = write_config(tmp_path, axes=axes)
        assert cli.main(["spectrum", "--config", cfg, "--k", k]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        if int(k) < 1:
            assert "--k must be at least 1" in captured.err
        else:
            assert f"--k must be at most {MAX_AXIS_POINTS}, got {k}" in captured.err

    def test_1d_default_lists_eight(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=[",".join(map(str, range(12)))])
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()[0].split(",")) == 8
        assert len(list(out.glob("eigenfunction_*.csv"))) == 8

    def test_h_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["[0,3]"])
        assert cli.main(["spectrum", "--config", cfg, "--k", "1", "--h", "0.001"]) == 0
        lam = float(capsys.readouterr().out.splitlines()[0])
        assert abs(lam - math.pi**2 / 9) <= 1e-4

    def test_lambda1_is_the_one_solve_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **README_CONFIG)
        out = tmp_path / "out"
        argv = ["spectrum", "--config", cfg, "--k", "3", "--format", "json"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert cli.main(["solve", "--config", cfg]) == 0
        lam1 = json.loads(capsys.readouterr().out)["lambda1"]
        assert printed[1] == f"lambda1 = {lam1:.12g}"
        assert json.loads((out / "spectrum.json").read_text())["lambda1"] == lam1

    @pytest.mark.parametrize("axes", [["[0,1],2,3"], ["[0,1],2,3", "0,0.5,1,2"]])
    def test_k_eigenpairs_per_axis(self, tmp_path, capsys, monkeypatch, axes):
        calls = []
        solve = sp.spectrum_1d

        def recorded(grid, k=None):
            calls.append(k)
            return solve(grid, k)

        monkeypatch.setattr(sp, "spectrum_1d", recorded)
        cfg = write_config(tmp_path, axes=axes, mesh={"h": 0.01})
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--config", cfg, "--k", "3", "--out", str(out)]) == 0
        assert calls and None not in calls

        grids = [discretize(TimeScale.parse(a), MeshParams(h=0.01)) for a in axes]
        full = sp.tensor_spectrum([solve(g) for g in grids], 3).eigenvalues
        listed = np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1, usecols=1)
        norm = sum(
            np.max(np.abs(A.diag) + np.abs(A.sub) + np.abs(A.sup))
            for A in map(op_mod.assemble, grids)
        )
        assert np.abs(listed - full).max() <= 64 * np.finfo(float).eps * norm


class TestSolve:
    def test_constant_converges(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="C",
            params={"C": 1.0},
            hypotheses={"L": 0.0},
        )
        out = tmp_path / "run"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["status"] == "converged"
        assert diag["residual"] <= 1e-12
        rows = list(csv.reader(open(out / "solution.csv", newline="")))
        assert rows[0] == ["x1", "u"]
        assert float(rows[2][1]) == pytest.approx(-1.0, abs=1e-13)

    def test_non_contraction_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, axes=["0,1,2,3"], f="-u", hypotheses={"L": 1.0}
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["status"] == "non_contraction"

    def test_enumerate_no_solution_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="1+u^2",
            solver={"method": "enumerate", "box": 30.0, "density": 61},
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        diag = json.loads(capsys.readouterr().out)
        assert diag["status"] == "no_real_solution_suspected"
        assert diag["solutions"] == []

    def test_enumerate_writes_solutions(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="2*u",
            solver={"method": "enumerate", "box": 5.0, "density": 21},
        )
        out = tmp_path / "enum"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "solution_01.csv").exists()

    def test_enumerate_start_budget_exit_3(self, tmp_path, capsys, monkeypatch):
        # 10^14 starts would need 728 TiB; both meshgrids are patched out,
        # so the refusal is shown to come before any lattice is built
        monkeypatch.setattr(np, "meshgrid", None)
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="c + u^2",
            params={"c": 1},
            solver={"method": "enumerate", "density": 10_000_000},
        )
        assert cli.main(["solve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"enumeration takes at most {MAX_AXIS_POINTS**2}" in captured.err

    def test_method_override(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="-2*u",
            hypotheses={"L": 2.0, "alpha": 0.5, "C": 0.0},
            solver={"method": "picard"},
        )
        assert cli.main(["solve", "--config", cfg, "--method", "homotopy"]) == 0
        diag = json.loads(capsys.readouterr().out)
        assert diag["method"] == "homotopy"
        assert diag["status"] == "converged"
        # u = 0 solves it at tau = 1 in one step, so no march runs
        assert (diag["path"], diag["attempt_iterations"]) == ("direct", diag["iterations"])

    @pytest.mark.parametrize("method", ["picard", "homotopy"])
    def test_non_finite_exit_2_without_warnings(self, tmp_path, capfd, method):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            f="1e308*10",
            hypotheses={"L": 0, "alpha": 0, "C": 1},
            solver={"method": method, "assume_hypotheses": True},
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        out, err = capfd.readouterr()
        assert err == ""
        assert json.loads(out)["note"].startswith("non-finite")

    @pytest.mark.parametrize(
        "config, sample",
        [
            ({"solver": {"accept_estimated_L": True}}, "u = -10"),
            ({"hypotheses": {"alpha": 0.5, "C": 1}, "solver": {"method": "homotopy"}},
             "eta = -10"),
        ],
        ids=["lipschitz", "one-sided"],
    )
    def test_undefined_f_names_sampled_u(self, tmp_path, capsys, config, sample):
        # sqrt(u) is defined at every grid point of the iterates; the
        # sampled range (-box, box) of the hypothesis checks is not.  The
        # checks sample the interior, so the first point named is x = 1.
        cfg = write_config(tmp_path, axes=["0,1,2,3"], f="sqrt(u) + 1", **config)
        assert cli.main(["solve", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "error: square root of a negative value at grid point (1.0,), "
            f"{sample}\n"
        )

    @pytest.mark.parametrize(
        "config",
        [
            {"solver": {"accept_estimated_L": True}},
            {"hypotheses": {"alpha": 0.5, "C": 1e4}, "solver": {"method": "homotopy"}},
        ],
        ids=["lipschitz", "one-sided"],
    )
    def test_f_undefined_on_the_boundary_only(self, tmp_path, config):
        # 1/x is undefined at x = 0, where neither the equation nor the
        # hypothesis checks read f
        cfg = write_config(
            tmp_path, axes=["[0,1]"], mesh={"h": 0.05}, f="1/x + 0.1*sin(u)", **config
        )
        out = tmp_path / "run"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["status"] == "converged"

    def test_diverged_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, axes=["0,1,2,3"], f="-u^3", hypotheses={"L": 0.5},
            solver={"initial_guess": 3.0},
        )
        assert cli.main(["solve", "--config", cfg]) == 2
        assert json.loads(capsys.readouterr().out)["note"].startswith("diverged")

    def test_zero_to_negative_power_exit_3(self, tmp_path, capsys):
        # the first iterate is 0, where u^-1 is undefined
        cfg = write_config(
            tmp_path, axes=["0,1,2,3"], f="u^-1 + 1", hypotheses={"L": 0.5}
        )
        assert cli.main(["solve", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: zero raised to a negative power at grid point (1.0,)\n"
        )

    def test_homotopy_missing_hypotheses_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"], f="-u")
        assert cli.main(["solve", "--config", cfg, "--method", "homotopy"]) == 3


class TestGreens:
    def test_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        assert cli.main(["greens", "--config", cfg, "--t", "1.5", "--s", "1.5"]) == 0
        assert "G(1.5,1.5) = 0.75" in capsys.readouterr().out
        assert cli.main(["greens", "--config", cfg, "--t", "0", "--s", "2"]) == 0
        assert "= 0" in capsys.readouterr().out
        assert cli.main(["greens", "--config", cfg, "--t", "1", "--s", "2"]) == 0
        got = float(capsys.readouterr().out.split("=")[1])
        assert got == pytest.approx(1 / 3, abs=1e-15)

    def test_apply_function_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        ffile = tmp_path / "f.csv"
        ffile.write_text("0,0\n1,1\n2,0\n3,0\n")
        out = tmp_path / "g"
        assert (
            cli.main(
                [
                    "greens",
                    "--config",
                    cfg,
                    "--t",
                    "1",
                    "--s",
                    "1",
                    "--apply",
                    str(ffile),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = list(csv.reader(open(out / "inverse.csv", newline="")))
        assert float(rows[2][1]) == pytest.approx(2 / 3, abs=1e-14)
        assert float(rows[3][1]) == pytest.approx(1 / 3, abs=1e-14)

    def test_apply_without_out_prints_rows(self, tmp_path, capsys):
        # G(t,s), then one headerless t,y row per grid point
        cfg = write_config(tmp_path, axes=["[0,1],2,3"], mesh={"h": 0.25})
        points = discretize(TimeScale.parse("[0,1],2,3"), MeshParams(h=0.25)).points
        ffile = tmp_path / "f.csv"
        ffile.write_text("t,value\n" + "".join(f"{t!r},1\n" for t in points.tolist()))
        argv = ["greens", "--config", cfg, "--t", "1", "--s", "1", "--apply", str(ffile)]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(points) == 7 and len(lines) == 8
        assert lines[0].startswith("G(1,1) = ")
        rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert np.array_equal(rows[:, 0], points)
        assert rows[0, 1] == rows[-1, 1] == 0.0 and (rows[1:-1, 1] > 0).all()

    def test_apply_json_out(self, tmp_path):
        # inverse.json in solution.json's layout, with the values of inverse.csv
        cfg = write_config(tmp_path, axes=["[0,1],2,3"], mesh={"h": 0.25})
        points = discretize(TimeScale.parse("[0,1],2,3"), MeshParams(h=0.25)).points
        ffile = tmp_path / "rhs.csv"
        ffile.write_text("t,value\n" + "".join(f"{t!r},1\n" for t in points.tolist()))
        argv = ["greens", "--config", cfg, "--t", "1", "--s", "1", "--apply", str(ffile)]
        assert cli.main([*argv, "--format", "json", "--out", str(tmp_path / "json")]) == 0
        assert cli.main([*argv, "--out", str(tmp_path / "csv")]) == 0
        assert [p.name for p in (tmp_path / "json").iterdir()] == ["inverse.json"]
        payload = json.loads((tmp_path / "json" / "inverse.json").read_text())
        rows = list(csv.reader(open(tmp_path / "csv" / "inverse.csv", newline="")))
        assert payload["axes"] == [points.tolist()]
        assert payload["values"] == [float(y) for _, y in rows[1:]]

    def test_rejects_2d(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3", "0,1,2,3"])
        assert cli.main(["greens", "--config", cfg, "--t", "1", "--s", "1"]) == 3

    def test_apply_file_missing_point(self, tmp_path):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        ffile = tmp_path / "short.csv"
        ffile.write_text("0,0\n1,1\n")
        assert (
            cli.main(
                ["greens", "--config", cfg, "--t", "1", "--s", "1", "--apply", str(ffile)]
            )
            == 3
        )

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_apply_file_non_finite_exit_3(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, axes=["0,1,2,3"])
        ffile = tmp_path / "f.csv"
        ffile.write_text(f"0,0\n1,{value}\n2,1\n3,0\n")
        argv = ["greens", "--config", cfg, "--t", "1", "--s", "1", "--apply", str(ffile)]
        assert cli.main(argv) == 3
        assert "not finite" in capsys.readouterr().err


class TestReproduce:
    @pytest.mark.parametrize(
        "scenario",
        [
            "table-1",
            "ex-7.1",
            "ex-7.2",
            "ex-7.3",
            "ex-7.4",
            "ex-7.5",
            "ex-7.6",
            "ex-7.7",
            "ex-7.9",
        ],
    )
    def test_scenarios_pass(self, scenario, capsys):
        assert cli.main(["reproduce", scenario]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")
        assert "FAIL" not in out

    def test_superlinear_scenario(self, capsys, tmp_path):
        out = tmp_path / "rep"
        assert (
            cli.main(["reproduce", "ex-7.8", "--out", str(out), "--format", "json"])
            == 0
        )
        report = json.loads((out / "report.json").read_text())
        assert all(item["pass"] for item in report)

    def test_unknown_id(self, capsys):
        assert cli.main(["reproduce", "ex-9.9"]) == 3

    def test_deterministic_report(self, capsys, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        cli.main(["reproduce", "table-1", "--out", str(out1)])
        cli.main(["reproduce", "table-1", "--out", str(out2)])
        assert (out1 / "report.csv").read_text() == (out2 / "report.csv").read_text()


class TestOutputConfig:
    def test_config_output_block_as_default(self, tmp_path):
        outdir = tmp_path / "from_config"
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            output={"dir": str(outdir), "formats": ["json"]},
        )
        assert cli.main(["spectrum", "--config", cfg]) == 0
        assert (outdir / "spectrum.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            axes=["0,1,2,3"],
            output={"dir": str(tmp_path / "ignored"), "formats": ["json"]},
        )
        outdir = tmp_path / "flag_out"
        assert (
            cli.main(
                ["spectrum", "--config", cfg, "--out", str(outdir), "--format", "csv"]
            )
            == 0
        )
        assert (outdir / "eigenvalues.csv").exists()
        assert not (tmp_path / "ignored").exists()

    @pytest.mark.parametrize(
        "formats, flag",
        [(["bogus"], "csv"), (["csv", "bogus"], None), (["json", "csv"], None)],
    )
    def test_formats_checked_in_full(self, tmp_path, capsys, formats, flag):
        # an unknown entry anywhere, or two entries when one format is written
        out = tmp_path / "out"
        cfg = write_config(tmp_path, **BASE, output={"formats": formats})
        argv = ["solve", "--config", cfg, "--out", str(out)]
        assert cli.main(argv + (["--format", flag] if flag else [])) == 3
        assert "output.formats" in assert_config_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "greens"])
    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_uncreatable_dir_exit_3(self, tmp_path, capsys, command, where):
        (tmp_path / "afile").write_text("")
        blocked = str(tmp_path / "afile" / "sub")
        if where == "config":
            cfg = write_config(tmp_path, axes=["0,1,2,3"], output={"dir": blocked})
            argv = [command, "--config", cfg]
        else:
            cfg = write_config(tmp_path, axes=["0,1,2,3"])
            argv = [command, "--config", cfg, "--out", blocked]
        if command == "greens":
            argv += ["--t", "1", "--s", "1"]
        assert cli.main(argv) == 3
        assert "cannot create output directory" in assert_config_error(capsys)


class TestCsvFormat:
    def test_17_significant_digits(self, tmp_path):
        # the grid of "[0,1],2,3" at h = 0.5 read as a discrete scale
        cfg = write_config(tmp_path, axes=["0,0.5,1,2,3"])
        out = tmp_path / "digits"
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        rows = list(csv.reader(open(out / "eigenvalues.csv", newline="")))
        lam = rows[1][1]
        assert float(lam) == pytest.approx(0.9319059782860835, rel=1e-12)
        digits = lam.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 15

    @pytest.mark.parametrize("axes, h", [(["[0,1],2,3"], 2e-4), (["[0,1]", "[0,1],2"], 0.01)])
    def test_solution_matches_csv_writer(self, tmp_path, axes, h):
        grids = tuple(discretize(TimeScale.parse(a), MeshParams(h=h)) for a in axes)
        shape = tuple(len(g.points) for g in grids)
        assert math.prod(shape) > cli.CSV_CHUNK_ROWS
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        values.flat[: len(SPECIAL)] = SPECIAL
        values.flat[-len(SPECIAL) :] = SPECIAL
        cli._write_solution(tmp_path, "solution", GridFunction(grids, values), "csv")
        rows = (
            tuple(float(g.points[i]) for g, i in zip(grids, idx)) + (float(values[idx]),)
            for idx in np.ndindex(*shape)
        )
        header = [f"x{i + 1}" for i in range(len(grids))] + ["u"]
        expected = reference_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "solution.csv").read_bytes() == expected

    def test_eigenvalues_match_csv_writer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, axes=["[0,1],2,3", "0,1,2,3"], mesh={"h": 0.05})
        for fmt in cli.FORMATS:
            argv = ["spectrum", "--config", cfg, "--k", "5", "--format", fmt]
            assert cli.main(argv + ["--out", str(tmp_path / fmt)]) == 0
        listed = json.loads((tmp_path / "json" / "spectrum.json").read_text())
        rows = [("-".join(map(str, e["index"])), e["lambda"]) for e in listed["eigenvalues"]]
        expected = reference_csv(tmp_path / "ref.csv", ["index", "eigenvalue"], rows)
        assert (tmp_path / "csv" / "eigenvalues.csv").read_bytes() == expected

    def test_text_cells_match_csv_writer(self, tmp_path):
        n = cli.CSV_CHUNK_ROWS + 3
        items = [f"row {i}" for i in range(n)]
        items[:5] = ["a,b", 'say "x"', "two\nlines", "cr\r", ""]
        numbers = np.linspace(-1.0, 1.0, n)
        numbers[-len(SPECIAL) :] = SPECIAL
        flags = [i % 3 == 0 for i in range(n)]
        cli._write_csv(tmp_path / "t.csv", ["item", "x", "ok"], [items, numbers, flags])
        rows = zip(items, map(float, numbers), flags)
        expected = reference_csv(tmp_path / "ref.csv", ["item", "x", "ok"], rows)
        assert (tmp_path / "t.csv").read_bytes() == expected


SPECIAL = [-0.0, 1e-300, math.nan, math.inf, -math.inf, 5e-324, -1.7976931348623157e308]


def reference_csv(path, header, rows) -> bytes:
    """The table as csv.writer writes it, each float through format(v, ".17g")."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return path.read_bytes()


# A small valid config; each case below replaces one part of it.
BASE = {"axes": ["0,1,2,3"], "f": "0.5*u", "hypotheses": {"L": 0.5}}

BAD_CONFIGS = {
    "mesh.h string": {"mesh": {"h": "abc"}},
    "mesh list": {"mesh": []},
    "mesh.counts number": {"axes": ["[0,1],2,3"], "mesh": {"counts": 5}},
    "hypotheses.L string": {"hypotheses": {"L": "x"}},
    "hypotheses.L true": {"hypotheses": {"L": True}},
    "axes numbers": {"axes": [1, 2]},
    "f number": {"f": 1},
    "solver list": {"solver": [1]},
    "solver.max_iter float": {"solver": {"max_iter": 100.0}},
    "solver.density float": {"solver": {"density": 10.5}},
    "solver.max_iter true": {"solver": {"max_iter": True}},
    "params.a string": {"f": "a*u", "params": {"a": "x"}},
    "output.dir number": {"output": {"dir": 5}},
    "output.formats string": {"output": {"formats": "json"}},
    "solver.initial_guess string": {"solver": {"initial_guess": "0"}},
    "solver.force string": {"hypotheses": {"L": 5}, "solver": {"force": "false"}},
    "f nested parentheses": {"f": "(" * 3000 + "u" + ")" * 3000},
    "f nested sin": {"f": "sin(" * 1500 + "u" + ")" * 1500},
    "f unary minus chain": {"f": "-" * 3000 + "u"},
    "f long sum": {"f": "+".join(["u"] * 3000)},
    "mesh.h over the grid budget": {"axes": ["[0,1]"], "mesh": {"h": 1e-12}},
    "mesh.h so small the step count overflows": {
        "axes": ["[0,1]"],
        "mesh": {"h": 5e-324},
    },
}

# Python's json reads NaN, Infinity and 1e999 (as inf); each must exit 3.
NON_FINITE_CONFIGS = {
    "hypotheses.L NaN": '{"axes": ["0,1,2,3"], "f": "0.5*u", "hypotheses": {"L": NaN}}',
    "hypotheses.L 1e999": '{"axes": ["0,1,2,3"], "f": "0.5*u", "hypotheses": {"L": 1e999}}',
    "solver.box Infinity": (
        '{"axes": ["0,1,2"], "f": "u^2 - 1", '
        '"solver": {"method": "enumerate", "box": Infinity}}'
    ),
    "mesh.h 1e999": '{"axes": ["[0,1]"], "mesh": {"h": 1e999}, "hypotheses": {"L": 0}}',
    "params.a -Infinity": '{"axes": ["0,1,2,3"], "f": "a*u", "params": {"a": -Infinity}}',
}

# Scales whose grid operator has eigenvalues outside the normal doubles
# (diagonals of inf and 2e-316), and one longer than the largest double.
EXTREME_AXES = {
    "tiny gaps": {"axes": ["0,1e-160,2e-160"]},
    "vast interval": {"axes": ["[0,1e160]"], "mesh": {"h": 1e158}},
    "overflowing length": {"axes": ["[-1e308,1e308]"], "mesh": {"h": 1e306}},
}


def assert_config_error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: ")
    assert "Traceback" not in err
    return err


class TestConfigSchema:
    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_bad_config_exits_3_with_one_line(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, **{**BASE, **BAD_CONFIGS[case]})
        assert cli.main(["solve", "--config", cfg]) == 3
        assert_config_error(capsys)

    @pytest.mark.parametrize(
        "config, fragment",
        [
            ({"solver": {"method": "newton"}}, "unknown solver method 'newton'"),
            ({"f": "x2 + u"}, "nonlinearity uses x2 but the domain has dimension 1"),
            (None, "cannot read function file"),
        ],
        ids=["method-newton", "x2-on-one-axis", "function-file-row"],
    )
    def test_refusal_exits_3_with_one_line(self, tmp_path, capsys, config, fragment):
        cfg = write_config(tmp_path, **{**BASE, **(config or {})})
        argv = ["solve", "--config", cfg]
        if config is None:  # a function file whose second row is not t,value
            ffile = tmp_path / "f.csv"
            ffile.write_text("0,0\n1\n2,0\n3,0\n")
            argv = ["greens", "--config", cfg, "--t", "1", "--s", "1", "--apply", str(ffile)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: ")
        assert fragment in err

    @pytest.mark.parametrize("command", ["spectrum", "solve", "greens"])
    def test_mesh_without_interior_exits_3_with_one_line(self, tmp_path, capsys, command):
        # h = 2 meshes [0,1] as its two ends
        cfg = write_config(
            tmp_path, axes=["[0,1]"], mesh={"h": 2}, f="1", hypotheses={"L": 0.0}
        )
        ffile = tmp_path / "f.csv"
        ffile.write_text("0,1\n1,1\n")
        extra = {"greens": ["--t", "0.5", "--s", "0.5", "--apply", str(ffile)]}
        assert cli.main([command, "--config", cfg, *extra.get(command, [])]) == 3
        assert "no interior grid point" in assert_config_error(capsys)

    @pytest.mark.parametrize("command", ["spectrum", "solve"])
    @pytest.mark.parametrize("case", list(EXTREME_AXES))
    def test_extreme_scale_exits_3_with_one_short_line(self, tmp_path, capsys, command, case):
        cfg = write_config(tmp_path, f="1", hypotheses={"L": 0.0}, **EXTREME_AXES[case])
        assert cli.main([command, "--config", cfg]) == 3
        out, err = capsys.readouterr()
        # solve meets the spectrum at run time, where its errors read "error: "
        assert out == "" and err.count("\n") == 1 and "error: " in err
        assert len(err.encode()) < 200

    def test_extreme_scales_run(self, tmp_path, capsys):
        # lambda_1 L^2 at the default 8 cells is 9.74341983856 at every L
        for axis in ("[0,1e-80]", "[0,1e-75]", "[0,1e140]"):
            cfg = write_config(tmp_path, axes=[axis], f="1", hypotheses={"L": 0.0})
            assert cli.main(["spectrum", "--config", cfg]) == 0
            exponent = -2 * int(axis[5:-1])
            assert f"lambda1 = 9.74341983856e{exponent:+04d}\n" in capsys.readouterr().out
            if axis != "[0,1e140]":  # there the solver's squared norms overflow
                assert cli.main(["solve", "--config", cfg]) == 0

    @pytest.mark.parametrize(
        "axis, t", [("[0,1e-80]", "5e-81"), ("0,1e-160,2e-160", "1e-160"), ("[0,1e160]", "5e159")]
    )
    def test_greens_needs_no_spectrum(self, tmp_path, capsys, axis, t):
        # G(t,t) at the middle of [0,L] is L/4, on scales whose spectrum is refused
        cfg = write_config(tmp_path, axes=[axis], mesh={"h": 1e158} if "160]" in axis else {})
        assert cli.main(["greens", "--config", cfg, "--t", t, "--s", t]) == 0
        value = float(capsys.readouterr().out.split(" = ")[1])
        assert value == pytest.approx(float(t) / 2, rel=1e-15, abs=0)

    @pytest.mark.parametrize("case", list(NON_FINITE_CONFIGS))
    def test_non_finite_number_exits_3(self, tmp_path, capsys, case):
        path = tmp_path / "cfg.json"
        path.write_text(NON_FINITE_CONFIGS[case])
        assert cli.main(["solve", "--config", str(path)]) == 3
        assert "must be finite" in assert_config_error(capsys)

    def test_force_string_cannot_skip_contraction_gate(self, tmp_path, capsys):
        # L = 5 is above lambda_1 = 1, so only a real `true` may skip the gate
        cfg = {**BASE, "hypotheses": {"L": 5}}
        path = write_config(tmp_path, **cfg, solver={"force": "false"})
        assert cli.main(["solve", "--config", path]) == 3
        assert "converged" not in capsys.readouterr().out
        path = write_config(tmp_path, **cfg, solver={"force": False})
        assert cli.main(["solve", "--config", path]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "non_contraction"

    def test_every_schema_key_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **full_config(tmp_path))
        assert cli.main(["solve", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "converged"

    def test_parser_depth_limit(self, tmp_path, capsys):
        deepest = "(" * 100 + "u" + ")" * 100
        cfg = write_config(tmp_path, **{**BASE, "f": f"0.5*{deepest}"})
        assert cli.main(["solve", "--config", cfg]) == 0
        capsys.readouterr()
        cfg = write_config(tmp_path, **{**BASE, "f": f"0.5*({deepest})"})
        assert cli.main(["solve", "--config", cfg]) == 3
        assert "nested deeper than 100 levels" in assert_config_error(capsys)

    @pytest.mark.parametrize("method", ["picard", "homotopy"])
    def test_non_finite_json_is_null(self, tmp_path, capsys, method):
        def strict(text):
            return json.loads(text, parse_constant=pytest.fail)

        cfg = write_config(
            tmp_path, axes=["0,1,2,3"], f="1e308*10",
            hypotheses={"L": 0, "alpha": 0, "C": 1},
            solver={"method": method, "assume_hypotheses": True},
        )
        out = tmp_path / "run"
        argv = ["solve", "--config", cfg, "--out", str(out), "--format", "json"]
        assert cli.main(argv) == 2
        diag = strict(capsys.readouterr().out)
        assert diag["residual"] is None and diag["note"].startswith("non-finite")
        assert strict((out / "diagnostics.json").read_text()) == diag
        assert None in strict((out / "solution.json").read_text())["values"]

    def test_grid_budget(self, tmp_path, capsys):
        at_budget = discretize(TimeScale.parse("[0,1]"), MeshParams(h=1e-4))
        assert len(at_budget.points) == MAX_AXIS_POINTS
        with pytest.raises(ValueError, match="grid points"):
            discretize(TimeScale.parse("[0,1],2"), MeshParams(h=1e-4))
        cfg = write_config(tmp_path, axes=["[0,1]"], mesh={"h": 1e-12})
        assert cli.main(["spectrum", "--config", cfg, "--h", "1e-12"]) == 3
        assert f"at most {MAX_AXIS_POINTS}" in assert_config_error(capsys)

    def test_many_segment_scale_named_briefly(self, tmp_path, capsys):
        # 1,999 segments over the budget at h = 1e-4: the message names the
        # scale by its first segments, its last and the count
        axis = "[0,1]," + ",".join(str(t) for t in range(2, 2000))
        cfg = write_config(tmp_path, axes=[axis], mesh={"h": 1e-4})
        assert cli.main(["spectrum", "--config", cfg]) == 3
        err = assert_config_error(capsys)
        assert len(err.encode()) < 300
        assert "[0,1]" in err and "1999" in err

    def test_product_grid_budget(self, tmp_path, capsys):
        # two full axes fill the budget; a third axis of 3 points exceeds it
        at_budget = {"axes": ["[0,1]", "[0,1]"], "mesh": {"h": 1e-4}}
        problem, _ = cli.build_problem(at_budget)
        assert math.prod(len(g.points) for g in problem.grids) == MAX_AXIS_POINTS**2
        over = dict(at_budget, axes=["[0,1]", "[0,1]", "0,1,2"])
        with pytest.raises(cli.ConfigError, match="product grid needs"):
            cli.build_problem(over)
        cfg = write_config(tmp_path, **over)
        assert cli.main(["spectrum", "--config", cfg]) == 3
        assert f"at most {MAX_AXIS_POINTS**2}" in assert_config_error(capsys)


def full_config(tmp_path) -> dict:
    """A valid config that sets every key the schema names."""
    fields = dataclasses.fields(sv.SolverConfig)
    return {
        "axes": ["[0,1],2,3"],
        "mesh": {"h": 0.25},
        "f": "a*sin(u) + b",
        "params": {"a": 0.5, "b": 1},
        "hypotheses": {"L": 0.5, "alpha": 0.5, "C": 1.0},
        "solver": {"method": "picard", **{f.name: f.default for f in fields}},
        "output": {"dir": str(tmp_path / "out"), "formats": ["json"]},
    }


def schema_paths():
    """(path, spec) of every section and every key of a section."""
    for key, spec in cli.SCHEMA.items():
        yield (key,), spec
        if isinstance(spec, dict):
            for sub, sub_spec in spec.items():
                yield (key, "a" if sub is str else sub), sub_spec


JSON_KINDS = {
    "string": (str, st.text(max_size=4)),
    "bool": (bool, st.booleans()),
    "null": (None, st.none()),
    "list": (list, st.lists(st.integers(0, 3), max_size=2)),
    "object": (dict, st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=2)),
}


@st.composite
def wrong_typed_configs(draw, tmp_path):
    path, spec = draw(st.sampled_from(list(schema_paths())))
    accepted = type(spec) if isinstance(spec, (dict, list)) else spec
    kinds = [k for k, (t, _) in JSON_KINDS.items() if t is not accepted]
    value = draw(JSON_KINDS[draw(st.sampled_from(kinds))][1])
    cfg = full_config(tmp_path)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_fuzz_wrong_json_type_at_any_key(tmp_path_factory, data):
    """One value of a wrong JSON type (string, bool, null, list or object) at
    any key of a valid config ends in exit 3 with one line, never in exit 0
    or 2 and never in a traceback.

    Only types are drawn here; numeric ranges, such as a mesh step too small
    for the grid budget, are the job of ``test_grid_budget``.
    """
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = data.draw(wrong_typed_configs(tmp))
    path = write_config(tmp, **cfg)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(["solve", "--config", path])
    assert code == 3, captured.getvalue()
    assert captured.getvalue().count("\n") == 1
    assert "Traceback" not in captured.getvalue()


NUMBER_FIELDS = [".".join(path) for path, spec in schema_paths() if spec is float]


@pytest.mark.parametrize("digits", [20, 400])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_huge_integer_at_any_number_field(tmp_path, capsys, field, digits):
    """JSON reads an integer of any size: 10**20 is a double like any other,
    and 10**400, beyond double range, exits 3 with one line."""
    cfg = {
        "axes": ["0,1,2,3"], "f": "a*u", "params": {"a": 0.5}, "hypotheses": {"L": 0.5},
        "solver": {"method": "enumerate" if field == "solver.box" else "picard"},
    }
    section, key = field.split(".")
    cfg.setdefault(section, {})[key] = "HUGE"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"HUGE"', str(10**digits)))
    code = cli.main(["solve", "--config", str(path)])
    if digits == 400:
        assert code == 3
        assert "must be finite" in assert_config_error(capsys)
    else:
        assert code in (0, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1


# the import check of .github/workflows/tier1.yml: scipy.optimize costs about
# 0.2 s of every process start, and no module of the package needs it
NO_OPTIMIZE_AT_START = (
    "import sys, tselliptic, tselliptic.cli; "
    "sys.exit('scipy.optimize' in sys.modules and 'tselliptic imports scipy.optimize')"
)


def test_start_up_leaves_scipy_optimize_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", NO_OPTIMIZE_AT_START],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
