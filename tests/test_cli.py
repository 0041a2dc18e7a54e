import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import collapsebox
import collapsebox.cli as cli
from collapsebox.behaviors import make_distribution
from collapsebox.cli import main, parse_sweep_grid, parse_time_grid, scenario_hash
from collapsebox.collapse import make_family
from collapsebox.errors import CollapseBoxError
from collapsebox.mc import SimConfig
from collapsebox.scenarios import TimeDensity, omega, theta
from collapsebox.signaling import witness_sweep


def write_scenario(path, **overrides):
    """The README scenario with keys replaced, or dropped where given None."""
    scen = {
        "p0": [0.3, 0.7],
        "family": {"kind": "frozen", "dt": [0.0, 1.0]},
        "window": {"dt_window": 1.0, "g": {"kind": "uniform"}},
        "schedule": {"tA": 0.0, "tB": 0.5, "x": 1},
    }
    scen.update(overrides)
    scen = {k: v for k, v in scen.items() if v is not None}
    path.write_text(json.dumps(scen))
    return scen


NAN_TABLE = {"kind": "table", "grid": {"times": [0.0, 1.0], "values": [
    [[0.3, 0.7], [0.3, 0.7]], [[float("nan"), 0.0], [0.0, 1.0]]]}}


def data_section(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# scenario=")
    return "\n".join(lines[1:])


class TestValidate:
    def test_pass(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        assert main(["validate", "--scenario", str(scen)]) == 0
        assert "validation passed" in capsys.readouterr().out

    def test_violating_table_names_clause(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        prior = [[0.3, 0.7], [0.3, 0.7]]
        bad = [[0.9, 0.1], [0.0, 1.0]]  # row 0 never reaches its delta exactly
        write_scenario(scen, family={
            "kind": "table",
            "grid": {"times": [0.0, 1.0, 2.0], "values": [prior, bad, bad]},
        })
        assert main(["validate", "--scenario", str(scen)]) == 2
        out = capsys.readouterr().out
        assert "clause 'final'" in out and "VIOLATED" in out

    def test_range_violation_at_a_knot(self, tmp_path, capsys):
        # row 0 leaves [0, 1] only at the knot 0.0013, between the points
        # of an evenly spaced grid over [0, 1]
        scen = tmp_path / "s.json"
        prior = [0.3, 0.7]
        write_scenario(scen, family={"kind": "table", "grid": {
            "times": [0.0, 0.001, 0.0013, 0.0016, 1.0],
            "values": [[prior, prior], [prior, prior], [[1.2, -0.2], prior],
                       [[1.0, 0.0], prior], [[1.0, 0.0], [0.0, 1.0]]]}})
        assert main(["validate", "--scenario", str(scen)]) == 2
        out = capsys.readouterr().out
        assert "clause range          worst 2.000e-01  VIOLATED" in out
        assert "validation FAILED: clause 'range'" in out

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1


class TestWitnessCommand:
    def test_summary_and_csv(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        rc = main(["witness", "--scenario", str(scen), "--out", str(out),
                   "--n", "20000", "--seed", "1", "--grid", "0:1:5"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "max TV 2.100e-01" in text
        assert "verdict: signaling" in text
        lines = (out / "witness.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "elapsed"
        assert len(lines) == 2 + 5

    def test_instantaneous_summary(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "instantaneous"})
        rc = main(["witness", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "5000"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "max TV 0.000e+00" in text
        assert "verdict: non-signaling" in text

    def test_empty_grid(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["witness", "--scenario", str(scen), "--out", str(tmp_path),
                   "--grid", " "])
        assert rc == 1

    def test_empty_range_grid(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["witness", "--scenario", str(scen), "--out", str(tmp_path),
                   "--grid", "0:1:0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: EmptyGrid: witness sweep needs a non-empty time grid" in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_weak_signal_capacity(self, tmp_path, capsys):
        # max TV 0.004: a channel of about 1e-5 bits, which must still be
        # computed, not given up on
        from scipy.optimize import minimize_scalar

        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "linear", "dt": [1.0, 1.02]})
        rc = main(["witness", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "20000", "--seed", "1", "--grid", "0:1.02:21"])
        assert rc == 0
        m = re.search(r"at s=(\S+), capacity (\S+) bits", capsys.readouterr().out)
        s, cap = float(m.group(1)), float(m.group(2))
        assert s == pytest.approx(0.969, abs=1e-12)
        # Bob's marginal after Alice's trigger: P0 + P0 * (w - <P0, w>)
        p0 = np.array([0.3, 0.7])
        w = np.minimum(s / np.array([1.0, 1.02]), 1.0)
        rows = np.vstack([p0, p0 + p0 * (w - p0 @ w)])

        def neg_info(r):
            m = (1 - r) * rows[0] + r * rows[1]
            return -((1 - r) * np.sum(rows[0] * np.log2(rows[0] / m))
                     + r * np.sum(rows[1] * np.log2(rows[1] / m)))

        best = minimize_scalar(neg_info, bounds=(0.0, 1.0), method="bounded",
                               options={"xatol": 1e-12})
        assert -best.fun > 1e-5
        assert cap == pytest.approx(-best.fun, abs=1e-12)

    def test_default_grid_holds_collapse_times(self, tmp_path, capsys):
        # linspace(0, 1.02, 21) steps over dt_0 = 1.0, where the TV peaks
        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "linear", "dt": [1.0, 1.02]})
        rc = main(["witness", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "2000", "--seed", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "max TV 4.118e-03 at s=1, capacity 1.45035781387e-05 bits" in text
        rows = (tmp_path / "witness.csv").read_text().splitlines()[2:]
        assert len(rows) == 22 and rows[20].startswith("1,")


class TestSimulateCommand:
    def test_schedule_run(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(scen), "--out", str(out),
                   "--n", "20000", "--seed", "42"])
        assert rc == 0
        assert "gof vs analytic" in capsys.readouterr().out
        lines = (out / "empirical.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # header comment, columns, two outcomes

    def test_window_run(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "linear", "dt": [0.25, 1.0]})
        scenario = json.loads(scen.read_text())
        del scenario["schedule"]
        scen.write_text(json.dumps(scenario))
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "100000", "--seed", "1"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "gof vs prior" in text and "reject" in text

    def test_nothing_to_simulate(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen, schedule=None, window=None)
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "neither a schedule nor a window" in err
        assert err.startswith("error: InvalidSpec: ")
        assert not (tmp_path / "out").exists()

    def test_zero_replicas(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "0"])
        assert rc == 1

    def test_tiny_truncexp_rate(self, tmp_path, capsys):
        # 1 - exp(-rate W) rounds to 0 at this rate; the window is the uniform one
        scen = tmp_path / "s.json"
        write_scenario(scen, schedule=None,
                       window={"dt_window": 1.0, "g": {"kind": "truncexp", "rate": 1e-17}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path),
                       "--n", "20000", "--seed", "1"])
        assert rc == 0
        assert "gof vs analytic" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["witness", "simulate"])
    def test_huge_rate_raises_no_warning(self, tmp_path, command):
        # rate * s would overflow past dt_a = 2.1e-307, where every row is the delta
        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "exponential", "rates": [1e308, 1.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--scenario", str(scen), "--out", str(tmp_path),
                       "--n", "2000", "--seed", "1"])
        assert rc == 0


class TestSweepCommand:
    def test_theta_column(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scen), "--out", str(out),
                   "--grid", "dt=0,0.25,0.5", "--n", "2000"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        cols = lines[1].split(",")
        ti = cols.index("theta")
        thetas = [float(l.split(",")[ti]) for l in lines[2:]]
        assert thetas == pytest.approx([0.0, 0.4375, 0.75], abs=1e-6)
        assert not (out / "MANIFEST.partial").exists()

    def test_truncexp_theta_cells(self, tmp_path):
        # the closed forms are 0.2489721955164904 and 0.94215757685733
        scen = tmp_path / "s.json"
        write_scenario(scen, window={"dt_window": 2.0,
                                     "g": {"kind": "truncexp", "rate": 0.5}})
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scen), "--out", str(out),
                   "--grid", "dt=0.25,1.5", "--n", "1000"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        ti = lines[1].split(",").index("theta")
        assert [l.split(",")[ti] for l in lines[2:]] == ["0.248972195516", "0.942157576857"]

    def test_no_grid(self, tmp_path, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error: EmptyGrid: sweep needs a --grid specification" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec, name", [("bogus=1", "bogus"), ("dt=0.5;", "")])
    def test_unknown_parameter(self, tmp_path, capsys, spec, name):
        # an unknown name, and the empty one that a trailing ';' leaves
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["sweep", "--scenario", str(scen), "--out", str(tmp_path / "out"),
                   "--grid", spec])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: InvalidSpec: unknown sweep parameter {name!r}\n"
        assert not (tmp_path / "out").exists()

    def test_windowless_theta_omega_empty(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen, window=None)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--grid", "dt=0.5,1.0", "--n", "200"]) == 0
        rows = [line.split(",") for line in data_section(out / "sweep.csv").splitlines()]
        assert rows[0][:3] == ["dt", "theta", "omega"]
        assert [row[1:3] for row in rows[1:]] == [["", ""], ["", ""]]

    def test_dt_beyond_window(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scen), "--out", str(out),
                   "--grid", "dt=1.5", "--n", "1000"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        cols = lines[1].split(",")
        assert float(lines[2].split(",")[cols.index("theta")]) == 1.0

    def test_partial_marker_on_failure(self, tmp_path, monkeypatch):
        # a fault in the second cell, after the first cell's row is written
        calls = []

        def failing_sweep(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise CollapseBoxError("injected fault")
            return witness_sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "witness_sweep", failing_sweep)
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scen), "--out", str(out),
                   "--grid", "dt=0.5,1.0", "--n", "1000"])
        assert rc == 1
        assert (out / "MANIFEST.partial").exists()
        rows = data_section(out / "sweep.csv").splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.5,")

    @pytest.mark.parametrize("spec, calls", [
        ("dt=0.25,0.5;dt_window=1,2", 2),
        ("dt_window=0.5,1,2,4", 1),
        ("dt=0.5;n=100,200;dt_window=1,2", 2),
    ])
    def test_one_witness_per_dt_and_n(self, tmp_path, monkeypatch, spec, calls):
        # cells that differ only in dt_window share one fixed-schedule witness
        seen = []

        def counting_sweep(*args, **kwargs):
            seen.append(None)
            return witness_sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "witness_sweep", counting_sweep)
        scen = tmp_path / "s.json"
        write_scenario(scen)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--grid", spec, "--n", "200"]) == 0
        assert len(seen) == calls
        cells = len(list(itertools.product(*parse_sweep_grid(spec).values())))
        assert len(data_section(out / "sweep.csv").splitlines()) == 1 + cells

    @pytest.mark.parametrize("spec", ["dt=0.25,0.5;dt_window=1,2",
                                      "dt_window=1,2;dt=0.25,0.5",
                                      "n=300,600;dt_window=1,2"])
    def test_rows_match_cell_by_cell_library_calls(self, tmp_path, spec):
        scen = tmp_path / "s.json"
        raw = write_scenario(scen)
        out = tmp_path / "out"
        assert main(["sweep", "--scenario", str(scen), "--out", str(out),
                     "--grid", spec, "--n", "400", "--seed", "3"]) == 0
        grid = parse_sweep_grid(spec)
        p0 = make_distribution(raw["p0"])
        lines = [",".join(grid) + ",theta,omega,max_tv,elapsed_at_max,capacity,verdict"]
        for values in itertools.product(*grid.values()):
            cell = dict(zip(grid, values))
            dt = (cell["dt"],) * 2 if "dt" in cell else raw["family"]["dt"]
            f = make_family("frozen", p0, dt=dt)
            window = TimeDensity("uniform", cell.get("dt_window", 1.0))
            reports = witness_sweep(f, parse_time_grid(None, f), SimConfig(cell.get("n", 400), 3))
            best, cap, verdict = cli.summarize(f, reports)
            row = values + (theta(window, f.dt_min), omega(window, f.dt_min),
                            best.tv_analytic, best.elapsed, cap, verdict)
            lines.append(",".join(cli._fmt(v) for v in row))
        assert data_section(out / "sweep.csv") == "\n".join(lines)


class TestMalformedInput:
    @pytest.mark.parametrize("argv, overrides, named", [
        (["witness", "--grid", "0:1:x"], {}, "'x'"),
        (["witness", "--grid", "0:1"], {}, "'0:1'"),
        (["witness", "--grid", "1,abc"], {}, "'abc'"),
        (["sweep", "--grid", "dt=abc"], {}, "'abc'"),
        (["sweep", "--grid", "n=1.5"], {}, "'1.5'"),
        (["validate"], {"p0": None}, "'p0'"),
        (["witness"], {"family": {"dt": [0.0, 1.0]}}, "'kind'"),
        (["simulate", "--alpha", "nan"], {}, "nan"),
        (["witness", "--alpha", "1.5"], {}, "1.5"),
        (["sweep", "--grid", "dt=0.5", "--alpha", "0"], {}, "got 0.0"),
        (["simulate"], {"schedule": {"tA": 0.0, "tB": "x", "x": 1}}, "'tB'"),
        (["simulate"], {"schedule": {"tA": 0.0, "tB": 0.5, "x": "one"}}, "'x'"),
        (["simulate"], {"schedule": {"tA": 0.0, "tB": 0.5, "x": 1.7}}, "'x'"),
        (["simulate"], {"schedule": {"tA": 0.0, "tB": 0.5, "x": True}}, "'x'"),
        (["simulate"], {"window": {"dt_window": "wide", "g": {"kind": "uniform"}},
                        "schedule": None}, "'dt_window'"),
        (["validate"], {"p0": "abc"}, "'p0'"),
        (["validate"], {"family": {"kind": "frozen", "p0": "abc", "dt": [0, 1]}}, "'p0'"),
        (["validate"], {"family": {"kind": "table", "grid": [[0.0, 1.0]]}}, "'grid'"),
        (["validate"], {"family": {"kind": "table", "grid": {"times": "abc", "values": []}}},
         "'grid'"),
        (["simulate"], {"window": {"dt_window": 1.0, "g": {"kind": "truncexp", "rate": "x"}},
                        "schedule": None}, "'rate'"),
        (["simulate"], {"window": {"dt_window": 1.0, "g": {"kind": "table", "times": "abc",
                                                          "values": [1.0, 1.0]}},
                        "schedule": None}, "'times'"),
        (["simulate", "--seed", "-1"], {}, "-1"),
        (["simulate", "--seed", str(2**128)], {}, str(2**128)),
        (["witness", "--n", str(2**63)], {}, f"replica count must be < 2**63, got {2**63}"),
        (["witness"], {"family": {"kind": "exponential", "rates": [1e-320, 1.0]}}, "1e-320"),
        (["witness", "--grid", "0,nan"], {}, "'nan'"),
        (["witness", "--grid", "inf"], {}, "'inf'"),
        (["witness", "--grid", "0:-inf:3"], {}, "'-inf'"),
        (["sweep", "--grid", "dt=nan"], {}, "'nan'"),
        (["sweep", "--seed", "-1", "--grid", "dt=0.5"], {}, "-1"),
        (["sweep", "--grid", "dt=0.5;n=0"], {}, "n=0: replica count"),
        (["sweep", "--seed", "-1", "--grid", "n=100"], {}, "InvalidSpec: seed must lie"),
        (["sweep", "--grid", "dt=0.5"], {"family": {"kind": "exponential", "rates": [2.0, 3.0]}},
         "'exponential'"),
        (["sweep", "--grid", "dt_window=1.0"], {"window": None}, "needs a window"),
        (["sweep", "--grid", "dt_window=1.0"],
         {"window": {"dt_window": 1.0, "g": {"kind": "table", "times": [0.0, 0.5, 1.0],
                                             "values": [0.5, 1.5, 0.5]}}}, "table densities"),
        (["sweep", "--grid", "dt=0.5;dt=1.0"], {}, "'dt' is given twice"),
        (["sweep", "--grid", "dt_window=0"], {}, "window width"),
        (["sweep", "--grid", "dt_window=-1,1"], {}, "dt_window=-1.0: window width"),
        (["sweep", "--grid", "dt=-1"], {}, "collapse durations"),
        (["sweep", "--grid", "dt=0.5,-1"], {}, "dt=-1.0: collapse durations"),
        (["sweep", "--grid", "dt_window=1,10"],
         {"window": {"dt_window": 1.0, "g": {"kind": "truncexp", "rate": 1e6}}},
         "dt_window=10.0: truncexp rate * width 1e+07 exceeds 1e+06"),
        (["witness", "--grid", "0:1:-1"], {}, "'0:1:-1' has a negative point count"),
        (["validate"], {"family": {"kind": "table"}}, "needs grid_times and grid_values"),
        (["validate"], {"family": {"kind": "table", "grid": {
            "times": [0.5, 1.0], "values": [[[0.3, 0.7], [0.3, 0.7]], [[1, 0], [0, 1]]]}}},
         "must start at 0"),
        (["validate"], {"family": {"kind": "table", "grid": {
            "times": [0.0, 1.0], "values": [[0.3, 0.7], [0.3, 0.7]]}}},
         "grid_values shape (2, 2) != (2, 2, 2)"),
        (["simulate"], {"window": {"dt_window": 1.0, "g": {"kind": "table", "times": [0.0, 0.5],
                                                          "values": [2.0, 2.0]}},
                        "schedule": None}, "must span [0, width]"),
        # a NaN value is named, not reported as boundary clause 'initial'
        (["validate"], {"family": NAN_TABLE}, "grid_values must be finite"),
        (["witness"], {"family": NAN_TABLE}, "grid_values must be finite"),
    ], ids=["grid-count", "grid-parts", "grid-list", "sweep-float", "sweep-int",
            "no-p0", "no-kind", "alpha-nan", "alpha-above-1", "alpha-zero",
            "schedule-tB", "schedule-x", "schedule-x-float",
            "schedule-x-bool", "dt-window", "p0-string", "family-p0-string",
            "grid-list-not-object", "grid-times-string", "density-rate", "density-times",
            "seed-negative", "seed-2**128", "n-2**63", "rate-tiny", "grid-nan", "grid-inf",
            "grid-range-inf", "sweep-nan", "sweep-seed-negative", "sweep-n-zero",
            "sweep-seed-with-n-axis",
            "sweep-dt-exponential", "sweep-no-window", "sweep-table-window",
            "sweep-axis-twice", "sweep-window-zero", "sweep-window-negative",
            "sweep-dt-negative", "sweep-dt-negative-second-cell", "sweep-window-rate-limit",
            "grid-range-negative-count", "table-no-grid", "table-times-not-from-0",
            "table-values-shape", "density-table-span", "table-values-nan-validate",
            "table-values-nan-witness"])
    def test_named_error_exit_1(self, tmp_path, capsys, argv, overrides, named):
        scen = tmp_path / "s.json"
        write_scenario(scen, **overrides)
        rc = main([argv[0], "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "200", *argv[1:]])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error: InvalidSpec" in err and named in err
        assert "Traceback" not in err
        # the error comes before any output file is written
        assert list(tmp_path.glob("*.csv")) == []
        assert not (tmp_path / "MANIFEST.partial").exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["validate"],                                  # no --scenario
        ["frobnicate", "--scenario", "s.json"],        # unknown command
        ["witness", "--scenario", "s.json", "--grid"],  # option without its value
        ["simulate", "--scenario", "s.json", "--n", "many"],
    ], ids=["no-scenario", "unknown-command", "no-value", "bad-int"])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "collapse-box: error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: collapse-box" in capsys.readouterr().out


class TestReproducibility:
    def test_identical_runs_byte_identical(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["witness", "--scenario", str(scen), "--out", str(out),
                         "--n", "5000", "--seed", "7", "--grid", "0:1:5"]) == 0
            outs.append(data_section(out / "witness.csv"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["witness", "sweep"])
    def test_largest_seed(self, tmp_path, command):
        # every grid point draws from the master seed's own stream, so the
        # largest seed runs, and its point 1 is not point 0 of seed 0
        scen = tmp_path / "s.json"
        write_scenario(scen)
        grid = "0,0.5" if command == "witness" else "dt=0.5"
        assert main([command, "--scenario", str(scen), "--out", str(tmp_path / "top"),
                     "--n", "500", "--seed", str(2**128 - 1), "--grid", grid]) == 0
        if command == "witness":
            assert main(["witness", "--scenario", str(scen), "--out", str(tmp_path / "zero"),
                         "--n", "500", "--seed", "0", "--grid", "0.5"]) == 0
            top = data_section(tmp_path / "top" / "witness.csv").splitlines()
            zero = data_section(tmp_path / "zero" / "witness.csv").splitlines()
            assert top[2].split(",")[:2] == zero[1].split(",")[:2] == ["0.5", "0.21"]
            assert top[2] != zero[1]


class TestParsers:
    def test_time_grid_forms(self):
        assert np.allclose(parse_time_grid("0:1:3", None), [0, 0.5, 1])
        assert np.allclose(parse_time_grid("0.1,0.2", None), [0.1, 0.2])

    def test_default_time_grid(self):
        from collapsebox.collapse import make_family
        p = collapsebox.make_distribution([0.25, 0.35, 0.4])

        def grid(dt):
            return parse_time_grid(None, make_family("linear", p, dt=dt))

        # equal collapse times: the plain 21-point grid, bit for bit
        assert np.array_equal(grid((0.5,) * 3), np.linspace(0.0, 0.5, 21))
        # 0.37 is added; the point one rounding away from 0.6 becomes 0.6
        g = grid((0.37, 0.6, 1.0))
        assert g.size == 22 and 0.37 in g and 0.6 in g
        assert np.all(np.diff(g) > 0)

    def test_default_time_grid_holds_table_knots(self):
        # rows (1 - lam) P0 + lam delta_a, lam linear between the knots: the
        # TV is piecewise linear and peaks at a knot, 0.168 at s = 0.1
        from collapsebox.collapse import make_family
        from collapsebox.signaling import witness_sweep
        p = collapsebox.make_distribution([0.3, 0.7])
        knots = [0.0, 0.1, 0.2, 0.35, 0.5, 0.8]
        lam = [[0.0, 0.9, 0.2, 0.7, 0.9, 1.0], [0.0, 0.1, 0.6, 0.3, 1.0, 1.0]]
        values = [[(1 - lam[a][k]) * p.weights + lam[a][k] * np.eye(2)[a] for a in range(2)]
                  for k in range(len(knots))]
        fam = make_family("table", p, grid_times=knots, grid_values=values)
        g = parse_time_grid(None, fam)
        assert set(knots) <= set(g)
        best = max(witness_sweep(fam, g), key=lambda r: r.tv_analytic)
        assert best.elapsed == 0.1
        assert best.tv_analytic == pytest.approx(0.168, abs=1e-12)

    def test_sweep_grid(self):
        g = parse_sweep_grid("dt=0,0.5;n=100,200")
        assert g == {"dt": [0.0, 0.5], "n": [100, 200]}
        with pytest.raises(Exception):
            parse_sweep_grid("bogus=1")

    def test_hash_stable(self):
        a = scenario_hash({"b": 1, "a": [1, 2]})
        b = scenario_hash({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 12


def run_python(code):
    """The last stdout line of `code` in a fresh interpreter, parsed as JSON."""
    src = os.path.dirname(os.path.dirname(collapsebox.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


SCIPY_MODULES = (
    "def scipy_modules():\n"
    "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
)


def test_import_leaves_out_scipy_stats_and_optimize():
    # neither GOF path nor the capacity needs scipy; linprog is imported by
    # is_local, and the thread pool by the first multi-worker run
    code = (
        "import json, sys\n"
        "import collapsebox, collapsebox.cli\n"
        "from collapsebox.behaviors import is_local, uniform_box\n"
        "heavy = ('scipy.stats', 'scipy.optimize', 'concurrent.futures')\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "rep = is_local(uniform_box())\n"
        "print(json.dumps([before, rep.member, float(rep.weights.sum()),\n"
        "                  'scipy.optimize' in sys.modules]))\n"
    )
    before, member, weight, loaded = run_python(code)
    assert before == []
    assert member and weight == pytest.approx(1.0, abs=1e-9)
    assert loaded


def test_exact_gof_loads_no_scipy(tmp_path):
    # import, validate, both GOF paths and the capacity load no scipy, and
    # every value is what an eager import of scipy.special gives
    scen = tmp_path / "s.json"
    write_scenario(scen)
    setup = (
        "from collapsebox import (Schedule, SimConfig, channel_capacity, gof_test,\n"
        "                         induced_channel, make_distribution, make_family,\n"
        "                         simulate_twobox)\n"
        "from collapsebox.scenarios import bob_marginal\n"
        "f = make_family('linear', make_distribution([0.2, 0.3, 0.5]), dt=(0.25, 0.5, 1.0))\n"
        "sched = Schedule(0.0, 0.4, 1)\n"
        "ref = bob_marginal(f, 1, 0.4)\n"
    )
    chi2 = (
        "g = gof_test(simulate_twobox(f, sched, SimConfig(400, 1, 1)), ref)\n"
        "values = [[g.method, g.pvalue], channel_capacity(induced_channel(f, 0.4))]\n"
    )
    exact = (
        "g = gof_test(simulate_twobox(f, sched, SimConfig(12, 1, 1)), ref)\n"
        "values.append([g.method, g.pvalue])\n"
    )
    lazy = (
        "import json, sys\n" + SCIPY_MODULES +
        "import collapsebox, collapsebox.cli\n"
        "after_import = scipy_modules()\n"
        f"rc = collapsebox.cli.main(['validate', '--scenario', {str(scen)!r}])\n"
        "after_validate = scipy_modules()\n"
        "masked = 'numpy.ma' in sys.modules\n"
        + setup + chi2 +
        "after_chi2 = scipy_modules()\n"
        + exact +
        "print(json.dumps([after_import, rc, after_validate, masked, after_chi2, values,\n"
        "                  scipy_modules()]))\n"
    )
    eager = "import json, scipy.special\n" + setup + chi2 + exact + "print(json.dumps(values))\n"

    after_import, rc, after_validate, masked, after_chi2, got, after_exact = run_python(lazy)
    assert after_import == [] and rc == 0 and after_validate == []
    assert not masked  # np.unique would import numpy.ma (numpy >= 2.3)
    assert after_chi2 == [] and after_exact == []
    assert [got[0][0], got[2][0]] == ["chi2", "exact"]
    assert got == run_python(eager)


def test_chi2_path_commands_load_no_scipy(tmp_path):
    # simulate, witness and sweep on a scenario whose every GOF test takes
    # the chi-square path, then simulate on the exact path: a skewed prior at
    # 24 replicas has expected counts below 5. Then simulate on a uniform and
    # on a table window with no schedule. No command loads numpy.ma either,
    # which np.unique imports (numpy >= 2.3)
    scen, skewed, out = tmp_path / "s.json", tmp_path / "skewed.json", tmp_path / "out"
    uniform, table = tmp_path / "uniform.json", tmp_path / "table.json"
    write_scenario(scen)
    write_scenario(skewed, p0=[0.7, 0.2, 0.07, 0.03], window=None,
                   family={"kind": "linear", "dt": [0.2, 0.4, 0.6, 0.8]})
    write_scenario(uniform, schedule=None)
    write_scenario(table, schedule=None, p0=[0.4, 0.6],
                   family={"kind": "linear", "dt": [0.3, 0.8]},
                   window={"dt_window": 1.0, "g": {"kind": "table", "times": [0.0, 0.5, 1.0],
                                                   "values": [0.5, 1.5, 0.5]}})
    common = ["--scenario", str(scen), "--out", str(out), "--n", "2000"]
    commands = [["simulate", *common], ["witness", *common],
                ["sweep", *common, "--grid", "dt=0.5,1.0;dt_window=1.0,2.0"],
                ["simulate", "--scenario", str(skewed), "--out", str(out), "--n", "24"],
                ["simulate", "--scenario", str(uniform), "--out", str(out), "--n", "2000"],
                ["simulate", "--scenario", str(table), "--out", str(out), "--n", "2000"]]
    code = (
        "import contextlib, io, json, sys\n" + SCIPY_MODULES +
        "import collapsebox.cli\n"
        "rcs, stdouts, masked = [], [], []\n"
        f"for argv in {commands!r}:\n"
        "    stdouts.append(io.StringIO())\n"
        "    with contextlib.redirect_stdout(stdouts[-1]):\n"
        "        rcs.append(collapsebox.cli.main(argv))\n"
        "    masked.append('numpy.ma' in sys.modules)\n"
        "print(json.dumps([rcs, [s.getvalue() for s in stdouts], masked, scipy_modules()]))\n"
    )
    rcs, stdouts, masked, modules = run_python(code)
    assert rcs == [0] * 6
    chi2 = "".join(stdouts[:3])
    assert "[chi2]" in chi2 and "[exact]" not in chi2
    assert "[exact]" in stdouts[3]
    assert masked == [False] * 6
    assert modules == []
