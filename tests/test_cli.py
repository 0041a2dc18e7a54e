import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import collapsebox
from collapsebox.cli import main, parse_sweep_grid, parse_time_grid, scenario_hash


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

    def test_malformed_thread_count(self, tmp_path, monkeypatch, capsys):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        monkeypatch.setenv("COLLAPSE_BOX_THREADS", "abc")
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path)])
        assert rc == 1
        assert "InvalidSpec" in capsys.readouterr().err

    def test_zero_replicas(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        rc = main(["simulate", "--scenario", str(scen), "--out", str(tmp_path),
                   "--n", "0"])
        assert rc == 1


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

    def test_partial_marker_on_failure(self, tmp_path):
        scen = tmp_path / "s.json"
        write_scenario(scen, family={"kind": "exponential", "rates": [2.0, 3.0]})
        out = tmp_path / "out"
        rc = main(["sweep", "--scenario", str(scen), "--out", str(out),
                   "--grid", "dt=0.5", "--n", "1000"])
        assert rc == 1
        assert (out / "MANIFEST.partial").exists()


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
    ], ids=["grid-count", "grid-parts", "grid-list", "sweep-float", "sweep-int",
            "no-p0", "no-kind", "alpha-nan", "alpha-above-1", "alpha-zero",
            "schedule-tB", "schedule-x", "schedule-x-float",
            "schedule-x-bool", "dt-window", "p0-string", "family-p0-string",
            "grid-list-not-object", "grid-times-string", "density-rate", "density-times"])
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

    def test_worker_count_irrelevant(self, tmp_path, monkeypatch):
        scen = tmp_path / "s.json"
        write_scenario(scen)
        sections = []
        for name, threads in (("w1", "1"), ("w8", "8")):
            monkeypatch.setenv("COLLAPSE_BOX_THREADS", threads)
            out = tmp_path / name
            assert main(["simulate", "--scenario", str(scen), "--out", str(out),
                         "--n", "30000", "--seed", "5"]) == 0
            sections.append(data_section(out / "empirical.csv"))
        assert sections[0] == sections[1]


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


def test_import_leaves_out_scipy_stats_and_optimize():
    # the GOF test needs only scipy.special; linprog is imported by is_local
    code = (
        "import json, sys\n"
        "import collapsebox, collapsebox.cli\n"
        "from collapsebox.behaviors import is_local, uniform_box\n"
        "heavy = ('scipy.stats', 'scipy.optimize')\n"
        "before = [m for m in heavy if m in sys.modules]\n"
        "rep = is_local(uniform_box())\n"
        "print(json.dumps([before, rep.member, float(rep.weights.sum()),\n"
        "                  'scipy.optimize' in sys.modules]))\n"
    )
    src = os.path.dirname(os.path.dirname(collapsebox.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    before, member, weight, loaded = json.loads(out)
    assert before == []
    assert member and weight == pytest.approx(1.0, abs=1e-9)
    assert loaded
