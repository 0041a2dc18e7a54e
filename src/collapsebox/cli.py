"""Command-line surface: scenario ingestion, dispatch, sweeps, CSV emission.

Exit codes: 0 pass, 1 operational failure (I/O, parse, precondition),
2 validation/detection semantics (a check ran and failed).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .behaviors import Distribution, make_distribution
from .collapse import CollapseFamily, make_family, validate_family
from .errors import CollapseBoxError, EmptyGrid, InvalidSpec
from .mc import SimConfig, check_level, empirical_rows, gof_test, simulate_twobox, simulate_window
from .scenarios import Schedule, TimeDensity, bob_marginal, omega, theta, window_marginal
from .signaling import summarize, witness_sweep


@dataclass(frozen=True)
class ScenarioBundle:
    family: CollapseFamily
    window: TimeDensity | None
    schedule: Schedule | None
    raw: dict

    @property
    def scenario(self) -> CollapseFamily:
        """The correlated pair, which its collapse family fully describes."""
        return self.family


def required(d, key: str, where: str, conv=None):
    """d[key] of a JSON object, read by `conv` if one is given. A missing key
    (or no object), or a value `conv` cannot read, is an InvalidSpec naming it."""
    if not isinstance(d, dict) or key not in d:
        raise InvalidSpec(f"{where} has no {key!r}")
    if conv is None:
        return d[key]
    try:
        return conv(d[key])
    except (TypeError, ValueError):
        raise InvalidSpec(f"{where} {key!r} is malformed: {d[key]!r}") from None


def family_from_dict(d: dict, p0: Distribution, validate: bool = True) -> CollapseFamily:
    """Build the family a scenario's "family" object describes, bound to the
    scenario prior `p0`; a "p0" of the family's own must agree with it."""
    kind = required(d, "kind", "family")
    if "p0" in d:
        prior = required(d, "p0", "family", make_distribution)
        if prior.size != p0.size or np.abs(prior.weights - p0.weights).max() > 1e-12:
            raise InvalidSpec("family p0 disagrees with the scenario prior")
    grid = d.get("grid") or {}
    if not isinstance(grid, dict):
        raise InvalidSpec(f"family 'grid' must be an object, not {grid!r}")
    return make_family(kind, p0, dt=d.get("dt"), rates=d.get("rates"),
                       grid_times=grid.get("times"), grid_values=grid.get("values"),
                       validate=validate)


def window_from_dict(d: dict) -> TimeDensity:
    g = required(d, "g", "window")
    width = required(d, "dt_window", "window", float)
    kind = required(g, "kind", "window density")
    rate = None if g.get("rate") is None else required(g, "rate", "window density", float)
    return TimeDensity(kind, width, rate=rate, grid_times=g.get("times"),
                       grid_values=g.get("values"))


def _choice(x) -> int:
    """Alice's choice: the JSON integer 0 or 1; a float or a boolean is malformed."""
    if type(x) is not int or x not in (0, 1):
        raise ValueError(x)
    return x


def schedule_from_dict(d: dict) -> Schedule:
    return Schedule(required(d, "tA", "schedule", float),
                    required(d, "tB", "schedule", float),
                    required(d, "x", "schedule", _choice))


def load_scenario(path: str, validate: bool = True) -> ScenarioBundle:
    with open(path) as fh:
        raw = json.load(fh)
    p0 = required(raw, "p0", "scenario", make_distribution)
    family = family_from_dict(required(raw, "family", "scenario"), p0, validate=validate)
    window = window_from_dict(raw["window"]) if "window" in raw else None
    schedule = schedule_from_dict(raw["schedule"]) if "schedule" in raw else None
    return ScenarioBundle(family, window, schedule, raw)


def scenario_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_csv(path: str, header_meta: dict, columns, rows) -> None:
    meta = " ".join(f"{k}={v}" for k, v in header_meta.items())
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:  # a sweep yields its rows as it computes them
            fh.write(",".join(_fmt(v) for v in row) + "\n")
            fh.flush()  # so a failed or stopped run keeps the rows it finished


def _meta(args: argparse.Namespace, bundle: ScenarioBundle) -> dict:
    return {
        "scenario": scenario_hash(bundle.raw),
        "seed": args.seed,
        "version": __version__,
    }


def _number(token: str, conv=float):
    """One finite grid value; a malformed one is an InvalidSpec naming it."""
    try:
        v = conv(token)
    except ValueError:
        v = math.nan
    if not -math.inf < v < math.inf:
        raise InvalidSpec(f"bad grid value {token!r}")
    return v


def parse_time_grid(spec: str | None, family: CollapseFamily):
    """Time grids: 'a:b:n' linspace or a comma-separated list.

    The default grid is 21 points over the collapse window merged with the
    family's kink times (each dt_a and a table's knots), where a piecewise
    linear TV peaks; a point within rounding of a kink gives way to it.
    """
    if spec is None:
        top = family.dt_max if family.dt_max > 0 else 1.0
        grid = np.linspace(0.0, top, 21)
        kinks = family.kink_times
        apart = np.abs(grid[:, None] - kinks).min(axis=1) > 1e-9 * top
        return np.union1d(grid[apart], kinks)
    spec = spec.strip()
    if not spec:
        raise EmptyGrid("empty time grid")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InvalidSpec(f"time grid {spec!r} is not 'a:b:n'")
        a, b, n = _number(parts[0]), _number(parts[1]), _number(parts[2], int)
        if n < 0:
            raise InvalidSpec(f"time grid {spec!r} has a negative point count")
        return np.linspace(a, b, n)
    return np.array([_number(v) for v in spec.split(",")])


def parse_sweep_grid(spec: str | None) -> dict:
    """Sweep grids: 'param=v1,v2;param2=...'; params: dt, dt_window, n."""
    if not spec:
        raise EmptyGrid("sweep needs a --grid specification")
    grid = {}
    for part in spec.split(";"):
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in ("dt", "dt_window", "n"):
            raise InvalidSpec(f"unknown sweep parameter {key!r}")
        if key in grid:
            raise InvalidSpec(f"sweep parameter {key!r} is given twice")
        conv = int if key == "n" else float
        grid[key] = [_number(v, conv) for v in vals.split(",")]
    return grid


def _config(args: argparse.Namespace, n: int | None = None) -> SimConfig:
    return SimConfig(args.n if n is None else n, args.seed)


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = load_scenario(args.scenario, validate=False)
    fam = bundle.family
    report = validate_family(fam, fam.check_times)
    print(f"scenario {scenario_hash(bundle.raw)}: family kind {fam.kind!r}, "
          f"dt_min={fam.dt_min:.6g} dt_max={fam.dt_max:.6g}")
    for clause, v in report.worst.items():
        status = "ok" if v <= report.tol else "VIOLATED"
        print(f"  clause {clause:<14} worst {v:.3e}  {status}")
    if not report.passed:
        print(f"validation FAILED: clause {report.worst_clause()!r}")
        return 2
    print("validation passed")
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    bundle = load_scenario(args.scenario)
    f = bundle.family
    reports = witness_sweep(f, parse_time_grid(args.grid, f), _config(args),
                            alpha=args.alpha)

    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "witness.csv")
    cols = ("elapsed", "tv_analytic", "tv_empirical", "ci_lo", "ci_hi",
            "pvalue", "verdict")
    write_csv(out, _meta(args, bundle), cols,
              [(r.elapsed, r.tv_analytic, r.tv_empirical, r.ci_lo, r.ci_hi,
                r.pvalue, r.verdict) for r in reports])

    best, cap, verdict = summarize(f, reports)
    print(f"max TV {best.tv_analytic:.3e} at s={best.elapsed:.6g}, "
          f"capacity {cap:.12g} bits, verdict: {verdict}")
    print(f"wrote {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle = load_scenario(args.scenario)
    f, sched = bundle.family, bundle.schedule
    cfg = _config(args)

    if sched is not None:
        emp = simulate_twobox(f, sched, cfg)
        targets = [("analytic", bob_marginal(f, sched.x, sched.t_b - sched.t_a))]
    elif bundle.window is not None:
        emp = simulate_window(f, bundle.window, cfg)
        targets = [("prior", f.p0), ("analytic", window_marginal(f, bundle.window))]
    else:
        raise InvalidSpec("scenario has neither a schedule nor a window; nothing to simulate")

    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "empirical.csv")
    sid = scenario_hash(bundle.raw)
    cols = ("scenario_id", "seed", "n", "outcome", "count", "freq",
            "ci_lo", "ci_hi")
    write_csv(out, _meta(args, bundle), cols,
              [(sid, args.seed, args.n) + row
               for row in empirical_rows(emp)])
    for name, ref in targets:
        gof = gof_test(emp, ref, alpha=args.alpha)
        tag = "reject" if gof.reject else "pass"
        stat = "" if gof.statistic is None else f" stat={gof.statistic:.4g}"
        print(f"gof vs {name}: p={gof.pvalue:.4g}{stat} [{gof.method}] -> {tag}")
    print(f"wrote {out}")
    return 0


def _axis(key: str, values, build) -> dict:
    """{value: build(value)} for one sweep axis, so each value is built once;
    an error it raises names the value, as `key=value: ...`."""
    built = {}
    for v in values:
        try:
            built[v] = build(v)
        except CollapseBoxError as exc:
            raise type(exc)(f"{key}={v}: {exc}") from None
    return built


def _sweep_families(bundle: ScenarioBundle, dts) -> dict:
    """The family of each dt: the scenario's with every dt_a set to it."""
    family = bundle.family
    if family.kind not in ("linear", "frozen", "instantaneous"):
        raise InvalidSpec(f"dt sweep is not supported for kind {family.kind!r}")
    kind = family.kind if family.kind != "instantaneous" else "linear"
    return _axis("dt", dts, lambda dt: make_family(kind, family.p0, dt=(dt,) * family.size))


def _sweep_windows(bundle: ScenarioBundle, widths) -> dict:
    """The window of each dt_window: the scenario's with its length replaced."""
    window = bundle.window
    if window is None:
        raise InvalidSpec("dt_window sweep needs a window in the scenario")
    if window.kind == "table":
        raise InvalidSpec("dt_window sweep is not supported for table densities")
    return _axis("dt_window", widths, lambda w: TimeDensity(window.kind, w, rate=window.rate))


def cmd_sweep(args: argparse.Namespace) -> int:
    """One row per cell of the grid's axes, in grid order.

    A cell's fixed-schedule witness (max_tv, elapsed_at_max, capacity,
    verdict) depends only on its family axes (dt) and n, and every cell
    runs it at the same seed: it is computed once per (dt, n) and shared
    by the cells that differ in dt_window alone.
    """
    bundle = load_scenario(args.scenario)
    grid = parse_sweep_grid(args.grid)
    # every axis value's config, family and window, so a bad --seed or axis
    # value fails before sweep.csv is opened
    _config(args, 1)  # the seed alone first, so a bad --seed has no n= prefix
    configs = _axis("n", grid.get("n", [args.n]), lambda n: _config(args, n))
    families = _sweep_families(bundle, grid["dt"]) if "dt" in grid else {None: bundle.family}
    windows = (_sweep_windows(bundle, grid["dt_window"]) if "dt_window" in grid
               else {None: bundle.window})
    cells = [dict(zip(grid, cell)) for cell in itertools.product(*grid.values())]
    summaries = {}  # (dt, n) -> the summary of that witness sweep
    params = {}  # the cell being computed

    def rows():
        for cell in cells:
            params.update(cell)
            dt, n = cell.get("dt"), cell.get("n", args.n)
            f, window = families[dt], windows[cell.get("dt_window")]
            if (dt, n) not in summaries:
                summaries[dt, n] = summarize(f, witness_sweep(
                    f, parse_time_grid(None, f), configs[n], alpha=args.alpha))
            best, cap, verdict = summaries[dt, n]
            th = om = None
            if window is not None:
                th = theta(window, f.dt_min)
                om = omega(window, f.dt_min)
            yield tuple(cell.values()) + (th, om, best.tv_analytic, best.elapsed, cap, verdict)

    os.makedirs(args.out, exist_ok=True)
    out = os.path.join(args.out, "sweep.csv")
    cols = tuple(grid) + ("theta", "omega", "max_tv", "elapsed_at_max",
                          "capacity", "verdict")
    try:
        write_csv(out, _meta(args, bundle), cols, rows())
    except CollapseBoxError as exc:
        with open(os.path.join(args.out, "MANIFEST.partial"), "w") as pf:
            pf.write(f"failed at cell {params}: {exc}\n")
        print(f"sweep failed at cell {params}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "witness": cmd_witness,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1, like any other bad input; 2 means a check failed
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="collapse-box",
        description="Finite-time collapse model: validation, witnesses, "
                    "simulation, and sweeps")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", default=".", help="output directory for CSVs")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--n", type=int, default=100_000, help="replica count")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="significance level for detection, in (0, 1)")
    p.add_argument("--grid", default=None,
                   help="time grid 'a:b:n' or list for witness; "
                        "'param=v1,v2;...' for sweep (dt, dt_window, n)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_level(args.alpha)  # before any Monte Carlo run or output file
        return COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CollapseBoxError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
