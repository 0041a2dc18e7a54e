"""Checks of each command's output against the reference values.

Every check returns a list of problems; an empty list means the output
is correct. Tolerances:

- simulate counts sum to n and lie within 5 standard errors per cell of
  the reference marginal (fixed schedule or exact window mixture);
- witness and sweep TVs match the closed form to 1e-9, capacities match
  the reference to 1e-6 bits;
- sweep Theta equals 2r - r^2 and Omega equals Theta / 2 to 1e-9;
- an exact-path p-value matches the reference to its printed digits;
- validate clauses are all at most 1e-9;
- the library's window marginal matches the exact mixture to 1e-6 in TV.
  A miss is the known fault only when the library's value matches the
  paper's two-term formula to 1e-6 in TV instead.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

import reference as ref

SE_LIMIT = 5.0
TV_TOL = 1e-9
CAPACITY_TOL = 1e-6
THETA_TOL = 1e-9
CLAUSE_TOL = 1e-9
TARGET_TOL = 1e-6

CSV_NAMES = {"simulate": "empirical.csv", "witness": "witness.csv", "sweep": "sweep.csv"}

_GOF = re.compile(r"gof vs analytic: p=(\S+)(?: stat=\S+)? \[(\w+)\]")
_WITNESS = re.compile(r"max TV (\S+) at s=(\S+), capacity (\S+) bits, verdict: (\S+)")
_CLAUSE = re.compile(r"clause (\S+)\s+worst (\S+)\s+(\S+)")


def _family(scen):
    return scen["family"]["kind"], scen["family"]["dt"]


def _grid(spec: str) -> np.ndarray:
    a, b, n = spec.split(":")
    return np.linspace(float(a), float(b), int(n))


def _window_args(scen: dict) -> tuple:
    w = scen["window"]
    return (scen["p0"], *_family(scen), w["dt_window"], w["g"])


def reference_marginal(scen: dict) -> np.ndarray:
    """What a simulate of this scenario should converge to."""
    kind, dt = _family(scen)
    if "schedule" in scen:
        sched = scen["schedule"]
        if sched["x"] == 0:
            return np.asarray(scen["p0"], dtype=float)
        return ref.schedule_marginal(scen["p0"], kind, dt, sched["tB"] - sched["tA"])
    return ref.exact_window_marginal(*_window_args(scen))


def two_term_marginal(scen: dict) -> np.ndarray:
    """The paper's two-term window marginal, which the library evaluates today."""
    return ref.two_term_window_marginal(*_window_args(scen))


def csv_path(cmd, out_dir: str) -> str:
    return os.path.join(out_dir, CSV_NAMES[cmd.verb])


def csv_data(path: str) -> bytes:
    """The CSV data section: everything after the provenance comment line."""
    with open(path, "rb") as fh:
        first = fh.readline()
        rest = fh.read()
    return rest if first.startswith(b"#") else first + rest


def _read_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def printed_match(value: float, text: str) -> bool:
    """True when `text` is `value` rounded to the digits `text` shows."""
    shown = float(text)
    if shown == 0.0:
        return abs(value) < 1e-300
    mantissa = text.lower().split("e")[0].lstrip("-")
    digits = len(mantissa.replace(".", "").lstrip("0")) or 1
    unit = 10.0 ** (math.floor(math.log10(abs(shown))) - digits + 1)
    return abs(value - shown) <= 0.5 * unit * (1 + 1e-9)


def check_simulate(cmd, scen, expected, stdout, out_dir) -> list:
    problems = []
    rows = _read_rows(csv_path(cmd, out_dir))
    counts = np.array([int(r["count"]) for r in rows])
    if counts.size != expected.size:
        return [f"{counts.size} outcomes, expected {expected.size}"]
    if counts.sum() != cmd.n or any(int(r["n"]) != cmd.n for r in rows):
        problems.append(f"counts sum to {counts.sum()}, expected n={cmd.n}")
    se = np.sqrt(cmd.n * expected * (1.0 - expected))
    dev = np.abs(counts - cmd.n * expected)
    bad = dev > SE_LIMIT * se + 1e-9
    if bad.any():
        problems.append(f"counts {counts.tolist()} beyond {SE_LIMIT} SE of "
                        f"{(cmd.n * expected).round(2).tolist()}")
    if cmd.exact_gof:
        m = _GOF.search(stdout)
        if m is None or m.group(2) != "exact":
            problems.append("no [exact] goodness-of-fit line for the analytic target")
        else:
            want = ref.exact_multinomial_pvalue(counts, expected)
            if not printed_match(want, m.group(1)):
                problems.append(f"exact p-value printed {m.group(1)}, reference {want:.6g}")
    return problems


def check_witness(cmd, scen, stdout, out_dir) -> list:
    problems = []
    p0 = scen["p0"]
    kind, dt = _family(scen)
    grid = _grid(cmd.grid)
    rows = _read_rows(csv_path(cmd, out_dir))
    if len(rows) != grid.size:
        return [f"{len(rows)} witness rows, expected {grid.size}"]
    want = np.array([ref.schedule_tv(p0, kind, dt, s) for s in grid])
    got = np.array([float(r["tv_analytic"]) for r in rows])
    elapsed = np.array([float(r["elapsed"]) for r in rows])
    if np.abs(elapsed - grid).max() > 1e-12:
        problems.append("witness elapsed column differs from the grid")
    if np.abs(got - want).max() > TV_TOL:
        problems.append(f"tv_analytic off by {np.abs(got - want).max():.3e}")
    m = _WITNESS.search(stdout)
    if m is None:
        return problems + ["no witness summary line"]
    s_best = float(m.group(2))
    if ref.schedule_tv(p0, kind, dt, s_best) < want.max() - TV_TOL:
        problems.append(f"max TV reported at s={s_best}, not at the maximum")
    cap = ref.binary_capacity(p0, ref.schedule_marginal(p0, kind, dt, s_best))
    if abs(float(m.group(3)) - cap) > CAPACITY_TOL:
        problems.append(f"capacity {m.group(3)} bits, reference {cap:.9f}")
    if want.max() > 0.01 and m.group(4) != "signaling":
        problems.append(f"verdict {m.group(4)} with max TV {want.max():.3g}")
    return problems


def check_sweep(cmd, scen, out_dir) -> list:
    problems = []
    p0 = scen["p0"]
    kind = scen["family"]["kind"]
    if scen["window"]["g"]["kind"] != "uniform":
        raise ValueError("the sweep check needs a uniform window")
    grid = dict(part.split("=") for part in cmd.grid.split(";"))
    cells = [(float(d), float(w)) for d in grid["dt"].split(",")
             for w in grid["dt_window"].split(",")]
    rows = _read_rows(csv_path(cmd, out_dir))
    if len(rows) != len(cells):
        return [f"{len(rows)} sweep rows, expected {len(cells)}"]
    for (d, w), r in zip(cells, rows):
        dts = (d,) * len(p0)
        th = ref.theta_uniform(d, w)
        if abs(float(r["theta"]) - th) > THETA_TOL:
            problems.append(f"theta {r['theta']} at dt={d}, W={w}; 2r - r^2 = {th}")
        if abs(float(r["omega"]) - th / 2) > THETA_TOL:
            problems.append(f"omega {r['omega']} at dt={d}, W={w}; theta/2 = {th / 2}")
        tgrid = np.linspace(0.0, d if d > 0 else 1.0, 21)
        tv_max = max(ref.schedule_tv(p0, kind, dts, s) for s in tgrid)
        if abs(float(r["max_tv"]) - tv_max) > TV_TOL:
            problems.append(f"max_tv {r['max_tv']} at dt={d}; closed form {tv_max}")
        s_best = float(r["elapsed_at_max"])
        cap = ref.binary_capacity(p0, ref.schedule_marginal(p0, kind, dts, s_best))
        if abs(float(r["capacity"]) - cap) > CAPACITY_TOL:
            problems.append(f"capacity {r['capacity']} at dt={d}; reference {cap}")
    return problems


def check_validate(stdout) -> list:
    clauses = {m.group(1): (float(m.group(2)), m.group(3)) for m in _CLAUSE.finditer(stdout)}
    problems = []
    if set(clauses) != {"initial", "final", "normalization", "range"}:
        problems.append(f"validate printed clauses {sorted(clauses)}")
    for name, (worst, status) in clauses.items():
        if worst > CLAUSE_TOL or status != "ok":
            problems.append(f"clause {name} worst {worst:.3e} {status}")
    if "validation passed" not in stdout:
        problems.append("validate did not report a pass")
    return problems


def check_output(cmd, scen, expected, rc, stdout, out_dir) -> list:
    """Problems with one run of `cmd`, whether cold or warm."""
    if rc != 0:
        return [f"exit code {rc}"]
    if cmd.verb == "simulate":
        return check_simulate(cmd, scen, expected, stdout, out_dir)
    if cmd.verb == "witness":
        return check_witness(cmd, scen, stdout, out_dir)
    if cmd.verb == "sweep":
        return check_sweep(cmd, scen, out_dir)
    return check_validate(stdout)


def check_target(library_marginal, expected) -> list:
    """The library's window_marginal, as simulate used it, against the exact mixture."""
    if library_marginal is None:
        return ["simulate computed no analytic window marginal"]
    gap = ref.tv(library_marginal, expected)
    if gap > TARGET_TOL:
        return [f"window_marginal is {gap:.4g} in TV from the exact mixture"]
    return []


def is_two_term(library_marginal, two_term) -> bool:
    """True when the library's window marginal is the paper's two-term formula."""
    return library_marginal is not None and ref.tv(library_marginal, two_term) <= TARGET_TOL
