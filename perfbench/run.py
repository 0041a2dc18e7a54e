"""Benchmark of the collapse-box commands: cold CLI, warm library and per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload window-analytic --seed 1 --seconds 42 --trace 0

With ``--trace 0`` a run measures, for ``--seconds`` seconds (at least
three whole rounds), every command of the workload as a fresh
``python -m collapsebox.cli`` process (cold) and as a
``collapsebox.cli.main(argv)`` call in this interpreter (warm), checks
every output against ``reference.py``, and prints ``setup_s``, ``cli_s``,
``warm_s`` and ``peak_rss_mb``. With ``--trace 1`` it runs one round with
spans around the calls into each module and prints the per-layer metrics
that ``BENCHMARK.json`` names. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import SCENARIOS, WORKLOADS, command_seed, write_scenarios  # noqa: E402

OUT_DIR = ".perfbench_out"
MIN_ROUNDS = 3
MAX_ROUNDS = 100
SETUP_SAMPLES = 3
WARM_REPEATS = 2
IMPORT_SAMPLES = 3


class Run:
    """One benchmark run of one workload: inputs, operation tally and timings."""

    def __init__(self, workload: str, seed: int, root: str, out: str):
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.root = root
        self.out = out
        self.src = os.path.join(root, "src")
        self.env = {k: v for k, v in os.environ.items() if k != "COLLAPSE_BOX_THREADS"}
        self.env["PYTHONPATH"] = self.src
        self.paths = write_scenarios(workload, os.path.join(out, "scenarios"))
        self.seeds = {c.name: command_seed(seed, workload, c.name) for c in self.commands}
        self.expected = {c.name: checks.reference_marginal(SCENARIOS[c.scenario])
                         if c.verb == "simulate" else None for c in self.commands}
        self.two_term = {c.name: checks.two_term_marginal(SCENARIOS[c.scenario])
                         for c in self.commands if c.analytic_target}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()
        self.cold = {c.name: [] for c in self.commands}
        self.warm = {c.name: [] for c in self.commands}
        self.rss = {c.name: [] for c in self.commands}
        self.cli = None
        self.main = None
        self.target = None
        self.launcher = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         env=self.env, cwd=root, text=True)

    def close(self):
        self.launcher.stdin.close()
        self.launcher.wait()

    # --- processes ---------------------------------------------------------

    def probe(self) -> dict:
        """One fresh interpreter timing the import and the scenario loads."""
        files = sorted(set(self.paths.values()))
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), *files],
                              env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(result["file"]).startswith(self.src + os.sep):
            raise RuntimeError(f"collapsebox imported from {result['file']}, not {self.src}")
        return result

    def argv(self, cmd, mode: str) -> list:
        out = os.path.join(self.out, mode, cmd.name)
        return cmd.argv(self.paths[cmd.scenario], self.seeds[cmd.name], out)

    def run_cold(self, cmd):
        """The command as a fresh process: wall time, exit code, peak RSS (MB), output.

        The process is started by the launcher, so that its peak RSS is its own.
        """
        log_path = os.path.join(self.out, f"cold-{cmd.name}.log")
        argv = [sys.executable, "-m", "collapsebox.cli", *self.argv(cmd, "cold")]
        self.launcher.stdin.write(json.dumps({"argv": argv, "log": log_path}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.launcher.wait()}")
        done = json.loads(reply)
        with open(log_path) as log:
            text = log.read()
        return done["wall_s"], done["rc"], done["maxrss_kb"] / 1024.0, text

    # --- warm interpreter -------------------------------------------------------

    def load_library(self):
        sys.path.insert(0, self.src)
        import collapsebox.cli as cli

        if not os.path.abspath(cli.__file__).startswith(self.src + os.sep):
            raise RuntimeError(f"collapsebox imported from {cli.__file__}, not {self.src}")
        self.cli = cli
        self.main = cli.main

    def record_target(self):
        """Keep the window marginal that simulate computes as its analytic target."""
        library = self.cli.window_marginal

        def recorded(*args, **kwargs):
            result = library(*args, **kwargs)
            self.target = result.weights
            return result

        self.cli.window_marginal = recorded

    def run_warm(self, cmd):
        buf = io.StringIO()
        argv = self.argv(cmd, "warm")
        self.target = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = perf_counter()
            rc = self.main(argv)
            wall = perf_counter() - start
        return wall, rc, buf.getvalue()

    # --- operations -------------------------------------------------------------

    def operation(self, label: str, fn, known=None):
        """Attempt one checked operation.

        A failure leaves `correct` alone only when `known()` confirms that it
        is the known fault.
        """
        self.attempted += 1
        try:
            problems = fn()
        except Exception:  # a crashing command is a failed operation, not a crashed run
            problems = [traceback.format_exc()]
        if not problems:
            return
        self.failed += 1
        expected_fault = known is not None and known()
        if not expected_fault:
            self.correct = False
        if label not in self.reported:
            self.reported.add(label)
            kind = "known fault" if expected_fault else "FAILED"
            print(f"{kind}: {label}: {'; '.join(problems)}", file=sys.stderr)

    def cold_op(self, cmd, timed: bool):
        wall, rc, rss, text = self.run_cold(cmd)
        if timed:
            self.cold[cmd.name].append(wall)
            self.rss[cmd.name].append(rss)
        return checks.check_output(cmd, SCENARIOS[cmd.scenario], self.expected[cmd.name],
                                   rc, text, os.path.join(self.out, "cold", cmd.name))

    def warm_op(self, cmd, timed: bool):
        wall, rc, text = self.run_warm(cmd)
        if timed:
            self.warm[cmd.name].append(wall)
        return checks.check_output(cmd, SCENARIOS[cmd.scenario], self.expected[cmd.name],
                                   rc, text, os.path.join(self.out, "warm", cmd.name))

    def same_op(self, cmd):
        cold, warm = (checks.csv_data(checks.csv_path(cmd, os.path.join(self.out, m, cmd.name)))
                      for m in ("cold", "warm"))
        return [] if cold == warm else ["cold and warm CSV data sections differ"]

    def round(self, timed: bool = True):
        """Each command cold, warm and compared; then WARM_REPEATS - 1 more warm passes."""
        for cmd in self.commands:
            self.operation(f"{cmd.name} cold", lambda: self.cold_op(cmd, timed))
            self.operation(f"{cmd.name} warm", lambda: self.warm_op(cmd, timed))
            if cmd.writes_csv:
                self.operation(f"{cmd.name} cold/warm CSV", lambda: self.same_op(cmd))
            if cmd.analytic_target:
                self.operation(f"{cmd.name} analytic target",
                               lambda: checks.check_target(self.target, self.expected[cmd.name]),
                               known=lambda: checks.is_two_term(self.target,
                                                                self.two_term[cmd.name]))
        for _ in range(WARM_REPEATS - 1):
            for cmd in self.commands:
                self.operation(f"{cmd.name} warm", lambda: self.warm_op(cmd, timed))

    def warm_pass(self) -> float:
        """One unchecked warm call of each command; returns the summed time."""
        total = 0.0
        for cmd in self.commands:
            total += self.run_warm(cmd)[0]
        return total


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float, start: float) -> dict:
    """Whole rounds until the next one would end after `seconds` (at least MIN_ROUNDS)."""
    run.record_target()
    run.warm_pass()
    setups = []
    rounds = 0
    while rounds < MAX_ROUNDS:
        began = perf_counter()
        if len(setups) < SETUP_SAMPLES:
            setups.append(run.probe()["setup_s"])
        run.round()
        rounds += 1
        took = perf_counter() - began
        if rounds >= MIN_ROUNDS and perf_counter() - start + took > seconds:
            break

    print(f"workload {run.workload}: {rounds} rounds, setup samples "
          + " ".join(f"{s:.3f}" for s in setups))
    for cmd in run.commands:
        print(f"  {cmd.name:<22} cold p50 {statistics.median(run.cold[cmd.name]):8.4f} s"
              f"  warm p50 {statistics.median(run.warm[cmd.name]):8.4f} s"
              f"  peak rss p50 {statistics.median(run.rss[cmd.name]):7.1f} MB"
              f"  seed {run.seeds[cmd.name]}")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "cli_s": _metric(sum(statistics.median(v) for v in run.cold.values()), "s"),
        "warm_s": _metric(sum(statistics.median(v) for v in run.warm.values()), "s"),
        "peak_rss_mb": _metric(max(statistics.median(v) for v in run.rss.values()), "MB"),
    }


def two_worker_rate(run: Run) -> float:
    """Replicas/s of one 2-worker simulate_window on the workload's uniform window."""
    cmd = next((c for c in run.commands if c.verb == "simulate"
                and SCENARIOS[c.scenario].get("window", {}).get("g", {}).get("kind") == "uniform"),
               None)
    if cmd is None:
        return 0.0
    from collapsebox.mc import SimConfig, simulate_window

    bundle = run.cli.load_scenario(run.paths[cmd.scenario])
    start = perf_counter()
    emp = simulate_window(bundle.scenario, bundle.window,
                          SimConfig(cmd.n, run.seeds[cmd.name], workers=2))
    rate = cmd.n / (perf_counter() - start)
    if int(emp.counts.sum()) != cmd.n:
        run.correct = False
        print(f"FAILED: 2-worker simulate_window counts sum to {emp.counts.sum()}", file=sys.stderr)
    return rate


def per_layer_units(root: str) -> list:
    """(name, unit) of every per-layer metric that BENCHMARK.json names."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def measure_traced(run: Run) -> dict:
    probes = [run.probe() for _ in range(IMPORT_SAMPLES)]
    if len({p["modules"] for p in probes}) != 1:
        run.correct = False
        print("FAILED: import loaded a different module count across interpreters",
              file=sys.stderr)
    run.warm_pass()
    untraced = sum(run.warm_pass() for _ in range(WARM_REPEATS))

    tracer = Tracer()
    tracer.install()
    run.main = tracer.span("cli.main", run.cli.main)
    run.record_target()
    try:
        run.round(timed=False)
    finally:
        tracer.uninstall()
        run.main = run.cli.main
    w2 = two_worker_rate(run)
    tracer.write(os.path.join(run.out, "trace.jsonl"))

    traced = tracer.summary()["cli.main"]["total_s"]
    extra = {
        "import.s": statistics.median(p["import_s"] for p in probes),
        "import.modules": probes[0]["modules"],
        "mc.simulate_window.replicas_per_s.w2": w2,
        "trace.warm_s": traced,
        "trace.overhead_s": traced - untraced,
    }
    metrics = layer_metrics(tracer, "cli.main", extra, per_layer_units(run.root))
    print(f"workload {run.workload}: traced warm {traced:.4f} s, untraced {untraced:.4f} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "collapsebox", "cli.py")):
        print("perfbench: src/collapsebox not found; run from the repository root",
              file=sys.stderr)
        return 2
    out = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    start = perf_counter()
    run = Run(args.workload, args.seed, root, out)
    try:
        run.load_library()  # also compiles the package's bytecode before anything is timed
        metrics = measure_traced(run) if args.trace else measure(run, args.seconds, start)
    finally:
        run.close()
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(dict(result, samples={"cold_s": run.cold, "warm_s": run.warm,
                                        "peak_rss_mb": run.rss}), fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
