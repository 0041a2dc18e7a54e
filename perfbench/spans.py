"""Spans and counters around calls into collapsebox, installed from outside.

Wrappers replace each traced function on its defining module and on every
``collapsebox`` module that imported it by name (methods are replaced on
their class). A span records name, start, end and parent span; spans stay
in memory and are written out when the run ends. A layer's self time is
its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "signaling", "scenarios", "quadrature", "mc", "collapse", "behaviors")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_replicas(prefix):
    def count(counts, args, kwargs, result):
        counts[prefix + ".replicas"] += _arg(args, kwargs, 2, "cfg").n
    return count


def _count_block(counts, args, kwargs, result):
    size = _arg(args, kwargs, 2, "hi") - _arg(args, kwargs, 1, "lo")
    counts["mc.replica_uniforms.max_block"] = max(counts["mc.replica_uniforms.max_block"], size)


def _count_gof(counts, args, kwargs, result):
    if result.method == "exact":
        e = _arg(args, kwargs, 0, "e")
        counts["mc.gof_test.exact_calls"] += 1
        counts["mc.gof_test.exact_terms"] += math.comb(e.n + e.counts.size - 1, e.counts.size - 1)


def _count_evaluations(counts, args, kwargs, result):
    counts["quadrature.integrate.evaluations"] += result.evaluations


def _count_grid(counts, args, kwargs, result):
    counts["collapse.validate_family.grid_points"] += len(_arg(args, kwargs, 1, "grid"))


def _count_rows(counts, args, kwargs, result):
    counts["collapse.rows.rows"] += len(result)


def _count_bytes(counts, args, kwargs, result):
    counts["cli.write_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# span name -> (module, attribute, counter hook); dotted attributes are methods
SPANS = {
    "quadrature.integrate": ("quadrature", "integrate", _count_evaluations),
    "quadrature.integrate2": ("quadrature", "integrate2", None),
    "scenarios.theta": ("scenarios", "theta", None),
    "scenarios.omega": ("scenarios", "omega", None),
    "scenarios.difference_density": ("scenarios", "difference_density", None),
    "scenarios.window_marginal": ("scenarios", "window_marginal", None),
    "scenarios.bob_marginal": ("scenarios", "bob_marginal", None),
    "mc.simulate_twobox": ("mc", "simulate_twobox", _count_replicas("mc.simulate_twobox")),
    "mc.simulate_window": ("mc", "simulate_window", _count_replicas("mc.simulate_window")),
    "mc.replica_uniforms": ("mc", "replica_uniforms", _count_block),
    "mc.gof_test": ("mc", "gof_test", _count_gof),
    "mc.empirical_rows": ("mc", "empirical_rows", None),
    "collapse.make_family": ("collapse", "make_family", None),
    "collapse.validate_family": ("collapse", "validate_family", _count_grid),
    "collapse.marginal_at": ("collapse", "marginal_at", None),
    "collapse.rows": ("collapse", "CollapseFamily.rows", _count_rows),
    "signaling.witness": ("signaling", "witness", None),
    "signaling.witness_sweep": ("signaling", "witness_sweep", None),
    "signaling.induced_channel": ("signaling", "induced_channel", None),
    "signaling.channel_capacity": ("signaling", "channel_capacity", None),
    "behaviors.make_distribution": ("behaviors", "make_distribution", None),
    "behaviors.tv_distance": ("behaviors", "tv_distance", None),
    "cli.load_scenario": ("cli", "load_scenario", None),
    "cli.write_csv": ("cli", "write_csv", _count_bytes),
}

# called per integrand evaluation: counted, without a span
COUNTED = {"scenarios.TimeDensity.pdf": ("scenarios", "TimeDensity.pdf")}

class Tracer:
    """In-memory spans and counters for calls into one imported collapsebox."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def span(self, name, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, module, attr, make):
        if "." in attr:
            owner_name, method = attr.split(".")
            owner = getattr(module, owner_name)
            orig = owner.__dict__[method]
            self._undo.append((owner, method, orig))
            setattr(owner, method, make(orig))
            return
        orig = getattr(module, attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if name != "collapsebox" and not name.startswith("collapsebox."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def install(self):
        for name, (mod, attr, hook) in SPANS.items():
            module = sys.modules[f"collapsebox.{mod}"]
            self._replace(module, attr, lambda fn, _n=name, _h=hook: self.span(_n, fn, _h))
        for name, (mod, attr) in COUNTED.items():
            module = sys.modules[f"collapsebox.{mod}"]
            self._replace(module, attr, lambda fn, _n=name: self.counter(_n + ".calls", fn))

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def summary(self):
        """{span name: {"calls", "total_s", "self_s"}} from the recorded spans."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[index]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def layer_metrics(tracer: Tracer, root: str, extra: dict, per_layer) -> dict:
    """Each (name, unit) of `per_layer`: span summaries, counters, shares and `extra` values."""
    spans = tracer.summary()
    values = dict(extra)
    values.update(tracer.counts)
    for name, row in spans.items():
        for key in ("calls", "self_s", "total_s"):
            values[f"{name}.{key}"] = row[key]
    for sim in ("mc.simulate_twobox", "mc.simulate_window"):
        total = spans[sim]["total_s"] if sim in spans else 0.0
        values[f"{sim}.replicas_per_s"] = values.get(f"{sim}.replicas", 0) / total if total else 0.0
    warm = spans[root]["total_s"] if root in spans else 0.0
    for layer in LAYERS:
        busy = sum(row["self_s"] for name, row in spans.items() if name.split(".")[0] == layer)
        values[f"share.{layer}"] = 100.0 * busy / warm if warm else 0.0
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in per_layer}
