"""Spans around calls into the complimits layers, installed from outside.

``cli.py`` and the library modules import each other's functions by name, so
a call site reads the function from its own module's namespace.  Tracing
therefore replaces every binding of a layer's public function in every
``complimits.*`` namespace except the module that defines it: calls that
cross a layer boundary get a span, calls inside one module stay direct and
cheap.  Public classmethods are wrapped on their class.  Instance methods
and properties run inside their caller's span.

A layer's self time is the time inside its spans minus the time inside the
spans they contain.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import types
from collections import Counter

LAYERS = ("cli", "sources", "spectrum", "_kernels", "optcode", "bounds", "binning", "dispersion")
CONSTRUCTORS = ("iid_spectrum", "markov_spectrum_exact", "markov_spectrum_mc")
UNITS = {"calls": "count", "masses": "count", "rank_cuts": "count", "rows": "count", "bytes": "B",
         "transitions": "count", "trials": "count", "self_s": "s", "us_per_mass": "us",
         "call_ms_p50": "ms", "call_ms_tail": "ms", "us_per_rank_cut": "us",
         "ns_per_transition": "ns", "ns_per_trial_symbol": "ns", "overhead_frac": "ratio"}  # by metric suffix
TIME_UNITS = ("s", "ms", "us", "ns")


def layer_of(obj) -> str | None:
    """Layer whose module defines ``obj``, for plain and compiled functions."""
    if not isinstance(obj, (types.FunctionType, types.BuiltinFunctionType)) and type(obj).__name__ != "cython_function_or_method":
        return None
    parts = (getattr(obj, "__module__", None) or "").split(".")
    if len(parts) >= 2 and parts[0] == "complimits" and parts[1] in LAYERS:
        return parts[1]
    return None


class Tracer:
    """Per-function self time and call counts, plus the work counters."""

    def __init__(self):
        self.spans = {}  # (layer, function) -> [self time in ns, calls]
        self.build_ns = []  # inclusive time of each spectrum constructor call
        self.counts = Counter()  # masses, transitions, trials, trial_symbols, rank_cuts, rows, bytes
        self._stack = [0]  # child time accumulated per open span
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def span(self, layer: str, fn):
        acc = self.spans.setdefault((layer, fn.__name__), [0, 0])
        stack, clock = self._stack, time.perf_counter_ns
        after = self._after.get(fn.__name__)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                acc[0] += elapsed - stack.pop()
                acc[1] += 1
                stack[-1] += elapsed
            if after is not None:
                after(self, args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _on_build(self, args, kwargs, result, elapsed):
        self.build_ns.append(elapsed)
        self.counts["masses"] += len(result)

    def _on_step(self, args, kwargs, result, elapsed):
        self.counts["transitions"] += len(args[0])

    def _on_binning_mc(self, args, kwargs, result, elapsed):
        problem, trials = args[0], args[1] if len(args) > 1 else kwargs["trials"]
        self.counts["trials"] += trials
        self.counts["trial_symbols"] += trials * len(problem.dist)

    _after = dict.fromkeys(CONSTRUCTORS, _on_build) | {"markov_step": _on_step, "binning_error_mc": _on_binning_mc}

    # -- installation -----------------------------------------------------

    def _bind(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "complimits" and m is not None]
        for mod in modules:
            own_layer = (mod.__name__.split(".") + [""])[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                layer = layer_of(obj)
                if layer is not None and obj.__module__ != mod.__name__:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.span(layer, obj)
                    self._bind(mod, name, wrappers[id(obj)])
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ and own_layer in LAYERS:
                    for method, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not method.startswith("_"):
                            self._bind(obj, method, classmethod(self.span(own_layer, member.__func__)))
        self._count_only(sys.modules["complimits.optcode"], "rank_cut", self._on_rank_cut)
        self._count_only(sys.modules["complimits.cli"], "_write_output", self._on_write_output)

    def _count_only(self, mod, name, count) -> None:
        """Counters without a span, for a module's own helper functions."""
        fn = getattr(mod, name)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args)
            return result

        self._bind(mod, name, counted)

    def _on_rank_cut(self, args) -> None:
        self.counts["rank_cuts"] += 1

    def _on_write_output(self, args) -> None:
        """Rows and bytes (output plus sidecar) of one ``cli._write_output`` call."""
        out = args[0].output
        self.counts["rows"] += len(args[2])
        self.counts["bytes"] += os.path.getsize(out) + os.path.getsize(out + ".meta.json")

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), (ns, _) in self.spans.items():
            out[layer] += ns / 1e9
        return out

    def calls_in(self, layer: str, names=None) -> int:
        return sum(c for (lay, fn), (_, c) in self.spans.items() if lay == layer and (names is None or fn in names))

    def self_s_in(self, layer: str, names) -> float:
        return sum(ns for (lay, fn), (ns, _) in self.spans.items() if lay == layer and fn in names) / 1e9

    def metrics(self) -> dict:
        """Per-layer metrics of one traced workload run."""
        self_s, c = self.layer_self_s(), self.counts
        build_s = self.self_s_in("spectrum", CONSTRUCTORS)
        _, build_tail = tail(self.build_ns)
        return {
            "spectrum.calls": self.calls_in("spectrum", CONSTRUCTORS),
            "spectrum.masses": c["masses"],
            "spectrum.self_s": self_s["spectrum"],
            "spectrum.us_per_mass": _per(1e6 * build_s, c["masses"]),
            "spectrum.call_ms_p50": statistics.median(self.build_ns) / 1e6 if self.build_ns else 0.0,
            "spectrum.call_ms_tail": build_tail / 1e6,
            "optcode.calls": self.calls_in("optcode"),
            "optcode.rank_cuts": c["rank_cuts"],
            "optcode.self_s": self_s["optcode"],
            "optcode.us_per_rank_cut": _per(1e6 * self_s["optcode"], c["rank_cuts"]),
            "dispersion.self_s": self_s["dispersion"],
            "cli.self_s": self_s["cli"],
            "cli.rows": c["rows"],
            "cli.bytes": c["bytes"],
            "kernels.transitions": c["transitions"],
            "kernels.self_s": self_s["_kernels"],
            "kernels.ns_per_transition": _per(1e9 * self_s["_kernels"], c["transitions"]),
            "binning.trials": c["trials"],
            "binning.self_s": self_s["binning"],
            "binning.ns_per_trial_symbol": _per(1e9 * self.self_s_in("binning", ("binning_error_mc",)), c["trial_symbols"]),
            "bounds.calls": self.calls_in("bounds"),
            "bounds.self_s": self_s["bounds"],
            "sources.self_s": self_s["sources"],
        }


def _per(amount: float, count: int) -> float:
    return amount / count if count else 0.0


def tail(values) -> tuple:
    """(label, value) of the highest percentile with at least ten samples
    beyond it; the maximum, labelled as such, when there are too few."""
    ordered = sorted(values)
    if not ordered:
        return "none", 0.0
    if len(ordered) < 11:
        return f"max of {len(ordered)}", ordered[-1]
    n = len(ordered)
    return f"p{100.0 * (n - 10) / n:.4g} of {n}", ordered[n - 11]
