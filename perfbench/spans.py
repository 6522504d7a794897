"""Spans around calls into jetlaw's public functions, recorded from outside.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper in every jetlaw module namespace that binds it (``from .expr import
diff_partial`` copies the binding, so wrapping ``jetlaw.expr`` alone would
miss the calls made from ``jets`` or ``conservation``).  The arithmetic
dunders of ``Expr`` are counted but not spanned.  ``Tracer.uninstall``
restores every original binding.

A span is (name, start, end, parent span, item id); spans stay in memory
until ``write`` is called.  A span's self time is its duration minus the
time its direct children cover; children never overlap because everything
runs in one thread.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from array import array
from collections import defaultdict

# layer -> public functions spanned in that layer
LAYERS = {
    "expr": ("parse", "diff_partial", "substitute", "integrate_univar", "zero_verdict", "evaluate_float"),
    "jets": ("check_frame", "reduce_to_solutions", "total_derivative", "restricted_derivative", "euler_operator"),
    "conservation": (
        "verify_current", "normalize_current", "characteristic_canonical",
        "characteristic_with_remainder", "is_trivial", "trivial_witness",
        "is_characteristic", "spacetime_remainder", "divergence",
    ),
    "transform": (
        "current_to_spacetime", "current_to_lightcone", "characteristic_to_spacetime",
        "characteristic_to_lightcone", "substitute_to_spacetime", "substitute_to_lightcone",
    ),
    "oracle": ("check_conservation", "check_characteristic_numeric", "eval_jet", "parse_solution"),
    "config": ("resolve",),
    "cli": ("main",),
}

# spanned functions whose first argument's term count is summed
TERMS_IN = ("expr.diff_partial", "expr.substitute", "jets.total_derivative")

# Expr dunder -> counter name; __radd__ and __rmul__ alias __add__ and __mul__
ARITH = {"__add__": "add_calls", "__radd__": "add_calls", "__mul__": "mul_calls",
         "__rmul__": "mul_calls", "__pow__": "pow_calls"}

MODULES = ("expr", "jets", "conservation", "transform", "oracle", "config", "cli", "golden")

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def self_times(names, starts, ends, parents) -> dict:
    """Self seconds per span name: duration minus the direct children's durations.

    ``parents[k]`` is the index of span k's parent, or -1 for a root.  Spans
    with the same name nested inside each other (recursion) each count only
    their own self time, so nothing is counted twice.
    """
    child = [0.0] * len(names)
    for k, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[k] - starts[k]
    out: dict = defaultdict(float)
    for k, name in enumerate(names):
        out[name] += (ends[k] - starts[k]) - child[k]
    return dict(out)


class Tracer:
    def __init__(self):
        self.names: list = []  # span name by id
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.stack: list = []
        self.enabled = False  # spans are recorded only while an operation runs
        self.current_item = -1
        self.arith: dict = defaultdict(int)
        self.terms_in: dict = defaultdict(int)
        self.errors: dict = defaultdict(int)
        self.zero_tests = 0
        self.zero_sampled = 0
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        layer = qualname.split(".", 1)[0]
        count_terms = qualname in TERMS_IN
        is_zero_test = qualname == "expr.zero_verdict"
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count_terms:
                tracer.terms_in[qualname] += len(args[0].terms)
            index = len(tracer.start)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.span_name.append(name_id)
            tracer.parent.append(parent)
            tracer.item.append(tracer.current_item)
            tracer.end.append(math.nan)
            tracer.stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[index] = clock()
                tracer.stack.pop()
                outer = tracer.span_name[parent] if parent >= 0 else -1
                if outer < 0 or tracer.names[outer].split(".", 1)[0] != layer:
                    tracer.errors[layer] += 1
                raise
            tracer.end[index] = clock()
            tracer.stack.pop()
            if is_zero_test:
                tracer.zero_tests += 1
                tracer.zero_sampled += result.probabilistic
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _count(self, counter: str, fn):
        tracer = self

        def wrapper(*args):
            if tracer.enabled:
                tracer.arith[counter] += 1
            return fn(*args)

        return wrapper

    def install(self, callers=()) -> None:
        """Wrap every spanned function in every jetlaw module that binds it.

        ``callers`` are further modules (the benchmark's own) whose
        imported bindings must be wrapped too.
        """
        import jetlaw
        from jetlaw.expr import Expr

        modules = [jetlaw, *(importlib.import_module(f"jetlaw.{m}") for m in MODULES), *callers]
        wrappers = {}
        for layer, fns in LAYERS.items():
            home = sys.modules[f"jetlaw.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{fn_name}", original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        for dunder, counter in ARITH.items():
            original = Expr.__dict__[dunder]
            self._saved.append((Expr, dunder, original))
            setattr(Expr, dunder, self._count(counter, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def calls(self) -> dict:
        counts: dict = defaultdict(int)
        for name_id in self.span_name:
            counts[self.names[name_id]] += 1
        return dict(counts)

    def self_seconds(self) -> dict:
        names = [self.names[i] for i in self.span_name]
        return self_times(names, self.start, self.end, self.parent)

    def write(self, path) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "item"],
            "name": self.span_name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
