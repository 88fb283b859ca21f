"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``modinv`` layer in every
module namespace that binds them, so ``modular.mat_mul`` and
``simple_current.mat_mul`` are wrapped separately but report under the name of
the defining layer.  Class constructors (``QuadraticForm``, ``Lattice``) and the
``Cyclotomic`` arithmetic dunders are patched on the class itself.

Each span records its name, the namespace it was called through, the case id,
its parent span, start and end.  Spans stay in memory until ``dump``.
``Cyclotomic`` arithmetic runs millions of times per case, so it is counted
(calls, busy time, largest order) rather than recorded as spans; its busy time
therefore overlaps the self time of the layer that called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (defining module, attribute) of every function that gets a span.
SPAN_FUNCTIONS = [
    ("modular", "verlinde"),
    ("modular", "validate_modular"),
    ("modular", "simple_currents"),
    ("modular", "check_invariant"),
    ("modular", "brute_force_invariants"),
    ("modular", "mat_mul"),
    ("ty", "ty_double"),
    ("simple_current", "enumerate_sc"),
    ("abelian", "all_subgroups"),
    ("abelian", "automorphisms"),
    ("abelian", "hermite_rows"),
    ("abelian", "smith_with_inverses"),
    ("pointed", "weil"),
    ("pointed", "enum_z"),
    ("pointed", "enum_dpm"),
    ("forms", "indecomposable_form"),
    ("forms", "forms_equivalent"),
    ("forms", "gauss_sum"),
    ("lattice", "glue"),
    ("lattice", "discriminant"),
    ("lattice", "realize"),
]

# (defining module, class) whose constructor gets a span.
SPAN_CLASSES = [("forms", "QuadraticForm"), ("lattice", "Lattice")]

# Cyclotomic dunder -> counter name.
SCALAR_OPS = {
    "__add__": "add",
    "__radd__": "add",
    "__mul__": "mul",
    "__rmul__": "mul",
    "inverse": "inverse",
    "__eq__": "eq",
}

# Span names whose self time is reported as ``<name>.s``.
TIMED = [f"{m}.{f}" for m, f in SPAN_FUNCTIONS if f not in ("hermite_rows", "smith_with_inverses")]
TIMED += [f"{m}.{c}" for m, c in SPAN_CLASSES]


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, via, case, parent, start, end]
        self.stack = []  # open spans
        self.case = None
        self.counts = {}
        self.max_values = {}
        self.scalar_depth = 0
        self.scalar_busy = 0.0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _max(self, key, value):
        if value > self.max_values.get(key, 0):
            self.max_values[key] = value

    def _parent_name(self):
        return self.stack[-1][1] if self.stack else None

    def _observe(self, name, result, parent):
        """Counts read off a span's return value."""
        if name == "abelian.all_subgroups":
            self._count("abelian.all_subgroups.returned", len(result))
            if parent == "pointed.enum_z":
                self._count("pointed.z_tried", len(result))
        elif name == "pointed.enum_z":
            self._count("pointed.z_kept", len(result))
        elif name == "pointed.enum_dpm":
            self._count("pointed.dpm_kept", len(result))
        elif name == "simple_current.enumerate_sc":
            self._count("simple_current.params", len(result.entries))
            self._count("simple_current.collisions", len(result.collisions))
        elif name == "lattice.glue":
            self._max("lattice.glue.max_rank", result.rank)

    def _span(self, name, via, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [len(self.spans), name, via, self.case, parent[0] if parent else None, 0.0, 0.0]
            self.spans.append(span)
            self.stack.append(span)
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                self.stack.pop()
            self._observe(name, result, parent[1] if parent else None)
            return result

        return wrapper

    def _scalar(self, op, fn):
        key = f"scalars.{op}.calls"

        @functools.wraps(fn)
        def wrapper(*args):
            self.counts[key] = self.counts.get(key, 0) + 1
            self.scalar_depth += 1
            start = time.perf_counter() if self.scalar_depth == 1 else None
            try:
                result = fn(*args)
            finally:
                self.scalar_depth -= 1
                if start is not None:
                    self.scalar_busy += time.perf_counter() - start
            order = getattr(result, "order", 0)  # bool and NotImplemented have none
            if order > self.max_values.get("scalars.max_order", 0):
                self.max_values["scalars.max_order"] = order
            return result

        return wrapper

    def add_span(self, name, start, end):
        """Record finished work that interrupted the innermost open span."""
        parent = self.stack[-1][0] if self.stack else None
        self.spans.append([len(self.spans), name, "bench", self.case, parent, start, end])
        if self.scalar_depth:
            self.scalar_busy -= end - start

    def _counter(self, key, within, fn):
        """Count calls of ``fn`` made while the innermost span is ``within``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._parent_name() == within:
                self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions in loaded modinv modules."""
        modules = {n: m for n, m in sys.modules.items() if n == "modinv" or n.startswith("modinv.")}
        for mod_name, attr in SPAN_FUNCTIONS:
            home = modules.get(f"modinv.{mod_name}")
            if home is None:
                continue
            original = getattr(home, attr)
            for via_name, via in sorted(modules.items()):
                if getattr(via, attr, None) is original:
                    self._patch(via, attr, self._span(f"{mod_name}.{attr}", via_name.removeprefix("modinv."), original))
        for mod_name, cls_name in SPAN_CLASSES:
            home = modules.get(f"modinv.{mod_name}")
            if home is not None:
                cls = getattr(home, cls_name)
                self._patch(cls, "__init__", self._span(f"{mod_name}.{cls_name}", "class", cls.__init__))
        scalars = modules.get("modinv.scalars")
        if scalars is not None:
            cls = scalars.Cyclotomic
            for attr, op in SCALAR_OPS.items():
                self._patch(cls, attr, self._scalar(op, cls.__dict__[attr]))
        pointed = modules.get("modinv.pointed")
        if pointed is not None:
            cls = pointed.DPMParam
            self._patch(cls, "__init__", self._counter("pointed.dpm_built", "pointed.enum_dpm", cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Total self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                child[span[4]] += span[6] - span[5]
        totals, calls = {}, {}
        for span, inner in zip(self.spans, child):
            name = span[1]
            totals[name] = totals.get(name, 0.0) + (span[6] - span[5]) - inner
            calls[name] = calls.get(name, 0) + 1
        return totals, calls

    def metrics(self, cases, sizes, overhead, speed):
        """Per-layer metrics; times are self seconds per case times ``speed``, counts per pass."""
        totals, calls = self.self_times()
        per_case = max(cases, 1) / speed
        out = {}
        for name in TIMED:
            out[f"{name}.s"] = (totals.get(name, 0.0) / per_case, "s")
        for op in ("mul", "add", "inverse", "eq"):
            out[f"scalars.{op}.calls"] = (self.counts.get(f"scalars.{op}.calls", 0), "count")
        out["scalars.busy_s"] = (self.scalar_busy / per_case, "s")
        out["scalars.max_order"] = (self.max_values.get("scalars.max_order", 0), "count")
        out["modular.mat_mul.calls"] = (calls.get("modular.mat_mul", 0), "count")
        out["modular.primaries"] = (max((s.get("primaries") or 0 for s in sizes), default=0), "count")
        out["modular.conductor"] = (max((s.get("conductor") or 0 for s in sizes), default=0), "count")
        for key in ("simple_current.params", "simple_current.collisions", "abelian.all_subgroups.returned"):
            out[key] = (self.counts.get(key, 0), "count")
        out["abelian.hermite_rows.calls"] = (calls.get("abelian.hermite_rows", 0), "count")
        out["abelian.smith_with_inverses.calls"] = (calls.get("abelian.smith_with_inverses", 0), "count")
        out["forms.QuadraticForm.calls"] = (calls.get("forms.QuadraticForm", 0), "count")
        out["lattice.glue.max_rank"] = (self.max_values.get("lattice.glue.max_rank", 0), "count")
        out["pointed.z_yield"] = (_ratio(self.counts, "pointed.z_kept", "pointed.z_tried"), "ratio")
        out["pointed.dpm_yield"] = (_ratio(self.counts, "pointed.dpm_kept", "pointed.dpm_built"), "ratio")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def dump(self, path, extra):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "via", "case", "parent", "start", "end"]
        with open(path, "w") as fh:
            json.dump({**extra, "fields": fields, "spans": self.spans, "counts": self.counts}, fh)


def _ratio(counts, num, den):
    d = counts.get(den, 0)
    return counts.get(num, 0) / d if d else 0.0
