"""Spans and counters around slopeforge's public calls, installed from outside.

A Tracer patches the package in place: every binding of a traced function in
any loaded ``slopeforge`` module is replaced by a wrapper (so calls made
through ``from .x import f`` are seen as well), and class attributes such as
``FiniteGroup.mul`` or ``Cyclotomic.__add__`` are replaced on the class.
``uninstall`` puts every original back; wrappers still held elsewhere (for
example a bound ``G.mul`` stored inside a group built while tracing) turn into
plain pass-throughs once the tracer is disabled.

Spans (name, start, end, parent) are kept in memory and reduced to metrics
when the run ends.  ``_s`` metrics are self time: a span's duration minus the
durations of its child spans.  ``_incl_s`` metrics are inclusive time of the
outermost span of that name.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute path) for every traced call.  A dotted
# attribute path names a method or cached property on a class.
SPAN_TARGETS = [
    ("groups.normal_subgroups", "slopeforge.groups", "normal_subgroups"),
    ("groups.classify_wreath_subgroup", "slopeforge.groups", "classify_wreath_subgroup"),
    ("groups.outer_automorphism_order", "slopeforge.groups", "outer_automorphism_order"),
    ("groups.group_from_permutations", "slopeforge.groups", "group_from_permutations"),
    ("groups.subgroup_closure", "slopeforge.groups", "subgroup_closure"),
    ("groups.conjugacy_classes", "slopeforge.groups", "FiniteGroup.conjugacy_classes"),
    ("groups.wreath_enumerate", "slopeforge.groups", "WreathProduct.group"),
    ("groups.wreath_enumerate", "slopeforge.groups", "WreathProduct.subgroup_from_raw"),
    ("groups.subgroup_new", "slopeforge.groups", "Subgroup.__init__"),
    ("filtered.invariant_dimension", "slopeforge.filtered", "invariant_dimension"),
    ("filtered.invariant_character", "slopeforge.filtered", "invariant_character"),
    ("filtered.slope_decomposition", "slopeforge.filtered", "slope_decomposition"),
    ("filtered.swan_lower_oracle", "slopeforge.filtered", "swan_lower_oracle"),
    ("filtered.tensor_bound_check", "slopeforge.filtered", "tensor_bound_check"),
    ("reptheory.character_table", "slopeforge.reptheory", "character_table"),
    ("reptheory.decompose", "slopeforge.reptheory", "CharacterTable.decompose"),
    ("reptheory.induce", "slopeforge.reptheory", "induce"),
    ("reptheory.tensor_induce", "slopeforge.reptheory", "tensor_induce"),
    ("reptheory.mackey_check", "slopeforge.reptheory", "mackey_check"),
    ("newton.polygon_from_slopes", "slopeforge.newton", "polygon_from_slopes"),
]

# Every public function of these modules is traced under one span name.
MODULE_LAYERS = [
    ("modp", "slopeforge.modp", lambda name: True),
    ("robba", "slopeforge.robba", lambda name: True),
    ("weyl", "slopeforge.weyl", lambda name: True),
    ("jsonio.parse", "slopeforge.jsonio", lambda name: name.startswith("parse_")),
    ("jsonio.emit", "slopeforge.jsonio", lambda name: name.endswith("_json")),
]

# Counted, not spanned: these run millions of times.
COUNTED_METHODS = [
    ("groups.mul", "slopeforge.groups", "FiniteGroup.mul"),
]
CYCLOTOMIC_OPS = [
    ("exactnum.cyclotomic_add", "__add__"),
    ("exactnum.cyclotomic_add", "__radd__"),
    ("exactnum.cyclotomic_mul", "__mul__"),
    ("exactnum.cyclotomic_mul", "__rmul__"),
    ("exactnum.cyclotomic_eq", "__eq__"),
]

# The per-layer metrics, in report order: (name, unit, better).
PER_LAYER_METRICS = [
    ("groups.mul_calls", "count", "lower"),
    ("groups.subgroup_closure_calls", "count", "lower"),
    ("groups.subgroup_closure_s", "s", "lower"),
    ("groups.subgroup_new", "count", "lower"),
    ("groups.subgroup_new_s", "s", "lower"),
    ("groups.conjugacy_classes_s", "s", "lower"),
    ("groups.normal_subgroups_s", "s", "lower"),
    ("groups.wreath_enumerate_s", "s", "lower"),
    ("groups.classify_wreath_subgroup_s", "s", "lower"),
    ("groups.outer_automorphism_order_s", "s", "lower"),
    ("groups.group_from_permutations_s", "s", "lower"),
    ("exactnum.cyclotomic_add_calls", "count", "lower"),
    ("exactnum.cyclotomic_mul_calls", "count", "lower"),
    ("exactnum.cyclotomic_eq_calls", "count", "lower"),
    ("exactnum.cross_conductor_share", "ratio", "lower"),
    ("filtered.invariant_dimension_calls", "count", "lower"),
    ("filtered.invariant_dimension_s", "s", "lower"),
    ("filtered.invariant_character_s", "s", "lower"),
    ("filtered.slope_decomposition_s", "s", "lower"),
    ("filtered.swan_lower_oracle_s", "s", "lower"),
    ("filtered.tensor_bound_check_s", "s", "lower"),
    ("reptheory.character_table_calls", "count", "lower"),
    ("reptheory.table_builds", "count", "lower"),
    ("reptheory.table_hit_ratio", "ratio", "higher"),
    ("reptheory.character_table_incl_s", "s", "lower"),
    ("reptheory.decompose_s", "s", "lower"),
    ("reptheory.induce_s", "s", "lower"),
    ("reptheory.tensor_induce_s", "s", "lower"),
    ("reptheory.mackey_check_s", "s", "lower"),
    ("modp.calls", "count", "lower"),
    ("modp.s", "s", "lower"),
    ("jsonio.parse_s", "s", "lower"),
    ("jsonio.emit_s", "s", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    ("cli.exit0", "count", "higher"),
    ("cli.exit1", "count", "lower"),
    ("cli.exit2", "count", "lower"),
    ("cli.traceback", "count", "lower"),
    ("cli.known_defect_failures", "count", "lower"),
    ("newton.polygon_from_slopes_calls", "count", "lower"),
    ("robba.s", "s", "lower"),
    ("weyl.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    """Records spans and counts while installed and enabled."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tables: dict[int, object] = {}  # id -> every table returned
        self.missing: list[str] = []  # targets the program does not have

    # -- recording --

    @contextmanager
    def paused(self):
        """Run the benchmark's own result checks without recording them."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def _span(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.enabled:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def _cyclotomic_counter(self, name: str, fn):
        tracer = self
        counts = self.counts
        cross = "exactnum.cross_conductor"

        @functools.wraps(fn)
        def wrapper(a, b):
            if tracer.enabled:
                counts[name] = counts.get(name, 0) + 1
                # a non-Cyclotomic operand is an int or Fraction: conductor 1
                if getattr(b, "conductor", 1) != a.conductor:
                    counts[cross] = counts.get(cross, 0) + 1
            return fn(a, b)

        return wrapper

    def _table_lookup(self, fn):
        """character_table: a table object never returned before is a build.

        Returned tables are remembered even while recording is paused, so a
        tracer installed (and paused) during set-up sees the set-up's tables
        as built already.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = fn(*args, **kwargs)
            if id(table) not in tracer._tables:
                tracer._tables[id(table)] = table
                if tracer.enabled:
                    tracer.counts["reptheory.table_builds"] = (
                        tracer.counts.get("reptheory.table_builds", 0) + 1)
            return table

        return wrapper

    # -- installing --

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, fn, new):
        """Rebind fn to new in every loaded slopeforge module."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "slopeforge" and not name.startswith("slopeforge."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, new)

    def _wrap_target(self, module: str, path: str, make):
        """Wrap module.path; a target the program no longer has is skipped
        (its metrics read 0) and listed in self.missing."""
        owner = sys.modules[module]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        value = vars(owner).get(attr) if owner is not None else None
        if inspect.isfunction(value) and not cls_path:
            self._patch_function(value, make(value))
        elif inspect.isfunction(value):
            self._patch(owner, attr, make(value))
        elif isinstance(value, functools.cached_property):
            new = functools.cached_property(make(value.func))
            new.__set_name__(owner, attr)
            self._patch(owner, attr, new)
        elif isinstance(value, property):
            self._patch(owner, attr, property(make(value.fget), value.fset, value.fdel))
        else:
            self.missing.append(f"{module}.{path}")

    def install(self, record: bool = True):
        """Wrap every target; start recording unless record is False."""
        import slopeforge  # noqa: F401  (loads every traced module)

        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for name, module, path in SPAN_TARGETS:
            make = functools.partial(self._span, name)
            if path == "character_table":
                make = lambda fn, name=name: self._span(name, self._table_lookup(fn))
            self._wrap_target(module, path, make)
        for layer, module, select in MODULE_LAYERS:
            mod = sys.modules[module]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module
                        and not attr.startswith("_") and select(attr)):
                    self._patch_function(fn, self._span(layer, fn))
        for name, module, path in COUNTED_METHODS:
            self._wrap_target(module, path, functools.partial(self._counter, name))
        for name, attr in CYCLOTOMIC_OPS:
            self._wrap_target("slopeforge.exactnum", f"Cyclotomic.{attr}",
                              functools.partial(self._cyclotomic_counter, name))
        self.enabled = record

    def uninstall(self):
        """Stop recording and restore every original binding."""
        self.enabled = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reducing --

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

        def outermost_incl(name):
            total = 0.0
            for name_i, start, end, parent in spans:
                if name_i != name:
                    continue
                while parent >= 0 and spans[parent][0] != name:
                    parent = spans[parent][3]
                if parent < 0:
                    total += end - start
            return total

        c = self.counts
        binary = sum(c.get(f"exactnum.cyclotomic_{op}", 0) for op in ("add", "mul", "eq"))
        table_calls = calls.get("reptheory.character_table", 0)
        builds = c.get("reptheory.table_builds", 0)
        out = {
            "groups.mul_calls": c.get("groups.mul", 0),
            "groups.subgroup_closure_calls": calls.get("groups.subgroup_closure", 0),
            "groups.subgroup_new": calls.get("groups.subgroup_new", 0),
            "exactnum.cyclotomic_add_calls": c.get("exactnum.cyclotomic_add", 0),
            "exactnum.cyclotomic_mul_calls": c.get("exactnum.cyclotomic_mul", 0),
            "exactnum.cyclotomic_eq_calls": c.get("exactnum.cyclotomic_eq", 0),
            "exactnum.cross_conductor_share":
                c.get("exactnum.cross_conductor", 0) / binary if binary else 0.0,
            "filtered.invariant_dimension_calls":
                calls.get("filtered.invariant_dimension", 0),
            "reptheory.character_table_calls": table_calls,
            "reptheory.table_builds": builds,
            "reptheory.table_hit_ratio":
                (table_calls - builds) / table_calls if table_calls else 0.0,
            "reptheory.character_table_incl_s": outermost_incl("reptheory.character_table"),
            "modp.calls": calls.get("modp", 0),
            "modp.s": self_s.get("modp", 0.0),
            "jsonio.parse_s": self_s.get("jsonio.parse", 0.0),
            "jsonio.emit_s": self_s.get("jsonio.emit", 0.0),
            "newton.polygon_from_slopes_calls": calls.get("newton.polygon_from_slopes", 0),
            "robba.s": self_s.get("robba", 0.0),
            "weyl.s": self_s.get("weyl", 0.0),
        }
        for metric in ("cli.bytes_out", "cli.exit0", "cli.exit1", "cli.exit2",
                       "cli.traceback", "cli.known_defect_failures"):
            out[metric] = c.get(metric, 0)
        for metric, _, _ in PER_LAYER_METRICS:
            if metric.endswith("_s") and not metric.endswith("_incl_s") and metric not in out:
                out[metric] = self_s.get(metric[:-2], 0.0)
        return {metric: out[metric] for metric, _, _ in PER_LAYER_METRICS if metric in out}
