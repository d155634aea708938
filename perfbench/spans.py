"""Spans recorded from outside the program, for the traced runs.

`Tracer.install` wraps every public function of each layer module (and
the `ExactMatrix` / `SquaredDistanceMatrix` constructors), rebinding the
wrapper in every `simplexkite` namespace that holds the same function
object: `from .exact import exact_determinant` copies the binding, so
patching only the defining module would miss most calls.  The per-scalar
helpers `as_scalar`, `parse_scalar` and `scalar_str` are left unwrapped;
wrapped, they would cost more than they measure, and their time lands
in the caller's self time.

Each call appends one span [name, layer, start, end, parent, item,
value] to a list kept in memory; `value` holds the largest bit length
of a kernel result, or `max_rel_error` for `embed`.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from fractions import Fraction

LAYERS = ("exact", "cayley", "prekite", "centers", "families", "geometry", "relation", "cli")
KERNEL = ("exact_determinant", "inertia", "solve_linear")
UNWRAPPED = ("as_scalar", "parse_scalar", "scalar_str")
CONSTRUCTORS = {"exact": ("ExactMatrix",), "cayley": ("SquaredDistanceMatrix",)}
NAME, LAYER, START, END, PARENT, ITEM, VALUE = range(7)
ROOT = "item"


def _bits(result) -> int:
    values = result if isinstance(result, tuple) else (result,)
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values if isinstance(v, Fraction)),
        default=0,
    )


class Tracer:
    """Wrappers for every layer function, applied by `install` and taken
    off again by `uninstall`; spans accumulate across installs."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._item = None
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for name, m in sys.modules.items() if name == "simplexkite" or name.startswith("simplexkite.")]
        for layer in LAYERS:
            module = importlib.import_module("simplexkite." + layer)
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    wrapper = self._wrap(fn, layer, name)
                    self._patches += [(m, attr, fn, wrapper) for m in modules
                                      for attr, value in vars(m).items() if value is fn]
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patches.append((cls, "__init__", cls.__init__, self._wrap(cls.__init__, layer, cls_name)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, layer, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._item, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if name in KERNEL:
                span[VALUE] = _bits(result)
            elif name == "embed":
                span[VALUE] = result.max_rel_error
            return result

        return traced

    def item(self, ident, fn, *args):
        """Run fn(*args) as item `ident` under a root span; return its result."""
        self._item = ident
        span = [ROOT, "bench", 0.0, 0.0, -1, ident, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._item = None


def self_times(spans):
    """Self time of each span, and the number of spans whose children are
    not nested, disjoint intervals inside them (so self + children != duration)."""
    covered = [0.0] * len(spans)
    last_end = {}
    bad = set()
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        parent = spans[p]
        if s[START] < parent[START] or s[END] > parent[END] or s[START] < last_end.get(p, parent[START]):
            bad.add(p)
        last_end[p] = s[END]
        covered[p] += s[END] - s[START]
    selfs = [s[END] - s[START] - c for s, c in zip(spans, covered)]
    bad.update(i for i, v in enumerate(selfs) if v < -1e-12)
    return selfs, len(bad)


def _ancestor(spans, i, name):
    """Index of the nearest enclosing span called `name`, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] != name:
        p = spans[p][PARENT]
    return p


def summarize(spans, labels, factors) -> tuple[dict, int]:
    """Per-layer metrics (name -> value) over the traced items, and the span check.

    `factors` maps an item to its reference-speed factor; every duration
    of the item's spans is scaled by it.
    """
    raw_selfs, bad = self_times(spans)
    scale = [factors.get(s[ITEM], 1.0) for s in spans]
    dur = [(s[END] - s[START]) * k for s, k in zip(spans, scale)]
    selfs = [v * k for v, k in zip(raw_selfs, scale)]
    roots = [i for i, s in enumerate(spans) if s[NAME] == ROOT]
    items = max(len(roots), 1)
    item_s = sum(dur[i] for i in roots) or 1.0
    layer_self = {layer: 0.0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    inclusive = {"embed": 0.0, "incenter": 0.0, "fermat_torricelli": 0.0}
    report_kernel = {i: 0 for i, s in enumerate(spans) if s[NAME] == "coincidence_report"}
    kernel_calls = 0
    for i, s in enumerate(spans):
        if s[LAYER] in layer_self:
            layer_self[s[LAYER]] += selfs[i]
            layer_calls[s[LAYER]] += 1
        if s[NAME] in inclusive:
            inclusive[s[NAME]] += dur[i]
        if s[NAME] in KERNEL:
            kernel_calls += 1
            if (r := _ancestor(spans, i, "coincidence_report")) >= 0:
                report_kernel[r] += 1
    n8_kernel = [k for r, k in report_kernel.items() if labels.get(spans[r][ITEM]) == "n=8"]

    def median_ms(name, label, top_level):
        """Median duration of `name` in items labelled `label` (direct calls only if top_level)."""
        values = [dur[i] * 1e3 for i, s in enumerate(spans)
                  if s[NAME] == name and labels.get(s[ITEM]) == label
                  and (not top_level or spans[s[PARENT]][NAME] == ROOT)]
        return statistics.median(values) if values else 0.0

    per_item_ms = lambda seconds: seconds * 1e3 / items  # noqa: E731
    metrics = {
        "exact.calls_per_item": kernel_calls / items,
        "exact.share": layer_self["exact"] / item_s,
        "exact.result_bits_max": max((s[VALUE] for s in spans if s[NAME] in KERNEL), default=0),
        "cayley.calls_per_item": layer_calls["cayley"] / items,
        "cayley.volume_sq_n10_ms": median_ms("volume_sq", "n=10", True),
        "cayley.volume_sq_n30_ms": median_ms("volume_sq", "n=30", True),
        "centers.exact_calls_per_report": statistics.fmean(report_kernel.values()) if report_kernel else 0.0,
        "centers.exact_calls_per_report_n8": statistics.fmean(n8_kernel) if n8_kernel else 0.0,
        "centers.coincidence_report_n10_ms": median_ms("coincidence_report", "n=10", True),
        "geometry.embed_ms_per_item": per_item_ms(inclusive["embed"]),
        "geometry.incenter_ms_per_item": per_item_ms(inclusive["incenter"]),
        "geometry.fermat_ms_per_item": per_item_ms(inclusive["fermat_torricelli"]),
        "geometry.incenter_n10_ms": median_ms("incenter", "n=10", False),
        "geometry.embed_max_rel_error": max((s[VALUE] for s in spans if s[NAME] == "embed"), default=0.0),
    }
    for layer in LAYERS:
        metrics["%s.self_ms_per_item" % layer] = per_item_ms(layer_self[layer])
    return metrics, bad
