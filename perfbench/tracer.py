"""Per-layer tracing of charfol from outside the library.

The modules import each other's names directly (``charfol.cli`` holds its own
``decide_tightness``, ``charfol.tightness`` its own ``eliminate_pair``), so a
wrapper must replace the function at every binding site: each ``charfol.*``
module attribute that is the original object.  Methods are wrapped on the
class.  While the tracer is off a wrapper only forwards the call.

Spans are kept in memory as ``(name, start, end, parent, outermost)`` tuples
and turned into per-layer metrics when the pass ends; nothing is written
during a pass.  ``outermost`` is false for a call nested in a call of the same
name, so that recursion is not counted twice in inclusive time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute) of every traced callable; a dotted attribute is a
# method of a class in that module.
TRACED = (
    ("cli", "main"),
    ("cli", "parse"),
    ("cli", "emit"),
    ("model", "FoliationGraph.canonical_form"),
    ("model", "FoliationGraph.validate"),
    ("model", "FoliationGraph.faces"),
    ("tightness", "enumerate_signature"),
    ("tightness", "synthesize_taming"),
    ("tightness", "allowable_candidates"),
    ("tightness", "decide_tightness"),
    ("tightness", "verify_taming_order"),
    ("tightness", "split_at_negative_saddle"),
    ("tightness", "oracle_tightness"),
    ("invariants", "find_same_sign_polygon"),
    ("invariants", "trace_polygon"),
    ("invariants", "skeleton_decomposition"),
    ("invariants", "positive_tree"),
    ("taming", "normalized_assignment"),
    ("taming", "is_lyapunov"),
    ("taming", "is_taming"),
    ("taming", "simplicity_check"),
    ("taming", "sublevel_region"),
    ("moves", "eliminate_pair"),
    ("moves", "eliminate_embryo"),
    ("moves", "resolve_connection"),
    ("moves", "create_pair"),
    ("handles", "extend_to_ball"),
    ("handles", "verify_decomposition"),
)


# counts kept besides calls and times; the last two only derive memo_hits
COUNTERS = (
    "model.canonical_form.computed",
    "tightness.enumerate_signature.candidates",
    "tightness.enumerate_signature.classes",
    "tightness.oracle_tightness.orders_tried",
    "invariants.trace_polygon.discs",
    "handles.verify_decomposition.problems",
    "cli.main.exit2",
    "canonical_under_synthesis",
    "allowable_under_synthesis",
)


def metric_names() -> set[str]:
    """Every per-layer metric the tracer can report."""
    names = {f"{span_name(m, a)}.{kind}" for m, a in TRACED for kind in ("calls", "s", "self_s", "failed")}
    return names | set(COUNTERS) | {"tightness.synthesize_taming.memo_hits", "trace.overhead_s"}


def is_time(metric: str) -> bool:
    return metric.endswith((".s", ".self_s", "_s"))


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Tracer:
    on: bool = False
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _depth: Counter = field(default_factory=Counter)
    _canonical: weakref.WeakValueDictionary = field(default_factory=weakref.WeakValueDictionary)

    def install(self, package: str = "charfol") -> None:
        """Wrap every traced callable at every place the package binds it."""
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module, attr in TRACED:
            owner = sys.modules[f"{package}.{module}"]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, fname)
            wrapper = self._wrap(span_name(module, attr), original)
            if cls_path:
                setattr(owner, fname, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers on the charfol now imported and record until exit."""
        self.install()
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)

        return traced

    def _call(self, name: str, fn, args, kwargs):
        depth = self._depth
        self._note_entry(name, args)
        parent = self._stack[-1] if self._stack else -1
        outermost = not depth[name]
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".failed"] += 1
            raise
        else:
            self._note_result(name, result)
            return result
        finally:
            end = time.perf_counter()
            depth[name] -= 1
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, outermost)

    def _note_entry(self, name: str, args) -> None:
        depth, counts = self._depth, self.counts
        if name == "model.canonical_form":
            graph = args[0]
            if id(graph) not in self._canonical:
                self._canonical[id(graph)] = graph
                counts["model.canonical_form.computed"] += 1
            if depth["tightness.synthesize_taming"]:
                counts["canonical_under_synthesis"] += 1
            if depth["tightness.enumerate_signature"]:
                counts["tightness.enumerate_signature.candidates"] += 1
        elif name == "tightness.allowable_candidates" and depth["tightness.synthesize_taming"]:
            counts["allowable_under_synthesis"] += 1

    def _note_result(self, name: str, result) -> None:
        counts = self.counts
        if name == "tightness.enumerate_signature":
            counts["tightness.enumerate_signature.classes"] += len(result)
        elif name == "tightness.oracle_tightness":
            counts["tightness.oracle_tightness.orders_tried"] += result["orders_tried"]
        elif name == "invariants.trace_polygon" and result is not None:
            counts["invariants.trace_polygon.discs"] += 1
        elif name == "handles.verify_decomposition":
            counts["handles.verify_decomposition.problems"] += len(result)
        elif name == "cli.main" and result == 2:
            counts["cli.main.exit2"] += 1

    def summary(self) -> dict[str, float]:
        """Calls, inclusive time (outermost call of a name only) and self time."""
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        spans = self.spans
        for name, start, end, parent, outermost in spans:
            duration = end - start
            calls[name] += 1
            self_time[name] += duration
            if parent >= 0:
                self_time[spans[parent][0]] -= duration
            if outermost:
                inclusive[name] += duration
        out: dict[str, float] = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_time[name]
        for name, n in self.counts.items():
            out[name] = n
        return out
