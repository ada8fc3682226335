"""In-process spans around the program's public layer calls.

:class:`Tracer` wraps, for the duration of a ``with`` block, the public
functions each layer exposes::

    lang.parse         repro.lang.parse_module / load_module
    lang.elaborate     repro.lang.elaborate
    lint               repro.lint.lint_module
    fsm.reach          FSM.reachable / FSM.rings (the first, computing call)
    mc.verify          ModelChecker.check
    coverage.estimate  CoverageEstimator.estimate
    coverage.traces    format_uncovered_traces (as Analysis calls it)

Each span records its name, start, end, parent span, the operation it
belongs to, and the deltas of ``BDDManager.resource_stats()`` counters
across the call.  Spans are kept in memory; :meth:`Tracer.dump` writes
them out when the run ends.  Nothing inside ``src/`` is modified: the
wrappers are installed on the imported modules and removed on exit.
"""

from __future__ import annotations

import json
import time
import weakref
from typing import Dict, List, Optional

#: Counter deltas recorded per span (``op_hits``/``op_misses`` are sums
#: over every operation cache).
COUNTS = ("nodes_created", "unique_probes", "op_hits", "op_misses", "gc_runs")

#: Layers whose spans do BDD work (``bdd.nodes_per_s`` divides by them).
BDD_LAYERS = ("fsm.reach", "mc.verify", "coverage.estimate", "coverage.traces")


def _counters(manager) -> Dict[str, int]:
    stats = manager.resource_stats()
    out = {
        "nodes_created": stats["nodes_created"],
        "unique_probes": stats["unique_probes"],
        "gc_runs": stats["gc_runs"],
        "op_hits": 0,
        "op_misses": 0,
        "peak_live_nodes": stats["peak_live_nodes"],
    }
    for key, value in stats.items():
        if key.endswith("_hits") and key != "unique_hits":
            out["op_hits"] += value
        elif key.endswith("_misses"):
            out["op_misses"] += value
    return out


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "peak",
                 "attrs", "child_time", "child_counts")

    def __init__(self, name: str, parent: Optional[int], op: Optional[int]):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = self.start
        self.counts: Dict[str, int] = {}
        self.peak = 0
        self.attrs: Dict[str, object] = {}
        self.child_time = 0.0
        self.child_counts: Dict[str, int] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_time

    def self_count(self, key: str) -> int:
        return self.counts.get(key, 0) - self.child_counts.get(key, 0)

    def to_json(self) -> Dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "counts": self.counts,
            "peak_live_nodes": self.peak, "attrs": self.attrs,
        }


class Tracer:
    """Records spans while installed (``with Tracer() as tracer: ...``)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patches = []
        self._reached = weakref.WeakSet()

    # -- recording -----------------------------------------------------

    def _call(self, name: str, manager_of, fn, args, kwargs, attrs=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, self.op)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        manager = manager_of(args) if manager_of else None
        before = _counters(manager) if manager is not None else None
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if manager is None and name == "lang.elaborate":
            manager = result.fsm.manager
        if manager is not None:
            after = _counters(manager)
            base = before or {}
            span.counts = {k: after[k] - base.get(k, 0) for k in COUNTS}
            span.peak = after["peak_live_nodes"]
        if attrs:
            span.attrs.update(attrs(args, result))
        if parent is not None:
            up = self.spans[parent]
            up.child_time += span.seconds
            for key, value in span.counts.items():
                up.child_counts[key] = up.child_counts.get(key, 0) + value
        return result

    def _wrap(self, owner, attr: str, name: str, manager_of=None, attrs=None):
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer._call(name, manager_of, original, args, kwargs, attrs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return original

    def _wrap_reach(self, fsm_cls, attr: str):
        """Only the first call per FSM computes reachability; later calls
        read its cache and are not spans."""
        original = getattr(fsm_cls, attr)
        rings = fsm_cls.rings
        tracer = self

        def wrapper(fsm, *args, **kwargs):
            if fsm in tracer._reached:
                return original(fsm, *args, **kwargs)
            tracer._reached.add(fsm)
            return tracer._call(
                "fsm.reach", lambda a: a[0].manager, original, (fsm,) + args,
                kwargs, lambda a, r: {"iterations": len(rings(a[0]))},
            )

        setattr(fsm_cls, attr, wrapper)
        self._patches.append((fsm_cls, attr, original))

    def __enter__(self) -> "Tracer":
        import repro.analysis
        import repro.lang
        import repro.lint
        from repro.coverage.estimator import CoverageEstimator
        from repro.fsm.fsm import FSM
        from repro.mc.checker import ModelChecker

        def text_size(args, result):
            return {"bytes": len(str(args[0]).encode())}

        def file_size(args, result):
            with open(args[0], "rb") as fh:
                return {"bytes": len(fh.read())}

        self._wrap(repro.lang, "parse_module", "lang.parse", attrs=text_size)
        self._wrap(repro.lang, "load_module", "lang.parse", attrs=file_size)
        self._wrap(repro.lang, "elaborate", "lang.elaborate")
        self._wrap(repro.lint, "lint_module", "lint")
        self._wrap_reach(FSM, "reachable")
        self._wrap_reach(FSM, "rings")
        self._wrap(ModelChecker, "check", "mc.verify",
                   manager_of=lambda a: a[0].fsm.manager)
        self._wrap(CoverageEstimator, "estimate", "coverage.estimate",
                   manager_of=lambda a: a[0].fsm.manager)
        self._wrap(repro.analysis, "format_uncovered_traces", "coverage.traces",
                   manager_of=lambda a: a[0].fsm.manager)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------

    def of(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> float:
        return sum(s.self_seconds for s in self.of(name))

    def self_count(self, name: str, key: str) -> int:
        return sum(s.self_count(key) for s in self.of(name))

    def bdd_totals(self) -> Dict[str, float]:
        """Counter totals over the outermost BDD-layer spans (a nested
        span's work is already inside its parent's delta)."""
        totals = {key: 0 for key in COUNTS}
        totals["seconds"] = 0.0
        totals["peak_live_nodes"] = 0
        for span in self.spans:
            if span.name not in BDD_LAYERS:
                continue
            parent = span.parent
            nested = False
            while parent is not None:
                if self.spans[parent].name in BDD_LAYERS:
                    nested = True
                    break
                parent = self.spans[parent].parent
            totals["peak_live_nodes"] = max(totals["peak_live_nodes"], span.peak)
            if nested:
                continue
            totals["seconds"] += span.seconds
            for key in COUNTS:
                totals[key] += span.counts.get(key, 0)
        return totals

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"schema": "perfbench-trace/v1",
                       "spans": [s.to_json() for s in self.spans]}, fh)
