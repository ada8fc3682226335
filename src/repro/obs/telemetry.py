"""Phase spans and counter snapshots — the recording half of `repro.obs`.

A :class:`Telemetry` collects two kinds of record while an analysis runs:

* **Spans** — named, nestable phases (``parse``, ``reachability``,
  ``verify`` ...).  Entering a span snapshots the attached BDD manager's
  :meth:`~repro.bdd.manager.BDDManager.resource_stats`; leaving it stores
  the per-counter delta on the span, so every phase carries the paper's
  "BDD nodes - time" cost pair plus the full op-counter breakdown.
* **Events** — instantaneous samples inside a span, e.g. the frontier
  size per reachability iteration.

Recording is *observationally inert* by construction: spans and events
only read counters and timestamps; they never create BDD nodes or touch
the operation caches.  The engine therefore produces byte-identical
verdicts, coverage numbers and traces whether telemetry is on or off.

Levels
------
``"off"``
    Record nothing.  :data:`NULL_TELEMETRY` is the shared no-op instance
    every engine object defaults to; its ``span()`` returns a reusable
    null context, so instrumented code pays one attribute load and one
    method call per phase.
``"counters"``
    No spans/events, but :meth:`Telemetry.metrics` reports the manager's
    cumulative counters (the cheap always-useful block for JSON reports).
``"spans"``
    Full phase spans with counter deltas and frontier events.

The manager may be attached *after* spans have started (the ``parse``
phase runs before a manager exists).  A span whose start predates the
manager treats its start snapshot as all-zero — correct, because a fresh
manager's counters start at zero.

    >>> t = Telemetry("spans")
    >>> with t.span("outer"):
    ...     with t.span("inner", detail="x"):
    ...         t.event("sample", value=1)
    >>> [(s.name, s.depth) for s in t.spans]
    [('outer', 0), ('inner', 1)]
    >>> t.events[0]["name"], t.events[0]["span"]
    ('sample', 1)
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from .._node import field, record
from ..errors import ConfigError

__all__ = [
    "METRICS_SCHEMA",
    "NULL_TELEMETRY",
    "TELEMETRY_COUNTERS",
    "TELEMETRY_LEVELS",
    "TELEMETRY_OFF",
    "TELEMETRY_SPANS",
    "Span",
    "Telemetry",
    "format_profile",
]

#: Schema tag of the ``metrics`` block emitted into analysis/suite JSON.
METRICS_SCHEMA = "repro-metrics/v1"

#: Record nothing (the default).
TELEMETRY_OFF = "off"
#: Cumulative manager counters only — no spans or events.
TELEMETRY_COUNTERS = "counters"
#: Full phase spans with counter deltas and frontier events.
TELEMETRY_SPANS = "spans"
#: The valid telemetry levels, in increasing order of detail.
TELEMETRY_LEVELS = (TELEMETRY_OFF, TELEMETRY_COUNTERS, TELEMETRY_SPANS)


@record
class Span:
    """One recorded phase: name, position in the tree, cost."""

    #: Phase name (``parse``, ``reachability``, ``verify`` ...).
    name: str
    #: Position in :attr:`Telemetry.spans` (start order, depth-first).
    index: int
    #: Index of the enclosing span, or ``None`` at top level.
    parent: Optional[int]
    #: Nesting depth (0 = top level).
    depth: int
    #: Caller-supplied labels (e.g. ``property="AG p"``) — JSON-safe.
    attrs: Dict[str, object]
    #: Start time in seconds relative to the telemetry's epoch.
    t_start: float
    #: Wall-clock duration; filled when the span closes.
    seconds: float = 0.0
    #: Per-counter ``resource_stats`` delta across the span; filled when
    #: the span closes (empty when no manager ever attached).
    counters: Dict[str, float] = field(default_factory=dict)

    def label(self) -> str:
        """The name plus a short attr suffix for human-facing tables."""
        if not self.attrs:
            return self.name
        detail = " ".join(str(v) for v in self.attrs.values())
        if len(detail) > 48:
            detail = detail[:45] + "..."
        return f"{self.name} [{detail}]"

    def to_json(self) -> Dict[str, object]:
        counters = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in self.counters.items()
        }
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "depth": self.depth,
            "attrs": dict(self.attrs),
            "seconds": round(self.seconds, 6),
            "counters": counters,
        }


class _NullSpanContext:
    """Reusable no-op context — what ``span()`` returns when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Live span context: snapshots counters on enter, deltas on exit."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_span", "_snap0", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        t = self._telemetry
        span = Span(
            name=self._name,
            index=len(t.spans),
            parent=t._stack[-1] if t._stack else None,
            depth=len(t._stack),
            attrs=self._attrs,
            t_start=time.perf_counter() - t._epoch,
        )
        t.spans.append(span)
        t._stack.append(span.index)
        self._span = span
        self._snap0 = t._snapshot()
        self._t0 = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._telemetry
        span = self._span
        span.seconds = time.perf_counter() - self._t0
        end = t._snapshot()
        if end is not None:
            start = self._snap0
            span.counters = {
                key: (value - start[key] if start is not None else value)
                for key, value in end.items()
            }
        if t._stack and t._stack[-1] == span.index:
            t._stack.pop()
        elif span.index in t._stack:  # misnested exit: unwind to our frame
            del t._stack[t._stack.index(span.index):]
        return False


class Telemetry:
    """A recording of one analysis run.

    Create one per analysis (or via :meth:`from_level`, which returns the
    shared :data:`NULL_TELEMETRY` for level ``"off"``), attach the BDD
    manager once it exists, and wrap phases in :meth:`span`.
    """

    def __init__(self, level: str = TELEMETRY_SPANS, manager=None):
        if level not in TELEMETRY_LEVELS:
            raise ConfigError(
                f"unknown telemetry level {level!r} "
                f"(valid levels: {', '.join(TELEMETRY_LEVELS)})"
            )
        self.level = level
        self.manager = manager
        #: Closed and open spans, in start order.
        self.spans: List[Span] = []
        #: Instantaneous samples: ``{"name", "t", "span", "args"}``.
        self.events: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._epoch = time.perf_counter()

    @classmethod
    def from_level(cls, level: str) -> "Telemetry":
        """The telemetry for a config's ``telemetry`` knob — the shared
        no-op instance when ``level`` is ``"off"``."""
        if level == TELEMETRY_OFF:
            return NULL_TELEMETRY
        return cls(level)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this telemetry records anything at all."""
        return self.level != TELEMETRY_OFF

    @property
    def spans_enabled(self) -> bool:
        """Whether spans/events are recorded (level ``"spans"``)."""
        return self.level == TELEMETRY_SPANS

    def attach(self, manager) -> None:
        """Bind the BDD manager whose counters spans snapshot.  The first
        manager wins; spans opened before attachment delta from zero."""
        if self.manager is None:
            self.manager = manager

    def span(self, name: str, **attrs):
        """A context manager recording ``name`` as a phase.  ``attrs``
        label the span (JSON-safe values only).  No-op below level
        ``"spans"``."""
        if self.level != TELEMETRY_SPANS:
            return _NULL_SPAN_CONTEXT
        return _SpanContext(self, name, attrs)

    def event(self, name: str, **args) -> None:
        """Record an instantaneous sample (e.g. one fixpoint iteration's
        frontier size) under the innermost open span."""
        if self.level != TELEMETRY_SPANS:
            return
        self.events.append(
            {
                "name": name,
                "t": time.perf_counter() - self._epoch,
                "span": self._stack[-1] if self._stack else None,
                "args": args,
            }
        )

    def record_span(
        self, name: str, seconds: float, **attrs
    ) -> Optional[Span]:
        """Record an externally timed, already-closed span.

        The suite's shard executor uses this: shard work runs in another
        process whose BDD manager this telemetry can never snapshot, so
        the worker measures its own wall time and the parent records the
        finished span here.  No counter deltas are attached (there is no
        local manager activity to delta); ``attrs`` label the span
        exactly like :meth:`span`'s.  No-op below level ``"spans"``.
        """
        if self.level != TELEMETRY_SPANS:
            return None
        span = Span(
            name=name,
            index=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            depth=len(self._stack),
            attrs=attrs,
            t_start=max(0.0, time.perf_counter() - self._epoch - seconds),
            seconds=seconds,
        )
        self.spans.append(span)
        return span

    def _snapshot(self) -> Optional[Dict[str, float]]:
        if self.manager is None:
            return None
        return self.manager.resource_stats()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The JSON-safe ``metrics`` block for analysis/suite reports.

        Always carries the manager's cumulative counters; at level
        ``"spans"`` also the span tree and events.  Timing keys are
        exactly ``seconds`` / ``gc_seconds`` / ``t`` so report consumers
        can strip wall-clock noise uniformly.
        """
        counters = self._snapshot() or {}
        data: Dict[str, object] = {
            "schema": METRICS_SCHEMA,
            "level": self.level,
            "counters": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in counters.items()
            },
        }
        if self.spans_enabled:
            data["spans"] = [span.to_json() for span in self.spans]
            data["events"] = [
                {
                    "name": ev["name"],
                    "t": round(ev["t"], 6),
                    "span": ev["span"],
                    "args": dict(ev["args"]),
                }
                for ev in self.events
            ]
        return data


class NullTelemetry(Telemetry):
    """The always-off telemetry: records nothing, costs one method call.

    A real subclass (not just ``Telemetry("off")``) so the hot-path
    methods are unconditional no-ops and the instance is safely shared
    engine-wide.
    """

    def __init__(self):
        super().__init__(TELEMETRY_OFF)

    def attach(self, manager) -> None:
        pass

    def span(self, name: str, **attrs):
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **args) -> None:
        pass

    def metrics(self) -> Dict[str, object]:
        return {"schema": METRICS_SCHEMA, "level": TELEMETRY_OFF, "counters": {}}


#: The shared no-op telemetry every engine object defaults to.
NULL_TELEMETRY = NullTelemetry()


# ----------------------------------------------------------------------
# The --profile table
# ----------------------------------------------------------------------


def _format_nodes(count: float) -> str:
    """Node counts in the paper's style: ``946k`` above a thousand."""
    count = int(count)
    if count >= 1000:
        return f"{count / 1000:.0f}k"
    return str(count)


def format_profile(telemetry: Telemetry) -> str:
    """Render the recorded spans as the paper's "nodes - time" table.

    One row per phase, indented by nesting depth; the trailing ``total``
    row reports the manager's cumulative node allocation and the summed
    top-level phase time.
    """
    if not telemetry.spans:
        return (
            f"no phase spans recorded (telemetry level: {telemetry.level}; "
            f"run with telemetry level 'spans')"
        )
    rows: List[Tuple[str, str]] = []
    for span in telemetry.spans:
        label = "  " * span.depth + span.label()
        nodes = span.counters.get("nodes_created", 0)
        rows.append((label, f"{_format_nodes(nodes)} - {span.seconds:.2f}s"))
    totals = telemetry._snapshot() or {}
    total_nodes = totals.get("nodes_created", 0)
    total_seconds = sum(s.seconds for s in telemetry.spans if s.depth == 0)
    rows.append(
        ("total", f"{_format_nodes(total_nodes)} - {total_seconds:.2f}s")
    )
    width = max(len(label) for label, _ in rows)
    width = max(width, len("phase"))
    lines = [f"{'phase':<{width}}  cost (nodes - time)"]
    lines.extend(f"{label:<{width}}  {cost}" for label, cost in rows)
    return "\n".join(lines)
