"""Work measurement for verification and coverage runs.

Table 2 of the paper reports, per signal, the cost of model checking and of
coverage estimation as "BDD nodes - time".  :class:`WorkMeter` captures the
same two quantities against our engine: wall-clock seconds and the number of
BDD nodes created while the measured block ran (a machine-independent work
measure), plus the manager's live node count at the end.

Since the engine gained an automatic resource manager
(:class:`~repro.bdd.policy.ResourcePolicy`), the meter also records its
footprint: garbage collections that ran during the phase, the wall-clock
time they cost, the nodes they recycled, reordering passes, and the
manager's peak live-node count — the number that actually bounds memory on
large designs.

The meter deltas :meth:`~repro.bdd.manager.BDDManager.resource_stats`
between its enter and exit snapshots, so its field names *are* the
manager's counter schema (``nodes_created``, ``gc_runs``, ...) — the one
naming every emission layer (suite JSON, ``repro.obs`` spans, ``repro
bench`` baselines) shares.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from .._node import record
from ..bdd import BDDManager

__all__ = ["WorkStats", "WorkMeter"]


@record
class WorkStats:
    """Cost of one measured phase."""

    #: Wall-clock seconds.
    seconds: float = 0.0
    #: BDD nodes created during the phase (allocation work).
    nodes_created: int = 0
    #: Live BDD nodes in the manager when the phase ended.
    nodes_live: int = 0
    #: Garbage collections completed during the phase (manual + automatic).
    gc_runs: int = 0
    #: Wall-clock seconds spent inside those collections (GC overhead).
    gc_seconds: float = 0.0
    #: Node slots those collections recycled.
    gc_freed: int = 0
    #: Automatic reordering passes completed during the phase.
    reorder_runs: int = 0
    #: Combined operation-cache entry count when the phase ended (a gauge,
    #: not a delta: caches persist across phases and evictions can shrink
    #: them mid-phase).
    cache_entries: int = 0
    #: The manager's live-node high-water mark when the phase ended — the
    #: memory bound of the run so far (monotone across phases on a manager).
    peak_live_nodes: int = 0

    def __add__(self, other: "WorkStats") -> "WorkStats":
        """Accumulate two *sequential* phases (``other`` is the later one):
        work counters sum, gauges take the later/larger snapshot."""
        return WorkStats(
            seconds=self.seconds + other.seconds,
            nodes_created=self.nodes_created + other.nodes_created,
            nodes_live=max(self.nodes_live, other.nodes_live),
            gc_runs=self.gc_runs + other.gc_runs,
            gc_seconds=self.gc_seconds + other.gc_seconds,
            gc_freed=self.gc_freed + other.gc_freed,
            reorder_runs=self.reorder_runs + other.reorder_runs,
            cache_entries=max(self.cache_entries, other.cache_entries),
            peak_live_nodes=max(self.peak_live_nodes, other.peak_live_nodes),
        )

    def format(self) -> str:
        """Render in the paper's "<nodes>k - <seconds>s" style."""
        if self.nodes_created >= 1000:
            nodes = f"{self.nodes_created / 1000:.0f}k"
        else:
            nodes = str(self.nodes_created)
        return f"{nodes} - {self.seconds:.2f}s"


class WorkMeter:
    """Context manager measuring time and node allocation on a manager.

    >>> from repro.bdd import BDDManager
    >>> manager = BDDManager(["x"])
    >>> with WorkMeter(manager) as meter:
    ...     _ = manager.var("x")
    >>> meter.stats.nodes_created
    1
    >>> meter.stats.gc_runs
    0
    """

    def __init__(self, manager: BDDManager):
        self.manager = manager
        self.stats: Optional[WorkStats] = None
        self._t0 = 0.0
        self._snap0: Optional[Dict[str, float]] = None

    def __enter__(self) -> "WorkMeter":
        self._t0 = time.perf_counter()
        self._snap0 = self.manager.resource_stats()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self.manager.resource_stats()
        start = self._snap0
        self.stats = WorkStats(
            seconds=time.perf_counter() - self._t0,
            nodes_created=end["nodes_created"] - start["nodes_created"],
            nodes_live=end["nodes_live"],
            gc_runs=end["gc_runs"] - start["gc_runs"],
            gc_seconds=end["gc_seconds"] - start["gc_seconds"],
            gc_freed=end["gc_freed"] - start["gc_freed"],
            reorder_runs=end["reorder_runs"] - start["reorder_runs"],
            cache_entries=end["cache_entries"],
            peak_live_nodes=end["peak_live_nodes"],
        )
