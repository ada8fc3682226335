"""Resource-management policy for the BDD engine.

A :class:`ResourcePolicy` bundles the knobs of the manager's automatic
resource manager: when to garbage-collect, when to drop operation caches,
how aggressively to evict the compose cache, and whether to trigger
dynamic variable reordering.  The policy travels with the
:class:`~repro.bdd.manager.BDDManager` and is consulted only at *safe
points* — moments when every live BDD is rooted in a
:class:`~repro.bdd.function.Function` wrapper and no raw-node computation
is in flight (see :meth:`~repro.bdd.manager.BDDManager.checkpoint`).

The thresholds use *live node counts* (allocated minus recycled slots),
the quantity that actually bounds memory.  Triggers grow after each
collection (``gc_growth``) so a working set that legitimately exceeds the
threshold does not degenerate into a GC per operation — the classic CUDD
behaviour.  Setting ``gc_growth`` to ``1.0`` pins the trigger at the live
size, which forces a collection at *every* safe point; the GC-safety
stress suite runs entire coverage workloads that way.
"""

from __future__ import annotations

from .._node import record, replace

__all__ = ["ResourcePolicy", "DEFAULT_POLICY"]


@record(frozen=True)
class ResourcePolicy:
    """Thresholds and switches of the automatic resource manager.

    Attributes
    ----------
    gc_node_threshold:
        Run a mark-and-sweep collection at the next safe point once the
        live node count reaches this value.  ``0`` disables automatic GC
        entirely (explicit :meth:`~repro.bdd.manager.BDDManager.collect_garbage`
        calls still work).
    gc_growth:
        After an automatic collection the trigger becomes
        ``max(gc_node_threshold, live * gc_growth)``, so a design whose
        live set outgrows the threshold is collected at a geometric rhythm
        instead of every operation.  ``1.0`` forces GC at every safe point.
    cache_entry_threshold:
        Drop all operation caches (without a full GC) once their combined
        entry count reaches this value.  ``0`` disables the cache cap.
    compose_generations:
        The compose cache is keyed by a per-substitution token, so entries
        from finished ``compose_many`` calls can never be hit again; the
        cache is purged after this many substitution generations.  Must be
        at least 1.
    auto_reorder:
        Opt-in hook: sift the variable order at a safe point once the live
        node count reaches ``reorder_node_threshold``.  Off by default —
        reordering changes BDD shapes, hence cube enumeration order, and
        therefore the rendering of traces.
    reorder_node_threshold:
        Live-node trigger for the auto-sift hook.
    reorder_growth:
        Multiplier applied to the reorder trigger after each automatic
        sift (sifting is far too expensive to run at a fixed threshold).
    reorder_max_vars:
        Automatic sifts move only this many variables (the most populated
        ones) per invocation — a full Rudell pass is O(vars² · live) and
        would stall wide managers for minutes; the heaviest few variables
        capture most of the reduction.  ``0`` means sift every variable.
    """

    gc_node_threshold: int = 250_000
    gc_growth: float = 2.0
    cache_entry_threshold: int = 1_000_000
    compose_generations: int = 8
    auto_reorder: bool = False
    reorder_node_threshold: int = 100_000
    reorder_growth: float = 2.0
    reorder_max_vars: int = 12

    def __post_init__(self) -> None:
        if self.gc_node_threshold < 0:
            raise ValueError("gc_node_threshold must be >= 0")
        if self.gc_growth < 1.0:
            raise ValueError("gc_growth must be >= 1.0")
        if self.cache_entry_threshold < 0:
            raise ValueError("cache_entry_threshold must be >= 0")
        if self.compose_generations < 1:
            raise ValueError("compose_generations must be >= 1")
        if self.reorder_node_threshold < 1:
            raise ValueError("reorder_node_threshold must be >= 1")
        if self.reorder_growth < 1.0:
            raise ValueError("reorder_growth must be >= 1.0")
        if self.reorder_max_vars < 0:
            raise ValueError("reorder_max_vars must be >= 0")

    @property
    def gc_enabled(self) -> bool:
        """Whether automatic garbage collection is active."""
        return self.gc_node_threshold > 0

    @classmethod
    def aggressive(cls) -> "ResourcePolicy":
        """Force a collection at every safe point (GC-safety stress mode)."""
        return cls(gc_node_threshold=1, gc_growth=1.0)

    @classmethod
    def disabled(cls) -> "ResourcePolicy":
        """No automatic GC, no cache cap (the pre-policy engine behaviour)."""
        return cls(gc_node_threshold=0, cache_entry_threshold=0)

    def with_(self, **changes) -> "ResourcePolicy":
        """A copy with the given fields replaced (a readable ``replace``)."""
        return replace(self, **changes)


#: The policy a manager gets when none is supplied: auto-GC on with a
#: generous threshold, auto-reorder off.
DEFAULT_POLICY = ResourcePolicy()
