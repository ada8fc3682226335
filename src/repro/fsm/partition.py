"""Partitioned transition relations with early quantification.

The classic scaling move of symbolic model checking (Burch/Clarke/Long):
instead of one monolithic transition BDD ``TM = T1 & T2 & ... & Tk`` (one
conjunct per latch), keep the conjuncts separate and compute images as a
*scheduled* chain of relational products::

    image(S) = exists V . (S & T1 & ... & Tk)
             = exists Q_k . (... exists Q_1 . (S & T_{o1}) ... & T_{ok})

where ``o`` orders the conjuncts and ``Q_i`` quantifies out every variable
whose last occurrence is at step ``i`` — *early quantification*.  The
monolithic relation (often the biggest BDD of the whole run) is never
built, and intermediate products stay small because variables leave the
computation as soon as they legally can.

Two pieces live here:

* :func:`early_quantification_schedule` — given the support of each
  conjunct and the set of variables to quantify, choose a conjunct order
  (greedy minimum-active-lifetime heuristic) and place each variable at
  its earliest legal step.
* :class:`TransitionPartition` — the list of per-latch conjuncts an FSM
  carries in partitioned mode, with schedules cached per quantification
  set.  :meth:`TransitionPartition.relprod` executes the chain via
  :meth:`repro.bdd.manager.BDDManager.and_exists_chain`.

A schedule step that quantifies nothing only grows the product, which the
next step then walks again.  ``relprod`` therefore runs a *merged* chain:
each such step is conjoined into the step after it, as long as the merged
relation stays no larger than the conjuncts it replaces
(:meth:`TransitionPartition.merged_steps`).

An FSM runs its forward images through the partition.  Its preimages go
by substitution of the next-state functions instead
(:meth:`repro.fsm.fsm.FSM.preimage`).

Schedules are expressed in *variable ids* (stable across dynamic
reordering), so a partition built once stays valid after sifting.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .._node import record
from ..bdd import Function
from ..errors import ModelError

__all__ = [
    "TRANS_MONO",
    "TRANS_PARTITIONED",
    "TRANS_MODES",
    "ScheduleStep",
    "Schedule",
    "MergedStep",
    "early_quantification_schedule",
    "TransitionPartition",
]

#: Execute images through the monolithic transition relation.
TRANS_MONO = "mono"
#: Execute images through the scheduled conjunct chain (the default).
TRANS_PARTITIONED = "partitioned"
#: The valid transition-relation execution modes.
TRANS_MODES = (TRANS_MONO, TRANS_PARTITIONED)


def validate_trans_mode(trans: str) -> str:
    """Return ``trans`` if it names a valid mode, else raise ``ModelError``.

    >>> validate_trans_mode("mono")
    'mono'
    """
    if trans not in TRANS_MODES:
        raise ModelError(
            f"unknown transition mode {trans!r}; valid: {', '.join(TRANS_MODES)}"
        )
    return trans


@record(frozen=True)
class ScheduleStep:
    """One step of an early-quantification schedule.

    ``conjunct`` indexes the partition's conjunct list; ``quantify`` is the
    tuple of variable ids quantified out right after this conjunct is
    conjoined (its variables occur in no later conjunct).
    """

    conjunct: int
    quantify: Tuple[int, ...]


@record(frozen=True)
class Schedule:
    """A complete schedule for one quantification variable set.

    ``prequantify`` are variables to existentially quantify out of the
    *state set* before the chain starts — variables mentioned by no
    conjunct at all (for preimages these are the next-state copies of free
    inputs, which is exactly why preimages profit most from partitioning).
    ``steps`` then runs the conjuncts in scheduled order.
    """

    prequantify: Tuple[int, ...]
    steps: Tuple[ScheduleStep, ...]

    def quantified_vars(self) -> FrozenSet[int]:
        """Every variable the schedule quantifies (for validity checks)."""
        out = set(self.prequantify)
        for step in self.steps:
            out.update(step.quantify)
        return frozenset(out)


@record(frozen=True)
class MergedStep:
    """One step of the chain :meth:`TransitionPartition.relprod` runs.

    ``relation`` is the conjunction of the conjuncts listed in ``members``
    (indices, in schedule order); ``quantify`` is what the last member's
    schedule step quantifies — every earlier member's step quantified
    nothing.
    """

    members: Tuple[int, ...]
    relation: Function
    quantify: Tuple[int, ...]


def _order_conjuncts(
    supports: Sequence[FrozenSet[int]], quantify: FrozenSet[int]
) -> List[int]:
    """Greedy conjunct order minimising the live quantified-variable set.

    At each step pick the conjunct that retires the most quantified
    variables (variables occurring in no other remaining conjunct) while
    introducing the fewest new ones; ties break toward smaller support and
    then the original index, keeping the order deterministic.
    """
    remaining = list(range(len(supports)))
    # How many *remaining* conjuncts mention each quantified variable.
    mentions: Dict[int, int] = {}
    for support in supports:
        for var in support & quantify:
            mentions[var] = mentions.get(var, 0) + 1
    active: set = set()
    order: List[int] = []
    while remaining:
        best = None
        best_key = None
        for index in remaining:
            qvars = supports[index] & quantify
            freed = sum(1 for v in qvars if mentions[v] == 1)
            introduced = sum(
                1 for v in qvars if v not in active and mentions[v] > 1
            )
            # Maximise freed, minimise introduced (lexicographic), then the
            # deterministic tie-breakers.
            key = (-freed, introduced, len(supports[index]), index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        order.append(best)
        remaining.remove(best)
        for var in supports[best] & quantify:
            mentions[var] -= 1
            if mentions[var] == 0:
                active.discard(var)
            else:
                active.add(var)
    return order


def early_quantification_schedule(
    supports: Sequence[FrozenSet[int]], quantify: Sequence[int]
) -> Schedule:
    """Compute an early-quantification schedule.

    Parameters
    ----------
    supports:
        Per-conjunct support sets (variable ids).
    quantify:
        The variable ids to quantify out of the overall product.

    Returns a :class:`Schedule` in which every quantified variable appears
    exactly once, placed at the *earliest legal* position: variables no
    conjunct mentions go to ``prequantify``; every other variable is
    quantified at the last scheduled conjunct that mentions it (any earlier
    would change the result, any later would keep it alive needlessly).
    """
    quantify_set = frozenset(quantify)
    order = _order_conjuncts(supports, quantify_set)
    last_step: Dict[int, int] = {}
    for step, index in enumerate(order):
        for var in supports[index] & quantify_set:
            last_step[var] = step
    prequantify = tuple(sorted(quantify_set - set(last_step)))
    groups: List[List[int]] = [[] for _ in order]
    for var, step in last_step.items():
        groups[step].append(var)
    steps = tuple(
        ScheduleStep(conjunct=index, quantify=tuple(sorted(group)))
        for index, group in zip(order, groups)
    )
    return Schedule(prequantify=prequantify, steps=steps)


class TransitionPartition:
    """A conjunctively partitioned transition relation.

    Holds one relation conjunct per latch (``latch#next <-> f(current)``
    for functional circuits, but any conjunction of relations works) and
    lazily computes/caches an early-quantification schedule, and its
    merged chain, per distinct quantification variable set (in practice
    one, for images: preimages go by substitution).

    Parameters
    ----------
    conjuncts:
        The relation conjuncts, all owned by the same manager.
    labels:
        Optional human-readable name per conjunct (the latch name), used in
        diagnostics and the performance docs.
    """

    def __init__(
        self,
        conjuncts: Sequence[Function],
        labels: Optional[Sequence[str]] = None,
    ):
        if not conjuncts:
            raise ModelError("a transition partition needs at least one conjunct")
        self.conjuncts: List[Function] = list(conjuncts)
        manager = self.conjuncts[0].manager
        for conjunct in self.conjuncts:
            if conjunct.manager is not manager:
                raise ModelError("partition conjuncts span multiple managers")
        self.manager = manager
        if labels is not None and len(labels) != len(self.conjuncts):
            raise ModelError(
                f"{len(labels)} labels for {len(self.conjuncts)} conjuncts"
            )
        self.labels: List[str] = (
            list(labels)
            if labels is not None
            else [f"t{i}" for i in range(len(self.conjuncts))]
        )
        self._supports: List[FrozenSet[int]] = [
            frozenset(conjunct.support()) for conjunct in self.conjuncts
        ]
        self._schedules: Dict[FrozenSet[int], Schedule] = {}
        self._merged: Dict[FrozenSet[int], Tuple[MergedStep, ...]] = {}
        self._mono: Optional[Function] = None

    def __len__(self) -> int:
        return len(self.conjuncts)

    def supports(self) -> List[FrozenSet[int]]:
        """Per-conjunct support sets (variable ids), in conjunct order."""
        return list(self._supports)

    def schedule(self, quantify: Sequence[int]) -> Schedule:
        """The (cached) early-quantification schedule for ``quantify``."""
        key = frozenset(quantify)
        cached = self._schedules.get(key)
        if cached is None:
            cached = early_quantification_schedule(self._supports, key)
            self._schedules[key] = cached
        return cached

    def merged_steps(self, quantify: Sequence[int]) -> Tuple[MergedStep, ...]:
        """The schedule for ``quantify`` with empty steps merged (cached).

        A step that quantifies nothing is conjoined into the step after it:
        ``exists Q . ((acc & Ti) & Tj) = exists Q . (acc & (Ti & Tj))``.  A
        merge is kept only while the merged relation has no more nodes than
        its members have together, so no merged step is larger than the
        conjuncts it stands for; a merge that would grow is not made, and
        the next merge starts from the rejected conjunct.
        """
        key = frozenset(quantify)
        cached = self._merged.get(key)
        if cached is not None:
            return cached
        steps: List[MergedStep] = []
        members: Tuple[int, ...] = ()
        relation: Optional[Function] = None
        members_size = 0
        for step in self.schedule(key).steps:
            conjunct = self.conjuncts[step.conjunct]
            size = conjunct.size()
            merged = relation & conjunct if relation is not None else None
            if merged is not None and merged.size() <= members_size + size:
                members += (step.conjunct,)
                relation, members_size = merged, members_size + size
            else:
                if relation is not None:
                    steps.append(MergedStep(members, relation, ()))
                members, relation, members_size = (step.conjunct,), conjunct, size
            if step.quantify:
                steps.append(MergedStep(members, relation, step.quantify))
                relation = None
        if relation is not None:
            steps.append(MergedStep(members, relation, ()))
        cached = self._merged[key] = tuple(steps)
        return cached

    def relprod(self, states: Function, quantify: Sequence[int]) -> Function:
        """``exists quantify . (states & T1 & ... & Tk)`` via the schedule.

        The workhorse behind partitioned :meth:`repro.fsm.fsm.FSM.image`.
        Runs the merged chain of :meth:`merged_steps`.
        """
        schedule = self.schedule(quantify)
        if schedule.prequantify:
            states = states.exist(schedule.prequantify)
        return states.and_exists_chain(
            [(step.relation, step.quantify) for step in self.merged_steps(quantify)]
        )

    def monolithic(self) -> Function:
        """The conjunction of all conjuncts (cached).

        Building this is exactly the cost partitioning avoids; it exists
        for mono-mode execution, cross-checks, and size diagnostics.
        """
        if self._mono is None:
            out = Function.true(self.manager)
            for conjunct in self.conjuncts:
                out = out & conjunct
            self._mono = out
        return self._mono

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = sum(c.size() for c in self.conjuncts)
        return (
            f"<TransitionPartition conjuncts={len(self.conjuncts)} "
            f"total_nodes={sizes}>"
        )
