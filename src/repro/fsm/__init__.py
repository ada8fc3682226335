"""FSM substrate: circuit builder, symbolic Kripke structure, explicit models."""

from .._lazy import lazy_exports
from .builder import CircuitBuilder
from .fsm import FSM, NEXT_SUFFIX
from .partition import (
    TRANS_MODES,
    TRANS_MONO,
    TRANS_PARTITIONED,
    Schedule,
    ScheduleStep,
    TransitionPartition,
    early_quantification_schedule,
)

# The explicit-state models are test oracles; the symbolic engine never
# needs them, so they load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    name: "explicit"
    for name in ("ExplicitGraph", "ExplicitModel", "enumerate_model")
})

__all__ = [
    "FSM",
    "NEXT_SUFFIX",
    "CircuitBuilder",
    "ExplicitGraph",
    "ExplicitModel",
    "enumerate_model",
    "TRANS_MODES",
    "TRANS_MONO",
    "TRANS_PARTITIONED",
    "Schedule",
    "ScheduleStep",
    "TransitionPartition",
    "early_quantification_schedule",
]
