"""Model checking: symbolic CTL checker, explicit oracle, stats, witnesses."""

from .._lazy import lazy_exports
from .checker import CheckResult, ModelChecker
from .stats import WorkMeter, WorkStats
from .witness import format_trace, input_sequence

# The explicit checker is a test oracle; it loads on first use.
__getattr__, __dir__ = lazy_exports(
    __name__, {"ExplicitModelChecker": "explicit_checker"}
)

__all__ = [
    "ModelChecker",
    "CheckResult",
    "ExplicitModelChecker",
    "WorkMeter",
    "WorkStats",
    "format_trace",
    "input_sequence",
]
