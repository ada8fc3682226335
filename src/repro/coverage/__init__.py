"""Coverage estimation for symbolic model checking (the paper's contribution).

* :class:`CoverageEstimator` — the symbolic Table 1 algorithm.
* :class:`CoverageReport` / :class:`PropertyCoverage` — results.
* :func:`mutation_covered` — the Definition-3 dual-FSM oracle (ground truth).
* :func:`trace_to_uncovered` — methodology support (Section 4).
* :func:`depend`, :func:`traverse`, :func:`firstreached` — Table 1 set
  functions, exposed for tests and the Figure 3 bench.
"""

from .._lazy import lazy_exports
from .estimator import CoverageEstimator
from .functions import depend, firstreached, traverse
from .report import CoverageReport, PropertyCoverage
from .traces import format_uncovered_traces, trace_to_uncovered

# The Definition-3 mutation oracle is ground truth for tests; it loads on
# first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    name: "mutation"
    for name in ("mutation_covered", "mutation_covered_raw", "reachable_indices")
})

__all__ = [
    "CoverageEstimator",
    "CoverageReport",
    "PropertyCoverage",
    "depend",
    "traverse",
    "firstreached",
    "mutation_covered",
    "mutation_covered_raw",
    "reachable_indices",
    "trace_to_uncovered",
    "format_uncovered_traces",
]
