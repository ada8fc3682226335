"""The differential oracle: one scenario, every engine, identical answers.

A coverage number is only as trustworthy as the engine that produced it.
This module runs one generated (model, property-suite) scenario through
every independent implementation the library carries and demands that all
of them agree *byte for byte* on everything a user can observe:

``mono``
    The symbolic pipeline with a monolithic transition relation, compared
    against the partitioned default.  Identical verdicts, coverage sets,
    counterexamples, and uncovered-trace renderings.
``gc``
    The symbolic pipeline under the most aggressive resource policy the
    config can express (collect at every safe point, tiny op caches).
    Resource management must be invisible in results.
``explicit``
    The explicit-state oracle: the model is enumerated into an adjacency
    list and checked with :class:`~repro.mc.ExplicitModelChecker` (pure
    Python sets, no BDDs anywhere).  Verdicts and the reachable-state
    count must match; on small fairness-free models the Definition-3
    mutation oracle re-derives every property's covered set state by
    state and compares it against the symbolic Table-1 recursion.
``backend``
    The symbolic pipeline on the ``array`` BDD backend (struct-of-arrays
    node store, open-addressed tables), compared against the default
    ``dict`` backend.  Node storage must be invisible in results.
``roundtrip``
    The language round trip: printing and re-parsing the module must be
    the identity, and the reprint must reproduce the text — otherwise a
    reproducer file would not denote the failing scenario.
``lint``
    The static analyzer (:mod:`repro.lint`): linting a generated model
    must never raise, must report the same diagnostic codes for the
    module text and its printer round trip (lint-cleanliness survives
    reformatting), and must report zero *error*-severity findings for
    any module the elaborator accepted — an error-severity lint finding
    on a working model is a linter false positive by definition.

:func:`check_module` returns ``None`` on full agreement or the first
:class:`Disagreement`, which carries enough context (axis, field,
expected/actual renderings) to drive the shrinker and the fuzz report.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from .._node import record
from ..analysis import Analysis
from ..coverage.mutation import mutation_covered
from ..engine import EngineConfig
from ..errors import ReproError
from ..fsm.explicit import enumerate_model
from ..lang.ast import Module
from ..lang.parser import parse_module
from ..lang.printer import module_to_str
from ..mc.explicit_checker import ExplicitModelChecker
from ..mc.witness import format_trace

__all__ = [
    "AXIS_MONO",
    "AXIS_GC",
    "AXIS_BACKEND",
    "AXIS_EXPLICIT",
    "AXIS_ROUNDTRIP",
    "AXIS_LINT",
    "DEFAULT_AXES",
    "AXIS_CONFIGS",
    "COST_FIELDS",
    "Disagreement",
    "comparable_result",
    "check_module",
    "validate_axes",
]

AXIS_MONO = "mono"
AXIS_GC = "gc"
AXIS_BACKEND = "backend"
AXIS_EXPLICIT = "explicit"
AXIS_ROUNDTRIP = "roundtrip"
AXIS_LINT = "lint"

#: Every axis, in checking order (cheap symbolic re-runs first).
DEFAULT_AXES: Tuple[str, ...] = (
    AXIS_MONO, AXIS_GC, AXIS_BACKEND, AXIS_EXPLICIT, AXIS_ROUNDTRIP,
    AXIS_LINT,
)

#: The engine configuration each symbolic axis re-runs under.  The
#: reference run uses the default config (partitioned, default policy,
#: dict backend).
AXIS_CONFIGS: Dict[str, EngineConfig] = {
    AXIS_MONO: EngineConfig(trans="mono"),
    AXIS_GC: EngineConfig(gc_threshold=1, gc_growth=1.0, cache_threshold=64),
    AXIS_BACKEND: EngineConfig(backend="array"),
}

#: Result fields that measure cost, not meaning — excluded from comparison
#: (two engines may of course spend different effort on the same answer).
COST_FIELDS = (
    "config", "seconds", "nodes_created", "gc_runs", "gc_seconds",
    "gc_freed", "reorder_runs", "cache_entries", "peak_live_nodes",
    "metrics",
)

#: Explicit-state enumeration cap; generated models are far below this.
_ENUM_LIMIT = 50_000

#: Mutation-oracle state cap: one full explicit model check per state per
#: property is the cost, so only small models run the Definition-3 pass.
MUTATION_STATE_CAP = 64


@record(frozen=True)
class Disagreement:
    """One observed divergence between engine configurations.

    ``axis`` names the diverging configuration; ``field`` the first
    observable that differed; ``expected``/``actual`` its rendering under
    the reference engine and the axis engine respectively.
    """

    axis: str
    field: str
    expected: str
    actual: str

    def describe(self) -> str:
        return (
            f"axis {self.axis!r} disagrees on {self.field}:\n"
            f"  reference: {self.expected}\n"
            f"  {self.axis:>9}: {self.actual}"
        )


def comparable_result(analysis: Analysis, traces: int = 3) -> Dict:
    """Everything observable about one analysis, as a plain dict.

    Cost counters are stripped; verdicts, counterexample renderings, the
    coverage numbers, and the uncovered-trace text are kept.  Two engine
    configurations are *correct* exactly when this dict is equal.
    """
    result = analysis.result()
    data = result.to_json()
    for field in COST_FIELDS:
        data.pop(field, None)
    checks = analysis.verify()
    data["verdicts"] = [[str(r.formula), bool(r.holds)] for r in checks]
    data["counterexamples"] = [
        format_trace(analysis.fsm, r.counterexample)
        if r.counterexample is not None
        else None
        for r in checks
    ]
    if result.status == "ok":
        data["uncovered_trace_text"] = analysis.uncovered_traces(traces)
    return data


def _run_axis(text: str, name: str, config: EngineConfig) -> Dict:
    """One full pipeline run; model-level errors become a comparable value
    (both engines erroring identically is agreement, not a crash)."""
    try:
        return comparable_result(
            Analysis.from_rml(text, config=config, filename=name)
        )
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _first_diff(reference: Dict, other: Dict) -> Tuple[str, str, str]:
    """The first (field, expected, actual) triple that differs."""
    for key in sorted(set(reference) | set(other)):
        lhs = reference.get(key, "<absent>")
        rhs = other.get(key, "<absent>")
        if lhs != rhs:
            return key, repr(lhs), repr(rhs)
    return "<none>", "<equal>", "<equal>"  # pragma: no cover - caller checks


def check_module(
    module: Module,
    text: Optional[str] = None,
    axes: Sequence[str] = DEFAULT_AXES,
    mutation_cap: int = MUTATION_STATE_CAP,
) -> Optional[Disagreement]:
    """Run the differential oracle on one module.

    Returns ``None`` when every requested axis agrees with the reference
    run (partitioned, default policy), or the first :class:`Disagreement`.
    Unknown axis names raise :class:`~repro.errors.ConfigError` via
    :func:`validate_axes`.
    """
    validate_axes(axes)
    if text is None:
        text = module_to_str(module)
    try:
        ref_analysis = Analysis.from_rml(
            text, config=EngineConfig(), filename=module.name
        )
        reference = comparable_result(ref_analysis)
    except ReproError as exc:
        # The generator guarantees well-formed modules, so a reference-run
        # failure is itself a finding (e.g. an engine mutation that breaks
        # the pipeline outright).
        return Disagreement(
            axis="reference",
            field="error",
            expected="a completed analysis",
            actual=f"{type(exc).__name__}: {exc}",
        )
    for axis in axes:
        if axis in AXIS_CONFIGS:
            got = _run_axis(text, module.name, AXIS_CONFIGS[axis])
            if got != reference:
                field, expected, actual = _first_diff(reference, got)
                return Disagreement(axis, field, expected, actual)
    if AXIS_ROUNDTRIP in axes:
        disagreement = _check_roundtrip(module, text)
        if disagreement is not None:
            return disagreement
    if AXIS_LINT in axes:
        disagreement = _check_lint(module, text)
        if disagreement is not None:
            return disagreement
    if AXIS_EXPLICIT in axes:
        disagreement = _check_explicit(
            module, ref_analysis, reference, mutation_cap
        )
        if disagreement is not None:
            return disagreement
    return None


def validate_axes(axes: Sequence[str]) -> Tuple[str, ...]:
    """Validate axis names (raises ``ConfigError`` listing valid ones)."""
    from ..errors import ConfigError

    valid = set(DEFAULT_AXES)
    unknown = [a for a in axes if a not in valid]
    if unknown:
        raise ConfigError(
            f"unknown oracle axis(es): {', '.join(unknown)} "
            f"(valid: {', '.join(DEFAULT_AXES)})"
        )
    if not axes:
        raise ConfigError("at least one oracle axis is required")
    return tuple(axes)


def _check_roundtrip(module: Module, text: str) -> Optional[Disagreement]:
    """print -> parse must be the identity on canonical modules."""
    try:
        reparsed = parse_module(text, filename=module.name)
    except ReproError as exc:
        return Disagreement(
            AXIS_ROUNDTRIP, "parse", "the module text parses",
            f"{type(exc).__name__}: {exc}",
        )
    if reparsed != module:
        return Disagreement(
            AXIS_ROUNDTRIP, "module", "parse(print(m)) == m",
            "re-parsed module differs structurally",
        )
    reprint = module_to_str(reparsed)
    if reprint != text:
        return Disagreement(
            AXIS_ROUNDTRIP, "text", "print(parse(t)) == t",
            "re-printed text differs",
        )
    return None


def _check_lint(module: Module, text: str) -> Optional[Disagreement]:
    """The static analyzer's three fuzz invariants (see module docs)."""
    from ..lint import lint_source

    try:
        report = lint_source(text, filename=module.name)
    except Exception as exc:  # lint must never raise, even on garbage
        return Disagreement(
            AXIS_LINT, "crash", "a lint report",
            f"{type(exc).__name__}: {exc}",
        )
    # The reference pipeline already elaborated this module successfully,
    # so every error-severity finding would be a false positive.
    errors = [d for d in report.diagnostics if d.severity.name == "ERROR"]
    if errors:
        return Disagreement(
            AXIS_LINT, "errors",
            "no error-severity findings on an elaborated model",
            "; ".join(d.format() for d in errors),
        )
    printed = module_to_str(module)
    try:
        reprinted = lint_source(printed, filename=module.name)
    except Exception as exc:
        return Disagreement(
            AXIS_LINT, "roundtrip-crash", "a lint report",
            f"{type(exc).__name__}: {exc}",
        )
    if report.codes() != reprinted.codes():
        return Disagreement(
            AXIS_LINT, "codes",
            repr(list(report.codes())),
            repr(list(reprinted.codes())),
        )
    return None


def _check_explicit(
    module: Module,
    analysis: Analysis,
    reference: Dict,
    mutation_cap: int,
) -> Optional[Disagreement]:
    """Explicit-state enumeration vs the symbolic reference run."""
    fsm = analysis.fsm
    model = enumerate_model(fsm, limit=_ENUM_LIMIT)
    fairness_exprs = [f.expr for f in module.fairness]
    checker = ExplicitModelChecker(model, fairness=fairness_exprs)

    # 1. Per-property verdicts.
    for check in analysis.verify():
        explicit_holds = checker.holds(check.formula)
        if explicit_holds != check.holds:
            return Disagreement(
                AXIS_EXPLICIT,
                f"verdict[{check.formula}]",
                str(bool(check.holds)),
                str(explicit_holds),
            )

    # 2. Reachable-state count (enumeration only visits reachable states).
    symbolic_reach = fsm.count_states(fsm.reachable())
    if symbolic_reach != model.n:
        return Disagreement(
            AXIS_EXPLICIT, "reachable_states",
            str(symbolic_reach), str(model.n),
        )

    # 3. Definition-3 mutation coverage, state by state, against the
    #    symbolic Table-1 recursion (the Correctness Theorem, checked on
    #    this very scenario).  Only on small, fairness-free, don't-care-free
    #    models: the oracle costs one model check per state per property.
    if (
        reference.get("status") == "ok"
        and not fairness_exprs
        and module.dont_care is None
        and model.n <= mutation_cap
    ):
        key_to_index = {
            tuple(
                bool(model.signal_values[i][v]) for v in fsm.state_vars
            ): i
            for i in range(model.n)
        }
        for check in analysis.verify():
            symbolic = analysis.estimator.covered_set(
                check.formula, analysis.observed
            )
            symbolic_indices = set()
            for state in fsm.iter_states(symbolic):
                key = tuple(bool(state[v]) for v in fsm.state_vars)
                index = key_to_index.get(key)
                if index is None:
                    return Disagreement(
                        AXIS_EXPLICIT,
                        f"covered[{check.formula}]",
                        "covered states are reachable",
                        f"unreachable covered state {fsm.format_state(state)}",
                    )
                symbolic_indices.add(index)
            mutated = mutation_covered(
                model, check.formula, analysis.observed
            )
            if symbolic_indices != mutated:
                return Disagreement(
                    AXIS_EXPLICIT,
                    f"covered[{check.formula}]",
                    f"symbolic covered set {sorted(symbolic_indices)}",
                    f"mutation covered set {sorted(mutated)}",
                )
    return None
