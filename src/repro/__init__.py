"""repro — Coverage estimation for symbolic model checking.

A from-scratch reproduction of Hoskote, Kam, Ho & Zhao, *"Coverage Estimation
for Symbolic Model Checking"* (DAC 1999): a BDD engine, a symbolic CTL model
checker, and the paper's state-based coverage metric for ACTL properties with
respect to an observed signal, together with the paper's three evaluation
circuits.

Quickstart::

    from repro import Analysis

    analysis = Analysis.builtin("counter")
    assert analysis.holds()
    print(analysis.coverage().summary())
"""

from ._version import __version__  # noqa: F401  (re-export; see __all__)

#: Public name -> the module (under ``repro``) that defines it.  Looking a
#: name up imports that module alone, so ``repro.Analysis`` costs what
#: ``import repro.analysis`` costs, not the whole API; ``repro._api`` is the
#: same surface imported eagerly.
_EXPORTS = {
    # facade + engine configuration
    "Analysis": "analysis", "AnalysisResult": "analysis",
    "EngineConfig": "engine", "DEFAULT_CONFIG": "engine",
    # bdd
    "BDDManager": "bdd.manager", "Function": "bdd.function",
    "ResourcePolicy": "bdd.policy", "to_dot": "bdd.dot", "sift": "bdd.reorder",
    "set_order": "bdd.reorder", "swap_adjacent": "bdd.reorder",
    # expr / ctl
    "Expr": "expr.ast", "parse_expr": "expr.parser",
    "expr_to_str": "expr.printer", "evaluate": "expr.evaluator",
    "CtlFormula": "ctl.ast", "parse_ctl": "ctl.parser",
    "ctl_to_str": "ctl.printer", "normalize_for_coverage": "ctl.actl",
    "observability_transform": "ctl.transform",
    # fsm
    "FSM": "fsm.fsm", "CircuitBuilder": "fsm.builder",
    "ExplicitGraph": "fsm.explicit", "ExplicitModel": "fsm.explicit",
    "enumerate_model": "fsm.explicit",
    # mc
    "ModelChecker": "mc.checker", "CheckResult": "mc.checker",
    "ExplicitModelChecker": "mc.explicit_checker",
    "WorkMeter": "mc.stats", "WorkStats": "mc.stats",
    "format_trace": "mc.witness", "input_sequence": "mc.witness",
    # obs (telemetry + bench)
    "Telemetry": "obs.telemetry", "Span": "obs.telemetry",
    "NULL_TELEMETRY": "obs.telemetry", "format_profile": "obs.telemetry",
    "chrome_trace_events": "obs.trace", "write_chrome_trace": "obs.trace",
    "BENCH_WORKLOADS": "obs.bench", "BenchWorkload": "obs.bench",
    "BenchResult": "obs.bench",
    "run_bench": "obs.bench", "run_workload": "obs.bench",
    "write_baseline": "obs.bench", "compare_result": "obs.bench",
    # coverage
    "CoverageEstimator": "coverage.estimator",
    "CoverageReport": "coverage.report", "PropertyCoverage": "coverage.report",
    "depend": "coverage.functions", "traverse": "coverage.functions",
    "firstreached": "coverage.functions",
    "mutation_covered": "coverage.mutation",
    "mutation_covered_raw": "coverage.mutation",
    "trace_to_uncovered": "coverage.traces",
    "format_uncovered_traces": "coverage.traces",
    # circuits
    "build_counter": "circuits.counter",
    "counter_properties": "circuits.counter",
    "counter_partial_properties": "circuits.counter",
    "build_priority_buffer": "circuits.priority_buffer",
    "priority_buffer_hi_properties": "circuits.priority_buffer",
    "priority_buffer_lo_properties": "circuits.priority_buffer",
    "priority_buffer_lo_hole_property": "circuits.priority_buffer",
    "priority_buffer_lo_augmented_properties": "circuits.priority_buffer",
    "DEFAULT_CAPACITY": "circuits.priority_buffer",
    "build_circular_queue": "circuits.circular_queue",
    "circular_queue_wrap_properties": "circuits.circular_queue",
    "circular_queue_wrap_stall_property": "circuits.circular_queue",
    "circular_queue_full_properties": "circuits.circular_queue",
    "circular_queue_empty_properties": "circuits.circular_queue",
    "DEFAULT_DEPTH": "circuits.circular_queue",
    "build_pipeline": "circuits.pipeline",
    "pipeline_output_properties": "circuits.pipeline",
    "pipeline_retention_properties": "circuits.pipeline",
    "pipeline_augmented_properties": "circuits.pipeline",
    "HOLD_CYCLES": "circuits.pipeline",
    "figure1_graph": "circuits.toy", "figure2_graph": "circuits.toy",
    "figure3_graph": "circuits.toy",
    "FIGURE1_FORMULA": "circuits.toy", "FIGURE2_FORMULA": "circuits.toy",
    "FIGURE3_FORMULA": "circuits.toy",
    # lang
    "Module": "lang.ast", "ElaboratedModel": "lang.elaborate",
    "parse_module": "lang.parser", "load_module": "lang.parser",
    "elaborate": "lang.elaborate", "module_to_str": "lang.printer",
    # gen (random scenarios + differential oracle)
    "GenParams": "gen.model", "GeneratedModel": "gen.model",
    "generate": "gen.model", "random_module": "gen.model",
    "random_expr": "gen.model", "random_actl": "gen.model",
    "random_ctl": "gen.model", "random_graph": "gen.model",
    "check_module": "gen.oracle", "Disagreement": "gen.oracle",
    "shrink_module": "gen.shrink", "run_fuzz": "gen.fuzz",
    "FuzzResult": "gen.fuzz",
    # suite
    "CoverageJob": "suite.jobs", "JobResult": "suite.jobs",
    "BuiltinTarget": "suite.registry", "BUILTIN_TARGETS": "suite.registry",
    "build_builtin": "suite.registry", "builtin_jobs": "suite.registry",
    "default_jobs": "suite.registry", "discover_rml": "suite.registry",
    "rml_job": "suite.registry", "execute_job": "suite.runner",
    "run_jobs": "suite.runner", "run_jobs_sharded": "suite.runner",
    "run_jobs_via_server": "suite.runner", "run_sharded": "suite.shards",
    "ShardStats": "suite.shards",
    "suite_report": "suite.runner", "write_report": "suite.runner",
    "read_report": "suite.runner",
    # serve (coverage-as-a-service)
    "AnalysisServer": "serve.server", "ServeOptions": "serve.server",
    "ServeClient": "serve.client", "ResultCache": "serve.cache",
    "run_server": "serve.server", "model_key": "serve.keys",
    "request_key": "serve.keys",
    # errors
    "ReproError": "errors", "BDDError": "errors", "ParseError": "errors",
    "EvaluationError": "errors", "ModelError": "errors",
    "NotInSubsetError": "errors", "VerificationError": "errors",
    "CoverageError": "errors", "ConfigError": "errors",
    "ReportError": "errors", "ServeError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    """Lazily re-export the public API to keep import time low."""
    try:
        owner = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    from importlib import import_module

    attr = getattr(import_module(f"repro.{owner}"), name)
    globals()[name] = attr
    return attr


def __dir__():
    return sorted(set(globals()) | set(__all__))
