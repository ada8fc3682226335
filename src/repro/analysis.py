"""`Analysis` — the one front door to the paper's pipeline.

The paper's workflow is a single conceptual pipeline: build a model, verify
its properties, estimate coverage of the verified suite (Table 1), report
Table-2 style results.  This module is that pipeline as one object.  The
CLI's three subcommands, the suite runner's workers, and the benchmarks all
construct an :class:`Analysis` and drive the same methods — there is no
second code path to drift out of sync.

    >>> from repro.analysis import Analysis
    >>> a = Analysis.builtin("counter", stage="partial")
    >>> a.holds()
    True
    >>> round(a.coverage().percentage, 2)
    80.0

Constructors
------------
:meth:`Analysis.builtin`
    A registered paper circuit at a property stage (``counter``,
    ``queue-wrap`` ...), built inside this process.
:meth:`Analysis.from_rml`
    A ``.rml`` model file (path) or module text, parsed and elaborated.
:meth:`Analysis.from_fsm`
    An already-built FSM with explicit properties/observed signals — the
    hook for hand-constructed circuits and benchmarks.
:meth:`Analysis.from_job`
    A picklable :class:`~repro.suite.jobs.CoverageJob` description — what
    suite worker processes rebuild on their side of the fork.

Every constructor takes an :class:`~repro.engine.EngineConfig`; the config
travels into the FSM build (transition mode, resource policy) and back out
on the :class:`AnalysisResult`, so a recorded result always documents the
configuration that produced it.

The verification and estimation state (one shared
:class:`~repro.mc.ModelChecker`, one :class:`~repro.coverage.CoverageEstimator`)
is owned by the facade and created lazily; coverage estimation reuses the
checker's memoised satisfaction sets exactly as the paper's implementation
reused fixpoints from verification.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ._node import InitVar, field, fields, record
from .coverage import CoverageEstimator, CoverageReport, format_uncovered_traces
from .ctl.ast import CtlFormula
from .engine import EngineConfig, _warn_deprecated
from .errors import ModelError, ReportError, VerificationError
from .fsm.fsm import FSM
from .mc import CheckResult, ModelChecker, WorkMeter, WorkStats
from .obs.telemetry import Telemetry

__all__ = ["Analysis", "AnalysisResult"]

#: Analysis kinds (mirrored by the suite's job kinds).
KIND_BUILTIN = "builtin"
KIND_RML = "rml"
KIND_CUSTOM = "custom"


@record
class AnalysisResult:
    """JSON-safe outcome of one analysis — primitives only, so it survives
    both pickling back from a worker process and JSON serialisation.

    This absorbs the former ``repro.suite.JobResult`` (which remains as an
    alias): the per-job objects of the ``repro-coverage-suite/v2`` report
    are exactly ``AnalysisResult.to_json()`` documents, now including the
    :class:`~repro.engine.EngineConfig` the analysis ran under.

    ``status`` is ``"ok"`` (verified, coverage estimated), ``"fail"``
    (at least one property failed model checking — coverage undefined), or
    ``"error"`` (the analysis raised: parse error, bad observed signal, ...).
    """

    name: str
    kind: str
    status: str
    model: Optional[str] = None
    stage: Optional[str] = None
    path: Optional[str] = None
    config: EngineConfig = field(default_factory=EngineConfig)
    observed: List[str] = field(default_factory=list)
    properties: int = 0
    percentage: Optional[float] = None
    covered_states: Optional[int] = None
    space_states: Optional[int] = None
    uncovered_states: Optional[int] = None
    failing_properties: List[str] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0
    nodes_created: int = 0
    #: Garbage collections the BDD manager ran during the analysis.
    gc_runs: int = 0
    #: Wall-clock seconds spent inside those collections (GC overhead).
    gc_seconds: float = 0.0
    #: Node slots those collections recycled.
    gc_freed: int = 0
    #: Automatic reordering passes completed during the analysis.
    reorder_runs: int = 0
    #: Combined operation-cache entry count when the analysis ended.
    cache_entries: int = 0
    #: The manager's live-node high-water mark — the analysis' memory bound.
    peak_live_nodes: int = 0
    #: Telemetry emission (``repro-metrics/v1``): cumulative engine
    #: counters, plus phase spans/events at level ``"spans"``.  ``None``
    #: when telemetry is off — the JSON block is strictly additive.
    metrics: Optional[Dict] = None
    #: Static-analysis findings (``repro-lint/v1`` document) for analyses
    #: built from a module AST.  ``None`` for builtin/custom analyses —
    #: the JSON block is strictly additive, like ``metrics``.
    lint: Optional[Dict] = None
    #: Deprecated constructor keyword (the former flat ``JobResult.trans``
    #: field); folds into ``config`` with a warning.  Not a field.
    trans: InitVar[Optional[str]] = None

    def __post_init__(self, trans: Optional[str]) -> None:
        if trans is not None:
            _warn_deprecated(
                "AnalysisResult(trans=...) is deprecated; pass "
                "config=EngineConfig(trans=...) instead",
                stacklevel=3,
            )
            self.config = self.config.with_(trans=trans)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> Dict:
        """The per-job object of the suite JSON report (schema v2).

        The ``metrics`` key is additive: present only when the analysis
        ran with telemetry on, so v2 consumers are unaffected by default.
        """
        payload = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "model": self.model,
            "stage": self.stage,
            "path": self.path,
            "config": self.config.to_json(),
            "observed": list(self.observed),
            "properties": self.properties,
            "percentage": self.percentage,
            "covered_states": self.covered_states,
            "space_states": self.space_states,
            "uncovered_states": self.uncovered_states,
            "failing_properties": list(self.failing_properties),
            "error": self.error,
            "seconds": round(self.seconds, 6),
            "nodes_created": self.nodes_created,
            "gc_runs": self.gc_runs,
            "gc_seconds": round(self.gc_seconds, 6),
            "gc_freed": self.gc_freed,
            "reorder_runs": self.reorder_runs,
            "cache_entries": self.cache_entries,
            "peak_live_nodes": self.peak_live_nodes,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.lint is not None:
            payload["lint"] = self.lint
        return payload

    @classmethod
    def from_json(cls, data: Dict) -> "AnalysisResult":
        """Revive a result from its :meth:`to_json` document — the
        decoding half of the wire format ``repro serve`` responses and
        suite report jobs share.

        Validating: unknown fields and missing identity fields raise
        :class:`~repro.errors.ReportError` (a misspelled key should fail
        loudly, not decode to a default).  Round-trips exactly::

            >>> r = AnalysisResult(name="demo", kind="builtin", status="ok")
            >>> AnalysisResult.from_json(r.to_json()) == r
            True
        """
        if not isinstance(data, dict):
            raise ReportError(
                f"AnalysisResult JSON must be an object, "
                f"got {type(data).__name__}"
            )
        payload = dict(data)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReportError(
                f"AnalysisResult JSON has unknown field(s): "
                f"{', '.join(unknown)}"
            )
        missing = [k for k in ("name", "kind", "status") if k not in payload]
        if missing:
            raise ReportError(
                f"AnalysisResult JSON lacks required field(s): "
                f"{', '.join(missing)}"
            )
        if "config" in payload:
            payload["config"] = EngineConfig.from_json(payload["config"])
        return cls(**payload)

    def format_line(self) -> str:
        """One human-readable summary line."""
        if self.status == "ok":
            detail = (
                f"{self.percentage:6.2f}%  "
                f"({self.covered_states}/{self.space_states} states, "
                f"{self.properties} properties, {self.seconds:.2f}s)"
            )
        elif self.status == "fail":
            detail = (
                f"FAIL    ({len(self.failing_properties)} of "
                f"{self.properties} properties fail verification)"
            )
        else:
            detail = f"ERROR   ({self.error})"
        return f"{self.name:24s} {detail}"


def _deprecated_result_trans(self) -> str:
    """Deprecated: read ``result.config.trans`` instead."""
    _warn_deprecated(
        "AnalysisResult.trans is deprecated; read result.config.trans",
        stacklevel=3,
    )
    return self.config.trans


#: Attached post-decoration: inside the class body the property object
#: would be mistaken for the ``trans`` InitVar's default.
AnalysisResult.trans = property(_deprecated_result_trans)


def _looks_like_path(source: Union[str, Path]) -> bool:
    """Whether ``from_rml``'s argument names a file rather than module text.

    Any :class:`~pathlib.Path`, and any newline-free string, is a path —
    real module text always spans lines, and treating a newline-free
    string as text would turn a mistyped file name into a baffling parse
    error instead of the honest ``FileNotFoundError``.
    """
    return isinstance(source, Path) or "\n" not in source


class Analysis:
    """One model + one property suite + one engine configuration.

    Construct via :meth:`builtin` / :meth:`from_rml` / :meth:`from_fsm` /
    :meth:`from_job`, then call:

    * :meth:`verify` — model-check every property (cached), returning the
      full :class:`~repro.mc.CheckResult` list (counterexamples included);
    * :meth:`coverage` — the :class:`~repro.coverage.CoverageReport` of the
      verified suite (raises :class:`~repro.errors.VerificationError` if
      any property fails — the paper's Definition 3 only covers satisfied
      properties);
    * :meth:`uncovered_traces` — rendered traces into the coverage holes;
    * :meth:`result` — the whole pipeline as one JSON-safe
      :class:`AnalysisResult`, work-metered, never raising for model-level
      failures (``status`` carries them instead).
    """

    def __init__(
        self,
        fsm: FSM,
        properties: Sequence[CtlFormula],
        observed: Union[str, Sequence[str]],
        dont_care=None,
        *,
        config: Optional[EngineConfig] = None,
        name: Optional[str] = None,
        kind: str = KIND_CUSTOM,
        stage: Optional[str] = None,
        path: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.fsm = fsm
        self.properties: List[CtlFormula] = list(properties)
        self.observed: List[str] = (
            [observed] if isinstance(observed, str) else list(observed)
        )
        self.dont_care = dont_care
        self.config = config if config is not None else EngineConfig()
        self.name = name if name is not None else fsm.name
        self.kind = kind
        self.stage = stage
        self.path = path
        #: The run's telemetry recorder (``NULL_TELEMETRY`` when the
        #: config's level is "off").  Constructors that record pre-build
        #: phases (parse, elaborate) pass theirs in; otherwise one is
        #: created from the config.  The FSM reports through it too.
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry.from_level(self.config.telemetry)
        )
        self.telemetry.attach(fsm.manager)
        self.fsm.telemetry = self.telemetry
        #: The parsed module AST for rml-built analyses (set by
        #: ``_from_module``); ``None`` for builtin/custom circuits, which
        #: have no source to lint.
        self.module = None
        #: The original ``.rml`` source text when construction had it —
        #: improves lint anchors and enables waiver pragmas.
        self.source_text: Optional[str] = None
        self._lint_report = None
        self._checker: Optional[ModelChecker] = None
        self._estimator: Optional[CoverageEstimator] = None
        self._check_results: Optional[List[CheckResult]] = None
        self._report: Optional[CoverageReport] = None
        #: Work accumulated across the pipeline phases, metered where the
        #: computation actually happens — result() reports the same
        #: numbers whether or not verify()/coverage() ran first.
        self._stats = WorkStats()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def builtin(
        cls,
        target: str,
        stage: Optional[str] = None,
        buggy: bool = False,
        config: Optional[EngineConfig] = None,
    ) -> "Analysis":
        """A registered paper circuit (see ``repro.suite.BUILTIN_TARGETS``).

        Raises :class:`ValueError` for an unknown target or a stage outside
        the target's stage list.
        """
        from .suite.registry import build_builtin

        config = config if config is not None else EngineConfig()
        telemetry = Telemetry.from_level(config.telemetry)
        with telemetry.span("build", target=target):
            fsm, props, observed, dont_care = build_builtin(
                target, stage=stage, buggy=buggy, config=config
            )
            # Attach before the span closes so the build phase's counter
            # delta captures the circuit construction (start = fresh
            # manager = all-zero).
            telemetry.attach(fsm.manager)
        suffix = f"@{stage}" if stage else ""
        return cls(
            fsm, props, observed, dont_care,
            config=config, name=f"{target}{suffix}", kind=KIND_BUILTIN,
            stage=stage, telemetry=telemetry,
        )

    @classmethod
    def from_rml(
        cls,
        source: Union[str, Path],
        config: Optional[EngineConfig] = None,
        *,
        filename: Optional[str] = None,
    ) -> "Analysis":
        """A ``.rml`` model, from a file path, module text, or a parsed
        :class:`~repro.lang.ast.Module`.

        A :class:`~pathlib.Path`, or any newline-free string, is read
        from disk; a string containing newlines is parsed as module text
        (``filename`` labels its error messages).  An already-parsed
        module skips the parse entirely — the reuse hook for callers
        that parsed once for other reasons (the analysis server parses
        for request-key computation, then builds from the same AST).
        The module must declare ``OBSERVED`` signals and at least one
        ``SPEC`` (raises :class:`~repro.errors.ModelError` otherwise —
        an analysis without them has no defined coverage).

        Raises :class:`OSError` for unreadable paths and
        :class:`~repro.errors.ParseError` (with source location) for
        invalid module text.
        """
        from .lang import load_module, parse_module
        from .lang.ast import Module

        config = config if config is not None else EngineConfig()
        telemetry = Telemetry.from_level(config.telemetry)
        if isinstance(source, Module):
            return cls._from_module(
                source, config, path=None, filename=filename,
                telemetry=telemetry,
            )
        with telemetry.span("parse"):
            if _looks_like_path(source):
                path: Optional[str] = str(source)
                text: Optional[str] = None
                module = load_module(source)
            else:
                path = None
                text = str(source)
                module = parse_module(text, filename=filename)
        return cls._from_module(
            module, config, path=path, filename=filename,
            telemetry=telemetry, source_text=text,
        )

    @classmethod
    def _from_module(
        cls,
        module,
        config: EngineConfig,
        path: Optional[str],
        filename: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        source_text: Optional[str] = None,
    ) -> "Analysis":
        """Elaborate and validate a parsed module — the one rml
        construction path (``from_rml`` and suite workers both land
        here, so their error messages cannot drift apart)."""
        from .lang import elaborate

        if telemetry is None:
            telemetry = Telemetry.from_level(config.telemetry)
        with telemetry.span("elaborate"):
            model = elaborate(module, config=config)
            # Attach before the span closes: the fresh manager's counters
            # start at zero, so the delta is the whole elaboration cost.
            telemetry.attach(model.fsm.manager)
        where = path or filename or model.module.name
        if not model.observed:
            raise ModelError(
                f"{where}: module {model.module.name!r} declares no "
                f"OBSERVED signals (add e.g. 'OBSERVED <signal>;')"
            )
        if not model.specs:
            raise ModelError(
                f"{where}: module {model.module.name!r} declares no "
                f"SPEC properties"
            )
        stem = Path(path).stem if path else model.module.name
        analysis = cls(
            model.fsm, model.specs, model.observed, model.dont_care,
            config=config, name=f"rml:{stem}", kind=KIND_RML, path=path,
            telemetry=telemetry,
        )
        analysis.module = module
        analysis.source_text = source_text
        return analysis

    @classmethod
    def from_fsm(
        cls,
        fsm: FSM,
        properties: Sequence[CtlFormula],
        observed: Union[str, Sequence[str]],
        dont_care=None,
        *,
        name: Optional[str] = None,
        config: Optional[EngineConfig] = None,
    ) -> "Analysis":
        """Wrap an already-built FSM (hand-constructed circuits,
        benchmarks).  The FSM's engine knobs were fixed when it was built;
        ``config`` here only documents them on the result."""
        return cls(
            fsm, properties, observed, dont_care, config=config, name=name,
            kind=KIND_CUSTOM,
        )

    @classmethod
    def from_job(cls, job, module=None) -> "Analysis":
        """Rebuild a :class:`~repro.suite.jobs.CoverageJob` description —
        the worker-process side of suite fan-out.

        ``module`` short-circuits the parse for rml jobs when the caller
        already holds the job source's parsed AST (the analysis server's
        inline workers reuse the module parsed for key computation); the
        job's source text still travels along for lint anchors.
        """
        from .lang import parse_module
        from .suite.jobs import KIND_BUILTIN as JOB_BUILTIN
        from .suite.jobs import KIND_RML as JOB_RML

        if job.kind == JOB_BUILTIN:
            if job.target is None:
                raise ValueError(f"builtin job {job.name!r} has no target")
            analysis = cls.builtin(
                job.target, stage=job.stage, buggy=job.buggy,
                config=job.config,
            )
        elif job.kind == JOB_RML:
            if job.source is None:
                raise ValueError(f"rml job {job.name!r} has no source")
            if module is None:
                module = parse_module(job.source, filename=job.path)
            analysis = cls._from_module(
                module, job.config, path=job.path, source_text=job.source
            )
        else:
            raise ValueError(f"unknown job kind {job.kind!r}")
        analysis.name = job.name
        analysis.stage = job.stage
        return analysis

    # ------------------------------------------------------------------
    # Shared verification / estimation state
    # ------------------------------------------------------------------

    @property
    def checker(self) -> ModelChecker:
        """The shared model checker (memoised satisfaction sets)."""
        if self._checker is None:
            self._checker = ModelChecker(self.fsm)
        return self._checker

    @property
    def estimator(self) -> CoverageEstimator:
        """The coverage estimator, bound to the shared checker so
        estimation reuses verification fixpoints."""
        if self._estimator is None:
            self._estimator = CoverageEstimator(self.fsm, checker=self.checker)
        return self._estimator

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------

    def verify(self) -> List[CheckResult]:
        """Model-check every property (cached); failing results carry
        counterexample traces where one can be derived."""
        if self._check_results is None:
            with WorkMeter(self.fsm.manager) as meter:
                self._check_results = [
                    self.checker.check(p) for p in self.properties
                ]
            self._stats = self._stats + meter.stats
        return self._check_results

    def failing(self) -> List[CheckResult]:
        """The verification failures (empty when the suite holds)."""
        return [r for r in self.verify() if not r.holds]

    def holds(self) -> bool:
        """Whether every property holds on the model."""
        return not self.failing()

    def coverage(self) -> CoverageReport:
        """Estimate coverage of the (verified) suite; cached.

        Raises :class:`~repro.errors.VerificationError` when any property
        fails — the paper defines covered sets only for satisfied
        properties.
        """
        if self._report is None:
            failing = self.failing()
            if failing:
                raise VerificationError(
                    f"{len(failing)} propert(ies) fail on "
                    f"{self.fsm.name!r}; coverage is only defined for "
                    f"verified properties"
                )
            with WorkMeter(self.fsm.manager) as meter:
                self._report = self.estimator.estimate(
                    self.properties, observed=self.observed,
                    dont_care=self.dont_care,
                )
            self._stats = self._stats + meter.stats
        return self._report

    def uncovered_traces(self, count: int = 3) -> str:
        """Rendered traces from an initial state to up to ``count``
        uncovered states (see :func:`repro.coverage.trace_to_uncovered`)."""
        report = self.coverage()
        with self.telemetry.span("traces", count=count):
            return format_uncovered_traces(report, count=count)

    def lint(self):
        """Static-analysis findings for the module this analysis was
        built from, as a :class:`~repro.lint.LintReport` (memoised).

        Engine-free: runs entirely over the parsed AST, never touching
        the BDD layer.  Analyses without a module AST (builtin circuits,
        hand-built FSMs) return an empty report over zero files.
        """
        from .lint import LintReport, lint_module

        if self._lint_report is None:
            if self.module is None:
                self._lint_report = LintReport(files=[])
            else:
                text = self.source_text
                if text is None and self.path is not None:
                    try:
                        text = Path(self.path).read_text()
                    except OSError:
                        text = None
                self._lint_report = lint_module(
                    self.module, text=text,
                    filename=self.path or self.module.filename,
                )
        return self._lint_report

    def result(self, include_lint: bool = True) -> AnalysisResult:
        """Run the whole pipeline and return its JSON-safe outcome.

        Verification failures become ``status="fail"`` (with the failing
        property list) rather than an exception.  The cost counters
        (nodes created, GC activity, live-node peak, seconds) cover
        verification plus estimation and are accumulated where the work
        is computed, so they are correct even when ``verify()`` or
        ``coverage()`` already ran on this instance.

        ``include_lint=False`` omits the lint block: analysis server
        workers use it because lint anchors to raw source text, which
        the content-addressed cache deliberately normalises away — the
        server computes lint per request and merges it back in.
        """
        failing = self.failing()
        report = None if failing else self.coverage()
        stats = self._stats
        common = dict(
            name=self.name,
            kind=self.kind,
            model=self.fsm.name,
            stage=self.stage,
            path=self.path,
            config=self.config,
            observed=list(self.observed),
            seconds=stats.seconds,
            nodes_created=stats.nodes_created,
            gc_runs=stats.gc_runs,
            gc_seconds=stats.gc_seconds,
            gc_freed=stats.gc_freed,
            reorder_runs=stats.reorder_runs,
            cache_entries=stats.cache_entries,
            peak_live_nodes=stats.peak_live_nodes,
            metrics=(
                self.telemetry.metrics() if self.telemetry.enabled else None
            ),
            lint=(
                self.lint().to_json()
                if include_lint and self.module is not None
                else None
            ),
        )
        if failing:
            return AnalysisResult(
                status="fail",
                properties=len(self.properties),
                failing_properties=[str(r.formula) for r in failing],
                **common,
            )
        return AnalysisResult(
            status="ok",
            properties=len(report.per_property),
            percentage=report.percentage,
            covered_states=report.covered_count,
            space_states=report.space_count,
            uncovered_states=report.space_count - report.covered_count,
            **common,
        )
