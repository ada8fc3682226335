"""The suite job model: one coverage estimation run per job.

A :class:`CoverageJob` is a *description* of work — model source (a builtin
target name or ``.rml`` text), property stage, observed signals, and the
:class:`~repro.engine.EngineConfig` to run under — and its outcome is an
:class:`~repro.analysis.AnalysisResult` (re-exported here under its
historical name :data:`JobResult`).  Both are plain picklable values so
jobs fan out across a ``ProcessPoolExecutor`` (BDD managers are
per-process state, which makes jobs embarrassingly parallel).

The pre-``EngineConfig`` flat knob fields (``trans``, ``gc_threshold``,
``auto_reorder``) remain accepted as deprecated constructor keywords and
readable as deprecated properties; both warn and delegate to ``config``.
"""

from __future__ import annotations

from typing import Optional

from .._node import field, record
from ..analysis import AnalysisResult
from ..engine import _UNSET, EngineConfig, _coalesce_flat, _warn_deprecated

__all__ = ["CoverageJob", "JobResult"]

#: Job kinds.
KIND_BUILTIN = "builtin"
KIND_RML = "rml"

#: The JSON-safe outcome of one executed job.  Historically a separate
#: class; now exactly the facade's result type.
JobResult = AnalysisResult


@record(frozen=True, init=False)
class CoverageJob:
    """One (model, property stage, engine config) unit of work.

    ``kind`` selects the model source: ``"builtin"`` re-creates a registered
    circuit (``target`` + ``stage`` + ``buggy``) inside the worker process;
    ``"rml"`` parses and elaborates ``source`` (with ``path`` as the
    file name for error messages).  Observed signals and don't-cares come
    from the target definition or the module text respectively.  ``config``
    carries every engine knob (transition-relation mode, GC thresholds,
    auto-reorder); all knobs are cost knobs — coverage results are
    identical under any config.
    """

    name: str
    kind: str
    target: Optional[str] = None
    stage: Optional[str] = None
    buggy: bool = False
    path: Optional[str] = None
    source: Optional[str] = None
    config: EngineConfig = field(default_factory=EngineConfig)

    def __init__(
        self,
        name: str,
        kind: str,
        target: Optional[str] = None,
        stage: Optional[str] = None,
        buggy: bool = False,
        path: Optional[str] = None,
        source: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        trans=_UNSET,
        gc_threshold=_UNSET,
        auto_reorder=_UNSET,
    ):
        config = _coalesce_flat(
            "CoverageJob", config, trans, gc_threshold, auto_reorder
        )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "stage", stage)
        object.__setattr__(self, "buggy", buggy)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "config", config)

    # Deprecated flat-field views -------------------------------------

    @property
    def trans(self) -> str:
        """Deprecated: read ``job.config.trans`` instead."""
        _warn_deprecated(
            "CoverageJob.trans is deprecated; read job.config.trans",
            stacklevel=3,
        )
        return self.config.trans

    @property
    def gc_threshold(self) -> Optional[int]:
        """Deprecated: read ``job.config.gc_threshold`` instead."""
        _warn_deprecated(
            "CoverageJob.gc_threshold is deprecated; read "
            "job.config.gc_threshold",
            stacklevel=3,
        )
        return self.config.gc_threshold

    @property
    def auto_reorder(self) -> bool:
        """Deprecated: read ``job.config.auto_reorder`` instead."""
        _warn_deprecated(
            "CoverageJob.auto_reorder is deprecated; read "
            "job.config.auto_reorder",
            stacklevel=3,
        )
        return self.config.auto_reorder

    def describe(self) -> str:
        """The job as the CLI invocation that reproduces it.

        The engine flags are regenerated from
        :meth:`~repro.engine.EngineConfig.to_cli_args`, so re-parsing the
        description yields the job's exact config (see the round-trip test
        in ``tests/suite/test_jobs.py``).
        """
        flags = " ".join(self.config.to_cli_args())
        flags = f" {flags}" if flags else ""
        if self.kind == KIND_RML:
            return (self.path or f"<rml:{self.name}>") + flags
        stage = f" --stage {self.stage}" if self.stage else ""
        buggy = " --buggy" if self.buggy else ""
        return f"{self.target}{stage}{buggy}{flags}"
