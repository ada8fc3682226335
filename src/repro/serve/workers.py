"""Warm analysis workers: payload codec + recycling process pool.

The server ships work to analysis workers as plain JSON-safe *payloads*
(the picklable mirror of a :class:`~repro.suite.jobs.CoverageJob`), and
each worker answers with ``AnalysisResult.to_json()`` primitives — BDD
handles never cross a process boundary, exactly the suite runner's
fan-out contract.

Two execution modes behind one :class:`WorkerPool` interface:

``workers >= 1`` (production)
    A ``ProcessPoolExecutor``.  Workers stay warm between jobs (imports,
    code caches) and every job builds its model in a fresh per-job BDD
    manager bounded by the request config's
    :class:`~repro.bdd.policy.ResourcePolicy`, so worker memory returns
    to baseline after each job.  As a hedge against slow interpreter
    bloat the pool additionally *recycles* itself — a fresh executor
    replaces the old one after ``recycle_after`` jobs per worker; the old
    pool drains its in-flight jobs and exits.

``workers == 0`` (inline)
    A single-threaded ``ThreadPoolExecutor`` running analyses in the
    server process.  This is the mode for tests and tiny deployments; it
    also enables the parse-reuse path — the module the server already
    parsed for key computation is handed straight to
    :meth:`~repro.analysis.Analysis.from_job`, so a deduplicated burst of
    identical requests parses its model exactly once.

Worker crashes (a killed child, an OOM) surface as
``BrokenProcessPool`` on the in-flight futures; the server maps that to
one HTTP 500 and calls :meth:`WorkerPool.reset_after_crash`, which
replaces the broken executor so the next request finds a healthy pool.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict

from ..engine import EngineConfig
from ..errors import ConfigError
from ..suite.jobs import KIND_BUILTIN, KIND_RML, CoverageJob
from ..suite.runner import execute_job, preload_job_imports

__all__ = [
    "BrokenProcessPool",
    "WorkerPool",
    "analyze_payload",
    "job_from_payload",
    "payload_from_job",
]

#: Jobs each worker handles before the pool recycles (times ``workers``).
DEFAULT_RECYCLE_AFTER = 64

#: Seconds between a worker's checks that its server is still alive.
PARENT_POLL_SECONDS = 0.5

#: Payload kind that makes a worker die on purpose (exercises the crash →
#: 500 → respawn path).  Only honoured when the server was started with
#: test hooks enabled.
KIND_CRASH = "__crash__"


def payload_from_job(job: CoverageJob) -> Dict:
    """The JSON-safe wire form of a job — what ``POST /v1/analyze`` takes.

    ``rml`` jobs ship their source text; ``builtin`` jobs ship the target
    coordinates.  The engine config travels as its JSON codec.
    """
    payload: Dict = {"name": job.name, "config": job.config.to_json()}
    if job.kind == KIND_RML:
        payload["rml"] = job.source
        if job.path is not None:
            payload["path"] = job.path
    elif job.kind == KIND_BUILTIN:
        payload["target"] = job.target
        if job.stage is not None:
            payload["stage"] = job.stage
        if job.buggy:
            payload["buggy"] = True
    else:
        raise ValueError(f"unknown job kind {job.kind!r}")
    return payload


def job_from_payload(payload: Dict) -> CoverageJob:
    """Rebuild the :class:`~repro.suite.jobs.CoverageJob` a payload
    describes.  Raises :class:`ValueError` for a malformed payload and
    :class:`~repro.errors.ConfigError` for a bad config."""
    if not isinstance(payload, dict):
        raise ValueError("analyze payload must be a JSON object")
    has_rml = "rml" in payload
    has_target = "target" in payload
    if has_rml == has_target:
        raise ValueError(
            "analyze payload takes exactly one of 'rml' (model text) and "
            "'target' (builtin circuit name)"
        )
    config_data = payload.get("config", {})
    config = EngineConfig.from_json(config_data if config_data else {})
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("'name' must be a string")
    if has_rml:
        source = payload["rml"]
        if not isinstance(source, str):
            raise ValueError("'rml' must be a string of module text")
        path = payload.get("path")
        if path is not None and not isinstance(path, str):
            raise ValueError("'path' must be a string")
        from pathlib import Path

        if name is None:
            name = f"rml:{Path(path).stem}" if path else "rml:<text>"
        return CoverageJob(
            name=name, kind=KIND_RML, path=path, source=source, config=config
        )
    target = payload["target"]
    if not isinstance(target, str):
        raise ValueError("'target' must be a builtin circuit name")
    stage = payload.get("stage")
    if stage is not None and not isinstance(stage, str):
        raise ValueError("'stage' must be a string")
    buggy = bool(payload.get("buggy", False))
    if name is None:
        name = f"{target}@{stage}" if stage else target
    return CoverageJob(
        name=name, kind=KIND_BUILTIN, target=target, stage=stage,
        buggy=buggy, config=config,
    )


def _worker_init() -> None:
    """Reset inherited signal state in a freshly forked worker, and tie
    the worker's life to its server's.

    The server parent registers asyncio signal handlers, which install a
    ``signal.set_wakeup_fd`` self-pipe.  A forked worker inherits both —
    so a signal delivered to a *worker* (e.g. the pool manager thread
    SIGTERM-ing survivors after a sibling crash) would be written into
    the pipe the parent's event loop reads, and the server would shut
    itself down.  Workers therefore detach from the wakeup fd, take the
    default SIGTERM disposition, and ignore SIGINT (terminal Ctrl-C goes
    to the whole process group; shutdown is the parent's decision).

    A server killed outright (SIGKILL, OOM) never shuts its pool down,
    and a forked worker holds both ends of its own job queue, so it would
    wait for work forever.  A daemon thread therefore watches the parent
    pid and ends the worker once the server is gone.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),),
        name="repro-serve-parent-watch", daemon=True,
    ).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once its parent ``parent`` has exited (the worker
    is then re-parented, so ``getppid`` changes)."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_SECONDS)
    os._exit(1)


def analyze_payload(payload: Dict, module=None) -> Dict:
    """Run one payload to completion — the worker-side entry point.

    Returns ``AnalysisResult.to_json()`` primitives.  Model-level
    failures become ``status="fail"``/``"error"`` results (the suite
    runner's never-raise contract); only infrastructure faults raise.

    ``module`` is the parse-reuse hook: an already-parsed
    :class:`~repro.lang.Module` for ``rml`` payloads (inline mode hands
    over the module the server parsed for the request key).

    Lint is deliberately *excluded* here: findings anchor to the raw
    source text (lines, columns, waiver comments), which the cache's
    reprint-normalised key treats as noise.  The server computes lint
    per request from the raw text and merges it into the response, so
    comment-only edits share one cached engine result yet still see
    their own lint — never a stale anchor.
    """
    if payload.get("kind") == KIND_CRASH:  # test hook; see KIND_CRASH
        os._exit(13)
    job = job_from_payload(payload)
    return execute_job(job, module=module, include_lint=False).to_json()


class WorkerPool:
    """The server's executor: warm processes, or an inline thread."""

    def __init__(
        self,
        workers: int = 2,
        recycle_after: int = DEFAULT_RECYCLE_AFTER,
    ):
        if workers < 0:
            raise ConfigError("--workers must be >= 0 (0 runs inline)")
        if recycle_after < 1:
            raise ConfigError("--recycle-after must be >= 1")
        self.workers = workers
        self.recycle_after = recycle_after
        self.inline = workers == 0
        self._jobs = 0
        self._jobs_at_spawn = 0
        self._recycles = 0
        self._crashes = 0
        self._executor = self._spawn()

    def _spawn(self):
        if self.inline:
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-inline"
            )
        # Workers fork from this process: import the analysis stack first
        # so no worker imports it inside a request.
        preload_job_imports()
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_worker_init
        )

    # ------------------------------------------------------------------
    # Job flow
    # ------------------------------------------------------------------

    def submit(self, payload: Dict, module=None) -> Future:
        """Schedule ``payload``; the future resolves to result JSON.

        Recycling happens here, between jobs: once the current executor
        has taken ``recycle_after * max(workers, 1)`` jobs, a fresh one
        replaces it and the old pool drains and exits in the background.
        """
        if not self.inline:
            quota = self.recycle_after * self.workers
            if self._jobs - self._jobs_at_spawn >= quota:
                self._recycle()
            # Parsed modules stay server-side: a process worker re-parses
            # from source, which is as cheap as unpickling the AST.
            module = None
        self._jobs += 1
        try:
            return self._executor.submit(analyze_payload, payload, module)
        except BrokenProcessPool:
            # Pool already broken (an earlier crash): heal, then retry on
            # the fresh executor.
            self.reset_after_crash()
            return self._executor.submit(analyze_payload, payload, module)

    def _recycle(self) -> None:
        old = self._executor
        self._executor = self._spawn()
        self._jobs_at_spawn = self._jobs
        self._recycles += 1
        old.shutdown(wait=False)

    def reset_after_crash(self) -> None:
        """Replace a broken executor after a worker died mid-job."""
        self._crashes += 1
        old = self._executor
        self._executor = self._spawn()
        self._jobs_at_spawn = self._jobs
        old.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Lifecycle / stats
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "workers": self.workers,
            "inline": int(self.inline),
            "jobs": self._jobs,
            "recycles": self._recycles,
            "crashes": self._crashes,
        }

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
