"""Work-stealing shard execution: crash-isolated process fan-out.

The suite runner and the fuzz campaign driver used to fan work out with
``pool.map``: one ``ProcessPoolExecutor``, fixed chunks, and — fatally —
one exception channel.  A worker that died (``os._exit``, OOM-kill,
segfault in a C extension) raised :class:`BrokenProcessPool` out of
``pool.map`` and discarded every result that had already completed,
violating the runner's documented never-raise contract.  A slow item
also blocked its whole chunk (head-of-line blocking).

:func:`run_sharded` replaces that with sharded, restartable work units:

* The item list is split into many more **shards** than workers
  (contiguous index ranges, :func:`plan_shards`), each submitted as its
  own pool task.  Idle workers pull the next pending shard from the
  shared queue — work stealing by construction, with no chunk pinning.
* Each shard's results are captured parent-side **as the shard
  completes**, so nothing already finished can be lost to a later
  failure.
* A pool break charges the shards that were in flight and re-runs each
  of them **in isolation** (a fresh single-worker pool per attempt, up
  to ``max_shard_retries`` re-runs).  Innocent victims of somebody
  else's crash complete on their first isolated re-run; the genuinely
  crashing shard keeps breaking its private pool until its retry budget
  is exhausted, at which point — and only then — its items are
  converted to error results via the caller's ``error_result`` factory.
  The run as a whole never raises and never loses unaffected items.
* An item that cannot be pickled (or a worker result that cannot be
  sent back) fails only its shard, immediately and without retries —
  serialisation failures are deterministic.

Observability: every completed or failed shard is recorded as a
``"shard"`` span on the caller's :class:`~repro.obs.telemetry.Telemetry`
(via :meth:`~repro.obs.telemetry.Telemetry.record_span` — the shard ran
in another process, so the parent records the worker-measured wall
time), and the process-global counter registry
(:mod:`repro.obs.counters`) accumulates ``<prefix>.runs`` / ``.steals``
/ ``.retries`` / ``.respawns`` / ``.failed`` so resilience is
observable, not assumed.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .._node import record
from ..errors import ConfigError
from ..obs.counters import counter_inc

__all__ = [
    "DEFAULT_MAX_SHARD_RETRIES",
    "ShardStats",
    "default_shard_count",
    "plan_shards",
    "run_sharded",
]

#: Isolated re-runs a shard may consume after a pool break before its
#: items are converted to error results.
DEFAULT_MAX_SHARD_RETRIES = 2

#: Default shards per worker: fine-grained enough that one slow shard
#: cannot hold a meaningful fraction of the run hostage, and a crash
#: loses (then error-marks) only a small slice of items.
_SHARDS_PER_WORKER = 8


def plan_shards(count: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``count`` items into ``shards`` contiguous ``(start, stop)``
    ranges, as evenly as possible (larger shards first).

        >>> plan_shards(5, 2)
        [(0, 3), (3, 5)]
        >>> plan_shards(3, 8)
        [(0, 1), (1, 2), (2, 3)]
    """
    shards = max(1, min(shards, count))
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def default_shard_count(count: int, max_workers: int) -> int:
    """The shard count used when the caller does not pick one."""
    return max(1, min(count, _SHARDS_PER_WORKER * max(1, max_workers)))


@record
class ShardStats:
    """What one sharded run did — the resilience telemetry, as a value.

    ``steals`` counts completed shards beyond each worker's first: with
    more shards than workers, every shard a worker pulls after finishing
    its first one was "stolen" from the shared backlog rather than
    pre-assigned.  ``retries`` counts isolated shard re-runs after pool
    breaks, ``respawns`` counts the fresh pools those re-runs forced,
    and ``failed`` counts shards whose items were converted to error
    results after the retry budget ran out (or a serialisation failure).
    """

    shards: int = 0
    workers: int = 0
    completed: int = 0
    steals: int = 0
    retries: int = 0
    respawns: int = 0
    failed: int = 0

    def summary(self) -> str:
        """One human-readable line for CLI output."""
        return (
            f"shards: {self.shards} over {self.workers} worker(s) -- "
            f"{self.completed} completed, {self.steals} steal(s), "
            f"{self.retries} retry(s), {self.respawns} pool respawn(s), "
            f"{self.failed} failed"
        )


def _run_shard(payload) -> Tuple[int, float, List[Tuple[int, Any]]]:
    """Worker body: run one shard's items through the caller's function.

    Returns ``(pid, elapsed_seconds, [(position, result), ...])`` — the
    pid feeds the steal counter, the elapsed time the parent-side shard
    span.  ``fn`` is expected to follow the never-raise convention of
    ``execute_job``; if it raises anyway the exception propagates to the
    parent as an ordinary (non-pool-breaking) shard failure.
    """
    fn, pairs = payload
    started = time.perf_counter()
    out = [(pos, fn(item)) for pos, item in pairs]
    return os.getpid(), time.perf_counter() - started, out


@record(frozen=True)
class _Shard:
    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


class _ShardRun:
    """State of one :func:`run_sharded` call (results, stats, spans)."""

    def __init__(
        self,
        items: List[Any],
        worker: Callable[[Any], Any],
        error_result: Callable[[Any, str], Any],
        max_workers: int,
        shards: Optional[int],
        max_shard_retries: int,
        telemetry,
        counter_prefix: str,
    ):
        if max_shard_retries < 0:
            raise ConfigError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if shards is not None and shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        self._items = items
        self._worker = worker
        self._error_result = error_result
        self._max_retries = max_shard_retries
        self._max_workers = max_workers
        self._telemetry = telemetry
        self._prefix = counter_prefix
        count = len(items)
        n_shards = (
            shards if shards is not None
            else default_shard_count(count, max_workers)
        )
        self._shards = [
            _Shard(index=i, start=start, stop=stop)
            for i, (start, stop) in enumerate(plan_shards(count, n_shards))
        ]
        self.stats = ShardStats(
            shards=len(self._shards),
            workers=max(1, min(max_workers, len(self._shards))),
        )
        self._results: Dict[int, Any] = {}
        self._pids: set = set()

    # -- bookkeeping ---------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        counter_inc(f"{self._prefix}.{name}", amount)

    def _span(self, shard: _Shard, seconds: float, attempt: int,
              status: str, pid: Optional[int] = None) -> None:
        if self._telemetry is None:
            return
        self._telemetry.record_span(
            "shard", seconds, shard=shard.index, jobs=shard.size,
            attempt=attempt, status=status,
            **({"pid": pid} if pid is not None else {}),
        )

    def _payload(self, shard: _Shard):
        return (
            self._worker,
            tuple(
                (pos, self._items[pos])
                for pos in range(shard.start, shard.stop)
            ),
        )

    def _capture(self, shard: _Shard, outcome, attempt: int) -> None:
        pid, elapsed, pairs = outcome
        for pos, result in pairs:
            self._results[pos] = result
        self.stats.completed += 1
        self._count("runs")
        if pid in self._pids:
            self.stats.steals += 1
            self._count("steals")
        else:
            self._pids.add(pid)
        self._span(shard, elapsed, attempt, "ok", pid=pid)

    def _fail(self, shard: _Shard, message: str, attempt: int) -> None:
        for pos in range(shard.start, shard.stop):
            self._results[pos] = self._error_result(
                self._items[pos], message
            )
        self.stats.failed += 1
        self._count("failed")
        self._span(shard, 0.0, attempt, "error")

    # -- execution -----------------------------------------------------

    def execute(self) -> Tuple[List[Any], ShardStats]:
        if not self._items:
            return [], self.stats
        if self._max_workers <= 1:
            # Serial mode: same shard accounting, no pool (and therefore
            # no crash isolation — a dying worker is the caller's own
            # process).  Callers' serial fast paths normally take over
            # before this point; kept for API symmetry.
            self._run_inline()
        else:
            victims = self._parallel_round()
            for shard in victims:
                self._isolate(shard)
        return (
            [self._results[i] for i in range(len(self._items))],
            self.stats,
        )

    def _run_inline(self) -> None:
        for shard in self._shards:
            started = time.perf_counter()
            for pos in range(shard.start, shard.stop):
                self._results[pos] = self._worker(self._items[pos])
            self.stats.completed += 1
            self._count("runs")
            self._span(
                shard, time.perf_counter() - started, 1, "ok",
                pid=os.getpid(),
            )

    def _parallel_round(self) -> List[_Shard]:
        """Submit every shard; capture completions; return pool-break
        victims (in shard order) for isolated re-runs."""
        victims: List[_Shard] = []
        with ProcessPoolExecutor(max_workers=self.stats.workers) as pool:
            futures = {}
            for shard in self._shards:
                try:
                    future = pool.submit(_run_shard, self._payload(shard))
                except BrokenProcessPool:
                    # The pool died under an earlier submission; this
                    # shard never ran — re-run it in isolation.
                    victims.append(shard)
                    continue
                futures[future] = shard
            for future in as_completed(futures):
                shard = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    victims.append(shard)
                except Exception as exc:  # noqa: BLE001 - per-shard capture
                    # Unpicklable item/result or a worker-side bug:
                    # deterministic, so retrying cannot help.
                    self._fail(
                        shard,
                        f"shard {shard.index} failed: "
                        f"{type(exc).__name__}: {exc}",
                        attempt=1,
                    )
                else:
                    self._capture(shard, outcome, attempt=1)
        victims.sort(key=lambda s: s.index)
        return victims

    def _isolate(self, shard: _Shard) -> None:
        """Re-run one pool-break victim alone, in a fresh single-worker
        pool per attempt.  The parent cannot tell which in-flight shard
        actually killed the shared pool, but a shard that crashes its
        own private pool is conclusively guilty — and an innocent
        victim completes on its first isolated re-run."""
        failures = 1  # the shared-pool break that sent us here
        while failures <= self._max_retries:
            self.stats.retries += 1
            self._count("retries")
            self.stats.respawns += 1
            self._count("respawns")
            attempt = failures + 1
            with ProcessPoolExecutor(max_workers=1) as pool:
                try:
                    outcome = pool.submit(
                        _run_shard, self._payload(shard)
                    ).result()
                except BrokenProcessPool:
                    failures += 1
                    continue
                except Exception as exc:  # noqa: BLE001 - per-shard capture
                    self._fail(
                        shard,
                        f"shard {shard.index} failed: "
                        f"{type(exc).__name__}: {exc}",
                        attempt=attempt,
                    )
                    return
                else:
                    self._capture(shard, outcome, attempt=attempt)
                    return
        self._fail(
            shard,
            f"worker process crashed while running shard {shard.index} "
            f"(BrokenProcessPool; {failures} attempt(s), "
            f"{self._max_retries} retry(s) allowed); "
            f"results for this shard were lost",
            attempt=failures,
        )


def run_sharded(
    items: Sequence[Any],
    worker: Callable[[Any], Any],
    error_result: Callable[[Any, str], Any],
    *,
    max_workers: int,
    shards: Optional[int] = None,
    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
    telemetry=None,
    counter_prefix: str = "suite.shards",
) -> Tuple[List[Any], ShardStats]:
    """Run ``worker`` over ``items`` in work-stealing process shards.

    Returns ``(results, stats)`` with ``results`` in item order and of
    the same length as ``items`` — every item yields either its worker
    result or ``error_result(item, message)``; this function never
    raises for worker/pool failures (invalid ``shards`` /
    ``max_shard_retries`` raise :class:`~repro.errors.ConfigError`).
    ``worker`` must be picklable (a module-level function) and should
    itself never raise; ``error_result`` runs parent-side only.

    ``telemetry``, when given a spans-level
    :class:`~repro.obs.telemetry.Telemetry`, receives one ``"shard"``
    span per shard outcome; the ``<counter_prefix>.*`` process counters
    accumulate regardless.  With ``max_workers <= 1`` the shards run
    inline, in order — byte-identical to a plain serial loop.
    """
    return _ShardRun(
        list(items), worker, error_result, max_workers, shards,
        max_shard_retries, telemetry, counter_prefix,
    ).execute()
