"""Shared plumbing: paths, child processes, statistics, the result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: The benchmark runs from the root of a source checkout.
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PY = sys.executable

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5

#: At least this many operations per run, so that ten lie beyond the p90.
MIN_OPS = 100


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, bad arguments)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compile_program() -> None:
    """Write the program's bytecode cache before anything is timed, so that
    no run pays for compiling modules its first processes happen to load."""
    proc = subprocess.run([PY, "-m", "compileall", "-q", str(SRC)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SetupError(f"cannot compile {SRC}: {proc.stdout[-500:]}")


def child_env(workdir: Path) -> Dict[str, str]:
    """Environment for the program's processes: the checkout's sources,
    cached bytecode (as an installed package has), and temporary files
    kept inside the checkout."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(workdir)
    return env


@contextmanager
def workdir(workload: str):
    """A scratch directory under ``.bench_work`` removed afterwards."""
    path = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_timed(cmd: Sequence[str], env, timeout: float = 120.0, cwd=None):
    """Run ``cmd`` to completion; returns ``(seconds, CompletedProcess)``."""
    start = time.perf_counter()
    proc = subprocess.run(
        list(cmd), env=env, cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return time.perf_counter() - start, proc


def run_setup(cmd: Sequence[str], env, expect=(0,)) -> float:
    """Run one set-up command to completion; its wall seconds."""
    seconds, proc = run_timed(cmd, env)
    if proc.returncode not in expect:
        raise SetupError(
            f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}"
        )
    return seconds


#: Seconds a bare interpreter start (``python -c pass``) takes on the
#: reference machine.
REF_START_S = 0.05


def setup_seconds(env, start: Callable[[], float],
                  repeats: int = SETUP_REPEATS) -> Tuple[float, float]:
    """``(reference, raw)`` median seconds of ``repeats`` set-ups.

    ``start()`` sets the program up once and returns the seconds it took.
    Set-up is process start and imports, whose time moves with the time a
    bare interpreter takes to start as the host's load changes (the CPU
    calibration of :class:`Clock` does not track it).  So each set-up is
    scaled by :data:`REF_START_S` over the mean of the bare starts timed
    just before and after it.  A lighter import still reads proportionally
    faster.
    """
    bare = [PY, "-c", "pass"]
    before = run_setup(bare, env)
    ref, raw = [], []
    for _ in range(repeats):
        seconds = start()
        after = run_setup(bare, env)
        raw.append(seconds)
        ref.append(seconds * REF_START_S / ((before + after) / 2))
        before = after
    return statistics.median(ref), statistics.median(raw)


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------

#: Seconds one calibration unit takes on the reference machine (a 2-vCPU
#: Xeon VM with no other load from this benchmark).
REF_UNIT_S = 0.0045
#: Units timed per calibration sample (the sample is their median).
UNITS_PER_SAMPLE = 3


def _unit() -> int:
    """A fixed piece of interpreter work shaped like the BDD kernel's:
    tuple keys hashed into a growing dict, lookups that mostly miss."""
    table = {}
    x = 0
    for i in range(6000):
        x = table.setdefault((i & 255, i >> 3, x & 1023), len(table)) + i
        x ^= table.get((x & 255, 3, 7), 1)
    return x


class Clock:
    """Converts measured seconds into reference seconds.

    The machines this benchmark runs on share their CPUs with other work, and
    the same pure-Python loop can take twice as long from one minute to the
    next.  So the benchmark times a fixed calibration unit (in thread CPU
    time, which such slowdowns inflate but waiting for a core does not) and
    scales each measurement by ``REF_UNIT_S`` over the calibration time
    measured around it: the mean of the samples just before and after the
    measured work (:meth:`step`), taken while the program is idle so that
    the samples neither slow the program nor are slowed by it.  A faster
    program still reads proportionally faster; a slower moment of the
    machine does not.  Raw seconds are kept in the detail line.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = self._sample()

    def _sample(self) -> float:
        times = []
        for _ in range(UNITS_PER_SAMPLE):
            start = time.thread_time()
            _unit()
            times.append(time.thread_time() - start)
        value = statistics.median(times)
        self.samples.append(value)
        return value

    def step(self) -> float:
        """Sample again; the factor for the work done since the last sample."""
        before, self._last = self._last, self._sample()
        return REF_UNIT_S / ((before + self._last) / 2)


def children_usage():
    """``(cpu_seconds, peak_rss_mb)`` of every waited-for child so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def self_usage():
    """``(cpu_seconds, peak_rss_mb)`` of this process."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def p50(values: Sequence[float]) -> float:
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# Reproducibility record
# ----------------------------------------------------------------------


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git (the
    benchmark's checkout usually is not a repository at all)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, object]:
    from repro import __version__

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "repro": __version__,
        "commit": _git_commit(),
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


class Outcome:
    """What one run measured: operations, failures and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        self.metrics: Dict[str, Dict[str, float]] = {}
        self.detail: Dict[str, object] = {}

    def check(self, expected, key: str, got: Dict) -> bool:
        """Count one operation; ``False`` when its answer is wrong."""
        self.attempted += 1
        problem = expected.mismatch(key, got)
        if problem is not None:
            self.failed += 1
            self.mismatches.append(problem)
            return False
        return True

    def fail(self, message: str) -> None:
        """Count one operation that produced no answer."""
        self.attempted += 1
        self.failed += 1
        self.mismatches.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def emit(self) -> None:
        """Print the detail line, then the result line (always last)."""
        for problem in self.mismatches[:20]:
            print(f"mismatch: {problem}", file=sys.stderr)
        self.detail["error_ratio"] = {
            "value": ratio(self.failed, self.attempted),
            "failed": self.failed,
            "attempted": self.attempted,
        }
        print(json.dumps({"detail": self.detail}, sort_keys=True))
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }), flush=True)


def end_to_end(outcome: Outcome, clock: Clock, *, setup, latencies,
               wall, cpu_s: float, peak_rss_mb: float) -> None:
    """Record the end-to-end metrics every workload reports.

    ``setup`` and ``wall`` are ``(reference, raw)`` seconds, ``latencies``
    ``(reference, raw)`` lists and ``cpu_s`` reference seconds.
    """
    ops = len(latencies[0])
    outcome.metric("setup_s", setup[0], "s")
    outcome.metric("latency_p50_s", p50(latencies[0]), "s")
    outcome.metric("latency_p90_s", p90(latencies[0]), "s")
    outcome.metric("throughput_per_s", ratio(ops, wall[0]), "ops/s")
    outcome.metric("cpu_s", cpu_s, "s")
    outcome.metric("peak_rss_mb", peak_rss_mb, "MB")
    outcome.metric(
        "success_ratio", ratio(outcome.attempted - outcome.failed, outcome.attempted),
        "ratio",
    )
    outcome.detail["operations"] = ops
    outcome.detail["raw_seconds"] = {
        "setup_s": setup[1],
        "latency_p50_s": p50(latencies[1]),
        "latency_p90_s": p90(latencies[1]),
        "wall_s": wall[1],
    }
    outcome.detail["calibration"] = {
        "ref_unit_s": REF_UNIT_S,
        "samples": len(clock.samples),
        "median_unit_s": statistics.median(clock.samples),
        "min_unit_s": min(clock.samples),
        "max_unit_s": max(clock.samples),
    }
