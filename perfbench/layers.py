"""The in-process analysis operation, traced replays and per-layer metrics.

Every workload's traced run (``--trace 1``) reports the same per-layer
metrics.  ``ladder`` traces its own operations.  The other workloads run
their analyses in the program's child processes, where the benchmark
records nothing, so their traced run replays a sample of the run's models
through the same library call sequence in this process and traces that.
The ``cli.*`` metrics come from timing fresh interpreters.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, Sequence, Tuple

from common import PY, WORK, Outcome, ratio, run_timed
from spans import Tracer

#: Every 4th traced operation is also run untraced, for the overhead ratio.
OVERHEAD_EVERY = 4

#: Fresh interpreters timed per ``cli.*`` probe.
PROBE_REPEATS = 7


def analyse(text: str):
    """One analysis, as a user of the library runs it: build from ``.rml``
    text, run the pipeline, render traces into the coverage holes."""
    from repro import Analysis

    from answers import answer, from_result

    try:
        analysis = Analysis.from_rml(text)
        got = from_result(analysis.result())
        if got["status"] == "ok":
            analysis.uncovered_traces(3)
    except Exception as exc:  # one failed operation, not a failed run
        return answer(f"error:{type(exc).__name__}: {exc}")
    return got


def timed(text: str) -> Tuple[float, Dict]:
    """``(seconds, answer)`` of one operation.  The time includes collecting
    the operation's cyclic garbage, so each operation pays for its own and
    the next starts from a clean heap; otherwise the send order decides
    whose garbage is still alive when a large model runs, and with it the
    peak memory."""
    start = time.perf_counter()
    got = analyse(text)
    gc.collect()
    return time.perf_counter() - start, got


def traced_run(outcome: Outcome, expected, items: Sequence[Tuple[str, str]],
               env) -> None:
    """Run ``items`` (``(key, text)``) traced, check every answer, and
    record every per-layer metric.

    Every :data:`OVERHEAD_EVERY`-th item also runs untraced, alternating
    which goes first, for ``obs.trace_overhead_ratio``.
    """
    tracer = Tracer()
    traced_s = untraced_s = 0.0
    for i, (key, text) in enumerate(items):
        sample = i % OVERHEAD_EVERY == 0
        untraced_first = (i // OVERHEAD_EVERY) % 2
        if sample and untraced_first:
            untraced_s += timed(text)[0]
        tracer.op = i
        with tracer:
            seconds, got = timed(text)
        tracer.op = None
        if sample:
            traced_s += seconds
            if not untraced_first:
                untraced_s += timed(text)[0]
        outcome.check(expected, key, got)
    overhead = {"traced_s": traced_s, "untraced_s": untraced_s,
                "ops": len(range(0, len(items), OVERHEAD_EVERY))}
    report(outcome, tracer, overhead, cli_probes(env))


def cli_probes(env) -> Dict[str, float]:
    """Cold ``import repro.cli`` minus bare interpreter start, and the
    number of modules that import loads."""
    bare, cli = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(run_timed([PY, "-c", "pass"], env)[0])
        cli.append(run_timed([PY, "-c", "import repro.cli"], env)[0])
    _, proc = run_timed(
        [PY, "-c", "import sys; n = len(sys.modules); import repro.cli; "
                   "print(len(sys.modules) - n)"], env,
    )
    return {
        "import_s": statistics.median(cli) - statistics.median(bare),
        "modules_loaded": int(proc.stdout.strip()),
    }


def report(outcome: Outcome, tracer: Tracer, overhead: Dict, probes: Dict) -> None:
    """Record every per-layer metric from a traced pass."""
    m = outcome.metric
    m("cli.import_s", probes["import_s"], "s")
    m("cli.modules_loaded", probes["modules_loaded"], "count")
    parse_s = tracer.self_seconds("lang.parse")
    parse_kb = sum(s.attrs.get("bytes", 0) for s in tracer.of("lang.parse")) / 1024
    m("lang.parse_s", parse_s, "s")
    m("lang.elaborate_s", tracer.self_seconds("lang.elaborate"), "s")
    m("lang.parse_kb_per_s", ratio(parse_kb, parse_s), "KB/s")
    m("lint.s", tracer.self_seconds("lint"), "s")
    m("fsm.reach_s", tracer.self_seconds("fsm.reach"), "s")
    m("fsm.reach_iterations",
      sum(s.attrs["iterations"] for s in tracer.of("fsm.reach")), "count")
    m("fsm.reach_nodes", tracer.self_count("fsm.reach", "nodes_created"), "count")
    m("mc.verify_s", tracer.self_seconds("mc.verify"), "s")
    m("mc.verify_nodes", tracer.self_count("mc.verify", "nodes_created"), "count")
    m("coverage.estimate_s", tracer.self_seconds("coverage.estimate"), "s")
    m("coverage.estimate_nodes",
      tracer.self_count("coverage.estimate", "nodes_created"), "count")
    m("coverage.traces_s", tracer.self_seconds("coverage.traces"), "s")
    bdd = tracer.bdd_totals()
    lookups = bdd["op_hits"] + bdd["op_misses"]
    m("bdd.nodes_created", bdd["nodes_created"], "count")
    m("bdd.unique_probes", bdd["unique_probes"], "count")
    m("bdd.op_misses", bdd["op_misses"], "count")
    m("bdd.gc_runs", bdd["gc_runs"], "count")
    m("bdd.op_hit_ratio", ratio(bdd["op_hits"], lookups), "ratio")
    m("bdd.nodes_per_s", ratio(bdd["nodes_created"], bdd["seconds"]), "1/s")
    m("bdd.peak_live_nodes", bdd["peak_live_nodes"], "count")
    m("obs.trace_overhead_ratio",
      ratio(overhead["traced_s"], overhead["untraced_s"]) - 1, "ratio")
    outcome.detail["bdd.op_hit_ratio_base"] = lookups
    outcome.detail["trace_overhead_sample"] = overhead
    outcome.detail["spans"] = len(tracer.spans)
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"{outcome.detail['workload']}-seed{outcome.detail['seed']}"
                       f".trace.json")
