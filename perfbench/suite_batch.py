"""``suite-batch``: ``repro suite DIR --no-builtins --jobs 2 --json REPORT``.

Each batch directory holds 200 small corpus models plus one ladder-sized
queue (a heavy tail: the slowest shard sets the wall time).  A run is
ten batches, one ``repro suite`` process each, with a calibration sample
(see ``common.Clock``) between batches.  An operation is one job;
its latency is the job's ``seconds`` in the v2 report (analysis time inside
the worker).  This workload stresses suite fan-out, shard work-stealing,
pickling and per-analysis fixed cost.
"""

from __future__ import annotations

import json
import random
import re

import layers
from answers import from_result_json
from common import (
    PY,
    Clock,
    SetupError,
    child_env,
    children_usage,
    end_to_end,
    ratio,
    run_setup,
    run_timed,
    setup_seconds,
    workdir,
)
from models import digest, heavy_models, load_corpus, set_digest

JOBS = 2
SMALL_PER_BATCH = 200
#: Ladder-sized models per batch (see ``models.heavy_models``).
HEAVY_PER_BATCH = 1
#: Nominal seconds one batch takes on the reference machine (2 vCPUs).
BATCH_S = 2.0
#: A job slower than this counts as large in the job-size distribution.
LARGE_JOB_S = 0.1
#: The shard rollup line ``repro suite`` prints.
ROLLUP = re.compile(r"(\d+) steal\(s\), (\d+) retry\(s\)")


def plan(seed: int, seconds: float):
    """Batches of ``(name, key, text)``."""
    small = [r for r in load_corpus() if r["family"] == "gen"]
    heavy = heavy_models()
    batches = max(1, min(len(heavy) // HEAVY_PER_BATCH, round(seconds / BATCH_S)))
    # The heavy tail is the same for every seed: its slowest jobs set the
    # batches' ends and its largest models the run's peak memory.
    tail = random.Random("suite-batch-heavy").sample(heavy, HEAVY_PER_BATCH * batches)
    rng = random.Random(f"suite-batch:{seed}")
    out = []
    for b in range(batches):
        jobs = [(r["name"], digest(r["text"]), r["text"])
                for r in rng.sample(small, SMALL_PER_BATCH)]
        for name, text in tail[b * HEAVY_PER_BATCH:(b + 1) * HEAVY_PER_BATCH]:
            jobs.append((name, digest(text), text))
        out.append(jobs)
    return out


def run(outcome, expected, seed: int, seconds: float, traced: bool) -> None:
    batches = plan(seed, seconds)
    outcome.detail["input_digest"] = set_digest(
        text for jobs in batches for _, _, text in jobs
    )
    with workdir("suite-batch") as work:
        env = child_env(work)
        dirs = []
        for b, jobs in enumerate(batches):
            folder = work / f"batch{b}"
            folder.mkdir()
            for name, _, text in jobs:
                (folder / f"{name}.rml").write_text(text)
            dirs.append(folder)
        empty = work / "empty"
        empty.mkdir()

        def suite(folder, report):
            return [PY, "-m", "repro", "suite", str(folder), "--no-builtins",
                    "--jobs", str(JOBS), "--json", str(report)]

        # "no jobs registered" exits 2 once the command is ready for work.
        setup = setup_seconds(env, lambda: run_setup(
            suite(empty, work / "empty.json"), env, expect=(2,)))
        clock = Clock()
        ref, raw = [], []
        steals = retries = 0
        wall = [0.0, 0.0]
        cpu_s = 0.0
        for b, (folder, jobs) in enumerate(zip(dirs, batches)):
            report = work / f"batch{b}.json"
            cpu0, _ = children_usage()
            seconds_b, proc = run_timed(suite(folder, report), env, timeout=170)
            cpu = children_usage()[0] - cpu0
            factor = clock.step()
            wall[0] += seconds_b * factor
            wall[1] += seconds_b
            cpu_s += cpu * factor
            if proc.returncode not in (0, 1):
                raise SetupError(f"repro suite exited {proc.returncode}: "
                                 f"{proc.stderr[-500:]}")
            rollup = ROLLUP.search(proc.stdout)
            if rollup:
                steals += int(rollup.group(1))
                retries += int(rollup.group(2))
            keys = {name: key for name, key, _ in jobs}
            seen = set()
            for job in json.loads(report.read_text())["jobs"]:
                name = job["name"].split(":", 1)[1]
                seen.add(name)
                raw.append(job["seconds"])
                ref.append(job["seconds"] * factor)
                outcome.check(expected, keys.get(name, name), from_result_json(job))
            for name in sorted(set(keys) - seen):
                outcome.fail(f"batch{b}: no result for {name}")
        if traced:
            layers.traced_run(outcome, expected,
                              [(key, text) for _, key, text in batches[0]], env)
        else:
            end_to_end(outcome, clock, setup=setup, latencies=(ref, raw),
                       wall=tuple(wall), cpu_s=cpu_s,
                       peak_rss_mb=children_usage()[1])
    outcome.detail["suite"] = {
        "batches": len(batches),
        "jobs": len(raw),
        "large_job_share": ratio(sum(s > LARGE_JOB_S for s in raw), len(raw)),
        "suite.busy_ratio": ratio(sum(raw), JOBS * wall[1]),
        "suite.steals": steals,
        "suite.retries": retries,
    }
