"""``ladder``: in-process analyses of scaled pipelines and queues.

A closed loop with one client in the benchmark process.  Each operation is
``Analysis.from_rml(text)``, ``.result()`` and ``uncovered_traces(3)`` on a
distinct ``.rml`` text: the variants of every shape in
:func:`models.ladder_shapes` that the seed picks, 102 in all, so every seed sends the same
family and size mix.  The run's size is fixed; ``--seconds`` does not
change it (they take about 20 s on a 2-vCPU machine).  This is
the workload where the BDD, FSM, model-checking and coverage kernels do
most of the work, and, since no input repeats, the control workload for
any caching claim.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List, Tuple

import layers
from common import (
    PY,
    Clock,
    child_env,
    end_to_end,
    run_setup,
    self_usage,
    setup_seconds,
    workdir,
)
from models import digest, ladder_shapes, pipeline_rml, set_digest


def plan(seed: int) -> List[Tuple[str, str, str]]:
    """The run's 102 operations as ``(family, key, text)``, in send order."""
    rng = random.Random(f"ladder:{seed}")
    ops = [
        (name.split("-")[0], digest(text), text)
        for _, picks, variants in ladder_shapes()
        for name, text in rng.sample(variants, picks)
    ]
    rng.shuffle(ops)
    return ops


def run(outcome, expected, seed: int, seconds: float, traced: bool) -> None:
    ops = plan(seed)
    outcome.detail["input_digest"] = set_digest(text for _, _, text in ops)
    with workdir("ladder") as work:
        env = child_env(work)
        setup = setup_seconds(env, lambda: run_setup(
            [PY, "-c", "import repro; repro.Analysis"], env))
        # Finish lazy imports and first-call set-up outside the timed loop.
        layers.analyse(pipeline_rml(3, 3, True))
        # Keep the benchmark's own objects out of the collections timed
        # with each operation.
        gc.freeze()
        if traced:
            layers.traced_run(outcome, expected,
                              [(key, text) for _, key, text in ops], env)
            return
    clock = Clock()
    ref, raw = [], []
    cpu_s = 0.0
    family_s = {}
    for family, key, text in ops:
        cpu0 = time.process_time()
        seconds_op, got = layers.timed(text)
        cpu = time.process_time() - cpu0
        factor = clock.step()
        raw.append(seconds_op)
        ref.append(seconds_op * factor)
        cpu_s += cpu * factor
        family_s[family] = family_s.get(family, 0.0) + seconds_op * factor
        outcome.check(expected, key, got)
    end_to_end(outcome, clock, setup=setup, latencies=(ref, raw),
               wall=(sum(ref), sum(raw)), cpu_s=cpu_s, peak_rss_mb=self_usage()[1])
    total = sum(family_s.values())
    outcome.detail["family_time_share"] = {
        family: s / total for family, s in sorted(family_s.items())
    }
