"""``cold-run``: one fresh ``python -m repro run FILE`` process per operation.

A closed loop with one client.  The models are small (the repository's
examples and ``repro.gen`` scenarios from the frozen corpus), so
interpreter start and imports dominate and kernel work is negligible: this
is the workload where import-time work shows.
"""

from __future__ import annotations

import random

import layers
from answers import from_cli_output
from common import (
    MIN_OPS,
    PY,
    Clock,
    SetupError,
    children_usage,
    child_env,
    end_to_end,
    run_setup,
    run_timed,
    setup_seconds,
    workdir,
)
from models import digest, load_corpus, set_digest

#: Nominal seconds one invocation takes on the reference machine.
OP_S = 0.37


def plan(seed: int, seconds: float):
    """``(name, key, text)`` per invocation: every example, then a seeded
    sample of generated models, in seeded order."""
    rows = load_corpus()
    examples = [r for r in rows if r["family"] == "example"]
    generated = [r for r in rows if r["family"] == "gen"]
    count = max(MIN_OPS, round(seconds / OP_S))
    rng = random.Random(f"cold-run:{seed}")
    chosen = examples + rng.sample(generated, count - len(examples))
    rng.shuffle(chosen)
    return [(r["name"], digest(r["text"]), r["text"]) for r in chosen]


def run(outcome, expected, seed: int, seconds: float, traced: bool) -> None:
    ops = plan(seed, seconds)
    outcome.detail["input_digest"] = set_digest(text for _, _, text in ops)
    with workdir("cold-run") as work:
        env = child_env(work)
        if traced:
            layers.traced_run(outcome, expected,
                              [(key, text) for _, key, text in ops], env)
            return
        paths = []
        for name, _, text in ops:
            path = work / f"{name}.rml"
            path.write_text(text)
            paths.append(path)
        setup = setup_seconds(env, lambda: run_setup(
            [PY, "-m", "repro", "--version"], env))
        _, proc = run_timed([PY, "-m", "repro", "run", str(paths[0])], env)
        if proc.returncode not in (0, 1):
            raise SetupError(f"repro run failed: {proc.stderr[-500:]}")
        clock = Clock()
        ref, raw = [], []
        cpu_s = 0.0
        for path, (_, key, _) in zip(paths, ops):
            cpu0, _ = children_usage()
            seconds_op, proc = run_timed([PY, "-m", "repro", "run", str(path)], env)
            cpu = children_usage()[0] - cpu0
            factor = clock.step()
            raw.append(seconds_op)
            ref.append(seconds_op * factor)
            cpu_s += cpu * factor
            outcome.check(expected, key, from_cli_output(proc.returncode, proc.stdout))
    end_to_end(outcome, clock, setup=setup, latencies=(ref, raw),
               wall=(sum(ref), sum(raw)), cpu_s=cpu_s,
               peak_rss_mb=children_usage()[1])
