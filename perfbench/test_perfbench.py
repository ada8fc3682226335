"""Self-tests of the benchmark's inputs and answer check.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cold_run  # noqa: E402
import ladder  # noqa: E402
import layers  # noqa: E402
import serve_mix  # noqa: E402
import suite_batch  # noqa: E402
from answers import Expected  # noqa: E402
from common import Outcome  # noqa: E402
from models import EXPECTED, set_digest  # noqa: E402

SECONDS = 20


def _plan(workload, seed):
    if workload is ladder:
        return ladder.plan(seed)
    if workload is suite_batch:
        return [job for jobs in suite_batch.plan(seed, SECONDS) for job in jobs]
    return workload.plan(seed, SECONDS)


def _texts(workload, seed):
    """Every input a run sends (request bodies for ``serve-mix``)."""
    return [text for _, _, text in _plan(workload, seed)]


def _size_class(workload, seed):
    """What a seed must not change: how many inputs of which kind."""
    if workload is ladder:
        return Counter(family for family, _, _ in ladder.plan(seed))
    if workload is suite_batch:
        return [len(jobs) for jobs in suite_batch.plan(seed, SECONDS)]
    return len(_plan(workload, seed))


WORKLOADS = [ladder, cold_run, suite_batch, serve_mix]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_same_seed_same_inputs(workload):
    assert set_digest(_texts(workload, 7)) == set_digest(_texts(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_other_seed_other_inputs_same_size_class(workload):
    assert set_digest(_texts(workload, 7)) != set_digest(_texts(workload, 8))
    assert _size_class(workload, 7) == _size_class(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.__name__)
def test_every_input_has_an_expected_answer(workload):
    expected = Expected()
    keys = {key for _, key, _ in _plan(workload, 7)}
    assert keys and all(key in expected for key in keys)


def test_ladder_inputs_are_distinct():
    texts = _texts(ladder, 7)
    assert len(texts) >= 100 and len(set(texts)) == len(texts)


def test_corrupted_expected_entry_fails_the_check(tmp_path):
    copy = tmp_path / "expected.json"
    shutil.copyfile(EXPECTED, copy)
    _, key, text = ladder.plan(7)[0]
    doc = json.loads(copy.read_text())
    want = doc["entries"][key]["answer"]
    want["status"] = "fail" if want["status"] == "ok" else "ok"
    copy.write_text(json.dumps(doc))

    got = layers.analyse(text)
    assert Expected().mismatch(key, got) is None
    outcome = Outcome()
    assert not outcome.check(Expected(copy), key, got)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, False)
    assert json.loads(EXPECTED.read_text())["entries"][key]["answer"] != want
