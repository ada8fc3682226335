"""Expected answers: the file every operation's result is checked against.

``expected.json`` maps an input digest (see :func:`models.digest`) to the
answer an analysis of that input must give, plus where that answer came
from (``provenance``).  An answer is the part of a result a user acts on:

``status``      ``"ok"`` (every property holds) or ``"fail"``
``failing``     the failing property texts, in suite order
``covered``     covered-state count (``None`` when ``status`` is ``fail``)
``space``       coverage-space state count (``None`` likewise)
``percentage``  ``100 * covered / space`` (``None`` likewise)

The file is written by ``make_expected.py``; the benchmark only reads it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional

from models import EXPECTED

SCHEMA = "perfbench-expected/v1"

#: Printed percentages carry two decimals; the JSON ones are exact.
PERCENT_TOLERANCE = 0.005


def answer(status, failing=(), covered=None, space=None, percentage=None) -> Dict:
    return {
        "status": status,
        "failing": list(failing),
        "covered": covered,
        "space": space,
        "percentage": percentage,
    }


def from_result_json(result: Dict) -> Dict:
    """The answer inside an ``AnalysisResult.to_json()`` document."""
    if result.get("status") == "ok":
        return answer(
            "ok", (), result["covered_states"], result["space_states"],
            result["percentage"],
        )
    if result.get("status") == "fail":
        return answer("fail", result["failing_properties"])
    return answer("error:" + str(result.get("error")))


def from_result(result) -> Dict:
    """The answer inside an :class:`repro.AnalysisResult`."""
    return from_result_json(result.to_json())


def from_cli_output(returncode: int, stdout: str) -> Dict:
    """The answer printed by ``repro run FILE`` (exit 0 ok, 1 fail)."""
    lines = stdout.splitlines()
    if returncode == 0:
        for line in lines:
            words = line.split()
            # "  covered C / S reachable states = P%"
            if len(words) == 8 and words[0] == "covered" and words[5] == "states":
                return answer(
                    "ok", (), int(words[1]), int(words[3]),
                    float(words[7].rstrip("%")),
                )
        return answer("error:no coverage line")
    if returncode == 1 and lines and " FAIL on " in lines[0]:
        failing = [
            line[2:] for line in lines[1:]
            if line.startswith("  ") and not line.startswith("    ")
        ]
        return answer("fail", failing)
    return answer(f"error:exit {returncode}")


class Expected:
    """The loaded expected-answers file."""

    def __init__(self, path: Path = EXPECTED):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"{path}: not a {SCHEMA} document")
        self.path = path
        self.entries: Dict[str, Dict] = doc["entries"]

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def mismatch(self, key: str, got: Dict) -> Optional[str]:
        """``None`` when ``got`` is the expected answer for input ``key``,
        else a one-line description of the difference."""
        entry = self.entries.get(key)
        if entry is None:
            return f"{key}: no expected answer for this input"
        want = entry["answer"]
        for field in ("status", "failing", "covered", "space"):
            if got.get(field) != want[field]:
                return (
                    f"{key} ({entry['name']}): {field} {got.get(field)!r} "
                    f"!= expected {want[field]!r}"
                )
        if want["percentage"] is not None:
            pct = got.get("percentage")
            if pct is None or abs(pct - want["percentage"]) > PERCENT_TOLERANCE:
                return (
                    f"{key} ({entry['name']}): percentage {pct!r} "
                    f"!= expected {want['percentage']!r}"
                )
        return None
