"""Regenerate the benchmark's frozen corpus and its expected answers.

    PYTHONPATH=src python3 perfbench/make_expected.py

Entries already in ``expected.json`` are kept and only new inputs are
analysed; delete ``expected.json`` to recompute every answer, and
``corpus.jsonl`` to rebuild the corpus too.

``corpus.jsonl`` holds the small models (``repro.gen`` scenarios under
fixed keys, plus copies of ``examples/*.rml``).  ``expected.json`` holds,
for every corpus model and every ladder input, the answer an analysis must
give and where it came from.  Sources, strongest first:

``oracle``
    The explicit-state oracle: the model is enumerated state by state
    (``repro.fsm.explicit``), each property is checked with
    ``ExplicitModelChecker``, and the covered set is re-derived by
    Definition-3 mutation (``repro.coverage.mutation``).  Used on
    fairness-free models small enough for mutation.
``closed-form``
    The queue family's coverage as a function of depth
    (``QUEUE_CLOSED_FORMS``), checked against the oracle at small depths
    before any entry is written.
``backends``
    The ``dict`` and ``array`` BDD backends agree.  Weaker: both share the
    symbolic algorithms.  Used for coverage under ``FAIRNESS`` (which the
    mutation oracle here does not check) and for models too large to
    enumerate.  Where the oracle could still enumerate the model, verdicts
    and the reachable-state count are checked explicitly and say so.

Every entry also records that both backends agree with it; a disagreement
between any two sources aborts the run without writing anything.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from answers import SCHEMA, answer, from_result  # noqa: E402
from models import (  # noqa: E402
    CORPUS,
    EXPECTED,
    QUEUE_SUITES,
    digest,
    heavy_models,
    ladder_shapes,
    load_corpus,
    queue_rml,
)

#: Corpus shape: ``repro.gen`` scenarios under keys ``perfbench:0..N-1``.
GEN_KEY = "perfbench:{}"
GEN_COUNT = 800

#: Largest model the oracle enumerates, and the largest it mutates.
ENUM_CAP = 20_000
MUTATION_CAP = 400

#: Queue coverage as (covered, space) per depth ``d`` for each suite; the
#: space is every reachable (rd, wr, wrap) triple times the 32 input
#: valuations.
QUEUE_CLOSED_FORMS = {
    "initial": lambda d: (16 * d * (d + 3), 32 * d * (d + 1)),
    "extended": lambda d: (32 * (d * d + 1), 32 * d * (d + 1)),
    "final": lambda d: (32 * d * (d + 1), 32 * d * (d + 1)),
}
QUEUE_ORACLE_DEPTHS = (2, 3, 4)
#: The mutation cap for those depths (depth 4 has 640 states).
QUEUE_MUTATION_CAP = 700


def build_corpus(repo: Path) -> None:
    from repro.gen import generate

    rows = [
        {"name": path.stem, "family": "example", "text": path.read_text()}
        for path in sorted((repo / "examples").glob("*.rml"))
    ]
    for i in range(GEN_COUNT):
        rows.append({
            "name": f"g{i:04d}", "family": "gen",
            "text": generate(GEN_KEY.format(i)).text,
        })
    with open(CORPUS, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def symbolic(text: str, backend: str):
    from repro import Analysis, EngineConfig

    analysis = Analysis.from_rml(text, config=EngineConfig(backend=backend))
    return analysis, from_result(analysis.result())


def oracle(analysis, want_coverage: bool, mutation_cap: int = MUTATION_CAP):
    """Explicit-state answer for an elaborated analysis, or ``None`` when
    the model is too large to enumerate.  Returns ``(answer, n_reachable,
    covered_checked)``."""
    from repro.coverage.mutation import mutation_covered
    from repro.errors import ModelError
    from repro.expr.bitvector import resolve_words
    from repro.fsm.explicit import enumerate_model
    from repro.mc.explicit_checker import ExplicitModelChecker

    try:
        model = enumerate_model(analysis.fsm, limit=ENUM_CAP)
    except ModelError:
        return None
    fairness = [f.expr for f in analysis.module.fairness]
    checker = ExplicitModelChecker(model, fairness=fairness)
    failing = [str(p) for p in analysis.properties if not checker.holds(p)]
    if failing:
        return answer("fail", failing), model.n, False
    if fairness or not want_coverage or model.n > mutation_cap:
        return answer("ok"), model.n, False
    space = set(range(model.n))
    if analysis.dont_care is not None:
        known = frozenset(model.signal_values[0]) if model.n else frozenset()
        dc = resolve_words(analysis.dont_care, model.words, known)
        space -= model.states_satisfying(dc)
    covered = set()
    for prop in analysis.properties:
        covered |= mutation_covered(
            model, prop, analysis.observed, candidates=sorted(space)
        )
    pct = 100.0 * len(covered) / len(space) if space else 100.0
    return answer("ok", (), len(covered), len(space), pct), model.n, True


def entry_for(name: str, text: str, closed_form=None) -> dict:
    analysis, sym = symbolic(text, "dict")
    _, sym_array = symbolic(text, "array")
    if sym != sym_array:
        raise SystemExit(f"{name}: dict and array backends disagree")
    if sym["status"].startswith("error"):
        raise SystemExit(f"{name}: analysis error {sym['status']}")
    sources = ["dict and array backends agree"]
    got = oracle(analysis, want_coverage=closed_form is None)
    strongest = "backends"
    if got is not None:
        ora, n_reach, covered_checked = got
        if ora["status"] != sym["status"] or ora["failing"] != sym["failing"]:
            raise SystemExit(f"{name}: oracle verdicts disagree: {ora} vs {sym}")
        space_reach = analysis.fsm.count_states(analysis.fsm.reachable())
        if n_reach != space_reach:
            raise SystemExit(f"{name}: oracle reaches {n_reach}, BDDs {space_reach}")
        if covered_checked:
            if ora != sym:
                raise SystemExit(f"{name}: oracle coverage disagrees: {ora} vs {sym}")
            strongest = "oracle"
            sources.insert(0, "explicit oracle: verdicts, reachable count, "
                              "Definition-3 mutation coverage")
        else:
            sources.insert(0, "explicit oracle: verdicts and reachable count")
            if sym["status"] == "fail":
                strongest = "oracle"
    if closed_form is not None:
        label, (covered, space) = closed_form
        if (sym["covered"], sym["space"]) != (covered, space):
            raise SystemExit(f"{name}: closed form {label} gives {covered}/{space}")
        strongest = "closed-form"
        sources.insert(0, f"closed form {label}")
    return {
        "name": name,
        "answer": sym,
        "provenance": strongest,
        "sources": sources,
    }


def check_queue_forms() -> list:
    """The closed forms against the mutation oracle at small depths."""
    checks = []
    for d in QUEUE_ORACLE_DEPTHS:
        for suite in QUEUE_SUITES:
            analysis, sym = symbolic(queue_rml(d, suite), "dict")
            ora, _, covered_checked = oracle(
                analysis, want_coverage=True, mutation_cap=QUEUE_MUTATION_CAP
            )
            want = QUEUE_CLOSED_FORMS[suite](d)
            if not covered_checked or (ora["covered"], ora["space"]) != want:
                raise SystemExit(f"queue d={d} {suite}: oracle {ora} vs form {want}")
            checks.append(f"queue d={d} {suite}: {want[0]}/{want[1]}")
    return checks


def main() -> int:
    repo = HERE.parent
    if not CORPUS.exists():
        build_corpus(repo)
    start = time.perf_counter()
    known = {}
    if EXPECTED.exists():
        known = json.loads(EXPECTED.read_text())["entries"]
    entries = {}
    for row in load_corpus():
        key = digest(row["text"])
        entries[key] = known.get(key) or entry_for(row["name"], row["text"])
    print(f"corpus: {len(entries)} entries, {time.perf_counter() - start:.1f}s",
          file=sys.stderr)
    checks = check_queue_forms()
    groups = [(shape, variants) for shape, _, variants in ladder_shapes()]
    groups.append(("heavy", heavy_models()))
    for group, items in groups:
        for name, text in items:
            form = None
            if name.startswith("queue-"):
                _, d, suite = name.split("-")
                d = int(d[1:])
                covered, space = QUEUE_CLOSED_FORMS[suite](d)
                form = (f"{suite}: {Fraction(covered, space)} of 32*d*(d+1), "
                        f"d={d}", (covered, space))
            entry = known.get(digest(text))
            if entry is None or (
                form is not None
                and (entry["answer"]["covered"], entry["answer"]["space"]) != form[1]
            ):
                entry = entry_for(name, text, form)
            entries[digest(text)] = entry
        print(f"{group}: done, {time.perf_counter() - start:.1f}s",
              file=sys.stderr)
    doc = {
        "schema": SCHEMA,
        "generator": "perfbench/make_expected.py",
        "closed_form_checks": checks,
        "entries": entries,
    }
    with open(EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
