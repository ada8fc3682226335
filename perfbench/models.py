"""Input models for the benchmark: the ladder families and the frozen corpus.

Two scaled ``.rml`` families are generated here, deterministically, from
their shape parameters:

* ``pipeline_rml(stages, mask, retention)`` — the paper's instruction-decode
  pipeline widened to ``stages`` valid/data stages, with the output hold
  state machine, ``FAIRNESS !stall`` and ``DONTCARE !out_valid``.  ``mask``
  selects which per-stage staging properties (one fair ``A[.. U ..]`` pair
  per stage boundary) join the always-present output staging and stall
  retention properties; ``retention`` adds the hold-period retention pair
  that closes the pipeline's biggest coverage hole.
* ``queue_rml(depth, suite)`` — the paper's circular queue at any depth,
  with the ``initial`` / ``extended`` / ``final`` wrap-bit suites.

The small models used by ``cold-run``, ``suite-batch`` and ``serve-mix``
are not generated at run time: they live in ``corpus.jsonl`` (written once
by ``make_expected.py`` from ``repro.gen`` and the repository's examples),
so a change to the generator cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus.jsonl"
EXPECTED = HERE / "expected.json"

QUEUE_SUITES = ("initial", "extended", "final")


def load_corpus() -> List[Dict]:
    """The frozen small-model corpus: ``{"name", "family", "text"}`` rows."""
    import json

    with open(CORPUS) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digest(text: str) -> str:
    """The input digest expected answers are keyed by."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def set_digest(texts) -> str:
    """One digest over an ordered sequence of inputs."""
    h = hashlib.sha256()
    for text in texts:
        h.update(digest(text).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Scaled pipeline
# ----------------------------------------------------------------------


def pipeline_rml(stages: int, mask: int, retention: bool) -> str:
    """``stages``-stage pipeline; bit ``k-1`` of ``mask`` adds the staging
    pair from stage ``k`` to stage ``k+1`` (``k`` in ``1..stages-1``)."""
    s = stages
    lines = [
        f"-- perfbench ladder: {s}-stage pipeline, staging mask {mask:#x}, "
        f"retention {'on' if retention else 'off'}",
        f"MODULE pipeline{s}_m{mask}{'r' if retention else ''}",
        "VAR",
        "  in_valid : boolean;",
        "  in_data : boolean;",
        "  stall : boolean;",
    ]
    for k in range(1, s + 1):
        lines.append(f"  v{k} : boolean;")
        lines.append(f"  d{k} : boolean;")
    lines += [
        "  h : word[2];",
        "DEFINE",
        "  advance := !stall & h = 0;",
        f"  arriving := advance & v{s - 1};",
        f"  output := d{s};",
        f"  out_valid := v{s};",
        "ASSIGN",
    ]
    src_v, src_d = "in_valid", "in_data"
    for k in range(1, s + 1):
        lines += [
            f"  init(v{k}) := 0;",
            f"  init(d{k}) := 0;",
            f"  next(v{k}) := case advance : {src_v}; TRUE : v{k}; esac;",
            f"  next(d{k}) := case advance : {src_d}; TRUE : d{k}; esac;",
        ]
        src_v, src_d = f"v{k}", f"d{k}"
    lines += [
        "  init(h) := 0;",
        "  next(h) := case arriving : 2; h = 2 : 1; TRUE : 0; esac;",
        "FAIRNESS !stall;",
    ]
    for k in range(1, s):
        if not mask >> (k - 1) & 1:
            continue
        dst = "output" if k + 1 == s else f"d{k + 1}"
        for b in (0, 1):
            lines.append(
                f"SPEC AG (v{k} & d{k} = {b} -> "
                f"A [v{k} & d{k} = {b} U v{k + 1} & {dst} = {b}]);"
            )
    for b in (0, 1):
        lines.append(
            f"SPEC AG (!stall & h = 0 & v{s - 1} & d{s - 1} = {b} -> "
            f"AX (v{s} & output = {b}));"
        )
    for b in (0, 1):
        lines.append(
            f"SPEC AG (stall & h = 0 & v{s} & output = {b} -> AX output = {b});"
        )
    if retention:
        for b in (0, 1):
            lines.append(f"SPEC AG (h != 0 & output = {b} -> AX output = {b});")
    lines += ["OBSERVED output;", "DONTCARE !out_valid;", ""]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Scaled circular queue
# ----------------------------------------------------------------------


def _width(depth: int) -> int:
    return max(1, (depth - 1).bit_length())


def queue_rml(depth: int, suite: str) -> str:
    """Depth-``depth`` circular queue with a wrap-bit suite."""
    if suite not in QUEUE_SUITES:
        raise ValueError(f"unknown queue suite {suite!r}")
    top = depth - 1
    w = _width(depth)
    idle = "!stall & !clear & !reset"
    lines = [
        f"-- perfbench ladder: depth-{depth} circular queue, {suite} wrap suite",
        f"MODULE queue{depth}_{suite}",
        "VAR",
        "  push : boolean;",
        "  pop : boolean;",
        "  stall : boolean;",
        "  clear : boolean;",
        "  reset : boolean;",
        f"  rd : word[{w}];",
        f"  wr : word[{w}];",
        "  wrap : boolean;",
        "DEFINE",
        "  zero := clear | reset;",
        "  same_ptr := rd = wr;",
        "  full := same_ptr & wrap;",
        "  empty := same_ptr & !wrap;",
        "  do_push := push & !stall & !zero & !full;",
        "  do_pop := pop & !stall & !zero & !empty;",
        f"  wr_wrap := do_push & wr = {top};",
        f"  rd_wrap := do_pop & rd = {top};",
        "ASSIGN",
        "  init(wr) := 0;",
        f"  next(wr) := case zero : 0; do_push & wr = {top} : 0; "
        "do_push : wr + 1; TRUE : wr; esac;",
        "  init(rd) := 0;",
        f"  next(rd) := case zero : 0; do_pop & rd = {top} : 0; "
        "do_pop : rd + 1; TRUE : rd; esac;",
        "  init(wrap) := FALSE;",
        "  next(wrap) := case zero : FALSE; "
        "TRUE : wrap ^ (wr_wrap ^ rd_wrap); esac;",
        "SPEC AG (reset -> AX !wrap);",
        "SPEC AG (clear & !reset -> AX !wrap);",
        f"SPEC AG ({idle} & push & wr = {top} & !full & !wrap & "
        f"!(pop & rd = {top} & !empty) -> AX wrap);",
        f"SPEC AG ({idle} & push & wr = {top} & !full & wrap & "
        f"!(pop & rd = {top} & !empty) -> AX !wrap);",
        f"SPEC AG ({idle} & pop & rd = {top} & !empty & wrap & "
        f"!(push & wr = {top} & !full) -> AX !wrap);",
        f"SPEC AG ({idle} & pop & rd = {top} & !empty & !wrap & "
        f"!(push & wr = {top} & !full) -> AX wrap);",
        f"SPEC AG ({idle} & !push & !pop & !wrap -> AX !wrap);",
    ]
    if suite in ("extended", "final"):
        lines += [
            f"SPEC AG ({idle} & push & wr != {top} & !full & !wrap & "
            f"!(pop & rd = {top}) -> AX !wrap);",
            f"SPEC AG ({idle} & pop & rd != {top} & !empty & wrap & "
            f"!(push & wr = {top}) -> AX wrap);",
            f"SPEC AG ({idle} & push & wr = {top} & !full & pop & rd = {top} "
            "& !empty & wrap -> AX wrap);",
            f"SPEC AG ({idle} & push & wr = {top} & !full & pop & rd = {top} "
            "& !empty & !wrap -> AX !wrap);",
        ]
    if suite == "final":
        lines += [
            "SPEC AG (stall & !clear & !reset & !wrap -> AX !wrap);",
            "SPEC AG (stall & !clear & !reset & wrap -> AX wrap);",
        ]
    lines += ["OBSERVED wrap;", ""]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ladder catalogue
# ----------------------------------------------------------------------

#: ``ladder``'s shapes.  Pipelines: stage count -> how many staging masks
#: (a fixed sample; all eight for 4 stages).  Queues: every depth in range,
#: each with all three wrap suites.
LADDER_PIPELINES = {4: 8, 5: 14, 6: 14, 7: 14, 8: 10}
LADDER_QUEUE_DEPTHS = range(8, 22)

#: ``suite-batch``'s heavy tail: queues of depth 28 to 31.
HEAVY_QUEUE_DEPTHS = range(28, 32)


def _pipeline(stages: int, mask: int, retention: bool) -> Tuple[str, str]:
    name = f"pipeline-s{stages}-m{mask}{'-r' if retention else ''}"
    return name, pipeline_rml(stages, mask, retention)


def ladder_shapes() -> List[Tuple[str, int, List[Tuple[str, str]]]]:
    """``ladder``'s inputs as ``(shape, picks, [(name, text)])``.

    A run sends ``picks`` distinct variants of every shape: one of the two
    variants of each pipeline (with or without the hold-retention pair,
    which adds two cheap properties), and all three wrap suites of each
    queue.  So every seed sends the same models and nearly the same work;
    only the pipelines' property suites differ.
    """
    pick = random.Random("perfbench-ladder-catalogue")
    shapes = []
    for s, count in LADDER_PIPELINES.items():
        for mask in sorted(pick.sample(range(1 << (s - 1)), count)):
            shapes.append((f"pipeline-s{s}-m{mask}", 1,
                           [_pipeline(s, mask, r) for r in (False, True)]))
    for d in LADDER_QUEUE_DEPTHS:
        shapes.append((f"queue-d{d}", len(QUEUE_SUITES),
                       [(f"queue-d{d}-{suite}", queue_rml(d, suite))
                        for suite in QUEUE_SUITES]))
    return shapes


def heavy_models() -> List[Tuple[str, str]]:
    """``suite-batch``'s ladder-sized models: every wrap suite of the
    deepest queues.  (Pipelines of the same cost peak at twice the memory,
    and which suite worker happens to run them would set the peak.)"""
    return [
        (f"queue-d{d}-{suite}", queue_rml(d, suite))
        for d in HEAVY_QUEUE_DEPTHS for suite in QUEUE_SUITES
    ]
