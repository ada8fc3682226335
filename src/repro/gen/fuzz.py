"""The fuzz campaign driver: budgets, process fan-out, reports, corpus.

:func:`run_fuzz` runs ``budget`` differential-oracle cases — each one a
freshly generated scenario keyed by ``"<seed>:<index>"`` — optionally
across work-stealing process shards (cases are embarrassingly parallel:
every case builds its own BDD managers, exactly like suite jobs; the
fan-out is :func:`repro.suite.shards.run_sharded`, so a crashed worker
costs only its shard's cases, not the campaign).  Disagreements are
greedily shrunk (:mod:`repro.gen.shrink`) in the parent process and
written as self-describing ``.rml`` reproducers into the regression
corpus directory, where the suite registry's ``.rml`` discovery picks
them up forever after.

The machine-readable outcome is a ``repro-fuzz/v1`` JSON document; its
``seed``/``index`` pairs are the reproduction handles::

    python -m repro fuzz --budget 1 --seed <seed> --offset <index>

re-runs exactly the disagreeing case.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .._node import field, record
from .._version import __version__
from ..lang.printer import module_to_str
from .model import DEFAULT_PARAMS, GenParams, generate
from .oracle import DEFAULT_AXES, Disagreement, check_module, validate_axes
from .shrink import latch_bits, shrink_module

__all__ = [
    "FUZZ_SCHEMA_ID",
    "FuzzFinding",
    "FuzzResult",
    "run_fuzz",
    "case_key",
    "write_fuzz_report",
]

#: Schema identifier of the JSON report :meth:`FuzzResult.to_json` emits.
FUZZ_SCHEMA_ID = "repro-fuzz/v1"


def case_key(seed: int, index: int) -> str:
    """The generator seed key of case ``index`` in a ``--seed seed`` run."""
    return f"{seed}:{index}"


@record
class FuzzFinding:
    """One disagreement, with its shrunken reproducer."""

    seed: int
    index: int
    axis: str
    field: str
    expected: str
    actual: str
    text: str
    shrunk_text: str
    shrunk_latches: int
    reproducer_path: Optional[str] = None

    def seed_line(self) -> str:
        """The CLI invocation that regenerates exactly this case."""
        return (
            f"python -m repro fuzz --budget 1 "
            f"--seed {self.seed} --offset {self.index}"
        )

    def to_json(self) -> Dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "seed_key": case_key(self.seed, self.index),
            "seed_line": self.seed_line(),
            "axis": self.axis,
            "field": self.field,
            "expected": self.expected,
            "actual": self.actual,
            "text": self.text,
            "shrunk_latches": self.shrunk_latches,
            "shrunk_text": self.shrunk_text,
            "reproducer_path": self.reproducer_path,
        }


@record
class FuzzResult:
    """Outcome of one fuzz campaign (JSON-ready)."""

    seed: int
    budget: int
    offset: int
    axes: Tuple[str, ...]
    params: GenParams
    cases: int = 0
    errors: List[Dict] = field(default_factory=list)
    findings: List[FuzzFinding] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every case agreed on every axis (and none crashed)."""
        return not self.findings and not self.errors

    def to_json(self) -> Dict:
        return {
            "schema": FUZZ_SCHEMA_ID,
            "generator": f"repro {__version__}",
            "seed": self.seed,
            "budget": self.budget,
            "offset": self.offset,
            "axes": list(self.axes),
            "params": self.params.to_json(),
            "totals": {
                "cases": self.cases,
                "agreed": self.cases - len(self.findings) - len(self.errors),
                "disagreed": len(self.findings),
                "errors": len(self.errors),
                "seconds": round(self.seconds, 6),
            },
            "errors": list(self.errors),
            "findings": [f.to_json() for f in self.findings],
        }

    def format_summary(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            f"fuzz: {self.cases} case(s), seed {self.seed}, "
            f"axes {','.join(self.axes)}: "
            f"{len(self.findings)} disagreement(s), "
            f"{len(self.errors)} error(s) in {self.seconds:.2f}s"
        ]
        for finding in self.findings:
            lines.append(
                f"  DISAGREE case {case_key(self.seed, finding.index)} "
                f"axis={finding.axis} field={finding.field} "
                f"({finding.shrunk_latches} latch bit(s) after shrink)"
            )
            lines.append(f"    reproduce: {finding.seed_line()}")
            if finding.reproducer_path:
                lines.append(f"    reproducer: {finding.reproducer_path}")
        for error in self.errors:
            lines.append(
                f"  ERROR case {error['seed_key']}: {error['error']}"
            )
        return "\n".join(lines)


def _run_one(args: Tuple[int, int, GenParams, Tuple[str, ...]]) -> Dict:
    """Worker body: generate one case, run the oracle, return primitives.

    Exceptions are captured as an ``error`` entry — a crash in one case
    must not take down the campaign (or its worker pool).
    """
    seed, index, params, axes = args
    key = case_key(seed, index)
    try:
        gm = generate(key, params)
        disagreement = check_module(gm.module, text=gm.text, axes=axes)
    except Exception as exc:  # noqa: BLE001 - campaign must survive
        return {
            "index": index,
            "status": "error",
            "seed_key": key,
            "error": f"{type(exc).__name__}: {exc}",
        }
    if disagreement is None:
        return {"index": index, "status": "agree", "seed_key": key}
    return {
        "index": index,
        "status": "disagree",
        "seed_key": key,
        "axis": disagreement.axis,
        "field": disagreement.field,
        "expected": disagreement.expected,
        "actual": disagreement.actual,
    }


def _shard_error_case(item, message: str) -> Dict:
    """The error entry for a case whose worker crashed before reporting
    — same shape as ``_run_one``'s own exception capture, so the report
    keeps its seed-line reproduction handle."""
    seed, index, _params, _axes = item
    return {
        "index": index,
        "status": "error",
        "seed_key": case_key(seed, index),
        "error": message,
    }


def run_fuzz(
    budget: int,
    seed: int = 0,
    offset: int = 0,
    axes: Sequence[str] = DEFAULT_AXES,
    params: Optional[GenParams] = None,
    jobs: int = 1,
    shrink: bool = True,
    corpus_dir: "str | Path | None" = None,
) -> FuzzResult:
    """Run a differential fuzz campaign of ``budget`` cases.

    Cases ``offset .. offset+budget-1`` under base ``seed`` are generated
    and cross-checked; with ``jobs > 1`` they fan out over a process pool
    (one BDD universe per process, same machinery as the suite runner).
    Disagreements are shrunk in the parent — the shrinker re-runs the
    oracle in-process, so any engine monkey-patching active in the parent
    (the harness self-test) stays in effect — and written to
    ``corpus_dir`` as reproducer ``.rml`` files when a directory is given.
    """
    axes = validate_axes(tuple(axes))
    params = params if params is not None else DEFAULT_PARAMS
    started = time.perf_counter()
    work = [(seed, i, params, axes) for i in range(offset, offset + budget)]
    if jobs <= 1 or budget <= 1:
        raw = [_run_one(item) for item in work]
    else:
        # Shard the seed space over the work-stealing executor: cases
        # are pulled by idle workers (no fixed-chunk head-of-line
        # blocking), completed verdicts are captured shard by shard, and
        # a crashed worker — exactly the bug class fuzzing hunts —
        # converts only its shard's cases to error entries instead of
        # aborting the campaign and losing every finished verdict.
        from ..suite.shards import run_sharded

        raw, _stats = run_sharded(
            work,
            _run_one,
            _shard_error_case,
            max_workers=min(jobs, budget),
            counter_prefix="fuzz.shards",
        )

    result = FuzzResult(
        seed=seed, budget=budget, offset=offset, axes=axes, params=params,
        cases=len(raw),
    )
    for case in raw:
        if case["status"] == "agree":
            continue
        if case["status"] == "error":
            result.errors.append(
                {"seed_key": case["seed_key"], "error": case["error"]}
            )
            continue
        result.findings.append(
            _build_finding(seed, case, params, axes, shrink, corpus_dir)
        )
    result.seconds = time.perf_counter() - started
    return result


def _build_finding(
    seed: int,
    case: Dict,
    params: GenParams,
    axes: Tuple[str, ...],
    shrink: bool,
    corpus_dir: "str | Path | None",
) -> FuzzFinding:
    """Regenerate, shrink, and (optionally) persist one disagreement.

    The shrink phase re-runs the (possibly broken) engine in this process,
    so any exception — including non-ReproError crashes, exactly the bug
    class fuzzing hunts — must degrade to "keep the unshrunk witness", not
    abort the campaign and lose the report.
    """
    index = case["index"]
    disagreement = Disagreement(
        axis=case["axis"], field=case["field"],
        expected=case["expected"], actual=case["actual"],
    )
    try:
        gm = generate(case_key(seed, index), params)
        module, text = gm.module, gm.text
    except Exception as exc:  # noqa: BLE001 - campaign must survive
        return FuzzFinding(
            seed=seed, index=index,
            axis=disagreement.axis, field=disagreement.field,
            expected=disagreement.expected, actual=disagreement.actual,
            text=f"<regeneration failed: {type(exc).__name__}: {exc}>",
            shrunk_text="", shrunk_latches=0,
        )
    shrunk_module, shrunk_text = module, text
    if shrink:
        axis = disagreement.axis
        # Probe only the disagreeing axis (the reference run is always
        # included); a "reference" failure needs any one axis, so pick the
        # cheapest.  This keeps shrinking ~|axes| times cheaper than
        # re-running the full oracle per candidate.
        probe_axes = (axis,) if axis in axes else ("roundtrip",)

        def still_disagrees(candidate, candidate_text) -> bool:
            try:
                found = check_module(
                    candidate, text=candidate_text, axes=probe_axes
                )
            except Exception:  # noqa: BLE001 - reject crashing candidates
                return False
            return found is not None and found.axis == axis

        try:
            shrunk_module = shrink_module(module, still_disagrees)
            shrunk_text = module_to_str(shrunk_module)
            if shrunk_module is not module:
                # Describe the *shrunken* witness: its first differing
                # field is what the reproducer actually demonstrates.
                final = check_module(
                    shrunk_module, text=shrunk_text, axes=probe_axes
                )
                if final is not None:
                    disagreement = final
        except Exception:  # noqa: BLE001 - keep the unshrunk witness
            shrunk_module, shrunk_text = module, text
    finding = FuzzFinding(
        seed=seed,
        index=index,
        axis=disagreement.axis,
        field=disagreement.field,
        expected=disagreement.expected,
        actual=disagreement.actual,
        text=text,
        shrunk_text=shrunk_text,
        shrunk_latches=latch_bits(shrunk_module),
    )
    if corpus_dir is not None:
        finding.reproducer_path = str(
            _write_reproducer(Path(corpus_dir), finding)
        )
    return finding


def _write_reproducer(corpus_dir: Path, finding: FuzzFinding) -> Path:
    """Persist a shrunken reproducer as a self-describing ``.rml`` file."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"fuzz-{finding.seed}-{finding.index}.rml"
    header = (
        f"-- repro fuzz reproducer (shrunken, "
        f"{finding.shrunk_latches} latch bit(s))\n"
        f"-- axis: {finding.axis}   field: {finding.field}\n"
        f"-- reproduce the original case: {finding.seed_line()}\n"
    )
    path.write_text(header + finding.shrunk_text)
    return path


def write_fuzz_report(result: FuzzResult, path: "str | Path") -> None:
    """Serialise :meth:`FuzzResult.to_json` as indented JSON."""
    Path(path).write_text(json.dumps(result.to_json(), indent=2) + "\n")
