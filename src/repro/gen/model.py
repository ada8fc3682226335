"""Seeded random-scenario generation: models, properties, graphs.

Every generator in this module is a pure function of a ``random.Random``
instance — the same seed always produces the same scenario, on any
platform, under any ``PYTHONHASHSEED`` (nothing here iterates a set or
hashes an object address).  That determinism is what makes a fuzz finding
a *seed line* rather than a lost artefact: ``repro fuzz`` records the
``(seed, index)`` pair, and re-running it regenerates the exact model.

Three layers:

* :func:`random_expr` / :func:`random_actl` / :func:`random_ctl` — random
  propositional expressions and CTL formulas over a given atom pool (the
  primitives the test suite's hypothesis strategies are built on);
* :func:`random_graph` — random explicit Kripke structures in the style of
  the paper's figures (the cross-validation tests' scenario source);
* :func:`random_module` / :func:`generate` — whole random ``.rml`` modules:
  latches, free inputs, a word register, ``case`` blocks with reset shapes,
  combinational defines, fairness, don't-cares, observed signals, and an
  ACTL property suite that is *guaranteed syntactically valid* over the
  module's signals (and biased toward properties that actually hold, so the
  coverage pipeline is exercised, not just the verdict path).

A generated module is always canonical: the raw AST is printed and
re-parsed once, so ``parse_module(gm.text) == gm.module`` holds by
construction and the differential oracle's round-trip axis checks the
printer/parser pair instead of the generator's whims.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .._node import fields, record, replace
from ..ctl.ast import (
    AF,
    AG,
    AU,
    AX,
    EF,
    EG,
    EU,
    EX,
    Atom,
    CtlAnd,
    CtlFormula,
    CtlImplies,
    CtlNot,
    CtlOr,
    collapse,
)
from ..errors import ConfigError
from ..expr.ast import And, Const, Expr, Iff, Implies, Not, Or, Var, WordCmp, Xor
from ..fsm.explicit import ExplicitGraph
from ..lang.ast import (
    Case,
    CaseArm,
    DefineDecl,
    FairnessDecl,
    InitAssign,
    Module,
    NextAssign,
    SpecDecl,
    VarDecl,
    WordConst,
    WordOffset,
    WordRef,
)
from ..lang.parser import parse_module
from ..lang.printer import module_to_str

__all__ = [
    "GenParams",
    "GeneratedModel",
    "generate",
    "random_module",
    "random_expr",
    "random_actl",
    "random_ctl",
    "random_graph",
]


@record(frozen=True)
class GenParams:
    """Knobs of the random-model generator — one frozen, picklable value.

    All counts are inclusive upper bounds; the generator draws the actual
    shape per model.  The defaults keep models small enough for the
    explicit-state oracle (worst case a few hundred states) while still
    covering every language feature: word registers with ripple-carry
    increments (these exercise ``apply_xor``), ``case`` blocks with reset
    arms, combinational defines, fairness, and don't-cares.
    """

    max_bool_latches: int = 3
    max_inputs: int = 2
    p_word: float = 0.75
    min_word_width: int = 2
    max_word_width: int = 3
    max_defines: int = 2
    max_specs: int = 3
    atom_depth: int = 2
    spec_depth: int = 2
    p_case: float = 0.5
    p_reset_input: float = 0.35
    p_fairness: float = 0.15
    p_dontcare: float = 0.15
    p_failing_spec: float = 0.25

    def __post_init__(self) -> None:
        if self.max_bool_latches < 1:
            raise ConfigError("max_bool_latches must be >= 1")
        if self.max_inputs < 0:
            raise ConfigError("max_inputs must be >= 0")
        if not 1 <= self.min_word_width <= self.max_word_width:
            raise ConfigError(
                "word widths must satisfy 1 <= min_word_width <= max_word_width"
            )
        if self.max_specs < 1:
            raise ConfigError("max_specs must be >= 1")
        if self.atom_depth < 0 or self.spec_depth < 0:
            raise ConfigError("depths must be >= 0")
        for name in ("p_word", "p_case", "p_reset_input", "p_fairness",
                     "p_dontcare", "p_failing_spec"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be a probability in [0, 1]")

    def with_(self, **changes) -> "GenParams":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def to_json(self) -> Dict:
        """JSON-safe dict with every knob explicit (for fuzz reports)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: Dict) -> "GenParams":
        """Inverse of :meth:`to_json`; unknown keys raise ``ConfigError``."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown generator param(s): {', '.join(unknown)}"
            )
        return cls(**data)


#: The default parameter set (used when the CLI passes none).
DEFAULT_PARAMS = GenParams()


# ----------------------------------------------------------------------
# Expression / formula generation
# ----------------------------------------------------------------------


def random_expr(rng: random.Random, atoms: Sequence[Expr], depth: int) -> Expr:
    """A random propositional expression over the given atom pool.

    ``atoms`` are used verbatim as leaves; internal nodes draw from the
    full connective set (including ``^`` so the BDD ``apply_xor`` path is
    exercised by generated logic).
    """
    if not atoms:
        raise ConfigError("random_expr needs a non-empty atom pool")
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(list(atoms))
    shape = rng.randrange(6)
    if shape == 0:
        return Not(random_expr(rng, atoms, depth - 1))
    lhs = random_expr(rng, atoms, depth - 1)
    rhs = random_expr(rng, atoms, depth - 1)
    if shape == 1:
        return And((lhs, rhs))
    if shape == 2:
        return Or((lhs, rhs))
    if shape == 3:
        return Xor(lhs, rhs)
    if shape == 4:
        return Iff(lhs, rhs)
    return Implies(lhs, rhs)


def random_actl(
    rng: random.Random, atoms: Sequence[Expr], depth: int
) -> CtlFormula:
    """A random member of the paper's acceptable ACTL subset.

    Shapes mirror the grammar ``f ::= b | b -> f | AX f | AG f | AF f |
    A[f U g] | f & g``, so every result passes
    :func:`~repro.ctl.actl.normalize_for_coverage`.
    """
    if not atoms:
        raise ConfigError("random_actl needs a non-empty atom pool")
    if depth <= 0:
        return Atom(rng.choice(list(atoms)))
    sub = lambda: random_actl(rng, atoms, depth - 1)  # noqa: E731
    shape = rng.randrange(7)
    if shape == 0:
        return Atom(rng.choice(list(atoms)))
    if shape == 1:
        return CtlImplies(Atom(rng.choice(list(atoms))), sub())
    if shape == 2:
        return AX(sub())
    if shape == 3:
        return AG(sub())
    if shape == 4:
        return AF(sub())
    if shape == 5:
        return AU(sub(), sub())
    return CtlAnd((sub(), sub()))


def random_ctl(
    rng: random.Random, atoms: Sequence[Expr], depth: int
) -> CtlFormula:
    """A random formula of the *full* CTL (both path quantifiers).

    The cross-validation tests use this to compare the symbolic checker
    against the explicit oracle on operators outside the coverage subset.
    """
    if not atoms:
        raise ConfigError("random_ctl needs a non-empty atom pool")
    if depth <= 0:
        return Atom(rng.choice(list(atoms)))
    sub = lambda: random_ctl(rng, atoms, depth - 1)  # noqa: E731
    shape = rng.randrange(13)
    if shape == 0:
        return Atom(rng.choice(list(atoms)))
    if shape == 1:
        return CtlNot(sub())
    if shape == 2:
        return CtlAnd((sub(), sub()))
    if shape == 3:
        return CtlOr((sub(), sub()))
    if shape == 4:
        return CtlImplies(sub(), sub())
    if shape == 5:
        return AX(sub())
    if shape == 6:
        return AG(sub())
    if shape == 7:
        return AF(sub())
    if shape == 8:
        return AU(sub(), sub())
    if shape == 9:
        return EX(sub())
    if shape == 10:
        return EG(sub())
    if shape == 11:
        return EF(sub())
    return EU(sub(), sub())


def random_graph(
    rng: random.Random,
    max_states: int = 5,
    labels: Sequence[str] = ("p", "q"),
) -> ExplicitGraph:
    """A random explicit Kripke structure (total relation, >= 1 initial).

    The shape matches what the property-based cross-validation tests used
    to build inline: 2..``max_states`` states, 1-3 successors each, label
    subsets drawn per state.
    """
    n = rng.randint(2, max_states)
    label_sets = [
        [lab for lab in labels if rng.random() < 0.5] for _ in range(n)
    ]
    initial = rng.sample(range(n), rng.randint(1, min(2, n)))
    graph = ExplicitGraph("random", signals=list(labels))
    for i in range(n):
        graph.state(f"s{i}", labels=label_sets[i], initial=(i in initial))
    for i in range(n):
        targets = sorted(
            {rng.randrange(n) for _ in range(rng.randint(1, 3))}
        )
        for j in targets:
            graph.edge(f"s{i}", f"s{j}")
    return graph


# ----------------------------------------------------------------------
# Module generation
# ----------------------------------------------------------------------


@record(frozen=True)
class GeneratedModel:
    """One generated scenario: canonical module AST + its ``.rml`` text.

    ``module`` is always exactly ``parse_module(text)`` — the generator
    prints its raw AST and re-parses once, so the pair is in the parser's
    canonical form and a reproducer file round-trips losslessly.
    """

    seed_key: str
    params: GenParams
    module: Module
    text: str

    def analysis(self, config=None):
        """A fresh :class:`~repro.analysis.Analysis` over the module text
        (the same construction path the CLI's ``run`` subcommand uses)."""
        from ..analysis import Analysis

        return Analysis.from_rml(
            self.text, config=config, filename=self.module.name
        )


def generate(seed_key, params: Optional[GenParams] = None) -> GeneratedModel:
    """Generate the scenario for ``seed_key`` (any int or string).

    The key is stringified before seeding so ``generate(7)`` and
    ``generate("7")`` coincide and fuzz case keys like ``"0:17"`` work
    directly.
    """
    params = params if params is not None else DEFAULT_PARAMS
    rng = random.Random(str(seed_key))
    name = "fuzz_" + "".join(
        ch if ch.isalnum() else "_" for ch in str(seed_key)
    )
    module = random_module(rng, params, name=name)
    text = module_to_str(module)
    return GeneratedModel(
        seed_key=str(seed_key), params=params, module=module, text=text
    )


def _word_atoms(rng: random.Random, word: str, width: int) -> List[Expr]:
    """Comparison atoms over a word register, constants kept in range."""
    top = (1 << width) - 1
    return [
        WordCmp("==", word, rng.randint(0, top)),
        WordCmp("<", word, rng.randint(1, top)),
        WordCmp(">=", word, rng.randint(0, top)),
        WordCmp("!=", word, rng.randint(0, top)),
    ]


def random_module(
    rng: random.Random,
    params: Optional[GenParams] = None,
    name: str = "fuzz",
) -> Module:
    """A random, well-formed ``.rml`` module (canonical AST).

    Guarantees: at least one latch, at least one ``OBSERVED`` signal, at
    least one ``SPEC`` from the acceptable ACTL subset over declared
    signals — i.e. the module elaborates and analyses without errors.
    The property suite is verified during generation (on the module's own
    FSM) and biased toward holding properties so most scenarios exercise
    the full coverage/trace pipeline; with probability
    ``params.p_failing_spec`` one failing property is kept to exercise the
    verdict path.
    """
    params = params if params is not None else DEFAULT_PARAMS

    n_bool = rng.randint(1, params.max_bool_latches)
    n_inputs = rng.randint(0, params.max_inputs)
    has_word = rng.random() < params.p_word
    width = rng.randint(params.min_word_width, params.max_word_width)
    has_reset = rng.random() < params.p_reset_input

    inputs = [f"in{i}" for i in range(n_inputs)]
    if has_reset:
        inputs.append("reset")
    bools = [f"b{i}" for i in range(n_bool)]
    word = "w0" if has_word else None

    decls: List[VarDecl] = [VarDecl(nm) for nm in inputs]
    decls += [VarDecl(nm) for nm in bools]
    if word:
        decls.append(VarDecl(word, width=width))

    # Atom pool over current-state signals (defines join below).
    atoms: List[Expr] = [Var(nm) for nm in inputs + bools]
    if word:
        atoms.extend(_word_atoms(rng, word, width))
    if not atoms:  # no inputs, no word: bools is non-empty, unreachable
        atoms = [Var(bools[0])]  # pragma: no cover - defensive

    defines: List[DefineDecl] = []
    for i in range(rng.randint(0, params.max_defines)):
        defines.append(
            DefineDecl(f"d{i}", random_expr(rng, atoms, params.atom_depth))
        )
        atoms.append(Var(f"d{i}"))

    inits: List[InitAssign] = []
    nexts: List[NextAssign] = []
    for latch in bools:
        inits.append(InitAssign(latch, rng.randint(0, 1)))
        nexts.append(NextAssign(latch, _bool_next(rng, params, atoms)))
    if word:
        inits.append(InitAssign(word, rng.randint(0, (1 << width) - 1)))
        nexts.append(NextAssign(word, _word_next(rng, params, atoms, word, width)))

    fairness: Tuple[FairnessDecl, ...] = ()
    if rng.random() < params.p_fairness:
        fairness = (FairnessDecl(random_expr(rng, atoms, 1)),)

    dont_care: Optional[Expr] = None
    if rng.random() < params.p_dontcare:
        dont_care = random_expr(rng, atoms, 1)

    observable = bools + ([word] if word else []) + [d.name for d in defines]
    observed = tuple(
        sorted(rng.sample(observable, rng.randint(1, min(2, len(observable)))))
    )

    base = Module(
        name=name,
        vars=tuple(decls),
        inits=tuple(inits),
        nexts=tuple(nexts),
        defines=tuple(defines),
        fairness=fairness,
        observed=observed,
        dont_care=dont_care,
    )
    specs = _select_specs(rng, params, base, atoms)
    raw = replace(base, specs=tuple(SpecDecl(f) for f in specs))
    # Canonicalise: the parser's output (collapsed formulas, flattened
    # n-ary connectives) is the fixpoint of print -> parse, which is what
    # the oracle's round-trip axis and the shrinker both rely on.
    return parse_module(module_to_str(raw), filename=name)


def _bool_next(rng: random.Random, params: GenParams, atoms: List[Expr]) -> object:
    """Next-state logic for a boolean latch: plain expression or case."""
    if rng.random() >= params.p_case:
        return random_expr(rng, atoms, params.atom_depth)
    arms: List[CaseArm] = []
    if "reset" in {a.name for a in atoms if isinstance(a, Var)}:
        arms.append(CaseArm(Var("reset"), Const(False)))
    for _ in range(rng.randint(0, 1)):
        arms.append(
            CaseArm(random_expr(rng, atoms, 1), random_expr(rng, atoms, 1))
        )
    arms.append(CaseArm(Const(True), random_expr(rng, atoms, params.atom_depth)))
    return Case(tuple(arms))


def _word_next(
    rng: random.Random,
    params: GenParams,
    atoms: List[Expr],
    word: str,
    width: int,
) -> object:
    """Next-state logic for the word register.

    Always a ``case`` with a wrap arm and an increment/decrement default —
    the ripple-carry lowering of ``w0 + 1`` is the module's dose of
    ``Xor``-heavy logic, mirroring the paper's counter shape.
    """
    top = (1 << width) - 1
    wrap_at = rng.randint(1, top)
    step = WordOffset(word, rng.choice([1, 1, -1]))
    arms: List[CaseArm] = []
    if "reset" in {a.name for a in atoms if isinstance(a, Var)}:
        arms.append(CaseArm(Var("reset"), WordConst(0)))
    hold_or_clear = rng.choice(
        [WordRef(word), WordConst(0), WordConst(rng.randint(0, top))]
    )
    arms.append(
        CaseArm(WordCmp("==", word, wrap_at), hold_or_clear)
    )
    if rng.random() < 0.5:
        arms.append(CaseArm(random_expr(rng, atoms, 1), WordRef(word)))
    arms.append(CaseArm(Const(True), step))
    return Case(tuple(arms))


def _select_specs(
    rng: random.Random,
    params: GenParams,
    base: Module,
    atoms: List[Expr],
) -> List[CtlFormula]:
    """Generate candidate ACTL properties and pick a suite, verified.

    Candidates are model checked on the module's own FSM so most kept
    properties hold (exercising coverage estimation and trace extraction
    downstream); occasionally a failing property is kept deliberately.
    Falls back to unverified candidates if the module cannot be model
    checked — generation must never crash on its own output.
    """
    from ..lang.elaborate import elaborate
    from ..mc.checker import ModelChecker

    candidates = [
        collapse(random_actl(rng, atoms, params.spec_depth))
        for _ in range(3 * params.max_specs)
    ]
    n_specs = rng.randint(1, params.max_specs)
    keep_failing = rng.random() < params.p_failing_spec
    try:
        model = elaborate(base)
        checker = ModelChecker(model.fsm)
        verdicts = [checker.holds(f) for f in candidates]
    except Exception:  # pragma: no cover - generator self-consistency
        return candidates[:n_specs]
    holding = [f for f, ok in zip(candidates, verdicts) if ok]
    failing = [f for f, ok in zip(candidates, verdicts) if not ok]
    specs = holding[:n_specs]
    if not specs:
        specs = candidates[:1]
    elif failing and keep_failing:
        # Swap one holding property for a failing one, never exceeding
        # the drawn suite size.
        specs = specs[: n_specs - 1] + [failing[0]]
    return specs
