"""The RML001…RML016 analysis battery.

Each rule is a function over a shared :class:`LintContext` (symbol
table, dependency graph, constant env, raw source text) appending
:class:`~repro.lint.diagnostics.Diagnostic` records.  Rules are
independent and engine-free: everything is derived from the parsed
module, never from a built BDD model.

Error-severity rules (RML001–RML005) statically mirror the elaborator's
validation so ``repro lint`` predicts, with positions, exactly what
``elaborate()`` would reject; warning rules find models the engine
happily accepts but whose verification is structurally hollow — the
paper's "looks done, isn't" failure mode caught before any BDD work.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from .._node import field, record
from ..ctl.ast import (
    AU,
    EU,
    Atom,
    CtlAnd,
    CtlFormula,
    CtlIff,
    CtlImplies,
    CtlNot,
    CtlOr,
    CtlXor,
    formula_atoms,
    is_propositional,
    to_expr,
)
from ..expr.ast import (
    And,
    Const,
    Expr,
    Iff,
    Implies,
    Not,
    Or,
    WordCmp,
    Xor,
)
from ..lang.ast import (
    Case,
    Module,
    NextAssign,
    WordConst,
    WordExpr,
    WordOffset,
    WordRef,
    WordSum,
)
from .coi import observed_cone, spec_seeds, union_property_cone
from .deps import DepGraph, build_deps, define_cycles, value_atoms
from .diagnostics import Diagnostic
from .folding import (
    ConstEnv,
    cmp_constant_by_width,
    constant_env,
    fold_expr,
)
from .symbols import KIND_INPUT, KIND_LATCH, SymbolTable

__all__ = ["LintContext", "run_rules"]


@record
class LintContext:
    """Shared state for one module's rule run."""

    module: Module
    table: SymbolTable
    graph: DepGraph
    env: ConstEnv
    filename: str
    text: Optional[str] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: name -> codes already reported for it (cross-rule noise control).
    flagged: Dict[str, Set[str]] = field(default_factory=dict)

    def emit(
        self, code: str, message: str, line: int = 0, column: int = 0,
        about: Optional[str] = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(code, message, self.filename, line, column)
        )
        if about is not None:
            self.flagged.setdefault(about, set()).add(code)

    def locate(self, keyword: str, name: Optional[str] = None) -> Tuple[int, int]:
        """Best-effort raw-text anchor for constructs the AST carries no
        position for (``OBSERVED`` names, ``DONTCARE``): the first
        occurrence of ``name`` at or after the ``keyword`` line."""
        if self.text is None:
            return (0, 0)
        lines = self.text.splitlines()
        start = next(
            (i for i, raw in enumerate(lines)
             if raw.split("--", 1)[0].strip().startswith(keyword)),
            None,
        )
        if start is None:
            return (0, 0)
        if name is None:
            return (start + 1, lines[start].index(keyword) + 1)
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        for i in range(start, len(lines)):
            match = pattern.search(lines[i].split("--", 1)[0])
            if match is not None:
                return (i + 1, match.start() + 1)
        return (start + 1, lines[start].index(keyword) + 1)

    def next_of(self, latch: str) -> Optional[NextAssign]:
        for assign in self.module.nexts:
            if assign.target == latch:
                return assign
        return None


# ----------------------------------------------------------------------
# Expression walking helpers
# ----------------------------------------------------------------------


def _walk_exprs(expr: Expr):
    """Yield every node of an expression tree, iteratively."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend(node.args)
        elif isinstance(node, (Xor, Iff, Implies)):
            stack.append(node.lhs)
            stack.append(node.rhs)


def _walk_ctl(formula: CtlFormula):
    """Yield every CTL node, iteratively."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (CtlNot,)):
            stack.append(node.operand)
        elif isinstance(node, (CtlAnd, CtlOr)):
            stack.extend(node.args)
        elif isinstance(node, (CtlImplies, CtlIff, CtlXor, AU, EU)):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif hasattr(node, "operand"):  # AX/AG/AF/EX/EG/EF
            stack.append(node.operand)


def _expr_sites(ctx: LintContext):
    """Every propositional expression in the module with its anchor:
    ``(expr, what, line, column)``."""
    for assign in ctx.module.nexts:
        what = f"next({assign.target})"
        value = assign.value
        if isinstance(value, Case):
            for arm in value.arms:
                yield arm.condition, what, assign.line, assign.column
                if isinstance(arm.value, Expr):
                    yield arm.value, what, assign.line, assign.column
        elif isinstance(value, Expr):
            yield value, what, assign.line, assign.column
    for define in ctx.module.defines:
        if isinstance(define.value, Expr):
            yield define.value, f"DEFINE {define.name}", define.line, \
                define.column
    for fairness in ctx.module.fairness:
        yield fairness.expr, "FAIRNESS", fairness.line, fairness.column
    if ctx.module.dont_care is not None:
        line, column = ctx.locate("DONTCARE")
        yield ctx.module.dont_care, "DONTCARE", line, column
    for spec in ctx.module.specs:
        for node in _walk_ctl(spec.formula):
            if isinstance(node, Atom):
                yield node.expr, "SPEC", spec.line, spec.column


# ----------------------------------------------------------------------
# RML001 / RML002 / RML003: name and structure errors
# ----------------------------------------------------------------------


def rule_unknown_name(ctx: LintContext) -> None:
    """RML001: references to names no declaration provides."""
    def check(atoms, what: str, line: int, column: int) -> None:
        for atom in sorted(set(atoms)):
            if ctx.table.resolve(atom) is None:
                ctx.emit(
                    "RML001",
                    f"unknown signal {atom!r} in {what}",
                    line,
                    column,
                )

    for assign in ctx.module.nexts:
        check(
            value_atoms(assign.value),
            f"next({assign.target})",
            assign.line,
            assign.column,
        )
    for define in ctx.module.defines:
        check(
            value_atoms(define.value),
            f"DEFINE {define.name}",
            define.line,
            define.column,
        )
    for fairness in ctx.module.fairness:
        check(
            fairness.expr.atoms(), "FAIRNESS", fairness.line, fairness.column
        )
    if ctx.module.dont_care is not None:
        line, column = ctx.locate("DONTCARE")
        check(ctx.module.dont_care.atoms(), "DONTCARE", line, column)
    for spec in ctx.module.specs:
        check(formula_atoms(spec.formula), "SPEC", spec.line, spec.column)
    for name in ctx.module.observed:
        if ctx.table.resolve(name) is None:
            line, column = ctx.locate("OBSERVED", name)
            ctx.emit(
                "RML001", f"unknown OBSERVED signal {name!r}", line, column
            )


def rule_bit_collision(ctx: LintContext) -> None:
    """RML002: implicit word-bit names colliding with declarations."""
    toplevel = set(ctx.table.symbols)
    seen_bits: Dict[str, str] = {}
    for word in sorted(ctx.table.word_bits):
        anchor = ctx.table.symbols.get(word)
        line = anchor.line if anchor else 0
        column = anchor.column if anchor else 0
        for bit in ctx.table.word_bits[word]:
            if bit in toplevel:
                ctx.emit(
                    "RML002",
                    f"bit {bit!r} of word {word!r} collides with another "
                    f"declaration",
                    line,
                    column,
                )
            elif bit in seen_bits and seen_bits[bit] != word:
                ctx.emit(
                    "RML002",
                    f"bit {bit!r} of word {word!r} collides with a bit of "
                    f"word {seen_bits[bit]!r}",
                    line,
                    column,
                )
            else:
                seen_bits[bit] = word


def rule_define_cycle(ctx: LintContext) -> None:
    """RML003: combinational DEFINE → DEFINE cycles."""
    for cycle in define_cycles(ctx.graph, ctx.table):
        first = ctx.table.symbols[cycle[0]]
        loop = " -> ".join(cycle + [cycle[0]])
        ctx.emit(
            "RML003",
            f"combinational cycle through DEFINE signals: {loop}",
            first.line,
            first.column,
        )


# ----------------------------------------------------------------------
# RML004 / RML005: case and width errors
# ----------------------------------------------------------------------


def rule_case_exhaustive(ctx: LintContext) -> None:
    """RML004: the mandatory ``TRUE`` default arm is missing."""
    for assign in ctx.module.nexts:
        value = assign.value
        if not isinstance(value, Case) or not value.arms:
            continue
        last = value.arms[-1].condition
        if not (isinstance(last, Const) and last.value):
            ctx.emit(
                "RML004",
                f"case for next({assign.target}) is not exhaustive: the "
                f"last arm's condition must be TRUE",
                assign.line,
                assign.column,
            )


def rule_width_mismatch(ctx: LintContext) -> None:
    """RML005: word values that cannot fit (or type) their target."""

    def check_word_value(value, target: str, width: int, line, column):
        where = f"next({target})"
        if isinstance(value, WordConst):
            if value.value >= (1 << width):
                ctx.emit(
                    "RML005",
                    f"constant {value.value} out of range for {width}-bit "
                    f"word {target!r}",
                    line,
                    column,
                )
        elif isinstance(value, WordRef):
            source = ctx.table.width_of(value.name)
            if ctx.table.resolve(value.name) is None:
                return  # RML001 already
            if value.name not in ctx.table.word_bits:
                ctx.emit(
                    "RML005",
                    f"{value.name!r} is not a word in {where}",
                    line,
                    column,
                )
            elif source is not None and source > width:
                ctx.emit(
                    "RML005",
                    f"word {value.name!r} ({source} bits) is wider than "
                    f"{target!r} ({width} bits)",
                    line,
                    column,
                )
        elif isinstance(value, WordOffset):
            source = ctx.table.width_of(value.name)
            if ctx.table.resolve(value.name) is None:
                return  # RML001 already
            if value.name not in ctx.table.word_bits:
                ctx.emit(
                    "RML005",
                    f"{value.name!r} is not a word in {where}",
                    line,
                    column,
                )
            elif source is not None and source != width:
                ctx.emit(
                    "RML005",
                    f"offset arithmetic needs matching widths: "
                    f"{value.name!r} is {source} bits, {target!r} is {width}",
                    line,
                    column,
                )
        elif isinstance(value, WordSum):
            ctx.emit(
                "RML005",
                f"word sums are only allowed in DEFINE, not in {where}",
                line,
                column,
            )
        elif isinstance(value, Expr):
            ctx.emit(
                "RML005",
                f"next({target}) needs a word value, not a boolean "
                f"expression",
                line,
                column,
            )

    for assign in ctx.module.nexts:
        symbol = ctx.table.symbols.get(assign.target)
        if symbol is None:
            continue
        value = assign.value
        if symbol.is_word:
            width = symbol.width or 1
            if isinstance(value, Case):
                for arm in value.arms:
                    check_word_value(
                        arm.value, assign.target, width,
                        assign.line, assign.column,
                    )
            else:
                check_word_value(
                    value, assign.target, width, assign.line, assign.column
                )
        else:
            values = (
                [arm.value for arm in value.arms]
                if isinstance(value, Case)
                else [value]
            )
            for arm_value in values:
                if isinstance(arm_value, WordExpr):
                    ctx.emit(
                        "RML005",
                        f"next({assign.target}) needs a boolean expression, "
                        f"not a word value",
                        assign.line,
                        assign.column,
                    )
    for define in ctx.module.defines:
        if isinstance(define.value, WordSum):
            for operand in (define.value.lhs, define.value.rhs):
                if ctx.table.resolve(operand) is None:
                    continue  # RML001 already
                if operand not in ctx.table.word_bits:
                    ctx.emit(
                        "RML005",
                        f"word sum operand {operand!r} is not a word",
                        define.line,
                        define.column,
                    )


# ----------------------------------------------------------------------
# RML006: width-constant comparisons
# ----------------------------------------------------------------------


def rule_constant_compare(ctx: LintContext) -> None:
    """RML006: comparisons decided by the word's width alone."""
    seen: Set[Tuple[int, int, str]] = set()
    for expr, what, line, column in _expr_sites(ctx):
        for node in _walk_exprs(expr):
            if not isinstance(node, WordCmp) or isinstance(node.rhs, str):
                continue
            width = ctx.table.width_of(node.lhs)
            if width is None:
                continue  # RML001 already
            constant = cmp_constant_by_width(node.op, int(node.rhs), width)
            if constant is None:
                continue
            key = (line, column, f"{node.lhs} {node.op} {node.rhs}")
            if key in seen:
                continue
            seen.add(key)
            ctx.emit(
                "RML006",
                f"comparison '{node.lhs} {node.op} {node.rhs}' is always "
                f"{str(constant).lower()}: {node.lhs!r} is only "
                f"{width} bits (max {(1 << width) - 1})",
                line,
                column,
            )


# ----------------------------------------------------------------------
# RML007 / RML008: use-def smells
# ----------------------------------------------------------------------


def _mention_sets(ctx: LintContext) -> Tuple[Set[str], Set[str]]:
    """(signals read by some logic, signals mentioned by properties/
    fairness/dontcare/observed)."""
    read: Set[str] = set()
    for read_by in ctx.graph.deps.values():
        read |= read_by
    mentioned: Set[str] = set()
    for seeds in spec_seeds(ctx.module, ctx.table):
        mentioned |= seeds
    for fairness in ctx.module.fairness:
        for atom in fairness.expr.atoms():
            name = ctx.table.resolve(atom)
            if name is not None:
                mentioned.add(name)
    if ctx.module.dont_care is not None:
        for atom in ctx.module.dont_care.atoms():
            name = ctx.table.resolve(atom)
            if name is not None:
                mentioned.add(name)
    for observed in ctx.module.observed:
        name = ctx.table.resolve(observed)
        if name is not None:
            mentioned.add(name)
    return read, mentioned


def rule_unused_signal(ctx: LintContext) -> None:
    """RML007: inputs and DEFINEs nothing ever reads or mentions."""
    read, mentioned = _mention_sets(ctx)
    for symbol in ctx.table.symbols.values():
        if symbol.kind == KIND_LATCH:
            continue  # latches get the sharper RML008
        if symbol.name in read or symbol.name in mentioned:
            continue
        kind = "input" if symbol.kind == KIND_INPUT else "DEFINE"
        ctx.emit(
            "RML007",
            f"{kind} {symbol.name!r} is never read by any logic, "
            f"property, or OBSERVED list",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


def rule_write_only_latch(ctx: LintContext) -> None:
    """RML008: latches only their own next-state logic ever reads."""
    readers = ctx.graph.readers()
    _, mentioned = _mention_sets(ctx)
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in mentioned:
            continue
        if readers.get(symbol.name, set()) - {symbol.name}:
            continue
        ctx.emit(
            "RML008",
            f"latch {symbol.name!r} is write-only: nothing outside its own "
            f"next-state logic reads it and no property observes it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


# ----------------------------------------------------------------------
# RML009 / RML010: case-arm reachability
# ----------------------------------------------------------------------


def rule_case_arms(ctx: LintContext) -> None:
    """RML009 unreachable arms and RML010 overlapping (duplicate) arms."""
    for assign in ctx.module.nexts:
        value = assign.value
        if not isinstance(value, Case):
            continue
        seen_conditions: List = []
        always_taken = False
        for i, arm in enumerate(value.arms):
            position = f"arm {i + 1} of next({assign.target})"
            duplicate = next(
                (
                    j
                    for j, earlier in enumerate(seen_conditions)
                    if earlier == arm.condition
                ),
                None,
            )
            if duplicate is not None:
                ctx.emit(
                    "RML010",
                    f"{position} repeats the condition of arm "
                    f"{duplicate + 1}; first match wins, so it never fires",
                    assign.line,
                    assign.column,
                )
                seen_conditions.append(arm.condition)
                continue
            seen_conditions.append(arm.condition)
            if always_taken:
                ctx.emit(
                    "RML009",
                    f"{position} is unreachable: an earlier arm's condition "
                    f"is always true",
                    assign.line,
                    assign.column,
                )
                continue
            folded = fold_expr(arm.condition, ctx.table, ctx.env)
            if folded is False:
                ctx.emit(
                    "RML009",
                    f"{position} can never fire: its condition is "
                    f"constant false",
                    assign.line,
                    assign.column,
                )
            elif folded is True and i + 1 < len(value.arms):
                always_taken = True


# ----------------------------------------------------------------------
# RML011 / RML012 / RML013: cone-of-influence coverage smells
# ----------------------------------------------------------------------


def rule_observed_unmentioned(ctx: LintContext) -> None:
    """RML011: an OBSERVED signal outside every property's cone — its
    Definition-1 coverage is structurally zero."""
    if not ctx.module.specs:
        return
    cone = union_property_cone(ctx.module, ctx.table, ctx.graph)
    for observed in ctx.module.observed:
        name = ctx.table.resolve(observed)
        if name is None or name in cone:
            continue
        line, column = ctx.locate("OBSERVED", observed)
        ctx.emit(
            "RML011",
            f"observed signal {observed!r} appears in no property's cone "
            f"of influence: its coverage is structurally zero",
            line,
            column,
            about=name,
        )


def rule_latch_outside_coi(ctx: LintContext) -> None:
    """RML012: a latch no property can see, even indirectly."""
    if not ctx.module.specs:
        return
    cone = union_property_cone(ctx.module, ctx.table, ctx.graph)
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in cone:
            continue
        if "RML008" in ctx.flagged.get(symbol.name, set()):
            continue  # write-only already says it sharper
        ctx.emit(
            "RML012",
            f"latch {symbol.name!r} is outside every property's cone of "
            f"influence: no SPEC can depend on it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


def rule_latch_unobservable(ctx: LintContext) -> None:
    """RML013: a latch that cannot reach any OBSERVED signal.

    Latches feeding the ``DONTCARE`` predicate are exempt: the don't-care
    set shapes the coverage metric itself, so they are not dead weight
    even when no observed signal depends on them.
    """
    if not ctx.module.observed:
        return
    cone = observed_cone(ctx.module, ctx.table, ctx.graph)
    if ctx.module.dont_care is not None:
        seeds = [
            name
            for name in (
                ctx.table.resolve(atom)
                for atom in ctx.module.dont_care.atoms()
            )
            if name is not None
        ]
        cone = cone | ctx.graph.closure(seeds)
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in cone:
            continue
        if ctx.flagged.get(symbol.name, set()) & {"RML008", "RML012"}:
            continue
        ctx.emit(
            "RML013",
            f"latch {symbol.name!r} cannot influence any OBSERVED signal: "
            f"no coverage metric can ever charge it",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


# ----------------------------------------------------------------------
# RML014 / RML015: constant propagation smells
# ----------------------------------------------------------------------


def rule_constant_latch(ctx: LintContext) -> None:
    """RML014: latches provably stuck at their reset value."""
    for latch in sorted(ctx.env):
        value = ctx.env[latch]
        assign = ctx.next_of(latch)
        rendered = int(value)
        ctx.emit(
            "RML014",
            f"latch {latch!r} provably holds its reset value "
            f"({rendered}) forever: its next-state logic can never "
            f"change it",
            assign.line if assign else 0,
            assign.column if assign else 0,
            about=latch,
        )


def rule_vacuous_antecedent(ctx: LintContext) -> None:
    """RML015: implications whose antecedent is constant-false."""
    for spec in ctx.module.specs:
        reported: Set[str] = set()

        def report(antecedent: Expr) -> None:
            rendered = str(antecedent)
            if rendered in reported:
                return
            reported.add(rendered)
            ctx.emit(
                "RML015",
                f"antecedent '{rendered}' is constant false: the "
                f"implication holds vacuously",
                spec.line,
                spec.column,
            )

        for node in _walk_ctl(spec.formula):
            if isinstance(node, CtlImplies) and is_propositional(node.lhs):
                antecedent = to_expr(node.lhs)
                if fold_expr(antecedent, ctx.table, ctx.env) is False:
                    report(antecedent)
            elif isinstance(node, Atom):
                for sub in _walk_exprs(node.expr):
                    if isinstance(sub, Implies):
                        if fold_expr(sub.lhs, ctx.table, ctx.env) is False:
                            report(sub.lhs)


# ----------------------------------------------------------------------
# RML016: missing init
# ----------------------------------------------------------------------


def rule_missing_init(ctx: LintContext) -> None:
    """RML016: latches silently defaulting to reset value 0."""
    initialised = {init.target for init in ctx.module.inits}
    for symbol in ctx.table.symbols.values():
        if symbol.kind != KIND_LATCH or symbol.name in initialised:
            continue
        ctx.emit(
            "RML016",
            f"latch {symbol.name!r} has no init() and defaults to 0; "
            f"declare the reset value explicitly",
            symbol.line,
            symbol.column,
            about=symbol.name,
        )


#: All rules in execution order.  Order matters only for the ``flagged``
#: noise suppression (RML008 before RML012 before RML013); the report
#: itself is re-sorted by location.
ALL_RULES = (
    rule_unknown_name,
    rule_bit_collision,
    rule_define_cycle,
    rule_case_exhaustive,
    rule_width_mismatch,
    rule_constant_compare,
    rule_unused_signal,
    rule_write_only_latch,
    rule_case_arms,
    rule_observed_unmentioned,
    rule_latch_outside_coi,
    rule_latch_unobservable,
    rule_constant_latch,
    rule_vacuous_antecedent,
    rule_missing_init,
)


def run_rules(
    module: Module,
    filename: str,
    text: Optional[str] = None,
) -> List[Diagnostic]:
    """Run the full battery over one parsed module."""
    table = SymbolTable(module)
    graph = build_deps(module, table)
    env = constant_env(module, table)
    ctx = LintContext(
        module=module,
        table=table,
        graph=graph,
        env=env,
        filename=filename,
        text=text,
    )
    for rule in ALL_RULES:
        rule(ctx)
    return ctx.diagnostics
