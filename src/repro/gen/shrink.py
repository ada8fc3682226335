"""Greedy module shrinking: minimise a disagreeing scenario.

When the differential oracle finds a divergence, the generated module is
rarely the smallest witness.  :func:`shrink_module` applies a classic
greedy delta-debugging loop: propose structurally smaller candidate
modules, keep the first candidate that (a) still parses and elaborates and
(b) still satisfies the caller's interestingness predicate (for the
fuzzer: *still disagrees on the same axis*), and repeat until no candidate
helps.  Candidates must strictly shrink the printed text, so the loop
terminates unconditionally.

Reduction passes, largest wins first:

* drop a ``SPEC`` (keeping at least one), a ``FAIRNESS`` constraint, the
  ``DONTCARE``, or an unreferenced ``DEFINE``;
* drop an unreferenced variable together with its assignments;
* narrow the ``OBSERVED`` list to one signal;
* peel a temporal property to a subformula (``AG f`` -> ``f``,
  ``A[f U g]`` -> ``g``, ``b -> f`` -> ``f``, ``f & g`` -> each side);
* collapse a ``case`` block to its default arm, or drop a middle arm;
* replace next-state logic with trivial forms (hold / constant);
* narrow the word register by one bit.

Everything is deterministic — no randomness, no set iteration — so a
shrunken reproducer is a function of the original module alone.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Set, Union

from .._node import replace
from ..ctl.ast import AF, AG, AU, AX, Atom, CtlAnd, CtlFormula, CtlImplies, formula_atoms
from ..errors import ReproError
from ..expr.ast import Const, Expr
from ..lang.ast import (
    Case,
    InitAssign,
    Module,
    NextAssign,
    SpecDecl,
    VarDecl,
    WordConst,
    WordExpr,
    WordRef,
)
from ..lang.elaborate import elaborate
from ..lang.parser import parse_module
from ..lang.printer import module_to_str

__all__ = ["shrink_module", "latch_bits"]

#: Interestingness predicate: candidate module + its canonical text.
Interesting = Callable[[Module, str], bool]


def shrink_module(
    module: Module,
    interesting: Interesting,
    max_steps: int = 500,
) -> Module:
    """Greedily minimise ``module`` while ``interesting`` stays true.

    ``interesting`` receives each *canonical* candidate (re-parsed from
    its printed text) and must be deterministic.  The original module is
    returned unchanged if no reduction applies; callers should ensure
    ``interesting(module, module_to_str(module))`` holds on entry.
    """
    current = module
    current_text = module_to_str(module)
    for _ in range(max_steps):
        for candidate in _candidates(current):
            text = module_to_str(candidate)
            if len(text) >= len(current_text):
                continue
            try:
                canonical = parse_module(text, filename=module.name)
                elaborate(canonical)
            except ReproError:
                continue
            if interesting(canonical, text):
                current, current_text = canonical, text
                break
        else:
            return current
    return current


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------


def _names_used(module: Module, skip_var: Optional[str] = None) -> Set[str]:
    """Every signal name referenced anywhere except ``skip_var``'s own
    declaration/assignments — used to decide whether a variable or define
    can be dropped without dangling references."""
    used: Set[str] = set()

    def add_expr(expr: Optional[Expr]) -> None:
        if expr is not None:
            used.update(expr.atoms())

    def add_value(value: Union[Expr, WordExpr, Case]) -> None:
        if isinstance(value, Case):
            for arm in value.arms:
                add_expr(arm.condition)
                add_value(arm.value)
        elif isinstance(value, Expr):
            add_expr(value)
        elif isinstance(value, WordExpr):
            for attr in ("name", "lhs", "rhs"):
                name = getattr(value, attr, None)
                if isinstance(name, str):
                    used.add(name)

    for nxt in module.nexts:
        if nxt.target != skip_var:
            add_value(nxt.value)
    for define in module.defines:
        add_value(define.value)
    for fairness in module.fairness:
        add_expr(fairness.expr)
    for spec in module.specs:
        used.update(formula_atoms(spec.formula))
    add_expr(module.dont_care)
    used.update(module.observed)
    # Word bits appear in lowered atoms under their bit names (w00, ...).
    for var in module.vars:
        if var.is_word and any(
            f"{var.name}{i}" in used for i in range(var.width or 0)
        ):
            used.add(var.name)
    return used


def _without_index(items, index):
    return tuple(v for i, v in enumerate(items) if i != index)


def _candidates(module: Module) -> Iterator[Module]:
    """Structurally smaller variants, in decreasing expected payoff."""
    # Drop a whole variable (latch or input) that nothing else references.
    for i, var in enumerate(module.vars):
        if var.name in _names_used(module, skip_var=var.name):
            continue
        yield replace(
            module,
            vars=_without_index(module.vars, i),
            inits=tuple(a for a in module.inits if a.target != var.name),
            nexts=tuple(a for a in module.nexts if a.target != var.name),
        )

    # Drop one SPEC (at least one must remain).
    if len(module.specs) > 1:
        for i in range(len(module.specs)):
            yield replace(module, specs=_without_index(module.specs, i))

    # Drop fairness constraints and the don't-care.
    for i in range(len(module.fairness)):
        yield replace(module, fairness=_without_index(module.fairness, i))
    if module.dont_care is not None:
        yield replace(module, dont_care=None)

    # Drop an unreferenced DEFINE.
    for i, define in enumerate(module.defines):
        if define.name in _names_used(module, skip_var=define.name):
            continue
        yield replace(module, defines=_without_index(module.defines, i))

    # Narrow OBSERVED to a single signal.
    if len(module.observed) > 1:
        for name in module.observed:
            yield replace(module, observed=(name,))

    # Peel temporal structure off each SPEC.
    for i, spec in enumerate(module.specs):
        for smaller in _formula_reductions(spec.formula):
            yield replace(
                module,
                specs=module.specs[:i]
                + (SpecDecl(smaller),)
                + module.specs[i + 1:],
            )

    # Simplify next-state logic.
    for i, nxt in enumerate(module.nexts):
        var = module.var(nxt.target)
        for smaller in _next_reductions(nxt, is_word=bool(var and var.is_word)):
            yield replace(
                module,
                nexts=module.nexts[:i] + (smaller,) + module.nexts[i + 1:],
            )

    # Narrow the word register by one bit (init clipped to the new range;
    # out-of-range constants elsewhere are rejected by the validity check).
    for i, var in enumerate(module.vars):
        if not var.is_word or (var.width or 0) <= 1:
            continue
        new_width = (var.width or 2) - 1
        new_vars = (
            module.vars[:i]
            + (VarDecl(var.name, width=new_width),)
            + module.vars[i + 1:]
        )
        new_inits = tuple(
            InitAssign(a.target, a.value % (1 << new_width))
            if a.target == var.name
            else a
            for a in module.inits
        )
        yield replace(module, vars=new_vars, inits=new_inits)


def _formula_reductions(formula: CtlFormula) -> Iterator[CtlFormula]:
    """Strictly smaller formulas that keep the acceptable-subset shape."""
    if isinstance(formula, (AG, AX, AF)):
        yield formula.operand
    elif isinstance(formula, AU):
        yield formula.rhs
        yield formula.lhs
    elif isinstance(formula, CtlImplies):
        yield formula.rhs
    elif isinstance(formula, CtlAnd):
        for arg in formula.args:
            yield arg
    elif isinstance(formula, Atom):
        if formula.expr != Const(True):
            yield Atom(Const(True))


def _next_reductions(nxt: NextAssign, is_word: bool) -> Iterator[NextAssign]:
    """Smaller next-state right-hand sides for one assignment."""
    value = nxt.value
    if isinstance(value, Case):
        # The default arm alone, then each case with one middle arm gone.
        yield NextAssign(nxt.target, value.arms[-1].value)
        if len(value.arms) > 1:
            for i in range(len(value.arms) - 1):
                yield NextAssign(
                    nxt.target, Case(_without_index(value.arms, i))
                )
    if is_word:
        if not isinstance(value, WordConst):
            yield NextAssign(nxt.target, WordConst(0))
        if not isinstance(value, WordRef):
            yield NextAssign(nxt.target, WordRef(nxt.target))
    else:
        if value != Const(False):
            yield NextAssign(nxt.target, Const(False))
        if value != Const(True):
            yield NextAssign(nxt.target, Const(True))


def latch_bits(module: Module) -> int:
    """Number of latch *bits* the module elaborates to (words count per
    bit) — the size metric the fuzz harness reports for reproducers."""
    bits = 0
    assigned = {a.target for a in module.nexts}
    for var in module.vars:
        if var.name in assigned:
            bits += var.width or 1
    return bits
