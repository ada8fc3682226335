"""Circuit construction API: latches, free inputs, defines, words, fairness.

:class:`CircuitBuilder` is the library's "HDL": circuits are described as
Mealy machines (latches with next-state expressions, free primary inputs,
combinational ``define`` outputs), and :meth:`CircuitBuilder.build` compiles
them into the symbolic Kripke form of :class:`~repro.fsm.fsm.FSM` the same
way SMV does — inputs become unconstrained state variables.

Example::

    b = CircuitBuilder("counter")
    b.input("stall")
    b.input("reset")
    b.word_latch("count", width=3, init=0,
                 next_=mux_tree_for_counter(...))
    b.define("at_top", "count = 4")
    fsm = b.build()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..bdd import BDDManager, Function, ResourcePolicy
from ..engine import EngineConfig, _coalesce_trans
from ..errors import ModelError
from ..expr.ast import Expr, Var
from ..expr.bitvector import WordTable, int_to_bits, resolve_words
from ..expr.parser import parse_expr
from .fsm import FSM, NEXT_SUFFIX
from .partition import (
    TRANS_MONO,
    TransitionPartition,
    validate_trans_mode,
)

__all__ = ["CircuitBuilder"]

ExprLike = Union[str, Expr]


def _to_expr(value: ExprLike) -> Expr:
    if isinstance(value, str):
        return parse_expr(value)
    if isinstance(value, Expr):
        return value
    raise TypeError(f"expected expression or string, got {type(value).__name__}")


class CircuitBuilder:
    """Accumulates a circuit description and compiles it to an :class:`FSM`."""

    def __init__(self, name: str):
        self.name = name
        self._inputs: List[str] = []
        self._latches: List[str] = []
        self._latch_init: Dict[str, bool] = {}
        self._latch_next: Dict[str, Expr] = {}
        self._defines: Dict[str, Expr] = {}
        self._define_order: List[str] = []
        self._words: WordTable = {}
        self._fairness: List[Expr] = []

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        if not name or not name[0].isalpha() and name[0] != "_":
            raise ModelError(f"invalid signal name {name!r}")
        if NEXT_SUFFIX in name:
            raise ModelError(f"{NEXT_SUFFIX!r} is reserved: {name!r}")
        taken = set(self._inputs) | set(self._latches) | set(self._defines) | set(
            self._words
        )
        if name in taken:
            raise ModelError(f"duplicate signal name {name!r}")

    def input(self, name: str) -> Var:
        """Declare a free primary input; returns its :class:`Var` for reuse."""
        self._check_fresh(name)
        self._inputs.append(name)
        return Var(name)

    def latch(self, name: str, init: bool, next_: ExprLike) -> Var:
        """Declare a single-bit latch with reset value and next-state logic."""
        self._check_fresh(name)
        self._latches.append(name)
        self._latch_init[name] = bool(init)
        self._latch_next[name] = _to_expr(next_)
        return Var(name)

    def word_latch(
        self,
        name: str,
        width: int,
        init: int,
        next_: Sequence[ExprLike],
    ) -> List[str]:
        """Declare a ``width``-bit register as latches ``name0..name{w-1}``.

        ``next_`` gives the next-state expression of each bit, LSB first
        (see :mod:`repro.expr.arith` for increment/mux builders).  The word
        ``name`` is registered so properties can compare it directly
        (``name < 5``).  Returns the bit names.
        """
        if width < 1:
            raise ModelError(f"word {name!r} needs width >= 1")
        if len(next_) != width:
            raise ModelError(
                f"word {name!r}: {len(next_)} next expressions for width {width}"
            )
        self._check_fresh(name)
        init_bits = int_to_bits(init, width)
        bit_names = [f"{name}{i}" for i in range(width)]
        for bit, init_bit, nxt in zip(bit_names, init_bits, next_):
            self.latch(bit, init_bit, nxt)
        self._words[name] = bit_names
        return bit_names

    def word_input(self, name: str, width: int) -> List[str]:
        """Declare a ``width``-bit free input word ``name0..name{w-1}``."""
        self._check_fresh(name)
        bit_names = [f"{name}{i}" for i in range(width)]
        for bit in bit_names:
            self.input(bit)
        self._words[name] = bit_names
        return bit_names

    def define(self, name: str, expr: ExprLike) -> Var:
        """Declare a combinational signal (a named proposition)."""
        self._check_fresh(name)
        self._defines[name] = _to_expr(expr)
        self._define_order.append(name)
        return Var(name)

    def fairness(self, expr: ExprLike) -> None:
        """Add a fairness constraint (must hold infinitely often on fair paths)."""
        self._fairness.append(_to_expr(expr))

    def word(self, name: str, bits: Sequence[str]) -> None:
        """Register an alias word over existing bit signals (LSB first)."""
        if name in self._words:
            raise ModelError(f"duplicate word {name!r}")
        self._words[name] = list(bits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def declared_signals(self) -> frozenset:
        """Every name declared so far: inputs, latches, defines, and words.

        Useful for validating externally supplied names (observed signals,
        don't-cares) against the circuit before :meth:`build` — the module
        elaborator (:mod:`repro.lang.elaborate`) uses this to turn unknown
        references into source-located errors instead of late build
        failures.
        """
        return (
            frozenset(self._inputs)
            | frozenset(self._latches)
            | frozenset(self._defines)
            | frozenset(self._words)
        )

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def build(
        self,
        manager: Optional[BDDManager] = None,
        config: Optional[EngineConfig] = None,
        policy: Optional[ResourcePolicy] = None,
        *,
        trans: Optional[str] = None,
    ) -> FSM:
        """Compile the accumulated description into an :class:`FSM`.

        Declares variables in interleaved current/next order, resolves
        ``define`` chains (rejecting cycles), builds one transition-relation
        conjunct per latch, and symbolises fairness.

        ``config`` (an :class:`~repro.engine.EngineConfig`) carries every
        engine knob: its ``trans`` mode selects the image-execution mode of
        the resulting FSM — ``"partitioned"`` (default) keeps the per-latch
        conjuncts separate behind an early-quantification schedule,
        ``"mono"`` conjoins them into the classic monolithic relation up
        front; both machines compute identical sets (see
        ``tests/fsm/test_trans_equivalence.py``) — and its resource knobs
        compile to the manager's :class:`~repro.bdd.policy.ResourcePolicy`.

        ``policy`` is the low-level escape hatch for resource knobs beyond
        the config's portable subset (per-cache growth factors, compose
        generations, ...); when given it overrides the config's resource
        knobs.  When a ``manager`` is supplied, the policy is installed on
        it.

        ``trans=`` as a direct keyword is deprecated — pass
        ``config=EngineConfig(trans=...)``.
        """
        if isinstance(config, str):
            # Legacy positional call: build(manager, "mono") bound the
            # mode string to what is now the config slot.
            config, trans = None, config
        if trans is not None:
            # Preserve the legacy contract (ModelError on a bad mode)
            # before folding into the config.
            validate_trans_mode(trans)
        config = _coalesce_trans("CircuitBuilder.build", config, trans)
        trans = validate_trans_mode(config.trans)
        if policy is None:
            policy = config.policy()
        if manager is None:
            manager = BDDManager(policy=policy, backend=config.backend)
        elif policy is not None:
            manager.set_policy(policy)
        state_vars = self._latches + self._inputs
        if not state_vars:
            raise ModelError(f"circuit {self.name!r} has no state variables")
        for var in state_vars:
            manager.add_var(var)
            manager.add_var(var + NEXT_SUFFIX)

        known = frozenset(state_vars) | frozenset(self._defines)

        # Resolve define chains to functions of state variables only.
        signals: Dict[str, Function] = {}
        signal_exprs: Dict[str, Expr] = {}
        for var in state_vars:
            signals[var] = Function.var(manager, var)
            signal_exprs[var] = Var(var)
        resolving: set = set()

        def signal_fn(name: str) -> Function:
            if name in signals:
                return signals[name]
            if name not in self._defines:
                raise ModelError(
                    f"circuit {self.name!r}: unknown signal {name!r}"
                )
            if name in resolving:
                raise ModelError(
                    f"circuit {self.name!r}: combinational cycle through {name!r}"
                )
            resolving.add(name)
            fn = symbolize(self._defines[name])
            resolving.discard(name)
            signals[name] = fn
            return fn

        def symbolize(expr: Expr) -> Function:
            lowered = resolve_words(expr, self._words, known)
            return _symbolize(manager, lowered, signal_fn)

        for name in self._define_order:
            signal_fn(name)
            signal_exprs[name] = self._defines[name]

        # Transition relation: one conjunct per latch (``latch' <-> f``);
        # free inputs contribute no conjunct (their next value is
        # unconstrained).  The partition keeps the conjuncts separate;
        # mono mode conjoins them here, eagerly.  The next-state functions
        # ``f`` themselves go to the FSM too: partitioned preimages
        # substitute them instead of running the relational product.
        next_functions: Dict[str, Function] = {}
        conjuncts: List[Function] = []
        for latch in self._latches:
            next_fn = symbolize(self._latch_next[latch])
            next_functions[latch] = next_fn
            next_var = Function.var(manager, latch + NEXT_SUFFIX)
            conjuncts.append(next_var.iff(next_fn))
        partition = (
            TransitionPartition(conjuncts, labels=list(self._latches))
            if conjuncts
            else None
        )
        transition: Optional[Function] = None
        if partition is None:
            transition = Function.true(manager)  # no latches: inputs only
        elif trans == TRANS_MONO:
            transition = partition.monolithic()

        init = Function.true(manager)
        for latch in self._latches:
            var_fn = Function.var(manager, latch)
            init = init & (var_fn if self._latch_init[latch] else ~var_fn)

        fairness = [symbolize(e) for e in self._fairness]

        return FSM(
            manager=manager,
            name=self.name,
            state_vars=state_vars,
            inputs=self._inputs,
            transition=transition,
            partition=partition,
            trans_mode=trans if partition is not None else TRANS_MONO,
            init=init,
            signals=signals,
            signal_exprs=signal_exprs,
            words=self._words,
            fairness=fairness,
            latch_next_exprs=dict(self._latch_next),
            next_functions=next_functions,
        )


def _symbolize(manager: BDDManager, expr: Expr, signal_fn) -> Function:
    """Translate a word-free expression using ``signal_fn`` for atoms."""
    from ..expr.ast import (
        And as EAnd,
        Const,
        Iff as EIff,
        Implies as EImplies,
        Not as ENot,
        Or as EOr,
        Xor as EXor,
    )

    if isinstance(expr, Const):
        return Function.true(manager) if expr.value else Function.false(manager)
    if isinstance(expr, Var):
        return signal_fn(expr.name)
    if isinstance(expr, ENot):
        return ~_symbolize(manager, expr.operand, signal_fn)
    if isinstance(expr, EAnd):
        out = Function.true(manager)
        for arg in expr.args:
            out = out & _symbolize(manager, arg, signal_fn)
        return out
    if isinstance(expr, EOr):
        out = Function.false(manager)
        for arg in expr.args:
            out = out | _symbolize(manager, arg, signal_fn)
        return out
    if isinstance(expr, EXor):
        return _symbolize(manager, expr.lhs, signal_fn) ^ _symbolize(
            manager, expr.rhs, signal_fn
        )
    if isinstance(expr, EIff):
        return _symbolize(manager, expr.lhs, signal_fn).iff(
            _symbolize(manager, expr.rhs, signal_fn)
        )
    if isinstance(expr, EImplies):
        return _symbolize(manager, expr.lhs, signal_fn).implies(
            _symbolize(manager, expr.rhs, signal_fn)
        )
    raise TypeError(f"unexpected expression node {type(expr).__name__}")
