"""Symbol table for one parsed module: declarations, kinds, word bits.

Mirrors the name universe the elaborator builds (top-level variables and
defines, plus the implicit per-bit names of words and word-sum defines)
without importing any engine machinery: everything here is derived from
the :class:`~repro.lang.ast.Module` AST alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .._node import record
from ..lang.ast import Module, WordSum

__all__ = ["Symbol", "SymbolTable", "KIND_INPUT", "KIND_LATCH", "KIND_DEFINE"]

KIND_INPUT = "input"
KIND_LATCH = "latch"
KIND_DEFINE = "define"


@record(frozen=True)
class Symbol:
    """One top-level declared name."""

    name: str
    kind: str  # KIND_INPUT | KIND_LATCH | KIND_DEFINE
    width: Optional[int]  # None for booleans; bit count for words
    line: int = 0
    column: int = 0

    @property
    def is_word(self) -> bool:
        return self.width is not None


class SymbolTable:
    """Declared names of a module, with bit-name resolution.

    ``symbols`` holds every top-level name; ``word_bits`` maps each word
    (variable or word-sum define) to its LSB-first implicit bit names;
    ``bit_owner`` inverts that so property atoms written against raw bits
    (``count0``) resolve back to their word.
    """

    def __init__(self, module: Module):
        self.module = module
        self.symbols: Dict[str, Symbol] = {}
        self.word_bits: Dict[str, List[str]] = {}
        self.bit_owner: Dict[str, str] = {}

        assigned = {a.target for a in module.nexts}
        for var in module.vars:
            kind = KIND_LATCH if var.name in assigned else KIND_INPUT
            self.symbols[var.name] = Symbol(
                var.name, kind, var.width, var.line, var.column
            )
            if var.is_word:
                self.word_bits[var.name] = [
                    f"{var.name}{i}" for i in range(var.width or 1)
                ]
        for define in module.defines:
            width: Optional[int] = None
            if isinstance(define.value, WordSum):
                lhs = self.word_bits.get(define.value.lhs)
                rhs = self.word_bits.get(define.value.rhs)
                # Unknown/non-word operands are reported by the rules; the
                # table still records the define so later references resolve.
                width = max(len(lhs or [1]), len(rhs or [1])) + 1
                self.word_bits[define.name] = [
                    f"{define.name}{i}" for i in range(width)
                ]
            self.symbols[define.name] = Symbol(
                define.name, KIND_DEFINE, width, define.line, define.column
            )
        for word, bits in self.word_bits.items():
            for bit in bits:
                self.bit_owner.setdefault(bit, word)

    # ------------------------------------------------------------------

    def resolve(self, atom: str) -> Optional[str]:
        """The top-level name an atom denotes, or ``None`` if undeclared.

        A direct declaration resolves to itself; an implicit bit name
        (``count0``) resolves to its word; anything else is unknown.
        """
        if atom in self.symbols:
            return atom
        owner = self.bit_owner.get(atom)
        if owner is not None and atom not in self.symbols:
            return owner
        return None

    def width_of(self, name: str) -> Optional[int]:
        """Declared width of ``name`` (1 for booleans), or ``None`` if
        unknown.  Implicit bit names have width 1."""
        symbol = self.symbols.get(name)
        if symbol is not None:
            return symbol.width if symbol.is_word else 1
        if name in self.bit_owner:
            return 1
        return None

    def latches(self) -> Tuple[Symbol, ...]:
        return tuple(
            s for s in self.symbols.values() if s.kind == KIND_LATCH
        )

    def inputs(self) -> Tuple[Symbol, ...]:
        return tuple(
            s for s in self.symbols.values() if s.kind == KIND_INPUT
        )

    def defines(self) -> Tuple[Symbol, ...]:
        return tuple(
            s for s in self.symbols.values() if s.kind == KIND_DEFINE
        )
