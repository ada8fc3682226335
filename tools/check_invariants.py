#!/usr/bin/env python3
"""Fail CI when the codebase breaks one of its structural invariants.

Five guarantees earlier PRs established are enforceable by AST
inspection, so this tool enforces them:

``kernel-recursion``
    No function in ``src/repro/bdd/backends/`` calls itself (directly,
    or via ``self.``/``cls.``).  PR 3 rewrote every BDD traversal as
    explicit-stack iteration so depth is memory-bound, and PR 7 moved
    those kernels behind the backend seam; a reintroduced recursive
    kernel would silently restore the recursion-limit ceiling.

``set-iteration``
    No ``for`` loop or comprehension in a report/serialization module
    (``coverage/report.py``, ``suite/runner.py``, ``obs/*``) iterates
    directly over a ``set``/``frozenset`` constructor, set literal, or
    set comprehension.  Set order is not deterministic across runs, and
    these modules feed byte-compared JSON reports (the PR 5 oracle
    contract) — wrap the set in ``sorted(...)`` instead.

``deprecation-prefix``
    Every literal ``DeprecationWarning`` message starts with
    ``"repro: "``, so users filtering warnings can target the library
    with one pattern.

``cold-import``
    No module under ``src/`` imports ``concurrent.futures``,
    ``multiprocessing``, ``socket``, ``asyncio``, ``http.*`` or
    ``zipfile`` at module level, except the modules that exist to fan
    work out or serve it (``suite/shards.py``, ``serve/``, the fuzz
    fan-out ``gen/fuzz.py``).  Anything else imports them inside the
    function that uses them, so a cold ``repro run`` or ``repro lint``
    never pays for process pools or sockets.

``dataclasses-import``
    No module under ``src/repro`` imports ``dataclasses`` at module
    level.  Value classes use the exec-free ``repro._node.record``; the
    ``dataclasses`` module (which loads ``inspect``, ``ast``, ``dis`` and
    ``tokenize``) was most of a cold ``repro run``'s import time.  Only an
    error path may import it, inside the function that raises.

When scanning a directory each rule applies only to its scoped paths;
explicitly-listed files get every rule (which is how the deliberately
bad fixture ``tools/fixtures/bad_invariants.py`` proves each rule still
fires — see ``tests/test_check_invariants.py``).

Usage::

    python tools/check_invariants.py            # scan src/
    python tools/check_invariants.py FILE...    # all rules on each file

Exit code 0 when every invariant holds, 1 otherwise (one
``file:line: [rule] message`` line per violation).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Path fragments (POSIX, repo-relative) the set-iteration rule covers.
ORDERED_OUTPUT_MODULES = (
    "src/repro/coverage/report.py",
    "src/repro/suite/runner.py",
    "src/repro/obs/",
)

#: Path fragment the kernel-recursion rule covers.
BACKEND_DIR = "src/repro/bdd/backends/"

#: Modules (and their submodules) the cold-import rule keeps out of
#: module-level imports.
COLD_IMPORT_BANNED = (
    "concurrent.futures",
    "multiprocessing",
    "socket",
    "asyncio",
    "http",
    "zipfile",
)

#: Path fragments allowed to import them at module level: the fan-out and
#: serving code, which exists to use them.
COLD_IMPORT_ALLOWED = (
    "src/repro/suite/shards.py",
    "src/repro/serve/",
    "src/repro/gen/fuzz.py",
)


class Violation(NamedTuple):
    path: Path
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ----------------------------------------------------------------------
# Rule: kernel-recursion
# ----------------------------------------------------------------------


def _call_target(node: ast.Call) -> Tuple[str, bool]:
    """``(name, via_self)`` of a call, or ``("", False)`` when dynamic."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in ("self", "cls"):
            return func.attr, True
    return "", False


def check_kernel_recursion(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag functions that call themselves by name."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name, via_self = _call_target(sub)
            if name != node.name:
                continue
            how = f"self.{name}()" if via_self else f"{name}()"
            out.append(
                Violation(
                    path, sub.lineno, "kernel-recursion",
                    f"function {node.name!r} calls itself ({how}); "
                    f"backend kernels must stay iterative "
                    f"(explicit stack), see PR 3/7",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: set-iteration
# ----------------------------------------------------------------------


def _is_bare_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _iteration_sites(tree: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Yield ``(iterable_node, anchor_node)`` for every iteration."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for generator in node.generators:
                yield generator.iter, node


def check_set_iteration(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag iteration directly over an unordered set expression."""
    out: List[Violation] = []
    for iterable, anchor in _iteration_sites(tree):
        if _is_bare_set(iterable):
            out.append(
                Violation(
                    path, anchor.lineno, "set-iteration",
                    "iteration over a bare set/frozenset has "
                    "non-deterministic order in report output; wrap it "
                    "in sorted(...)",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: deprecation-prefix
# ----------------------------------------------------------------------


def _mentions_deprecation(node: ast.Call) -> bool:
    def is_dw(expr: ast.AST) -> bool:
        return (
            isinstance(expr, ast.Name) and expr.id == "DeprecationWarning"
        ) or (
            isinstance(expr, ast.Attribute)
            and expr.attr == "DeprecationWarning"
        )

    return any(is_dw(arg) for arg in node.args) or any(
        is_dw(kw.value) for kw in node.keywords
    )


def _literal_prefix(node: ast.AST) -> "str | None":
    """The compile-time prefix of a string expression, if there is one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value
        return ""  # f-string starting with an interpolation
    return None


def check_deprecation_prefix(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag DeprecationWarning messages missing the ``"repro: "`` tag."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not _mentions_deprecation(node) or not node.args:
            continue
        prefix = _literal_prefix(node.args[0])
        if prefix is None:
            continue  # non-literal message: nothing to check statically
        if not prefix.startswith("repro: "):
            out.append(
                Violation(
                    path, node.lineno, "deprecation-prefix",
                    "DeprecationWarning message must start with "
                    "'repro: ' so users can filter the library's "
                    "warnings with one pattern",
                )
            )
    return out


# ----------------------------------------------------------------------
# Rule: cold-import
# ----------------------------------------------------------------------


def _module_level_imports(body) -> Iterator[ast.AST]:
    """Import statements that run when the module is imported: the top
    level and any block nested in it, class bodies included, but not
    function bodies or ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING",
        ):
            yield from _module_level_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_level_imports(getattr(node, field, []))


def _imported_modules(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:  # relative: always first-party
        return []
    module = node.module or ""
    # ``from concurrent import futures`` imports ``concurrent.futures``.
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _banned_imports(
    tree: ast.AST, path: Path, banned_names: Tuple[str, ...], rule: str, advice: str
) -> List[Violation]:
    """One violation per module-level import statement that imports a
    name in ``banned_names`` (or a submodule of one); ``advice`` is
    formatted with the ``banned`` entry it matched."""
    out: List[Violation] = []
    for node in _module_level_imports(tree.body):
        for name in _imported_modules(node):
            banned = next(
                (
                    b for b in banned_names
                    if name == b or name.startswith(b + ".")
                ),
                None,
            )
            if banned is None:
                continue
            out.append(
                Violation(
                    path, node.lineno, rule,
                    f"module-level import of {name!r}: "
                    + advice.format(banned=banned),
                )
            )
            break
    return out


def check_cold_import(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag module-level imports of process-pool, socket and archive
    machinery."""
    return _banned_imports(
        tree, path, COLD_IMPORT_BANNED, "cold-import",
        "import it inside the function that uses it, so cold CLI commands "
        "never load {banned!r}",
    )


# ----------------------------------------------------------------------
# Rule: dataclasses-import
# ----------------------------------------------------------------------


def check_dataclasses_import(tree: ast.AST, path: Path) -> List[Violation]:
    """Flag module-level imports of ``dataclasses``."""
    return _banned_imports(
        tree, path, ("dataclasses",), "dataclasses-import",
        "declare value classes with repro._node.record, and import "
        "'dataclasses' only inside an error path, so no start-up path "
        "loads it (and 'inspect' with it)",
    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

RULES: Tuple[Tuple[str, Callable, Callable], ...] = (
    (
        "kernel-recursion",
        check_kernel_recursion,
        lambda rel: rel.startswith(BACKEND_DIR),
    ),
    (
        "set-iteration",
        check_set_iteration,
        lambda rel: any(rel.startswith(m) for m in ORDERED_OUTPUT_MODULES),
    ),
    (
        "deprecation-prefix",
        check_deprecation_prefix,
        lambda rel: rel.startswith("src/"),
    ),
    (
        "cold-import",
        check_cold_import,
        lambda rel: rel.startswith("src/")
        and not any(rel.startswith(a) for a in COLD_IMPORT_ALLOWED),
    ),
    (
        "dataclasses-import",
        check_dataclasses_import,
        lambda rel: rel.startswith("src/repro/"),
    ),
)


def check_file(path: Path, all_rules: bool = False) -> List[Violation]:
    """Run the applicable (or, for explicit files, all) rules on one file."""
    try:
        rel = path.resolve().relative_to(ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    out: List[Violation] = []
    for _name, rule, applies in RULES:
        if all_rules or applies(rel):
            out.extend(rule(tree, path))
    return sorted(out, key=lambda v: (str(v.path), v.line, v.rule))


def check_tree(root: Path) -> List[Violation]:
    """Scan every Python file under ``root`` with path-scoped rules."""
    out: List[Violation] = []
    for path in sorted(root.rglob("*.py")):
        out.extend(check_file(path))
    return out


def main(argv: List[str]) -> int:
    if argv:
        violations: List[Violation] = []
        for raw in argv:
            violations.extend(check_file(Path(raw), all_rules=True))
    else:
        violations = check_tree(ROOT / "src")
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
