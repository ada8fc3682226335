"""The repo-invariant gate works: ``tools/check_invariants.py`` passes on
``src/``, and every rule demonstrably fires on the bad fixture."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BAD_FIXTURE = ROOT / "tools" / "fixtures" / "bad_invariants.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_invariants", ROOT / "tools" / "check_invariants.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_tree_is_clean():
    checker = _load_checker()
    violations = checker.check_tree(ROOT / "src")
    assert violations == [], "\n".join(v.format() for v in violations)


def test_every_rule_fires_on_bad_fixture():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    fired = {v.rule for v in violations}
    assert fired == {rule for rule, _, _ in checker.RULES}


def test_bad_fixture_violations_are_anchored():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    assert violations, "bad fixture produced no violations"
    for violation in violations:
        assert violation.line > 0
        assert str(BAD_FIXTURE) in violation.format()


def test_self_recursion_detected_via_self_and_bare_name():
    checker = _load_checker()
    violations = checker.check_file(BAD_FIXTURE, all_rules=True)
    messages = [
        v.message for v in violations if v.rule == "kernel-recursion"
    ]
    assert any("self.apply()" in m for m in messages)
    assert any("bad_countdown()" in m for m in messages)


def test_scoped_scan_skips_out_of_scope_files(tmp_path):
    """On a tree scan, rules only apply inside their scoped paths — a
    recursive helper outside the backend dir is fine."""
    checker = _load_checker()
    outside = tmp_path / "helper.py"
    outside.write_text(
        "def walk(n):\n    return 0 if n == 0 else walk(n - 1)\n"
    )
    assert checker.check_file(outside) == []
    assert checker.check_file(outside, all_rules=True) != []


def test_cli_exit_codes():
    clean = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_invariants.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    bad = subprocess.run(
        [
            sys.executable,
            str(ROOT / "tools" / "check_invariants.py"),
            str(BAD_FIXTURE),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert bad.returncode == 1
    assert "invariant violation" in bad.stdout


def test_cold_import_flags_module_level_only(tmp_path):
    checker = _load_checker()
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "import json\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from http import client\n"
        "try:\n"
        "    import multiprocessing.pool as pool\n"
        "except ImportError:\n"
        "    pool = None\n"
        "if TYPE_CHECKING:\n"
        "    import asyncio\n"
        "class Holder:\n"
        "    import zipfile\n"
        "def lazy():\n"
        "    import socket\n"
        "    from concurrent import futures\n"
        "    return socket, futures\n"
    )
    violations = checker.check_cold_import(
        checker.ast.parse(module.read_text()), module
    )
    assert [(v.line, v.rule) for v in violations] == [
        (3, "cold-import"),
        (4, "cold-import"),
        (6, "cold-import"),
        (12, "cold-import"),
    ]


def test_cold_import_allowlist_is_scoped():
    """The fan-out and serving modules may import pool/socket machinery at
    module level; the rest of ``src/`` may not."""
    checker = _load_checker()
    _, _, applies = next(r for r in checker.RULES if r[0] == "cold-import")
    assert not applies("src/repro/suite/shards.py")
    assert not applies("src/repro/serve/server.py")
    assert not applies("src/repro/gen/fuzz.py")
    assert applies("src/repro/suite/runner.py")
    assert applies("src/repro/cli.py")
    assert not applies("tests/test_cli.py")


def test_dataclasses_import_flags_module_level_only(tmp_path):
    """Records replace dataclasses everywhere under ``src/repro``; only an
    error path may import the module, inside a function."""
    checker = _load_checker()
    module = tmp_path / "module.py"
    module.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "def raise_frozen(name):\n"
        "    from dataclasses import FrozenInstanceError\n"
        "    raise FrozenInstanceError(name)\n"
    )
    violations = checker.check_dataclasses_import(
        checker.ast.parse(module.read_text()), module
    )
    assert [(v.line, v.rule) for v in violations] == [
        (1, "dataclasses-import"),
        (2, "dataclasses-import"),
    ]
    _, _, applies = next(r for r in checker.RULES if r[0] == "dataclasses-import")
    assert applies("src/repro/serve/server.py")
    assert applies("src/repro/_node.py")
    assert not applies("tests/test_record_parity.py")
