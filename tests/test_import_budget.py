"""Cold-start import budgets for the CLI.

On small models a cold ``repro run`` mostly waits for imports, so each
entry point may only load what it uses.  Every check runs a fresh
interpreter under ``-X importtime`` (the parent test process has long
since imported everything) and compares what it loaded with what a bare
interpreter loads, so modules the environment's ``site`` pulls in do not
count against the command.

The second half pins the rule that keeps worker processes off the import
path: the suite and serve parents import the analysis stack before their
process pools fork.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODEL = ROOT / "examples" / "counter.rml"

#: Modules no cold ``--version``, ``run``, ``lint`` or top-level API
#: lookup may load (a name also covers its submodules).  ``dataclasses``
#: brings ``inspect``, ``ast``, ``dis`` and ``tokenize`` with it; records
#: are built by ``repro._node`` instead.
HEAVY = (
    "dataclasses",
    "inspect",
    "concurrent.futures",
    "multiprocessing",
    "socket",
    "asyncio",
    "zipfile",
    "repro.suite.shards",
    "repro.serve",
    "repro.gen",
    "repro.obs.bench",
    "repro.bdd.backends.array_backend",
    "repro.fsm.explicit",
    "repro.mc.explicit_checker",
)

#: Command name -> interpreter arguments.
COMMANDS = {
    "version": ("-m", "repro", "--version"),
    "run": ("-m", "repro", "run", str(MODEL)),
    "lint": ("-m", "repro", "lint", str(MODEL)),
    # A public name resolves through its owning module alone, not the
    # whole API (which would load the server, the fuzzer and the pools).
    "api": ("-c", "import repro; repro.Analysis"),
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def imported(*args):
    """Names of the modules ``python -X importtime ARGS`` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, cwd=ROOT, env=_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            name = line.rsplit("|", 1)[1].strip()
            if name != "imported package":  # the header line
                names.add(name)
    return names


def _covered(name, prefixes):
    return any(name == p or name.startswith(p + ".") for p in prefixes)


@pytest.fixture(scope="module")
def bare():
    return imported("-c", "pass")


class TestColdCommands:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_loads_no_heavy_module(self, command, bare):
        loaded = imported(*COMMANDS[command]) - bare
        heavy = sorted(name for name in loaded if _covered(name, HEAVY))
        assert heavy == [], f"{command!r} loaded {heavy}"

    def test_version_loads_only_the_cli(self, bare):
        loaded = imported("-m", "repro", "--version") - bare
        ours = sorted(name for name in loaded if _covered(name, ("repro",)))
        allowed = {"repro", "repro.__main__", "repro.cli", "repro._version"}
        assert set(ours) <= allowed, ours

    def test_version_output_matches_argparse(self, capsys):
        # The fast path prints what argparse's version action would, and
        # exits the same way.
        from repro._version import __version__
        from repro.cli import build_parser, main

        with pytest.raises(SystemExit) as fast:
            main(["--version"])
        fast_out = capsys.readouterr().out
        with pytest.raises(SystemExit) as slow:
            build_parser().parse_args(["--version"])
        assert fast_out == capsys.readouterr().out
        assert fast_out == f"repro-coverage {__version__}\n"
        assert fast.value.code == slow.value.code == 0


def _snippet(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, cwd=ROOT, env=_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


STACK = ("repro.analysis", "repro.suite.runner", "repro.lang", "repro.lint")


class TestPreloadBeforeFork:
    def test_serve_pool_preloads_analysis_stack(self):
        out = _snippet(
            "import sys\n"
            "from repro.serve.workers import WorkerPool\n"
            "pool = WorkerPool(workers=1)\n"
            f"print(sorted(m for m in {STACK!r} if m in sys.modules))\n"
            "pool.shutdown()\n"
        )
        assert out.strip() == repr(sorted(STACK))

    def test_suite_preloads_analysis_stack_before_fork(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / f"{name}.rml").write_text(MODEL.read_text())
        # Swap the shard executor's pool class for one that records what
        # the parent has imported at the moment the pool is built — before
        # any worker forks.
        out = _snippet(
            "import sys\n"
            "import repro.suite.shards as shards\n"
            "seen = []\n"
            "class Recording(shards.ProcessPoolExecutor):\n"
            "    def __init__(self, *args, **kwargs):\n"
            f"        seen.append(sorted(m for m in {STACK!r} if m in sys.modules))\n"
            "        super().__init__(*args, **kwargs)\n"
            "shards.ProcessPoolExecutor = Recording\n"
            "from repro.cli import main\n"
            f"code = main(['suite', {str(tmp_path)!r}, '--no-builtins', '--jobs', '2'])\n"
            "print(code, seen[0] if seen else None)\n"
        )
        assert out.strip().splitlines()[-1] == f"0 {sorted(STACK)!r}"
