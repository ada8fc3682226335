"""``repro serve`` as a real subprocess: CLI flags, crash recovery,
signal-driven shutdown — the operational contract CI's serve-smoke job
re-checks on a live wheel.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def serve_process(tmp_path):
    """A ``repro serve`` subprocess on an ephemeral port, with process
    workers and crash hooks enabled; yields (process, base_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--test-hooks",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(REPO),
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", banner)
    assert match, f"no listening banner in {banner!r}"
    yield proc, match.group(0)
    if proc.poll() is None:
        # A graceful stop first: SIGTERM shuts the worker pool down with
        # the server.  SIGKILL only if that does not finish in time.
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def _proc_stat(pid: int):
    """``(state, ppid)`` of a live process from ``/proc``, else None."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name may contain spaces; the fields after it do not.
    state, ppid = stat.rpartition(")")[2].split()[:2]
    return state, int(ppid)


def _children(parent: int):
    """Pids of the live (non-zombie) processes whose parent is ``parent``."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[0] != "Z" and stat[1] == parent:
                out.append(int(entry))
    return out


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def post(url: str, document) -> dict:
    data = json.dumps(document).encode()
    request = urllib.request.Request(
        url + "/v1/analyze", data=data,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def get(url: str, route: str) -> dict:
    with urllib.request.urlopen(url + route, timeout=30) as response:
        return json.loads(response.read())


class TestServeSubprocess:
    def test_crash_then_respawn_then_sigterm(self, serve_process):
        proc, url = serve_process

        # 1. A healthy analysis through real worker processes.
        first = post(url, {"target": "counter", "stage": "full"})
        assert first["result"]["status"] == "ok"
        assert first["cached"] is False

        # 2. Kill a worker mid-job: one 500, structured.
        with pytest.raises(urllib.error.HTTPError) as info:
            post(url, {"kind": "__crash__"})
        assert info.value.code == 500
        error = json.loads(info.value.read())
        assert error["error"]["type"] == "worker-crash"

        # 3. The pool respawned: the next analysis succeeds, and the
        # earlier result is served from cache (state survived the crash).
        again = post(url, {"target": "counter", "stage": "full"})
        assert again["cached"] is True
        fresh = post(url, {"target": "counter", "stage": "partial"})
        assert fresh["result"]["status"] == "ok"
        counters = get(url, "/v1/stats")["counters"]
        assert counters["serve.workers.crashes"] == 1
        assert counters["serve.workers.crash_respawns"] == 1

        # 4. SIGTERM: clean exit 0 with the shutdown line.
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "shutting down" in proc.stdout.read()

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="needs /proc to list processes"
    )
    def test_sigkilled_server_takes_its_workers_with_it(self, serve_process):
        proc, url = serve_process
        # One analysis makes the pool fork its workers.
        assert post(url, {"target": "counter", "stage": "full"})["result"][
            "status"
        ] == "ok"
        workers = _children(proc.pid)
        assert len(workers) >= 2, workers

        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline and any(map(_alive, workers)):
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        for pid in survivors:  # do not leak them past a failure
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_run_and_suite_thin_clients(self, serve_process, tmp_path):
        proc, url = serve_process
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")

        run = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url,
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert "100.00%" in run.stdout
        cached = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url,
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=300,
        )
        assert "[cached]" in cached.stdout

        report = tmp_path / "suite.json"
        suite = subprocess.run(
            [
                sys.executable, "-m", "repro", "suite", "examples",
                "--server", url, "--jobs", "4", "--json", str(report),
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=600,
        )
        assert suite.returncode == 0, suite.stderr
        document = json.loads(report.read_text())
        assert document["schema"] == "repro-coverage-suite/v2"
        assert document["totals"]["errors"] == 0

    def test_server_flag_rejects_local_only_output(self, serve_process):
        proc, url = serve_process
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "examples/counter.rml", "--server", url, "--traces", "2",
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=120,
        )
        assert out.returncode == 2
        assert "--server" in out.stderr

    def test_suite_fails_fast_when_server_is_down(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "suite", "examples",
                "--server", f"http://127.0.0.1:{port}",
            ],
            capture_output=True, text=True, env=env, cwd=str(REPO),
            timeout=120,
        )
        assert out.returncode == 2
        assert "unreachable" in out.stderr
