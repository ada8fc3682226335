"""``serve-mix``: two clients against ``repro serve --workers 2``.

A closed loop with two client threads (one connection each at a time)
over a seeded request stream with three classes:

``repeat``  the exact body of a request already sent (memo and cache hit)
``edit``    a model already sent with one comment line added (memo miss,
            then parse, key and lint, then a cache hit)
``new``     a model the server has not seen: a corpus model under a fresh
            module name, 2% of them ladder-sized (worker analysis plus a
            disk-cache write)

Each run starts the server with a fresh ``--cache-dir``.  This is the only
workload that exercises the server's keys, result cache, HTTP layer and
worker pool, with reads beside writes on the same cache.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import threading
import time
from typing import Dict, List, Tuple

import layers
from answers import from_result_json
from common import (
    MIN_OPS,
    PY,
    Clock,
    SetupError,
    child_env,
    end_to_end,
    p50,
    ratio,
    setup_seconds,
    workdir,
)
from models import digest, ladder_shapes, load_corpus, set_digest

WORKERS = 2
CLIENTS = 2
MIX = (("repeat", 0.6), ("edit", 0.2), ("new", 0.2))
#: Share of new requests that are ladder-sized, and the ladder shapes
#: they come from.
LADDER_SHARE = 0.02
LADDER_SHAPES = ("pipeline-s5-", "pipeline-s6-", "queue-d1")
#: Nominal requests per second on the reference machine (2 vCPUs).
RATE = 285.0
#: The stream is sent in this many chunks, each scaled by the calibration
#: samples taken just before and after it, while the server is idle.
CHUNKS = 50
#: Requests in the traced run's in-process replay.
REPLAY = 120


def plan(seed: int, seconds: float) -> List[Tuple[str, str, str]]:
    """The request stream as ``(class, key, body)``; ``key`` is the digest
    of the corpus or ladder text the body's answer must match."""
    small = [(digest(r["text"]), r["text"]) for r in load_corpus()]
    big = [(digest(text), text) for shape, _, variants in ladder_shapes()
           if shape.startswith(LADDER_SHAPES) for _, text in variants]
    # The ladder-sized models come in the same order for every seed: the
    # largest of them set the workers' peak memory.
    random.Random("serve-mix-big").shuffle(big)
    rng = random.Random(f"serve-mix:{seed}")
    rng.shuffle(small)
    count = max(MIN_OPS, round(seconds * RATE))
    # Exact class and size shares, so that the latency percentiles, which
    # fall between the classes' latencies, do not move with the seed's mix.
    classes = [c for c, w in MIX for _ in range(round(w * count))]
    classes += ["repeat"] * (count - len(classes))
    rng.shuffle(classes)
    first = classes.index("new")  # the first request has nothing to repeat
    classes[0], classes[first] = classes[first], classes[0]
    news = [i for i, cls in enumerate(classes) if cls == "new"]
    large = set(rng.sample(news, min(len(big), round(LADDER_SHARE * len(news)))))
    sent: List[Tuple[str, str]] = []  # (key, text) of every model body sent
    bodies: List[Tuple[str, str]] = []  # (key, body) of every request sent
    stream = []
    for i, cls in enumerate(classes):
        if cls == "repeat":
            key, body = rng.choice(bodies)
        else:
            if cls == "edit":
                key, text = rng.choice(sent)
                lines = text.split("\n")
                at = rng.randrange(len(lines) + 1)
                lines.insert(at, f"-- edit {i}")
                text = "\n".join(lines)
            else:
                key, text = big.pop() if i in large else small[i % len(small)]
                text = re.sub(r"^MODULE (\S+)", rf"MODULE \1_n{i}", text,
                              count=1, flags=re.M)
            sent.append((key, text))
            body = json.dumps({"rml": text})
        bodies.append((key, body))
        stream.append((cls, key, body))
    return stream


def _request(port: int, method: str, path: str, body: str = None) -> Tuple[int, Dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class Server:
    """``repro serve`` in a child process, ready once ``/v1/health`` answers."""

    def __init__(self, cache_dir, env):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, "-m", "repro", "serve", "--port", "0", "--workers",
             str(WORKERS), "--cache-dir", str(cache_dir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if not match:
                raise SetupError(f"repro serve did not start: {line!r}")
            self.port = int(match.group(1))
            deadline = time.monotonic() + 60
            while True:
                try:
                    if _request(self.port, "GET", "/v1/health")[0] == 200:
                        break
                except OSError:
                    pass
                if time.monotonic() > deadline:
                    raise SetupError("repro serve never became healthy")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def usage(self) -> Tuple[float, float, float]:
        """``(cpu_seconds, server_peak_mb, worker_peak_mb)``: the CPU the
        server and its worker processes used so far (live ones from
        ``/proc``, exited ones through the server's children totals), the
        server's peak resident memory (``VmHWM``) and the largest among the
        live workers."""
        ticks = os.sysconf("SC_CLK_TCK")
        cpu = 0
        peak_kb = {}
        pending = [self.proc.pid]
        while pending:
            pid = pending.pop()
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # exited meanwhile; the server's totals have it
                continue
            # utime, stime, cutime, cstime are fields 14-17 of stat.
            cpu += sum(int(f) for f in fields[11:15])
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            peak_kb[pid] = int(line.split()[1])
                tasks = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"/proc/{pid}/task/{task}/children") as fh:
                        pending += [int(c) for c in fh.read().split()]
                except OSError:
                    pass
        server_kb = peak_kb.pop(self.proc.pid, 0)
        worker_kb = max(peak_kb.values(), default=0)
        return cpu / ticks, server_kb / 1024.0, worker_kb / 1024.0

    def stats(self) -> Dict[str, float]:
        return _request(self.port, "GET", "/v1/stats")[1]["counters"]

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _drive(port: int, stream, outcome, expected, records) -> float:
    """Send ``stream`` from :data:`CLIENTS` threads; returns the wall time."""
    lock = threading.Lock()
    cursor = iter(range(len(stream)))

    def client():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            cls, key, body = stream[i]
            start = time.perf_counter()
            try:
                status, doc = _request(port, "POST", "/v1/analyze", body)
            except (OSError, ValueError) as exc:
                status, doc = 0, {"error": str(exc)}
            seconds = time.perf_counter() - start
            with lock:
                if status == 200:
                    outcome.check(expected, key, from_result_json(doc["result"]))
                    records.append((cls, seconds, bool(doc.get("cached"))))
                else:
                    outcome.fail(f"request {i} ({cls}): HTTP {status} {doc}")
                    records.append((cls, seconds, False))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start


def run(outcome, expected, seed: int, seconds: float, traced: bool) -> None:
    stream = plan(seed, seconds)
    outcome.detail["input_digest"] = set_digest(body for _, _, body in stream)
    with workdir("serve-mix") as work:
        env = child_env(work)
        caches = (work / f"setup-cache{n}" for n in itertools.count())

        def start() -> float:
            server = Server(next(caches), env)
            server.stop()
            return server.ready_s

        setup = setup_seconds(env, start)
        server = Server(work / "cache", env)
        clock = Clock()
        records: List[Tuple[str, float, float, bool]] = []
        wall = [0.0, 0.0]
        cpu_s = 0.0
        peak_mb = [0.0, 0.0]  # server, largest worker
        try:
            before = server.stats()
            size = -(-len(stream) // CHUNKS)
            for at in range(0, len(stream), size):
                chunk: List[Tuple[str, float, bool]] = []
                cpu0, *peak0 = server.usage()
                seconds_c = _drive(server.port, stream[at:at + size],
                                   outcome, expected, chunk)
                cpu1, *peak1 = server.usage()
                factor = clock.step()
                cpu_s += (cpu1 - cpu0) * factor
                peak_mb = [max(p) for p in zip(peak_mb, peak0, peak1)]
                wall[0] += seconds_c * factor
                wall[1] += seconds_c
                records += [(c, s * factor, s, hit) for c, s, hit in chunk]
            after = server.stats()
        finally:
            server.stop()
        if traced:
            replay, seen = [], set()
            for cls, key, body in stream:
                if cls == "new" and key not in seen and len(replay) < REPLAY:
                    seen.add(key)
                    replay.append((key, json.loads(body)["rml"]))
            layers.traced_run(outcome, expected, replay, env)
    if not traced:
        end_to_end(outcome, clock, setup=setup,
                   latencies=([r[1] for r in records], [r[2] for r in records]),
                   wall=tuple(wall), cpu_s=cpu_s, peak_rss_mb=peak_mb[0])

    def delta(*names):
        return sum(after.get(n, 0) - before.get(n, 0) for n in names)

    by_class = {c: [r[2] for r in records if r[0] == c] for c, _ in MIX}
    hits = sum(r[3] for r in records)
    outcome.detail["serve"] = {
        "class_share": {c: ratio(len(v), len(records)) for c, v in by_class.items()},
        "serve.hit_ratio": ratio(hits, len(records)),
        "serve.hit_ratio_base": len(records),
        "serve.hit_latency_p50_s": p50(by_class["repeat"]),
        "serve.edit_latency_p50_s": p50(by_class["edit"]),
        "serve.miss_latency_p50_s": p50(by_class["new"]),
        "serve.memo_hits": delta("serve.server.memo_hits"),
        "serve.dedup_joins": delta("serve.server.dedup_joins"),
        "worker_peak_rss_mb": peak_mb[1],
        "serve.worker_respawns": delta("serve.workers.recycles",
                                       "serve.workers.crash_respawns"),
    }
