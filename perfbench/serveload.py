"""The serve-mixed workload: a ``repro serve`` process under open-loop load.

The server runs in its own process (``python -m repro serve``, or the
traced launcher).  This module, in the ``run.py`` process, is the load
generator: Poisson arrivals on a fixed schedule, sent over two
keep-alive connections, each request timed from when it was due; then a
short closed-loop phase on the same connections, whose answered
requests per second are the server's throughput.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, CHECKOUT, K, MS, child_env, vm_hwm_mb

HOST = "127.0.0.1"
CONNECTIONS = 2
BASE_RATE = 50.0
MS_SHARE = 0.10
#: Share of the measured seconds given to the closed-loop phase.
SATURATION_SHARE = 0.2
TRACE_SEED = 20140901
#: The server's flags besides ``--root`` and ``--port``: tracing off,
#: every other flag at its default.
SERVER_FLAGS = ["--trace-sample", "0"]
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class Server:
    """One server process; ``spans`` names the launcher's span file."""

    def __init__(self, root: str, spans: "Path | None" = None) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro"]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"), str(spans)]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            [*command, "serve", "--root", root, "--port", "0", *SERVER_FLAGS],
            env=child_env(),
            cwd=str(CHECKOUT),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                continue
            line = stream.readline()
            if not line:
                break
            if "http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("server did not report its port")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def payload(measure: str, query: str) -> dict:
    return {"measure": {"name": measure}, "queries": [query], "k": K}


async def first_search(server: Server, tenant: str, query: str) -> float:
    """Seconds from spawn to the first 200 search response."""
    from repro.serve import ServeClient

    client = ServeClient(HOST, server.port)
    try:
        while time.perf_counter() - server.spawned < START_TIMEOUT:
            if server.process.poll() is not None:
                break
            try:
                status, _, _ = await client.post(f"/v1/{tenant}/search", payload("BW", query))
            except OSError:
                await asyncio.sleep(0.005)
                continue
            if status == 200:
                return time.perf_counter() - server.spawned
            await asyncio.sleep(0.005)
    finally:
        await client.close()
    raise RuntimeError("the server never answered a search with 200")


def schedule(seed: int, seconds: float, hot: "list[str]", light: "list[str]") -> list:
    """``(offset_s, measure, query)`` Poisson arrivals at the base rate.

    The count is fixed at rate × seconds and the offsets are sorted
    uniform draws — a Poisson process conditioned on its count.  The
    arrival times and request kinds are one fixed trace (its own seed);
    ``seed``, which also made the corpus, picks the query of each
    request.  Tail latency then differs between seeds by the data, not by
    the luck of the arrival pattern.
    """
    trace = random.Random(TRACE_SEED)
    rng = random.Random(seed)
    offsets = sorted(trace.uniform(0.0, seconds) for _ in range(round(BASE_RATE * seconds)))
    arrivals = []
    for offset in offsets:
        if trace.random() < MS_SHARE:
            arrivals.append((offset, MS, rng.choice(hot)))
        else:
            arrivals.append((offset, trace.choice(("BW", "BT")), rng.choice(light)))
    return arrivals


async def closed_pass(port: int, tenant: str, requests: list) -> list:
    """Warm-up: every request once, back to back on each connection."""
    from repro.serve import ServeClient

    queue: asyncio.Queue = asyncio.Queue()
    for measure, query in requests:
        queue.put_nowait((measure, query))
    results: list = []

    async def worker() -> None:
        client = ServeClient(HOST, port)
        try:
            while not queue.empty():
                measure, query = queue.get_nowait()
                status, _, body = await client.post(f"/v1/{tenant}/search", payload(measure, query))
                results.append((measure, query, status, body))
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return results


async def open_loop(port: int, tenant: str, arrivals: list) -> "tuple[list, float, float]":
    """Send each arrival when due on the first free connection.

    Returns one record per request — ``(measure, query, due, sent, done,
    lag, status, body)`` in ``time.perf_counter`` seconds — and the
    phase's start and end.  ``lag`` is how late the generator woke for
    the arrival; waiting for a free connection is the system's delay
    and counts in the latency, not in the lag.
    """
    from repro.serve import ServeClient

    free: asyncio.Queue = asyncio.Queue()
    clients = [ServeClient(HOST, port) for _ in range(CONNECTIONS)]
    for client in clients:
        free.put_nowait(client)
    records: list = []

    async def send(due: float, lag: float, measure: str, query: str) -> None:
        client = await free.get()
        try:
            sent = time.perf_counter()
            status, _, body = await client.post(f"/v1/{tenant}/search", payload(measure, query))
            records.append((measure, query, due, sent, time.perf_counter(), lag, status, body))
        finally:
            free.put_nowait(client)

    tasks = []
    # This process built the corpus: a full collection over what is left
    # of it would stall the schedule, so objects alive now are frozen out
    # of the collector and collection is off while the phase runs.
    gc.collect()
    gc.freeze()
    gc.disable()
    start = time.perf_counter() + 0.05
    try:
        for offset, measure, query in arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag = time.perf_counter() - due
            tasks.append(asyncio.create_task(send(due, lag, measure, query)))
        await asyncio.gather(*tasks)
    finally:
        gc.enable()
        for client in clients:
            await client.close()
    return records, start, time.perf_counter()


async def closed_loop(port: int, tenant: str, arrivals: list, seconds: float) -> "tuple[list, float]":
    """Saturation: each connection sends its next request as soon as the
    last one is answered, for ``seconds``, cycling through the requests
    of ``arrivals`` in order.  Returns ``(measure, query, status, body)``
    per request and the phase's length in seconds."""
    from repro.serve import ServeClient

    requests = itertools.cycle([(measure, query) for _offset, measure, query in arrivals])
    records: list = []
    start = time.perf_counter()
    deadline = start + seconds

    async def worker() -> None:
        client = ServeClient(HOST, port)
        try:
            while time.perf_counter() < deadline:
                measure, query = next(requests)
                status, _, body = await client.post(f"/v1/{tenant}/search", payload(measure, query))
                records.append((measure, query, status, body))
        finally:
            await client.close()

    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    return records, time.perf_counter() - start


async def tenant_stats(port: int, tenant: str) -> dict:
    from repro.serve import ServeClient

    client = ServeClient(HOST, port)
    try:
        status, _, body = await client.get(f"/v1/{tenant}/stats")
    finally:
        await client.close()
    if status != 200:
        raise RuntimeError(f"stats answered {status}: {body}")
    return body
