"""Property-based fuzz of odd JSON bodies through the server's request path.

A request body is JSON text from a client the server does not control.
Whatever that text holds — duplicate keys, arrays or objects nested up
to 100,000 deep, integers longer than Python's 4,300-digit conversion
limit, ``1e999``, a root that is not an object — the server must answer
200, 400 or 404.  A 500 would mean the client's text reached the engine
as a fault of the server (it also counts in ``repro_errors_total``).

Every body travels the whole way: over a socket to a running
:class:`SimilarityServer`, through the HTTP parser, JSON decoding and
request decoding, to the tenant's service when it decodes.  Bodies name
no ``workers`` and no ``parallel`` mode, so no body asks for a process
pool.  The seed is fixed (1483) unless ``REPRO_FUZZ_SEED`` sets another
one.
"""

from __future__ import annotations

import asyncio
import os
import threading

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.api import SimilarityService
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.serve import ServeClient, ServeConfig, SimilarityServer

FUZZ = settings(max_examples=120, deadline=None, database=None)
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

#: What the server may answer a client's body with.
ANSWERS = (200, 400, 404)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A running server over one indexed 30-workflow tenant, ``alpha``,
    on an event loop of its own thread; yields ``post(operation, body)``."""
    root = tmp_path_factory.mktemp("json-fuzz-root")
    corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=30, seed=31))
    service = SimilarityService(corpus.repository, cache_dir=root / "alpha")
    service.build_index()
    service.close()

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = SimilarityServer(ServeConfig(root=str(root), port=0))
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=60)

    async def round_trip(operation: str, body: bytes):
        client = ServeClient("127.0.0.1", server.port)
        try:
            await client._ensure_connected()
            return await client._round_trip("POST", f"/v1/alpha/{operation}", body)
        finally:
            await client.close()

    def post(operation: str, body: bytes):
        future = asyncio.run_coroutine_threadsafe(round_trip(operation, body), loop)
        return future.result(timeout=120)

    try:
        yield post
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)
        assert not thread.is_alive()
        loop.close()


def nested(depth: int, open_: str, close: str, inner: str = "1") -> str:
    return open_ * depth + inner + close * depth


#: JSON texts a decoder finds odd.
odd_values = st.one_of(
    st.integers(1, 100_000).map(lambda depth: nested(depth, "[", "]")),
    st.integers(1, 100_000).map(lambda depth: nested(depth, '{"a":', "}")),
    st.integers(1, 100_000).map(lambda depth: "[" * depth),
    st.integers(4_000, 5_000).map(lambda digits: "9" * digits),
    st.integers(4_000, 5_000).map(lambda digits: "-1" + "0" * digits),
    st.sampled_from(("1e999", "-1e999", "NaN", "Infinity", "-0", "1e-999", "null", "true")),
)
#: JSON texts a request field may hold, so bodies also reach the engine.
plain_values = st.sampled_from(
    (
        '{"name": "BW"}',
        '{"name": "BT"}',
        '"BW"',
        '["1000", "1001"]',
        '["1000"]',
        '["no-such-workflow"]',
        "3",
        "0.4",
        '"single"',
        '"average"',
        '{"mode": "sequential"}',
        '{"mode": "auto"}',
        "[]",
        "{}",
        '""',
    )
)
keys = st.sampled_from(
    ("measure", "queries", "k", "candidates", "workflows", "threshold", "linkage", "policy", "kind", "x")
)
#: Object bodies, key by key: a key may repeat, and the last one wins.
objects = st.lists(
    st.tuples(keys, st.one_of(plain_values, odd_values)), max_size=6
).map(lambda pairs: "{" + ", ".join(f'"{key}": {value}' for key, value in pairs) + "}")
bodies = st.one_of(
    objects,
    st.builds(
        lambda measure, pairs: "{" + ", ".join([f'"measure": {measure}'] + pairs) + "}",
        plain_values,
        st.lists(st.builds('"{}": {}'.format, keys, odd_values), min_size=1, max_size=2),
    ),
    odd_values,
    plain_values,
)


@seed(FUZZ_SEED)
@FUZZ
@given(operation=st.sampled_from(("search", "pairwise", "cluster")), body=bodies)
@example(operation="search", body='{"measure": ' + "[" * 50_000 + "}")
@example(operation="search", body='{"measure": ' + nested(100_000, "[", "]") + "}")
@example(operation="pairwise", body=nested(100_000, '{"a":', "}"))
@example(operation="search", body='{"measure": {"name": "BW"}, "k": ' + "9" * 4_301 + "}")
@example(operation="cluster", body='{"measure": {"name": "BW"}, "threshold": 1e999}')
@example(operation="search", body='{"measure": {"name": "XX"}, "measure": {"name": "BW"}}')
@example(operation="search", body='["search"]')
def test_odd_json_bodies_are_never_a_500(served, operation, body):
    status, _headers, payload = served(operation, body.encode("utf-8"))
    assert status in ANSWERS, (status, payload)
