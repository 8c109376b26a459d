"""Observability of the serving layer, over real sockets.

What the tracing + metrics PR promises, asserted end to end:

* every response carries ``X-Request-Id`` (echoed from the client when
  it is a short token, generated otherwise) — including 429
  rejections, error mappings and even protocol-level 400s for garbled,
  oversized or negative-length input — and JSON error bodies repeat
  it;
* a traced request's ``X-Trace-Id`` equals its diagnostics
  ``trace_id`` and resolves through ``Tracer.export_trace`` into a span
  tree that follows the request across every layer: server → tenant
  open → micro-batch fold → service → engine;
* N concurrent same-spec requests fold into ONE ``batch.fold`` span
  linked to all N request spans, every request's trace resolves the
  shared subtree, and the answers stay bit-identical to the sequential
  reference;
* under fractional sampling, a fold queued behind a sampled request
  records nothing into that request's trace and leaves no span
  unflushed;
* ``GET /metrics`` serves the process-wide registry in Prometheus text
  format;
* with ``trace_sample=0`` nothing records, no trace header appears,
  and the answers are bit-identical to the traced run.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import ResultSet, SearchRequest, SimilarityService
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.obs import NULL_TRACER
from repro.serve import ServeClient, ServeConfig, SimilarityServer

MEASURE = "MS_ip_te_pll"


# -- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def obs_root(tmp_path_factory):
    """A serving root with one persisted tenant."""
    root = tmp_path_factory.mktemp("obs-root")
    corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=24, seed=41))
    service = SimilarityService(corpus.repository)
    service.attach_cache_dir(root / "alpha")
    service.build_index()
    queries = corpus.repository.identifiers()[:2]
    service.search(SearchRequest(measure=MEASURE, queries=queries, k=5))
    service.persist()
    service.close()
    return root


@pytest.fixture(scope="module")
def expected(obs_root):
    """Per-query sequential ground truth for tenant ``alpha``."""
    service = SimilarityService.open(cache_dir=obs_root / "alpha")
    query_ids = service.repository.identifiers()[:6]
    truth = {
        query: service.search(
            SearchRequest(measure=MEASURE, queries=[query], k=5)
        ).result_tuples()[0]
        for query in query_ids
    }
    service.close()
    return query_ids, truth


def run_serve(root, scenario, **config_overrides):
    config = ServeConfig(root=str(root), port=0, **config_overrides)

    async def runner():
        server = SimilarityServer(config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


def search_payload(query: str, k: int = 5) -> dict:
    return {"measure": {"name": MEASURE}, "queries": [query], "k": k}


def span_nodes(tree: dict) -> "list[dict]":
    """Every node of an exported span tree, flattened."""
    nodes: "list[dict]" = []

    def walk(node: dict) -> None:
        nodes.append(node)
        for child in node.get("children", []):
            walk(child)

    for root in tree.get("spans", []):
        walk(root)
    return nodes


def names_of(tree: dict) -> "list[str]":
    return [node["name"] for node in span_nodes(tree)]


# -- request-id correlation --------------------------------------------------


class TestRequestCorrelation:
    def test_client_request_id_is_echoed(self, obs_root, expected):
        query_ids, _ = expected

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.post(
                    "/v1/alpha/search",
                    search_payload(query_ids[0]),
                    headers={"X-Request-Id": "custom-id-7"},
                )
            finally:
                await client.close()

        status, headers, _payload = run_serve(obs_root, scenario)
        assert status == 200
        assert headers["x-request-id"] == "custom-id-7"

    def test_request_id_generated_when_absent(self, obs_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.get("/healthz")
            finally:
                await client.close()

        status, headers, _payload = run_serve(obs_root, scenario)
        assert status == 200
        generated = headers["x-request-id"]
        assert len(generated) == 16
        int(generated, 16)  # hex

    def test_error_bodies_repeat_the_request_id(self, obs_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                unknown = await client.post("/v1/ghost/search", search_payload("1000"))
                no_route = await client.get("/v2/nope")
            finally:
                await client.close()
            return unknown, no_route

        for status, headers, payload in run_serve(obs_root, scenario):
            assert status in (404, 400)
            assert "error" in payload
            assert payload["request_id"] == headers["x-request-id"]

    def test_429_rejections_carry_request_ids(self, obs_root, expected, serve_lanes):
        query_ids, _ = expected

        async def scenario(server):
            clients = [ServeClient("127.0.0.1", server.port) for _ in range(5)]
            try:
                async with serve_lanes.held_tenant_thread(server, "alpha"):
                    tasks = [
                        asyncio.ensure_future(
                            client.post("/v1/alpha/search", search_payload(query))
                        )
                        for client, query in zip(clients, query_ids)
                    ]
                    await serve_lanes.until(
                        lambda: sum(task.done() for task in tasks) == 4
                    )
                return await asyncio.gather(*tasks)
            finally:
                for client in clients:
                    await client.close()

        responses = run_serve(obs_root, scenario, max_inflight=1)
        rejected = [r for r in responses if r[0] == 429]
        assert len(rejected) == 4
        seen = set()
        for _status, headers, payload in rejected:
            assert payload["request_id"] == headers["x-request-id"]
            seen.add(headers["x-request-id"])
        assert len(seen) == 4  # ids are per-request, not per-connection

    def test_unsafe_client_request_id_is_replaced(self, obs_root):
        # A bare CR inside the value would otherwise be echoed into the
        # response head, splitting it for a lenient client.
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    b"GET /healthz HTTP/1.1\r\n"
                    b"X-Request-Id: abc\rSet-Cookie: pwned=1\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                return await asyncio.wait_for(reader.read(), timeout=10.0)
            finally:
                writer.close()

        head, _, _body = run_serve(obs_root, scenario).partition(b"\r\n\r\n")
        assert b"200" in head.split(b"\r\n")[0]
        assert b"pwned" not in head and b"Set-Cookie" not in head
        (generated,) = [
            line.split(b":", 1)[1].strip()
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"x-request-id:")
        ]
        assert len(generated) == 16
        int(generated, 16)  # a generated hex id, not the client's value

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", "request line too long"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
                "header line too long",
            ),
            (
                b"POST /v1/alpha/search HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
                b"GET /healthz HTTP/1.1\r\n\r\n",
                "negative Content-Length",
            ),
            (
                b"POST /v1/alpha/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n",
                "Transfer-Encoding is not supported",
            ),
            (
                b"POST /v1/alpha/search HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
                b'{"k": 100}',
                "malformed Content-Length",
            ),
            (
                b"POST /v1/alpha/search HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
                "malformed Content-Length",
            ),
            (
                b"POST /v1/alpha/search HTTP/1.1\r\nContent-Length: 2\r\n"
                b"Content-Length: 3\r\n\r\n{} ",
                "conflicting Content-Length headers",
            ),
        ],
        ids=[
            "long-request-line",
            "long-header-line",
            "negative-content-length",
            "chunked",
            "underscore-content-length",
            "signed-content-length",
            "differing-content-lengths",
        ],
    )
    def test_malformed_input_gets_a_protocol_400(self, obs_root, serve_lanes, raw, reason):
        loop_errors = []

        async def scenario(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: loop_errors.append(context)
            )
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(raw)
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=10.0)
            finally:
                writer.close()
            # The server's connection task has finished (it closed first).
            await serve_lanes.until(lambda: not server._connections)
            return response

        response = run_serve(obs_root, scenario)
        head, _, body = response.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert b"400" in lines[0], head
        assert b"Connection: close" in lines
        assert b"X-Request-Id:" in head
        payload = json.loads(body)
        assert payload["request_id"]
        assert reason in payload["error"]
        # One answer for one request: bytes after the bad head were not
        # parsed as a second request.
        assert response.count(b"HTTP/1.1 ") == 1
        assert loop_errors == []

    def test_chunked_request_gets_exactly_one_response(self, obs_root, expected):
        """A chunked body is refused as a whole: its chunk lines are
        never answered as a second request on the kept-alive connection."""
        query_ids, _ = expected
        body = json.dumps(search_payload(query_ids[0])).encode()

        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(
                    b"POST /v1/alpha/search HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                    + f"{len(body):x}\r\n".encode()
                    + body
                    + b"\r\n0\r\n\r\n"
                )
                await writer.drain()
                return await asyncio.wait_for(reader.read(), timeout=10.0)
            finally:
                writer.close()

        response = run_serve(obs_root, scenario)
        assert response.count(b"HTTP/1.1 ") == 1, response
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]
        assert b"Connection: close" in head.split(b"\r\n")
        assert "Transfer-Encoding" in json.loads(body)["error"]

    def test_protocol_errors_are_correlatable_too(self, obs_root):
        async def scenario(server):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(b"GARBAGE\r\n\r\n")
                await writer.drain()
                raw = await reader.read(65536)
            finally:
                writer.close()
            return raw

        raw = run_serve(obs_root, scenario)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]
        assert b"X-Request-Id:" in head
        payload = json.loads(body)
        assert payload["request_id"]
        assert "malformed" in payload["error"]


# -- trace headers and end-to-end span trees ---------------------------------


class TestTracing:
    def test_trace_header_resolves_across_every_layer(self, obs_root, expected):
        """One cold search: the exported tree follows the request from
        the HTTP handler through tenant open, the batch fold, the
        service and the engine stage (a cold read writes nothing, so
        it opens no store transaction)."""
        query_ids, truth = expected

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                status, headers, payload = await client.post(
                    "/v1/alpha/search", search_payload(query_ids[0])
                )
            finally:
                await client.close()
            trace_id = headers.get("x-trace-id")
            tree = server.tracer.export_trace(trace_id) if trace_id else None
            return status, headers, payload, tree

        status, headers, payload, tree = run_serve(obs_root, scenario)
        assert status == 200
        assert ResultSet.from_dict(payload).result_tuples()[0] == truth[query_ids[0]]
        trace_id = headers["x-trace-id"]
        assert payload["diagnostics"]["trace_id"] == trace_id
        assert tree is not None and tree["trace_id"] == trace_id
        names = names_of(tree)
        for expected_name in (
            "serve.request",
            "tenant.open",
            "batch.fold",
            "service.search",
        ):
            assert expected_name in names, (expected_name, names)
        assert any(name.startswith("engine.") for name in names), names
        # The request span is the root and records the HTTP outcome.
        root = tree["spans"][0]
        assert root["name"] == "serve.request"
        assert root["attributes"]["status"] == 200
        assert root["attributes"]["tenant"] == "alpha"

    def test_disabled_tracing_is_invisible_and_bit_identical(
        self, obs_root, expected
    ):
        query_ids, truth = expected

        async def scenario(server):
            assert server.tracer is NULL_TRACER
            client = ServeClient("127.0.0.1", server.port)
            try:
                return [
                    await client.post("/v1/alpha/search", search_payload(query))
                    for query in query_ids[:3]
                ]
            finally:
                await client.close()

        responses = run_serve(obs_root, scenario, trace_sample=0.0)
        for (status, headers, payload), query in zip(responses, query_ids[:3]):
            assert status == 200
            assert "x-trace-id" not in headers
            assert "x-request-id" in headers  # correlation survives
            assert payload["diagnostics"]["trace_id"] is None
            assert ResultSet.from_dict(payload).result_tuples()[0] == truth[query]

    def test_fold_queued_behind_a_sampled_request_stays_out_of_its_trace(
        self, obs_root, expected, serve_lanes
    ):
        """Fractional sampling: a sampled pilot holds the lane and an
        unsampled search queues behind it.  The queued fold runs in its
        own request's context, so none of its spans joins the pilot's
        trace (answered before the fold ran) and no span is left live."""
        query_ids, truth = expected

        async def scenario(server):
            # Sample a root only while the tenant has nothing in flight:
            # the pilot's request is sampled; the queued search's request
            # and every root its fold opens come later, and are not.
            server.tracer._random = lambda: (
                0.0 if server.admission.inflight("alpha") == 0 else 0.99
            )
            pilot, queued = await serve_lanes.search_in_order(
                server, "alpha", [serve_lanes.PILOT_SEARCH, search_payload(query_ids[0])]
            )
            pilot_trace = pilot[1]["x-trace-id"]
            return pilot, queued, server.tracer.export_trace(pilot_trace), server.tracer

        pilot, queued, pilot_tree, tracer = run_serve(obs_root, scenario, trace_sample=0.5)
        assert pilot[0] == 200
        pilot_trace = pilot[1]["x-trace-id"]
        assert pilot[2]["diagnostics"]["trace_id"] == pilot_trace
        status, headers, payload = queued
        assert status == 200, payload
        assert ResultSet.from_dict(payload).result_tuples()[0] == truth[query_ids[0]]
        assert "x-trace-id" not in headers
        assert payload["diagnostics"]["trace_id"] != pilot_trace
        assert payload["diagnostics"]["trace_id"] is None
        # The pilot's trace holds its own fold and nothing of the next one.
        assert names_of(pilot_tree).count("service.search") == 1, names_of(pilot_tree)
        # Every recorded span reached a finished trace.
        assert tracer._live == {}


# -- micro-batch fold fan-in (the satellite) ---------------------------------


class TestFoldTraceFanIn:
    def test_one_batch_span_fans_into_every_request_trace(
        self, obs_root, expected, serve_lanes
    ):
        query_ids, truth = expected
        fold = len(query_ids)

        async def scenario(server):
            _pilot, *responses = await serve_lanes.search_in_order(
                server,
                "alpha",
                [serve_lanes.PILOT_SEARCH, *[search_payload(q) for q in query_ids]],
            )
            trees = {
                headers["x-trace-id"]: server.tracer.export_trace(
                    headers["x-trace-id"]
                )
                for _status, headers, _payload in responses
            }
            return responses, trees

        # All N requests queue behind the busy lane, which then runs them
        # as one deterministic batch of exactly N.
        responses, trees = run_serve(obs_root, scenario)

        trace_ids = []
        for query, (status, headers, payload) in zip(query_ids, responses):
            assert status == 200
            # Folded answers are still bit-identical to sequential.
            assert ResultSet.from_dict(payload).result_tuples()[0] == truth[query]
            assert payload["diagnostics"]["trace_id"] == headers["x-trace-id"]
            trace_ids.append(headers["x-trace-id"])
        assert len(set(trace_ids)) == fold  # each request roots its own trace

        batch_span_ids = set()
        for trace_id in trace_ids:
            tree = trees[trace_id]
            assert tree is not None, f"trace {trace_id} did not resolve"
            nodes = span_nodes(tree)
            batches = [n for n in nodes if n["name"] == "batch.fold"]
            assert len(batches) == 1, names_of(tree)
            batch = batches[0]
            batch_span_ids.add(batch["span_id"])
            # The fold span is parented to one request and *linked* to all.
            assert batch["attributes"]["folded_requests"] == fold
            links = batch["links"]
            assert len(links) == fold
            assert {link["trace_id"] for link in links} == set(trace_ids)
            # The shared subtree (service + engine) came along.
            names = names_of(tree)
            assert "service.search" in names
            assert any(name.startswith("engine.") for name in names), names
        # All N trees resolve the SAME batch span, not N copies.
        assert len(batch_span_ids) == 1


# -- /metrics ----------------------------------------------------------------


class TestMetricsEndpoint:
    def test_prometheus_page_reflects_served_requests(self, obs_root, expected):
        query_ids, _ = expected

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                status, _, _ = await client.post(
                    "/v1/alpha/search", search_payload(query_ids[0])
                )
                assert status == 200
                return await client.get("/metrics")
            finally:
                await client.close()

        status, headers, page = run_serve(obs_root, scenario)
        assert status == 200
        assert headers["content-type"] == "text/plain; version=0.0.4"
        assert isinstance(page, str)
        assert "# TYPE repro_requests_total counter" in page
        assert 'repro_requests_total{tenant="alpha",operation="search"}' in page
        assert "# TYPE repro_batch_fold_size summary" in page
        assert "repro_batch_fold_size_count" in page
        assert "# TYPE repro_request_latency_seconds summary" in page
        assert "# TYPE repro_tenants_open gauge" in page
        assert "# TYPE repro_service_operations_total counter" in page
        assert "# TYPE repro_store_retries_total counter" in page

    def test_metrics_is_get_only(self, obs_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.post("/metrics")
            finally:
                await client.close()

        status, _headers, payload = run_serve(obs_root, scenario)
        assert status == 405
        assert "GET-only" in payload["error"]


# -- trace persistence (--trace-dir) -----------------------------------------


class TestTraceDir:
    def test_traces_persist_as_json_and_cli_renders_them(
        self, obs_root, expected, tmp_path, capsys
    ):
        from repro.cli import main

        query_ids, _ = expected
        trace_dir = tmp_path / "traces"

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                _, headers, _ = await client.post(
                    "/v1/alpha/search", search_payload(query_ids[0])
                )
            finally:
                await client.close()
            return headers["x-trace-id"]

        trace_id = run_serve(
            obs_root, scenario, trace_dir=str(trace_dir)
        )
        trace_file = trace_dir / f"{trace_id}.json"
        assert trace_file.is_file()
        tree = json.loads(trace_file.read_text())
        assert tree["trace_id"] == trace_id
        assert "serve.request" in names_of(tree)

        assert main(["trace", "show", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "serve.request" in out
        assert "└─" in out
