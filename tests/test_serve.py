"""Serving layer: micro-batch bit-identity, tenant isolation, admission,
graceful shutdown, tenant layout, CLI smoke.

Every test runs a real :class:`SimilarityServer` on an ephemeral port
and talks to it over real sockets with the stdlib-only
:class:`ServeClient` — nothing is mocked between the HTTP wire and the
engine.  The load-bearing assertions mirror the serving contract:

* a search folded into a cross-request micro-batch returns the *same
  bits* as the same request issued alone (scores, ranks, tie-breaks);
* requests under different measure specs never share a batch;
* one tenant's corrupted store quarantines and rebuilds without
  touching another tenant;
* a search on an idle tenant runs at once as its own batch; searches
  queued while the tenant's lane is busy fold one batch per fold key,
  oldest key first, and a failing fold fails only its own requests;
* past the per-tenant in-flight cap the server answers 429 with
  ``Retry-After`` instead of queueing without bound;
* graceful shutdown drains admitted work, including searches still
  queued on a lane.

Folds are made deterministic by holding the tenant's lane busy (the
``serve_lanes`` fixture), never by racing a timer.
"""

from __future__ import annotations

import asyncio
import shutil
import sqlite3
import time

import pytest

from repro.api import ResultSet, SearchRequest, SimilarityService
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.serve import ServeClient, ServeConfig, SimilarityServer
from repro.serve import tenants as tenants_module
from repro.serve.config import RETRY_AFTER_SECONDS
from repro.serve.tenants import TenantManager, UnknownTenantError
from repro.store import WorkflowStore, discover_tenants, tenant_cache_dir, validate_tenant_name
from repro.store.workflow_store import STORE_FILENAME

MEASURE = "MS_ip_te_pll"


# -- fixtures ----------------------------------------------------------------


def _build_tenant(root, name: str, *, seed: int, workflows: int = 30) -> None:
    corpus = generate_myexperiment_corpus(
        CorpusSpec(workflow_count=workflows, seed=seed)
    )
    service = SimilarityService(corpus.repository)
    service.attach_cache_dir(root / name)
    service.build_index()
    # A small structural search accumulates pair scores so the persisted
    # store has content in every table (the corruption tests edit
    # pair_scores; annotation measures alone would leave it empty).
    queries = corpus.repository.identifiers()[:2]
    service.search(SearchRequest(measure=MEASURE, queries=queries, k=5))
    service.persist()
    service.close()


@pytest.fixture(scope="module")
def serve_root(tmp_path_factory):
    """A serving root with two independent tenants."""
    root = tmp_path_factory.mktemp("serve-root")
    _build_tenant(root, "alpha", seed=31)
    _build_tenant(root, "beta", seed=32)
    return root


@pytest.fixture(scope="module")
def alpha_expected(serve_root):
    """Per-query sequential ground truth for tenant ``alpha``."""
    service = SimilarityService.open(cache_dir=serve_root / "alpha")
    query_ids = service.repository.identifiers()[:8]
    expected = {
        query: service.search(
            SearchRequest(measure=MEASURE, queries=[query], k=5)
        ).result_tuples()[0]
        for query in query_ids
    }
    service.close()
    return query_ids, expected


def run_serve(root, scenario, **config_overrides):
    """Start a server on an ephemeral port, run ``scenario(server)``, stop."""
    config = ServeConfig(root=str(root), port=0, **config_overrides)

    async def runner():
        server = SimilarityServer(config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


def search_payload(query: str, measure: str = MEASURE, k: int = 5) -> dict:
    return {"measure": {"name": measure}, "queries": [query], "k": k}


async def tenant_stats(server, tenant: str = "alpha"):
    client = ServeClient("127.0.0.1", server.port)
    try:
        return await client.get(f"/v1/{tenant}/stats")
    finally:
        await client.close()


def record_searches(runtime, *, fail_measure: "str | None" = None) -> list:
    """Record ``(measure, queries)`` of every engine search the tenant
    runs; searches under ``fail_measure`` raise instead."""
    calls: list = []
    search = runtime.service.search

    def recording(request):
        calls.append((request.measure.name, request.queries))
        if request.measure.name == fail_measure:
            raise RuntimeError("injected engine fault")
        return search(request)

    runtime.service.search = recording
    return calls


def recording_opens(monkeypatch) -> list:
    """Record the ``cache_dir`` of every ``SimilarityService.open`` call."""
    opens: list = []
    open_service = SimilarityService.open

    def recording(*args, **kwargs):
        opens.append(kwargs.get("cache_dir"))
        return open_service(*args, **kwargs)

    monkeypatch.setattr(SimilarityService, "open", recording)
    return opens


def has_fold_note(payload) -> bool:
    return any("micro-batched" in note for note in payload["diagnostics"]["notes"])


# -- tenant layout helpers ---------------------------------------------------


class TestTenantLayout:
    def test_validate_accepts_safe_names(self):
        for name in ("alpha", "tenant-1", "a.b_c", "X" * 64):
            assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "bad", ["", "..", "../x", "a/b", ".hidden", "-lead", "x" * 65, "a b"]
    )
    def test_validate_rejects_unsafe_names(self, bad):
        with pytest.raises(ValueError):
            validate_tenant_name(bad)

    def test_discover_lists_only_store_dirs(self, serve_root, tmp_path):
        assert discover_tenants(serve_root) == ["alpha", "beta"]
        assert discover_tenants(tmp_path / "missing") == []
        # A stray non-store directory (like quarantine/) is skipped.
        (serve_root / "not-a-tenant").mkdir(exist_ok=True)
        assert discover_tenants(serve_root) == ["alpha", "beta"]

    def test_tenant_cache_dir_is_one_segment(self, serve_root):
        assert tenant_cache_dir(serve_root, "alpha") == serve_root / "alpha"
        with pytest.raises(ValueError):
            tenant_cache_dir(serve_root, "../alpha")


# -- micro-batching ----------------------------------------------------------


class TestMicroBatching:
    def test_folded_results_equal_sequential_bit_for_bit(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected

        async def scenario(server):
            pilot, *responses = await serve_lanes.search_in_order(
                server,
                "alpha",
                [serve_lanes.PILOT_SEARCH, *[search_payload(q) for q in query_ids]],
            )
            return pilot, responses, await tenant_stats(server)

        pilot, responses, (stats_status, _, stats) = run_serve(serve_root, scenario)
        assert pilot[0] == 200, pilot
        for query, (status, _headers, payload) in zip(query_ids, responses):
            assert status == 200, payload
            result = ResultSet.from_dict(payload)
            # The folded answer IS the per-request answer: same hits,
            # same scores, same ranks, same tie-breaks.
            assert result.result_tuples()[0] == expected[query]
            assert has_fold_note(payload), payload["diagnostics"]["notes"]
        assert stats_status == 200
        batch = stats["batch"]
        # The pilot's batch, then every queued request in ONE fold.
        assert batch["batches"] == 2
        assert batch["max_fold"] == len(query_ids)
        assert batch["fold_factor"] > 1.0
        assert batch["folded_requests"] == len(query_ids) + 1
        assert stats["latency_ms"]["p50"] is not None
        assert stats["latency_ms"]["p99"] is not None
        assert stats["qps"] > 0

    def test_mixed_measure_specs_do_not_fold(self, serve_root, alpha_expected, serve_lanes):
        query_ids, _ = alpha_expected
        measures = [MEASURE, "BW"]

        async def scenario(server):
            _pilot, *responses = await serve_lanes.search_in_order(
                server,
                "alpha",
                [
                    serve_lanes.PILOT_SEARCH,
                    *[search_payload(query_ids[0], measure=m) for m in measures],
                ],
            )
            return responses, (await tenant_stats(server))[2]

        responses, stats = run_serve(serve_root, scenario)
        for measure, (status, _headers, payload) in zip(measures, responses):
            assert status == 200, payload
            assert payload["queries"][0]["measure"] == measure
            assert not has_fold_note(payload), payload["diagnostics"]["notes"]
        # Queued together, two measure specs still ran as two engine
        # batches of one (after the pilot's).
        assert stats["batch"]["batches"] == 3
        assert stats["batch"]["max_fold"] == 1
        assert stats["batch"]["fold_factor"] == 1.0

    def test_fold_is_bounded_by_the_admission_cap(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected
        over_cap = []

        async def one_more(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                over_cap.append(
                    await client.post("/v1/alpha/search", search_payload(query_ids[4]))
                )
            finally:
                await client.close()

        async def scenario(server):
            started = time.perf_counter()
            _pilot, *responses = await serve_lanes.search_in_order(
                server,
                "alpha",
                [serve_lanes.PILOT_SEARCH, *[search_payload(q) for q in query_ids[:4]]],
                while_held=lambda: one_more(server),
            )
            elapsed = time.perf_counter() - started
            return responses, elapsed, (await tenant_stats(server))[2]

        # The pilot plus four queued searches fill a cap of five: a sixth
        # search is refused, so no fold can outgrow the cap.
        responses, elapsed, stats = run_serve(serve_root, scenario, max_inflight=5)
        assert elapsed < 10.0
        assert over_cap[0][0] == 429
        for query, (status, _headers, payload) in zip(query_ids[:4], responses):
            assert status == 200
            assert ResultSet.from_dict(payload).result_tuples()[0] == expected[query]
        assert stats["batch"]["max_fold"] == 4


class TestSearchLane:
    def test_lone_request_on_an_idle_lane_runs_as_its_own_batch(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected
        queries = query_ids[:2]

        async def scenario(server):
            calls = record_searches(await server.tenants.get("alpha"))
            responses = await serve_lanes.search_in_order(
                server, "alpha", [search_payload(query) for query in queries]
            )
            return calls, responses, (await tenant_stats(server))[2]

        calls, responses, stats = run_serve(serve_root, scenario)
        # The first search left for the engine the moment it arrived, without
        # waiting for company; the second queued behind it and ran alone too.
        assert calls == [(MEASURE, (queries[0],)), (MEASURE, (queries[1],))]
        for query, (status, _headers, payload) in zip(queries, responses):
            assert status == 200, payload
            assert ResultSet.from_dict(payload).result_tuples()[0] == expected[query]
            assert not has_fold_note(payload), payload["diagnostics"]["notes"]
        assert stats["batch"]["batches"] == 2
        assert stats["batch"]["max_fold"] == 1

    def test_busy_lane_folds_one_batch_per_key_oldest_first(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected
        measures = [MEASURE, "BW", MEASURE, "BW", MEASURE]
        queries = query_ids[: len(measures)]
        direct = SimilarityService.open(cache_dir=serve_root / "alpha")
        bw_expected = {
            query: direct.search(
                SearchRequest(measure="BW", queries=[query], k=5)
            ).result_tuples()[0]
            for query, measure in zip(queries, measures)
            if measure == "BW"
        }
        direct.close()

        async def scenario(server):
            calls = record_searches(await server.tenants.get("alpha"))
            _pilot, *responses = await serve_lanes.search_in_order(
                server,
                "alpha",
                [
                    serve_lanes.PILOT_SEARCH,
                    *[search_payload(q, measure=m) for q, m in zip(queries, measures)],
                ],
            )
            return calls, responses, (await tenant_stats(server))[2]

        calls, responses, stats = run_serve(serve_root, scenario)
        ms_queries = tuple(q for q, m in zip(queries, measures) if m == MEASURE)
        bw_queries = tuple(q for q, m in zip(queries, measures) if m == "BW")
        # After the pilot, one engine batch per fold key: the MS key's
        # oldest request arrived first, so its fold ran first.
        assert calls[1:] == [(MEASURE, ms_queries), ("BW", bw_queries)]
        for query, measure, (status, _headers, payload) in zip(queries, measures, responses):
            assert status == 200, payload
            truth = expected if measure == MEASURE else bw_expected
            assert ResultSet.from_dict(payload).result_tuples()[0] == truth[query]
            fold = len(ms_queries) if measure == MEASURE else len(bw_queries)
            assert any(
                f"folded {fold} requests" in note for note in payload["diagnostics"]["notes"]
            ), payload["diagnostics"]["notes"]
        assert stats["batch"]["batches"] == 3
        assert stats["batch"]["folded_requests"] == len(queries) + 1

    @pytest.mark.parametrize("fault", ["engine", "diagnostics"])
    def test_failed_fold_answers_500_and_the_lane_moves_on(
        self, serve_root, alpha_expected, serve_lanes, fault
    ):
        query_ids, expected = alpha_expected
        measures = ["BW", "BW", MEASURE, MEASURE]
        queries = query_ids[: len(measures)]

        async def scenario(server):
            runtime = await server.tenants.get("alpha")
            if fault == "engine":
                record_searches(runtime, fail_measure="BW")
            else:
                # A fault after the engine call, in the per-request copy.
                copy = server.batcher._request_diagnostics

                def failing_copy(folded_set, *args):
                    if folded_set.queries[0].measure == "BW":
                        raise RuntimeError("injected diagnostics fault")
                    return copy(folded_set, *args)

                server.batcher._request_diagnostics = failing_copy
            return await serve_lanes.search_in_order(
                server,
                "alpha",
                [
                    serve_lanes.PILOT_SEARCH,
                    *[search_payload(q, measure=m) for q, m in zip(queries, measures)],
                ],
            )

        pilot, *responses = run_serve(serve_root, scenario)
        assert pilot[0] == 200
        for query, measure, (status, _headers, payload) in zip(queries, measures, responses):
            if measure == "BW":
                assert status == 500, payload
                assert "injected" in payload["error"]
            else:
                # The fold queued behind the failed one still answers.
                assert status == 200, payload
                assert ResultSet.from_dict(payload).result_tuples()[0] == expected[query]


# -- other operations --------------------------------------------------------


class TestOperations:
    def test_pairwise_and_cluster_match_direct_service(self, serve_root):
        direct = SimilarityService.open(cache_dir=serve_root / "alpha")
        subset = direct.repository.identifiers()[:6]
        from repro.api import ClusterRequest, PairwiseRequest

        expected_pairs = direct.pairwise(
            PairwiseRequest(measure="BW", workflows=subset)
        ).pair_scores()
        expected_clusters = direct.cluster(
            ClusterRequest(measure="BW", threshold=0.3, workflows=subset)
        ).cluster_sets()
        direct.close()

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                pairwise = await client.post(
                    "/v1/alpha/pairwise",
                    {"measure": {"name": "BW"}, "workflows": subset},
                )
                cluster = await client.post(
                    "/v1/alpha/cluster",
                    {"measure": {"name": "BW"}, "threshold": 0.3, "workflows": subset},
                )
            finally:
                await client.close()
            return pairwise, cluster

        (pair_status, _, pair_payload), (cluster_status, _, cluster_payload) = (
            run_serve(serve_root, scenario)
        )
        assert pair_status == 200 and cluster_status == 200
        assert ResultSet.from_dict(pair_payload).pair_scores() == expected_pairs
        assert ResultSet.from_dict(cluster_payload).cluster_sets() == expected_clusters

    def test_index_build_endpoint(self, serve_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.post("/v1/beta/index/build")
            finally:
                await client.close()

        status, _headers, payload = run_serve(serve_root, scenario)
        assert status == 200
        assert payload["index"]["documents"] > 0
        assert payload["persisted"]["workflows"] == 30

    def test_error_mapping(self, serve_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                unknown_tenant = await client.post(
                    "/v1/ghost/search", search_payload("1000")
                )
                bad_name = await client.post(
                    "/v1/..%2fetc/search", search_payload("1000")
                )
                unknown_query = await client.post(
                    "/v1/alpha/search", search_payload("no-such-workflow")
                )
                bad_measure = await client.post(
                    "/v1/alpha/search", {"measure": {"name": "XX_nope"}}
                )
                bad_json = await client.post("/v1/alpha/search", None)
                no_route = await client.get("/v2/alpha/search")
            finally:
                await client.close()
            return unknown_tenant, bad_name, unknown_query, bad_measure, bad_json, no_route

        results = run_serve(serve_root, scenario)
        statuses = [status for status, _headers, _payload in results]
        # missing measure in an empty body is a 400, not a crash
        assert statuses == [404, 400, 404, 400, 400, 404]

    @pytest.mark.parametrize(
        "operation, payload",
        [
            ("search", {"measure": {"name": "BW"}, "policy": None}),
            ("search", {"measure": {"name": "BW"}, "policy": "sequential"}),
            ("search", {"measure": {"name": "BW"}, "queries": "1000"}),
            ("search", {"measure": {"name": "BW"}, "candidates": "1000"}),
            ("pairwise", {"measure": {"name": "BW"}, "workflows": "1000"}),
            ("cluster", {"measure": {"name": "BW"}, "threshold": float("nan")}),
            ("cluster", {"measure": {"name": "BW"}, "threshold": float("inf")}),
            ("search", {"measure": {"name": "BW"}, "k": float("inf")}),
        ],
        ids=[
            "null-policy", "string-policy", "string-queries", "string-candidates",
            "string-workflows", "nan-threshold", "infinite-threshold", "infinite-k",
        ],
    )
    def test_malformed_fields_are_400(self, serve_root, operation, payload):
        """A field of the wrong JSON shape is the client's error: never a
        500, a 404 for the characters of a string, or a 200 for a NaN."""

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.post(f"/v1/alpha/{operation}", payload)
            finally:
                await client.close()

        status, _headers, body = run_serve(serve_root, scenario)
        assert status == 400, body
        assert body["error"].startswith("bad request: ValueError"), body

    def test_lru_bound_evicts_idle_tenant(self, serve_root):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                first = await client.post("/v1/alpha/search", search_payload("1000", "BW"))
                second = await client.post("/v1/beta/search", search_payload("1000", "BW"))
            finally:
                await client.close()
            return first[0], second[0], server.tenants.open_tenants(), server.tenants.evictions

        first, second, open_tenants, evictions = run_serve(
            serve_root, scenario, max_tenants=1
        )
        assert first == 200 and second == 200
        assert open_tenants == ["beta"]
        assert evictions == 1


@pytest.fixture()
def pool_constructions(monkeypatch):
    """Record every process pool construction; none may start a worker."""
    import concurrent.futures

    constructed: list = []

    class RecordingPool:
        def __init__(self, *args, **kwargs):
            constructed.append(kwargs.get("max_workers"))
            raise RuntimeError("a request constructed a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return constructed


class TestNoProcessPool:
    """A request cannot make the server fork: the pool forks the serving
    process once per worker, from a process that runs the event loop
    and the tenant threads."""

    @pytest.mark.parametrize(
        "operation, payload, message",
        [
            (
                "search",
                {
                    "measure": {"name": "BW"},
                    "queries": ["1000", "1001"],
                    "policy": {"mode": "parallel", "workers": 2},
                },
                # The mode is gone: the decoder rejects it before the pool rule.
                "'parallel' is not a valid ExecutionMode",
            ),
            ("pairwise", {"measure": {"name": "BW"}, "policy": {"workers": 2}}, "process pool"),
        ],
        ids=["search-parallel", "pairwise-auto-workers"],
    )
    def test_pool_policy_is_400_and_constructs_no_pool(
        self, serve_root, pool_constructions, operation, payload, message
    ):
        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                return await client.post(f"/v1/alpha/{operation}", payload)
            finally:
                await client.close()

        status, _headers, body = run_serve(serve_root, scenario)
        assert status == 400, body
        assert message in body["error"], body
        assert pool_constructions == []

    def test_retired_policy_keys_are_ignored(self, serve_root, tmp_path):
        """A policy's ``cache_dir`` cannot point a tenant at another
        directory, and the retry knobs of older clients change nothing:
        the search answers as if they were absent."""
        elsewhere = tmp_path / "elsewhere"
        retired = {
            "cache_dir": str(elsewhere),
            "retry_attempts": 7,
            "retry_base_delay": 0.011,
            "retry_max_delay": 0.13,
        }

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                plain = await client.post("/v1/alpha/search", search_payload("1000"))
                keyed = await client.post(
                    "/v1/alpha/search", {**search_payload("1000"), "policy": retired}
                )
            finally:
                await client.close()
            return plain, keyed

        (plain_status, _, plain), (status, _, payload) = run_serve(serve_root, scenario)
        assert plain_status == 200 and status == 200, payload
        assert (
            ResultSet.from_dict(payload).result_tuples()
            == ResultSet.from_dict(plain).result_tuples()
        )
        assert not elsewhere.exists()


# -- tenant lifecycle races --------------------------------------------------


class TestTenantLifecycleRegressions:
    """Unit-level regressions for the eviction and lock-leak races."""

    def test_eviction_never_evicts_the_triggering_tenant(self, serve_root):
        # Regression: with every *other* tenant busy, the over-bound scan
        # used to evict the tenant whose open triggered it — handing the
        # caller a runtime whose executor was already shut down.
        async def scenario():
            manager = TenantManager(serve_root, max_tenants=1)
            try:
                await manager.get("alpha")
                manager.is_idle = lambda name: name != "alpha"  # alpha busy
                runtime = await manager.get("beta")
                # The just-opened tenant survived and its thread works.
                assert await runtime.run(lambda: 7) == 7
                assert "beta" in manager.open_tenants()
                assert manager.evictions == 0  # soft bound: nothing evictable
            finally:
                manager.is_idle = lambda name: True
                await manager.close_all()

        asyncio.run(scenario())

    def test_idle_lru_tenant_is_still_evicted(self, serve_root):
        async def scenario():
            manager = TenantManager(serve_root, max_tenants=1)
            try:
                await manager.get("alpha")
                await manager.get("beta")
                assert manager.open_tenants() == ["beta"]
                assert manager.evictions == 1
            finally:
                await manager.close_all()

        asyncio.run(scenario())

    def test_unknown_tenant_probe_leaves_no_lock(self, serve_root):
        # Regression: every probed name used to get an asyncio.Lock that
        # was never dropped — unbounded growth under 404 scanning.
        async def scenario():
            manager = TenantManager(serve_root, max_tenants=2)
            with pytest.raises(UnknownTenantError):
                await manager.get("ghost")
            assert "ghost" not in manager._locks

        asyncio.run(scenario())

    def test_closed_tenant_drops_its_lock(self, serve_root):
        async def scenario():
            manager = TenantManager(serve_root, max_tenants=2)
            await manager.get("alpha")
            assert "alpha" in manager._locks
            await manager.close_tenant("alpha")
            assert "alpha" not in manager._locks
            await manager.get("alpha")  # reopens cleanly after the drop
            await manager.close_all()
            assert manager._locks == {}

        asyncio.run(scenario())


# -- tenant isolation under corruption ---------------------------------------


class TestTenantIsolation:
    def test_corrupt_tenant_quarantines_without_touching_the_other(
        self, serve_root, tmp_path
    ):
        root = tmp_path / "iso-root"
        shutil.copytree(serve_root / "alpha", root / "alpha")
        shutil.copytree(serve_root / "beta", root / "beta")
        # Out-of-band score edit in alpha's store: SQLite still considers
        # the file well-formed, the content checksum does not — the open
        # quarantines, salvages the workflows snapshot and rebuilds.
        connection = sqlite3.connect(root / "alpha" / STORE_FILENAME)
        connection.execute(
            "UPDATE pair_scores SET score = score + 0.25 "
            "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)"
        )
        connection.commit()
        connection.close()

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                alpha = await client.post("/v1/alpha/search", search_payload("1000", "BW"))
                beta = await client.post("/v1/beta/search", search_payload("1000", "BW"))
            finally:
                await client.close()
            return alpha, beta

        (alpha_status, _, alpha_payload), (beta_status, _, beta_payload) = run_serve(
            root, scenario
        )
        # Alpha still answers — quarantined, salvaged, rebuilt — and
        # says so in its diagnostics.
        assert alpha_status == 200, alpha_payload
        assert alpha_payload["diagnostics"]["degraded"] is True
        assert (root / "alpha" / "quarantine").is_dir()
        # Beta never noticed.
        assert beta_status == 200, beta_payload
        assert beta_payload["diagnostics"]["degraded"] is False
        assert not (root / "beta" / "quarantine").exists()

    def test_unsalvageable_tenant_is_503_and_others_serve(self, serve_root, tmp_path):
        root = tmp_path / "dead-root"
        shutil.copytree(serve_root / "alpha", root / "alpha")
        shutil.copytree(serve_root / "beta", root / "beta")
        # Truncating the store makes even the workflows snapshot
        # unreadable, and the server has no corpus source to rebuild
        # from — this tenant is genuinely unavailable.
        store_path = root / "alpha" / STORE_FILENAME
        data = store_path.read_bytes()
        store_path.write_bytes(data[: len(data) // 4])

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                alpha = await client.post("/v1/alpha/search", search_payload("1000", "BW"))
                beta = await client.post("/v1/beta/search", search_payload("1000", "BW"))
            finally:
                await client.close()
            return alpha, beta

        (alpha_status, _, alpha_payload), (beta_status, _, _beta_payload) = run_serve(
            root, scenario
        )
        assert alpha_status == 503
        assert "alpha" in alpha_payload["error"]
        assert beta_status == 200

    def test_tenant_store_without_snapshot_is_503(self, tmp_path, monkeypatch):
        """A verified store that holds no snapshot has no corpus to serve:
        the tenant is unavailable (503 with ``Retry-After``, not the
        client's 400), each failed open closes the store it opened, and
        the failure is kept for the retry-after window: a second search
        inside it opens nothing, a third after it opens the tenant again."""
        root = tmp_path / "empty-root"
        WorkflowStore(root / "t1").close()
        closed = []
        close = WorkflowStore.close

        def recording_close(store):
            closed.append(store.path)
            close(store)

        monkeypatch.setattr(WorkflowStore, "close", recording_close)
        opens = recording_opens(monkeypatch)

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                first = await client.post("/v1/t1/search", search_payload("1000", "BW"))
                second = await client.post("/v1/t1/search", search_payload("1000", "BW"))
                opens_in_window = len(opens)
                later = tenants_module.monotonic() + RETRY_AFTER_SECONDS
                monkeypatch.setattr(tenants_module, "monotonic", lambda: later)
                third = await client.post("/v1/t1/search", search_payload("1000", "BW"))
            finally:
                await client.close()
            return first, second, third, opens_in_window, server.tenants.open_tenants()

        first, second, third, opens_in_window, open_tenants = run_serve(root, scenario)
        for status, headers, payload in (first, second, third):
            assert status == 503, payload
            assert headers["retry-after"] == str(RETRY_AFTER_SECONDS)
        assert second[2]["error"] == first[2]["error"]
        payload = first[2]
        assert "t1" in payload["error"] and "no persisted repository snapshot" in payload["error"]
        assert open_tenants == []
        assert opens_in_window == 1
        assert opens == [root / "t1"] * 2
        assert closed == [root / "t1" / STORE_FILENAME] * 2

    def test_malformed_body_is_400_before_any_tenant_open(self, serve_root, tmp_path, monkeypatch):
        """The body is decoded before the tenant is opened: a malformed
        one costs no open, and is the client's 400 whatever the tenant's
        state (not yet open, unusable, or unknown)."""
        root = tmp_path / "decode-root"
        shutil.copytree(serve_root / "alpha", root / "alpha")
        WorkflowStore(root / "t1").close()
        opens = recording_opens(monkeypatch)

        async def scenario(server):
            client = ServeClient("127.0.0.1", server.port)
            try:
                answers = [
                    await client.post(f"/v1/{tenant}/search", {"measure": "BW"})
                    for tenant in ("alpha", "t1", "ghost")
                ]
            finally:
                await client.close()
            return answers, server.tenants.open_tenants()

        answers, open_tenants = run_serve(root, scenario)
        for status, _headers, payload in answers:
            assert status == 400, payload
            assert payload["error"].startswith("bad request: ValueError: measure must be"), payload
        assert open_tenants == []
        assert opens == []


# -- admission control -------------------------------------------------------


class TestAdmission:
    def test_over_cap_requests_get_429_with_retry_after(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, _ = alpha_expected

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
                    # The one admitted search waits for the held thread;
                    # the other four are answered at once.
                    await serve_lanes.until(
                        lambda: sum(task.done() for task in tasks) == 4
                    )
                responses = await asyncio.gather(*tasks)
                _, _, stats = await clients[0].get("/v1/alpha/stats")
            finally:
                for client in clients:
                    await client.close()
            return responses, stats

        responses, stats = run_serve(serve_root, scenario, max_inflight=1)
        statuses = sorted(status for status, _headers, _payload in responses)
        assert statuses.count(200) == 1
        assert statuses.count(429) == 4
        for status, headers, payload in responses:
            if status == 429:
                assert headers["retry-after"] == str(payload["retry_after_seconds"])
        assert stats["rejections"] == 4

    def test_load_beneath_cap_is_never_rejected(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected

        async def scenario(server):
            clients = [ServeClient("127.0.0.1", server.port) for _ in query_ids]
            try:
                async with serve_lanes.held_tenant_thread(server, "alpha"):
                    tasks = [
                        asyncio.ensure_future(
                            client.post("/v1/alpha/search", search_payload(query))
                        )
                        for client, query in zip(clients, query_ids)
                    ]
                    # Every request is admitted and in flight at once: the
                    # load sits exactly at the cap.
                    await serve_lanes.until(
                        lambda: server.admission.inflight("alpha") == len(query_ids)
                    )
                return await asyncio.gather(*tasks)
            finally:
                for client in clients:
                    await client.close()

        responses = run_serve(serve_root, scenario, max_inflight=len(query_ids))
        for query, (status, _headers, payload) in zip(query_ids, responses):
            assert status == 200
            assert ResultSet.from_dict(payload).result_tuples()[0] == expected[query]


# -- graceful shutdown -------------------------------------------------------


class TestGracefulShutdown:
    def test_stop_drains_work_queued_on_a_lane(
        self, serve_root, alpha_expected, serve_lanes
    ):
        query_ids, expected = alpha_expected
        stopping = []

        async def scenario_runner():
            server = SimilarityServer(ServeConfig(root=str(serve_root), port=0))
            await server.start()

            async def stop_while_queued():
                stopping.append(asyncio.ensure_future(server.stop()))
                await asyncio.sleep(0.1)
                # stop() is waiting for the admitted, still-queued search.
                assert not stopping[0].done()

            _pilot, response = await serve_lanes.search_in_order(
                server,
                "alpha",
                [serve_lanes.PILOT_SEARCH, search_payload(query_ids[0])],
                while_held=stop_while_queued,
            )
            await stopping[0]
            return response

        status, _headers, payload = asyncio.run(scenario_runner())
        assert status == 200, payload
        assert ResultSet.from_dict(payload).result_tuples()[0] == expected[query_ids[0]]

    def test_stop_is_idempotent(self, serve_root):
        async def scenario(server):
            await server.stop()
            await server.stop()
            return True

        assert run_serve(serve_root, scenario) is True


# -- CLI ---------------------------------------------------------------------


class TestServeCli:
    def test_check_flag_probes_healthz(self, serve_root, capsys):
        from repro.cli import main

        assert main(["serve", "--root", str(serve_root), "--port", "0", "--check"]) == 0
        out = capsys.readouterr().out
        assert "serve check OK" in out
        assert "2 tenant(s) on disk" in out

    def test_check_missing_root_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--root", str(tmp_path / "nope"), "--port", "0", "--check"]
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err
