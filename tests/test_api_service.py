"""The `SimilarityService` facade: policy equivalence, diagnostics,
result serialization, and incremental-repository cache invalidation."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.api import (
    ClusterRequest,
    ExecutionPolicy,
    PairwiseRequest,
    ResultSet,
    SearchRequest,
    SimilarityService,
)
from repro.core.framework import SimilarityFramework
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.perf.parallel import pool_available
from repro.repository import SimilaritySearchEngine, WorkflowRepository


@pytest.fixture()
def service(small_corpus):
    return SimilarityService(small_corpus.repository)


def fresh_repository(workflows, name="fresh"):
    """A repository (and thus profile store) the shared fixture never sees."""
    return WorkflowRepository(list(workflows), name=name)


class TestPolicyEquivalence:
    """Acceptance: every execution policy returns the same ResultSet."""

    @pytest.mark.parametrize("measure", ["MS_ip_te_pll", "MS_np_ta_pw0", "BW+MS_ip_te_pll"])
    def test_sequential_pruned_parallel_bit_identical(self, small_corpus, measure):
        repository = small_corpus.repository
        query_ids = repository.identifiers()[:5]

        def run(policy):
            # A fresh service per policy: no shared acceleration state.
            fresh = SimilarityService(repository)
            return fresh.search(
                SearchRequest(measure=measure, queries=query_ids, k=10, policy=policy)
            )

        sequential = run(ExecutionPolicy.sequential())
        pruned = run(ExecutionPolicy.auto())
        assert pruned.diagnostics.path in ("pruned", "cached")
        assert sequential == pruned
        assert sequential.result_tuples() == pruned.result_tuples()
        if pool_available():
            parallel = run(ExecutionPolicy.auto(workers=2))
            assert parallel.diagnostics.path == "parallel"
            assert parallel == sequential

    def test_matches_pre_facade_engine(self, service, small_corpus):
        """The facade is a re-routing, not a re-implementation."""
        repository = small_corpus.repository
        query_id = repository.identifiers()[4]
        engine = SimilaritySearchEngine(repository, SimilarityFramework())
        old = engine.search(query_id, "MS_ip_te_pll", k=10)
        new = service.search(
            SearchRequest(measure="MS_ip_te_pll", queries=[query_id], k=10)
        )
        assert new.result_tuples() == [
            [(hit.workflow_id, hit.similarity, hit.rank) for hit in old]
        ]


class TestAutoRouting:
    """Acceptance: AUTO picks the pruned/parallel path when eligible."""

    def test_auto_picks_pruned_for_ms_measures(self, service, small_corpus):
        result = service.search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=small_corpus.repository.identifiers()[:3],
                k=5,
            )
        )
        assert result.diagnostics.path == "pruned"
        assert result.diagnostics.requested_mode == "auto"
        assert result.diagnostics.prune is not None
        assert result.diagnostics.prune["candidates"] > 0
        assert result.diagnostics.prune["pruned_char_bag"] > 0
        assert result.diagnostics.caches  # cache stats attached

    def test_auto_picks_cached_scan_for_unprunable_measures(self, service, small_corpus):
        result = service.search(
            SearchRequest(
                measure="BW", queries=small_corpus.repository.identifiers()[:2], k=5
            )
        )
        assert result.diagnostics.path == "cached"

    def test_auto_with_workers_picks_parallel(self, service, small_corpus):
        if not pool_available():
            pytest.skip("process pools unavailable in this environment")
        result = service.search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=small_corpus.repository.identifiers()[:4],
                k=5,
                policy=ExecutionPolicy.auto(workers=2),
            )
        )
        assert result.diagnostics.path == "parallel"
        assert result.diagnostics.workers == 2

    def test_sequential_path_reports_cache_counters(self, small_corpus):
        # Satellite: cache hit/miss counters are attached on every path,
        # including the sequential reference scan (which does not consult
        # the caches but should still surface their state).
        service = SimilarityService(
            fresh_repository(small_corpus.repository.workflows()[:15])
        )
        ids = service.repository.identifiers()[:2]
        service.search(SearchRequest(measure="MS_ip_te_pll", queries=ids, k=5))
        sequential = service.search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=ids,
                k=5,
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert sequential.diagnostics.path == "sequential"
        assert sequential.diagnostics.caches
        assert all(
            {"hits", "misses", "warm_hits"} <= set(entry)
            for entry in sequential.diagnostics.caches
        )

    def test_sequential_is_reported(self, service, small_corpus):
        result = service.search(
            SearchRequest(
                measure="BW",
                queries=small_corpus.repository.identifiers()[:1],
                k=3,
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert result.diagnostics.path == "sequential"
        assert result.diagnostics.seconds > 0.0

    def test_parallel_falls_back_with_note_when_ineligible(self, service, small_corpus):
        # A single query is not pool-eligible: the service must fall back
        # and say so rather than fail or silently change semantics.
        result = service.search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=small_corpus.repository.identifiers()[:1],
                k=5,
                policy=ExecutionPolicy.auto(workers=2),
            )
        )
        assert result.diagnostics.path in ("pruned", "cached")
        assert any("not pool-eligible" in note for note in result.diagnostics.notes)


class TestSearchSemantics:
    def test_queries_none_searches_every_workflow(self, small_corpus):
        service = SimilarityService(
            fresh_repository(small_corpus.repository.workflows()[:15])
        )
        result = service.search(SearchRequest(measure="BW", k=3))
        assert len(result) == 15

    def test_candidate_restriction(self, service, small_corpus):
        repository = small_corpus.repository
        query_id = repository.identifiers()[0]
        candidates = repository.identifiers()[1:6]
        result = service.search(
            SearchRequest(
                measure="MS_ip_te_pll", queries=[query_id], k=10, candidates=candidates
            )
        )
        hits = result.for_query(query_id)
        assert set(hits.identifiers()) <= set(candidates)

    def test_accepts_mapping_and_json_requests(self, service, small_corpus):
        query_id = small_corpus.repository.identifiers()[0]
        request = SearchRequest(measure="BW", queries=[query_id], k=4)
        from_object = service.search(request)
        from_mapping = service.search(request.to_dict())
        from_json = service.search(request.to_json())
        assert from_object == from_mapping == from_json
        with pytest.raises(TypeError):
            service.search(42)

    def test_unknown_query_raises_key_error(self, service):
        with pytest.raises(KeyError):
            service.search(SearchRequest(measure="BW", queries=["ghost"]))


class TestResultSetSerialization:
    def test_search_round_trip_preserves_payload_and_diagnostics(self, service, small_corpus):
        result = service.search(
            SearchRequest(
                measure="MS_ip_te_pll", queries=small_corpus.repository.identifiers()[:2], k=5
            )
        )
        restored = ResultSet.from_json(result.to_json())
        assert restored == result  # payload equality
        assert restored.result_tuples() == result.result_tuples()
        assert restored.diagnostics.path == result.diagnostics.path
        assert restored.diagnostics.prune == result.diagnostics.prune
        assert restored.diagnostics.notes == result.diagnostics.notes

    def test_pairwise_and_cluster_round_trips(self, service, small_corpus):
        ids = small_corpus.repository.identifiers()[:8]
        pairwise = service.pairwise(PairwiseRequest(measure="MS_ip_te_pll", workflows=ids))
        assert ResultSet.from_json(pairwise.to_json()) == pairwise
        cluster = service.cluster(
            ClusterRequest(measure="MS_ip_te_pll", threshold=0.6, workflows=ids)
        )
        restored = ResultSet.from_json(cluster.to_json())
        assert restored == cluster
        assert restored.cluster_sets() == cluster.cluster_sets()

    def test_diagnostics_do_not_affect_equality(self, service, small_corpus):
        request = SearchRequest(
            measure="BW", queries=small_corpus.repository.identifiers()[:2], k=5
        )
        first = service.search(request)
        second = service.search(request)
        assert first.diagnostics.seconds != second.diagnostics.seconds or True
        assert first == second


class TestPairwiseAndCluster:
    def test_pairwise_matches_classic_helper(self, service, small_corpus):
        from repro.repository.clustering import pairwise_similarities

        pool = small_corpus.repository.workflows()[:10]
        ids = [workflow.identifier for workflow in pool]
        reference = pairwise_similarities(
            pool, SimilarityFramework().measure("MS_ip_te_pll")
        )
        result = service.pairwise(PairwiseRequest(measure="MS_ip_te_pll", workflows=ids))
        assert result.pair_scores() == reference
        assert list(result.pair_scores()) == list(reference)  # pool order

    def test_pairwise_sequential_equals_auto(self, service, small_corpus):
        ids = small_corpus.repository.identifiers()[:8]
        sequential = service.pairwise(
            PairwiseRequest(
                measure="MS_ip_te_pll", workflows=ids, policy=ExecutionPolicy.sequential()
            )
        )
        auto = service.pairwise(PairwiseRequest(measure="MS_ip_te_pll", workflows=ids))
        assert sequential == auto
        assert sequential.diagnostics.path == "sequential"
        assert auto.diagnostics.path == "cached"

    def test_cluster_matches_classic_helpers(self, small_corpus):
        from repro.repository.clustering import threshold_clusters

        pool = small_corpus.repository.workflows()[:20]
        service = SimilarityService(fresh_repository(pool))
        result = service.cluster(ClusterRequest(measure="MS_ip_te_pll", threshold=0.6))
        reference = threshold_clusters(
            pool, SimilarityFramework().measure("MS_ip_te_pll"), threshold=0.6
        )
        assert result.cluster_sets() == reference

    def test_cluster_average_linkage(self, small_corpus):
        from repro.repository.clustering import agglomerative_clusters

        pool = small_corpus.repository.workflows()[:12]
        service = SimilarityService(fresh_repository(pool))
        result = service.cluster(
            ClusterRequest(measure="MS_ip_te_pll", threshold=0.6, linkage="average")
        )
        reference = agglomerative_clusters(
            pool, SimilarityFramework().measure("MS_ip_te_pll"), threshold=0.6
        )
        assert result.cluster_sets() == reference


class TestIncrementalRepository:
    """Satellite: mutation results bit-identical to a fresh service."""

    def _request(self, query_ids, k=10):
        return SearchRequest(measure="MS_ip_te_pll", queries=query_ids, k=k)

    def test_add_workflows_matches_fresh_service(self, small_corpus):
        workflows = small_corpus.repository.workflows()
        base, extra = workflows[:30], workflows[30:40]
        query_ids = [workflow.identifier for workflow in base[:4]]

        service = SimilarityService(fresh_repository(base, name="mutable"))
        service.search(self._request(query_ids))  # warm the caches first
        assert service.add_workflows(extra) == len(extra)

        fresh = SimilarityService(fresh_repository(base + extra, name="fresh"))
        assert service.search(self._request(query_ids)) == fresh.search(
            self._request(query_ids)
        )

    def test_remove_workflows_matches_fresh_service(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:40]
        query_ids = [workflow.identifier for workflow in workflows[:4]]
        victims = [workflow.identifier for workflow in workflows[30:]]

        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        service.search(self._request(query_ids))  # warm the caches first
        removed = service.remove_workflows(victims)
        assert removed == victims
        assert service.last_invalidation["workflows"] == len(victims)
        assert service.last_invalidation["module_profiles"] > 0

        fresh = SimilarityService(fresh_repository(workflows[:30], name="fresh"))
        assert service.search(self._request(query_ids)) == fresh.search(
            self._request(query_ids)
        )

    def test_add_then_remove_round_trip_is_identity(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:25]
        extra = small_corpus.repository.workflows()[25:30]
        query_ids = [workflow.identifier for workflow in workflows[:3]]

        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        before = service.search(self._request(query_ids))
        service.add_workflows(extra)
        service.search(self._request(query_ids))  # exercise the grown corpus
        service.remove_workflows([workflow.identifier for workflow in extra])
        after = service.search(self._request(query_ids))
        assert after == before

    def test_score_caches_survive_removal(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:25]
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        query_ids = [workflow.identifier for workflow in workflows[:4]]
        service.search(self._request(query_ids))
        entries_before = sum(stats["entries"] for stats in service.context.cache_stats())
        service.remove_workflows([workflows[-1].identifier])
        entries_after = sum(stats["entries"] for stats in service.context.cache_stats())
        # Precise invalidation: value-keyed scores are kept, not rebuilt.
        assert entries_after == entries_before

    def test_replace_serves_fresh_derived_data(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:20]
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        query_ids = [workflows[0].identifier]
        service.search(self._request(query_ids))

        # Re-adding the same identifier with replace=True must first
        # invalidate, so derived state is rebuilt from the new object.
        replacement = workflows[5]
        service.add_workflows([replacement], replace=True)
        assert len(service) == 20
        fresh = SimilarityService(
            fresh_repository(service.repository.workflows(), name="fresh")
        )
        assert service.search(self._request(query_ids)) == fresh.search(
            self._request(query_ids)
        )

    @pytest.mark.parametrize(
        "measure, policy",
        [
            ("MS_ip_te_pll", ExecutionPolicy()),
            ("MS_ip_te_pll", ExecutionPolicy.sequential()),
            ("BW+MS_ip_te_pll", ExecutionPolicy()),
        ],
        ids=["auto", "sequential", "ensemble"],
    )
    def test_removed_workflows_are_freed(self, measure, policy):
        """No measure instance, bound summary or profile keeps a removed
        workflow alive, and re-adding its id answers like a fresh service."""

        def corpus():
            spec = CorpusSpec(workflow_count=60, seed=3)
            return generate_myexperiment_corpus(spec).repository.workflows()

        workflows = corpus()
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        victims = [workflow.identifier for workflow in workflows[30:]]
        refs = [weakref.ref(workflow) for workflow in workflows[30:]]
        del workflows
        query_ids = service.repository.identifiers()[:3]
        request = SearchRequest(measure=measure, queries=query_ids, k=10, policy=policy)
        service.search(request)
        assert service.remove_workflows(victims) == victims
        gc.collect()
        alive = [ref().identifier for ref in refs if ref() is not None]
        assert alive == []

        readded = corpus()[30:]
        service.add_workflows(readded)
        fresh = SimilarityService(
            fresh_repository(service.repository.workflows(), name="fresh")
        )
        request = SearchRequest(
            measure=measure, queries=query_ids + victims[:2], k=10, policy=policy
        )
        assert service.search(request).result_tuples() == fresh.search(request).result_tuples()

    def test_remove_unknown_identifiers_are_ignored(self, small_corpus):
        # Removal is idempotent: unknown ids are skipped, and the return
        # value names exactly what was removed.
        workflows = small_corpus.repository.workflows()[:10]
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        removed = service.remove_workflows([workflows[0].identifier, "ghost"])
        assert removed == [workflows[0].identifier]
        assert service.last_invalidation["requested"] == 2
        assert len(service) == 9
        assert service.remove_workflows(["ghost"]) == []
        assert len(service) == 9

    def test_remove_tolerates_duplicate_identifiers(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:10]
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        victim = workflows[-1].identifier
        assert service.remove_workflows([victim, victim]) == [victim]
        assert len(service) == 9

    def test_add_duplicate_identifier_raises(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:5]
        service = SimilarityService(fresh_repository(workflows, name="mutable"))
        with pytest.raises(KeyError):
            service.add_workflows([workflows[0]])


class TestServiceSurface:
    def test_open_accepts_repository_and_path(self, small_corpus, tmp_path):
        service = SimilarityService.open(small_corpus.repository)
        assert service.repository is small_corpus.repository
        path = tmp_path / "corpus.json"
        small_corpus.repository.save(path)
        loaded = SimilarityService.open(path)
        assert len(loaded) == len(small_corpus.repository)

    def test_measures_and_statistics(self, service):
        names = service.measures()
        assert "MS_ip_te_pll" in names and "BW" in names
        assert service.statistics().workflow_count == len(service)

    def test_warm_profiles_everything(self, small_corpus):
        service = SimilarityService(
            fresh_repository(small_corpus.repository.workflows()[:10])
        )
        total = service.warm()
        assert total == sum(w.size for w in service.repository.workflows())

    def test_contains(self, service, small_corpus):
        assert small_corpus.repository.identifiers()[0] in service
        assert "ghost" not in service
