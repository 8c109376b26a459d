"""Fast-path / slow-path score equivalence.

The perf layer's contract is that it changes *nothing* about the scores:
the service's accelerated tiers (the in-process batch, the cached
similarity matrices, the pruned top-k scan and the process pool) must
return bit-identical results to the reference per-query path on any
corpus.  These tests pin that property on the shared synthetic corpus
and on generated micro-corpora.
"""

from __future__ import annotations

import pytest

from repro.api import (
    ClusterRequest,
    ExecutionPolicy,
    PairwiseRequest,
    SearchRequest,
    SimilarityService,
)
from repro.core.framework import SimilarityFramework
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.perf import AccelerationContext, accelerate_measure, pool_available
from repro.repository import RepositoryKnowledge, SimilaritySearchEngine, WorkflowRepository

MEASURES = [
    "MS_ip_te_pll",  # the paper's best structural configuration
    "MS_np_ta_pw0",  # multi-attribute uniform weights, no preselection
    "MS_np_tm_plm",  # strict type matching + exact label matching
    "MS_np_ta_pw3_greedy",  # tuned weights, greedy mapping
    "MS_ip_te_pll_nonorm",  # un-normalised scores exercise the nnsim frontier
]


def result_tuples(result_list):
    return [(hit.workflow_id, hit.similarity, hit.rank) for hit in result_list]


def fast_search(service, query_ids, measure, *, k):
    """The service's in-process batch answer (one result list per query)."""
    result = service.search(
        SearchRequest(measure=measure, queries=query_ids, k=k, policy=ExecutionPolicy.auto())
    )
    assert result.diagnostics.path in ("pruned", "cached")
    return result


@pytest.fixture()
def engines(small_corpus):
    repository = small_corpus.repository
    return (
        SimilaritySearchEngine(repository, SimilarityFramework()),
        SimilaritySearchEngine(repository, SimilarityFramework()),
    )


@pytest.fixture()
def seed_engine(small_corpus):
    return SimilaritySearchEngine(small_corpus.repository, SimilarityFramework())


@pytest.fixture()
def service(small_corpus):
    return SimilarityService(small_corpus.repository)


class TestSearchBatchEquivalence:
    @pytest.mark.parametrize("measure", MEASURES)
    def test_identical_to_sequential_search(self, seed_engine, service, small_corpus, measure):
        query_ids = small_corpus.repository.identifiers()[:6]
        seed = [seed_engine.search(qid, measure, k=10) for qid in query_ids]
        fast = fast_search(service, query_ids, measure, k=10)
        assert [r.query_id for r in fast] == query_ids
        for seed_result, fast_result in zip(seed, fast):
            assert fast_result.measure == seed_result.measure
            assert result_tuples(fast_result) == result_tuples(seed_result)

    def test_identical_for_annotation_and_ensemble_measures(
        self, seed_engine, service, small_corpus
    ):
        query_ids = small_corpus.repository.identifiers()[:4]
        for measure in ("BW", "BW+MS_ip_te_pll"):
            seed = [seed_engine.search(qid, measure, k=10) for qid in query_ids]
            fast = fast_search(service, query_ids, measure, k=10)
            for seed_result, fast_result in zip(seed, fast):
                assert result_tuples(fast_result) == result_tuples(seed_result)

    def test_identical_with_small_k_and_large_k(self, seed_engine, service, small_corpus):
        query_id = small_corpus.repository.identifiers()[7]
        for k in (1, 3, 500):
            seed = seed_engine.search(query_id, "MS_ip_te_pll", k=k)
            fast = fast_search(service, [query_id], "MS_ip_te_pll", k=k).for_query(query_id)
            assert result_tuples(fast) == result_tuples(seed)

    def test_queries_none_searches_all(self, service, small_corpus):
        results = fast_search(service, None, "BW", k=3)
        assert len(results) == len(small_corpus.repository)

    def test_pruning_actually_prunes(self, service, small_corpus):
        query_ids = small_corpus.repository.identifiers()[:6]
        stats = fast_search(service, query_ids, "MS_ip_te_pll", k=5).diagnostics.prune
        pruned = stats["pruned_char_bag"] + stats["pruned_banded"]
        assert stats["candidates"] > 0
        assert pruned > 0
        assert stats["exact_comparisons"] + pruned == stats["candidates"]

    @pytest.mark.parametrize("measure", ["PS_ip_te_pll", "BW+MS_ip_te_pll"])
    def test_ps_and_ensemble_prune_and_stay_identical(
        self, seed_engine, service, small_corpus, measure
    ):
        """PS and certified ensembles now ride the pruned frontier: the
        scan must actually skip work and still match the reference."""
        query_ids = small_corpus.repository.identifiers()[:6]
        seed = [seed_engine.search(qid, measure, k=5) for qid in query_ids]
        fast = fast_search(service, query_ids, measure, k=5)
        assert fast.diagnostics.path == "pruned"
        for seed_result, fast_result in zip(seed, fast):
            assert result_tuples(fast_result) == result_tuples(seed_result)
        stats = fast.diagnostics.prune
        pruned = stats["pruned_char_bag"] + stats["pruned_banded"]
        assert pruned > 0, f"{measure} never pruned"
        assert sum(stats["pruned_by_bound"].values()) == pruned
        expected_bound = (
            "ps-path-matching" if measure == "PS_ip_te_pll"
            else "ensemble(bw-token-bag+ms-char-bag)"
        )
        assert expected_bound in stats["pruned_by_bound"]

    def test_profile_store_clear_does_not_corrupt_scores(self, small_corpus):
        # Regression: fingerprints memoised by id() must not survive a
        # profile-store clear — recycled profile ids used to resolve to
        # stale fingerprints and silently corrupt similarity scores.
        import gc

        repository = small_corpus.repository
        service = SimilarityService(repository)
        query_id = repository.identifiers()[0]
        before = fast_search(service, [query_id], "MS_ip_te_pll", k=10)
        repository.profile_store.clear()
        gc.collect()
        after = fast_search(service, [query_id], "MS_ip_te_pll", k=10)
        assert after.result_tuples() == before.result_tuples()

    def test_generated_micro_corpora(self):
        # Property-style: several tiny corpora with different seeds, the
        # full query set, both a pruning-friendly and a pw-style measure.
        for corpus_seed in (3, 17):
            corpus = generate_myexperiment_corpus(
                CorpusSpec(workflow_count=25, seed=corpus_seed)
            )
            repository = corpus.repository
            seed_engine = SimilaritySearchEngine(repository, SimilarityFramework())
            service = SimilarityService(repository)
            for measure in ("MS_ip_te_pll", "MS_np_te_pw0"):
                query_ids = repository.identifiers()
                seed = [seed_engine.search(qid, measure, k=5) for qid in query_ids]
                fast = fast_search(service, query_ids, measure, k=5)
                for seed_result, fast_result in zip(seed, fast):
                    assert result_tuples(fast_result) == result_tuples(seed_result)


class TestPairwiseEquivalence:
    def test_identical_to_sequential_pairwise(self, engines, small_corpus):
        seed_engine, fast_engine = engines
        pool = small_corpus.repository.workflows()[:15]
        seed = seed_engine.pairwise_similarity("MS_ip_te_pll", workflows=pool, accelerate=False)
        fast = fast_engine.pairwise_similarity("MS_ip_te_pll", workflows=pool)
        assert fast == seed
        assert list(fast) == list(seed)  # same (earlier, later) key order

    def test_matches_clustering_helper(self, engines, small_corpus):
        from repro.repository.clustering import pairwise_similarities

        _, fast_engine = engines
        pool = small_corpus.repository.workflows()[:10]
        reference = pairwise_similarities(pool, SimilarityFramework().measure("MS_ip_te_pll"))
        fast = fast_engine.pairwise_similarity("MS_ip_te_pll", workflows=pool)
        assert fast == reference


class TestClusterRepository:
    def test_matches_slow_path_clusters(self, small_corpus):
        from repro.repository.clustering import threshold_clusters

        pool = small_corpus.repository.workflows()[:20]
        service = SimilarityService(WorkflowRepository(pool, name="slice"))
        fast = service.cluster(ClusterRequest(measure="MS_ip_te_pll", threshold=0.6))
        reference = threshold_clusters(
            pool, SimilarityFramework().measure("MS_ip_te_pll"), threshold=0.6
        )
        assert fast.cluster_sets() == reference

    def test_average_linkage_and_validation(self, small_corpus):
        from repro.repository.clustering import agglomerative_clusters

        pool = small_corpus.repository.workflows()[:12]
        service = SimilarityService(WorkflowRepository(pool, name="slice"))
        fast = service.cluster(
            ClusterRequest(measure="MS_ip_te_pll", threshold=0.6, linkage="average")
        )
        reference = agglomerative_clusters(
            pool, SimilarityFramework().measure("MS_ip_te_pll"), threshold=0.6
        )
        assert fast.cluster_sets() == reference
        with pytest.raises(ValueError):
            service.cluster({"measure": {"name": "MS_ip_te_pll"}, "linkage": "complete"})


class TestStructuralMeasureAcceleration:
    def test_ps_and_ge_cached_comparators_equivalent(self, small_corpus):
        workflows = small_corpus.repository.workflows()[:6]
        for measure_name in ("PS_ip_te_pll", "GE_np_te_plm"):
            plain = SimilarityFramework().measure(measure_name)
            accelerated = SimilarityFramework().measure(measure_name)
            accelerate_measure(accelerated, AccelerationContext())
            for i, first in enumerate(workflows):
                for second in workflows[i + 1:]:
                    assert accelerated.similarity(first, second) == plain.similarity(
                        first, second
                    ), measure_name


def frequency_scored(repository):
    """A framework under the automatic ``ip`` scorer of ``repository``."""
    knowledge = RepositoryKnowledge.from_repository(repository)
    scorer = knowledge.frequency_importance_scorer(max_frequency=0.05)
    return SimilarityFramework(importance_scorer=scorer)


@pytest.fixture(scope="module")
def scored_repository():
    return generate_myexperiment_corpus(CorpusSpec(workflow_count=40, seed=3)).repository


class TestParallelBackend:
    @pytest.fixture(autouse=True)
    def _needs_pool(self):
        if not pool_available():
            pytest.skip("process pools unavailable in this environment")

    def test_worker_results_identical(self, small_corpus):
        repository = small_corpus.repository
        query_ids = repository.identifiers()[:4]
        serial = fast_search(SimilarityService(repository), query_ids, "MS_ip_te_pll", k=5)
        parallel = SimilarityService(repository).search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=query_ids,
                k=5,
                policy=ExecutionPolicy.auto(workers=2),
            )
        )
        assert parallel.diagnostics.path == "parallel"
        assert parallel.result_tuples() == serial.result_tuples()
        assert [r.measure for r in parallel] == [r.measure for r in serial]

    def test_parallel_pairwise_identical(self, small_corpus):
        # A small corpus slice via a dedicated repository, so workers
        # score the same pool the serial path does.
        pool = small_corpus.repository.workflows()[:12]
        repository = WorkflowRepository(pool, name="slice")
        serial = SimilarityService(repository).pairwise(PairwiseRequest(measure="MS_ip_te_pll"))
        parallel = SimilarityService(repository).pairwise(
            PairwiseRequest(measure="MS_ip_te_pll", policy=ExecutionPolicy.auto(workers=2))
        )
        assert parallel.diagnostics.path == "parallel"
        assert parallel == serial
        assert list(parallel.pair_scores()) == list(serial.pair_scores())

    def test_search_pool_keeps_the_importance_scorer(self, scored_repository):
        """Workers rebuild measures under the service's importance
        scorer, not the default one."""
        query_ids = scored_repository.identifiers()[:6]

        def run(policy):
            service = SimilarityService(
                scored_repository, framework=frequency_scored(scored_repository)
            )
            return service.search(
                SearchRequest(measure="MS_ip_te_pll", queries=query_ids, k=10, policy=policy)
            )

        parallel = run(ExecutionPolicy.auto(workers=2))
        assert parallel.diagnostics.path == "parallel"
        assert parallel.result_tuples() == run(ExecutionPolicy.sequential()).result_tuples()

    def test_pairwise_pool_keeps_the_importance_scorer(self, scored_repository):
        def run(policy):
            service = SimilarityService(
                scored_repository, framework=frequency_scored(scored_repository)
            )
            return service.pairwise(PairwiseRequest(measure="MS_ip_te_pll", policy=policy))

        parallel = run(ExecutionPolicy.auto(workers=2))
        assert parallel.diagnostics.path == "parallel"
        assert parallel.pair_scores() == run(ExecutionPolicy.sequential()).pair_scores()
