"""Token postings: admission soundness and sql-indexed routing.

The postings' contract is *score-safety*: preselection may never change
a result.  Every test here compares the sql-indexed path against the
sequential reference scan bit for bit, across corpus churn and edge
cases (empty token sets, fewer candidates than ``k``).
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.core.annotations import BagOfTagsSimilarity, BagOfWordsSimilarity
from repro.perf.bounds import find_bound
from repro.perf.engine import AccelerationContext
from repro.repository import WorkflowRepository
from repro.store import InvertedAnnotationIndex, SqlAdmissionPlanner, WorkflowStore


def fresh_repository(workflows, name="fresh"):
    return WorkflowRepository(list(workflows), name=name)


def indexed(workflows, cache_dir):
    """A service over ``workflows`` whose store holds their postings."""
    service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
    service.build_index()
    return service


def store_postings(store):
    return set(store.connection.execute("SELECT field, token, workflow_id FROM postings"))


def snapshot_postings(repository):
    return {
        (field, token, workflow.identifier)
        for workflow in repository
        for field in InvertedAnnotationIndex.FIELDS
        for token in InvertedAnnotationIndex.workflow_tokens(field, workflow)
    }


@pytest.fixture()
def indexed_service(small_corpus, tmp_path):
    service = indexed(small_corpus.repository.workflows()[:40], tmp_path / "store")
    yield service
    service.close()


class TestTokenPipelines:
    """The postings must tokenise exactly as the measures do — any drift
    would break the admission bound."""

    def test_text_tokens_match_bag_of_words(self, small_corpus):
        measure = BagOfWordsSimilarity()
        for workflow in small_corpus.repository.workflows()[:25]:
            assert InvertedAnnotationIndex.workflow_tokens("text", workflow) == measure.tokens(
                workflow
            )

    def test_tag_tokens_match_bag_of_tags(self, small_corpus):
        measure = BagOfTagsSimilarity()
        for workflow in small_corpus.repository.workflows()[:25]:
            assert InvertedAnnotationIndex.workflow_tokens("tags", workflow) == measure.tags(
                workflow
            )

    def test_unknown_field_rejected(self, kegg_workflow):
        with pytest.raises(ValueError):
            InvertedAnnotationIndex.workflow_tokens("label", kegg_workflow)


def postings_field(measure):
    """The postings field of the measure's bound, as the service reads it."""
    bound = find_bound(measure, AccelerationContext())
    return None if bound is None else bound.postings


class TestAdmissionBound:
    def test_every_positive_scoring_pair_is_admitted(self, small_corpus, tmp_path):
        """Score-safety: similarity > 0 implies SQL admission, for both
        bag-overlap measures."""
        workflows = small_corpus.repository.workflows()[:30]
        with WorkflowStore(tmp_path) as store:
            store.save_repository(fresh_repository(workflows), postings=True)
            planner = SqlAdmissionPlanner(store)
            for measure in (BagOfWordsSimilarity(), BagOfTagsSimilarity()):
                field = postings_field(measure)
                for query in workflows[:10]:
                    tokens = InvertedAnnotationIndex.workflow_tokens(field, query)
                    admitted = planner.admitted(field, tokens)
                    for candidate in workflows:
                        if candidate.identifier == query.identifier:
                            continue
                        if measure.similarity(query, candidate) > 0.0:
                            assert candidate.identifier in admitted

    def test_postings_field_covers_exactly_the_certified_measures(self):
        from repro.core.registry import create_measure

        bw = find_bound(create_measure("BW"), AccelerationContext())
        assert bw is not None and (bw.name, bw.postings) == ("bw-token-bag", "text")
        bt = find_bound(create_measure("BT"), AccelerationContext())
        assert bt is not None and (bt.name, bt.postings) == ("bt-tag-bag", "tags")
        # Structural measures prune by frontier bound instead, and
        # ensembles never admit (member applicability shifts the
        # denominator).
        assert postings_field(create_measure("MS_ip_te_pll")) is None
        assert postings_field(create_measure("MS_np_ta_plm")) is None
        assert postings_field(create_measure("BW+MS_ip_te_pll")) is None


class TestIndexedRouting:
    """AUTO routes annotation measures through SQL admission, bit-identically."""

    @pytest.mark.parametrize("measure", ["BW", "BT"])
    def test_indexed_matches_sequential_all_queries(self, indexed_service, measure):
        request = SearchRequest(measure=measure, k=10)
        auto = indexed_service.search(request)
        sequential = indexed_service.search(
            SearchRequest(measure=measure, k=10, policy=ExecutionPolicy.sequential())
        )
        assert auto == sequential
        assert auto.result_tuples() == sequential.result_tuples()
        assert auto.diagnostics.path == "sql-indexed"
        corpus_size = len(indexed_service)
        assert auto.diagnostics.index_candidates < corpus_size * corpus_size
        # The exact bound ends each scan at the k-th candidate.
        prune = auto.diagnostics.prune
        assert prune["candidates"] == corpus_size * (corpus_size - 1)
        assert prune["exact_comparisons"] == corpus_size * min(10, corpus_size - 1)
        assert prune["exact_comparisons"] + prune["pruned_char_bag"] == prune["candidates"]

    def test_single_query_preselects_below_corpus_size(self, indexed_service):
        query_id = indexed_service.repository.identifiers()[0]
        result = indexed_service.search(
            SearchRequest(measure="BW", queries=[query_id], k=10)
        )
        assert result.diagnostics.path == "sql-indexed"
        assert result.diagnostics.index_candidates < len(indexed_service)
        assert result.diagnostics.prune["exact_comparisons"] == min(10, len(indexed_service) - 1)

    def test_attached_store_routes_the_next_request(self, small_corpus, tmp_path):
        """A storeless service that attaches an indexed store of its
        corpus answers its next ``BW`` search from the store's postings."""
        workflows = small_corpus.repository.workflows()[:40]
        indexed(workflows, tmp_path / "store").close()
        service = SimilarityService(fresh_repository(workflows))
        assert service.store is None
        query_id = workflows[0].identifier
        service.attach_cache_dir(tmp_path / "store")
        first = service.search(SearchRequest(measure="BW", queries=[query_id], k=10))
        assert first.diagnostics.path == "sql-indexed"
        assert first.diagnostics.index_candidates < len(service)
        sequential = service.search(
            SearchRequest(
                measure="BW", queries=[query_id], k=10, policy=ExecutionPolicy.sequential()
            )
        )
        assert first == sequential
        service.close()

    def test_without_index_auto_uses_cached_scan(self, small_corpus, tmp_path):
        workflows = small_corpus.repository.workflows()[:15]
        request = SearchRequest(measure="BW", queries=[workflows[0].identifier], k=5)
        storeless = SimilarityService(fresh_repository(workflows))
        assert storeless.search(request).diagnostics.path == "cached"
        with pytest.raises(ValueError, match="no cache_dir attached"):
            storeless.build_index()
        # A store that was persisted but never indexed holds no postings.
        unindexed = SimilarityService(fresh_repository(workflows), cache_dir=tmp_path)
        unindexed.persist()
        assert not unindexed.store.has_postings()
        assert unindexed.search(request).diagnostics.path == "cached"
        unindexed.close()

    def test_candidate_restriction_bypasses_index(self, indexed_service):
        ids = indexed_service.repository.identifiers()
        restricted = indexed_service.search(
            SearchRequest(measure="BW", queries=[ids[0]], k=5, candidates=ids[1:8])
        )
        assert restricted.diagnostics.path != "sql-indexed"
        sequential = indexed_service.search(
            SearchRequest(
                measure="BW",
                queries=[ids[0]],
                k=5,
                candidates=ids[1:8],
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert restricted == sequential

    @pytest.mark.parametrize(
        "measure",
        [f"MS_{ip}_{pre}_pll" for ip in ("ip", "np") for pre in ("ta", "te", "tm")],
    )
    def test_label_levenshtein_ms_runs_pruned(self, indexed_service, measure):
        """Single-label-Levenshtein MS has no admission: on an indexed
        store it runs the frontier-pruned scan, bit-identically."""
        auto = indexed_service.search(SearchRequest(measure=measure, k=10))
        sequential = indexed_service.search(
            SearchRequest(measure=measure, k=10, policy=ExecutionPolicy.sequential())
        )
        assert auto == sequential
        assert auto.result_tuples() == sequential.result_tuples()
        assert auto.diagnostics.path == "pruned"
        assert auto.diagnostics.index_candidates is None
        assert any("ms-char-bag" in note for note in auto.diagnostics.notes)
        assert not any("label-char-bag" in note for note in auto.diagnostics.notes)

    def test_ensembles_never_use_the_index(self, indexed_service):
        query_id = indexed_service.repository.identifiers()[0]
        request = SearchRequest(measure="BW+MS_ip_te_pll", queries=[query_id], k=5)
        result = indexed_service.search(request)
        assert result.diagnostics.path != "sql-indexed"
        sequential = indexed_service.search(
            SearchRequest(
                measure="BW+MS_ip_te_pll",
                queries=[query_id],
                k=5,
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert result == sequential

    def test_sparse_query_fills_with_zero_scores(self, small_corpus, untagged_workflow, tmp_path):
        """A query admitting fewer candidates than ``k`` pads the ranking
        with zero-score workflows in pool order — exactly like the
        reference scan."""
        workflows = small_corpus.repository.workflows()[:20] + [untagged_workflow]
        service = indexed(workflows, tmp_path)
        request = SearchRequest(
            measure="BT", queries=[untagged_workflow.identifier], k=10
        )
        preselected = service.search(request)
        assert preselected.diagnostics.path == "sql-indexed"
        assert preselected.diagnostics.index_candidates == 0  # no tags, no overlap
        sequential = service.search(
            SearchRequest(
                measure="BT",
                queries=[untagged_workflow.identifier],
                k=10,
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert preselected == sequential
        assert all(
            hit.similarity == 0.0 for hit in preselected.for_query(untagged_workflow.identifier)
        )
        service.close()


class TestIndexMutation:
    def test_index_follows_add_and_remove(self, small_corpus, tmp_path):
        workflows = small_corpus.repository.workflows()
        base, extra = workflows[:25], workflows[25:30]
        service = indexed(base, tmp_path)
        service.add_workflows(extra)
        service.remove_workflows([base[3].identifier, base[7].identifier])
        query_id = base[0].identifier

        auto = service.search(SearchRequest(measure="BW", queries=[query_id], k=10))
        assert auto.diagnostics.path == "sql-indexed"
        fresh = SimilarityService(fresh_repository(service.repository.workflows()))
        sequential = fresh.search(
            SearchRequest(
                measure="BW", queries=[query_id], k=10, policy=ExecutionPolicy.sequential()
            )
        )
        assert auto == sequential
        assert store_postings(service.store) == snapshot_postings(service.repository)
        service.close()

    def test_remove_then_readd_reindexes(self, small_corpus, tmp_path):
        workflows = small_corpus.repository.workflows()[:10]
        service = indexed(workflows, tmp_path)
        victim = workflows[4]
        assert service.remove_workflows([victim.identifier]) == [victim.identifier]
        assert not any(row[2] == victim.identifier for row in store_postings(service.store))
        assert service.remove_workflows([victim.identifier]) == []
        service.add_workflows([victim])
        assert store_postings(service.store) == snapshot_postings(service.repository)
        result = service.search(SearchRequest(measure="BW", queries=[victim.identifier], k=5))
        assert result.diagnostics.path == "sql-indexed"
        assert result == service.search(
            SearchRequest(
                measure="BW",
                queries=[victim.identifier],
                k=5,
                policy=ExecutionPolicy.sequential(),
            )
        )
        service.close()


class TestRowPersistence:
    def test_rows_round_trip(self, small_corpus, tmp_path):
        """The stored postings are exactly the tokens of the snapshot."""
        workflows = small_corpus.repository.workflows()[:20]
        with WorkflowStore(tmp_path) as store:
            store.save_repository(fresh_repository(workflows), postings=True)
            assert store_postings(store) == snapshot_postings(store.load_repository())
            assert store.verify().ok

    def test_stats_counters(self, small_corpus, tmp_path):
        service = indexed(small_corpus.repository.workflows()[:10], tmp_path)
        stats = service.build_index()
        assert stats["documents"] == 10
        assert stats["postings"] == stats["text_postings"] + stats["tags_postings"]
        assert stats["postings"] == len(snapshot_postings(service.repository))
        assert stats["text_tokens"] > 0 and stats["tags_tokens"] > 0
        service.close()
