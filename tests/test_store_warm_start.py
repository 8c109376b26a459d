"""Persistent warm-start store: restart-surviving caches, bit-identity.

The acceptance contract of ``src/repro/store``: a
:class:`~repro.api.SimilarityService` reopened over a persisted store
returns bit-identical ``ResultSet``s to the cold service that wrote it —
including after corpus mutation — with diagnostics proving the warm
start actually happened (``cache_warm_hits > 0``).
"""

from __future__ import annotations

import hashlib
import sqlite3

import pytest

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.repository import WorkflowRepository
from repro.store import FaultInjector, RetryPolicy, WorkflowStore, corpus_fingerprint
from repro.store.workflow_store import STORE_FILENAME
from repro.workflow.serialization import workflow_to_dict


def fresh_repository(workflows, name="fresh"):
    """A repository (and thus profile store) no other test shares."""
    return WorkflowRepository(list(workflows), name=name)


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "store"


def ms_request(query_ids, k=10):
    return SearchRequest(measure="MS_ip_te_pll", queries=query_ids, k=k)


class TestWarmStartIdentity:
    """Satellite: persist → restart → same ResultSet bit for bit."""

    def test_reopened_service_is_bit_identical_and_warm(self, small_corpus, cache_dir):
        workflows = small_corpus.repository.workflows()[:40]
        query_ids = [workflow.identifier for workflow in workflows[:5]]

        cold = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        cold_set = cold.search(ms_request(query_ids))
        assert cold_set.diagnostics.cache_warm_hits == 0  # nothing persisted yet
        cold.build_index()
        summary = cold.persist()
        assert summary["workflows"] == 40
        assert summary["pair_scores"] > 0
        cold.close()

        warm = SimilarityService.open(cache_dir=cache_dir)
        warm_set = warm.search(ms_request(query_ids))
        assert warm_set == cold_set
        assert warm_set.result_tuples() == cold_set.result_tuples()
        assert warm_set.diagnostics.cache_warm_hits > 0
        # MS has no admission: the warm path is the pruned scan, while
        # the persisted postings stand ready for BW/BT.
        assert warm_set.diagnostics.path == "pruned"
        assert warm.store is not None and warm.store.has_postings()
        assert warm.store.index_stats()["documents"] == 40

    def test_warm_matches_sequential_reference(self, small_corpus, cache_dir):
        workflows = small_corpus.repository.workflows()[:30]
        query_ids = [workflow.identifier for workflow in workflows[:4]]
        cold = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        cold.search(ms_request(query_ids))
        cold.persist()

        warm = SimilarityService.open(cache_dir=cache_dir)
        sequential = warm.search(
            SearchRequest(
                measure="MS_ip_te_pll",
                queries=query_ids,
                k=10,
                policy=ExecutionPolicy.sequential(),
            )
        )
        auto = warm.search(ms_request(query_ids))
        assert auto == sequential

    def test_warm_start_after_corpus_mutation(self, small_corpus, cache_dir):
        """Persist a churned corpus; the reopened service matches a fresh
        service built directly over the mutated corpus."""
        workflows = small_corpus.repository.workflows()
        base, extra = workflows[:30], workflows[30:38]
        query_ids = [workflow.identifier for workflow in base[:4]]

        service = SimilarityService(fresh_repository(base), cache_dir=cache_dir)
        service.search(ms_request(query_ids))
        service.add_workflows(extra)
        removed = service.remove_workflows(
            [workflow.identifier for workflow in base[25:30]]
        )
        assert len(removed) == 5
        service.search(ms_request(query_ids))  # exercise the mutated corpus
        service.build_index()
        service.persist()
        mutated_pool = service.repository.workflows()

        warm = SimilarityService.open(cache_dir=cache_dir)
        fresh = SimilarityService(fresh_repository(mutated_pool))
        assert warm.repository.identifiers() == [w.identifier for w in mutated_pool]
        warm_set = warm.search(ms_request(query_ids))
        assert warm_set == fresh.search(ms_request(query_ids))
        assert warm_set.diagnostics.cache_warm_hits > 0

    def test_incremental_store_churn_stays_consistent(self, small_corpus, cache_dir):
        """With a store attached, add/remove update the snapshot and the
        postings row by row — a later warm start sees the mutated corpus."""
        workflows = small_corpus.repository.workflows()
        base, extra = workflows[:20], workflows[20:25]
        query_ids = [workflow.identifier for workflow in base[:3]]

        service = SimilarityService(fresh_repository(base), cache_dir=cache_dir)
        service.build_index()
        service.persist()
        service.add_workflows(extra)
        service.remove_workflows([base[-1].identifier])
        mutated_pool = service.repository.workflows()
        # No second persist(): the incremental row updates must suffice
        # for the snapshot (pair scores stay whatever was persisted).
        service.close()

        warm = SimilarityService.open(cache_dir=cache_dir)
        assert warm.repository.identifiers() == [w.identifier for w in mutated_pool]
        # Incremental row updates kept the postings current, so the SQL
        # admission tier answers from them.
        assert warm.store is not None and warm.store.has_postings()
        fresh = SimilarityService(fresh_repository(mutated_pool))
        assert warm.search(ms_request(query_ids)) == fresh.search(ms_request(query_ids))
        bw_request = SearchRequest(measure="BW", queries=query_ids, k=10)
        warm_bw = warm.search(bw_request)
        assert warm_bw == fresh.search(bw_request)
        assert warm_bw.diagnostics.path == "sql-indexed"


class TestStoreRoundTrips:
    def test_snapshot_preserves_order_and_payload(self, small_corpus, cache_dir):
        repository = fresh_repository(small_corpus.repository.workflows()[:15])
        store = WorkflowStore(cache_dir)
        assert not store.has_snapshot()
        store.save_repository(repository)
        assert store.has_snapshot()
        loaded = store.load_repository()
        assert loaded.name == repository.name
        assert loaded.identifiers() == repository.identifiers()
        for original, restored in zip(repository, loaded):
            assert workflow_to_dict(restored) == workflow_to_dict(original)
        assert store.fingerprint() == corpus_fingerprint(repository)
        assert corpus_fingerprint(loaded) == corpus_fingerprint(repository)

    def test_fingerprint_is_order_sensitive(self, small_corpus, cache_dir):
        workflows = small_corpus.repository.workflows()[:6]
        forward = corpus_fingerprint(fresh_repository(workflows))
        reversed_ = corpus_fingerprint(fresh_repository(list(reversed(workflows))))
        assert forward != reversed_

    def test_pair_scores_round_trip_bit_exact(self, cache_dir):
        store = WorkflowStore(cache_dir)
        entries = [
            (("alpha", "wsdl"), ("beta", "beanshell"), 0.1 + 0.2),
            (("", ""), ("x" * 50, "y"), 1.0 / 3.0),
            (("unicode ✓", "t"), ("müller", "t"), 0.9999999999999999),
        ]
        assert store.save_pair_scores("sig", entries) == 3
        restored = sorted(store.load_pair_scores("sig"))
        assert restored == sorted(entries)  # float equality: bit-exact
        assert list(store.load_pair_scores("other")) == []
        assert store.pair_score_count() == 3

    def test_pair_score_rows_are_pinned(self, cache_dir):
        """The ``pair_scores`` rows a fixed run writes are pinned: their
        sorted text and the table's row sum.  Pair caches number their
        fingerprints in memory only; on disk a symmetric pair is keyed by
        its fingerprint tuples in tuple order and a score by the text of
        its float.  Turning a pair around or changing that text would
        need a ``SCHEMA_VERSION`` bump, and so would a change to which
        pairs the searches score exactly."""
        corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=120, seed=3))
        ids = corpus.repository.identifiers()
        service = SimilarityService(corpus.repository, cache_dir=cache_dir)
        for measure in ("MS_ip_te_pll", "MS_np_ta_pw0", "PS_ip_te_pll"):
            service.search(SearchRequest(measure=measure, queries=ids[:6], k=10))
        service.persist()
        service.search(ms_request(ids[6:10]))
        service.persist()
        service.close()
        connection = sqlite3.connect(cache_dir / STORE_FILENAME)
        try:
            rows = sorted(connection.execute("SELECT config, fp_a, fp_b, score FROM pair_scores"))
            (row_sum,) = connection.execute(
                "SELECT value FROM meta WHERE key = 'rowsum:pair_scores'"
            ).fetchone()
        finally:
            connection.close()
        text = "\n".join("\x1f".join(map(repr, row)) for row in rows)
        assert len(rows) == 11_647
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "149932e79746c0754ab47294627eb857133b8d519451b7b30528177d943d23c8"
        )
        assert row_sum == "19fc9a579bf42dcecfba579a4495dd4a1a57977aed40319f23703af788227ad9"

    def test_remove_workflow_row(self, small_corpus, cache_dir):
        repository = fresh_repository(small_corpus.repository.workflows()[:5])
        store = WorkflowStore(cache_dir)
        store.save_repository(repository)
        victim = repository.identifiers()[2]
        assert store.remove_workflow(victim)
        assert not store.remove_workflow(victim)  # idempotent
        survivors = [i for i in repository.identifiers() if i != victim]
        assert store.load_repository().identifiers() == survivors


class TestStoreAttachment:
    def test_open_without_snapshot_raises(self, cache_dir):
        WorkflowStore(cache_dir).close()  # empty store exists
        with pytest.raises(ValueError):
            SimilarityService.open(cache_dir=cache_dir)
        with pytest.raises(ValueError):
            SimilarityService.open()

    def test_mismatched_corpus_does_not_trust_index(self, small_corpus, cache_dir):
        workflows = small_corpus.repository.workflows()
        writer = SimilarityService(fresh_repository(workflows[:20]), cache_dir=cache_dir)
        writer.search(ms_request([workflows[0].identifier], k=5))
        writer.build_index()
        writer.persist()

        # A *different* corpus over the same cache dir: pair scores are
        # value-keyed and safe to reuse, the persisted postings are not.
        other = SimilarityService(fresh_repository(workflows[:25]), cache_dir=cache_dir)
        assert not other.store_trusted and other.store.has_postings()
        result = other.search(ms_request([workflows[0].identifier], k=5))
        assert result.diagnostics.cache_warm_hits > 0
        fresh = SimilarityService(fresh_repository(workflows[:25]))
        assert result == fresh.search(ms_request([workflows[0].identifier], k=5))
        bw = SearchRequest(measure="BW", queries=[workflows[0].identifier], k=5)
        untrusted_bw = other.search(bw)
        assert untrusted_bw.diagnostics.path == "cached"
        assert untrusted_bw == fresh.search(bw)

    def test_attach_cache_dir_warm_starts_a_storeless_service(self, small_corpus, cache_dir):
        workflows = small_corpus.repository.workflows()[:25]
        query_ids = [workflows[0].identifier]
        writer = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        writer.search(ms_request(query_ids))
        writer.persist()

        service = SimilarityService(fresh_repository(workflows))
        assert service.store is None
        service.attach_cache_dir(cache_dir)
        result = service.search(ms_request(query_ids))
        assert service.store is not None
        assert result.diagnostics.cache_warm_hits > 0

    def test_close_detaches_store_from_context(self, small_corpus, cache_dir):
        # Regression: a pair cache created *after* close() used to warm-load
        # from the closed SQLite connection and crash.
        workflows = small_corpus.repository.workflows()[:15]
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.persist()
        service.close()
        assert service.store is None
        result = service.search(
            SearchRequest(
                measure="MS_np_ta_pw0", queries=[workflows[0].identifier], k=5
            )
        )
        assert len(result) == 1

    def test_untrusted_store_is_never_written_through(self, small_corpus, cache_dir):
        # Regression: mutating a service over corpus B used to upsert rows
        # into a snapshot persisted from corpus A, storing a corpus that
        # never existed.
        workflows = small_corpus.repository.workflows()
        writer = SimilarityService(fresh_repository(workflows[:5]), cache_dir=cache_dir)
        writer.build_index()
        writer.persist()
        writer.close()

        other = SimilarityService(fresh_repository(workflows[5:8]), cache_dir=cache_dir)
        assert not other.store_trusted
        other.add_workflows([workflows[9]])
        other.remove_workflows([workflows[5].identifier])
        other.close()

        reopened = SimilarityService.open(cache_dir=cache_dir)
        assert reopened.repository.identifiers() == [
            workflow.identifier for workflow in workflows[:5]
        ]

    def test_persist_skips_warm_loaded_scores(self, small_corpus, cache_dir):
        # Entries served from the store must not be rewritten to it.
        workflows = small_corpus.repository.workflows()[:20]
        query_ids = [workflow.identifier for workflow in workflows[:3]]
        writer = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        writer.search(ms_request(query_ids))
        first = writer.persist()
        assert first["pair_scores"] > 0

        warm = SimilarityService.open(cache_dir=cache_dir)
        warm.search(ms_request(query_ids))
        second = warm.persist()
        assert second["pair_scores"] < first["pair_scores"]

    def test_persist_writes_only_scores_new_since_the_last_persist(
        self, small_corpus, cache_dir
    ):
        workflows = small_corpus.repository.workflows()[:20]
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.search(ms_request([workflows[0].identifier]))
        first = service.persist()
        assert first["pair_scores"] > 0
        assert service.persist()["pair_scores"] == 0
        service.search(ms_request([workflows[1].identifier]))
        second = service.persist()
        assert second["pair_scores"] > 0
        assert service.store.pair_score_count() == first["pair_scores"] + second["pair_scores"]
        service.close()

    def test_scores_of_a_rolled_back_save_are_written_next_persist(
        self, small_corpus, cache_dir
    ):
        workflows = small_corpus.repository.workflows()[:20]
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.search(ms_request([workflows[0].identifier]))
        persisted = service.persist()["pair_scores"]
        service.search(ms_request([workflows[1].identifier]))
        service.store.retry = RetryPolicy.none()
        injector = FaultInjector()
        injector.fail_commit(times=1, locked=True)
        service.fault_injector = injector
        with pytest.raises(Exception, match="locked"):
            service.persist()
        assert injector.count_fired() == 1
        assert service.store.pair_score_count() == persisted  # rolled back
        retried = service.persist()["pair_scores"]
        assert retried > 0
        assert service.store.pair_score_count() == persisted + retried
        assert service.persist()["pair_scores"] == 0
        assert service.store.verify().ok
        service.close()

    def test_persist_requires_store(self, small_corpus):
        service = SimilarityService(
            fresh_repository(small_corpus.repository.workflows()[:5])
        )
        with pytest.raises(ValueError):
            service.persist()

    def test_pairwise_reports_warm_hits(self, small_corpus, cache_dir):
        from repro.api import PairwiseRequest

        workflows = small_corpus.repository.workflows()[:12]
        ids = [workflow.identifier for workflow in workflows]
        writer = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        cold = writer.pairwise(PairwiseRequest(measure="MS_ip_te_pll", workflows=ids))
        writer.persist()

        warm = SimilarityService.open(cache_dir=cache_dir)
        warm_set = warm.pairwise(PairwiseRequest(measure="MS_ip_te_pll", workflows=ids))
        assert warm_set == cold
        assert warm_set.diagnostics.cache_warm_hits > 0
