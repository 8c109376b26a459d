"""SQL-pushdown candidate admission: equivalence, churn, chaos.

The acceptance contract of :mod:`repro.store.sql_admission`: a warm
service answers ``BW``/``BT`` ``AUTO`` searches from the persisted
store's postings (``path == "sql-indexed"``) with results bit-identical
to the sequential seed path, while ``MS`` runs the frontier-pruned scan
without any admission query.  When the SQL tier faults mid-query, the
service degrades to the accelerated batch, still bit-identically.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.repository import WorkflowRepository
from repro.store import FaultInjector, SqlAdmissionPlanner, WorkflowStore
from repro.store.workflow_store import _table_sum

#: The admitted measures (text and tag postings) plus MS, which has no
#: admission and must not touch the postings.
MEASURES = ("BW", "BT", "MS_ip_te_pll")


def fresh_repository(workflows, name="fresh"):
    return WorkflowRepository(list(workflows), name=name)


def request(measure, query_ids, k=10, **policy_kwargs):
    policy = ExecutionPolicy(**policy_kwargs) if policy_kwargs else None
    kwargs = {"policy": policy} if policy is not None else {}
    return SearchRequest(measure=measure, queries=query_ids, k=k, **kwargs)


def sequential_request(measure, query_ids, k=10):
    return SearchRequest(
        measure=measure,
        queries=query_ids,
        k=k,
        policy=ExecutionPolicy.sequential(),
    )


def expected_path(measure):
    return "pruned" if measure.startswith("MS") else "sql-indexed"


@pytest.fixture()
def corpus_slice(small_corpus):
    return small_corpus.repository.workflows()[:35]


@pytest.fixture()
def query_ids(corpus_slice):
    return [workflow.identifier for workflow in corpus_slice[:4]]


@pytest.fixture()
def warm_cache(tmp_path, corpus_slice, query_ids):
    """A store persisted with postings and MS pair scores."""
    cache_dir = tmp_path / "store"
    service = SimilarityService(fresh_repository(corpus_slice), cache_dir=cache_dir)
    service.build_index()
    service.search(request("MS_ip_te_pll", query_ids))
    service.persist()
    service.close()
    return cache_dir


class TestSqlAdmissionEquivalence:
    """sql-indexed ≡ sequential, bit for bit; MS stays on the pruned scan."""

    def test_sql_tier_bit_identical_across_measures(self, warm_cache, corpus_slice, query_ids):
        reference_service = SimilarityService(fresh_repository(corpus_slice))
        service = SimilarityService.open(cache_dir=warm_cache)
        for measure in MEASURES:
            reference = reference_service.search(sequential_request(measure, query_ids))
            result = service.search(request(measure, query_ids))
            assert result == reference
            assert result.result_tuples() == reference.result_tuples()
            assert result.diagnostics.path == expected_path(measure)
        service.close()

    def test_sql_tier_never_materializes_structures(self, warm_cache, query_ids):
        """Admission reads only the postings rows of the query's tokens
        (indexed lookups, never a table scan), and MS reads none."""
        service = SimilarityService.open(cache_dir=warm_cache)
        for measure in MEASURES:
            statements: list[str] = []
            service.store.connection.set_trace_callback(statements.append)
            result = service.search(request(measure, query_ids))
            service.store.connection.set_trace_callback(None)
            assert result.diagnostics.path == expected_path(measure)
            reads = [
                statement
                for statement in statements
                if "FROM postings" in statement and "LIMIT 1" not in statement
            ]
            if measure.startswith("MS"):
                assert reads == []
                assert not any("label-char-bag" in note for note in result.diagnostics.notes)
            else:
                assert "sql pushdown" in " ".join(result.diagnostics.notes)
                assert reads and all("token IN" in statement for statement in reads)
        service.close()

    def test_sql_tier_survives_corpus_churn(
        self, warm_cache, small_corpus, corpus_slice, query_ids
    ):
        extra = small_corpus.repository.workflows()[35:40]
        service = SimilarityService.open(cache_dir=warm_cache)
        service.add_workflows(extra)
        service.remove_workflows([corpus_slice[-1].identifier])
        mutated_pool = service.repository.workflows()

        fresh = SimilarityService(fresh_repository(mutated_pool))
        for measure in MEASURES:
            churned = service.search(request(measure, query_ids))
            assert churned == fresh.search(sequential_request(measure, query_ids))
            assert churned.diagnostics.path == expected_path(measure)
        service.close()

    def test_planner_stats_report_readiness(self, warm_cache):
        service = SimilarityService.open(cache_dir=warm_cache)
        stats = SqlAdmissionPlanner(service.store).stats()
        assert stats == {"annotation_ready": True, "indexes": "postings_by_workflow"}
        service.close()


class TestSqlAdmissionChaos:
    """The SQL tier faults mid-query; degradation stays exact."""

    def test_injected_sql_fault_falls_back_to_cached_scan(
        self, warm_cache, corpus_slice, query_ids
    ):
        reference = SimilarityService(fresh_repository(corpus_slice)).search(
            sequential_request("BW", query_ids)
        )
        service = SimilarityService.open(cache_dir=warm_cache)
        injector = FaultInjector()
        injector.break_sql(times=1)
        service.fault_injector = injector

        result = service.search(request("BW", query_ids))
        assert result == reference
        assert result.diagnostics.degraded
        assert "sql admission tier failed" in result.diagnostics.degradation_reason
        # The cached full scan picked the query up, same answer.
        assert result.diagnostics.path == "cached"
        assert result.diagnostics.index_candidates is None
        assert ("sql", "break-sql") in injector.fired

        # The fault was transient: the next request is back on SQL.
        healed = service.search(request("BW", query_ids))
        assert healed == reference
        assert healed.diagnostics.path == "sql-indexed"
        service.close()

    def test_dropped_postings_mid_session_degrade_bit_identically(
        self, warm_cache, corpus_slice, query_ids
    ):
        reference = SimilarityService(fresh_repository(corpus_slice)).search(
            sequential_request("BW", query_ids)
        )
        service = SimilarityService.open(cache_dir=warm_cache)
        # The table vanishes *between* the availability probe and query
        # execution — has_postings() still sees it, admitted() does not.
        original_ready = service._sql_admission_ready

        def ready_then_drop():
            ready = original_ready()
            if ready:
                service.store.connection.execute("DROP TABLE postings")
            return ready

        service._sql_admission_ready = ready_then_drop
        result = service.search(request("BW", query_ids))
        assert result == reference
        assert result.diagnostics.degraded
        service._sql_admission_ready = original_ready

        # And the service healed: clean follow-up, identical answer, a
        # rebuilt store that is indexed again.
        follow_up = service.search(request("BW", query_ids))
        assert follow_up == reference
        assert follow_up.diagnostics.path == "sql-indexed"
        service.close()


class TestFromRowsRemovalPrecision:
    """A workflow indexed under only some fields is still removed
    precisely, and postings naming an unknown field fail loudly."""

    def test_partial_rows_remove_cleanly(self, corpus_slice, tmp_path):
        untagged = [w for w in corpus_slice if not w.annotations.tags]
        tagged = [w for w in corpus_slice if w.annotations.tags]
        workflows = (untagged[:1] or corpus_slice[:1]) + tagged[:3]
        with WorkflowStore(tmp_path) as store:
            store.save_repository(fresh_repository(workflows), postings=True)
            for workflow in workflows:
                assert store.remove_workflow(workflow.identifier) is True
                assert store.remove_workflow(workflow.identifier) is False  # idempotent
                remaining = store.connection.execute(
                    "SELECT COUNT(*) FROM postings WHERE workflow_id = ?",
                    (workflow.identifier,),
                ).fetchone()[0]
                assert remaining == 0
            assert not store.has_postings()
            assert store.verify().ok

    def test_unknown_field_rows_fail_loudly(self, corpus_slice, tmp_path):
        with WorkflowStore(tmp_path) as store:
            store.save_repository(fresh_repository(corpus_slice[:3]), postings=True)
        # A foreign row whose checksum was rewritten to match: only the
        # payload decode can catch it.
        connection = sqlite3.connect(tmp_path / "repro_store.sqlite")
        connection.execute("UPDATE postings SET field = 'bogus' WHERE rowid = 1")
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'rowsum:postings'",
            (format(_table_sum(connection.cursor(), "postings"), "064x"),),
        )
        connection.commit()
        connection.close()
        with WorkflowStore(tmp_path) as store:
            report = store.verify()
        assert not report.table_ok("postings")
        assert "unknown index field 'bogus'" in report.summary()
