"""Chaos tests: deterministic fault injection across every tier.

Every armed fault — commit failures, lock storms, corrupt reads, killed
workers, a broken SQL admission tier — must leave the service *answering*, with a
``ResultSet`` bit-identical to the sequential seed path, and must be
visible in the request's diagnostics (``degraded`` +
``degradation_reason``).  The :class:`~repro.store.FaultInjector` fires
at the exact seams production faults surface at, a bounded number of
times, so each scenario is reproducible.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import (
    ClusterRequest,
    ExecutionPolicy,
    PairwiseRequest,
    SearchRequest,
    SimilarityService,
)
from repro.repository import SimilaritySearchEngine, WorkflowRepository
from repro.store import FaultInjector, RetryPolicy, corpus_fingerprint, workflow_store

MEASURE = "MS_ip_te_pll"


def fresh_repository(workflows, name="fresh"):
    return WorkflowRepository(list(workflows), name=name)


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "store"


@pytest.fixture()
def workflows(small_corpus):
    return small_corpus.repository.workflows()[:30]


@pytest.fixture()
def query_ids(workflows):
    return [workflow.identifier for workflow in workflows[:4]]


@pytest.fixture()
def reference(workflows, query_ids):
    """The sequential seed-path answer every fault scenario must match."""
    service = SimilarityService(fresh_repository(workflows))
    return service.search(
        SearchRequest(
            measure=MEASURE,
            queries=query_ids,
            k=10,
            policy=ExecutionPolicy.sequential(),
        )
    )


@pytest.fixture()
def warm_cache(cache_dir, workflows, query_ids):
    """A persisted store for the mid-query corruption scenarios."""
    service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
    service.build_index()
    service.search(SearchRequest(measure=MEASURE, queries=query_ids, k=10))
    service.persist()
    service.close()
    return cache_dir


def auto_request(query_ids, **policy_kwargs):
    policy = ExecutionPolicy(**policy_kwargs) if policy_kwargs else None
    kwargs = {"policy": policy} if policy is not None else {}
    return SearchRequest(measure=MEASURE, queries=query_ids, k=10, **kwargs)


class TestStoreFaultsMidQuery:
    def test_corrupt_load_degrades_quarantines_and_rebuilds(
        self, warm_cache, query_ids, reference
    ):
        service = SimilarityService.open(cache_dir=warm_cache)
        injector = FaultInjector()
        injector.corrupt_load(times=1)
        service.fault_injector = injector

        result = service.search(auto_request(query_ids))

        assert result == reference  # exact answer despite the faulting store
        assert result.diagnostics.degraded
        assert "store fault" in result.diagnostics.degradation_reason
        assert injector.count_fired("corrupt-load") == 1
        # The corrupt store was quarantined and a clean one rebuilt.
        assert any((warm_cache / "quarantine").iterdir())
        assert service.store is not None
        assert service.store.verify().ok
        assert service.store_trusted
        # Recovery is complete: the next request is clean and warm again.
        follow_up = service.search(auto_request(query_ids))
        assert follow_up == reference
        assert not follow_up.diagnostics.degraded
        service.close()

    def test_fault_while_scores_stream_degrades_quarantines_and_rebuilds(
        self, warm_cache, query_ids, reference, monkeypatch
    ):
        """Pair scores stream from the store's cursor into the cache, so a
        fault can surface after some rows loaded: the warm load still
        parks it, the store is quarantined and rebuilt, and the answer
        and the scores loaded before the fault stay exact."""
        decoded = workflow_store._decoded_pair_scores

        def faulting(rows):
            for number, row in enumerate(decoded(rows)):
                if number == 3:
                    raise sqlite3.DatabaseError("database disk image is malformed")
                yield row

        monkeypatch.setattr(workflow_store, "_decoded_pair_scores", faulting)
        service = SimilarityService.open(cache_dir=warm_cache)
        result = service.search(auto_request(query_ids))
        monkeypatch.undo()

        assert result == reference
        assert result.diagnostics.degraded
        assert "store fault (database disk image is malformed)" in (
            result.diagnostics.degradation_reason
        )
        assert any((warm_cache / "quarantine").iterdir())
        assert service.store is not None and service.store.verify().ok
        # The three rows loaded before the fault count as new for the
        # rebuilt store, which receives them on the next persist.
        assert service.persist()["pair_scores"] == service.context.cache_stats()[0]["entries"]
        follow_up = service.search(auto_request(query_ids))
        assert follow_up == reference
        assert not follow_up.diagnostics.degraded
        service.close()

    def test_rebuilt_store_keeps_its_postings(self, small_corpus, cache_dir):
        """A quarantine-and-rebuild writes the postings with the snapshot,
        so BW stays on the SQL tier, now and after a reopen."""
        workflows = small_corpus.repository.workflows()[:60]
        query_ids = [workflow.identifier for workflow in workflows[:4]]
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.build_index()
        service.search(SearchRequest(measure="PS_ip_te_pll", queries=query_ids, k=10))
        service.persist()
        service.close()
        bw = SearchRequest(measure="BW", queries=query_ids, k=10)
        expected = SimilarityService(fresh_repository(workflows)).search(
            SearchRequest(
                measure="BW", queries=query_ids, k=10, policy=ExecutionPolicy.sequential()
            )
        )

        service = SimilarityService.open(cache_dir=cache_dir)
        before = service.search(bw)
        assert before.diagnostics.path == "sql-indexed"
        postings = service.store.stats()["postings"]
        assert postings > 0
        injector = FaultInjector()
        injector.corrupt_load(times=1)
        service.fault_injector = injector
        faulted = service.search(
            SearchRequest(measure="PS_ip_te_pll", queries=query_ids, k=10)
        )
        assert faulted.diagnostics.degraded
        assert any((cache_dir / "quarantine").iterdir())

        after = service.search(bw)
        assert after == before == expected
        assert after.result_tuples() == expected.result_tuples()
        assert after.diagnostics.path == "sql-indexed"
        assert service.store.stats()["postings"] == postings
        service.close()

        reopened = SimilarityService.open(cache_dir=cache_dir)
        again = reopened.search(bw)
        assert again == expected
        assert again.diagnostics.path == "sql-indexed"
        assert reopened.store.verify().ok
        reopened.close()

    def test_locked_load_keeps_the_store(self, warm_cache, query_ids, reference):
        """Contention on a read degrades the request but is not corruption:
        the store survives, nothing is quarantined."""
        service = SimilarityService.open(cache_dir=warm_cache)
        injector = FaultInjector()
        injector.arm(
            "load",
            lambda _context: (_ for _ in ()).throw(
                sqlite3.OperationalError("database is locked")
            ),
            label="locked-load",
            times=1,
        )
        service.fault_injector = injector

        result = service.search(auto_request(query_ids))
        assert result == reference
        assert result.diagnostics.degraded
        assert "contended" in result.diagnostics.degradation_reason
        assert not (warm_cache / "quarantine").exists()
        assert service.store is not None
        service.close()

    def test_corrupt_commit_during_persist_recovers(self, warm_cache, query_ids):
        service = SimilarityService.open(cache_dir=warm_cache)
        service.search(auto_request(query_ids))
        injector = FaultInjector()
        injector.fail_commit(times=1, locked=False)  # non-retryable
        service.fault_injector = injector

        summary = service.persist()  # quarantines, rebuilds, persists again

        assert summary["workflows"] == len(service.repository)
        assert any((warm_cache / "quarantine").iterdir())
        assert service.store.verify().ok
        # The recovery is reported on the next request's diagnostics.
        diagnostics = service.search(auto_request(query_ids)).diagnostics
        assert diagnostics.degraded
        assert "store fault" in diagnostics.degradation_reason
        service.close()

    def test_locked_commits_during_persist_are_retried(self, warm_cache, query_ids):
        service = SimilarityService.open(cache_dir=warm_cache)
        service.search(auto_request(query_ids))
        injector = FaultInjector()
        injector.fail_commit(times=2, locked=True)
        service.fault_injector = injector

        summary = service.persist()
        assert summary["workflows"] == len(service.repository)
        assert service.store.retry_count == 2
        assert not (warm_cache / "quarantine").exists()  # contention != corruption
        service.close()


class TestWriteThroughFaults:
    """A corpus mutation whose store write fails never leaves a trusted
    store behind it: every later answer matches the sequential one."""

    def fast_and_exact(self, service, query_ids):
        """Each measure's fast answer (asserted equal to the sequential
        one), by measure; the first is the first response after the fault."""
        fast = {}
        for measure in ("BW", "BT", MEASURE):
            fast[measure] = service.search(SearchRequest(measure=measure, queries=query_ids, k=5))
            exact = service.search(
                SearchRequest(
                    measure=measure, queries=query_ids, k=5, policy=ExecutionPolicy.sequential()
                )
            )
            assert fast[measure] == exact
            assert fast[measure].result_tuples() == exact.result_tuples()
        return fast

    @pytest.mark.parametrize("locked", [False, True], ids=["corrupt", "locked"])
    @pytest.mark.parametrize("operation", ["add", "remove"])
    def test_failed_write_through(self, cache_dir, workflows, query_ids, operation, locked):
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.build_index()
        service.persist()
        top = service.search(
            SearchRequest(
                measure="BW", queries=query_ids[:1], k=1, policy=ExecutionPolicy.sequential()
            )
        )
        victim = top.queries[0].hits[0].workflow_id
        workflow = service.repository.get(victim)
        queries = [query for query in query_ids if query != victim]
        if operation == "add":
            service.remove_workflows([victim])
        retry = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
        service.store.retry = retry
        injector = FaultInjector()
        injector.fail_commit(times=retry.attempts if locked else 1, locked=locked)
        service.fault_injector = injector

        def mutate():
            if operation == "add":
                service.add_workflows([workflow])
            else:
                service.remove_workflows([victim])

        if locked:
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                mutate()
            assert not service.store_trusted
            assert "store write contended" in service.degradation_log[-1]["event"]
        else:
            mutate()
            assert len(list((cache_dir / "quarantine").iterdir())) == 1
            assert service.store_trusted
        assert (victim in service.repository) is (operation == "add")
        if operation == "remove":
            assert service.last_invalidation["workflows"] == 1

        first = self.fast_and_exact(service, queries)["BW"].diagnostics
        assert first.degraded
        if locked:
            assert "store write contended" in first.degradation_reason
            assert first.path != "sql-indexed"
            service.persist()
            assert service.store_trusted
            first = self.fast_and_exact(service, queries)["BW"].diagnostics
            assert not first.degraded
        else:
            assert "store fault" in first.degradation_reason
        assert first.path == "sql-indexed"
        assert service.store.verify().ok
        assert service.store.fingerprint() == corpus_fingerprint(service.repository)
        service.close()


class TestExecutionTierFaults:
    def test_killed_worker_falls_back_bit_identically(
        self, workflows, query_ids, reference
    ):
        service = SimilarityService(fresh_repository(workflows))
        injector = FaultInjector()
        injector.kill_worker(times=1)
        service.fault_injector = injector

        result = service.search(auto_request(query_ids, workers=2))

        assert result == reference
        assert result.diagnostics.degraded
        assert "parallel tier failed" in result.diagnostics.degradation_reason
        assert result.diagnostics.path in ("pruned", "cached")

    def test_worker_timeout_falls_back(self, workflows, query_ids, reference):
        service = SimilarityService(fresh_repository(workflows))
        injector = FaultInjector()
        injector.worker_timeout(times=1)
        service.fault_injector = injector

        result = service.search(auto_request(query_ids, workers=2))
        assert result == reference
        assert result.diagnostics.degraded

    def test_broken_index_falls_back(self, workflows, query_ids, warm_cache):
        plain = SimilarityService(fresh_repository(workflows))
        expected = plain.search(
            SearchRequest(
                measure="BW",
                queries=query_ids,
                k=10,
                policy=ExecutionPolicy.sequential(),
            )
        )
        service = SimilarityService.open(cache_dir=warm_cache)
        injector = FaultInjector()
        injector.break_sql(times=1)
        service.fault_injector = injector

        result = service.search(SearchRequest(measure="BW", queries=query_ids, k=10))

        assert result == expected
        assert result.diagnostics.degraded
        assert "sql admission tier failed" in result.diagnostics.degradation_reason
        assert result.diagnostics.path == "cached"
        # The postings were not at fault; the next request uses them again.
        healed = service.search(SearchRequest(measure="BW", queries=query_ids, k=10))
        assert healed == expected
        assert healed.diagnostics.path == "sql-indexed"
        service.close()

    def test_pairwise_pool_fault_falls_back(self, workflows):
        pool_ids = [workflow.identifier for workflow in workflows[:10]]
        plain = SimilarityService(fresh_repository(workflows))
        expected = plain.pairwise(
            PairwiseRequest(measure=MEASURE, policy=ExecutionPolicy.sequential())
        )
        service = SimilarityService(fresh_repository(workflows))
        injector = FaultInjector()
        injector.kill_worker(times=1)
        service.fault_injector = injector

        result = service.pairwise(
            PairwiseRequest(measure=MEASURE, policy=ExecutionPolicy(workers=2))
        )
        assert result == expected
        assert result.diagnostics.degraded
        assert "parallel tier failed" in result.diagnostics.degradation_reason
        assert len(pool_ids) == 10  # (pool fixture sanity)

    def test_in_process_fault_lands_on_the_sequential_scan(
        self, workflows, query_ids, reference, monkeypatch
    ):
        """The last rung: when the in-process batch or scan itself faults,
        search, pairwise and cluster all answer from the sequential exact
        scan, bit-identically, and say why."""
        scan = SimilaritySearchEngine.pairwise_similarity

        def broken_batch(self, *args, **kwargs):
            raise RuntimeError("batch kernel crashed")

        def broken_scan(self, measure, *, workflows=None, accelerate=True):
            if accelerate:
                raise RuntimeError("scan kernel crashed")
            return scan(self, measure, workflows=workflows, accelerate=False)

        monkeypatch.setattr(SimilaritySearchEngine, "serial_batch", broken_batch)
        monkeypatch.setattr(SimilaritySearchEngine, "pairwise_similarity", broken_scan)
        service = SimilarityService(fresh_repository(workflows))
        pool_ids = [workflow.identifier for workflow in workflows[:12]]
        sequential = ExecutionPolicy.sequential()

        def cluster(policy=ExecutionPolicy()):
            return service.cluster(
                ClusterRequest(measure=MEASURE, threshold=0.5, workflows=pool_ids, policy=policy)
            )

        def pairwise(policy=ExecutionPolicy()):
            return service.pairwise(
                PairwiseRequest(measure=MEASURE, workflows=pool_ids, policy=policy)
            )

        cases = (
            (service.search(auto_request(query_ids)), reference, "accelerated batch failed ("),
            (pairwise(), pairwise(sequential), "accelerated scan failed ("),
            (cluster(), cluster(sequential), "accelerated scan failed ("),
        )
        for answer, expected, prefix in cases:
            assert answer.diagnostics.path == "sequential"
            assert answer == expected
            assert answer.diagnostics.degraded
            assert answer.diagnostics.degradation_reason.startswith(prefix)
            assert not expected.diagnostics.degraded

    def test_every_fault_everywhere_still_bit_identical(
        self, workflows, warm_cache, query_ids, reference
    ):
        """The everything-is-on-fire scenario: SQL admission down, store
        reads corrupt, pool broken — the answer is still exactly the
        seed's."""
        service = SimilarityService.open(cache_dir=warm_cache)
        service.build_index()
        injector = FaultInjector()
        injector.break_sql(times=1)
        injector.corrupt_load(times=1)
        injector.kill_worker(times=1)
        service.fault_injector = injector

        result = service.search(auto_request(query_ids, workers=2))
        bw = service.search(SearchRequest(measure="BW", queries=query_ids, k=10))

        assert result == reference
        assert result.diagnostics.degraded
        assert result.diagnostics.degradation_reason is not None
        assert bw == SimilarityService(fresh_repository(workflows)).search(
            SearchRequest(
                measure="BW", queries=query_ids, k=10, policy=ExecutionPolicy.sequential()
            )
        )
        assert bw.diagnostics.degraded
        assert len(injector.fired) == 3
        # And the service healed: clean follow-up, clean store.
        follow_up = service.search(auto_request(query_ids))
        assert follow_up == reference
        assert service.store is None or service.store.verify().ok
        service.close()


class TestDiagnosticsRoundTrip:
    def test_degradation_fields_survive_serialization(
        self, warm_cache, query_ids
    ):
        service = SimilarityService.open(cache_dir=warm_cache)
        injector = FaultInjector()
        injector.corrupt_load(times=1)
        service.fault_injector = injector
        result = service.search(auto_request(query_ids))
        service.close()

        from repro.api.results import ResultSet

        round_tripped = ResultSet.from_json(result.to_json())
        assert round_tripped == result
        assert round_tripped.diagnostics.degraded is True
        assert (
            round_tripped.diagnostics.degradation_reason
            == result.diagnostics.degradation_reason
        )
        assert round_tripped.diagnostics.retry_attempts == result.diagnostics.retry_attempts
