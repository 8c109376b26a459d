"""Crash safety, corruption detection and quarantine-and-rebuild.

The resilience contract of ``src/repro/store``: a store that fails
verification — torn write, bit rot, dropped table, truncated file — is
*detected* (checksums + payload decode), *quarantined* (moved to
``<cache_dir>/quarantine/<timestamp>/``, never silently trusted), and
*rebuilt* cold from the live repository, while every query served along
the way stays bit-identical to the sequential seed path.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.repository import WorkflowRepository
from repro.store import (
    FaultInjector,
    RetryPolicy,
    StoreCorruptionError,
    WorkflowStore,
)
from repro.store.faults import flip_bytes, hold_write_lock, truncate_file

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


def request_for(query_ids, **policy_kwargs):
    policy = ExecutionPolicy(**policy_kwargs) if policy_kwargs else None
    kwargs = {"policy": policy} if policy is not None else {}
    return SearchRequest(measure=MEASURE, queries=query_ids, k=10, **kwargs)


@pytest.fixture()
def persisted(cache_dir, workflows, query_ids):
    """A persisted store plus the sequential reference ResultSet."""
    service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
    service.build_index()
    service.search(request_for(query_ids))
    service.persist()
    reference = service.search(request_for(query_ids, mode="sequential"))
    service.close()
    return cache_dir, reference


def corrupt_pair_score(cache_dir):
    """Out-of-band score edit: well-formed SQLite, wrong content."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    connection.execute(
        "UPDATE pair_scores SET score = score + 0.25 "
        "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)"
    )
    connection.commit()
    connection.close()


class TestVerify:
    def test_fresh_store_verifies_clean(self, persisted):
        cache_dir, _ = persisted
        with WorkflowStore(cache_dir) as store:
            report = store.verify()
        assert report.ok
        assert report.tables == {
            "workflows": "ok",
            "pair_scores": "ok",
            "postings": "ok",
        }

    def test_out_of_band_score_edit_is_detected(self, persisted):
        """SQLite considers the file well-formed; the checksum does not."""
        cache_dir, _ = persisted
        corrupt_pair_score(cache_dir)
        with WorkflowStore(cache_dir) as store:
            report = store.verify()
        assert not report.ok
        assert not report.table_ok("pair_scores")
        assert report.table_ok("workflows")  # snapshot is salvageable
        assert "checksum mismatch" in report.summary()

    def test_dropped_table_is_detected(self, persisted):
        cache_dir, _ = persisted
        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        connection.execute("DROP TABLE postings")
        connection.commit()
        connection.close()
        with WorkflowStore(cache_dir) as store:
            report = store.verify()
        assert not report.ok
        assert not report.table_ok("postings")
        assert report.table_ok("workflows")

    def test_reopening_does_not_bless_corruption(self, persisted):
        """Opening a corrupted store must not refresh its checksums."""
        cache_dir, _ = persisted
        corrupt_pair_score(cache_dir)
        with WorkflowStore(cache_dir) as store:
            assert not store.verify().ok
        # Still detected on a second open — the baseline survived.
        with WorkflowStore(cache_dir) as store:
            assert not store.verify().ok


class TestQuarantineAndRebuild:
    def assert_quarantined(self, cache_dir, count=1):
        quarantine = cache_dir / "quarantine"
        entries = sorted(quarantine.iterdir())
        assert len(entries) == count
        newest = entries[-1]
        assert (newest / "REASON.txt").exists()
        assert (newest / "repro_store.sqlite").exists()
        return newest

    def test_flipped_score_open_salvages_and_rebuilds(self, persisted, query_ids):
        cache_dir, reference = persisted
        corrupt_pair_score(cache_dir)

        service = SimilarityService.open(cache_dir=cache_dir)
        result = service.search(request_for(query_ids))

        assert result == reference  # bit-identical despite the corruption
        assert result.diagnostics.degraded
        quarantined = self.assert_quarantined(cache_dir)
        # A store of this schema version that fails is damaged, and says so.
        assert (quarantined / "REASON.txt").read_text() == "pair_scores: content checksum mismatch\n"
        assert result.diagnostics.degradation_reason == (
            "persisted store failed verification (pair_scores: content checksum mismatch); "
            f"snapshot salvaged, damaged files quarantined to {quarantined}, store rebuilt"
        )
        assert service.store.verify().ok  # the rebuilt store is clean
        assert service.store_trusted
        # The degradation was consumed; the next request runs clean.
        assert not service.search(request_for(query_ids)).diagnostics.degraded
        service.close()

    def test_deleted_postings_table_open_salvages(self, persisted, query_ids):
        cache_dir, reference = persisted
        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        connection.execute("DROP TABLE postings")
        connection.commit()
        connection.close()

        service = SimilarityService.open(cache_dir=cache_dir)
        result = service.search(request_for(query_ids))
        assert result == reference
        assert result.diagnostics.degraded
        self.assert_quarantined(cache_dir)
        assert service.store.verify().ok
        service.close()

    def test_truncated_store_without_source_is_actionable(self, persisted):
        cache_dir, _ = persisted
        truncate_file(cache_dir / "repro_store.sqlite", keep_fraction=0.25)
        with pytest.raises(StoreCorruptionError) as excinfo:
            SimilarityService.open(cache_dir=cache_dir)
        message = str(excinfo.value)
        assert "quarantine" in message and "corpus source" in message
        self.assert_quarantined(cache_dir)  # never reused, even on failure

    def test_truncated_store_with_source_rebuilds(
        self, persisted, workflows, query_ids
    ):
        cache_dir, reference = persisted
        truncate_file(cache_dir / "repro_store.sqlite", keep_fraction=0.25)

        service = SimilarityService.open(
            fresh_repository(workflows), cache_dir=cache_dir
        )
        result = service.search(request_for(query_ids))
        assert result == reference
        assert result.diagnostics.degraded
        self.assert_quarantined(cache_dir)
        assert service.store.verify().ok
        service.close()

    def test_flipped_bytes_midfile_with_source_rebuilds(
        self, persisted, workflows, query_ids
    ):
        cache_dir, reference = persisted
        path = cache_dir / "repro_store.sqlite"
        flip_bytes(path, offset=path.stat().st_size // 2, count=64)

        service = SimilarityService.open(
            fresh_repository(workflows), cache_dir=cache_dir
        )
        result = service.search(request_for(query_ids))
        assert result == reference
        self.assert_quarantined(cache_dir)
        service.close()


class TestCloseAndRollback:
    """Satellite: idempotent close, rollback-on-failure, no stale locks."""

    def test_store_close_is_idempotent(self, cache_dir, workflows):
        store = WorkflowStore(cache_dir)
        store.save_repository(fresh_repository(workflows))
        store.close()
        store.close()
        assert store.closed
        with pytest.raises(sqlite3.ProgrammingError):
            store.load_repository()

    def test_service_close_is_idempotent(self, cache_dir, workflows):
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.close()
        service.close()
        assert service.store is None

    def test_failed_write_rolls_back_and_releases_the_lock(
        self, cache_dir, workflows
    ):
        store = WorkflowStore(cache_dir, retry=RetryPolicy.none())
        injector = FaultInjector()
        injector.fail_commit(times=1, locked=False)  # non-retryable I/O error
        store.fault_injector = injector
        with pytest.raises(sqlite3.DatabaseError):
            store.save_repository(fresh_repository(workflows))
        # The transaction rolled back: nothing was written...
        assert not store.has_snapshot()
        # ...no file lock is left behind (an independent writer succeeds)...
        other = sqlite3.connect(cache_dir / "repro_store.sqlite", timeout=0.5)
        other.execute("BEGIN IMMEDIATE")
        other.rollback()
        other.close()
        # ...and the store object itself remains usable.
        assert store.save_repository(fresh_repository(workflows)) == len(workflows)
        assert store.verify().ok
        store.close()


class TestRetryPolicy:
    def test_locked_commits_are_retried_until_success(self, cache_dir, workflows):
        store = WorkflowStore(
            cache_dir, retry=RetryPolicy(attempts=5, base_delay=0.001, max_delay=0.002)
        )
        injector = FaultInjector()
        injector.fail_commit(times=2, locked=True)
        store.fault_injector = injector
        assert store.save_repository(fresh_repository(workflows)) == len(workflows)
        assert store.retry_count == 2
        assert injector.count_fired("fail-commit-locked") == 2
        store.close()

    def test_exhausted_attempts_surface_the_lock_error(self, cache_dir, workflows):
        store = WorkflowStore(
            cache_dir, retry=RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.002)
        )
        injector = FaultInjector()
        injector.lock_for_attempts(10)  # outlasts the budget
        store.fault_injector = injector
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            store.save_repository(fresh_repository(workflows))
        assert store.retry_count == 2  # attempts - 1 retries, then give up
        store.close()

    def test_corruption_is_never_retried(self, cache_dir, workflows):
        store = WorkflowStore(
            cache_dir, retry=RetryPolicy(attempts=5, base_delay=0.001, max_delay=0.002)
        )
        injector = FaultInjector()
        injector.fail_commit(times=3, locked=False)
        store.fault_injector = injector
        with pytest.raises(sqlite3.DatabaseError):
            store.save_repository(fresh_repository(workflows))
        assert store.retry_count == 0
        assert injector.count_fired() == 1  # one attempt, no retry loop
        store.close()

    def test_real_contention_is_ridden_out(self, cache_dir, workflows):
        """A concurrent connection holds the writer lock; the policy waits."""
        store = WorkflowStore(cache_dir)
        store.save_repository(fresh_repository(workflows))
        store.close()
        contended = WorkflowStore(
            cache_dir,
            busy_timeout_ms=0,  # disable SQLite's own waiting; retries must do it
            retry=RetryPolicy(attempts=50, base_delay=0.02, max_delay=0.05, jitter=0.0),
        )
        with hold_write_lock(cache_dir / "repro_store.sqlite", duration=0.3):
            assert contended.save_repository(fresh_repository(workflows)) == len(
                workflows
            )
        assert contended.retry_count > 0
        assert contended.verify().ok
        contended.close()

    def test_attached_store_takes_a_new_retry_policy(self, cache_dir, workflows):
        """A service's lock-retry schedule is its store's: a budget of 7
        set there rides out 6 locked commits (the default gives up
        after 5 attempts)."""
        service = SimilarityService(fresh_repository(workflows), cache_dir=cache_dir)
        service.store.retry = RetryPolicy(attempts=7, base_delay=0.001, max_delay=0.002)
        injector = FaultInjector()
        injector.lock_for_attempts(6)
        service.fault_injector = injector
        assert service.persist()["workflows"] == len(workflows)
        assert service.store.retry_count == 6
        assert injector.count_fired("lock-for-attempts") == 6
        assert service.store.verify().ok
        service.close()
