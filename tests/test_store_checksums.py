"""Additive row-hash checksums: incremental upkeep, detection, migration.

Every write transaction adjusts each table's checksum (the sum mod
``2**256`` of one sha256 per row) by only the rows it deletes and
inserts; :meth:`WorkflowStore.verify` recomputes every sum from scratch.
These tests pin that the two always agree — after any sequence of
writes, including writes rolled back by injected faults and writes
racing from several connections — that a recompute still catches an
out-of-band edit to any table, and that stores written with the older
ordered checksums are converted only when they still match them.
"""

from __future__ import annotations

import hashlib
import math
import sqlite3
import struct
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.repository import WorkflowRepository
from repro.store import FaultInjector, RetryPolicy, WorkflowStore
from repro.store.faults import hold_write_lock
from repro.store.inverted_index import InvertedAnnotationIndex
from repro.store.workflow_store import _TABLES, _stored_sum, _table_sum
from repro.workflow.serialization import workflow_from_dict, workflow_to_dict

TABLES = tuple(_TABLES)
MEASURE = "MS_ip_te_pll"


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "store"


@pytest.fixture(scope="module")
def pool(small_corpus):
    return small_corpus.repository.workflows()[:8]


@pytest.fixture(scope="module")
def variants(pool):
    """Same identifiers as ``pool``, different content (replacing upserts)."""
    donors = pool[1:] + pool[:1]
    replaced = []
    for workflow, donor in zip(pool, donors):
        data = workflow_to_dict(donor)
        data["id"] = workflow.identifier
        replaced.append(workflow_from_dict(data))
    return replaced


def recomputed(store):
    return {table: _table_sum(store.connection.cursor(), table) for table in TABLES}


def stored(store):
    return {table: _stored_sum(store.connection.cursor(), table) for table in TABLES}


def assert_sums_exact(store):
    assert stored(store) == recomputed(store)
    report = store.verify()
    assert report.ok, report.summary()


def raw_execute(cache_dir, statement):
    """An out-of-band write, bypassing the store."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    connection.execute(statement)
    connection.commit()
    connection.close()


def populated_store(cache_dir, workflows, *, scores=True):
    store = WorkflowStore(cache_dir)
    repository = WorkflowRepository(list(workflows), name="checksums")
    store.save_repository(repository)
    store.save_index(InvertedAnnotationIndex.build(repository))
    if scores:
        store.save_pair_scores(
            "sig", [(("a",), ("b",), 0.25), (("a",), ("c",), 1.0 / 3.0)]
        )
    return store


# -- the property -------------------------------------------------------------

FINGERPRINTS = st.sampled_from([("a",), ("b",), ("c", "d"), ("é",), ("",)])
SCORES = st.sampled_from([0.0, -0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0, 0.9999999999999999])
SUBSETS = st.lists(st.integers(0, 7), unique=True, max_size=8)
STEPS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("remove"), st.integers(0, 8)),
    st.tuples(st.just("save_repository"), SUBSETS),
    st.tuples(st.just("save_index"), SUBSETS),
    st.tuples(st.just("clear_postings")),
    st.tuples(
        st.just("save_pair_scores"),
        st.sampled_from(["sig-1", "sig-2"]),
        st.lists(st.tuples(FINGERPRINTS, FINGERPRINTS, SCORES), max_size=6),
    ),
)
FAULTS = st.sampled_from([None, None, "io", "locked"])


def apply_step(store, step, pool, variants):
    kind = step[0]
    if kind == "add":
        store.add_workflow((variants if step[2] else pool)[step[1]])
    elif kind == "remove":
        identifier = pool[step[1]].identifier if step[1] < len(pool) else "absent"
        store.remove_workflow(identifier)
    elif kind == "save_repository":
        store.save_repository(WorkflowRepository([pool[i] for i in step[1]], name="r"))
    elif kind == "save_index":
        store.save_index(InvertedAnnotationIndex.build([pool[i] for i in step[1]]))
    elif kind == "clear_postings":
        store.clear_postings()
    else:
        store.save_pair_scores(step[1], step[2])


class TestIncrementalSums:
    @given(steps=st.lists(st.tuples(STEPS, FAULTS), max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_running_sums_equal_a_full_recompute(self, pool, variants, steps):
        with tempfile.TemporaryDirectory() as scratch:
            store = WorkflowStore(
                scratch, retry=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0)
            )
            try:
                for step, fault in steps:
                    before = recomputed(store)
                    injector = FaultInjector()
                    if fault is not None:
                        injector.fail_commit(times=1, locked=fault == "locked")
                    store.fault_injector = injector
                    try:
                        apply_step(store, step, pool, variants)
                    except sqlite3.DatabaseError:
                        # Only the non-retryable fault escapes; it must
                        # have rolled the whole write back.
                        assert fault == "io"
                        assert recomputed(store) == before
                    assert_sums_exact(store)
            finally:
                store.close()

    def test_duplicate_keys_in_one_batch_keep_the_last_score(self, cache_dir):
        store = WorkflowStore(cache_dir)
        written = store.save_pair_scores(
            "sig", [(("a",), ("b",), 0.5), (("a",), ("b",), 0.75)]
        )
        assert written == 1
        assert store.load_pair_scores("sig") == [(("a",), ("b",), 0.75)]
        assert store.save_pair_scores("sig", [(("a",), ("b",), 0.125)]) == 1
        assert store.load_pair_scores("sig") == [(("a",), ("b",), 0.125)]
        assert store.save_pair_scores("sig", []) == 0
        assert_sums_exact(store)
        store.close()

    def test_a_write_touches_only_its_rows(self, cache_dir, pool):
        """The sum moves by exactly the hashes of the rows written."""
        store = populated_store(cache_dir, pool[:4])
        victim = pool[1]
        before = stored(store)
        assert store.remove_workflow(victim.identifier)
        store.add_workflow(victim)
        after = stored(store)
        # Same postings and bags, same payload, one new position.
        assert after["postings"] == before["postings"]
        assert after["label_bags"] == before["label_bags"]
        assert after["pair_scores"] == before["pair_scores"]
        assert after["workflows"] != before["workflows"]
        assert_sums_exact(store)
        store.close()


# -- detection ----------------------------------------------------------------

OUT_OF_BAND_EDITS = {
    "workflows": "UPDATE workflows SET position = position + 1000 "
    "WHERE rowid = (SELECT MIN(rowid) FROM workflows)",
    "pair_scores": "UPDATE pair_scores SET score = score + 0.25 "
    "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)",
    "postings": "UPDATE postings SET token = token || 'x' "
    "WHERE rowid = (SELECT MIN(rowid) FROM postings)",
    "label_bags": "UPDATE label_bags SET count = count + 1 "
    "WHERE rowid = (SELECT MIN(rowid) FROM label_bags)",
}


class TestDetection:
    @pytest.mark.parametrize("table", TABLES)
    def test_out_of_band_edit_to_each_table_is_detected(self, cache_dir, pool, table):
        populated_store(cache_dir, pool[:4]).close()
        raw_execute(cache_dir, OUT_OF_BAND_EDITS[table])
        with WorkflowStore(cache_dir) as store:
            report = store.verify()
        assert not report.ok
        assert not report.table_ok(table)
        assert "checksum mismatch" in report.summary()
        assert all(report.table_ok(other) for other in TABLES if other != table)

    @pytest.mark.parametrize("table", ["postings", "label_bags"])
    def test_deleted_row_is_detected(self, cache_dir, pool, table):
        populated_store(cache_dir, pool[:4]).close()
        raw_execute(cache_dir, f"DELETE FROM {table} WHERE rowid = (SELECT MAX(rowid) FROM {table})")
        with WorkflowStore(cache_dir) as store:
            assert not store.verify().table_ok(table)

    def test_last_ulp_score_change_is_detected(self, cache_dir, pool):
        populated_store(cache_dir, pool[:2]).close()
        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        rowid, score = connection.execute(
            "SELECT rowid, score FROM pair_scores ORDER BY rowid LIMIT 1"
        ).fetchone()
        connection.execute(
            "UPDATE pair_scores SET score = ? WHERE rowid = ?",
            (math.nextafter(score, 2.0), rowid),
        )
        connection.commit()
        connection.close()
        with WorkflowStore(cache_dir) as store:
            assert not store.verify().table_ok("pair_scores")

    def test_unreadable_checksum_row_is_never_backfilled(self, cache_dir, pool):
        populated_store(cache_dir, pool[:2]).close()
        raw_execute(cache_dir, "UPDATE meta SET value = 'garbage' WHERE key = 'rowsum:pair_scores'")
        for _ in range(2):  # neither reopening nor a write vouches for it
            with WorkflowStore(cache_dir) as store:
                report = store.verify()
                assert not report.table_ok("pair_scores")
                assert report.table_ok("workflows")
                store.save_pair_scores("sig", [(("x",), ("y",), 0.5)])

    def test_writes_after_corruption_do_not_bless_it(self, cache_dir, pool):
        """A later write adjusts the sum by its own rows only."""
        populated_store(cache_dir, pool[:4]).close()
        raw_execute(cache_dir, OUT_OF_BAND_EDITS["postings"])
        with WorkflowStore(cache_dir) as store:
            store.remove_workflow(pool[3].identifier)
            store.add_workflow(pool[3])
            assert not store.verify().table_ok("postings")
            # A whole-table rewrite leaves nothing unvouched for.
            store.save_index(InvertedAnnotationIndex.build(pool[:4]))
            assert store.verify().ok


# -- concurrency --------------------------------------------------------------


class TestConcurrentWriters:
    def test_concurrent_churn_keeps_positions_and_sums(self, cache_dir, small_corpus):
        """More writer threads than cores, each on its own connection,
        adding and removing different workflows: a lost update to a
        running sum or a shared snapshot position breaks the asserts."""
        workflows = small_corpus.repository.workflows()[:34]
        populated_store(cache_dir, workflows[:4], scores=False).close()
        shares = [workflows[4:14], workflows[14:24], workflows[24:34]]
        errors: list[BaseException] = []
        start = threading.Barrier(len(shares))

        def churn(mine):
            try:
                with WorkflowStore(
                    cache_dir, retry=RetryPolicy(attempts=40, base_delay=0.002, max_delay=0.02)
                ) as store:
                    start.wait(30)
                    for _ in range(3):
                        for workflow in mine:
                            store.add_workflow(workflow)
                        for workflow in mine[::2]:
                            store.remove_workflow(workflow.identifier)
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=churn, args=(share,)) for share in shares]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        with WorkflowStore(cache_dir) as store:
            rows, positions = store.connection.execute(
                "SELECT COUNT(*), COUNT(DISTINCT position) FROM workflows"
            ).fetchone()
            assert rows == positions == 4 + 3 * 5
            assert_sums_exact(store)

    def test_next_position_is_read_under_the_writer_lock(self, cache_dir, pool):
        """A second writer cannot slip in between reading the next
        snapshot position and writing the row that takes it."""
        populated_store(cache_dir, pool[:2], scores=False).close()
        first = WorkflowStore(cache_dir)
        other_done = threading.Event()
        errors: list[BaseException] = []

        def other_writer():
            try:
                with WorkflowStore(cache_dir) as store:
                    store.add_workflow(pool[4])
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)
            finally:
                other_done.set()

        other = threading.Thread(target=other_writer)
        state = {"read_position": False, "paused": False}

        def pause_after_position_read(statement):
            if state["read_position"] and not state["paused"]:
                # ``first`` has read MAX(position); let the other writer
                # try to finish an add before ``first`` writes its row.
                state["paused"] = True
                other.start()
                other_done.wait(0.5)
            if "MAX(position)" in statement:
                state["read_position"] = True

        first.connection.set_trace_callback(pause_after_position_read)
        first.add_workflow(pool[3])
        first.connection.set_trace_callback(None)
        other.join(30)
        assert not other.is_alive()
        assert state["paused"] and not errors
        rows, positions = first.connection.execute(
            "SELECT COUNT(*), COUNT(DISTINCT position) FROM workflows"
        ).fetchone()
        assert rows == positions == 4
        assert_sums_exact(first)
        first.close()

    def test_lock_on_begin_goes_through_the_retry_policy(self, cache_dir, pool):
        populated_store(cache_dir, pool[:3], scores=False).close()
        store = WorkflowStore(
            cache_dir,
            busy_timeout_ms=0,
            retry=RetryPolicy(attempts=50, base_delay=0.02, max_delay=0.05, jitter=0.0),
        )
        with hold_write_lock(cache_dir / "repro_store.sqlite", duration=0.3):
            store.add_workflow(pool[5])
        assert store.retry_count > 0
        assert pool[5].identifier in store.load_repository()
        assert_sums_exact(store)
        store.close()


# -- migration from the ordered checksums --------------------------------------

LEGACY_QUERIES = {
    "workflows": "SELECT identifier, position, payload FROM workflows ORDER BY position, identifier",
    "pair_scores": "SELECT config, fp_a, fp_b, score FROM pair_scores ORDER BY config, fp_a, fp_b",
    "postings": "SELECT field, token, workflow_id FROM postings ORDER BY field, token, workflow_id",
    "label_bags": "SELECT workflow_id, token, count FROM label_bags ORDER BY workflow_id, token",
}


def legacy_checksum(connection, table):
    """The ordered full-scan sha256 older stores kept in ``checksum:<table>``."""
    digest = hashlib.sha256()
    for row in connection.execute(LEGACY_QUERIES[table]):
        for value in row:
            if isinstance(value, float):
                digest.update(struct.pack("<d", value))
            else:
                digest.update(str(value).encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1e")
    return digest.hexdigest()


def downgrade_to_legacy(cache_dir):
    """Rewrite a store's meta the way an older build left it."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    connection.execute("DELETE FROM meta WHERE key LIKE 'rowsum:%'")
    for table in TABLES:
        connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            (f"checksum:{table}", legacy_checksum(connection, table)),
        )
    connection.commit()
    connection.close()


def meta_keys(cache_dir):
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    keys = {key for (key,) in connection.execute("SELECT key FROM meta")}
    connection.close()
    return keys


@pytest.fixture()
def legacy_store(cache_dir, small_corpus):
    """A persisted store (snapshot, index, MS scores) in the older format."""
    workflows = small_corpus.repository.workflows()[:20]
    service = SimilarityService(WorkflowRepository(workflows, name="legacy"), cache_dir=cache_dir)
    service.build_index()
    query_ids = [workflow.identifier for workflow in workflows[:3]]
    service.search(SearchRequest(measure=MEASURE, queries=query_ids, k=5))
    service.persist()
    reference = service.search(
        SearchRequest(
            measure=MEASURE, queries=query_ids, k=5, policy=ExecutionPolicy.sequential()
        )
    )
    service.close()
    downgrade_to_legacy(cache_dir)
    return cache_dir, query_ids, reference


class TestMigration:
    def test_legacy_store_is_converted_and_verifies(self, legacy_store):
        cache_dir, query_ids, reference = legacy_store
        assert {f"checksum:{table}" for table in TABLES} <= meta_keys(cache_dir)
        service = SimilarityService.open(cache_dir=cache_dir)
        assert not (cache_dir / "quarantine").exists()
        result = service.search(SearchRequest(measure=MEASURE, queries=query_ids, k=5))
        assert result == reference
        assert not result.diagnostics.degraded
        assert_sums_exact(service.store)
        service.close()
        keys = meta_keys(cache_dir)
        assert {f"rowsum:{table}" for table in TABLES} <= keys
        assert not any(key.startswith("checksum:") for key in keys)

    def test_legacy_store_with_out_of_band_edit_is_quarantined(self, legacy_store):
        cache_dir, query_ids, reference = legacy_store
        raw_execute(cache_dir, OUT_OF_BAND_EDITS["pair_scores"])
        with WorkflowStore(cache_dir) as store:
            report = store.verify()
        assert not report.ok
        assert not report.table_ok("pair_scores")
        assert report.table_ok("workflows")
        # The damaged table was not converted: no sum vouches for it.
        keys = meta_keys(cache_dir)
        assert "checksum:pair_scores" in keys and "rowsum:pair_scores" not in keys

        service = SimilarityService.open(cache_dir=cache_dir)
        quarantined = list((cache_dir / "quarantine").iterdir())
        assert len(quarantined) == 1
        result = service.search(SearchRequest(measure=MEASURE, queries=query_ids, k=5))
        assert result == reference
        assert result.diagnostics.degraded
        assert service.store.verify().ok
        service.close()
