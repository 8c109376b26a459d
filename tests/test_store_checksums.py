"""Additive row-hash checksums: incremental upkeep, detection, older schemas.

Every write transaction adjusts each table's checksum (the sum mod
``2**256`` of one sha256 per row) by only the rows it deletes and
inserts; :meth:`WorkflowStore.verify` recomputes every sum from scratch.
These tests pin that the two always agree — after any sequence of
writes, including writes rolled back by injected faults and writes
racing from several connections — that a recompute still catches an
out-of-band edit to any table, that opening a store writes nothing
(so it neither restores a missing sum nor waits for the writer lock),
and that stores of an older schema are rebuilt from their verified
snapshot instead of being converted in place.
"""

from __future__ import annotations

import hashlib
import json
import math
import sqlite3
import struct
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.cli import main
from repro.repository import WorkflowRepository
from repro.store import FaultInjector, RetryPolicy, StoreCorruptionError, WorkflowStore
from repro.store.faults import hold_write_lock
from repro.store.inverted_index import InvertedAnnotationIndex
from repro.store.workflow_store import _TABLES, _rows_sum, _stored_sum, _table_sum
from repro.text.tokenize import tokenize_label
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


def assert_postings_match_snapshot(store):
    """An indexed store's postings are exactly the tokens of its snapshot."""
    postings = set(store.connection.execute("SELECT field, token, workflow_id FROM postings"))
    if not postings:
        return
    expected = {
        (field, token, workflow.identifier)
        for workflow in (store.load_repository() or ())
        for field in InvertedAnnotationIndex.FIELDS
        for token in InvertedAnnotationIndex.workflow_tokens(field, workflow)
    }
    assert postings == expected


def raw_execute(cache_dir, statement):
    """An out-of-band write, bypassing the store."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    connection.execute(statement)
    connection.commit()
    connection.close()


def populated_store(cache_dir, workflows, *, scores=True):
    store = WorkflowStore(cache_dir)
    repository = WorkflowRepository(list(workflows), name="checksums")
    store.save_repository(repository, postings=True)
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
    st.tuples(st.just("save_repository"), SUBSETS, st.booleans()),
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
        store.save_repository(
            WorkflowRepository([pool[i] for i in step[1]], name="r"), postings=step[2]
        )
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
                    assert_postings_match_snapshot(store)
            finally:
                store.close()

    def test_duplicate_keys_in_one_batch_keep_the_last_score(self, cache_dir):
        store = WorkflowStore(cache_dir)
        written = store.save_pair_scores(
            "sig", [(("a",), ("b",), 0.5), (("a",), ("b",), 0.75)]
        )
        assert written == 1
        assert list(store.load_pair_scores("sig")) == [(("a",), ("b",), 0.75)]
        assert store.save_pair_scores("sig", [(("a",), ("b",), 0.125)]) == 1
        assert list(store.load_pair_scores("sig")) == [(("a",), ("b",), 0.125)]
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
        # Same postings, same payload, one new position.
        assert after["postings"] == before["postings"]
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

    @pytest.mark.parametrize("table", ["postings"])
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

    def test_missing_checksum_row_is_never_restored(self, cache_dir, pool):
        """An edited snapshot whose sum row is also gone stays unvouched
        for: no open recomputes the sum from the edited rows."""
        populated_store(cache_dir, pool[:4]).close()
        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        rowid, payload = connection.execute(
            "SELECT rowid, payload FROM workflows ORDER BY position LIMIT 1"
        ).fetchone()
        data = json.loads(payload)
        data["title"] = "edited out of band"
        connection.execute(
            "UPDATE workflows SET payload = ? WHERE rowid = ?",
            (json.dumps(data, sort_keys=True, separators=(",", ":")), rowid),
        )
        connection.execute("DELETE FROM meta WHERE key = 'rowsum:workflows'")
        connection.commit()
        connection.close()
        for _ in range(2):
            with WorkflowStore(cache_dir) as store:
                report = store.verify()
            assert not report.table_ok("workflows")
            assert "workflows: checksum row missing" in report.summary()
        with pytest.raises(StoreCorruptionError):
            SimilarityService.open(cache_dir=cache_dir)
        assert len(list((cache_dir / "quarantine").iterdir())) == 1
        assert not (cache_dir / "repro_store.sqlite").exists()

    def test_writes_after_corruption_do_not_bless_it(self, cache_dir, pool):
        """A later write adjusts the sum by its own rows only."""
        populated_store(cache_dir, pool[:4]).close()
        raw_execute(cache_dir, OUT_OF_BAND_EDITS["postings"])
        with WorkflowStore(cache_dir) as store:
            store.remove_workflow(pool[3].identifier)
            store.add_workflow(pool[3])
            assert not store.verify().table_ok("postings")
            # A whole-table rewrite leaves nothing unvouched for.
            store.save_repository(WorkflowRepository(pool[:4]), postings=True)
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

    def test_concurrent_creation_agrees(self, cache_dir, pool):
        """More connections than cores create one new store at once: each
        re-checks under the writer lock, so exactly one initialises it."""
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def create(workflow):
            try:
                start.wait(30)
                with WorkflowStore(
                    cache_dir, retry=RetryPolicy(attempts=40, base_delay=0.002, max_delay=0.02)
                ) as store:
                    store.add_workflow(workflow)
            except BaseException as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=create, args=(workflow,)) for workflow in pool[:6]]
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
            assert len(store.load_repository()) == 6
            assert store.connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchall() == [("2",)]
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

    def test_open_takes_no_lock(self, cache_dir, small_corpus):
        """Opening, verifying and searching an indexed store never wait
        behind another connection's writer lock."""
        workflows = small_corpus.repository.workflows()[:12]
        store = populated_store(cache_dir, workflows, scores=False)
        store.close()
        query = workflows[0].identifier
        reference = SimilarityService(WorkflowRepository(workflows)).search(
            SearchRequest(measure="BW", queries=[query], k=5, policy=ExecutionPolicy.sequential())
        )
        with hold_write_lock(cache_dir / "repro_store.sqlite", duration=3.0):
            started = time.perf_counter()
            with WorkflowStore(cache_dir, busy_timeout_ms=0, retry=RetryPolicy.none()) as store:
                assert store.verify().ok
            service = SimilarityService.open(cache_dir=cache_dir)
            result = service.search(SearchRequest(measure="BW", queries=[query], k=5))
            elapsed = time.perf_counter() - started
            service.close()
        assert result == reference
        assert result.diagnostics.path == "sql-indexed"
        assert elapsed < 2.0

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


# -- stores of an older schema ------------------------------------------------
#
# No store is converted in place.  Every store written before the current
# schema carries ``schema_version`` 1: it fails verification, and the
# service rebuilds it from its snapshot when that snapshot verifies.

LEGACY_QUERIES = {
    "workflows": "SELECT identifier, position, payload FROM workflows ORDER BY position, identifier",
    "pair_scores": "SELECT config, fp_a, fp_b, score FROM pair_scores ORDER BY config, fp_a, fp_b",
    "postings": "SELECT field, token, workflow_id FROM postings ORDER BY field, token, workflow_id",
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


def set_schema_version(cache_dir, version):
    raw_execute(cache_dir, f"UPDATE meta SET value = '{version}' WHERE key = 'schema_version'")


def downgrade_to_ordered_checksums(cache_dir):
    """Rewrite a store's meta the way builds before the additive sums
    left it: ordered checksums, no row sums."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    connection.execute("DELETE FROM meta WHERE key LIKE 'rowsum:%'")
    for table in LEGACY_QUERIES:
        connection.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            (f"checksum:{table}", legacy_checksum(connection, table)),
        )
    connection.commit()
    connection.close()


def label_bag_rows(workflow):
    """One ``label_bags`` row per raw label character (``""`` counts
    empty labels), as stores with the label prefilter kept them."""
    bag: dict[str, int] = {}
    for module in workflow.modules:
        for token in module.attribute("label") or [""]:
            bag[token] = bag.get(token, 0) + 1
    return [(workflow.identifier, token, count) for token, count in sorted(bag.items())]


def label_posting_rows(workflow):
    tokens = {token for module in workflow.modules for token in tokenize_label(module.label)}
    return [("label", token, workflow.identifier) for token in sorted(tokens)]


def add_label_admission_tables(cache_dir):
    """Give a store what stores with the MS label prefilter also held:
    the ``label_bags`` table with its token index, additive checksum
    and ``label_bags_saved`` marker, and ``label`` postings counted in
    the postings checksum."""
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    workflows = [
        workflow_from_dict(json.loads(payload))
        for (payload,) in connection.execute("SELECT payload FROM workflows ORDER BY position")
    ]
    connection.execute(
        "CREATE TABLE label_bags (workflow_id TEXT NOT NULL, token TEXT NOT NULL,"
        " count INTEGER NOT NULL, PRIMARY KEY (workflow_id, token))"
    )
    connection.execute("CREATE INDEX label_bags_by_token ON label_bags (token, workflow_id)")
    bags = [row for workflow in workflows for row in label_bag_rows(workflow)]
    connection.executemany("INSERT INTO label_bags VALUES (?, ?, ?)", bags)
    labels = [row for workflow in workflows for row in label_posting_rows(workflow)]
    assert bags and labels
    connection.executemany("INSERT INTO postings (field, token, workflow_id) VALUES (?, ?, ?)", labels)
    sums = {
        "label_bags": _rows_sum("%s\x1f%s\x1f%s", bags),
        "postings": _table_sum(connection.cursor(), "postings"),
    }
    for table, total in sums.items():
        connection.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            (f"rowsum:{table}", format(total, "064x")),
        )
    connection.execute("INSERT INTO meta (key, value) VALUES ('label_bags_saved', '1')")
    connection.commit()
    connection.close()


def has_label_leftovers(cache_dir):
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    names = {name for (name,) in connection.execute("SELECT name FROM sqlite_master")}
    label_rows = connection.execute("SELECT COUNT(*) FROM postings WHERE field = 'label'").fetchone()[0]
    label_keys = [key for (key,) in connection.execute("SELECT key FROM meta") if "label" in key]
    connection.close()
    return bool(names & {"label_bags", "label_bags_by_token"} or label_rows or label_keys)


def schema_version(cache_dir):
    connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
    (version,) = connection.execute("SELECT value FROM meta WHERE key = 'schema_version'").fetchone()
    connection.close()
    return version


def persisted_store(cache_dir, workflows):
    """A persisted store (snapshot, postings, MS scores) and the
    sequential answers of three queries under MS, BW and BT."""
    service = SimilarityService(WorkflowRepository(workflows, name="legacy"), cache_dir=cache_dir)
    service.build_index()
    query_ids = [workflow.identifier for workflow in workflows[:3]]
    service.search(SearchRequest(measure=MEASURE, queries=query_ids, k=5))
    service.persist()
    references = {
        measure: service.search(
            SearchRequest(
                measure=measure, queries=query_ids, k=5, policy=ExecutionPolicy.sequential()
            )
        )
        for measure in (MEASURE, "BW", "BT")
    }
    service.close()
    return query_ids, references


def older_store(cache_dir, workflows, kind):
    """A persisted store in the format of an older build, and its answers.

    ``"v1"`` is the current format under version 1 (every store written
    since the label tables went); ``"label"`` also holds the label bags
    and label postings of the builds before that; ``"ordered"`` holds
    the ordered checksums of the builds before the additive sums.
    """
    query_ids, references = persisted_store(cache_dir, workflows)
    if kind == "label":
        add_label_admission_tables(cache_dir)
    elif kind == "ordered":
        downgrade_to_ordered_checksums(cache_dir)
    set_schema_version(cache_dir, 1)
    return query_ids, references


def assert_answers(service, query_ids, references, *, degraded_first=False):
    """Each measure answers its reference on its fast path; only the
    first response reports the open's degradation."""
    for index, (measure, reference) in enumerate(references.items()):
        result = service.search(SearchRequest(measure=measure, queries=query_ids, k=5))
        assert result == reference
        assert result.result_tuples() == reference.result_tuples()
        assert result.diagnostics.path == ("pruned" if measure == MEASURE else "sql-indexed")
        assert result.diagnostics.degraded is (degraded_first and index == 0)


#: What an older store's quarantine says, in ``REASON.txt`` and (after
#: "persisted ") in the open's event: its age, not damage.
OLDER_REASON = "store written at schema version 1 (this build reads 2); rebuilt from {source}"
#: The check an older layout's label postings fail beside the version's.
LABEL_POSTINGS = "; other failed checks: postings: unknown index field 'label'"


def only_quarantine(cache_dir):
    (quarantined,) = (cache_dir / "quarantine").iterdir()
    return quarantined


class TestOlderSchemas:
    @pytest.mark.parametrize("kind", ["v1", "label"])
    def test_older_store_is_rebuilt_from_its_snapshot(self, cache_dir, small_corpus, kind):
        query_ids, references = older_store(
            cache_dir, small_corpus.repository.workflows()[:20], kind
        )
        with WorkflowStore(cache_dir, create=False) as store:
            report = store.verify()
        assert "meta: schema version 1 != 2" in report.problems
        assert report.table_ok("workflows")

        service = SimilarityService.open(cache_dir=cache_dir)
        reason = OLDER_REASON.format(source="its verified snapshot")
        reason += LABEL_POSTINGS if kind == "label" else ""
        quarantined = only_quarantine(cache_dir)
        assert (quarantined / "REASON.txt").read_text() == reason + "\n"
        (entry,) = service.degradation_log
        assert entry["event"] == f"persisted {reason}; previous files quarantined to {quarantined}"
        assert "damaged" not in entry["event"]
        assert_answers(service, query_ids, references, degraded_first=True)
        assert_sums_exact(service.store)
        assert_postings_match_snapshot(service.store)
        service.close()
        assert schema_version(cache_dir) == "2"
        assert not has_label_leftovers(cache_dir)

    def test_older_store_lists_its_other_failed_checks(self, cache_dir, small_corpus):
        """Age leads; damage found beside it follows, and the store is
        still rebuilt from its verified snapshot."""
        query_ids, references = older_store(
            cache_dir, small_corpus.repository.workflows()[:20], "v1"
        )
        raw_execute(
            cache_dir,
            "UPDATE pair_scores SET score = score + 0.25 "
            "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)",
        )
        service = SimilarityService.open(cache_dir=cache_dir)
        reason = (
            OLDER_REASON.format(source="its verified snapshot")
            + "; other failed checks: pair_scores: content checksum mismatch"
        )
        quarantined = only_quarantine(cache_dir)
        assert (quarantined / "REASON.txt").read_text() == reason + "\n"
        assert service.degradation_log[0]["event"].startswith(f"persisted {reason}; ")
        assert_answers(service, query_ids, references, degraded_first=True)
        service.close()

    def test_older_store_is_rebuilt_from_the_live_corpus(self, cache_dir, small_corpus):
        workflows = small_corpus.repository.workflows()[:20]
        query_ids, references = older_store(cache_dir, workflows, "label")
        service = SimilarityService(WorkflowRepository(workflows, name="legacy"), cache_dir=cache_dir)
        reason = OLDER_REASON.format(source="the live corpus") + LABEL_POSTINGS
        quarantined = only_quarantine(cache_dir)
        assert (quarantined / "REASON.txt").read_text() == reason + "\n"
        (entry,) = service.degradation_log
        assert entry["event"] == f"persisted {reason}; previous files quarantined to {quarantined}"
        assert service.store_trusted
        assert_answers(service, query_ids, references, degraded_first=True)
        service.close()
        assert schema_version(cache_dir) == "2"
        assert not has_label_leftovers(cache_dir)

    def test_older_store_opens_without_a_write(self, cache_dir, small_corpus):
        older_store(cache_dir, small_corpus.repository.workflows()[:6], "label")
        before = (cache_dir / "repro_store.sqlite").read_bytes()
        with WorkflowStore(cache_dir, create=False) as store:
            assert not store.verify().ok
        assert (cache_dir / "repro_store.sqlite").read_bytes() == before
        assert schema_version(cache_dir) == "1" and has_label_leftovers(cache_dir)

    def test_store_without_row_sums_needs_a_corpus(self, cache_dir, small_corpus, tmp_path):
        """Nothing vouches for a snapshot without a row sum, however
        well it decodes: the open refuses it, and the repair it names
        rebuilds the store from the corpus."""
        workflows = small_corpus.repository.workflows()[:20]
        query_ids, references = older_store(cache_dir, workflows, "ordered")
        with pytest.raises(StoreCorruptionError) as excinfo:
            SimilarityService.open(cache_dir=cache_dir)
        assert "repro store repair --corpus" in str(excinfo.value)
        assert not (cache_dir / "repro_store.sqlite").exists()

        corpus = tmp_path / "corpus.json"
        WorkflowRepository(workflows, name="legacy").save(corpus)
        assert main(["store", "repair", "--cache-dir", str(cache_dir), "--corpus", str(corpus)]) == 0
        service = SimilarityService.open(cache_dir=cache_dir)
        assert_answers(service, query_ids, references)
        assert_sums_exact(service.store)
        service.close()
        assert schema_version(cache_dir) == "2"
