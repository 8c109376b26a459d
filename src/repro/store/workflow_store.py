"""SQLite-backed persistence for repositories, score caches and postings.

A :class:`WorkflowStore` is the durable half of the acceleration layer:
everything the in-process caches learn — module-pair scores keyed by
attribute-value fingerprints, the corpus snapshot they were derived
from, and the token postings derived from that snapshot — survives a
process restart, so a :class:`~repro.api.service.SimilarityService`
reopened over the same ``cache_dir`` warm-starts bit-identically instead
of paying the full cold-start cost again.

One store is one SQLite file (``repro_store.sqlite``) inside the cache
directory, holding four tables:

* ``meta`` — schema version, repository name, and one content checksum
  row per data table (see below);
* ``workflows`` — the corpus snapshot, one JSON payload per workflow
  with an explicit ``position`` column.  Iteration order is part of a
  corpus' identity (ranking tie-breaks follow pool order), so the
  snapshot preserves it exactly;
* ``pair_scores`` — the value-fingerprint-keyed module-pair scores of
  :class:`~repro.perf.cache.ModulePairScoreCache`, one row per
  ``(configuration signature, fingerprint_a, fingerprint_b)``.  SQLite
  ``REAL`` is an IEEE-754 double, so scores round-trip bit-exactly;
* ``postings`` — one ``(field, token, workflow_id)`` row per token of
  each :attr:`~repro.store.inverted_index.InvertedAnnotationIndex.FIELDS`
  field, the ``BW``/``BT`` admission structure that
  :class:`~repro.store.sql_admission.SqlAdmissionPlanner` queries.
  Postings are data derived from the snapshot: a store holding any
  (an *indexed* store — :meth:`WorkflowStore.rebuild` and
  ``save_repository(..., postings=True)`` make one) rewrites them in the
  same transaction as every snapshot write, so they always describe
  exactly the stored corpus.

Invalidation is precise and value-safe: removing or adding a workflow
touches only its snapshot row and its posting rows, while pair scores
are *never* invalidated by corpus churn — they are keyed by attribute
values, not by corpus membership, and stay exact for any workflow still
(or later) in the corpus.

**Crash safety.**  Connections open with ``journal_mode=WAL``,
``busy_timeout`` and ``synchronous=NORMAL`` (the multi-process schema
discipline of ROADMAP open item 2), so concurrent readers never block a
writer and a crash mid-write rolls back cleanly.  Every mutating method
runs as one transaction opened with ``BEGIN IMMEDIATE``: the writer lock
is taken before the first read, so reads a write depends on (the next
snapshot position, the per-table checksums) cannot race another
process's write.  Transient ``database is locked`` errors — on ``BEGIN``
as on ``COMMIT`` — are retried under a configurable
:class:`~repro.store.resilience.RetryPolicy` (bounded attempts,
exponential backoff + jitter); corruption is never retried — callers
quarantine and rebuild (see :func:`~repro.store.resilience.quarantine_store`).

**One schema.**  Opening a file that already holds a store writes
nothing and takes no lock, whatever its schema version; only a new
file is initialised, in one transaction.  A store of any other
:data:`SCHEMA_VERSION` is never converted in place: :meth:`WorkflowStore.verify`
fails it, and the service rebuilds it from its snapshot when that
snapshot still verifies (see ``SimilarityService.open``).

**Checksums.**  Each data table has one content checksum row in
``meta``: an *additive row hash* (AdHash, Bellare–Micciancio 1997), the
sum modulo ``2**256`` of one sha256 per row.  A sum needs no order and
can be adjusted row by row, so every write transaction subtracts the
hashes of the rows it deletes and adds those of the rows it inserts —
a write costs O(rows touched), not a rehash of the table.  All row
changes go through the two helpers of :class:`_Writer`, which is what
keeps the sums exact.  :meth:`WorkflowStore.verify` still recomputes
every table's sum from scratch and decodes every payload, so torn or
out-of-band writes are *detected* rather than silently served.  As
before, the checksum is an unkeyed corruption detector, not a MAC:
whoever can edit a table can also rewrite ``meta``.  Nothing restores a
missing sum: a table without one fails verification until a whole-table
rewrite replaces it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..repository.repository import WorkflowRepository
from ..workflow.serialization import workflow_from_dict, workflow_to_dict
from .inverted_index import InvertedAnnotationIndex
from .resilience import RetryPolicy, StoreVerification, run_with_retry

__all__ = ["WorkflowStore", "corpus_fingerprint"]

SCHEMA_VERSION = 2
STORE_FILENAME = "repro_store.sqlite"


def _RETRIES_COUNTER():
    return get_registry().counter(
        "repro_store_retries_total",
        "Transient 'database is locked' retries across every store.",
    )

#: Per checksummed table: its columns, in hashing order, and the text one
#: row is hashed as.  ``%r`` keeps every bit of a float score (``repr``
#: round-trips exactly); values are otherwise hashed as their text.
_TABLES = {
    "workflows": ("identifier, position, payload", "%s\x1f%s\x1f%s"),
    "pair_scores": ("config, fp_a, fp_b, score", "%s\x1f%s\x1f%s\x1f%r"),
    "postings": ("field, token, workflow_id", "%s\x1f%s\x1f%s"),
}
_SUM_MODULUS = 1 << 256
_SUM_KEY = "rowsum:{}"

T = TypeVar("T")


def _rows_sum(row_format: str, rows: Iterable[tuple]) -> int:
    """The additive hash of some rows: their sha256s summed mod ``2**256``."""
    sha256, from_bytes = hashlib.sha256, int.from_bytes
    return (
        sum(from_bytes(sha256((row_format % row).encode("utf-8")).digest(), "big") for row in rows)
        % _SUM_MODULUS
    )


def _decoded_pair_scores(
    rows: Iterable[tuple[str, str, float]],
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], float]]:
    decoded: dict[str, tuple[str, ...]] = {}
    for text_a, text_b, score in rows:
        fingerprint_a = decoded.get(text_a)
        if fingerprint_a is None:
            fingerprint_a = decoded[text_a] = tuple(json.loads(text_a))
        fingerprint_b = decoded.get(text_b)
        if fingerprint_b is None:
            fingerprint_b = decoded[text_b] = tuple(json.loads(text_b))
        yield fingerprint_a, fingerprint_b, score


def _table_sum(cursor: sqlite3.Cursor, table: str) -> int:
    """Recompute one table's additive hash from every row it holds."""
    columns, row_format = _TABLES[table]
    return _rows_sum(row_format, cursor.execute(f"SELECT {columns} FROM {table}"))


def _stored_sum(cursor: sqlite3.Cursor, table: str) -> int | None:
    """A table's checksum as stored in ``meta`` (``None`` if absent or unreadable)."""
    row = cursor.execute("SELECT value FROM meta WHERE key = ?", (_SUM_KEY.format(table),)).fetchone()
    try:
        return int(row[0], 16) if row is not None else None
    except (TypeError, ValueError):
        return None


class _Writer:
    """The row changes of one write transaction, with its running sums.

    Every row a write deletes or inserts goes through
    :meth:`delete_rows` or :meth:`insert_rows`, which adjust the table's
    additive hash by exactly those rows; :meth:`flush` stores the
    adjusted sums in the same transaction.  A table whose sum is missing
    or unreadable is left without one, so verification keeps failing it
    — only a whole-table delete, which leaves nothing unvouched for,
    starts it again from zero.
    """

    def __init__(self, cursor: sqlite3.Cursor) -> None:
        self.cursor = cursor
        self.execute = cursor.execute
        self._sums: dict[str, int | None] = {}

    def _adjust(self, table: str, delta: int) -> None:
        total = self._sums[table] if table in self._sums else _stored_sum(self.cursor, table)
        self._sums[table] = None if total is None else (total + delta) % _SUM_MODULUS

    def delete_rows(self, table: str, where: str | None = None, params: tuple = ()) -> int:
        """``DELETE FROM table [WHERE where]``, taking the deleted rows'
        hashes out of the sum; returns the rows deleted."""
        if where is None:
            self.cursor.execute(f"DELETE FROM {table}")
            self._sums[table] = 0
            return self.cursor.rowcount
        columns, row_format = _TABLES[table]
        rows = self.cursor.execute(f"SELECT {columns} FROM {table} WHERE {where}", params).fetchall()
        if rows:
            self.cursor.execute(f"DELETE FROM {table} WHERE {where}", params)
            self._adjust(table, -_rows_sum(row_format, rows))
        return len(rows)

    def insert_rows(self, table: str, rows: list[tuple]) -> int:
        """Insert rows, adding their hashes to the sum.

        A key conflict fails the transaction: silently replacing a row
        would leave its hash in the sum.
        """
        columns, row_format = _TABLES[table]
        if rows:
            marks = ", ".join("?" * len(rows[0]))
            self.cursor.executemany(f"INSERT INTO {table} ({columns}) VALUES ({marks})", rows)
            self._adjust(table, _rows_sum(row_format, rows))
        return len(rows)

    def flush(self) -> None:
        for table, total in self._sums.items():
            if total is not None:
                self.cursor.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    (_SUM_KEY.format(table), format(total, "064x")),
                )


def _workflow_payload(workflow) -> str:
    """The canonical snapshot payload of one workflow.

    ``sort_keys`` makes the byte string deterministic, which is what the
    corpus fingerprint hashes — the stored payloads and live objects
    must produce identical bytes.
    """
    return json.dumps(workflow_to_dict(workflow), sort_keys=True, separators=(",", ":"))


def _fingerprint_of_payloads(payloads: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for payload in payloads:
        digest.update(payload.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _posting_rows(workflow) -> list[tuple[str, str, str]]:
    """The ``postings`` rows of one workflow."""
    identifier = workflow.identifier
    return [
        (field, token, identifier)
        for field in InvertedAnnotationIndex.FIELDS
        for token in InvertedAnnotationIndex.workflow_tokens(field, workflow)
    ]


def _indexed(connection: "sqlite3.Connection | sqlite3.Cursor") -> bool:
    return connection.execute("SELECT 1 FROM postings LIMIT 1").fetchone() is not None


def _holds_store(connection: "sqlite3.Connection | sqlite3.Cursor") -> bool:
    """Whether the file already holds a store, of any schema version."""
    return connection.execute("SELECT 1 FROM sqlite_master WHERE name = 'meta'").fetchone() is not None


def _create_schema(writer: _Writer) -> None:
    """Initialise a new store: its tables, its version and a zero sum per table.

    Runs under the writer lock and re-checks there, so when two
    processes create one store, the second finds the first's and writes
    nothing.
    """
    if _holds_store(writer.cursor):
        return
    execute = writer.execute
    execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)")
    execute(
        "CREATE TABLE workflows"
        " (identifier TEXT PRIMARY KEY, position INTEGER NOT NULL, payload TEXT NOT NULL)"
    )
    execute(
        "CREATE TABLE pair_scores (config TEXT NOT NULL, fp_a TEXT NOT NULL,"
        " fp_b TEXT NOT NULL, score REAL NOT NULL, PRIMARY KEY (config, fp_a, fp_b))"
    )
    execute(
        "CREATE TABLE postings (field TEXT NOT NULL, token TEXT NOT NULL,"
        " workflow_id TEXT NOT NULL, PRIMARY KEY (field, token, workflow_id))"
    )
    execute("CREATE INDEX postings_by_workflow ON postings (workflow_id)")
    execute("INSERT INTO meta (key, value) VALUES ('schema_version', ?)", (str(SCHEMA_VERSION),))
    for table in _TABLES:
        writer.delete_rows(table)  # a whole-table delete starts the sum at zero


def corpus_fingerprint(repository: WorkflowRepository) -> str:
    """Order-sensitive content hash of a repository.

    Two corpora are interchangeable for similarity search only if they
    hold the same workflows *in the same iteration order* (ranking
    tie-breaks follow pool order), so the order is part of the hash.
    """
    return _fingerprint_of_payloads(_workflow_payload(workflow) for workflow in repository)


class WorkflowStore:
    """One cache directory's persistent snapshot, scores and postings."""

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        filename: str = STORE_FILENAME,
        retry: RetryPolicy | None = None,
        busy_timeout_ms: int = 5000,
        create: bool = True,
    ) -> None:
        self.directory = Path(cache_dir)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / filename
        if not create and not self.path.exists():
            raise FileNotFoundError(
                f"no store at {self.path} (run 'repro index build' to create one)"
            )
        #: Retry schedule for transient ``database is locked`` write errors.
        self.retry = retry if retry is not None else RetryPolicy()
        #: Total lock retries performed over this store's lifetime
        #: (:class:`~repro.api.results.ExecutionDiagnostics` snapshots it
        #: around each request).
        self.retry_count = 0
        #: Optional :class:`~repro.store.faults.FaultInjector` — fired at
        #: the ``"commit"`` and ``"load"`` seams; ``None`` in production.
        self.fault_injector = None
        # Registered at construction so the family shows up (at zero) on
        # a /metrics scrape even before any contention happens.
        self._retries_counter = _RETRIES_COUNTER()
        self._connection: sqlite3.Connection | None = sqlite3.connect(str(self.path))
        try:
            self._apply_pragmas(busy_timeout_ms)
            if not _holds_store(self.connection):
                self._transaction(_create_schema)
        except BaseException:
            # A malformed file must not leak an open connection — the
            # caller's next move is to quarantine (move) the file.
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def _apply_pragmas(self, busy_timeout_ms: int) -> None:
        """WAL + busy_timeout + synchronous=NORMAL.

        ``journal_mode=WAL`` lets concurrent processes read while one
        writes; filesystems that cannot do WAL report the mode they fell
        back to, which is accepted rather than fatal (the store stays
        correct, only the concurrency story degrades).
        """
        connection = self._connection
        connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")

    @property
    def connection(self) -> sqlite3.Connection:
        if self._connection is None:
            raise sqlite3.ProgrammingError("store is closed")
        return self._connection

    def _fire(self, event: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.fire(event, store=self)

    def close(self) -> None:
        """Release the connection; safe to call any number of times."""
        connection, self._connection = self._connection, None
        if connection is not None:
            connection.close()

    @property
    def closed(self) -> bool:
        return self._connection is None

    def __enter__(self) -> "WorkflowStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- transactions and checksums ------------------------------------------

    def _transaction(self, operation: Callable[[_Writer], T]) -> T:
        """Run one write operation atomically, with lock retry.

        ``BEGIN IMMEDIATE`` takes the writer lock before the operation
        reads anything, so the running checksums it adjusts (and any
        other state it reads) cannot change under it.  The operation
        body, the adjusted checksums and the commit form a single
        transaction — a reader (or a crash) sees either the old state
        with the old checksums or the new state with the new ones, never
        a torn mix.  ``database is locked``, on ``BEGIN`` or on
        ``COMMIT``, rolls back and retries under :attr:`retry`; every
        other exception rolls back in a ``finally`` and propagates, so a
        failed persist can never leave the transaction (and the file
        lock it holds) open behind it.

        Each call is one ``store.transaction`` span (lock retries are
        recorded as events on it) and every retry increments the
        process-wide ``repro_store_retries_total`` counter.
        """

        def attempt() -> T:
            connection = self.connection
            committed = False
            try:
                connection.execute("BEGIN IMMEDIATE")
                writer = _Writer(connection.cursor())
                result = operation(writer)
                writer.flush()
                self._fire("commit")
                connection.commit()
                committed = True
                return result
            finally:
                if not committed:
                    try:
                        connection.rollback()
                    except sqlite3.Error:
                        pass

        with get_tracer().span(
            "store.transaction",
            attributes={"operation": getattr(operation, "__name__", "write")},
        ) as span:

            def count_retry(attempt_number: int, error: BaseException) -> None:
                self.retry_count += 1
                self._retries_counter.inc()
                span.add_event(
                    "lock_retry", attempt=attempt_number, error=str(error)
                )

            result, retries = run_with_retry(attempt, self.retry, on_retry=count_retry)
            if retries:
                span.set_attribute("retries", retries)
        return result

    def verify(self) -> StoreVerification:
        """Check the store's integrity without modifying it.

        Four layers of checks, coarsest first: SQLite's own
        ``quick_check``, the schema version, the per-table content
        checksums, each recomputed over the whole table (detects
        torn/partial/out-of-band writes that SQLite itself considers
        well-formed), and full payload decoding (every
        snapshot row parses back into a workflow, every fingerprint
        decodes, every posting names a known index field).  Returns a
        :class:`~repro.store.resilience.StoreVerification`; per-table
        status lets recovery salvage an intact snapshot out of a store
        whose score or posting tables are damaged.  A store of another
        schema version fails the version check but still has every
        table checked, so its snapshot can be salvaged the same way; a
        table without a checksum row is never vouched for.

        The decode check reads the snapshot in pool order and keeps the
        repository it decoded on the report (a private field), so
        ``SimilarityService.open(cache_dir=...)`` decodes each row once
        per open instead of again in :meth:`load_repository`.
        """
        report = StoreVerification()
        try:
            connection = self.connection
        except sqlite3.ProgrammingError:
            report.fail("store is closed")
            return report
        try:
            (integrity,) = connection.execute("PRAGMA quick_check").fetchone()
            if integrity != "ok":
                report.fail(f"sqlite quick_check: {integrity}")
        except sqlite3.DatabaseError as error:
            report.fail(f"sqlite quick_check failed: {error}")
            for table in _TABLES:
                report.tables[table] = "unreadable"
            return report
        try:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                report.fail("meta: schema_version row missing")
            elif int(row[0]) != SCHEMA_VERSION:
                report.other_schema = int(row[0])
                report.fail(f"meta: schema version {row[0]} != {SCHEMA_VERSION}")
        except (sqlite3.DatabaseError, ValueError) as error:
            report.fail(f"meta: {error}")
        for table in _TABLES:
            report.tables[table] = "ok"
            try:
                stored = _stored_sum(connection.cursor(), table)
                actual = _table_sum(connection.cursor(), table)
            except sqlite3.DatabaseError as error:
                report.fail(f"{table}: unreadable ({error})", table=table)
                continue
            if stored is None:
                report.fail(f"{table}: checksum row missing or unreadable", table=table)
            elif stored != actual:
                report.fail(f"{table}: content checksum mismatch", table=table)
        if report.table_ok("workflows"):
            try:
                workflows = []
                for (identifier, payload) in connection.execute(
                    "SELECT identifier, payload FROM workflows ORDER BY position"
                ):
                    workflow = workflow_from_dict(json.loads(payload))
                    if workflow.identifier != identifier:
                        raise ValueError(
                            f"row {identifier!r} decodes to {workflow.identifier!r}"
                        )
                    workflows.append(workflow)
                name = self._repository_name()
            except Exception as error:
                report.fail(f"workflows: undecodable payload ({error})", table="workflows")
            else:
                if workflows:
                    report._snapshot = WorkflowRepository(workflows, name=name)
        if report.table_ok("pair_scores"):
            try:
                # Few distinct fingerprints recur across many rows: each
                # distinct text is decoded once.
                decoded: set[str] = set()
                for row in connection.execute("SELECT fp_a, fp_b FROM pair_scores"):
                    for fingerprint in row:
                        if fingerprint in decoded:
                            continue
                        if not isinstance(json.loads(fingerprint), list):
                            raise ValueError("fingerprint is not a JSON list")
                        decoded.add(fingerprint)
            except Exception as error:
                report.fail(f"pair_scores: undecodable fingerprint ({error})", table="pair_scores")
        if report.table_ok("postings"):
            try:
                known = set(InvertedAnnotationIndex.FIELDS)
                for (field,) in connection.execute("SELECT DISTINCT field FROM postings"):
                    if field not in known:
                        raise ValueError(f"unknown index field {field!r}")
            except Exception as error:
                report.fail(f"postings: {error}", table="postings")
        return report

    # -- atomic full rewrite -------------------------------------------------

    @classmethod
    def rebuild(
        cls,
        cache_dir: str | Path,
        repository: WorkflowRepository,
        *,
        retry: RetryPolicy | None = None,
    ) -> "WorkflowStore":
        """Write a brand-new store and atomically replace any existing one.

        The full rewrite goes write-then-rename: the snapshot and its
        postings are committed into a sibling temp file, fully
        checkpointed and closed, then ``os.replace``d over the final
        path — a crash at any point leaves either the complete old store
        or the complete new one, never a half-written file.  Returns an
        open store on the final path.
        """
        directory = Path(cache_dir)
        directory.mkdir(parents=True, exist_ok=True)
        final_path = directory / STORE_FILENAME
        temp_name = f"{STORE_FILENAME}.rebuild-{os.getpid()}"
        temp_path = directory / temp_name
        for stale in (
            temp_path,
            directory / f"{temp_name}-wal",
            directory / f"{temp_name}-shm",
        ):
            if stale.exists():
                stale.unlink()
        fresh = cls(directory, filename=temp_name, retry=retry)
        try:
            fresh.save_repository(repository, postings=True)
        finally:
            fresh.close()  # checkpoints the WAL into the temp file
        os.replace(temp_path, final_path)
        for sidecar in (directory / f"{STORE_FILENAME}-wal", directory / f"{STORE_FILENAME}-shm"):
            if sidecar.exists():
                sidecar.unlink()
        return cls(directory, retry=retry)

    # -- repository snapshot -------------------------------------------------

    def has_snapshot(self) -> bool:
        row = self.connection.execute("SELECT EXISTS(SELECT 1 FROM workflows)").fetchone()
        return bool(row[0])

    def save_repository(self, repository: WorkflowRepository, *, postings: bool = False) -> int:
        """Replace the snapshot with the current corpus; returns its size.

        One transaction: rows, repository name, the postings and the
        checksums land together or not at all.  The postings are
        rewritten for the new snapshot when ``postings`` is true or the
        store is already indexed; otherwise the table stays empty.
        """
        rows = [
            (workflow.identifier, position, _workflow_payload(workflow))
            for position, workflow in enumerate(repository)
        ]

        def operation(writer: _Writer) -> int:
            indexed = postings or _indexed(writer.cursor)
            writer.delete_rows("workflows")
            writer.insert_rows("workflows", rows)
            writer.delete_rows("postings")
            if indexed:
                writer.insert_rows(
                    "postings", [row for workflow in repository for row in _posting_rows(workflow)]
                )
            writer.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('repository_name', ?)",
                (repository.name,),
            )
            return len(rows)

        return self._transaction(operation)

    def load_repository(self) -> WorkflowRepository | None:
        """Rebuild the snapshot corpus in its original iteration order."""
        self._fire("load")
        rows = self.connection.execute(
            "SELECT payload FROM workflows ORDER BY position"
        ).fetchall()
        if not rows:
            return None
        return WorkflowRepository.from_dicts(
            (json.loads(payload) for (payload,) in rows), name=self._repository_name()
        )

    def _repository_name(self) -> str:
        row = self.connection.execute(
            "SELECT value FROM meta WHERE key = 'repository_name'"
        ).fetchone()
        return row[0] if row else "repository"

    def fingerprint(self) -> str | None:
        """The snapshot's corpus fingerprint (``None`` without a snapshot).

        Always derived from the stored payloads, so it can never go
        stale under incremental :meth:`add_workflow` /
        :meth:`remove_workflow` churn.
        """
        rows = self.connection.execute(
            "SELECT payload FROM workflows ORDER BY position"
        ).fetchall()
        if not rows:
            return None
        return _fingerprint_of_payloads(payload for (payload,) in rows)

    def add_workflow(self, workflow) -> None:
        """Upsert one snapshot row (appended at the end of the pool order).

        In an indexed store the workflow's posting rows are refreshed in
        the same transaction, so the stored postings can never drift from
        the stored corpus.
        """
        identifier = workflow.identifier
        payload = _workflow_payload(workflow)
        posting_rows = _posting_rows(workflow)

        def operation(writer: _Writer) -> None:
            indexed = _indexed(writer.cursor)
            (last,) = writer.execute("SELECT COALESCE(MAX(position), -1) FROM workflows").fetchone()
            writer.delete_rows("workflows", "identifier = ?", (identifier,))
            writer.insert_rows("workflows", [(identifier, last + 1, payload)])
            writer.delete_rows("postings", "workflow_id = ?", (identifier,))
            if indexed:
                writer.insert_rows("postings", posting_rows)

        self._transaction(operation)

    def remove_workflow(self, identifier: str) -> bool:
        """Delete one snapshot row and its postings; returns whether it existed.

        Pair scores are deliberately untouched — value-keyed entries
        remain exact for every workflow still in (or later added to)
        the corpus.
        """

        def operation(writer: _Writer) -> bool:
            existed = writer.delete_rows("workflows", "identifier = ?", (identifier,)) > 0
            writer.delete_rows("postings", "workflow_id = ?", (identifier,))
            return existed

        return self._transaction(operation)

    # -- module-pair scores --------------------------------------------------

    def save_pair_scores(
        self,
        config_signature: str,
        entries: Iterable[tuple[tuple[str, ...], tuple[str, ...], float]],
    ) -> int:
        """Upsert the scores of one configuration; returns the rows written.

        A key given twice keeps its last score.  Rows the upsert replaces
        are deleted through :meth:`_Writer.delete_rows`, so their hashes
        leave the table's checksum with them.
        """
        # ``+ 0.0`` stores -0.0 as 0.0, which SQLite would do anyway; the
        # checksum must hash the score that is read back.
        scores = {
            (config_signature, json.dumps(list(fp_a)), json.dumps(list(fp_b))): float(score) + 0.0
            for fp_a, fp_b, score in entries
        }
        rows = [(*key, score) for key, score in scores.items()]

        def operation(writer: _Writer) -> int:
            for key in scores:
                writer.delete_rows("pair_scores", "config = ? AND fp_a = ? AND fp_b = ?", key)
            return writer.insert_rows("pair_scores", rows)

        return self._transaction(operation)

    def load_pair_scores(
        self, config_signature: str
    ) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], float]]:
        """Every persisted score of one configuration, streamed from the cursor.

        The query runs at once; the rows are read as the caller iterates,
        so a fault can surface there too.  Each distinct fingerprint
        text is decoded once, and its rows share the one tuple.
        """
        self._fire("load")
        rows = self.connection.execute(
            "SELECT fp_a, fp_b, score FROM pair_scores WHERE config = ?",
            (config_signature,),
        )
        return _decoded_pair_scores(rows)

    def pair_score_count(self) -> int:
        return self.connection.execute("SELECT COUNT(*) FROM pair_scores").fetchone()[0]

    # -- postings ------------------------------------------------------------

    def has_postings(self) -> bool:
        """Whether the store is indexed (the SQL-admission gate)."""
        return _indexed(self.connection)

    def index_stats(self) -> dict[str, int]:
        """Snapshot size and the distinct tokens and rows per postings field."""
        connection = self.connection
        counters = {"documents": connection.execute("SELECT COUNT(*) FROM workflows").fetchone()[0]}
        counts = {
            field: (tokens, rows)
            for field, tokens, rows in connection.execute(
                "SELECT field, COUNT(DISTINCT token), COUNT(*) FROM postings GROUP BY field"
            )
        }
        for field in InvertedAnnotationIndex.FIELDS:
            counters[f"{field}_tokens"], counters[f"{field}_postings"] = counts.get(field, (0, 0))
        counters["postings"] = sum(rows for _tokens, rows in counts.values())
        return counters

    # -- diagnostics ---------------------------------------------------------

    def stats(self) -> dict[str, int | str]:
        """Row counts of every table (for ``repro index stats``)."""
        connection = self.connection
        name_row = connection.execute(
            "SELECT value FROM meta WHERE key = 'repository_name'"
        ).fetchone()
        configs = connection.execute(
            "SELECT COUNT(DISTINCT config) FROM pair_scores"
        ).fetchone()[0]
        journal_mode = connection.execute("PRAGMA journal_mode").fetchone()[0]
        return {
            "path": str(self.path),
            "repository_name": name_row[0] if name_row else "",
            "journal_mode": str(journal_mode),
            "workflows": connection.execute("SELECT COUNT(*) FROM workflows").fetchone()[0],
            "pair_scores": self.pair_score_count(),
            "pair_score_configs": configs,
            "postings": connection.execute("SELECT COUNT(*) FROM postings").fetchone()[0],
            "retries": self.retry_count,
        }
