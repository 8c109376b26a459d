"""In-database candidate admission (SQL pushdown).

For the bag-overlap measures (``BW``/``BT``) a candidate scores above
0.0 iff it shares a token with the query, so the union of the query
tokens' postings holds every such candidate.  The store already
persists those postings (the ``postings`` table), so the union runs
*inside* SQLite: :meth:`SqlAdmissionPlanner.admitted` resolves one
``(field, tokens)`` pair with indexed token lookups on the
``postings (field, token, workflow_id)`` primary-key B-tree, letting
SQLite perform the union/distinct set algebra and returning only the
surviving candidate ids.  Python never holds more than the admitted id
set.

**Bit-identity contract.**  The caller tokenises the query with
:meth:`InvertedAnnotationIndex.workflow_tokens
<repro.store.inverted_index.InvertedAnnotationIndex.workflow_tokens>`,
the same function that wrote the rows, and names the field of the
measure's bound (:attr:`repro.perf.bounds.CertifiedBound.postings`).
The top-k kernel then bounds every candidate outside the admitted ids
by 0.0; the service's equivalence tests pin SQL-admitted results
bit-identical to the sequential seed path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workflow_store import WorkflowStore

__all__ = ["SqlAdmissionPlanner"]

#: Tokens per ``IN (...)`` batch — comfortably under SQLite's default
#: 999-host-parameter limit while keeping the statement count low.
_IN_BATCH = 400


def _chunks(values: Sequence[str], size: int = _IN_BATCH) -> Iterable[Sequence[str]]:
    for start in range(0, len(values), size):
        yield values[start : start + size]


class SqlAdmissionPlanner:
    """Resolves postings unions against a :class:`WorkflowStore`.

    Stateless beyond the store handle — safe to construct per request.
    Read-only: every query rides the store's open connection and fires
    its ``load`` fault seam, so chaos tests cover this tier like any
    other store read.
    """

    def __init__(self, store: "WorkflowStore") -> None:
        self.store = store

    def admitted(self, field: str, tokens: AbstractSet[str]) -> set[str]:
        """The ids of the workflows holding any of ``tokens`` under ``field``
        (set algebra in SQL)."""
        self.store._fire("load")
        connection = self.store.connection
        admitted: set[str] = set()
        for batch in _chunks(sorted(tokens)):
            placeholders = ",".join("?" for _ in batch)
            rows = connection.execute(
                "SELECT DISTINCT workflow_id FROM postings"
                f" WHERE field = ? AND token IN ({placeholders})",
                (field, *batch),
            )
            admitted.update(row[0] for row in rows)
        return admitted

    def stats(self) -> dict[str, int | str | bool]:
        """SQL-tier readiness report (for ``repro index stats``)."""
        indexes = sorted(
            row[0]
            for row in self.store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND name NOT LIKE 'sqlite_%'"
            )
        )
        return {
            "annotation_ready": self.store.has_postings(),
            "indexes": ",".join(indexes),
        }
