"""In-database candidate admission (SQL pushdown).

The ``BW``/``BT`` admission bound of :mod:`repro.perf.bounds` certifies
that every candidate outside a postings union scores exactly ``0.0``.
The store already persists those postings (the ``postings`` table), so
the union runs *inside* SQLite: the bound describes each query as a
declarative :class:`~repro.perf.bounds.SqlAdmissionPlan` and
:class:`SqlAdmissionPlanner` resolves it with indexed token lookups on
the ``postings (field, token, workflow_id)`` primary-key B-tree,
letting SQLite perform the union/distinct set algebra and returning only
the surviving candidate ids.  Python never holds more than the admitted
id set.

**Bit-identity contract.**  A plan matches the query's token set —
tokenised by :meth:`InvertedAnnotationIndex.workflow_tokens
<repro.store.inverted_index.InvertedAnnotationIndex.workflow_tokens>`,
the same function that wrote the rows — against the rows of the bound's
field.  The service's equivalence tests pin SQL-admitted results
bit-identical to the sequential seed path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..perf.bounds import SqlAdmissionPlan

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
    """Executes :class:`SqlAdmissionPlan`s against a :class:`WorkflowStore`.

    Stateless beyond the store handle — safe to construct per request.
    Read-only: every query rides the store's open connection and fires
    its ``load`` fault seam, so chaos tests cover this tier like any
    other store read.
    """

    def __init__(self, store: "WorkflowStore") -> None:
        self.store = store

    def admitted(self, plan: SqlAdmissionPlan) -> set[str]:
        """The admitted candidate ids of one plan (set algebra in SQL)."""
        self.store._fire("load")
        connection = self.store.connection
        admitted: set[str] = set()
        for batch in _chunks(sorted(plan.tokens)):
            placeholders = ",".join("?" for _ in batch)
            rows = connection.execute(
                "SELECT DISTINCT workflow_id FROM postings"
                f" WHERE field = ? AND token IN ({placeholders})",
                (plan.field, *batch),
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
