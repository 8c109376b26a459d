"""``BW``/``BT`` admission and ranking inside SQLite (SQL pushdown).

For the bag-overlap measures (``BW``/``BT``) a candidate scores above
0.0 iff it shares a token with the query, so the union of the query
tokens' postings holds every such candidate.  The store persists those
postings (the ``postings`` table, primary key ``(field, token,
workflow_id)``), so both the union and the ranking run *inside* SQLite:

* :meth:`SqlAdmissionPlanner.top_k` answers one query.  A ``GROUP BY``
  over the query tokens' postings counts each admitted workflow's shared
  tokens ``m``; a join with the store's per-connection token counts
  (:meth:`WorkflowStore.ensure_token_counts
  <repro.store.workflow_store.WorkflowStore.ensure_token_counts>`)
  supplies its token count ``n`` and snapshot position.  The score is
  ``(m * 1.0) / (|A| + n - m)``, which is
  :func:`~repro.core.annotations.bag_overlap_similarity`'s
  ``matches / (matches + mismatches)``: both are one correctly rounded
  IEEE division of the same two small integers, so the floats are equal
  bit for bit.  ``ORDER BY score DESC, position`` is the sequential
  ranking's order (descending score, ties in pool order) and ``LIMIT k``
  keeps its head.  Python scores no candidate.
* :meth:`SqlAdmissionPlanner.admitted` returns the admitted ids alone
  (the admission bound, which the tests check against the measures).

The query's tokens travel as rows of a temporary table
(:meth:`WorkflowStore.select_with_tokens
<repro.store.workflow_store.WorkflowStore.select_with_tokens>`), not as
host parameters, so a query of any length is one statement.

**Bit-identity contract.**  The caller tokenises the query with
:meth:`InvertedAnnotationIndex.workflow_tokens
<repro.store.inverted_index.InvertedAnnotationIndex.workflow_tokens>`,
the same function that wrote the rows, and names the field of the
measure's bound (:attr:`repro.perf.bounds.CertifiedBound.postings`),
which is set only for the configurations that function replays.  Every
candidate outside the admitted ids scores exactly 0.0, so the caller
pads a short answer with them in pool order; the service's equivalence
tests pin the result bit-identical to the sequential seed path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, AbstractSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .workflow_store import WorkflowStore

__all__ = ["SqlAdmissionPlanner"]

#: The ids of one field's postings that hold any of the query's tokens.
_ADMITTED = (
    "SELECT DISTINCT workflow_id FROM postings WHERE field = ? AND token IN temp.query_tokens"
)

#: One query's best ``k`` admitted workflows, the query excluded: id,
#: score, and how many were admitted in all.
_TOP_K = (
    "SELECT c.workflow_id, (m.shared * 1.0) / (? + c.n - m.shared) AS score,"
    " COUNT(*) OVER () AS admitted"
    " FROM (SELECT workflow_id, COUNT(*) AS shared FROM postings"
    " WHERE field = ? AND token IN temp.query_tokens"
    " GROUP BY workflow_id) AS m"
    " JOIN temp.token_counts AS c ON c.workflow_id = m.workflow_id AND c.field = ?"
    " WHERE m.workflow_id <> ?"
    " ORDER BY score DESC, c.position"
    " LIMIT ?"
)


class SqlAdmissionPlanner:
    """Resolves postings unions and rankings against a :class:`WorkflowStore`.

    Stateless beyond the store handle — safe to construct per request.
    Every statement rides the store's open connection and fires its
    ``load`` fault seam first, so chaos tests cover this tier like any
    other store read.
    """

    def __init__(self, store: "WorkflowStore") -> None:
        self.store = store

    def admitted(self, field: str, tokens: AbstractSet[str]) -> set[str]:
        """The ids of the workflows holding any of ``tokens`` under ``field``
        (set algebra in SQL)."""
        self.store._fire("load")
        rows = self.store.select_with_tokens(_ADMITTED, tokens, (field,))
        return {identifier for (identifier,) in rows}

    def top_k(
        self, field: str, tokens: AbstractSet[str], *, exclude: str, k: int
    ) -> tuple[list[tuple[str, float]], int]:
        """The ``k`` best-scoring admitted workflows and the admitted count.

        ``tokens`` is the query's token set under ``field`` and
        ``exclude`` the query's id.  Returns ``(identifier, score)``
        pairs in ranking order (descending score, then snapshot
        position) and the number of workflows other than ``exclude``
        that share a token with the query.  Builds the connection's
        token counts on first use.
        """
        self.store._fire("load")
        self.store.ensure_token_counts()
        rows = self.store.select_with_tokens(
            _TOP_K, tokens, (len(tokens), field, field, exclude, k)
        )
        admitted = rows[0][2] if rows else 0
        return [(identifier, score) for identifier, score, _admitted in rows], admitted

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
