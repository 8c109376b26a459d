"""Unified responses of the public API.

Every service operation — search, pairwise scoring, clustering — answers
with a :class:`ResultSet` that carries the scores/ranks payload *and*
the execution story: which path actually ran (sequential, pruned,
cached, parallel), how long it took, and the prune/cache statistics of
the acceleration layer.

Equality deliberately covers only the payload: two ``ResultSet``s are
``==`` when their hits, scores, ranks, pairs and clusters match bit for
bit, regardless of which execution path produced them or how long it
took.  This is what lets the equivalence tests state the service's core
contract — *every policy returns the same ResultSet* — as a plain
assertion.  Serialization (``to_json``/``from_json``) round-trips the
diagnostics too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "SearchHit",
    "QueryResult",
    "ExecutionDiagnostics",
    "ResultSet",
]


@dataclass(frozen=True)
class SearchHit:
    """One ranked hit of a similarity search."""

    workflow_id: str
    similarity: float
    rank: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "workflow_id": self.workflow_id,
            "similarity": self.similarity,
            "rank": self.rank,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchHit":
        return cls(
            workflow_id=str(data["workflow_id"]),
            similarity=float(data["similarity"]),
            rank=int(data["rank"]),
        )


@dataclass(frozen=True)
class QueryResult:
    """The ranked hits of one query under one measure."""

    query_id: str
    measure: str
    hits: tuple[SearchHit, ...]

    def identifiers(self) -> list[str]:
        return [hit.workflow_id for hit in self.hits]

    def similarity_of(self, workflow_id: str) -> float | None:
        for hit in self.hits:
            if hit.workflow_id == workflow_id:
                return hit.similarity
        return None

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[SearchHit]:
        return iter(self.hits)

    def to_dict(self) -> dict[str, Any]:
        return {
            "query_id": self.query_id,
            "measure": self.measure,
            "hits": [hit.to_dict() for hit in self.hits],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResult":
        return cls(
            query_id=str(data["query_id"]),
            measure=str(data["measure"]),
            hits=tuple(SearchHit.from_dict(entry) for entry in data.get("hits", [])),
        )


@dataclass
class ExecutionDiagnostics:
    """How a request was executed (never part of result equality).

    ``path`` is the path that actually ran: ``"sequential"`` (reference
    per-query scan), ``"pruned"`` (frontier-pruned top-k), ``"cached"``
    (accelerated full scan), ``"sql-indexed"`` (candidate preselection
    over the store's token postings, ``BW``/``BT`` searches only), or
    ``"parallel"`` (process pool, taken under ``auto`` when the policy
    grants more than one worker).  Pairwise and cluster requests run
    ``"parallel"``, ``"cached"`` or ``"sequential"``.  ``requested_mode``
    echoes the policy's mode, ``"auto"`` or ``"sequential"``; when a
    policy's workers could not be used, ``notes`` says why (e.g. the
    request was not pool-eligible or no pool could be created).

    ``prune`` carries the top-k counters
    (:class:`~repro.perf.engine.PruneStats`, summed over the queries) on
    the ``pruned``, ``cached`` and ``sql-indexed`` paths.  On
    ``sql-indexed`` SQLite scores every admitted candidate, so
    ``exact_comparisons`` equals ``index_candidates``; the other
    candidates (``corpus - 1`` per query in all) score exactly 0.0 and
    count as pruned under the bound's name.
    ``index_candidates`` counts the candidates admitted by the store's
    postings across the request's queries (``None`` off the
    ``sql-indexed`` path); on a preselected search it is at most
    ``queries × (corpus - 1)``.
    ``cache_warm_hits`` counts pair-score lookups served from entries
    loaded out of a persistent :class:`~repro.store.WorkflowStore`
    during *this* request — a warm-started service shows a positive
    number where a cold one recomputes.  A frontier bound looks each
    distinct module pair up once per query, however many candidates
    repeat it.

    ``trace_id`` correlates this execution with the tracing layer: when
    a recording :class:`~repro.obs.tracing.Tracer` is installed, it is
    the id of the trace whose span tree contains this request's service
    and engine spans (``Tracer.export_trace(trace_id)``; also the
    ``X-Trace-Id`` response header of the serving layer).  ``None`` when
    tracing is disabled — and, like every diagnostics field, never part
    of result equality.

    Three fields tell the resilience story.  ``degraded`` is ``True``
    when any acceleration tier (store warm-start, SQL admission,
    process pool) faulted during the request and the service fell back
    down the ladder — the *answer is still exact* (every fallback tier
    is bit-identical to the sequential seed path), only slower.
    ``degradation_reason`` names the first fault that forced the
    fallback (including store quarantines that happened while serving
    this request); ``retry_attempts`` counts the transient
    ``database is locked`` retries the attached store performed for
    this request under its :class:`~repro.store.resilience.RetryPolicy`.
    """

    path: str
    requested_mode: str
    seconds: float = 0.0
    workers: int | None = None
    prune: dict[str, int] | None = None
    caches: list[dict[str, Any]] = field(default_factory=list)
    index_candidates: int | None = None
    cache_warm_hits: int | None = None
    degraded: bool = False
    degradation_reason: str | None = None
    retry_attempts: int = 0
    notes: tuple[str, ...] = ()
    trace_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "requested_mode": self.requested_mode,
            "seconds": self.seconds,
            "workers": self.workers,
            "prune": dict(self.prune) if self.prune is not None else None,
            "caches": [dict(entry) for entry in self.caches],
            "index_candidates": self.index_candidates,
            "cache_warm_hits": self.cache_warm_hits,
            "degraded": self.degraded,
            "degradation_reason": self.degradation_reason,
            "retry_attempts": self.retry_attempts,
            "notes": list(self.notes),
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionDiagnostics":
        index_candidates = data.get("index_candidates")
        cache_warm_hits = data.get("cache_warm_hits")
        reason = data.get("degradation_reason")
        return cls(
            path=str(data.get("path", "unknown")),
            requested_mode=str(data.get("requested_mode", "auto")),
            seconds=float(data.get("seconds", 0.0)),
            workers=data.get("workers"),
            prune=_normalized_counters(data.get("prune")),
            caches=[dict(entry) for entry in data.get("caches", [])],
            index_candidates=int(index_candidates) if index_candidates is not None else None,
            cache_warm_hits=int(cache_warm_hits) if cache_warm_hits is not None else None,
            degraded=bool(data.get("degraded", False)),
            degradation_reason=str(reason) if reason is not None else None,
            retry_attempts=int(data.get("retry_attempts", 0)),
            notes=tuple(data.get("notes", ())),
            trace_id=(
                str(data["trace_id"]) if data.get("trace_id") is not None else None
            ),
        )


def _normalized_counters(data: "Mapping[str, Any] | None") -> dict[str, Any] | None:
    """A fresh dict with int-coerced counters (JSON round-trip exactness).

    The serving layer ships diagnostics over the wire and back; the
    prune section nests per-bound counters (``pruned_by_bound``), so the
    copy recurses one level and coerces leaf counts back to ``int`` —
    ``from_dict(to_dict())`` must compare equal field for field.
    """
    if data is None:
        return None
    normalized: dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, Mapping):
            normalized[str(key)] = {str(k): int(v) for k, v in value.items()}
        else:
            normalized[str(key)] = int(value)
    return normalized


@dataclass(frozen=True)
class ResultSet:
    """The unified response of every service operation.

    Exactly one payload family is populated, selected by ``kind``:

    * ``"search"`` — ``queries``: one :class:`QueryResult` per query, in
      request order;
    * ``"pairwise"`` — ``pairs``: ``(first_id, second_id, similarity)``
      triples in deterministic ``(earlier, later)`` pool order;
    * ``"cluster"`` — ``clusters``: tuples of workflow identifiers
      (members sorted), largest cluster first.

    ``diagnostics`` is excluded from equality and ordering; see the
    module docstring.
    """

    kind: str
    queries: tuple[QueryResult, ...] = ()
    pairs: tuple[tuple[str, str, float], ...] = ()
    clusters: tuple[tuple[str, ...], ...] = ()
    diagnostics: ExecutionDiagnostics | None = field(default=None, compare=False)

    # -- search accessors ----------------------------------------------------

    def __len__(self) -> int:
        if self.kind == "pairwise":
            return len(self.pairs)
        if self.kind == "cluster":
            return len(self.clusters)
        return len(self.queries)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.queries)

    def for_query(self, query_id: str) -> QueryResult:
        for result in self.queries:
            if result.query_id == query_id:
                return result
        raise KeyError(f"no result for query {query_id!r}")

    def result_tuples(self) -> list[list[tuple[str, float, int]]]:
        """The search payload as plain tuples (equivalence-test fodder)."""
        return [
            [(hit.workflow_id, hit.similarity, hit.rank) for hit in result.hits]
            for result in self.queries
        ]

    def pair_scores(self) -> dict[tuple[str, str], float]:
        """The pairwise payload as the classic ``{(a, b): score}`` mapping."""
        return {(first, second): value for first, second, value in self.pairs}

    def cluster_sets(self) -> list[set[str]]:
        """The cluster payload as the classic list-of-sets shape."""
        return [set(cluster) for cluster in self.clusters]

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"kind": self.kind}
        if self.kind == "search":
            payload["queries"] = [result.to_dict() for result in self.queries]
        elif self.kind == "pairwise":
            payload["pairs"] = [list(pair) for pair in self.pairs]
        elif self.kind == "cluster":
            payload["clusters"] = [list(cluster) for cluster in self.clusters]
        payload["diagnostics"] = (
            self.diagnostics.to_dict() if self.diagnostics is not None else None
        )
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        diagnostics_data = data.get("diagnostics")
        return cls(
            kind=str(data["kind"]),
            queries=tuple(
                QueryResult.from_dict(entry) for entry in data.get("queries", [])
            ),
            pairs=tuple(
                (str(first), str(second), float(value))
                for first, second, value in data.get("pairs", [])
            ),
            clusters=tuple(
                tuple(str(member) for member in cluster)
                for cluster in data.get("clusters", [])
            ),
            diagnostics=(
                ExecutionDiagnostics.from_dict(diagnostics_data)
                if diagnostics_data is not None
                else None
            ),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "ResultSet":
        return cls.from_dict(json.loads(payload))
