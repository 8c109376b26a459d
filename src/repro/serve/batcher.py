"""Cross-request micro-batching on one search lane per tenant.

The engine is already cross-query: one
:meth:`~repro.api.SimilarityService.search` call over many queries
amortizes workflow profiles and value-keyed module-pair scores across
all of them.  The micro-batcher extends that amortization across
*requests* without ever making one wait for a timer.  Each tenant has
one search lane that runs at most one engine batch at a time.  A
foldable search arriving at an idle lane is dispatched at once.
Searches admitted while the lane's batch runs queue by fold key —
measure spec, ``k`` and execution policy — and when the batch finishes
the lane runs the oldest queued fold next, as one engine batch.  Folds
therefore form only while the tenant thread is busy, and a fold never
holds more than the tenant's admission cap.  Requests with different
measure specs (or explicit candidate restrictions) never share a batch.

**Bit-identity pin.**  Folding is safe because the engine computes every
query of a batch independently — shared caches are value-keyed and
deterministic, so a query's hits, scores, ranks and tie-breaks do not
depend on which other queries ride in the same batch.  The serve tests
and the load benchmark's equivalence gate both assert that a folded
answer equals the same request issued alone, bit for bit.

Each folded response carries the folded execution's diagnostics plus a
note recording the fold, so callers can see their request was batched
(`ResultSet` equality ignores diagnostics, keeping the pin assertable).
"""

from __future__ import annotations

import asyncio
import contextvars
from dataclasses import replace
from typing import TYPE_CHECKING

from ..api import ExecutionDiagnostics, ResultSet, SearchRequest
from ..obs.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import ServingMetrics
    from .tenants import TenantRuntime

__all__ = ["MicroBatcher", "fold_key", "is_foldable", "fold_search_requests"]


def is_foldable(request: SearchRequest) -> bool:
    """Whether a search request may share an engine batch.

    Candidate-restricted searches keep their own execution: folding them
    would need per-query candidate plumbing the engine batch does not
    have, and they are rare enough not to matter for amortization.
    """
    return request.candidates is None


def fold_key(request: SearchRequest) -> tuple:
    """Requests fold only when this key matches exactly.

    The key covers everything that shapes execution: the measure spec,
    ``k``, and the full execution policy (mode, workers, prune,
    preselect, retry knobs).  Two requests under different measure specs
    therefore *never* fold — the engine batch call takes one measure.
    """
    policy = tuple(sorted(request.policy.to_dict().items()))
    return (request.measure.name, request.k, policy)


def fold_search_requests(requests: "list[SearchRequest]") -> SearchRequest:
    """One engine batch request covering every request of the fold.

    If any member asks for *all* queries (``queries=None``) the fold
    does too; otherwise the folded query list is the deduplicated
    concatenation in arrival order, so each unique query is computed
    exactly once per batch.
    """
    if any(request.queries is None for request in requests):
        queries = None
    else:
        seen: dict[str, None] = {}
        for request in requests:
            for query in request.queries:
                seen.setdefault(query)
        queries = tuple(seen)
    return replace(requests[0], queries=queries)


class _Lane:
    """One tenant's busy search lane and the folds queued behind it."""

    __slots__ = ("runtime", "queued", "task")

    def __init__(self, runtime: "TenantRuntime") -> None:
        self.runtime = runtime
        # fold key -> [(request, future, request span, request context)],
        # in the order each key's oldest waiting request arrived.  Span
        # and context are captured at submit time, while the submitting
        # task's context is current.
        self.queued: dict[tuple, list] = {}
        # The event loop keeps only a weak reference to a running task.
        self.task: "asyncio.Task | None" = None


class MicroBatcher:
    """Folds same-key searches that queue behind a tenant's busy lane."""

    def __init__(self, *, metrics: "ServingMetrics") -> None:
        self.metrics = metrics
        # Only busy lanes are kept: a lane is dropped the moment it has
        # nothing left to run, so an absent lane is an idle one.
        self._lanes: "dict[TenantRuntime, _Lane]" = {}

    async def submit(self, runtime: "TenantRuntime", request: SearchRequest) -> ResultSet:
        """Queue a request on its tenant's lane; await its own ResultSet."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        lane = self._lanes.get(runtime)
        if lane is None:
            lane = self._lanes[runtime] = _Lane(runtime)
            lane.task = loop.create_task(self._drain(lane))
        lane.queued.setdefault(fold_key(request), []).append(
            (request, future, get_tracer().current_span(), contextvars.copy_context())
        )
        return await future

    async def _drain(self, lane: _Lane) -> None:
        """Run the lane's oldest queued fold until none is left.

        The lane's own task inherited the context of the request that
        opened the lane, which may have been answered long ago.  Each fold
        therefore runs as its own task in its oldest request's context, so
        the spans it opens, and any other context variable it reads,
        belong to a request of that fold.  ``context.run(create_task)``
        rather than ``create_task(context=)`` keeps Python 3.10 working.
        """
        loop = asyncio.get_running_loop()
        try:
            while lane.queued:
                entries = lane.queued.pop(next(iter(lane.queued)))
                fold = self._run_fold(lane.runtime, entries)
                await entries[0][3].run(loop.create_task, fold)
        finally:
            del self._lanes[lane.runtime]

    async def _run_fold(self, runtime: "TenantRuntime", entries: list) -> None:
        futures = [future for _request, future, *_ in entries]
        try:
            results = await self._execute(runtime, entries)
        except Exception as error:  # fails this fold only; the lane moves on
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)

    async def _execute(self, runtime: "TenantRuntime", entries: list) -> "list[ResultSet]":
        requests = [request for request, *_ in entries]
        folded = fold_search_requests(requests)
        service = runtime.service
        # One batch span fans in the fold: parented to the oldest request,
        # *linked* to every folded request's span, so each of the N
        # requests' traces resolves this shared subtree.
        parents = [span for _r, _f, span, _c in entries if span is not None]
        with get_tracer().span(
            "batch.fold",
            parent=parents[0] if parents else None,
            links=tuple(parents),
            attributes={"tenant": runtime.name, "folded_requests": len(entries)},
        ) as batch_span:
            folded_set: ResultSet = await runtime.run(lambda: service.search(folded))
            batch_span.set_attribute("unique_queries", len(folded_set.queries))
        unique_queries = len(folded_set.queries)
        self.metrics.tenant(runtime.name).record_batch(len(entries), unique_queries)
        by_id = {result.query_id: result for result in folded_set.queries}
        results = []
        for request, _future, span, _context in entries:
            if request.queries is None:
                # The fold ran with queries=None too, so the folded
                # payload is exactly this request's repository-order answer.
                per_request = folded_set.queries
            else:
                per_request = tuple(by_id[query] for query in request.queries)
            results.append(
                ResultSet(
                    kind="search",
                    queries=per_request,
                    diagnostics=self._request_diagnostics(
                        folded_set,
                        len(entries),
                        unique_queries,
                        span.trace_id if span is not None else None,
                    ),
                )
            )
        return results

    @staticmethod
    def _request_diagnostics(
        folded_set: ResultSet,
        fold_size: int,
        unique_queries: int,
        trace_id: "str | None",
    ) -> ExecutionDiagnostics | None:
        if folded_set.diagnostics is None:
            return None
        # Each response gets its own copy (handlers must not share one
        # mutable diagnostics object across requests).
        diagnostics = ExecutionDiagnostics.from_dict(folded_set.diagnostics.to_dict())
        if trace_id is not None:
            # The folded execution recorded under the batch's own trace;
            # each response points at *its request's* trace, which the
            # batch span links back into.
            diagnostics.trace_id = trace_id
        if fold_size > 1:
            diagnostics.notes = diagnostics.notes + (
                f"micro-batched: folded {fold_size} requests "
                f"({unique_queries} unique queries) into one engine batch",
            )
        return diagnostics
