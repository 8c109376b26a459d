"""Similarity search over a workflow repository.

The retrieval use case of the paper (Section 5.2): given a query
workflow, return the top-k most similar workflows from the whole
repository under a configurable similarity measure.  The engine wraps a
:class:`~repro.core.framework.SimilarityFramework`, adds result objects
that remember scores and ranks, and supports searching under several
measures at once (the paper merges the top-10 lists of all evaluated
algorithms to build its second rating corpus).

Two execution paths coexist:

* :meth:`SimilaritySearchEngine.search` — the straightforward sequential
  scan, kept as the reference ("seed") implementation that the
  equivalence tests and ``benchmarks/bench_perf_search.py`` compare
  against.
* :meth:`SimilaritySearchEngine.search_batch` /
  :meth:`SimilaritySearchEngine.pairwise_similarity` — the
  repository-scale batch paths built on :mod:`repro.perf`: precomputed
  module profiles, cross-query score caches, certified-bound
  frontier-pruned top-k and an optional process-pool backend.  Results are
  bit-identical to the reference path; only the work per query shrinks.

.. deprecated::
    As a *public* entry point this engine is superseded by the
    :class:`repro.api.SimilarityService` facade, which routes declarative
    requests to the fastest bit-identical path itself (no caller-visible
    ``search`` vs ``search_batch`` choice) and keeps repositories mutable
    with precise cache invalidation.  The engine remains the execution
    layer underneath the facade and is kept stable for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.base import WorkflowSimilarityMeasure
from ..core.framework import RankedWorkflow, SimilarityFramework
from ..core.registry import create_measure
from ..perf import (
    AccelerationContext,
    PruneStats,
    accelerate_measure,
    bounded_top_k,
    parallel_pairwise,
    parallel_search_batch,
    supports_pruned_top_k,
)
from ..workflow.model import Workflow
from .repository import WorkflowRepository

__all__ = ["SearchResult", "SearchResultList", "SimilaritySearchEngine"]


@dataclass(frozen=True)
class SearchResult:
    """One hit of a similarity search."""

    workflow_id: str
    similarity: float
    rank: int
    measure: str


@dataclass(frozen=True)
class SearchResultList:
    """The ranked hits of one query under one measure."""

    query_id: str
    measure: str
    results: tuple[SearchResult, ...]
    #: Lazily built id -> similarity index; repository-scale consumers
    #: (retrieval evaluation, result merging) probe result lists far more
    #: often than they iterate them, and the former linear scan made
    #: every probe O(k).
    _index: dict[str, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def identifiers(self) -> list[str]:
        return [result.workflow_id for result in self.results]

    def _similarity_index(self) -> dict[str, float]:
        index = self._index
        if index is None:
            index = {result.workflow_id: result.similarity for result in self.results}
            object.__setattr__(self, "_index", index)
        return index

    def similarity_of(self, workflow_id: str) -> float | None:
        return self._similarity_index().get(workflow_id)

    def __contains__(self, workflow_id: object) -> bool:
        return workflow_id in self._similarity_index()

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


class SimilaritySearchEngine:
    """Top-k similarity search over a repository."""

    def __init__(
        self,
        repository: WorkflowRepository,
        framework: SimilarityFramework | None = None,
    ) -> None:
        self.repository = repository
        self.framework = framework or SimilarityFramework()
        #: Shared profile store + score caches for the batch paths; bound
        #: to the repository's store so profiles are computed once per
        #: repository, not once per engine.
        self.context = AccelerationContext(repository.profile_store)
        #: Accelerated measure instances, built per name on first use.
        #: Deliberately separate from ``framework._measures`` so the
        #: reference :meth:`search` path stays untouched by acceleration.
        self._accelerated: dict[str, WorkflowSimilarityMeasure] = {}
        #: Pruning statistics of the most recent :meth:`search_batch`.
        self.last_batch_stats: PruneStats | None = None

    # -- reference path ------------------------------------------------------

    def search(
        self,
        query: Workflow | str,
        measure: str | WorkflowSimilarityMeasure,
        *,
        k: int = 10,
        candidates: Sequence[Workflow] | None = None,
    ) -> SearchResultList:
        """Return the top-``k`` most similar workflows to ``query``.

        Parameters
        ----------
        query:
            The query workflow or its repository identifier.
        measure:
            Measure name (e.g. ``"MS_ip_te_pll"``) or instance.
        candidates:
            Restrict the search to this candidate set; defaults to the
            whole repository (minus the query itself).
        """
        query_workflow = self.repository.get(query) if isinstance(query, str) else query
        pool = list(candidates) if candidates is not None else self.repository.workflows()
        instance = self.framework.measure(measure)
        ranked = self.framework.top_k(query_workflow, pool, instance, k=k)
        return self._result_list(query_workflow.identifier, instance.name, ranked)

    @staticmethod
    def _result_list(
        query_id: str, measure_name: str, ranked: Sequence[RankedWorkflow]
    ) -> SearchResultList:
        results = tuple(
            SearchResult(
                workflow_id=entry.identifier,
                similarity=entry.similarity,
                rank=entry.rank,
                measure=measure_name,
            )
            for entry in ranked
        )
        return SearchResultList(query_id=query_id, measure=measure_name, results=results)

    def invalidate_workflows(self, identifiers: Sequence[str]) -> dict[str, int]:
        """Release everything derived from the removed workflows ``identifiers``.

        One pass over every holder of per-workflow state: the reference
        measures of :attr:`framework`, the accelerated measures (ensemble
        members included) and the acceleration context (bound summaries,
        profiles, fingerprint memos; see
        :meth:`AccelerationContext.invalidate_workflows`).  Returns the
        context's counters.
        """
        identifiers = list(identifiers)
        self.framework.forget_workflows(identifiers)
        for measure in self._accelerated.values():
            measure.forget_workflows(identifiers)
        return self.context.invalidate_workflows(identifiers)

    # -- batch path ----------------------------------------------------------

    def _accelerated_measure(
        self, measure: str | WorkflowSimilarityMeasure
    ) -> WorkflowSimilarityMeasure:
        """An accelerated measure instance for the batch paths.

        Named measures get a dedicated instance (cached per engine) so
        the reference path's instances stay pristine; instances passed in
        directly are used as-is — the pruned top-k still applies, but
        their comparator is not swapped (mutating caller-owned objects
        would be surprising).
        """
        if isinstance(measure, WorkflowSimilarityMeasure):
            return measure
        instance = self._accelerated.get(measure)
        if instance is None:
            instance = create_measure(
                measure,
                importance_scorer=self.framework.importance_scorer,
                ged_timeout=self.framework.ged_timeout,
            )
            accelerate_measure(instance, self.context)
            self._accelerated[measure] = instance
        return instance

    def search_batch(
        self,
        queries: Iterable[Workflow | str] | None,
        measure: str | WorkflowSimilarityMeasure,
        *,
        k: int = 10,
        candidates: Sequence[Workflow] | None = None,
        prune: bool = True,
        workers: int | None = None,
        chunk_size: int = 16,
    ) -> list[SearchResultList]:
        """Top-``k`` search for many queries, sharing all per-repository work.

        Bit-identical to calling :meth:`search` per query — same hits,
        same scores, same tie-breaking — but built for repository scale:

        * module attributes are profiled once (per repository) and
          module-pair scores are cached across queries, with symmetric
          pairs folded into one entry;
        * measures covered by a certified bound (``MS``, ``PS`` and
          fully certified ensembles) run a frontier-pruned scan that
          skips candidates whose certified upper bound cannot reach the
          current top-k (``prune=False`` forces exhaustive scoring);
        * ``workers=N`` with a *named* measure fans the queries out over
          a process pool (each worker amortises its own caches across
          its chunk); unavailable pools degrade to the serial path.

        Parameters
        ----------
        queries:
            Workflows or identifiers; ``None`` searches with every
            repository workflow as the query (the all-queries batch of
            the paper's retrieval experiment).
        candidates:
            Restrict the searched pool (serial path only); defaults to
            the whole repository.

        Returns the result lists in query order.
        """
        query_list: list[Workflow] = [
            self.repository.get(query) if isinstance(query, str) else query
            for query in (queries if queries is not None else self.repository.workflows())
        ]

        if (
            workers
            and workers > 1
            and isinstance(measure, str)
            and candidates is None
            and len(query_list) > 1
        ):
            parallel = self.parallel_batch(
                query_list, measure, k=k, prune=prune, workers=workers, chunk_size=chunk_size
            )
            if parallel is not None:
                self.last_batch_stats = PruneStats()
                return parallel

        return self.serial_batch(
            query_list, measure, k=k, candidates=candidates, prune=prune
        )

    def parallel_batch(
        self,
        query_list: Sequence[Workflow],
        measure: str,
        *,
        k: int,
        prune: bool,
        workers: int,
        chunk_size: int = 16,
    ) -> list[SearchResultList] | None:
        """Attempt the process-pool batch; ``None`` when no pool exists.

        Exposed separately so callers that need to *know* whether the
        pool ran (the :class:`repro.api.SimilarityService` diagnostics)
        can attempt it themselves and fall back explicitly.
        """
        by_id = parallel_search_batch(
            self.repository.workflows(),
            [query.identifier for query in query_list],
            measure,
            k=k,
            workers=workers,
            chunk_size=chunk_size,
            ged_timeout=self.framework.ged_timeout,
            prune=prune,
        )
        if by_id is None:
            return None
        # Workers report hits under the instance's canonical name
        # (e.g. the default mapping code is omitted), matching
        # what the serial paths produce.
        canonical = self._accelerated_measure(measure).name
        return [
            SearchResultList(
                query_id=query.identifier,
                measure=canonical,
                results=tuple(
                    SearchResult(
                        workflow_id=workflow_id,
                        similarity=similarity,
                        rank=rank,
                        measure=canonical,
                    )
                    for workflow_id, similarity, rank in by_id[query.identifier]
                ),
            )
            for query in query_list
        ]

    def serial_batch(
        self,
        query_list: Sequence[Workflow],
        measure: str | WorkflowSimilarityMeasure,
        *,
        k: int,
        candidates: Sequence[Workflow] | None = None,
        prune: bool = True,
    ) -> list[SearchResultList]:
        """The in-process batch path (cached comparators, pruned top-k)."""
        stats = PruneStats()
        self.last_batch_stats = stats
        instance = self._accelerated_measure(measure)
        pool = list(candidates) if candidates is not None else self.repository.workflows()
        use_pruned = prune and supports_pruned_top_k(instance)
        results: list[SearchResultList] = []
        for query in query_list:
            if use_pruned:
                ranked = bounded_top_k(
                    query, pool, instance, self.context, k=k, stats=stats
                )
            else:
                ranked = self.framework.top_k(query, pool, instance, k=k)
            results.append(self._result_list(query.identifier, instance.name, ranked))
        return results

    def search_all_measures(
        self,
        query: Workflow | str,
        measures: Iterable[str | WorkflowSimilarityMeasure],
        *,
        k: int = 10,
    ) -> dict[str, SearchResultList]:
        """Run the same query under several measures."""
        return {
            result.measure: result
            for result in (self.search(query, measure, k=k) for measure in measures)
        }

    def merged_candidates(
        self,
        query: Workflow | str,
        measures: Iterable[str | WorkflowSimilarityMeasure],
        *,
        k: int = 10,
    ) -> list[str]:
        """Union of the top-``k`` hits of all measures, in first-seen order.

        This reproduces the construction of the paper's second rating
        corpus: "The results returned by each tested algorithm were
        merged into single lists between 21 and 68 elements long."
        """
        merged: list[str] = []
        seen: set[str] = set()
        for result_list in self.search_all_measures(query, measures, k=k).values():
            for workflow_id in result_list.identifiers():
                if workflow_id not in seen:
                    seen.add(workflow_id)
                    merged.append(workflow_id)
        return merged

    def pairwise_similarity(
        self,
        measure: str | WorkflowSimilarityMeasure,
        *,
        workflows: Sequence[Workflow] | None = None,
        accelerate: bool = True,
        workers: int | None = None,
        chunk_size: int = 64,
    ) -> dict[tuple[str, str], float]:
        """Similarity of every unordered workflow pair (used for clustering).

        Each pair is scored exactly once in ``(earlier, later)`` pool
        order — and with an accelerated measure the symmetric module-pair
        cache means the underlying attribute comparisons are shared with
        any previous search batch as well.  ``workers=N`` distributes the
        pair rows over a process pool for named measures over the whole
        repository.
        """
        pool = list(workflows) if workflows is not None else self.repository.workflows()
        if (
            workers
            and workers > 1
            and isinstance(measure, str)
            and workflows is None
        ):
            parallel = self.parallel_pairwise_scores(
                pool, measure, workers=workers, chunk_size=chunk_size
            )
            if parallel is not None:
                return parallel
        instance = (
            self._accelerated_measure(measure) if accelerate else self.framework.measure(measure)
        )
        similarities: dict[tuple[str, str], float] = {}
        for i, first in enumerate(pool):
            for second in pool[i + 1:]:
                key = (first.identifier, second.identifier)
                similarities[key] = instance.similarity(first, second)
        return similarities

    def parallel_pairwise_scores(
        self,
        pool: Sequence[Workflow],
        measure: str,
        *,
        workers: int,
        chunk_size: int = 64,
    ) -> dict[tuple[str, str], float] | None:
        """Attempt the all-pairs process pool; ``None`` when unavailable.

        Like :meth:`parallel_batch`, exposed so the service facade can
        report in its diagnostics whether the pool actually ran.  ``pool``
        must be the whole repository in its iteration order — workers
        rebuild the repository from that pool and score all of it.
        """
        parallel = parallel_pairwise(
            list(pool),
            measure,
            workers=workers,
            chunk_size=chunk_size,
            ged_timeout=self.framework.ged_timeout,
        )
        if parallel is None:
            return None
        # Re-emit in the deterministic (i, j) pool order.
        return {
            (first.identifier, second.identifier): parallel[
                (first.identifier, second.identifier)
            ]
            for i, first in enumerate(pool)
            for second in pool[i + 1:]
        }
