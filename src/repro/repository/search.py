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
* :meth:`SimilaritySearchEngine.serial_batch`,
  :meth:`SimilaritySearchEngine.parallel_batch` and
  :meth:`SimilaritySearchEngine.pairwise_similarity` — the
  repository-scale paths built on :mod:`repro.perf`: precomputed module
  profiles, cross-query score caches, certified-bound frontier-pruned
  top-k and an optional process-pool backend.  Results are bit-identical
  to the reference path; only the work per query shrinks.

The engine is the execution layer underneath the
:class:`repro.api.SimilarityService` facade, which routes declarative
requests over these paths, falls back from one to the next on a fault,
and keeps repositories mutable with precise cache invalidation.  Call
the service, not the engine.
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

    def parallel_batch(
        self,
        query_list: Sequence[Workflow],
        measure: str,
        *,
        k: int,
        workers: int,
    ) -> list[SearchResultList] | None:
        """The batch over a process pool; ``None`` when no pool exists.

        Each worker rebuilds the repository and the named measure under
        this engine's importance scorer and GED timeout, so its answers
        are :meth:`serial_batch`'s.
        """
        by_id = parallel_search_batch(
            self.repository.workflows(),
            [query.identifier for query in query_list],
            measure,
            k=k,
            workers=workers,
            ged_timeout=self.framework.ged_timeout,
            importance_scorer=self.framework.importance_scorer,
        )
        if by_id is None:
            return None
        return [by_id[query.identifier] for query in query_list]

    def serial_batch(
        self,
        query_list: Sequence[Workflow],
        measure: str | WorkflowSimilarityMeasure,
        *,
        k: int,
        candidates: Sequence[Workflow] | None = None,
        stats: PruneStats | None = None,
    ) -> list[SearchResultList]:
        """Top-``k`` search for many queries, sharing all per-repository work.

        Bit-identical to calling :meth:`search` per query — same hits,
        same scores, same tie-breaking.  Module attributes are profiled
        once per repository and module-pair scores are cached across
        queries; every query ranks through :func:`bounded_top_k`, which
        prunes for measures a certified bound covers (``MS``, ``PS`` and
        fully certified ensembles) and scores every candidate otherwise.
        ``candidates`` restricts the searched pool; ``stats`` accumulates
        the pruning counters of the whole batch.  Returns the result
        lists in query order.
        """
        instance = self._accelerated_measure(measure)
        pool = list(candidates) if candidates is not None else self.repository.workflows()
        return [
            self._result_list(
                query.identifier,
                instance.name,
                bounded_top_k(query, pool, instance, self.context, k=k, stats=stats),
            )
            for query in query_list
        ]

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
    ) -> dict[tuple[str, str], float]:
        """Similarity of every unordered workflow pair (used for clustering).

        Each pair is scored exactly once in ``(earlier, later)`` pool
        order — and with an accelerated measure the symmetric module-pair
        cache means the underlying attribute comparisons are shared with
        any previous search batch as well.  ``accelerate=False`` scores
        with the reference measure instance.
        """
        pool = list(workflows) if workflows is not None else self.repository.workflows()
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
    ) -> dict[tuple[str, str], float] | None:
        """All pairs over a process pool; ``None`` when no pool exists.

        ``pool`` must be the whole repository in its iteration order —
        workers rebuild the repository from that pool and score all of
        it, under this engine's importance scorer and GED timeout.
        """
        parallel = parallel_pairwise(
            list(pool),
            measure,
            workers=workers,
            ged_timeout=self.framework.ged_timeout,
            importance_scorer=self.framework.importance_scorer,
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
