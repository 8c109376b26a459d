"""High-level facade over the similarity framework (Figure 2 of the paper).

:class:`SimilarityFramework` wires the individual steps — preprocessing,
module comparison, module mapping, topological comparison, normalisation
and (optionally) ensembles — behind a small API:

>>> framework = SimilarityFramework()
>>> framework.similarity(wf1, wf2, "MS_ip_te_pll")      # doctest: +SKIP
>>> framework.rank(query, corpus, "BW+MS_ip_te_pll")    # doctest: +SKIP

Measure instances are cached per name, so repeated calls reuse the
(potentially expensive) internal caches such as the importance
projection of already-seen workflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..workflow.model import Workflow
from .base import WorkflowSimilarityMeasure
from .preprocessing import ImportanceScorer
from .registry import create_measure

__all__ = ["RankedWorkflow", "SimilarityFramework"]


@dataclass(frozen=True)
class RankedWorkflow:
    """One entry of a similarity ranking."""

    workflow: Workflow
    similarity: float
    rank: int

    @property
    def identifier(self) -> str:
        return self.workflow.identifier


class SimilarityFramework:
    """Facade for comparing and ranking scientific workflows."""

    def __init__(
        self,
        *,
        importance_scorer: ImportanceScorer | None = None,
        ged_timeout: float | None = 5.0,
    ) -> None:
        self.importance_scorer = importance_scorer
        self.ged_timeout = ged_timeout
        self._measures: dict[str, WorkflowSimilarityMeasure] = {}

    # -- measure management ------------------------------------------------

    def measure(self, name: str | WorkflowSimilarityMeasure) -> WorkflowSimilarityMeasure:
        """Return (and cache) the measure instance for ``name``."""
        if isinstance(name, WorkflowSimilarityMeasure):
            return name
        if name not in self._measures:
            self._measures[name] = create_measure(
                name,
                importance_scorer=self.importance_scorer,
                ged_timeout=self.ged_timeout,
            )
        return self._measures[name]

    def register(self, measure: WorkflowSimilarityMeasure) -> None:
        """Register a custom measure instance under its own name."""
        self._measures[measure.name] = measure

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        """Drop removed workflows from every cached measure instance."""
        for measure in self._measures.values():
            measure.forget_workflows(identifiers)

    # -- comparison ---------------------------------------------------------

    def similarity(
        self, first: Workflow, second: Workflow, measure: str | WorkflowSimilarityMeasure
    ) -> float:
        """Similarity of two workflows under the named measure."""
        return self.measure(measure).similarity(first, second)

    def compare_all(
        self,
        first: Workflow,
        second: Workflow,
        measures: Iterable[str | WorkflowSimilarityMeasure],
    ) -> dict[str, float]:
        """Similarity of a workflow pair under several measures at once."""
        results: dict[str, float] = {}
        for entry in measures:
            instance = self.measure(entry)
            results[instance.name] = instance.similarity(first, second)
        return results

    # -- ranking and retrieval ----------------------------------------------

    def rank(
        self,
        query: Workflow,
        candidates: Sequence[Workflow],
        measure: str | WorkflowSimilarityMeasure,
        *,
        exclude_query: bool = True,
    ) -> list[RankedWorkflow]:
        """Rank ``candidates`` by decreasing similarity to ``query``.

        Ties keep the candidates' input order; the query itself is
        excluded by default (a repository search should not return the
        query workflow as its own best hit).
        """
        instance = self.measure(measure)
        scored: list[tuple[float, int, Workflow]] = []
        for position, candidate in enumerate(candidates):
            if exclude_query and candidate.identifier == query.identifier:
                continue
            scored.append((instance.similarity(query, candidate), position, candidate))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [
            RankedWorkflow(workflow=workflow, similarity=score, rank=rank)
            for rank, (score, _position, workflow) in enumerate(scored, start=1)
        ]

    def top_k(
        self,
        query: Workflow,
        candidates: Sequence[Workflow],
        measure: str | WorkflowSimilarityMeasure,
        k: int = 10,
        *,
        exclude_query: bool = True,
    ) -> list[RankedWorkflow]:
        """The ``k`` most similar candidates (the paper's retrieval setting)."""
        return self.rank(query, candidates, measure, exclude_query=exclude_query)[:k]
