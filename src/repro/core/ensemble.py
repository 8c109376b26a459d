"""Ensembles of similarity measures (Section 5.1.6).

Just as expert rankings can be aggregated into a consensus, the scores
of several similarity algorithms can be combined into a single score.
The paper tests ensembles of two algorithms that simply average the
individual scores and finds the combination of ``BW`` with ``MS`` or
``PS`` (with ``ip``, ``te`` and ``pll``) to significantly and
substantially outperform every single algorithm.

:class:`MeanEnsemble` implements the paper's aggregation;
:class:`WeightedEnsemble` and :class:`RankAggregationEnsemble` are the
"advanced methods" extensions the conclusion suggests as future work.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..workflow.model import Workflow
from .base import SimilarityDetail, WorkflowSimilarityMeasure

__all__ = ["MeanEnsemble", "WeightedEnsemble", "RankAggregationEnsemble"]


class MeanEnsemble(WorkflowSimilarityMeasure):
    """Average of the member measures' similarity scores.

    Members that are not applicable to one of the workflows (e.g. ``BT``
    without tags) are skipped for that pair; if no member is applicable
    the ensemble returns 0.0.
    """

    def __init__(self, members: Sequence[WorkflowSimilarityMeasure], *, name: str | None = None) -> None:
        super().__init__()
        if not members:
            raise ValueError("an ensemble needs at least one member measure")
        self.members = list(members)
        self.name = name or "+".join(member.name for member in self.members)

    def is_applicable_to(self, workflow: Workflow) -> bool:
        return any(member.is_applicable_to(workflow) for member in self.members)

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        scores: dict[str, float] = {}
        for member in self.members:
            if not (member.is_applicable_to(first) and member.is_applicable_to(second)):
                continue
            scores[member.name] = member.compare(first, second).similarity
        if not scores:
            return SimilarityDetail(similarity=0.0, unnormalized=0.0, extras={"members": {}})
        value = sum(scores.values()) / len(scores)
        return SimilarityDetail(similarity=value, unnormalized=value, extras={"members": scores})

    def reset_stats(self) -> None:
        super().reset_stats()
        for member in self.members:
            member.reset_stats()

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        for member in self.members:
            member.forget_workflows(identifiers)


class WeightedEnsemble(MeanEnsemble):
    """Weighted average of the member scores."""

    def __init__(
        self,
        members: Sequence[WorkflowSimilarityMeasure],
        weights: Sequence[float],
        *,
        name: str | None = None,
    ) -> None:
        super().__init__(members, name=name)
        if len(weights) != len(members):
            raise ValueError("need exactly one weight per ensemble member")
        if all(weight <= 0 for weight in weights):
            raise ValueError("at least one ensemble weight must be positive")
        self.weights = list(weights)
        self.name = name or "+".join(
            f"{weight:g}*{member.name}" for member, weight in zip(members, weights)
        )

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        scores: dict[str, float] = {}
        total = 0.0
        weight_sum = 0.0
        for member, weight in zip(self.members, self.weights):
            if not (member.is_applicable_to(first) and member.is_applicable_to(second)):
                continue
            score = member.compare(first, second).similarity
            scores[member.name] = score
            total += weight * score
            weight_sum += weight
        if weight_sum == 0.0:
            return SimilarityDetail(similarity=0.0, unnormalized=0.0, extras={"members": {}})
        value = total / weight_sum
        return SimilarityDetail(similarity=value, unnormalized=value, extras={"members": scores})


class RankAggregationEnsemble(WorkflowSimilarityMeasure):
    """Ensemble that aggregates *ranks* rather than raw scores.

    For similarity search the absolute score scales of different
    measures are not directly comparable; this ensemble ranks a list of
    candidate workflows under each member and averages the (fractional)
    ranks (Borda-style).  It therefore exposes a list-wise API
    (:meth:`score_candidates`) in addition to the pairwise one, which
    falls back to the mean of scores.
    """

    def __init__(self, members: Sequence[WorkflowSimilarityMeasure], *, name: str | None = None) -> None:
        super().__init__()
        if not members:
            raise ValueError("an ensemble needs at least one member measure")
        self.members = list(members)
        self.name = name or "rank(" + "+".join(member.name for member in self.members) + ")"

    def is_applicable_to(self, workflow: Workflow) -> bool:
        return any(member.is_applicable_to(workflow) for member in self.members)

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        scores = [
            member.compare(first, second).similarity
            for member in self.members
            if member.is_applicable_to(first) and member.is_applicable_to(second)
        ]
        value = sum(scores) / len(scores) if scores else 0.0
        return SimilarityDetail(similarity=value, unnormalized=value, extras={})

    def score_candidates(
        self, query: Workflow, candidates: Sequence[Workflow]
    ) -> list[float]:
        """Return aggregated scores in [0, 1] for ``candidates`` against ``query``.

        Each member contributes ``1 - (rank - 1) / (n - 1)`` for every
        candidate (1.0 for its top pick, 0.0 for its last); the ensemble
        score is the mean over applicable members.
        """
        if not candidates:
            return []
        if len(candidates) == 1:
            return [self.compare(query, candidates[0]).similarity]
        aggregate = [0.0] * len(candidates)
        contributing = 0
        for member in self.members:
            if not member.is_applicable_to(query):
                continue
            scores = [member.compare(query, candidate).similarity for candidate in candidates]
            order = sorted(range(len(candidates)), key=lambda index: -scores[index])
            ranks = [0] * len(candidates)
            for rank, index in enumerate(order):
                ranks[index] = rank
            for index in range(len(candidates)):
                aggregate[index] += 1.0 - ranks[index] / (len(candidates) - 1)
            contributing += 1
        if contributing == 0:
            return [0.0] * len(candidates)
        return [value / contributing for value in aggregate]

    def reset_stats(self) -> None:
        super().reset_stats()
        for member in self.members:
            member.reset_stats()

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        for member in self.members:
            member.forget_workflows(identifiers)
