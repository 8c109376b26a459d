"""Clustering and duplicate detection over workflow repositories.

The introduction of the paper motivates similarity measures with
repository-management tasks: "detection of functionally equivalent
workflows, grouping of workflows into functional clusters, workflow
retrieval".  Retrieval lives in :mod:`repro.repository.search`; this
module provides the other two as thin consumers of any similarity
measure:

* :func:`find_duplicates` — workflow pairs whose similarity exceeds a
  threshold (candidates for functional equivalence / near-duplicates);
* :func:`threshold_clusters` — connected components of the similarity
  graph above a threshold (single-link flat clustering);
* :func:`agglomerative_clusters` — average-link hierarchical clustering
  cut at a similarity threshold, for finer-grained functional groups.

To cluster a whole repository on the fast paths, call
:meth:`SimilarityService.cluster
<repro.api.service.SimilarityService.cluster>`, which feeds these helpers
the service's pairwise scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.base import WorkflowSimilarityMeasure
from ..workflow.model import Workflow

__all__ = [
    "DuplicatePair",
    "find_duplicates",
    "threshold_clusters",
    "agglomerative_clusters",
    "pairwise_similarities",
]


@dataclass(frozen=True)
class DuplicatePair:
    """A pair of workflows suspected to be functionally equivalent."""

    first_id: str
    second_id: str
    similarity: float


def pairwise_similarities(
    workflows: Sequence[Workflow], measure: WorkflowSimilarityMeasure
) -> dict[tuple[str, str], float]:
    """Similarity of every unordered pair of the given workflows."""
    similarities: dict[tuple[str, str], float] = {}
    for i, first in enumerate(workflows):
        for second in workflows[i + 1:]:
            similarities[(first.identifier, second.identifier)] = measure.similarity(first, second)
    return similarities


def find_duplicates(
    workflows: Sequence[Workflow],
    measure: WorkflowSimilarityMeasure,
    *,
    threshold: float = 0.95,
    similarities: Mapping[tuple[str, str], float] | None = None,
) -> list[DuplicatePair]:
    """Workflow pairs whose similarity is at least ``threshold``.

    Pass precomputed ``similarities`` to reuse a pairwise matrix across
    several thresholds.
    """
    if similarities is None:
        similarities = pairwise_similarities(workflows, measure)
    duplicates = [
        DuplicatePair(first_id=pair[0], second_id=pair[1], similarity=value)
        for pair, value in similarities.items()
        if value >= threshold
    ]
    duplicates.sort(key=lambda entry: -entry.similarity)
    return duplicates


def threshold_clusters(
    workflows: Sequence[Workflow],
    measure: WorkflowSimilarityMeasure,
    *,
    threshold: float = 0.7,
    similarities: Mapping[tuple[str, str], float] | None = None,
) -> list[set[str]]:
    """Single-link clusters: connected components above ``threshold``."""
    if similarities is None:
        similarities = pairwise_similarities(workflows, measure)
    parent: dict[str, str] = {workflow.identifier: workflow.identifier for workflow in workflows}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_b] = root_a

    for (first, second), value in similarities.items():
        if value >= threshold:
            union(first, second)

    clusters: dict[str, set[str]] = {}
    for workflow in workflows:
        clusters.setdefault(find(workflow.identifier), set()).add(workflow.identifier)
    return sorted(clusters.values(), key=lambda cluster: (-len(cluster), sorted(cluster)[0]))


def agglomerative_clusters(
    workflows: Sequence[Workflow],
    measure: WorkflowSimilarityMeasure,
    *,
    threshold: float = 0.7,
    similarities: Mapping[tuple[str, str], float] | None = None,
) -> list[set[str]]:
    """Average-link agglomerative clustering cut at ``threshold``.

    Starts with singleton clusters and repeatedly merges the pair of
    clusters with the highest average pairwise similarity until no pair
    reaches the threshold.  Quadratic in the number of workflows, meant
    for corpus subsets (e.g. the workflows sharing a tag), not the whole
    repository.
    """
    if similarities is None:
        similarities = pairwise_similarities(workflows, measure)

    def pair_similarity(a: str, b: str) -> float:
        if a == b:
            return 1.0
        return similarities.get((a, b), similarities.get((b, a), 0.0))

    clusters: list[set[str]] = [{workflow.identifier} for workflow in workflows]
    while len(clusters) > 1:
        best_value = -1.0
        best_pair: tuple[int, int] | None = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                values = [
                    pair_similarity(a, b) for a in clusters[i] for b in clusters[j]
                ]
                average = sum(values) / len(values)
                if average > best_value:
                    best_value = average
                    best_pair = (i, j)
        if best_pair is None or best_value < threshold:
            break
        i, j = best_pair
        clusters[i] = clusters[i] | clusters[j]
        del clusters[j]
    return sorted(clusters, key=lambda cluster: (-len(cluster), sorted(cluster)[0]))
