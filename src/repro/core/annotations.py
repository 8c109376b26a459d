"""Annotation-based workflow similarity measures (Section 2.2).

Purely annotation-based methods use only the textual information
recorded with a workflow in the repository — its title, free-form
description and keyword tags:

* :class:`BagOfWordsSimilarity` (``BW``) — tokens of title and
  description (whitespace/underscore split, lowercased, non-alphanumeric
  characters removed, stopwords filtered), compared by their Jaccard
  overlap ``#matches / (#matches + #mismatches)``.
* :class:`BagOfTagsSimilarity` (``BT``) — the keyword tags, compared in
  the same way but *without* any preprocessing, following Stoyanovich et
  al.; workflows without tags cannot be ranked by this measure.

Both measures deliberately use set semantics (multiple occurrences of a
token are not counted); the paper found frequency-aware variants to
perform slightly worse.
"""

from __future__ import annotations

from typing import Iterable

from ..text.tokenize import tokenize
from ..workflow.model import Workflow
from .base import SimilarityDetail, WorkflowSimilarityMeasure

__all__ = ["BagOfWordsSimilarity", "BagOfTagsSimilarity", "bag_overlap_similarity"]


def bag_overlap_similarity(first: frozenset[str], second: frozenset[str]) -> float:
    """``#matches / (#matches + #mismatches)`` — the Jaccard index of two sets.

    Returns 0.0 when both sets are empty (no evidence of similarity).
    """
    matches = len(first & second)
    mismatches = len(first ^ second)
    if matches + mismatches == 0:
        return 0.0
    return matches / (matches + mismatches)


class BagOfWordsSimilarity(WorkflowSimilarityMeasure):
    """``BW`` — bag-of-words comparison of workflow titles and descriptions."""

    def __init__(self, *, use_title: bool = True, use_description: bool = True) -> None:
        super().__init__()
        if not (use_title or use_description):
            raise ValueError("BagOfWordsSimilarity needs at least one of title/description")
        self.use_title = use_title
        self.use_description = use_description
        self.name = "BW"
        self._token_cache: dict[str, tuple[Workflow, frozenset[str]]] = {}

    def tokens(self, workflow: Workflow) -> frozenset[str]:
        """The preprocessed token set of a workflow's annotations (cached)."""
        cached = self._token_cache.get(workflow.identifier)
        if cached is not None and cached[0] is workflow:
            return cached[1]
        parts: list[str] = []
        if self.use_title:
            parts.append(workflow.annotations.title)
        if self.use_description:
            parts.append(workflow.annotations.description)
        token_set = frozenset(tokenize(" ".join(parts)))
        self._token_cache[workflow.identifier] = (workflow, token_set)
        return token_set

    def is_applicable_to(self, workflow: Workflow) -> bool:
        return bool(self.tokens(workflow))

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        for identifier in identifiers:
            self._token_cache.pop(identifier, None)

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        tokens_a = self.tokens(first)
        tokens_b = self.tokens(second)
        value = bag_overlap_similarity(tokens_a, tokens_b)
        return SimilarityDetail(
            similarity=value,
            unnormalized=float(len(tokens_a & tokens_b)),
            extras={"tokens": (len(tokens_a), len(tokens_b))},
        )


class BagOfTagsSimilarity(WorkflowSimilarityMeasure):
    """``BT`` — bag-of-tags comparison of repository keyword tags."""

    def __init__(self, *, lowercase: bool = False) -> None:
        super().__init__()
        #: The paper performs no preprocessing of tags; lowercasing can be
        #: switched on as a variant.
        self.lowercase = lowercase
        self.name = "BT"

    def tags(self, workflow: Workflow) -> frozenset[str]:
        tags = workflow.annotations.tags
        if self.lowercase:
            return frozenset(tag.lower() for tag in tags)
        return frozenset(tags)

    def is_applicable_to(self, workflow: Workflow) -> bool:
        """Workflows without tags cannot be ranked by this measure."""
        return workflow.annotations.has_tags

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        tags_a = self.tags(first)
        tags_b = self.tags(second)
        value = bag_overlap_similarity(tags_a, tags_b)
        return SimilarityDetail(
            similarity=value,
            unnormalized=float(len(tags_a & tags_b)),
            extras={"tags": (len(tags_a), len(tags_b))},
        )
