"""Common interfaces of the similarity framework.

Every similarity measure in the framework — structural (``MS``, ``PS``,
``GE``), annotation-based (``BW``, ``BT``) and ensembles — implements
:class:`WorkflowSimilarityMeasure`: it maps a pair of workflows to a
similarity score, normally in ``[0, 1]``.  The evaluation and retrieval
layers only ever talk to this interface, which is what lets the paper
swap individual steps of the comparison process while keeping everything
else fixed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..workflow.model import Workflow

__all__ = ["SimilarityDetail", "WorkflowSimilarityMeasure", "ComparisonStats"]


@dataclass
class ComparisonStats:
    """Counters describing the work performed by a measure.

    ``module_pair_comparisons`` counts the pairwise module comparisons
    actually carried out; Section 5.1.4 reports that type-equivalence
    preselection reduces this count by a factor of about 2.3 on the
    evaluation data set.
    """

    module_pair_comparisons: int = 0
    candidate_module_pairs: int = 0
    workflow_comparisons: int = 0
    timed_out_pairs: int = 0

    def merge(self, other: "ComparisonStats") -> None:
        self.module_pair_comparisons += other.module_pair_comparisons
        self.candidate_module_pairs += other.candidate_module_pairs
        self.workflow_comparisons += other.workflow_comparisons
        self.timed_out_pairs += other.timed_out_pairs

    def reset(self) -> None:
        self.module_pair_comparisons = 0
        self.candidate_module_pairs = 0
        self.workflow_comparisons = 0
        self.timed_out_pairs = 0


@dataclass(frozen=True)
class SimilarityDetail:
    """Detailed outcome of one workflow comparison.

    ``similarity`` is the (possibly normalised) score the measure
    reports; ``unnormalized`` is the raw ``nnsim`` value of the paper's
    formulas; ``extras`` carries measure-specific diagnostics such as the
    module mapping or the GED timeout flag.
    """

    similarity: float
    unnormalized: float
    extras: Mapping[str, Any] = field(default_factory=dict)


class WorkflowSimilarityMeasure(ABC):
    """A similarity function over pairs of scientific workflows."""

    #: Short identifier, e.g. ``"MS_ip_te_pll"`` (see Table 2 of the paper).
    name: str = "measure"

    def __init__(self) -> None:
        self.stats = ComparisonStats()

    # -- main API -------------------------------------------------------

    @abstractmethod
    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        """Return the detailed similarity of two workflows."""

    def similarity(self, first: Workflow, second: Workflow) -> float:
        """Return just the similarity score of two workflows."""
        self.stats.workflow_comparisons += 1
        return self.compare(first, second).similarity

    # -- applicability ----------------------------------------------------

    def is_applicable_to(self, workflow: Workflow) -> bool:
        """Whether the measure can produce meaningful scores for ``workflow``.

        Bag-of-Tags, for instance, cannot rank anything for a query
        workflow without tags; the evaluation skips such queries exactly
        as the paper does.
        """
        return True

    # -- bookkeeping -------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats.reset()

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        """Drop per-workflow caches held for ``identifiers`` (removed workflows)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
