"""Workflow repository, repository-derived knowledge, search, clustering."""

from .clustering import (
    DuplicatePair,
    agglomerative_clusters,
    find_duplicates,
    pairwise_similarities,
    threshold_clusters,
)
from .knowledge import RepositoryKnowledge
from .repository import RepositoryStatistics, WorkflowRepository
from .search import SearchResult, SearchResultList, SimilaritySearchEngine

__all__ = [
    "DuplicatePair",
    "agglomerative_clusters",
    "find_duplicates",
    "pairwise_similarities",
    "threshold_clusters",
    "RepositoryKnowledge",
    "RepositoryStatistics",
    "WorkflowRepository",
    "SearchResult",
    "SearchResultList",
    "SimilaritySearchEngine",
]
