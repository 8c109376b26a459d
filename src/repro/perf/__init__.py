"""Repository-scale performance layer (profiles, caches, pruned search).

This package makes batch similarity search and all-pairs clustering fast
*without changing a single score*:

* :mod:`repro.perf.profiles` — per-module precomputation (interned
  attribute strings, lowercase variants, token sets, type-equivalence
  categories), cached by object identity so the importance projection's
  reuse of module instances is exploited.
* :mod:`repro.perf.cache` — cross-query module-pair score caches keyed
  by (configuration, attribute fingerprints), with symmetric-pair
  canonicalisation for provably symmetric comparators.  They keep exact
  scores only; a pair's upper bound is computed when asked, with one
  AND of two memoised character masks per Levenshtein rule.
* :mod:`repro.perf.bounds` — the unified :class:`CertifiedBound` layer:
  per-measure certified upper bounds (``MS`` character-multiset + banded
  refinement, ``PS`` path matching, ensemble composition, ``BW``/``BT``
  bag overlap, the latter naming the store postings field whose token
  union certifies every other candidate a 0.0 score).  ``MS`` and
  ``PS`` bound each distinct module pair once per query.
* :mod:`repro.perf.engine` — comparator acceleration for all structural
  measures plus :func:`bounded_top_k`, the exact best-first,
  frontier-pruned top-k and the only fast top-k ranking: every batch
  search and the sql-indexed search (exact ``BW``/``BT`` bound plus the
  ids SQL admits) rank through it.
* :mod:`repro.perf.parallel` — an optional ``concurrent.futures``
  process-pool backend for query batches and all-pairs scoring.

The user-facing entry point is :class:`repro.api.SimilarityService`,
whose tiers run on these pieces through
:class:`~repro.repository.search.SimilaritySearchEngine`;
``benchmarks/bench_perf_search.py`` tracks the resulting speed-ups in
``BENCH_search.json``.
"""

from .bounds import (
    BOUND_CLASSES,
    BagOfTagsBound,
    BagOfWordsBound,
    CertifiedBound,
    EnsembleBound,
    ModuleSetsBound,
    PathSetsBound,
    find_bound,
    find_frontier_bound,
)
from .cache import ModulePairScoreCache, config_signature
from .engine import (
    AccelerationContext,
    CachedModuleComparator,
    PruneStats,
    accelerate_measure,
    bounded_top_k,
)
from .parallel import parallel_pairwise, parallel_search_batch, pool_available
from .profiles import PROFILE_ATTRIBUTES, ModuleProfile, ProfileStore, WorkflowProfile

__all__ = [
    "AccelerationContext",
    "BOUND_CLASSES",
    "BagOfTagsBound",
    "BagOfWordsBound",
    "CachedModuleComparator",
    "CertifiedBound",
    "EnsembleBound",
    "ModulePairScoreCache",
    "ModuleProfile",
    "ModuleSetsBound",
    "PROFILE_ATTRIBUTES",
    "PathSetsBound",
    "ProfileStore",
    "PruneStats",
    "WorkflowProfile",
    "accelerate_measure",
    "bounded_top_k",
    "config_signature",
    "find_bound",
    "find_frontier_bound",
    "parallel_pairwise",
    "parallel_search_batch",
    "pool_available",
]
