"""Batch similarity acceleration: cached comparators and pruned top-k.

Two cooperating layers, both exact (no score changes):

* :func:`accelerate_measure` swaps the
  :class:`~repro.core.module_similarity.ModuleComparator` of any
  structural measure (including ensemble members) for a
  :class:`CachedModuleComparator` that serves module-pair scores from a
  cross-query :class:`~repro.perf.cache.ModulePairScoreCache`.  Every
  downstream step — mapping, topological comparison, normalisation —
  runs unchanged, so ``MS``/``PS``/``GE`` all produce bit-identical
  scores, only faster.

* :func:`bounded_top_k` is the one fast top-k ranking, a drop-in
  replacement for :meth:`SimilarityFramework.top_k
  <repro.core.framework.SimilarityFramework.top_k>` for every measure.
  With a :class:`~repro.perf.bounds.CertifiedBound` (the pruning bounds
  of ``MS``, ``PS`` and fully certified ensembles) it bounds every
  candidate, verifies candidates
  best-first (descending *certified upper bound*, ties in pool order)
  against the current top-k frontier, and stops at the first candidate
  whose bound cannot reach the k-th entry; candidates before that point
  may face the bound's refinement stage (e.g. the matching bound and
  banded-Levenshtein pass of the ``MS`` bound, whose per-row distance
  budget is derived from the frontier score).  Only candidates
  surviving both filters pay for an exact comparison — which the
  measure itself performs, so selected scores, tie-breaks and ranks
  match the sequential scan exactly.  Without a bound it scores every
  candidate in pool order.  The bound machinery itself lives in
  :mod:`repro.perf.bounds`.  ``BW``/``BT`` searches over an indexed
  store do not come here: SQLite ranks them
  (:meth:`repro.store.SqlAdmissionPlanner.top_k`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from ..core.base import WorkflowSimilarityMeasure
from ..core.ensemble import MeanEnsemble
from ..core.framework import RankedWorkflow
from ..core.module_similarity import ModuleComparator, ModuleComparisonConfig
from ..core.topological import StructuralMeasure
from ..workflow.model import Module, Workflow
from .bounds import find_frontier_bound
from .cache import ModulePairScoreCache
from .profiles import ProfileStore

__all__ = [
    "AccelerationContext",
    "CachedModuleComparator",
    "accelerate_measure",
    "bounded_top_k",
    "PruneStats",
]


class AccelerationContext:
    """Shared profile store and score caches of one search engine.

    One context is meant to live as long as the repository it serves:
    the longer it lives, the more cross-query reuse it extracts.  Pair
    caches are shared per configuration (name and rules), so an ensemble
    whose members agree on the module scheme shares one cache.  Non-exact
    module-pair bounds are not reused: each query recomputes them once.
    """

    def __init__(self, profiles: ProfileStore | None = None) -> None:
        self.profiles = profiles if profiles is not None else ProfileStore()
        self._pair_caches: dict[object, ModulePairScoreCache] = {}
        #: Memoised :class:`~repro.perf.bounds.CertifiedBound` instances
        #: per measure object (identity-guarded), managed by
        #: :func:`repro.perf.bounds.find_bound`.
        self.measure_bounds: dict[int, tuple[object, object]] = {}
        #: Optional persistent backend (a :class:`repro.store.WorkflowStore`,
        #: held duck-typed so the perf layer stays import-independent of
        #: the store package).  When set, newly created pair caches are
        #: warm-started from its persisted scores.
        self._store = None
        #: The exception of the most recent failed store read, if any.
        #: A store that faults during a warm load is detached on the
        #: spot — the query proceeds cold (bit-identical, just slower) —
        #: and the fault is parked here for the owning service to
        #: observe, quarantine and rebuild after the request completes.
        self.store_fault: BaseException | None = None

    def pair_cache(self, config: ModuleComparisonConfig) -> ModulePairScoreCache:
        key = (config.name, config.rules)
        cache = self._pair_caches.get(key)
        if cache is None:
            cache = ModulePairScoreCache(config)
            self._pair_caches[key] = cache
            self._warm_cache(cache)
        return cache

    def cache_stats(self) -> list[dict[str, float | int | str]]:
        return [cache.stats() for cache in self._pair_caches.values()]

    # -- persistence ---------------------------------------------------------

    def attach_store(self, store) -> int:
        """Warm-start pair caches from a persistent score store.

        Safe regardless of corpus: scores are keyed by attribute-value
        fingerprints, so a persisted entry is exact for *any* module
        pair with those values.  Caches created after attachment load
        lazily on first use.  Returns the number of entries loaded into
        the already-existing caches.

        Warm and persisted markers always describe the *currently
        attached* store (they are what :meth:`persist_scores` skips);
        switch stores via :meth:`reset_warm_markers` first, or through
        :meth:`SimilarityService.attach_cache_dir
        <repro.api.service.SimilarityService.attach_cache_dir>`, which
        does so.
        """
        self._store = store
        return sum(self._warm_cache(cache) for cache in self._pair_caches.values())

    def detach_store(self) -> None:
        """Stop consulting the store (e.g. before its connection closes)."""
        self._store = None

    def reset_warm_markers(self) -> None:
        """Re-mark every warm or persisted entry as new.

        See :meth:`ModulePairScoreCache.reset_warm`.
        """
        for cache in self._pair_caches.values():
            cache.reset_warm()

    def _warm_cache(self, cache: ModulePairScoreCache) -> int:
        if self._store is None:
            return 0
        signature = cache.signature
        if signature is None:
            return 0
        try:
            # The rows stream from the store's cursor, so a fault can
            # surface while they load as well as when the read starts.
            return cache.load_entries(self._store.load_pair_scores(signature))
        except Exception as error:
            # A corrupted/closed/contended store must slow a query down,
            # never take it down: drop the store, serve cold, and leave
            # the fault for the service's recovery pass.  Entries loaded
            # before the fault stay cached.
            self.store_fault = error
            self._store = None
            return 0

    def persist_scores(self, store) -> int:
        """Write every persistable cache's *new* exact scores to ``store``.

        Warm-loaded entries, and entries an earlier persist committed,
        already live on that store's disk and are skipped.  Returns the
        number of rows written.  Caches with custom comparators have no
        stable cross-process signature and are skipped entirely (see
        :func:`repro.perf.cache.config_signature`).
        """
        written = 0
        for cache in self._pair_caches.values():
            signature = cache.signature
            if signature is not None:
                written += store.save_pair_scores(signature, cache.new_entries())
                cache.mark_persisted()
        return written

    def warm_hits_total(self) -> int:
        """Total hits served from persisted (warm-started) entries."""
        return sum(cache.warm_hits for cache in self._pair_caches.values())

    def invalidate_workflows(self, identifiers: Sequence[str]) -> dict[str, int]:
        """Precisely release the derived state of removed workflows.

        Drops the removed workflows' summaries from every memoised
        certified bound (and the bounds' per-query column memos), the
        workflow/module profiles of every identifier (including profiles
        of preprocessed copies) and the per-profile fingerprint memos of
        every pair cache.  Bound summaries of the remaining workflows
        stay.  Memoised pair *scores* survive too: they are keyed by
        attribute values, so they stay exact and keep serving any
        workflow remaining in — or later added to — the corpus.  Returns
        counters for diagnostics.
        """
        for _measure, bound in self.measure_bounds.values():
            if bound is not None:
                bound.forget(identifiers)
        dropped_modules = []
        for identifier in identifiers:
            dropped_modules.extend(self.profiles.invalidate_workflow(identifier))
        released = sum(
            cache.invalidate_profiles(dropped_modules)
            for cache in self._pair_caches.values()
        )
        return {
            "workflows": len(identifiers),
            "module_profiles": len(dropped_modules),
            "fingerprint_memos": released,
        }

    def clear(self) -> None:
        self.profiles.clear()
        self.measure_bounds.clear()
        for cache in self._pair_caches.values():
            cache.clear()


class CachedModuleComparator(ModuleComparator):
    """A :class:`ModuleComparator` backed by profiles and a score cache.

    ``comparisons_performed`` keeps the seed semantics (one increment per
    scored candidate pair, hit or miss) so the pair-preselection
    statistics of Section 5.1.4 are unaffected by acceleration.
    """

    def __init__(self, config: ModuleComparisonConfig, context: AccelerationContext) -> None:
        super().__init__(config)
        self.context = context
        self.cache = context.pair_cache(config)

    def compare(self, first: Module, second: Module) -> float:
        self.comparisons_performed += 1
        profiles = self.context.profiles
        return self.cache.score(profiles.module_profile(first), profiles.module_profile(second))

    def similarity_matrix(
        self,
        first_modules: Sequence[Module],
        second_modules: Sequence[Module],
        *,
        candidate_pairs: set[tuple[int, int]] | None = None,
    ) -> list[list[float]]:
        module_profile = self.context.profiles.module_profile
        fingerprint, score = self.cache.fingerprint, self.cache.pair_score
        # Each row's and each column's fingerprint is read once per matrix.
        rows = [(profile, fingerprint(profile)) for profile in map(module_profile, first_modules)]
        columns = [(profile, fingerprint(profile)) for profile in map(module_profile, second_modules)]
        width = len(columns)
        matrix: list[list[float]] = []
        if candidate_pairs is None:
            for profile_a, fingerprint_a in rows:
                matrix.append([score(profile_a, fingerprint_a, *column) for column in columns])
            self.comparisons_performed += len(rows) * width
        else:
            performed = 0
            for i, (profile_a, fingerprint_a) in enumerate(rows):
                row = [0.0] * width
                for j in range(width):
                    if (i, j) in candidate_pairs:
                        row[j] = score(profile_a, fingerprint_a, *columns[j])
                        performed += 1
                matrix.append(row)
            self.comparisons_performed += performed
        return matrix


def accelerate_measure(measure: WorkflowSimilarityMeasure, context: AccelerationContext) -> bool:
    """Install cached comparators on a measure (recursing into ensembles).

    Returns ``True`` if at least one comparator was swapped.  Idempotent:
    already-accelerated measures are left untouched.  Scores are
    unchanged by construction — only the module-pair evaluation strategy
    is replaced.
    """
    if isinstance(measure, MeanEnsemble):
        swapped = False
        for member in measure.members:
            swapped = accelerate_measure(member, context) or swapped
        return swapped
    if isinstance(measure, StructuralMeasure):
        if isinstance(measure.comparator, CachedModuleComparator):
            return False
        measure.comparator = CachedModuleComparator(measure.comparator.config, context)
        return True
    return False


@dataclass
class PruneStats:
    """Bookkeeping of one pruned top-k scan (aggregated per batch).

    ``candidates`` counts the candidates considered (the query itself
    excluded); each ends up counted in exactly one of the next three.
    ``pruned_char_bag`` counts candidates discarded on the bound's cheap
    summary stage — including the candidate that stops the best-first
    scan and every candidate after it in bound order — and
    ``pruned_banded`` those discarded only after its refinement stage.
    ``exact_comparisons`` counts the candidates scored by the measure.
    ``banded_calls`` counts the banded edit distances the refinement
    ran, and ``pruned_by_bound`` breaks the pruned total down by the
    name of the certifying bound.
    """

    candidates: int = 0
    pruned_char_bag: int = 0
    pruned_banded: int = 0
    exact_comparisons: int = 0
    banded_calls: int = 0
    pruned_by_bound: dict[str, int] = field(default_factory=dict)

    @property
    def pruned(self) -> int:
        return self.pruned_char_bag + self.pruned_banded

    def count_prune(self, bound_name: str, *, refined: bool, count: int = 1) -> None:
        """Record ``count`` pruned candidates, attributed to ``bound_name``."""
        if refined:
            self.pruned_banded += count
        else:
            self.pruned_char_bag += count
        self.pruned_by_bound[bound_name] = self.pruned_by_bound.get(bound_name, 0) + count

    def merge(self, other: "PruneStats") -> None:
        self.candidates += other.candidates
        self.pruned_char_bag += other.pruned_char_bag
        self.pruned_banded += other.pruned_banded
        self.exact_comparisons += other.exact_comparisons
        self.banded_calls += other.banded_calls
        for name, count in other.pruned_by_bound.items():
            self.pruned_by_bound[name] = self.pruned_by_bound.get(name, 0) + count

    def as_dict(self) -> dict[str, int | dict[str, int]]:
        return {
            "candidates": self.candidates,
            "pruned_char_bag": self.pruned_char_bag,
            "pruned_banded": self.pruned_banded,
            "exact_comparisons": self.exact_comparisons,
            "banded_calls": self.banded_calls,
            "pruned_by_bound": dict(self.pruned_by_bound),
        }


def bounded_top_k(
    query: Workflow,
    pool: Sequence[Workflow],
    measure: WorkflowSimilarityMeasure,
    context: AccelerationContext,
    *,
    k: int = 10,
    stats: PruneStats | None = None,
) -> list[RankedWorkflow]:
    """Exact top-k with best-first certified-bound frontier pruning.

    The query itself is never a candidate.  Every candidate first gets
    its certified upper bound; candidates are then verified in order of
    descending bound, ties in pool order (the threshold algorithm of
    Fagin, Lotem and Naor over certified bounds).  The ranking order of
    :meth:`SimilarityFramework.rank` is descending score, then pool
    position, so a candidate is skipped iff its bound is below the k-th
    score, or equal to it with a pool position after the k-th entry's.
    Before the exact comparison a surviving candidate faces the bound's
    refinement under the same test.  The first candidate whose summary
    bound fails the test ends the scan: every candidate after it in
    bound order fails it too.  Scores come from ``measure.similarity``
    itself, so returned scores, ranks and tie-breaks are the sequential
    scan's, bit for bit.  Without a pruning bound every candidate is
    scored, in pool order, which is :meth:`SimilarityFramework.top_k`.
    """
    if stats is None:
        stats = PruneStats()
    if k <= 0:
        return []
    bound = find_frontier_bound(measure, context)

    # (-bound, position, candidate, summary); positions are unique, so
    # sorting never compares past the position.
    order: list[tuple[float, int, Workflow, object]] = []
    if bound is not None:
        summary = bound.summary
        upper_bound = bound.upper_bound
        query_summary = summary(query)
    for position, candidate in enumerate(pool):
        if candidate.identifier == query.identifier:
            continue
        if bound is None:
            order.append((0.0, position, candidate, None))
        else:
            candidate_summary = summary(candidate)
            value = upper_bound(query_summary, candidate_summary)
            order.append((-value, position, candidate, candidate_summary))
    stats.candidates += len(order)
    order.sort()

    # Min-heap of the k best so far; the root is the current k-th entry.
    # Entries are (score, -position): lower score is worse, and on equal
    # scores a *larger* position is worse, matching rank()'s ordering.
    # A candidate whose (bound, -position) is below the root's cannot enter.
    frontier: list[tuple[float, int, Workflow]] = []
    for index, (neg_value, position, candidate, candidate_summary) in enumerate(order):
        full = len(frontier) == k
        if full and bound is not None:
            kth_score, kth_neg_position, _ = frontier[0]
            if (-neg_value, -position) < (kth_score, kth_neg_position):
                stats.count_prune(bound.name, refined=False, count=len(order) - index)
                break
            value = bound.refine(query_summary, candidate_summary, kth_score, stats=stats)
            if value is not None and (value, -position) < (kth_score, kth_neg_position):
                stats.count_prune(bound.name, refined=True)
                continue
        score = measure.similarity(query, candidate)
        stats.exact_comparisons += 1
        entry = (score, -position, candidate)
        if full:
            heapq.heappushpop(frontier, entry)
        else:
            heapq.heappush(frontier, entry)

    ranked = sorted(frontier, key=lambda entry: (-entry[0], -entry[1]))
    return [
        RankedWorkflow(workflow=workflow, similarity=score, rank=rank)
        for rank, (score, _neg_position, workflow) in enumerate(ranked, start=1)
    ]
