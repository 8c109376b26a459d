"""The :class:`SimilarityService` facade — the package's public surface.

One service is opened over one :class:`WorkflowRepository` and answers
declarative requests (:class:`SearchRequest`, :class:`PairwiseRequest`,
:class:`ClusterRequest`) with unified :class:`ResultSet` responses.  The
caller never picks an engine method or manages an
:class:`~repro.perf.engine.AccelerationContext`: the service owns the
context (bound to the repository's profile store) and routes every
request down one ordered list of tiers, each bit-identical to the
sequential reference scan.  A search tries candidate admission over the
store's token postings where the measure's
:class:`~repro.perf.bounds.CertifiedBound` names a postings field
(``BW``/``BT``), then the process pool when the policy grants workers,
then the in-process batch — frontier-pruned top-k for every measure
with a pruning bound (``MS``, ``PS``, fully certified ensembles), a
cached full scan otherwise — and last the sequential scan.  Every fast
search ranks through one kernel,
:func:`~repro.perf.engine.bounded_top_k`: the admission tier hands it
the whole pool, the measure's exact bound and the ids SQL admitted, so
every other candidate is bounded by 0.0 and only ``k`` candidates are
scored.  Pairwise scoring (and clustering, built on it) tries the pool,
then the cached scan, then the sequential scan.
A request's :class:`~repro.api.requests.ExecutionPolicy` chooses only the
mode (``auto`` or ``sequential``) and how many pool workers ``auto`` may
use; the store and its lock-retry schedule belong to the service.
The :class:`~repro.api.results.ExecutionDiagnostics` attached to every
response records which path actually ran.

Long-lived services keep their repositories *mutable*:
:meth:`SimilarityService.add_workflows` and
:meth:`SimilarityService.remove_workflows` update the corpus in place
with precise invalidation — only the profiles and fingerprint memos of
the affected workflows are dropped, while the value-keyed module-pair
score caches (the expensive part) survive and keep serving the remaining
corpus.  Results after any mutation sequence are bit-identical to a
fresh service over the same corpus; the API tests pin this.

State also outlives the process: a service opened with a ``cache_dir``
attaches a :class:`~repro.store.WorkflowStore`, warm-starting its
module-pair score caches from disk; when the persisted snapshot matches
the corpus, the store's postings answer ``BW``/``BT`` admission in SQL.
:meth:`SimilarityService.persist` writes the snapshot and scores back,
:meth:`SimilarityService.build_index` the snapshot and its postings;
``SimilarityService.open(cache_dir=...)`` with no corpus source
reopens the persisted snapshot directly and returns bit-identical
results to the service that wrote it — the warm-start tests pin this.

**Resilience.**  Every acceleration tier is optional: when the store,
its SQL admission, the process pool or the in-process batch faults
mid-request, the service falls to the next tier of the same list and
still answers, bit-identically, because every tier is pinned equivalent
to the sequential seed path.  A store that fails verification (on open
or mid-query) is *quarantined* to ``<cache_dir>/quarantine/<timestamp>/``
and rebuilt cold from the live repository — corrupted state is never
silently trusted and never fatal.  A store write that fails and is not
repaired leaves the store untrusted.
The :class:`~repro.api.results.ExecutionDiagnostics` of the affected
request records ``degraded``, ``degradation_reason`` and the
``retry_attempts`` spent on transient lock contention.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.framework import SimilarityFramework
from ..core.registry import all_configuration_names
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..perf.bounds import CertifiedBound, find_bound, find_frontier_bound
from ..perf.engine import AccelerationContext, PruneStats, bounded_top_k
from ..repository.repository import RepositoryStatistics, WorkflowRepository
from ..repository.search import SearchResultList, SimilaritySearchEngine
from ..store import (
    StoreCorruptionError,
    WorkflowStore,
    corpus_fingerprint,
    quarantine_store,
)
from ..store.inverted_index import InvertedAnnotationIndex
from ..store.resilience import is_locked_error
from ..store.sql_admission import SqlAdmissionPlanner
from ..store.workflow_store import SCHEMA_VERSION, STORE_FILENAME
from ..workflow.model import Workflow
from .requests import (
    ClusterRequest,
    ExecutionMode,
    PairwiseRequest,
    SearchRequest,
)
from .results import ExecutionDiagnostics, QueryResult, ResultSet, SearchHit

__all__ = ["SimilarityService"]


class SimilarityService:
    """Declarative similarity operations over one workflow repository."""

    def __init__(
        self,
        repository: WorkflowRepository,
        *,
        framework: SimilarityFramework | None = None,
        cache_dir: "str | Path | None" = None,
    ) -> None:
        self.repository = repository
        #: The execution layer.  Internal: requests should go through the
        #: service methods, which add routing, diagnostics and precise
        #: invalidation on top.
        self.engine = SimilaritySearchEngine(repository, framework)
        #: Summary of the most recent :meth:`remove_workflows` call.
        self.last_invalidation: dict[str, int] | None = None
        #: The attached persistent store, if any (see :meth:`attach_cache_dir`).
        self.store: WorkflowStore | None = None
        self._store_trusted = False
        #: Every quarantine/rebuild/degradation event of this service's
        #: lifetime, oldest first (dicts with at least an ``"event"`` key).
        self.degradation_log: list[dict[str, str]] = []
        #: Degradation events that happened outside a request (open-time
        #: recovery, persist-time recovery); drained into the *next*
        #: request's diagnostics so callers always see them.
        self._pending_degradations: list[str] = []
        #: Lock retries of stores that have since been closed/replaced
        #: (keeps :attr:`ExecutionDiagnostics.retry_attempts` monotonic
        #: across a mid-request store swap).
        self._retired_retries = 0
        self._fault_injector = None
        registry = get_registry()
        self._operations_counter = registry.counter(
            "repro_service_operations_total",
            "Service operations executed, by operation and execution path.",
            labels=("operation", "path"),
        )
        self._degraded_counter = registry.counter(
            "repro_service_degraded_total",
            "Operations that degraded down the resilience ladder.",
            labels=("operation",),
        )
        if cache_dir is not None:
            self.attach_cache_dir(cache_dir)

    @classmethod
    def open(
        cls,
        source: "WorkflowRepository | str | Path | None" = None,
        *,
        framework: SimilarityFramework | None = None,
        cache_dir: "str | Path | None" = None,
    ) -> "SimilarityService":
        """Open a service over a repository, a corpus file, or a cache dir.

        With only ``source``, behaves as before.  With only
        ``cache_dir``, the corpus is the persisted snapshot of that
        directory's :class:`~repro.store.WorkflowStore` — the warm-start
        path, bit-identical to the service that called
        :meth:`persist`.  With both, the corpus comes from ``source``
        and the store is attached for its caches (its postings only
        serve admission when the snapshot fingerprint matches the corpus).

        The store is verified before it is trusted.  A corrupted store,
        or one of another schema version, is quarantined; when its
        snapshot table is still intact the corpus is salvaged from it and
        the store rebuilt (the first request's diagnostics report the
        degradation, and name a store of another schema version by its
        version rather than as damage), otherwise a
        :exc:`~repro.store.StoreCorruptionError` explains how to rebuild
        from a corpus source.  Either way the corpus is the one that
        verification's payload-decode check decoded: each snapshot row
        is decoded once per open.  A sound store without a snapshot
        raises ``ValueError`` after closing it.
        """
        if source is None:
            if cache_dir is None:
                raise ValueError("open() needs a corpus source, a cache_dir, or both")
            store: WorkflowStore | None = None
            report = None
            reason = ""
            try:
                store = WorkflowStore(cache_dir)
                report = store.verify()
            except sqlite3.DatabaseError as error:
                if is_locked_error(error):
                    raise
                reason = str(error)
            if report is not None and report.ok:
                repository = report._snapshot
                if repository is None:
                    store.close()
                    raise ValueError(
                        f"no persisted repository snapshot in {str(cache_dir)!r}; "
                        "pass a corpus source or run persist()/`repro index build` first"
                    )
                service = cls(repository, framework=framework)
                service._adopt_store(store, trusted=True)
                return service
            # Corruption: quarantine, then salvage the snapshot if its
            # table (checksum + full payload decode) verified clean.
            salvaged = None
            if report is not None:
                reason = report.summary()
                salvaged = report._snapshot
            if store is not None:
                store.close()
            schema_reason = (
                _other_schema(report, "its verified snapshot") if salvaged is not None else None
            )
            quarantine_dir = quarantine_store(
                Path(cache_dir) / STORE_FILENAME, reason=schema_reason or reason
            )
            if salvaged is None:
                raise StoreCorruptionError(
                    f"persisted store in {str(cache_dir)!r} is corrupted ({reason}) "
                    "and its snapshot could not be salvaged; the damaged files were "
                    f"moved to {quarantine_dir}; rebuild by reopening with a corpus "
                    "source (SimilarityService.open(corpus, cache_dir=...)), "
                    "'repro store repair --corpus' or 'repro index build'",
                    report=report,
                )
            service = cls(salvaged, framework=framework)
            service._adopt_store(WorkflowStore.rebuild(cache_dir, salvaged), trusted=True)
            event = (
                f"persisted {schema_reason}; previous files quarantined to {quarantine_dir}"
                if schema_reason
                else f"persisted store failed verification ({reason}); snapshot salvaged, "
                f"damaged files quarantined to {quarantine_dir}, store rebuilt"
            )
            service.degradation_log.append(
                {"event": event, "quarantine": str(quarantine_dir)}
            )
            service._pending_degradations.append(event)
            return service
        repository = (
            source
            if isinstance(source, WorkflowRepository)
            else WorkflowRepository.load(source)
        )
        return cls(repository, framework=framework, cache_dir=cache_dir)

    # -- introspection -------------------------------------------------------

    @property
    def context(self) -> AccelerationContext:
        """The acceleration context whose lifecycle this service owns."""
        return self.engine.context

    def measures(self) -> list[str]:
        """All measure names of the paper's configuration sweep."""
        return all_configuration_names()

    def statistics(self) -> RepositoryStatistics:
        return self.repository.statistics()

    def warm(self) -> int:
        """Precompute every workflow profile; returns the module count."""
        return self.repository.profile_store.warm(self.repository.workflows())

    def __len__(self) -> int:
        return len(self.repository)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self.repository

    # -- persistence ---------------------------------------------------------

    def attach_cache_dir(self, cache_dir: "str | Path") -> None:
        """Attach a persistent warm-start store to this service.

        The store's persisted pair scores are loaded into the score
        caches immediately (always safe: entries are keyed by attribute
        values, not corpus membership).  The persisted postings answer
        admission only when the store's snapshot fingerprint matches the
        live corpus — a preselection over a *different* corpus would not
        be score-safe.

        The store is verified first; one that fails verification is
        quarantined and rebuilt cold from the live repository (recorded
        in :attr:`degradation_log` and the next request's diagnostics) —
        a corrupted cache can slow this service down but never poison
        it.  The store retries transient lock contention under its
        :attr:`~repro.store.WorkflowStore.retry` policy, which callers
        may replace (``service.store.retry = RetryPolicy(...)``).
        """
        store = self._open_store_resilient(cache_dir)
        trusted = store.fingerprint() == corpus_fingerprint(self.repository)
        self._adopt_store(store, trusted=trusted)

    def _open_store_resilient(self, cache_dir: "str | Path") -> WorkflowStore:
        """Open + verify a store; quarantine and rebuild it on corruption.

        Only callable with a live repository (the rebuild source).
        Transient lock errors propagate — they are contention, not
        corruption, and quarantining a healthy store over one would
        throw away good caches.
        """
        reason = ""
        schema_reason = None
        try:
            store = WorkflowStore(cache_dir)
        except sqlite3.DatabaseError as error:
            if is_locked_error(error):
                raise
            reason = str(error)
        else:
            report = store.verify()
            if report.ok:
                return store
            reason = report.summary()
            schema_reason = _other_schema(report, "the live corpus")
            store.close()
        quarantine_dir = quarantine_store(
            Path(cache_dir) / STORE_FILENAME, reason=schema_reason or reason
        )
        store = WorkflowStore.rebuild(cache_dir, self.repository)
        event = (
            f"persisted {schema_reason}; previous files quarantined to {quarantine_dir}"
            if schema_reason
            else f"persisted store failed verification ({reason}); damaged files "
            f"quarantined to {quarantine_dir}, store rebuilt from the live corpus"
        )
        self.degradation_log.append({"event": event, "quarantine": str(quarantine_dir)})
        self._pending_degradations.append(event)
        return store

    @property
    def store_trusted(self) -> bool:
        """Whether the attached store's snapshot matches the live corpus.

        Only a trusted store receives incremental write-through on
        corpus mutation and may answer admission from its postings; an
        untrusted one still contributes its (value-keyed, always-safe)
        pair scores.  :meth:`persist` and :meth:`build_index` establish
        trust by rewriting the snapshot; a store write that fails and is
        not repaired (see :meth:`add_workflows`) withdraws it.
        """
        return self.store is not None and self._store_trusted

    def _adopt_store(self, store: WorkflowStore, *, trusted: bool) -> None:
        if self.store is not None and self.store is not store:
            # Entries warm-loaded from the old store are not on the new
            # store's disk; re-mark them as new before switching.
            self.context.reset_warm_markers()
            self._retired_retries += self.store.retry_count
            self.store.close()
        self.store = store
        self._store_trusted = trusted
        store.fault_injector = self._fault_injector
        self.context.attach_store(store)

    def build_index(self) -> dict[str, int]:
        """Make the attached store's snapshot and postings match the live corpus.

        One transaction rewrites the snapshot together with its
        ``BW``/``BT`` token postings; from then on every store write
        keeps the postings in step, and ``AUTO`` requests for those
        measures route through score-safe candidate preselection in SQL.
        Requires an attached ``cache_dir`` (a storeless service answers
        ``BW``/``BT`` with the cached scan).  Returns the snapshot size
        and the distinct tokens and postings per field.
        """

        def build() -> dict[str, int]:
            self.store.save_repository(self.repository, postings=True)
            self._store_trusted = True
            return self.store.index_stats()

        return self._store_write(build)

    def persist(self) -> dict[str, int]:
        """Write the corpus snapshot and pair scores to the store.

        Requires an attached ``cache_dir``.  A service later opened via
        ``SimilarityService.open(cache_dir=...)`` warm-starts from this
        state and returns bit-identical results.  An indexed store's
        postings follow its snapshot.  Returns counters of what the
        store now holds.
        """
        return self._store_write(self._persist_once)

    def _store_write(self, write):
        """Run a store write; on corruption, quarantine, rebuild and retry once.

        A write that still fails leaves the store untrusted: it did not
        land, so the snapshot may no longer describe the live corpus.
        """
        if self.store is None:
            raise ValueError(
                "no cache_dir attached; open the service with cache_dir=... "
                "or call attach_cache_dir() first"
            )
        try:
            try:
                return write()
            except sqlite3.DatabaseError as error:
                if is_locked_error(error):
                    # Contention, not corruption: the transaction already
                    # rolled back and retried under the store's RetryPolicy;
                    # exhausting it is the caller's signal to back off.
                    event = (
                        f"store write contended ({error}); store no longer trusted "
                        "until persist() or build_index()"
                    )
                    self.degradation_log.append({"event": event, "fault": repr(error)})
                    self._pending_degradations.append(event)
                    raise
                # Corruption mid-write: quarantine + rebuild, then write
                # onto the fresh store (the in-memory caches are the source
                # of truth, so nothing is lost).
                self._pending_degradations.append(self._recover_store(error))
                if self.store is None:
                    raise
                return write()
        except BaseException:
            self._store_trusted = False
            raise

    def _persist_once(self) -> dict[str, int]:
        # Skip the snapshot rewrite when it is already current (the
        # common repeated-persist case would otherwise delete and
        # reinsert every row per call).
        if self.store.fingerprint() != corpus_fingerprint(self.repository):
            self.store.save_repository(self.repository)
        pair_scores = self.context.persist_scores(self.store)
        self._store_trusted = True
        return {
            "workflows": len(self.repository),
            "pair_scores": pair_scores,
            "postings": self.store.index_stats()["postings"],
        }

    def close(self) -> None:
        """Release the persistent store's connection (if attached).

        Idempotent — safe to call any number of times, including after a
        failed persist (the store's transactions roll back in a
        ``finally``, so no file lock can be left behind).  The
        acceleration context stops consulting the store too — later
        requests simply run with whatever is already cached.
        """
        if self.store is not None:
            self._retired_retries += self.store.retry_count
            self.context.detach_store()
            self.store.close()
            self.store = None
            self._store_trusted = False

    # -- incremental repository mutation -------------------------------------

    def add_workflows(
        self, workflows: Iterable[Workflow], *, replace: bool = False
    ) -> int:
        """Add workflows to the live corpus; returns the number added.

        New workflows are profiled lazily on first use — no cache rebuild
        happens.  With ``replace=True`` an existing workflow of the same
        identifier is removed first (with precise invalidation), so a
        *changed* workflow object can never be served stale derived data.
        A *trusted* attached store (see :attr:`store_trusted`) follows
        the mutation row by row — snapshot and postings stay in sync
        while value-keyed pair scores are untouched.  An untrusted store
        is never written through: its snapshot describes some other
        corpus, and upserting rows into it would persist a corpus that
        never existed.

        A write-through that fails never leaves a trusted store behind:
        corruption quarantines the store and rebuilds it from the live
        corpus, which holds the mutation (the next response reports it);
        lock contention beyond the store's retry policy propagates and
        leaves the store untrusted until :meth:`persist` or :meth:`build_index`.
        """
        added = 0
        for workflow in workflows:
            if replace and workflow.identifier in self.repository:
                self.remove_workflows([workflow.identifier])
            self.repository.add(workflow)
            if self.store_trusted:
                self._store_write(lambda: self.store.add_workflow(workflow))
            added += 1
        return added

    def remove_workflows(self, identifiers: Iterable[str]) -> list[str]:
        """Remove workflows and precisely invalidate their derived state.

        Drops the workflows' bound summaries, their projections and
        token sets cached by every measure instance, the workflow/module
        profiles (including profiles of preprocessed projections) and
        the per-profile fingerprint memos (see
        :meth:`SimilaritySearchEngine.invalidate_workflows`); the
        value-keyed pair-score caches are kept, so subsequent requests
        stay warm.  A *trusted* attached store drops the same
        rows (see :meth:`add_workflows` on why an untrusted store is
        left alone, and on a write-through that fails).  The removed
        workflows are invalidated even when their write-through raises.

        Identifiers not present in the repository are silently ignored —
        removal is idempotent, so replayed or queued removal requests
        cannot fail halfway.  Returns the identifiers *actually removed*
        in request order (an empty list when none matched); the
        invalidation counters of the removal are kept on
        :attr:`last_invalidation`.
        """
        requested = dict.fromkeys(str(identifier) for identifier in identifiers)
        removed = [identifier for identifier in requested if identifier in self.repository]
        for identifier in removed:
            self.repository.remove(identifier)
        try:
            for identifier in removed:
                if self.store_trusted:
                    self._store_write(lambda: self.store.remove_workflow(identifier))
        finally:
            summary = self.engine.invalidate_workflows(removed)
            summary["requested"] = len(requested)
            self.last_invalidation = summary
        return removed

    # -- request execution ---------------------------------------------------

    def search(self, request: "SearchRequest | Mapping[str, Any] | str") -> ResultSet:
        """Execute a top-``k`` search request; see :class:`SearchRequest`."""
        request = _coerce(request, SearchRequest)
        with get_tracer().span(
            "service.search",
            attributes={"measure": request.measure.name, "k": request.k},
        ) as span:
            return self._observe_operation(span, "search", self._search(request))

    def _search(self, request: SearchRequest) -> ResultSet:
        started = time.perf_counter()
        query_list = self._resolve(request.queries)
        candidates = (
            self._resolve(request.candidates) if request.candidates is not None else None
        )
        policy = request.policy
        mode, measure_name, k = policy.mode, request.measure.name, request.k
        engine = self.engine
        auto = mode is ExecutionMode.AUTO and candidates is None
        admission = self._admission(measure_name) if auto else None

        def indexed(stage) -> _Answer:
            planner = SqlAdmissionPlanner(self.store)
            instance = engine._accelerated_measure(measure_name)
            pool = self.repository.workflows()
            stats = PruneStats()
            results: list[SearchResultList] = []
            total = 0
            for query in query_list:
                tokens = InvertedAnnotationIndex.workflow_tokens(admission.postings, query)
                admitted = planner.admitted(admission.postings, tokens)
                admitted.discard(query.identifier)
                total += len(admitted)
                ranked = bounded_top_k(
                    query, pool, instance, self.context,
                    k=k, stats=stats, bound=admission, admitted=admitted,
                )
                results.append(engine._result_list(query.identifier, instance.name, ranked))
            stage.set_attribute("candidates", total)
            return _Answer(
                results,
                "sql-indexed",
                notes=(f"candidates admitted by bound {admission.name!r} (sql pushdown)",),
                prune=stats.as_dict(),
                index_candidates=total,
            )

        def batch(stage) -> _Answer:
            stats = PruneStats()
            results = engine.serial_batch(
                query_list, measure_name, k=k, candidates=candidates, stats=stats
            )
            if stage.recording:
                stage.set_attributes(stats.as_dict())
            frontier = find_frontier_bound(engine._accelerated_measure(measure_name), self.context)
            if frontier is None:
                return _Answer(results, "cached", prune=stats.as_dict())
            notes = (f"frontier pruning certified by bound {frontier.name!r}",)
            return _Answer(results, "pruned", notes=notes, prune=stats.as_dict())

        def sequential(stage) -> _Answer:
            return _Answer(
                [engine.search(query, measure_name, k=k, candidates=candidates) for query in query_list],
                "sequential",
            )

        notes: list[str] = []
        tiers: list[_Tier] = []
        size = {"queries": len(query_list)}
        if mode is not ExecutionMode.SEQUENTIAL:
            if admission is not None and self._sql_admission_ready():
                attributes = {"bound": admission.name, "tier": "sql"}
                tiers.append(
                    _Tier("sql admission tier", "engine.preselect", indexed, attributes, seam="sql")
                )
            tiers += _pool_tiers(
                policy,
                candidates is None and len(query_list) > 1,
                "needs >1 query and no candidate restriction",
                notes,
                lambda workers: engine.parallel_batch(
                    query_list, measure_name, k=k, workers=workers
                ),
            )
            tiers.append(_Tier("accelerated batch", "engine.scan", batch, size))
        tiers.append(_Tier("sequential exact scan", "engine.sequential", sequential, size))
        results, diagnostics = self._ladder(tiers, mode, started, notes)
        return ResultSet(
            kind="search",
            queries=tuple(_query_result(result) for result in results),
            diagnostics=diagnostics,
        )

    def pairwise(self, request: "PairwiseRequest | Mapping[str, Any] | str") -> ResultSet:
        """Score every unordered pair; see :class:`PairwiseRequest`."""
        request = _coerce(request, PairwiseRequest)
        with get_tracer().span(
            "service.pairwise", attributes={"measure": request.measure.name}
        ) as span:
            return self._observe_operation(span, "pairwise", self._pairwise(request))

    def _pairwise(self, request: PairwiseRequest) -> ResultSet:
        started = time.perf_counter()
        pool = self._resolve(request.workflows)
        policy = request.policy
        measure_name, engine = request.measure.name, self.engine

        def scan(stage) -> _Answer:
            return _Answer(engine.pairwise_similarity(measure_name, workflows=pool), "cached")

        def sequential(stage) -> _Answer:
            scores = engine.pairwise_similarity(measure_name, workflows=pool, accelerate=False)
            return _Answer(scores, "sequential")

        size = {"workflows": len(pool)}
        notes: list[str] = []
        tiers: list[_Tier] = []
        if policy.mode is not ExecutionMode.SEQUENTIAL:
            tiers += _pool_tiers(
                policy,
                request.workflows is None,
                "pairwise pooling requires the whole repository",
                notes,
                lambda workers: engine.parallel_pairwise_scores(pool, measure_name, workers=workers),
            )
            tiers.append(_Tier("accelerated scan", "engine.scan", scan, size))
        tiers.append(_Tier("sequential exact scan", "engine.sequential", sequential, size))
        similarities, diagnostics = self._ladder(tiers, policy.mode, started, notes)
        pairs = tuple(
            (first.identifier, second.identifier, similarities[(first.identifier, second.identifier)])
            for i, first in enumerate(pool)
            for second in pool[i + 1:]
        )
        return ResultSet(kind="pairwise", pairs=pairs, diagnostics=diagnostics)

    def cluster(self, request: "ClusterRequest | Mapping[str, Any] | str") -> ResultSet:
        """Cluster the similarity graph; see :class:`ClusterRequest`."""
        request = _coerce(request, ClusterRequest)
        with get_tracer().span(
            "service.cluster",
            attributes={
                "measure": request.measure.name,
                "linkage": request.linkage,
            },
        ) as span:
            return self._observe_operation(span, "cluster", self._cluster(request))

    def _cluster(self, request: ClusterRequest) -> ResultSet:
        started = time.perf_counter()
        from ..repository.clustering import agglomerative_clusters, threshold_clusters

        pairwise = self.pairwise(
            PairwiseRequest(
                measure=request.measure,
                workflows=request.workflows,
                policy=request.policy,
            )
        )
        pool = self._resolve(request.workflows)
        similarities = pairwise.pair_scores()
        # With similarities precomputed the clustering helpers never
        # invoke the measure; resolve it only to satisfy their signature.
        instance = self.engine.framework.measure(request.measure.name)
        if request.linkage == "average":
            clusters = agglomerative_clusters(
                pool, instance, threshold=request.threshold, similarities=similarities
            )
        else:
            clusters = threshold_clusters(
                pool, instance, threshold=request.threshold, similarities=similarities
            )
        diagnostics = pairwise.diagnostics
        assert diagnostics is not None
        diagnostics.seconds = time.perf_counter() - started
        return ResultSet(
            kind="cluster",
            clusters=tuple(tuple(sorted(cluster)) for cluster in clusters),
            diagnostics=diagnostics,
        )

    # -- helpers -------------------------------------------------------------

    def _ladder(
        self,
        tiers: "Sequence[_Tier]",
        mode: ExecutionMode,
        started: float,
        notes: list[str],
    ) -> "tuple[Any, ExecutionDiagnostics]":
        """Walk ``tiers`` in order and return the first answer with its diagnostics.

        The degradation policy of every operation lives here.  Each tier
        but the last fires its fault seam and runs inside its span; a
        fault is caught, named in ``notes`` (the first one also in
        ``degradation_reason``) and, when it is a store fault, parked
        for the resilience epilogue, and the next tier runs.  Every tier
        is bit-identical to the next, so a fault costs time, never
        correctness.  A tier that returns ``None`` cannot take the
        request after all (no process pool) and hands over too.  The
        last tier, the sequential exact scan, touches no store and no
        pool and runs outside any ``try``: its errors are the request's
        own (unknown measure, bad ``k``).
        """
        warm_hits_before = self.context.warm_hits_total()
        retry_before = self._retry_total()
        tracer = get_tracer()
        degraded = False
        reason: str | None = None
        answer: _Answer | None = None
        for tier, fallback in zip(tiers, tiers[1:]):
            try:
                if tier.seam is not None:
                    self._fire_fault(tier.seam)
                with tracer.span(tier.span, attributes=tier.attributes) as stage:
                    answer = tier.run(stage)
            except Exception as error:
                answer = None
                degraded = True
                reason = reason or f"{tier.name} failed ({type(error).__name__}: {error})"
                notes.append(f"{tier.name} faulted; fell back to the {fallback.name}")
                if isinstance(error, sqlite3.DatabaseError) and self.context.store_fault is None:
                    # A store-level fault: the epilogue keeps the store on
                    # contention and quarantines and rebuilds it on
                    # corruption, like any other store read.
                    self.context.store_fault = error
                continue
            if answer is not None:
                break
            notes.append(f"{tier.name} unavailable; fell back to the {fallback.name}")
        if answer is None:
            last = tiers[-1]
            with tracer.span(last.span, attributes=last.attributes) as stage:
                answer = last.run(stage)
        notes.extend(answer.notes)
        epilogue_degraded, epilogue_reason = self._resilience_epilogue(notes)
        return answer.value, ExecutionDiagnostics(
            path=answer.path,
            requested_mode=mode.value,
            seconds=time.perf_counter() - started,
            workers=answer.workers,
            prune=answer.prune,
            # Cache counters are attached on every path (including the
            # sequential reference scan, which does not consult them but
            # whose diagnostics should still show the caches' state).
            caches=self.context.cache_stats(),
            index_candidates=answer.index_candidates,
            cache_warm_hits=self.context.warm_hits_total() - warm_hits_before,
            degraded=degraded or epilogue_degraded,
            degradation_reason=reason or epilogue_reason,
            retry_attempts=max(0, self._retry_total() - retry_before),
            notes=tuple(notes),
        )

    def _admission(self, measure_name: str) -> CertifiedBound | None:
        """The measure's bound when store postings certify its zeros
        (``BW``/``BT``; see :attr:`CertifiedBound.postings
        <repro.perf.bounds.CertifiedBound.postings>`)."""
        try:
            bound = find_bound(self.engine._accelerated_measure(measure_name), self.context)
        except Exception:
            # Real configuration errors (unknown measure) re-raise
            # identically from the later tiers.
            return None
        return bound if bound is not None and bound.postings is not None else None

    def _observe_operation(self, span, operation: str, result: ResultSet) -> ResultSet:
        """Stamp the operation span + registry counters onto a result.

        Purely observational: mutates only diagnostics (excluded from
        result equality) and process-wide instruments, never the payload.
        """
        diagnostics = result.diagnostics
        if diagnostics is None:
            return result
        if span.recording:
            diagnostics.trace_id = span.trace_id
            span.set_attributes(
                {"path": diagnostics.path, "degraded": diagnostics.degraded}
            )
            if diagnostics.degradation_reason:
                span.set_attribute("reason", diagnostics.degradation_reason)
        self._operations_counter.inc(operation=operation, path=diagnostics.path)
        if diagnostics.degraded:
            self._degraded_counter.inc(operation=operation)
        return result

    def _resolve(self, identifiers: Sequence[str] | None) -> list[Workflow]:
        if identifiers is None:
            return self.repository.workflows()
        return [self.repository.get(identifier) for identifier in identifiers]

    # -- resilience ----------------------------------------------------------

    @property
    def fault_injector(self):
        """Optional :class:`~repro.store.FaultInjector` for chaos tests.

        Fired at the ``"sql"`` and ``"parallel"`` tier seams of this
        service and propagated to the attached store (which fires it at
        ``"commit"`` and ``"load"``).  ``None`` in production.
        """
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        if self.store is not None:
            self.store.fault_injector = injector

    def _fire_fault(self, event: str) -> None:
        if self._fault_injector is not None:
            self._fault_injector.fire(event, service=self)

    def _retry_total(self) -> int:
        """Lifetime lock-retry count across every store this service had."""
        total = self._retired_retries
        if self.store is not None:
            total += self.store.retry_count
        return total

    def _resilience_epilogue(self, notes: list[str]) -> tuple[bool, str | None]:
        """Fold store faults + pending recoveries into this request.

        Runs after the results are computed (they are exact regardless —
        a faulting store only means colder caches).  A store fault
        parked by the acceleration context is consumed here: transient
        lock contention keeps the store; anything else quarantines and
        rebuilds it.  Open-/persist-time recovery events that have not
        yet been reported are drained into this request's notes.
        Returns ``(degraded, first_reason)``.
        """
        degraded = False
        reason: str | None = None
        fault = self.context.store_fault
        if fault is not None:
            self.context.store_fault = None
            if is_locked_error(fault) and self.store is not None:
                # Contention is transient: keep the store (the context
                # detached it when the load faulted) and re-attach.
                self.context.attach_store(self.store)
                event = (
                    f"store read contended ({fault}); "
                    "request served from in-process caches"
                )
                self.degradation_log.append({"event": event, "fault": repr(fault)})
            else:
                event = self._recover_store(fault)
            degraded = True
            reason = event
            notes.append(event)
        for event in self._pending_degradations:
            degraded = True
            if reason is None:
                reason = event
            notes.append(event)
        self._pending_degradations.clear()
        return degraded, reason

    def _recover_store(self, fault: BaseException) -> str:
        """Quarantine the attached store; rebuild it from the live corpus.

        Never raises — when even the rebuild fails the service simply
        continues storeless (exact results, cold caches).  Returns the
        human-readable degradation event, also kept in
        :attr:`degradation_log`.
        """
        if self.store is None:
            return f"store fault ({fault}); no store attached"
        store = self.store
        directory, path, retry = store.directory, store.path, store.retry
        self._retired_retries += store.retry_count
        self.context.detach_store()
        # Warm-loaded entries only exist on the quarantined file's disk;
        # re-mark them as new so the rebuilt store receives everything
        # on the next persist().
        self.context.reset_warm_markers()
        store.close()
        self.store = None
        self._store_trusted = False
        try:
            quarantine_dir = quarantine_store(path, reason=str(fault))
        except OSError as error:
            event = (
                f"store fault ({fault}); quarantine failed ({error}); "
                "continuing without a store"
            )
            self.degradation_log.append({"event": event, "fault": repr(fault)})
            return event
        try:
            rebuilt = WorkflowStore.rebuild(directory, self.repository, retry=retry)
        except Exception as error:
            event = (
                f"store fault ({fault}); damaged files quarantined to "
                f"{quarantine_dir}; rebuild failed ({error}); "
                "continuing without a store"
            )
            self.degradation_log.append(
                {"event": event, "fault": repr(fault), "quarantine": str(quarantine_dir)}
            )
            return event
        rebuilt.fault_injector = self._fault_injector
        self.store = rebuilt
        self._store_trusted = True
        self.context.attach_store(rebuilt)
        event = (
            f"store fault ({fault}); damaged files quarantined to "
            f"{quarantine_dir}; store rebuilt from the live repository"
        )
        self.degradation_log.append(
            {"event": event, "fault": repr(fault), "quarantine": str(quarantine_dir)}
        )
        return event

    def _sql_admission_ready(self) -> bool:
        """Whether a trusted, indexed store can answer admission in SQL."""
        if self.store is None or not self._store_trusted:
            return False
        try:
            return self.store.has_postings()
        except Exception:
            # An unreadable store is simply not a tier; the resilience
            # epilogue handles it once a real read faults.
            return False


@dataclass(frozen=True)
class _Tier:
    """One rung of the degradation ladder (see :meth:`SimilarityService._ladder`).

    ``name`` appears in fallback notes and the degradation reason;
    ``span`` and ``attributes`` describe the tracing span the tier runs
    in, and ``seam`` the fault-injection event fired before it.  ``run``
    receives the open span and returns an :class:`_Answer`, or ``None``
    when the tier cannot take the request after all.
    """

    name: str
    span: str
    run: Callable[[Any], "_Answer | None"]
    attributes: Mapping[str, Any]
    seam: str | None = None


@dataclass(frozen=True)
class _Answer:
    """A tier's payload and the diagnostics fields that tier decides."""

    value: Any
    path: str
    notes: tuple[str, ...] = ()
    workers: int | None = None
    prune: dict[str, Any] | None = None
    index_candidates: int | None = None


def _pool_tiers(policy, eligible: bool, requirement: str, notes: list[str], run) -> list[_Tier]:
    """The process-pool tier, when the policy grants more than one worker
    and the request fits.

    A request the pool cannot take says why in ``notes``.
    ``run(workers)`` returns the pool's payload, or ``None`` when no
    pool can be created here.
    """
    workers = policy.workers or 1
    if workers < 2:
        return []
    if not eligible:
        notes.append(f"request not pool-eligible ({requirement}); used the in-process path")
        return []

    def pooled(stage) -> "_Answer | None":
        value = run(workers)
        return None if value is None else _Answer(value, "parallel", workers=workers)

    return [_Tier("parallel tier", "engine.parallel", pooled, {"workers": workers}, seam="parallel")]


def _other_schema(report, source: str) -> str | None:
    """Why a store written at another schema version is rebuilt from
    ``source``: that version, then any other check it failed.  ``None``
    for a store of this build's version, whose failures are damage."""
    if report is None or report.other_schema is None:
        return None
    reason = (
        f"store written at schema version {report.other_schema} (this build "
        f"reads {SCHEMA_VERSION}); rebuilt from {source}"
    )
    others = [
        problem for problem in report.problems if not problem.startswith("meta: schema version")
    ]
    return f"{reason}; other failed checks: {'; '.join(others)}" if others else reason


def _query_result(result: SearchResultList) -> QueryResult:
    return QueryResult(
        query_id=result.query_id,
        measure=result.measure,
        hits=tuple(
            SearchHit(workflow_id=hit.workflow_id, similarity=hit.similarity, rank=hit.rank)
            for hit in result.results
        ),
    )


def _coerce(request, request_class):
    if isinstance(request, request_class):
        return request
    if isinstance(request, str):
        return request_class.from_json(request)
    if isinstance(request, Mapping):
        return request_class.from_dict(request)
    raise TypeError(
        f"expected {request_class.__name__}, a mapping, or a JSON string; "
        f"got {type(request).__name__}"
    )
