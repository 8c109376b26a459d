"""Per-layer tracing for the benchmark's traced runs.

Timing wrappers are installed around the public calls into each layer
(monkeypatched onto the classes, so the program's own code is untouched).
Each wrapper records one span — name, parent, start, end and a few
attributes — into an in-memory :class:`Recorder` that is written out once,
at the end of the run.  The parent of a span is the wrapper span active
when it began, tracked in a :class:`contextvars.ContextVar` owned by this
module; ``TenantRuntime.run`` already runs its callable inside a copy of
the submitting context, so parentage survives the executor hop.

A span's self time is its duration minus the durations of its child
spans.  :func:`layer_metrics` turns the spans (plus figures the caller
measured itself) into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

from common import LIGHT_MEASURES, MS, median

_CURRENT: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Service operations whose responses carry execution diagnostics.
SERVICE_OPS = ("api.service.search", "api.service.pairwise", "api.service.cluster")


class Recorder:
    """Spans kept in memory: ``[id, parent, name, start, end, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        #: While False, wrappers pass straight through (untraced passes).
        self.active = True

    def begin(self) -> "tuple[int, int | None, contextvars.Token]":
        span_id = next(self._ids)
        return span_id, _CURRENT.get(), _CURRENT.set(span_id)

    def end(self, span_id, parent, token, name, start, attrs=None) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append([span_id, parent, name, start, end, attrs])

    def leaf(self, name, start) -> None:
        """A span with no children, recorded after the fact."""
        self.spans.append([next(self._ids), _CURRENT.get(), name, start, time.perf_counter(), None])

    def dump(self, path: Path, **extra) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, **extra}))


def _service_attrs(service, args, result) -> dict:
    """What the per-layer metrics need from one service response."""
    diagnostics = result.diagnostics
    request = args[0] if args else None
    measure = getattr(getattr(request, "measure", None), "name", None)
    queries = getattr(request, "queries", None)
    return {
        "service": id(service),
        "measure": measure,
        "queries": len(queries) if queries is not None else len(service),
        "corpus": len(service),
        "path": diagnostics.path,
        "degraded": diagnostics.degraded,
        "prune": diagnostics.prune,
        "index_candidates": diagnostics.index_candidates,
        "warm_hits": diagnostics.cache_warm_hits or 0,
        "caches": [
            [entry.get("hits", 0), entry.get("misses", 0), entry.get("entries", 0)]
            for entry in diagnostics.caches
        ],
    }


class Wrappers:
    """Installs (and removes) the timing wrappers of every layer."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._originals: list = []

    # -- generic wrappers ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def sync(self, owner, attr: str, name: str, attrs=None) -> None:
        original = owner.__dict__[attr]
        static = isinstance(original, (classmethod, staticmethod))
        fn = original.__func__ if static else original
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span_id, parent, token = recorder.begin()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = attrs(args, kwargs, result) if attrs and result is not None else None
                recorder.end(span_id, parent, token, name, start, extra)

        self._patch(owner, attr, type(original)(wrapper) if static else wrapper)

    def async_(self, owner, attr: str, name: str, attrs=None) -> None:
        fn = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not recorder.active:
                return await fn(*args, **kwargs)
            span_id, parent, token = recorder.begin()
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                extra = attrs(args, kwargs) if attrs else None
                recorder.end(span_id, parent, token, name, start, extra)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- the layers ----------------------------------------------------------

    def install(self) -> "Wrappers":
        from repro.api import results, service
        from repro.perf import profiles
        from repro.repository import search
        from repro.store import sql_admission, workflow_store

        Service = service.SimilarityService
        for op in ("search", "pairwise", "cluster"):
            self.sync(
                Service,
                op,
                f"api.service.{op}",
                lambda args, kwargs, result: _service_attrs(args[0], args[1:], result),
            )
        for op in ("add_workflows", "remove_workflows", "persist", "open"):
            self.sync(Service, op, f"api.service.{op}")
        self.sync(results.ResultSet, "to_dict", "api.results.to_dict")
        self.sync(
            search.SimilaritySearchEngine,
            "serial_batch",
            "perf.engine.scan",
            lambda args, kwargs, result: {"queries": len(args[1])},
        )
        self.sync(search.SimilaritySearchEngine, "pairwise_similarity", "perf.engine.pairwise")
        # The indexed tiers call the top-k kernel directly, not serial_batch.
        self.sync(service, "bounded_top_k", "perf.engine.topk")
        self._wrap_profile_misses(profiles.ProfileStore)
        Store = workflow_store.WorkflowStore
        self.sync(Store, "__init__", "store.open.init")
        self.sync(Store, "verify", "store.open.verify")
        self.sync(Store, "load_repository", "store.open.load")
        self.sync(Store, "add_workflow", "store.write")
        self.sync(Store, "remove_workflow", "store.write")
        self.sync(sql_admission.SqlAdmissionPlanner, "admitted", "store.sql_admission.admitted")
        return self

    def install_serve(self) -> "Wrappers":
        from repro.serve import batcher, tenants

        self.install()
        self.async_(
            batcher.MicroBatcher,
            "submit",
            "serve.batcher.submit",
            lambda args, kwargs: {"measure": args[2].measure.name},
        )
        self.async_(tenants.TenantManager, "get", "serve.tenants.get")
        self._wrap_tenant_run(tenants.TenantRuntime)
        return self

    def _wrap_profile_misses(self, ProfileStore) -> None:
        """Record ``workflow_profile`` only when it had to build profiles
        (the module-profile count grew); hits cost a dict lookup."""
        fn = ProfileStore.__dict__["workflow_profile"]
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(store, workflow):
            if not recorder.active:
                return fn(store, workflow)
            before = len(store)
            start = time.perf_counter()
            profile = fn(store, workflow)
            if len(store) != before:
                recorder.leaf("perf.profiles.build", start)
            return profile

        self._patch(ProfileStore, "workflow_profile", wrapper)

    def _wrap_tenant_run(self, TenantRuntime) -> None:
        """``run`` is the queue hop: its span starts at the call, a child
        ``serve.tenants.fn`` span covers the callable on the worker thread."""
        fn = TenantRuntime.__dict__["run"]
        recorder = self.recorder

        @functools.wraps(fn)
        async def wrapper(runtime, call):
            if not recorder.active:
                return await fn(runtime, call)
            span_id, parent, token = recorder.begin()
            start = time.perf_counter()

            def timed():
                inner_id, inner_parent, inner_token = recorder.begin()
                inner_start = time.perf_counter()
                try:
                    return call()
                finally:
                    recorder.end(inner_id, inner_parent, inner_token, "serve.tenants.fn", inner_start)

            try:
                return await fn(runtime, timed)
            finally:
                recorder.end(span_id, parent, token, "serve.tenants.run", start)

        self._patch(TenantRuntime, "run", wrapper)


# -- aggregation ---------------------------------------------------------------


def self_times(spans) -> "dict[int, float]":
    covered: "dict[int, float]" = defaultdict(float)
    for _id, parent, _name, start, end, _attrs in spans:
        if parent is not None:
            covered[parent] += end - start
    return {
        span[0]: max(0.0, (span[4] - span[3]) - covered.get(span[0], 0.0)) for span in spans
    }


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(spans, ops: int) -> "dict[str, float]":
    """Per-layer metrics of the spans of ``ops`` measured operations.

    Times are per call unless the metric says otherwise; counts are per
    operation.  Serving-layer figures are added by the serve workload; a
    metric no span feeds is left out (``run.py`` reports it as 0).
    """
    metrics: "dict[str, float]" = defaultdict(float)
    by_name: "dict[str, list]" = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    names = {span[0]: span[2] for span in spans}
    own = self_times(spans)

    service_spans = [span for name in SERVICE_OPS for span in by_name[name]]
    # A cluster's nested pairwise is not a response of its own.
    responses = [
        span for span in service_spans if names.get(span[1]) not in SERVICE_OPS and span[5]
    ]
    for span in responses:
        metrics[f"api.service.path.{span[5]['path']}"] += 1
        metrics["api.service.degraded"] += bool(span[5]["degraded"])
    metrics["api.service.self_ms"] = _mean(
        sum(own[span[0]] for span in service_spans) * 1000.0, len(responses)
    )

    searches = [span[5] for span in by_name["api.service.search"] if span[5]]
    queries = sum(attrs["queries"] for attrs in searches)
    prune = defaultdict(int)
    for attrs in searches:
        for key, value in (attrs["prune"] or {}).items():
            if isinstance(value, int):
                prune[key] += value
    metrics["perf.engine.candidates"] = _mean(prune["candidates"], queries)
    metrics["perf.engine.exact_comparisons"] = _mean(prune["exact_comparisons"], queries)
    metrics["perf.engine.banded_calls"] = _mean(prune["banded_calls"], queries)
    metrics["perf.engine.pruned_ratio"] = _mean(
        prune["pruned_char_bag"] + prune["pruned_banded"], prune["candidates"]
    )
    for label, measures in (("BW", LIGHT_MEASURES), ("MS", (MS,))):
        admitted = [
            attrs for attrs in searches
            if attrs["measure"] in measures and attrs["index_candidates"] is not None
        ]
        metrics[f"perf.bounds.admitted_ratio.{label}"] = _mean(
            sum(attrs["index_candidates"] for attrs in admitted),
            sum(attrs["queries"] * attrs["corpus"] for attrs in admitted),
        )
    scanned = sum(span[5]["queries"] for span in by_name["perf.engine.scan"] if span[5])
    scan_seconds = sum(span[4] - span[3] for span in by_name["perf.engine.scan"])
    topk = by_name["perf.engine.topk"]
    metrics["perf.engine.scan_ms"] = _mean(
        (scan_seconds + sum(span[4] - span[3] for span in topk)) * 1000.0, scanned + len(topk)
    )
    pairwise = by_name["perf.engine.pairwise"]
    metrics["perf.engine.pairwise_ms"] = _mean(
        sum(span[4] - span[3] for span in pairwise) * 1000.0, len(pairwise)
    )

    # Cache counters are cumulative per service: take each service's last.
    last_caches: "dict[int, list]" = {}
    for span in sorted(responses, key=lambda span: span[4]):
        last_caches[span[5]["service"]] = span[5]["caches"]
    hits = sum(entry[0] for caches in last_caches.values() for entry in caches)
    lookups = hits + sum(entry[1] for caches in last_caches.values() for entry in caches)
    metrics["perf.cache.hit_rate"] = _mean(hits, lookups)
    metrics["perf.cache.entries"] = _mean(
        sum(entry[2] for caches in last_caches.values() for entry in caches), len(last_caches)
    )
    metrics["perf.cache.warm_hits"] = _mean(
        sum(span[5]["warm_hits"] for span in responses), ops
    )
    metrics["perf.profiles.build_ms"] = _mean(
        sum(span[4] - span[3] for span in by_name["perf.profiles.build"]) * 1000.0, ops
    )

    writes = [span[4] - span[3] for span in by_name["store.write"]]
    if writes:
        metrics["store.workflow_store.write_ms"] = median(writes) * 1000.0
    persists = by_name["api.service.persist"]
    metrics["store.workflow_store.persist_ms"] = _mean(
        sum(span[4] - span[3] for span in persists) * 1000.0, len(persists)
    )
    opens = store_open_seconds(spans)
    if opens:
        metrics["store.workflow_store.open_ms"] = median(opens) * 1000.0
    admits = by_name["store.sql_admission.admitted"]
    metrics["store.sql_admission.admit_ms"] = _mean(
        sum(span[4] - span[3] for span in admits) * 1000.0, len(admits)
    )
    metrics["store.sql_admission.calls"] = _mean(len(admits), ops)
    encodes = by_name["api.results.to_dict"]
    metrics["api.results.encode_ms"] = _mean(
        sum(span[4] - span[3] for span in encodes) * 1000.0, len(encodes)
    )
    return dict(metrics)


def store_open_seconds(spans) -> "list[float]":
    """Store time of each service open: ``WorkflowStore(...)`` plus
    ``verify`` plus ``load_repository`` under one ``open`` span."""
    opened: "dict[int, float]" = defaultdict(float)
    names = {span[0]: span[2] for span in spans}
    parents = {span[0]: span[1] for span in spans}
    for span in spans:
        if not span[2].startswith("store.open."):
            continue
        ancestor = span[1]
        while ancestor is not None and names.get(ancestor) != "api.service.open":
            ancestor = parents.get(ancestor)
        if ancestor is not None:
            opened[ancestor] += span[4] - span[3]
    return list(opened.values())


def coverage(spans, wall: float) -> "tuple[float, dict[str, float]]":
    """Share of ``wall`` inside any wrapper, and self seconds per layer."""
    own = self_times(spans)
    per_layer: "dict[str, float]" = defaultdict(float)
    for span in spans:
        per_layer[_layer(span[2])] += own[span[0]]
    return _mean(sum(per_layer.values()), wall), dict(per_layer)


def _layer(name: str) -> str:
    if name.startswith("store.sql_admission"):
        return "store.sql_admission"
    if name.startswith("store."):
        return "store.workflow_store"
    if name == "perf.profiles.build":
        return "perf.profiles"
    return ".".join(name.split(".")[:2])
