"""Async multi-tenant serving layer over the :mod:`repro.api` facade.

One :class:`SimilarityServer` serves many tenants from one serving root:
each tenant is a subdirectory holding its own persisted
:class:`~repro.store.WorkflowStore`, opened lazily as a
:class:`~repro.api.SimilarityService` confined to its own worker thread
(LRU-bounded, quarantine-aware).  A search on an idle tenant runs at
once; same-spec searches that arrive while the tenant is busy are folded
into its next engine batch by the :class:`MicroBatcher` — bit-identical
to per-request execution, pinned by tests and the ``BENCH_serve.json``
equivalence gate.  Admission control answers 429 with ``Retry-After``
once a tenant's in-flight cap is hit, and ``GET /v1/{tenant}/stats``
reports QPS, latency percentiles, the batch fold factor and degradation
counts.

Typical lifecycle::

    repro index build corpus.json --cache-dir serve-root/acme
    repro serve --root serve-root --port 8340

    curl -XPOST localhost:8340/v1/acme/search \\
         -d '{"measure": {"name": "MS_ip_te_pll"}, "k": 10}'
"""

from .admission import AdmissionController
from .batcher import MicroBatcher, fold_key, fold_search_requests, is_foldable
from .client import ServeClient
from .config import ServeConfig
from .metrics import ServingMetrics, TenantMetrics
from .server import SimilarityServer, check_server, run_server
from .tenants import (
    TenantManager,
    TenantRuntime,
    TenantUnavailableError,
    UnknownTenantError,
)

__all__ = [
    "AdmissionController",
    "MicroBatcher",
    "ServeClient",
    "ServeConfig",
    "ServingMetrics",
    "SimilarityServer",
    "TenantManager",
    "TenantMetrics",
    "TenantRuntime",
    "TenantUnavailableError",
    "UnknownTenantError",
    "check_server",
    "fold_key",
    "fold_search_requests",
    "is_foldable",
    "run_server",
]
