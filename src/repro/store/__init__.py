"""Persistent warm-start store: one SQLite file per cache directory.

The durable structures behind :class:`repro.api.SimilarityService`'s
``cache_dir`` support:

* :class:`WorkflowStore` — a SQLite file persisting the corpus snapshot
  (in pool order), the value-fingerprint-keyed module-pair score caches
  of :mod:`repro.perf`, and the annotation token postings derived from
  the snapshot, so a service reopened over the same directory
  warm-starts bit-identically to the process that wrote it;
* :class:`SqlAdmissionPlanner` — resolves the ``BW``/``BT`` admission
  bound against those postings inside SQLite, a provably score-safe
  sublinear candidate preselection;
* :class:`InvertedAnnotationIndex` — the postings' token fields and the
  tokenisation the store and the admission bound share.

Typical lifecycle::

    service = SimilarityService.open("corpus.json", cache_dir="cache/")
    service.build_index()      # snapshot + postings to disk
    service.search(SearchRequest(measure="MS_ip_te_pll", k=10))
    service.persist()          # pair scores (and any snapshot change)

    # later, in a fresh process:
    warm = SimilarityService.open(cache_dir="cache/")
    warm.search(...)           # bit-identical results, warm caches
"""

from .faults import FaultInjector
from .inverted_index import InvertedAnnotationIndex
from .layout import (
    discover_tenants,
    tenant_cache_dir,
    tenant_store_exists,
    validate_tenant_name,
)
from .resilience import (
    RetryPolicy,
    StoreCorruptionError,
    StoreVerification,
    quarantine_store,
)
from .sql_admission import SqlAdmissionPlanner
from .workflow_store import WorkflowStore, corpus_fingerprint

__all__ = [
    "FaultInjector",
    "InvertedAnnotationIndex",
    "RetryPolicy",
    "SqlAdmissionPlanner",
    "StoreCorruptionError",
    "StoreVerification",
    "WorkflowStore",
    "corpus_fingerprint",
    "discover_tenants",
    "quarantine_store",
    "tenant_cache_dir",
    "tenant_store_exists",
    "validate_tenant_name",
]
