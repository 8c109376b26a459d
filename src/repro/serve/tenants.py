"""Tenant lifecycle: lazy, LRU-bounded, thread-confined services.

Each tenant of the serving root maps to its own
:class:`~repro.api.SimilarityService` opened over
``<root>/<tenant>/`` — its own corpus snapshot, warm-start store,
quarantine directory, everything.  Two properties drive the design:

* **Thread confinement.**  A tenant's :class:`~repro.store.WorkflowStore`
  holds a SQLite connection bound to the thread that created it, and the
  engine's caches are not thread-safe.  Every tenant therefore owns one
  single-thread executor: the service is *opened* on that thread and
  every request for the tenant *runs* on it, serializing the tenant's
  engine work while the event loop stays free for admission control,
  batching and other tenants.  Different tenants run on different
  threads and never share mutable state.

* **Resilience inheritance.**  Opening goes through
  ``SimilarityService.open(cache_dir=...)``, so the store's whole
  quarantine-and-rebuild ladder applies per tenant: a corrupt-but-
  salvageable store is quarantined and rebuilt transparently (the first
  response's diagnostics say so), an unsalvageable one, or one that
  holds no snapshot, raises :exc:`TenantUnavailableError` for *this*
  tenant only — other tenants' directories are untouched by
  construction.  The failure is remembered for
  :data:`~repro.serve.config.RETRY_AFTER_SECONDS`: requests inside that
  window get the same error without opening anything, and the first
  request after it opens the tenant again.

The manager keeps at most ``max_tenants`` services open, evicting the
least recently used *idle* tenant (busy tenants are never evicted — the
bound is soft under pressure, which only costs memory, never
correctness).
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from time import monotonic
from typing import Any, Callable

from ..api import SimilarityService
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
from ..store import StoreCorruptionError, tenant_cache_dir, tenant_store_exists
from ..store.layout import discover_tenants, validate_tenant_name
from .config import RETRY_AFTER_SECONDS

__all__ = [
    "TenantRuntime",
    "TenantManager",
    "UnknownTenantError",
    "TenantUnavailableError",
]


class UnknownTenantError(KeyError):
    """No persisted store exists for this tenant (HTTP 404)."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep it readable
        return self.args[0] if self.args else ""


class TenantUnavailableError(RuntimeError):
    """The tenant's store is unusable right now (HTTP 503)."""


class TenantRuntime:
    """One open tenant: its service plus its dedicated worker thread."""

    def __init__(self, name: str, service: SimilarityService, executor: ThreadPoolExecutor) -> None:
        self.name = name
        self.service = service
        self.executor = executor

    async def run(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on this tenant's worker thread (the only thread
        allowed to touch the service).

        ``run_in_executor`` does not carry :mod:`contextvars` across the
        thread hop, so the call runs inside a copy of the submitting
        context — the active trace span follows the request onto the
        worker thread and spans opened there parent correctly.
        """
        loop = asyncio.get_running_loop()
        context = contextvars.copy_context()
        return await loop.run_in_executor(self.executor, partial(context.run, fn))


class TenantManager:
    """Lazily opens tenants and bounds how many stay open."""

    def __init__(self, root: "str | Path", *, max_tenants: int = 8) -> None:
        self.root = Path(root)
        self.max_tenants = max_tenants
        self._runtimes: "OrderedDict[str, TenantRuntime]" = OrderedDict()
        self._locks: dict[str, asyncio.Lock] = {}
        # Per tenant whose last open failed: when it may be opened again,
        # and the error to answer until then.  Only tenants with a store
        # on disk get here, so the record is bounded by the root.
        self._failures: dict[str, tuple[float, str]] = {}
        #: Callable deciding whether a tenant is safe to evict (no work
        #: in flight).  The server wires this to its admission counters.
        self.is_idle: Callable[[str], bool] = lambda name: True
        self.evictions = 0
        registry = get_registry()
        self._open_gauge = registry.gauge(
            "repro_tenants_open", "Tenant services currently open in this process."
        )
        self._evictions_counter = registry.counter(
            "repro_tenant_evictions_total", "LRU evictions of idle tenant services."
        )

    # -- introspection -------------------------------------------------------

    def open_tenants(self) -> list[str]:
        return list(self._runtimes)

    def discover(self) -> list[str]:
        """All tenants with a persisted store under the root."""
        return discover_tenants(self.root)

    def runtime_if_open(self, name: str) -> TenantRuntime | None:
        return self._runtimes.get(name)

    # -- lifecycle -----------------------------------------------------------

    async def get(self, name: str) -> TenantRuntime:
        """The runtime for ``name``, opening the tenant on first use."""
        validate_tenant_name(name)
        runtime = self._runtimes.get(name)
        if runtime is not None:
            self._runtimes.move_to_end(name)
            return runtime
        # 404 before lock creation: probing unknown names must not grow
        # _locks (one asyncio.Lock per name ever requested, forever).
        if not tenant_store_exists(self.root, name):
            raise UnknownTenantError(
                f"unknown tenant {name!r}: no persisted store under "
                f"{str(tenant_cache_dir(self.root, name))!r} "
                "(build one with 'repro index build')"
            )
        lock = self._locks.setdefault(name, asyncio.Lock())
        async with lock:
            runtime = self._runtimes.get(name)
            if runtime is not None:
                self._runtimes.move_to_end(name)
                return runtime
            failure = self._failures.get(name)
            if failure is not None and monotonic() < failure[0]:
                raise TenantUnavailableError(failure[1])
            try:
                runtime = await self._open(name)
            except TenantUnavailableError as error:
                self._failures[name] = (monotonic() + RETRY_AFTER_SECONDS, str(error))
                raise
            self._failures.pop(name, None)
            self._runtimes[name] = runtime
            self._open_gauge.set(len(self._runtimes))
            await self._evict_over_bound(exclude=name)
            return runtime

    async def _open(self, name: str) -> TenantRuntime:
        executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"tenant-{name}")
        loop = asyncio.get_running_loop()
        opener = partial(
            SimilarityService.open, cache_dir=tenant_cache_dir(self.root, name)
        )
        try:
            # Opened *on the worker thread* so the store's SQLite
            # connection lives where every later request runs — inside a
            # copied context, so the triggering request's trace captures
            # the open (store verification, warm loads) as its own span.
            with get_tracer().span("tenant.open", attributes={"tenant": name}):
                context = contextvars.copy_context()
                service = await loop.run_in_executor(
                    executor, partial(context.run, opener)
                )
        except (StoreCorruptionError, ValueError) as error:
            # ValueError: a verified store without a snapshot has no
            # corpus to serve; the request never reached the service.
            executor.shutdown(wait=False)
            raise TenantUnavailableError(
                f"tenant {name!r} store is unusable: {error}"
            ) from error
        except Exception:
            executor.shutdown(wait=False)
            raise
        return TenantRuntime(name, service, executor)

    async def _evict_over_bound(self, *, exclude: str | None = None) -> None:
        """Evict least-recently-used idle tenants down to the bound.

        ``exclude`` names the tenant whose open triggered this scan: it
        is in ``_runtimes`` and (until its request is admitted) may look
        idle, but evicting it would hand the caller a runtime whose
        executor is already shut down.
        """
        excess = len(self._runtimes) - self.max_tenants
        if excess <= 0:
            return
        for name in list(self._runtimes):
            if excess <= 0:
                break
            if name == exclude or not self.is_idle(name):
                continue
            await self.close_tenant(name)
            self.evictions += 1
            self._evictions_counter.inc()
            excess -= 1

    async def close_tenant(self, name: str, *, persist: bool = False) -> None:
        # The lock only guards the open; once the tenant is closed (or
        # was never open) keeping it would leak one entry per tenant
        # ever seen.  A lock currently held (a concurrent open) stays —
        # its holder still inserts into _runtimes, and the next close
        # collects it.
        lock = self._locks.get(name)
        if lock is not None and not lock.locked():
            del self._locks[name]
        runtime = self._runtimes.pop(name, None)
        if runtime is None:
            return
        service = runtime.service

        def _close() -> None:
            if persist and service.store is not None:
                try:
                    service.persist()
                except Exception:
                    # Closing must always succeed; a failed farewell
                    # persist only costs the next process a colder start.
                    pass
            service.close()

        try:
            await runtime.run(_close)
        finally:
            runtime.executor.shutdown(wait=True)
            self._open_gauge.set(len(self._runtimes))

    async def close_all(self, *, persist: bool = False) -> None:
        for name in list(self._runtimes):
            await self.close_tenant(name, persist=persist)
        for name, lock in list(self._locks.items()):
            if not lock.locked():
                del self._locks[name]
        self._failures.clear()
