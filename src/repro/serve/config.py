"""Configuration of the serving layer.

One :class:`ServeConfig` value describes a whole server: where the
tenants live on disk, how the listener binds, and how much in-flight
work one tenant may hold before admission control starts answering
429.  The CLI (``repro serve``) and the load benchmark build
these from flags; tests build them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServeConfig", "RETRY_AFTER_SECONDS"]

#: Seconds a ``429`` or a tenant's ``503`` asks the client to wait (its
#: ``Retry-After``), and how long a tenant that failed to open keeps
#: failing before the next request opens it again.
RETRY_AFTER_SECONDS = 1


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one :class:`~repro.serve.server.SimilarityServer`.

    ``root`` is the serving root directory: every subdirectory holding a
    persisted :class:`~repro.store.WorkflowStore` is a tenant (see
    :mod:`repro.store.layout`).  Tenant services are opened lazily on
    first request and kept on an LRU of at most ``max_tenants`` open
    services — the least recently used *idle* tenant is closed when the
    bound is exceeded.

    ``max_inflight`` caps admitted requests per tenant (executing plus
    queued on the tenant's search lane).  The cap *is* the bounded
    queue: request ``max_inflight + 1`` is answered ``429`` with a
    ``Retry-After`` header instead of being buffered without bound.  It
    also bounds micro-batching, which needs no knob of its own: a search
    on an idle tenant runs at once, and only same-spec searches admitted
    while the tenant's lane is busy fold into its next engine batch
    (bit-identical to per-request execution).

    ``persist_on_shutdown`` writes each open tenant's accumulated pair
    scores back to its store while graceful shutdown drains, so the next
    process warm-starts from this one's work.  The ``Retry-After``
    delay is :data:`RETRY_AFTER_SECONDS`; the drain bound and the
    body-size limit are constants of :mod:`repro.serve.server`.

    ``trace_sample`` is the fraction of requests that record a trace
    (``1.0`` traces everything, ``0.0`` disables tracing entirely — the
    zero-cost no-op tracer).  ``trace_dir``, when set, persists every
    sampled trace as ``<trace_dir>/<trace_id>.json`` span trees readable
    with ``repro trace show``.
    """

    root: str
    host: str = "127.0.0.1"
    port: int = 8340
    max_tenants: int = 8
    max_inflight: int = 16
    persist_on_shutdown: bool = False
    trace_sample: float = 1.0
    trace_dir: "str | None" = None

    def __post_init__(self) -> None:
        if not self.root:
            raise ValueError("root directory must be given")
        if self.port < 0 or self.port > 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be positive, got {self.max_tenants}")
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {self.max_inflight}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
