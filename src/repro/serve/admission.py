"""Per-tenant admission control.

The serving layer bounds work, not memory: each tenant may hold at most
``max_inflight`` admitted requests (executing on its worker thread or
queued on its search lane).  The cap doubles as the bounded queue
— a request beyond it is rejected *immediately* with HTTP 429 and a
``Retry-After`` hint rather than buffered without bound, so a tenant
flooding itself degrades its own latency but can neither exhaust server
memory nor starve other tenants (whose worker threads are independent).
Because a micro-batch fold only ever holds admitted requests, the same
cap bounds the size of every engine batch.

All counters are touched from the event loop thread only.
"""

from __future__ import annotations

__all__ = ["AdmissionController"]


class AdmissionController:
    """Counts in-flight requests per tenant and enforces the cap."""

    def __init__(self, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = max_inflight
        self._inflight: dict[str, int] = {}

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    def total_inflight(self) -> int:
        return sum(self._inflight.values())

    def try_acquire(self, tenant: str) -> bool:
        """Admit one request for ``tenant``; ``False`` means answer 429."""
        current = self._inflight.get(tenant, 0)
        if current >= self.max_inflight:
            return False
        self._inflight[tenant] = current + 1
        return True

    def release(self, tenant: str) -> None:
        current = self._inflight.get(tenant, 0)
        if current <= 1:
            self._inflight.pop(tenant, None)
        else:
            self._inflight[tenant] = current - 1
