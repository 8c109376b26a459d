"""Resilience primitives of the persistent store layer.

Three cooperating pieces, all deliberately free of similarity-engine
imports so the store can depend on them without cycles:

* :class:`RetryPolicy` — bounded, exponentially backed-off (with
  jitter) retry schedules for ``sqlite3.OperationalError: database is
  locked`` under multi-process contention.  SQLite's own
  ``busy_timeout`` handles the common case; the policy covers writers
  that exhaust it (and fault-injected lock storms in the chaos tests).
* :class:`StoreVerification` / :exc:`StoreCorruptionError` — the result
  object of :meth:`WorkflowStore.verify
  <repro.store.workflow_store.WorkflowStore.verify>` and the exception
  that carries it when a corrupted store must stop being trusted.
* :func:`quarantine_store` — moves a corrupted store's files (the
  SQLite database plus its ``-wal``/``-shm`` sidecars) into
  ``<cache_dir>/quarantine/<timestamp>/``.  Corruption is never
  silently repaired in place and never fatal to the caller: the store
  is preserved byte-for-byte for forensics while a fresh store is
  rebuilt cold from the live repository.
"""

from __future__ import annotations

import random
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

if TYPE_CHECKING:
    from ..repository.repository import WorkflowRepository

__all__ = [
    "RetryPolicy",
    "StoreCorruptionError",
    "StoreVerification",
    "is_locked_error",
    "quarantine_store",
    "run_with_retry",
]

T = TypeVar("T")


def is_locked_error(error: BaseException) -> bool:
    """Whether an exception is SQLite's transient lock/busy signal.

    Only ``OperationalError`` with the locked/busy message qualifies —
    ``DatabaseError`` subclasses like ``DatabaseError: malformed`` are
    corruption, which retrying cannot fix (quarantine handles those).
    """
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient store contention.

    ``attempts`` counts *total* tries (1 = no retry).  Sleep before
    retry ``n`` is ``base_delay * 2**(n-1)`` capped at ``max_delay``,
    multiplied by a uniform factor in ``[1 - jitter, 1 + jitter]`` so
    competing writers do not re-collide in lockstep.
    """

    attempts: int = 5
    base_delay: float = 0.02
    max_delay: float = 0.5
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt — fail fast (used by the reference paths)."""
        return cls(attempts=1, base_delay=0.0, max_delay=0.0, jitter=0.0)

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """The sleep durations between attempts (``attempts - 1`` of them)."""
        uniform = (rng or random).uniform
        for retry in range(self.attempts - 1):
            delay = min(self.base_delay * (2.0 ** retry), self.max_delay)
            if self.jitter:
                delay *= uniform(1.0 - self.jitter, 1.0 + self.jitter)
            yield delay


def run_with_retry(
    operation: Callable[[], T],
    policy: RetryPolicy,
    *,
    retryable: Callable[[BaseException], bool] = is_locked_error,
    on_retry: Callable[[int, BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[T, int]:
    """Run ``operation`` under ``policy``; returns ``(result, retries)``.

    Non-retryable exceptions propagate immediately; retryable ones are
    re-raised once the attempt budget is exhausted.  ``on_retry`` is
    invoked (attempt number, error) before each backoff sleep — the
    store uses it to count retries for diagnostics.
    """
    retries = 0
    delays = policy.delays()
    while True:
        try:
            return operation(), retries
        except BaseException as error:
            if not retryable(error):
                raise
            delay = next(delays, None)
            if delay is None:
                raise
            retries += 1
            if on_retry is not None:
                on_retry(retries, error)
            sleep(delay)


@dataclass
class StoreVerification:
    """The outcome of one :meth:`WorkflowStore.verify` pass.

    ``ok`` is ``True`` only when every check passed.  ``problems`` is a
    flat human-readable list (one line per failed check); ``tables``
    maps each verified table to ``"ok"`` or the failure description, so
    recovery can tell a salvageable snapshot (``workflows`` ok, another
    table torn) from a total loss.
    """

    ok: bool = True
    problems: list[str] = field(default_factory=list)
    tables: dict[str, str] = field(default_factory=dict)
    #: The schema version a store of another version was written at
    #: (``None`` for this build's version or an unreadable ``meta``).
    #: Its check fails, but that is age, not damage.
    other_schema: int | None = None
    #: The snapshot the payload-decode check produced, in pool order, or
    #: ``None`` unless the ``workflows`` table verified and holds rows.
    #: Opening a service builds on it instead of decoding every row again.
    _snapshot: "WorkflowRepository | None" = field(default=None, compare=False, repr=False)

    def fail(self, problem: str, *, table: str | None = None) -> None:
        self.ok = False
        self.problems.append(problem)
        if table is not None:
            self.tables[table] = problem

    def table_ok(self, table: str) -> bool:
        return self.tables.get(table) == "ok"

    def summary(self) -> str:
        if self.ok:
            return "store verified: all checks passed"
        return "; ".join(self.problems)


class StoreCorruptionError(Exception):
    """A store failed verification (or SQLite reported corruption).

    Carries the :class:`StoreVerification` report when one exists so
    callers can decide whether the snapshot is salvageable.
    """

    def __init__(self, message: str, *, report: StoreVerification | None = None) -> None:
        super().__init__(message)
        self.report = report


def _sidecar_paths(store_path: Path) -> list[Path]:
    """The store file plus WAL/SHM sidecars, existing ones only."""
    candidates = [
        store_path,
        store_path.with_name(store_path.name + "-wal"),
        store_path.with_name(store_path.name + "-shm"),
        store_path.with_name(store_path.name + "-journal"),
    ]
    return [path for path in candidates if path.exists()]


def quarantine_store(store_path: str | Path, *, reason: str = "") -> Path:
    """Move a corrupted store aside to ``<dir>/quarantine/<timestamp>/``.

    The caller must have closed every connection first.  All sidecar
    files move with the database, and a ``REASON.txt`` records why.
    Returns the quarantine directory (created even when the store file
    has already vanished, so the reason is always recorded).
    """
    store_path = Path(store_path)
    base = store_path.parent / "quarantine"
    stamp = time.strftime("%Y%m%dT%H%M%S")
    target = base / stamp
    suffix = 0
    while target.exists():
        suffix += 1
        target = base / f"{stamp}-{suffix}"
    target.mkdir(parents=True)
    for path in _sidecar_paths(store_path):
        path.rename(target / path.name)
    (target / "REASON.txt").write_text(
        (reason or "store failed verification") + "\n"
    )
    return target
