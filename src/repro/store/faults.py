"""Deterministic fault injection for the persistence and execution seams.

The resilience contract — *every store/admission/pool fault degrades to
the sequential exact path and the answer stays bit-identical to the seed* —
is only testable if faults can be produced on demand, at exact points,
a bounded number of times.  A :class:`FaultInjector` is a small event
registry installable on the seams that can fail in production:

* ``"commit"`` — fired by :class:`~repro.store.workflow_store.WorkflowStore`
  inside every write transaction, just before the real ``COMMIT``
  (fail-Nth-commit, lock-for-N-attempts);
* ``"load"`` — fired at the top of every store read
  (``load_repository`` / ``load_pair_scores`` /
  ``SqlAdmissionPlanner.admitted``), the seam where a store corrupted
  mid-flight first surfaces;
* ``"parallel"`` — fired by the service before the process-pool tier
  runs (kill-worker / ``BrokenProcessPool``);
* ``"sql"`` — fired before the in-database (SQL pushdown) admission
  tier resolves its candidate set.

Faults are *armed* with a budget (``times``) and an optional ``after``
skip count, so "the third commit fails" is expressible without
wall-clock nondeterminism.  Firing is a no-op once the budget is spent;
un-matched events always pass through, and a store or service with no
injector installed pays one attribute check per seam.

File-level faults (:func:`truncate_file`, :func:`flip_bytes`) and the
real-contention helper (:func:`hold_write_lock`) are plain functions —
they act on a *closed* store's file the way a crashed writer or a
competing process would.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "FaultInjector",
    "flip_bytes",
    "hold_write_lock",
    "truncate_file",
]


@dataclass
class _ArmedFault:
    event: str
    action: Callable[[dict[str, Any]], None]
    label: str
    remaining: int
    skip: int


@dataclass
class FaultInjector:
    """An installable registry of armed, budgeted faults.

    Install with ``store.fault_injector = injector`` and/or
    ``service.fault_injector = injector`` (the service propagates to its
    store).  ``fired`` records every triggered ``(event, label)`` pair
    in order, which is what the chaos tests assert against.
    """

    _armed: list[_ArmedFault] = field(default_factory=list)
    fired: list[tuple[str, str]] = field(default_factory=list)

    # -- arming --------------------------------------------------------------

    def arm(
        self,
        event: str,
        action: Callable[[dict[str, Any]], None],
        *,
        label: str = "fault",
        times: int = 1,
        after: int = 0,
    ) -> "FaultInjector":
        """Arm an arbitrary fault action; returns ``self`` for chaining."""
        self._armed.append(
            _ArmedFault(event=event, action=action, label=label, remaining=times, skip=after)
        )
        return self

    def _arm_raiser(
        self, event: str, error_factory: Callable[[], BaseException], *, label: str, times: int, after: int
    ) -> "FaultInjector":
        def action(_context: dict[str, Any]) -> None:
            raise error_factory()

        return self.arm(event, action, label=label, times=times, after=after)

    def fail_commit(self, *, times: int = 1, after: int = 0, locked: bool = True) -> "FaultInjector":
        """Fail the Nth write transaction.

        ``locked=True`` raises the transient ``database is locked``
        signal (exercises :class:`~repro.store.resilience.RetryPolicy`);
        ``locked=False`` raises a non-retryable ``DatabaseError``
        (exercises rollback + quarantine).
        """
        if locked:
            return self._arm_raiser(
                "commit",
                lambda: sqlite3.OperationalError("database is locked"),
                label="fail-commit-locked",
                times=times,
                after=after,
            )
        return self._arm_raiser(
            "commit",
            lambda: sqlite3.DatabaseError("disk I/O error"),
            label="fail-commit-io",
            times=times,
            after=after,
        )

    def lock_for_attempts(self, attempts: int, *, after: int = 0) -> "FaultInjector":
        """Hold a virtual write lock for the next ``attempts`` commits.

        The deterministic stand-in for lock-for-duration: the writer
        sees ``database is locked`` exactly ``attempts`` times, then
        succeeds — so a :class:`RetryPolicy` with a larger attempt
        budget must ride it out and one with a smaller budget must give
        up, both reproducibly.
        """
        return self._arm_raiser(
            "commit",
            lambda: sqlite3.OperationalError("database is locked"),
            label="lock-for-attempts",
            times=attempts,
            after=after,
        )

    def corrupt_load(self, *, times: int = 1, after: int = 0) -> "FaultInjector":
        """Make the next store read fail the way a malformed file does."""
        return self._arm_raiser(
            "load",
            lambda: sqlite3.DatabaseError("database disk image is malformed"),
            label="corrupt-load",
            times=times,
            after=after,
        )

    def kill_worker(self, *, times: int = 1, after: int = 0) -> "FaultInjector":
        """Break the process pool out from under the parallel tier."""
        return self._arm_raiser(
            "parallel",
            lambda: BrokenProcessPool("a child process was terminated abruptly"),
            label="kill-worker",
            times=times,
            after=after,
        )

    def worker_timeout(self, *, times: int = 1, after: int = 0) -> "FaultInjector":
        """A pool whose futures never come back (surfaces as TimeoutError)."""
        return self._arm_raiser(
            "parallel",
            lambda: TimeoutError("worker result did not arrive in time"),
            label="worker-timeout",
            times=times,
            after=after,
        )

    def break_sql(self, *, times: int = 1, after: int = 0) -> "FaultInjector":
        """Fail the in-database (SQL pushdown) admission tier."""
        return self._arm_raiser(
            "sql",
            lambda: RuntimeError("sql admission unavailable"),
            label="break-sql",
            times=times,
            after=after,
        )

    # -- firing --------------------------------------------------------------

    def fire(self, event: str, **context: Any) -> None:
        """Trigger every armed, in-budget fault matching ``event``.

        Fault actions may raise (the normal case) or mutate the context
        they are handed (e.g. truncate the store file mid-run).
        """
        for fault in self._armed:
            if fault.event != event or fault.remaining == 0:
                continue
            if fault.skip > 0:
                fault.skip -= 1
                continue
            fault.remaining -= 1
            self.fired.append((event, fault.label))
            fault.action(context)

    def count_fired(self, label: str | None = None) -> int:
        if label is None:
            return len(self.fired)
        return sum(1 for _event, fired_label in self.fired if fired_label == label)


def truncate_file(path: str | Path, *, keep_fraction: float = 0.5) -> int:
    """Truncate a file to a fraction of its size (a torn write / crash).

    Returns the new size in bytes.  The store must be closed first.
    """
    path = Path(path)
    size = path.stat().st_size
    keep = max(0, int(size * keep_fraction))
    with path.open("rb+") as handle:
        handle.truncate(keep)
    return keep


def flip_bytes(path: str | Path, *, offset: int, count: int = 4) -> None:
    """XOR-flip ``count`` bytes at ``offset`` (bit rot / partial write)."""
    path = Path(path)
    with path.open("rb+") as handle:
        handle.seek(offset)
        chunk = handle.read(count)
        handle.seek(offset)
        handle.write(bytes(byte ^ 0xFF for byte in chunk))


@contextlib.contextmanager
def hold_write_lock(path: str | Path, duration: float) -> Iterator[threading.Thread]:
    """Hold a real SQLite write lock on ``path`` for ``duration`` seconds.

    A second connection takes ``BEGIN IMMEDIATE`` (the writer lock) on a
    background thread and releases it after ``duration`` — genuine
    multi-connection contention for the retry/backoff tests, bounded in
    time so a failing test cannot hang the suite.
    """
    acquired = threading.Event()
    release = threading.Event()

    def holder() -> None:
        connection = sqlite3.connect(str(path), timeout=duration + 5.0)
        try:
            connection.execute("BEGIN IMMEDIATE")
            acquired.set()
            release.wait(duration)
            connection.rollback()
        finally:
            acquired.set()  # never leave the caller waiting on a failed BEGIN
            connection.close()

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    acquired.wait(duration + 5.0)
    try:
        yield thread
    finally:
        release.set()
        thread.join(duration + 5.0)
