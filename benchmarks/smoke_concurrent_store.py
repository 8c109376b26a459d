"""Multi-process concurrent writers/reader smoke test for the WAL store.

CI's fault-injection job runs this to pin ROADMAP open item 2's
multi-process discipline: one process writes pair-score batches, a
second churns the snapshot (``remove_workflow`` / ``add_workflow``), and
a third concurrently reads the snapshot and scores out of the *same*
``cache_dir``.  Under ``journal_mode=WAL`` + ``busy_timeout`` + the
store's :class:`~repro.store.resilience.RetryPolicy`, no ``database is
locked`` error may escape any process.  Once all finish, the snapshot
positions must still be distinct and the store must pass full
verification (every table's checksum recomputed + payload decode) — so
the checksums both writers kept up to date row by row must still equal
a full recompute.

Exit code 0 on success, 1 on any escaped error or failed verification.

Usage::

    python benchmarks/smoke_concurrent_store.py [--rounds 30] [--cache-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus  # noqa: E402
from repro.store import RetryPolicy, WorkflowStore  # noqa: E402


def _fingerprint(index: int) -> tuple[str, ...]:
    return (f"module-{index}", f"label-{index % 7}")


def writer(cache_dir: str, rounds: int, queue) -> None:
    """Upsert score batches and snapshot rows as fast as possible."""
    try:
        store = WorkflowStore(
            cache_dir,
            retry=RetryPolicy(attempts=40, base_delay=0.005, max_delay=0.05),
        )
        for round_number in range(rounds):
            entries = [
                (_fingerprint(i), _fingerprint(i + 1), float(round_number) + i / 100.0)
                for i in range(25)
            ]
            store.save_pair_scores(f"smoke-config-{round_number % 3}", entries)
        retries = store.retry_count
        store.close()
        queue.put(("writer", "ok", retries))
    except Exception as error:  # noqa: BLE001 — the whole point is catching escapes
        queue.put(("writer", f"{type(error).__name__}: {error}", -1))


def churner(cache_dir: str, rounds: int, queue) -> None:
    """Remove and re-add snapshot workflows, one write transaction each."""
    try:
        store = WorkflowStore(
            cache_dir,
            retry=RetryPolicy(attempts=40, base_delay=0.005, max_delay=0.05),
        )
        workflows = store.load_repository().workflows()
        for round_number in range(rounds):
            workflow = workflows[round_number % len(workflows)]
            if not store.remove_workflow(workflow.identifier):
                raise RuntimeError(f"{workflow.identifier} vanished from the snapshot")
            store.add_workflow(workflow)
        retries = store.retry_count
        store.close()
        queue.put(("churner", "ok", retries))
    except Exception as error:  # noqa: BLE001
        queue.put(("churner", f"{type(error).__name__}: {error}", -1))


def reader(cache_dir: str, rounds: int, queue) -> None:
    """Concurrently read the snapshot and every score batch."""
    try:
        store = WorkflowStore(
            cache_dir,
            retry=RetryPolicy(attempts=40, base_delay=0.005, max_delay=0.05),
        )
        loaded = 0
        for round_number in range(rounds):
            repository = store.load_repository()
            assert repository is not None and len(repository) > 0
            for config in range(3):
                loaded += sum(1 for _ in store.load_pair_scores(f"smoke-config-{config}"))
            time.sleep(0.002)
        store.close()
        queue.put(("reader", "ok", loaded))
    except Exception as error:  # noqa: BLE001
        queue.put(("reader", f"{type(error).__name__}: {error}", -1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        cache_dir = args.cache_dir or str(Path(scratch) / "store")
        corpus = generate_myexperiment_corpus(
            CorpusSpec(workflow_count=20, seed=42, author_count=6)
        )
        seed_store = WorkflowStore(cache_dir)
        seed_store.save_repository(corpus.repository, postings=True)
        journal_mode = seed_store.stats()["journal_mode"]
        seed_store.close()
        if str(journal_mode).lower() != "wal":
            print(f"warning: WAL unavailable on this filesystem (got {journal_mode})")

        queue: multiprocessing.Queue = multiprocessing.Queue()
        processes = [
            multiprocessing.Process(target=writer, args=(cache_dir, args.rounds, queue)),
            multiprocessing.Process(target=churner, args=(cache_dir, args.rounds, queue)),
            multiprocessing.Process(target=reader, args=(cache_dir, args.rounds, queue)),
        ]
        for process in processes:
            process.start()
        outcomes = {}
        for _ in processes:
            role, status, detail = queue.get(timeout=120)
            outcomes[role] = (status, detail)
        for process in processes:
            process.join(timeout=30)

        failures = {role: s for role, (s, _d) in outcomes.items() if s != "ok"}
        final = WorkflowStore(cache_dir)
        report = final.verify()
        rows, positions = final.connection.execute(
            "SELECT COUNT(*), COUNT(DISTINCT position) FROM workflows"
        ).fetchone()
        final.close()

        summary = {
            "journal_mode": str(journal_mode),
            "rounds": args.rounds,
            "writer_retries": outcomes.get("writer", ("missing", -1))[1],
            "churner_retries": outcomes.get("churner", ("missing", -1))[1],
            "reader_rows_loaded": outcomes.get("reader", ("missing", -1))[1],
            "escaped_errors": failures,
            "final_verification": report.summary(),
        }
        print(json.dumps(summary, indent=2))
        if failures:
            print(f"FAIL: errors escaped the retry layer: {failures}", file=sys.stderr)
            return 1
        if not report.ok:
            print(f"FAIL: store corrupt after concurrent run: {report.summary()}", file=sys.stderr)
            return 1
        if rows != positions:
            print(f"FAIL: {rows} snapshot rows share {positions} positions", file=sys.stderr)
            return 1
        print("OK: no lock errors escaped; store verifies clean after concurrent access")
        return 0


if __name__ == "__main__":
    sys.exit(main())
