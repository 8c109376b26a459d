"""Optional process-pool backend for batch search and all-pairs scoring.

Workers are long-lived: each process receives the pickled workflow pool,
importance scorer and GED timeout once (via the executor initializer),
builds its own :class:`~repro.repository.search.SimilaritySearchEngine`
with a private :class:`~repro.perf.engine.AccelerationContext`, and then
answers its groups of queries or pair rows, amortising profile
construction and cache warm-up the same way the serial engine does.

Each call starts a new pool with the platform's default start method
(``fork`` on Linux).

Only measures addressed *by name* can run in a pool (workers rebuild the
measure from the registry); measure instances carry caches and callables
that are not worth shipping across process boundaries.  Pool failures —
sandboxes without semaphores, missing ``fork`` support — degrade to the
serial path rather than failing the search; callers can check
:func:`pool_available` up front if they need a hard answer.
"""

from __future__ import annotations

import pickle
from typing import Sequence

from ..obs.logging import get_logger
from ..workflow.model import Workflow

__all__ = ["pool_available", "parallel_search_batch", "parallel_pairwise"]

_log = get_logger("repro.perf.parallel")

# Per-process worker state, initialised once per pool worker.
_WORKER_ENGINE = None


def _init_worker(payload: bytes) -> None:
    global _WORKER_ENGINE
    from ..core.framework import SimilarityFramework
    from ..repository.repository import WorkflowRepository
    from ..repository.search import SimilaritySearchEngine

    workflows, ged_timeout, importance_scorer = pickle.loads(payload)
    repository = WorkflowRepository(workflows, name="pool-worker")
    _WORKER_ENGINE = SimilaritySearchEngine(
        repository,
        SimilarityFramework(importance_scorer=importance_scorer, ged_timeout=ged_timeout),
    )


def _search_chunk(args: tuple[Sequence[str], str, int]) -> list:
    query_ids, measure, k = args
    queries = [_WORKER_ENGINE.repository.get(query_id) for query_id in query_ids]
    return _WORKER_ENGINE.serial_batch(queries, measure, k=k)


def _pairwise_chunk(args: tuple[Sequence[int], str]) -> list[tuple[str, str, float]]:
    rows, measure = args
    repository = _WORKER_ENGINE.repository
    pool = repository.workflows()
    instance = _WORKER_ENGINE._accelerated_measure(measure)
    out = []
    for i in rows:
        first = pool[i]
        for second in pool[i + 1:]:
            out.append((first.identifier, second.identifier, instance.similarity(first, second)))
    return out


def pool_available(workers: int = 2) -> bool:
    """Probe whether a process pool can actually be created here."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as executor:
            return executor.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


def _strided(items: Sequence, workers: int) -> list[Sequence]:
    """``2 × workers`` interleaved groups of ``items`` (empty groups dropped).

    Striding balances uneven work (row ``i`` of the all-pairs triangle
    pairs with every later workflow, so early rows are the heaviest) and
    leaves no worker idle while another holds every item.
    """
    stride = max(1, workers * 2)
    return [group for group in (items[offset::stride] for offset in range(stride)) if group]


def parallel_search_batch(
    workflows: Sequence[Workflow],
    query_ids: Sequence[str],
    measure: str,
    *,
    k: int,
    workers: int,
    ged_timeout: float | None,
    importance_scorer=None,
) -> dict | None:
    """Run a search batch across a process pool.

    Returns ``{query_id: SearchResultList}`` — each list exactly what
    :meth:`~repro.repository.search.SimilaritySearchEngine.serial_batch`
    returns for that query — or ``None`` when no pool could be created
    or the scorer could not be pickled (caller falls back to serial).
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        payload = pickle.dumps((list(workflows), ged_timeout, importance_scorer))
        chunks = _strided(list(query_ids), workers)
        results = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        ) as executor:
            for chunk_result in executor.map(
                _search_chunk, [(chunk, measure, k) for chunk in chunks]
            ):
                for result in chunk_result:
                    results[result.query_id] = result
        return results
    except Exception as error:  # pragma: no cover - environment dependent
        _log.warning(
            "process pool unavailable; searching serially",
            extra={"error": str(error)},
        )
        return None


def parallel_pairwise(
    workflows: Sequence[Workflow],
    measure: str,
    *,
    workers: int,
    ged_timeout: float | None,
    importance_scorer=None,
) -> dict[tuple[str, str], float] | None:
    """All unordered pairs across a process pool (``None`` on failure).

    Rows are interleaved across groups (see :func:`_strided`).
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        payload = pickle.dumps((list(workflows), ged_timeout, importance_scorer))
        row_groups = _strided(range(len(workflows)), workers)
        similarities: dict[tuple[str, str], float] = {}
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payload,)
        ) as executor:
            for chunk_result in executor.map(
                _pairwise_chunk, [(group, measure) for group in row_groups]
            ):
                for first_id, second_id, value in chunk_result:
                    similarities[(first_id, second_id)] = value
        return similarities
    except Exception as error:  # pragma: no cover - environment dependent
        _log.warning(
            "process pool unavailable; scoring serially",
            extra={"error": str(error)},
        )
        return None
