"""Cold start: what a process loads at import, and what an open decodes.

SciPy (and NumPy) back only the ``mw`` matchings larger than 6×6, so
importing the serving surface must not load them; the first matching
that dispatches to SciPy does, and the process pool loads it before it
forks.  The dispatch rule itself must not move — the two backends can
return different optimal assignments, so it is part of every score.
Opening a service over a persisted store decodes each snapshot row once
(in verification's payload-decode check), salvage included.
"""

from __future__ import annotations

import json
import os
import random
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api import SimilarityService
from repro.graphs.matching import maximum_weight_matching
from repro.repository import WorkflowRepository
from repro.store import WorkflowStore
from repro.workflow.serialization import workflow_to_dict

ROOT = Path(__file__).resolve().parents[1]


def run_python(source: str) -> dict:
    """Run ``source`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestImportGuard:
    def test_serving_surface_imports_without_scipy_numpy_or_corpus(self):
        loaded = run_python(
            """
            import json, sys
            import repro, repro.api, repro.cli, repro.serve, repro.store
            before = sorted(m for m in ("scipy", "numpy", "repro.corpus") if m in sys.modules)
            from repro.graphs.matching import _scipy_assignment, maximum_weight_matching
            maximum_weight_matching([[float(i * j % 5) for j in range(7)] for i in range(7)])
            print(json.dumps({
                "before": before,
                "scipy_installed": _scipy_assignment() is not None,
                "after": "scipy.optimize" in sys.modules,
            }))
            """
        )
        assert loaded["before"] == []
        # One 7x7 matching dispatches to SciPy, which loads it.
        assert loaded["after"] == loaded["scipy_installed"]


def random_matrices(seed: int):
    """Random and tie-heavy matrices of every shape from 1x1 to 10x10."""
    rng = random.Random(seed)
    for rows in range(1, 11):
        for cols in range(1, 11):
            yield [[rng.random() for _ in range(cols)] for _ in range(rows)]
            yield [[rng.choice((0.0, 0.5, 1.0)) for _ in range(cols)] for _ in range(rows)]
            yield [[1.0] * cols for _ in range(rows)]


class TestDispatchUnchanged:
    def test_default_is_scipy_above_six_and_pure_python_at_or_below(self):
        for matrix in random_matrices(seed=19):
            larger = max(len(matrix), len(matrix[0])) > 6
            assert maximum_weight_matching(matrix) == maximum_weight_matching(
                matrix, use_scipy=larger
            )

    def test_without_scipy_default_falls_back_and_ms_search_stays_exact(self):
        outcome = run_python(
            """
            import json, sys
            sys.modules["scipy"] = None  # SciPy is not installed
            from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
            from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
            from repro.graphs.matching import _scipy_assignment, maximum_weight_matching

            matrix = [[((i + 1) * (j + 3)) % 7 / 7.0 for j in range(9)] for i in range(8)]
            pure = maximum_weight_matching(matrix, use_scipy=False)
            corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=40, seed=3))
            service = SimilarityService(corpus.repository)
            queries = corpus.repository.identifiers()[:4]
            fast = service.search(SearchRequest(measure="MS_ip_te_pll", queries=queries, k=5))
            exact = service.search(SearchRequest(
                measure="MS_ip_te_pll", queries=queries, k=5,
                policy=ExecutionPolicy.sequential(),
            ))
            print(json.dumps({
                "backend": _scipy_assignment() is None,
                "default": maximum_weight_matching(matrix) == pure,
                "forced": maximum_weight_matching(matrix, use_scipy=True) == pure,
                "exact": fast == exact and fast.result_tuples() == exact.result_tuples(),
                "path": fast.diagnostics.path,
                "numpy": "numpy" in sys.modules,
            }))
            """
        )
        assert outcome == {
            "backend": True,
            "default": True,
            "forced": True,
            "exact": True,
            "path": "pruned",
            "numpy": False,
        }


class TestPoolLoadsScipyBeforeForking:
    def test_parallel_ms_search_loads_scipy_in_the_parent_first(self):
        pytest.importorskip("scipy.optimize")
        outcome = run_python(
            """
            import json, sys
            from concurrent.futures import ProcessPoolExecutor
            from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
            from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
            from repro.perf import pool_available

            if not pool_available():
                print(json.dumps({"skip": True}))
                raise SystemExit(0)
            at_start = []
            original = ProcessPoolExecutor.__init__

            def recording(self, *args, **kwargs):
                at_start.append("scipy.optimize" in sys.modules)
                original(self, *args, **kwargs)

            ProcessPoolExecutor.__init__ = recording
            corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=40, seed=3))
            service = SimilarityService(corpus.repository)
            before = "scipy" in sys.modules
            queries = corpus.repository.identifiers()[:4]
            result = service.search(SearchRequest(
                measure="MS_ip_te_pll", queries=queries, k=5,
                policy=ExecutionPolicy.parallel(2),
            ))
            exact = service.search(SearchRequest(
                measure="MS_ip_te_pll", queries=queries, k=5,
                policy=ExecutionPolicy.sequential(),
            ))
            print(json.dumps({
                "before": before,
                "at_start": at_start,
                "path": result.diagnostics.path,
                "exact": result == exact,
            }))
            """
        )
        if outcome.get("skip"):
            pytest.skip("no process pool in this environment")
        assert outcome == {"before": False, "at_start": [True], "path": "parallel", "exact": True}


@pytest.fixture()
def persisted(small_corpus, tmp_path):
    cache_dir = tmp_path / "store"
    repository = WorkflowRepository(small_corpus.repository.workflows()[:30], name="cold-start")
    service = SimilarityService(repository, cache_dir=cache_dir)
    service.build_index()
    service.persist()
    service.close()
    return cache_dir, len(repository)


@pytest.fixture()
def decodes(monkeypatch):
    """Counts every snapshot-row decode, wherever the store decodes it."""
    import repro.repository.repository as repository_module
    import repro.store.workflow_store as store_module

    calls = []
    decode = store_module.workflow_from_dict

    def counting(payload):
        calls.append(payload["id"])
        return decode(payload)

    monkeypatch.setattr(store_module, "workflow_from_dict", counting)
    monkeypatch.setattr(repository_module, "workflow_from_dict", counting)
    return calls


def snapshot(repository):
    return repository.name, [workflow_to_dict(workflow) for workflow in repository]


class TestOneDecodePerOpen:
    def test_open_decodes_each_row_once(self, persisted, decodes):
        cache_dir, size = persisted
        service = SimilarityService.open(cache_dir=cache_dir)
        assert len(decodes) == size
        assert sorted(decodes) == sorted(service.repository.identifiers())
        with WorkflowStore(cache_dir) as store:
            loaded = store.load_repository()
        assert service.repository.identifiers() == loaded.identifiers()
        assert snapshot(service.repository) == snapshot(loaded)
        assert snapshot(loaded)[0] == "cold-start"
        service.close()

    def test_salvage_decodes_each_row_once(self, persisted, decodes):
        cache_dir, size = persisted
        with WorkflowStore(cache_dir) as store:
            expected = snapshot(store.load_repository())
        decodes.clear()
        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        connection.execute("DELETE FROM postings WHERE rowid = (SELECT MIN(rowid) FROM postings)")
        connection.commit()
        connection.close()

        service = SimilarityService.open(cache_dir=cache_dir)
        assert len(decodes) == size
        assert service.degradation_log  # quarantined, salvaged, rebuilt
        assert snapshot(service.repository) == expected
        service.close()

    def test_the_report_does_not_outlive_the_open(self, persisted):
        cache_dir, _ = persisted
        service = SimilarityService.open(cache_dir=cache_dir)
        # The decoded snapshot rode on the verify report only; the store
        # keeps no copy of it.
        assert not any(
            isinstance(value, WorkflowRepository) for value in vars(service.store).values()
        )
        report = service.store.verify()
        assert report.ok and report._snapshot is not None
        assert report == type(report)(ok=True, tables=dict(report.tables))
        service.close()
