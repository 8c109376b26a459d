"""Cold start: what a process loads at import, and what an open decodes.

No search loads SciPy or NumPy: ``mw`` matchings larger than 6×6 run a
pure-Python port of SciPy's assignment solver, and only an explicit
``use_scipy=True`` imports SciPy itself.  The size rule must not move —
at or below 6 the Hungarian solver can return a different optimal
assignment from SciPy's, so the rule is part of every score.  Opening a
service over a persisted store decodes each snapshot row once (in
verification's payload-decode check), salvage included.
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
            heavy = ("scipy", "numpy")
            before = sorted(m for m in heavy + ("repro.corpus",) if m in sys.modules)
            from repro.graphs.matching import _scipy_assignment, maximum_weight_matching
            matrix = [[float(i * j % 5) for j in range(7)] for i in range(7)]
            maximum_weight_matching(matrix)
            after_default = sorted(m for m in heavy if m in sys.modules)
            maximum_weight_matching(matrix, use_scipy=True)
            print(json.dumps({
                "before": before,
                "after_default": after_default,
                "scipy_installed": _scipy_assignment() is not None,
                "after_forced": "scipy.optimize" in sys.modules,
            }))
            """
        )
        assert loaded["before"] == []
        # A 7x7 default matching runs the pure-Python port ...
        assert loaded["after_default"] == []
        # ... and only an explicit use_scipy=True loads SciPy.
        assert loaded["after_forced"] == loaded["scipy_installed"]


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

    def test_without_scipy_default_is_the_port(self):
        outcome = run_python(
            """
            import json, sys
            sys.modules["scipy"] = None  # SciPy is not installed
            from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
            from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
            from repro.graphs.matching import (
                MatchedPair,
                _scipy_assignment,
                _shortest_augmenting_path,
                maximum_weight_matching,
            )

            matrix = [[((i + 1) * (j + 3)) % 7 / 7.0 for j in range(9)] for i in range(8)]
            port = [
                MatchedPair(i, j, matrix[i][j])
                for i, j in _shortest_augmenting_path(matrix, 8, 9)
                if matrix[i][j] > 0
            ]
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
                "default": maximum_weight_matching(matrix) == port,
                "forced": maximum_weight_matching(matrix, use_scipy=True) == port,
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


class TestSearchesLoadNoScipy:
    def test_default_and_parallel_searches(self):
        """Default-policy MS and PS searches and an auto(workers=2) MS search
        run matchings larger than 6x6, yet load neither SciPy nor NumPy."""
        outcome = run_python(
            """
            import json, sys
            import repro.graphs.matching as matching
            from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
            from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
            from repro.perf import pool_available

            port = matching._shortest_augmenting_path
            large = []

            def counting(weights, n_rows, n_cols):
                large.append((n_rows, n_cols))
                return port(weights, n_rows, n_cols)

            matching._shortest_augmenting_path = counting
            corpus = generate_myexperiment_corpus(CorpusSpec(workflow_count=40, seed=3))
            service = SimilarityService(corpus.repository)
            queries = corpus.repository.identifiers()[:4]
            paths = {}
            for measure in ("MS_ip_te_pll", "MS_np_ta_pll", "PS_np_ta_pll"):
                result = service.search(SearchRequest(measure=measure, queries=queries, k=5))
                paths[measure] = result.diagnostics.path
            parallel = None
            if pool_available():
                result = service.search(SearchRequest(
                    measure="MS_ip_te_pll", queries=queries, k=5,
                    policy=ExecutionPolicy.auto(workers=2),
                ))
                exact = service.search(SearchRequest(
                    measure="MS_ip_te_pll", queries=queries, k=5,
                    policy=ExecutionPolicy.sequential(),
                ))
                parallel = [result.diagnostics.path, result == exact]
            print(json.dumps({
                "loaded": sorted(m for m in ("scipy", "numpy") if m in sys.modules),
                "large_matchings": len(large),
                "paths": paths,
                "parallel": parallel,
            }))
            """
        )
        assert outcome["loaded"] == []
        assert outcome["large_matchings"] > 0  # matchings larger than 6x6 ran
        assert outcome["paths"] == {
            "MS_ip_te_pll": "pruned",
            "MS_np_ta_pll": "pruned",
            "PS_np_ta_pll": "pruned",
        }
        # None only where this environment has no process pool.
        assert outcome["parallel"] in (None, ["parallel", True])


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
