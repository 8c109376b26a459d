"""The ``BW``/``BT`` ranking that SQLite computes, against the sequential scan.

Over a trusted, indexed store the ``sql-indexed`` tier answers each
``BW``/``BT`` query with one statement: shared-token counts from the
postings, token counts and snapshot positions from the connection's
``temp.token_counts``, the score ``m / (|A| + n - m)`` and the order
``score DESC, position``.  These tests hold it to the sequential scan —
ids, scores and ranks — where that could go wrong:

* a hypothesis property over drawn corpora of 20–60 workflows whose
  annotations hold ties, empty and stopword-only texts, tags that differ
  only in case and non-ASCII text, for k = 1, 3, 10, the pool size and
  more, before and after removes, adds (with and without ``replace``),
  ``persist()`` and a reopen;
* fixed cases: a query without tokens, a query with more tokens than
  the connection's host-parameter limit, a row another store handle
  wrote, the write-throughs that fail, and a tier that scores nothing in
  Python.

The property's seed is fixed (1483) unless ``REPRO_FUZZ_SEED`` sets
another one.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.core import annotations
from repro.perf import bounds
from repro.repository import WorkflowRepository
from repro.store import FaultInjector, RetryPolicy, WorkflowStore
from repro.workflow.model import Module, Workflow, WorkflowAnnotations

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

MEASURES = ("BW", "BT")

#: Words of titles and descriptions: a small vocabulary (so token sets
#: repeat and scores tie), stopwords, case and punctuation variants that
#: tokenise alike, and non-ASCII words the tokenizer cleans.
WORDS = (
    "gene", "Gene", "GENE", "gene_expression", "RNA-seq", "rna", "seq", "protein",
    "blast", "kegg", "pathway", "the", "of", "and", "a", "naïve", "straße", "日本", "",
)
#: Tags are taken raw: these differ only in case, or only after case
#: folding, or carry non-ASCII and control characters.
TAGS = ("genomics", "Genomics", "GENOMICS", "kegg", "KEGG", "straße", "STRASSE", "İi", "ıi", "x\x00y", "")

texts = st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join)
tags = st.lists(st.sampled_from(TAGS) | st.text(max_size=3), max_size=4).map(tuple)


def workflow(identifier: str, title: str = "", description: str = "", tags=()) -> Workflow:
    return Workflow(
        identifier=identifier,
        modules=(Module(identifier=f"{identifier}:0", label="step", module_type="beanshell"),),
        annotations=WorkflowAnnotations(title=title, description=description, tags=tuple(tags)),
    )


@st.composite
def corpora(draw, prefix: str = "w", min_size: int = 20, max_size: int = 60) -> list[Workflow]:
    count = draw(st.integers(min_size, max_size))
    return [
        workflow(f"{prefix}{index}", draw(texts), draw(texts), draw(tags)) for index in range(count)
    ]


def sequential(measure: str, queries: list[str], k: int) -> SearchRequest:
    return SearchRequest(measure=measure, queries=queries, k=k, policy=ExecutionPolicy.sequential())


def assert_sql_equals_sequential(service: SimilarityService, queries: list[str]) -> None:
    pool = len(service)
    # A store whose corpus holds no token at all has no postings, so it is
    # not indexed and the cached scan answers.
    path = "sql-indexed" if service.store.has_postings() else "cached"
    for measure in MEASURES:
        for k in (1, 3, 10, pool, pool + 7):
            fast = service.search(SearchRequest(measure=measure, queries=queries, k=k))
            exact = service.search(sequential(measure, queries, k))
            assert fast.diagnostics.path == path, fast.diagnostics.notes
            assert not fast.diagnostics.degraded, fast.diagnostics.degradation_reason
            assert fast.result_tuples() == exact.result_tuples(), f"{measure}, k={k}"
            if path == "sql-indexed":
                prune = fast.diagnostics.prune
                assert prune["candidates"] == len(queries) * (pool - 1)
                assert prune["exact_comparisons"] == fast.diagnostics.index_candidates


@seed(FUZZ_SEED)
@settings(max_examples=40, deadline=None, database=None)
@given(corpora(), corpora("n", 1, 6), st.data())
def test_sql_ranking_equals_sequential_through_churn(pool, newcomers, data):
    with tempfile.TemporaryDirectory() as directory:
        cache_dir = Path(directory) / "store"
        service = SimilarityService(WorkflowRepository(pool), cache_dir=cache_dir)
        service.build_index()

        def queries() -> list[str]:
            ids = service.repository.identifiers()
            return data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))

        assert_sql_equals_sequential(service, queries())
        victims = data.draw(
            st.lists(st.sampled_from(service.repository.identifiers()), max_size=5, unique=True)
        )
        service.remove_workflows(victims)
        assert_sql_equals_sequential(service, queries())
        service.add_workflows(newcomers)
        assert_sql_equals_sequential(service, queries())
        changed = [
            workflow(identifier, data.draw(texts), data.draw(texts), data.draw(tags))
            for identifier in data.draw(
                st.lists(st.sampled_from(service.repository.identifiers()), max_size=4, unique=True)
            )
        ]
        service.add_workflows(changed, replace=True)
        assert_sql_equals_sequential(service, queries())
        service.persist()
        assert_sql_equals_sequential(service, queries())
        assert service.degradation_log == []
        service.close()

        reopened = SimilarityService.open(cache_dir=cache_dir)
        assert reopened.repository.identifiers() == service.repository.identifiers()
        assert_sql_equals_sequential(reopened, queries())
        assert reopened.degradation_log == []
        reopened.close()


# -- fixed cases ---------------------------------------------------------------


@pytest.fixture()
def pool(small_corpus):
    return small_corpus.repository.workflows()[:40]


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "store"


def indexed(workflows, cache_dir) -> SimilarityService:
    service = SimilarityService(WorkflowRepository(list(workflows)), cache_dir=cache_dir)
    service.build_index()
    return service


def test_query_without_tokens_pads_zeros_in_pool_order(pool, cache_dir):
    bare = workflow("bare", title="the of and", description="a")
    service = indexed([*pool, bare], cache_dir)
    for measure in MEASURES:
        result = service.search(SearchRequest(measure=measure, queries=["bare"], k=10))
        assert result.diagnostics.path == "sql-indexed"
        assert result.diagnostics.index_candidates == 0
        assert result.result_tuples() == service.search(sequential(measure, ["bare"], 10)).result_tuples()
        assert [hit.workflow_id for hit in result.queries[0].hits] == [w.identifier for w in pool[:10]]
        assert {hit.similarity for hit in result.queries[0].hits} == {0.0}
    service.close()


def test_query_longer_than_the_host_parameter_limit(pool, cache_dir):
    """2,000 query tokens under a 999-parameter limit: still one SQL
    answer, with no fault (a fault here would quarantine a healthy store)."""
    words = [f"w{index}" for index in range(2000)]
    long_query = workflow("long", title=" ".join(words), tags=words)
    partner = workflow("partner", title=" ".join(words[::3]), tags=words[1::3])
    service = indexed([*pool, long_query, partner], cache_dir)
    service.store.connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
    for measure in MEASURES:
        result = service.search(SearchRequest(measure=measure, queries=["long"], k=5))
        assert result.diagnostics.path == "sql-indexed"
        assert not result.diagnostics.degraded, result.diagnostics.degradation_reason
        assert result.queries[0].hits[0].workflow_id == "partner"
        assert result.result_tuples() == service.search(sequential(measure, ["long"], 5)).result_tuples()
    assert service.degradation_log == []
    assert not (cache_dir / "quarantine").exists()
    service.close()


@pytest.mark.parametrize("counted_first", [False, True], ids=["before-counts", "after-counts"])
def test_a_row_another_handle_wrote_never_answers(pool, cache_dir, counted_first):
    """A workflow another store handle added, which the service's corpus
    lacks, is never in an answer: the tier leaves it out or hands over."""
    service = indexed(pool, cache_dir)
    query = pool[0]
    if counted_first:
        service.search(SearchRequest(measure="BW", queries=[query.identifier], k=10))
    twin = workflow("twin", query.annotations.title, query.annotations.description, query.annotations.tags)
    with WorkflowStore(cache_dir) as other:
        other.add_workflow(twin)
    for measure in MEASURES:
        for _ in range(2):
            result = service.search(SearchRequest(measure=measure, queries=[query.identifier], k=10))
            assert "twin" not in {hit.workflow_id for hit in result.queries[0].hits}
            expected = service.search(sequential(measure, [query.identifier], 10))
            assert result.result_tuples() == expected.result_tuples()
    assert not (cache_dir / "quarantine").exists()
    service.close()


@pytest.mark.parametrize(
    "fault", ["locked", "corrupt", "locked-then-committed"]
)
@pytest.mark.parametrize("operation", ["add", "remove"])
def test_search_after_a_failed_write_through(pool, cache_dir, operation, fault):
    """The token counts follow the store through a write-through that
    fails, rolls back and retries, or is quarantined and rebuilt."""
    service = indexed(pool, cache_dir)
    queries = [w.identifier for w in pool[:6]]
    victim = pool[7]
    assert_sql_equals_sequential(service, queries)  # builds the counts
    if operation == "add":
        service.remove_workflows([victim.identifier])
    service.store.retry = RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
    injector = FaultInjector()
    if fault == "locked":
        injector.fail_commit(times=2, locked=True)
    elif fault == "corrupt":
        injector.fail_commit(times=1, locked=False)
    else:
        injector.lock_for_attempts(1)
    service.fault_injector = injector

    def mutate():
        if operation == "add":
            service.add_workflows([victim])
        else:
            service.remove_workflows([victim.identifier])

    if fault == "locked":
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            mutate()
        assert not service.store_trusted
        service.persist()
    else:
        mutate()
    assert service.store_trusted
    assert not service.store.connection.in_transaction
    for measure in MEASURES:
        fast = service.search(SearchRequest(measure=measure, queries=queries, k=10))
        assert fast.diagnostics.path == "sql-indexed"
        assert fast.result_tuples() == service.search(sequential(measure, queries, 10)).result_tuples()
    assert_sql_equals_sequential(service, queries)
    service.close()


def test_the_tier_scores_nothing_in_python(pool, cache_dir, monkeypatch):
    service = indexed(pool, cache_dir)
    queries = [w.identifier for w in pool[:5]]
    expected = {measure: service.search(sequential(measure, queries, 10)) for measure in MEASURES}

    def refuse(*_args, **_kwargs):
        raise AssertionError("a BW/BT candidate was scored in Python")

    monkeypatch.setattr(annotations.BagOfWordsSimilarity, "compare", refuse)
    monkeypatch.setattr(annotations.BagOfTagsSimilarity, "compare", refuse)
    monkeypatch.setattr(annotations, "bag_overlap_similarity", refuse)
    monkeypatch.setattr(bounds, "bag_overlap_similarity", refuse)
    for measure in MEASURES:
        result = service.search(SearchRequest(measure=measure, queries=queries, k=10))
        assert result.diagnostics.path == "sql-indexed"
        assert not result.diagnostics.degraded, result.diagnostics.degradation_reason
        assert result.result_tuples() == expected[measure].result_tuples()
    service.close()


def test_counts_build_commits_and_locks_nothing(pool, cache_dir):
    """The first ranking builds the counts in a transaction of its own that
    it commits: the next write-through begins cleanly, and another handle
    can write meanwhile."""
    service = indexed(pool, cache_dir)
    service.search(SearchRequest(measure="BW", queries=[pool[0].identifier], k=10))
    assert not service.store.connection.in_transaction
    with WorkflowStore(cache_dir, busy_timeout_ms=0) as other:
        other.save_pair_scores("probe", [(("a",), ("b",), 0.5)])
    victim = pool[3]
    service.remove_workflows([victim.identifier])
    service.add_workflows([victim])
    assert service.degradation_log == []
    assert_sql_equals_sequential(service, [w.identifier for w in pool[:4]])
    service.close()
