"""Seeded inputs of each workload, built before anything is measured.

Corpora, stores and query plans are made here, in the ``run.py`` process;
the measured programs (in-process children, or the server) run in other
processes that never generated their corpus, so their peak RSS is the
program's own.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import ENSEMBLE, MS, PS

#: Corpus sizes and plan shapes.  Each workload's sequential reference
#: (the exact scan every answer is checked against) costs about fifteen
#: times the fast path, so these are sized to keep one run, reference
#: included, within about 45 s on a 2-CPU machine.
SERVE_WORKFLOWS = 400
SERVE_LIGHT_POOL = 200
SERVE_HOT_SET = 16
COLD_WORKFLOWS = 500
COLD_QUERIES = 16
COLD_CLUSTER = 50
COLD_MEASURES = (MS, PS, ENSEMBLE)
CHURN_WORKFLOWS = 500
CHURN_WARM_QUERIES = 16
#: Cycles per churn block: one victim, one BW and one MS query from each
#: of this many equal-size strata of the corpus ordered by size.
CHURN_BLOCK = 8
#: search-cold and churn search one fixed corpus; their seed draws the
#: queries, the cluster subset and the churned workflows.  Their cost is
#: set by the corpus's family structure — MS batch time differs up to 2x
#: between generator seeds but under 10% between query sets of one
#: corpus — so a corpus per seed would hide any change under 10-20%.
FIXED_CORPUS_SEED = 20140901


def _corpus(workflows: int, seed: int):
    from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus

    return generate_myexperiment_corpus(CorpusSpec(workflow_count=workflows, seed=seed))


def _by_size(repository) -> "list[str]":
    return sorted(
        repository.identifiers(),
        key=lambda identifier: (len(repository.get(identifier).modules), identifier),
    )


def stratified_sample(repository, count: int, rng: random.Random) -> "list[str]":
    """``count`` workflow ids, one drawn from each equal-size stratum of
    the corpus ordered by module count, returned in repository order.

    Query cost grows with workflow size; stratifying keeps the mix of
    small and large queries the same from seed to seed.
    """
    ids = repository.identifiers()
    by_size = _by_size(repository)
    chosen = {
        rng.choice(by_size[len(by_size) * i // count: len(by_size) * (i + 1) // count])
        for i in range(count)
    }
    return [identifier for identifier in ids if identifier in chosen]


def stratified_blocks(repository, size: int, rng: random.Random) -> "list[list[str]]":
    """Blocks of ``size`` ids, each holding one id of every equal-size
    stratum of the corpus ordered by size, in shuffled order.

    Each stratum is drawn without replacement, so no id repeats; there
    are as many blocks as the smallest stratum has members.  Any whole
    number of blocks has the same size mix.
    """
    by_size = _by_size(repository)
    strata = [by_size[len(by_size) * i // size: len(by_size) * (i + 1) // size] for i in range(size)]
    for stratum in strata:
        rng.shuffle(stratum)
    blocks = [list(members) for members in zip(*strata)]
    for block in blocks:
        rng.shuffle(block)
    return blocks


def search_cold(work: Path, seed: int) -> dict:
    repository = _corpus(COLD_WORKFLOWS, FIXED_CORPUS_SEED).repository
    corpus = work / "corpus.json"
    repository.save(corpus)
    rng = random.Random(seed)
    return {
        "corpus": str(corpus),
        "queries": stratified_sample(repository, COLD_QUERIES, rng),
        "cluster": stratified_sample(repository, COLD_CLUSTER, rng),
        "measures": list(COLD_MEASURES),
        "threshold": 0.8,
    }


def churn(work: Path, seed: int) -> dict:
    from repro.api import SearchRequest, SimilarityService

    repository = _corpus(CHURN_WORKFLOWS, FIXED_CORPUS_SEED).repository
    store = work / "store"
    service = SimilarityService(repository, cache_dir=store)
    service.build_index()
    # A store in use has scores from earlier searches; some of the
    # churn's MS reads are then served from them.
    rng = random.Random(seed)
    warm = stratified_sample(repository, CHURN_WARM_QUERIES, rng)
    service.search(SearchRequest(measure=MS, queries=warm, k=10))
    service.persist()
    service.close()
    # Pair scores are cached by value, so a query read twice is a cache
    # hit the second time: every block draws fresh victims and queries.
    victims, light, heavy = (stratified_blocks(repository, CHURN_BLOCK, rng) for _ in range(3))
    return {
        "store": str(store),
        "blocks": [list(zip(*parts)) for parts in zip(victims, light, heavy)],
    }


def serve_mixed(work: Path, seed: int) -> dict:
    from repro.api import SearchRequest, SimilarityService

    repository = _corpus(SERVE_WORKFLOWS, seed).repository
    rng = random.Random(seed)
    hot = stratified_sample(repository, SERVE_HOT_SET, rng)
    light = stratified_sample(repository, SERVE_LIGHT_POOL, rng)
    root = work / "root"
    service = SimilarityService(repository, cache_dir=root / "bench")
    service.build_index()
    # The hot set's pair scores are persisted with the tenant, so served
    # MS requests read them from the store.
    service.search(SearchRequest(measure=MS, queries=hot, k=10))
    service.persist()
    service.close()
    return {"root": str(root), "tenant": "bench", "hot": hot, "light": light}
