"""Property-style soundness of every registered CertifiedBound.

The whole acceleration story rests on one inequality: for every measure
a bound certifies, ``upper_bound(query, candidate) >= exact score`` —
on *every* pair, not just the ones a particular frontier happens to
probe.  These tests sweep all pairs of a generated corpus (plus the
paper's approach matrix as the configuration source) and assert the
inequality for the initial bound and for every refinement step.  They
also pin the best-first top-k built on those bounds: its tie rule, the
per-query column memo that refinements write back into, and the
``BW``/``BT`` ranking that SQL computes from the store's postings, which
must reproduce the sequential ranking.

The corpus seed is overridable via ``REPRO_BOUNDS_SEED`` so CI can run
the same sweep on a corpus no other test has ever seen.  A second sweep
runs over adversarial workflows no generator produces: empty, unicode
and duplicate labels, single-module, trivial-only and 20–40-module
workflows.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
from repro.core.configs import get_module_config
from repro.core.ensemble import MeanEnsemble, WeightedEnsemble
from repro.core.framework import SimilarityFramework
from repro.core.registry import create_measure, paper_approach_matrix
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus
from repro.perf.bounds import BOUND_CLASSES, EnsembleBound, find_bound, find_frontier_bound
from repro.perf.cache import ModulePairScoreCache
from repro.perf.engine import (
    AccelerationContext,
    CachedModuleComparator,
    PruneStats,
    accelerate_measure,
    bounded_top_k,
)
from repro.repository import WorkflowRepository
from repro.store import InvertedAnnotationIndex, SqlAdmissionPlanner, WorkflowStore
from repro.workflow.model import DataLink, Workflow, WorkflowAnnotations

SEED = int(os.environ.get("REPRO_BOUNDS_SEED", "13"))

#: Every distinct configuration of the paper's approach matrix, plus the
#: importance-projected single-label variants the routing layer favours
#: and ensembles exercising the composed bound.
CONFIGURATIONS = sorted(
    {row["configuration"] for row in paper_approach_matrix()}
    | {"MS_ip_te_pll", "PS_ip_te_pll", "MS_ip_te_pll_nonorm"}
    | {"BW+MS_ip_te_pll", "BT+PS_ip_te_pll", "BW+BT+MS_ip_te_pll"}
)


@pytest.fixture(scope="module")
def corpus():
    generated = generate_myexperiment_corpus(
        CorpusSpec(workflow_count=36, seed=SEED, author_count=8)
    )
    return generated.repository.workflows()


@pytest.fixture(scope="module")
def context():
    return AccelerationContext()


def certified_pairs(measure, context, workflows):
    """(bound, query, candidate) for every ordered pair of the corpus."""
    bound = find_bound(measure, context)
    if bound is None:
        pytest.skip(f"no certified bound for {measure.name!r}")
    for query in workflows[:12]:
        query_summary = bound.summary(query)
        for candidate in workflows:
            if candidate.identifier == query.identifier:
                continue
            yield bound, query_summary, bound.summary(candidate), query, candidate


def _compares_labels_by_levenshtein(configuration: str) -> bool:
    """Whether an ``MS`` or ``PS`` part of ``configuration`` has a
    Levenshtein rule, whose pair bound is not the exact score."""
    for part in configuration.split("+"):
        fields = part.split("_")
        if fields[0] in ("MS", "PS") and any(
            rule.comparator.startswith("levenshtein")
            for rule in get_module_config(fields[3]).rules
        ):
            return True
    return False


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_upper_bound_never_below_exact(configuration, corpus, monkeypatch):
    """The first-pass bound stays at or above the exact score.

    Runs on a *cold* acceleration context, with exact scores taken from
    a separate unaccelerated instance: scoring through the accelerated
    measure first would cache every module pair's exact score, and the
    sweep would read no structural pair bound at all.
    """
    cold = AccelerationContext()
    measure = create_measure(configuration)
    accelerate_measure(measure, cold)
    reference = create_measure(configuration)
    non_exact = 0
    original = ModulePairScoreCache.pair_bound

    def counting(cache, *args):
        nonlocal non_exact
        value, exact = original(cache, *args)
        non_exact += not exact
        return value, exact

    monkeypatch.setattr(ModulePairScoreCache, "pair_bound", counting)
    for bound, qs, cs, query, candidate in certified_pairs(measure, cold, corpus):
        exact = reference.similarity(query, candidate)
        value = bound.upper_bound(qs, cs)
        assert value >= exact, (
            f"{bound.name} under {configuration}: bound {value!r} < exact "
            f"{exact!r} for ({query.identifier}, {candidate.identifier})"
        )
    if _compares_labels_by_levenshtein(configuration):
        assert non_exact > 0, "the sweep read no non-exact module-pair bound"


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_refined_bound_never_below_exact(configuration, corpus):
    """refine() may tighten the bound but must stay above the true score.

    Runs on a *cold* acceleration context, with exact scores taken from
    a separate unaccelerated instance: scoring through the accelerated
    measure first would promote every pair to an exact cache entry and
    refinement would never have anything to do.
    """
    cold = AccelerationContext()
    measure = create_measure(configuration)
    accelerate_measure(measure, cold)
    reference = create_measure(configuration)
    bound = find_bound(measure, cold)
    if bound is None:
        pytest.skip(f"no certified bound for {configuration!r}")
    refined_any = False
    for query in corpus[:8]:
        qs = bound.summary(query)
        for candidate in corpus[:24]:
            if candidate.identifier == query.identifier:
                continue
            cs = bound.summary(candidate)
            exact = reference.similarity(query, candidate)
            value = bound.upper_bound(qs, cs)
            # Higher thresholds force more refinement work (the floor
            # each pair must clear grows with the threshold); the
            # initial bound itself is the most demanding admissible one.
            for threshold in (exact, (exact + value) / 2.0, value):
                refined = bound.refine(qs, cs, threshold)
                if refined is None:
                    continue
                refined_any = True
                assert refined >= exact, (
                    f"{bound.name} under {configuration}: refined {refined!r} < "
                    f"exact {exact!r} at threshold {threshold!r}"
                )
    if configuration in ("MS_ip_te_pll", "MS_np_ta_pll"):
        assert refined_any, "banded refinement never ran for a Levenshtein MS"


def test_every_frontier_bound_certifies_what_it_claims(context):
    """certifies() and find_frontier_bound agree with the registry."""
    for configuration in CONFIGURATIONS:
        measure = create_measure(configuration)
        accelerate_measure(measure, context)
        claims = [cls for cls in BOUND_CLASSES if cls.certifies(measure)]
        bound = find_bound(measure, context)
        if claims:
            assert bound is not None
            assert type(bound) is claims[0]
        else:
            assert bound is None
        frontier = find_frontier_bound(measure, context)
        if frontier is not None:
            assert frontier.prunes


#: Measures of the tie sweep: MS under every preselection (ta/te/tm),
#: both label-only and multi-attribute comparison, with and without
#: normalisation; PS; and a certified ensemble.
TIE_CONFIGURATIONS = [
    "MS_np_ta_pll",
    "MS_ip_te_pll",
    "MS_ip_tm_pll",
    "MS_np_ta_pw0",
    "MS_ip_te_pw0",
    "MS_ip_tm_pw0",
    "MS_ip_te_pll_nonorm",
    "MS_np_ta_pw0_nonorm",
    "PS_ip_te_pll",
    "BW+MS_ip_te_pll",
]


def _relabelled(workflow, suffix: str, labels):
    """``workflow`` under a new identifier, its modules relabelled in order."""
    modules = [module.with_values(label=label) for module, label in zip(workflow.modules, labels)]
    return workflow.with_modules(modules, suffix=suffix)


@pytest.fixture(scope="module")
def tie_pool(corpus):
    """A pool whose exact ties straddle every k-th place.

    Every workflow of a slice of the corpus appears twice, a third of
    them three times, copies in reverse order, so equal scores sit at
    scattered pool positions.  Three relabelled workflows add ties at
    0.0: ``zero-q`` and ``zero-y`` carry two-character labels that are
    each other's reversals (a character-bag bound of 1.0 per module
    pair, an exact label similarity of 0.0), and every other candidate
    shares no label character with ``zero-q`` at all.  ``zero-y``
    therefore enters the frontier first with score 0.0, and the
    zero-bound candidates before it in the pool must still displace it.
    """
    base = corpus[:12]
    copies = [replace(w, identifier=f"{w.identifier}-b") for w in reversed(base)]
    thirds = [replace(w, identifier=f"{w.identifier}-c") for w in base[::3]]
    shape = corpus[12]

    def pairs(offset: int) -> list[str]:
        return [chr(offset + 2 * i) + chr(offset + 2 * i + 1) for i in range(shape.size)]

    query = _relabelled(shape, "-zero-q", pairs(0x4E00))
    reversed_labels = _relabelled(shape, "-zero-y", [label[::-1] for label in pairs(0x4E00)])
    disjoint = _relabelled(shape, "-zero-x", pairs(0x5E00))
    return [disjoint] + base[:6] + copies + base[6:] + thirds + [query, reversed_labels]


@pytest.mark.parametrize("configuration", TIE_CONFIGURATIONS)
def test_best_first_ties_match_sequential_ranking(configuration, tie_pool):
    """bounded_top_k equals SimilarityFramework.top_k — ids, scores and
    ranks — when exact ties straddle the k-th place, and accounts for
    every candidate exactly once."""
    reference = SimilarityFramework()
    measure = create_measure(configuration)
    context = AccelerationContext()
    accelerate_measure(measure, context)
    queries = [tie_pool[1], tie_pool[7], tie_pool[-2], tie_pool[-1], tie_pool[0]]
    for k in (1, 2, 5, len(tie_pool)):
        for query in queries:
            stats = PruneStats()
            fast = bounded_top_k(query, tie_pool, measure, context, k=k, stats=stats)
            expected = reference.top_k(query, tie_pool, configuration, k=k)
            assert [(entry.identifier, entry.similarity, entry.rank) for entry in fast] == [
                (entry.identifier, entry.similarity, entry.rank) for entry in expected
            ], f"{configuration}, k={k}, query {query.identifier}"
            assert stats.exact_comparisons + stats.pruned == stats.candidates


@pytest.mark.parametrize("configuration", ["MS_ip_te_pll", "MS_np_ta_pll", "BW+MS_ip_te_pll"])
def test_shared_column_memo_stays_sound_after_refinement(configuration, corpus):
    """Refinements write tightened pair bounds into the per-query
    columns every candidate shares; afterwards every candidate's bound
    must still be at or above its exact score."""
    cold = AccelerationContext()
    measure = create_measure(configuration)
    accelerate_measure(measure, cold)
    reference = create_measure(configuration)
    bound = find_bound(measure, cold)
    query = corpus[0]
    qs = bound.summary(query)
    candidates = [
        (candidate, bound.summary(candidate), reference.similarity(query, candidate))
        for candidate in corpus
        if candidate.identifier != query.identifier
    ]
    stats = PruneStats()
    for _candidate, cs, _exact in candidates:
        value = bound.upper_bound(qs, cs)
        for threshold in (1.0, value):
            bound.refine(qs, cs, threshold, stats=stats)
    assert stats.banded_calls > 0, "no refinement wrote back into the columns"
    for candidate, cs, exact in candidates:
        value = bound.upper_bound(qs, cs)
        assert value >= exact, f"{candidate.identifier}: bound {value!r} < exact {exact!r}"
        for threshold in (exact, 1.0):
            refined = bound.refine(qs, cs, threshold)
            assert refined is None or refined >= exact, (
                f"{candidate.identifier}: refined {refined!r} < exact {exact!r}"
            )


def test_each_distinct_column_is_bounded_once_per_query(corpus, monkeypatch):
    """The MS first pass looks a module pair up once per distinct
    (admissibility class, fingerprint) column, not once per occurrence,
    and reads every fingerprint from the summaries."""
    context = AccelerationContext()
    measure = create_measure("MS_np_ta_pll")
    accelerate_measure(measure, context)
    bound = find_bound(measure, context)
    lookups = fingerprints = 0
    original = ModulePairScoreCache.pair_bound
    original_fingerprint = ModulePairScoreCache.fingerprint

    def counting(cache, *args):
        nonlocal lookups
        lookups += 1
        return original(cache, *args)

    def counting_fingerprint(cache, profile):
        nonlocal fingerprints
        fingerprints += 1
        return original_fingerprint(cache, profile)

    monkeypatch.setattr(ModulePairScoreCache, "pair_bound", counting)
    query = corpus[0]
    qs = bound.summary(query)
    summaries = [bound.summary(candidate) for candidate in corpus[1:]]
    monkeypatch.setattr(ModulePairScoreCache, "fingerprint", counting_fingerprint)
    for cs in summaries:
        bound.upper_bound(qs, cs)
    distinct = {key for cs in summaries for key in cs.keys}
    assert lookups == qs.size * len(distinct)
    assert lookups < qs.size * sum(cs.size for cs in summaries)
    assert fingerprints == 0, "the bound pass looked fingerprints up"
    for cs in summaries:
        bound.upper_bound(qs, cs)
    assert lookups == qs.size * len(distinct), "a second pass re-bounded memoised columns"


@pytest.mark.parametrize("restricted", [False, True], ids=["all-pairs", "candidate-pairs"])
def test_similarity_matrix_reads_each_fingerprint_once(corpus, monkeypatch, restricted):
    """A cached similarity matrix reads each row's and each column's
    fingerprint once, not both per cell, and scores and counts exactly
    as scoring every cell on its own does."""
    config = get_module_config("pll")
    first, second = corpus[0].modules, corpus[1].modules
    pairs = None
    if restricted:
        pairs = {(i, j) for i in range(len(first)) for j in range(len(second)) if (i + j) % 2}
    per_cell = CachedModuleComparator(config, AccelerationContext())
    expected = [
        [
            per_cell.compare(a, b) if pairs is None or (i, j) in pairs else 0.0
            for j, b in enumerate(second)
        ]
        for i, a in enumerate(first)
    ]
    calls = 0
    original = ModulePairScoreCache.fingerprint

    def counting_fingerprint(cache, profile):
        nonlocal calls
        calls += 1
        return original(cache, profile)

    monkeypatch.setattr(ModulePairScoreCache, "fingerprint", counting_fingerprint)
    matrix = CachedModuleComparator(config, AccelerationContext())
    assert matrix.similarity_matrix(first, second, candidate_pairs=pairs) == expected
    assert calls == len(first) + len(second) < 2 * len(first) * len(second)
    assert matrix.comparisons_performed == per_cell.comparisons_performed
    assert matrix.cache.stats() == per_cell.cache.stats()
    # A second matrix is served from the cache, still at one read per module.
    calls = 0
    assert matrix.similarity_matrix(first, second, candidate_pairs=pairs) == expected
    assert calls == len(first) + len(second)
    assert matrix.cache.misses == per_cell.cache.misses


#: Labels no generated corpus has: CJK, an arrow, a combining accent, an
#: emoji, a zero-width space alone, a ligature and a dotted capital I.
UNICODE_LABELS = ("数据清洗", "α→β", "e\u0301tape", "🧬 align", "\u200b", "ﬁlter", "İSTANBUL")

#: Structural measures (and an ensemble) under both projections and
#: every preselection the bounds certify.
ADVERSARIAL_CONFIGURATIONS = [
    "MS_ip_te_pll",
    "MS_np_ta_pll",
    "MS_np_ta_pw0",
    "PS_ip_te_pll",
    "PS_np_ta_pll",
    "BW+MS_ip_te_pll",
]


def _large(donors, size: int, identifier: str):
    """A ``size``-module workflow of two chains from one source; its
    modules (types and labels, duplicates included) come from ``donors``."""
    borrowed = [module for workflow in donors for module in workflow.modules]
    modules = [
        borrowed[i % len(borrowed)].with_values(identifier=f"{identifier}:{i}")
        for i in range(size)
    ]
    half = size // 2
    links = [DataLink(f"{identifier}:0", f"{identifier}:{half}")] + [
        DataLink(f"{identifier}:{i}", f"{identifier}:{i + 1}")
        for i in range(size - 1)
        if i + 1 != half
    ]
    return Workflow(identifier=identifier, modules=tuple(modules), datalinks=tuple(links))


@pytest.fixture(scope="module")
def adversarial_pool(corpus):
    base = corpus[:6]
    unicode = [
        _relabelled(workflow, "-unicode", [UNICODE_LABELS[(i + n) % 7] for i in range(workflow.size)])
        for n, workflow in enumerate(base[2:4])
    ]
    trivial = [module for workflow in corpus for module in workflow.modules if module.is_trivial]
    return (
        list(base)
        + [_relabelled(workflow, "-empty", [""] * workflow.size) for workflow in base[:2]]
        + unicode
        + [_relabelled(w, "-dup", [w.modules[0].label] * w.size) for w in base[4:6]]
        + [w.with_modules(w.modules[:1], (), suffix="-single") for w in base[:3]]
        + [base[3].with_modules([base[3].modules[0].with_values(label="")], (), suffix="-blank")]
        + [base[0].with_modules(trivial[:5], (), suffix="-trivial")]
        + [_large(corpus[6:], size, f"large-{size}") for size in (20, 29, 40)]
    )


@pytest.mark.parametrize("configuration", ADVERSARIAL_CONFIGURATIONS)
def test_adversarial_bounds_never_below_exact(configuration, adversarial_pool):
    """Every bound, initial and refined, stays at or above the exact
    score on every ordered pair of the adversarial pool."""
    cold = AccelerationContext()
    measure = create_measure(configuration)
    accelerate_measure(measure, cold)
    reference = create_measure(configuration)
    bound = find_bound(measure, cold)
    assert bound is not None
    summaries = [bound.summary(workflow) for workflow in adversarial_pool]
    for query, qs in zip(adversarial_pool, summaries):
        for candidate, cs in zip(adversarial_pool, summaries):
            if candidate is query:
                continue
            exact = reference.similarity(query, candidate)
            value = bound.upper_bound(qs, cs)
            pair = f"{configuration} ({query.identifier}, {candidate.identifier})"
            assert value >= exact, f"{pair}: bound {value!r} < exact {exact!r}"
            for threshold in (exact, value):
                refined = bound.refine(qs, cs, threshold)
                assert refined is None or refined >= exact, (
                    f"{pair}: refined {refined!r} < exact {exact!r} at {threshold!r}"
                )


@pytest.mark.parametrize(
    "configuration", ["MS_ip_te_pll", "MS_np_ta_pll", "PS_ip_te_pll", "PS_np_ta_pll"]
)
def test_adversarial_pruned_search_equals_sequential(configuration, adversarial_pool):
    service = SimilarityService(WorkflowRepository(adversarial_pool, name="adversarial"))
    queries = [workflow.identifier for workflow in adversarial_pool]
    for k in (1, 3, len(queries)):
        pruned = service.search(SearchRequest(measure=configuration, queries=queries, k=k))
        sequential = service.search(
            SearchRequest(
                measure=configuration,
                queries=queries,
                k=k,
                policy=ExecutionPolicy.sequential(),
            )
        )
        assert pruned.diagnostics.path == "pruned"
        assert pruned.result_tuples() == sequential.result_tuples(), f"k={k}"


def _reannotated(workflow, suffix: str, **annotations):
    """``workflow`` under a new identifier with only ``annotations``."""
    return replace(
        workflow,
        identifier=f"{workflow.identifier}{suffix}",
        annotations=WorkflowAnnotations(**annotations),
    )


@pytest.mark.parametrize("configuration", ["BW", "BT"])
@pytest.mark.parametrize("source", ["corpus", "adversarial_pool"])
def test_admitted_top_k_equals_sequential_ranking(configuration, source, request, tmp_path):
    """The SQL ranking of a store of the pool (the ``sql-indexed`` tier)
    equals SimilarityFramework.top_k — ids, scores and ranks — including
    queries whose tokens or tags are empty (nothing admitted) and k above
    the admitted count.  SQL scores exactly the admitted candidates; every
    other candidate counts as pruned under the bound's name."""
    base = request.getfixturevalue(source)
    pool = list(base) + [
        _reannotated(base[0], "-bare"),
        _reannotated(base[1], "-stopwords", title="the of and", tags=("workflow",)),
        _reannotated(base[2], "-untagged", title=base[2].annotations.title),
    ]
    reference = SimilarityFramework()
    service = SimilarityService(WorkflowRepository(pool), cache_dir=tmp_path)
    service.build_index()
    bound = {"BW": "bw-token-bag", "BT": "bt-tag-bag"}[configuration]
    empty = above = 0
    for query in pool[:8] + pool[-3:]:
        for k in (1, 3, 10, len(pool)):
            result = service.search(
                SearchRequest(measure=configuration, queries=[query.identifier], k=k)
            )
            diagnostics = result.diagnostics
            assert diagnostics.path == "sql-indexed"
            admitted = diagnostics.index_candidates
            above += k > admitted
            expected = reference.top_k(query, pool, configuration, k=k)
            assert [(hit.workflow_id, hit.similarity, hit.rank) for hit in result.queries[0].hits] == [
                (entry.identifier, entry.similarity, entry.rank) for entry in expected
            ], f"{configuration}, k={k}, query {query.identifier}"
            prune = diagnostics.prune
            assert prune["candidates"] == len(pool) - 1
            assert prune["exact_comparisons"] == admitted
            assert prune["exact_comparisons"] + prune["pruned_char_bag"] == prune["candidates"]
            assert prune["pruned_by_bound"] == {bound: prune["pruned_char_bag"]}
        empty += not admitted
    service.close()
    assert empty > 0, "no query without tokens; the sweep missed empty admission"
    assert above > 0


class TestEnsembleComposition:
    def test_mean_ensemble_bound_composes_member_bounds(self, corpus, context):
        measure = create_measure("BW+MS_ip_te_pll")
        accelerate_measure(measure, context)
        assert type(measure) is MeanEnsemble
        bound = find_bound(measure, context)
        assert isinstance(bound, EnsembleBound)
        assert bound.name == "ensemble(bw-token-bag+ms-char-bag)"
        for query in corpus[:8]:
            qs = bound.summary(query)
            for candidate in corpus[:20]:
                if candidate.identifier == query.identifier:
                    continue
                exact = measure.similarity(query, candidate)
                assert bound.upper_bound(qs, bound.summary(candidate)) >= exact

    def test_weighted_ensemble_requires_positive_weights(self, context):
        members = [create_measure("BW"), create_measure("MS_ip_te_pll")]
        positive = WeightedEnsemble(list(members), [2.0, 1.0], name="W")
        assert EnsembleBound.certifies(positive)
        zero = WeightedEnsemble(list(members), [2.0, 0.0], name="W0")
        assert not EnsembleBound.certifies(zero)
        negative = WeightedEnsemble(list(members), [2.0, -1.0], name="Wn")
        assert not EnsembleBound.certifies(negative)

    def test_uncertified_member_uncertifies_the_ensemble(self, context):
        # GE has no bound, so no ensemble containing it is certified.
        mixed = create_measure("BW+GE_np_ta_plm_nonorm")
        accelerate_measure(mixed, context)
        assert find_bound(mixed, context) is None

    def test_weighted_ensemble_bound_is_sound(self, corpus, context):
        members = [create_measure("BW"), create_measure("MS_ip_te_pll")]
        measure = WeightedEnsemble(list(members), [3.0, 1.0], name="W")
        accelerate_measure(measure, context)
        bound = find_bound(measure, context)
        assert isinstance(bound, EnsembleBound)
        for query in corpus[:8]:
            qs = bound.summary(query)
            for candidate in corpus[:20]:
                if candidate.identifier == query.identifier:
                    continue
                exact = measure.similarity(query, candidate)
                cs = bound.summary(candidate)
                value = bound.upper_bound(qs, cs)
                assert value >= exact
                refined = bound.refine(qs, cs, exact)
                if refined is not None:
                    assert refined >= exact


class TestAdmissionSoundness:
    """Admission bounds certify zeros: everything outside the set the
    planner admits from a store's postings must score exactly 0.0."""

    @pytest.mark.parametrize("configuration", ["BW", "BT"])
    def test_non_admitted_candidates_score_zero(self, configuration, corpus, context, tmp_path):
        measure = create_measure(configuration)
        accelerate_measure(measure, context)
        field = find_bound(measure, context).postings
        assert field is not None
        checked = 0
        with WorkflowStore(tmp_path) as store:
            store.save_repository(WorkflowRepository(corpus), postings=True)
            planner = SqlAdmissionPlanner(store)
            for query in corpus[:12]:
                admitted = planner.admitted(
                    field, InvertedAnnotationIndex.workflow_tokens(field, query)
                )
                for candidate in corpus:
                    if candidate.identifier == query.identifier:
                        continue
                    if candidate.identifier not in admitted:
                        assert measure.similarity(query, candidate) == 0.0
                        checked += 1
        assert checked > 0, "admission admitted everything; sweep proved nothing"

    def test_ensembles_have_no_admission(self):
        for configuration in ("BW+BT", "BW+MS_ip_te_pll"):
            bound = find_bound(create_measure(configuration), AccelerationContext())
            assert bound.postings is None, configuration

    @pytest.mark.parametrize("configuration", ["MS_ip_te_pll", "MS_np_ta_pll", "PS_ip_te_pll"])
    def test_structural_measures_have_no_admission(self, configuration):
        """Label character overlap admits nearly every candidate on a
        natural-language corpus, so MS/PS prune by frontier bound only."""
        assert find_bound(create_measure(configuration), AccelerationContext()).postings is None
