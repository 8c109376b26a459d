"""Tests for the perf layer's profiles and score caches."""

from __future__ import annotations

import json
import random
import tracemalloc
from sys import intern
from types import SimpleNamespace

import pytest

from repro.core.configs import get_module_config
from repro.core.module_similarity import AttributeRule, ModuleComparator, ModuleComparisonConfig
from repro.core.registry import create_measure
from repro.perf import (
    AccelerationContext,
    CachedModuleComparator,
    ModulePairScoreCache,
    ProfileStore,
    accelerate_measure,
)
from repro.store import WorkflowStore, workflow_store
from repro.workflow.model import Module


@pytest.fixture()
def store() -> ProfileStore:
    return ProfileStore()


def make_module(identifier="m1", **overrides) -> Module:
    defaults = dict(
        label="get_pathway_by_gene",
        module_type="wsdl",
        description="Retrieves KEGG pathways",
        service_authority="KEGG",
        service_name="KEGGService",
        service_uri="http://soap.genome.jp/KEGG.wsdl",
    )
    defaults.update(overrides)
    return Module(identifier=identifier, **defaults)


class TestModuleProfile:
    def test_values_match_module_attributes(self, store):
        module = make_module()
        profile = store.module_profile(module)
        for name in ("label", "type", "description", "script", "service_name"):
            assert profile.values[name] == module.attribute(name)

    def test_category_matches_module_category(self, store):
        assert store.module_profile(make_module()).category == "web_service"
        assert store.module_profile(make_module(module_type="beanshell")).category == "script"

    def test_lowered_and_token_sets_are_memoised(self, store):
        profile = store.module_profile(make_module(label="Get_Pathway_By_Gene"))
        assert profile.lowered("label") == "get_pathway_by_gene"
        assert profile.lowered("label") is profile.lowered("label")
        assert profile.token_set("description") == profile.token_set("description")

    def test_store_is_identity_keyed(self, store):
        module = make_module()
        twin = make_module()  # equal value, different object
        assert store.module_profile(module) is store.module_profile(module)
        assert store.module_profile(module) is not store.module_profile(twin)

    def test_workflow_profile_groups_categories(self, store, kegg_workflow):
        profile = store.workflow_profile(kegg_workflow)
        assert profile.size == kegg_workflow.size

    def test_warm_profiles_whole_repository(self, store, small_corpus):
        total = store.warm(small_corpus.repository)
        assert total == sum(workflow.size for workflow in small_corpus.repository)

    def test_invalidation_drops_only_the_workflows_profiles(self, store, small_corpus):
        measure = create_measure("MS_ip_te_pll")
        workflows = small_corpus.repository.workflows()[:12]
        views = [view for w in workflows for view in (w, measure.preprocess(w))]
        profiles = {id(view): store.workflow_profile(view) for view in views}
        victim, projected = workflows[3], measure.preprocess(workflows[3])
        assert projected is not victim and projected.identifier == victim.identifier

        dropped = store.invalidate_workflow(victim.identifier)

        expected = {id(m) for view in (victim, projected) for m in profiles[id(view)].modules}
        assert {id(profile) for profile in dropped} == expected
        assert len(dropped) == len(expected)
        for view in views:
            if view.identifier == victim.identifier:
                assert store.workflow_profile(view) is not profiles[id(view)]
                continue
            assert store.workflow_profile(view) is profiles[id(view)]
            for module, profile in zip(view.modules, profiles[id(view)].modules):
                assert store.module_profile(module) is profile
        assert store.invalidate_workflow("ghost") == []


class TestRepositoryProfileCache:
    def test_profiles_cached_on_repository(self, small_corpus):
        repository = small_corpus.repository
        workflow = repository.workflows()[0]
        assert repository.profile(workflow) is repository.profile(workflow.identifier)
        assert len(repository.profiles()) == len(repository)


class TestPairScoreCache:
    def test_scores_match_module_comparator(self, store):
        for config_name in ("pw0", "pw3", "pll", "plm", "gw1"):
            config = get_module_config(config_name)
            comparator = ModuleComparator(config)
            cache = ModulePairScoreCache(config)
            pairs = [
                (make_module(), make_module("m2", label="getPathwayByGene")),
                (make_module(), make_module("m3", label="", module_type="beanshell", script="x=1;")),
                (make_module(label="", description="", script=""), make_module("m4", label="")),
            ]
            for first, second in pairs:
                expected = comparator.compare(first, second)
                actual = cache.score(store.module_profile(first), store.module_profile(second))
                assert actual == expected, config_name

    def test_symmetric_pairs_share_one_entry(self, store):
        cache = ModulePairScoreCache(get_module_config("pll"))
        first = store.module_profile(make_module(label="alpha_beta"))
        second = store.module_profile(make_module("m2", label="beta_gamma"))
        forward = cache.score(first, second)
        backward = cache.score(second, first)
        assert forward == backward
        assert cache.size == 1
        assert cache.misses == 1
        assert cache.hits == 1

    def test_upper_bound_dominates_score(self, store):
        cache = ModulePairScoreCache(get_module_config("pw0"))
        modules = [
            make_module(),
            make_module("m2", label="getPathwayByGene"),
            make_module("m3", label="run_blast", module_type="beanshell", script="y=2;"),
            make_module("m4", label="", description="something else entirely"),
        ]
        profiles = [store.module_profile(module) for module in modules]
        for first in profiles:
            for second in profiles:
                bound, exact = cache.upper_bound(first, second)
                score = cache.score(first, second)
                assert bound >= score
                if exact:
                    assert bound == score

    def test_char_mask_counts_multiplicities(self):
        cache = ModulePairScoreCache(get_module_config("pll"))
        assert (cache.char_mask("aab") & cache.char_mask("ab")).bit_count() == 2
        assert (cache.char_mask("aab") & cache.char_mask("aaab")).bit_count() == 3
        assert (cache.char_mask("aab") & cache.char_mask("")).bit_count() == 0

    def test_non_exact_bound_stores_nothing(self, store):
        cache = ModulePairScoreCache(get_module_config("pll"))
        first = store.module_profile(make_module(label="alpha_beta"))
        second = store.module_profile(make_module("m2", label="beta_gamma"))
        bound, exact = cache.upper_bound(first, second)
        assert not exact
        # "alpha_beta" and "beta_gamma" share three a's, b, e, t and _.
        assert bound == 7 / 10
        assert cache.upper_bound(first, second) == (bound, False)
        assert cache.size == 0
        assert "bound_entries" not in cache.stats()
        # Once the exact score exists, the bound reads it back.
        score = cache.score(first, second)
        assert cache.size == 1
        assert cache.upper_bound(first, second) == (score, True)

    def test_new_entries_start_after_the_persisted_mark(self, store):
        cache = ModulePairScoreCache(get_module_config("pll"))
        profiles = [
            store.module_profile(make_module(f"m{i}", label=label))
            for i, label in enumerate(("alpha", "beta", "gamma"))
        ]
        cache.score(profiles[0], profiles[1])
        cache.load_entries([(("warm",), ("loaded",), 0.5)])
        assert len(list(cache.new_entries())) == 1  # warm keys never count
        cache.mark_persisted()
        assert list(cache.new_entries()) == []
        cache.score(profiles[0], profiles[2])
        assert len(list(cache.new_entries())) == 1
        cache.reset_warm()  # a different store: everything is new again
        assert len(list(cache.new_entries())) == 3

    def test_stored_fingerprints_are_decoded_and_numbered_once(
        self, store, tmp_path, monkeypatch
    ):
        """A warm load decodes each distinct fingerprint text once, and
        numbers each fingerprint once: one a live profile already
        numbered keeps its number."""
        rows = [(("a",), ("b",), 0.5), (("a",), ("c",), 0.25), (("b",), ("c",), 0.75)]
        persisted = WorkflowStore(tmp_path)
        persisted.save_pair_scores("sig", rows)
        decoded: list[str] = []
        numbered: list[tuple[str, ...]] = []

        def counting_loads(text):
            decoded.append(text)
            return json.loads(text)

        number = ModulePairScoreCache._number

        def counting_number(cache, fingerprint):
            numbered.append(fingerprint)
            return number(cache, fingerprint)

        counting_json = SimpleNamespace(loads=counting_loads, dumps=json.dumps)
        monkeypatch.setattr(workflow_store, "json", counting_json)
        monkeypatch.setattr(ModulePairScoreCache, "_number", counting_number)
        cache = ModulePairScoreCache(get_module_config("pll"))
        # "b" has a number before the load, from a live profile.
        profile_b = store.module_profile(make_module(label="b"))
        number_b = cache.fingerprint(profile_b)
        assert cache.load_entries(persisted.load_pair_scores("sig")) == 3
        assert sorted(decoded) == ['["a"]', '["b"]', '["c"]']
        assert numbered == [("b",), ("a",), ("c",)]
        assert all(part is intern(part) for fingerprint in numbered for part in fingerprint)
        assert cache.fingerprint(profile_b) == number_b
        assert sorted(cache.entries()) == sorted(rows)
        profile_c = store.module_profile(make_module("m2", label="c"))
        assert cache.score(profile_b, profile_c) == 0.75
        assert (cache.hits, cache.warm_hits) == (1, 1)
        # Loading the rows again decodes them again, numbers nothing.
        assert cache.load_entries(persisted.load_pair_scores("sig")) == 0
        assert (len(decoded), len(numbered)) == (6, 3)
        persisted.close()

    def test_entries_cost_a_table_slot_and_a_shared_score(self, store):
        """50,000 ``pll`` entries over 1,000 fingerprints cost at most 64
        bytes each (a dict keyed by tuple pairs costs about 130): no key
        object, no bookkeeping object, one float per distinct score.
        With every score distinct they cost no more than that dict."""
        rng = random.Random(7)
        words = ("get", "pathway", "gene", "blast", "run", "fetch", "seq", "parse", "kegg", "by")
        labels: set[str] = set()
        while len(labels) < 1000:
            parts = rng.choices(words, k=rng.randint(1, 4))
            labels.add("_".join(parts) + str(rng.randint(0, 99)))
        profiles = [
            store.module_profile(make_module(f"m{i}", label=label))
            for i, label in enumerate(sorted(labels))
        ]
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < 50_000:
            pairs.add(tuple(sorted(rng.sample(range(1000), 2))))
        ordered = sorted(pairs)
        # pll scores are 1 - distance / longest label; drawn, not computed,
        # so that only the table's allocations are traced.
        pll_scores = []
        for i, j in ordered:
            longest = max(len(profiles[i].values["label"]), len(profiles[j].values["label"]))
            pll_scores.append(1.0 - rng.randint(1, longest) / longest)
        distinct_scores = [(k + 1) / 65_536 for k in range(len(ordered))]

        def traced(fill):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = fill()
                return (tracemalloc.get_traced_memory()[0] - before) / len(ordered), kept
            finally:
                tracemalloc.stop()

        def cache_of(scores):
            cache = ModulePairScoreCache(get_module_config("pll"))
            numbers = [cache.fingerprint(profile) for profile in profiles]

            def fill():
                for (i, j), score in zip(ordered, scores):
                    cache.score_from_levenshtein(
                        profiles[i], numbers[i], profiles[j], numbers[j], score, exact=True
                    )

            per_entry, _ = traced(fill)
            assert cache.size == len(ordered)
            return cache, per_entry

        cache, per_entry = cache_of(pll_scores)
        assert per_entry <= 64, per_entry
        values = [value for _a, _b, value in cache.entries()]
        assert len({id(value) for value in values}) == len(set(values)) < 1000

        _distinct, per_distinct = cache_of(distinct_scores)
        tuples = [(profile.values["label"],) for profile in profiles]

        def fill_by_tuple_pairs():
            return {
                (tuples[i], tuples[j]) if tuples[i] < tuples[j] else (tuples[j], tuples[i]): (
                    score * 1.0
                )
                / 1.0
                for (i, j), score in zip(ordered, distinct_scores)
            }

        per_tuple_pair, by_tuple_pairs = traced(fill_by_tuple_pairs)
        assert len(by_tuple_pairs) == len(ordered)
        assert per_distinct <= per_tuple_pair, (per_distinct, per_tuple_pair)

    def test_exact_match_config_bound_is_exact(self, store):
        cache = ModulePairScoreCache(get_module_config("plm"))
        first = store.module_profile(make_module())
        second = store.module_profile(make_module("m2", label="other"))
        bound, exact = cache.upper_bound(first, second)
        assert exact
        assert bound == cache.score(first, second)

    def test_single_levenshtein_introspection(self):
        config = ModuleComparisonConfig(
            name="custom", rules=(AttributeRule("label", "prefix"), AttributeRule("type", "exact"))
        )
        assert ModulePairScoreCache(config).symmetric  # prefix is registered symmetric
        config2 = ModuleComparisonConfig(name="lbl", rules=(AttributeRule("label", "levenshtein"),))
        cache = ModulePairScoreCache(config2)
        assert cache.symmetric
        assert cache.single_levenshtein is not None
        assert cache.single_levenshtein.attribute == "label"

    def test_custom_comparator_disables_symmetry(self, store):
        from repro.core.comparators import COMPARATORS

        COMPARATORS["test_asym"] = lambda a, b: float(len(a) > len(b))
        try:
            config = ModuleComparisonConfig(
                name="asym", rules=(AttributeRule("label", "test_asym"),)
            )
            cache = ModulePairScoreCache(config)
            assert not cache.symmetric
            comparator = ModuleComparator(config)
            first = make_module(label="longer_label")
            second = make_module("m2", label="short")
            forward = cache.score(store.module_profile(first), store.module_profile(second))
            backward = cache.score(store.module_profile(second), store.module_profile(first))
            assert forward == comparator.compare(first, second)
            assert backward == comparator.compare(second, first)
            assert cache.size == 2  # no symmetric folding for unknown comparators
        finally:
            del COMPARATORS["test_asym"]


class TestAttributeRuleResolution:
    def test_comparator_resolved_at_construction(self):
        rule = AttributeRule("label", "levenshtein")
        assert callable(rule.comparator_fn)
        assert rule.comparator_fn("abc", "abc") == 1.0

    def test_unknown_comparator_fails_fast(self):
        with pytest.raises(KeyError):
            AttributeRule("label", "definitely_not_registered")


class TestCachedComparator:
    def test_matrix_identical_to_plain_comparator(self, kegg_workflow, kegg_variant_workflow):
        config = get_module_config("pw0")
        plain = ModuleComparator(config)
        cached = CachedModuleComparator(config, AccelerationContext())
        modules_a = list(kegg_workflow.modules)
        modules_b = list(kegg_variant_workflow.modules)
        assert cached.similarity_matrix(modules_a, modules_b) == plain.similarity_matrix(
            modules_a, modules_b
        )
        restricted = {(0, 0), (1, 2), (3, 3)}
        assert cached.similarity_matrix(
            modules_a, modules_b, candidate_pairs=restricted
        ) == plain.similarity_matrix(modules_a, modules_b, candidate_pairs=restricted)

    def test_comparison_counter_keeps_seed_semantics(self, kegg_workflow, kegg_variant_workflow):
        config = get_module_config("pll")
        plain = ModuleComparator(config)
        cached = CachedModuleComparator(config, AccelerationContext())
        modules_a = list(kegg_workflow.modules)
        modules_b = list(kegg_variant_workflow.modules)
        plain.similarity_matrix(modules_a, modules_b)
        cached.similarity_matrix(modules_a, modules_b)
        cached.similarity_matrix(modules_a, modules_b)  # cache hits still count
        assert cached.comparisons_performed == 2 * plain.comparisons_performed

    def test_accelerate_measure_swaps_comparators(self, framework):
        context = AccelerationContext()
        measure = framework.measure("MS_ip_te_pll")
        assert accelerate_measure(measure, context)
        assert isinstance(measure.comparator, CachedModuleComparator)
        assert not accelerate_measure(measure, context)  # idempotent

    def test_accelerate_measure_recurses_into_ensembles(self, framework):
        context = AccelerationContext()
        ensemble = framework.measure("BW+MS_ip_te_pll")
        assert accelerate_measure(ensemble, context)
        structural = [m for m in ensemble.members if hasattr(m, "comparator")]
        assert structural
        assert all(isinstance(m.comparator, CachedModuleComparator) for m in structural)
