"""Model-based fuzz of the pair-score table (:class:`ModulePairScoreCache`).

The cache numbers fingerprints and keeps its scores in a two-level table
keyed by those numbers.  The model here is the plain layout it replaced:
one insertion-ordered dict keyed by the canonical pair of fingerprint
tuples, with a set of warm keys and an index mark of what is persisted.
Hypothesis draws sequences of operations over a few drawn labels (equal
labels included, so distinct profiles share fingerprints) and applies
each to both:

* ``pair_score``; ``pair_bound``, whose exact results are promoted into
  the table; ``score_from_levenshtein(exact=True)``;
* ``load_entries`` of stored rows, over fingerprints that may already
  have numbers and fingerprints no profile has, with any float as the
  score (``-0.0`` and NaN included);
* a persist round that commits (``new_entries`` then
  ``mark_persisted``) and one that rolls back (no mark);
* ``reset_warm``, ``invalidate_profiles`` and ``clear``.

After every step ``entries()`` (orientation included, scores compared
bit for bit), ``new_entries()``, ``size``, ``hits``, ``misses`` and
``warm_hits`` must equal the model's, and equal fingerprints must keep
one number for the whole sequence, across ``clear()`` too.  Sequences
run under ``pll`` (symmetric) and under a custom comparator, which is
asymmetric.

The seed is fixed (1483) unless ``REPRO_FUZZ_SEED`` sets another one.
"""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.comparators import COMPARATORS
from repro.core.configs import get_module_config
from repro.core.module_similarity import AttributeRule, ModuleComparator, ModuleComparisonConfig
from repro.perf import ModulePairScoreCache, ProfileStore
from repro.text.levenshtein import levenshtein_similarity
from repro.workflow.model import Module

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))


def _asymmetric(value_a: str, value_b: str) -> float:
    return len(value_a) / (len(value_a) + len(value_b)) if value_a or value_b else 0.0


def _asymmetric_config() -> ModuleComparisonConfig:
    # A rule resolves its comparator when it is built, so the registry
    # entry is needed only while the configuration is.
    COMPARATORS["fuzz_asymmetric"] = _asymmetric
    try:
        return ModuleComparisonConfig(
            name="asymmetric", rules=(AttributeRule("label", "fuzz_asymmetric"),)
        )
    finally:
        del COMPARATORS["fuzz_asymmetric"]


CONFIGS = {"pll": get_module_config("pll"), "asymmetric": _asymmetric_config()}

#: Labels of the drawn profiles (a small vocabulary, so that pairs
#: recur), and labels only stored rows carry.
labels = st.sampled_from(("", "a", "ab", "ba", "a_b", "b_a")) | st.text(alphabet="ab_", max_size=4)
STORED_ONLY = ("stored", "b_stored")

pairs = st.tuples(st.integers(0, 5), st.integers(0, 5))
scores = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 0.5])
stored_labels = st.integers(0, 5) | st.sampled_from(STORED_ONLY)
operations = st.one_of(
    st.tuples(st.just("score"), pairs),
    st.tuples(st.just("bound"), pairs),
    st.tuples(st.just("levenshtein"), pairs),
    st.tuples(
        st.just("load"),
        st.lists(st.tuples(stored_labels, stored_labels, scores), max_size=6),
    ),
    st.tuples(st.just("persist"), st.booleans()),
    st.tuples(st.just("reset_warm"), st.none()),
    st.tuples(st.just("invalidate"), st.lists(st.integers(0, 5), max_size=3)),
    st.tuples(st.just("clear"), st.none()),
)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


class TupleKeyedTable:
    """The model: exact scores in one dict keyed by fingerprint tuples."""

    def __init__(self, symmetric: bool) -> None:
        self.symmetric = symmetric
        self.clear()

    def clear(self) -> None:
        self.scores: dict[tuple, float] = {}
        self.warm: set[tuple] = set()
        self.mark = 0
        self.hits = self.misses = self.warm_hits = 0

    def key(self, fingerprint_a: tuple, fingerprint_b: tuple) -> tuple:
        if self.symmetric and fingerprint_b < fingerprint_a:
            return fingerprint_b, fingerprint_a
        return fingerprint_a, fingerprint_b

    def lookup(self, key: tuple) -> "float | None":
        value = self.scores.get(key)
        if value is not None:
            self.hits += 1
            self.warm_hits += key in self.warm
        return value

    def new_entries(self) -> dict[tuple, bytes]:
        pending = list(self.scores.items())[self.mark:]
        return {key: bits(value) for key, value in pending if key not in self.warm}


def table_of(entries) -> dict[tuple, bytes]:
    listed = list(entries)
    table = {(first, second): bits(value) for first, second, value in listed}
    assert len(table) == len(listed), "an entry was exported twice"
    return table


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@seed(FUZZ_SEED)
@settings(max_examples=150, deadline=None, database=None)
@given(pool=st.lists(labels, min_size=6, max_size=6), steps=st.lists(operations, max_size=30))
def test_numbered_table_matches_the_tuple_keyed_model(config_name, pool, steps):
    config = CONFIGS[config_name]
    cache = ModulePairScoreCache(config)
    model = TupleKeyedTable(cache.symmetric)
    assert cache.symmetric == (config_name == "pll")
    reference = ModuleComparator(config)
    modules = [
        Module(identifier=f"m{i}", label=label, module_type="wsdl") for i, label in enumerate(pool)
    ]
    profiles = [ProfileStore().module_profile(module) for module in modules]
    numbers: dict[str, int] = {}

    def fingerprints(i: int, j: int):
        # The numbers given at the start, as a bound summary would hold them.
        return (pool[i],), (pool[j],), numbers[pool[i]], numbers[pool[j]]

    def check() -> None:
        assert table_of(cache.entries()) == {key: bits(v) for key, v in model.scores.items()}
        assert table_of(cache.new_entries()) == model.new_entries()
        assert cache.size == len(model.scores)
        counters = (cache.hits, cache.misses, cache.warm_hits)
        assert counters == (model.hits, model.misses, model.warm_hits)
        assert cache.stats()["warm_entries"] == len(model.warm)
        for label, profile in zip(pool, profiles):
            number = numbers.setdefault(label, cache.fingerprint(profile))
            assert cache.fingerprint(profile) == number
        assert len(set(numbers.values())) == len(numbers)

    check()
    for operation, argument in steps:
        if operation == "levenshtein" and cache.single_levenshtein is None:
            operation = "score"
        if operation == "score":
            tuple_a, tuple_b, number_a, number_b = fingerprints(*argument)
            value = cache.pair_score(
                profiles[argument[0]], number_a, profiles[argument[1]], number_b
            )
            expected = model.lookup(model.key(tuple_a, tuple_b))
            if expected is None:
                expected = reference.compare(modules[argument[0]], modules[argument[1]])
                model.misses += 1
                model.scores[model.key(tuple_a, tuple_b)] = expected
            assert bits(value) == bits(expected)
        elif operation == "bound":
            tuple_a, tuple_b, number_a, number_b = fingerprints(*argument)
            value, exact = cache.pair_bound(
                profiles[argument[0]], number_a, profiles[argument[1]], number_b
            )
            expected = model.lookup(model.key(tuple_a, tuple_b))
            if expected is not None:
                assert exact and bits(value) == bits(expected)
            elif exact:
                # Only an exact bound is checked: a non-exact pair bound
                # may sit an ulp below the score (the MS and PS bounds pad
                # their sums for that, see test_bounds_fuzz).
                score = reference.compare(modules[argument[0]], modules[argument[1]])
                assert bits(value) == bits(score)
                model.misses += 1
                model.scores[model.key(tuple_a, tuple_b)] = value
        elif operation == "levenshtein":
            tuple_a, tuple_b, number_a, number_b = fingerprints(*argument)
            similarity = levenshtein_similarity(pool[argument[0]], pool[argument[1]])
            value = cache.score_from_levenshtein(
                profiles[argument[0]], number_a, profiles[argument[1]], number_b, similarity,
                exact=True,
            )
            assert value == reference.compare(modules[argument[0]], modules[argument[1]])
            key = model.key(tuple_a, tuple_b)
            if key not in model.scores:
                model.misses += 1
                model.scores[key] = value
        elif operation == "load":
            rows = []
            for first, second, value in argument:
                fingerprint_a = (first if isinstance(first, str) else pool[first],)
                fingerprint_b = (second if isinstance(second, str) else pool[second],)
                # A store holds a symmetric pair in its canonical order.
                rows.append((*model.key(fingerprint_a, fingerprint_b), value))
            loaded = 0
            for fingerprint_a, fingerprint_b, value in rows:
                if (fingerprint_a, fingerprint_b) not in model.scores:
                    model.scores[fingerprint_a, fingerprint_b] = value
                    model.warm.add((fingerprint_a, fingerprint_b))
                    loaded += 1
            assert cache.load_entries(iter(rows)) == loaded
        elif operation == "persist":
            assert table_of(cache.new_entries()) == model.new_entries()
            if argument:  # the save committed
                cache.mark_persisted()
                model.mark = len(model.scores)
        elif operation == "reset_warm":
            cache.reset_warm()
            model.warm.clear()
            model.mark = 0
        elif operation == "invalidate":
            released = cache.invalidate_profiles(profiles[i] for i in argument)
            # Every profile was numbered by the last check.
            assert released == len(set(argument))
        else:
            cache.clear()
            model.clear()
            # Renumbering would now give the labels other numbers.
            for profile in reversed(profiles):
                cache.fingerprint(profile)
        check()
