"""Property-based fuzz of the certified bounds over drawn inputs.

Two properties, on inputs no generator produces:

* The character-mask kernel of the Levenshtein pair bound
  (:meth:`ModulePairScoreCache.char_mask`) counts the multiset
  intersection of two strings' characters exactly, for any text: empty
  strings, astral and combining characters, and one character repeated
  past any machine word.  :class:`collections.Counter` is the reference.
* For drawn workflows of 1–8 modules (labels over a small alphabet with
  repeats and case-mapping oddities, types from three categories,
  random chain links), the ``MS`` and ``PS`` bounds under ``ta`` and
  ``te``, with the ``pll`` configuration and with a ``levenshtein_ci``
  one, never fall below the exact score of an unaccelerated reference:
  neither the first-pass bound nor any refinement.

The seed is fixed (1483) unless ``REPRO_FUZZ_SEED`` sets another one.
"""

from __future__ import annotations

import os
from collections import Counter

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.core.configs import get_module_config
from repro.core.module_similarity import AttributeRule, ModuleComparisonConfig
from repro.core.preselection import AllPairs, TypeEquivalence
from repro.core.topological import ModuleSetsSimilarity, PathSetsSimilarity
from repro.perf.bounds import find_bound
from repro.perf.cache import ModulePairScoreCache
from repro.perf.engine import AccelerationContext, accelerate_measure
from repro.workflow.model import DataLink, Module, Workflow

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

#: Letters whose lowercase differs in length or form: a dotted capital I
#: (lowers to two code points), sharp s in both cases, the three sigmas
#: (a capital sigma lowers to a final sigma at the end of a word) and a
#: ligature; plus a combining accent and an astral character.
ODD_LETTERS = "İiıßẞΣσςﬁF́🧬"
#: One type from each of three categories (web service, script, local).
TYPES = ("wsdl", "beanshell", "localworker")

texts = (
    st.text(max_size=40)
    | st.text(alphabet="ab_" + ODD_LETTERS, max_size=80)
    | st.builds(lambda char, count: char * count, st.characters(), st.integers(0, 200))
)


@seed(FUZZ_SEED)
@settings(max_examples=400, deadline=None, database=None)
@given(texts, texts, texts)
@example("", "", "")
@example("a" * 65, "a" * 70, "")
@example("🧬" * 100 + "x", "x🧬🧬", "🧬")
@example("été", "́e", "é")
def test_char_mask_counts_the_multiset_intersection(first, second, other):
    cache = ModulePairScoreCache(get_module_config("pll"))
    cache.char_mask(other)  # a string seen first shifts the bit numbering
    common = (cache.char_mask(first) & cache.char_mask(second)).bit_count()
    assert common == sum((Counter(first) & Counter(second)).values())


LEVENSHTEIN_CI = ModuleComparisonConfig(
    name="lci", rules=(AttributeRule("label", "levenshtein_ci"),)
)

#: (kind, preselection, module configuration) of every fuzzed measure.
MEASURES = [
    (kind, preselection, config)
    for kind in (ModuleSetsSimilarity, PathSetsSimilarity)
    for preselection in (AllPairs, TypeEquivalence)
    for config in ("pll", LEVENSHTEIN_CI)
]

labels = st.text(alphabet="ab" + ODD_LETTERS, max_size=6) | st.sampled_from(
    ("", "ab", "ΑΣ", "ας", "straße", "STRASSE", "ﬁle", "FILE", "İi")
)


@st.composite
def workflows(draw, identifier: str) -> Workflow:
    size = draw(st.integers(1, 8))
    modules = tuple(
        Module(
            identifier=f"{identifier}:{index}",
            label=draw(labels),
            module_type=draw(st.sampled_from(TYPES)),
        )
        for index in range(size)
    )
    # Each module may take its input from one earlier module.
    links = tuple(
        DataLink(f"{identifier}:{draw(st.integers(0, index - 1))}", f"{identifier}:{index}")
        for index in range(1, size)
        if draw(st.booleans())
    )
    return Workflow(identifier=identifier, modules=modules, datalinks=links)


@seed(FUZZ_SEED)
@settings(max_examples=300, deadline=None, database=None)
@given(workflows("q"), workflows("c"))
def test_bounds_never_below_exact_on_drawn_workflows(query, candidate):
    for kind, preselection, config in MEASURES:
        measure = kind(config, preselection=preselection())
        reference = kind(config, preselection=preselection())
        cold = AccelerationContext()
        accelerate_measure(measure, cold)
        bound = find_bound(measure, cold)
        assert bound is not None, measure.name
        for first, second in ((query, candidate), (candidate, query)):
            qs, cs = bound.summary(first), bound.summary(second)
            exact = reference.similarity(first, second)
            value = bound.upper_bound(qs, cs)
            assert value >= exact, f"{measure.name}: bound {value!r} < exact {exact!r}"
            for threshold in (exact, (exact + value) / 2.0, value):
                refined = bound.refine(qs, cs, threshold)
                assert refined is None or refined >= exact, (
                    f"{measure.name}: refined {refined!r} < exact {exact!r} at {threshold!r}"
                )
