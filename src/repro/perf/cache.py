"""Cross-query module-pair score caching.

The paper's central scalability observation is that label (and attribute)
vocabularies are tiny relative to the number of module pairs a
repository-scale search compares: the same ``(label_a, label_b)``
comparison recurs across thousands of workflow pairs and across every
query of a batch.  :class:`ModulePairScoreCache` therefore memoises the
*configured* module-pair score — the full weighted attribute mean of a
:class:`~repro.core.module_similarity.ModuleComparisonConfig` — keyed by
the pair of attribute fingerprints, so a comparison is paid for once per
distinct value combination and then served as a dictionary lookup for
the rest of the process lifetime.

Scores produced here are bit-identical to
:meth:`ModuleComparator.compare <repro.core.module_similarity.ModuleComparator.compare>`:
the cache replays the exact same weighted-mean float operations over the
same comparator semantics (with Myers' bit-parallel Levenshtein standing
in for the rolling-row edit distance — same integers, same division).
The equivalence tests pin this property.

The cache numbers each distinct fingerprint the first time it sees it
(:meth:`~ModulePairScoreCache.fingerprint` returns the number) and keeps
the exact scores in a two-level table, ``{number_a: {number_b: score}}``,
in which bit-equal scores share one float object.  An entry is therefore
its slot in an inner dict and nothing else: no key object, no float of
its own, no record of whether it is persisted (one count per row does
that).  50,000 ``pll`` entries over 1,000 fingerprints cost about 40
bytes each this way, against about 130 in a dict keyed by pairs of
fingerprint tuples (``tracemalloc``, CPython 3.11).  A number, once given, names its fingerprint for the life of the
cache (:meth:`~ModulePairScoreCache.clear` drops scores, never numbers),
so bound summaries and column memos can hold numbers.  Numbers live only
in memory: :meth:`~ModulePairScoreCache.entries` maps them back to
fingerprint tuples, which is how the store keys its rows.

When every rule of a configuration uses a provably symmetric comparator
(see :data:`repro.core.comparators.SYMMETRIC_COMPARATORS`), ``(a, b)``
and ``(b, a)`` share one canonical cache entry, halving both memory and
the number of distances ever computed: in memory the smaller number
comes first, on export the smaller fingerprint tuple.

Only exact scores are kept across queries; a non-exact pair bound is
recomputed when asked for, its Levenshtein part with one AND of two
character masks memoised per distinct string (:meth:`~ModulePairScoreCache.char_mask`).
"""

from __future__ import annotations

import json
from itertools import islice
from math import copysign
from sys import intern
from typing import Callable, Iterable, Iterator

from ..core.comparators import SYMMETRIC_COMPARATORS, prefix_match
from ..core.module_similarity import ModuleComparisonConfig
from ..text.levenshtein import bitparallel_levenshtein_distance
from .profiles import ModuleProfile

__all__ = ["ModulePairScoreCache", "LevenshteinRule", "config_signature"]

# Internal rule kinds with specialised, profile-aware evaluation.
_KIND_EXACT = 0
_KIND_EXACT_CI = 1
_KIND_LEV = 2
_KIND_LEV_CI = 3
_KIND_TOKEN_JACCARD = 4
_KIND_LABEL_TOKEN_JACCARD = 5
_KIND_PREFIX = 6
_KIND_CUSTOM = 7

_KIND_BY_NAME = {
    "exact": _KIND_EXACT,
    "exact_ci": _KIND_EXACT_CI,
    "levenshtein": _KIND_LEV,
    "levenshtein_ci": _KIND_LEV_CI,
    "token_jaccard": _KIND_TOKEN_JACCARD,
    "label_token_jaccard": _KIND_LABEL_TOKEN_JACCARD,
    "prefix": _KIND_PREFIX,
}

#: A warm key packs a pair of fingerprint numbers into one int, the first
#: number shifted past this many bits.  Numbers stay far below ``2**32``:
#: each one stands for a distinct fingerprint tuple held in memory.
_PACK_BITS = 32

#: The shared zeros, one per sign (see :meth:`ModulePairScoreCache._shared`).
_ZERO = 0.0
_NEGATIVE_ZERO = -0.0


def config_signature(config: ModuleComparisonConfig) -> str | None:
    """A process-independent identity string of a comparison configuration.

    Persisted pair scores are only valid for the exact configuration
    that produced them, so the persistence key captures everything that
    feeds the weighted mean: the configuration name and every rule's
    attribute, comparator name, weight and skip semantics.  Returns
    ``None`` for configurations using comparators outside the built-in
    rule kinds — a custom comparator registered under the same name
    could behave differently in another process, so such caches are
    never persisted.
    """
    if any(rule.comparator not in _KIND_BY_NAME for rule in config.rules):
        return None
    payload = [
        config.name,
        [
            [rule.attribute, rule.comparator, rule.weight, rule.skip_if_both_empty]
            for rule in config.rules
        ],
    ]
    return json.dumps(payload, separators=(",", ":"))


class LevenshteinRule:
    """Description of a single-Levenshtein-rule configuration.

    Exposed by :attr:`ModulePairScoreCache.single_levenshtein` so the
    top-k engine can drive the banded edit distance for configurations
    like ``pll``/``gll`` where the pair score *is* one label similarity.
    """

    __slots__ = ("attribute", "weight", "skip_if_both_empty", "lowercase")

    def __init__(self, attribute: str, weight: float, skip_if_both_empty: bool, lowercase: bool) -> None:
        self.attribute = attribute
        self.weight = weight
        self.skip_if_both_empty = skip_if_both_empty
        self.lowercase = lowercase


def _levenshtein_similarity_exact(value_a: str, value_b: str) -> float:
    """Bit-identical stand-in for :func:`repro.text.levenshtein_similarity`."""
    if value_a == value_b:
        return 1.0
    longest = max(len(value_a), len(value_b))
    if longest == 0:
        return 1.0
    return 1.0 - (bitparallel_levenshtein_distance(value_a, value_b) / longest)


class ModulePairScoreCache:
    """Memoised module-pair scores for one comparison configuration."""

    __slots__ = (
        "config",
        "symmetric",
        "single_levenshtein",
        "hits",
        "misses",
        "warm_hits",
        "_attributes",
        "_rules",
        "_numbers",
        "_tuples",
        "_scores",
        "_values",
        "_fingerprints",
        "_bits",
        "_masks",
        "_warm",
        "_persisted",
    )

    def __init__(self, config: ModuleComparisonConfig) -> None:
        self.config = config
        self._attributes = tuple(rule.attribute for rule in config.rules)
        self.symmetric = all(rule.comparator in SYMMETRIC_COMPARATORS for rule in config.rules)
        # Prepared rule tuples: (kind, attribute, weight, skip_if_both_empty, custom_fn).
        self._rules: list[tuple[int, str, float, bool, Callable[[str, str], float] | None]] = []
        for rule in config.rules:
            kind = _KIND_BY_NAME.get(rule.comparator, _KIND_CUSTOM)
            custom = rule.comparator_fn if kind == _KIND_CUSTOM else None
            self._rules.append((kind, rule.attribute, rule.weight, rule.skip_if_both_empty, custom))
        if len(self._rules) == 1 and self._rules[0][0] in (_KIND_LEV, _KIND_LEV_CI):
            kind, attribute, weight, skip, _ = self._rules[0]
            self.single_levenshtein: LevenshteinRule | None = LevenshteinRule(
                attribute, weight, skip, lowercase=kind == _KIND_LEV_CI
            )
        else:
            self.single_levenshtein = None
        # The number of each distinct fingerprint, and the fingerprint of
        # each number.  Numbers are never reused, not even by clear().
        self._numbers: dict[tuple[str, ...], int] = {}
        self._tuples: list[tuple[str, ...]] = []
        # Exact scores, {number_a: {number_b: score}}; a symmetric
        # configuration keeps each pair once, the smaller number first.
        self._scores: dict[int, dict[int, float]] = {}
        # The one float object of each distinct score (zeros and NaN
        # aside, see _shared).
        self._values: dict[float, float] = {}
        self._fingerprints: dict[int, tuple[ModuleProfile, int]] = {}
        # The bit numbered for each (character, occurrence index) seen so
        # far, and the mask of each distinct string over those bits.
        self._bits: dict[tuple[str, int], int] = {}
        self._masks: dict[str, int] = {}
        # Packed keys (see _PACK_BITS) of the entries loaded from a
        # persistent store; hits against them are counted separately so
        # diagnostics can show warm-start reuse.
        self._warm: set[int] = set()
        # Per row, how many of its first (insertion-ordered) entries are
        # on the attached store's disk.  Rows only grow until clear(), so
        # everything after a row's count is unpersisted.
        self._persisted: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0

    # -- keys ----------------------------------------------------------------

    def fingerprint(self, profile: ModuleProfile) -> int:
        """The number of the attribute values this configuration compares.

        Profiles with equal values share a number, given the first time
        the values are seen; it names them for the life of the cache, so
        the pair methods below take numbers, and callers may keep them.
        """
        entry = self._fingerprints.get(id(profile))
        # The stored profile reference keeps the id alive *and* guards
        # against recycled ids from profiles created after a store
        # clear() — a stale fingerprint would silently corrupt scores.
        if entry is not None and entry[0] is profile:
            return entry[1]
        values = profile.values
        fingerprint = tuple(values[name] for name in self._attributes)
        number = self._numbers.get(fingerprint)
        if number is None:
            number = self._number(fingerprint)
        self._fingerprints[id(profile)] = (profile, number)
        return number

    def _number(self, fingerprint: tuple[str, ...]) -> int:
        """Give a fingerprint that has no number the next one."""
        number = self._numbers[fingerprint] = len(self._tuples)
        self._tuples.append(fingerprint)
        return number

    def _shared(self, value: float) -> float:
        """``value`` as the one float object this cache keeps for its bits.

        Zeros and NaN are never looked up by value: ``0.0 == -0.0``
        though their signs differ, so each zero maps to the constant of
        its sign; and NaN equals nothing, so it is kept as it comes.
        """
        if value == 0.0:
            return _ZERO if copysign(1.0, value) > 0.0 else _NEGATIVE_ZERO
        if value != value:
            return value
        return self._values.setdefault(value, value)

    def _add(self, fingerprint_a: int, fingerprint_b: int, value: float) -> bool:
        """Store an exact score unless the pair already has one; returns
        whether it was stored."""
        if self.symmetric and fingerprint_b < fingerprint_a:
            fingerprint_a, fingerprint_b = fingerprint_b, fingerprint_a
        row = self._scores.get(fingerprint_a)
        if row is None:
            row = self._scores[fingerprint_a] = {}
        elif fingerprint_b in row:
            return False
        row[fingerprint_b] = self._shared(value)
        return True

    def char_mask(self, value: str) -> int:
        """The characters of ``value`` as a bit mask, memoised per string.

        The ``n``-th occurrence of a character sets the bit this cache
        numbered for that (character, ``n``) pair, so
        ``(char_mask(a) & char_mask(b)).bit_count()`` is the size of the
        multiset intersection of the two strings' characters: per
        character, the smaller of its two counts.
        """
        mask = self._masks.get(value)
        if mask is None:
            bits = self._bits
            seen: dict[str, int] = {}
            mask = 0
            for char in value:
                occurrence = seen[char] = seen.get(char, -1) + 1
                mask |= 1 << bits.setdefault((char, occurrence), len(bits))
            self._masks[value] = mask
        return mask

    # -- scoring -------------------------------------------------------------

    def score(self, profile_a: ModuleProfile, profile_b: ModuleProfile) -> float:
        """The configured pair score, served from cache when possible."""
        return self.pair_score(
            profile_a, self.fingerprint(profile_a), profile_b, self.fingerprint(profile_b)
        )

    def pair_score(
        self,
        profile_a: ModuleProfile,
        fingerprint_a: int,
        profile_b: ModuleProfile,
        fingerprint_b: int,
    ) -> float:
        """:meth:`score` for callers that hold both fingerprints."""
        value = self.exact_score(fingerprint_a, fingerprint_b)
        if value is None:
            self.misses += 1
            value = self._compute(profile_a, profile_b)
            self._add(fingerprint_a, fingerprint_b, value)
        return value

    def exact_score(self, fingerprint_a: int, fingerprint_b: int) -> float | None:
        """The cached exact score of a pair, counted as a hit; ``None`` if
        no exact score is cached (nothing is counted then)."""
        if self.symmetric and fingerprint_b < fingerprint_a:
            fingerprint_a, fingerprint_b = fingerprint_b, fingerprint_a
        row = self._scores.get(fingerprint_a)
        if row is None:
            return None
        value = row.get(fingerprint_b)
        if value is not None:
            self.hits += 1
            if self._warm and (fingerprint_a << _PACK_BITS | fingerprint_b) in self._warm:
                self.warm_hits += 1
        return value

    @staticmethod
    def _cheap_similarity(
        kind: int,
        attribute: str,
        profile_a: ModuleProfile,
        profile_b: ModuleProfile,
        value_a: str,
        value_b: str,
        custom: Callable[[str, str], float] | None,
    ) -> float:
        """Exact similarity of every rule kind except the Levenshtein pair.

        Shared by :meth:`_compute` and :meth:`upper_bound` so the two
        paths cannot drift apart — the pruning soundness argument relies
        on the bound pass evaluating these kinds *identically* to the
        exact pass.
        """
        if kind == _KIND_EXACT:
            return 1.0 if value_a == value_b else 0.0
        if kind == _KIND_EXACT_CI:
            return 1.0 if profile_a.lowered(attribute) == profile_b.lowered(attribute) else 0.0
        if kind == _KIND_TOKEN_JACCARD:
            tokens_a = profile_a.token_set(attribute)
            tokens_b = profile_b.token_set(attribute)
            if not tokens_a and not tokens_b:
                return 0.0
            return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        if kind == _KIND_LABEL_TOKEN_JACCARD:
            tokens_a = profile_a.label_token_set(attribute)
            tokens_b = profile_b.label_token_set(attribute)
            if not tokens_a and not tokens_b:
                return 0.0
            return len(tokens_a & tokens_b) / len(tokens_a | tokens_b)
        if kind == _KIND_PREFIX:
            return prefix_match(value_a, value_b)
        return custom(value_a, value_b)  # type: ignore[misc]

    def _compute(self, profile_a: ModuleProfile, profile_b: ModuleProfile) -> float:
        # Mirrors ModuleComparator.compare: same rule order, same skip
        # semantics, same accumulation — bit-identical results.
        total_score = 0.0
        total_weight = 0.0
        values_a = profile_a.values
        values_b = profile_b.values
        for kind, attribute, weight, skip_if_both_empty, custom in self._rules:
            value_a = values_a[attribute]
            value_b = values_b[attribute]
            if skip_if_both_empty and not value_a and not value_b:
                continue
            if kind == _KIND_LEV:
                similarity = _levenshtein_similarity_exact(value_a, value_b)
            elif kind == _KIND_LEV_CI:
                similarity = _levenshtein_similarity_exact(
                    profile_a.lowered(attribute), profile_b.lowered(attribute)
                )
            else:
                similarity = self._cheap_similarity(
                    kind, attribute, profile_a, profile_b, value_a, value_b, custom
                )
            total_score += similarity * weight
            total_weight += weight
        if total_weight == 0.0:
            return 0.0
        return total_score / total_weight

    # -- pruning support -----------------------------------------------------

    def upper_bound(self, profile_a: ModuleProfile, profile_b: ModuleProfile) -> tuple[float, bool]:
        """A cheap certified upper bound on :meth:`score`.

        Returns ``(value, exact)``.  Cached pairs return their exact
        score.  For uncached pairs each Levenshtein rule is bounded via
        the character-multiset argument (``distance >= longest - common``,
        hence ``similarity <= common / longest``, with ``common`` counted
        by :meth:`char_mask`); all other built-in rules are cheap enough
        to evaluate exactly.  When *every* rule could be evaluated
        exactly the result is the true score and is cached as such; a
        non-exact bound is not stored.
        """
        return self.pair_bound(
            profile_a, self.fingerprint(profile_a), profile_b, self.fingerprint(profile_b)
        )

    def pair_bound(
        self,
        profile_a: ModuleProfile,
        fingerprint_a: int,
        profile_b: ModuleProfile,
        fingerprint_b: int,
    ) -> tuple[float, bool]:
        """:meth:`upper_bound` for callers that hold both fingerprints."""
        value = self.exact_score(fingerprint_a, fingerprint_b)
        if value is not None:
            return value, True
        total_score = 0.0
        total_weight = 0.0
        all_exact = True
        values_a = profile_a.values
        values_b = profile_b.values
        for kind, attribute, weight, skip_if_both_empty, custom in self._rules:
            value_a = values_a[attribute]
            value_b = values_b[attribute]
            if skip_if_both_empty and not value_a and not value_b:
                continue
            if kind in (_KIND_LEV, _KIND_LEV_CI):
                if kind == _KIND_LEV_CI:
                    value_a = profile_a.lowered(attribute)
                    value_b = profile_b.lowered(attribute)
                if value_a == value_b:
                    similarity = 1.0
                else:
                    common = (self.char_mask(value_a) & self.char_mask(value_b)).bit_count()
                    similarity = common / max(len(value_a), len(value_b))
                    all_exact = False
            elif kind == _KIND_CUSTOM:
                similarity = 1.0  # custom comparators cannot be bounded cheaply
                all_exact = False
            else:
                similarity = self._cheap_similarity(
                    kind, attribute, profile_a, profile_b, value_a, value_b, custom
                )
            total_score += similarity * weight
            total_weight += weight
        value = (total_score / total_weight) if total_weight else 0.0
        if all_exact:
            # The bound pass happened to be an exact evaluation (e.g. the
            # ``plm`` exact-match configuration) — promote it to a hit.
            self.misses += 1
            self._add(fingerprint_a, fingerprint_b, value)
        return value, all_exact

    def score_from_levenshtein(
        self,
        profile_a: ModuleProfile,
        fingerprint_a: int,
        profile_b: ModuleProfile,
        fingerprint_b: int,
        similarity: float,
        *,
        exact: bool,
    ) -> float:
        """Fold an externally computed Levenshtein similarity into a pair score.

        Only valid for :attr:`single_levenshtein` configurations.  With
        ``exact`` the resulting score is cached (it is bit-identical to
        :meth:`score`); capped banded results are folded through the same
        monotone float operations, preserving their upper-bound property,
        but never cached.
        """
        rule = self.single_levenshtein
        assert rule is not None, "score_from_levenshtein requires a single-Levenshtein config"
        value_a = profile_a.values[rule.attribute]
        value_b = profile_b.values[rule.attribute]
        if rule.skip_if_both_empty and not value_a and not value_b:
            return 0.0
        value = (similarity * rule.weight) / rule.weight
        if exact and self._add(fingerprint_a, fingerprint_b, value):
            self.misses += 1
        return value

    # -- persistence ---------------------------------------------------------

    @property
    def signature(self) -> str | None:
        """The persistence key of this cache (see :func:`config_signature`)."""
        return config_signature(self.config)

    @property
    def persistable(self) -> bool:
        return self.signature is not None

    def entries(self) -> "Iterator[tuple[tuple[str, ...], tuple[str, ...], float]]":
        """Every exact score as ``(fingerprint_a, fingerprint_b, score)``.

        The fingerprints are tuples again, a symmetric pair in tuple
        order, as the store keys its rows.  Only exact scores are kept,
        so only they are exported.
        """
        for number_a, row in self._scores.items():
            yield from self._export(number_a, row.items())

    def new_entries(self) -> "Iterator[tuple[tuple[str, ...], tuple[str, ...], float]]":
        """Like :meth:`entries`, but only what the attached store lacks.

        Yields the entries stored since the last :meth:`mark_persisted`,
        minus warm-loaded keys: those came out of the attached store,
        and writing them back — or rewriting entries an earlier persist
        already wrote — is pure write amplification.
        """
        warm = self._warm
        persisted = self._persisted
        for number_a, row in self._scores.items():
            start = persisted.get(number_a, 0)
            if start == len(row):
                continue
            pairs = islice(row.items(), start, None)
            if warm:
                pairs = (pair for pair in pairs if (number_a << _PACK_BITS | pair[0]) not in warm)
            yield from self._export(number_a, pairs)

    def _export(
        self, number_a: int, pairs: "Iterable[tuple[int, float]]"
    ) -> "Iterator[tuple[tuple[str, ...], tuple[str, ...], float]]":
        tuples = self._tuples
        fingerprint_a = tuples[number_a]
        for number_b, value in pairs:
            fingerprint_b = tuples[number_b]
            if self.symmetric and fingerprint_b < fingerprint_a:
                yield fingerprint_b, fingerprint_a, value
            else:
                yield fingerprint_a, fingerprint_b, value

    def mark_persisted(self) -> None:
        """Record that every entry is on the store's disk.

        Call right after the save of :meth:`new_entries` committed, with
        nothing scored in between (the save reads all its entries before
        it writes).  A save that rolled back leaves the marks where they
        were, so the next persist writes those entries again.
        """
        self._persisted = {number_a: len(row) for number_a, row in self._scores.items()}

    def reset_warm(self) -> None:
        """Forget which entries were warm-loaded or persisted (scores are kept).

        Called when the cache is re-pointed at a *different* store:
        entries loaded from or persisted to the old store are not on the
        new store's disk, so they must count as new for the next
        persist.  The cumulative :attr:`warm_hits` counter is preserved.
        """
        self._warm.clear()
        self._persisted = {}

    def load_entries(
        self, entries: "Iterable[tuple[tuple[str, ...], tuple[str, ...], float]]"
    ) -> int:
        """Warm-start the score table from persisted entries.

        Entries must come from a cache with the same
        :attr:`signature`.  Values already computed in this process are
        never overwritten (they are bit-identical anyway).  A fingerprint
        seen for the first time is numbered once, its parts interned.
        Returns the number of entries loaded; hits served from them are
        counted on :attr:`warm_hits`.
        """
        loaded = 0
        numbers = self._numbers
        symmetric = self.symmetric
        warm = self._warm
        for fingerprint_a, fingerprint_b, value in entries:
            number_a = numbers.get(fingerprint_a)
            if number_a is None:
                number_a = self._number(tuple(map(intern, fingerprint_a)))
            number_b = numbers.get(fingerprint_b)
            if number_b is None:
                number_b = self._number(tuple(map(intern, fingerprint_b)))
            if symmetric and number_b < number_a:
                number_a, number_b = number_b, number_a
            if self._add(number_a, number_b, value):
                warm.add(number_a << _PACK_BITS | number_b)
                loaded += 1
        return loaded

    # -- bookkeeping ---------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(map(len, self._scores.values()))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float | int | str]:
        """Counters of this cache.

        ``entries`` counts exact scores (never evicted; the table lives
        as long as the cache), each one slot of the two-level table of
        fingerprint numbers; ``warm_entries`` counts those loaded from
        the attached store.  ``hits`` and ``warm_hits`` count lookups
        served from exact scores: the frontier bounds look up each
        distinct module pair once per query (their per-query column memo
        serves every repeat), not once per occurrence.
        """
        return {
            "config": self.config.name,
            "entries": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "symmetric": self.symmetric,
            "warm_entries": len(self._warm),
            "warm_hits": self.warm_hits,
        }

    def invalidate_profiles(self, profiles: "Iterable[ModuleProfile]") -> int:
        """Release the fingerprint memos of retired module profiles.

        Called when workflows leave a repository: the memo table holds a
        strong reference per profile, so without this hook a long-lived
        service would leak one entry per removed module.  The score and
        mask tables are left untouched — they are keyed by attribute
        values and remain exact for any workflow still (or later) in the
        corpus.  Returns the number of memos released.
        """
        released = 0
        for profile in profiles:
            entry = self._fingerprints.get(id(profile))
            if entry is not None and entry[0] is profile:
                del self._fingerprints[id(profile)]
                released += 1
        return released

    def clear(self) -> None:
        """Drop every score, memo and counter; keep the fingerprint numbers,
        which bound summaries held elsewhere may still name."""
        self._scores.clear()
        self._values.clear()
        self._fingerprints.clear()
        self._bits.clear()
        self._masks.clear()
        self._warm.clear()
        self._persisted = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
