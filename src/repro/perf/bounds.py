"""The unified :class:`CertifiedBound` layer.

Every acceleration tier of this repository skips work only when it can
*prove* the skip changes nothing: the best-first top-k
(:func:`repro.perf.engine.bounded_top_k`) discards a candidate whose
score provably cannot beat the current k-th result.  This module
collects those proofs behind one interface.

A :class:`CertifiedBound` declares which measure configurations it
certifies (:meth:`~CertifiedBound.certifies`), computes a cheap
per-workflow summary once (:meth:`~CertifiedBound.summary`), and answers
``upper_bound(query_summary, candidate_summary)`` under the soundness
contract *the returned value is never below the measure's true score*
(assuming, as everywhere in this codebase, module comparators that stay
within ``[0, 1]``).  Bounds that can spend extra effort once a frontier
threshold is known implement :meth:`~CertifiedBound.refine`.

Registered bounds:

* :class:`ModuleSetsBound` — ``MS``: the padded sum of the candidate's
  column maxima; refinement adds the matching bound (min of the row-
  and column-maxima sums) and, for single-Levenshtein configurations, a
  banded Levenshtein pass.
* :class:`PathSetsBound` — ``PS``: the same row and column maxima
  lifted to path sets (a matching selects at most one pair per row and
  column, at every level).
* :class:`EnsembleBound` — mean/weighted ensembles whose members are
  *all* certified: the weighted mean of member bounds over the members
  applicable to both workflows.
* :class:`BagOfWordsBound` / :class:`BagOfTagsBound` — ``BW``/``BT``:
  the bag-overlap similarity itself (exact, hence trivially an upper
  bound).  They do not *prune* a whole pool — a frontier scan would
  just compute the exact score twice — but they compose into ensembles.
  For the configurations whose tokens the store's postings hold (the
  default ones), each names the ``postings`` field
  (:attr:`CertifiedBound.postings`) whose token union holds every
  candidate that can score above 0.0: the sql-indexed search then ranks
  in SQLite from that field's counts and scores nothing in Python.
  Ensembles name no field: a member applicable to only some candidates
  shifts the ensemble denominator, so one member's zero certifies
  nothing about the mean.

``MS`` and ``PS`` read their module-pair bounds through one per-query
*column memo*.  Under a module-local preselection, a candidate module's
column — its pair bounds against every query module it may be paired
with — depends only on its admissibility class and on the attribute
fingerprint the pair cache compares (a key holds the fingerprint's
number, not its tuple).  Each distinct column is therefore
bounded once per query, however many modules of however many candidates
share it, and a refinement that tightens a pair bound tightens it for
all of them.  This memo is the only store of non-exact pair bounds (the
pair cache keeps exact scores only), and it takes each fingerprint from
the summaries, so a bound pass looks none up.
"""

from __future__ import annotations

import sys
from typing import Iterable

from ..core.annotations import (
    BagOfTagsSimilarity,
    BagOfWordsSimilarity,
    bag_overlap_similarity,
)
from ..core.base import WorkflowSimilarityMeasure
from ..core.ensemble import MeanEnsemble, WeightedEnsemble
from ..core.mapping import GreedyMapping, MaximumWeightMapping, NonCrossingMapping
from ..core.normalization import similarity_jaccard
from ..core.preselection import AllPairs, StrictTypeMatch, TypeEquivalence
from ..core.topological import ModuleSetsSimilarity, PathSetsSimilarity
from ..text.levenshtein import bounded_levenshtein_similarity
from ..workflow.model import Workflow

__all__ = [
    "CertifiedBound",
    "ModuleSetsBound",
    "PathSetsBound",
    "EnsembleBound",
    "BagOfWordsBound",
    "BagOfTagsBound",
    "BOUND_CLASSES",
    "find_bound",
    "find_frontier_bound",
]


# Mapping strategies that are *matchings*: they select at most one pair
# per row and per column, which is what makes min(sum of row maxima,
# sum of column maxima) an upper bound on the selected weight.
_MATCHING_MAPPINGS = (GreedyMapping, MaximumWeightMapping, NonCrossingMapping)

# Preselection strategies whose admissibility is a property of the two
# modules alone (type/category match), independent of their position in
# the module list: two modules are a candidate pair iff their
# admissibility classes (:func:`_admissibility_classes`) are equal.
# Both structural bounds require one: the column memo is keyed by the
# class, and the ``PS`` path-internal matrices are built over
# sub-sequences of the module sets.
_MODULE_LOCAL_PRESELECTIONS = (AllPairs, StrictTypeMatch, TypeEquivalence)


def _admissibility_classes(profile, preselection) -> tuple:
    """Each module's admissibility class under a module-local preselection.

    Mirrors the strategies' ``candidate_pairs``: ``ta`` pairs every
    module with every other (one class), ``tm`` pairs equal lowercased
    types, and ``te`` equal categories, custom category maps included.
    """
    modules = profile.modules
    if type(preselection) is AllPairs:
        return (None,) * len(modules)
    if type(preselection) is StrictTypeMatch:
        return tuple(module.lowered("type") for module in modules)
    return tuple(preselection._category(module.module) for module in modules)


def _bounded_similarity(nnsim_bound: float, size_a: int, size_b: int, normalize: bool) -> float:
    """Lift a non-normalised similarity bound through the configured normalisation."""
    if not normalize:
        return nnsim_bound
    if size_a == 0 and size_b == 0:
        return 1.0
    denominator = size_a + size_b - nnsim_bound
    if denominator <= 0.0:
        return 1.0
    value = nnsim_bound / denominator
    return 1.0 if value > 1.0 else value


#: IEEE-754 double machine epsilon, for :func:`_pad_summation`.
_EPS = sys.float_info.epsilon


def _pad_summation(value: float, terms: int) -> float:
    """Absorb float-summation rounding into a certified bound.

    A bound computed as one float sum (row maxima) is compared against
    an exact score computed as a *different* float sum (the matching's
    selected pairs) — mathematically bound ≥ exact, but each sum rounds
    independently, so the computed bound can land a few ulps *below* the
    computed exact score.  Inflating by the standard forward-error
    factor of a ``terms``-term summation (with slack for the per-term
    rounding) restores ``bound >= exact`` bit-wise; the inflation is
    ~1e-14 relative, far too small to cost a prune that matters.
    """
    if value <= 0.0:
        return value
    return value * (1.0 + 2.0 * (terms + 2) * _EPS)


def _jaccard_required_nnsim(kth_score: float, size_a: int, size_b: int) -> float:
    """The non-normalised similarity needed to *reach* ``kth_score``.

    Inverts ``sim = nnsim / (|A| + |B| - nnsim)``; the normalisation is
    strictly increasing in ``nnsim``, so any candidate whose ``nnsim``
    upper bound stays below this threshold cannot reach the current
    k-th result.
    """
    return kth_score * (size_a + size_b) / (1.0 + kth_score)


class CertifiedBound:
    """One certified upper bound on one measure instance.

    Subclasses declare which measures they certify (a *class-level*
    check, so routing decisions need no context) and are instantiated
    per measure via :func:`find_bound`.  Summaries are memoised per
    workflow identifier (identity-guarded), so a bound living on a
    long-lived ``AccelerationContext`` pays the summary cost once per
    corpus workflow until :meth:`forget` releases it.

    Soundness contract: ``upper_bound(summary(a), summary(b))`` is never
    below ``measure.similarity(a, b)``; ditto for any value returned by
    :meth:`refine`.  Equality is allowed: the frontier scan verifies
    candidates in order of descending bound, then pool position, and
    skips a candidate whose bound *equals* the k-th score only when its
    pool position is after the k-th entry's — the candidate would lose
    that tie-break in :meth:`SimilarityFramework.rank
    <repro.core.framework.SimilarityFramework.rank>` anyway.
    """

    #: Diagnostic name; keys ``PruneStats.pruned_by_bound``.
    name: str = "certified"
    #: Whether the bound is cheaper than the exact score and therefore
    #: worth a frontier-pruned scan.  Exact bounds (``BW``/``BT``) set
    #: this to ``False``: they still certify ensembles, but over a whole
    #: pool they would cost the exact score twice per candidate.
    prunes: bool = True
    #: The store's ``postings`` field whose token union certifies every
    #: candidate outside it to score exactly 0.0, or ``None``.  Only the
    #: bag-overlap bounds name one, and only for a measure that reads its
    #: tokens as :meth:`InvertedAnnotationIndex.workflow_tokens
    #: <repro.store.inverted_index.InvertedAnnotationIndex.workflow_tokens>`
    #: wrote them: a score is then positive iff the token sets intersect,
    #: and a function of the counts the postings hold, so the sql-indexed
    #: search ranks in SQLite (see :class:`repro.store.SqlAdmissionPlanner`).
    postings: str | None = None

    def __init__(self, measure: WorkflowSimilarityMeasure, context) -> None:
        self.measure = measure
        self.context = context
        self._summaries: dict[str, tuple[Workflow, object]] = {}

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        """Whether this bound class soundly covers ``measure``."""
        raise NotImplementedError

    def summary(self, workflow: Workflow):
        """The memoised cheap per-workflow summary."""
        entry = self._summaries.get(workflow.identifier)
        if entry is not None and entry[0] is workflow:
            return entry[1]
        value = self._summarise(workflow)
        self._summaries[workflow.identifier] = (workflow, value)
        return value

    def forget(self, identifiers: Iterable[str]) -> None:
        """Release the summaries (and any per-query state) of removed workflows."""
        for identifier in identifiers:
            self._summaries.pop(identifier, None)

    def _summarise(self, workflow: Workflow):
        raise NotImplementedError

    def upper_bound(self, query_summary, candidate_summary) -> float:
        """A certified upper bound on the true score of the pair."""
        raise NotImplementedError

    def refine(self, query_summary, candidate_summary, threshold: float, stats=None) -> float | None:
        """Optionally spend more work for a tighter bound.

        ``threshold`` is the score the candidate must *reach* to matter
        (a candidate tied with the k-th score can still win on pool
        position); implementations may use it to budget their effort
        (e.g. the banded Levenshtein ``max_distance``), but any returned
        value must be a valid upper bound regardless.  ``None`` means
        "no tighter bound available" — the caller falls back to the
        exact comparison.  ``stats`` is a ``PruneStats`` instance for
        bookkeeping (e.g. ``banded_calls``).
        """
        return None


class _ModuleSummary:
    """Per-workflow summary of the structural (module-pair) bounds.

    ``keys[j]`` is module ``j``'s column key, the pair (admissibility
    class, pair-cache fingerprint number); ``representatives`` maps each
    distinct key, in module order, to the first module profile holding it.
    """

    __slots__ = ("profile", "size", "keys", "representatives")

    def __init__(self, profile, keys: tuple) -> None:
        self.profile = profile
        self.size = profile.size
        self.keys = keys
        self.representatives: dict[tuple, object] = {}
        for key, module in zip(keys, profile.modules):
            self.representatives.setdefault(key, module)


class _PathSummary(_ModuleSummary):
    """Per-workflow summary of the ``PS`` bound."""

    __slots__ = ("paths", "lengths")

    def __init__(self, profile, keys: tuple, paths: tuple[tuple[int, ...], ...]) -> None:
        super().__init__(profile, keys)
        #: Source-to-sink paths as tuples of module *indices* into the profile.
        self.paths = paths
        self.lengths = tuple(len(path) for path in paths)


class _Column:
    """The pair bounds of one column key against the current query.

    ``values[t]`` bounds the score of query module ``rows[t]`` against
    any module with the key (the query modules of other admissibility
    classes are never paired with it); ``exact[t]`` marks a value that
    is the pair's exact score, and ``top`` is the column maximum.
    """

    __slots__ = ("rows", "values", "exact", "top")

    def __init__(self, rows: tuple[int, ...], values: list[float], exact: list[bool]) -> None:
        self.rows = rows
        self.values = values
        self.exact = exact
        self.top = max(values, default=0.0)


class _ModulePairBound(CertifiedBound):
    """The per-query column memo shared by ``MS`` and ``PS``.

    The memo belongs to one query summary and is rebuilt when a
    different one arrives, so a bound must not serve two queries at
    once.  Values written back by a refinement stay valid upper bounds
    for that pair of attribute values, whichever candidate produced them.
    """

    def __init__(self, measure, context) -> None:
        super().__init__(measure, context)
        self.cache = context.pair_cache(measure.comparator.config)
        self._reset(None)

    def _reset(self, query_summary: _ModuleSummary | None) -> None:
        self._query = query_summary
        self._columns_by_key: dict[tuple, _Column] = {}
        rows: dict[object, list[int]] = {}
        if query_summary is not None:
            for index, key in enumerate(query_summary.keys):
                rows.setdefault(key[0], []).append(index)
        self._rows = {cls: tuple(indices) for cls, indices in rows.items()}

    def forget(self, identifiers: Iterable[str]) -> None:
        super().forget(identifiers)
        self._reset(None)

    def _profile(self, workflow: Workflow):
        processed = self.measure.preprocess(workflow)
        return processed, self.context.profiles.workflow_profile(processed)

    def _keys(self, profile) -> tuple:
        classes = _admissibility_classes(profile, self.measure.preselection)
        return tuple(zip(classes, map(self.cache.fingerprint, profile.modules)))

    def _summarise(self, workflow: Workflow) -> _ModuleSummary:
        _processed, profile = self._profile(workflow)
        return _ModuleSummary(profile, self._keys(profile))

    def _columns(self, query_summary, candidate_summary) -> list[_Column]:
        """The candidate's columns in module order, each bounded on first sight."""
        if query_summary is not self._query:
            self._reset(query_summary)
        memo = self._columns_by_key
        columns = []
        for key in candidate_summary.keys:
            column = memo.get(key)
            if column is None:
                column = memo[key] = self._column(key, candidate_summary.representatives[key])
            columns.append(column)
        return columns

    def _column(self, key: tuple, profile_b) -> _Column:
        rows = self._rows.get(key[0], ())
        profiles_a = self._query.profile.modules
        keys_a = self._query.keys
        fingerprint_b = key[1]
        pair_bound = self.cache.pair_bound
        values: list[float] = []
        exact: list[bool] = []
        for i in rows:
            value, is_exact = pair_bound(profiles_a[i], keys_a[i][1], profile_b, fingerprint_b)
            values.append(value)
            exact.append(is_exact)
        return _Column(rows, values, exact)

    def _row_maxima(self, candidate_summary) -> list[float]:
        """Per query module, its best pair bound against the candidate.

        Call after :meth:`_columns` for the same pair of summaries.
        """
        row_max = [0.0] * self._query.size
        memo = self._columns_by_key
        for key in candidate_summary.representatives:
            column = memo[key]
            for i, value in zip(column.rows, column.values):
                if value > row_max[i]:
                    row_max[i] = value
        return row_max


class ModuleSetsBound(_ModulePairBound):
    """``MS``: column-maxima bound, then matching bound + banded refinement."""

    name = "ms-char-bag"
    prunes = True

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        # The bound relies on the MS compare semantics (one matching
        # over one module similarity matrix, Jaccard or identity
        # normalisation); subclasses may override ``compare``.
        return (
            type(measure) is ModuleSetsSimilarity
            and type(measure.mapping) in _MATCHING_MAPPINGS
            and type(measure.preselection) in _MODULE_LOCAL_PRESELECTIONS
        )

    def _similarity(self, nnsim_bound: float, size_a: int, size_b: int) -> float:
        return _bounded_similarity(
            _pad_summation(nnsim_bound, size_a + size_b), size_a, size_b, self.measure.normalize
        )

    def upper_bound(self, query_summary, candidate_summary) -> float:
        size_a = query_summary.size
        size_b = candidate_summary.size
        if not size_a or not size_b:
            # These are the measure's exact values for empty module sets.
            return 1.0 if (not size_a and not size_b and self.measure.normalize) else 0.0
        # A matching selects at most one pair per column.
        total = 0.0
        for column in self._columns(query_summary, candidate_summary):
            total += column.top
        return self._similarity(total, size_a, size_b)

    def refine(self, query_summary, candidate_summary, threshold: float, stats=None) -> float | None:
        size_a = query_summary.size
        size_b = candidate_summary.size
        if not size_a or not size_b:
            return None
        columns = self._columns(query_summary, candidate_summary)
        row_max = self._row_maxima(candidate_summary)
        row_sum = sum(row_max)
        # ... and at most one pair per row.
        value = self._similarity(min(row_sum, sum(c.top for c in columns)), size_a, size_b)
        if value < threshold or self.cache.single_levenshtein is None:
            return value
        if not self._banded(query_summary, candidate_summary, row_max, row_sum, threshold, stats):
            return value
        row_sum = sum(self._row_maxima(candidate_summary))
        return self._similarity(min(row_sum, sum(c.top for c in columns)), size_a, size_b)

    def _banded(self, query_summary, candidate_summary, row_max, row_sum, threshold, stats) -> bool:
        """Re-bound the candidate's open pairs by banded edit distance.

        A pair in row ``i`` can only lift the candidate to the frontier
        if its score reaches ``required - (best possible contribution of
        every other row)``; pairs at or above that floor get a banded
        edit distance whose ``max_distance`` encodes the floor (or their
        exact score, when the pair cache already holds it).  Tightened
        values are written back into the shared columns.  Returns
        whether any value tightened.
        """
        required = (
            _jaccard_required_nnsim(threshold, query_summary.size, candidate_summary.size)
            if self.measure.normalize
            else threshold
        )
        floors = [required - (row_sum - best) for best in row_max]
        cache = self.cache
        rule = cache.single_levenshtein
        attribute = rule.attribute
        lowercase = rule.lowercase
        exact_score = cache.exact_score
        profiles_a = query_summary.profile.modules
        keys_a = query_summary.keys
        memo = self._columns_by_key
        tightened = False
        for key, profile_b in candidate_summary.representatives.items():
            column = memo[key]
            values = column.values
            exact = column.exact
            fingerprint_b = key[1]
            changed = False
            for t, i in enumerate(column.rows):
                floor = floors[i]
                value = values[t]
                if floor <= 0.0 or exact[t] or value < floor:
                    continue
                profile_a = profiles_a[i]
                fingerprint_a = keys_a[i][1]
                score = exact_score(fingerprint_a, fingerprint_b)
                is_exact = score is not None
                if not is_exact:
                    if lowercase:
                        value_a = profile_a.lowered(attribute)
                        value_b = profile_b.lowered(attribute)
                    else:
                        value_a = profile_a.values[attribute]
                        value_b = profile_b.values[attribute]
                    similarity, is_exact = bounded_levenshtein_similarity(value_a, value_b, floor)
                    if stats is not None:
                        stats.banded_calls += 1
                    score = cache.score_from_levenshtein(
                        profile_a, fingerprint_a, profile_b, fingerprint_b, similarity, exact=is_exact
                    )
                exact[t] = is_exact
                if score < value:
                    values[t] = score
                    changed = True
            if changed:
                column.top = max(values)
                tightened = True
        return tightened


class PathSetsBound(_ModulePairBound):
    """``PS``: the module bound matrix lifted through both matching levels.

    For a pair of paths, the internal matching selects at most one
    module pair per row and per column, so its weight is bounded by
    ``min(sum of path-a row maxima, sum of path-b column maxima,
    min(len_a, len_b))`` — computed from the *global* row/column maxima
    (a maximum over a subset never exceeds the maximum over the set).
    The per-pair Jaccard normalisation is monotone in that weight, and
    the path-set matching is bounded by the same row/column-maxima
    argument one level up.
    """

    name = "ps-path-matching"
    prunes = True

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        if type(measure) is not PathSetsSimilarity:
            return False
        if type(measure.path_internal_mapping) not in _MATCHING_MAPPINGS:
            return False
        if type(measure.path_set_mapping) not in _MATCHING_MAPPINGS:
            return False
        return type(measure.preselection) in _MODULE_LOCAL_PRESELECTIONS

    def _summarise(self, workflow: Workflow) -> _PathSummary:
        processed, profile = self._profile(workflow)
        keys = self._keys(profile)
        if profile.size == 0:
            return _PathSummary(profile, keys, ())
        index_of = {
            module.identifier: index for index, module in enumerate(processed.modules)
        }
        paths = tuple(
            tuple(index_of[name] for name in path) for path in self.measure._paths(processed)
        )
        return _PathSummary(profile, keys, paths)

    def upper_bound(self, query_summary: _PathSummary, candidate_summary: _PathSummary) -> float:
        size_a = query_summary.size
        size_b = candidate_summary.size
        normalize = self.measure.normalize
        if not size_a or not size_b:
            # PS.compare's exact empty-workflow values.
            return 1.0 if (not size_a and not size_b and normalize) else 0.0
        col_max = [column.top for column in self._columns(query_summary, candidate_summary)]
        row_max = self._row_maxima(candidate_summary)

        sums_a = [sum(row_max[index] for index in path) for path in query_summary.paths]
        sums_b = [sum(col_max[index] for index in path) for path in candidate_summary.paths]
        lengths_a = query_summary.lengths
        lengths_b = candidate_summary.lengths

        # Path-pair bound matrix, reduced on the fly to its row/column maxima.
        path_row_max = [0.0] * len(sums_a)
        path_col_max = [0.0] * len(sums_b)
        for a_index in range(len(sums_a)):
            sum_a = sums_a[a_index]
            length_a = lengths_a[a_index]
            best = 0.0
            for b_index in range(len(sums_b)):
                length_b = lengths_b[b_index]
                pair_bound = _pad_summation(
                    min(sum_a, sums_b[b_index], float(min(length_a, length_b))),
                    length_a + length_b,
                )
                value = similarity_jaccard(pair_bound, length_a, lengths_b[b_index])
                if value > best:
                    best = value
                if value > path_col_max[b_index]:
                    path_col_max[b_index] = value
            path_row_max[a_index] = best

        nnsim_bound = _pad_summation(
            min(sum(path_row_max), sum(path_col_max)), len(sums_a) + len(sums_b)
        )
        if normalize:
            return similarity_jaccard(nnsim_bound, len(sums_a), len(sums_b))
        return nnsim_bound


class BagOfWordsBound(CertifiedBound):
    """``BW``: the exact bag-overlap score (set operations are the cheap part).

    Exact bounds do not *prune* a whole pool — a frontier scan over them
    would pay the full score for every candidate — but they make ``BW``
    a valid ensemble component, and for the default measure (title and
    description) they name the ``text`` postings, from which SQLite ranks
    its searches.
    """

    name = "bw-token-bag"
    prunes = False

    def __init__(self, measure: BagOfWordsSimilarity, context) -> None:
        super().__init__(measure, context)
        # The ``text`` postings hold title-and-description tokens; a
        # measure that reads only one of the two is not scored from them.
        if measure.use_title and measure.use_description:
            self.postings = "text"

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        return type(measure) is BagOfWordsSimilarity

    def _summarise(self, workflow: Workflow) -> frozenset[str]:
        return self.measure.tokens(workflow)

    def upper_bound(self, query_summary: frozenset[str], candidate_summary: frozenset[str]) -> float:
        return bag_overlap_similarity(query_summary, candidate_summary)


class BagOfTagsBound(CertifiedBound):
    """``BT``: the exact bag-overlap score over the tag sets; for raw tags
    (the paper's default) it names the ``tags`` postings."""

    name = "bt-tag-bag"
    prunes = False

    def __init__(self, measure: BagOfTagsSimilarity, context) -> None:
        super().__init__(measure, context)
        # The ``tags`` postings hold the raw tags; lowercased tags would
        # admit too few candidates from them.
        if not measure.lowercase:
            self.postings = "tags"

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        return type(measure) is BagOfTagsSimilarity

    def _summarise(self, workflow: Workflow) -> frozenset[str]:
        return self.measure.tags(workflow)

    def upper_bound(self, query_summary: frozenset[str], candidate_summary: frozenset[str]) -> float:
        return bag_overlap_similarity(query_summary, candidate_summary)


class EnsembleBound(CertifiedBound):
    """Mean/weighted ensembles of fully certified members.

    The ensemble bound is the (weighted) mean of the member bounds over
    the members applicable to *both* workflows — exactly the members the
    ensemble's ``compare`` averages, with applicability computed by the
    members' own ``is_applicable_to``.  Certification requires *every*
    member to be certified: bounding an uncertified member by 1.0 would
    be unsound for members whose scores can exceed 1 (e.g.
    non-normalised ``MS``).

    Per-term soundness composes because float addition and division are
    monotone under rounding: the bound accumulates the same expression
    shape as ``compare`` with each term at least as large.
    """

    prunes = True

    @classmethod
    def certifies(cls, measure: WorkflowSimilarityMeasure) -> bool:
        # RankAggregationEnsemble ranks candidates list-wise and is
        # deliberately not covered; WeightedEnsemble subclasses
        # MeanEnsemble, so check exact types.
        if type(measure) not in (MeanEnsemble, WeightedEnsemble):
            return False
        if type(measure) is WeightedEnsemble and any(
            weight <= 0 for weight in measure.weights
        ):
            # A non-positive weight breaks the monotonicity of the
            # weighted mean in the member bounds.
            return False
        return all(
            any(bound_cls.certifies(member) for bound_cls in BOUND_CLASSES)
            for member in measure.members
        )

    def __init__(self, measure: MeanEnsemble, context) -> None:
        super().__init__(measure, context)
        self.member_bounds = [find_bound(member, context) for member in measure.members]
        if any(bound is None for bound in self.member_bounds):
            raise ValueError(f"ensemble {measure.name!r} has uncertified members")
        if isinstance(measure, WeightedEnsemble):
            self.weights = list(measure.weights)
        else:
            self.weights = [1.0] * len(measure.members)
        self.name = "ensemble(" + "+".join(bound.name for bound in self.member_bounds) + ")"

    def _summarise(self, workflow: Workflow):
        entries = []
        for member, bound in zip(self.measure.members, self.member_bounds):
            if member.is_applicable_to(workflow):
                entries.append((True, bound.summary(workflow)))
            else:
                entries.append((False, None))
        return tuple(entries)

    def _contributions(self, query_summary, candidate_summary) -> list[list]:
        """``[bound, weight, summary_a, summary_b, member bound]`` of every
        member applicable to both workflows."""
        return [
            [bound, weight, summary_a, summary_b, bound.upper_bound(summary_a, summary_b)]
            for bound, weight, (applicable_a, summary_a), (applicable_b, summary_b) in zip(
                self.member_bounds, self.weights, query_summary, candidate_summary
            )
            if applicable_a and applicable_b
        ]

    @staticmethod
    def _mean(contributions: list[list]) -> float:
        total = 0.0
        weight_sum = 0.0
        for _bound, weight, _summary_a, _summary_b, value in contributions:
            total += weight * value
            weight_sum += weight
        if weight_sum == 0.0:
            # compare() returns exactly 0.0 when no member applies.
            return 0.0
        return total / weight_sum

    def upper_bound(self, query_summary, candidate_summary) -> float:
        return self._mean(self._contributions(query_summary, candidate_summary))

    def refine(self, query_summary, candidate_summary, threshold: float, stats=None) -> float | None:
        contributions = self._contributions(query_summary, candidate_summary)
        if not contributions:
            return None
        total = 0.0
        weight_sum = 0.0
        for _bound, weight, _summary_a, _summary_b, value in contributions:
            total += weight * value
            weight_sum += weight
        improved = False
        for entry in contributions:
            bound, weight, summary_a, summary_b, value = entry
            # The ensemble can only reach the threshold if this member
            # reaches (threshold * weight_sum - everyone else's bound);
            # propagate that as the member's own refinement threshold.
            member_threshold = (threshold * weight_sum - (total - weight * value)) / weight
            refined = bound.refine(summary_a, summary_b, member_threshold, stats=stats)
            if refined is not None and refined < value:
                entry[4] = refined
                improved = True
        if not improved:
            return None
        return self._mean(contributions)


#: Registered bound classes, checked in order by :func:`find_bound`.
BOUND_CLASSES: list[type[CertifiedBound]] = [
    EnsembleBound,
    ModuleSetsBound,
    PathSetsBound,
    BagOfWordsBound,
    BagOfTagsBound,
]


def find_bound(measure: WorkflowSimilarityMeasure, context) -> CertifiedBound | None:
    """The certified bound instance for ``measure``, memoised on ``context``.

    Instances are cached per measure object (identity-guarded) so their
    summary memos persist across the queries of a batch; the context
    clears the memo when workflows are invalidated.
    """
    memo = context.measure_bounds
    entry = memo.get(id(measure))
    if entry is not None and entry[0] is measure:
        return entry[1]
    bound: CertifiedBound | None = None
    for bound_cls in BOUND_CLASSES:
        if bound_cls.certifies(measure):
            bound = bound_cls(measure, context)
            break
    memo[id(measure)] = (measure, bound)
    return bound


def find_frontier_bound(measure: WorkflowSimilarityMeasure, context) -> CertifiedBound | None:
    """Like :func:`find_bound`, restricted to bounds worth a pruned scan."""
    bound = find_bound(measure, context)
    if bound is not None and bound.prunes:
        return bound
    return None
