"""Topological workflow comparison (step 3 of the framework).

Implements the three classes of structural comparison identified in
Section 2.1.3 of the paper:

* :class:`ModuleSetsSimilarity` (``MS``) — structure agnostic: workflows
  are treated as sets of modules and compared by the total similarity of
  the maximum-weight module mapping.
* :class:`PathSetsSimilarity` (``PS``) — substructure based: workflows
  are decomposed into their source-to-sink paths, paths are compared by
  maximum-weight *non-crossing* matching of their modules, and the path
  sets by a maximum-weight matching over the pairwise path similarities.
* :class:`GraphEditSimilarity` (``GE``) — full structure: the DAGs are
  compared by graph edit distance with uniform costs, with node labels
  reflecting the module mapping (the SUBDUE substitution lives in
  :mod:`repro.graphs.ged`).

Every measure shares the same configuration surface: a module comparison
scheme (``pX``), a pair preselection strategy (``ta``/``te``/``tm``), a
structural preprocessor (``np``/``ip``), a module mapping strategy and a
normalisation toggle.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..graphs.ged import EditCosts, GraphEditDistance, LabeledGraph
from ..graphs.paths import enumerate_paths
from ..workflow.model import Module, Workflow
from .base import SimilarityDetail, WorkflowSimilarityMeasure
from .configs import get_module_config
from .mapping import MappingStrategy, MaximumWeightMapping, NonCrossingMapping, get_mapping
from .module_similarity import ModuleComparator, ModuleComparisonConfig
from .normalization import clamp_unit_interval, normalize_edit_cost, similarity_jaccard
from .preprocessing import NoPreprocessing, WorkflowPreprocessor
from .preselection import AllPairs, PairPreselection

__all__ = [
    "StructuralMeasure",
    "ModuleSetsSimilarity",
    "PathSetsSimilarity",
    "GraphEditSimilarity",
]


class StructuralMeasure(WorkflowSimilarityMeasure):
    """Shared machinery of the structure-based similarity measures."""

    #: Shorthand of the topological comparison ("MS", "PS", "GE").
    kind: str = "??"

    def __init__(
        self,
        module_config: ModuleComparisonConfig | str = "pw0",
        *,
        preselection: PairPreselection | None = None,
        preprocessor: WorkflowPreprocessor | None = None,
        mapping: MappingStrategy | str = "mw",
        normalize: bool = True,
    ) -> None:
        super().__init__()
        if isinstance(module_config, str):
            module_config = get_module_config(module_config)
        self.comparator = ModuleComparator(module_config)
        self.preselection = preselection or AllPairs()
        self.preprocessor = preprocessor or NoPreprocessing()
        self.mapping = get_mapping(mapping) if isinstance(mapping, str) else mapping
        self.normalize = normalize
        self.name = self._build_name()
        self._projection_cache: dict[str, tuple[Workflow, Workflow]] = {}

    def _build_name(self) -> str:
        parts = [
            self.kind,
            self.preprocessor.code,
            self.preselection.code,
            self.comparator.name,
        ]
        if self.mapping.code != "mw":
            parts.append(self.mapping.code)
        if not self.normalize:
            parts.append("nonorm")
        return "_".join(parts)

    # -- shared helpers ---------------------------------------------------

    def preprocess(self, workflow: Workflow) -> Workflow:
        """Apply the configured structural preprocessing (with caching)."""
        cached = self._projection_cache.get(workflow.identifier)
        if cached is not None and cached[0] is workflow:
            return cached[1]
        transformed = self.preprocessor.transform(workflow)
        self._projection_cache[workflow.identifier] = (workflow, transformed)
        return transformed

    def forget_workflows(self, identifiers: Iterable[str]) -> None:
        for identifier in identifiers:
            self._projection_cache.pop(identifier, None)

    def module_similarity_matrix(
        self, first_modules: Sequence[Module], second_modules: Sequence[Module]
    ) -> list[list[float]]:
        """Pairwise module similarities under preselection, with bookkeeping."""
        candidates = self.preselection.candidate_pairs(first_modules, second_modules)
        total_pairs = len(first_modules) * len(second_modules)
        self.stats.candidate_module_pairs += (
            total_pairs if candidates is None else len(candidates)
        )
        before = self.comparator.comparisons_performed
        matrix = self.comparator.similarity_matrix(
            first_modules, second_modules, candidate_pairs=candidates
        )
        self.stats.module_pair_comparisons += self.comparator.comparisons_performed - before
        return matrix

    def reset_stats(self) -> None:
        super().reset_stats()
        self.comparator.reset_stats()


class ModuleSetsSimilarity(StructuralMeasure):
    """``MS`` — compare workflows as sets of modules.

    The non-normalised similarity is the additive similarity score of
    the module pairs mapped by the configured mapping strategy
    (maximum-weight matching by default); the normalised value applies
    the similarity-weighted Jaccard index over the module set sizes.
    """

    kind = "MS"

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        first = self.preprocess(first)
        second = self.preprocess(second)
        modules_a = list(first.modules)
        modules_b = list(second.modules)
        if not modules_a or not modules_b:
            empty_both = not modules_a and not modules_b
            value = 1.0 if (empty_both and self.normalize) else 0.0
            return SimilarityDetail(similarity=value, unnormalized=0.0, extras={"mapping": ()})
        matrix = self.module_similarity_matrix(modules_a, modules_b)
        pairs = self.mapping.match(matrix)
        nnsim = sum(pair.weight for pair in pairs)
        if self.normalize:
            value = similarity_jaccard(nnsim, len(modules_a), len(modules_b))
        else:
            value = nnsim
        mapping = tuple(
            (modules_a[pair.row].identifier, modules_b[pair.col].identifier, pair.weight)
            for pair in pairs
        )
        return SimilarityDetail(similarity=value, unnormalized=nnsim, extras={"mapping": mapping})


class PathSetsSimilarity(StructuralMeasure):
    """``PS`` — compare workflows by their sets of source-to-sink paths.

    Each pair of paths is compared by the maximum-weight non-crossing
    matching of their modules (respecting the module order along the
    paths); a maximum-weight matching over the pairwise path similarity
    scores then yields the non-normalised workflow similarity.

    Per-path-pair scores are normalised with the similarity-weighted
    Jaccard index over the path lengths before the path matching, so
    that identical workflows obtain a similarity of exactly 1.0 under the
    analogous set normalisation (the paper states the normalisation for
    path sets is "analogous" to the module set case; this is the
    interpretation that satisfies sim = 1 for identical workflows).
    """

    kind = "PS"

    def __init__(
        self,
        module_config: ModuleComparisonConfig | str = "pw0",
        *,
        preselection: PairPreselection | None = None,
        preprocessor: WorkflowPreprocessor | None = None,
        mapping: MappingStrategy | str = "mw",
        path_mapping: MappingStrategy | None = None,
        normalize: bool = True,
        max_paths: int = 256,
    ) -> None:
        super().__init__(
            module_config,
            preselection=preselection,
            preprocessor=preprocessor,
            mapping=mapping,
            normalize=normalize,
        )
        #: Matching used *within* a pair of paths; non-crossing by definition.
        self.path_internal_mapping = path_mapping or NonCrossingMapping()
        #: Matching used *across* the two path sets.
        self.path_set_mapping = (
            self.mapping if not isinstance(self.mapping, NonCrossingMapping) else MaximumWeightMapping()
        )
        self.max_paths = max_paths

    def _paths(self, workflow: Workflow) -> list[tuple[str, ...]]:
        """Source-to-sink paths of a workflow, capped at ``max_paths``."""
        adjacency = workflow.adjacency()
        paths: list[tuple[str, ...]] = []
        sources = workflow.source_modules()
        for source in sources:
            for path in enumerate_paths(adjacency, source):
                paths.append(path)
                if len(paths) >= self.max_paths:
                    return paths
        return paths

    def _path_pair_similarity(
        self,
        path_a: tuple[str, ...],
        path_b: tuple[str, ...],
        modules_a: dict[str, Module],
        modules_b: dict[str, Module],
    ) -> float:
        sequence_a = [modules_a[name] for name in path_a]
        sequence_b = [modules_b[name] for name in path_b]
        matrix = self.module_similarity_matrix(sequence_a, sequence_b)
        pairs = self.path_internal_mapping.match(matrix)
        score = sum(pair.weight for pair in pairs)
        # Normalise the pair score to [0, 1] so path-set normalisation is
        # analogous to the module-set case.
        return similarity_jaccard(score, len(sequence_a), len(sequence_b))

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        first = self.preprocess(first)
        second = self.preprocess(second)
        if first.size == 0 or second.size == 0:
            empty_both = first.size == 0 and second.size == 0
            value = 1.0 if (empty_both and self.normalize) else 0.0
            return SimilarityDetail(similarity=value, unnormalized=0.0, extras={"paths": (0, 0)})
        paths_a = self._paths(first)
        paths_b = self._paths(second)
        modules_a = first.module_map()
        modules_b = second.module_map()
        path_matrix = [
            [
                self._path_pair_similarity(path_a, path_b, modules_a, modules_b)
                for path_b in paths_b
            ]
            for path_a in paths_a
        ]
        pairs = self.path_set_mapping.match(path_matrix)
        nnsim = sum(pair.weight for pair in pairs)
        if self.normalize:
            value = similarity_jaccard(nnsim, len(paths_a), len(paths_b))
        else:
            value = nnsim
        return SimilarityDetail(
            similarity=value,
            unnormalized=nnsim,
            extras={"paths": (len(paths_a), len(paths_b)), "matched_paths": len(pairs)},
        )


class GraphEditSimilarity(StructuralMeasure):
    """``GE`` — compare the full DAG structures by graph edit distance.

    Node labels of the two graphs are set to reflect the module mapping
    derived from maximum-weight matching of the modules (pairs whose
    similarity reaches ``label_threshold`` receive a shared identifier),
    after which the edit distance with uniform costs is computed.  The
    normalised similarity is ``1 - cost / max_cost``; the non-normalised
    variant returns ``-cost`` as in the paper.
    """

    kind = "GE"

    def __init__(
        self,
        module_config: ModuleComparisonConfig | str = "pw0",
        *,
        preselection: PairPreselection | None = None,
        preprocessor: WorkflowPreprocessor | None = None,
        mapping: MappingStrategy | str = "mw",
        normalize: bool = True,
        label_threshold: float = 0.5,
        edit_costs: EditCosts | None = None,
        exact_node_limit: int = 7,
        timeout: float | None = 5.0,
    ) -> None:
        super().__init__(
            module_config,
            preselection=preselection,
            preprocessor=preprocessor,
            mapping=mapping,
            normalize=normalize,
        )
        self.label_threshold = label_threshold
        self.ged = GraphEditDistance(
            edit_costs or EditCosts(), exact_node_limit=exact_node_limit, timeout=timeout
        )

    def _labeled_graphs(
        self, first: Workflow, second: Workflow
    ) -> tuple[LabeledGraph, LabeledGraph]:
        modules_a = list(first.modules)
        modules_b = list(second.modules)
        matrix = self.module_similarity_matrix(modules_a, modules_b)
        pairs = self.mapping.match(matrix)
        labels_a = {module.identifier: f"a::{module.identifier}" for module in modules_a}
        labels_b = {module.identifier: f"b::{module.identifier}" for module in modules_b}
        for index, pair in enumerate(pairs):
            if pair.weight < self.label_threshold:
                continue
            shared = f"match::{index}"
            labels_a[modules_a[pair.row].identifier] = shared
            labels_b[modules_b[pair.col].identifier] = shared
        graph_a = LabeledGraph.from_edges(labels_a, first.edges())
        graph_b = LabeledGraph.from_edges(labels_b, second.edges())
        return graph_a, graph_b

    def compare(self, first: Workflow, second: Workflow) -> SimilarityDetail:
        first = self.preprocess(first)
        second = self.preprocess(second)
        graph_a, graph_b = self._labeled_graphs(first, second)
        result = self.ged.distance(graph_a, graph_b)
        if result.timed_out:
            self.stats.timed_out_pairs += 1
        if self.normalize:
            value = normalize_edit_cost(
                result.cost,
                graph_a.node_count,
                graph_b.node_count,
                graph_a.edge_count,
                graph_b.edge_count,
            )
            value = clamp_unit_interval(value)
        else:
            value = -result.cost
        return SimilarityDetail(
            similarity=value,
            unnormalized=-result.cost,
            extras={
                "edit_cost": result.cost,
                "exact": result.exact,
                "timed_out": result.timed_out,
            },
        )
