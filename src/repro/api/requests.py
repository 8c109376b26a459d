"""Declarative, JSON-serializable request objects of the public API.

A request describes *what* to compute — queries, measure, ``k``,
thresholds — while the :class:`~repro.api.service.SimilarityService`
decides *how* to compute it.  The only execution input a caller provides
is an :class:`ExecutionPolicy`, and even that defaults to ``auto``: the
service picks the fastest path that is bit-identical to the sequential
reference scan (all fast paths are exact by construction; the
equivalence tests pin this).

Every request round-trips through plain JSON (``to_json``/``from_json``)
so requests can be queued, logged, or shipped over a wire unchanged.
Decoding a payload that is not a well-formed request raises
``ValueError``, ``TypeError`` or ``KeyError`` (the server answers each
with a 400): a ``policy`` or ``measure`` that is not a JSON object, a
string or object where a list of identifiers belongs, or a number that
is NaN, infinite or out of range.
Measures are described by :class:`MeasureSpec`, either directly from a
paper-style name (``"MS_ip_te_pll"``, ``"BW+MS_ip_te_pll"``) or through
the fluent :class:`MeasureBuilder`::

    spec = (MeasureSpec.build()
            .module_sets()
            .importance_projection()
            .type_equivalence()
            .label_levenshtein()
            .spec())
    assert spec.name == "MS_ip_te_pll"
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, TypeVar

__all__ = [
    "ExecutionMode",
    "ExecutionPolicy",
    "MeasureSpec",
    "MeasureBuilder",
    "SearchRequest",
    "PairwiseRequest",
    "ClusterRequest",
]


T = TypeVar("T")


def _mapping(value: Any, what: str) -> Mapping[str, Any]:
    """``value`` if it is a JSON object; a ``ValueError`` otherwise."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _number(convert: Callable[[Any], T], value: Any, what: str) -> T:
    """``convert(value)`` (``int`` or ``float``), raising ``ValueError``
    where the conversion overflows (``int`` of an infinity, ``float`` of
    an integer beyond the double range)."""
    try:
        return convert(value)
    except OverflowError as error:
        raise ValueError(f"{what} is out of range ({error})") from error


class ExecutionMode(str, Enum):
    """How a request is executed; ``AUTO`` lets the service choose."""

    AUTO = "auto"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class ExecutionPolicy:
    """Execution knobs of one request.

    ``mode`` selects the path.  ``AUTO`` answers ``BW``/``BT`` searches
    through candidate preselection in SQL whenever a trusted store holds
    postings (see :meth:`SimilarityService.build_index
    <repro.api.service.SimilarityService.build_index>`; bit-identical by
    construction — the admission bound is score-safe), routes to the
    process pool when ``workers`` grants more than one worker and the
    request is pool-eligible, and otherwise runs the pruned/cached
    in-process batch — never the slow sequential scan.  ``SEQUENTIAL``
    runs the reference scan, bypassing every fast tier.  ``repro serve``
    runs no pool: it answers ``workers`` above 1 with a 400.

    The store a request runs on is the service's own
    (:meth:`SimilarityService.attach_cache_dir
    <repro.api.service.SimilarityService.attach_cache_dir>`), and so is
    its lock-retry schedule (``service.store.retry``).
    """

    mode: ExecutionMode = ExecutionMode.AUTO
    workers: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ExecutionMode):
            object.__setattr__(self, "mode", ExecutionMode(str(self.mode)))
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")

    # -- constructors --------------------------------------------------------

    @classmethod
    def auto(cls, *, workers: int | None = None) -> "ExecutionPolicy":
        return cls(mode=ExecutionMode.AUTO, workers=workers)

    @classmethod
    def sequential(cls) -> "ExecutionPolicy":
        return cls(mode=ExecutionMode.SEQUENTIAL)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"mode": self.mode.value, "workers": self.workers}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionPolicy":
        """Rebuild a policy; unknown keys are ignored, so payloads that
        still carry since-removed knobs (``cache_dir``, ``retry_*``)
        load unchanged."""
        data = _mapping(data, "policy")
        workers = data.get("workers")
        return cls(
            mode=ExecutionMode(data.get("mode", "auto")),
            workers=_number(int, workers, "workers") if workers is not None else None,
        )


# The preprocessor codes are fixed by the paper; everything else is
# sourced from the live registries so a measure the engine can
# instantiate is never rejected at request-build time.
_PREPROCESSORS = ("np", "ip")


def _vocabulary():
    """(kinds, annotations, preselections, module schemes, mappings)."""
    from ..core.configs import available_module_configs
    from ..core.mapping import MAPPINGS
    from ..core.preselection import PRESELECTIONS
    from ..core.registry import ANNOTATION_MEASURES, STRUCTURAL_KINDS

    return (
        STRUCTURAL_KINDS,
        ANNOTATION_MEASURES,
        PRESELECTIONS,
        available_module_configs(),
        MAPPINGS,
    )


@dataclass(frozen=True)
class MeasureSpec:
    """A similarity-measure configuration, addressed by its paper name.

    The name follows the grammar of :mod:`repro.core.registry`
    (``MS_ip_te_pll``, ``BW``, ensembles as ``"A+B"``).  Construction
    validates the name's structure so malformed requests fail at request
    build time, not mid-execution.
    """

    name: str

    def __post_init__(self) -> None:
        name = self.name.strip()
        if not name:
            raise ValueError("measure name must not be empty")
        object.__setattr__(self, "name", name)
        for member in name.split("+"):
            self._validate_member(member.strip())

    @staticmethod
    def _validate_member(member: str) -> None:
        kinds, annotations, preselections, schemes, mappings = _vocabulary()
        if member in annotations:
            return
        parts = member.split("_")
        if len(parts) < 4:
            raise ValueError(
                f"structural measure names have the form KIND_prep_presel_pconfig, got {member!r}"
            )
        kind, prep, presel, pconfig, *rest = parts
        if kind not in kinds:
            raise ValueError(f"unknown topological comparison {kind!r} in {member!r}")
        if prep not in _PREPROCESSORS:
            raise ValueError(f"unknown preprocessing code {prep!r} in {member!r}")
        if presel not in preselections:
            raise ValueError(f"unknown preselection code {presel!r} in {member!r}")
        if pconfig not in schemes:
            raise ValueError(f"unknown module comparison scheme {pconfig!r} in {member!r}")
        for extra in rest:
            if extra not in mappings and extra != "nonorm":
                raise ValueError(f"unknown measure name suffix {extra!r} in {member!r}")

    @property
    def is_ensemble(self) -> bool:
        return "+" in self.name

    @classmethod
    def of(cls, measure: "MeasureSpec | str") -> "MeasureSpec":
        """Coerce a name or spec to a spec."""
        return measure if isinstance(measure, MeasureSpec) else cls(str(measure))

    @classmethod
    def ensemble(cls, *members: "MeasureSpec | str") -> "MeasureSpec":
        """The mean ensemble of the given measures (``"A+B"``)."""
        if len(members) < 2:
            raise ValueError("an ensemble needs at least two members")
        return cls("+".join(cls.of(member).name for member in members))

    @classmethod
    def build(cls) -> "MeasureBuilder":
        """Start a fluent builder for a structural configuration."""
        return MeasureBuilder()

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MeasureSpec":
        return cls(name=str(_mapping(data, "measure")["name"]))


class MeasureBuilder:
    """Fluent builder of structural :class:`MeasureSpec` names.

    Every setter returns the builder; :meth:`spec` assembles and
    validates the final name.  Defaults mirror the registry grammar:
    maximum-weight mapping (``mw``) and normalised scores are implied
    and omitted from the name.
    """

    def __init__(self) -> None:
        self._kind = "MS"
        self._prep = "np"
        self._presel = "ta"
        self._scheme = "pw0"
        self._mapping = "mw"
        self._normalize = True

    # -- topological comparison ---------------------------------------------

    def kind(self, kind: str) -> "MeasureBuilder":
        self._kind = kind
        return self

    def module_sets(self) -> "MeasureBuilder":
        return self.kind("MS")

    def path_sets(self) -> "MeasureBuilder":
        return self.kind("PS")

    def graph_edit(self) -> "MeasureBuilder":
        return self.kind("GE")

    # -- preprocessing -------------------------------------------------------

    def preprocessing(self, code: str) -> "MeasureBuilder":
        self._prep = code
        return self

    def importance_projection(self) -> "MeasureBuilder":
        return self.preprocessing("ip")

    def no_preprocessing(self) -> "MeasureBuilder":
        return self.preprocessing("np")

    # -- pair preselection ---------------------------------------------------

    def preselection(self, code: str) -> "MeasureBuilder":
        self._presel = code
        return self

    def all_pairs(self) -> "MeasureBuilder":
        return self.preselection("ta")

    def type_equivalence(self) -> "MeasureBuilder":
        return self.preselection("te")

    def strict_type_match(self) -> "MeasureBuilder":
        return self.preselection("tm")

    # -- module comparison scheme -------------------------------------------

    def module_scheme(self, code: str) -> "MeasureBuilder":
        self._scheme = code
        return self

    def label_levenshtein(self) -> "MeasureBuilder":
        """Label edit distance (``pll``), the paper's best scheme."""
        return self.module_scheme("pll")

    def label_match(self) -> "MeasureBuilder":
        return self.module_scheme("plm")

    def weighted_attributes(self, *, tuned: bool = False) -> "MeasureBuilder":
        return self.module_scheme("pw3" if tuned else "pw0")

    # -- mapping and normalisation ------------------------------------------

    def mapping(self, code: str) -> "MeasureBuilder":
        self._mapping = code
        return self

    def greedy_mapping(self) -> "MeasureBuilder":
        return self.mapping("greedy")

    def unnormalized(self) -> "MeasureBuilder":
        self._normalize = False
        return self

    # -- assembly ------------------------------------------------------------

    def name(self) -> str:
        parts = [self._kind, self._prep, self._presel, self._scheme]
        if self._mapping != "mw":
            parts.append(self._mapping)
        if not self._normalize:
            parts.append("nonorm")
        return "_".join(parts)

    def spec(self) -> MeasureSpec:
        return MeasureSpec(self.name())


def _identifier_tuple(value: Iterable[str] | None, what: str) -> tuple[str, ...] | None:
    if value is None:
        return None
    # Iterating these would yield characters, bytes or keys, not identifiers.
    if isinstance(value, (str, bytes, bytearray, Mapping)):
        raise ValueError(
            f"{what} must be a list of workflow identifiers, got {type(value).__name__}"
        )
    return tuple(str(item) for item in value)


@dataclass(frozen=True)
class SearchRequest:
    """Top-``k`` similarity search for one or many query workflows.

    ``queries=None`` searches with *every* repository workflow as the
    query (the all-queries batch of the paper's retrieval experiment);
    ``candidates`` optionally restricts the searched pool.
    """

    measure: MeasureSpec
    queries: tuple[str, ...] | None = None
    k: int = 10
    candidates: tuple[str, ...] | None = None
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "measure", MeasureSpec.of(self.measure))
        object.__setattr__(self, "queries", _identifier_tuple(self.queries, "queries"))
        object.__setattr__(self, "candidates", _identifier_tuple(self.candidates, "candidates"))
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.queries is not None and not self.queries:
            raise ValueError("queries must be None (all workflows) or non-empty")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "search",
            "measure": self.measure.to_dict(),
            "queries": list(self.queries) if self.queries is not None else None,
            "k": self.k,
            "candidates": list(self.candidates) if self.candidates is not None else None,
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchRequest":
        data = _mapping(data, "request")
        return cls(
            measure=MeasureSpec.from_dict(data["measure"]),
            queries=data.get("queries"),
            k=_number(int, data.get("k", 10), "k"),
            candidates=data.get("candidates"),
            policy=ExecutionPolicy.from_dict(data.get("policy", {})),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "SearchRequest":
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class PairwiseRequest:
    """Similarity of every unordered pair of the selected workflows.

    ``workflows=None`` scores the whole repository — the input of
    duplicate detection and clustering.
    """

    measure: MeasureSpec
    workflows: tuple[str, ...] | None = None
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "measure", MeasureSpec.of(self.measure))
        object.__setattr__(self, "workflows", _identifier_tuple(self.workflows, "workflows"))

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "pairwise",
            "measure": self.measure.to_dict(),
            "workflows": list(self.workflows) if self.workflows is not None else None,
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PairwiseRequest":
        data = _mapping(data, "request")
        return cls(
            measure=MeasureSpec.from_dict(data["measure"]),
            workflows=data.get("workflows"),
            policy=ExecutionPolicy.from_dict(data.get("policy", {})),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "PairwiseRequest":
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class ClusterRequest:
    """Flat clustering of the repository's similarity graph."""

    measure: MeasureSpec
    threshold: float = 0.7
    linkage: str = "single"
    workflows: tuple[str, ...] | None = None
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "measure", MeasureSpec.of(self.measure))
        object.__setattr__(self, "workflows", _identifier_tuple(self.workflows, "workflows"))
        if self.linkage not in ("single", "average"):
            raise ValueError(f"unknown linkage {self.linkage!r}; use 'single' or 'average'")
        # No upper bound: unnormalized (nonorm) measures score above 1,
        # and thresholds in that range are the meaningful ones for them.
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be a finite number, got {self.threshold}")
        if self.threshold < 0.0:
            raise ValueError(f"threshold must be non-negative, got {self.threshold}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "cluster",
            "measure": self.measure.to_dict(),
            "threshold": self.threshold,
            "linkage": self.linkage,
            "workflows": list(self.workflows) if self.workflows is not None else None,
            "policy": self.policy.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClusterRequest":
        data = _mapping(data, "request")
        return cls(
            measure=MeasureSpec.from_dict(data["measure"]),
            threshold=_number(float, data.get("threshold", 0.7), "threshold"),
            linkage=str(data.get("linkage", "single")),
            workflows=data.get("workflows"),
            policy=ExecutionPolicy.from_dict(data.get("policy", {})),
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "ClusterRequest":
        return cls.from_dict(json.loads(payload))


#: Requests dispatchable by ``kind`` (used by ``request_from_dict``).
_REQUEST_KINDS = {
    "search": SearchRequest,
    "pairwise": PairwiseRequest,
    "cluster": ClusterRequest,
}


def request_from_dict(data: Mapping[str, Any]):
    """Rebuild any request from its ``to_dict`` payload (``kind``-tagged)."""
    kind = _mapping(data, "request").get("kind")
    request_class = _REQUEST_KINDS.get(str(kind))
    if request_class is None:
        raise ValueError(f"unknown request kind {kind!r}; expected one of {sorted(_REQUEST_KINDS)}")
    return request_class.from_dict(data)


__all__.append("request_from_dict")
