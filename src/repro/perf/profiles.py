"""Precomputed per-module and per-workflow comparison profiles.

Repository-scale similarity search (Section 5.1.4 / 5.2 of the paper)
evaluates the same module attributes millions of times: every
``AttributeRule`` re-reads the attribute strings, every ``token_jaccard``
re-tokenises the same descriptions, every ``te`` preselection re-derives
the same type categories.  A :class:`ModuleProfile` performs all of this
derivation exactly once per module and interns the attribute strings so
that downstream cache keys hash and compare at pointer speed.

Profiles are keyed by *object identity*.  This is deliberate: the
importance projection (``ip``) builds projected workflow copies that
reuse the very same frozen :class:`~repro.workflow.model.Module`
instances, so one profile serves both the raw and the projected view of
a module.  A :class:`ProfileStore` holds strong references to the
modules it has profiled, which keeps the ``id()`` keys stable for the
lifetime of the store, and indexes workflow profiles by identifier, so
removing a workflow touches only its own raw and projected profiles.
"""

from __future__ import annotations

from sys import intern
from typing import Iterable

from ..workflow.model import Module, Workflow
from ..workflow.types import category_of
from ..text.tokenize import tokenize, tokenize_label

__all__ = ["PROFILE_ATTRIBUTES", "ModuleProfile", "WorkflowProfile", "ProfileStore"]

#: The comparable module attributes recognised by :meth:`Module.attribute`.
PROFILE_ATTRIBUTES: tuple[str, ...] = (
    "label",
    "type",
    "description",
    "script",
    "service_authority",
    "service_name",
    "service_uri",
    "parameters",
)


class ModuleProfile:
    """Derived comparison data of one module, computed once.

    ``values`` holds the interned attribute strings; lowercased variants
    and token sets are derived lazily per attribute the first time a
    comparator (or the search engine's upper-bound pruning) asks for
    them, then memoised for the lifetime of the profile.
    """

    __slots__ = ("module", "values", "category", "_lowered", "_token_sets", "_label_token_sets")

    def __init__(self, module: Module) -> None:
        self.module = module
        self.values: dict[str, str] = {
            name: intern(module.attribute(name)) for name in PROFILE_ATTRIBUTES
        }
        self.category: str = category_of(module.module_type)
        self._lowered: dict[str, str] = {}
        self._token_sets: dict[str, frozenset[str]] = {}
        self._label_token_sets: dict[str, frozenset[str]] = {}

    def lowered(self, attribute: str) -> str:
        """The attribute value lowercased (for the ``*_ci`` comparators)."""
        value = self._lowered.get(attribute)
        if value is None:
            value = intern(self.values[attribute].lower())
            self._lowered[attribute] = value
        return value

    def token_set(self, attribute: str) -> frozenset[str]:
        """Token set as consumed by the ``token_jaccard`` comparator."""
        tokens = self._token_sets.get(attribute)
        if tokens is None:
            tokens = frozenset(tokenize(self.values[attribute], filter_stopwords=False))
            self._token_sets[attribute] = tokens
        return tokens

    def label_token_set(self, attribute: str) -> frozenset[str]:
        """Token set as consumed by the ``label_token_jaccard`` comparator."""
        tokens = self._label_token_sets.get(attribute)
        if tokens is None:
            tokens = frozenset(tokenize_label(self.values[attribute]))
            self._label_token_sets[attribute] = tokens
        return tokens


class WorkflowProfile:
    """Profiles of all modules of one workflow, in module order."""

    __slots__ = ("workflow", "modules")

    def __init__(self, workflow: Workflow, module_profiles: Iterable[ModuleProfile]) -> None:
        self.workflow = workflow
        self.modules: tuple[ModuleProfile, ...] = tuple(module_profiles)

    @property
    def identifier(self) -> str:
        return self.workflow.identifier

    @property
    def size(self) -> int:
        return len(self.modules)


class ProfileStore:
    """Identity-keyed cache of module and workflow profiles.

    The store keeps strong references to every profiled module/workflow,
    which is what makes the ``id()`` keys safe (an object's id can only
    be recycled after it is garbage collected).  A store is expected to
    live alongside the repository or search engine it serves; call
    :meth:`clear` to drop all derived data at once.
    """

    __slots__ = ("_modules", "_workflows", "_by_identifier")

    def __init__(self) -> None:
        self._modules: dict[int, ModuleProfile] = {}
        self._workflows: dict[int, WorkflowProfile] = {}
        # The ``_workflows`` keys of each workflow identifier: the raw
        # workflow and its preprocessed copies.
        self._by_identifier: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self._modules)

    def module_profile(self, module: Module) -> ModuleProfile:
        profile = self._modules.get(id(module))
        if profile is None or profile.module is not module:
            profile = ModuleProfile(module)
            self._modules[id(module)] = profile
        return profile

    def workflow_profile(self, workflow: Workflow) -> WorkflowProfile:
        profile = self._workflows.get(id(workflow))
        if profile is None or profile.workflow is not workflow:
            module_profile = self.module_profile
            profile = WorkflowProfile(workflow, (module_profile(m) for m in workflow.modules))
            self._workflows[id(workflow)] = profile
            self._by_identifier.setdefault(workflow.identifier, []).append(id(workflow))
        return profile

    def warm(self, workflows: Iterable[Workflow]) -> int:
        """Profile every workflow up front; returns the module count."""
        total = 0
        for workflow in workflows:
            total += self.workflow_profile(workflow).size
        return total

    def invalidate_workflow(self, identifier: str) -> list[ModuleProfile]:
        """Drop every profile derived from the workflow ``identifier``.

        Removes the workflow profiles of the raw workflow *and* of any
        preprocessed copies sharing its identifier (the ``ip`` projection
        registers projected `Workflow` objects under the same id), found
        through the identifier index without scanning other workflows'
        profiles, then drops the module profiles they reference.
        Returns the dropped module profiles so pair caches can release
        their fingerprint memos as well.  Scores already memoised from
        these profiles stay valid — they are keyed by attribute *values*,
        not by corpus membership.
        """
        dropped_modules: list[ModuleProfile] = []
        seen: set[int] = set()
        for key in self._by_identifier.pop(identifier, ()):
            workflow_profile = self._workflows.pop(key)
            for module_profile in workflow_profile.modules:
                module_key = id(module_profile.module)
                if module_key in seen:
                    continue
                seen.add(module_key)
                registered = self._modules.get(module_key)
                if registered is module_profile:
                    del self._modules[module_key]
                    dropped_modules.append(module_profile)
        return dropped_modules

    def clear(self) -> None:
        self._modules.clear()
        self._workflows.clear()
        self._by_identifier.clear()
