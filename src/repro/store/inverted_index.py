"""The token fields of the persisted inverted annotation index.

The annotation measures of the paper (``BW``, ``BT``) compare token
*sets* by their Jaccard overlap, which makes an inverted index the
natural sublinear preselection structure: a workflow can only score
above zero against a query if the two token sets intersect, i.e. if the
workflow appears in the postings list of at least one query token.

**Score-safe admission bound.**  For
:func:`repro.core.annotations.bag_overlap_similarity` over token sets
``A`` and ``B``::

    similarity(A, B) > 0   ⇔   A ∩ B ≠ ∅

so the union of the postings lists of the query's tokens contains
*every* workflow with a positive score; all workflows outside it score
exactly ``0.0``.  And the score itself needs no token sets: it is
``m / (|A| + |B| - m)`` for ``m`` shared tokens, a function of three
integers the postings hold.  So a top-k search ranks the admitted
workflows inside SQLite
(:meth:`repro.store.SqlAdmissionPlanner.top_k`) and pads a short answer
with the others' zeros in pool order — reproducing the reference
ranking (descending score, input order) bit for bit without scoring a
candidate in Python.

Two token fields are indexed per workflow:

* ``text`` — title + description through the exact Bag-of-Words
  pipeline (:func:`repro.text.tokenize` with stopword filtering), the
  preselection field of the ``BW`` measure;
* ``tags`` — the raw keyword tags (no preprocessing, following the
  paper's ``BT`` semantics).

The postings themselves live only in the ``postings`` table of
:class:`repro.store.WorkflowStore`, one ``(field, token, workflow_id)``
row each, kept in step with the snapshot by every store write and
queried in SQL by :class:`repro.store.SqlAdmissionPlanner`.  This class
owns what the store and the sql-indexed search must agree on: the field
names (which :attr:`repro.perf.bounds.CertifiedBound.postings` names
for the measure configurations whose tokens :meth:`workflow_tokens`
replays) and the tokenisation, which tokenises the query of that search
as it tokenised the rows.
"""

from __future__ import annotations

from ..text.tokenize import tokenize
from ..workflow.model import Workflow

__all__ = ["InvertedAnnotationIndex"]


class InvertedAnnotationIndex:
    """The indexed token fields and their tokenisation."""

    #: The indexed token fields, in persistence order.
    FIELDS: tuple[str, ...] = ("text", "tags")

    @staticmethod
    def workflow_tokens(field: str, workflow: Workflow) -> frozenset[str]:
        """The token set of one field, exactly as the measures consume it.

        ``text`` replays :meth:`BagOfWordsSimilarity.tokens
        <repro.core.annotations.BagOfWordsSimilarity.tokens>` (title and
        description joined by a space, default tokenizer); ``tags``
        replays :meth:`BagOfTagsSimilarity.tags
        <repro.core.annotations.BagOfTagsSimilarity.tags>` with the
        paper's no-preprocessing default.  Any drift here would break the
        admission bound, so the equivalence tests compare both pipelines
        token for token.
        """
        annotations = workflow.annotations
        if field == "text":
            return frozenset(tokenize(f"{annotations.title} {annotations.description}"))
        if field == "tags":
            return frozenset(annotations.tags)
        raise ValueError(f"unknown index field {field!r}; expected one of {InvertedAnnotationIndex.FIELDS}")
