"""Property-based fuzz of request decoding.

Request payloads arrive as JSON from clients the system does not
control.  Whatever JSON-shaped value lands in any field — or as the
whole body — decoding must either produce a request or raise one of the
exceptions the server answers with a 400 (``ValueError``, ``TypeError``,
``KeyError``); anything else would surface as a 500.  Valid requests
must survive ``to_dict``/``from_dict`` (and JSON) unchanged.

The seed is fixed (1483) unless ``REPRO_FUZZ_SEED`` sets another one.
"""

from __future__ import annotations

import json
import os

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterRequest,
    ExecutionMode,
    ExecutionPolicy,
    PairwiseRequest,
    SearchRequest,
    request_from_dict,
)

#: What the server maps to HTTP 400.
DECODE_ERRORS = (ValueError, TypeError, KeyError)

FUZZ = settings(max_examples=150, deadline=None, database=None)
FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "1483"))

MEASURES = ("BW", "BT", "MS_ip_te_pll", "PS_np_ta_pll", "BW+MS_ip_te_pll")
#: Strings a field may legitimately hold, so fuzzing also reaches the
#: accepting paths instead of failing at the first check.
WORDS = st.sampled_from(
    MEASURES
    + tuple(mode.value for mode in ExecutionMode)
    + ("single", "average", "search", "pairwise", "cluster", "1000", "NaN", "-1", "2.5")
)

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
    | WORDS
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8) | WORDS, children, max_size=4),
    max_leaves=10,
)

BASE = {
    SearchRequest: {"kind": "search", "measure": {"name": "BW"}, "queries": ["1000"], "k": 5},
    PairwiseRequest: {"kind": "pairwise", "measure": {"name": "BW"}, "workflows": ["1000", "1001"]},
    ClusterRequest: {"kind": "cluster", "measure": {"name": "BW"}, "threshold": 0.5},
}
REQUEST_FIELDS = (
    "kind", "measure", "queries", "k", "candidates", "workflows", "threshold", "linkage", "policy",
)
#: The policy's fields, then retired keys that must load and be ignored.
POLICY_FIELDS = (
    "mode", "workers", "cache_dir", "retry_attempts", "retry_base_delay", "retry_max_delay",
)


def decode(decoder, payload):
    """``decoder(payload)``, or ``None`` when it raises a 400 exception."""
    try:
        decoded = decoder(payload)
    except DECODE_ERRORS:
        return None
    # Whatever decodes is a well-formed request: it survives a round trip.
    assert type(decoded).from_dict(decoded.to_dict()) == decoded
    return decoded


class TestDecodingNeverEscapes:
    @seed(FUZZ_SEED)
    @FUZZ
    @given(
        request_class=st.sampled_from(sorted(BASE, key=lambda cls: cls.__name__)),
        field=st.sampled_from(REQUEST_FIELDS),
        value=json_values,
    )
    @example(request_class=SearchRequest, field="policy", value=None)
    @example(request_class=SearchRequest, field="policy", value="sequential")
    @example(request_class=SearchRequest, field="queries", value="1000")
    @example(request_class=ClusterRequest, field="threshold", value=float("nan"))
    def test_any_value_in_any_field(self, request_class, field, value):
        payload = {**BASE[request_class], field: value}
        request = decode(request_class.from_dict, payload)
        assert request is None or isinstance(request, request_class)
        decode(request_from_dict, payload)

    @seed(FUZZ_SEED)
    @FUZZ
    @given(
        request_class=st.sampled_from(sorted(BASE, key=lambda cls: cls.__name__)),
        field=st.sampled_from(POLICY_FIELDS),
        value=json_values,
    )
    @example(request_class=SearchRequest, field="workers", value=float("inf"))
    @example(request_class=SearchRequest, field="retry_attempts", value=float("inf"))
    @example(request_class=SearchRequest, field="retry_base_delay", value=float("nan"))
    def test_any_value_in_any_policy_field(self, request_class, field, value):
        policy = {field: value}
        decode(ExecutionPolicy.from_dict, policy)
        decode(request_class.from_dict, {**BASE[request_class], "policy": policy})

    @seed(FUZZ_SEED)
    @FUZZ
    @given(body=json_values)
    @example(body=None)
    @example(body=["search"])
    def test_any_value_as_the_whole_body(self, body):
        decode(request_from_dict, body)
        decode(ExecutionPolicy.from_dict, body)
        for request_class in BASE:
            decode(request_class.from_dict, body)

    @seed(FUZZ_SEED)
    @FUZZ
    @given(measure=json_values)
    def test_any_measure_name(self, measure):
        for request_class in BASE:
            decode(request_class.from_dict, {**BASE[request_class], "measure": {"name": measure}})


identifiers = st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=4)
finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
policies = st.builds(
    ExecutionPolicy,
    mode=st.sampled_from(list(ExecutionMode)),
    workers=st.none() | st.integers(min_value=1, max_value=64),
)
requests = (
    st.builds(
        SearchRequest,
        measure=st.sampled_from(MEASURES),
        queries=st.none() | identifiers,
        k=st.integers(min_value=1, max_value=10**6),
        candidates=st.none() | st.lists(st.text(max_size=6), max_size=4),
        policy=policies,
    )
    | st.builds(
        PairwiseRequest,
        measure=st.sampled_from(MEASURES),
        workflows=st.none() | identifiers,
        policy=policies,
    )
    | st.builds(
        ClusterRequest,
        measure=st.sampled_from(MEASURES),
        threshold=finite,
        linkage=st.sampled_from(["single", "average"]),
        workflows=st.none() | identifiers,
        policy=policies,
    )
)


class TestValidRequestsRoundTrip:
    @seed(FUZZ_SEED)
    @FUZZ
    @given(request=requests)
    def test_from_dict_of_to_dict_is_identity(self, request):
        assert type(request).from_dict(request.to_dict()) == request
        assert request_from_dict(request.to_dict()) == request
        assert type(request).from_json(request.to_json()) == request
        assert request_from_dict(json.loads(json.dumps(request.to_dict()))) == request
        assert ExecutionPolicy.from_dict(request.policy.to_dict()) == request.policy
