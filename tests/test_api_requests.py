"""Request objects: validation, fluent builder, JSON round-trips."""

from __future__ import annotations

import pytest

from repro.api import (
    ClusterRequest,
    ExecutionMode,
    ExecutionPolicy,
    MeasureSpec,
    PairwiseRequest,
    SearchRequest,
    request_from_dict,
)


class TestMeasureSpec:
    def test_accepts_paper_names(self):
        for name in ("MS_ip_te_pll", "BW", "GE_np_ta_plm_nonorm", "MS_np_ta_pw3_greedy"):
            assert MeasureSpec(name).name == name

    def test_accepts_ensembles(self):
        spec = MeasureSpec("BW+MS_ip_te_pll")
        assert spec.is_ensemble

    def test_ensemble_constructor(self):
        spec = MeasureSpec.ensemble("BW", MeasureSpec("MS_ip_te_pll"))
        assert spec.name == "BW+MS_ip_te_pll"
        with pytest.raises(ValueError):
            MeasureSpec.ensemble("BW")

    @pytest.mark.parametrize(
        "bad",
        ["", "XX_ip_te_pll", "MS_xx_te_pll", "MS_ip_xx_pll", "MS_ip_te_xxx",
         "MS_ip_te", "MS_ip_te_pll_bogus", "BW+XX_ip_te_pll"],
    )
    def test_rejects_malformed_names(self, bad):
        with pytest.raises(ValueError):
            MeasureSpec(bad)

    def test_of_coerces_strings(self):
        assert MeasureSpec.of("BW") == MeasureSpec("BW")
        spec = MeasureSpec("BT")
        assert MeasureSpec.of(spec) is spec

    def test_round_trip(self):
        spec = MeasureSpec("MS_ip_te_pll")
        assert MeasureSpec.from_dict(spec.to_dict()) == spec


class TestMeasureBuilder:
    def test_paper_best_configuration(self):
        spec = (
            MeasureSpec.build()
            .module_sets()
            .importance_projection()
            .type_equivalence()
            .label_levenshtein()
            .spec()
        )
        assert spec.name == "MS_ip_te_pll"

    def test_defaults_are_baseline(self):
        assert MeasureSpec.build().spec().name == "MS_np_ta_pw0"

    def test_mapping_and_normalization_suffixes(self):
        spec = (
            MeasureSpec.build()
            .graph_edit()
            .all_pairs()
            .label_match()
            .greedy_mapping()
            .unnormalized()
            .spec()
        )
        assert spec.name == "GE_np_ta_plm_greedy_nonorm"

    def test_tuned_weights_and_strict_types(self):
        spec = (
            MeasureSpec.build()
            .path_sets()
            .strict_type_match()
            .weighted_attributes(tuned=True)
            .spec()
        )
        assert spec.name == "PS_np_tm_pw3"

    def test_builder_output_is_creatable(self):
        from repro.core.registry import create_measure

        spec = MeasureSpec.build().module_sets().type_equivalence().label_levenshtein().spec()
        assert create_measure(spec.name).name == spec.name


class TestExecutionPolicy:
    def test_mode_coercion_from_string(self):
        assert ExecutionPolicy(mode="sequential").mode is ExecutionMode.SEQUENTIAL
        assert [mode.value for mode in ExecutionMode] == ["auto", "sequential"]

    def test_constructors(self):
        assert ExecutionPolicy.sequential().mode is ExecutionMode.SEQUENTIAL
        pooled = ExecutionPolicy.auto(workers=4)
        assert (pooled.mode, pooled.workers) == (ExecutionMode.AUTO, 4)
        assert ExecutionPolicy.auto() == ExecutionPolicy()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=0)
        # "parallel" went the way of "pruned": auto(workers=n) reaches the pool.
        for mode in ("warp-speed", "pruned", "parallel"):
            with pytest.raises(ValueError, match="is not a valid ExecutionMode"):
                ExecutionPolicy(mode=mode)
            with pytest.raises(ValueError, match="is not a valid ExecutionMode"):
                ExecutionPolicy.from_dict({"mode": mode})

    def test_round_trip(self):
        policy = ExecutionPolicy.auto(workers=3)
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy
        assert policy.to_dict() == {"mode": "auto", "workers": 3}
        # Clients that still send a retired knob keep working.
        retired = ExecutionPolicy.from_dict({"workers": 3, "preselect": False})
        assert retired == ExecutionPolicy(workers=3)
        assert ExecutionPolicy.from_dict({"workers": 3, "prune": False}) == ExecutionPolicy(workers=3)

    def test_retired_store_knobs_load_and_are_ignored(self):
        """``cache_dir`` and the retry knobs belong to the service's
        store now; a payload that still sends them, well-formed or not,
        decodes to the policy without them."""
        for retired in (
            {"cache_dir": "/elsewhere", "retry_attempts": 7, "retry_base_delay": 0.011,
             "retry_max_delay": 0.13},
            {"cache_dir": 3, "retry_attempts": float("-inf"), "retry_base_delay": 10**400,
             "retry_max_delay": float("nan")},
        ):
            assert ExecutionPolicy.from_dict({"workers": 3, **retired}) == ExecutionPolicy(workers=3)
            request = SearchRequest.from_dict({"measure": {"name": "BW"}, "policy": retired})
            assert request.policy == ExecutionPolicy()


class TestRequestRoundTrips:
    def test_search_request(self):
        request = SearchRequest(
            measure="MS_ip_te_pll",
            queries=["wf-1", "wf-2"],
            k=5,
            candidates=["wf-3"],
            policy=ExecutionPolicy.auto(workers=3),
        )
        assert SearchRequest.from_json(request.to_json()) == request
        assert request.measure == MeasureSpec("MS_ip_te_pll")
        assert request.queries == ("wf-1", "wf-2")

    def test_search_request_defaults(self):
        request = SearchRequest.from_json(SearchRequest(measure="BW").to_json())
        assert request.queries is None
        assert request.k == 10
        assert request.policy.mode is ExecutionMode.AUTO

    def test_search_request_validation(self):
        with pytest.raises(ValueError):
            SearchRequest(measure="BW", k=0)
        with pytest.raises(ValueError):
            SearchRequest(measure="BW", queries=[])

    def test_pairwise_request(self):
        request = PairwiseRequest(measure="BW+MS_ip_te_pll", workflows=["a", "b"])
        assert PairwiseRequest.from_json(request.to_json()) == request

    def test_cluster_request(self):
        request = ClusterRequest(
            measure="MS_ip_te_pll", threshold=0.6, linkage="average", workflows=["a", "b", "c"]
        )
        assert ClusterRequest.from_json(request.to_json()) == request

    def test_cluster_request_validation(self):
        with pytest.raises(ValueError):
            ClusterRequest(measure="BW", linkage="complete")
        with pytest.raises(ValueError):
            ClusterRequest(measure="BW", threshold=-0.1)
        # Unnormalized measures score above 1; such thresholds are valid.
        assert ClusterRequest(measure="MS_ip_te_pll_nonorm", threshold=2.0).threshold == 2.0

    def test_request_from_dict_dispatches_on_kind(self):
        search = SearchRequest(measure="BW", k=3)
        cluster = ClusterRequest(measure="BW", threshold=0.5)
        assert request_from_dict(search.to_dict()) == search
        assert request_from_dict(cluster.to_dict()) == cluster
        with pytest.raises(ValueError):
            request_from_dict({"kind": "teleport"})


class TestMalformedFields:
    """Payload fields of the wrong JSON shape are a ``ValueError`` (an HTTP
    400), never an ``AttributeError``, an iterated string or a NaN that
    decodes into a meaningless request."""

    @pytest.mark.parametrize("policy", [None, "sequential", ["auto"], 3])
    def test_policy_must_be_an_object(self, policy):
        with pytest.raises(ValueError, match="policy must be a JSON object"):
            ExecutionPolicy.from_dict(policy)
        for request_class in (SearchRequest, PairwiseRequest, ClusterRequest):
            with pytest.raises(ValueError, match="policy must be a JSON object"):
                request_class.from_dict({"measure": {"name": "BW"}, "policy": policy})

    @pytest.mark.parametrize("value", ["1000", b"1000", {"1000": True}])
    @pytest.mark.parametrize(
        "request_class, field",
        [
            (SearchRequest, "queries"),
            (SearchRequest, "candidates"),
            (PairwiseRequest, "workflows"),
            (ClusterRequest, "workflows"),
        ],
    )
    def test_identifier_lists_reject_strings_and_objects(self, request_class, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a list of workflow identifiers"):
            request_class.from_dict({"measure": {"name": "BW"}, field: value})
        with pytest.raises(ValueError, match=f"{field} must be a list of workflow identifiers"):
            request_class(measure="BW", **{field: value})
        # Any other iterable of identifiers is still accepted.
        accepted = request_class(measure="BW", **{field: iter(["1000", "1001"])})
        assert getattr(accepted, field) == ("1000", "1001")

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), "NaN", "Infinity"])
    def test_cluster_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            ClusterRequest.from_dict({"measure": {"name": "BW"}, "threshold": threshold})
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            ClusterRequest(measure="BW", threshold=float(threshold))

    def test_out_of_range_numbers_are_value_errors(self):
        body = {"measure": {"name": "BW"}}
        for payload in (
            {**body, "k": float("inf")},
            {**body, "k": float("nan")},
            {**body, "policy": {"workers": float("inf")}},
            {**body, "policy": {"workers": float("nan")}},
        ):
            with pytest.raises(ValueError):
                SearchRequest.from_dict(payload)
        with pytest.raises(ValueError):
            ClusterRequest.from_dict({**body, "threshold": 10**400})

    @pytest.mark.parametrize("body", [None, "search", ["search"], 7])
    def test_body_must_be_an_object(self, body):
        with pytest.raises(ValueError, match="request must be a JSON object"):
            request_from_dict(body)
        for request_class in (SearchRequest, PairwiseRequest, ClusterRequest):
            with pytest.raises(ValueError, match="request must be a JSON object"):
                request_class.from_dict(body)
        with pytest.raises(ValueError, match="measure must be a JSON object"):
            SearchRequest.from_dict({"measure": "BW"})


class TestDiagnosticsRoundTrip:
    """The serving layer ships diagnostics over the wire and back; every
    serve-relevant field must survive ``from_dict(to_dict())`` — and a
    full JSON encode/decode — exactly."""

    def full_diagnostics(self):
        from repro.api import ExecutionDiagnostics

        return ExecutionDiagnostics(
            path="pruned",
            requested_mode="auto",
            seconds=0.0421,
            workers=4,
            prune={
                "evaluated": 12,
                "skipped": 88,
                "pruned_by_bound": {"size": 60, "overlap": 28},
            },
            caches=[{"name": "pair_scores", "hits": 17, "misses": 3}],
            index_candidates=40,
            cache_warm_hits=9,
            degraded=True,
            degradation_reason="store quarantined: checksum mismatch",
            retry_attempts=3,
            notes=("fell back from parallel", "micro-batched: folded 4 requests"),
        )

    def test_diagnostics_round_trip_is_field_exact(self):
        import dataclasses
        import json

        from repro.api import ExecutionDiagnostics

        original = self.full_diagnostics()
        decoded = ExecutionDiagnostics.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        for field in dataclasses.fields(ExecutionDiagnostics):
            assert getattr(decoded, field.name) == getattr(original, field.name), field.name
        # The nested per-bound prune counters come back as ints, not the
        # strings/floats a lenient JSON layer might leave behind.
        assert decoded.prune["pruned_by_bound"] == {"size": 60, "overlap": 28}
        assert all(
            isinstance(value, int) for value in decoded.prune["pruned_by_bound"].values()
        )

    def test_diagnostics_defaults_round_trip(self):
        from repro.api import ExecutionDiagnostics

        original = ExecutionDiagnostics(path="sequential", requested_mode="sequential")
        decoded = ExecutionDiagnostics.from_dict(original.to_dict())
        # Payloads that still carry the retired "invalidations" key load.
        assert ExecutionDiagnostics.from_dict({**original.to_dict(), "invalidations": None}) == decoded
        assert decoded.prune is None
        assert decoded.degraded is False
        assert decoded.degradation_reason is None
        assert decoded.retry_attempts == 0
        assert decoded.notes == ()

    def test_result_set_round_trips_diagnostics_through_json(self):
        from repro.api import ResultSet
        from repro.api.results import QueryResult, SearchHit

        result = ResultSet(
            kind="search",
            queries=(
                QueryResult(
                    query_id="wf-1",
                    measure="MS_ip_te_pll",
                    hits=(SearchHit("wf-2", 0.875, 1), SearchHit("wf-3", 0.5, 2)),
                ),
            ),
            diagnostics=self.full_diagnostics(),
        )
        decoded = ResultSet.from_json(result.to_json())
        assert decoded == result  # payload equality
        assert decoded.diagnostics.to_dict() == result.diagnostics.to_dict()
        assert decoded.diagnostics.degraded is True
        assert decoded.diagnostics.degradation_reason == (
            "store quarantined: checksum mismatch"
        )
        assert decoded.diagnostics.retry_attempts == 3
        assert decoded.diagnostics.prune["pruned_by_bound"] == {"size": 60, "overlap": 28}
