"""Load benchmark for the async multi-tenant serving layer.

Starts a real :class:`repro.serve.SimilarityServer` on an ephemeral port
and drives it with an asyncio load generator at increasing client
concurrency (default 1, 4 and 16 concurrent keep-alive connections).
For every level it reports QPS, p50/p99 end-to-end latency and the
micro-batch fold factor (requests folded per engine batch, read from the
server's own ``/v1/{tenant}/stats`` deltas), and writes everything to
``BENCH_serve.json`` at the repository root.

The benchmark doubles as the serving layer's equivalence gate: every
response is compared against the per-query *sequential* reference
computed on a direct :class:`~repro.api.SimilarityService` before the
server starts.  Any mismatch — one request folded into a cross-request
batch answering differently than the same request alone — fails the run
(exit 1), as does a fold factor that never rises above 1 at the highest
concurrency (the micro-batcher would be dead weight).

A final section times an identical serial workload with tracing enabled
(``trace_sample=1.0``) and disabled (``trace_sample=0.0``): the report's
``obs`` block records ``enabled_ms`` / ``disabled_ms`` (min of
``--obs-repeats`` passes each) and the run fails if tracing costs more
than 5% or changes any response byte.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \\
        --root /tmp/serve-root --requests 24 --concurrency 1,4,16

Without ``--root`` a temporary single-tenant root is generated; with it
(CI smoke) the pre-built tenants under the given serving root are used
as-is and the first discovered tenant takes the load.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
sys.path.insert(0, str(_ROOT / "src"))

from repro.api import (  # noqa: E402
    ExecutionPolicy,
    ResultSet,
    SearchRequest,
    SimilarityService,
)
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus  # noqa: E402
from repro.serve import ServeClient, ServeConfig, SimilarityServer  # noqa: E402
from repro.store import discover_tenants  # noqa: E402

DEFAULT_MEASURE = "MS_ip_te_pll"


def build_tenant_root(workflows: int, seed: int, measure: str) -> Path:
    """Generate a throwaway serving root with one persisted tenant."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
    corpus = generate_myexperiment_corpus(
        CorpusSpec(workflow_count=workflows, seed=seed)
    )
    service = SimilarityService(corpus.repository)
    service.attach_cache_dir(root / "bench")
    service.build_index()
    # Warm the pair-score cache so the served load measures serving
    # overhead and batching, not first-touch similarity computation.
    query_ids = corpus.repository.identifiers()
    service.search(SearchRequest(measure=measure, queries=query_ids, k=10))
    service.persist()
    service.close()
    return root


def sequential_reference(
    tenant_dir: Path, query_ids: "list[str]", measure: str, k: int
) -> "dict[str, list[tuple[str, float, int]]]":
    """Per-query ground truth from the sequential seed path, one query
    at a time — exactly what a non-batched, non-accelerated server would
    answer."""
    service = SimilarityService.open(cache_dir=tenant_dir)
    reference = {}
    for query_id in query_ids:
        result = service.search(
            SearchRequest(
                measure=measure,
                queries=[query_id],
                k=k,
                policy=ExecutionPolicy.sequential(),
            )
        )
        reference[query_id] = result.result_tuples()[0]
    service.close()
    return reference


async def run_level(
    server: SimilarityServer,
    tenant: str,
    query_ids: "list[str]",
    reference: "dict[str, list[tuple[str, float, int]]]",
    *,
    concurrency: int,
    requests: int,
    measure: str,
    k: int,
) -> dict:
    """Drive ``requests`` searches through ``concurrency`` keep-alive
    clients and report latency, throughput, fold factor and mismatches."""
    metrics = server.metrics.tenant(tenant)
    batches_before = metrics.batches
    folded_before = metrics.folded_requests

    queue: "asyncio.Queue[str]" = asyncio.Queue()
    for index in range(requests):
        queue.put_nowait(query_ids[index % len(query_ids)])

    latencies: "list[float]" = []
    mismatches: "list[str]" = []
    errors: "list[str]" = []

    async def worker() -> None:
        client = ServeClient("127.0.0.1", server.port)
        try:
            while True:
                try:
                    query_id = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                payload = {
                    "measure": {"name": measure},
                    "queries": [query_id],
                    "k": k,
                }
                started = time.perf_counter()
                status, _headers, body = await client.post(
                    f"/v1/{tenant}/search", payload
                )
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    errors.append(f"{query_id}: HTTP {status}: {body}")
                    continue
                answered = ResultSet.from_dict(body).result_tuples()[0]
                if answered != reference[query_id]:
                    mismatches.append(query_id)
        finally:
            await client.close()

    wall_started = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    wall_seconds = time.perf_counter() - wall_started

    batches = metrics.batches - batches_before
    folded = metrics.folded_requests - folded_before
    ordered = sorted(latencies)

    def pct(fraction: float) -> float:
        import math

        rank = max(1, math.ceil(fraction * len(ordered)))
        return ordered[rank - 1] * 1000.0

    return {
        "concurrency": concurrency,
        "requests": requests,
        "wall_seconds": round(wall_seconds, 4),
        "qps": round(requests / wall_seconds, 2) if wall_seconds else None,
        "latency_ms": {
            "p50": round(pct(0.50), 3),
            "p99": round(pct(0.99), 3),
            "mean": round(sum(ordered) / len(ordered) * 1000.0, 3),
        },
        "batches": batches,
        "folded_requests": folded,
        "fold_factor": round(folded / batches, 3) if batches else None,
        "mismatches": mismatches,
        "errors": errors,
    }


async def measure_obs_overhead(
    root: Path,
    tenant: str,
    query_ids: "list[str]",
    reference: "dict[str, list[tuple[str, float, int]]]",
    args: argparse.Namespace,
) -> dict:
    """Time an identical serial workload with tracing on and off.

    Each mode gets its own server (the tracer is process-global while a
    server runs, so the modes cannot share a process concurrently): one
    warm-up pass that also checks every response against the sequential
    reference, then ``--obs-repeats`` timed passes with the *minimum*
    wall time kept — min-of-repeats is the standard defence against
    scheduler noise when the gate is a few percent.
    """
    timings: "dict[str, float]" = {}
    mismatches: "list[str]" = []
    for mode, sample in (("enabled", 1.0), ("disabled", 0.0)):
        config = ServeConfig(
            root=str(root),
            port=0,
            max_inflight=64,
            trace_sample=sample,
        )
        server = SimilarityServer(config)
        await server.start()
        try:
            client = ServeClient("127.0.0.1", server.port)
            try:

                async def one_pass(check: bool) -> float:
                    started = time.perf_counter()
                    for index in range(args.obs_requests):
                        query_id = query_ids[index % len(query_ids)]
                        payload = {
                            "measure": {"name": args.measure},
                            "queries": [query_id],
                            "k": args.k,
                        }
                        status, _headers, body = await client.post(
                            f"/v1/{tenant}/search", payload
                        )
                        if status != 200:
                            mismatches.append(f"{mode}:{query_id}: HTTP {status}")
                        elif check:
                            answered = ResultSet.from_dict(body).result_tuples()[0]
                            if answered != reference[query_id]:
                                mismatches.append(f"{mode}:{query_id}")
                    return time.perf_counter() - started

                await one_pass(check=True)
                best = min(
                    [await one_pass(check=False) for _ in range(args.obs_repeats)]
                )
                timings[mode] = best * 1000.0
            finally:
                await client.close()
        finally:
            await server.stop()
    ratio = timings["enabled"] / timings["disabled"] if timings["disabled"] else None
    return {
        "requests_per_pass": args.obs_requests,
        "timed_repeats": args.obs_repeats,
        "enabled_ms": round(timings["enabled"], 3),
        "disabled_ms": round(timings["disabled"], 3),
        "overhead_ratio": round(ratio, 4) if ratio is not None else None,
        "mismatches": mismatches,
        "identical": not mismatches,
        "within_5_percent": ratio is not None and ratio <= 1.05,
    }


async def run_benchmark(args: argparse.Namespace) -> int:
    owns_root = args.root is None
    if owns_root:
        root = build_tenant_root(args.workflows, args.seed, args.measure)
    else:
        root = Path(args.root)
        if not root.is_dir():
            print(f"error: serving root {args.root!r} is not a directory")
            return 1
    try:
        tenants = discover_tenants(root)
        if not tenants:
            print(f"error: no tenants with persisted stores under {root}")
            return 1
        tenant = tenants[0]
        levels = [int(level) for level in args.concurrency.split(",")]

        direct = SimilarityService.open(cache_dir=root / tenant)
        query_ids = direct.repository.identifiers()[: args.queries]
        corpus_size = len(direct)
        direct.close()
        print(
            f"serve benchmark: tenant {tenant!r} ({corpus_size} workflows), "
            f"{args.requests} requests/level at concurrency {levels}, "
            f"measure={args.measure}, k={args.k}"
        )
        reference = sequential_reference(root / tenant, query_ids, args.measure, args.k)

        config = ServeConfig(
            root=str(root),
            port=0,
            max_inflight=max(max(levels), 16),
        )
        server = SimilarityServer(config)
        await server.start()
        try:
            results = []
            for concurrency in levels:
                level = await run_level(
                    server,
                    tenant,
                    query_ids,
                    reference,
                    concurrency=concurrency,
                    requests=args.requests,
                    measure=args.measure,
                    k=args.k,
                )
                results.append(level)
                print(
                    f"  c={concurrency:3d}: {level['qps']:8.1f} req/s  "
                    f"p50 {level['latency_ms']['p50']:7.1f}ms  "
                    f"p99 {level['latency_ms']['p99']:7.1f}ms  "
                    f"fold {level['fold_factor']}  "
                    f"({level['batches']} batches, "
                    f"{len(level['mismatches'])} mismatches, "
                    f"{len(level['errors'])} errors)"
                )
            snapshot = server.metrics.tenant(tenant).snapshot()
        finally:
            await server.stop()
        obs = await measure_obs_overhead(root, tenant, query_ids, reference, args)
        print(
            f"  obs: enabled {obs['enabled_ms']:.1f}ms vs disabled "
            f"{obs['disabled_ms']:.1f}ms over {obs['requests_per_pass']} requests "
            f"(ratio {obs['overhead_ratio']})"
        )
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)

    mismatched = [q for level in results for q in level["mismatches"]]
    errored = [e for level in results for e in level["errors"]]
    top = results[-1]
    fold_ok = top["fold_factor"] is not None and top["fold_factor"] > 1.0
    equivalence_ok = not mismatched and not errored
    obs_ok = obs["identical"] and obs["within_5_percent"]
    ok = equivalence_ok and (fold_ok or max(levels) <= 1) and obs_ok

    report = {
        "benchmark": "serve_load",
        "tenant": tenant,
        "workflows": corpus_size,
        "measure": args.measure,
        "k": args.k,
        "queries": len(query_ids),
        "requests_per_level": args.requests,
        "levels": results,
        "tenant_stats": snapshot,
        "equivalence": {
            "reference": "per-query sequential seed path",
            "mismatches": mismatched,
            "errors": errored,
            "identical": equivalence_ok,
        },
        "fold_factor_at_max_concurrency": top["fold_factor"],
        "obs": obs,
        "ok": ok,
    }
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    if not equivalence_ok:
        print(
            f"FAIL: {len(mismatched)} batched responses differed from the "
            f"sequential reference, {len(errored)} requests errored"
        )
        return 1
    if not fold_ok and max(levels) > 1:
        print(
            f"FAIL: fold factor {top['fold_factor']} at concurrency "
            f"{max(levels)} — concurrent requests never shared an engine batch"
        )
        return 1
    if not obs_ok:
        print(
            f"FAIL: observability overhead ratio {obs['overhead_ratio']} "
            f"exceeds 1.05 or traced responses differed "
            f"({len(obs['mismatches'])} mismatches)"
        )
        return 1
    print(
        f"OK: all {sum(level['requests'] for level in results)} responses "
        f"bit-identical to the sequential reference, "
        f"fold factor {top['fold_factor']} at concurrency {max(levels)}"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--root",
        default=None,
        help="existing serving root to benchmark (default: generate a "
        "temporary single-tenant root)",
    )
    parser.add_argument(
        "--concurrency",
        default="1,4,16",
        help="comma-separated concurrent client counts (default 1,4,16)",
    )
    parser.add_argument(
        "--requests", type=int, default=48, help="requests per concurrency level"
    )
    parser.add_argument("--queries", type=int, default=8, help="distinct query ids")
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--measure", default=DEFAULT_MEASURE)
    parser.add_argument(
        "--workflows",
        type=int,
        default=60,
        help="corpus size when generating a temporary root",
    )
    parser.add_argument("--seed", type=int, default=20140901)
    parser.add_argument(
        "--obs-requests",
        type=int,
        default=64,
        help="requests per timed pass of the tracing-overhead measurement",
    )
    parser.add_argument(
        "--obs-repeats",
        type=int,
        default=3,
        help="timed passes per tracing mode (minimum wall time is kept)",
    )
    parser.add_argument("--output", default=str(_ROOT / "BENCH_serve.json"))
    args = parser.parse_args()
    return asyncio.run(run_benchmark(args))


if __name__ == "__main__":
    sys.exit(main())
