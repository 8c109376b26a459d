"""Timing harness for the repository-scale batch similarity engine.

Both paths run through the public :class:`repro.api.SimilarityService`
facade: the reference ("seed") path is a ``SearchRequest`` under
``ExecutionPolicy.sequential()`` (the per-query reference scan), the
fast path is the same request under the default ``auto`` policy (the
service routes to the pruned/cached batch, or the process pool when
``--workers`` grants one).  The harness verifies that both return
*identical* ``ResultSet`` payloads — the facade's core contract — and
writes the measurements (including the diagnostics the service attaches
to every response) to ``BENCH_search.json`` at the repository root so
the perf trajectory is tracked from PR to PR.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_search.py
    REPRO_BENCH_SCALE=small python benchmarks/bench_perf_search.py --queries 8

The corpus size follows ``REPRO_BENCH_SCALE`` (``small`` = 400
workflows, ``full`` = the paper's 1483).  Exit status is non-zero if the
fast path ever disagrees with the reference path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_ROOT / "src"))

from bench_config import SCALE, describe_scale  # noqa: E402

from repro.api import (  # noqa: E402
    ExecutionPolicy,
    PairwiseRequest,
    SearchRequest,
    SimilarityService,
)
from repro.core.framework import SimilarityFramework  # noqa: E402
from repro.corpus.generator import CorpusSpec, generate_myexperiment_corpus  # noqa: E402
from repro.text.levenshtein import levenshtein_similarity  # noqa: E402


def _result_digest(result_set) -> str:
    """A stable fingerprint of the full ranked payload (ids, scores,
    ranks) for cross-process identity checks."""
    return hashlib.sha256(repr(result_set.result_tuples()).encode("utf-8")).hexdigest()


def run_benchmark(args: argparse.Namespace) -> dict:
    workflow_count = SCALE["workflows"]
    corpus = generate_myexperiment_corpus(
        CorpusSpec(workflow_count=workflow_count, seed=args.seed)
    )
    repository = corpus.repository
    query_ids = repository.identifiers()[: args.queries]
    print(describe_scale())
    print(
        f"top-k search benchmark: {len(query_ids)} queries over "
        f"{len(repository)} workflows, k={args.k}, measure={args.measure}"
    )

    # -- reference path (per-query sequential scan, cold caches) ------------
    levenshtein_similarity.cache_clear()
    seed_service = SimilarityService(repository, framework=SimilarityFramework())
    seed_request = SearchRequest(
        measure=args.measure,
        queries=query_ids,
        k=args.k,
        policy=ExecutionPolicy.sequential(),
    )
    seed_set = seed_service.search(seed_request)
    seed_seconds = seed_set.diagnostics.seconds
    seed_measure = seed_service.engine.framework.measure(args.measure)
    seed_comparisons = seed_measure.stats.module_pair_comparisons
    print(f"  seed path: {seed_seconds:8.2f}s  ({seed_comparisons} module comparisons)")

    # -- batch path (the service's own routing) -----------------------------
    fast_service = SimilarityService(repository, framework=SimilarityFramework())
    fast_request = SearchRequest(
        measure=args.measure,
        queries=query_ids,
        k=args.k,
        policy=ExecutionPolicy.auto(workers=args.workers),
    )
    fast_set = fast_service.search(fast_request)
    fast_seconds = fast_set.diagnostics.seconds
    prune_stats = fast_set.diagnostics.prune or {}
    cache_stats = fast_set.diagnostics.caches
    print(
        f"  fast path: {fast_seconds:8.2f}s  "
        f"({fast_set.diagnostics.path} path, prune: {prune_stats})"
    )

    # -- steady state: a second batch against warm caches -------------------
    fast_warm_seconds = fast_service.search(fast_request).diagnostics.seconds
    print(f"  fast path (warm caches): {fast_warm_seconds:8.2f}s")

    # ResultSet equality covers the full payload (hits, scores, ranks)
    # and ignores diagnostics — exactly the facade's equivalence contract.
    identical = seed_set == fast_set
    speedup = seed_seconds / fast_seconds if fast_seconds else float("inf")
    print(f"  speedup: {speedup:.1f}x  identical results: {identical}")

    # -- warm start: persist, "restart", reopen from disk --------------------
    # The fast service's caches (plus snapshot and postings) go to
    # a store directory; a brand-new service opened over that directory
    # stands in for a restarted process.  Cold = the first fast run
    # above (empty caches); warm = the same request served from the
    # persisted scores.
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    try:
        persist_started = time.perf_counter()
        fast_service.attach_cache_dir(cache_dir)
        fast_service.build_index()
        persist_summary = fast_service.persist()
        persist_seconds = time.perf_counter() - persist_started
        fast_service.close()

        open_started = time.perf_counter()
        warm_service = SimilarityService.open(
            cache_dir=cache_dir, framework=SimilarityFramework()
        )
        warm_open_seconds = time.perf_counter() - open_started
        warm_set = warm_service.search(fast_request)
        warm_seconds = warm_set.diagnostics.seconds
        warm_identical = warm_set == seed_set
        warm_speedup = fast_seconds / warm_seconds if warm_seconds else float("inf")
        print(
            f"  warm start: persist {persist_seconds:.2f}s "
            f"({persist_summary['pair_scores']} pair scores), reopen "
            f"{warm_open_seconds:.2f}s, search {warm_seconds:.2f}s "
            f"(cold {fast_seconds:.2f}s, {warm_speedup:.1f}x, "
            f"{warm_set.diagnostics.cache_warm_hits} warm hits, "
            f"identical: {warm_identical})"
        )

        # Annotation preselection over the persisted postings.
        bw_request = SearchRequest(measure="BW", queries=query_ids, k=args.k)
        bw_indexed_set = warm_service.search(bw_request)
        bw_sequential_set = warm_service.search(
            SearchRequest(
                measure="BW",
                queries=query_ids,
                k=args.k,
                policy=ExecutionPolicy.sequential(),
            )
        )
        bw_identical = bw_indexed_set == bw_sequential_set
        print(
            f"  indexed BW: {bw_indexed_set.diagnostics.seconds:.2f}s "
            f"({bw_indexed_set.diagnostics.path} path, "
            f"{bw_indexed_set.diagnostics.index_candidates} candidates over "
            f"{len(query_ids)} queries x {len(repository)} workflows, "
            f"identical: {bw_identical})"
        )
        # Resilience: corrupt the persisted store out-of-band, then time
        # the full degraded request — open detects the bad checksum,
        # quarantines the file, rebuilds from the salvaged snapshot, and
        # still serves the query bit-identically.  This is the price of
        # a quarantine-and-rebuild, paid once, on the unlucky request.
        warm_service.close()
        import sqlite3

        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        connection.execute(
            "UPDATE pair_scores SET score = score + 0.25 "
            "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)"
        )
        connection.commit()
        connection.close()
        degraded_started = time.perf_counter()
        degraded_service = SimilarityService.open(
            cache_dir=cache_dir, framework=SimilarityFramework()
        )
        degraded_set = degraded_service.search(fast_request)
        degraded_seconds = time.perf_counter() - degraded_started
        degraded_identical = degraded_set == seed_set
        degraded_flagged = bool(degraded_set.diagnostics.degraded)
        degraded_service.close()
        print(
            f"  degraded search (quarantine + rebuild): {degraded_seconds:.2f}s "
            f"(flagged: {degraded_flagged}, identical: {degraded_identical})"
        )
        warm_report = {
            "persist_seconds": persist_seconds,
            "persisted_pair_scores": persist_summary["pair_scores"],
            "persisted_postings": persist_summary["postings"],
            "open_seconds": warm_open_seconds,
            "cold_seconds": fast_seconds,
            "warm_seconds": warm_seconds,
            "speedup": warm_speedup,
            "cache_warm_hits": warm_set.diagnostics.cache_warm_hits,
            "identical": warm_identical,
            "indexed_bw": {
                "seconds": bw_indexed_set.diagnostics.seconds,
                "path": bw_indexed_set.diagnostics.path,
                "index_candidates": bw_indexed_set.diagnostics.index_candidates,
                "scanned_pairs": len(query_ids) * len(repository),
                "identical": bw_identical,
            },
            "degraded_search_ms": degraded_seconds * 1000.0,
            "degraded_identical": degraded_identical,
            "degraded_flagged": degraded_flagged,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # -- all-pairs (clustering) section -------------------------------------
    pairwise_ids = repository.identifiers()[: args.pairwise_workflows]
    levenshtein_similarity.cache_clear()
    pairwise_seed_set = seed_service.pairwise(
        PairwiseRequest(
            measure=args.measure,
            workflows=pairwise_ids,
            policy=ExecutionPolicy.sequential(),
        )
    )
    pairwise_seed_seconds = pairwise_seed_set.diagnostics.seconds
    pairwise_fast_set = fast_service.pairwise(
        PairwiseRequest(measure=args.measure, workflows=pairwise_ids)
    )
    pairwise_fast_seconds = pairwise_fast_set.diagnostics.seconds
    pairwise_identical = pairwise_seed_set == pairwise_fast_set
    pairwise_speedup = (
        pairwise_seed_seconds / pairwise_fast_seconds if pairwise_fast_seconds else float("inf")
    )
    print(
        f"  all-pairs ({len(pairwise_ids)} workflows, {len(pairwise_seed_set.pairs)} pairs): "
        f"seed {pairwise_seed_seconds:.2f}s, fast {pairwise_fast_seconds:.2f}s "
        f"({pairwise_speedup:.1f}x, identical: {pairwise_identical})"
    )

    # -- certified-bounds section --------------------------------------------
    # Two routes of the unified CertifiedBound layer: pruned PS
    # (path-matching bound) and a composed ensemble bound.  Each is
    # timed against the sequential reference and must stay bit-identical.
    bounds_report = {}
    for bench_measure, bench_label in (
        ("PS_ip_te_pll", "pruned_ps"),
        ("BW+MS_ip_te_pll", "ensemble"),
    ):
        levenshtein_similarity.cache_clear()
        reference_service = SimilarityService(repository, framework=SimilarityFramework())
        reference_set = reference_service.search(
            SearchRequest(
                measure=bench_measure,
                queries=query_ids,
                k=args.k,
                policy=ExecutionPolicy.sequential(),
            )
        )
        levenshtein_similarity.cache_clear()
        bound_service = SimilarityService(repository, framework=SimilarityFramework())
        bound_set = bound_service.search(
            SearchRequest(measure=bench_measure, queries=query_ids, k=args.k)
        )
        bound_seconds = bound_set.diagnostics.seconds
        bound_identical = bound_set == reference_set
        bound_speedup = (
            reference_set.diagnostics.seconds / bound_seconds
            if bound_seconds
            else float("inf")
        )
        bounds_report[bench_label] = {
            "measure": bench_measure,
            "seed_seconds": reference_set.diagnostics.seconds,
            "fast_seconds": bound_seconds,
            "speedup": bound_speedup,
            "identical": bound_identical,
            "path": bound_set.diagnostics.path,
            "prune": bound_set.diagnostics.prune,
            "index_candidates": bound_set.diagnostics.index_candidates,
        }
        print(
            f"  bounds/{bench_label} ({bench_measure}): "
            f"seed {reference_set.diagnostics.seconds:.2f}s, fast {bound_seconds:.2f}s "
            f"({bound_speedup:.1f}x, {bound_set.diagnostics.path} path, "
            f"identical: {bound_identical})"
        )

    # -- sql-pushdown section ------------------------------------------------
    # A service reopened over an indexed store answers BW admission in
    # SQL from the persisted postings; MS has no admission and runs the
    # frontier-pruned scan.  Both must match the sequential reference.
    sql_dir = Path(tempfile.mkdtemp(prefix="repro-bench-sqltier-"))
    try:
        setup_service = SimilarityService(repository, framework=SimilarityFramework())
        setup_service.attach_cache_dir(sql_dir)
        setup_service.build_index()
        setup_service.close()

        bw_reference = SimilarityService(
            repository, framework=SimilarityFramework()
        ).search(
            SearchRequest(
                measure="BW",
                queries=query_ids,
                k=args.k,
                policy=ExecutionPolicy.sequential(),
            )
        )
        references = {"BW": bw_reference, args.measure: seed_set}
        expected_paths = {"BW": "sql-indexed", args.measure: "pruned"}
        sql_service = SimilarityService.open(
            cache_dir=sql_dir, framework=SimilarityFramework()
        )
        measures = {}
        for measure, reference in references.items():
            result = sql_service.search(
                SearchRequest(measure=measure, queries=query_ids, k=args.k)
            )
            digest = _result_digest(result)
            measures[measure] = {
                "path": result.diagnostics.path,
                "index_candidates": result.diagnostics.index_candidates,
                "seconds": result.diagnostics.seconds,
                "digest": digest,
                "identical": digest == _result_digest(reference),
            }
        sql_service.close()
        sql_pushdown = {
            "queries": len(query_ids),
            "measures": measures,
            "identical": all(section["identical"] for section in measures.values()),
            "paths_ok": all(
                section["path"] == expected_paths[measure]
                for measure, section in measures.items()
            ),
        }
        print(
            "  sql pushdown: "
            + ", ".join(
                f"{measure} {section['path']} ({section['index_candidates']} candidates)"
                for measure, section in measures.items()
            )
            + f", identical: {sql_pushdown['identical']}, paths ok: {sql_pushdown['paths_ok']}"
        )
    finally:
        shutil.rmtree(sql_dir, ignore_errors=True)

    return {
        "benchmark": "bench_perf_search",
        "scale": describe_scale(),
        "workflows": len(repository),
        "queries": len(query_ids),
        "k": args.k,
        "measure": args.measure,
        "workers": args.workers,
        "search": {
            "seed_seconds": seed_seconds,
            "fast_seconds": fast_seconds,
            "fast_warm_seconds": fast_warm_seconds,
            "speedup": speedup,
            "identical": identical,
            "path": fast_set.diagnostics.path,
            "seed_module_comparisons": seed_comparisons,
            "prune": prune_stats,
            "caches": cache_stats,
        },
        "pairwise": {
            "workflows": len(pairwise_ids),
            "pairs": len(pairwise_seed_set.pairs),
            "seed_seconds": pairwise_seed_seconds,
            "fast_seconds": pairwise_fast_seconds,
            "speedup": pairwise_speedup,
            "identical": pairwise_identical,
            "path": pairwise_fast_set.diagnostics.path,
        },
        "warm_start": warm_report,
        "bounds": bounds_report,
        "sql_pushdown": sql_pushdown,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=32, help="number of query workflows")
    parser.add_argument("-k", type=int, default=SCALE["top_k"])
    parser.add_argument("--measure", default="MS_ip_te_pll")
    parser.add_argument("--seed", type=int, default=20140901, help="corpus generator seed")
    parser.add_argument(
        "--workers", type=int, default=None, help="process pool size for the fast path"
    )
    parser.add_argument(
        "--pairwise-workflows",
        type=int,
        default=48,
        help="pool size of the all-pairs (clustering) section",
    )
    parser.add_argument(
        "--output",
        default=str(_ROOT / "BENCH_search.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="exit non-zero if the search speedup falls below this factor",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not report["search"]["identical"] or not report["pairwise"]["identical"]:
        print("FAIL: fast path results differ from the reference path", file=sys.stderr)
        return 2
    warm_start = report["warm_start"]
    if not warm_start["identical"] or not warm_start["indexed_bw"]["identical"]:
        print(
            "FAIL: warm-started/indexed results differ from the reference path",
            file=sys.stderr,
        )
        return 2
    if warm_start["cache_warm_hits"] <= 0:
        print("FAIL: warm-started service served no hits from the store", file=sys.stderr)
        return 2
    if not warm_start["degraded_identical"] or not warm_start["degraded_flagged"]:
        print(
            "FAIL: quarantine-and-rebuild search was not bit-identical "
            "or not flagged degraded",
            file=sys.stderr,
        )
        return 2
    for bench_label, section in report["bounds"].items():
        if not section["identical"]:
            print(
                f"FAIL: bounds/{bench_label} ({section['measure']}) differs "
                "from the reference path",
                file=sys.stderr,
            )
            return 2
    sql_pushdown = report["sql_pushdown"]
    if not sql_pushdown["identical"] or not sql_pushdown["paths_ok"]:
        print(
            "FAIL: sql-pushdown admission differs from the reference path "
            "or ran off its expected tier",
            file=sys.stderr,
        )
        return 2
    if args.min_speedup and report["search"]["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {report['search']['speedup']:.1f}x below "
            f"required {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
