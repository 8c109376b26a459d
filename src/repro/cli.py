"""Command-line interface for the workflow similarity toolkit.

Provides the operations a repository maintainer would script against the
library without writing Python:

* ``repro compare A B --measure MS_ip_te_pll`` — similarity of two
  workflow files (internal JSON, SCUFL-like XML or Galaxy ``.ga``);
* ``repro search CORPUS QUERY_ID --measure BW+MS_ip_te_pll -k 10`` —
  top-k similarity search over a corpus file (``--json`` emits a
  machine-readable ``ResultSet`` with execution diagnostics);
* ``repro search-batch CORPUS --measure MS_ip_te_pll -k 10 --workers 4``
  — batch top-k search for many (default: all) queries, optionally on a
  process pool;
* ``repro index build CORPUS --cache-dir DIR`` — persist the corpus
  snapshot, the inverted annotation index, and (with ``--warm-measure``)
  pre-computed module-pair scores into a warm-start store directory;
  ``repro index stats --cache-dir DIR`` inspects it;
* ``repro store verify --cache-dir DIR`` — run the store's integrity
  checks (SQLite quick_check, schema version, per-table content
  checksums, full payload decode); exit 0 when clean, 1 when corrupt,
  2 when missing.  ``repro store repair --cache-dir DIR [--corpus C]``
  quarantines a corrupted store and rebuilds it — from its own salvaged
  snapshot when possible, from ``--corpus`` otherwise;

Both search commands route through the :class:`repro.api.SimilarityService`
facade: the execution strategy (sequential / pruned / cached / indexed /
parallel) is chosen by the service's ``ExecutionPolicy`` routing, and the
path that actually ran is reported in the diagnostics.  Passing
``--cache-dir`` to a search command attaches the persistent store, so
repeated invocations warm-start from each other's scores instead of
recomputing them.
* ``repro serve --root DIR --port N`` — run the async multi-tenant HTTP
  serving layer (:mod:`repro.serve`): every subdirectory of ``DIR`` with
  a persisted store is a tenant, concurrent same-measure searches are
  micro-batched into one engine call, admission control answers 429
  beyond ``--max-inflight``.  ``repro serve --check`` binds, probes
  ``/healthz`` and exits 0/1 so CI can smoke the server.  With
  ``--trace-dir DIR`` every sampled request's span tree is exported as
  JSON; ``repro trace show FILE`` renders one as an indented tree;
* ``repro generate-corpus OUT.json --workflows 500`` — write a synthetic
  myExperiment-style (or Galaxy-style) corpus to disk;
* ``repro stats CORPUS`` — corpus statistics (size, annotations, module
  types);
* ``repro measures`` — list all available measure configurations.

Run ``python -m repro --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .api import ExecutionPolicy, SearchRequest, SimilarityService
from .core.framework import SimilarityFramework
from .obs import console
from .core.registry import all_configuration_names
from .corpus.galaxy import GalaxyCorpusSpec, generate_galaxy_corpus
from .corpus.generator import CorpusSpec, generate_myexperiment_corpus
from .repository.repository import WorkflowRepository
from .workflow.galaxy import parse_galaxy_file
from .workflow.model import Workflow
from .workflow.preprocess import prepare_workflow
from .workflow.scufl import parse_scufl_file
from .workflow.serialization import load_workflow

__all__ = ["main", "build_parser", "load_workflow_file"]


def load_workflow_file(path: str | Path) -> Workflow:
    """Load a workflow from a file, dispatching on its extension.

    ``.ga``/``.json`` with a Galaxy payload are parsed as Galaxy
    workflows, ``.xml``/``.scufl``/``.t2flow`` as the SCUFL-like dialect,
    anything else as the internal JSON format.  The paper's dataset
    preparation (sub-workflow inlining, port removal) is applied.
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ga":
        workflow = parse_galaxy_file(path)
    elif suffix in (".xml", ".scufl", ".t2flow"):
        workflow = parse_scufl_file(path)
    else:
        text = path.read_text()
        if '"a_galaxy_workflow"' in text:
            workflow = parse_galaxy_file(path)
        else:
            workflow = load_workflow(path)
    return prepare_workflow(workflow)


def _persist_search_store(service: SimilarityService) -> None:
    """Accumulate a search invocation's scores into its ``--cache-dir``.

    Persists only when safe: a fresh (empty) store is seeded, a store
    whose snapshot matches the searched corpus is extended — but a store
    built from a *different* corpus is left untouched (its warm scores
    were still used; rebuilding is ``repro index build``'s job).
    """
    store = service.store
    if store is None:
        return
    if service.store_trusted or not store.has_snapshot():
        service.persist()
    else:
        console(
            "warning: --cache-dir store was built from a different corpus; "
            "reused its scores but did not persist (run 'repro index build' "
            "to rebuild it for this corpus)",
            err=True,
        )


def _cmd_compare(args: argparse.Namespace) -> int:
    first = load_workflow_file(args.first)
    second = load_workflow_file(args.second)
    framework = SimilarityFramework(ged_timeout=args.ged_timeout)
    for name in args.measure:
        value = framework.similarity(first, second, name)
        console(f"{name}\t{value:.4f}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    service = SimilarityService.open(
        args.corpus,
        framework=SimilarityFramework(ged_timeout=args.ged_timeout),
        cache_dir=args.cache_dir,
    )
    if args.query not in service:
        console(f"error: query workflow {args.query!r} not found in corpus", err=True)
        return 2
    result_set = service.search(
        SearchRequest(measure=args.measure, queries=[args.query], k=args.top_k)
    )
    if args.cache_dir:
        # Accumulate this invocation's scores so the next one warm-starts.
        _persist_search_store(service)
    if args.json:
        console(result_set.to_json(indent=2))
        return 0
    console(f"top-{args.top_k} results for query {args.query} under {args.measure}:")
    for hit in result_set.for_query(args.query):
        title = service.repository.get(hit.workflow_id).annotations.title
        console(f"{hit.rank:>3}  {hit.workflow_id:<16} {hit.similarity:.4f}  {title}")
    return 0


def _cmd_search_batch(args: argparse.Namespace) -> int:
    import json

    service = SimilarityService.open(
        args.corpus,
        framework=SimilarityFramework(ged_timeout=args.ged_timeout),
        cache_dir=args.cache_dir,
    )
    if args.queries is not None:
        if not args.queries:
            console("error: --queries given but no identifiers listed", err=True)
            return 2
        missing = [query for query in args.queries if query not in service]
        if missing:
            console(f"error: query workflows not in corpus: {missing}", err=True)
            return 2
        queries = args.queries
    else:
        queries = None  # every repository workflow queries itself against the rest
    policy = ExecutionPolicy.auto(workers=args.workers, prune=not args.no_prune)
    result_set = service.search(
        SearchRequest(measure=args.measure, queries=queries, k=args.top_k, policy=policy)
    )
    if args.cache_dir:
        _persist_search_store(service)
    diagnostics = result_set.diagnostics
    elapsed = diagnostics.seconds if diagnostics is not None else 0.0
    if args.output:
        payload = {
            "measure": args.measure,
            "k": args.top_k,
            "seconds": elapsed,
            "results": {
                result.query_id: [hit.to_dict() for hit in result]
                for result in result_set
            },
            "diagnostics": diagnostics.to_dict() if diagnostics is not None else None,
        }
        Path(args.output).write_text(json.dumps(payload, indent=2))
        console(f"wrote {len(result_set)} result lists to {args.output} ({elapsed:.2f}s)")
    else:
        for result in result_set:
            hits = ", ".join(f"{hit.workflow_id}:{hit.similarity:.3f}" for hit in result)
            console(f"{result.query_id}\t{hits}")
        path = diagnostics.path if diagnostics is not None else "unknown"
        console(
            f"# {len(result_set)} queries under {args.measure} in {elapsed:.2f}s "
            f"({path} path)",
            err=True,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, check_server, run_server

    root = Path(args.root)
    if not root.is_dir():
        console(
            f"error: serving root {args.root!r} is not a directory; create it and "
            "build tenants with 'repro index build CORPUS --cache-dir ROOT/TENANT'",
            err=True,
        )
        return 2
    config = ServeConfig(
        root=str(root),
        host=args.host,
        port=args.port,
        max_tenants=args.max_tenants,
        max_inflight=args.max_inflight,
        persist_on_shutdown=args.persist_on_shutdown,
        trace_sample=args.trace_sample,
        trace_dir=args.trace_dir,
    )
    if args.check:
        return check_server(config)
    return run_server(config)


def _cmd_trace_show(args: argparse.Namespace) -> int:
    import json

    from .obs import render_trace

    path = Path(args.file)
    try:
        tree = json.loads(path.read_text())
    except FileNotFoundError:
        console(f"error: trace file {args.file!r} not found", err=True)
        return 2
    except json.JSONDecodeError as error:
        console(f"error: {args.file!r} is not a trace JSON file: {error}", err=True)
        return 1
    if not isinstance(tree, dict) or "spans" not in tree:
        console(
            f"error: {args.file!r} has no 'spans' key; expected a file written "
            "by 'repro serve --trace-dir'",
            err=True,
        )
        return 1
    console(render_trace(tree))
    return 0


def _cmd_generate_corpus(args: argparse.Namespace) -> int:
    if args.format == "galaxy":
        corpus = generate_galaxy_corpus(
            GalaxyCorpusSpec(workflow_count=args.workflows, seed=args.seed)
        )
    else:
        corpus = generate_myexperiment_corpus(
            CorpusSpec(workflow_count=args.workflows, seed=args.seed)
        )
    corpus.repository.save(args.output)
    stats = corpus.repository.statistics()
    console(
        f"wrote {stats.workflow_count} workflows "
        f"({stats.mean_modules_per_workflow:.1f} modules/workflow, "
        f"{stats.untagged_fraction:.0%} untagged) to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    repository = WorkflowRepository.load(args.corpus)
    stats = repository.statistics()
    console(f"corpus: {args.corpus}")
    console(f"workflows:                 {stats.workflow_count}")
    console(f"modules:                   {stats.module_count}")
    console(f"datalinks:                 {stats.datalink_count}")
    console(f"mean modules / workflow:   {stats.mean_modules_per_workflow:.2f}")
    console(f"mean datalinks / workflow: {stats.mean_datalinks_per_workflow:.2f}")
    console(f"untagged workflows:        {stats.untagged_fraction:.1%}")
    console(f"unannotated workflows:     {stats.undescribed_fraction:.1%}")
    console("module categories:")
    for category, count in sorted(stats.category_histogram.items(), key=lambda kv: -kv[1]):
        console(f"  {category:<20} {count}")
    return 0


def _cmd_measures(_args: argparse.Namespace) -> int:
    for name in all_configuration_names():
        console(name)
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    service = SimilarityService.open(
        args.corpus,
        framework=SimilarityFramework(ged_timeout=args.ged_timeout),
        cache_dir=args.cache_dir,
    )
    index_stats = service.build_index()
    for measure in args.warm_measure or ():
        # An all-queries batch fills the pair-score caches under this
        # measure, so the persisted store warm-starts future searches.
        result = service.search(SearchRequest(measure=measure, k=args.top_k))
        diagnostics = result.diagnostics
        console(
            f"warmed {measure}: {len(result)} queries in "
            f"{diagnostics.seconds:.2f}s ({diagnostics.path} path)"
        )
    summary = service.persist()
    console(
        f"persisted {summary['workflows']} workflows, "
        f"{summary['pair_scores']} pair scores, "
        f"{summary['postings']} index postings "
        f"({index_stats['documents']} documents) to {args.cache_dir}"
    )
    return 0


def _open_existing_store(cache_dir: str):
    """Open a store read-only-ish for inspection commands.

    Returns ``(store, None)`` on success or ``(None, exit_code)`` after
    printing a one-line actionable error: exit 2 for a missing/unreadable
    cache dir, exit 1 for a file SQLite refuses to open as a database.
    """
    import sqlite3

    from .store import WorkflowStore

    try:
        return WorkflowStore(cache_dir, create=False), None
    except FileNotFoundError as error:
        console(f"error: {error}", err=True)
        return None, 2
    except OSError as error:
        console(f"error: cache dir {cache_dir!r} is unreadable: {error}", err=True)
        return None, 2
    except (sqlite3.DatabaseError, ValueError) as error:
        console(
            f"error: store in {cache_dir!r} cannot be opened ({error}); "
            "run 'repro store repair' to quarantine and rebuild it",
            err=True,
        )
        return None, 1


def _cmd_index_stats(args: argparse.Namespace) -> int:
    from .store.sql_admission import SqlAdmissionPlanner

    store, code = _open_existing_store(args.cache_dir)
    if store is None:
        return code
    try:
        for key, value in store.stats().items():
            console(f"{key:<20} {value}")
        # The SQL admission tier: which bounds this store can answer
        # in-database, without materializing an index in Python.
        for key, value in SqlAdmissionPlanner(store).stats().items():
            console(f"sql_{key:<16} {value}")
    finally:
        store.close()
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    store, code = _open_existing_store(args.cache_dir)
    if store is None:
        return code
    try:
        report = store.verify()
    finally:
        store.close()
    for table, status in sorted(report.tables.items()):
        console(f"{table:<12} {'ok' if status == 'ok' else 'FAIL: ' + status}")
    if report.ok:
        console("store verified: all checks passed")
        return 0
    console(
        f"store FAILED verification: {report.summary()} "
        "(run 'repro store repair' to quarantine and rebuild)",
        err=True,
    )
    return 1


def _cmd_store_repair(args: argparse.Namespace) -> int:
    import sqlite3

    from .store import StoreCorruptionError, WorkflowStore

    try:
        store = WorkflowStore(args.cache_dir, create=False)
    except FileNotFoundError as error:
        console(f"error: {error}", err=True)
        return 2
    except OSError as error:
        console(f"error: cache dir {args.cache_dir!r} is unreadable: {error}", err=True)
        return 2
    except (sqlite3.DatabaseError, ValueError):
        store = None  # unopenable: exactly what the rebuild below repairs
    if store is not None:
        try:
            report = store.verify()
        finally:
            store.close()
        if report.ok:
            console("store verified: all checks passed; nothing to repair")
            return 0
    # Corrupt (or unopenable) store: let the service's quarantine-and-
    # rebuild recovery do the repair, seeded from --corpus when given,
    # from the store's own salvaged snapshot otherwise.
    try:
        if args.corpus is not None:
            service = SimilarityService.open(args.corpus, cache_dir=args.cache_dir)
            service.build_index()
            service.persist()
        else:
            service = SimilarityService.open(cache_dir=args.cache_dir)
    except StoreCorruptionError as error:
        console(f"error: {error}", err=True)
        return 1
    for entry in service.degradation_log:
        console(entry["event"])
    verified = service.store.verify()
    service.close()
    if not verified.ok:
        console(f"error: rebuilt store still fails verification: {verified.summary()}", err=True)
        return 1
    console("store repaired: rebuilt store passes all checks")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity search for scientific workflows (Starlinger et al., PVLDB 2014)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    compare = subparsers.add_parser("compare", help="compare two workflow files")
    compare.add_argument("first", help="first workflow file (.json/.xml/.ga)")
    compare.add_argument("second", help="second workflow file")
    compare.add_argument(
        "--measure",
        action="append",
        default=None,
        help="measure name (repeatable); default: BW, MS_ip_te_pll, BW+MS_ip_te_pll",
    )
    compare.add_argument("--ged-timeout", type=float, default=5.0)
    compare.set_defaults(func=_cmd_compare)

    search = subparsers.add_parser("search", help="top-k similarity search over a corpus file")
    search.add_argument("corpus", help="corpus JSON file (see 'generate-corpus' or WorkflowRepository.save)")
    search.add_argument("query", help="identifier of the query workflow inside the corpus")
    search.add_argument("--measure", default="BW+MS_ip_te_pll")
    search.add_argument("-k", "--top-k", type=int, default=10)
    search.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable ResultSet (scores, ranks, execution diagnostics)",
    )
    search.add_argument("--ged-timeout", type=float, default=5.0)
    search.add_argument(
        "--cache-dir",
        default=None,
        help="persistent warm-start store directory (scores computed here are "
        "persisted and reused by later invocations)",
    )
    search.set_defaults(func=_cmd_search)

    search_batch = subparsers.add_parser(
        "search-batch",
        help="batch top-k search for many queries (fast path, optional process pool)",
    )
    search_batch.add_argument("corpus", help="corpus JSON file")
    search_batch.add_argument(
        "--queries",
        nargs="*",
        default=None,
        help="query workflow identifiers (default: every workflow in the corpus)",
    )
    search_batch.add_argument("--measure", default="MS_ip_te_pll")
    search_batch.add_argument("-k", "--top-k", type=int, default=10)
    search_batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan queries out over a process pool of this size",
    )
    search_batch.add_argument(
        "--no-prune",
        action="store_true",
        help="disable top-k frontier pruning (exhaustive scoring)",
    )
    search_batch.add_argument("--output", help="write results as JSON instead of printing")
    search_batch.add_argument("--ged-timeout", type=float, default=5.0)
    search_batch.add_argument(
        "--cache-dir",
        default=None,
        help="persistent warm-start store directory (see 'repro index build')",
    )
    search_batch.set_defaults(func=_cmd_search_batch)

    index = subparsers.add_parser(
        "index", help="manage the persistent warm-start store (src/repro/store)"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="persist a corpus snapshot + inverted annotation index into a cache dir",
    )
    index_build.add_argument("corpus", help="corpus JSON file")
    index_build.add_argument("--cache-dir", required=True, help="store directory to write")
    index_build.add_argument(
        "--warm-measure",
        action="append",
        default=None,
        help="run an all-queries batch under this measure first so its "
        "module-pair scores are persisted too (repeatable)",
    )
    index_build.add_argument("-k", "--top-k", type=int, default=10)
    index_build.add_argument("--ged-timeout", type=float, default=5.0)
    index_build.set_defaults(func=_cmd_index_build)
    index_stats = index_sub.add_parser("stats", help="print the contents of a cache dir")
    index_stats.add_argument("--cache-dir", required=True)
    index_stats.set_defaults(func=_cmd_index_stats)

    store = subparsers.add_parser(
        "store", help="integrity operations on a persistent store directory"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_verify = store_sub.add_parser(
        "verify",
        help="run integrity checks (quick_check, checksums, payload decode); "
        "exit 0 clean / 1 corrupt / 2 missing",
    )
    store_verify.add_argument("--cache-dir", required=True)
    store_verify.set_defaults(func=_cmd_store_verify)
    store_repair = store_sub.add_parser(
        "repair",
        help="quarantine a corrupted store and rebuild it (from its salvaged "
        "snapshot, or from --corpus)",
    )
    store_repair.add_argument("--cache-dir", required=True)
    store_repair.add_argument(
        "--corpus",
        default=None,
        help="corpus JSON file to rebuild from when the snapshot itself is damaged",
    )
    store_repair.set_defaults(func=_cmd_store_repair)

    serve = subparsers.add_parser(
        "serve",
        help="run the async multi-tenant HTTP serving layer over a serving root",
    )
    serve.add_argument(
        "--root",
        required=True,
        help="serving root directory; every subdirectory with a persisted store "
        "is a tenant (see 'repro index build')",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8340, help="0 picks a free port")
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="per-tenant in-flight request cap; beyond it requests get 429 + "
        "Retry-After.  A search on an idle tenant runs at once; same-measure "
        "searches that queue while the tenant is busy share its next engine "
        "batch (bit-identical results), so the cap also bounds each batch",
    )
    serve.add_argument(
        "--max-tenants",
        type=int,
        default=8,
        help="LRU bound on concurrently open tenant services",
    )
    serve.add_argument(
        "--persist-on-shutdown",
        action="store_true",
        help="write each tenant's accumulated pair scores back to its store while draining",
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="bind, probe /healthz, exit 0/1 (CI smoke; no long-running server)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of requests to trace (0 disables tracing entirely, 1 "
        "traces every request); sampled requests carry an X-Trace-Id header",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        help="write every finished trace as <trace_id>.json into this "
        "directory (inspect with 'repro trace show')",
    )
    serve.set_defaults(func=_cmd_serve)

    trace = subparsers.add_parser(
        "trace", help="inspect exported trace files (see 'repro serve --trace-dir')"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser(
        "show", help="render an exported span-tree JSON file as an indented tree"
    )
    trace_show.add_argument("file", help="trace JSON file written by --trace-dir")
    trace_show.set_defaults(func=_cmd_trace_show)

    generate = subparsers.add_parser("generate-corpus", help="write a synthetic corpus to disk")
    generate.add_argument("output", help="output JSON file")
    generate.add_argument("--workflows", type=int, default=500)
    generate.add_argument("--seed", type=int, default=20140901)
    generate.add_argument("--format", choices=("taverna", "galaxy"), default="taverna")
    generate.set_defaults(func=_cmd_generate_corpus)

    stats = subparsers.add_parser("stats", help="print statistics of a corpus file")
    stats.add_argument("corpus")
    stats.set_defaults(func=_cmd_stats)

    measures = subparsers.add_parser("measures", help="list all measure configurations")
    measures.set_defaults(func=_cmd_measures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "compare" and not args.measure:
        args.measure = ["BW", "MS_ip_te_pll", "BW+MS_ip_te_pll"]
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
