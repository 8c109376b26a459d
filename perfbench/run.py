"""The repository benchmark: three workloads through the public API.

Usage::

    python3 perfbench/run.py --workload {serve-mixed|search-cold|churn} \\
        --seed N --seconds S --trace {0|1}

Run from the root of a checkout (the directory holding ``src/`` and
``perfbench/``).  Inputs are generated from ``--seed``.  Every answer is
checked against the sequential reference path.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics (from a run with timing wrappers installed) with
``--trace 1``.  Lines before it are a human-readable report.  The exit
code is 0 only when every answer matched and nothing failed.

See ``perfbench/README.md`` for the workloads, the metric definitions
and the held-out seed.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import os
import platform
import shutil
import sys
from collections import defaultdict

from common import (
    CHECKOUT,
    LIGHT_MEASURES,
    MS,
    SRC_DIR,
    WORK_ROOT,
    digest,
    median,
    percentile,
    program_present,
    read_json,
    replica_cpus,
    run_children,
    write_json,
)

#: Limits per stage, so a hung stage ends the run well inside 180 s.
REFERENCE_TIMEOUT = 60.0
CHILD_TIMEOUT = 90.0
PHASE_TIMEOUT = 30.0
#: serve-mixed set-up is the median of this many server spawns.
SETUP_SPAWNS = 3
#: Runs whose generator woke later than this (p99) are invalid.
MAX_GENERATOR_LAG_MS = 20.0
MIN_COVERAGE = 0.9

class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: "dict[str, float]" = {}
        self.report: "dict[str, float]" = {}
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


def reference(work, source: dict, parts: "list[list]") -> dict:
    """Sequential answers for each part's jobs, one process per part."""
    paths = []
    for index, jobs in enumerate(parts):
        spec = work / f"reference-{index}.json"
        write_json(spec, {**source, "jobs": jobs})
        paths.append((spec, work / f"reference-{index}-out.json"))
    run_children(
        [["perfbench/reference.py", str(spec), str(out)] for spec, out in paths],
        timeout=REFERENCE_TIMEOUT,
    )
    merged: dict = {"search": defaultdict(dict), "cluster": {}}
    for _spec, out in paths:
        answers = read_json(out)
        for measure, by_query in answers["search"].items():
            merged["search"][measure].update(by_query)
        merged["cluster"].update(answers["cluster"])
    return merged


def run_replicas(work, workload: str, plans: list, seconds: float, trace: bool) -> list:
    """Run the measured program once per ``(plan, cpu)`` at the same time
    and return each process's output.

    Untraced runs start one replica per CPU (two on a 2-CPU machine),
    each pinned to its CPU, on identical inputs.  The host slows one CPU
    at a time, by up to 2x for seconds; taking each figure from the
    better replica, as ``timeit`` takes the best repeat, follows the
    program and not those phases.  Traced runs use one unpinned process.
    """
    jobs, outputs = [], []
    for index, (plan, cpu) in enumerate(plans):
        plan_path, out_path = work / f"plan-{index}.json", work / f"out-{index}.json"
        write_json(plan_path, plan)
        jobs.append(
            ["perfbench/inproc.py", workload, str(plan_path), str(out_path), str(seconds),
             "1" if trace else "0", "-" if cpu is None else str(cpu)]
        )
        outputs.append(out_path)
    run_children(jobs, timeout=CHILD_TIMEOUT)
    return [read_json(path) for path in outputs]


def measuring_cpus(trace: bool) -> list:
    return [None] if trace else replica_cpus()


# -- search-cold -----------------------------------------------------------------


def search_cold(work, seed: int, seconds: float, trace: bool) -> Outcome:
    import prepare

    plan = prepare.search_cold(work, seed)
    # Each reference process takes whole queries, because the measures
    # share one query's label comparisons; the cluster rides on the second.
    parts = [
        [["search", measure, query] for query in plan["queries"][half::2]
         for measure in plan["measures"]]
        for half in (0, 1)
    ]
    parts[1].append(["cluster", MS, plan["cluster"], plan["threshold"]])
    expected = reference(work, {"corpus": plan["corpus"]}, parts)
    want = [
        digest([expected["search"][measure][query] for query in plan["queries"]])
        for measure in plan["measures"]
    ] + [digest(expected["cluster"][MS])]

    plans = [(plan, cpu) for cpu in measuring_cpus(trace)]
    replicas = run_replicas(work, "search-cold", plans, seconds, trace)
    outcome = Outcome()
    passes = [run for data in replicas for run in data["passes"]]
    for number, run in enumerate(passes, start=1):
        for (op, _seconds), got, wanted in zip(run["ops"], run["digests"], want):
            outcome.attempted += 1
            if got != wanted:
                outcome.fail(f"pass {number}: {op} differs from the sequential reference")
    measured = [run for run in passes if not run["traced"]]
    # Every pass, in either replica, repeats the same requests on a fresh
    # service, so each request's latency is its best pass: a slower pass
    # was slowed by the machine, not the program.
    best = {
        op: min(seconds for run in measured for name, seconds in run["ops"] if name == op)
        for op, _seconds in measured[0]["ops"]
    }
    pairs = len(plan["cluster"]) * (len(plan["cluster"]) - 1) // 2
    outcome.metrics = {
        "setup_s": median([run["open_s"] for run in measured]),
        "p50_ms": median(best.values()) * 1000.0,
        "queries_per_s": len(plan["measures"]) * len(plan["queries"])
        / sum(best[measure] for measure in plan["measures"]),
        "peak_rss_mb": max(data["peak_rss_mb"] for data in replicas),
    }
    outcome.report = {
        "passes": len(measured),
        **{f"best_ms.{op}": seconds * 1000.0 for op, seconds in best.items()},
        "pass_p50_ms": median([run["wall_s"] for run in measured]) * 1000.0,
        "pairs_per_s": pairs / best["cluster"],
        "error_ratio": outcome.failed / outcome.attempted,
    }
    if trace:
        traced = [run for run in passes if run["traced"]]
        ops = (len(plan["measures"]) + 1) * len(traced)
        _in_process_layers(outcome, replicas[0]["spans"], traced, measured, ops=ops)
    return outcome


# -- churn -----------------------------------------------------------------------


def churn(work, seed: int, seconds: float, trace: bool) -> Outcome:
    import prepare

    plan = prepare.churn(work, seed)
    plans = []
    for index, cpu in enumerate(measuring_cpus(trace)):
        # Each replica writes to its own copy of the store.
        store = work / f"store-{index}"
        shutil.copytree(plan["store"], store)
        plans.append(({**plan, "store": str(store)}, cpu))
    replicas = run_replicas(work, "churn", plans, seconds, trace)
    outcome = Outcome()
    # Only the reads checked at persist points count as attempted; a
    # write or read that raised would have failed the child instead.
    outcome.attempted = sum(data["checks"] for data in replicas)
    for mismatch in (mismatch for data in replicas for mismatch in data["mismatches"]):
        outcome.fail(f"{mismatch} differs from the sequential reference")
    if outcome.attempted == 0:
        outcome.attempted = 1
        outcome.fail("no persist point was reached, so no answer was checked")
    measured = [[b for b in data["blocks"] if not b["traced"]] for data in replicas]
    cycles = [cycle for blocks in measured for block in blocks for cycle in block["cycles"]]
    # A cycle's latency is mostly its write, which costs about the same
    # for every victim, and blocks repeat one size mix; so, as with
    # search-cold's passes, it is taken from the best block of either
    # replica, the one the machine slowed least.  Reads differ by query
    # (every query is new), so their rate is the median over all cycles
    # of the better replica.
    best_block = min(
        median([c["write_s"] + c["bw_s"] + c["ms_s"] for c in block["cycles"]])
        for blocks in measured for block in blocks
    )
    best_read = min(
        median([c["bw_s"] + c["ms_s"] for block in blocks for c in block["cycles"]])
        for blocks in measured
    )
    reads = [cycle["bw_s"] + cycle["ms_s"] for cycle in cycles]
    walls = [cycle["wall_s"] for cycle in cycles]
    persists = [cycle["persist_s"] for cycle in cycles if "persist_s" in cycle]
    outcome.metrics = {
        "setup_s": median([opened for data in replicas for opened in data["opens"]]),
        "p50_ms": best_block * 1000.0,
        "queries_per_s": 2 / best_read,
        "peak_rss_mb": max(data["peak_rss_mb"] for data in replicas),
    }
    first = replicas[0]
    outcome.report = {
        "replicas": len(replicas),
        "blocks": sum(len(blocks) for blocks in measured),
        "cycles": len(cycles),
        "checks": outcome.attempted,
        "p99_ms": percentile(walls, 0.99) * 1000.0,
        "light_p99_ms": percentile([cycle["bw_s"] for cycle in cycles], 0.99) * 1000.0,
        "read_p50_ms": median(reads) * 1000.0,
        "write_p50_ms": median([cycle["write_s"] for cycle in cycles]) * 1000.0,
        "persist_p50_ms": median(persists) * 1000.0 if persists else 0.0,
        "ops_per_s": (4 * len(cycles) + len(persists)) / sum(walls),
        "store_mb": first["store_mb"],
        "error_ratio": outcome.failed / outcome.attempted,
    }
    if trace:
        traced = [cycle for block in first["blocks"] if block["traced"] for cycle in block["cycles"]]
        _in_process_layers(outcome, first["spans"], traced, cycles, ops=len(traced))
        outcome.metrics["store.workflow_store.retries"] = first["retries"]
        outcome.metrics["store.workflow_store.bytes_per_write"] = first["bytes_per_write"]
    return outcome


def _in_process_layers(outcome: Outcome, spans, traced, untraced, *, ops: int) -> None:
    import layers

    metrics = layers.layer_metrics(spans, ops)
    # Coverage counts the measured operations only: churn's set-up opens
    # come before the first traced cycle and have no operation wall.
    wall = sum(item["wall_s"] for item in traced)
    first = min(item["start"] for item in traced)
    coverage, per_layer = layers.coverage([span for span in spans if span[3] >= first], wall)
    metrics["trace.coverage"] = coverage
    metrics["trace.overhead"] = median([item["wall_s"] for item in traced]) / median(
        [item["wall_s"] for item in untraced]
    )
    outcome.metrics = metrics
    outcome.report["layer_self_s"] = per_layer
    if coverage < MIN_COVERAGE:
        outcome.problems.append(
            f"trace coverage {coverage:.2f} < {MIN_COVERAGE}: untimed remainder "
            f"{(1 - coverage) * wall:.3f}s of {wall:.3f}s lies outside every wrapped call"
        )


# -- serve-mixed -----------------------------------------------------------------


def serve_mixed(work, seed: int, seconds: float, trace: bool) -> Outcome:
    import prepare

    plan = prepare.serve_mixed(work, seed)
    tenant = plan["tenant"]
    parts = [
        [["search", MS, query] for query in plan["hot"][half::2]]
        + [["search", measure, query] for query in plan["light"][half::2]
           for measure in LIGHT_MEASURES]
        for half in (0, 1)
    ]
    expected = reference(work, {"cache_dir": f"{plan['root']}/{tenant}"}, parts)["search"]
    return asyncio.run(_serve(work, plan, expected, seed, seconds, trace))


async def _serve(work, plan, expected, seed, seconds, trace) -> Outcome:
    import layers
    import serveload

    outcome = Outcome()
    tenant = plan["tenant"]
    warmup = [(MS, query) for query in plan["hot"]]
    warmup += [(measure, query) for query in plan["light"] for measure in LIGHT_MEASURES]
    saturation_seconds = seconds * serveload.SATURATION_SHARE
    arrivals = serveload.schedule(seed, seconds - saturation_seconds, plan["hot"], plan["light"])

    def check(measure, query, status, body) -> None:
        outcome.attempted += 1
        if status != 200:
            outcome.fail(f"{measure} {query}: HTTP {status}")
            return
        from repro.api import ResultSet

        got = json.loads(json.dumps(ResultSet.from_dict(body).result_tuples()[0]))
        if got != expected[measure][query]:
            outcome.fail(f"{measure} {query}: differs from the sequential reference")

    async def phase(server):
        port = server.port
        warm = await asyncio.wait_for(serveload.closed_pass(port, tenant, warmup), PHASE_TIMEOUT)
        for measure, query, status, body in warm:
            check(measure, query, status, body)
        before = await serveload.tenant_stats(port, tenant)
        records, start, end = await asyncio.wait_for(
            serveload.open_loop(port, tenant, arrivals), seconds + PHASE_TIMEOUT
        )
        after = await serveload.tenant_stats(port, tenant)
        for record in records:
            check(record[0], record[1], record[6], record[7])
        saturated, elapsed = await asyncio.wait_for(
            serveload.closed_loop(port, tenant, arrivals, saturation_seconds),
            saturation_seconds + PHASE_TIMEOUT,
        )
        for measure, query, status, body in saturated:
            check(measure, query, status, body)
        answered = sum(1 for record in saturated if record[2] == 200)
        return records, start, end, before, after, answered / elapsed

    setups = []
    spawns = 1 if trace else SETUP_SPAWNS
    for spawn in range(spawns):
        server = serveload.Server(plan["root"])
        try:
            setups.append(await serveload.first_search(server, tenant, plan["light"][0]))
            if spawn < spawns - 1:
                continue
            records, start, end, before, after, saturated_rps = await phase(server)
            peak = server.peak_rss_mb()
        finally:
            server.stop()
    latency = [(record[4] - record[2]) for record in records]
    light = [(record[4] - record[2]) for record in records if record[0] in LIGHT_MEASURES]
    lag_p99_ms = percentile([record[5] for record in records], 0.99) * 1000.0
    if lag_p99_ms > MAX_GENERATOR_LAG_MS:
        outcome.fail(
            f"invalid run: the generator fell behind its schedule (lag p99 {lag_p99_ms:.1f} ms)"
        )
    batches = after["batch"]["batches"] - before["batch"]["batches"]
    folded = after["batch"]["folded_requests"] - before["batch"]["folded_requests"]
    outcome.metrics = {
        "setup_s": median(setups),
        "p50_ms": median(latency) * 1000.0,
        "queries_per_s": saturated_rps,
        "peak_rss_mb": peak,
    }
    outcome.report = {
        "requests": len(records),
        "p99_ms": percentile(latency, 0.99) * 1000.0,
        "light_p99_ms": percentile(light, 0.99) * 1000.0,
        "rate_rps": serveload.BASE_RATE,
        "offered_rps": len(records) / (end - start),
        "ms_p50_ms": median([r[4] - r[2] for r in records if r[0] == MS]) * 1000.0,
        "gen_lag_p99_ms": lag_p99_ms,
        "fold_factor": folded / batches if batches else 0.0,
        "error_ratio": outcome.failed / outcome.attempted,
        "server_flags": " ".join(serveload.SERVER_FLAGS),
    }
    if not trace:
        return outcome

    # Traced run: the same phase once more against a server started
    # through the launcher, with the wrappers installed.
    spans_path = work / "spans.json"
    server = serveload.Server(plan["root"], spans=spans_path)
    try:
        await serveload.first_search(server, tenant, plan["light"][0])
        t_records, t_start, t_end, t_before, t_after, _rps = await phase(server)
    finally:
        server.stop()
    dumped = read_json(spans_path)
    spans = dumped["spans"]
    window = [span for span in spans if span[3] >= t_start and span[4] <= t_end]
    metrics = layers.layer_metrics(window, len(t_records))
    # The tenant opened at the first request, before the measured window.
    metrics["store.workflow_store.open_ms"] = median(layers.store_open_seconds(spans)) * 1000.0
    metrics["store.workflow_store.retries"] = dumped["retries"]
    metrics.update(_serving_layers(spans, window, t_records))
    t_batches = t_after["batch"]["batches"] - t_before["batch"]["batches"]
    t_folded = t_after["batch"]["folded_requests"] - t_before["batch"]["folded_requests"]
    metrics["serve.batcher.fold_factor"] = t_folded / t_batches if t_batches else 0.0
    metrics["serve.admission.rejected"] = sum(1 for record in t_records if record[6] == 429)
    metrics["gen.lag_p99_ms"] = percentile([record[5] for record in t_records], 0.99) * 1000.0
    metrics["trace.overhead"] = _mean_service_time(t_records) / _mean_service_time(records)
    outcome.metrics = metrics
    return outcome


def _mean_service_time(records) -> float:
    return sum(record[4] - record[3] for record in records) / len(records)


def _serving_layers(spans, window, records) -> "dict[str, float]":
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    # The measure a tenant-thread run executed, from the service span in it.
    runs_by_measure = defaultdict(list)
    fns = {}
    for span in window:
        if span[2] != "serve.tenants.run":
            continue
        for fn in children[span[0]]:
            fns[span[0]] = fn
            for call in children[fn[0]]:
                if call[2] == "api.service.search" and call[5]:
                    runs_by_measure[call[5]["measure"]].append(span)
    for runs in runs_by_measure.values():
        runs.sort(key=lambda span: span[3])
    starts = {measure: [run[3] for run in runs] for measure, runs in runs_by_measure.items()}
    # A request's fold is the first run of its measure called after it
    # was submitted (a later window of that measure cannot fire first).
    waits = []
    for submit in (span for span in window if span[2] == "serve.batcher.submit"):
        measure = submit[5]["measure"]
        index = bisect.bisect_left(starts.get(measure, []), submit[3])
        if index < len(starts.get(measure, [])) and runs_by_measure[measure][index][4] <= submit[4]:
            waits.append(starts[measure][index] - submit[3])
    queue_waits = [fns[span[0]][3] - span[3] for span in window if span[0] in fns]
    busy = [fn[4] - fn[3] for fn in fns.values()]
    roots = [
        span for span in window
        if span[1] is None and span[2] in ("serve.batcher.submit", "api.results.to_dict")
    ]
    client = sum(record[4] - record[3] for record in records)
    gets = sorted((span for span in spans if span[2] == "serve.tenants.get"), key=lambda s: s[3])
    return {
        "serve.http.residual_ms": (client - sum(s[4] - s[3] for s in roots)) / len(records) * 1000.0,
        "serve.batcher.window_wait_ms": median(waits) * 1000.0 if waits else 0.0,
        "serve.tenants.queue_wait_ms": percentile(queue_waits, 0.99) * 1000.0 if queue_waits else 0.0,
        "serve.tenants.busy_ms": median(busy) * 1000.0 if busy else 0.0,
        "serve.tenants.open_s": gets[0][4] - gets[0][3] if gets else 0.0,
    }


# -- entry point -------------------------------------------------------------------

WORKLOADS = {"serve-mixed": serve_mixed, "search-cold": search_cold, "churn": churn}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program sources at {SRC_DIR}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload](work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return emit(args, outcome)


def emit(args, outcome: Outcome) -> int:
    # The metric names and units are the ones BENCHMARK.json declares; a
    # metric this workload did not produce is reported as 0.
    declared = read_json(CHECKOUT / "BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    print(
        f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()}"
    )
    for name, value in sorted(outcome.report.items()):
        print(f"#   {name}: {value}")
    # Figures a workload computes that BENCHMARK.json does not gate.
    for name in sorted(set(outcome.metrics) - set(units)):
        print(f"#   {name}: {outcome.metrics[name]}")
    for name in units:
        print(f"#   {name:40s} {outcome.metrics.get(name, 0.0):14.4f} {units[name]}")
    for problem in outcome.problems:
        print(f"# problem: {problem}")
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
