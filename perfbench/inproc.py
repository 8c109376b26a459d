"""The measured program of the in-process workloads (a fresh process).

Usage: ``python3 perfbench/inproc.py {search-cold|churn} PLAN.json OUT.json SECONDS TRACE CPU``

``CPU`` is the CPU to pin the process to, or ``-`` to leave it unpinned.

The process opens the inputs ``run.py`` prepared, runs the workload's
operations through the public ``SimilarityService`` API for ``SECONDS``
seconds and writes every timing, answer digest and (when ``TRACE`` is 1)
span to ``OUT.json``.  Traced runs alternate traced and untraced passes
or churn blocks, so the tracing overhead is measured inside one process.
"""

from __future__ import annotations

import gc
import os
import sys
import time

from common import K, MS, dir_bytes, digest, peak_rss_mb_self, read_json, write_json
from layers import Recorder, Wrappers

CHURN_OPENS = 7
#: Blocks between persists (three blocks of eight cycles).
CHURN_PERSIST_EVERY = 3


def search_cold(plan: dict, seconds: float, trace: bool) -> dict:
    from repro.api import ClusterRequest, SearchRequest, SimilarityService

    recorder = Recorder()
    wrappers = Wrappers(recorder).install() if trace else None
    passes = []
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        recorder.active = traced
        gc.collect()
        begin = time.perf_counter()
        service = SimilarityService.open(plan["corpus"])
        opened = time.perf_counter()
        ops, results = [], []
        for measure in plan["measures"]:
            t0 = time.perf_counter()
            result = service.search(SearchRequest(measure=measure, queries=plan["queries"], k=K))
            ops.append([measure, time.perf_counter() - t0])
            results.append(result.result_tuples())
        t0 = time.perf_counter()
        clustered = service.cluster(
            ClusterRequest(measure=MS, workflows=plan["cluster"], threshold=plan["threshold"])
        )
        end = time.perf_counter()
        ops.append(["cluster", end - t0])
        results.append([list(cluster) for cluster in clustered.clusters])
        service.close()
        del service
        passes.append(
            {
                "traced": traced,
                "start": begin,
                "open_s": opened - begin,
                "wall_s": end - begin,
                "ops": ops,
                "digests": [digest(answer) for answer in results],
            }
        )
        if time.perf_counter() - started >= seconds and (not trace or len(passes) >= 2):
            break
    if wrappers is not None:
        wrappers.uninstall()
    return {"passes": passes, "spans": recorder.spans, "peak_rss_mb": peak_rss_mb_self()}


def churn(plan: dict, seconds: float, trace: bool) -> dict:
    from repro.api import ExecutionPolicy, SearchRequest, SimilarityService
    from repro.obs.registry import get_registry

    recorder = Recorder()
    wrappers = Wrappers(recorder).install() if trace else None
    opens = []
    for attempt in range(CHURN_OPENS):
        gc.collect()
        begin = time.perf_counter()
        service = SimilarityService.open(cache_dir=plan["store"])
        opens.append(time.perf_counter() - begin)
        if attempt < CHURN_OPENS - 1:
            service.close()
            # Dropped before the next open, so every open starts from the
            # same heap (a live earlier service slows the collector).
            del service
    store_dir = plan["store"]
    retries = get_registry().get("repro_store_retries_total")
    retries_before = retries.value() if retries is not None else 0.0
    bytes_before = dir_bytes(store_dir)
    sequential = ExecutionPolicy.sequential()
    blocks, checks, mismatches = [], 0, []
    measured = 0.0
    for number, block in enumerate(plan["blocks"]):
        if measured >= seconds and (not trace or number >= 2):
            break
        traced = trace and number % 2 == 1
        recorder.active = traced
        cycles = []
        for victim, light_query, heavy_query in block:
            workflow = service.repository.get(victim)
            t0 = time.perf_counter()
            service.remove_workflows([victim])
            service.add_workflows([workflow])
            t1 = time.perf_counter()
            light = service.search(SearchRequest(measure="BW", queries=[light_query], k=K))
            t2 = time.perf_counter()
            heavy = service.search(SearchRequest(measure=MS, queries=[heavy_query], k=K))
            t3 = time.perf_counter()
            cycles.append(
                {"start": t0, "write_s": t1 - t0, "bw_s": t2 - t1, "ms_s": t3 - t2, "wall_s": t3 - t0}
            )
            measured += t3 - t0
        if number % CHURN_PERSIST_EVERY == CHURN_PERSIST_EVERY - 1:
            t0 = time.perf_counter()
            service.persist()
            persist_s = time.perf_counter() - t0
            cycles[-1]["persist_s"] = persist_s
            cycles[-1]["wall_s"] += persist_s
            measured += persist_s
            # Reference check, outside the timed region: the block's last
            # reads against the exact scan over the same live corpus.
            recorder.active = False
            for measure, query, answer in (("BW", light_query, light), (MS, heavy_query, heavy)):
                expected = service.search(
                    SearchRequest(measure=measure, queries=[query], k=K, policy=sequential)
                )
                checks += 1
                if expected.result_tuples() != answer.result_tuples():
                    mismatches.append(f"block {number}: {measure} query {query}")
        blocks.append({"traced": traced, "cycles": cycles})
    recorder.active = False
    bytes_after = dir_bytes(store_dir)
    writes = 2 * sum(len(block["cycles"]) for block in blocks)
    result = {
        "opens": opens,
        "blocks": blocks,
        "checks": checks,
        "mismatches": mismatches,
        "store_mb": bytes_after / 1e6,
        "bytes_per_write": (bytes_after - bytes_before) / writes,
        "retries": (retries.value() if retries is not None else 0.0) - retries_before,
        "spans": recorder.spans,
        "peak_rss_mb": peak_rss_mb_self(),
    }
    service.close()
    if wrappers is not None:
        wrappers.uninstall()
    return result


def main(workload: str, plan_path: str, out_path: str, seconds: str, trace: str, cpu: str) -> int:
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    run = {"search-cold": search_cold, "churn": churn}[workload]
    write_json(out_path, run(read_json(plan_path), float(seconds), trace == "1"))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:7]))
