"""Sequential-path reference answers for a slice of a workload's queries.

Usage: ``python3 perfbench/reference.py JOBS.json OUT.json``

``JOBS.json`` names the source (``{"corpus": path}`` or
``{"cache_dir": path}``) and a list of jobs: ``["search", measure, id]``
or ``["cluster", measure, [ids...], threshold]``.  Every job runs under
``ExecutionPolicy.sequential()``, the exact reference scan, and the
answers are written to ``OUT.json``.  ``run.py`` runs two of these at
once, before any timing starts.
"""

from __future__ import annotations

import sys

from common import K, read_json, write_json


def main(jobs_path: str, out_path: str) -> int:
    from repro.api import ClusterRequest, ExecutionPolicy, SearchRequest, SimilarityService

    spec = read_json(jobs_path)
    if "corpus" in spec:
        service = SimilarityService.open(spec["corpus"])
    else:
        service = SimilarityService.open(cache_dir=spec["cache_dir"])
    sequential = ExecutionPolicy.sequential()
    answers: dict = {"search": {}, "cluster": {}}
    try:
        for job in spec["jobs"]:
            if job[0] == "search":
                _, measure, query = job
                result = service.search(
                    SearchRequest(measure=measure, queries=[query], k=K, policy=sequential)
                )
                answers["search"].setdefault(measure, {})[query] = result.result_tuples()[0]
            else:
                _, measure, workflows, threshold = job
                result = service.cluster(
                    ClusterRequest(
                        measure=measure,
                        workflows=workflows,
                        threshold=threshold,
                        policy=sequential,
                    )
                )
                answers["cluster"][measure] = [list(cluster) for cluster in result.clusters]
    finally:
        service.close()
    write_json(out_path, answers)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
