"""Shared fixtures for the test suite.

Corpus-level fixtures are session-scoped: generating workflows and
running the simulated user study is deterministic (fixed seeds), so the
same objects can safely be shared by every test that needs them.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import SimilarityFramework
from repro.corpus import (
    CorpusSpec,
    GalaxyCorpusSpec,
    generate_galaxy_corpus,
    generate_myexperiment_corpus,
)
from repro.goldstandard import ExpertPanel, GoldStandardStudy
from repro.repository import SimilaritySearchEngine
from repro.serve import ServeClient
from repro.workflow import WorkflowBuilder


@pytest.fixture()
def framework() -> SimilarityFramework:
    return SimilarityFramework()


@pytest.fixture()
def kegg_workflow():
    """A small, fully annotated pathway-analysis workflow."""
    return (
        WorkflowBuilder(
            "wf-kegg",
            title="KEGG pathway analysis",
            description="Fetches a KEGG pathway for a gene and renders the pathway image",
            tags=("kegg", "pathway", "gene"),
            author="alice",
        )
        .add_module(
            "fetch",
            label="get_pathway_by_gene",
            module_type="wsdl",
            description="Retrieves the KEGG pathways for a gene identifier",
            service_authority="KEGG",
            service_name="KEGGService",
            service_uri="http://soap.genome.jp/KEGG.wsdl",
        )
        .add_module(
            "parse",
            label="parse_pathway_response",
            module_type="beanshell",
            script='String[] lines = response.split("\\n");',
        )
        .add_module("split", label="Split_string_into_list", module_type="localworker")
        .add_module(
            "render",
            label="color_pathway_by_objects",
            module_type="wsdl",
            service_authority="KEGG",
            service_name="KEGGService",
            service_uri="http://soap.genome.jp/KEGG.wsdl",
        )
        .chain("fetch", "parse", "split", "render")
        .build()
    )


@pytest.fixture()
def kegg_variant_workflow():
    """A mutated sibling of ``kegg_workflow`` (same functional family)."""
    return (
        WorkflowBuilder(
            "wf-kegg-variant",
            title="Get pathway genes by Entrez gene id",
            description="Retrieves KEGG pathway information for an Entrez gene id and lists the genes",
            tags=("kegg", "gene", "entrez"),
            author="bob",
        )
        .add_module(
            "fetch",
            label="getPathwayByGene",
            module_type="wsdl",
            description="Retrieves the KEGG pathways for a gene identifier",
            service_authority="KEGG",
            service_name="KEGGService",
            service_uri="http://soap.genome.jp/KEGG.wsdl",
        )
        .add_module(
            "extract",
            label="extract_gene_identifiers",
            module_type="beanshell",
            script='Pattern p = Pattern.compile("[A-Z]{2}_[0-9]+");',
        )
        .add_module("merge", label="Merge_string_list", module_type="stringmerge")
        .add_module(
            "genes",
            label="get_genes_by_pathway",
            module_type="wsdl",
            service_authority="KEGG",
            service_name="KEGGService",
            service_uri="http://soap.genome.jp/KEGG.wsdl",
        )
        .chain("fetch", "extract", "merge", "genes")
        .build()
    )


@pytest.fixture()
def blast_workflow():
    """A workflow from a different domain (sequence alignment)."""
    return (
        WorkflowBuilder(
            "wf-blast",
            title="BLAST search workflow for protein sequences",
            description="Runs a BLAST similarity search for a protein sequence and aligns the hits",
            tags=("blast", "alignment", "protein"),
            author="carol",
        )
        .add_module(
            "blast",
            label="run_blast_search",
            module_type="wsdl",
            service_authority="EBI",
            service_name="WSBlast",
            service_uri="http://www.ebi.ac.uk/Tools/services/soap/ncbiblast.wsdl",
        )
        .add_module(
            "status",
            label="check_blast_status",
            module_type="wsdl",
            service_authority="EBI",
            service_name="WSBlast",
            service_uri="http://www.ebi.ac.uk/Tools/services/soap/ncbiblast.wsdl",
        )
        .add_module(
            "filter",
            label="Filter_significant_hits",
            module_type="rshell",
            script="hits <- read.table(input)",
        )
        .chain("blast", "status", "filter")
        .build()
    )


@pytest.fixture()
def untagged_workflow():
    """A workflow without tags and without a description."""
    return (
        WorkflowBuilder("wf-untagged", title="", description="", tags=())
        .add_module("only", label="lonely_module", module_type="beanshell", script="x = 1;")
        .build()
    )


# -- corpus-level fixtures (session scoped, deterministic) ---------------------


@pytest.fixture(scope="session")
def small_corpus():
    """A small synthetic myExperiment-style corpus."""
    return generate_myexperiment_corpus(CorpusSpec(workflow_count=120, seed=11, author_count=20))


@pytest.fixture(scope="session")
def small_galaxy_corpus():
    """A small synthetic Galaxy-style corpus."""
    return generate_galaxy_corpus(GalaxyCorpusSpec(workflow_count=40, seed=12))


@pytest.fixture(scope="session")
def small_study(small_corpus):
    """A gold-standard study over the small corpus."""
    return GoldStandardStudy(
        small_corpus, panel=ExpertPanel(expert_count=6, seed=4), seed=9
    )


@pytest.fixture(scope="session")
def ranking_data(small_study):
    """Experiment-1 data over the small corpus (4 queries, 8 candidates each)."""
    return small_study.run_ranking_experiment(query_count=4, candidates_per_query=8)


@pytest.fixture(scope="session")
def search_engine(small_corpus):
    return SimilaritySearchEngine(small_corpus.repository)


# -- serving: deterministic micro-batch folds ----------------------------------
#
# A tenant's search lane folds only the searches admitted while its
# batch runs, so the serve tests make folds happen by holding the lane
# busy rather than by racing a timer.

#: A search under a fold key no serve-test payload uses (BT, k=1).
PILOT_SEARCH = {"measure": {"name": "BT"}, "queries": ["1000"], "k": 1}


async def until(predicate, *, timeout: float = 10.0) -> None:
    """Yield to the event loop until ``predicate()`` holds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"condition not reached within {timeout}s")
        await asyncio.sleep(0.002)


@contextlib.asynccontextmanager
async def held_tenant_thread(server, tenant: str):
    """Block ``tenant``'s worker thread until the block exits.

    Requests admitted meanwhile stay in flight: a search dispatched onto
    the tenant's lane waits for the thread like any other work.
    """
    runtime = await server.tenants.get(tenant)
    gate = threading.Event()
    blocker = asyncio.ensure_future(runtime.run(gate.wait))
    try:
        yield
    finally:
        gate.set()
        await blocker


async def search_in_order(server, tenant: str, payloads, *, while_held=None) -> list:
    """POST each search payload, in order, while ``tenant``'s thread is held.

    Each payload is admitted — hence queued on the tenant's lane — before
    the next is sent.  The first goes onto the idle lane at once and then
    waits for the thread, so the lane is busy and the rest queue by fold
    key; lead with :data:`PILOT_SEARCH` to keep the lane busy under a key
    no payload shares.  ``while_held`` is awaited, if given, before the
    thread is released; the lane then runs the first search, and after it
    the queued folds, oldest fold key first.  Returns every response, in
    order.
    """
    path = f"/v1/{tenant}/search"
    clients = [ServeClient("127.0.0.1", server.port) for _ in payloads]
    tasks: "list[asyncio.Future]" = []
    try:
        async with held_tenant_thread(server, tenant):
            for client, payload in zip(clients, payloads):
                tasks.append(asyncio.ensure_future(client.post(path, payload)))
                await until(lambda: server.admission.inflight(tenant) == len(tasks))
            if while_held is not None:
                await while_held()
        return await asyncio.wait_for(asyncio.gather(*tasks), timeout=60.0)
    finally:
        for task in tasks:
            task.cancel()
        for client in clients:
            await client.close()


@pytest.fixture()
def serve_lanes():
    """Helpers that make serving concurrency deterministic (see above)."""
    return SimpleNamespace(
        PILOT_SEARCH=PILOT_SEARCH,
        until=until,
        held_tenant_thread=held_tenant_thread,
        search_in_order=search_in_order,
    )
