"""Tests for the command-line interface (python -m repro)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, load_workflow_file, main
from repro.workflow import WorkflowBuilder, dump_workflow, write_galaxy, write_scufl


@pytest.fixture()
def workflow_files(tmp_path, kegg_workflow, kegg_variant_workflow):
    json_path = tmp_path / "kegg.json"
    dump_workflow(kegg_workflow, json_path)
    xml_path = tmp_path / "variant.xml"
    xml_path.write_text(write_scufl(kegg_variant_workflow))
    galaxy_path = tmp_path / "pipeline.ga"
    galaxy_path.write_text(write_galaxy(kegg_variant_workflow))
    return json_path, xml_path, galaxy_path


@pytest.fixture()
def corpus_file(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    small_corpus.repository.save(path)
    return path


class TestLoadWorkflowFile:
    def test_load_internal_json(self, workflow_files):
        workflow = load_workflow_file(workflow_files[0])
        assert workflow.identifier == "wf-kegg"

    def test_load_scufl_xml(self, workflow_files):
        workflow = load_workflow_file(workflow_files[1])
        assert workflow.identifier == "wf-kegg-variant"

    def test_load_galaxy_ga(self, workflow_files):
        workflow = load_workflow_file(workflow_files[2])
        assert workflow.source_format == "galaxy"

    def test_galaxy_detected_from_json_content(self, tmp_path, kegg_workflow):
        path = tmp_path / "exported.json"
        path.write_text(write_galaxy(kegg_workflow))
        assert load_workflow_file(path).source_format == "galaxy"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare", "a.json", "b.json"])
        assert args.command == "compare"
        assert args.measure is None


class TestCommands:
    def test_compare_prints_scores(self, workflow_files, capsys):
        exit_code = main(
            ["compare", str(workflow_files[0]), str(workflow_files[1]), "--measure", "BW",
             "--measure", "MS_np_ta_pll"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "BW\t" in output
        assert "MS_np_ta_pll\t" in output

    def test_compare_default_measures(self, workflow_files, capsys):
        assert main(["compare", str(workflow_files[0]), str(workflow_files[1])]) == 0
        output = capsys.readouterr().out
        assert "BW+MS_ip_te_pll" in output

    def test_search_outputs_ranked_hits(self, corpus_file, small_corpus, capsys):
        query_id = small_corpus.repository.identifiers()[0]
        exit_code = main(
            ["search", str(corpus_file), query_id, "--measure", "BW", "-k", "5"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "top-5 results" in output
        assert query_id in output.splitlines()[0]

    def test_search_json_emits_result_set_with_diagnostics(
        self, corpus_file, small_corpus, capsys
    ):
        query_id = small_corpus.repository.identifiers()[0]
        exit_code = main(
            ["search", str(corpus_file), query_id, "--measure", "MS_ip_te_pll",
             "-k", "4", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "search"
        assert payload["queries"][0]["query_id"] == query_id
        assert len(payload["queries"][0]["hits"]) == 4
        assert payload["diagnostics"]["path"] == "pruned"

        from repro.api import ResultSet

        restored = ResultSet.from_json(json.dumps(payload))
        assert restored.for_query(query_id).hits[0].rank == 1

    def test_search_unknown_query_fails(self, corpus_file, capsys):
        exit_code = main(["search", str(corpus_file), "ghost", "--measure", "BW"])
        assert exit_code == 2
        assert "not found" in capsys.readouterr().err

    def test_search_batch_prints_all_queries(self, corpus_file, small_corpus, capsys):
        ids = small_corpus.repository.identifiers()[:3]
        exit_code = main(
            ["search-batch", str(corpus_file), "--queries", *ids, "--measure", "BW", "-k", "3"]
        )
        assert exit_code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[0] for line in lines] == ids

    def test_search_batch_writes_json(self, corpus_file, small_corpus, tmp_path):
        ids = small_corpus.repository.identifiers()[:2]
        output = tmp_path / "results.json"
        exit_code = main(
            [
                "search-batch", str(corpus_file), "--queries", *ids,
                "--measure", "MS_ip_te_pll", "-k", "4", "--output", str(output),
            ]
        )
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert set(payload["results"]) == set(ids)
        for hits in payload["results"].values():
            assert len(hits) <= 4
            assert all(set(hit) == {"workflow_id", "similarity", "rank"} for hit in hits)

    def test_search_batch_workers_reach_the_pool_with_equal_results(
        self, corpus_file, small_corpus, tmp_path
    ):
        from repro.perf import pool_available

        ids = small_corpus.repository.identifiers()[:4]
        payloads = {}
        for workers in ("2", "1"):
            output = tmp_path / f"workers-{workers}.json"
            exit_code = main(
                [
                    "search-batch", str(corpus_file), "--queries", *ids,
                    "--measure", "MS_ip_te_pll", "-k", "5",
                    "--workers", workers, "--output", str(output),
                ]
            )
            assert exit_code == 0
            payloads[workers] = json.loads(output.read_text())
        assert payloads["2"]["results"] == payloads["1"]["results"]
        assert payloads["1"]["diagnostics"]["path"] == "pruned"
        if pool_available():
            assert payloads["2"]["diagnostics"]["path"] == "parallel"
            assert payloads["2"]["diagnostics"]["workers"] == 2

    def test_search_batch_unknown_query_fails(self, corpus_file, capsys):
        exit_code = main(["search-batch", str(corpus_file), "--queries", "ghost"])
        assert exit_code == 2
        assert "not in corpus" in capsys.readouterr().err

    def test_generate_corpus_and_stats(self, tmp_path, capsys):
        output = tmp_path / "generated.json"
        assert main(["generate-corpus", str(output), "--workflows", "12", "--seed", "3"]) == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert len(payload["workflows"]) == 12

        assert main(["stats", str(output)]) == 0
        stats_output = capsys.readouterr().out
        assert "workflows:                 12" in stats_output
        assert "module categories:" in stats_output

    def test_generate_galaxy_corpus(self, tmp_path):
        output = tmp_path / "galaxy.json"
        assert main(
            ["generate-corpus", str(output), "--workflows", "8", "--format", "galaxy"]
        ) == 0
        payload = json.loads(output.read_text())
        assert len(payload["workflows"]) == 8

    def test_measures_listing(self, capsys):
        assert main(["measures"]) == 0
        output = capsys.readouterr().out.splitlines()
        assert "BW" in output
        assert "MS_ip_te_pll" in output
        assert len(output) == 74


class TestIndexCommands:
    def test_index_build_and_stats(self, corpus_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        exit_code = main(
            [
                "index", "build", str(corpus_file), "--cache-dir", str(cache_dir),
                "--warm-measure", "MS_ip_te_pll", "-k", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "warmed MS_ip_te_pll" in output
        assert "persisted" in output
        assert (cache_dir / "repro_store.sqlite").exists()

        assert main(["index", "stats", "--cache-dir", str(cache_dir)]) == 0
        stats_output = capsys.readouterr().out
        assert "workflows" in stats_output
        assert "pair_scores" in stats_output
        assert "postings" in stats_output

    def test_search_with_cache_dir_warm_starts(
        self, corpus_file, small_corpus, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        query_id = small_corpus.repository.identifiers()[0]
        assert main(
            [
                "index", "build", str(corpus_file), "--cache-dir", str(cache_dir),
                "--warm-measure", "MS_ip_te_pll", "-k", "4",
            ]
        ) == 0
        capsys.readouterr()
        # A separate invocation (fresh service) over the same cache dir
        # must serve pair scores from the persisted store.
        exit_code = main(
            [
                "search", str(corpus_file), query_id, "--measure", "MS_ip_te_pll",
                "-k", "4", "--cache-dir", str(cache_dir), "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["cache_warm_hits"] > 0

    def test_index_stats_missing_cache_dir_is_actionable(self, tmp_path, capsys):
        exit_code = main(["index", "stats", "--cache-dir", str(tmp_path / "nope")])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert error.startswith("error:")
        assert "repro index build" in error
        # The failed lookup must not have conjured an empty store.
        assert not (tmp_path / "nope").exists()


class TestStoreCommands:
    @pytest.fixture()
    def built_cache(self, corpus_file, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(
            [
                "index", "build", str(corpus_file), "--cache-dir", str(cache_dir),
                "--warm-measure", "MS_ip_te_pll", "-k", "3",
            ]
        ) == 0
        return cache_dir

    def corrupt(self, cache_dir):
        import sqlite3

        connection = sqlite3.connect(cache_dir / "repro_store.sqlite")
        connection.execute(
            "UPDATE pair_scores SET score = score + 0.25 "
            "WHERE rowid = (SELECT MIN(rowid) FROM pair_scores)"
        )
        connection.commit()
        connection.close()

    def test_verify_clean_store(self, built_cache, capsys):
        assert main(["store", "verify", "--cache-dir", str(built_cache)]) == 0
        output = capsys.readouterr().out
        assert "all checks passed" in output
        assert "workflows" in output and "pair_scores" in output

    def test_verify_missing_cache_dir(self, tmp_path, capsys):
        exit_code = main(["store", "verify", "--cache-dir", str(tmp_path / "nope")])
        assert exit_code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_verify_corrupt_store(self, built_cache, capsys):
        self.corrupt(built_cache)
        exit_code = main(["store", "verify", "--cache-dir", str(built_cache)])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert "checksum mismatch" in captured.out + captured.err
        assert "repro store repair" in captured.err

    def test_repair_clean_store_is_a_no_op(self, built_cache, capsys):
        assert main(["store", "repair", "--cache-dir", str(built_cache)]) == 0
        assert "nothing to repair" in capsys.readouterr().out
        assert not (built_cache / "quarantine").exists()

    def test_repair_salvages_corrupt_store(self, built_cache, capsys):
        self.corrupt(built_cache)
        assert main(["store", "repair", "--cache-dir", str(built_cache)]) == 0
        output = capsys.readouterr().out
        assert "quarantined" in output
        assert "store repaired" in output
        assert any((built_cache / "quarantine").iterdir())
        # And the rebuilt store verifies clean.
        assert main(["store", "verify", "--cache-dir", str(built_cache)]) == 0

    def test_repair_damaged_snapshot_needs_corpus(
        self, built_cache, corpus_file, capsys
    ):
        import sqlite3

        def wreck_snapshot():
            connection = sqlite3.connect(built_cache / "repro_store.sqlite")
            connection.execute(
                "UPDATE workflows SET payload = 'not json' "
                "WHERE rowid = (SELECT MIN(rowid) FROM workflows)"
            )
            connection.commit()
            connection.close()

        wreck_snapshot()
        exit_code = main(["store", "repair", "--cache-dir", str(built_cache)])
        assert exit_code == 1
        assert "corpus source" in capsys.readouterr().err
        # With --corpus (after index build recreates the file) repair succeeds.
        assert main(
            ["index", "build", str(corpus_file), "--cache-dir", str(built_cache)]
        ) == 0
        wreck_snapshot()
        capsys.readouterr()
        assert main(
            [
                "store", "repair", "--cache-dir", str(built_cache),
                "--corpus", str(corpus_file),
            ]
        ) == 0
        assert "store repaired" in capsys.readouterr().out
        assert main(["store", "verify", "--cache-dir", str(built_cache)]) == 0

    def test_repair_missing_cache_dir(self, tmp_path, capsys):
        exit_code = main(["store", "repair", "--cache-dir", str(tmp_path / "nope")])
        assert exit_code == 2
        assert capsys.readouterr().err.startswith("error:")
