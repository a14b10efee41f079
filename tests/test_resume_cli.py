"""Wave-checkpoint resume, CLI, uploader, giant-row guard."""

import json
import os
import subprocess
import sys

import pytest

from cmc_knowledge_graph_text2ttl_ray.sources.pages import generate_pages_parquet


def test_wave_resume_skips_completed(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline_waves

    src = str(tmp_path / "pages")
    generate_pages_parquet(src, 200, num_files=8)
    files = sorted(
        os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")
    )
    out = str(tmp_path / "out")
    res1 = run_kg_pipeline_waves(files, out, wave_size=3)
    assert len(res1["waves"]) == 3  # 8 files / 3 per wave
    total1 = sum(b["n_triples"] for b in res1["manifest"]["buckets"].values())
    assert total1 > 0

    # Simulate a crash after wave 0: drop later waves from the manifest and
    # delete their records; the resumed run must regenerate ONLY those.
    with open(os.path.join(out, "waves.json")) as fh:
        waves = json.load(fh)
    import shutil

    for key in list(waves):
        if key != "wave=00000":
            shutil.rmtree(waves[key]["records_dir"])
            del waves[key]
    with open(os.path.join(out, "waves.json"), "w") as fh:
        json.dump(waves, fh)
    kept_mtime = os.path.getmtime(os.path.join(out, "records", "wave=00000"))

    res2 = run_kg_pipeline_waves(files, out, wave_size=3)
    total2 = sum(b["n_triples"] for b in res2["manifest"]["buckets"].values())
    assert total2 == total1
    # completed wave untouched
    assert os.path.getmtime(os.path.join(out, "records", "wave=00000")) == kept_mtime


def test_cli_doc_mode(tmp_path):
    doc = tmp_path / "doc.html"
    doc.write_text(
        "<html><head><title>T</title></head><body>"
        "<p>Acme Corp was founded in 1987.</p></body></html>"
    )
    out = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "doc",
         "--workflow", "workflows/webpage_kg.yaml", "--text", str(doc),
         "-d", "doc=mydoc"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert out.returncode == 0, out.stderr
    assert "ent:Acme_Corp" in out.stdout
    assert "foundedIn 1987" in out.stdout
    assert "workflow=webpage_kg" in out.stderr


def test_uploader_local_dir(tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.stages.uploader import (
        GraphUploader,
        LocalDirUploader,
        UploadError,
    )

    up = LocalDirUploader(str(tmp_path))
    p1 = up.upload("a b c .\n", "db1", "http://g/1", verb="PUT")
    up.upload("d e f .\n", "db1", "http://g/1", verb="POST")
    assert open(p1).read() == "a b c .\nd e f .\n"
    up.upload("x y z .\n", "db1", "http://g/1", verb="PUT")  # PUT replaces
    assert open(p1).read() == "x y z .\n"
    with pytest.raises(UploadError):
        up.upload("t", "db1", "g", verb="PATCH")
    with pytest.raises(UploadError):
        GraphUploader(max_retries=1).upload("t", "db", "g")  # stub retries then fails


def test_giant_row_guard():
    from cmc_knowledge_graph_text2ttl_ray.stages.triples import TripleExtractor
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import default_plans, default_graphs
    import pyarrow as pa

    ex = TripleExtractor(default_plans(), graphs_ttl=default_graphs(),
                         max_text_chars=100)
    big = "<html><body>" + "x" * 10_000 + "</body></html>"
    batch = pa.table({"url": ["https://x/1"], "text": [big]})
    out = ex(batch).to_pylist()
    errs = [r for r in out if r["rec"] == "error"]
    assert any("truncated-to-100" in (r["error"] or "") for r in errs)
    # the doc is still processed (stats row exists)
    assert any(r["rec"] == "stats" for r in out)


def test_records_checkpoint_invalidated_on_plan_change(ray_session, tmp_path):
    """A resumed run with a DIFFERENT workflow set must not reuse stale
    extraction records."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.state.plan import compile_workflow

    out = str(tmp_path / "o")
    pages = pages_dataset(40, override_num_blocks=2)
    r1 = run_kg_pipeline(pages, out_dir=out, num_buckets=4)
    n1 = sum(b["n_triples"] for b in r1["manifest"]["buckets"].values())

    tiny = compile_workflow(
        "- prefix: ex\n  iri: http://e/\n"
        "- match: \"<title>(.*?)</title>\"\n  as: t\n  do:\n"
        "    - subject: ex:d\n      predicate: ex:t\n      object:\n        text: \"@{t.1}\"\n",
        name="tiny",
    )
    pages2 = pages_dataset(40, override_num_blocks=2)
    r2 = run_kg_pipeline(pages2, out_dir=out, num_buckets=4,
                         plans=[tiny], resume=False)
    n2 = sum(b["n_triples"] for b in r2["manifest"]["buckets"].values())
    assert n2 < n1  # records were regenerated with the tiny plan

    # resume=True with the tiny plan again: checkpoint fingerprint matches →
    # records reused, same result
    pages3 = pages_dataset(40, override_num_blocks=2)
    r3 = run_kg_pipeline(pages3, out_dir=out, num_buckets=4,
                         plans=[tiny], resume=True)
    # ttl manifest resume skips all buckets; counts retained from r2 manifest
    assert sum(b["n_triples"] for b in r3["manifest"]["buckets"].values()) == n2


def test_ttl_manifest_invalidated_on_plan_change_with_resume(ray_session, tmp_path):
    """ADVICE r1 (high): resume=True after a plan change must not serve
    old-plan TTL shards from the stale bucket manifest."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.state.plan import compile_workflow

    out = str(tmp_path / "o")
    r1 = run_kg_pipeline(pages_dataset(40, override_num_blocks=2), out_dir=out,
                         num_buckets=4)
    n1 = sum(b["n_triples"] for b in r1["manifest"]["buckets"].values())

    tiny = compile_workflow(
        "- prefix: ex\n  iri: http://e/\n"
        "- match: \"<title>(.*?)</title>\"\n  as: t\n  do:\n"
        "    - subject: ex:d\n      predicate: ex:t\n      object:\n        text: \"@{t.1}\"\n",
        name="tiny",
    )
    # resume=True (the default path a user hits), different plan set
    r2 = run_kg_pipeline(pages_dataset(40, override_num_blocks=2), out_dir=out,
                         num_buckets=4, plans=[tiny], resume=True)
    n2 = sum(b["n_triples"] for b in r2["manifest"]["buckets"].values())
    assert 0 < n2 < n1  # buckets were rewritten with the new plan, not skipped


def test_wave_retry_clears_partial_records(ray_session, tmp_path):
    """ADVICE r1 (medium): a mid-wave crash leaves partial parquet files;
    the retried wave must not duplicate them."""
    import pyarrow.parquet as pq
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline_waves

    src = str(tmp_path / "pages")
    generate_pages_parquet(src, 100, num_files=4)
    files = sorted(
        os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")
    )
    out = str(tmp_path / "out")
    res1 = run_kg_pipeline_waves(files, out, wave_size=2)
    recs_dir = os.path.join(out, "records")
    n_rows_clean = ray.data.read_parquet(recs_dir, file_extensions=["parquet"]).count()

    # simulate crash: wave 1 wrote part files but never made it into waves.json
    with open(os.path.join(out, "waves.json")) as fh:
        waves = json.load(fh)
    del waves["wave=00001"]
    with open(os.path.join(out, "waves.json"), "w") as fh:
        json.dump(waves, fh)
    # leave the partial files in place (the crash scenario) and retry
    res2 = run_kg_pipeline_waves(files, out, wave_size=2)
    n_rows_retry = ray.data.read_parquet(recs_dir, file_extensions=["parquet"]).count()
    assert n_rows_retry == n_rows_clean  # no duplicated wave records
    t1 = sum(b["n_triples"] for b in res1["manifest"]["buckets"].values())
    t2 = sum(b["n_triples"] for b in res2["manifest"]["buckets"].values())
    assert t1 == t2


def test_cli_jsonl_pages(tmp_path):
    """JSON-lines page corpus through the run CLI."""
    import json as _json

    rows = []
    for i in range(6):
        rows.append({
            "url": f"https://x/{i}",
            "html": (f"<html><head><title>Doc {i}</title></head><body>"
                     f"<p>Acme Corp was founded in 1987.</p></body></html>"),
        })
    src = tmp_path / "pages.jsonl"
    src.write_text("\n".join(_json.dumps(r) for r in rows))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "run",
         "--pages", f"jsonl:{src}", "--out", str(out_dir),
         "--num-cpus", "4", "--num-buckets", "4"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["n_triples"] > 0


def test_waves_canonical_join_mode(ray_session, tmp_path, monkeypatch):
    # The wave build canonicalizes through the shared broadcast gate: a
    # small corpus takes the broadcast dict, gate 0 the join rewrite.
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline_waves
    from cmc_knowledge_graph_text2ttl_ray.stages import canonicalize

    src = str(tmp_path / "pages")
    generate_pages_parquet(src, 120, num_files=4)
    files = sorted(
        os.path.join(src, f) for f in os.listdir(src) if f.endswith(".parquet")
    )
    calls, join = [], canonicalize.apply_canonical_mapping_join

    def spy(*args, **kwargs):
        calls.append(1)
        return join(*args, **kwargs)

    monkeypatch.setattr(canonicalize, "apply_canonical_mapping_join", spy)
    r_b = run_kg_pipeline_waves(files, str(tmp_path / "o1"), wave_size=2)
    assert r_b["entity_mapping"] is not None
    assert not calls
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    r_j = run_kg_pipeline_waves(files, str(tmp_path / "o2"), wave_size=2)
    assert r_j["entity_mapping"] is None
    assert calls
    tb = sum(b["n_triples"] for b in r_b["manifest"]["buckets"].values())
    tj = sum(b["n_triples"] for b in r_j["manifest"]["buckets"].values())
    assert tb == tj > 0


def test_waves_resume_across_layout_migration(ray_session, tmp_path):
    """Round-3 review: a resumed run must still read waves checkpointed by
    the previous FLAT (non rec-partitioned) layout alongside new
    partitioned waves — no silent record loss."""
    import glob
    import os

    import pyarrow.compute as pc
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        extraction_records,
        run_kg_pipeline_waves,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset

    out = str(tmp_path / "out")
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for i in range(2):
        pages_dataset(60, override_num_blocks=1).write_parquet(
            str(in_dir / f"f{i}"))
    files = sorted(glob.glob(str(in_dir / "f*" / "*.parquet")))

    # simulate the OLD layout: run wave 0 manually, flat, and record it
    import json

    os.makedirs(os.path.join(out, "records"), exist_ok=True)
    flat_dir = os.path.join(out, "records", "wave=00000")
    extraction_records(
        ray.data.read_parquet(files[:1])).write_parquet(flat_dir)
    with open(os.path.join(out, "waves.json"), "w") as fh:
        json.dump({"wave=00000": {"files": files[:1],
                                  "records_dir": flat_dir}}, fh)

    res = run_kg_pipeline_waves(files, out, wave_size=1,
                                num_buckets=4)
    total = sum(b["n_triples"] for b in res["manifest"]["buckets"].values())
    # both waves' triples must be present: compare against a direct run
    direct = extraction_records(ray.data.read_parquet(files))
    n_direct = direct.map_batches(
        lambda t: t.filter(pc.equal(t["rec"], "triple")),
        batch_format="pyarrow").count()
    # the sink dedups exact duplicates, so total <= n_direct, but wave 0's
    # docs must contribute: a partitioned-only read would have lost them
    stats_rows = ray.data.read_parquet(
        os.path.join(out, "metrics")).count()
    n_direct_stats = direct.map_batches(
        lambda t: t.filter(pc.equal(t["rec"], "stats")),
        batch_format="pyarrow").count()
    # metrics must cover BOTH waves' documents, exactly matching a direct
    # run over all files (a partitioned-only read would halve this)
    assert stats_rows == n_direct_stats
    assert total > 0 and n_direct > 0


def test_cli_csv_pages_route(ray_session, tmp_path):
    """csv: pages route runs the KG pipeline end-to-end."""
    import subprocess
    import sys

    csv = tmp_path / "pages.csv"
    csv.write_text(
        'url,html\n'
        'http://x/1,"<html><body><h1>Acme Corp</h1><p>Founded in 1999.'
        '</p></body></html>"\n'
        'http://x/2,"<html><body><h1>Beta GmbH</h1><p>Founded in 2005.'
        '</p></body></html>"\n')
    out = tmp_path / "out"
    r = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "run",
         "--pages", f"csv:{csv}", "--out", str(out), "--num-cpus", "4"],
        capture_output=True, text=True, timeout=240,
        cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-800:]
    assert (out / "ttl").is_dir()
    assert any(f.name.endswith((".ttl", ".ttl.gz"))
               for f in (out / "ttl").iterdir())


def test_cli_query_sparql_over_published_kg(tmp_path):
    """run → query round trip: build a small KG via the CLI, then SPARQL
    it from the published TTL shards (the query CLI auto-detects TTL dir
    vs triple store)."""
    out_dir = tmp_path / "kg"
    proc = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "run",
         "--pages", "synth:20", "--out", str(out_dir),
         "--num-cpus", "4", "--num-buckets", "4"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    q = ("PREFIX kg: <http://example.org/kg/> "
         "SELECT ?e (COUNT(*) AS ?n) WHERE { ?d kg:mentions ?e . } "
         "GROUP BY ?e")
    proc = subprocess.run(
        [sys.executable, "-m", "cmc_knowledge_graph_text2ttl_ray", "query",
         "--kg", str(out_dir), "--sparql", q, "--num-cpus", "4",
         "--max-print", "50"],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [ln for ln in proc.stdout.strip().splitlines() if ln]
    assert lines[0] == "e,n"
    assert len(lines) > 1
    assert all("," in ln for ln in lines[1:])
