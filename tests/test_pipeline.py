"""End-to-end Ray Data pipeline tests (small synthetic corpus)."""

import os

import pyarrow as pa
import pytest

from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
    extract_page_text,
    pages_dataset,
    synthesize_pages_table,
)
from cmc_knowledge_graph_text2ttl_ray.stages.extract import extract_text_batch

N_PAGES = 300


@pytest.fixture(scope="module")
def kg_run(ray_session, tmp_path_factory):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    out_dir = str(tmp_path_factory.mktemp("kg_out"))
    pages = pages_dataset(N_PAGES, override_num_blocks=8)
    result = run_kg_pipeline(pages, out_dir=out_dir)
    result["out_dir"] = out_dir
    return result


def test_extract_text_byte_identical(ray_session):
    """North-rule invariant: engine extraction == golden text per url."""
    table = synthesize_pages_table(range(0, 120))
    out = extract_text_batch(table.drop_columns(["text"]))
    assert out["text"].to_pylist() == table["text"].to_pylist()


def test_extract_truncates_multi_root():
    table = synthesize_pages_table([5, 15, 25])  # template 5 = two roots
    out = extract_text_batch(table)
    for t in out["text"].to_pylist():
        assert t.count("</html>") == 1
        assert "1600" not in t


def test_run_kg_pipeline_has_docstring():
    # the argument check sits below the docstring, not above it
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    assert (run_kg_pipeline.__doc__ or "").startswith("Run the full pipeline")


def test_pipeline_produces_triples(kg_run):
    triples = kg_run["triples"].to_pandas()
    assert len(triples) > 200
    assert set(triples["object_kind"].unique()) == {"iri", "literal"}
    # the truncated second root's fact must never appear
    assert not (triples["object"] == "1600").any()


def test_pipeline_dedup_exact(kg_run):
    triples = kg_run["triples"].to_pandas()
    key_cols = ["subject", "predicate", "object", "object_lang", "object_datatype"]
    assert not triples.duplicated(subset=key_cols).any()


def test_canonicalization_merges_hot_entity_variants(kg_run):
    mapping = kg_run["entity_mapping"]
    acme = mapping[mapping["iri"].str.lower().str.contains("acme")]
    # ACME_CORP / Acme__Corp / Acme_Corp all map to one canonical IRI
    assert len(acme) >= 2
    assert acme["canonical"].nunique() == 1
    canonical = acme["canonical"].iloc[0]
    triples = kg_run["triples"].to_pandas()
    ent_iris = set(triples.loc[triples["subject"].str.startswith("http://example.org/entity/"), "subject"])
    for variant in acme["iri"]:
        if variant != canonical:
            assert variant not in ent_iris


def test_stats_and_errors(kg_run):
    stats = kg_run["stats"].to_pandas()
    errors = kg_run["errors"].to_pandas()
    # every non-empty page (9 of 10 templates) has exactly one stats row
    assert len(stats) == N_PAGES - N_PAGES // 10
    assert (stats["no_triples"] > 0).sum() > 0
    # empty pages are skipped with a diagnostic, never dropped silently
    assert len(errors) == N_PAGES // 10
    assert (errors["error"] == "empty-text").all()


def test_best_of_workflows_selection(kg_run):
    stats = kg_run["stats"].to_pandas()
    used = stats["workflow"].value_counts()
    # flagship wins on 8 of 9 non-empty templates; the financial-report
    # specialist wins exactly on its template (1 of 9); the minimal
    # titles_only variant never wins
    assert used.get("webpage_kg", 0) > 0.7 * len(stats)
    assert used.get("financial_report", 0) == pytest.approx(len(stats) / 9, rel=0.2)
    assert used.get("titles_only", 0) == 0


def test_ttl_sink_manifest_and_resume(kg_run, ray_session):
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import read_manifest

    out_dir = kg_run["out_dir"]
    manifest = read_manifest(os.path.join(out_dir, "ttl"))
    assert manifest["buckets"]
    total = sum(b["n_triples"] for b in manifest["buckets"].values())
    assert total == kg_run["triples"].count()
    # shards exist and parse back to the same triple count
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import parse_turtle

    parsed = 0
    for b in manifest["buckets"].values():
        with open(b["path"], encoding="utf8") as fh:
            parsed += len(parse_turtle(fh.read())[0])
    assert parsed == total


def test_rerun_is_deterministic(ray_session, tmp_path):
    """Same input → byte-identical TTL shards, independent of run."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    outs = []
    for run_dir in ("a", "b"):
        out_dir = str(tmp_path / run_dir)
        pages = pages_dataset(60, override_num_blocks=4 if run_dir == "a" else 7)
        run_kg_pipeline(pages, out_dir=out_dir, num_buckets=4)
        shards = {}
        ttl_dir = os.path.join(out_dir, "ttl")
        for f in sorted(os.listdir(ttl_dir)):
            if f.endswith(".ttl"):
                with open(os.path.join(ttl_dir, f), encoding="utf8") as fh:
                    shards[f] = fh.read()
        outs.append(shards)
    assert outs[0] == outs[1]


def test_extraction_runs_as_fused_tasks_without_actor_pool(ray_session,
                                                           tmp_path,
                                                           monkeypatch):
    """Extraction is a plain task, fused with the HTML→text map before it
    and the records-checkpoint write after it: a build starts no actor
    pool, so no extractor actor holds a CPU that the read, canonicalize
    and sink tasks need.  (Ray Data keeps a Parquet read apart from a
    ``batch_size`` map, so the read stays its own operator.)"""
    import pyarrow.parquet as pq
    import ray.data
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    ops, orig = [], StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            ops.append((type(op).__name__, op.name))
            stack.extend(op.input_dependencies)
        return orig(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    corpus = tmp_path / "pages.parquet"
    pq.write_table(synthesize_pages_table(range(40)), str(corpus))
    run_kg_pipeline(ray.data.read_parquet(str(corpus)),
                    out_dir=str(tmp_path / "out"), num_buckets=4)
    assert ops
    assert "ActorPoolMapOperator" not in {kind for kind, _ in ops}
    extract = [(kind, name) for kind, name in ops
               if "MapBatches(_extract_batch)" in name]
    assert extract and all(
        kind == "TaskPoolMapOperator" and name ==
        "MapBatches(extract_text_batch)->MapBatches(_extract_batch)->Write"
        for kind, name in extract), extract


def test_per_doc_ttl_parity_layout(ray_session, tmp_path):
    """Reference-parity sink: one TTL per document, set-deduped in-doc."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        default_plans,
        extraction_records,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import write_ttl_per_doc
    from cmc_knowledge_graph_text2ttl_ray.stages.triples import collect_prefixes
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import parse_turtle

    out = str(tmp_path / "per_doc")
    recs = extraction_records(pages_dataset(40, override_num_blocks=2))
    written = write_ttl_per_doc(recs, out, prefixes=collect_prefixes(default_plans()))
    df = written.to_pandas()
    assert len(df) == 40 - 40 // 10  # empty pages produce no file
    sample = df.iloc[0]
    triples, _ = parse_turtle(open(sample["path"], encoding="utf8").read())
    assert len(triples) == sample["n_triples"]


def test_extract_invalid_utf8_row_does_not_fail_block():
    """Regression (code review): mislabeled encodings map to empty text
    instead of failing the whole Arrow block."""
    import pyarrow as pa

    batch = pa.table({
        "url": ["https://x/ok", "https://x/bad"],
        "html": [b"<html><body>ok</body></html>", b"<html>\xff\xfe broken"],
    })
    out = extract_text_batch(batch)
    texts = out["text"].to_pylist()
    assert texts[0].endswith("</html>")
    assert texts[1] == ""


def test_kg_pipeline_canonical_join_mode(ray_session, tmp_path, monkeypatch):
    """Join-based (100-TB) canonicalization produces the same triples as the
    broadcast rewrite."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset

    r1 = run_kg_pipeline(pages_dataset(60, override_num_blocks=3))
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    r2 = run_kg_pipeline(pages_dataset(60, override_num_blocks=3))
    cols = ["subject", "predicate", "object", "object_kind"]
    t1 = r1["triples"].to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    t2 = r2["triples"].to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert t1.equals(t2)
    assert len(t1) > 50


def test_kg_pipeline_canonical_auto_mode(ray_session, tmp_path, monkeypatch):
    """Round-3 verdict: callers shouldn't need to pick a canonicalization
    path. The pipeline uses broadcast while the entity partial rows fit
    ``cluster.BROADCAST_JOIN_ROWS`` and flips to the join path beyond it —
    same triples both ways, on both the pinned and the checkpointed record
    paths."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset

    cols = ["subject", "predicate", "object", "object_kind"]
    # small corpus, default threshold → broadcast (mapping_df populated)
    r_b = run_kg_pipeline(pages_dataset(60, override_num_blocks=3))
    assert r_b["entity_mapping"] is not None
    # threshold 0 → every corpus is "too big" → join path (mapping_df None)
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    r_j = run_kg_pipeline(pages_dataset(60, override_num_blocks=3))
    assert r_j["entity_mapping"] is None
    t_b = r_b["triples"].to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    t_j = r_j["triples"].to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert t_b.equals(t_j)
    # checkpointed records exercise the parquet-metadata count branch
    r_c = run_kg_pipeline(pages_dataset(60, override_num_blocks=3),
                          out_dir=str(tmp_path / "o"), num_buckets=4)
    assert r_c["entity_mapping"] is None
    t_c = r_c["triples"].to_pandas()[cols].sort_values(cols).reset_index(drop=True)
    assert t_b.equals(t_c)


def test_metrics_written_via_ray(ray_session, tmp_path):
    """Metrics parquet must be written through Ray's writer (multi-node
    correct), not worker-local file handles."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset

    out = str(tmp_path / "o")
    run_kg_pipeline(pages_dataset(40, override_num_blocks=2), out_dir=out,
                    num_buckets=4)
    m = ray.data.read_parquet(f"{out}/metrics").to_pandas()
    assert len(m) > 0
    assert {"doc_url", "workflow", "score"} <= set(m.columns)
    # one stats row per (doc, workflow) pair — no duplicated rows
    assert not m.duplicated(["doc_url", "workflow"]).any()


def test_multimodal_resize_frames_audio(ray_session):
    """Round-2 multimodal stages: resize dims, frame fan-out, audio features."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.multimodal import (
        audio_features,
        resize_media,
        sample_frames,
    )

    rows = pa.table({
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "payload": pa.array([f"media-{i}".encode() for i in range(6)], pa.binary()),
        "n_frames": pa.array([8, 8, 12, 12, 4, 4], pa.int64()),
    })
    ds = ray.data.from_arrow(rows)

    resized = resize_media(ds, out_height=4, out_width=4).to_pandas()
    assert set(resized["height"]) == {4} and set(resized["width"]) == {4}
    assert all(len(p) == 16 for p in resized["payload"])
    # deterministic: same payload → same resized bytes
    again = resize_media(ray.data.from_arrow(rows), out_height=4, out_width=4).to_pandas()
    assert list(resized.sort_values("doc_id")["payload"]) == list(
        again.sort_values("doc_id")["payload"])

    frames = sample_frames(ds, every=4).to_pandas()
    # 8→2, 12→3, 4→1 sampled frames per doc
    per_doc = frames.groupby("doc_id").size().to_dict()
    assert per_doc == {0: 2, 1: 2, 2: 3, 3: 3, 4: 1, 5: 1}
    assert set(frames["frame_no"]) <= {0, 4, 8}

    audio = audio_features(ds).to_pandas()
    assert len(audio) == 6
    assert ((audio["rms"] > 0) & (audio["rms"] < 1)).all()
    assert ((audio["zcr"] >= 0) & (audio["zcr"] <= 1)).all()


def test_ttl_sink_writes_through_filesystem_abstraction(ray_session, tmp_path):
    """Sinks route all I/O through pyarrow.fs (round-2 verdict): writing
    through a non-local-path filesystem (SubTreeFileSystem with fs-relative
    paths) must produce identical shards + manifest and resume correctly."""
    import os

    from pyarrow import fs as pafs

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        default_plans,
        extraction_records,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        read_manifest,
        write_ttl_partitions,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.triples import collect_prefixes

    recs = extraction_records(
        pages_dataset(40, override_num_blocks=2)).materialize()
    import pyarrow.compute as pc

    triples = recs.map_batches(
        lambda t: t.filter(pc.equal(t["rec"], "triple")), batch_format="pyarrow")
    prefixes = collect_prefixes(default_plans())

    local_dir = str(tmp_path / "local")
    m1 = write_ttl_partitions(triples, local_dir, prefixes=prefixes,
                              num_buckets=4)

    subtree_root = str(tmp_path / "subtree")
    os.makedirs(subtree_root)
    subfs = pafs.SubTreeFileSystem(subtree_root, pafs.LocalFileSystem())
    m2 = write_ttl_partitions(triples, "out/ttl", prefixes=prefixes,
                              num_buckets=4, filesystem=subfs)
    assert {b: v["n_triples"] for b, v in m1["buckets"].items()} == \
           {b: v["n_triples"] for b, v in m2["buckets"].items()}
    for b, v in m1["buckets"].items():
        with open(v["path"], encoding="utf8") as fh:
            local_bytes = fh.read()
        sub_path = os.path.join(subtree_root, m2["buckets"][b]["path"])
        with open(sub_path, encoding="utf8") as fh:
            assert fh.read() == local_bytes
    # manifest read-back + resume skip through the injected fs
    m3 = read_manifest("out/ttl", filesystem=subfs)
    assert m3["buckets"].keys() == m2["buckets"].keys()
    m4 = write_ttl_partitions(triples, "out/ttl", prefixes=prefixes,
                              num_buckets=4, filesystem=subfs, resume=True)
    assert m4["buckets"].keys() == m2["buckets"].keys()


def test_ttl_sink_all_missing_lang_float_column(ray_session, tmp_path):
    """Round-3 review: an all-missing object_lang/datatype column inferred
    as float64 must serialize as plain literals — never '@nan' tags."""
    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import write_ttl_partitions

    df = pd.DataFrame({
        "subject": ["http://e/s1", "http://e/s2"],
        "predicate": ["http://e/p", "http://e/p"],
        "object": ["v1", "v2"],
        "object_kind": ["literal", "literal"],
        "object_lang": [None, None],
        "object_datatype": [None, None],
    })
    # float64 inference for the all-None columns
    df["object_lang"] = df["object_lang"].astype("float64")
    df["object_datatype"] = df["object_datatype"].astype("float64")
    out = str(tmp_path / "ttl")
    write_ttl_partitions(ray.data.from_pandas(df), out, num_buckets=2)
    import glob

    text = "".join(open(p, encoding="utf8").read()
                   for p in glob.glob(out + "/part-*.ttl"))
    assert '"v1"' in text and '"v2"' in text
    assert "nan" not in text


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_RAY_SCRIPT = """
import sys
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         logging_level="ERROR", log_to_driver=False,
         object_store_memory=200 * 2**20)
import ray.data
ray.data.DataContext.get_current().enable_progress_bars = False
from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
"""


def _run_script(body, env, cwd, timeout, cpus=1):
    import subprocess
    import sys

    return subprocess.run(
        [sys.executable, "-c", _RAY_SCRIPT.format(repo=REPO, cpus=cpus) + body],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_build_at_one_cpu_matches_golden(tmp_path):
    """At 1 Ray CPU the build finishes and matches the golden triples
    (an extractor actor pool once held the only CPU and the build
    stalled)."""
    import json

    proc = _run_script("""
import json
recs = run_kg_pipeline(pages_dataset(60, override_num_blocks=3))["records"]
df = recs.to_pandas()
df = df[df["rec"] == "triple"]
cols = ["subject", "predicate", "object", "object_kind", "object_lang",
        "object_datatype"]
out = {}
for url, g in df.groupby("doc_url"):
    out[url] = [[None if v != v else v for v in row]
                for row in g[cols].itertuples(index=False, name=None)]
print("TRIPLES=" + json.dumps(out))
""", env=dict(os.environ, PYTHONPATH=REPO), cwd=str(tmp_path), timeout=150)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("TRIPLES=")]
    got = json.loads(line[0][len("TRIPLES="):])
    with open(os.path.join(REPO, "tests", "golden_triples.json")) as fh:
        golden = json.load(fh)
    for url, expected in golden.items():
        assert (set(map(tuple, got.get(url, [])))
                == set(map(tuple, expected["triples"]))), url


@pytest.mark.parametrize("cpus", [1, 2])
def test_canonical_hash_tier_build_at_low_cpus(tmp_path, cpus):
    """A checkpointed build whose canonical rewrite takes the hash-join
    tier (gate 0) finishes at 1 and 2 Ray CPUs and writes the default
    build's shards byte for byte (the join's aggregator actors once
    reserved the CPUs its shuffle tasks needed, and the build stalled)."""
    proc = _run_script("""
import glob, os
from cmc_knowledge_graph_text2ttl_ray.functions import cluster

def shards(out):
    run_kg_pipeline(pages_dataset(300, override_num_blocks=4), out_dir=out,
                    num_buckets=8)
    return {os.path.basename(p): open(p, "rb").read()
            for p in glob.glob(os.path.join(out, "ttl", "part-*.ttl"))}

default = shards("default")
cluster.BROADCAST_JOIN_ROWS = 0
print("SHARDS", len(default), shards("gate0") == default)
""", env=dict(os.environ, PYTHONPATH=REPO), cwd=str(tmp_path), timeout=150,
        cpus=cpus)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "SHARDS 8 True" in proc.stdout, proc.stdout[-2000:]


def test_unimportable_workers_fail_by_name(tmp_path):
    """Workers that cannot import the package (checkout on the calling
    script's sys.path only) raise at once instead of hanging the build."""
    import time

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    t0 = time.time()
    proc = _run_script("""
try:
    run_kg_pipeline(pages_dataset(4))
except RuntimeError as exc:
    print("RAISED " + str(exc))
""", env=env, cwd=str(tmp_path), timeout=60)
    assert time.time() - t0 < 60
    assert "RAISED" in proc.stdout, proc.stderr[-2000:]
    assert "cmc_knowledge_graph_text2ttl_ray" in proc.stdout
    assert "PYTHONPATH" in proc.stdout
