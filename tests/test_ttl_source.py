"""Round-trip tests for sources/ttl.py: sink-serialized shards must read
back into the exact triple set."""

import pandas as pd
import pytest

TRIPLES = [
    ("http://e/s1", "http://e/p", "http://e/o1", "iri", None, None),
    ("http://e/s1", "http://e/p", "hello \"quoted\"\nline", "literal",
     None, None),
    ("http://e/s2", "http://e/name", "Born", "literal", "en", None),
    ("http://e/s2", "http://e/count", "42", "literal", None,
     "http://www.w3.org/2001/XMLSchema#integer"),
    ("http://e/s2", "http://e/score", "1.5", "literal", None,
     "http://www.w3.org/2001/XMLSchema#float"),
    ("http://e/s3", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
     "http://e/Class", "iri", None, None),
]
PREFIXES = {"e": "http://e/"}


def _write_shards(tmp_path, serializer):
    for i, chunk in enumerate([TRIPLES[:3], TRIPLES[3:]]):
        (tmp_path / f"shard-{i}.ttl").write_text(
            serializer(chunk, PREFIXES), encoding="utf-8")
    # non-ttl files must be ignored by the reader
    (tmp_path / "manifest.json").write_text("{}")
    return str(tmp_path)


def _norm(df: pd.DataFrame) -> set:
    return set(map(tuple, df[["subject", "predicate", "object",
                              "object_kind", "object_lang",
                              "object_datatype"]]
                   .fillna("\x00").itertuples(index=False)))


@pytest.mark.parametrize("style", ["plain", "long"])
def test_ttl_roundtrip(ray_session, tmp_path, style):
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import (
        serialize_longturtle,
        serialize_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset

    ser = serialize_triples if style == "plain" else serialize_longturtle
    d = _write_shards(tmp_path, ser)
    got = ttl_dataset(d).to_pandas()
    want = pd.DataFrame(
        TRIPLES, columns=["subject", "predicate", "object", "object_kind",
                          "object_lang", "object_datatype"])
    assert _norm(got) == _norm(want)


def test_ttl_src_file_column(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import (
        serialize_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset

    d = _write_shards(tmp_path, serialize_triples)
    got = ttl_dataset(d, include_src_file=True).to_pandas()
    assert got["src_file"].str.endswith(".ttl").all()
    assert got["src_file"].nunique() == 2


def test_ttl_kg_sink_roundtrip(ray_session, tmp_path):
    """The KG pipeline's own sink output reads back: triple set equality
    against the dataset that produced it."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_ttl_partitions,
    )

    res = run_kg_pipeline(pages_dataset(60))
    triples = res["triples"]
    out = tmp_path / "kg"
    write_ttl_partitions(triples, str(out), num_buckets=3)
    back = ttl_dataset(str(out)).to_pandas()
    assert _norm(back) == _norm(triples.to_pandas())


def test_kg_diff_added_removed(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import serialize_triples
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import kg_diff

    shared = TRIPLES[:4]
    removed = TRIPLES[4]          # only in old
    added = TRIPLES[5]            # only in new
    old_d, new_d = tmp_path / "old", tmp_path / "new"
    old_d.mkdir(); new_d.mkdir()
    (old_d / "a.ttl").write_text(
        serialize_triples(shared + [removed], PREFIXES), encoding="utf-8")
    (new_d / "a.ttl").write_text(
        serialize_triples(shared[:2] + [added], PREFIXES), encoding="utf-8")
    (new_d / "b.ttl").write_text(
        serialize_triples(shared[2:4], PREFIXES), encoding="utf-8")

    diff = kg_diff(str(old_d), str(new_d), num_partitions=4).to_pandas()
    assert len(diff) == 2
    add_row = diff[diff["change"] == "added"].iloc[0]
    rem_row = diff[diff["change"] == "removed"].iloc[0]
    assert (add_row["subject"], add_row["predicate"]) == (added[0], added[1])
    assert (rem_row["subject"], rem_row["predicate"]) == (removed[0], removed[1])


def test_kg_diff_identical_graphs_empty(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import serialize_triples
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import kg_diff

    for name in ("old", "new"):
        d = tmp_path / name
        d.mkdir()
        (d / "x.ttl").write_text(serialize_triples(TRIPLES, PREFIXES),
                                 encoding="utf-8")
    assert kg_diff(str(tmp_path / "old"), str(tmp_path / "new"),
                   num_partitions=4).count() == 0


def test_ttl_gzip_roundtrip(ray_session, tmp_path):
    """Gzip'd shards (the bandwidth-bound sink mode) read back identically,
    and shard bytes are deterministic across runs (mtime pinned)."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_ttl_partitions,
    )

    cols = ["subject", "predicate", "object", "object_kind",
            "object_lang", "object_datatype"]
    rows = [dict(zip(cols, t)) for t in TRIPLES]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    for out in (out1, out2):
        write_ttl_partitions(ray.data.from_items(rows), str(out),
                             prefixes=PREFIXES, num_buckets=2,
                             compression="gzip")
    import os

    names = sorted(os.listdir(out1))
    assert any(n.endswith(".ttl.gz") for n in names)
    for n in names:
        if n.endswith(".gz"):
            assert (out1 / n).read_bytes() == (out2 / n).read_bytes()
    back = ttl_dataset(str(out1)).to_pandas()
    assert _norm(back) == _norm(pd.DataFrame(TRIPLES, columns=cols))


def test_ttl_sink_compression_toggle_no_double_read(ray_session, tmp_path):
    """Plain run → gzip rerun on the same dir: manifest invalidates, the
    stale plain shards are replaced, and the read-back triple set is
    exactly the input (round-3 review: double-read)."""
    import os

    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_ttl_partitions,
    )

    cols = ["subject", "predicate", "object", "object_kind",
            "object_lang", "object_datatype"]
    rows = [dict(zip(cols, t)) for t in TRIPLES]
    out = tmp_path / "toggle"
    write_ttl_partitions(ray.data.from_items(rows), str(out),
                         prefixes=PREFIXES, num_buckets=2)
    assert any(n.endswith(".ttl") for n in os.listdir(out))
    write_ttl_partitions(ray.data.from_items(rows), str(out),
                         prefixes=PREFIXES, num_buckets=2,
                         compression="gzip", resume=True)
    names = [n for n in os.listdir(out) if n.startswith("part-")]
    assert all(n.endswith(".ttl.gz") for n in names), names
    back = ttl_dataset(str(out)).to_pandas()
    assert _norm(back) == _norm(pd.DataFrame(TRIPLES, columns=cols))
