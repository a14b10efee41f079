"""Expanded-JSON-LD serializer, sink and reader."""

import pandas as pd
import pytest
import ray

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

ROWS = [
    ("urn:a", RDF_TYPE, "urn:Person", "iri", None, None),
    ("urn:a", "urn:name", "Ann", "literal", None, None),
    ("urn:a", "urn:age", "30", "literal", None,
     "http://www.w3.org/2001/XMLSchema#integer"),
    ("urn:a", "urn:label", "Anne", "literal", "en", None),
    ("urn:a", "urn:knows", "urn:b", "iri", None, None),
    ("urn:b", "urn:name", "Bob", "literal", None, None),
]
COLS = ["subject", "predicate", "object", "object_kind",
        "object_lang", "object_datatype"]


def test_jsonld_text_round_trip():
    from cmc_knowledge_graph_text2ttl_ray.functions.jsonld import (
        parse_jsonld,
        serialize_jsonld,
    )

    txt = serialize_jsonld(ROWS)
    assert txt.startswith("[")
    assert '"@type": ["urn:Person"]' in txt
    assert '"@language": "en"' in txt
    back = parse_jsonld(txt)
    assert sorted(back) == sorted(tuple(r) for r in ROWS)
    # duplicates dedup; byte-determinism
    assert serialize_jsonld(ROWS + ROWS[:2]) == txt


def test_jsonld_sink_reader_round_trip(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import jsonld_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_jsonld_partitions,
    )

    ds = ray.data.from_pandas(pd.DataFrame(ROWS, columns=COLS))
    out = str(tmp_path / "jl")
    m = write_jsonld_partitions(ds, out, num_buckets=4, resume=False)
    assert sum(b["n_triples"] for b in m["buckets"].values()) == len(ROWS)
    got = jsonld_dataset(out).to_pandas()
    got = got.where(got.notna(), None)
    assert sorted(map(tuple, got.to_numpy())) == sorted(
        tuple(r) for r in ROWS)


def test_jsonld_shards_partition_invariant(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_jsonld_partitions,
    )

    df = pd.DataFrame(ROWS, columns=COLS)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    write_jsonld_partitions(ray.data.from_pandas(df), a,
                            num_buckets=4, resume=False)
    write_jsonld_partitions(ray.data.from_pandas(df).repartition(5), b,
                            num_buckets=4, resume=False)
    import pathlib
    fa = {p.name: p.read_bytes()
          for p in pathlib.Path(a).glob("*.jsonld")}
    fb = {p.name: p.read_bytes()
          for p in pathlib.Path(b).glob("*.jsonld")}
    assert fa == fb and fa


def test_kg_pipeline_jsonld_output_matches_turtle(ray_session, tmp_path):
    """Flagship pipeline with --output-format jsonld produces the same
    triple SET as the turtle sink."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        run_kg_pipeline,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
        pages_dataset,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import (
        jsonld_dataset,
        ttl_dataset,
    )

    out_t = str(tmp_path / "ttl_run")
    out_j = str(tmp_path / "jl_run")
    run_kg_pipeline(pages_dataset(60, override_num_blocks=3),
                    out_dir=out_t, num_buckets=4,
                    output_format="turtle")
    run_kg_pipeline(pages_dataset(60, override_num_blocks=3),
                    out_dir=out_j, num_buckets=4,
                    output_format="jsonld")
    t = ttl_dataset(out_t + "/ttl").to_pandas()
    j = jsonld_dataset(out_j + "/jsonld").to_pandas()
    t = t.where(t.notna(), None)
    j = j.where(j.notna(), None)
    assert sorted(map(tuple, t.to_numpy())) == sorted(
        map(tuple, j.to_numpy()))
    assert len(t) > 0


def test_run_kg_pipeline_rejects_bad_format(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        run_kg_pipeline,
    )

    from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
        pages_dataset,
    )

    with pytest.raises(ValueError, match="output_format"):
        run_kg_pipeline(pages_dataset(10),
                        out_dir=str(tmp_path / "x"),
                        output_format="rdfxml")
