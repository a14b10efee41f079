"""SHACL-lite shape validation (pipelines/shacl.py)."""

import pyarrow as pa
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.shacl import (
    RDF_TYPE,
    NodeShape,
    PropertyShape,
    validate_shapes,
)

XSD_INT = "http://www.w3.org/2001/XMLSchema#integer"

# (s, p, o, kind, datatype)
T = [
    ("p1", RDF_TYPE, "Person", "iri", None),
    ("p2", RDF_TYPE, "Person", "iri", None),
    ("p3", RDF_TYPE, "Person", "iri", None),
    ("p1", "name", "Alice", "literal", None),
    ("p2", "name", "Bob", "literal", None),
    ("p2", "name", "Bobby", "literal", None),      # maxCount 1 violated
    # p3 has no name → minCount violated
    ("p1", "knows", "p2", "iri", None),
    ("p3", "knows", "ghost", "iri", None),         # ghost untyped → class
    ("p1", "age", "33", "literal", XSD_INT),
    ("p2", "age", "abc", "literal", None),         # datatype violated
    ("p1", "status", "active", "literal", None),
    ("p2", "status", "weird", "literal", None),    # in violated
    ("x1", "name", "NotAPerson", "literal", None), # untyped: ignored
]

SHAPES = [NodeShape("PersonShape", "Person", [
    PropertyShape("name", min_count=1, max_count=1, node_kind="literal",
                  pattern="^[A-Z]"),
    PropertyShape("knows", class_="Person"),
    PropertyShape("age", datatype=XSD_INT),
    PropertyShape("status", in_values=["active", "inactive"]),
])]


def _ds(num_blocks=1):
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in T],
        "predicate": [t[1] for t in T],
        "object": [t[2] for t in T],
        "object_kind": [t[3] for t in T],
        "object_lang": pa.array([None] * len(T), pa.string()),
        "object_datatype": pa.array([t[4] for t in T], pa.string()),
    }))
    return ds.repartition(num_blocks) if num_blocks > 1 else ds


@pytest.mark.parametrize("num_blocks,hash_tier", [
    pytest.param(1, False, id="1"), pytest.param(4, False, id="4"),
    pytest.param(1, True, id="hash_tier")])
def test_all_constraint_kinds(ray_session, monkeypatch, num_blocks,
                              hash_tier):
    # hash_tier: every solution join takes the hash-shuffle tier
    if hash_tier:
        from cmc_knowledge_graph_text2ttl_ray.functions import cluster

        monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    df = validate_shapes(_ds(num_blocks), SHAPES).to_pandas()
    got = {(r.focus, r.path, r.constraint) for r in df.itertuples()}
    assert got == {
        ("p3", "name", "minCount"),
        ("p2", "name", "maxCount"),
        ("p3", "knows", "class"),
        ("p2", "age", "datatype"),
        ("p2", "status", "in"),
    }
    # details carry the offending value / count
    by_key = {(r.focus, r.constraint): r.detail for r in df.itertuples()}
    assert by_key[("p3", "minCount")] == "0"
    assert by_key[("p2", "maxCount")] == "2"
    assert by_key[("p2", "datatype")] == "abc"


def test_conformant_graph_is_empty(ray_session):
    good = [
        ("p1", RDF_TYPE, "Person", "iri", None),
        ("p2", RDF_TYPE, "Person", "iri", None),
        ("p1", "name", "Alice", "literal", None),
        ("p2", "name", "Bob", "literal", None),
        ("p1", "knows", "p2", "iri", None),
    ]
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in good],
        "predicate": [t[1] for t in good],
        "object": [t[2] for t in good],
        "object_kind": [t[3] for t in good],
        "object_lang": pa.array([None] * len(good), pa.string()),
        "object_datatype": pa.array([t[4] for t in good], pa.string()),
    }))
    shapes = [NodeShape("P", "Person", [
        PropertyShape("name", min_count=1, max_count=1),
        PropertyShape("knows", class_="Person"),
    ])]
    assert validate_shapes(ds, shapes).count() == 0


def test_no_targets_is_empty(ray_session):
    shapes = [NodeShape("Q", "NoSuchClass",
                        [PropertyShape("name", min_count=1)])]
    assert validate_shapes(_ds(), shapes).count() == 0


def test_store_input_prunes(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
        TripleStore,
        write_triple_store,
    )

    path = str(tmp_path / "store")
    write_triple_store(_ds(), path, num_buckets=4)
    df = validate_shapes(TripleStore(path), SHAPES).to_pandas()
    assert len(df) == 5
