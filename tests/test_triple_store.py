"""Predicate-partitioned Parquet triple store (sources/triple_store.py)."""

import os

import pyarrow as pa
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query
from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
    TripleStore,
    write_triple_store,
)

TRIPLES = [
    ("d1", "mentions", "acme"), ("d1", "mentions", "octan"),
    ("d2", "mentions", "octan"), ("d3", "mentions", "initech"),
    ("acme", "hq_in", "berlin"), ("octan", "hq_in", "vienna"),
    ("berlin", "in_country", "germany"), ("vienna", "in_country", "austria"),
]


def _ds():
    import ray.data

    return ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in TRIPLES],
        "predicate": [t[1] for t in TRIPLES],
        "object": [t[2] for t in TRIPLES],
        "object_kind": ["iri"] * len(TRIPLES),
    }))


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tstore") / "kg")
    meta = write_triple_store(_ds(), path, num_buckets=8)
    return path, meta


def _spo(ds):
    df = ds.to_pandas()
    if df.empty:
        return set()
    return set(map(tuple, df[["subject", "predicate", "object"]].values))


def test_roundtrip_and_sidecar(store):
    path, meta = store
    assert set(meta["predicates"]) == {"mentions", "hq_in", "in_country"}
    ts = TripleStore(path)
    assert _spo(ts.scan()) == {t[:3] for t in TRIPLES}


def test_predicate_scan_prunes_to_bucket(store):
    path, meta = store
    ts = TripleStore(path)
    got = _spo(ts.scan("hq_in"))
    assert got == {("acme", "hq_in", "berlin"), ("octan", "hq_in", "vienna")}
    # the pruned scan touches ONLY the predicate's bucket directory
    bucket_dir = os.path.join(path,
                              f"pred_bucket={meta['predicates']['hq_in']}")
    assert os.path.isdir(bucket_dir)
    n_bucket_dirs = len([d for d in os.listdir(path)
                         if d.startswith("pred_bucket=")])
    assert n_bucket_dirs >= 2  # predicates actually spread across buckets


def test_unknown_predicate_is_empty_without_io(store):
    path, _ = store
    ts = TripleStore(path)
    ds = ts.scan("no_such_predicate")
    assert ds.count() == 0
    assert ds.schema().names[:3] == ["subject", "predicate", "object"]


def test_append_mode_accrues_and_stays_pruned(ray_session, tmp_path):
    import ray.data

    path = str(tmp_path / "grow")
    first = TRIPLES[:4]
    second = TRIPLES[4:]

    def mk(ts):
        return ray.data.from_arrow(pa.table({
            "subject": [t[0] for t in ts],
            "predicate": [t[1] for t in ts],
            "object": [t[2] for t in ts],
            "object_kind": ["iri"] * len(ts),
        }))

    write_triple_store(mk(first), path, num_buckets=8)
    meta = write_triple_store(mk(second), path, append=True)
    assert meta["num_buckets"] == 8  # taken from the existing store
    ts = TripleStore(path)
    assert _spo(ts.scan()) == {t[:3] for t in TRIPLES}
    # pruned scans see rows from BOTH writes
    assert _spo(ts.scan("hq_in")) == {
        ("acme", "hq_in", "berlin"), ("octan", "hq_in", "vienna")}
    assert _spo(ts.scan("in_country")) == {
        ("berlin", "in_country", "germany"),
        ("vienna", "in_country", "austria")}


def test_incremental_update_keeps_store_in_step(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        kg_incremental_update,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
        synthesize_pages_table,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset
    import ray.data

    root = str(tmp_path / "kg")
    sdir = str(tmp_path / "store")

    def pages(rng):
        return ray.data.from_arrow(synthesize_pages_table(list(rng)))

    kg_incremental_update(pages(range(0, 20)), root,
                          store_dir=sdir)
    kg_incremental_update(pages(range(10, 30)), root,
                          store_dir=sdir)
    want = _spo(ttl_dataset(root))
    got = _spo(TripleStore(sdir).scan())
    assert got == want


def test_bgp_query_over_store_matches_dataset(ray_session, store):
    path, _ = store
    ts = TripleStore(path)
    patterns = [("?d", "mentions", "?e"), ("?e", "hq_in", "?pl"),
                ("?pl", "in_country", "?c")]
    over_store = bgp_query(ts, patterns, project=["?d", "?c"],
                           distinct=True).to_pandas()
    over_ds = bgp_query(_ds(), patterns, project=["?d", "?c"],
                        distinct=True).to_pandas()
    lhs = over_store.sort_values(["d", "c"]).reset_index(drop=True)
    rhs = over_ds.sort_values(["d", "c"]).reset_index(drop=True)
    assert lhs.equals(rhs)
    assert len(lhs) == 3


def test_variable_predicate_over_store_full_scans(ray_session, store):
    path, _ = store
    ts = TripleStore(path)
    # (?s ?p "octan"): predicate is a variable → full (unpruned) scan
    got = bgp_query(ts, [("?s", "?p", "octan")],
                    project=["?s", "?p"], distinct=True).to_pandas()
    assert set(map(tuple, got.values)) == {
        ("d1", "mentions"), ("d2", "mentions")}


def test_sparql_select_over_store(ray_session, store):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    path, _ = store
    got = sparql_select(
        TripleStore(path),
        'SELECT ?e (COUNT(*) AS ?n) WHERE { ?d "mentions" ?e . } '
        "GROUP BY ?e").to_pandas().sort_values("e").reset_index(drop=True)
    assert list(got["e"]) == ["acme", "initech", "octan"]
    assert list(got["n"]) == [1, 1, 2]
