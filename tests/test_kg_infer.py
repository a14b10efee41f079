"""Rule-based KG inference (pipelines/kg_infer.py)."""

import pandas as pd
import pyarrow as pa
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
    Rule,
    construct,
    forward_chain,
)


def _ds(triples, num_blocks=1):
    import ray.data

    tbl = pa.table({
        "subject": [t[0] for t in triples],
        "predicate": [t[1] for t in triples],
        "object": [t[2] for t in triples],
        "object_kind": ["iri"] * len(triples),
        "object_lang": pa.array([None] * len(triples), pa.string()),
        "object_datatype": pa.array([None] * len(triples), pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    return ds.repartition(num_blocks) if num_blocks > 1 else ds


def _spo(ds):
    df = ds.to_pandas()
    if df.empty:
        return set()
    return set(map(tuple, df[["subject", "predicate", "object"]].values))


MENTIONS = [
    ("d1", "mentions", "acme"), ("d2", "mentions", "octan"),
    ("acme", "hq_in", "berlin"), ("octan", "hq_in", "vienna"),
    ("berlin", "in_country", "germany"), ("vienna", "in_country", "austria"),
]


def test_construct_emits_templated_triples(ray_session):
    derived = construct(
        _ds(MENTIONS),
        [("?e", "hq_in", "?pl"), ("?pl", "in_country", "?c")],
        [("?e", "based_in", "?c")],
    )
    assert _spo(derived) == {("acme", "based_in", "germany"),
                             ("octan", "based_in", "austria")}
    kinds = set(derived.to_pandas()["object_kind"])
    assert kinds == {"iri"}


def test_construct_literal_template_meta(ray_session):
    derived = construct(
        _ds(MENTIONS),
        [("?e", "hq_in", "?pl")],
        [("?e", "hq_label", "?pl",
          {"object_kind": "literal", "object_lang": "en"})],
    )
    df = derived.to_pandas()
    assert set(df["object_kind"]) == {"literal"}
    assert set(df["object_lang"]) == {"en"}


def test_construct_multi_head(ray_session):
    derived = construct(
        _ds(MENTIONS),
        [("?d", "mentions", "?e")],
        [("?d", "cites", "?e"), ("?e", "cited_by", "?d")],
    )
    assert _spo(derived) == {
        ("d1", "cites", "acme"), ("acme", "cited_by", "d1"),
        ("d2", "cites", "octan"), ("octan", "cited_by", "d2"),
    }


def test_head_variable_must_be_bound():
    with pytest.raises(ValueError, match="not bound"):
        Rule([("?a", "p", "?b")], [("?a", "q", "?zzz")])


CHAIN = [("a", "locatedIn", "b"), ("b", "locatedIn", "c"),
         ("c", "locatedIn", "d")]

TRANS = Rule([("?x", "locatedIn", "?y"), ("?y", "locatedIn", "?z")],
             [("?x", "locatedIn", "?z")], name="trans")


@pytest.mark.parametrize("num_blocks", [1, 4])
def test_forward_chain_transitive_closure(ray_session, num_blocks):
    res = forward_chain(_ds(CHAIN, num_blocks), [TRANS])
    want_closure = {("a", "locatedIn", x) for x in "bcd"} \
        | {("b", "locatedIn", x) for x in "cd"} \
        | {("c", "locatedIn", "d")}
    assert _spo(res["closure"]) == want_closure
    assert res["n_derived"] == 3  # (a,c) (b,d) (a,d)
    # chain of 4 closes in 2 rounds (doubling via semi-naive deltas)
    assert res["rounds"] == 2


def test_forward_chain_fixpoint_idempotent(ray_session):
    res1 = forward_chain(_ds(CHAIN), [TRANS])
    res2 = forward_chain(res1["closure"], [TRANS])
    assert res2["n_derived"] == 0
    assert res2["rounds"] == 0
    assert _spo(res2["closure"]) == _spo(res1["closure"])


def test_forward_chain_type_inheritance(ray_session):
    triples = [
        ("cat", "subClassOf", "mammal"), ("mammal", "subClassOf", "animal"),
        ("felix", "type", "cat"),
    ]
    rules = [
        Rule([("?c", "subClassOf", "?d"), ("?d", "subClassOf", "?e")],
             [("?c", "subClassOf", "?e")]),
        Rule([("?x", "type", "?c"), ("?c", "subClassOf", "?d")],
             [("?x", "type", "?d")]),
    ]
    res = forward_chain(_ds(triples), rules)
    got = _spo(res["closure"])
    assert ("felix", "type", "mammal") in got
    assert ("felix", "type", "animal") in got
    assert ("cat", "subClassOf", "animal") in got
    assert res["n_derived"] == 3


SAMEAS = [
    ("a1", "same_as", "a2"), ("a2", "same_as", "a3"),   # chain {a1,a2,a3}
    ("b2", "same_as", "b1"),                            # pair {b1,b2}
    ("a2", "hq_in", "berlin"), ("a3", "hq_in", "berlin"),
    ("d1", "mentions", "a3"), ("d1", "mentions", "b2"),
    ("c1", "hq_in", "vienna"),                          # untouched
]


def test_merge_equivalent_entities(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        merge_equivalent_entities,
    )

    res = merge_equivalent_entities(_ds(SAMEAS), "same_as")
    got = _spo(res["triples"])
    # every a* collapses to a1, every b* to b1; merged self-loop
    # sameAs triples are dropped, cross-class ones keep canon endpoints
    assert got == {
        ("a1", "hq_in", "berlin"), ("d1", "mentions", "a1"),
        ("d1", "mentions", "b1"), ("c1", "hq_in", "vienna"),
    }
    mapping = res["mapping"].to_pandas().sort_values("iri")
    assert list(map(tuple, mapping.values)) == [
        ("a2", "a1"), ("a3", "a1"), ("b2", "b1")]
    assert res["n_mapped"] == 3


def test_merge_equivalent_entities_hash_tier(ray_session, monkeypatch):
    # every solution join takes the hash-shuffle tier, and the rewrite
    # takes the join tier instead of the broadcast dict
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.stages import canonicalize

    calls, join = [], canonicalize.apply_canonical_mapping_join

    def spy(*args, **kwargs):
        calls.append(1)
        return join(*args, **kwargs)

    monkeypatch.setattr(canonicalize, "apply_canonical_mapping_join", spy)
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    test_merge_equivalent_entities(ray_session)
    assert calls


def test_merge_no_sameas_edges_is_noop(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        merge_equivalent_entities,
    )

    res = merge_equivalent_entities(_ds(MENTIONS), "same_as")
    assert res["n_mapped"] == 0
    assert _spo(res["triples"]) == {t[:3] for t in MENTIONS}


def test_merge_over_triple_store(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        merge_equivalent_entities,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
        TripleStore,
        write_triple_store,
    )

    path = str(tmp_path / "store")
    write_triple_store(_ds(SAMEAS), path, num_buckets=4)
    res = merge_equivalent_entities(TripleStore(path), "same_as")
    assert _spo(res["triples"]) == {
        ("a1", "hq_in", "berlin"), ("d1", "mentions", "a1"),
        ("d1", "mentions", "b1"), ("c1", "hq_in", "vienna"),
    }


def test_kg_entity_pagerank_orders_hubs_first(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        kg_entity_pagerank,
    )

    # give octan a second in-link: it must outrank the symmetric acme
    graph = MENTIONS + [("d3", "mentions", "octan")]
    df = kg_entity_pagerank(_ds(graph), iters=6).to_pandas()
    ranks = dict(zip(df["iri"], df["rank"]))
    assert ranks["octan"] > ranks["acme"]
    # octan's extra mass flows on to vienna, then austria
    assert ranks["vienna"] > ranks["berlin"]
    assert ranks["austria"] > ranks["germany"]
    # every node of the IRI graph is ranked
    assert set(df["iri"]) == {"d1", "d2", "d3", "acme", "octan",
                              "berlin", "vienna", "germany", "austria"}


def test_kg_entity_pagerank_null_object_kind_reads_as_iri(ray_session):
    """A missing and an all-null ``object_kind`` rank the same graph."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        kg_entity_pagerank,
    )

    edges = [("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a"),
             ("d", "p", "a")]
    spo = {name: [e[i] for e in edges]
           for i, name in enumerate(("subject", "predicate", "object"))}
    untyped = ray.data.from_arrow(pa.table(spo))
    null_kind = ray.data.from_arrow(pa.table(
        dict(spo, object_kind=pa.array([None] * 4, pa.string()))))

    def ranks(ds):
        df = kg_entity_pagerank(ds).to_pandas()
        return dict(zip(df["iri"], df["rank"]))

    got = ranks(untyped)
    assert set(got) == {"a", "b", "c", "d"}
    assert ranks(null_kind) == pytest.approx(got)


def test_kg_entity_pagerank_topk_and_literal_edges_ignored(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        kg_entity_pagerank,
    )

    triples = MENTIONS + [("acme", "employees", "250")]
    import pyarrow as pa
    import ray.data

    ds = ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in triples],
        "predicate": [t[1] for t in triples],
        "object": [t[2] for t in triples],
        "object_kind": ["iri"] * len(MENTIONS) + ["literal"],
        "object_lang": pa.array([None] * len(triples), pa.string()),
        "object_datatype": pa.array([None] * len(triples), pa.string()),
    }))
    top = kg_entity_pagerank(ds, top_k=3).to_pandas()
    assert len(top) == 3
    assert "250" not in set(top["iri"])  # literal never became a node


def test_forward_chain_max_rounds_bound(ray_session):
    long_chain = [(f"n{i}", "locatedIn", f"n{i+1}") for i in range(12)]
    res = forward_chain(_ds(long_chain), [TRANS], max_rounds=1)
    # one round only: exactly the distance-2 pairs
    assert res["rounds"] == 1
    assert res["n_derived"] == 11


def test_forward_chain_spill_path_equivalence(ray_session, tmp_path):
    """spill_rows=0 forces the base closure and every round's delta
    through the scratch-parquet path (closure = union of streaming
    reads); results must be identical to the pinned path, including
    the semi-naive multi-round convergence and n_derived accounting."""
    pin = forward_chain(_ds(CHAIN), [TRANS])
    spill = forward_chain(_ds(CHAIN), [TRANS], spill_rows=0,
                          spill_dir=str(tmp_path / "fchain"))
    assert spill["spill_dir"] == str(tmp_path / "fchain")
    assert pin["spill_dir"] is None
    assert spill["rounds"] == pin["rounds"] == 2
    assert spill["n_derived"] == pin["n_derived"] == 3
    assert _spo(spill["closure"]) == _spo(pin["closure"])
    assert _spo(spill["derived"]) == _spo(pin["derived"])


def test_forward_chain_spill_noop_rules(ray_session, tmp_path):
    """A spilled run whose rules derive nothing still returns the base
    closure intact (empty-delta fallback paths)."""
    noop = Rule([("?a", "mentions", "?b"), ("?b", "mentions", "?c")],
                [("?a", "mentions2", "?c")], name="noop")
    res = forward_chain(_ds(CHAIN), [noop], spill_rows=0,
                        spill_dir=str(tmp_path / "fc2"))
    assert res["n_derived"] == 0
    assert res["rounds"] == 0
    assert _spo(res["closure"]) == set(CHAIN)


# ---------------------------------------------------------------------------
# rdfs_closure (ρDF entailment)
# ---------------------------------------------------------------------------

RDFS_TOY = [
    # schema
    ("Cat", "rdfs:subClassOf", "Mammal", "iri", None, None),
    ("Mammal", "rdfs:subClassOf", "Animal", "iri", None, None),
    ("hasPet", "rdfs:subPropertyOf", "knows", "iri", None, None),
    ("knows", "rdfs:subPropertyOf", "related", "iri", None, None),
    ("hasPet", "rdfs:domain", "Person", "iri", None, None),
    ("hasPet", "rdfs:range", "Animal", "iri", None, None),
    ("nick", "rdfs:subPropertyOf", "name", "iri", None, None),
    ("name", "rdfs:range", "Label", "iri", None, None),
    # instances
    ("tom", "rdf:type", "Cat", "iri", None, None),
    ("alice", "hasPet", "tom", "iri", None, None),
    ("bob", "nick", "Bobby", "literal", "en", None),
]


def _typed_ds(rows, num_blocks=1):
    import ray.data

    tbl = pa.table({
        "subject": pa.array([r[0] for r in rows], pa.string()),
        "predicate": pa.array([r[1] for r in rows], pa.string()),
        "object": pa.array([r[2] for r in rows], pa.string()),
        "object_kind": pa.array([r[3] for r in rows], pa.string()),
        "object_lang": pa.array([r[4] for r in rows], pa.string()),
        "object_datatype": pa.array([r[5] for r in rows], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    return ds.repartition(num_blocks) if num_blocks > 1 else ds


RDFS_EXPECT = {
    ("Cat", "rdfs:subClassOf", "Animal"),        # rdfs11
    ("hasPet", "rdfs:subPropertyOf", "related"),  # rdfs5
    ("alice", "knows", "tom"),                    # rdfs7
    ("alice", "related", "tom"),                  # rdfs7 via sp closure
    ("bob", "name", "Bobby"),                     # rdfs7, literal object
    ("alice", "rdf:type", "Person"),              # rdfs2 (domain)
    ("tom", "rdf:type", "Animal"),                # rdfs3 (range) + rdfs9
    ("tom", "rdf:type", "Mammal"),                # rdfs9
}


def test_rdfs_closure_entailments(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure

    out = rdfs_closure(_typed_ds(RDFS_TOY))
    assert _spo(out["derived"]) == RDFS_EXPECT
    assert out["n_derived"] == len(RDFS_EXPECT)
    got = _spo(out["closure"])
    assert RDFS_EXPECT <= got
    # literal objects are never range-typed (rdfs3 skips literals)
    assert ("Bobby", "rdf:type", "Label") not in got
    # rdfs7 preserves the OBJECT TYPING of the rewritten triple
    df = out["derived"].to_pandas()
    row = df[(df.subject == "bob") & (df.predicate == "name")].iloc[0]
    assert (row.object, row.object_kind, row.object_lang) == \
        ("Bobby", "literal", "en")
    iri_row = df[(df.subject == "alice") & (df.predicate == "knows")].iloc[0]
    assert iri_row.object_kind == "iri"


def test_rdfs_closure_block_invariance_and_join_path(ray_session,
                                                    monkeypatch):
    """Same entailments regardless of input blocking, and every
    scale-path combination matches the default (driver-pandas schema
    closure + broadcast derivation): distributed forward_chain schema
    closure (DRIVER_ROWS=0), and the fully-distributed variant
    (distributed schema closure + hash-join derivations,
    BROADCAST_JOIN_ROWS=0 too)."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines import kg_infer
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure

    base = rdfs_closure(_typed_ds(RDFS_TOY))
    blocked = rdfs_closure(_typed_ds(RDFS_TOY, num_blocks=4))
    monkeypatch.setattr(kg_infer, "DRIVER_ROWS", 0)
    fc = rdfs_closure(_typed_ds(RDFS_TOY))
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    joined = rdfs_closure(_typed_ds(RDFS_TOY))
    assert _spo(blocked["derived"]) == _spo(base["derived"]) == RDFS_EXPECT
    assert _spo(fc["derived"]) == RDFS_EXPECT
    assert _spo(joined["derived"]) == RDFS_EXPECT
    assert joined["n_derived"] == base["n_derived"]


def test_rdfs_closure_no_schema_is_noop(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure

    inst = [("a", "p", "b", "iri", None, None),
            ("a", "rdf:type", "C", "iri", None, None)]
    out = rdfs_closure(_typed_ds(inst))
    assert out["n_derived"] == 0
    assert _spo(out["closure"]) == {("a", "p", "b"), ("a", "rdf:type", "C")}


def test_rdfs_closure_custom_vocab(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure

    rows = [("B", "sub", "A", "iri", None, None),
            ("x", "isa", "B", "iri", None, None)]
    out = rdfs_closure(_typed_ds(rows),
                       vocab={"type": "isa", "subClassOf": "sub"})
    assert _spo(out["derived"]) == {("x", "isa", "A")}


# ---------------------------------------------------------------------------
# owl_lite_closure (inverseOf / SymmetricProperty / TransitiveProperty)
# ---------------------------------------------------------------------------

OWL_TOY = [
    # schema
    ("ships_to", "owl:inverseOf", "supplied_by", "iri", None, None),
    ("same_region_as", "rdf:type", "owl:SymmetricProperty", "iri", None, None),
    ("same_region_as", "rdf:type", "owl:TransitiveProperty", "iri", None, None),
    ("within", "rdf:type", "owl:TransitiveProperty", "iri", None, None),
    # instances
    ("s1", "ships_to", "n1", "iri", None, None),
    ("n1", "same_region_as", "n2", "iri", None, None),
    ("n2", "same_region_as", "n3", "iri", None, None),
    ("c1", "within", "n1", "iri", None, None),
    ("n1", "within", "r1", "iri", None, None),
    ("r1", "within", "world", "iri", None, None),
    # a literal object on an invertible predicate must never swap
    ("s9", "ships_to", "not an iri", "literal", None, None),
]

OWL_EXPECT = {
    ("n1", "supplied_by", "s1"),                      # prp-inv
    # symmetric + transitive closure of the n1-n2-n3 chain: all 9
    # ordered pairs (incl. self-loops) minus the 2 base edges
    ("n2", "same_region_as", "n1"),
    ("n3", "same_region_as", "n2"),
    ("n1", "same_region_as", "n3"),
    ("n3", "same_region_as", "n1"),
    ("n1", "same_region_as", "n1"),
    ("n2", "same_region_as", "n2"),
    ("n3", "same_region_as", "n3"),
    # transitive within
    ("c1", "within", "r1"),
    ("c1", "within", "world"),
    ("n1", "within", "world"),
}


def test_owl_lite_closure_entailments(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )

    out = owl_lite_closure(_typed_ds(OWL_TOY))
    assert _spo(out["derived"]) == OWL_EXPECT
    assert out["n_derived"] == len(OWL_EXPECT)
    got = _spo(out["closure"])
    assert OWL_EXPECT <= got
    assert ("not an iri", "supplied_by", "s9") not in got


def test_owl_lite_closure_inverse_of_transitive(ray_session):
    """p owl:inverseOf q with q transitive: closure(q) must mirror
    back onto p (the step-3 swap pass)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )

    rows = [("p", "owl:inverseOf", "q", "iri", None, None),
            ("q", "rdf:type", "owl:TransitiveProperty", "iri", None, None),
            ("a", "p", "b", "iri", None, None),
            ("b", "p", "c", "iri", None, None)]
    out = owl_lite_closure(_typed_ds(rows))
    assert _spo(out["derived"]) == {
        ("b", "q", "a"), ("c", "q", "b"),  # inverse of the base edges
        ("c", "q", "a"),                    # transitivity over q
        ("a", "p", "c"),                    # closure(q) mirrored onto p
    }


def test_owl_lite_closure_block_invariance_and_noop(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )

    blocked = owl_lite_closure(_typed_ds(OWL_TOY, num_blocks=4))
    assert _spo(blocked["derived"]) == OWL_EXPECT

    plain = [("a", "p", "b", "iri", None, None),
             ("b", "p", "c", "iri", None, None)]
    out = owl_lite_closure(_typed_ds(plain))
    assert out["n_derived"] == 0
    assert _spo(out["closure"]) == {("a", "p", "b"), ("b", "p", "c")}


# ---------------------------------------------------------------------------
# sameas_from_functional (prp-fp / prp-ifp entity resolution)
# ---------------------------------------------------------------------------

FUNC_TOY = [
    # schema
    ("owner", "rdf:type", "owl:FunctionalProperty", "iri", None, None),
    ("email", "rdf:type", "owl:InverseFunctionalProperty", "iri", None, None),
    # prp-fp: two IRI spellings of one owner → sameAs; the literal
    # third value must NOT merge with anything
    ("o1", "owner", "cust:9", "iri", None, None),
    ("o1", "owner", "customer:9", "iri", None, None),
    ("o1", "owner", "Customer Nine", "literal", None, None),
    # prp-ifp over literals: a, b, c share an email → star to min(a)
    ("a", "email", "x@y", "literal", None, None),
    ("b", "email", "x@y", "literal", None, None),
    ("c", "email", "x@y", "literal", None, None),
    # same lexical value, DIFFERENT datatype / language: never groups
    ("d", "email", "x@y", "literal", None, "xsd:token"),
    ("e", "email", "x@y", "literal", "en", None),
    # undeclared multi-valued predicate: derives nothing
    ("o1", "clicked", "p1", "iri", None, None),
    ("o1", "clicked", "p2", "iri", None, None),
]

FUNC_EXPECT = {
    ("cust:9", "owl:sameAs", "customer:9"),
    ("a", "owl:sameAs", "b"),
    ("a", "owl:sameAs", "c"),
}


def test_sameas_from_functional_pairs(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        sameas_from_functional,
    )

    out = sameas_from_functional(_typed_ds(FUNC_TOY))
    assert _spo(out["pairs"]) == FUNC_EXPECT
    assert out["n_pairs"] == len(FUNC_EXPECT)


def test_sameas_from_functional_block_invariance_and_noop(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        sameas_from_functional,
    )

    blocked = sameas_from_functional(_typed_ds(FUNC_TOY, num_blocks=5))
    assert _spo(blocked["pairs"]) == FUNC_EXPECT

    # no declarations at all → nothing derived
    out = sameas_from_functional(_typed_ds(
        [("o1", "owner", "cust:9", "iri", None, None),
         ("o1", "owner", "customer:9", "iri", None, None)]))
    assert out["n_pairs"] == 0


def test_sameas_from_functional_merge_chain(ray_session):
    """FP pair (n2 ≡ alt:n2) chains into the IFP email group
    {n1, n2, n3} — one component, canonical = min, and the smushed
    KG rewrites every mention through it."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        sameas_from_functional,
    )

    rows = [
        ("owner", "rdf:type", "owl:FunctionalProperty", "iri", None, None),
        ("email", "rdf:type", "owl:InverseFunctionalProperty",
         "iri", None, None),
        ("n1", "email", "e1", "literal", None, None),
        ("n2", "email", "e1", "literal", None, None),
        ("n3", "email", "e1", "literal", None, None),
        ("o1", "owner", "n2", "iri", None, None),
        ("o1", "owner", "alt:n2", "iri", None, None),
        ("d1", "mentions", "alt:n2", "iri", None, None),
    ]
    out = sameas_from_functional(_typed_ds(rows), merge=True)
    mapping = {(r["iri"], r["canonical"])
               for r in out["mapping"].to_pandas().to_dict("records")}
    # canonical is the lexicographic min of the component: 'alt:n2' < 'n1'
    assert mapping == {("n1", "alt:n2"), ("n2", "alt:n2"),
                       ("n3", "alt:n2")}
    got = _spo(out["triples"])
    assert ("d1", "mentions", "alt:n2") in got
    assert ("o1", "owner", "alt:n2") in got
    assert not any(s in ("n1", "n2", "n3") or o in ("n1", "n2", "n3")
                   for s, _, o in got)


def test_owl_lite_closure_path_equivalence(ray_session, monkeypatch):
    """DRIVER_ROWS=0 forces the distributed forward_chain fixpoint;
    both paths must derive the identical set."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines import kg_infer
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )

    monkeypatch.setattr(kg_infer, "DRIVER_ROWS", 0)
    dist = owl_lite_closure(_typed_ds(OWL_TOY, num_blocks=3))
    assert _spo(dist["derived"]) == OWL_EXPECT
    assert dist["n_derived"] == len(OWL_EXPECT)


@pytest.fixture(params=["driver", "distributed"])
def closure_tier(request, monkeypatch):
    """Runs a test with the closures' forward_chain on each side of
    ``kg_infer.DRIVER_ROWS``."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines import kg_infer

    if request.param == "distributed":
        monkeypatch.setattr(kg_infer, "DRIVER_ROWS", 0)


def _untyped_ds(triples):
    import ray.data

    cols = list(zip(*triples))
    return ray.data.from_arrow(pa.table({
        "subject": list(cols[0]), "predicate": list(cols[1]),
        "object": list(cols[2])}))


def test_rdfs_closure_untyped_input(ray_session, closure_tier):
    """(subject, predicate, object) input: the asserted A ⊑ C is not
    derived again with the rule head's IRI typing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure

    out = rdfs_closure(_untyped_ds([
        ("A", "rdfs:subClassOf", "B"), ("B", "rdfs:subClassOf", "C"),
        ("A", "rdfs:subClassOf", "C"), ("x", "rdf:type", "A")]))
    assert _spo(out["derived"]) == {("x", "rdf:type", "B"),
                                    ("x", "rdf:type", "C")}
    assert out["n_derived"] == 2
    assert set(out["closure"].to_pandas()["object_kind"]) == {"iri"}


def test_owl_lite_closure_untyped_input(ray_session, closure_tier):
    """An untyped edge set that is already transitive derives nothing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )

    out = owl_lite_closure(_untyped_ds([
        ("p", "rdf:type", "owl:TransitiveProperty"),
        ("a", "p", "b"), ("b", "p", "c"), ("a", "p", "c")]))
    assert out["n_derived"] == 0
    assert _spo(out["derived"]) == set()


# ---------------------------------------------------------------------------
# owl_equivalence_closure (equivalentClass / equivalentProperty)
# ---------------------------------------------------------------------------

EQ_TOY = [
    ("A", "owl:equivalentClass", "B", "iri", None, None),
    ("p", "owl:equivalentProperty", "q", "iri", None, None),
    ("x", "rdf:type", "A", "iri", None, None),
    ("s", "p", "o", "iri", None, None),
    ("s", "p", "lit", "literal", None, None),
]

EQ_EXPECT = {
    # eq symmetry + self-loops (base pair excluded)
    ("B", "owl:equivalentClass", "A"),
    ("A", "owl:equivalentClass", "A"),
    ("B", "owl:equivalentClass", "B"),
    ("q", "owl:equivalentProperty", "p"),
    ("p", "owl:equivalentProperty", "p"),
    ("q", "owl:equivalentProperty", "q"),
    # full sub expansions
    ("A", "rdfs:subClassOf", "B"), ("B", "rdfs:subClassOf", "A"),
    ("A", "rdfs:subClassOf", "A"), ("B", "rdfs:subClassOf", "B"),
    ("p", "rdfs:subPropertyOf", "q"), ("q", "rdfs:subPropertyOf", "p"),
    ("p", "rdfs:subPropertyOf", "p"), ("q", "rdfs:subPropertyOf", "q"),
    # instance lifting (incl. the literal-object triple, rdfs7-style)
    ("x", "rdf:type", "B"),
    ("s", "q", "o"),
    ("s", "q", "lit"),
}


def test_owl_equivalence_closure_entailments(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_equivalence_closure,
    )

    out = owl_equivalence_closure(_typed_ds(EQ_TOY))
    assert _spo(out["derived"]) == EQ_EXPECT
    assert out["n_derived"] == len(EQ_EXPECT)
    # the lifted literal triple keeps its literal typing
    df = out["derived"].to_pandas()
    lit = df[(df["subject"] == "s") & (df["predicate"] == "q")
             & (df["object"] == "lit")]
    assert list(lit["object_kind"]) == ["literal"]


def test_owl_equivalence_closure_chain_and_blocks(ray_session):
    """3-class chain A≡B≡C: transitivity must connect A and C."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_equivalence_closure,
    )

    rows = [("A", "owl:equivalentClass", "B", "iri", None, None),
            ("B", "owl:equivalentClass", "C", "iri", None, None),
            ("x", "rdf:type", "A", "iri", None, None)]
    out = owl_equivalence_closure(_typed_ds(rows, num_blocks=4))
    got = _spo(out["derived"])
    assert ("A", "owl:equivalentClass", "C") in got
    assert ("C", "owl:equivalentClass", "A") in got
    assert ("x", "rdf:type", "B") in got
    assert ("x", "rdf:type", "C") in got
    # all 9 eq pairs minus 2 base + all 9 sub pairs + 2 type lifts
    assert out["n_derived"] == 7 + 9 + 2


def test_owl_equivalence_closure_noop(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_equivalence_closure,
    )

    out = owl_equivalence_closure(_typed_ds(
        [("x", "rdf:type", "A", "iri", None, None)]))
    assert out["n_derived"] == 0
    assert _spo(out["closure"]) == {("x", "rdf:type", "A")}


# ---------------------------------------------------------------------------
# forward_chain incremental maintenance (seed_delta)
# ---------------------------------------------------------------------------

def test_forward_chain_seed_delta_equivalence(ray_session):
    """Incremental closure over a new shard == full re-closure minus
    the old closure and the seed itself."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    base_closed = forward_chain(_ds(CHAIN), [TRANS])["closure"]
    new = [("d", "locatedIn", "e"), ("e", "locatedIn", "f")]

    inc = forward_chain(base_closed, [TRANS], seed_delta=_ds(new))
    ref = forward_chain(_ds(CHAIN + new), [TRANS])
    want_derived = (_spo(ref["closure"]) - _spo(base_closed)
                    - {t[:3] for t in new})
    assert _spo(inc["derived"]) == want_derived
    assert _spo(inc["closure"]) == _spo(ref["closure"])
    # d/e/f attach below the a-b-c-d chain: every old node gains paths
    # THROUGH the seed, so the joins genuinely mix old and new facts
    assert ("a", "locatedIn", "f") in _spo(inc["derived"])


def test_forward_chain_seed_delta_already_known(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    closed = forward_chain(_ds(CHAIN), [TRANS])["closure"]
    inc = forward_chain(closed, [TRANS],
                        seed_delta=_ds([("a", "locatedIn", "b")]))
    assert inc["n_derived"] == 0
    assert inc["rounds"] == 0
    assert _spo(inc["closure"]) == _spo(closed)


def test_forward_chain_seed_delta_no_entailments(ray_session):
    """A disconnected seed adds itself to the closure but derives
    nothing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    closed = forward_chain(_ds(CHAIN), [TRANS])["closure"]
    inc = forward_chain(closed, [TRANS],
                        seed_delta=_ds([("zz", "other", "yy")]))
    assert inc["n_derived"] == 0
    assert _spo(inc["closure"]) == _spo(closed) | {("zz", "other", "yy")}


def test_forward_chain_driver_vs_distributed_equivalence(ray_session,
                                                        monkeypatch):
    """DRIVER_ROWS=0 forces the distributed loop; both paths must agree
    on closure, derived, rounds and n_derived — plain, multi-rule and
    seeded runs."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines import kg_infer
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    def distributed(*args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(kg_infer, "DRIVER_ROWS", 0)
            return forward_chain(*args, **kwargs)

    drv = forward_chain(_ds(CHAIN), [TRANS])
    dist = distributed(_ds(CHAIN), [TRANS])
    assert _spo(drv["closure"]) == _spo(dist["closure"])
    assert _spo(drv["derived"]) == _spo(dist["derived"])
    assert (drv["rounds"], drv["n_derived"]) == \
           (dist["rounds"], dist["n_derived"])

    rules = [
        Rule([("?c", "subClassOf", "?d"), ("?d", "subClassOf", "?e")],
             [("?c", "subClassOf", "?e")]),
        Rule([("?x", "type", "?c"), ("?c", "subClassOf", "?d")],
             [("?x", "type", "?d")]),
    ]
    tri = [("cat", "subClassOf", "mammal"),
           ("mammal", "subClassOf", "animal"), ("felix", "type", "cat")]
    drv = forward_chain(_ds(tri), rules)
    dist = distributed(_ds(tri), rules)
    assert _spo(drv["closure"]) == _spo(dist["closure"])
    assert drv["n_derived"] == dist["n_derived"] == 3

    closed = forward_chain(_ds(CHAIN), [TRANS])["closure"]
    new = [("d", "locatedIn", "e")]
    drv = forward_chain(closed, [TRANS], seed_delta=_ds(new))
    dist = distributed(closed, [TRANS], seed_delta=_ds(new))
    assert _spo(drv["derived"]) == _spo(dist["derived"])
    assert drv["n_derived"] == dist["n_derived"]


def test_forward_chain_driver_path_literal_meta(ray_session):
    """Head templates with literal typing keep kind/lang through the
    driver path's sentinel round-trip."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    res = forward_chain(
        _ds([("a", "hq_in", "b")]),
        [Rule([("?e", "hq_in", "?pl")],
              [("?e", "hq_label", "?pl",
                {"object_kind": "literal", "object_lang": "en"})])])
    df = res["derived"].to_pandas()
    assert list(df["object_kind"]) == ["literal"]
    assert list(df["object_lang"]) == ["en"]
    assert df["object_datatype"].isna().all()


# ---------------------------------------------------------------------------
# dred_delete (deletion with rederivation)
# ---------------------------------------------------------------------------

def _close(ds_rows, rules):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )

    return forward_chain(_ds(ds_rows), rules)["closure"]


def test_dred_delete_removes_dependency_cone(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    closure = _close(CHAIN, [TRANS])
    out = dred_delete(closure, [TRANS],
                      deletions=_ds([("b", "locatedIn", "c")]),
                      base=_ds(CHAIN))
    # with b-c gone: every path through it dies, a-b and c-d survive
    assert _spo(out["removed"]) == {
        ("b", "locatedIn", "c"), ("a", "locatedIn", "c"),
        ("b", "locatedIn", "d"), ("a", "locatedIn", "d")}
    assert _spo(out["closure"]) == {
        ("a", "locatedIn", "b"), ("c", "locatedIn", "d")}
    # result equals full re-closure of the surviving base
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        forward_chain,
    )
    ref = forward_chain(_ds([("a", "locatedIn", "b"),
                             ("c", "locatedIn", "d")]), [TRANS])
    assert _spo(out["closure"]) == _spo(ref["closure"])


def test_dred_delete_rederives_alternative_support(ray_session):
    """a→c is derivable through b AND through x; deleting the b-route
    must overdelete a→c then rederive it through x."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    rows = [("a", "locatedIn", "b"), ("b", "locatedIn", "c"),
            ("a", "locatedIn", "x"), ("x", "locatedIn", "c")]
    closure = _close(rows, [TRANS])
    out = dred_delete(closure, [TRANS],
                      deletions=_ds([("b", "locatedIn", "c")]),
                      base=_ds(rows))
    assert ("a", "locatedIn", "c") in _spo(out["closure"])  # rederived
    assert _spo(out["removed"]) == {("b", "locatedIn", "c")}
    assert out["rounds_red"] >= 1


def test_dred_delete_edb_facts_survive_overdeletion(ray_session):
    """A derived fact that is ALSO asserted as a base fact returns via
    the EDB-survivor readd, and derivations from it stay intact."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    rows = [("a", "locatedIn", "b"), ("b", "locatedIn", "c"),
            ("a", "locatedIn", "c"),          # also EDB
            ("c", "locatedIn", "d")]
    closure = _close(rows, [TRANS])
    out = dred_delete(closure, [TRANS],
                      deletions=_ds([("b", "locatedIn", "c")]),
                      base=_ds(rows))
    got = _spo(out["closure"])
    assert ("a", "locatedIn", "c") in got        # EDB survivor
    assert ("a", "locatedIn", "d") in got        # rederived through it
    assert _spo(out["removed"]) == {("b", "locatedIn", "c"),
                                    ("b", "locatedIn", "d")}


def test_dred_delete_cycle_without_external_support_dies(ray_session):
    """Facts that only support each other must NOT rederive: the
    sameAs-style symmetric rule closure of (m,n) collapses entirely
    when the base edge goes."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    sym = Rule([("?x", "eq", "?y")], [("?y", "eq", "?x")], name="sym")
    rows = [("m", "eq", "n")]
    closure = _close(rows, [sym])   # adds (n, eq, m)
    out = dred_delete(closure, [sym],
                      deletions=_ds([("m", "eq", "n")]), base=_ds(rows))
    assert _spo(out["closure"]) == set()
    assert _spo(out["removed"]) == {("m", "eq", "n"), ("n", "eq", "m")}


def test_dred_delete_driver_vs_distributed_equivalence(ray_session,
                                                      monkeypatch):
    from cmc_knowledge_graph_text2ttl_ray.pipelines import kg_infer
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    rows = [("a", "locatedIn", "b"), ("b", "locatedIn", "c"),
            ("a", "locatedIn", "x"), ("x", "locatedIn", "c"),
            ("c", "locatedIn", "d")]
    closure = _close(rows, [TRANS])
    drv = dred_delete(closure, [TRANS],
                      deletions=_ds([("b", "locatedIn", "c")]),
                      base=_ds(rows))
    monkeypatch.setattr(kg_infer, "DRIVER_ROWS", 0)
    dist = dred_delete(closure, [TRANS],
                       deletions=_ds([("b", "locatedIn", "c")]),
                       base=_ds(rows))
    assert _spo(drv["closure"]) == _spo(dist["closure"])
    assert _spo(drv["removed"]) == _spo(dist["removed"])
    assert drv["n_removed"] == dist["n_removed"]


def test_dred_delete_noop_when_deletion_unknown(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        dred_delete,
    )

    closure = _close(CHAIN, [TRANS])
    out = dred_delete(closure, [TRANS],
                      deletions=_ds([("zz", "locatedIn", "yy")]),
                      base=_ds(CHAIN))
    assert out["n_removed"] == 0
    assert _spo(out["closure"]) == _spo(closure)
