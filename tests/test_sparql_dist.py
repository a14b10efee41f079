"""Distributed SPARQL front end (pipelines/sparql_dist.py).

Differential strategy: every supported query runs through BOTH the
in-memory evaluator (state/graph_index.GraphIndex.query — itself
property-tested against brute force) and the distributed compiler
(sparql_select over a Ray Dataset of the same triples); results must
agree as multisets of solution mappings.
"""

from collections import Counter

import pyarrow as pa
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
    sparql_select,
)
from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

EX = "http://example.org/"

TRIPLES = [
    (EX + "d1", EX + "mentions", EX + "acme", "iri", None, None),
    (EX + "d1", EX + "mentions", EX + "octan", "iri", None, None),
    (EX + "d2", EX + "mentions", EX + "octan", "iri", None, None),
    (EX + "d3", EX + "mentions", EX + "initech", "iri", None, None),
    (EX + "acme", EX + "hq_in", EX + "berlin", "iri", None, None),
    (EX + "octan", EX + "hq_in", EX + "vienna", "iri", None, None),
    (EX + "berlin", EX + "in_country", EX + "germany", "iri", None, None),
    (EX + "vienna", EX + "in_country", EX + "austria", "iri", None, None),
    (EX + "acme", EX + "employees", "250", "literal", None, None),
    (EX + "octan", EX + "employees", "1200", "literal", None, None),
    (EX + "initech", EX + "employees", "40", "literal", None, None),
]

PFX = f"PREFIX ex: <{EX}>\n"


def _ds():
    import ray.data

    cols = list(zip(*TRIPLES))
    return ray.data.from_arrow(pa.table({
        "subject": list(cols[0]), "predicate": list(cols[1]),
        "object": list(cols[2]), "object_kind": list(cols[3]),
    }))


def _local(query):
    gi = GraphIndex(TRIPLES)
    return gi.query(query)


def _dist(query, ds=None, **kw):
    df = sparql_select(_ds() if ds is None else ds, query, **kw).to_pandas()
    rows = []
    for r in df.to_dict(orient="records"):
        rows.append({k: v for k, v in r.items()
                     if v is not None and v == v})  # drop null/NaN
    return rows


def _norm(rows):
    out = []
    for r in rows:
        items = []
        for k, v in sorted(r.items()):
            try:
                items.append((k, float(v)))
            except (TypeError, ValueError):
                items.append((k, str(v)))
        out.append(tuple(items))
    return Counter(out)


def _assert_same(query, **kw):
    local, dist = _local(query), _dist(query, **kw)
    assert _norm(local) == _norm(dist), (
        f"query {query!r}: local={local} dist={dist}")
    return dist


def _assert_same_over(rows, query):
    """:func:`_assert_same` over ``rows`` ``(s, p, o, object_kind)``
    instead of ``TRIPLES``."""
    import ray.data

    cols = list(zip(*rows))
    ds = ray.data.from_arrow(pa.table({
        "subject": list(cols[0]), "predicate": list(cols[1]),
        "object": list(cols[2]), "object_kind": list(cols[3]),
    }))
    local = GraphIndex([(*r, None, None) for r in rows]).query(query)
    dist = _dist(query, ds=ds)
    assert _norm(local) == _norm(dist), (
        f"query {query!r}: local={local} dist={dist}")


def test_plain_bgp(ray_session):
    _assert_same(PFX + """
        SELECT ?d ?e WHERE { ?d ex:mentions ?e . ?e ex:hq_in ?p . }""")


def test_constant_object(ray_session):
    rows = _assert_same(PFX + """
        SELECT ?d WHERE { ?d ex:mentions ex:octan . }""")
    assert len(rows) == 2


def test_optional_and_filter_numeric(ray_session):
    _assert_same(PFX + """
        SELECT ?e ?n WHERE {
            ?d ex:mentions ?e .
            OPTIONAL { ?e ex:employees ?n . }
            FILTER(?n > 100)
        }""")


def test_optional_unmatched_rows_survive(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?e ?p WHERE {
            ?d ex:mentions ?e .
            OPTIONAL { ?e ex:hq_in ?p . }
        }""")


def test_two_optional_groups(ray_session):
    _assert_same(PFX + """
        SELECT ?e ?p ?n WHERE {
            ?d ex:mentions ?e .
            OPTIONAL { ?e ex:hq_in ?p . }
            OPTIONAL { ?e ex:employees ?n . }
        }""")


def test_optional_chained_through_nullable_var(ray_session):
    # per-binding substitution: the second OPTIONAL correlates through
    # ?p, which the first OPTIONAL may have left unbound — evaluated
    # via bound-var strata (one left-outer join per observed bitmask)
    _assert_same(PFX + """
        SELECT ?e ?c WHERE {
            ?d ex:mentions ?e .
            OPTIONAL { ?e ex:hq_in ?p . }
            OPTIONAL { ?p ex:in_country ?c . }
        }""")


def test_optional_three_level_chain(ray_session):
    _assert_same(PFX + "SELECT ?d ?c ?k WHERE { ?d ex:mentions ?m "
                 "OPTIONAL { ?m ex:hq_in ?c } "
                 "OPTIONAL { ?c ex:in_country ?k } "
                 "OPTIONAL { ?k ex:in_country ?z } }")


def test_optional_unbound_stratum_wildcard(ray_session):
    # rows whose ?h stayed unbound are SPARQL-compatible with EVERY
    # optional solution (the all-unbound stratum's cross join)
    _assert_same(PFX + "SELECT ?x ?h ?k WHERE { ?x ex:employees ?e "
                 "OPTIONAL { ?x ex:hq_in ?h } "
                 "OPTIONAL { ?h ex:in_country ?k } }")


def test_minus(ray_session):
    rows = _assert_same(PFX + """
        SELECT DISTINCT ?e WHERE {
            ?d ex:mentions ?e .
            MINUS { ?e ex:hq_in ?p . }
        }""")
    assert rows == [{"e": EX + "initech"}]


def test_union_same_vars(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?x WHERE {
            { ?x ex:hq_in ?p . } UNION { ?d ex:mentions ?x . }
        }""")


def test_union_correlated_with_bgp(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?e ?v WHERE {
            ?d ex:mentions ?e .
            { ?e ex:hq_in ?v . } UNION { ?e ex:employees ?v . }
        }""")


def test_distinct(ray_session):
    rows = _assert_same(PFX + """
        SELECT DISTINCT ?e WHERE { ?d ex:mentions ?e . }""")
    assert len(rows) == 3


def test_count_group_by(ray_session):
    _assert_same(PFX + """
        SELECT ?e (COUNT(*) AS ?n) WHERE { ?d ex:mentions ?e . }
        GROUP BY ?e""")


def test_count_group_by_having(ray_session):
    _assert_same(PFX + """
        SELECT ?e (COUNT(*) AS ?n) WHERE { ?d ex:mentions ?e . }
        GROUP BY ?e HAVING(?n > 1)""")


def test_sum_avg_global(ray_session):
    _assert_same(PFX + """
        SELECT (SUM(?n) AS ?total) (AVG(?n) AS ?mean)
        WHERE { ?e ex:employees ?n . }""")


def test_order_by_limit(ray_session):
    query = PFX + """
        SELECT ?e ?n WHERE { ?e ex:employees ?n . }
        ORDER BY DESC(?n) LIMIT 2"""
    rows = _assert_same(query)
    # numeric DESC (the in-memory comparator): 1200 > 250 > 40
    assert [r["n"] for r in rows] == ["1200", "250"]


def test_path_sequence(ray_session):
    # d mentions e / e hq_in p — fixed-length path == the 2-pattern BGP;
    # DISTINCT because the rewrite keeps the spec's bag multiplicity
    # while the in-memory evaluator dedups endpoint pairs
    _assert_same(PFX + """
        SELECT DISTINCT ?d ?p WHERE { ?d ex:mentions/ex:hq_in ?p . }""")


def test_path_inverse(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?e ?d WHERE { ?e ^ex:mentions ?d . }""")


def test_path_alternative_becomes_union(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?x ?y WHERE {
            ?x ex:hq_in|ex:employees ?y . }""")


def test_path_sequence_with_inverse_and_alt(ray_session):
    # companies sharing a mentioning doc: ^mentions then mentions
    _assert_same(PFX + """
        SELECT DISTINCT ?a ?b WHERE { ?a ^ex:mentions/ex:mentions ?b . }""")


def test_ask_true_and_false(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_query,
    )

    yes = sparql_query(_ds(), PFX +
                       "ASK { ?d ex:mentions ex:octan . }").to_pandas()
    assert yes["ask"].tolist() == [True]
    no = sparql_query(_ds(), PFX +
                      "ASK { ?d ex:mentions ex:ghost . }").to_pandas()
    assert no["ask"].tolist() == [False]


def test_describe_is_one_hop_subgraph(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_query,
    )

    got = sparql_query(_ds(), PFX + "DESCRIBE ex:octan").to_pandas()
    spo = set(map(tuple,
                  got[["subject", "predicate", "object"]].values))
    assert spo == {
        (EX + "d1", EX + "mentions", EX + "octan"),
        (EX + "d2", EX + "mentions", EX + "octan"),
        (EX + "octan", EX + "hq_in", EX + "vienna"),
        (EX + "octan", EX + "employees", "1200"),
    }


def test_unknown_form_raises(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_query,
    )

    with pytest.raises(NotImplementedError, match="CONSTRUCT"):
        sparql_query(_ds(), "CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }")


def test_negated_property_set(ray_session):
    # every edge out of octan/acme that is NOT employees
    _assert_same(PFX + """
        SELECT DISTINCT ?s ?v WHERE { ?s !ex:employees ?v . }""")


def test_negated_property_set_mixed_inverse(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?a ?b WHERE {
            ?a !(ex:employees|^ex:mentions) ?b . }""")


def test_negset_inside_sequence(ray_session):
    # one non-employees hop then in_country
    _assert_same(PFX + """
        SELECT DISTINCT ?e ?c WHERE {
            ?e !ex:employees/ex:in_country ?c . }""")


def test_bind_arithmetic(ray_session):
    _assert_same(PFX + """
        SELECT ?e ?m WHERE {
            ?e ex:employees ?n . BIND((?n + 1) AS ?m) }""")


def test_bind_over_bound_var_keeps_agreeing_rows(ray_session):
    _assert_same(PFX + """
        SELECT ?e ?n WHERE {
            ?e ex:employees ?n . BIND(?n AS ?n) }""")


def test_values_single_var(ray_session):
    _assert_same(PFX + """
        SELECT ?d ?e WHERE {
            ?d ex:mentions ?e .
            VALUES ?e { ex:octan ex:initech } }""")


def test_values_two_vars_with_undef(ray_session):
    _assert_same(PFX + """
        SELECT ?d ?e WHERE {
            ?d ex:mentions ?e .
            VALUES (?d ?e) { (ex:d1 UNDEF) (UNDEF ex:initech) } }""")


def test_filter_exists(ray_session):
    # docs mentioning an entity that HAS a headquarters
    _assert_same(PFX + """
        SELECT DISTINCT ?d ?e WHERE {
            ?d ex:mentions ?e .
            FILTER EXISTS { ?e ex:hq_in ?p . } }""")


def test_filter_not_exists(ray_session):
    _assert_same(PFX + """
        SELECT DISTINCT ?e WHERE {
            ?d ex:mentions ?e .
            FILTER NOT EXISTS { ?e ex:hq_in ?p . } }""")


def test_subquery_natural_join(ray_session):
    # inner: per-entity mention counts; outer: join hq place onto them
    _assert_same(PFX + """
        SELECT ?e ?p ?n WHERE {
            ?e ex:hq_in ?p .
            { SELECT ?e (COUNT(*) AS ?n) WHERE {
                ?d ex:mentions ?e . } GROUP BY ?e }
        }""")


def test_transitive_plus_closure(ray_session):
    # hq_in/in_country chains don't repeat predicates, so build a chain
    # on one predicate: mentions+ is degenerate; use a locatedIn set
    import ray.data

    chain = [("a", "in", "b"), ("b", "in", "c"), ("c", "in", "d"),
             ("x", "other", "y")]
    ds = ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in chain],
        "predicate": [t[1] for t in chain],
        "object": [t[2] for t in chain],
        "object_kind": ["iri"] * len(chain),
    }))
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select as sq,
    )

    got = sq(ds, 'SELECT DISTINCT ?s ?o WHERE { ?s "in"+ ?o . }') \
        .to_pandas()
    pairs = set(map(tuple, got.values))
    assert pairs == {("a", "b"), ("a", "c"), ("a", "d"),
                     ("b", "c"), ("b", "d"), ("c", "d")}

    # local evaluator agrees
    gi = GraphIndex([(s, p, o, "iri", None, None) for s, p, o in chain])
    local = gi.query('SELECT DISTINCT ?s ?o WHERE { ?s "in"+ ?o . }')
    assert {(r["s"], r["o"]) for r in local} == pairs


def test_plus_in_sequence_path(ray_session):
    # one closure hop then a fixed hop: a in+ ?m / ?m in_country ?c —
    # expressed as a sequence path "in"+/"leads" over a mixed graph
    import ray.data

    rows = [("a", "in", "b"), ("b", "in", "c"), ("c", "leads", "z")]
    ds = ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in rows],
        "predicate": [t[1] for t in rows],
        "object": [t[2] for t in rows],
        "object_kind": ["iri"] * len(rows),
    }))
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select as sq,
    )

    got = sq(ds, 'SELECT DISTINCT ?s ?z WHERE { ?s "in"+/"leads" ?z . }') \
        .to_pandas()
    assert set(map(tuple, got.values)) == {("a", "z"), ("b", "z")}


def test_optional_nullable_right_side(ray_session):
    # round-5: the OPTIONAL side itself carrying unbound shared vars
    # (null-wildcard compatibility on BOTH sides) is now supported via
    # both-sides strata — differential vs the in-memory evaluator
    _assert_same(PFX + """
        SELECT ?d ?c ?e WHERE {
            ?d ex:mentions ?m .
            OPTIONAL { ?m ex:hq_in ?c }
            OPTIONAL { ?x ex:employees ?e
                       OPTIONAL { ?x ex:hq_in ?c } . ?x ?q ?m }
        }""")


# ---- closures (*, ?, complex +) ------------------------------------------


def test_sequence_closure_counts_each_pair_once(ray_session):
    # two routes a -> c: the closure must hold the pair once, although
    # the sequence's edges reach forward_chain untyped and the rule head
    # types what it derives as an IRI
    rows = [(EX + s, EX + p, EX + o, "iri") for s, p, o in [
        ("a", "p", "m1"), ("m1", "q", "b"), ("b", "p", "m2"),
        ("m2", "q", "c"), ("a", "p", "m3"), ("m3", "q", "c")]]
    _assert_same_over(rows, PFX + "SELECT ?s ?o WHERE { ?s (ex:p/ex:q)+ ?o }")


def test_plus_closure_to_literal_counts_each_pair_once(ray_session):
    # a -> "lit" is asserted and also derived through b: the derived
    # IRI-typed fact must not add a second row next to the literal one
    rows = [(EX + "a", EX + "p", EX + "b", "iri"),
            (EX + "b", EX + "p", "lit", "literal"),
            (EX + "a", EX + "p", "lit", "literal")]
    _assert_same_over(rows, PFX + "SELECT ?s ?o WHERE { ?s ex:p+ ?o }")



def test_star_closure_with_join(ray_session):
    _assert_same(PFX + "SELECT DISTINCT ?x ?c WHERE { "
                 "?x (ex:hq_in/ex:in_country)* ?c . ?x ex:employees ?e }")


def test_star_bound_object(ray_session):
    _assert_same(PFX +
                 "SELECT DISTINCT ?x WHERE { ?x ex:hq_in* ex:berlin }")


def test_opt_zero_or_one(ray_session):
    _assert_same(PFX + "SELECT DISTINCT ?d ?o WHERE { "
                 "?d ex:mentions ?m . ?m ex:hq_in? ?o }")


def test_opt_bound_subject_complex(ray_session):
    _assert_same(PFX + "SELECT DISTINCT ?c WHERE { "
                 "ex:acme (ex:hq_in/ex:in_country)? ?c }")


def test_plus_complex_subpath(ray_session):
    _assert_same(PFX + "SELECT DISTINCT ?x ?y WHERE { "
                 "?x (ex:hq_in/ex:in_country)+ ?y }")


def test_closure_inside_alternative(ray_session):
    _assert_same(PFX + "SELECT DISTINCT ?x ?y WHERE { "
                 "?x (ex:employees|ex:hq_in+) ?y }")


def test_star_unbound_both_ends(ray_session):
    # zero-length arm over ALL graph terms (subjects ∪ objects,
    # literals included) joined against a required pattern
    _assert_same(PFX + "SELECT DISTINCT ?x ?y WHERE { "
                 "?x (ex:mentions/ex:hq_in)* ?y . ?x ex:mentions ?m }")


# ---- rich OPTIONAL / MINUS groups ----------------------------------------


def test_path_inside_optional(ray_session):
    _assert_same(PFX + "SELECT ?d ?c WHERE { ?d ex:mentions ?m "
                 "OPTIONAL { ?m ex:hq_in/ex:in_country ?c } }")


def test_filter_inside_optional(ray_session):
    _assert_same(PFX + "SELECT ?x ?e WHERE { ?x ex:employees ?e "
                 "OPTIONAL { ?x ex:hq_in ?h FILTER(?h = ex:berlin) } }")


def test_closure_inside_optional(ray_session):
    _assert_same(PFX + "SELECT ?d ?c WHERE { ?d ex:mentions ?m "
                 "OPTIONAL { ?m (ex:hq_in/ex:in_country)+ ?c } }")


def test_union_inside_optional(ray_session):
    _assert_same(PFX + "SELECT ?x ?v WHERE { ?x ex:employees ?e "
                 "OPTIONAL { { ?x ex:hq_in ?v } UNION "
                 "{ ?x ex:in_country ?v } } }")


def test_path_inside_minus(ray_session):
    _assert_same(PFX + "SELECT ?x WHERE { ?x ex:employees ?e "
                 "MINUS { ?x ex:hq_in/ex:in_country ex:germany } }")


# ---- aggregates beyond Ray natives ---------------------------------------


def test_sample_and_group_concat_distinct(ray_session):
    _assert_same(PFX + "SELECT ?d (SAMPLE(?m) AS ?one) "
                 '(GROUP_CONCAT(DISTINCT ?m ; SEPARATOR=",") AS ?all) '
                 "WHERE { ?d ex:mentions ?m } GROUP BY ?d")


def test_count_distinct(ray_session):
    _assert_same(PFX + "SELECT (COUNT(DISTINCT ?m) AS ?n) "
                 "WHERE { ?d ex:mentions ?m }")


def test_count_distinct_star(ray_session):
    _assert_same(PFX + "SELECT (COUNT(DISTINCT *) AS ?n) "
                 "WHERE { ?d ex:mentions ?m }")


def test_min_max_numeric_general_path(ray_session):
    _assert_same(PFX + "SELECT (MIN(?e) AS ?lo) (MAX(?e) AS ?hi) "
                 "WHERE { ?x ex:employees ?e }")


def test_min_lexical_fallback(ray_session):
    # IRI values: the in-memory evaluator falls back to lexical min
    _assert_same(PFX + "SELECT (MIN(?m) AS ?first) "
                 "WHERE { ?d ex:mentions ?m }")


def test_sum_distinct(ray_session):
    _assert_same(PFX + "SELECT (SUM(DISTINCT ?e) AS ?s) "
                 "WHERE { ?x ex:employees ?e }")


def test_group_by_without_aggregates(ray_session):
    _assert_same(PFX + "SELECT ?m WHERE { ?d ex:mentions ?m } "
                 "GROUP BY ?m")


# ---- ORDER BY numeric comparator + OFFSET --------------------------------


def test_order_by_numeric_not_lexical(ray_session):
    # employees: 250, 1200, 40 — lexical order would put "1200" first
    _assert_same(PFX + "SELECT ?x ?e WHERE { ?x ex:employees ?e } "
                 "ORDER BY ?e LIMIT 2")


def test_order_by_desc_offset_limit(ray_session):
    _assert_same(PFX + "SELECT ?x ?e WHERE { ?x ex:employees ?e } "
                 "ORDER BY DESC(?e) OFFSET 1 LIMIT 1")


def test_offset_without_limit(ray_session):
    _assert_same(PFX + "SELECT ?x ?e WHERE { ?x ex:employees ?e } "
                 "ORDER BY ?e OFFSET 2")


def test_order_by_unbound_lowest_asc_desc(ray_session):
    # unbound (OPTIONAL-null) sorts lowest: leads ASC, trails DESC
    _assert_same(PFX + "SELECT ?m ?c WHERE { ?d ex:mentions ?m "
                 "OPTIONAL { ?m ex:hq_in ?c } } ORDER BY ?c ?m LIMIT 3")
    _assert_same(PFX + "SELECT ?m ?c WHERE { ?d ex:mentions ?m "
                 "OPTIONAL { ?m ex:hq_in ?c } } "
                 "ORDER BY DESC(?c) ?m LIMIT 3")


# ---- round-5 parity closures: multi-MINUS, both-sides null wildcards,
# ---- property paths under constant GRAPH


def test_two_minus_groups(ray_session):
    # sequential Minus(Minus(acc, m1), m2)
    _assert_same(PFX + "SELECT ?d ?m WHERE { ?d ex:mentions ?m "
                 "MINUS { ?d ex:mentions ex:octan } "
                 "MINUS { ?d ex:mentions ex:initech } }")


def test_plain_plus_rich_minus(ray_session):
    # first (plain) MINUS fuses into the BGP planner; the second is
    # rich (contains a FILTER) and applies as a left_anti
    _assert_same(PFX + "SELECT ?x ?e WHERE { ?x ex:employees ?e "
                 "MINUS { ?x ex:hq_in ex:vienna } "
                 "MINUS { ?x ex:employees ?e . FILTER(?e > 100) } }")


def test_three_minus_groups(ray_session):
    _assert_same(PFX + "SELECT ?d WHERE { ?d ex:mentions ?m "
                 "MINUS { ?d ex:mentions ex:acme } "
                 "MINUS { ?d ex:mentions ex:octan } "
                 "MINUS { ?d ex:mentions ex:initech } }")


def test_optional_union_introduces_right_nulls(ray_session):
    # the OPTIONAL contains a UNION whose arms bind DIFFERENT vars, so
    # the optional side carries unbound shared vars — the both-sides
    # strata path
    _assert_same(PFX + """
        SELECT ?m ?c ?e WHERE {
            ?d ex:mentions ?m .
            OPTIONAL { ?m ex:hq_in ?c }
            OPTIONAL {
                { ?m ex:hq_in ?c } UNION { ?m ex:employees ?e }
            }
        }""")


def test_nested_optional_inside_optional(ray_session):
    # inner OPTIONAL makes the outer optional side nullable on ?c, a
    # var shared with the already-nullable left side: null-wildcard
    # compatibility on BOTH sides
    _assert_same(PFX + """
        SELECT ?d ?c ?e WHERE {
            ?d ex:mentions ?m .
            OPTIONAL { ?m ex:hq_in ?c }
            OPTIONAL { ?m ex:employees ?e
                       OPTIONAL { ?m ex:hq_in ?c } }
        }""")


def _quad_setup():
    """Quad dataset + quad-aware GraphIndex with the same content:
    graph g1 holds the hq/country chain, g2 a divergent copy."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    quads = []
    for s, p, o, kind, lang, dt in TRIPLES:
        quads.append((s, p, o, kind, lang, dt, "urn:g1"))
    # g2: acme hq moves — per-graph paths must not mix graphs
    quads.append((EX + "acme", EX + "hq_in", EX + "vienna",
                  "iri", None, None, "urn:g2"))
    quads.append((EX + "vienna", EX + "in_country", EX + "austria",
                  "iri", None, None, "urn:g2"))

    gi = GraphIndex(graphs=[])
    for s, p, o, kind, lang, dt, g in quads:
        gi.add((s, p, o, kind, lang, dt), graph=g)

    cols = list(zip(*quads))
    ds = ray.data.from_arrow(pa.table({
        "subject": list(cols[0]), "predicate": list(cols[1]),
        "object": list(cols[2]), "object_kind": list(cols[3]),
        "graph": list(cols[6]),
    }))
    return ds, gi


def _assert_same_quads(query):
    ds, gi = _quad_setup()
    df = sparql_select(ds, query).to_pandas()
    rows = []
    for r in df.to_dict(orient="records"):
        rows.append(tuple(sorted(
            (k, v) for k, v in r.items() if v is not None and v == v)))
    local = [tuple(sorted(r.items())) for r in gi.query(query)]
    assert Counter(rows) == Counter(local)
    return rows


def test_seq_path_inside_constant_graph(ray_session):
    _assert_same_quads(
        PFX + "SELECT ?x ?k WHERE { GRAPH <urn:g1> { "
        "?x ex:hq_in/ex:in_country ?k } }")


def test_plus_closure_inside_constant_graph(ray_session):
    # the closure is computed over g1's edges only: acme reaches
    # germany through berlin, NOT austria (that route is g2-only)
    _assert_same_quads(
        PFX + "SELECT DISTINCT ?x ?y WHERE { GRAPH <urn:g1> { "
        "?x (ex:hq_in|ex:in_country)+ ?y } }")


def test_star_path_inside_constant_graph(ray_session):
    _assert_same_quads(
        PFX + "SELECT DISTINCT ?k WHERE { GRAPH <urn:g2> { "
        "ex:acme (ex:hq_in/ex:in_country)* ?k } }")


def test_path_inside_graph_var_enumerates(ray_session):
    # round-5: paths under GRAPH ?var evaluate per enumerated named
    # graph (bounded) — differential vs the in-memory evaluator; the
    # two graphs give DIFFERENT chains for acme
    _assert_same_quads(
        PFX + "SELECT ?g ?x ?k WHERE { GRAPH ?g { "
        "?x ex:hq_in/ex:in_country ?k } }")


def test_optional_inside_graph_var(ray_session):
    _assert_same_quads(
        PFX + "SELECT ?g ?x ?c ?k WHERE { GRAPH ?g { "
        "?x ex:hq_in ?c OPTIONAL { ?c ex:in_country ?k } } }")


def test_minus_after_optional_nullable_left(ray_session):
    # MINUS over a var the earlier OPTIONAL left possibly-null: rows
    # whose ?c is unbound share no bound var with the group → survive
    _assert_same(PFX + """
        SELECT ?d ?c WHERE {
            ?d ex:mentions ?m .
            OPTIONAL { ?m ex:hq_in ?c }
            MINUS { ?x ex:hq_in ?c . ?x ex:employees ?e .
                    FILTER(?e > 1000) }
        }""")


def test_minus_group_with_optional_inside(ray_session):
    # the MINUS group itself carries a possibly-null shared var
    _assert_same(PFX + """
        SELECT ?m ?e WHERE {
            ?m ex:employees ?e .
            MINUS { ?m ex:hq_in ?h
                    OPTIONAL { ?m ex:employees ?e } }
        }""")


def test_minus_disjoint_domain_removes_nothing(ray_session):
    # §18.5 guard: a MINUS row binding ONLY vars unbound in the
    # solution is not compatible — differential pin
    _assert_same(PFX + """
        SELECT ?d ?c WHERE {
            ?d ex:mentions ?m .
            OPTIONAL { ?m ex:hq_in ?c }
            MINUS { ?c ex:in_country ex:germany }
        }""")


def test_optional_inside_constant_graph(ray_session):
    # rich (OPTIONAL-bearing) group under GRAPH <iri> evaluates over
    # that graph only and joins back — g2 has no in_country for berlin
    _assert_same_quads(PFX + """
        SELECT ?x ?c ?k WHERE {
            GRAPH <urn:g1> {
                ?x ex:hq_in ?c
                OPTIONAL { ?c ex:in_country ?k }
            }
        }""")


def test_union_inside_constant_graph(ray_session):
    _assert_same_quads(PFX + """
        SELECT ?s ?v WHERE {
            GRAPH <urn:g2> {
                { ?s ex:hq_in ?v } UNION { ?s ex:in_country ?v }
            }
        }""")


def test_graph_group_joins_with_outer_patterns(ray_session):
    # the GRAPH group's solutions join the default-graph patterns on ?m
    _assert_same_quads(PFX + """
        SELECT ?d ?m ?c WHERE {
            ?d ex:mentions ?m .
            GRAPH <urn:g2> {
                ?m ex:hq_in ?c
                OPTIONAL { ?c ex:in_country ?k }
            }
        }""")


def test_union_arm_missing_shared_var_wildcard_join(ray_session):
    # one UNION arm binds ?c, the other doesn't — arm-2 rows are
    # null on the shared var and must join as wildcards (per-binding
    # Join), not be dropped by a strict hash join
    _assert_same(PFX + """
        SELECT ?m ?c ?k ?e WHERE {
            ?m ex:hq_in ?c .
            { ?c ex:in_country ?k }
            UNION
            { ?m ex:employees ?e }
        }""")


def test_graph_group_nullable_shared_join(ray_session):
    # the GRAPH group's OPTIONAL leaves ?k possibly-null; joining it
    # with an outer pattern that also binds ?k must treat null as a
    # wildcard
    _assert_same_quads(PFX + """
        SELECT ?m ?c ?k WHERE {
            GRAPH <urn:g1> { ?c ex:in_country ?k }
            GRAPH <urn:g2> {
                ?m ex:hq_in ?c
                OPTIONAL { ?c ex:in_country ?k }
            }
        }""")


def test_minus_after_rich_graph_group(ray_session):
    # MINUS over ?c, which only the rich GRAPH group binds: it must
    # apply after the GRAPH join, not fuse into the BGP planner, where
    # it would subtract on ?d alone and drop every d1 row
    rows = _assert_same_quads(PFX + """
        SELECT ?d ?m ?c WHERE {
            ?d ex:mentions ?m .
            GRAPH <urn:g1> {
                ?m ex:hq_in ?c
                OPTIONAL { ?c ex:in_country ?k }
            }
            MINUS { ?d ex:mentions ?x . ?x ex:hq_in ?c .
                    ?c ex:in_country ex:germany }
        }""")
    assert len(rows) == 2


def test_graph_var_bound_inside_group_must_agree(ray_session):
    # GRAPH ?g over a group that binds ?g itself: a row survives only
    # where the inner value equals the graph name
    import ray.data

    quads = [(EX + "s", EX + "p", "urn:g1", "urn:g1"),
             (EX + "t", EX + "p", "urn:g2", "urn:g1"),
             (EX + "s", EX + "q", "x", "urn:g1")]
    gi = GraphIndex(graphs=[])
    for s, p, o, g in quads:
        gi.add((s, p, o, "iri", None, None), graph=g)
    ds = ray.data.from_arrow(pa.table({
        "subject": [q[0] for q in quads], "predicate": [q[1] for q in quads],
        "object": [q[2] for q in quads], "graph": [q[3] for q in quads]}))
    query = PFX + """SELECT ?s ?g ?v WHERE {
        GRAPH ?g { ?s ex:p ?g OPTIONAL { ?s ex:q ?v } } }"""
    dist = sparql_select(ds, query).to_pandas()
    rows = [tuple(sorted((k, v) for k, v in r.items() if v is not None))
            for r in dist.to_dict(orient="records")]
    local = [tuple(sorted(r.items())) for r in gi.query(query)]
    assert Counter(rows) == Counter(local)
    assert len(rows) == 1


@pytest.mark.parametrize("select, where", [
    ("(COUNT(?o) AS ?n)", "?s ex:nope ?o"),
    ("(COUNT(*) AS ?n)", "?s ex:nope ?o"),
    ("(COUNT(DISTINCT ?o) AS ?n)", "?s ex:nope ?o"),
    ("(COUNT(?n) AS ?c)", "?e ex:employees ?n FILTER(?n > 100000)"),
    ("(GROUP_CONCAT(?o) AS ?n)", "?s ex:nope ?o"),
    ("(SUM(?o) AS ?n)", "?s ex:nope ?o"),
    ("(AVG(?o) AS ?n)", "?s ex:nope ?o"),
    ("(MIN(?o) AS ?n)", "?s ex:nope ?o"),
])
def test_aggregate_without_group_by_over_no_solutions(ray_session, select,
                                                      where):
    # §18.5.1: with no GROUP BY the solutions form one group even when
    # there are none — COUNT 0, GROUP_CONCAT "", the rest unbound
    _assert_same(PFX + f"SELECT {select} WHERE {{ {where} }}")


@pytest.mark.parametrize("query, cols", [
    ("SELECT ?s ?z WHERE { ?s ex:nope ?o . BIND(?o AS ?z) "
     "FILTER EXISTS { ?z ex:hq_in ?c } }", ["s", "z"]),
    ("SELECT ?s ?z WHERE { ?s ex:nope ?o . BIND(?o AS ?z) }", ["s", "z"]),
    ("SELECT ?s ?v WHERE { ?s ex:nope ?o . VALUES ?v { ex:a ex:b } }",
     ["s", "v"]),
    ("SELECT ?s ?o WHERE { ?s ex:nope ?o } ORDER BY ?o", ["s", "o"]),
    ("SELECT DISTINCT ?s WHERE { ?s ex:nope ?o }", ["s"]),
])
def test_empty_result_keeps_projected_columns(ray_session, query, cols):
    _assert_same(PFX + query)
    out = sparql_select(_ds(), PFX + query).materialize()
    assert out.schema().names == cols
