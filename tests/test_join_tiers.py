"""Both tiers of the solution join (``pipelines/kg_query._solution_join``).

``test_sparql_dist`` and ``test_bgp_property`` run at the default
``BROADCAST_JOIN_ROWS``, where their small inputs take the broadcast
tier.  This module collects their tests again with the gate at 0, where
every solution join takes the hash-shuffle tier, so both tiers answer to
the same oracles.  The tests defined here pin which tier runs.
"""

import pytest

from cmc_knowledge_graph_text2ttl_ray.functions import cluster
from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
    sparql_select,
)
from test_bgp_property import *  # noqa: F401,F403
from test_sparql_dist import *  # noqa: F401,F403
from test_sparql_dist import PFX, _assert_same, _ds, _quad_setup

DEFAULT_GATE = cluster.BROADCAST_JOIN_ROWS


@pytest.fixture(scope="module", autouse=True)
def hash_shuffle_tier():
    # module scope: the hypothesis tests reject function-scoped fixtures
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
        yield


def _joins(names):
    return [n for n in names if n.startswith("Join")]


def test_small_star_query_takes_broadcast_tier(ray_session, executed_ops,
                                               monkeypatch):
    query = PFX + """SELECT ?e ?p ?n WHERE {
        ?e ex:hq_in ?p . ?e ex:employees ?n . ?d ex:mentions ?e }"""
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", DEFAULT_GATE)
    _assert_same(query)
    assert executed_ops and not _joins(executed_ops)
    executed_ops.clear()
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    _assert_same(query)
    assert _joins(executed_ops)


def test_cross_stratum_pair_is_broadcast(ray_session, executed_ops,
                                         monkeypatch):
    # the second UNION arm leaves ?c unbound: its stratum shares no
    # bound var with the left side, so that pair is a cross product
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", DEFAULT_GATE)
    _assert_same(PFX + """
        SELECT ?m ?c ?k ?x ?e WHERE {
            ?m ex:hq_in ?c .
            { ?c ex:in_country ?k } UNION { ?x ex:employees ?e }
        }""")
    assert executed_ops and not _joins(executed_ops)


NO_PROBE_QUERIES = {
    "bgp": "SELECT ?d ?e WHERE { ?d ex:mentions ?e . ?e ex:hq_in ?p }",
    "minus": """SELECT ?d ?e WHERE { ?d ex:mentions ?e
        MINUS { ?e ex:hq_in ex:berlin } MINUS { ?e ex:employees "40" } }""",
    "optional": """SELECT ?e ?p WHERE { ?d ex:mentions ?e
        OPTIONAL { ?e ex:hq_in ?p } }""",
    "optional_nullable": """SELECT ?e ?c WHERE { ?d ex:mentions ?e
        OPTIONAL { ?e ex:hq_in ?p } OPTIONAL { ?p ex:in_country ?c } }""",
    "union": """SELECT ?d ?c ?n WHERE { ?d ex:mentions ?e .
        { ?e ex:hq_in ?c } UNION { ?e ex:employees ?n } }""",
    "exists": """SELECT ?d ?e WHERE { ?d ex:mentions ?e
        FILTER EXISTS { ?e ex:hq_in ?p } }""",
    "bind_values": """SELECT ?e ?m WHERE { ?e ex:employees ?n .
        BIND((?n + 1) AS ?m) VALUES ?e { ex:acme ex:octan } }""",
    "subquery": """SELECT ?e ?p ?n WHERE { ?e ex:hq_in ?p .
        { SELECT ?e (COUNT(*) AS ?n) WHERE { ?d ex:mentions ?e }
          GROUP BY ?e } }""",
    "path": "SELECT ?d ?k WHERE { ?d ex:mentions/ex:hq_in+ ?k }",
    "grouped_aggregate": """SELECT ?e (SAMPLE(?d) AS ?s) WHERE {
        ?d ex:mentions ?e } GROUP BY ?e""",
    "ungrouped_aggregate": """SELECT (SUM(?n) AS ?t) (COUNT(*) AS ?c)
        WHERE { ?e ex:employees ?n }""",
    "distinct_order_by": """SELECT DISTINCT ?e ?n WHERE {
        ?e ex:employees ?n } ORDER BY DESC(?n)""",
    "constant_graph": """SELECT ?m ?c ?k WHERE { GRAPH <urn:g1> {
        ?m ex:hq_in ?c OPTIONAL { ?c ex:in_country ?k } } }""",
    "variable_graph": """SELECT ?g ?x ?k WHERE { GRAPH ?g {
        ?x ex:hq_in/ex:in_country ?k } }""",
}


@pytest.mark.parametrize("shape", sorted(NO_PROBE_QUERIES))
def test_no_schema_probes(ray_session, executed_ops, monkeypatch, shape):
    # solution sets carry their columns: no operator asks a lazy
    # Dataset for its schema, which Ray answers with a limit=1 run
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", DEFAULT_GATE)
    ds = _quad_setup()[0] if "graph" in shape else _ds()
    executed_ops.clear()
    sparql_select(ds, PFX + NO_PROBE_QUERIES[shape]).materialize()
    assert executed_ops and "limit=1" not in executed_ops
