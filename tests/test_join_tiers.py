"""Both tiers of the solution join (``functions/solutions.solution_join``).

``test_sparql_dist`` and ``test_bgp_property`` run at the default
``BROADCAST_JOIN_ROWS``, where their small inputs take the broadcast
tier.  This module collects their tests again with the gate at 0, where
every solution join takes the hash-shuffle tier, so both tiers answer to
the same oracles.  The tests defined here pin which tier runs, and that
narrow operators run as tasks, not as Ray Data executions.
"""

import pyarrow as pa
import pytest

import test_sparql_dist
from cmc_knowledge_graph_text2ttl_ray.functions import cluster
from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
    sparql_select,
)
from test_bgp_property import *  # noqa: F401,F403
from test_sparql_dist import *  # noqa: F401,F403
from test_sparql_dist import PFX, TRIPLES, _assert_same, _ds, _quad_setup

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
    assert "limit=1" not in executed_ops


# executions a shape may run: its wide operators, nothing else
WIDE_EXECUTIONS = {
    "distinct_order_by": 2,  # DISTINCT's exchange, ORDER BY's sort
    "grouped_aggregate": 1,  # SAMPLE's coarse_group_reduce
    "path": 1,  # the p+ closure's forward_chain input
    "subquery": 1,  # the subquery's COUNT Aggregate
    "ungrouped_aggregate": 1,  # Aggregate
    "variable_graph": 1,  # the named-graph enumeration
}


@pytest.fixture
def executions(monkeypatch):
    """Physical operator names of each dataset execution, one list per
    execution."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    runs, orig = [], StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        names, stack = [], [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        runs.append(names)
        return orig(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return runs


@pytest.mark.parametrize("shape", sorted(NO_PROBE_QUERIES))
def test_no_executions(ray_session, executions, monkeypatch, shape):
    # narrow operators run as tasks on the solution blocks; Ray Data
    # executes only the wide ones
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", DEFAULT_GATE)
    ds = _quad_setup()[0] if "graph" in shape else _ds()
    executions.clear()
    sparql_select(ds, PFX + NO_PROBE_QUERIES[shape]).materialize()
    assert len(executions) == WIDE_EXECUTIONS.get(shape, 0), executions
    for names in executions:
        assert shape == "path" or {"Aggregate", "Sort"} & set(names), names


def _mixed_blocks():
    """``_ds()``'s triples as a materialized Dataset of an Arrow block,
    a pandas block and an empty block of each kind."""
    import ray.data

    cols = list(zip(*TRIPLES))
    table = pa.table({"subject": list(cols[0]), "predicate": list(cols[1]),
                      "object": list(cols[2]), "object_kind": list(cols[3])})
    half = len(table) // 2
    parts = [ray.data.from_arrow(table.slice(0, half)),
             ray.data.from_pandas(table.slice(half).to_pandas()),
             ray.data.from_arrow(table.slice(0, 0)),
             ray.data.from_pandas(table.slice(0, 0).to_pandas())]
    return parts[0].union(*parts[1:]).materialize()


def test_mixed_block_source_has_every_block_kind(ray_session):
    import ray

    kinds = {(type(ray.get(ref)).__name__, meta.num_rows > 0)
             for bundle in _mixed_blocks().iter_internal_ref_bundles()
             for ref, meta in bundle.blocks}
    assert kinds == {("Table", True), ("Table", False),
                     ("DataFrame", True), ("DataFrame", False)}


@pytest.mark.parametrize("shape,gate", [
    (shape, DEFAULT_GATE) for shape in sorted(NO_PROBE_QUERIES)
    if "graph" not in shape] + [("bgp", 0), ("optional_nullable", 0)])
def test_mixed_block_source(ray_session, monkeypatch, shape, gate):
    # a materialized source may hold empty and pandas blocks: the scan
    # tasks read them as the oracle reads the triples
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", gate)
    monkeypatch.setattr(test_sparql_dist, "_ds", _mixed_blocks)
    _assert_same(PFX + NO_PROBE_QUERIES[shape])
