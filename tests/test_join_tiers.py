"""Both tiers of the solution join (``pipelines/kg_query._solution_join``).

``test_sparql_dist`` and ``test_bgp_property`` run at the default
``BROADCAST_JOIN_ROWS``, where their small inputs take the broadcast
tier.  This module collects their tests again with the gate at 0, where
every solution join takes the hash-shuffle tier, so both tiers answer to
the same oracles.  The tests defined here pin which tier runs.
"""

import pytest

from cmc_knowledge_graph_text2ttl_ray.functions import cluster
from test_bgp_property import *  # noqa: F401,F403
from test_sparql_dist import *  # noqa: F401,F403
from test_sparql_dist import PFX, _assert_same

DEFAULT_GATE = cluster.BROADCAST_JOIN_ROWS


@pytest.fixture(scope="module", autouse=True)
def hash_shuffle_tier():
    # module scope: the hypothesis tests reject function-scoped fixtures
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
        yield


@pytest.fixture
def executed_ops(monkeypatch):
    """Names of the physical operators of every dataset execution."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    names, orig = [], StreamingExecutor.execute

    def execute(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            names.append(op.name)
            stack.extend(op.input_dependencies)
        return orig(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return names


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
