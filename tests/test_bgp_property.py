"""Property-based differential: random BGPs, distributed vs in-memory.

Random small triple graphs + random conjunctive queries (with optional
OPTIONAL/MINUS groups) evaluated through BOTH the distributed engine
(``bgp_query``) and the in-memory evaluator's join semantics (a direct
brute-force over binding dicts, same as ``tests/test_kg_query.py``).
Example counts are small because each distributed evaluation spins
several Ray jobs — breadth comes from the randomized structure, not the
example count.
"""

import itertools

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
    _is_var,
    bgp_query,
)

NODES = ["n0", "n1", "n2", "n3", "n4"]
PREDS = ["p", "q", "r"]
VARS = ["?x", "?y", "?z"]

edges = st.tuples(st.sampled_from(NODES), st.sampled_from(PREDS),
                  st.sampled_from(NODES))
graphs = st.lists(edges, min_size=1, max_size=12, unique=True)

terms_s = st.sampled_from(VARS + NODES)
terms_p = st.sampled_from(["?p"] + PREDS)


@st.composite
def patterns(draw, n_min=1, n_max=3):
    n = draw(st.integers(n_min, n_max))
    pats = []
    for _ in range(n):
        pats.append((draw(terms_s), draw(terms_p), draw(terms_s)))
    return pats


def _connected(pats):
    if not any(_is_var(t) for p in pats for t in p):
        return False
    groups = [set(t for t in p if _is_var(t)) for p in pats]
    if any(not g for g in groups):
        return False
    merged = groups[0]
    rest = groups[1:]
    while rest:
        for i, g in enumerate(rest):
            if merged & g:
                merged |= rest.pop(i)
                break
        else:
            return False
    return True


def _brute(graph, pats, project):
    rows = []
    for combo in itertools.product(graph, repeat=len(pats)):
        env, ok = {}, True
        for (s, p, o), pat in zip(combo, pats):
            for term, val in zip(pat, (s, p, o)):
                if _is_var(term):
                    if env.setdefault(term, val) != val:
                        ok = False
                        break
                elif term != val:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            rows.append(tuple(env[v] for v in project))
    return set(rows)


def _ds(graph):
    import pyarrow as pa
    import ray.data

    return ray.data.from_arrow(pa.table({
        "subject": [t[0] for t in graph],
        "predicate": [t[1] for t in graph],
        "object": [t[2] for t in graph],
    })).repartition(3)


@pytest.mark.usefixtures("ray_session")
@given(graphs, patterns())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_bgp_matches_bruteforce(graph, pats):
    if not _connected(pats):
        return
    proj = sorted({t for p in pats for t in p if _is_var(t)})
    got = bgp_query(_ds(graph), pats, project=proj,
                    distinct=True).to_pandas()
    got_set = (set(map(tuple, got.values)) if len(got) else set())
    want = _brute(graph, pats, proj)
    assert got_set == want


@pytest.mark.usefixtures("ray_session")
@given(graphs, patterns(n_max=2), patterns(n_min=1, n_max=1))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_minus_matches_setdiff(graph, pats, minus):
    if not _connected(pats):
        return
    pvars = {t for p in pats for t in p if _is_var(t)}
    mvars = {t for p in minus for t in p if _is_var(t)}
    shared = sorted(pvars & mvars)
    if not shared or not all(
            any(_is_var(t) for t in m) for m in minus):
        return
    proj = sorted(pvars)
    got = bgp_query(_ds(graph), pats, minus_patterns=minus,
                    project=proj, distinct=True).to_pandas()
    got_set = (set(map(tuple, got.values)) if len(got) else set())
    base = _brute(graph, pats, proj)
    # MINUS semantics: drop solutions whose shared-var projection occurs
    # in the subtrahend's solutions
    mproj = sorted(mvars)
    msols = _brute(graph, minus, mproj)
    key_idx = [proj.index(v) for v in shared]
    mkey_idx = [mproj.index(v) for v in shared]
    mkeys = {tuple(s[i] for i in mkey_idx) for s in msols}
    want = {r for r in base
            if tuple(r[i] for i in key_idx) not in mkeys}
    assert got_set == want


class TestAskDescribeInMemory:
    """ASK / DESCRIBE parity with the distributed dispatcher."""

    def _g(self):
        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import (
            GraphIndex,
        )

        return GraphIndex.from_turtle("""
        @prefix ex: <http://ex.org/> .
        ex:a ex:knows ex:b .
        ex:b ex:knows ex:c .
        ex:b ex:name "Bee" .
        """)

    def test_ask_true_false(self):
        g = self._g()
        q = "PREFIX ex: <http://ex.org/>\nASK { ex:a ex:knows ?x . }"
        assert g.query(q) == [{"ask": "true"}]
        q2 = "PREFIX ex: <http://ex.org/>\nASK { ex:c ex:knows ?x . }"
        assert g.query(q2) == [{"ask": "false"}]

    def test_describe_one_hop(self):
        g = self._g()
        rows = g.query("PREFIX ex: <http://ex.org/>\nDESCRIBE ex:b")
        got = {(r["subject"], r["predicate"], r["object"]) for r in rows}
        assert got == {
            ("http://ex.org/a", "http://ex.org/knows", "http://ex.org/b"),
            ("http://ex.org/b", "http://ex.org/knows", "http://ex.org/c"),
            ("http://ex.org/b", "http://ex.org/name", "Bee"),
        }

    def test_describe_needs_iri(self):
        import pytest

        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import (
            QueryError,
        )

        with pytest.raises(QueryError):
            self._g().query("DESCRIBE ?x WHERE { ?x ?p ?o }")

    def test_ask_matches_distributed(self, ray_session):
        import pandas as pd
        import ray

        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_query,
        )

        g = self._g()
        ds = ray.data.from_pandas(pd.DataFrame(
            [(t[0], t[1], t[2], "iri" if t[2].startswith("http") else
              "literal", None, None) for t in g._triples],
            columns=["subject", "predicate", "object", "object_kind",
                     "object_lang", "object_datatype"]))
        q = "PREFIX ex: <http://ex.org/>\nASK { ex:a ex:knows ?x . }"
        dist = sparql_query(ds, q).to_pandas()["ask"].iloc[0]
        assert (g.query(q)[0]["ask"] == "true") == bool(dist)


# ---- round-5: randomized OPTIONAL/MINUS chains through full SPARQL ----

def _iri(t):
    return t if t.startswith("?") else f"<urn:{t}>"


def _pat_txt(p):
    return f"{_iri(p[0])} {_iri(p[1])} {_iri(p[2])} ."


def _pat_vars(p):
    return {t for t in p if t.startswith("?")}


@pytest.mark.usefixtures("ray_session")
@given(graphs, st.data())
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_optional_chain_matches_inmemory(graph, data):
    """Random OPTIONAL chains (incl. correlation through an earlier
    OPTIONAL's nullable vars) + an optional trailing MINUS, evaluated
    through the FULL SPARQL front ends: distributed ``sparql_select``
    vs the in-memory evaluator. Exercises the round-5 both-sides
    strata machinery under randomized structure."""
    from collections import Counter

    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )
    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    pat = st.tuples(st.sampled_from(VARS + NODES),
                    st.sampled_from(PREDS),  # constant preds: keeps the
                    st.sampled_from(VARS + NODES))  # chains connected

    req = data.draw(pat.filter(lambda p: _pat_vars(p)))
    bound = _pat_vars(req)
    opts = []
    for _ in range(data.draw(st.integers(1, 2))):
        o = data.draw(pat.filter(
            lambda p, _b=frozenset(bound): _pat_vars(p) & _b))
        opts.append(o)
        bound |= _pat_vars(o)
    minus = None
    if data.draw(st.booleans()):
        minus = data.draw(pat.filter(
            lambda p, _b=frozenset(bound): _pat_vars(p) & _b))

    proj = sorted(bound)
    text = ("SELECT " + " ".join(proj) + " WHERE { " + _pat_txt(req)
            + " " + " ".join(f"OPTIONAL {{ {_pat_txt(o)} }}"
                             for o in opts)
            + (f" MINUS {{ {_pat_txt(minus)} }}" if minus else "")
            + " }")

    gi = GraphIndex([("urn:" + s, "urn:" + p, "urn:" + o,
                      "iri", None, None) for s, p, o in graph])
    local = Counter(
        frozenset(r.items()) for r in gi.query(text))

    ds = ray.data.from_arrow(__import__("pyarrow").table({
        "subject": ["urn:" + t[0] for t in graph],
        "predicate": ["urn:" + t[1] for t in graph],
        "object": ["urn:" + t[2] for t in graph],
    })).repartition(3)
    df = sparql_select(ds, text).to_pandas()
    dist = Counter(
        frozenset((k, v) for k, v in r.items()
                  if v is not None and v == v)
        for r in df.to_dict(orient="records"))
    assert local == dist, f"query: {text}"


GRAPHS_NAMES = ["g1", "g2", "g3"]
# objects may name a graph, so an inner pattern can bind the GRAPH var
quad_edges = st.tuples(st.sampled_from(NODES), st.sampled_from(PREDS),
                       st.sampled_from(NODES + GRAPHS_NAMES),
                       st.sampled_from(GRAPHS_NAMES))
quad_graphs = st.lists(quad_edges, min_size=1, max_size=14, unique=True)


@pytest.mark.usefixtures("ray_session")
@given(quad_graphs, st.data())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_graph_clause_matches_inmemory(quads, data):
    """Random GRAPH groups — constant or variable graph term, plain or
    path (seq / +) inner pattern, or (variable term only) an inner
    group that binds the graph var itself next to an OPTIONAL — through
    both front ends. Exercises the constant-graph path composition and
    the bounded GRAPH ?var enumeration under randomized structure."""
    from collections import Counter

    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )
    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    use_var = data.draw(st.booleans())
    use_path = data.draw(st.booleans())
    binds_g = use_var and not use_path and data.draw(st.booleans())
    gterm = "?g" if use_var else f"<urn:{data.draw(st.sampled_from(GRAPHS_NAMES))}>"
    if use_path:
        p1 = data.draw(st.sampled_from(PREDS))
        p2 = data.draw(st.sampled_from(PREDS))
        kind = data.draw(st.sampled_from(["seq", "plus"]))
        path = (f"<urn:{p1}>/<urn:{p2}>" if kind == "seq"
                else f"<urn:{p1}>+")
        inner = f"?a {path} ?b ."
        proj = ["?a", "?b"] + (["?g"] if use_var else [])
    elif binds_g:
        pr, pr2 = (data.draw(st.sampled_from(PREDS)) for _ in range(2))
        inner = f"?a <urn:{pr}> ?g OPTIONAL {{ ?a <urn:{pr2}> ?b }}"
        proj = ["?a", "?b", "?g"]
    else:
        pr = data.draw(st.sampled_from(PREDS))
        inner = f"?a <urn:{pr}> ?b ."
        proj = ["?a", "?b"] + (["?g"] if use_var else [])
    dedup = "DISTINCT " if use_path else ""  # closure bag vs set dedup
    text = (f"SELECT {dedup}" + " ".join(proj)
            + f" WHERE {{ GRAPH {gterm} {{ {inner} }} }}")

    gi = GraphIndex(graphs=[])
    for s, p, o, g in quads:
        gi.add(("urn:" + s, "urn:" + p, "urn:" + o, "iri", None, None),
               graph="urn:" + g)
    local = Counter(frozenset(r.items()) for r in gi.query(text))

    ds = ray.data.from_arrow(pa.table({
        "subject": ["urn:" + q[0] for q in quads],
        "predicate": ["urn:" + q[1] for q in quads],
        "object": ["urn:" + q[2] for q in quads],
        "graph": ["urn:" + q[3] for q in quads],
    })).repartition(3)
    df = sparql_select(ds, text).to_pandas()
    if use_path:
        df = df.drop_duplicates()  # rewrite has bag multiplicity
    dist = Counter(
        frozenset((k, v) for k, v in r.items()
                  if v is not None and v == v)
        for r in df.to_dict(orient="records"))
    assert local == dist, f"query: {text}"
