"""Connected components + fuzzy-dedup survivor selection.

The distributed path is exercised with ``force_distributed=True`` and a
tiny ``num_join_partitions`` so CI covers the join/groupby rounds, and its
labeling is checked against (a) the vectorized numpy driver path and (b) a
brute-force BFS reference.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _bfs_components(edges):
    """Reference labeling: min node id per component via plain BFS."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    label = {}
    for start in adj:
        if start in label:
            continue
        comp, queue = [start], [start]
        seen = {start}
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    queue.append(y)
        m = min(comp)
        for x in comp:
            label[x] = m
    return label


def _edges_ds(edges):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(
        {"doc_a": [e[0] for e in edges], "doc_b": [e[1] for e in edges]}))


def _check(edges, **kw):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        connected_components,
    )

    got = connected_components(_edges_ds(edges), **kw).to_pandas()
    want = _bfs_components(edges)
    assert dict(zip(got["node"], got["cluster_id"])) == want


def test_cc_driver_path_random_graph(ray_session):
    rng = np.random.RandomState(5)
    edges = [(int(a), int(b))
             for a, b in rng.randint(0, 400, size=(300, 2))]
    _check(edges)


def test_cc_distributed_matches_bfs(ray_session):
    rng = np.random.RandomState(9)
    edges = [(int(a), int(b))
             for a, b in rng.randint(0, 150, size=(120, 2))]
    _check(edges, force_distributed=True, num_join_partitions=2)


def test_cc_distributed_long_chain(ray_session):
    # a 120-node path: diameter 119 — converges only because of pointer
    # doubling (log rounds), within the default max_rounds cap
    edges = [(i, i + 1) for i in range(119)]
    _check(edges, force_distributed=True, num_join_partitions=2)


def test_cc_self_loops_duplicates_empty(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        connected_components,
    )

    _check([(7, 7), (1, 2), (2, 1), (1, 2), (9, 9)])
    empty = connected_components(_edges_ds([]))
    assert empty.schema().names == ["node", "cluster_id"]
    assert empty.count() == 0


def test_cc_demo_matches_recursive_oracle(ray_session, tmp_path):
    """Same labeling as the DuckDB WITH RECURSIVE oracle on a synthesized
    documents table (chain-shaped multi-hop components)."""
    import duckdb
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        cc_demo_clusters,
    )
    import __ray_entry__ as entrymod

    rng = np.random.RandomState(3)
    n = 200
    table = pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array(["w " * int(k) for k in rng.randint(5, 60, n)]),
        "n_chars": pa.array(rng.randint(10, 500, n), pa.int64()),
    })
    pq.write_table(table, str(tmp_path / "documents.parquet"))

    got = cc_demo_clusters(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(entrymod.oracle_sql()["docs_cc_clusters"]).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype("int64"),
        want.reset_index(drop=True).astype("int64"))


def _near_dup_corpus(tmp_path):
    base = ("the quick brown fox jumps over the lazy dog near the river "
            "bank " * 6)
    texts = {
        0: base,
        1: base.replace("lazy", "sleepy"),
        2: base,
        3: "completely different words about ray data pipelines and arrow "
           "columns shuffles and actor pools " * 6,
        4: "yet another unrelated text with its own vocabulary entirely "
           "about turtles graphs and triples " * 6,
    }
    pq.write_table(
        pa.table({"doc_id": pa.array(list(texts), pa.int64()),
                  "text": pa.array(list(texts.values()))}),
        str(tmp_path / "documents.parquet"))


def test_fuzzy_dedup_survivors(ray_session, tmp_path):
    """Planted near-dup cluster collapses to one survivor (min doc_id);
    distinct docs survive untouched."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import fuzzy_dedup

    _near_dup_corpus(tmp_path)
    out = fuzzy_dedup(str(tmp_path), threshold=0.6).to_pandas()
    out = out.set_index("doc_id").sort_index()
    assert len(out) == 5
    assert list(out.loc[[0, 1, 2], "cluster_id"]) == [0, 0, 0]
    assert list(out.loc[[0, 1, 2], "keep"]) == [True, False, False]
    assert out.loc[3, "keep"] and out.loc[4, "keep"]
    assert out.loc[3, "cluster_id"] == 3 and out.loc[4, "cluster_id"] == 4


def test_fuzzy_dedup_hash_tier_matches_broadcast(ray_session, tmp_path,
                                                 monkeypatch):
    """At gate 0 the cluster labeling takes the hash-join tier and
    gives the default run's frame."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import fuzzy_dedup

    _near_dup_corpus(tmp_path)

    def run():
        return fuzzy_dedup(str(tmp_path), threshold=0.6).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

    want = run()
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    pd.testing.assert_frame_equal(run(), want)
    assert (~want["keep"]).sum() == 2


def test_pagerank_matches_dense_reference(ray_session):
    """Distributed pagerank equals a dense numpy power iteration on a
    small graph with a dangling node (2) and a multi-edge (0→1 twice)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import pagerank

    edges = pd.DataFrame({"src": [0, 0, 0, 1, 3],
                          "dst": [1, 1, 2, 2, 0]})
    got = pagerank(ray.data.from_pandas(edges), damping=0.85,
                   iters=5).to_pandas().set_index("node")["rank"]

    nodes = [0, 1, 2, 3]
    out = edges.groupby("src").size()
    r = {n: 1 / 4 for n in nodes}
    for _ in range(5):
        contrib = {n: 0.0 for n in nodes}
        for s, d in zip(edges["src"], edges["dst"]):
            contrib[d] += r[s] / out[s]
        r = {n: 0.15 / 4 + 0.85 * contrib[n] for n in nodes}
    for n in nodes:
        assert abs(got[n] - r[n]) < 1e-12, (n, got[n], r[n])
    # dangling node 2 leaks mass: total < 1 in the simplified variant
    assert got.sum() < 1.0


def test_pagerank_empty_edges(ray_session):
    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import pagerank

    empty = ray.data.from_pandas(
        pd.DataFrame({"src": pd.Series(dtype="int64"),
                      "dst": pd.Series(dtype="int64")}))
    assert pagerank(empty).to_pandas().empty


def test_triangle_count_known_graph(ray_session):
    import ray.data
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import triangle_count

    # K4 on {1,2,3,4} (4 triangles) + pendant 5 + self-loop + multi-edges
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
             (4, 5), (5, 5), (2, 1), (3, 1), (1, 2)]
    ds = ray.data.from_pandas(pd.DataFrame(edges, columns=["a", "b"]))
    out = triangle_count(ds)
    assert out["n_triangles"].tolist() == [4]


def test_triangle_count_join_fallback_parity(ray_session):
    import ray.data
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        copurchase_edges,
        triangle_count,
    )

    sf = "/root/testdata/sf0.001"
    e = copurchase_edges(sf).materialize()
    fast = triangle_count(e, a="src", b="dst")
    slow = triangle_count(e, a="src", b="dst", broadcast_threshold=0)
    assert fast["n_triangles"].tolist() == slow["n_triangles"].tolist()


def test_pagerank_driver_path_matches_distributed(ray_session):
    """Small graphs take the numpy driver path; it must equal the
    distributed iteration bit-for-bit semantics."""
    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import pagerank

    edges = pd.DataFrame({"src": [0, 0, 1, 2, 3, 3, 3],
                          "dst": [1, 2, 2, 0, 0, 1, 4]})
    ds = ray.data.from_pandas(edges).repartition(3)
    a = pagerank(ds, iters=5).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    b = pagerank(ds, iters=5, force_distributed=True).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, atol=1e-12)


# --------------------------------------------------------------------------
# multi-source BFS hop distances
# --------------------------------------------------------------------------

def _edge_ds(pairs):
    import pandas as pd
    import ray

    return ray.data.from_pandas(pd.DataFrame(
        pairs, columns=["src", "dst"]).astype("int64"))


def test_bfs_planted_chain_and_branch(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        bfs_distances,
    )

    #  0 -> 1 -> 2 -> 3 ;  1 -> 4 ;  5 -> 6 (unreachable from 0, directed)
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)]
    got = bfs_distances(_edge_ds(edges), [0], directed=True) \
        .to_pandas().set_index("node")["dist"].to_dict()
    assert got == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}
    # undirected pulls in nothing new here except by symmetry
    got_u = bfs_distances(_edge_ds(edges), [0], directed=False) \
        .to_pandas().set_index("node")["dist"].to_dict()
    assert got_u == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}
    # hop cap
    capped = bfs_distances(_edge_ds(edges), [0], directed=True,
                           max_hops=1).to_pandas()
    assert set(capped["node"]) == {0, 1}


def test_bfs_multi_seed_min_distance(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        bfs_distances,
    )

    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    got = bfs_distances(_edge_ds(edges), [0, 4], directed=False) \
        .to_pandas().set_index("node")["dist"].to_dict()
    assert got == {0: 0, 4: 0, 1: 1, 3: 1, 2: 2}


def test_bfs_distributed_path_equivalent(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        bfs_distances,
        copurchase_edges,
    )

    sf = "/root/testdata/sf0.001"
    a = bfs_distances(copurchase_edges(sf), [0], max_hops=3).to_pandas()
    b = bfs_distances(copurchase_edges(sf), [0], max_hops=3,
                      force_distributed=True).to_pandas()
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    assert (a["dist"] == 0).sum() == 1 and len(a) > 1


def test_bfs_isolated_seed(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        bfs_distances,
    )

    got = bfs_distances(_edge_ds([(7, 8)]), [99]).to_pandas()
    assert got.to_dict("records") == [{"node": 99, "dist": 0}]


def test_approx_closeness_star_center_highest(ray_session):
    """On a star graph the hub has max closeness; exact when every node
    is a source (k >= n)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        approx_closeness,
    )

    star = [(0, i) for i in range(1, 8)]
    got = approx_closeness(_edge_ds(star), k_sources=8) \
        .to_pandas().set_index("node")
    assert got["closeness"].idxmax() == 0
    # all leaves symmetric
    leaf_vals = got.drop(index=0)["closeness"].round(6).unique()
    assert len(leaf_vals) == 1
    # with k = n the estimator is exact: hub closeness = (n-1)/sum(d)
    assert abs(got.loc[0, "closeness"] - 7 / 7) < 1e-6
    assert abs(leaf_vals[0] - 7 / (1 + 2 * 6)) < 1e-6


def test_approx_closeness_deterministic(ray_session):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        approx_closeness,
        copurchase_edges,
    )

    sf = "/root/testdata/sf0.001"
    a = approx_closeness(copurchase_edges(sf), k_sources=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    b = approx_closeness(copurchase_edges(sf), k_sources=4).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert a.equals(b)
    assert len(a) > 0
