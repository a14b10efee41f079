"""Distributed graph algorithms over edge-list Datasets.

The reference engine has no graph operator; this module belongs to the
training-data-pipeline family: the near-duplicate detectors
(``pipelines/dedup.py``) emit PAIRS, but a cleaning pipeline needs
CLUSTERS and one survivor per cluster.  ``connected_components`` turns a
pair Dataset into a (node, cluster_id) labeling; :func:`fuzzy_dedup`
composes it with MinHash+LSH into a full fuzzy-dedup pass.

Scale shapes
------------

- **Driver path** (edge count ≤ ``driver_threshold``): the PAIR SET is the
  result of a dedup pass — proportional to the duplication rate, not the
  corpus — so it is usually tiny even at huge corpus sizes.  It is pulled
  once and solved with a fully-vectorized numpy min-label + pointer-doubling
  loop (no Python per-edge work, O(log n) rounds).
- **Distributed path** (past the threshold, or ``force_distributed``):
  iterative *min-label propagation with pointer doubling* expressed in Ray
  Data — per round, two hash joins (edge relax + label doubling) feeding ONE
  ``groupby(node).min`` that simultaneously computes the new label and
  carries the previous one, so convergence ("no label changed") is read off
  the same shuffle instead of needing an extra comparison join.  Labels are
  materialized per round (they are 2 ints/node — orders of magnitude smaller
  than the corpus).  Pointer doubling makes the round count O(log diameter),
  so even long path-shaped components converge in a handful of rounds; a
  ``max_rounds`` cap (default log2(#edges)+4) bounds the worst case.

Only (int64, int64) rows ever shuffle; the text / signature payloads never
enter the algorithm.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["connected_components", "fuzzy_dedup", "cc_demo_clusters",
           "pagerank", "copurchase_edges", "parts_pagerank",
           "triangle_count", "parts_triangles",
           "label_propagation", "parts_communities",
           "fuzzy_dedup_best_quality"]


def _cc_numpy(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Vectorized union-find-equivalent: min-label relax + pointer doubling.

    ``ids`` from ``np.unique`` is ascending, so index order == id order and
    the converged root index is the component's minimum id.
    """
    ids, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[: len(a)], inv[len(a):]
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        prev = lab.copy()
        # unbuffered min-accumulate handles repeated endpoints correctly
        np.minimum.at(lab, ai, lab[bi])
        np.minimum.at(lab, bi, lab[ai])
        lab = lab[lab]  # pointer doubling: lab[i] <= i so this only lowers
        if np.array_equal(lab, prev):
            break
    return pd.DataFrame({"node": ids, "cluster_id": ids[lab]})


def _norm_labels(num_parts: int):
    """Post-aggregate normalizer: ray groupby emits schema-less empty blocks
    that break downstream hash joins (same workaround as
    ``dedup._dedup_candidate_pairs``)."""

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "label": pd.Series(dtype="int64")})
        return pd.DataFrame({"node": df["node"].astype("int64"),
                             "label": df["label"].astype("int64")})

    return norm


def connected_components(
    edges,
    a: str = "doc_a",
    b: str = "doc_b",
    *,
    driver_threshold: int = 2_000_000,
    max_rounds: int | None = None,
    num_join_partitions: int | None = None,
    force_distributed: bool = False,
):
    """Label every node of an undirected edge list with the minimum node id
    reachable from it (its connected component).

    ``edges``: a Ray Dataset with two integer columns ``a`` and ``b``
    (self-loops and duplicate/reversed edges are fine).  Returns a Dataset
    with columns ``(node, cluster_id)`` covering every node that appears in
    the edge list.
    """
    import ray.data
    from ray.data.aggregate import Min

    if a == b:
        raise ValueError("edge endpoint columns must differ")
    edges = edges.select_columns([a, b]).materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "cluster_id": pa.array([], pa.int64())}))

    if n_edges <= driver_threshold and not force_distributed:
        df = edges.to_pandas()
        return ray.data.from_pandas(
            _cc_numpy(df[a].to_numpy(np.int64), df[b].to_numpy(np.int64)))

    if num_join_partitions is None:
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            default_join_partitions,
        )

        num_join_partitions = default_join_partitions()
    if max_rounds is None:
        max_rounds = int(np.ceil(np.log2(n_edges + 2))) + 4

    def symmetrize(t: pa.Table) -> pa.Table:
        u = t[a].cast(pa.int64()).combine_chunks()
        v = t[b].cast(pa.int64()).combine_chunks()
        return pa.table({"src": pa.concat_arrays([u, v]),
                         "dst": pa.concat_arrays([v, u])})

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()

    # round 0: label(u) = min(u, neighbors(u)) — the self-candidate comes
    # from the reversed copy of each edge, and singleton-free coverage is
    # guaranteed because every node appears as `src` in `sym`.
    def seed(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"node": t["src"],
                         "label": pc.min_element_wise(t["src"], t["dst"])})

    labels = (
        sym.map_batches(seed, batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .repartition(num_join_partitions)
        .map_batches(_norm_labels(num_join_partitions), batch_format="pandas")
        .materialize()
    )

    def relax_emit(t: pa.Table) -> pa.Table:
        # join output: (src, dst, node, label) — forward label to dst
        if "label" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64()),
                             "own": pa.array([], pa.int64())})
        return pa.table({"node": t["dst"], "label": t["label"],
                         "own": pa.nulls(len(t), pa.int64())})

    def double_emit(t: pa.Table) -> pa.Table:
        # join output: (node, label, node2, label2) — label(label(node))
        if "label2" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64()),
                             "own": pa.array([], pa.int64())})
        return pa.table({"node": t["node"], "label": t["label2"],
                         "own": pa.nulls(len(t), pa.int64())})

    def self_emit(t: pa.Table) -> pa.Table:
        # carries the PREVIOUS label through the groupby as `own`, so the
        # same shuffle yields both the new label and the change count
        return pa.table({"node": t["node"], "label": t["label"],
                         "own": t["label"]})

    for _ in range(max_rounds):
        relax = sym.join(
            labels, join_type="inner", num_partitions=num_join_partitions,
            on=("src",), right_on=("node",),
        ).map_batches(relax_emit, batch_format="pyarrow")
        ptr = labels.join(
            labels.map_batches(
                lambda t: t.rename_columns(["node2", "label2"]),
                batch_format="pyarrow"),
            join_type="inner", num_partitions=num_join_partitions,
            on=("label",), right_on=("node2",),
        ).map_batches(double_emit, batch_format="pyarrow")
        own = labels.map_batches(self_emit, batch_format="pyarrow")
        merged = (
            own.union(relax, ptr)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"),
                       Min("own", alias_name="own"))
            .materialize()
        )

        def changed_rows(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if "own" not in t.column_names:
                return pa.table({"c": pa.array([], pa.int64())})
            n = pc.sum(pc.less(t["label"], t["own"])).as_py() or 0
            return pa.table({"c": pa.array([n], pa.int64())})

        n_changed = (
            merged.map_batches(changed_rows, batch_format="pyarrow").sum("c")
            or 0
        )
        labels = (
            merged.select_columns(["node", "label"])
            .repartition(num_join_partitions)
            .map_batches(_norm_labels(num_join_partitions),
                         batch_format="pandas")
            .materialize()
        )
        if n_changed == 0:
            break

    return labels.map_batches(
        lambda t: t.rename_columns(["node", "cluster_id"]),
        batch_format="pyarrow")


def fuzzy_dedup(
    sf_dir: str,
    *,
    threshold: float = 0.7,
    **minhash_kwargs,
):
    """Full fuzzy-dedup pass: MinHash+LSH pairs → connected components →
    one survivor (the minimum doc_id) per near-duplicate cluster.

    Returns (doc_id, cluster_id, keep): every document appears once;
    ``cluster_id`` is the smallest doc_id of its near-dup cluster (its own
    id when unpaired) and ``keep`` marks the survivor rows (see
    :func:`label_clusters` for the scale shape).
    """
    import ray.data
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold=threshold, **minhash_kwargs)
    cc = connected_components(pairs, "doc_a", "doc_b")
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id"])

    return label_clusters(docs, "doc_id", cc)


def label_clusters(entities, id_col: str, cc):
    """Attach connected-component labels to an entity Dataset → rows
    ``(id_col, cluster_id, keep)``: ``cluster_id`` is the component id
    (the entity's own id when unpaired) and ``keep`` marks the minimum-id
    survivor. Shared finish for the fuzzy/semantic dedup family (the two
    previous verbatim copies drifted independently — round-3 review).

    Scale shape: the component map covers only entities that appeared in
    a pair (dup-rate-proportional); ONE left-outer
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.solutions.solution_join`
    labels the entity table, broadcasting the map up to
    ``functions.cluster.BROADCAST_JOIN_ROWS`` rows (no corpus shuffle)
    and hash-joining past it."""
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import compact

    ents = compact(entities.map_batches(
        _int64_ids, fn_kwargs={"cols": [id_col]}, batch_format="pyarrow"),
        (id_col,))
    return _join_labels(ents, cc, id_col).map(
        _own_cluster, (id_col, "cluster_id", "keep"), id_col).ds


def _int64_ids(t: pa.Table, cols) -> pa.Table:
    return pa.table({c: t[c].cast(pa.int64()) for c in cols})


def _join_labels(ents, cc, id_col: str):
    """``ents`` (Solutions keyed by an int64 ``id_col``) left-outer
    joined to the component labels ``cc`` (a ``(node, cluster_id)``
    Dataset): ``cluster_id`` is null for an entity in no pair."""
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        compact,
        solution_join,
    )

    labels = compact(cc.map_batches(
        lambda t: _int64_ids(t, ["node", "cluster_id"]).rename_columns(
            [id_col, "cluster_id"]), batch_format="pyarrow"),
        (id_col, "cluster_id"))
    cols = ents.cols + ("cluster_id",)
    if labels.n == 0 or ents.n == 0:
        return ents.map(lambda t: t.append_column(
            "cluster_id", pa.nulls(len(t), pa.int64())), cols)
    return solution_join(ents, labels, "left_outer", [id_col], cols)


def _own_cluster(t: pa.Table, id_col: str) -> pa.Table:
    """Unpaired entities label themselves; the minimum id survives."""
    import pyarrow.compute as pc

    cl = pc.coalesce(t["cluster_id"], t[id_col])
    return pa.table({id_col: t[id_col], "cluster_id": cl,
                     "keep": pc.equal(t[id_col], cl)})


def cc_demo_clusters(sf_dir: str, **cc_kwargs):
    """Oracle-checkable CC exercise: a deterministic edge set derived from
    the documents table (``doc_id → doc_id + (n_chars % 7) + 1``, skipping
    ids divisible by 3) forms chain-shaped multi-hop components; the SQL
    oracle computes the same labeling with a recursive CTE
    (``__ray_entry__.oracle_sql()['docs_cc_clusters']``)."""
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "n_chars"])
    max_id = docs.max("doc_id")

    def mk_edges(t: pa.Table) -> pa.Table:
        did = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        dst = did + np.asarray(t["n_chars"].to_numpy(zero_copy_only=False),
                               dtype=np.int64) % 7 + 1
        keep = (did % 3 != 0) & (dst <= max_id)
        return pa.table({"a": pa.array(did[keep], pa.int64()),
                         "b": pa.array(dst[keep], pa.int64())})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return connected_components(edges, "a", "b", **cc_kwargs).sort("node")


def _pagerank_numpy(src: np.ndarray, dst: np.ndarray, damping: float,
                    iters: int) -> pd.DataFrame:
    """Vectorized power iteration on the driver (same semantics as the
    distributed path: multi-edges count, dangling mass not redistributed)."""
    ids, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    si, di = inv[: len(src)], inv[len(src):]
    n = len(ids)
    outdeg = np.bincount(si, minlength=n)
    r = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    for _ in range(iters):
        w = np.zeros(n)
        contrib = r[si] / outdeg[si]
        np.add.at(w, di, contrib)
        r = base + damping * w
    return pd.DataFrame({"node": ids.astype(np.int64), "rank": r})


def pagerank(edges, damping: float = 0.85, iters: int = 4,
             num_join_partitions: int | None = None,
             driver_threshold: int = 2_000_000,
             force_distributed: bool = False):
    """Distributed PageRank over an (src, dst) edge-list Dataset.

    Below ``driver_threshold`` edges the graph is pulled once and solved
    with a vectorized numpy power iteration — per-iteration Ray hash
    joins cost seconds of actor-pool setup each, which dwarfs the math on
    small graphs (measured 43 s distributed vs <0.1 s numpy on a
    29k-edge graph). The distributed path below is the 100-TB shape.

    Returns a ``(node, rank)`` Dataset after ``iters`` synchronous
    iterations of the standard power-iteration update

        r'(v) = (1 - d)/N + d * Σ_{(u,v) ∈ E} r(u)/outdeg(u)

    Semantics notes (mirrored exactly by the SQL oracle): multi-edges
    contribute once per occurrence, and dangling-node mass is NOT
    redistributed (ranks then sum to < 1 when sinks exist — the simplified
    variant; redistribution would add a per-iteration global scalar pass).

    Scale shape: one up-front groupby computes out-degrees and is joined
    into the edge list ONCE; each iteration is then exactly one hash join
    (edges ⨝ ranks on src), a per-block partial-sum combiner, one
    ``groupby(dst).sum`` and one left-outer join back onto the node table —
    all payloads are (int64, float64) rows, never wider.  Ranks are
    materialized per iteration (2 numbers per node) to cut the lazy plan at
    the iteration boundary; at 100 TB the same boundary would be a parquet
    checkpoint so a mid-run failure resumes from the last iteration.
    """
    import ray.data
    from ray.data.aggregate import Count, Sum

    edges = edges.materialize()
    if edges.count() <= driver_threshold and not force_distributed:
        df = edges.to_pandas()
        if df.empty:
            return ray.data.from_arrow(pa.table({
                "node": pa.array([], pa.int64()),
                "rank": pa.array([], pa.float64())}))
        return ray.data.from_pandas(_pagerank_numpy(
            df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64),
            damping, iters))

    if num_join_partitions is None:
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            default_join_partitions,
        )

        num_join_partitions = default_join_partitions()

    def _col(name):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df[name].astype("int64")})

        return f

    nodes = (
        edges.map_batches(_col("src"), batch_format="pandas")
        .union(edges.map_batches(_col("dst"), batch_format="pandas"))
        .groupby("node")
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
        .materialize()
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda df: df.assign(rank=pd.Series(dtype="float64")),
            batch_format="pandas")

    outdeg = edges.groupby("src").aggregate(Count(alias_name="outdeg"))
    # (src, dst, outdeg): join once, reused every iteration
    edges_w = edges.join(
        outdeg, join_type="inner", num_partitions=num_join_partitions,
        on=("src",),
    ).materialize()

    base = (1.0 - damping) / n_nodes
    ranks = nodes.map_batches(
        lambda df: df.assign(rank=np.float64(1.0 / n_nodes)),
        batch_format="pandas",
    ).materialize()

    for _ in range(iters):
        contrib_src = edges_w.join(
            ranks, join_type="inner", num_partitions=num_join_partitions,
            on=("src",), right_on=("node",),
        )

        def partial(df: pd.DataFrame) -> pd.DataFrame:
            w = df["rank"].to_numpy() / df["outdeg"].to_numpy()
            out = pd.DataFrame({"dst": df["dst"].astype("int64"), "w": w})
            return out.groupby("dst", as_index=False).sum()

        contrib = (
            contrib_src.map_batches(partial, batch_format="pandas")
            .groupby("dst")
            .aggregate(Sum("w", alias_name="w"))
        )
        joined = nodes.join(
            contrib, join_type="left_outer",
            num_partitions=num_join_partitions,
            on=("node",), right_on=("dst",),
        )

        def update(df: pd.DataFrame) -> pd.DataFrame:
            w = df["w"].fillna(0.0).to_numpy(dtype=np.float64)
            return pd.DataFrame({
                "node": df["node"].astype("int64"),
                "rank": base + damping * w,
            })

        ranks = joined.map_batches(update, batch_format="pandas").materialize()

    return ranks


def copurchase_edges(sf_dir: str, num_join_partitions: int | None = None):
    """Directed part→part edges from consecutive line numbers within each
    order (the "bought together next" sequence graph) — a distributed
    self-join of lineitem on (l_orderkey, l_linenumber + 1)."""
    import ray.data

    if num_join_partitions is None:
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            default_join_partitions,
        )

        num_join_partitions = default_join_partitions()
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_partkey"],
    )

    def left_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_orderkey": df["l_orderkey"].astype("int64"),
            "ln_next": df["l_linenumber"].astype("int64") + 1,
            "src": df["l_partkey"].astype("int64"),
        })

    def right_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "r_orderkey": df["l_orderkey"].astype("int64"),
            "ln": df["l_linenumber"].astype("int64"),
            "dst": df["l_partkey"].astype("int64"),
        })

    j = li.map_batches(left_side, batch_format="pandas").join(
        li.map_batches(right_side, batch_format="pandas"),
        join_type="inner", num_partitions=num_join_partitions,
        on=("l_orderkey", "ln_next"), right_on=("r_orderkey", "ln"),
    )
    return j.select_columns(["src", "dst"])


def parts_pagerank(sf_dir: str, damping: float = 0.85, iters: int = 4):
    """PageRank over the part co-purchase sequence graph, rounded for the
    DuckDB oracle hash (both sides ROUND(…, 6))."""
    ranks = pagerank(copurchase_edges(sf_dir), damping=damping, iters=iters)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"part": df["node"].astype("int64"),
                             "pagerank": df["rank"].round(6)})

    return ranks.map_batches(fin, batch_format="pandas")


def triangle_count(edges, a: str = "a", b: str = "b",
                   broadcast_threshold: int = 5_000_000):
    """Global triangle count of the undirected SIMPLE graph induced by the
    edge list (self-loops dropped, multi-edges collapsed).

    Scale shape — the classic degree-ordered wedge algorithm, with every
    exchange on a COARSE hash-partition key (measured here: a
    high-cardinality ``groupby(u, v).aggregate`` distinct on the same
    input is ~400× slower than partition-then-vectorized-dedupe, because
    the sort-based aggregate pays per-group overhead):

    1. canonicalize + distinct: per-block dedupe combiner, then ONE
       exchange on ``hash(u, v) % P`` with a vectorized in-partition
       ``drop_duplicates``;
    2. degrees: per-block endpoint counts → driver combine (bounded by the
       NODE set — a dimension here; swap for a groupby at web scale) →
       a broadcast (node → degree) rank;
    3. orient every edge from its lower-(degree, id) endpoint — out-degree
       is then O(√m), so per-source wedge generation is bounded;
    4. wedges: exchange on ``src % P`` and generate ALL sources' pairs in
       one segmented-arange pass per partition (no per-group Python);
    5. count wedges that are themselves edges — broadcast packed-key
       membership while the edge set fits, distributed hash join past it.

    Returns a one-row DataFrame ``{"n_triangles": int}``.
    """
    import ray
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )

    probe = edges.materialize()
    num_coarse = default_coarse_partitions(probe.count())

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        x = df[a].to_numpy(np.int64)
        y = df[b].to_numpy(np.int64)
        keep = x != y
        x, y = x[keep], y[keep]
        out = pd.DataFrame({"u": np.minimum(x, y),
                            "v": np.maximum(x, y)}).drop_duplicates()
        out["epart"] = ((out["u"] * np.int64(0x9E3779B1) + out["v"])
                        % num_coarse).astype("int64")
        return out

    def part_distinct(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["u", "v"])[["u", "v"]]

    simple = (
        probe.map_batches(canon, batch_format="pandas")
        .groupby("epart")
        .map_groups(part_distinct, batch_format="pandas")
        .materialize()
    )
    n_edges = simple.count()
    if n_edges == 0:
        return pd.DataFrame({"n_triangles": pd.array([0], dtype="int64")})

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate([df["u"].to_numpy(np.int64),
                                df["v"].to_numpy(np.int64)])
        un, cnt = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": un, "deg": cnt.astype(np.int64)})

    degs = (simple.map_batches(deg_partial, batch_format="pandas")
            .to_pandas().groupby("node", as_index=False)["deg"].sum()
            .sort_values("node"))
    nodes_ref = ray.put(degs["node"].to_numpy(np.int64))
    degs_ref = ray.put(degs["deg"].to_numpy(np.int64))

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        nodes = ray.get(nodes_ref)
        dg = ray.get(degs_ref)
        u = df["u"].to_numpy(np.int64)
        v = df["v"].to_numpy(np.int64)
        du = dg[np.searchsorted(nodes, u)]
        dv = dg[np.searchsorted(nodes, v)]
        # lower (degree, id) endpoint becomes the wedge center
        u_first = (du < dv) | ((du == dv) & (u < v))
        out = pd.DataFrame({"src": np.where(u_first, u, v),
                            "dst": np.where(u_first, v, u)})
        out["spart"] = (out["src"] % num_coarse).astype("int64")
        return out

    oriented = simple.map_batches(orient, batch_format="pandas")

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        """All sources' wedge pairs in one vectorized pass: sort by
        (src, dst), then for each row emit a pair with every LATER dst of
        the same src via a segmented arange — no per-group Python."""
        empty = pd.DataFrame({"u": pd.Series(dtype="int64"),
                              "v": pd.Series(dtype="int64")})
        if g.empty:
            return empty
        g = g.sort_values(["src", "dst"])
        src = g["src"].to_numpy(np.int64)
        dst = g["dst"].to_numpy(np.int64)
        n = len(src)
        change = np.flatnonzero(src[1:] != src[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [n]])
        grp = np.repeat(np.arange(len(starts)), ends - starts)
        # pairs where this row is the left element: all later rows in group
        lens = ends[grp] - np.arange(n) - 1
        total = int(lens.sum())
        if total == 0:
            return empty
        left = np.repeat(dst, lens)
        row_idx = np.repeat(np.arange(n), lens)
        seg_off = np.arange(total) - np.repeat(
            np.concatenate([[0], lens.cumsum()[:-1]]), lens)
        right = dst[row_idx + 1 + seg_off]
        # dst-sorted within each src ⇒ left < right (simple graph): the
        # pair is already in canonical (u, v) form
        return pd.DataFrame({"u": left, "v": right})

    wedge_ds = oriented.groupby("spart").map_groups(
        wedges, batch_format="pandas")

    max_id = int(max(degs["node"].max(), 1))
    if n_edges <= broadcast_threshold and max_id < 2**31:
        epdf = simple.to_pandas()
        packed = (epdf["u"].to_numpy(np.int64) << np.int64(31)) \
            | epdf["v"].to_numpy(np.int64)
        packed_ref = ray.put(np.sort(packed))

        def match_partial(df: pd.DataFrame) -> pd.DataFrame:
            es = ray.get(packed_ref)
            if df.empty or len(es) == 0:
                return pd.DataFrame({"n": pd.array([0], dtype="int64")})
            w = (df["u"].to_numpy(np.int64) << np.int64(31)) \
                | df["v"].to_numpy(np.int64)
            pos = np.clip(np.searchsorted(es, w), 0, len(es) - 1)
            return pd.DataFrame(
                {"n": pd.array([int((es[pos] == w).sum())], dtype="int64")})

        total = wedge_ds.map_batches(
            match_partial, batch_format="pandas").sum("n")
    else:
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            default_join_partitions,
        )

        matched = wedge_ds.join(
            simple, join_type="inner",
            num_partitions=default_join_partitions(),
            on=("u", "v"),
        )
        total = matched.count()
    return pd.DataFrame({"n_triangles": pd.array([int(total or 0)],
                                                 dtype="int64")})


def parts_triangles(sf_dir: str):
    """Triangle count of the (undirected, simplified) part co-purchase
    sequence graph."""
    return triangle_count(copurchase_edges(sf_dir), a="src", b="dst")


def parts_degree_histogram(sf_dir: str):
    """Degree distribution of the part co-purchase graph: distinct
    out-degree per node, then the histogram (out_degree → node count) —
    the first structural profile run over any web/link graph before
    choosing partitioning for the iterative algorithms above.

    Scale shape: edges are deduped per block, then ONE coarse exchange
    keyed by src finishes the distinct-neighbor counts (one row per
    node); the histogram itself is a per-block partial count over that
    dimension-sized table plus a tiny driver combine (degree values are
    few)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    edges = copurchase_edges(sf_dir)

    def distinct_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    deg = coarse_group_reduce(
        edges.map_batches(distinct_pairs, batch_format="pandas"),
        ["src"],
        lambda g: (g.drop_duplicates()
                   .groupby("src", as_index=False)["dst"].nunique()
                   .rename(columns={"dst": "out_deg"})),
    )

    def partial_hist(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby("out_deg", as_index=False)
                .size().rename(columns={"size": "n_nodes"}))

    parts = deg.map_batches(partial_hist, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame({"out_deg": pd.Series(dtype="int64"),
                             "n_nodes": pd.Series(dtype="int64")})
    out = parts.groupby("out_deg", as_index=False)["n_nodes"].sum()
    return (out.astype({"out_deg": "int64", "n_nodes": "int64"})
            .sort_values("out_deg").reset_index(drop=True))


def _lpa_numpy(u: np.ndarray, v: np.ndarray, iters: int) -> pd.DataFrame:
    """Vectorized synchronous LPA on the driver — same semantics as the
    distributed rounds (weighted votes incl. multi-edges, self-vote,
    min-label ties)."""
    ids, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    ui, vi = inv[: len(u)], inv[len(u):]
    # symmetrize + collapse multi-edges to weights
    su = np.concatenate([ui, vi])
    sv = np.concatenate([vi, ui])
    keep = su != sv
    su, sv = su[keep], sv[keep]
    n = len(ids)
    ek, w = np.unique(su.astype(np.int64) * n + sv, return_counts=True)
    su, sv = (ek // n).astype(np.int64), (ek % n).astype(np.int64)
    lab = np.arange(n, dtype=np.int64)
    for _ in range(iters):
        # votes: neighbor labels weighted + one self-vote per node
        vn = np.concatenate([sv, np.arange(n, dtype=np.int64)])
        vl = np.concatenate([lab[su], lab])
        vw = np.concatenate([w, np.ones(n, np.int64)])
        key = vn * np.int64(n) + vl
        uk, idx = np.unique(key, return_inverse=True)
        tot = np.bincount(idx, weights=vw)
        node = (uk // n).astype(np.int64)
        klab = (uk % n).astype(np.int64)
        # per-node argmax weight, ties -> smallest label: lexsort by
        # (node, -tot, klab) then first row per node
        order = np.lexsort((klab, -tot, node))
        node_o = node[order]
        first = np.concatenate([[True], node_o[1:] != node_o[:-1]])
        lab = klab[order][first]
    return pd.DataFrame({"node": ids, "label": ids[lab]})


def label_propagation(edges, a: str = "a", b: str = "b", iters: int = 5,
                      num_join_partitions: int | None = None,
                      driver_threshold: int = 2_000_000,
                      force_distributed: bool = False):
    """Community detection by synchronous label propagation over an
    undirected edge list: each round every node adopts the label with the
    highest total edge weight among its neighbors (multi-edges count as
    weight), with the node's own current label cast as one extra vote —
    the self-vote damps the classic bipartite oscillation — and ties
    broken toward the SMALLEST label, so the result is deterministic at
    any cluster size. Labels start as the node id; after ``iters`` rounds
    the returned ``(node, label)`` Dataset names each node's community by
    a member node id.

    Scale shape: multi-edges collapse to ``(u, v, w)`` weights once, up
    front (one coarse exchange). Each round is ONE hash join (edges ⨝
    labels on ``u``) followed by ONE coarse exchange partitioned by the
    destination node, whose reducer does the per-(node, label) weight sum
    AND the argmax at C speed — votes never groupby twice. Labels are two
    ints per node, materialized per round (the parquet-checkpoint
    boundary at 100 TB).
    """
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
        default_join_partitions,
    )

    if num_join_partitions is None:
        num_join_partitions = default_join_partitions()

    edges = edges.materialize()
    if edges.count() <= driver_threshold and not force_distributed:
        # per-round Ray joins cost seconds of setup each; below the
        # threshold pull the (int, int) edge list once and run the same
        # rounds vectorized (the pagerank/connected_components precedent)
        df = edges.select_columns([a, b]).to_pandas()
        if df.empty:
            import ray.data as _rd

            return _rd.from_arrow(pa.table({
                "node": pa.array([], pa.int64()),
                "label": pa.array([], pa.int64())}))
        import ray.data as _rd

        return _rd.from_pandas(_lpa_numpy(
            df[a].to_numpy(np.int64), df[b].to_numpy(np.int64), iters))

    def symmetrize(t: pa.Table) -> pd.DataFrame:
        u = t[a].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t[b].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({"u": np.concatenate([u, v]),
                           "v": np.concatenate([v, u])})
        df = df[df["u"] != df["v"]]
        out = df.groupby(["u", "v"], as_index=False).size() \
            .rename(columns={"size": "w"})
        out["w"] = out["w"].astype("int64")
        return out

    sym = coarse_group_reduce(
        edges.map_batches(symmetrize, batch_format="pyarrow"),
        ["u", "v"],
        lambda g: g.groupby(["u", "v"], as_index=False)["w"].sum(),
    ).materialize()

    labels = coarse_group_reduce(
        sym.map_batches(
            lambda df: pd.DataFrame({"node": df["u"].astype("int64")}),
            batch_format="pandas"),
        ["node"],
        lambda g: g.drop_duplicates("node"),
    ).map_batches(
        lambda df: df.assign(label=df["node"].astype("int64")),
        batch_format="pandas",
    ).materialize()

    for _ in range(iters):
        votes = sym.join(
            labels, join_type="inner", num_partitions=num_join_partitions,
            on=("u",), right_on=("node",),
        ).map_batches(
            # pre-sum within the block before the exchange
            lambda df: df.rename(columns={"v": "node"})
            [["node", "label", "w"]]
            .groupby(["node", "label"], as_index=False)["w"].sum(),
            batch_format="pandas",
        )
        # the self-vote: each node votes once for its current label
        votes = votes.union(labels.map_batches(
            lambda df: df.assign(w=np.int64(1)), batch_format="pandas"))

        def elect(g: pd.DataFrame) -> pd.DataFrame:
            s = g.groupby(["node", "label"], as_index=False)["w"].sum()
            s = s.sort_values(["node", "w", "label"],
                              ascending=[True, False, True])
            return s.groupby("node", as_index=False).first() \
                [["node", "label"]]

        labels = coarse_group_reduce(votes, ["node"], elect,
                                     num_coarse=num_join_partitions * 4) \
            .materialize()

    return labels


def parts_communities(sf_dir: str, iters: int = 5):
    """Label-propagation communities over the co-purchase part graph:
    ``(p_partkey, community)`` — community = the smallest member partkey
    the propagation settles on."""
    out = label_propagation(copurchase_edges(sf_dir), a="src", b="dst",
                            iters=iters)
    return out.map_batches(
        lambda df: pd.DataFrame({
            "p_partkey": df["node"].astype("int64"),
            "community": df["label"].astype("int64")}),
        batch_format="pandas",
    ).sort("p_partkey")


def fuzzy_dedup_best_quality(
    sf_dir: str,
    *,
    threshold: float = 0.7,
    **minhash_kwargs,
):
    """Fuzzy dedup with QUALITY-aware survivor selection: like
    :func:`fuzzy_dedup`, but each near-dup cluster keeps its
    highest-quality member (alpha-ratio heuristic; min doc_id breaks
    ties) instead of the smallest id — what a training-data pipeline
    actually wants when one duplicate is the clean original and another
    is a boilerplate-wrapped copy.

    Returns ``(doc_id, cluster_id, quality, keep)`` — one row per doc.

    Scale shape: pairs → components as in :func:`fuzzy_dedup`; the
    quality signal is ONE streaming scan emitting (doc_id, q) — two
    narrow columns, text never shuffles — labeled by the same one
    left-outer join as :func:`label_clusters`.  Unpaired docs keep
    themselves; the per-cluster argmax runs as a coarse exchange over
    CLUSTERED rows only (dup-rate-proportional), which marks the
    winners in place.
    """
    import pyarrow.compute as pc
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        _union,
        compact,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        minhash_lsh_pairs,
    )

    pairs = minhash_lsh_pairs(sf_dir, threshold=threshold, **minhash_kwargs)
    cc = connected_components(pairs, "doc_a", "doc_b")

    def score(t: pa.Table) -> pa.Table:
        text = t["text"]
        n = pc.max_element_wise(
            pc.utf8_length(text).cast(pa.float64()), 1.0)
        alpha = pc.utf8_length(
            pc.replace_substring_regex(text, "[^a-zA-Z]", "")
        ).cast(pa.float64())
        return pa.table({
            "doc_id": t["doc_id"].combine_chunks().cast(pa.int64()),
            "quality": pc.round(pc.divide(alpha, n), ndigits=4),
        })

    scored = compact(ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(score, batch_format="pyarrow"), ("doc_id", "quality"))
    labeled = _join_labels(scored, cc, "doc_id")
    cols = ("doc_id", "cluster_id", "quality", "keep")

    def singles(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["cluster_id"]))
        return pa.table({"doc_id": t["doc_id"], "cluster_id": t["doc_id"],
                         "quality": t["quality"],
                         "keep": pa.array([True] * len(t))})

    def paired(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t["cluster_id"]))

    def best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["quality", "doc_id"], ascending=[False, True])
        g["keep"] = ~g["cluster_id"].duplicated()
        return g[list(cols)]

    parts = [labeled.map(singles, cols)]
    clustered = labeled.map(paired, labeled.cols)
    if clustered.n:
        parts.append(compact(coarse_group_reduce(
            clustered.ds, ["cluster_id"], best), cols))
    return _union(parts, cols).ds


# --------------------------------------------------------------------------
# multi-source BFS hop distances
# --------------------------------------------------------------------------

def _bfs_numpy(src: np.ndarray, dst: np.ndarray, seeds,
               directed: bool, max_hops) -> pd.DataFrame:
    if not directed:
        src, dst = (np.concatenate([src, dst]),
                    np.concatenate([dst, src]))
    dist = {int(s): 0 for s in seeds}
    frontier = set(dist)
    hop = 0
    order = np.argsort(src, kind="stable")
    s_sorted, d_sorted = src[order], dst[order]
    while frontier and (max_hops is None or hop < max_hops):
        hop += 1
        f = np.fromiter(frontier, dtype=np.int64)
        lo = np.searchsorted(s_sorted, f, side="left")
        hi = np.searchsorted(s_sorted, f, side="right")
        nxt = set()
        for a, b in zip(lo, hi):
            for v in d_sorted[a:b]:
                v = int(v)
                if v not in dist:
                    dist[v] = hop
                    nxt.add(v)
        frontier = nxt
    items = sorted(dist.items())
    return pd.DataFrame({
        "node": pd.Series([k for k, _ in items], dtype="int64"),
        "dist": pd.Series([v for _, v in items], dtype="int64"),
    })


def bfs_distances(edges, seeds, directed: bool = False,
                  max_hops: int | None = None,
                  num_join_partitions: int | None = None,
                  driver_threshold: int = 2_000_000,
                  force_distributed: bool = False):
    """Minimum hop distance from a seed set over an (src, dst) edge-list
    Dataset → ``(node, dist)`` for every reachable node (seeds at 0).

    Scale shape (the textbook distributed BFS): per hop, the frontier —
    never the visited set — drives the work. Below a frontier threshold
    the hop is ONE broadcast ``is_in`` scan of the edge list (the
    khop_subgraph pattern); the visited set needed for termination is
    itself frontier-bounded per hop because a node enters a frontier at
    most once, and membership tests run against a sorted int64 array.
    Graphs under ``driver_threshold`` edges solve in numpy for the same
    reason pagerank's driver path exists (per-hop join fixed costs dwarf
    the math on small graphs); the distributed path is the 100-TB shape
    and is equivalence-tested against it.
    """
    import ray
    import ray.data

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges <= driver_threshold and not force_distributed:
        df = edges.to_pandas()
        if df.empty:
            items = sorted(int(s) for s in seeds)
            return ray.data.from_pandas(pd.DataFrame({
                "node": pd.Series(items, dtype="int64"),
                "dist": pd.Series([0] * len(items), dtype="int64")}))
        return ray.data.from_pandas(_bfs_numpy(
            df["src"].to_numpy(np.int64), df["dst"].to_numpy(np.int64),
            seeds, directed, max_hops))

    # distributed path: broadcast-frontier hops. Each hop scans the edge
    # list once with a vectorized membership test and returns only NEW
    # nodes; `visited` grows by the frontier each hop and stays a sorted
    # int64 array in the object store (ray.put per hop).
    visited = np.array(sorted({int(s) for s in seeds}), dtype=np.int64)
    dist_frames = [pd.DataFrame({"node": visited,
                                 "dist": np.int64(0)})]
    frontier = visited
    hop = 0
    while len(frontier) and (max_hops is None or hop < max_hops):
        hop += 1
        f_ref = ray.put(frontier)
        v_ref = ray.put(visited)

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            f = ray.get(f_ref)
            v = ray.get(v_ref)
            s = df["src"].to_numpy(np.int64)
            d = df["dst"].to_numpy(np.int64)
            if not directed:
                s, d = np.concatenate([s, d]), np.concatenate([d, s])
            pos = np.clip(np.searchsorted(f, s), 0, len(f) - 1)
            hit = f[pos] == s
            cand = np.unique(d[hit])
            if len(v) and len(cand):
                p2 = np.clip(np.searchsorted(v, cand), 0, len(v) - 1)
                cand = cand[v[p2] != cand]
            return pd.DataFrame({"node": pd.Series(cand, dtype="int64")})

        new_nodes = (edges.map_batches(expand, batch_format="pandas")
                     .groupby("node").count().select_columns(["node"])
                     .to_pandas()["node"].to_numpy(np.int64))
        frontier = np.sort(new_nodes)
        if len(frontier):
            dist_frames.append(pd.DataFrame({
                "node": frontier, "dist": np.int64(hop)}))
            visited = np.union1d(visited, frontier)

    out = pd.concat(dist_frames, ignore_index=True) \
        .sort_values("node").reset_index(drop=True)
    return ray.data.from_pandas(out)


def parts_bfs_reach(sf_dir: str, seed_part: int = 0,
                    max_hops: int = 3, **kw):
    """Hop distances (≤ ``max_hops``) from one part through the
    co-purchase sequence graph, undirected — 'how far does a product
    sit from the seed in bought-together space'."""
    return bfs_distances(copurchase_edges(sf_dir), [seed_part],
                         directed=False, max_hops=max_hops, **kw)


def approx_closeness(edges, k_sources: int = 16, seed: int = 11,
                     directed: bool = False, max_hops: int | None = None,
                     **bfs_kw):
    """Approximate closeness centrality (Eppstein-Wang style sampling):
    run BFS from ``k_sources`` deterministically sampled nodes and
    estimate closeness(v) = (n - 1) / (n/k · Σ_s d(s, v)) over the
    sources that reach v. Returns ``(node, closeness, n_reached)`` —
    nodes reached by no sampled source are absent.

    Scale shape: k sequential :func:`bfs_distances` sweeps (each
    frontier-broadcast, edge-list-scan bounded), then ONE coarse
    exchange summing per-node distances. Sources are the k smallest
    ``md5(node || seed)`` values — deterministic and layout-independent
    — computed with one distinct-node pass.
    """
    import hashlib

    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    edges = edges.materialize()

    def node_col(name):
        def f(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"node": df[name].astype("int64")})
        return f

    nodes = (edges.map_batches(node_col("src"), batch_format="pandas")
             .union(edges.map_batches(node_col("dst"),
                                      batch_format="pandas")))

    def rank_partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df.drop_duplicates()
        h = [hashlib.md5(f"{int(n)}|{seed}".encode()).hexdigest()
             for n in u["node"]]
        out = pd.DataFrame({"node": u["node"].astype("int64"), "h": h})
        return out.sort_values("h").head(k_sources)  # block top-k combiner

    cand = coarse_group_reduce(
        nodes.map_batches(rank_partial, batch_format="pandas"),
        ["node"],
        lambda g: g.drop_duplicates(subset=["node"]),
    ).to_pandas()
    cand = cand.sort_values("h").head(k_sources)
    sources = [int(n) for n in cand["node"]]
    n_nodes = int(nodes.map_batches(
        lambda df: df.drop_duplicates(), batch_format="pandas")
        .groupby("node").count().count())

    partials = []
    for s in sources:
        d = bfs_distances(edges, [s], directed=directed,
                          max_hops=max_hops, **bfs_kw)
        partials.append(d)
    all_d = partials[0]
    for d in partials[1:]:
        all_d = all_d.union(d)

    k = len(sources)

    def fin(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("node", as_index=False) \
            .agg(total=("dist", "sum"), n_reached=("dist", "size"))
        tot = agg["total"].to_numpy(np.float64)
        scaled = np.where(tot > 0,
                          (n_nodes - 1) / (tot * (n_nodes / k)), 0.0)
        return pd.DataFrame({
            "node": agg["node"].astype("int64"),
            "closeness": np.round(scaled, 6),
            "n_reached": agg["n_reached"].astype("int64"),
        })

    return coarse_group_reduce(all_d, ["node"], fin)
