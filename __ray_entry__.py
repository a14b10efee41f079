"""Driver contract for the Ray-Data-native KG engine.

The driver initializes Ray BEFORE importing this module; nothing here (or in
the library) calls ``ray.init`` / ``ray.shutdown``.

- ``entry()`` — flagship KG pipeline over pages derived from sf0.001.
- ``queries()`` — one callable per implemented operator/pipeline
  (SURVEY.md §2 + the training-data-pipeline extensions).
- ``oracle_sql()`` — DuckDB oracles for every SQL-expressible query; the
  non-relational ops (KG extraction, MinHash/SimHash, IVF-ANN, lang-id,
  multimodal) are rows-only by nature and intentionally have no entry.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: pages(sf0.001 documents) → triples (deduped)."""
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_from_documents
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    sf_dir = "/root/testdata/sf0.001"
    pages = pages_from_documents(sf_dir)
    result = run_kg_pipeline(pages)
    return result["triples"]


def _kg_records(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_from_documents
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    return run_kg_pipeline(pages_from_documents(sf_dir))


def _kg_triples(sf_dir: str):
    return _kg_records(sf_dir)["triples"]


def _kg_stats(sf_dir: str):
    res = _kg_records(sf_dir)
    return res["stats"].select_columns(
        ["doc_url", "workflow", "no_matches", "no_triples", "total_match_len", "score"]
    )


def _kg_entity_mapping(sf_dir: str):
    return _kg_records(sf_dir)["entity_mapping"]


def _kg_entity_links(sf_dir: str):
    """Entity linking vs the company KB: candidate-gen + Jaccard scoring."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
        default_kb_ttl,
        extraction_records,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_from_documents
    from cmc_knowledge_graph_text2ttl_ray.stages.linking import link_entities

    recs = extraction_records(pages_from_documents(sf_dir))
    return link_entities(recs, default_kb_ttl(), "http://example.org/entity/")


def _docs_lm_score(sf_dir: str):
    """Corpus-trained char-trigram LM bits-per-trigram per doc (two-phase:
    distributed train, broadcast model, vectorized score). Rows-only: the
    model itself is not SQL-expressible."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import lm_scores

    return lm_scores(sf_dir)


def _docs_heavy_words(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        heavy_hitter_words,
    )

    return heavy_hitter_words(sf_dir)


def _docs_repetition(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        repetition_stats,
    )

    return repetition_stats(sf_dir)


def _distinct_brands(sf_dir: str):
    """Set-op coverage: ds.unique over one column."""
    import pandas as pd
    import ray.data

    ds = ray.data.read_parquet(f"{sf_dir}/part.parquet", columns=["p_brand"])
    return pd.DataFrame({"p_brand": sorted(ds.unique("p_brand"))})


def _user_sessions(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.windows import user_sessions

    return user_sessions(sf_dir)


def _customers_without_orders(sf_dir: str, broadcast_threshold: int = 5_000_000):
    """Left-anti join: customers with no high-value order.

    Scale shape (round-2 verdict: the driver ``unique()`` key set is
    unbounded at 100×): the filtered order keys are de-duplicated
    DISTRIBUTED (per-block combiner + groupby); under
    ``broadcast_threshold`` the key set broadcasts once via ``ray.put``
    and customers stream-filter (no shuffle); past it the anti-join runs
    as a distributed left-outer hash join + null filter."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray
    import ray.data
    from ray.data.aggregate import Count

    keys_ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        # per-block combiner: filter + collapse to distinct keys before the
        # shuffle ships anything
        lambda t: t.filter(pc.greater(t["o_totalprice"], 450000.0))
                   .select(["o_custkey"]).group_by("o_custkey").aggregate([]),
        batch_format="pyarrow",
    ).groupby("o_custkey").aggregate(Count(alias_name="cnt")).materialize()
    n_keys = keys_ds.count()
    cust = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                                 columns=["c_custkey", "c_name"])
    if n_keys <= broadcast_threshold:
        keys = pa.array(sorted(keys_ds.to_pandas()["o_custkey"]), pa.int64())
        keys_ref = ray.put(keys)
        out = cust.map_batches(
            lambda t: t.filter(pc.invert(pc.is_in(
                t["c_custkey"], value_set=ray.get(keys_ref)))),
            batch_format="pyarrow",
        )
    else:
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            default_join_partitions,
        )

        nparts = default_join_partitions()
        out = cust.join(
            # repartition: aggregate outputs can contain schema-less empty
            # blocks that break join field resolution (Ray 2.49)
            keys_ds.repartition(nparts),
            join_type="left_outer",
            num_partitions=nparts,
            on=("c_custkey",),
            right_on=("o_custkey",),
        ).map_batches(
            lambda t: t.filter(pc.is_null(t["cnt"]))
                       .select(["c_custkey", "c_name"]),
            batch_format="pyarrow",
        )
    # materialize via Arrow so an empty result still carries the schema
    import pyarrow as _pa

    tables = [b for b in out.iter_batches(batch_format="pyarrow")]
    if tables:
        return _pa.concat_tables(tables)
    return _pa.table({"c_custkey": _pa.array([], _pa.int64()),
                      "c_name": _pa.array([], _pa.string())})


def _region_nation_names(sf_dir: str):
    """Set op: union + distinct across two tables."""
    import pandas as pd
    import ray.data

    r = ray.data.read_parquet(f"{sf_dir}/region.parquet", columns=["r_name"]).rename_columns(["name"])
    n = ray.data.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_name"]).rename_columns(["name"])
    return pd.DataFrame({"name": sorted(r.union(n).unique("name"))})


def _corpus_clean_winners(sf_dir: str):
    """Quality filter + exact dedup: winning (text_hash, doc_id) rows."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import clean_corpus

    return clean_corpus(sf_dir)


def _corpus_prep_stats(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import corpus_prep_stats

    return corpus_prep_stats(sf_dir)


def _multimodal_frames(sf_dir: str):
    """Video-like frame sampling: one row per sampled frame (row-expanding
    actor stage over fake-decoded frames)."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.multimodal import sample_frames

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"]).limit(64)

    def to_video(t: pa.Table) -> pa.Table:
        n = pa.array([12] * t.num_rows, pa.int64())
        return pa.table({"doc_id": t["doc_id"],
                         "payload": t["text"].cast(pa.binary()),
                         "n_frames": n})

    return sample_frames(ds.map_batches(to_video, batch_format="pyarrow"),
                         every=4)


def _multimodal_audio(sf_dir: str):
    """Audio-like features (RMS, zero-crossing rate) over fake waveforms."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.multimodal import audio_features

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "payload": t["text"].cast(pa.binary())})

    return audio_features(ds.map_batches(to_payload, batch_format="pyarrow"))


def _docs_heavy_words_by_lang(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        docs_heavy_words_by_lang,
    )

    return docs_heavy_words_by_lang(sf_dir, k=16)


def _orders_monthly_growth(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        orders_monthly_growth,
    )

    return orders_monthly_growth(sf_dir)


def _lineitem_regression(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        lineitem_price_regression,
    )

    return lineitem_price_regression(sf_dir)


def _lineitem_corr(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        lineitem_qty_price_corr,
    )

    return lineitem_qty_price_corr(sf_dir)


def _events_daily_anomalies(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        events_daily_anomalies,
    )

    return events_daily_anomalies(sf_dir)


def _part_size_unpivot(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        part_size_unpivot,
    )

    return part_size_unpivot(sf_dir)


def _kg_validation(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import validate_triples

    return validate_triples(_kg_records(sf_dir)["triples"])


def _kg_incremental_delta(sf_dir: str):
    """Incremental KG crawl step (rows-only): the standing corpus
    (``doc_id % 10 != 0``) is extracted ONCE and published as a
    fingerprinted generation root under /tmp; the query then extracts
    the new shard (``doc_id % 10 == 0``) and returns only its
    not-yet-published triples — deterministic across reruns because the
    probe never appends."""
    import os
    import shutil

    from cmc_knowledge_graph_text2ttl_ray.functions import checkpoint as ck
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        kg_incremental_update,
        kg_new_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
        pages_from_documents,
    )

    def _mod_pred(keep_new: bool):
        def pred(t):
            import numpy as np
            import pyarrow as pa

            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            mask = (ids % 10 == 0) if keep_new else (ids % 10 != 0)
            return pa.array(mask)

        return pred

    root = ck.default_cache_dir(
        "graft_kg_generations", os.path.abspath(sf_dir))
    fp = ck.input_fingerprint([f"{sf_dir}/documents.parquet"],
                              {"split": "mod10", "side": "corpus"})
    if not ck.is_valid(root, fp):
        shutil.rmtree(root, ignore_errors=True)
        kg_incremental_update(
            pages_from_documents(sf_dir, doc_pred=_mod_pred(False)), root)
        ck.mark_done(root, fp)
    shard = run_kg_pipeline(
        pages_from_documents(sf_dir, doc_pred=_mod_pred(True)))
    return kg_new_triples(shard["triples"], root)


def _kg_bgp_same_day(sf_dir: str):
    """Distributed BGP over a deterministic events→triples encoding:
    users with a click and a purchase on the same day (2-pattern join on
    two shared variables)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        bgp_query,
        event_triples,
    )

    return bgp_query(
        event_triples(sf_dir).materialize(),
        [("?u", "click", "?d"), ("?u", "purchase", "?d")],
        project=["?u", "?d"], distinct=True,
    )


def _kg_bgp_orders_by_nation(sf_dir: str):
    """Distributed BGP over the orders→customer→nation triple encoding
    (3-pattern chain), aggregated to order counts per nation name."""
    from ray.data.aggregate import Count

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        bgp_query,
        order_triples,
    )

    bindings = bgp_query(
        order_triples(sf_dir).materialize(),
        [("?o", "placed_by", "?c"), ("?c", "in_nation", "?n"),
         ("?n", "has_name", "?name")],
        project=["?name", "?o"],
    )
    return bindings.groupby("name").aggregate(Count(alias_name="n_orders"))


def _kg_bgp_click_no_purchase(sf_dir: str):
    """SPARQL MINUS (distributed left_anti join) over the events triple
    encoding: (user, day) pairs with a click but NO purchase that day."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        bgp_query,
        event_triples,
    )

    return bgp_query(
        event_triples(sf_dir).materialize(),
        [("?u", "click", "?d")],
        minus_patterns=[("?u", "purchase", "?d")],
        project=["?u", "?d"], distinct=True,
    )


def _kg_entity_pagerank(sf_dir: str):
    """Entity importance over the flagship KG's IRI link graph
    (rows-only: iterative algorithm; the edge-level pagerank has its own
    oracle-adjacent checks in parts_pagerank)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        kg_entity_pagerank,
    )

    return kg_entity_pagerank(_kg_records(sf_dir)["triples"], top_k=50)


def _kg_profile_events(sf_dir: str):
    """Per-predicate KG profile (exact distincts) over the events triple
    encoding — one hash(predicate) exchange."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
        kg_profile,
    )

    return kg_profile(event_triples(sf_dir))


def _kg_shacl_violations(sf_dir: str):
    """SHACL-lite publish gate driver check: customers encoded as typed
    nodes with balance literals (every 7th missing its datatype) and
    has_order edges; the shape flags datatype violations and customers
    holding more than 12 orders."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.shacl import (
        RDF_TYPE,
        NodeShape,
        PropertyShape,
        validate_shapes,
    )

    xsd_dec = "http://www.w3.org/2001/XMLSchema#decimal"

    def _iri(prefix, col):
        return pc.binary_join_element_wise(
            prefix, pc.cast(col, pa.string()), "")

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"])
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def enc_cust(t: pa.Table) -> pa.Table:
        import numpy as np

        n = len(t)
        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        subj = _iri("cust:", t["c_custkey"])
        type_rows = pa.table({
            "subject": subj,
            "predicate": pa.array([RDF_TYPE] * n, pa.string()),
            "object": pa.array(["Customer"] * n, pa.string()),
            "object_kind": pa.array(["iri"] * n, pa.string()),
            "object_datatype": pa.nulls(n, pa.string()),
        })
        dtype = pa.array([None if k % 7 == 0 else xsd_dec for k in keys],
                         pa.string())
        bal_rows = pa.table({
            "subject": subj,
            "predicate": pa.array(["balance"] * n, pa.string()),
            "object": pc.cast(t["c_acctbal"], pa.string()),
            "object_kind": pa.array(["literal"] * n, pa.string()),
            "object_datatype": dtype,
        })
        return pa.concat_tables([type_rows, bal_rows])

    def enc_orders(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "subject": _iri("cust:", t["o_custkey"]),
            "predicate": pa.array(["has_order"] * n, pa.string()),
            "object": _iri("order:", t["o_orderkey"]),
            "object_kind": pa.array(["iri"] * n, pa.string()),
            "object_datatype": pa.nulls(n, pa.string()),
        })

    triples = (cust.map_batches(enc_cust, batch_format="pyarrow")
               .union(orders.map_batches(enc_orders,
                                         batch_format="pyarrow"))
               .materialize())
    shapes = [NodeShape("CustomerShape", "Customer", [
        PropertyShape("balance", datatype=xsd_dec),
        PropertyShape("has_order", max_count=12),
    ])]
    out = validate_shapes(triples, shapes)
    return out.select_columns(["focus", "path", "constraint"])


def _kg_sameas_merge_orders(sf_dir: str):
    """owl:sameAs smushing driver check: alias edges group customers in
    threes (cust i ~ cust i - i%3, zero-padded IRIs so the lexicographic
    canonical equals the numeric base); after the merge, order counts per
    CANONICAL customer must equal the closed-form SQL."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Count

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        merge_equivalent_entities,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

    def _pad_iri(col):
        return pc.binary_join_element_wise(
            "cust:", pc.utf8_lpad(pc.cast(col, pa.string()), 8, "0"), "")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def enc_orders(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "subject": pc.binary_join_element_wise(
                "order:", pc.cast(t["o_orderkey"], pa.string()), ""),
            "predicate": pa.array(["placed_by"] * n, pa.string()),
            "object": _pad_iri(t["o_custkey"]),
            "object_kind": pa.array(["iri"] * n, pa.string()),
        })

    def enc_alias(t: pa.Table) -> pa.Table:
        import numpy as np

        keys = t["c_custkey"].to_numpy(zero_copy_only=False)
        base = keys - keys % 3
        n = len(t)
        return pa.table({
            "subject": _pad_iri(pa.array(keys, pa.int64())),
            "predicate": pa.array(["same_as"] * n, pa.string()),
            "object": _pad_iri(pa.array(base, pa.int64())),
            "object_kind": pa.array(["iri"] * n, pa.string()),
        })

    triples = (orders.map_batches(enc_orders, batch_format="pyarrow")
               .union(cust.map_batches(enc_alias, batch_format="pyarrow"))
               .materialize())
    merged = merge_equivalent_entities(triples, "same_as")["triples"]
    bindings = bgp_query(merged.materialize(),
                         [("?o", "placed_by", "?cust")],
                         project=["?cust", "?o"])
    return bindings.groupby("cust").aggregate(Count(alias_name="n_orders"))


def _kg_store_bgp_orders(sf_dir: str):
    """The 3-hop BGP evaluated over the predicate-partitioned Parquet
    TripleStore: every constant-predicate pattern scan reads ONLY its
    predicate bucket (store built once per sf_dir, fingerprinted)."""
    import os

    from ray.data.aggregate import Count

    from cmc_knowledge_graph_text2ttl_ray.functions import checkpoint as ck
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        bgp_query,
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
        TripleStore,
        write_triple_store,
    )

    root = ck.default_cache_dir("graft_triple_store",
                                os.path.abspath(sf_dir))
    fp = ck.input_fingerprint(
        [f"{sf_dir}/orders.parquet", f"{sf_dir}/customer.parquet",
         f"{sf_dir}/nation.parquet"], {"enc": "order_chain_v1"})
    if not ck.is_valid(root, fp):
        import shutil

        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        write_triple_store(order_triples(sf_dir), root, num_buckets=16)
        ck.mark_done(root, fp)
    bindings = bgp_query(
        TripleStore(root),
        [("?o", "placed_by", "?c"), ("?c", "in_nation", "?n"),
         ("?n", "has_name", "?name")],
        project=["?name", "?o"],
    )
    return bindings.groupby("name").aggregate(Count(alias_name="n_orders"))


def _kg_khop_nation(sf_dir: str):
    """DESCRIBE-style 2-hop neighborhood of one nation node over the
    order-chain triple encoding (broadcast frontier, one scan per hop)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        khop_subgraph,
        order_triples,
    )

    sub = khop_subgraph(order_triples(sf_dir).materialize(),
                        ["nation:1"], k=2)
    return sub.select_columns(["subject", "predicate", "object"])


def _kg_quads_replace_segments(sf_dir: str):
    """Document-replace over a quad KG root: publish the order_quads
    encoding as gen-0, then REPLACE graph urn:g:NATION_7 (one
    generation retracting the graph + adding relabeled segment quads);
    the zero-exchange quad_read resolve yields post-replace segment
    counts."""
    import shutil
    import tempfile

    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_quads import (
        publish_quads,
        quad_read,
        replace_graphs,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads

    quads = order_quads(sf_dir).materialize()
    root = tempfile.mkdtemp(prefix="graft_kg_quads_")
    try:
        publish_quads(root, quads)

        def relabel(t: pa.Table) -> pa.Table:
            m = pc.and_(pc.equal(t["graph"], "urn:g:NATION_7"),
                        pc.equal(t["predicate"], "segment"))
            t = t.filter(m)
            n = len(t)
            return pa.table({
                "subject": t["subject"],
                "predicate": t["predicate"],
                "object": pa.array(["RELABELED"] * n, pa.string()),
                "object_kind": t["object_kind"],
                "graph": t["graph"],
            })

        replace_graphs(root, quads.map_batches(relabel,
                                               batch_format="pyarrow"),
                       graphs=["urn:g:NATION_7"])

        def seg_only(df: pd.DataFrame) -> pd.DataFrame:
            return df[df["predicate"] == "segment"][["object"]]

        out = (quad_read(root)
               .map_batches(seg_only, batch_format="pandas")
               .groupby("object").count().to_pandas()
               .rename(columns={"object": "s", "count()": "n"}))
        return out.sort_values("s", ignore_index=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _kg_store_graph_segments(sf_dir: str):
    """Constant-GRAPH query over the graph-bucketed Parquet QuadStore:
    the GRAPH <iri> scan reads ONLY its bucket directory (store built
    once per sf_dir, fingerprinted)."""
    import os

    from cmc_knowledge_graph_text2ttl_ray.functions import checkpoint as ck
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.quad_store import (
        QuadStore,
        write_quad_store,
    )

    root = ck.default_cache_dir("graft_quad_store", os.path.abspath(sf_dir))
    fp = ck.input_fingerprint(
        [f"{sf_dir}/orders.parquet", f"{sf_dir}/customer.parquet",
         f"{sf_dir}/nation.parquet"], {"enc": "order_quads_v1"})
    if not ck.is_valid(root, fp):
        import shutil

        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        write_quad_store(order_quads(sf_dir), root, num_buckets=16)
        ck.mark_done(root, fp)
    return sparql_select(
        QuadStore(root),
        "SELECT ?s (COUNT(*) AS ?n) WHERE { GRAPH <urn:g:NATION_7> { "
        '?c "segment" ?s } } GROUP BY ?s ORDER BY ?s')


def _kg_property_graph_counts(sf_dir: str):
    """Property-graph export tables (nodes/edges/props) over the
    orders→customer→nation encoding, summarized as row counts."""
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples
    from cmc_knowledge_graph_text2ttl_ray.stages.property_graph import (
        property_graph_tables,
    )

    nodes, edges, props = property_graph_tables(
        order_triples(sf_dir).materialize())
    return pd.DataFrame([{
        "n_nodes": nodes.count(),
        "n_edges": edges.count(),
        "n_props": props.count(),
    }])


def _kg_fingerprint_orders(sf_dir: str):
    """Order-independent 64-bit set hash of the distinct (s, p, o) triple
    set — O(1) run-to-run change detection (XOR of per-triple md5)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_fingerprint import (
        kg_fingerprint,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples

    return kg_fingerprint(order_triples(sf_dir))


def _kg_fingerprint_graphs(sf_dir: str):
    """Per-named-graph content fingerprints over the quad encoding —
    which documents' triples changed between runs."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_fingerprint import (
        kg_fingerprint_by_graph,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads

    return kg_fingerprint_by_graph(order_quads(sf_dir))


def _kg_isocanonical_fingerprint(sf_dir: str):
    """Blank-node-label-INDEPENDENT content fingerprint (no_oracle: the
    WL-canonicalization is not SQL-expressible; invariance/sensitivity
    are pinned by tests in test_kg_fingerprint.py).

    Input: a deterministic bnode-bearing encoding of orders — each order
    contributes an ANONYMOUS node (skolem scoped by the order key, the
    same per-document minting functions/turtle.py::parse_turtle uses)
    linking its customer to its order priority."""
    import hashlib as _h

    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_fingerprint import (
        kg_isocanonical_fingerprint,
    )

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"])

    def enc(df: pd.DataFrame) -> pd.DataFrame:
        scopes = [
            _h.md5(str(int(k)).encode()).hexdigest()[:8]
            for k in df["o_orderkey"]]
        bn = ["urn:graft:bnode:" + sc + ":b0" for sc in scopes]
        cust = "cust:" + df["o_custkey"].astype(str)
        return pd.DataFrame({
            "subject": list(cust) + bn,
            "predicate": ["placed"] * len(df) + ["has_priority"] * len(df),
            "object": bn + list(df["o_orderpriority"].astype(str)),
        })

    return kg_isocanonical_fingerprint(
        orders.map_batches(enc, batch_format="pandas"))


def _pr_pair(sf_dir: str):
    """(got, expected) triple datasets for the eval-family queries:
    expected = the clean order_triples encoding; got = the same with a
    deterministic perturbation (placed_by rows dropped for
    o_orderkey % 10 == 7, spurious rows injected for % 13 == 0)."""
    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )

    expected = order_triples(sf_dir).select_columns(
        ["subject", "predicate", "object"])

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        sized_read_parquet,
    )

    orders = sized_read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def perturb(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["o_orderkey"] % 10 != 7]
        placed = pd.DataFrame({
            "subject": "order:" + keep["o_orderkey"].astype(str),
            "predicate": "placed_by",
            "object": "cust:" + keep["o_custkey"].astype(str),
        })
        spur_src = df[df["o_orderkey"] % 13 == 0]
        spur = pd.DataFrame({
            "subject": "order:" + spur_src["o_orderkey"].astype(str),
            "predicate": "spurious_link",
            "object": "x:" + spur_src["o_orderkey"].astype(str),
        })
        return pd.concat([placed, spur], ignore_index=True)

    rest = order_triples(sf_dir).select_columns(
        ["subject", "predicate", "object"]).filter(
        expr="predicate != 'placed_by'")
    got = orders.map_batches(perturb, batch_format="pandas").union(rest)
    return got, expected


def _kg_triple_pr(sf_dir: str):
    """Distributed triple-set precision/recall/F1 — the engine's
    acceptance metric (triple P/R vs a reference set) as a first-class
    op, over the deterministic perturbed/clean pair of _pr_pair."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_eval import (
        triple_set_pr,
    )

    got, expected = _pr_pair(sf_dir)
    return triple_set_pr(got, expected)


def _kg_triple_diff(sf_dir: str):
    """Symmetric triple-set diff (added/removed rows) of the perturbed
    order-triple encoding vs the clean one — the change-inspection twin
    of kg_triple_pr (same inputs, row-level output)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_eval import (
        triple_set_diff,
    )

    got, expected = _pr_pair(sf_dir)
    return triple_set_diff(got, expected)


def _kg_property_graph_roundtrip(sf_dir: str):
    """Export the order-triple encoding to nodes/edges/props Parquet,
    import it back, and score the reassembled set against the original
    with the distributed P/R op — the lossless-round-trip invariant
    (single-typed nodes, plain literals) as an oracle-checked row."""
    import tempfile

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_eval import (
        triple_set_pr,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.property_graph import (
        export_property_graph,
        import_property_graph,
    )

    triples = order_triples(sf_dir).materialize()
    out = tempfile.mkdtemp(prefix="pg_roundtrip_", dir="/tmp")
    export_property_graph(triples, out)
    back = import_property_graph(out)
    return triple_set_pr(
        back, triples,
        cols=("subject", "predicate", "object", "object_kind"))


def _parts_closeness(sf_dir: str):
    """Approximate closeness centrality over the co-purchase graph
    (Eppstein-Wang sampling, k=8 deterministic md5-ranked sources;
    no_oracle: sampling estimator, pinned by exact-star + determinism
    tests in test_graph_algos.py)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        approx_closeness,
        copurchase_edges,
    )

    return approx_closeness(copurchase_edges(sf_dir), k_sources=8,
                            max_hops=6)


def _parts_bfs_reach(sf_dir: str):
    """Hop distances (<=3) from part 0 through the co-purchase sequence
    graph (multi-source BFS primitive; driver path under the edge
    threshold, broadcast-frontier distributed path above, equivalence-
    tested)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        parts_bfs_reach,
    )

    return parts_bfs_reach(sf_dir, seed_part=0, max_hops=3)


def _kg_transe_link_rank(sf_dir: str):
    """Distributed TransE KG-embedding training over the IRI triples of
    the orders→customer→nation encoding, evaluated by filtered link
    rank per relation (no_oracle: model output; pinned by
    planted-structure + layout-invariance tests in test_kg_embed.py).

    Scale shape: corpus never shuffles — one map_batches gradient pass
    per epoch against broadcast parameter matrices, partials summed in
    one coarse exchange bounded by (entities touched × dim)."""
    import numpy as np
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_embed import (
        encode_triple_ids,
        link_rank,
        transe_train,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples

    ids, ents, rels = encode_triple_ids(order_triples(sf_dir))
    # lr is scaled by 1/n_rows inside transe_train (full-batch mean
    # gradient), so the nominal value rises with corpus size; 20 ≈ a
    # 0.012 per-row step at sf0.001
    E, R, losses = transe_train(ids, len(ents), len(rels),
                                dim=16, epochs=10, lr=20.0, seed=7)
    df = ids.to_pandas()
    # bound the O(n × |E|) rank evaluation: deterministic md5-style
    # subsample of up to 2000 evaluation rows
    if len(df) > 2000:
        h = pd.util.hash_pandas_object(
            df[["s", "p", "o"]], index=False).to_numpy()
        df = df.iloc[np.argsort(h, kind="stable")[:2000]]
    ranks = link_rank(E, R, df)
    ranks["relation"] = ranks["p"].map(dict(enumerate(rels)))
    ranks["n_entities"] = len(ents)
    ranks["loss_first"] = round(losses[0], 4)
    ranks["loss_last"] = round(losses[-1], 4)
    return ranks[["relation", "mean_rank", "hits_at_10", "n",
                  "n_entities", "loss_first", "loss_last"]]


def _kg_transe_sharded_check(sf_dir: str):
    """Entity-SHARDED TransE (parameter actors, no single-node matrix —
    round-4 verdict #1 closed) trained beside the broadcast path from
    the same init; reports the max parameter deviation and loss deltas
    (no_oracle: model internals; equivalence pinned by
    test_kg_embed.py::test_sharded_matches_broadcast_with_same_init)."""
    import numpy as np
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_embed import (
        _init_matrix,
        encode_triple_ids,
        transe_gather_entities,
        transe_train,
        transe_train_sharded,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples

    ids, ents, rels = encode_triple_ids(order_triples(sf_dir))
    dim, epochs = 16, 4
    E_b, R_b, loss_b = transe_train(ids, len(ents), len(rels),
                                    dim=dim, epochs=epochs, lr=20.0, seed=7)
    shards, R_s, loss_s = transe_train_sharded(
        ids, len(ents), len(rels), dim=dim, epochs=epochs, lr=20.0,
        seed=7, num_shards=4,
        init_E=_init_matrix(len(ents), dim, 7, "ent"))
    E_s = transe_gather_entities(shards, len(ents), dim)
    return pd.DataFrame([{
        "n_entities": len(ents),
        "n_relations": len(rels),
        "num_shards": 4,
        "max_abs_E_dev": float(np.abs(E_s - E_b).max()),
        "max_abs_R_dev": float(np.abs(R_s - R_b).max()),
        "max_abs_loss_dev": float(np.abs(np.array(loss_s)
                                         - np.array(loss_b)).max()),
        "paths_agree": bool(np.allclose(E_s, E_b, rtol=1e-3, atol=1e-5)),
    }])


def _kg_link_rank_indexed(sf_dir: str):
    """IVF-indexed filtered link rank beside the brute matmul (round-4
    verdict #3): per-relation ranks from probing nprobe of n_clusters
    entity buckets, plus the per-row agreement fraction vs brute
    (no_oracle: model output; exactness of the full-probe case pinned by
    test_kg_embed.py)."""
    import numpy as np
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_embed import (
        encode_triple_ids,
        link_rank,
        link_rank_indexed,
        transe_train,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples

    ids, ents, rels = encode_triple_ids(order_triples(sf_dir))
    E, R, _ = transe_train(ids, len(ents), len(rels),
                           dim=16, epochs=10, lr=20.0, seed=7)
    df = ids.to_pandas()
    if len(df) > 2000:
        h = pd.util.hash_pandas_object(
            df[["s", "p", "o"]], index=False).to_numpy()
        df = df.iloc[np.argsort(h, kind="stable")[:2000]]
    brute = link_rank(E, R, df)
    idx = link_rank_indexed(E, R, df, n_clusters=16, nprobe=8)
    m = brute.merge(idx, on="p", suffixes=("_brute", "_indexed"))
    m["relation"] = m["p"].map(dict(enumerate(rels)))
    m["mean_rank_agree"] = (
        np.abs(m["mean_rank_indexed"] - m["mean_rank_brute"])
        <= 0.05 * m["mean_rank_brute"] + 1e-9)
    return m[["relation", "mean_rank_brute", "mean_rank_indexed",
              "hits_at_10_brute", "hits_at_10_indexed", "n_brute",
              "mean_rank_agree"]]


def _kg_void_properties(sf_dir: str):
    """VoID property partitions (per-predicate triples / distinct
    subjects / distinct objects) over the orders→customer→nation triple
    encoding — per-block partials + one coarse exchange per metric."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples
    from cmc_knowledge_graph_text2ttl_ray.pipelines.void_stats import (
        void_property_partitions,
    )

    return void_property_partitions(order_triples(sf_dir).materialize())


def _kg_void_classes(sf_dir: str):
    """VoID class partitions (distinct instances per class) over the
    RDFS demo encoding's rdf:type triples."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        rdfs_demo_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.void_stats import (
        void_class_partitions,
    )

    return void_class_partitions(rdfs_demo_triples(sf_dir).materialize(),
                                 type_predicate="rdf:type")


def _kg_void_graphs(sf_dir: str):
    """Per-named-graph VoID descriptors (quads / distinct subjects /
    distinct predicates) over the order_quads encoding."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads
    from cmc_knowledge_graph_text2ttl_ray.pipelines.void_stats import (
        void_graph_partitions,
    )

    return void_graph_partitions(order_quads(sf_dir).materialize())


def _kg_void_summary(sf_dir: str):
    """Whole-dataset VoID summary (exact distinct counts) over the
    orders→customer→nation triple encoding."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_triples
    from cmc_knowledge_graph_text2ttl_ray.pipelines.void_stats import void_summary

    return void_summary(order_triples(sf_dir).materialize())


def _kg_graph_quad_counts(sf_dir: str):
    """Named-graph GROUP BY through the SPARQL front end: quad counts per
    graph (one graph per customer nation, ``order_quads`` encoding)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_quads(sf_dir).materialize(),
        "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } "
        "GROUP BY ?g ORDER BY ?g")


def _kg_graph_building_orders(sf_dir: str):
    """``GRAPH ?g { … }`` with a same-graph 2-pattern join: orders placed
    by BUILDING-segment customers, counted per named graph (= nation)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_quads(sf_dir).materialize(),
        "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { "
        '?o "placed_by" ?c . ?c "segment" "BUILDING" } } '
        "GROUP BY ?g ORDER BY ?g")


def _kg_graph_const_segments(sf_dir: str):
    """``GRAPH <iri> { … }``: customer segments inside ONE named graph —
    the scan is graph-filtered before the aggregate."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import order_quads
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_quads(sf_dir).materialize(),
        "SELECT ?s (COUNT(*) AS ?n) WHERE { GRAPH <urn:g:NATION_7> { "
        '?c "segment" ?s } } GROUP BY ?s ORDER BY ?s')


def _kg_sparql_purchases_per_user(sf_dir: str):
    """SPARQL string front end compiled onto the distributed BGP engine:
    aggregate query over the events triple encoding."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        event_triples(sf_dir).materialize(),
        'SELECT ?u (COUNT(*) AS ?n) WHERE { ?u "purchase" ?d . } '
        "GROUP BY ?u")


def _kg_sparql_click_or_error_days(sf_dir: str):
    """Distributed SPARQL UNION: (user, day) pairs with a click OR an
    error event."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        event_triples(sf_dir).materialize(),
        "SELECT DISTINCT ?u ?d WHERE { "
        '{ ?u "click" ?d . } UNION { ?u "error" ?d . } }')


def _kg_sparql_path_order_nations(sf_dir: str):
    """Fixed-length property path (SPARQL-1.1 fresh-var BGP rewrite)
    through the 3-hop order chain, aggregated per nation name."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_triples(sf_dir).materialize(),
        'SELECT ?name (COUNT(*) AS ?n_orders) WHERE { '
        '?o "placed_by"/"in_nation"/"has_name" ?name . } GROUP BY ?name')


def _kg_sparql_top_mentioned(sf_dir: str):
    """SPARQL aggregate over the flagship KG's OWN triples: mention
    counts per entity (rows-only: KG semantics)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        _kg_records(sf_dir)["triples"],
        "PREFIX kg: <http://example.org/kg/>\n"
        "SELECT ?e (COUNT(*) AS ?n) WHERE { ?d kg:mentions ?e . } "
        "GROUP BY ?e")


def _kg_sparql_sample_concat(sf_dir: str):
    """SPARQL SAMPLE + GROUP_CONCAT(DISTINCT) + COUNT(DISTINCT) over
    the events triple encoding — the general (non-Ray-native)
    aggregate path: one coarse exchange of the solution table, pandas
    per-group combine replicating the in-memory evaluator's semantics
    (SAMPLE = deterministic min; GROUP_CONCAT DISTINCT = sorted)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        event_triples(sf_dir).materialize(),
        "SELECT ?u (COUNT(DISTINCT ?d) AS ?n_days) "
        "(SAMPLE(?d) AS ?first_day) "
        '(GROUP_CONCAT(DISTINCT ?d ; SEPARATOR=",") AS ?days) '
        'WHERE { ?u "purchase" ?d } GROUP BY ?u')


def _kg_sparql_topk_offset(sf_dir: str):
    """SPARQL ORDER BY (numeric comparator) + OFFSET + LIMIT over the
    3-hop order chain: the distributed sort runs on derived
    (kind, number, lexical) key columns and OFFSET is an ordered
    split bounded by OFFSET+LIMIT."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_triples(sf_dir).materialize(),
        "SELECT ?name (COUNT(*) AS ?n_orders) WHERE { "
        '?o "placed_by"/"in_nation"/"has_name" ?name . } GROUP BY ?name '
        "ORDER BY DESC(?n_orders) ?name OFFSET 3 LIMIT 5")


def _kg_sparql_star_reach(sf_dir: str):
    """SPARQL ``*`` closure over a COMPLEX sub-path: the zero-length
    arm (reflexive pairs over all graph terms, one coarse distinct)
    unions with the sub-path's semi-naive closure."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_triples(sf_dir).materialize(),
        'SELECT DISTINCT ?c ?y WHERE { ?o "placed_by" ?c . '
        '?c ("in_nation"/"has_name")* ?y . }')


def _kg_sparql_chained_optional(sf_dir: str):
    """Chained OPTIONAL through a possibly-null variable (SPARQL §18.5
    per-binding substitution): a FILTER inside the first OPTIONAL
    leaves ?n unbound for most customers; the second OPTIONAL then
    evaluates via bound-var strata — the unbound stratum crosses with
    the compatible-with-anything (nation, name) pairs."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    return sparql_select(
        order_triples(sf_dir).materialize(),
        'SELECT ?o ?c ?n ?nm WHERE { ?o "placed_by" ?c . '
        'OPTIONAL { ?c "in_nation" ?n FILTER(strstarts(?n, "nation:1")) } '
        'OPTIONAL { ?n "has_name" ?nm } FILTER(strends(?o, "00")) }')


def _full_identity(t):
    """Pad a 4-column triple encoding to the sink's full identity schema
    (null lang/datatype)."""
    import pyarrow as pa

    n = len(t)
    return (t.append_column("object_lang", pa.nulls(n, pa.string()))
             .append_column("object_datatype", pa.nulls(n, pa.string())))


def _publish_tmp_kg(ds):
    """Publish a triple Dataset as gen-00000 of a fresh /tmp KG root
    (per-call scratch — the caller owns cleanup; results are
    deterministic because every generation derives only from sf tables)."""
    import tempfile

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        publish_generation,
    )

    root = tempfile.mkdtemp(prefix="graft_kg_update_")
    publish_generation(
        ds.map_batches(_full_identity, batch_format="pyarrow"), root)
    return root


def _kg_update_retract_errors(sf_dir: str):
    """SPARQL 1.1 Update DELETE WHERE over a published generation KG:
    the events triple encoding becomes gen-00000, the update publishes
    a tombstone generation retracting every ``ev:error`` triple, and the
    removal-aware ``kg_read`` resolves per-identity last-touch in one
    hash exchange.  Returns per-predicate triple counts of the surviving
    KG (DISTINCT in the oracle: the bucketed TTL sink dedups exact
    triples at publish)."""
    import shutil

    from ray.data.aggregate import Count

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import (
        kg_read,
        sparql_update,
    )

    def iri_preds(t):
        import pyarrow.compute as pc

        return t.set_column(
            t.schema.get_field_index("predicate"), "predicate",
            pc.binary_join_element_wise("ev:", t["predicate"], ""))

    root = _publish_tmp_kg(
        event_triples(sf_dir).map_batches(iri_preds, batch_format="pyarrow"))
    try:
        sparql_update(root, 'DELETE WHERE { ?u <ev:error> ?d . }')
        out = (kg_read(root)
               .groupby("predicate")
               .aggregate(Count(alias_name="n"))
               .to_pandas())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _kg_update_order_nation_insert(sf_dir: str):
    """SPARQL 1.1 Update INSERT … WHERE (typed inserts): materialize the
    3-hop order→customer→nation chain into direct ``order_nation``
    triples on a published KG; the variable object ?name recovers its
    stored RDF typing (literal) by joining the typing back from the KG
    pruned to the binding patterns' predicates.  Returns the inserted
    (subject, object) pairs read back removal-aware."""
    import shutil

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import (
        kg_read,
        sparql_update,
    )

    root = _publish_tmp_kg(order_triples(sf_dir))
    try:
        sparql_update(
            root,
            'INSERT { ?o <order_nation> ?name } '
            'WHERE { ?o <placed_by> ?c . ?c <in_nation> ?n . '
            '?n <has_name> ?name }')
        out = (kg_read(root)
               .filter(expr='predicate == "order_nation"')
               .select_columns(["subject", "object"])
               .to_pandas())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _kg_update_relabel_clicks(sf_dir: str):
    """SPARQL 1.1 Update DELETE/INSERT WHERE (the combined modify form,
    DELETE-before-INSERT semantics): relabel every ``ev:click`` triple to
    ``ev:view`` in one update — one tombstone set + one add set published
    as a single generation.  Returns per-predicate counts after the
    relabel (clicks fold into views; DISTINCT set semantics)."""
    import shutil

    from ray.data.aggregate import Count

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        event_triples,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import (
        kg_read,
        sparql_update,
    )

    def iri_preds(t):
        import pyarrow.compute as pc

        return t.set_column(
            t.schema.get_field_index("predicate"), "predicate",
            pc.binary_join_element_wise("ev:", t["predicate"], ""))

    root = _publish_tmp_kg(
        event_triples(sf_dir).map_batches(iri_preds, batch_format="pyarrow"))
    try:
        sparql_update(
            root,
            'DELETE { ?u <ev:click> ?d } INSERT { ?u <ev:view> ?d } '
            'WHERE { ?u <ev:click> ?d }')
        out = (kg_read(root)
               .groupby("predicate")
               .aggregate(Count(alias_name="n"))
               .to_pandas())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _kg_construct_order_nation(sf_dir: str):
    """SPARQL-CONSTRUCT over the order-chain triple encoding: derive
    (order, from_nation, nation) triples from the 2-pattern body."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import construct
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        order_triples,
    )

    derived = construct(
        order_triples(sf_dir).materialize(),
        [("?o", "placed_by", "?c"), ("?c", "in_nation", "?n")],
        [("?o", "from_nation", "?n")],
    )
    return derived.select_columns(["subject", "predicate", "object"])


def _kg_forward_chain_locations(sf_dir: str):
    """Semi-naive forward chaining over the flagship KG: lift
    headquarteredIn/inCountry into a transitive locatedIn, closing
    entity→place→country in two rounds (rows-only: KG semantics)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        Rule,
        forward_chain,
    )

    kg = "http://example.org/kg/"
    rules = [
        Rule([("?e", kg + "headquarteredIn", "?p")],
             [("?e", kg + "locatedIn", "?p")], name="hq"),
        Rule([("?p", kg + "inCountry", "?c")],
             [("?p", kg + "locatedIn", "?c")], name="country"),
        Rule([("?x", kg + "locatedIn", "?y"), ("?y", kg + "locatedIn", "?z")],
             [("?x", kg + "locatedIn", "?z")], name="trans"),
    ]
    res = forward_chain(_kg_records(sf_dir)["triples"], rules)
    return res["derived"].select_columns(["subject", "predicate", "object"])


def _kg_rdfs_closure(sf_dir: str):
    """ρDF entailment (rdfs2/3/5/7/9/11) over the RDFS demo encoding:
    class tree nation⊑region⊑world, property chain
    placed_by⊑involves⊑related_to with domain/range on placed_by, and
    a literal-valued has_name⊑labeled whose range must NOT fire.
    Returns the DERIVED triple set — every entailment has a closed
    plain-join SQL form, so the whole inference engine is
    oracle-checked end to end."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import rdfs_closure
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        rdfs_demo_triples,
    )

    out = rdfs_closure(rdfs_demo_triples(sf_dir))
    return out["derived"].select_columns(["subject", "predicate", "object"])


def _kg_owl_closure(sf_dir: str):
    """OWL-lite property-semantics entailment (prp-inv, prp-symp,
    prp-trp) over the OWL demo encoding: supplier ships_to with a
    declared inverse, a symmetric+transitive same_region_as nation
    chain, a transitive within hierarchy cust->nation->region->world,
    and a literal-valued invertible labeled_as that must NOT swap.
    Returns the DERIVED triple set -- every entailment has a closed
    plain-join SQL form, so the OWL closure engine is oracle-checked
    end to end."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_lite_closure,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        owl_demo_triples,
    )

    out = owl_lite_closure(owl_demo_triples(sf_dir))
    return out["derived"].select_columns(["subject", "predicate", "object"])


def _kg_sameas_pairs(sf_dir: str):
    """prp-fp / prp-ifp entity resolution over the sameAs demo
    encoding: derived owl:sameAs star pairs (spelling-variant owners +
    shared-contact-key customer groups; the undeclared multi-valued
    decoy contributes nothing).  Closed GROUP-BY/MIN SQL form."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        sameas_from_functional,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        sameas_demo_triples,
    )

    out = sameas_from_functional(sameas_demo_triples(sf_dir))
    return out["pairs"].select_columns(["subject", "predicate", "object"])


def _kg_sameas_canonical(sf_dir: str):
    """Full entity resolution: derived sameAs pairs smushed through
    connected components into an iri -> canonical mapping.  The chain
    customer:<c> <-> cust:<c> <-> its contact-key group makes the
    mapping genuinely transitive, yet it stays in closed SQL form
    because every component's canonical is its group's min cust IRI."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        sameas_from_functional,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        sameas_demo_triples,
    )

    out = sameas_from_functional(sameas_demo_triples(sf_dir), merge=True)
    return out["mapping"].select_columns(["iri", "canonical"])


def _kg_eq_closure(sf_dir: str):
    """owl:equivalentClass / equivalentProperty entailment over the eq
    demo encoding: the 3-class eq chain closes symmetric-transitively
    (incl. self-loops) and expands into the full subClassOf hierarchy,
    lifting every customer's type; placed_by = ordered_by lifts every
    order triple.  Every entailment has a closed SQL form."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        owl_equivalence_closure,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        eq_demo_triples,
    )

    out = owl_equivalence_closure(eq_demo_triples(sf_dir))
    return out["derived"].select_columns(["subject", "predicate", "object"])


def _kg_incremental_closure(sf_dir: str):
    """Incremental entailment maintenance: the place hierarchy
    (nation locatedIn region locatedIn world) is closed ONCE, then the
    customer shard arrives as a seed delta — forward_chain re-enters
    semi-naive from the delta only, deriving each customer's region and
    world memberships without re-closing the base KG.  Closed
    plain-join SQL form."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        Rule,
        forward_chain,
    )

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"]).to_pandas()
    base_rows = (
        [(f"nation:{r.n_nationkey}", "locatedIn",
          f"region:{r.n_regionkey}") for r in nat.itertuples()]
        + [(f"region:{k}", "locatedIn", "class:world")
           for k in sorted(set(nat["n_regionkey"]))])
    base = ray.data.from_items(
        [{"subject": s_, "predicate": p_, "object": o_,
          "object_kind": "iri"} for s_, p_, o_ in base_rows])

    trans = Rule([("?x", "locatedIn", "?y"), ("?y", "locatedIn", "?z")],
                 [("?x", "locatedIn", "?z")], name="trans")
    closed = forward_chain(base, [trans])["closure"]

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def enc(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "subject": pc.binary_join_element_wise(
                "cust:", pc.cast(t["c_custkey"], pa.string()), ""),
            "predicate": pa.array(["locatedIn"] * n, pa.string()),
            "object": pc.binary_join_element_wise(
                "nation:", pc.cast(t["c_nationkey"], pa.string()), ""),
            "object_kind": pa.array(["iri"] * n, pa.string()),
        })

    inc = forward_chain(closed, [trans],
                        seed_delta=cust.map_batches(
                            enc, batch_format="pyarrow"))
    return inc["derived"].select_columns(["subject", "predicate", "object"])


def _kg_dred_retract(sf_dir: str):
    """DRed retraction over the closed place hierarchy: delete region
    0's nation->region edges.  Overdeletion takes out every fact in
    their dependency cone; rederivation brings back what has
    alternative support (even-keyed nations assert locatedIn world
    DIRECTLY as base facts, so their world memberships — and their
    customers' — survive).  Returns the REMOVED set, which has a
    closed SQL form over the region-0 odd/even split."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        Rule,
        dred_delete,
        forward_chain,
    )

    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"]).to_pandas()
    base_rows = (
        [(f"nation:{r.n_nationkey}", "locatedIn",
          f"region:{r.n_regionkey}") for r in nat.itertuples()]
        + [(f"region:{k}", "locatedIn", "class:world")
           for k in sorted(set(nat["n_regionkey"]))]
        + [(f"nation:{r.n_nationkey}", "locatedIn", "class:world")
           for r in nat.itertuples() if r.n_nationkey % 2 == 0])

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])

    def enc(t: pa.Table) -> pa.Table:
        n = len(t)
        return pa.table({
            "subject": pc.binary_join_element_wise(
                "cust:", pc.cast(t["c_custkey"], pa.string()), ""),
            "predicate": pa.array(["locatedIn"] * n, pa.string()),
            "object": pc.binary_join_element_wise(
                "nation:", pc.cast(t["c_nationkey"], pa.string()), ""),
            "object_kind": pa.array(["iri"] * n, pa.string()),
        })

    base = ray.data.from_items(
        [{"subject": s_, "predicate": p_, "object": o_,
          "object_kind": "iri"} for s_, p_, o_ in base_rows]).union(
        cust.map_batches(enc, batch_format="pyarrow"))

    trans = Rule([("?x", "locatedIn", "?y"), ("?y", "locatedIn", "?z")],
                 [("?x", "locatedIn", "?z")], name="trans")
    closure = forward_chain(base, [trans])["closure"]

    dels = ray.data.from_items(
        [{"subject": f"nation:{r.n_nationkey}", "predicate": "locatedIn",
          "object": f"region:{r.n_regionkey}", "object_kind": "iri"}
         for r in nat.itertuples() if r.n_regionkey == 0])
    out = dred_delete(closure, [trans], deletions=dels, base=base)
    return out["removed"].select_columns(["subject", "predicate", "object"])


def _kg_bgp_mentions_chain(sf_dir: str):
    """BGP over the flagship pipeline's OWN emitted triples: documents
    that mention an entity headquartered in a place in some country —
    the post-materialize KG query story (rows-only: KG semantics)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

    kg = "http://example.org/kg/"
    return bgp_query(
        _kg_records(sf_dir)["triples"],
        [("?d", kg + "mentions", "?e"),
         ("?e", kg + "headquarteredIn", "?pl"),
         ("?pl", kg + "inCountry", "?c")],
        project=["?d", "?e", "?c"], distinct=True,
    )


def _segment_year_pivot(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        segment_year_pivot,
    )

    return segment_year_pivot(sf_dir)


def _events_rolling_active(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        events_rolling_active_users,
    )

    return events_rolling_active_users(sf_dir, window=7)


def _events_retention(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        events_retention_cohorts,
    )

    return events_retention_cohorts(sf_dir)


def _skew_safe_join(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.relational import (
        skew_safe_join_priority_quantity,
    )

    return skew_safe_join_priority_quantity(sf_dir)


def _docs_temperature_sample(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        temperature_sample,
    )

    return temperature_sample(sf_dir, alpha=0.5, target_frac=0.5)


def _docs_chunks(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import (
        chunk_documents,
    )

    return chunk_documents(sf_dir, chunk_tokens=64, overlap=16)


def _multimodal_phash_dups(sf_dir: str):
    """Image near-dup pairs over synthesized payloads (real decode path
    is PNG; the synth payloads exercise the FakeDecoder + banding
    plumbing — exact copies pair at hamming 0)."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.multimodal import (
        media_phash_near_dups,
    )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"]).limit(128)

    def to_payload(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # plant exact duplicates: every 8th doc shares one payload, the
        # rest keep their own text slice
        txt = pc.utf8_slice_codeunits(t["text"], 0, 64).cast(pa.binary())
        shared = pc.equal(pc.bit_wise_and(
            t["doc_id"].combine_chunks().cast(pa.int64()), 7), 0)
        payload = pc.if_else(shared, pa.scalar(b"shared-image-payload"), txt)
        return pa.table({"doc_id": t["doc_id"], "payload": payload})

    return media_phash_near_dups(
        ds.map_batches(to_payload, batch_format="pyarrow"),
        max_hamming=2, n_rows_hint=128).sort(["doc_a", "doc_b"])


def _docs_fuzzy_dedup_quality(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        fuzzy_dedup_best_quality,
    )

    return fuzzy_dedup_best_quality(sf_dir, threshold=0.6)


def _events_type_users_hll(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_type_users_hll,
    )

    return events_type_users_hll(sf_dir)


def _parts_communities(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        parts_communities,
    )

    return parts_communities(sf_dir, iters=3)


def _docs_heavy_words_sketch(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        docs_heavy_words_sketch,
    )

    return docs_heavy_words_sketch(sf_dir, k=64)


def _docs_new_shard_near_dedup(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        new_shard_minhash_dedup,
    )

    return new_shard_minhash_dedup(sf_dir, threshold=0.6)


def _docs_unigram_vocab(sf_dir: str):
    """Unigram-LM tokenizer vocabulary (Kudo 2018) trained on the
    distributed word histogram (no_oracle: Viterbi-EM is not
    SQL-expressible; determinism/segmentation pinned in
    test_tokenizer.py)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.tokenizer import (
        train_unigram,
    )

    return train_unigram(sf_dir, vocab_size=1_000, max_words=30_000)


def _docs_unigram_token_stats(sf_dir: str):
    """Per-doc token counts under the learned unigram pieces (actor-pool
    Viterbi with per-word memo; no_oracle, differential-tested vs the
    driver-side Viterbi)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.tokenizer import (
        unigram_token_counts,
    )

    return unigram_token_counts(sf_dir, vocab_size=1_000, max_words=30_000)


def _docs_bpe_merges(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.tokenizer import train_bpe

    return train_bpe(sf_dir, num_merges=200, max_words=30_000)


def _docs_bpe_encoded(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.tokenizer import (
        bpe_token_counts,
    )

    return bpe_token_counts(sf_dir, num_merges=200, max_words=30_000)


def _docs_epoch_shuffle(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import epoch_shuffle

    return epoch_shuffle(sf_dir, seed=0)


def _docs_train_val_split(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import train_val_split

    return train_val_split(sf_dir)


def _docs_pack_sequences(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import pack_sequences

    return pack_sequences(sf_dir)


def _docs_ngram_jaccard(sf_dir: str):
    """MinHash candidates verified with exact n-gram Jaccard."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        minhash_lsh_pairs,
        ngram_jaccard_verify,
    )

    pairs = minhash_lsh_pairs(sf_dir, threshold=0.5)
    return ngram_jaccard_verify(sf_dir, pairs)


def _docs_cc_clusters(sf_dir: str):
    """Distributed connected components (min-label + pointer doubling) on a
    deterministic documents-derived edge set; recursive-CTE DuckDB oracle."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        cc_demo_clusters,
    )

    return cc_demo_clusters(sf_dir)


def _docs_fuzzy_dedup(sf_dir: str):
    """Full fuzzy-dedup: MinHash+LSH pairs → connected components → one
    survivor per near-dup cluster. Rows-only (the MinHash pair set is not
    SQL-expressible)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import fuzzy_dedup

    return fuzzy_dedup(sf_dir).sort("doc_id")


def _events_distinct_users(sf_dir: str):
    """Exact distributed distinct count (per-block unique + one groupby)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_distinct_users,
    )

    return events_distinct_users(sf_dir)


def _events_users_hll(sf_dir: str):
    """HyperLogLog distinct-user estimate — constant-size mergeable
    registers, no key shuffle. Rows-only (approximate by design)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_users_hll,
    )

    return events_users_hll(sf_dir)


def _events_type_count_cm_check(sf_dir: str):
    """Count-Min point estimates vs the exact per-type counts — the
    driver-verified (oracle-backed) row for the CM sketch plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_type_count_cm_check,
    )

    return events_type_count_cm_check(sf_dir)


def _docs_gopher_filter(sf_dir: str):
    """Gopher-rule quality filter: named rule booleans + combined keep,
    zero shuffle (embarrassingly parallel vectorized regex counts)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        gopher_quality_filter,
    )

    return gopher_quality_filter(sf_dir)


def _events_user_bloom_check(sf_dir: str):
    """Distributed Bloom filter (mergeable OR'd block bitmaps) built over
    even user_ids, probed on every distinct id: zero false negatives +
    measured-FPR-within-bound boolean — the driver-verified row for the
    Bloom membership-sketch plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_user_bloom_check,
    )

    return events_user_bloom_check(sf_dir)


def _events_users_hll_check(sf_dir: str):
    """Exact distinct count + HLL-within-3-sigma boolean in one pass —
    the driver-verified (oracle-backed) row for the HLL plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_users_hll_check,
    )

    return events_users_hll_check(sf_dir)


def _events_value_tdigest_check(sf_dir: str):
    """t-digest rank-error bound measured against the exact rank (one
    counting pass) + exact row count — the driver-verified (oracle-backed)
    row for the t-digest plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_value_tdigest_check,
    )

    return events_value_tdigest_check(sf_dir)


def _knn_recall_check(sf_dir: str):
    """Mean recall@10 of each approximate-ANN method (IVF, LSH, PQ) vs the
    engine's exact brute-force path, emitted as floor booleans — the
    driver-verified (oracle-backed) row for the ANN family."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.similarity import (
        knn_recall_check,
    )

    return knn_recall_check(sf_dir)


def _emb_pca_project(sf_dir: str):
    """Distributed PCA (constant-size d×d moment partials per block →
    driver eigendecomposition → broadcast matmul projection): top-2
    coordinates per vector, sign-convention + rounding pinned (rows-only;
    the moment plumbing is oracle-checked by emb_covariance_check)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.similarity import (
        emb_pca_project,
    )

    return emb_pca_project(sf_dir)


def _emb_covariance_check(sf_dir: str):
    """Upper-triangle covariance block from the SAME distributed moment
    partials the PCA fit consumes — the driver-verified (oracle-backed)
    row for the PCA plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.similarity import (
        emb_covariance_check,
    )

    return emb_covariance_check(sf_dir)


def _docs_heavy_words_mg_check(sf_dir: str):
    """Misra-Gries guarantees as exact integers (mandatory heavy words all
    present, every sketch count contains the true count) + the exact corpus
    token count — the driver-verified (oracle-backed) row for the MG
    plumbing."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        docs_heavy_words_mg_check,
    )

    return docs_heavy_words_mg_check(sf_dir)


def _docs_decontaminated(sf_dir: str):
    """Benchmark decontamination: exact passage containment vs a
    deterministic corpus-derived benchmark set (broadcast scan)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.decontam import (
        contains_benchmark,
    )

    return contains_benchmark(sf_dir).sort("doc_id")


def _docs_ngram_overlap_bloom(sf_dir: str):
    """Bloom-gated n-gram decontamination: benchmark grams broadcast as a
    Bloom filter, exact verify touches only gated candidates — identical
    output to docs_ngram_overlap (equivalence-tested incl. a saturated-
    filter FP regime), smaller broadcast at eval-suite-union scale."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.decontam import (
        ngram_overlap_bloom,
    )

    return ngram_overlap_bloom(sf_dir).sort("doc_id")


def _docs_ngram_overlap(sf_dir: str):
    """Token-8-gram overlap counts vs the benchmark set (hash-based scale
    path; rows-only — n-gram windows are not SQL-expressible)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.decontam import ngram_overlap

    return ngram_overlap(sf_dir).sort("doc_id")


def _emb_kmeans(sf_dir: str):
    """Distributed Lloyd k-means (broadcast centroids, per-batch partial
    sums) → per-cluster size/spread stats. Rows-only: iterative float
    refinement is not SQL-expressible."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        kmeans_cluster_stats,
    )

    # 8 Lloyd passes: inertia plateaus well before shift<tol on random
    # vectors, and each pass costs a fixed executor round-trip
    return kmeans_cluster_stats(sf_dir, max_iters=8)


def _value_quantiles_tdigest(sf_dir: str):
    """Single-pass t-digest quantile sketch over events.value — the
    constant-exchange companion to the exact multi-pass quantiles.
    Rows-only: the sketch is approximate by construction (rank error
    bounded by delta; accuracy pinned vs the exact path in tests)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_value_quantiles_tdigest,
    )

    return events_value_quantiles_tdigest(sf_dir)


def _type_quantiles_tdigest(sf_dir: str):
    """Grouped t-digest sketch per event type (single pass, exchange
    bounded by types × blocks × delta). Rows-only: approximate."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_type_quantiles_tdigest,
    )

    return events_type_quantiles_tdigest(sf_dir)


def _export_shards(sf_dir: str):
    """Training-shard export: cleaned docs → deterministic resumable
    jsonl.gz shards under /tmp; returns the manifest as rows (shard,
    n_rows, n_bytes). Rows-only: a sink, not a query."""
    import shutil

    import pandas as pd
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.export import write_training_shards

    out = "/tmp/graft_export_shards"
    shutil.rmtree(out, ignore_errors=True)
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    man = write_training_shards(ds, out, num_shards=16, resume=False)
    rows = [{"shard": int(k), "n_rows": v["n_rows"], "n_bytes": v["n_bytes"]}
            for k, v in man["shards"].items()]
    return (pd.DataFrame(rows).sort_values("shard")
            .reset_index(drop=True))


def _quality_classifier(sf_dir: str):
    """Distributed logistic-regression quality filter (standardized hashed
    count features; gradient exchange bounded by feature space). Rows-only:
    iterative model fitting is not SQL-expressible."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.selection import (
        quality_classifier_scores,
    )

    return quality_classifier_scores(sf_dir).sort("doc_id")


def _dsir_weights(sf_dir: str):
    """DSIR importance weights (hashed-bigram likelihood ratio vs the
    src0 target sample). Rows-only: the hash-bucketed n-gram models are
    not SQL-expressible."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.selection import dsir_weights

    return dsir_weights(sf_dir).sort("doc_id")


def _dsir_topk(sf_dir: str):
    """DSIR selection step: top-100 docs by importance weight."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.selection import dsir_topk

    return dsir_topk(sf_dir, k=100)


def _emb_semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup: IVF-bucketed cosine pairs →
    connected components → one survivor per semantic cluster."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        semantic_dedup,
    )

    return semantic_dedup(sf_dir).sort("vec_id")


def _docs_with_labels(sf_dir: str):
    """Distributed hash join on row ids: documents ⋈ embeddings."""
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    emb = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"])
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import default_join_partitions

    joined = docs.join(emb, join_type="inner",
                       num_partitions=default_join_partitions(),
                       on=("doc_id",), right_on=("vec_id",))
    return joined.select_columns(["doc_id", "lang", "label"])


def _events_props_k(sf_dir: str):
    """JSON-ish props column: vectorized regex field extraction + aggregate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        k = pc.extract_regex(t["props"], r'"k":\s*(?P<k>-?\d+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
        return pa.table({"user_id": t["user_id"], "k": kv})

    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("k", alias_name="k_sum"))
    )


def _docs_lang_id(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import lang_id

    return lang_id(sf_dir)


def _docs_fingerprint(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import fingerprints

    return fingerprints(sf_dir).select_columns(["doc_id", "md5"])


def _docs_rolling_fingerprint(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import fingerprints

    return fingerprints(sf_dir).select_columns(["doc_id", "rolling64"])


def _multimodal_features(sf_dir: str):
    """Binary-payload feature extraction: documents.text bytes stand in for
    an opaque media column; decode is the deterministic FakeDecoder."""
    import pyarrow as pa
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.stages.multimodal import media_features

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def to_payload(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "payload": t["text"].cast(pa.binary())}
        )

    return media_features(ds.map_batches(to_payload, batch_format="pyarrow"))





def _user_event_gaps(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.windows import user_event_gaps

    return user_event_gaps(sf_dir)


def _events_top_per_user(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.windows import (
        events_top_per_user,
    )

    return events_top_per_user(sf_dir)


def _events_user_running_totals(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.windows import (
        user_running_totals,
    )

    return user_running_totals(sf_dir)


def _events_funnel(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.windows import (
        funnel_counts,
    )

    return funnel_counts(sf_dir)



def _events_type_distinct_users(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        events_type_distinct_users,
    )

    return events_type_distinct_users(sf_dir)


def _parts_pagerank(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import parts_pagerank

    return parts_pagerank(sf_dir)


def _parts_triangles(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import parts_triangles

    return parts_triangles(sf_dir)


def _parts_degree_histogram(sf_dir: str):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        parts_degree_histogram,
    )

    return parts_degree_histogram(sf_dir)


def _pagerank_sql(iters: int = 4, damping: float = 0.85) -> str:
    """Unrolled power-iteration PageRank as pure SQL (one CTE per
    iteration) over the part co-purchase sequence graph — the DuckDB
    oracle for the distributed ``pagerank`` operator. Same simplified
    variant as the engine: multi-edges count per occurrence, dangling
    mass is not redistributed."""
    base = f"{1.0 - damping!r}/(SELECT cnt FROM nn)"
    ctes = ["""e AS (
      SELECT a.l_partkey AS src, b.l_partkey AS dst
      FROM lineitem a JOIN lineitem b
        ON a.l_orderkey = b.l_orderkey
       AND b.l_linenumber = a.l_linenumber + 1)""",
            "nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e)",
            "outdeg AS (SELECT src, COUNT(*) AS d FROM e GROUP BY src)",
            "nn AS (SELECT COUNT(*) AS cnt FROM nodes)",
            "r0 AS (SELECT node, 1.0/(SELECT cnt FROM nn) AS r FROM nodes)"]
    for k in range(1, iters + 1):
        ctes.append(f"""r{k} AS (
      SELECT n.node, {base} + {damping!r}*COALESCE(SUM(p.r / o.d), 0) AS r
      FROM nodes n
      LEFT JOIN e ON e.dst = n.node
      LEFT JOIN r{k-1} p ON p.node = e.src
      LEFT JOIN outdeg o ON o.src = e.src
      GROUP BY n.node)""")
    return ("WITH " + ",\n".join(ctes)
            + f"\nSELECT node AS part, ROUND(r, 6) AS pagerank FROM r{iters}")


def queries() -> dict[str, Callable[[str], Any]]:
    from cmc_knowledge_graph_text2ttl_ray.pipelines import relational as R
    from cmc_knowledge_graph_text2ttl_ray.pipelines import text_analysis as T
    from cmc_knowledge_graph_text2ttl_ray.pipelines import dedup as D
    from cmc_knowledge_graph_text2ttl_ray.pipelines import similarity as S

    return {
        # relational capabilities (groupby / join / sort / top-k)
        "q1_pricing_summary": R.q1_pricing_summary,
        "q6_revenue_forecast": R.q6_revenue_forecast,
        "q3_top_orders": R.q3_top_orders,
        "q5_nation_revenue": R.q5_nation_revenue,
        "orders_per_segment": R.orders_per_segment,
        "top_parts": R.top_parts,
        "events_daily": R.events_daily,
        "events_user_stats": R.events_user_stats,
        "events_user_sessions": _user_sessions,
        "events_user_gaps": _user_event_gaps,
        "events_top_per_user": _events_top_per_user,
        "events_user_running_totals": _events_user_running_totals,
        "events_funnel": _events_funnel,
        "q4_order_priority": R.q4_order_priority,
        "nation_account_balance": R.nation_account_balance,
        "events_value_histogram": R.events_value_histogram,
        "part_type_stats": R.part_type_stats,
        "events_daily_moving_avg": R.events_daily_moving_avg,
        "docs_bpe_token_stats": R.docs_bpe_token_stats,
        "top_parts_per_brand": R.top_parts_per_brand,
        "q12_priority_by_returnflag": R.q12_priority_by_returnflag,
        "events_value_quantiles": R.events_value_quantiles,
        "events_asof_orders": R.events_asof_orders,
        "parts_price_tiers": R.parts_price_tiers,
        "events_hopping_windows": R.events_hopping_window_counts,
        "events_distinct_users": _events_distinct_users,
        "events_users_hll": _events_users_hll,
        "events_users_hll_check": _events_users_hll_check,
        "events_user_bloom_check": _events_user_bloom_check,
        "docs_heavy_words_mg_check": _docs_heavy_words_mg_check,
        "events_value_tdigest_check": _events_value_tdigest_check,
        "knn_recall_check": _knn_recall_check,
        "emb_pca_project": _emb_pca_project,
        "emb_covariance_check": _emb_covariance_check,
        "events_type_count_cm_check": _events_type_count_cm_check,
        "events_type_distinct_users": _events_type_distinct_users,
        "docs_heavy_words": _docs_heavy_words,
        "docs_repetition": _docs_repetition,
        "docs_lm_score": _docs_lm_score,
        "q14_promo_revenue": R.q14_promo_revenue,
        "q10_returned_customers": R.q10_returned_customers,
        "q7_nation_volume": R.q7_nation_volume,
        "q13_customer_distribution": R.q13_customer_distribution,
        "q18_large_orders": R.q18_large_orders,
        "q19_disjunctive_revenue": R.q19_disjunctive_revenue,
        "q15_top_supplier": R.q15_top_supplier,
        "q8_market_share": R.q8_market_share,
        "q17_small_quantity_revenue": R.q17_small_quantity_revenue,
        "q22_idle_balances": R.q22_idle_balances,
        "events_salted_type_stats": R.salted_type_stats,
        "orders_rollup": R.orders_rollup,
        "sole_supplier_orders": R.sole_supplier_orders,
        "parts_supplier_counts": R.parts_supplier_counts,
        "q2_min_cost_supplier": R.q2_min_cost_supplier,
        "q9_profit_by_nation_year": R.q9_profit_by_nation_year,
        "q11_important_parts": R.q11_important_parts,
        "q16_supplier_part_counts": R.q16_supplier_part_counts,
        "q20_dominant_suppliers": R.q20_dominant_suppliers,
        "q21_waiting_suppliers": R.q21_waiting_suppliers,
        "events_type_quantiles": R.events_type_quantiles,
        "bloom_semi_join_revenue": R.bloom_semi_join_revenue,
        "corpus_clean_winners": _corpus_clean_winners,
        "corpus_prep_stats": _corpus_prep_stats,
        "docs_train_val_split": _docs_train_val_split,
        "docs_pack_sequences": _docs_pack_sequences,
        "docs_epoch_shuffle": _docs_epoch_shuffle,
        "docs_bpe_merges": _docs_bpe_merges,
        "docs_unigram_vocab": _docs_unigram_vocab,
        "docs_unigram_token_stats": _docs_unigram_token_stats,
        "docs_bpe_encoded": _docs_bpe_encoded,
        "docs_new_shard_near_dedup": _docs_new_shard_near_dedup,
        "docs_heavy_words_sketch": _docs_heavy_words_sketch,
        "parts_communities": _parts_communities,
        "events_type_users_hll": _events_type_users_hll,
        "docs_fuzzy_dedup_quality": _docs_fuzzy_dedup_quality,
        "multimodal_phash_dups": _multimodal_phash_dups,
        "docs_chunks": _docs_chunks,
        "docs_temperature_sample": _docs_temperature_sample,
        "skew_safe_join_qty": _skew_safe_join,
        "events_retention_cohorts": _events_retention,
        "events_rolling_active_users": _events_rolling_active,
        "segment_year_pivot": _segment_year_pivot,
        "kg_validation": _kg_validation,
        "kg_incremental_delta": _kg_incremental_delta,
        "kg_bgp_same_day": _kg_bgp_same_day,
        "kg_bgp_orders_by_nation": _kg_bgp_orders_by_nation,
        "kg_bgp_click_no_purchase": _kg_bgp_click_no_purchase,
        "kg_construct_order_nation": _kg_construct_order_nation,
        "kg_quads_replace_segments": _kg_quads_replace_segments,
        "kg_store_graph_segments": _kg_store_graph_segments,
        "kg_property_graph_counts": _kg_property_graph_counts,
        "kg_fingerprint_orders": _kg_fingerprint_orders,
        "kg_fingerprint_graphs": _kg_fingerprint_graphs,
        "kg_isocanonical_fingerprint": _kg_isocanonical_fingerprint,
        "kg_triple_pr": _kg_triple_pr,
        "kg_triple_diff": _kg_triple_diff,
        "kg_property_graph_roundtrip": _kg_property_graph_roundtrip,
        "kg_transe_link_rank": _kg_transe_link_rank,
        "kg_transe_sharded_check": _kg_transe_sharded_check,
        "kg_link_rank_indexed": _kg_link_rank_indexed,
        "kg_void_properties": _kg_void_properties,
        "kg_void_classes": _kg_void_classes,
        "kg_void_graphs": _kg_void_graphs,
        "kg_void_summary": _kg_void_summary,
        "kg_graph_quad_counts": _kg_graph_quad_counts,
        "kg_graph_building_orders": _kg_graph_building_orders,
        "kg_graph_const_segments": _kg_graph_const_segments,
        "kg_sparql_purchases_per_user": _kg_sparql_purchases_per_user,
        "kg_sparql_path_order_nations": _kg_sparql_path_order_nations,
        "kg_khop_nation": _kg_khop_nation,
        "kg_store_bgp_orders": _kg_store_bgp_orders,
        "kg_sameas_merge_orders": _kg_sameas_merge_orders,
        "kg_shacl_violations": _kg_shacl_violations,
        "kg_profile_events": _kg_profile_events,
        "kg_entity_pagerank": _kg_entity_pagerank,
        "kg_sparql_click_or_error_days": _kg_sparql_click_or_error_days,
        "kg_sparql_sample_concat": _kg_sparql_sample_concat,
        "kg_sparql_topk_offset": _kg_sparql_topk_offset,
        "kg_sparql_star_reach": _kg_sparql_star_reach,
        "kg_sparql_chained_optional": _kg_sparql_chained_optional,
        "kg_sparql_top_mentioned": _kg_sparql_top_mentioned,
        "kg_forward_chain_locations": _kg_forward_chain_locations,
        "kg_rdfs_closure": _kg_rdfs_closure,
        "kg_owl_closure": _kg_owl_closure,
        "kg_sameas_pairs": _kg_sameas_pairs,
        "kg_sameas_canonical": _kg_sameas_canonical,
        "kg_eq_closure": _kg_eq_closure,
        "kg_incremental_closure": _kg_incremental_closure,
        "kg_dred_retract": _kg_dred_retract,
        "kg_bgp_mentions_chain": _kg_bgp_mentions_chain,
        "kg_update_retract_errors": _kg_update_retract_errors,
        "kg_update_order_nation_insert": _kg_update_order_nation_insert,
        "kg_update_relabel_clicks": _kg_update_relabel_clicks,
        "part_size_unpivot": _part_size_unpivot,
        "events_daily_anomalies": _events_daily_anomalies,
        "lineitem_qty_price_corr": _lineitem_corr,
        "lineitem_price_regression": _lineitem_regression,
        "orders_monthly_growth": _orders_monthly_growth,
        "docs_heavy_words_by_lang": _docs_heavy_words_by_lang,
        "distinct_brands": _distinct_brands,
        "customers_without_orders": _customers_without_orders,
        "region_nation_names": _region_nation_names,
        "docs_with_labels": _docs_with_labels,
        "events_props_k": _events_props_k,
        # text analysis over documents
        "docs_token_stats": T.token_stats,
        "docs_quality": T.quality_scores,
        "docs_pii_redacted": T.pii_redact,
        "docs_normalized": T.normalize_texts,
        "docs_df_table": T.document_frequency,
        "docs_stratified_sample": T.stratified_sample,
        "docs_tfidf_top_terms": T.tfidf_top_terms,
        "docs_top_bigrams": T.top_ngrams,
        "docs_quality_deciles": T.quality_deciles,
        "docs_source_stats": T.source_stats,
        "docs_url_dedup": T.url_dedup,
        "docs_source_quota_sample": T.source_quota_sample,
        "docs_weighted_sample": T.weighted_sample,
        "docs_inverted_index": T.inverted_index,
        "docs_bm25_topk": T.bm25_topk,
        "docs_fingerprint": _docs_fingerprint,
        "docs_rolling_fingerprint": _docs_rolling_fingerprint,
        "docs_lang_id": _docs_lang_id,
        # dedup family
        "docs_exact_dedup": D.exact_dedup,
        "docs_new_shard_dedup": D.new_shard_exact_dedup,
        "docs_span_dedup": D.span_exact_dedup,
        "docs_substring_dedup": D.cdc_substring_dedup,
        "docs_dup_span_stats": D.dup_span_stats,
        "docs_boilerplate_removal": D.boilerplate_span_removal,
        "docs_gopher_filter": _docs_gopher_filter,
        "docs_minhash_pairs": D.minhash_lsh_pairs,
        "docs_simhash": D.simhash_signatures,
        "docs_simhash_pairs": D.simhash_near_dup_pairs,
        "docs_ngram_jaccard": _docs_ngram_jaccard,
        "docs_cc_clusters": _docs_cc_clusters,
        "parts_pagerank": _parts_pagerank,
        "parts_bfs_reach": _parts_bfs_reach,
        "parts_closeness": _parts_closeness,
        "parts_triangles": _parts_triangles,
        "parts_degree_histogram": _parts_degree_histogram,
        "docs_fuzzy_dedup": _docs_fuzzy_dedup,
        "docs_decontaminated": _docs_decontaminated,
        "docs_ngram_overlap": _docs_ngram_overlap,
        "docs_ngram_overlap_bloom": _docs_ngram_overlap_bloom,
        # similarity search over embeddings
        "knn_cosine": S.knn_bruteforce,
        "knn_ivf": S.knn_ivf,
        "knn_lsh": S.knn_lsh,
        "knn_pq": S.knn_pq,
        "emb_lsh_buckets": S.hyperplane_lsh_buckets,
        "emb_label_centroids": S.label_centroids,
        "emb_centroid_confusion": S.centroid_confusion,
        "embedding_near_dups": S.embedding_near_dup_pairs,
        "emb_kmeans": _emb_kmeans,
        "emb_semantic_dedup": _emb_semantic_dedup,
        # multimodal plumbing
        "multimodal_features": _multimodal_features,
        "multimodal_frames": _multimodal_frames,
        "multimodal_audio": _multimodal_audio,
        "events_value_quantiles_sketch": _value_quantiles_tdigest,
        "events_type_quantiles_sketch": _type_quantiles_tdigest,
        "docs_export_shards": _export_shards,
        # training-data selection (iterative model fitting — non-SQL)
        "docs_quality_classifier": _quality_classifier,
        "docs_dsir_weights": _dsir_weights,
        "docs_dsir_topk": _dsir_topk,
        # knowledge-graph construction (non-SQL; rows-only checks)
        "kg_triples": _kg_triples,
        "kg_stats": _kg_stats,
        "kg_entity_mapping": _kg_entity_mapping,
        "kg_entity_links": _kg_entity_links,
    }


def oracle_sql() -> dict[str, str]:
    return {
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2)                         AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2)                    AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   ROUND(SUM(l_quantity) / COUNT(*), 2)              AS avg_qty,
                   ROUND(SUM(l_discount) / COUNT(*), 2)              AS avg_disc,
                   COUNT(*)                                          AS count_order
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "q6_revenue_forecast": """
            SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue,
                   COUNT(*) AS n
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1994-01-01'
              AND l_shipdate < TIMESTAMP '1997-01-01'
              AND l_discount >= 0.05 AND l_quantity < 24
        """,
        "q3_top_orders": """
            SELECT l_orderkey AS o_orderkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN orders   ON l_orderkey = orders.o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY l_orderkey
            ORDER BY revenue DESC, o_orderkey
            LIMIT 10
        """,
        "q5_nation_revenue": """
            SELECT n_name,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation   ON s_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "orders_per_segment": """
            SELECT c_mktsegment,
                   COUNT(*) AS n_orders,
                   ROUND(SUM(o_totalprice), 2) AS total_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "top_parts": """
            SELECT p_partkey, p_name, p_retailprice
            FROM part
            ORDER BY p_retailprice DESC, p_partkey
            LIMIT 10
        """,
        "events_daily": """
            SELECT date_trunc('day', ts) AS day, event_type,
                   COUNT(*) AS n, ROUND(SUM(value), 2) AS total_value
            FROM events
            GROUP BY 1, 2
        """,
        # exact integer-cents arithmetic on BOTH sides: a float SUM's
        # last-ulp drift is combine-order-dependent and can flip a
        # ROUND(.,2) half boundary between runs (observed once in a
        # round-4 sweep); value is 2-decimal data so cents are exact
        "events_user_stats": """
            SELECT user_id, COUNT(*) AS n_events,
                   ROUND(SUM(CAST(ROUND(value * 100, 0) AS BIGINT))
                         / (COUNT(*) * 100.0), 2) AS avg_value
            FROM events
            GROUP BY user_id
        """,
        "events_user_sessions": """
            WITH gaps AS (
                SELECT user_id, event_id,
                       CASE WHEN LAG(ts) OVER w IS NULL
                              OR ts - LAG(ts) OVER w > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            )
            SELECT user_id,
                   CAST(SUM(new_s) AS BIGINT) AS n_sessions,
                   COUNT(*) AS n_events
            FROM gaps GROUP BY user_id
        """,
        "distinct_brands": """
            SELECT DISTINCT p_brand FROM part
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE NOT EXISTS (
                SELECT 1 FROM orders
                WHERE o_custkey = c_custkey AND o_totalprice > 450000
            )
        """,
        "region_nation_names": """
            SELECT r_name AS name FROM region
            UNION
            SELECT n_name AS name FROM nation
        """,
        "docs_with_labels": """
            SELECT doc_id, lang, label
            FROM documents JOIN embeddings ON doc_id = vec_id
        """,
        "q4_order_priority": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE o_orderkey IN (
                SELECT DISTINCT l_orderkey FROM lineitem WHERE l_returnflag = 'R'
            )
            GROUP BY o_orderpriority ORDER BY o_orderpriority
        """,
        "nation_account_balance": """
            SELECT n_name, ROUND(SUM(bal), 2) AS total_bal
            FROM (
                SELECT c_nationkey AS nationkey, c_acctbal AS bal FROM customer
                UNION ALL
                SELECT s_nationkey, s_acctbal FROM supplier
            ) b JOIN nation ON b.nationkey = n_nationkey
            GROUP BY n_name ORDER BY n_name
        """,
        "events_value_histogram": """
            SELECT CAST(FLOOR(value / 10.0) AS BIGINT) AS bin,
                   CAST(COUNT(*) AS BIGINT) AS n
            FROM events GROUP BY bin ORDER BY bin
        """,
        "part_type_stats": """
            SELECT p_type, CAST(COUNT(*) AS BIGINT) AS n_parts,
                   ROUND(AVG(p_retailprice), 2) AS avg_price
            FROM part GROUP BY p_type ORDER BY p_type
        """,
        "events_daily_moving_avg": """
            SELECT day, n,
                   ROUND(AVG(n) OVER (ORDER BY day
                         ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 2) AS avg_n
            FROM (
                SELECT date_trunc('day', ts) AS day,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM events GROUP BY day
            ) d ORDER BY day
        """,
        "docs_bpe_token_stats": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(
                       text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS BIGINT)
                       AS n_bpe_tokens
            FROM documents
        """,
        "corpus_clean_winners": r"""
            WITH q AS (
                SELECT doc_id, text, md5(text) AS text_hash,
                       length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) * 1.0
                           / GREATEST(length(text), 1) AS alpha_ratio,
                       len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens
                FROM documents
            )
            SELECT text_hash, MIN(doc_id) AS doc_id
            FROM q
            WHERE alpha_ratio >= 0.6 AND n_tokens BETWEEN 10 AND 1000000
            GROUP BY text_hash
        """,
        "corpus_prep_stats": r"""
            WITH q AS (
                SELECT doc_id, md5(text) AS text_hash,
                       length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) * 1.0
                           / GREATEST(length(text), 1) AS alpha_ratio,
                       len(regexp_split_to_array(trim(text), '\s+')) AS n_tokens
                FROM documents
            ), k AS (
                SELECT * FROM q
                WHERE alpha_ratio >= 0.6 AND n_tokens BETWEEN 10 AND 1000000
            )
            SELECT (SELECT CAST(COUNT(*) AS BIGINT) FROM q) AS n_total,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM k) AS n_quality,
                   (SELECT CAST(COUNT(DISTINCT text_hash) AS BIGINT) FROM k)
                       AS n_distinct
        """,
        "top_parts_per_brand": """
            SELECT p_brand, p_partkey, p_name, p_retailprice
            FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY p_brand
                    ORDER BY p_retailprice DESC, p_partkey ASC) AS rn
                FROM part
            ) t WHERE rn <= 2
            ORDER BY p_brand, p_partkey
        """,
        "docs_train_val_split": """
            SELECT doc_id,
                   CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)
                             < 'e6666666'
                        THEN 'train' ELSE 'val' END AS split
            FROM documents
        """,
        "sole_supplier_orders": """
            WITH pairs AS (
                SELECT DISTINCT l.l_orderkey, l.l_suppkey
                FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
                WHERE o.o_orderstatus = 'F'
            ), sole AS (
                SELECT l_orderkey, MIN(l_suppkey) AS l_suppkey
                FROM pairs GROUP BY l_orderkey
                HAVING COUNT(DISTINCT l_suppkey) = 1
            )
            SELECT s.s_suppkey, s.s_name,
                   CAST(COUNT(*) AS BIGINT) AS n_sole_orders
            FROM sole JOIN supplier s ON s.s_suppkey = sole.l_suppkey
            GROUP BY s.s_suppkey, s.s_name
            ORDER BY n_sole_orders DESC, s.s_suppkey LIMIT 10
        """,
        "parts_supplier_counts": """
            WITH rel AS (
                SELECT DISTINCT p.p_brand, p.p_type, l.l_suppkey
                FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
            )
            SELECT p_brand, p_type,
                   CAST(COUNT(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
            FROM rel GROUP BY p_brand, p_type
            ORDER BY supplier_cnt DESC, p_brand, p_type LIMIT 20
        """,
        "parts_degree_histogram": """
            WITH raw AS (
                SELECT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND b.l_linenumber = a.l_linenumber + 1),
            deg AS (
                SELECT src, CAST(COUNT(DISTINCT dst) AS BIGINT) AS out_deg
                FROM raw GROUP BY src)
            SELECT out_deg, CAST(COUNT(*) AS BIGINT) AS n_nodes
            FROM deg GROUP BY out_deg ORDER BY out_deg
        """,
        "events_funnel": """
            WITH v AS (
                SELECT user_id, MIN(ts) AS t FROM events
                WHERE event_type = 'view' GROUP BY user_id
            ), c AS (
                SELECT e.user_id, MIN(e.ts) AS t FROM events e
                JOIN v ON v.user_id = e.user_id AND e.ts > v.t
                WHERE e.event_type = 'click' GROUP BY e.user_id
            ), p AS (
                SELECT e.user_id, MIN(e.ts) AS t FROM events e
                JOIN c ON c.user_id = e.user_id AND e.ts > c.t
                WHERE e.event_type = 'purchase' GROUP BY e.user_id
            )
            SELECT * FROM (
                SELECT 'view' AS stage,
                       CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_users
                UNION ALL
                SELECT 'click', CAST((SELECT COUNT(*) FROM c) AS BIGINT)
                UNION ALL
                SELECT 'purchase', CAST((SELECT COUNT(*) FROM p) AS BIGINT)
            ) ORDER BY n_users DESC, stage
        """,
        "events_user_running_totals": """
            SELECT event_id, user_id,
                   SUM(value) OVER (PARTITION BY user_id
                                    ORDER BY ts, event_id
                                    ROWS UNBOUNDED PRECEDING) AS running_sum,
                   CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id) AS BIGINT)
                       AS running_n
            FROM events ORDER BY user_id, running_n
        """,
        "docs_source_quota_sample": """
            SELECT source, doc_id FROM (
                SELECT source, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY source
                           ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id
                       ) AS rn
                FROM documents)
            WHERE rn <= 20 ORDER BY source, doc_id
        """,
        "docs_new_shard_dedup": """
            WITH corpus AS (
                SELECT md5(text) AS h, MIN(doc_id) AS first_doc
                FROM documents WHERE doc_id % 10 <> 0 GROUP BY h
            ), news AS (
                SELECT doc_id, md5(text) AS h
                FROM documents WHERE doc_id % 10 = 0
            )
            SELECT n.doc_id,
                   CAST(CASE WHEN c.first_doc IS NULL THEN 0 ELSE 1 END
                        AS BIGINT) AS is_dup,
                   COALESCE(c.first_doc, -1) AS dup_of
            FROM news n LEFT JOIN corpus c ON c.h = n.h
            ORDER BY n.doc_id
        """,
        "docs_source_stats": """
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   ROUND(SUM(n_chars) / COUNT(*), 2) AS avg_chars,
                   CAST(COUNT(DISTINCT lang) AS BIGINT) AS n_langs
            FROM documents GROUP BY source ORDER BY source
        """,
        "docs_url_dedup": """
            WITH urls AS (
                SELECT doc_id,
                       'http://site' || CAST(doc_id % 50 AS VARCHAR)
                       || '.example.com/path/'
                       || CAST(doc_id % 1000 AS VARCHAR)
                       || CASE WHEN doc_id % 3 IN (0, 1)
                               THEN '?a=1&b=2' ELSE '' END AS canonical_url
                FROM documents)
            SELECT canonical_url, CAST(COUNT(*) AS BIGINT) AS n_dups,
                   MIN(doc_id) AS first_doc_id
            FROM urls GROUP BY canonical_url ORDER BY canonical_url
        """,
        "q2_min_cost_supplier": """
            WITH costs AS (
                SELECT l_partkey, l_suppkey,
                       MIN(l_extendedprice / l_quantity) AS uc
                FROM lineitem GROUP BY l_partkey, l_suppkey
            ), best AS (
                SELECT l_partkey, l_suppkey, uc,
                       ROW_NUMBER() OVER (PARTITION BY l_partkey
                                          ORDER BY uc, l_suppkey) AS rn
                FROM costs
            )
            SELECT b.l_partkey AS p_partkey, p.p_brand, s.s_name,
                   ROUND(b.uc, 2) AS min_cost
            FROM best b
            JOIN part p ON p.p_partkey = b.l_partkey
            JOIN supplier s ON s.s_suppkey = b.l_suppkey
            WHERE b.rn = 1 ORDER BY p_partkey
        """,
        # exact 10^-4-unit integer sums on both sides (price and
        # discount are 2-decimal): the float SUM's combine-order drift
        # was measured within one ulp of a ROUND(.,2) half boundary
        "q9_profit_by_nation_year": """
            SELECT n.n_name AS nation,
                   CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
                   ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100, 0) AS BIGINT)
                             * CAST(ROUND((1 - l.l_discount) * 100, 0)
                                    AS BIGINT)) / 10000.0, 2)
                       AS profit
            FROM lineitem l
            JOIN orders o ON o.o_orderkey = l.l_orderkey
            JOIN supplier s ON s.s_suppkey = l.l_suppkey
            JOIN nation n ON n.n_nationkey = s.s_nationkey
            GROUP BY nation, o_year ORDER BY nation, o_year
        """,
        "q11_important_parts": """
            WITH totals AS (
                SELECT l_partkey AS p_partkey, SUM(l_quantity) AS sum_qty,
                       SUM(l_extendedprice) AS raw_value
                FROM lineitem GROUP BY l_partkey
            )
            SELECT p_partkey, sum_qty, ROUND(raw_value, 2) AS value
            FROM totals
            WHERE sum_qty > 1.1 * (SELECT SUM(sum_qty) / COUNT(*)
                                   FROM totals)
            ORDER BY p_partkey
        """,
        # Q16 adapted: lineitem pairs = the supplier/part relation (no
        # partsupp), negative-balance suppliers = the complaints exclusion
        "q16_supplier_part_counts": """
            WITH ps AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem)
            SELECT p_brand, p_type, p_size,
                   CAST(COUNT(DISTINCT ps.l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM ps JOIN part ON p_partkey = ps.l_partkey
            WHERE p_brand <> 'Brand#5'
              AND p_size IN (1, 4, 7, 10, 13, 16, 19, 25)
              AND ps.l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                       WHERE s_acctbal < 0)
            GROUP BY p_brand, p_type, p_size
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
        """,
        # Q21 adapted: unique latest shipper of a finished multi-supplier
        # order; EXISTS/NOT EXISTS pair → nsupp >= 2 AND n_at_max = 1
        "q21_waiting_suppliers": """
            WITH l AS (
              SELECT l_orderkey, l_suppkey, MAX(l_shipdate) AS last_ship
              FROM lineitem GROUP BY l_orderkey, l_suppkey),
            m AS (
              SELECT l_orderkey, MAX(last_ship) AS order_last,
                     COUNT(*) AS nsupp
              FROM l GROUP BY l_orderkey),
            am AS (
              SELECT l.l_orderkey, COUNT(*) AS n_at_max
              FROM l JOIN m USING (l_orderkey)
              WHERE l.last_ship = m.order_last GROUP BY l.l_orderkey),
            waiting AS (
              SELECT l.l_suppkey
              FROM l
              JOIN m USING (l_orderkey)
              JOIN am ON am.l_orderkey = l.l_orderkey
              JOIN orders ON o_orderkey = l.l_orderkey
              WHERE o_orderstatus = 'F' AND m.nsupp >= 2
                AND am.n_at_max = 1 AND l.last_ship = m.order_last)
            SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
            FROM waiting JOIN supplier ON s_suppkey = l_suppkey
            GROUP BY s_name
            ORDER BY numwait DESC, s_name LIMIT 100
        """,
        "q20_dominant_suppliers": """
            WITH ps AS (
                SELECT l_partkey, l_suppkey, SUM(l_quantity) AS qty
                FROM lineitem GROUP BY l_partkey, l_suppkey
            ), tot AS (
                SELECT l_partkey, SUM(qty) AS total_qty,
                       COUNT(*) AS nsupp
                FROM ps GROUP BY l_partkey
            ), winners AS (
                SELECT ps.l_suppkey, ps.l_partkey
                FROM ps JOIN tot ON tot.l_partkey = ps.l_partkey
                WHERE ps.qty > 2.0 * tot.total_qty / tot.nsupp
            )
            SELECT s.s_suppkey, s.s_name,
                   CAST(COUNT(DISTINCT w.l_partkey) AS BIGINT)
                       AS dominated_parts
            FROM winners w JOIN supplier s ON s.s_suppkey = w.l_suppkey
            GROUP BY s.s_suppkey, s.s_name
            ORDER BY dominated_parts DESC, s.s_suppkey LIMIT 100
        """,
        "docs_weighted_sample": """
            SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars
            FROM (
                SELECT doc_id, text,
                       pow(CAST(('0x' || substr(
                               md5(CAST(doc_id AS VARCHAR)), 1, 8))
                               AS UBIGINT) / 4294967296.0,
                           1.0 / GREATEST(length(text), 1)) AS sel_key
                FROM documents)
            ORDER BY sel_key DESC, doc_id LIMIT 50
        """,
        "docs_quality_deciles": """
            WITH t AS (SELECT length(text) AS n_chars FROM documents),
            q AS (SELECT
                percentile_disc(0.1) WITHIN GROUP (ORDER BY n_chars) AS q1,
                percentile_disc(0.2) WITHIN GROUP (ORDER BY n_chars) AS q2,
                percentile_disc(0.3) WITHIN GROUP (ORDER BY n_chars) AS q3,
                percentile_disc(0.4) WITHIN GROUP (ORDER BY n_chars) AS q4,
                percentile_disc(0.5) WITHIN GROUP (ORDER BY n_chars) AS q5,
                percentile_disc(0.6) WITHIN GROUP (ORDER BY n_chars) AS q6,
                percentile_disc(0.7) WITHIN GROUP (ORDER BY n_chars) AS q7,
                percentile_disc(0.8) WITHIN GROUP (ORDER BY n_chars) AS q8,
                percentile_disc(0.9) WITHIN GROUP (ORDER BY n_chars) AS q9
                FROM t)
            SELECT CAST(1 + CAST(n_chars > q.q1 AS INT)
                          + CAST(n_chars > q.q2 AS INT)
                          + CAST(n_chars > q.q3 AS INT)
                          + CAST(n_chars > q.q4 AS INT)
                          + CAST(n_chars > q.q5 AS INT)
                          + CAST(n_chars > q.q6 AS INT)
                          + CAST(n_chars > q.q7 AS INT)
                          + CAST(n_chars > q.q8 AS INT)
                          + CAST(n_chars > q.q9 AS INT) AS BIGINT) AS decile,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   ROUND(AVG(n_chars), 2) AS avg_chars
            FROM t, q
            GROUP BY decile ORDER BY decile
        """,
        "events_salted_type_stats": """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   ROUND(SUM(value), 2) AS sum_value
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "orders_rollup": """
            SELECT COALESCE(o_year, -1) AS o_year,
                   COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
                   n_orders, total_price
            FROM (
                SELECT year(o_orderdate) AS o_year, o_orderpriority,
                       CAST(COUNT(*) AS BIGINT) AS n_orders,
                       ROUND(SUM(o_totalprice), 2) AS total_price
                FROM orders
                GROUP BY ROLLUP(year(o_orderdate), o_orderpriority)
            )
            ORDER BY o_year, o_orderpriority
        """,
        "segment_year_pivot": """
            SELECT c_mktsegment,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 1995 THEN 1 ELSE 0 END) AS BIGINT) AS y1995,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 1996 THEN 1 ELSE 0 END) AS BIGINT) AS y1996,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 1997 THEN 1 ELSE 0 END) AS BIGINT) AS y1997,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 1998 THEN 1 ELSE 0 END) AS BIGINT) AS y1998,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 1999 THEN 1 ELSE 0 END) AS BIGINT) AS y1999,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 2000 THEN 1 ELSE 0 END) AS BIGINT) AS y2000,
                   CAST(SUM(CASE WHEN year(o_orderdate) = 2001 THEN 1 ELSE 0 END) AS BIGINT) AS y2001
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
            ORDER BY c_mktsegment
        """,
        "orders_monthly_growth": """
            WITH m AS (
                SELECT date_trunc('month', o_orderdate) AS month,
                       CAST(COUNT(*) AS BIGINT) AS n_orders
                FROM orders GROUP BY 1
            )
            SELECT month, n_orders,
                   ROUND(COALESCE(
                       (n_orders - LAG(n_orders) OVER (ORDER BY month))
                       * 100.0 / LAG(n_orders) OVER (ORDER BY month),
                       0.0), 2) AS growth_pct
            FROM m ORDER BY month
        """,
        "lineitem_price_regression": """
            SELECT l_returnflag,
                   ROUND(REGR_SLOPE(l_extendedprice, l_quantity), 4)
                       AS slope,
                   ROUND(REGR_INTERCEPT(l_extendedprice, l_quantity), 2)
                       AS intercept
            FROM lineitem
            GROUP BY l_returnflag
            ORDER BY l_returnflag
        """,
        "lineitem_qty_price_corr": """
            SELECT l_returnflag,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(CORR(l_quantity, l_extendedprice), 4)
                       AS corr_qty_price
            FROM lineitem
            GROUP BY l_returnflag
            ORDER BY l_returnflag
        """,
        "events_daily_anomalies": """
            WITH c AS (
                SELECT event_type, date_trunc('day', ts) AS day,
                       CAST(COUNT(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, day, n,
                   ROUND(CASE WHEN STDDEV_SAMP(n) OVER w > 0 THEN
                       (n - AVG(n) OVER w) / STDDEV_SAMP(n) OVER w
                       ELSE 0 END, 4) AS z,
                   CAST(CASE WHEN STDDEV_SAMP(n) OVER w > 0 AND ABS(
                       (n - AVG(n) OVER w) / STDDEV_SAMP(n) OVER w) > 2.0
                       THEN 1 ELSE 0 END AS BIGINT) AS is_anomaly
            FROM c
            WINDOW w AS (PARTITION BY event_type)
            ORDER BY event_type, day
        """,
        "part_size_unpivot": """
            SELECT p_partkey, measure, value FROM (
                SELECT p_partkey, 'size' AS measure,
                       CAST(p_size AS DOUBLE) AS value FROM part
                UNION ALL
                SELECT p_partkey, 'retailprice' AS measure,
                       CAST(p_retailprice AS DOUBLE) AS value FROM part
            )
            ORDER BY p_partkey, measure
        """,
        "events_rolling_active_users": """
            WITH p AS (
                SELECT DISTINCT user_id, date_trunc('day', ts) AS day
                FROM events
            ), x AS (
                SELECT DISTINCT user_id,
                       day + to_days(CAST(t.o AS INTEGER)) AS d
                FROM p, UNNEST(generate_series(0, 6)) AS t(o)
            )
            SELECT d AS day, CAST(COUNT(*) AS BIGINT) AS active_users
            FROM x
            WHERE d IN (SELECT day FROM p)
            GROUP BY d
            ORDER BY d
        """,
        "events_retention_cohorts": """
            WITH p AS (
                SELECT DISTINCT user_id, date_trunc('day', ts) AS day
                FROM events
            ), f AS (
                SELECT user_id, MIN(day) AS cohort FROM p GROUP BY user_id
            )
            SELECT f.cohort AS cohort_day,
                   CAST(date_diff('day', f.cohort, p.day) AS BIGINT)
                       AS day_offset,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM p JOIN f ON p.user_id = f.user_id
            GROUP BY 1, 2
            ORDER BY 1, 2
        """,
        "skew_safe_join_qty": """
            SELECT o_orderpriority,
                   ROUND(SUM(l_quantity), 2) AS total_qty
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY o_orderpriority
            ORDER BY o_orderpriority
        """,
        "docs_temperature_sample": """
            WITH c AS (
                SELECT source, CAST(COUNT(*) AS DOUBLE) AS n
                FROM documents GROUP BY source
            ), t AS (
                SELECT SUM(POW(n, 0.5)) AS sw, SUM(n) AS tot FROM c
            ), p AS (
                SELECT source,
                       LEAST(1.0, (POW(n, 0.5) / t.sw) * t.tot * 0.5 / n)
                           AS ps
                FROM c, t
            )
            SELECT d.source, CAST(d.doc_id AS BIGINT) AS doc_id
            FROM documents d JOIN p ON d.source = p.source
            WHERE ps >= 1.0
               OR substr(md5('t:' || CAST(d.doc_id AS VARCHAR)), 1, 8)
                  < printf('%08x', CAST(FLOOR(ps * 4294967296) AS BIGINT))
        """,
        "docs_chunks": """
            WITH t AS (
                SELECT doc_id,
                       len(regexp_split_to_array(trim(text), '\\s+')) AS n_tok
                FROM documents
            ), c AS (
                SELECT doc_id, n_tok,
                       GREATEST(1, CAST(CEIL(
                           CAST(GREATEST(n_tok - 16, 1) AS DOUBLE) / 48
                       ) AS BIGINT)) AS n_chunks
                FROM t
            )
            SELECT doc_id,
                   CAST(u.gs AS BIGINT) AS chunk_idx,
                   CAST(u.gs * 48 AS BIGINT) AS start_tok,
                   CAST(LEAST(u.gs * 48 + 64, n_tok) AS BIGINT) AS end_tok
            FROM c, UNNEST(generate_series(0, n_chunks - 1)) AS u(gs)
        """,
        "docs_epoch_shuffle": """
            SELECT CAST(doc_id AS BIGINT) AS doc_id,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY substr(md5('0:' || CAST(doc_id AS VARCHAR)),
                                       1, 16), doc_id) - 1 AS BIGINT) AS pos
            FROM documents
        """,
        "docs_pack_sequences": """
            WITH t AS (
                SELECT doc_id,
                       len(regexp_split_to_array(trim(text), '\\s+'))
                           AS n_tokens
                FROM documents
            ), c AS (
                SELECT doc_id, n_tokens,
                       SUM(n_tokens) OVER (ORDER BY doc_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM t
            )
            SELECT doc_id,
                   CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(cum - n_tokens AS BIGINT) AS start_off,
                   CAST(cum AS BIGINT) AS end_off,
                   CAST((cum - n_tokens) // 512 AS BIGINT) AS first_seq,
                   CAST(CASE WHEN n_tokens = 0 THEN (cum - n_tokens) // 512
                             ELSE (cum - 1) // 512 END AS BIGINT) AS last_seq
            FROM c
        """,
        "events_hopping_windows": """
            WITH w AS (
                SELECT time_bucket(INTERVAL 3 HOUR, ts) AS window_start
                FROM events
                UNION ALL
                SELECT time_bucket(INTERVAL 3 HOUR, ts) - INTERVAL 3 HOUR
                FROM events
            )
            SELECT window_start, CAST(COUNT(*) AS BIGINT) AS n_events
            FROM w GROUP BY window_start ORDER BY window_start
        """,
        "docs_heavy_words": """
            SELECT word, CAST(COUNT(*) AS BIGINT) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS word FROM documents)
            GROUP BY word HAVING COUNT(*) >= 900
            ORDER BY n DESC, word
        """,
        "parts_price_tiers": """
            WITH tiers(lo, hi, tier) AS (VALUES
                (0.0, 925.0, 'budget'), (925.0, 950.0, 'mid'),
                (950.0, 975.0, 'high'), (975.0, 10000.0, 'premium'))
            SELECT tier, CAST(COUNT(*) AS BIGINT) AS n_parts
            FROM part JOIN tiers
              ON p_retailprice >= lo AND p_retailprice < hi
            GROUP BY tier ORDER BY tier
        """,
        "events_asof_orders": """
            -- ASOF with a DETERMINISTIC tie-break (greatest payload tuple
            -- among equal o_orderdate), matching the engine operator's
            -- documented semantics; bare ASOF JOIN picks an arbitrary row
            WITH best AS (
                SELECT e.event_id, e.user_id, e.ts,
                       MAX(o.o_orderdate) AS od
                FROM events e JOIN orders o
                  ON e.user_id = o.o_custkey AND o.o_orderdate <= e.ts
                GROUP BY e.event_id, e.user_id, e.ts
            )
            SELECT b.event_id, b.user_id, b.ts,
                   o2.o_orderkey, o2.o_totalprice
            FROM best b JOIN orders o2
              ON o2.o_custkey = b.user_id AND o2.o_orderdate = b.od
            QUALIFY row_number() OVER (
                PARTITION BY b.event_id
                ORDER BY o2.o_orderkey DESC, o2.o_totalprice DESC) = 1
            ORDER BY b.event_id
        """,
        "events_value_quantiles": """
            SELECT 0.25 AS q, quantile_disc(value, 0.25) AS value FROM events
            UNION ALL
            SELECT 0.5, quantile_disc(value, 0.5) FROM events
            UNION ALL
            SELECT 0.9, quantile_disc(value, 0.9) FROM events
            UNION ALL
            SELECT 0.99, quantile_disc(value, 0.99) FROM events
            ORDER BY q
        """,
        "docs_repetition": """
            WITH w AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS word
                FROM documents
            ), c AS (
                SELECT doc_id, word, COUNT(*) AS n FROM w GROUP BY doc_id, word
            )
            SELECT doc_id,
                   CAST(SUM(n) AS BIGINT) AS n_words,
                   CAST(COUNT(*) AS BIGINT) AS n_distinct_words,
                   ROUND(1.0 - COUNT(*)::DOUBLE / SUM(n), 4) AS dup_word_frac,
                   ROUND(MAX(n)::DOUBLE / SUM(n), 4) AS top_word_frac
            FROM c GROUP BY doc_id ORDER BY doc_id
        """,
        "q12_priority_by_returnflag": """
            SELECT l_returnflag,
                   CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                            THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
                   CAST(SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
                            THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "q14_promo_revenue": """
            SELECT ROUND(100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                           THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
                         / SUM(l_extendedprice * (1 - l_discount)), 2)
                   AS promo_revenue_pct
            FROM lineitem JOIN part ON l_partkey = p_partkey
        """,
        "q10_returned_customers": """
            SELECT c.c_custkey, c.c_name, n.n_name,
                   ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            WHERE l.l_returnflag = 'R'
            GROUP BY c.c_custkey, c.c_name, n.n_name
            ORDER BY revenue DESC, c.c_custkey LIMIT 20
        """,
        "events_props_k": """
            SELECT user_id,
                   CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS k_sum
            FROM events GROUP BY user_id
        """,
        "docs_token_stats": """
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(regexp_split_to_array(trim(text), '\\s+')) AS n_tokens
            FROM documents
        """,
        "docs_quality": """
            SELECT doc_id,
                   ROUND(CAST(length(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS DOUBLE)
                         / length(text), 4) AS alpha_ratio,
                   ROUND(CAST(length(text) AS DOUBLE)
                         / len(regexp_split_to_array(trim(text), '\\s+')), 4) AS avg_token_len
            FROM documents
        """,
        "docs_fingerprint": """
            SELECT doc_id, md5(text) AS md5 FROM documents
        """,
        "docs_exact_dedup": """
            SELECT md5(text) AS text_hash, MIN(doc_id) AS doc_id
            FROM documents GROUP BY md5(text)
        """,
        "parts_pagerank": _pagerank_sql(),
        "parts_triangles": """
            WITH raw AS (
                SELECT a.l_partkey AS src, b.l_partkey AS dst
                FROM lineitem a JOIN lineitem b
                  ON a.l_orderkey = b.l_orderkey
                 AND b.l_linenumber = a.l_linenumber + 1),
            e AS (
                SELECT DISTINCT LEAST(src, dst) AS u, GREATEST(src, dst) AS v
                FROM raw WHERE src <> dst)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v
            JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v
        """,
        "events_user_gaps": """
            WITH lagged AS (
              SELECT user_id,
                     EXTRACT(EPOCH FROM ts - LAG(ts) OVER
                       (PARTITION BY user_id ORDER BY ts, event_id)) AS gap_s
              FROM events)
            SELECT user_id, COUNT(gap_s) AS n_gaps,
                   ROUND(AVG(gap_s), 4) AS avg_gap_s,
                   MAX(gap_s) AS max_gap_s
            FROM lagged GROUP BY user_id ORDER BY user_id
        """,
        "events_top_per_user": """
            WITH ranked AS (
              SELECT user_id, event_id, value,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id) AS rnk
              FROM events)
            SELECT user_id, event_id, value, rnk
            FROM ranked WHERE rnk <= 3
        """,
        "events_type_distinct_users": """
            SELECT event_type, COUNT(DISTINCT user_id) AS n_users
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        # Okapi BM25 (k1=1.2, b=0.75), idf = ln((N-df+.5)/(df+.5)+1)
        "docs_bm25_topk": """
            WITH stats AS (
              SELECT COUNT(*) AS n,
                     AVG(len(string_split(text, ' '))) AS avgdl
              FROM documents),
            words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w
              FROM documents),
            tf AS (
              SELECT doc_id, w, COUNT(*) AS tf FROM words
              WHERE w IN ('spark', 'merge', 'window') GROUP BY doc_id, w),
            dfx AS (
              SELECT w, COUNT(DISTINCT doc_id) AS df FROM words
              WHERE w IN ('spark', 'merge', 'window') GROUP BY w),
            dl AS (
              SELECT doc_id, len(string_split(text, ' ')) AS dl
              FROM documents),
            scored AS (
              SELECT tf.doc_id,
                     SUM(ln((stats.n - dfx.df + 0.5) / (dfx.df + 0.5) + 1)
                         * tf.tf * (1.2 + 1)
                         / (tf.tf + 1.2 * (1 - 0.75
                                           + 0.75 * dl.dl / stats.avgdl)))
                     AS score
              FROM tf, dfx, dl, stats
              WHERE tf.w = dfx.w AND dl.doc_id = tf.doc_id
              GROUP BY tf.doc_id)
            SELECT doc_id, ROUND(score, 4) AS score FROM scored
            ORDER BY score DESC, doc_id LIMIT 10
        """,
        "docs_inverted_index": """
            WITH pairs AS (
              SELECT DISTINCT unnest(string_split(text, ' ')) AS term, doc_id
              FROM documents)
            SELECT term, COUNT(*) AS df,
                   array_to_string(list(doc_id ORDER BY doc_id), ',')
                   AS postings
            FROM pairs GROUP BY term ORDER BY term
        """,
        # per-label centroid exploded to (label, dim, value): DuckDB unnests
        # the vector with ordinality and averages per (label, dim)
        "emb_label_centroids": """
            SELECT label, gs - 1 AS dim, ROUND(AVG(u), 6) AS value
            FROM (SELECT label, unnest(CAST(embedding AS DOUBLE[])) AS u,
                         generate_subscripts(embedding, 1) AS gs
                  FROM embeddings) t
            GROUP BY label, gs ORDER BY label, dim
        """,
        "events_type_quantiles": """
            SELECT event_type, 0.5 AS q,
                   quantile_disc(value, 0.5) AS value
            FROM events GROUP BY event_type
            UNION ALL
            SELECT event_type, 0.9, quantile_disc(value, 0.9)
            FROM events GROUP BY event_type
            ORDER BY event_type, q
        """,
        "bloom_semi_join_revenue": """
            SELECT l_returnflag,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2)
                   AS revenue,
                   COUNT(*) AS n_items
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_orderpriority = '1-URGENT')
            GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "q8_market_share": """
            WITH vol AS (
              SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year,
                     l_extendedprice * (1 - l_discount) AS volume,
                     (SELECT n_name FROM nation
                      WHERE n_nationkey = s_nationkey) AS supp_nation
              FROM lineitem, orders, customer, nation n1, region, part,
                   supplier
              WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
                AND c_nationkey = n1.n_nationkey
                AND n1.n_regionkey = r_regionkey AND r_name = 'ASIA'
                AND l_partkey = p_partkey AND p_type = 'ECONOMY'
                AND l_suppkey = s_suppkey
                AND o_orderdate BETWEEN TIMESTAMP '1995-01-01'
                                    AND TIMESTAMP '1996-12-31')
            SELECT o_year,
                   ROUND(SUM(CASE WHEN supp_nation = 'NATION_3'
                                  THEN volume ELSE 0 END) / SUM(volume), 4)
                   AS mkt_share
            FROM vol GROUP BY o_year ORDER BY o_year
        """,
        "q15_top_supplier": """
            WITH rev AS (
              SELECT l_suppkey,
                     SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate <  TIMESTAMP '1996-07-01'
              GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, ROUND(total_revenue, 2) AS total_revenue
            FROM supplier, rev
            WHERE s_suppkey = l_suppkey
              AND total_revenue = (SELECT MAX(total_revenue) FROM rev)
            ORDER BY s_suppkey
        """,
        "q17_small_quantity_revenue": """
            SELECT ROUND(COALESCE(SUM(l_extendedprice), 0) / 7.0, 2)
                   AS avg_yearly
            FROM lineitem, part
            WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
              AND l_quantity < (SELECT 0.2 * AVG(l_quantity)
                                FROM lineitem l2
                                WHERE l2.l_partkey = p_partkey)
        """,
        "q22_idle_balances": """
            SELECT c_nationkey, COUNT(*) AS numcust,
                   ROUND(SUM(c_acctbal), 2) AS totacctbal
            FROM customer
            WHERE c_nationkey BETWEEN 0 AND 12
              AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                               WHERE c_acctbal > 0
                                 AND c_nationkey BETWEEN 0 AND 12)
              AND NOT EXISTS (SELECT 1 FROM orders
                              WHERE o_custkey = c_custkey
                                AND o_orderpriority = '1-URGENT')
            GROUP BY c_nationkey ORDER BY c_nationkey
        """,
        # exact corpus-wide bigram counts; deterministic (cnt DESC, ngram)
        # tie-break on both sides
        "docs_top_bigrams": """
            WITH words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                     generate_subscripts(string_split(text, ' '), 1) AS ord
              FROM documents),
            bg AS (
              SELECT a.w || ' ' || b.w AS ngram
              FROM words a JOIN words b
                ON a.doc_id = b.doc_id AND b.ord = a.ord + 1)
            SELECT ngram, COUNT(*) AS cnt FROM bg
            GROUP BY ngram ORDER BY cnt DESC, ngram LIMIT 20
        """,
        # C4-style span dedup: 15-word spans, corpus-wide first occurrence
        # wins (smallest doc_id then chunk_no); docs reassemble from their
        # surviving spans and disappear when nothing survives.
        "docs_span_dedup": """
            WITH words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                     generate_subscripts(string_split(text, ' '), 1) AS ord
              FROM documents),
            chunks AS (
              SELECT doc_id, (ord-1) // 15 AS chunk_no,
                     string_agg(w, ' ' ORDER BY ord) AS chunk
              FROM words GROUP BY doc_id, (ord-1) // 15),
            ranked AS (
              SELECT doc_id, chunk_no, chunk,
                     row_number() OVER (PARTITION BY chunk
                                        ORDER BY doc_id, chunk_no) AS rn
              FROM chunks)
            SELECT doc_id, string_agg(chunk, ' ' ORDER BY chunk_no) AS text
            FROM ranked WHERE rn = 1 GROUP BY doc_id
        """,
        # triple-set P/R/F1 of a deterministically perturbed order-triple
        # encoding vs the clean one (distinct-set semantics on both sides)
        "kg_triple_pr": """
            WITH exp AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS s,
                     'placed_by' AS p,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS o
              FROM orders
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 'has_name',
                     n_name
              FROM nation),
            got AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS s,
                     'placed_by' AS p,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS o
              FROM orders WHERE o_orderkey % 10 <> 7
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 'has_name',
                     n_name
              FROM nation
              UNION ALL
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR),
                     'spurious_link',
                     'x:' || CAST(o_orderkey AS VARCHAR)
              FROM orders WHERE o_orderkey % 13 = 0),
            gd AS (SELECT DISTINCT * FROM got),
            ed AS (SELECT DISTINCT * FROM exp),
            c AS (SELECT
                    (SELECT COUNT(*) FROM gd) AS n_got,
                    (SELECT COUNT(*) FROM ed) AS n_expected,
                    (SELECT COUNT(*) FROM gd JOIN ed USING (s, p, o))
                        AS n_common)
            SELECT CAST(n_got AS BIGINT) AS n_got,
                   CAST(n_expected AS BIGINT) AS n_expected,
                   CAST(n_common AS BIGINT) AS n_common,
                   ROUND(n_common / CAST(n_got AS DOUBLE), 6) AS prec,
                   ROUND(n_common / CAST(n_expected AS DOUBLE), 6) AS rec,
                   ROUND(2.0 * (n_common / CAST(n_got AS DOUBLE))
                             * (n_common / CAST(n_expected AS DOUBLE))
                         / ((n_common / CAST(n_got AS DOUBLE))
                            + (n_common / CAST(n_expected AS DOUBLE))), 6)
                       AS f1
            FROM c
        """,
        # min hop distance from part 0 over the co-purchase graph,
        # undirected, capped at 3 hops (recursive CTE enumerates paths;
        # MIN collapses to the BFS distance)
        "parts_bfs_reach": """
            WITH RECURSIVE e AS (
              SELECT a.l_partkey AS src, b.l_partkey AS dst
              FROM lineitem a JOIN lineitem b
                ON a.l_orderkey = b.l_orderkey
               AND b.l_linenumber = a.l_linenumber + 1),
            ue AS (SELECT src, dst FROM e
                   UNION ALL SELECT dst, src FROM e),
            bfs AS (
              SELECT CAST(0 AS BIGINT) AS node, CAST(0 AS BIGINT) AS dist
              UNION ALL
              SELECT ue.dst, bfs.dist + 1
              FROM bfs JOIN ue ON ue.src = bfs.node WHERE bfs.dist < 3)
            SELECT node, CAST(MIN(dist) AS BIGINT) AS dist
            FROM bfs GROUP BY node
        """,
        # lossless property-graph round-trip: the reassembled triple set
        # equals the clean encoding, so every count is the distinct size
        # and all three ratios are exactly 1.0
        "kg_property_graph_roundtrip": """
            WITH exp AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS s,
                     'placed_by' AS p,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS o
              FROM orders
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 'has_name',
                     n_name
              FROM nation),
            c AS (SELECT COUNT(*) AS n FROM (SELECT DISTINCT * FROM exp))
            SELECT CAST(n AS BIGINT) AS n_got, CAST(n AS BIGINT)
                       AS n_expected,
                   CAST(n AS BIGINT) AS n_common,
                   1.0 AS prec, 1.0 AS rec, 1.0 AS f1
            FROM c
        """,
        # symmetric set diff of the same perturbed-vs-clean pair: dropped
        # placed_by rows come back 'removed', injected spurious rows 'added'
        "kg_triple_diff": """
            WITH exp AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS s,
                     'placed_by' AS p,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS o
              FROM orders
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 'has_name',
                     n_name
              FROM nation),
            got AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS s,
                     'placed_by' AS p,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS o
              FROM orders WHERE o_orderkey % 10 <> 7
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR), 'has_name',
                     n_name
              FROM nation
              UNION ALL
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR),
                     'spurious_link',
                     'x:' || CAST(o_orderkey AS VARCHAR)
              FROM orders WHERE o_orderkey % 13 = 0)
            SELECT 'added' AS side, s AS subject, p AS predicate,
                   o AS object
            FROM (SELECT DISTINCT * FROM got
                  EXCEPT SELECT DISTINCT * FROM exp)
            UNION ALL
            SELECT 'removed', s, p, o
            FROM (SELECT DISTINCT * FROM exp
                  EXCEPT SELECT DISTINCT * FROM got)
        """,
        # MassiveText-style duplicated-span stats: per doc, how many of its
        # 15-word spans occur more than once anywhere in the corpus
        "docs_dup_span_stats": """
            WITH words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                     generate_subscripts(string_split(text, ' '), 1) AS ord
              FROM documents),
            chunks AS (
              SELECT doc_id, (ord-1) // 15 AS chunk_no,
                     string_agg(w, ' ' ORDER BY ord) AS chunk
              FROM words GROUP BY doc_id, (ord-1) // 15),
            freq AS (
              SELECT chunk, COUNT(*) AS c FROM chunks GROUP BY chunk)
            SELECT c.doc_id, CAST(COUNT(*) AS BIGINT) AS n_spans,
                   CAST(SUM(CASE WHEN f.c > 1 THEN 1 ELSE 0 END) AS BIGINT)
                       AS dup_spans
            FROM chunks c JOIN freq f USING (chunk) GROUP BY c.doc_id
        """,
        # boilerplate policy: a span in >1 DISTINCT docs is dropped from
        # ALL of them (vs span_dedup's keep-first); empty docs drop
        "docs_boilerplate_removal": """
            WITH words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                     generate_subscripts(string_split(text, ' '), 1) AS ord
              FROM documents),
            chunks AS (
              SELECT doc_id, (ord-1) // 15 AS chunk_no,
                     string_agg(w, ' ' ORDER BY ord) AS chunk
              FROM words GROUP BY doc_id, (ord-1) // 15),
            freq AS (
              SELECT chunk, COUNT(DISTINCT doc_id) AS df
              FROM chunks GROUP BY chunk),
            good AS (
              SELECT c.doc_id, c.chunk_no, c.chunk
              FROM chunks c JOIN freq USING (chunk) WHERE freq.df <= 1)
            SELECT doc_id, string_agg(chunk, ' ' ORDER BY chunk_no) AS text
            FROM good GROUP BY doc_id
        """,
        # mean_word_len/alpha_ratio rounded to 4 BEFORE the threshold
        # compare on both engines so the rule booleans agree bit-for-bit
        "docs_gopher_filter": """
            WITH t AS (
              SELECT doc_id,
                     CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
                     length(text) AS n_chars_c,
                     CAST(len(list_filter(string_split(text, ' '),
                          w -> NOT regexp_matches(w, '[A-Za-z]')))
                          AS BIGINT) AS non_alpha,
                     CAST(len(list_filter(string_split(text, ' '),
                          w -> w IN ('the','be','to','of','and','that',
                                     'have','with')))
                          AS BIGINT) AS stopword_hits
              FROM documents),
            m AS (
              SELECT doc_id, n_words,
                     ROUND((n_chars_c - n_words + 1.0) / n_words, 4)
                         AS mean_word_len,
                     ROUND((n_words - non_alpha) / CAST(n_words AS DOUBLE), 4)
                         AS alpha_ratio,
                     stopword_hits
              FROM t)
            SELECT doc_id, n_words, mean_word_len, alpha_ratio,
                   stopword_hits,
                   (n_words BETWEEN 30 AND 100000) AS rule_n_words,
                   (mean_word_len BETWEEN 3.0 AND 10.0) AS rule_word_len,
                   (alpha_ratio >= 0.8) AS rule_alpha,
                   (stopword_hits >= 1) AS rule_stopwords,
                   ((n_words BETWEEN 30 AND 100000)
                    AND (mean_word_len BETWEEN 3.0 AND 10.0)
                    AND alpha_ratio >= 0.8
                    AND stopword_hits >= 1) AS keep
            FROM m
        """,
        "emb_centroid_confusion": """
            WITH dims AS (
                SELECT label, dim, AVG(val) AS v
                FROM (
                    SELECT label,
                           unnest(CAST(embedding AS DOUBLE[])) AS val,
                           unnest(range(len(embedding))) AS dim
                    FROM embeddings)
                GROUP BY label, dim
            ), cents AS (
                SELECT label, list(v ORDER BY dim) AS c
                FROM dims GROUP BY label
            ), sims AS (
                SELECT e.vec_id, e.label,
                       c.label AS assigned,
                       list_cosine_similarity(
                           CAST(e.embedding AS DOUBLE[]), c.c) AS sim
                FROM embeddings e CROSS JOIN cents c
            ), best AS (
                SELECT vec_id, label, assigned,
                       ROW_NUMBER() OVER (PARTITION BY vec_id
                           ORDER BY sim DESC, assigned) AS rn
                FROM sims
            )
            SELECT label, assigned, CAST(COUNT(*) AS BIGINT) AS n
            FROM best WHERE rn = 1
            GROUP BY label, assigned ORDER BY label, assigned
        """,
        "knn_cosine": """
            SELECT vec_id,
                   ROUND(list_cosine_similarity(
                       CAST(embedding AS DOUBLE[]),
                       (SELECT CAST(embedding AS DOUBLE[]) FROM embeddings WHERE vec_id = 0)
                   ), 4) AS sim
            FROM embeddings
            WHERE vec_id <> 0
            ORDER BY sim DESC, vec_id
            LIMIT 10
        """,
        # PII redaction: patterns are applied in order (email → phone →
        # ipv4), each counted on and then replaced in the PREVIOUS
        # pattern's output, exactly as the engine stage does. The
        # deterministic contact line makes every pattern fire.
        "docs_pii_redacted": """
            WITH aug AS (
              SELECT doc_id,
                     text || ' Contact user' || CAST(doc_id AS VARCHAR)
                          || '@example.com or +1-202-555-01'
                          || lpad(CAST(doc_id % 100 AS VARCHAR), 2, '0')
                          || ' at 10.0.' || CAST(doc_id % 256 AS VARCHAR)
                          || '.42' AS t0
              FROM documents
            ),
            s1 AS (
              SELECT doc_id, t0,
                     len(regexp_extract_all(t0,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS n_email,
                     regexp_replace(t0,
                         '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                         '<EMAIL>', 'g') AS t1
              FROM aug
            ),
            s2 AS (
              SELECT doc_id, n_email,
                     len(regexp_extract_all(t1, '\\+?[0-9][0-9\\- ]{7,}[0-9]')) AS n_phone,
                     regexp_replace(t1, '\\+?[0-9][0-9\\- ]{7,}[0-9]',
                                    '<PHONE>', 'g') AS t2
              FROM s1
            )
            SELECT doc_id, n_email, n_phone,
                   len(regexp_extract_all(t2,
                       '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b')) AS n_ipv4,
                   regexp_replace(t2,
                       '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b',
                       '<IP>', 'g') AS text_redacted
            FROM s2
        """,
        # whitespace collapse (explicit ASCII class — RE2 and Python agree)
        # + space-trim + NFC composition; the appended decomposed suffix
        # makes NFC do real work
        "docs_normalized": """
            WITH aug AS (
              SELECT doc_id,
                     text || '  cafe' || chr(769) || ' ' || chr(9)
                          || ' finale' || chr(10) AS t0
              FROM documents
            )
            SELECT doc_id,
                   nfc_normalize(trim(regexp_replace(
                       t0, '[ \t\n\r\f\v]+', ' ', 'g'), ' ')) AS text_norm,
                   length(nfc_normalize(trim(regexp_replace(
                       t0, '[ \t\n\r\f\v]+', ' ', 'g'), ' '))) AS n_chars_norm
            FROM aug
        """,
        # document-frequency / IDF vocabulary table; tokenization is a
        # literal single-space split on both engines (empty tokens kept)
        "docs_df_table": """
            WITH tok AS (
              SELECT DISTINCT doc_id,
                     unnest(string_split(text, ' ')) AS token
              FROM documents
            )
            SELECT token, COUNT(*) AS n_docs,
                   ROUND(LN((SELECT COUNT(*) FROM documents)
                            / CAST(COUNT(*) AS DOUBLE)), 4) AS idf
            FROM tok GROUP BY token ORDER BY token
        """,
        "events_distinct_users": """
            SELECT COUNT(DISTINCT user_id) AS n_users FROM events
        """,
        # the HLL hash is deterministic, so "estimate within 3 sigma" is a
        # pure function of the data; the oracle asserts the exact count and
        # literal TRUE — a drifted sketch hash-mismatches this row
        "events_users_hll_check": """
            SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users_exact,
                   TRUE AS hll_within_bound
            FROM events
        """,
        # deterministic double-hashed Bloom filter → zero false negatives
        # is structural and the measured FPR is a pure function of the
        # data, so the bound boolean is SQL-assertable; the exact distinct
        # member/non-member counts pin the distinct plumbing
        "events_user_bloom_check": """
            SELECT CAST((SELECT COUNT(DISTINCT user_id) FROM events
                         WHERE user_id % 2 = 0) AS BIGINT) AS n_members,
                   CAST((SELECT COUNT(DISTINCT user_id) FROM events
                         WHERE user_id % 2 <> 0) AS BIGINT) AS n_nonmembers,
                   CAST(0 AS BIGINT) AS false_negatives,
                   TRUE AS fpr_within_bound
        """,
        # the PCA fit's distributed moment partials, pinned exactly:
        # COVAR_SAMP (n-1 denominator) over list elements, half-away ROUND
        "emb_covariance_check": """
            SELECT CAST(1 AS BIGINT) AS dim_i, CAST(1 AS BIGINT) AS dim_j,
                   ROUND(COVAR_SAMP(embedding[1], embedding[1]), 4) AS cov
            FROM embeddings
            UNION ALL SELECT 1, 2,
                   ROUND(COVAR_SAMP(embedding[1], embedding[2]), 4)
            FROM embeddings
            UNION ALL SELECT 1, 3,
                   ROUND(COVAR_SAMP(embedding[1], embedding[3]), 4)
            FROM embeddings
            UNION ALL SELECT 2, 2,
                   ROUND(COVAR_SAMP(embedding[2], embedding[2]), 4)
            FROM embeddings
            UNION ALL SELECT 2, 3,
                   ROUND(COVAR_SAMP(embedding[2], embedding[3]), 4)
            FROM embeddings
            UNION ALL SELECT 3, 3,
                   ROUND(COVAR_SAMP(embedding[3], embedding[3]), 4)
            FROM embeddings
            ORDER BY dim_i, dim_j
        """,
        # seeded/deterministic ANN indexes → measured recall is a pure
        # function of the data; floors sit far below measured means and far
        # above chance, so the booleans are SQL-assertable
        "knn_recall_check": """
            SELECT * FROM (VALUES ('ivf', CAST(3 AS BIGINT), TRUE),
                                  ('lsh', CAST(3 AS BIGINT), TRUE),
                                  ('pq',  CAST(3 AS BIGINT), TRUE))
                   AS t(method, n_queries, recall_above_floor)
            ORDER BY method
        """,
        # t-digest rank error measured exactly by the engine; the bound
        # boolean + exact count are SQL-assertable
        "events_value_tdigest_check": """
            SELECT CAST(t.q AS DOUBLE) AS q,
                   (SELECT CAST(COUNT(*) AS BIGINT) FROM events) AS n_events,
                   TRUE AS rank_within_bound
            FROM (VALUES (0.25), (0.5), (0.75), (0.9), (0.99)) AS t(q)
            ORDER BY q
        """,
        # the MG guarantees are deterministic properties of the data (any
        # block structure): mandatory words always present, containment
        # always holds — so 0/0 plus the exact token count is SQL-assertable
        "docs_heavy_words_mg_check": """
            SELECT CAST(64 AS BIGINT) AS k,
                   (SELECT CAST(COUNT(*) AS BIGINT)
                    FROM (SELECT unnest(regexp_split_to_array(trim(text),
                                                              '\\s+')) AS w
                          FROM documents) t
                    WHERE w <> '') AS n_words,
                   CAST(0 AS BIGINT) AS mandatory_missing,
                   CAST(0 AS BIGINT) AS containment_violations
        """,
        # deterministic CM hash → the two-sided bound boolean is a pure
        # function of the data; a drifted sketch hash-mismatches this row
        "events_type_count_cm_check": """
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_events,
                   TRUE AS cm_within_bound
            FROM events GROUP BY event_type
        """,
        # top-5 TF-IDF terms per doc; ranking uses the ROUNDED score with a
        # token tie-break on both engines (idf itself rounded to 4 first,
        # mirroring document_frequency's broadcast table)
        "docs_tfidf_top_terms": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS token
              FROM documents
            ),
            tf AS (
              SELECT doc_id, token, COUNT(*) AS tf
              FROM tok GROUP BY doc_id, token
            ),
            dfreq AS (
              SELECT token, COUNT(DISTINCT doc_id) AS n_docs
              FROM tok GROUP BY token
            ),
            scored AS (
              SELECT tf.doc_id, tf.token, tf.tf,
                     ROUND(tf.tf * ROUND(LN((SELECT COUNT(*) FROM documents)
                           / CAST(dfreq.n_docs AS DOUBLE)), 4), 4) AS score
              FROM tf JOIN dfreq ON tf.token = dfreq.token
            )
            SELECT doc_id, token, tf, score FROM scored
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY score DESC, token) <= 5
            ORDER BY doc_id, score DESC, token
        """,
        # deterministic md5-prefix stratified sampling (en 50%, rest 25%)
        "docs_stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 8) <
                  CASE WHEN lang = 'en' THEN '80000000' ELSE '40000000' END
            ORDER BY doc_id
        """,
        "q7_nation_volume": """
            SELECT supp_nation, cust_nation, l_year,
                   ROUND(SUM(volume), 2) AS revenue
            FROM (
              SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
                     CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
                     l_extendedprice * (1 - l_discount) AS volume
              FROM lineitem
              JOIN supplier ON s_suppkey = l_suppkey
              JOIN orders   ON o_orderkey = l_orderkey
              JOIN customer ON c_custkey = o_custkey
              JOIN nation n1 ON s_nationkey = n1.n_nationkey
              JOIN nation n2 ON c_nationkey = n2.n_nationkey
              WHERE ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
                  OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
                AND l_shipdate BETWEEN TIMESTAMP '1996-01-01'
                                   AND TIMESTAMP '1997-12-31'
            )
            GROUP BY supp_nation, cust_nation, l_year
            ORDER BY supp_nation, cust_nation, l_year
        """,
        "q13_customer_distribution": """
            SELECT c_count, COUNT(*) AS custdist
            FROM (
              SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
              FROM customer c
              LEFT JOIN orders o
                ON c.c_custkey = o.o_custkey
               AND o.o_orderpriority <> '1-URGENT'
              GROUP BY c.c_custkey
            )
            GROUP BY c_count
            ORDER BY custdist DESC, c_count DESC
        """,
        "q18_large_orders": """
            WITH big AS (
              SELECT l_orderkey, SUM(l_quantity) AS sum_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING SUM(l_quantity) > 250
            )
            SELECT o_orderkey, o_custkey, o_orderdate, o_totalprice,
                   ROUND(sum_qty, 2) AS sum_qty
            FROM big JOIN orders ON o_orderkey = l_orderkey
            ORDER BY o_totalprice DESC, o_orderkey
            LIMIT 100
        """,
        "q19_disjunctive_revenue": """
            SELECT ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS revenue,
                   COUNT(*) AS n
            FROM lineitem JOIN part ON p_partkey = l_partkey
            WHERE (p_brand = 'Brand#1'  AND p_size BETWEEN 1  AND 15
                   AND l_quantity BETWEEN 1  AND 11)
               OR (p_brand = 'Brand#13' AND p_size BETWEEN 10 AND 30
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#20' AND p_size BETWEEN 20 AND 50
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        # exact-passage decontamination vs the deterministic benchmark set
        # (every 97th doc's leading 64 chars)
        "docs_decontaminated": """
            WITH bench AS (
              SELECT substr(text, 1, 64) AS passage
              FROM documents
              WHERE doc_id % 97 = 0 AND length(text) >= 64
            )
            SELECT d.doc_id,
                   EXISTS (SELECT 1 FROM bench b
                           WHERE contains(d.text, b.passage)) AS contaminated
            FROM documents d
            ORDER BY doc_id
        """,
        # connected components (min-reachable-id labeling) over a
        # deterministic chain-shaped edge set derived from documents; the
        # engine side runs the distributed min-label + pointer-doubling
        # algorithm, the oracle a recursive transitive closure
        "docs_cc_clusters": """
            WITH RECURSIVE edges AS (
              SELECT doc_id AS a, doc_id + (n_chars % 7) + 1 AS b
              FROM documents
              WHERE doc_id % 3 <> 0
                AND doc_id + (n_chars % 7) + 1 <= (SELECT MAX(doc_id) FROM documents)
            ),
            sym AS (SELECT a, b FROM edges UNION SELECT b, a FROM edges),
            nodes AS (SELECT DISTINCT a AS node FROM sym),
            reach(node, r) AS (
              SELECT node, node FROM nodes
              UNION
              SELECT s.b, reach.r FROM sym s JOIN reach ON reach.node = s.a
            )
            SELECT node, MIN(r) AS cluster_id
            FROM reach GROUP BY node ORDER BY node
        """,
        # distributed BGP over the deterministic events→triples encoding
        # (user:<id>, <event_type>, <YYYY-MM-DD>): 2-pattern join on the
        # (user, day) variable pair ≡ an events self-join
        "kg_bgp_same_day": """
            SELECT DISTINCT 'user:' || CAST(a.user_id AS VARCHAR) AS u,
                            strftime(a.ts, '%Y-%m-%d')            AS d
            FROM events a
            JOIN events b
              ON a.user_id = b.user_id
             AND strftime(a.ts, '%Y-%m-%d') = strftime(b.ts, '%Y-%m-%d')
            WHERE a.event_type = 'click' AND b.event_type = 'purchase'
        """,
        # after the graph replace, NATION_7 customers' segment quads all
        # read RELABELED; every other nation keeps its segments
        "kg_quads_replace_segments": """
            SELECT CASE WHEN replace(n_name, ' ', '_') = 'NATION_7'
                        THEN 'RELABELED' ELSE c_mktsegment END AS s,
                   COUNT(*) AS n
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            GROUP BY 1 ORDER BY s
        """,
        # constant-GRAPH scan over the graph-bucketed QuadStore == the
        # same nation-filtered segment counts
        "kg_store_graph_segments": """
            SELECT c_mktsegment AS s, COUNT(*) AS n
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            WHERE replace(n_name, ' ', '_') = 'NATION_7'
            GROUP BY 1 ORDER BY s
        """,
        # nodes = distinct IRIs (order ∪ cust ∪ nation; the referenced
        # sets are subsets of the subject sets); edges = IRI-object
        # triples; props = literal-valued triples (has_name)
        "kg_property_graph_counts": """
            SELECT (SELECT COUNT(DISTINCT o_orderkey) FROM orders)
                 + (SELECT COUNT(DISTINCT c_custkey) FROM customer)
                 + (SELECT COUNT(DISTINCT n_nationkey) FROM nation)
                     AS n_nodes,
                   (SELECT COUNT(*) FROM orders)
                 + (SELECT COUNT(*) FROM customer) AS n_edges,
                   (SELECT COUNT(*) FROM nation) AS n_props
        """,
        # XOR-of-md5 set hash: md5_number_upper == int.from_bytes(
        # md5(key)[:8], 'little'); chr(31) joins the identity columns on
        # both sides
        "kg_fingerprint_orders": """
            WITH t AS (
              SELECT DISTINCT s, p, o FROM (
                SELECT 'nation:' || CAST(n_nationkey AS VARCHAR) AS s,
                       'has_name' AS p, n_name AS o FROM nation
                UNION ALL
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                       'nation:' || CAST(c_nationkey AS VARCHAR)
                FROM customer
                UNION ALL
                SELECT 'order:' || CAST(o_orderkey AS VARCHAR), 'placed_by',
                       'cust:' || CAST(o_custkey AS VARCHAR)
                FROM orders
              )
            )
            SELECT COUNT(*) AS n_triples,
                   lower(lpad(to_hex(bit_xor(md5_number_upper(
                       s || chr(31) || p || chr(31) || o))), 16, '0'))
                     AS fingerprint
            FROM t
        """,
        "kg_fingerprint_graphs": """
            WITH q AS (
              SELECT 'urn:g:' || replace(n_name, ' ', '_') AS g,
                     'cust:' || CAST(c_custkey AS VARCHAR) AS s,
                     'segment' AS p, c_mktsegment AS o
              FROM customer JOIN nation ON c_nationkey = n_nationkey
              UNION ALL
              SELECT 'urn:g:' || replace(n_name, ' ', '_'),
                     'order:' || CAST(o_orderkey AS VARCHAR), 'placed_by',
                     'cust:' || CAST(o_custkey AS VARCHAR)
              FROM orders JOIN customer ON o_custkey = c_custkey
                          JOIN nation ON c_nationkey = n_nationkey
              UNION ALL
              SELECT 'urn:g:' || replace(n_name, ' ', '_'),
                     'order:' || CAST(o_orderkey AS VARCHAR), 'priority',
                     o_orderpriority
              FROM orders JOIN customer ON o_custkey = c_custkey
                          JOIN nation ON c_nationkey = n_nationkey
            )
            SELECT g AS graph, COUNT(*) AS n_quads,
                   lower(lpad(to_hex(bit_xor(md5_number_upper(
                       s || chr(31) || p || chr(31) || o))), 16, '0'))
                     AS fingerprint
            FROM (SELECT DISTINCT * FROM q)
            GROUP BY g ORDER BY graph
        """,
        # VoID property partitions == per-source-table aggregates of the
        # demo triple encoding (one predicate per table)
        "kg_void_properties": """
            SELECT * FROM (
              SELECT 'has_name' AS predicate, COUNT(*) AS n_triples,
                     COUNT(DISTINCT n_nationkey) AS n_subjects,
                     COUNT(DISTINCT n_name) AS n_objects
              FROM nation
              UNION ALL
              SELECT 'in_nation', COUNT(*),
                     COUNT(DISTINCT c_custkey), COUNT(DISTINCT c_nationkey)
              FROM customer
              UNION ALL
              SELECT 'placed_by', COUNT(*),
                     COUNT(DISTINCT o_orderkey), COUNT(DISTINCT o_custkey)
              FROM orders
            ) ORDER BY predicate
        """,
        # class partition of rdf:type triples == customers per nation
        "kg_void_classes": """
            SELECT 'nation:' || CAST(c_nationkey AS VARCHAR) AS "class",
                   COUNT(DISTINCT c_custkey) AS n_instances
            FROM customer GROUP BY c_nationkey ORDER BY "class"
        """,
        # per-named-graph descriptors over the quad encoding
        "kg_void_graphs": """
            WITH parts AS (
              SELECT 'urn:g:' || replace(n_name, ' ', '_') AS g,
                     'cust:' || CAST(c_custkey AS VARCHAR) AS s,
                     'segment' AS p
              FROM customer JOIN nation ON c_nationkey = n_nationkey
              UNION ALL
              SELECT 'urn:g:' || replace(n_name, ' ', '_'),
                     'order:' || CAST(o_orderkey AS VARCHAR), 'placed_by'
              FROM orders JOIN customer ON o_custkey = c_custkey
                          JOIN nation ON c_nationkey = n_nationkey
              UNION ALL
              SELECT 'urn:g:' || replace(n_name, ' ', '_'),
                     'order:' || CAST(o_orderkey AS VARCHAR), 'priority'
              FROM orders JOIN customer ON o_custkey = c_custkey
                          JOIN nation ON c_nationkey = n_nationkey
            )
            SELECT g AS graph, COUNT(*) AS n_quads,
                   COUNT(DISTINCT s) AS n_subjects,
                   COUNT(DISTINCT p) AS n_predicates
            FROM parts GROUP BY g ORDER BY graph
        """,
        # whole-dataset distinct counts over the union of the encoding's
        # (s, p, o) rows
        "kg_void_summary": """
            WITH t AS (
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR) AS s,
                     'has_name' AS p, n_name AS o
              FROM nation
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR), 'placed_by',
                     'cust:' || CAST(o_custkey AS VARCHAR)
              FROM orders
            )
            SELECT COUNT(*) AS n_triples, COUNT(DISTINCT s) AS n_subjects,
                   COUNT(DISTINCT p) AS n_predicates,
                   COUNT(DISTINCT o) AS n_objects
            FROM t
        """,
        # quad counts per named graph (graph = customer nation): one
        # segment quad per customer + two quads per order
        "kg_graph_quad_counts": """
            WITH g AS (
              SELECT 'urn:g:' || replace(n_name, ' ', '_') AS g,
                     COUNT(*) AS n
              FROM customer JOIN nation ON c_nationkey = n_nationkey
              GROUP BY 1
              UNION ALL
              SELECT 'urn:g:' || replace(n_name, ' ', '_') AS g,
                     2 * COUNT(*) AS n
              FROM orders
              JOIN customer ON o_custkey = c_custkey
              JOIN nation   ON c_nationkey = n_nationkey
              GROUP BY 1
            )
            SELECT g, CAST(SUM(n) AS BIGINT) AS n FROM g
            GROUP BY g ORDER BY g
        """,
        # same-graph GRAPH ?g join == orders of BUILDING customers per
        # nation (order quads inherit the customer's nation graph)
        "kg_graph_building_orders": """
            SELECT 'urn:g:' || replace(n_name, ' ', '_') AS g,
                   COUNT(*) AS n
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY 1 ORDER BY g
        """,
        # constant-graph scan == customers of exactly that nation
        "kg_graph_const_segments": """
            SELECT c_mktsegment AS s, COUNT(*) AS n
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            WHERE replace(n_name, ' ', '_') = 'NATION_7'
            GROUP BY 1 ORDER BY s
        """,
        # 3-pattern BGP chain over the orders→customer→nation triple
        # encoding ≡ the relational 3-way join, counted per nation name
        "kg_bgp_orders_by_nation": """
            SELECT n_name AS name, COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        # SPARQL MINUS ≡ anti self-join on (user, day): click days with
        # no purchase by the same user that day
        "kg_bgp_click_no_purchase": """
            SELECT DISTINCT 'user:' || CAST(c.user_id AS VARCHAR) AS u,
                            strftime(c.ts, '%Y-%m-%d')            AS d
            FROM events c
            WHERE c.event_type = 'click'
              AND NOT EXISTS (
                SELECT 1 FROM events p
                WHERE p.event_type = 'purchase'
                  AND p.user_id = c.user_id
                  AND strftime(p.ts, '%Y-%m-%d') = strftime(c.ts, '%Y-%m-%d')
              )
        """,
        # SPARQL CONSTRUCT ≡ join + string templating: one derived
        # (order, from_nation, nation) triple per order
        "kg_construct_order_nation": """
            SELECT DISTINCT
                   'order:' || CAST(o_orderkey AS VARCHAR)   AS subject,
                   'from_nation'                             AS predicate,
                   'nation:' || CAST(c_nationkey AS VARCHAR) AS object
            FROM orders
            JOIN customer ON o_custkey = c_custkey
        """,
        # ρDF entailment over the RDFS demo encoding — every derived
        # triple family in closed plain-join form: rdfs11 (nation⊑world
        # through its region), rdfs5 (placed_by⊑related_to), rdfs7
        # (predicate lift through the property chain, incl. the
        # literal-preserving has_name→labeled rewrite), rdfs2/rdfs3
        # (domain/range typing of orders and ordering customers) and
        # rdfs9 (supertype inheritance over every type triple).  The
        # literal range (has_name rdfs:range class:Label) contributes
        # NOTHING — rdfs3 skips literal objects.
        "kg_rdfs_closure": """
            SELECT DISTINCT subject, predicate, object FROM (
                SELECT 'nation:' || CAST(n_nationkey AS VARCHAR)
                           AS subject,
                       'rdfs:subClassOf' AS predicate,
                       'class:world' AS object
                FROM nation
                UNION
                SELECT 'placed_by', 'rdfs:subPropertyOf', 'related_to'
                UNION
                SELECT 'order:' || CAST(o_orderkey AS VARCHAR), p.pred,
                       'cust:' || CAST(o_custkey AS VARCHAR)
                FROM orders, (SELECT 'involves' AS pred
                              UNION ALL SELECT 'related_to') p
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'labeled', c_name
                FROM customer
                UNION
                SELECT 'order:' || CAST(o_orderkey AS VARCHAR),
                       'rdf:type', c.cls
                FROM orders, (SELECT 'class:Order' AS cls
                              UNION ALL SELECT 'class:Thing') c
                UNION
                SELECT DISTINCT 'cust:' || CAST(o_custkey AS VARCHAR),
                       'rdf:type', c.cls
                FROM orders, (SELECT 'class:Customer' AS cls
                              UNION ALL SELECT 'class:Agent') c
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'rdf:type',
                       'region:' || CAST(n_regionkey AS VARCHAR)
                FROM customer JOIN nation ON c_nationkey = n_nationkey
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'rdf:type', 'class:world'
                FROM customer
            )
        """,
        # OWL-lite entailment over the OWL demo encoding in closed
        # form: prp-inv (one supplied_by mirror per supplier), the
        # symmetric+transitive closure of the per-region nation chain
        # (every ordered same-region pair incl. self-loops, minus the
        # base chain edges, guarded to regions with >=2 nations), and
        # the transitive within hierarchy (cust->region, cust->world,
        # nation->world).  The literal-valued labeled_as inverse
        # contributes NOTHING -- a literal can never be a subject.
        "kg_owl_closure": """
            SELECT DISTINCT subject, predicate, object FROM (
                SELECT 'nation:' || CAST(s_nationkey AS VARCHAR)
                           AS subject,
                       'supplied_by' AS predicate,
                       'supp:' || CAST(s_suppkey AS VARCHAR) AS object
                FROM supplier
                UNION
                SELECT 'nation:' || CAST(a.n_nationkey AS VARCHAR),
                       'same_region_as',
                       'nation:' || CAST(b.n_nationkey AS VARCHAR)
                FROM nation a JOIN nation b
                     ON a.n_regionkey = b.n_regionkey
                WHERE NOT EXISTS (
                        SELECT 1 FROM (
                            SELECT n_nationkey AS x, n_regionkey,
                                   LEAD(n_nationkey) OVER (
                                       PARTITION BY n_regionkey
                                       ORDER BY n_nationkey) AS y
                            FROM nation) ch
                        WHERE ch.x = a.n_nationkey
                          AND ch.y = b.n_nationkey)
                  AND 1 < (SELECT COUNT(*) FROM nation c
                           WHERE c.n_regionkey = a.n_regionkey)
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'within',
                       'region:' || CAST(n_regionkey AS VARCHAR)
                FROM customer JOIN nation ON c_nationkey = n_nationkey
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'within',
                       'class:world'
                FROM customer
                UNION
                SELECT 'nation:' || CAST(n_nationkey AS VARCHAR),
                       'within', 'class:world'
                FROM nation
            )
        """,
        # prp-fp / prp-ifp derived sameAs star pairs in closed form:
        # one spelling-variant pair per distinct ordering customer
        # ('cust:' < 'customer:' lexicographically, so cust: is always
        # the star center), plus per-contact-key-group edges from the
        # min cust IRI (STRING min, matching the engine's lexicographic
        # canonical) to every other group member.
        "kg_sameas_pairs": """
            SELECT DISTINCT subject, 'owl:sameAs' AS predicate, object
            FROM (
                SELECT 'cust:' || CAST(o_custkey AS VARCHAR) AS subject,
                       'customer:' || CAST(o_custkey AS VARCHAR) AS object
                FROM orders
                UNION
                SELECT g.mn, c.iri
                FROM (SELECT c_custkey % 100 AS k,
                             MIN('cust:' || CAST(c_custkey AS VARCHAR))
                                 AS mn
                      FROM customer GROUP BY 1) g
                JOIN (SELECT c_custkey % 100 AS k,
                             'cust:' || CAST(c_custkey AS VARCHAR) AS iri
                      FROM customer) c
                  ON g.k = c.k AND c.iri <> g.mn
            )
        """,
        # full smushed mapping: each component is one contact-key
        # group's cust IRIs plus the customer: spelling variants of its
        # members that place orders; canonical = the group's min cust
        # IRI (string min).  Identity rows excluded, matching the
        # engine's mapping contract.
        "kg_sameas_canonical": """
            WITH g AS (SELECT c_custkey, c_custkey % 100 AS k,
                              'cust:' || CAST(c_custkey AS VARCHAR) AS iri
                       FROM customer),
                 m AS (SELECT k, MIN(iri) AS canon FROM g GROUP BY k)
            SELECT iri, canon AS canonical
            FROM g JOIN m USING (k) WHERE g.iri <> m.canon
            UNION
            SELECT DISTINCT 'customer:' || CAST(o.o_custkey AS VARCHAR),
                   m.canon
            FROM orders o
            JOIN g ON g.c_custkey = o.o_custkey
            JOIN m ON m.k = g.k
        """,
        # owl:equivalentClass/equivalentProperty entailment in closed
        # form.  The 3-class eq chain {Customer, Client, Buyer} closes
        # to all 9 ordered eq pairs (incl. self-loops) minus the 2 base
        # assertions, and expands to all 9 subClassOf pairs; the
        # 2-property chain likewise (4-1 eq, 4 subPropertyOf); type
        # lifting gives each customer the two new classes; predicate
        # lifting rewrites each order triple onto ordered_by.
        "kg_eq_closure": """
            WITH cls(c) AS (VALUES ('class:Customer'), ('class:Client'),
                                   ('class:Buyer')),
                 prp(p) AS (VALUES ('placed_by'), ('ordered_by'))
            SELECT DISTINCT subject, predicate, object FROM (
                SELECT a.c AS subject, 'owl:equivalentClass' AS predicate,
                       b.c AS object
                FROM cls a, cls b
                WHERE NOT (a.c = 'class:Customer' AND b.c = 'class:Client')
                  AND NOT (a.c = 'class:Client' AND b.c = 'class:Buyer')
                UNION
                SELECT a.c, 'rdfs:subClassOf', b.c FROM cls a, cls b
                UNION
                SELECT a.p, 'owl:equivalentProperty', b.p
                FROM prp a, prp b
                WHERE NOT (a.p = 'placed_by' AND b.p = 'ordered_by')
                UNION
                SELECT a.p, 'rdfs:subPropertyOf', b.p FROM prp a, prp b
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR), 'rdf:type',
                       t.cls
                FROM customer,
                     (VALUES ('class:Client'), ('class:Buyer')) t(cls)
                UNION
                SELECT 'order:' || CAST(o_orderkey AS VARCHAR),
                       'ordered_by', 'cust:' || CAST(o_custkey AS VARCHAR)
                FROM orders
            )
        """,
        # incremental (delta-seeded) transitive closure: the customer
        # shard joins the pre-closed place hierarchy; derived = each
        # customer's region and world memberships (the seed and base
        # are excluded by the new-vs-known subtraction).
        "kg_incremental_closure": """
            SELECT DISTINCT subject, predicate, object FROM (
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR) AS subject,
                       'locatedIn' AS predicate,
                       'region:' || CAST(n_regionkey AS VARCHAR) AS object
                FROM customer JOIN nation ON c_nationkey = n_nationkey
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'locatedIn', 'class:world'
                FROM customer
            )
        """,
        # DRed retraction in closed form: removing region 0's
        # nation->region edges removes (a) the edges themselves,
        # (b) odd region-0 nations' world memberships (even ones assert
        # locatedIn world directly as base facts and are rederived),
        # (c) all region-0 customers' region memberships, and (d) the
        # world memberships of customers whose nation is odd.
        "kg_dred_retract": """
            SELECT DISTINCT subject, predicate, object FROM (
                SELECT 'nation:' || CAST(n_nationkey AS VARCHAR)
                           AS subject,
                       'locatedIn' AS predicate,
                       'region:0' AS object
                FROM nation WHERE n_regionkey = 0
                UNION
                SELECT 'nation:' || CAST(n_nationkey AS VARCHAR),
                       'locatedIn', 'class:world'
                FROM nation
                WHERE n_regionkey = 0 AND n_nationkey % 2 = 1
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'locatedIn', 'region:0'
                FROM customer JOIN nation ON c_nationkey = n_nationkey
                WHERE n_regionkey = 0
                UNION
                SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                       'locatedIn', 'class:world'
                FROM customer JOIN nation ON c_nationkey = n_nationkey
                WHERE n_regionkey = 0 AND n_nationkey % 2 = 1
            )
        """,
        # SPARQL front end: aggregate over the events triple encoding
        "kg_sparql_purchases_per_user": """
            SELECT 'user:' || CAST(user_id AS VARCHAR) AS u,
                   COUNT(*) AS n
            FROM events
            WHERE event_type = 'purchase'
            GROUP BY user_id
        """,
        # per-predicate profile: exact counts and distincts over the
        # events triple encoding
        "kg_profile_events": """
            SELECT event_type AS predicate,
                   COUNT(*) AS n_triples,
                   COUNT(DISTINCT user_id) AS n_subjects,
                   COUNT(DISTINCT strftime(ts, '%Y-%m-%d')) AS n_objects,
                   COUNT(*) AS n_literal,
                   0 AS n_iri
            FROM events
            GROUP BY event_type
        """,
        # SPARQL Update DELETE WHERE: KG minus the retracted ev:error
        # triples; DISTINCT because the bucketed TTL sink publishes the
        # deduped triple SET
        "kg_update_retract_errors": """
            SELECT 'ev:' || event_type AS predicate, COUNT(*) AS n
            FROM (SELECT DISTINCT user_id, event_type,
                         strftime(ts, '%Y-%m-%d') AS d FROM events)
            WHERE event_type <> 'error'
            GROUP BY event_type
        """,
        # SPARQL Update INSERT ... WHERE: the inserted order_nation
        # triples ARE the 3-hop chain join
        "kg_update_order_nation_insert": """
            SELECT 'order:' || CAST(o.o_orderkey AS VARCHAR) AS subject,
                   n.n_name AS object
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
        """,
        # SPARQL Update DELETE/INSERT WHERE: clicks relabeled to views
        # fold into the existing view set (set semantics)
        "kg_update_relabel_clicks": """
            SELECT 'ev:' || CASE WHEN event_type = 'click' THEN 'view'
                                 ELSE event_type END AS predicate,
                   COUNT(DISTINCT (user_id, strftime(ts, '%Y-%m-%d')))
                       AS n
            FROM events
            GROUP BY 1
        """,
        # SHACL-lite gate: datatype violations (every 7th customer) +
        # maxCount-12 violations (customers with >12 orders)
        "kg_shacl_violations": """
            SELECT 'cust:' || CAST(c_custkey AS VARCHAR) AS focus,
                   'balance' AS path, 'datatype' AS constraint
            FROM customer WHERE c_custkey % 7 = 0
            UNION ALL
            SELECT 'cust:' || CAST(o_custkey AS VARCHAR),
                   'has_order', 'maxCount'
            FROM orders GROUP BY o_custkey HAVING COUNT(*) > 12
        """,
        # sameAs smushing: customers aliased in threes; canonical is the
        # zero-padded numeric base, so order counts per canonical
        # customer have a closed form
        "kg_sameas_merge_orders": """
            SELECT 'cust:' || lpad(CAST(o_custkey - o_custkey % 3
                                        AS VARCHAR), 8, '0') AS cust,
                   COUNT(*) AS n_orders
            FROM orders
            GROUP BY 1
        """,
        # same join as kg_bgp_orders_by_nation, evaluated over the
        # predicate-bucketed Parquet store with per-pattern pruning
        "kg_store_bgp_orders": """
            SELECT n_name AS name, COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        # 2-hop ball around nation:1 — every edge incident to the seed
        # or to a node of the seed's 1-hop edge set
        "kg_khop_nation": """
            WITH tri AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS subject,
                     'placed_by' AS predicate,
                     'cust:' || CAST(o_custkey AS VARCHAR) AS object
              FROM orders
              UNION ALL
              SELECT 'cust:' || CAST(c_custkey AS VARCHAR),
                     'in_nation',
                     'nation:' || CAST(c_nationkey AS VARCHAR)
              FROM customer
              UNION ALL
              SELECT 'nation:' || CAST(n_nationkey AS VARCHAR),
                     'has_name', n_name
              FROM nation
            ),
            e1 AS (SELECT * FROM tri
                   WHERE subject = 'nation:1' OR object = 'nation:1'),
            f1 AS (SELECT subject AS n FROM e1
                   UNION SELECT object FROM e1),
            e2 AS (SELECT * FROM tri
                   WHERE subject IN (SELECT n FROM f1)
                      OR object IN (SELECT n FROM f1))
            SELECT DISTINCT subject, predicate, object FROM e2
        """,
        # property path placed_by/in_nation/has_name ≡ the 3-way join
        "kg_sparql_path_order_nations": """
            SELECT n_name AS name, COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        # SPARQL UNION ≡ disjunctive predicate
        "kg_sparql_click_or_error_days": """
            SELECT DISTINCT 'user:' || CAST(user_id AS VARCHAR) AS u,
                            strftime(ts, '%Y-%m-%d')            AS d
            FROM events
            WHERE event_type IN ('click', 'error')
        """,
        # SPARQL SAMPLE (deterministic min) / GROUP_CONCAT(DISTINCT,
        # sorted) / COUNT(DISTINCT) ≡ MIN / ordered string_agg / COUNT
        "kg_sparql_sample_concat": """
            SELECT 'user:' || CAST(user_id AS VARCHAR)           AS u,
                   COUNT(DISTINCT strftime(ts, '%Y-%m-%d'))      AS n_days,
                   MIN(strftime(ts, '%Y-%m-%d'))                 AS first_day,
                   string_agg(DISTINCT strftime(ts, '%Y-%m-%d'), ','
                              ORDER BY strftime(ts, '%Y-%m-%d')) AS days
            FROM events
            WHERE event_type = 'purchase'
            GROUP BY user_id
        """,
        # SPARQL ORDER BY DESC + tiebreak + OFFSET/LIMIT ≡ SQL paging
        "kg_sparql_topk_offset": """
            SELECT n_name AS name, COUNT(*) AS n_orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation   ON c_nationkey = n_nationkey
            GROUP BY n_name
            ORDER BY n_orders DESC, name ASC
            OFFSET 3 LIMIT 5
        """,
        # ("in_nation"/"has_name")* from order-placing customers:
        # zero-length arm (the customer itself) ∪ the one composed hop
        "kg_sparql_star_reach": """
            WITH c AS (SELECT DISTINCT
                              'cust:' || CAST(o_custkey AS VARCHAR) AS c,
                              o_custkey
                       FROM orders)
            SELECT c AS c, c AS y FROM c
            UNION
            SELECT c.c AS c, n_name AS y
            FROM c
            JOIN customer ON c_custkey = c.o_custkey
            JOIN nation   ON n_nationkey = c_nationkey
        """,
        # chained OPTIONAL via per-binding substitution: bound rows
        # join their nation's name; unbound rows (the FILTER inside
        # the first OPTIONAL failed) are SPARQL-compatible with EVERY
        # (nation, name) pair → CROSS JOIN
        "kg_sparql_chained_optional": """
            WITH ord AS (
              SELECT 'order:' || CAST(o_orderkey AS VARCHAR) AS o,
                     'cust:'  || CAST(o_custkey  AS VARCHAR) AS c,
                     o_custkey
              FROM orders
              WHERE CAST(o_orderkey AS VARCHAR) LIKE '%00'),
            cn AS (SELECT c_custkey,
                          'nation:' || CAST(c_nationkey AS VARCHAR) AS n
                   FROM customer),
            names AS (SELECT 'nation:' || CAST(n_nationkey AS VARCHAR) AS n,
                             n_name
                      FROM nation),
            opt1 AS (SELECT ord.o, ord.c,
                            CASE WHEN cn.n LIKE 'nation:1%' THEN cn.n
                            END AS n
                     FROM ord JOIN cn ON cn.c_custkey = ord.o_custkey)
            SELECT opt1.o AS o, opt1.c AS c, names.n AS n,
                   names.n_name AS nm
            FROM opt1 JOIN names ON opt1.n = names.n
            WHERE opt1.n IS NOT NULL
            UNION ALL
            SELECT opt1.o, opt1.c, names.n, names.n_name
            FROM opt1 CROSS JOIN names
            WHERE opt1.n IS NULL
        """,
    }
