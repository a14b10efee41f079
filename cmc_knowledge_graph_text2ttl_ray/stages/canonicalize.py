"""Entity canonicalization: surface-form clustering + URI minting.

The reference mints URIs deterministically from surface text via the ``:iri``
template function (kg_text_to_ttl/text_to_turtle_processor.py:2658-2659), so
"ACME Corp" and "Acme Corp" produce *different* URIs. This stage — a
first-class engine addition required by the north rule — clusters those
variants and rewrites the graph onto one canonical URI per entity.

Scale design (SURVEY §7.4):

- The votes are the ``rec='entity'`` rows the extraction tasks emit: one
  (IRI, mention count) partial per entity per batch, so hot entities (one
  surface on 20% of pages) are collapsed before anything leaves the task
  and the mapping build never scans the triple table.
- Cluster key = case/whitespace-normalized local name; the canonical member
  is the highest total count, ties broken lexicographically
  (:func:`_argmax`, one pandas arg-max for both tiers).
- :func:`canonicalize_triples` is the one entry point. It gates on the
  entity row count against ``functions.cluster.BROADCAST_JOIN_ROWS``, the
  package's shared small-side gate:
  - at or below it, the vote rows are reduced on the driver and the
    mapping dict goes to the object store once (``ray.put``); every block
    rewrites itself with a dictionary-encode + map-unique-values pass, so
    the wide triple table is never shuffled;
  - above it, the mapping stays a Dataset
    (:func:`canonicalization_mapping_ds`, one exchange) and the rewrite is
    two left-outer hash joins (:func:`apply_canonical_mapping_join`).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from cmc_knowledge_graph_text2ttl_ray.functions import cluster

__all__ = [
    "canonicalize_triples",
    "canonicalization_mapping_ds",
    "mapping_from_entity_records",
    "apply_canonical_mapping",
    "apply_canonical_mapping_join",
    "detect_entity_salt",
]


def _local_name(iri_arr: pa.Array, namespace: str) -> pa.Array:
    return pc.utf8_slice_codeunits(iri_arr, len(namespace), 2**31 - 1)


def _norm_key(local: pa.Array) -> pa.Array:
    # lower-case + collapse duplicate '_' (slugs already replaced spaces etc.)
    lowered = pc.utf8_lower(local)
    return pc.replace_substring_regex(lowered, "_+", "_")


def _entity_votes(t: pa.Table, entity_ns: str) -> pa.Table:
    """rec='entity' rows → (key, iri, cnt) votes."""
    iri = t["subject"].combine_chunks().cast(pa.string())
    return pa.table({
        "key": _norm_key(_local_name(iri, entity_ns)),
        "iri": iri,
        "cnt": t["no_triples"].combine_chunks().cast(pa.int64()),
    })


def _argmax(votes: pd.DataFrame) -> pd.DataFrame:
    """(key, iri, cnt) votes → (iri, canonical) for every voted IRI,
    identity rows included: per key the max total count wins, the
    lexicographically smallest IRI breaks ties."""
    if votes.empty:
        return pd.DataFrame({"iri": pd.Series(dtype=object),
                             "canonical": pd.Series(dtype=object)})
    g = votes.groupby(["key", "iri"], as_index=False)["cnt"].sum()
    g = g.sort_values(["key", "cnt", "iri"], ascending=[True, False, True])
    canon = g.groupby("key", sort=False)["iri"].first().rename("canonical")
    out = g.merge(canon, left_on="key", right_index=True)
    return out[["iri", "canonical"]].reset_index(drop=True)


def _votes_ds(entity_ds, entity_ns: str):
    return entity_ds.map_batches(_entity_votes, batch_format="pyarrow",
                                 fn_kwargs={"entity_ns": entity_ns})


def mapping_from_entity_records(entity_ds, entity_ns: str) -> pd.DataFrame:
    """Build the mapping on the driver from rec='entity' rows."""
    return _argmax(_votes_ds(entity_ds, entity_ns).to_pandas())


def canonicalize_triples(triples_ds, entity_ds, entity_ns: str):
    """Rewrite ``triples_ds`` onto one canonical IRI per entity.

    ``entity_ds`` holds the extraction's rec='entity' rows. Returns
    ``(canonical_ds, mapping_df)``: ``mapping_df`` is the full mapping
    (identity rows included) on the broadcast tier and ``None`` on the
    join tier, where it never leaves the cluster.
    """
    # the row count IS the volume the broadcast tier collects to the
    # driver; on a Parquet checkpoint it is a metadata read
    if entity_ds.count() <= cluster.BROADCAST_JOIN_ROWS:
        mapping_df = mapping_from_entity_records(entity_ds, entity_ns)
        mapping = {r.iri: r.canonical for r in mapping_df.itertuples()
                   if r.iri != r.canonical}
        return apply_canonical_mapping(triples_ds, mapping), mapping_df
    mapping_ds = canonicalization_mapping_ds(entity_ds, entity_ns)
    return apply_canonical_mapping_join(triples_ds, mapping_ds), None


def apply_canonical_mapping(triples_ds, mapping: dict[str, str]):
    """Rewrite subject/object through the broadcast mapping (no shuffle).

    The mapping dict is placed in the object store ONCE with ``ray.put`` and
    referenced by every task (zero-copy reads per node — the broadcast
    small-side pattern), instead of riding inside the pickled closure;
    rewrite cost is O(distinct values per block) via dictionary encoding.
    """
    if not mapping:
        return triples_ds
    import ray

    mapping_ref = ray.put(mapping)

    def rewrite(batch: pa.Table) -> pa.Table:
        m = ray.get(mapping_ref)

        def rewrite_col(col: pa.ChunkedArray) -> pa.Array:
            arr = col.combine_chunks()
            d = pc.dictionary_encode(arr)
            uniques = d.dictionary.to_pylist()
            remapped = pa.array(
                [None if u is None else m.get(u, u) for u in uniques], pa.string()
            )
            return pc.take(remapped, d.indices)

        batch = batch.set_column(
            batch.column_names.index("subject"), "subject", rewrite_col(batch["subject"])
        )
        # only IRI objects are rewritten; literals can never collide with IRIs
        obj = rewrite_col(batch["object"])
        obj = pc.if_else(pc.equal(batch["object_kind"], "iri"), obj,
                         batch["object"].combine_chunks())
        return batch.set_column(batch.column_names.index("object"), "object", obj)

    return triples_ds.map_batches(rewrite, batch_format="pyarrow")


def canonicalization_mapping_ds(entity_ds, entity_ns: str):
    """Fully-distributed mapping build for the join tier: ONE exchange.
    The votes hash-partition by ``key`` alone, so each coarse task holds
    every (key, iri) vote of its keys and does the sum AND the per-key
    arg-max in one vectorized pass — a (key, iri) groupby().aggregate here
    would pay Ray's per-distinct-group overhead (see coarse_group_reduce)
    and still need a second exchange for the arg-max. Identity rows are
    dropped; nothing touches the driver."""

    def variants(g: pd.DataFrame) -> pd.DataFrame:
        out = _argmax(g)
        return out[out["iri"] != out["canonical"]]

    return cluster.coarse_group_reduce(_votes_ds(entity_ds, entity_ns),
                                       ["key"], variants)


def detect_entity_salt(triples_ds, hot_k: int = 64,
                       hot_min_rows: int = 1_000_000,
                       rows_per_salted_part: int = 200_000,
                       max_salt: int = 64) -> int:
    """Skew detection for the join-mode rewrite: a Misra-Gries sketch over
    every join key (subjects + IRI objects — constant exchange at any
    cardinality) finds entities whose GUARANTEED mention count
    (``min_count``, a lower bound, so no false positives) exceeds
    ``hot_min_rows``. Returns the salt factor: 1 = no hot entity, else
    enough ways to spread the hottest key at ~``rows_per_salted_part``
    rows per partition."""
    import numpy as np

    from cmc_knowledge_graph_text2ttl_ray.pipelines.sketches import (
        mg_heavy_hitters,
    )

    def keys(t: pa.Table) -> pa.Table:
        subj = t["subject"].combine_chunks().cast(pa.string())
        obj = t["object"].combine_chunks().cast(pa.string())
        obj = obj.filter(pc.equal(t["object_kind"].combine_chunks(), "iri"))
        return pa.table({"k": pa.concat_arrays(
            [subj.combine_chunks() if isinstance(subj, pa.ChunkedArray)
             else subj, obj])})

    sk = mg_heavy_hitters(
        triples_ds.map_batches(keys, batch_format="pyarrow"), "k", k=hot_k)
    hot = sk[sk["min_count"] >= hot_min_rows]
    if hot.empty:
        return 1
    import math

    return int(min(max_salt,
                   max(2, math.ceil(int(hot["min_count"].max())
                                    / rows_per_salted_part))))


def apply_canonical_mapping_join(triples_ds, mapping_ds,
                                 num_partitions: int | None = None,
                                 salt: int | str = "auto",
                                 hot_min_rows: int = 1_000_000):
    """Join-based rewrite for when the mapping itself is too large to
    broadcast: two left-outer hash joins (subject, then IRI objects) with a
    coalesce. Costs two shuffles of the triple table — use
    :func:`apply_canonical_mapping` (broadcast) whenever the mapping fits
    comfortably in a worker heap.

    Skew-aware salting (the north rule's hot-entity case — one entity on
    20% of pages would put 20% of the triple table in ONE join partition):
    ``salt="auto"`` runs :func:`detect_entity_salt` (one constant-exchange
    sketch pass); with salt factor S > 1 the triple side gets a round-robin
    ``_salt`` column, the mapping side is replicated ×S, and both joins key
    on ``(entity, _salt)`` — the hot key's rows spread across S partitions
    while output rows are byte-identical to the unsalted join (salt only
    moves WHERE a row is matched, never what it matches)."""
    if num_partitions is None:
        num_partitions = cluster.default_join_partitions()
    # COMPACT the mapping side first (kg_query._compact rationale): the
    # coarse-reduce mapping build leaves EMPTY blocks for coarse
    # partitions that held no entity keys, and Ray's hash shuffle
    # broadcasts each side's schema from its FIRST shuffled block only —
    # an empty first block skips the broadcast and pyarrow's join dies
    # with "No match ... for key field iri" (seen intermittently in the
    # full suite).  The mapping is variant-sized, far below the triple
    # table, so the materialize is the established small-side treatment.
    mapping_ds = mapping_ds.materialize()
    n_map = mapping_ds.count()
    if n_map == 0:
        return triples_ds  # nothing to rewrite
    mapping_ds = mapping_ds.repartition(
        max(1, min(200, -(-n_map // 50_000))))
    if salt == "auto":
        salt = detect_entity_salt(triples_ds, hot_min_rows=hot_min_rows)
    salt = max(1, int(salt))

    def coalesce(col: str):
        def f(t: pa.Table) -> pa.Table:
            if "_salt" in t.column_names:
                t = t.drop_columns(["_salt"])
            if "canonical" not in t.column_names:
                return t  # empty-schema block passthrough
            fixed = pc.coalesce(t["canonical"], t[col])
            if col == "object":
                fixed = pc.if_else(
                    pc.equal(t["object_kind"], "iri"), fixed, t[col]
                )
            t = t.drop_columns(["canonical"])
            return t.set_column(t.column_names.index(col), col, fixed)

        return f

    if salt > 1:
        import numpy as np

        def replicate(t: pa.Table) -> pa.Table:
            return pa.concat_tables(
                [t.append_column("_salt", pa.array([s] * t.num_rows,
                                                   pa.int64()))
                 for s in range(salt)])

        msalted = mapping_ds.map_batches(replicate, batch_format="pyarrow")

        def add_salt(t: pa.Table) -> pa.Table:
            if "_salt" in t.column_names:
                t = t.drop_columns(["_salt"])
            return t.append_column(
                "_salt", pa.array(np.arange(t.num_rows, dtype=np.int64)
                                  % salt))

        def joined(ds, col):
            return ds.map_batches(add_salt, batch_format="pyarrow").join(
                msalted, join_type="left_outer",
                num_partitions=num_partitions,
                on=(col, "_salt"), right_on=("iri", "_salt"),
            ).map_batches(coalesce(col), batch_format="pyarrow")

        return joined(joined(triples_ds, "subject"), "object")

    out = triples_ds.join(
        mapping_ds, join_type="left_outer", num_partitions=num_partitions,
        on=("subject",), right_on=("iri",),
    ).map_batches(coalesce("subject"), batch_format="pyarrow")
    out = out.join(
        mapping_ds, join_type="left_outer", num_partitions=num_partitions,
        on=("object",), right_on=("iri",),
    ).map_batches(coalesce("object"), batch_format="pyarrow")
    return out
