"""Entity canonicalization: surface-form clustering + URI minting.

The reference mints URIs deterministically from surface text via the ``:iri``
template function (kg_text_to_ttl/text_to_turtle_processor.py:2658-2659), so
"ACME Corp" and "Acme Corp" produce *different* URIs. This stage — a
first-class engine addition required by the north rule — clusters those
variants and rewrites the graph onto one canonical URI per entity.

Scale design (SURVEY §7.4):

- Cluster key = case/whitespace-normalized local name.
- The candidate table is built with a two-level aggregate:
  (1) per-batch partial counts inside ``map_batches`` (combiner — cuts the
      shuffle to distinct (key, iri) pairs per block, not per mention), then
  (2) ``groupby(key, iri).sum`` + ``groupby(key)`` arg-max. Hot entities
      (one surface on 20% of pages) are therefore already collapsed to ONE
      row per block before any shuffle — the classic salting concern applies
      to mention *rows*, which never enter the shuffle here.
- The finished mapping (distinct entities, small by construction) is
  broadcast via ``ray.put`` once and applied inside ``map_batches`` with a
  dictionary-encode + map-unique-values rewrite, so the wide triple table is
  never shuffled at all for the rewrite.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "canonicalization_mapping",
    "canonicalization_mapping_ds",
    "mapping_from_entity_records",
    "apply_canonical_mapping",
    "apply_canonical_mapping_join",
    "detect_entity_salt",
    "canonicalize_entities",
]


def _local_name(iri_arr: pa.Array, namespace: str) -> pa.Array:
    return pc.utf8_slice_codeunits(iri_arr, len(namespace), 2**31 - 1)


def _norm_key(local: pa.Array) -> pa.Array:
    # lower-case + collapse duplicate '_' (slugs already replaced spaces etc.)
    lowered = pc.utf8_lower(local)
    return pc.replace_substring_regex(lowered, "_+", "_")


def canonicalization_mapping(triples_ds, entity_ns: str):
    """Build the variant→canonical IRI mapping as a small pandas DataFrame.

    ``triples_ds`` is the extraction-record dataset; every IRI in ``subject``
    or ``object`` under ``entity_ns`` is a mention vote. Canonical member =
    highest total count, ties broken lexicographically (deterministic).
    """

    def partial_counts(batch: pa.Table) -> pa.Table:
        cols = []
        subj = batch["subject"]
        cols.append(subj.filter(pc.starts_with(subj, entity_ns)).combine_chunks())
        obj = batch["object"]
        is_ent_obj = pc.and_(
            pc.equal(batch["object_kind"], "iri"), pc.starts_with(obj, entity_ns)
        )
        cols.append(obj.filter(is_ent_obj).combine_chunks())
        iris = pa.concat_arrays([c.cast(pa.string()) for c in cols])
        if len(iris) == 0:
            return pa.table(
                {"key": pa.array([], pa.string()), "iri": pa.array([], pa.string()),
                 "cnt": pa.array([], pa.int64())}
            )
        counts = iris.value_counts()  # per-batch combiner
        variants = counts.field("values")
        key = _norm_key(_local_name(variants, entity_ns))
        return pa.table({"key": key, "iri": variants, "cnt": counts.field("counts").cast(pa.int64())})

    partial = triples_ds.map_batches(partial_counts, batch_format="pyarrow")
    # The partials are DISTINCT (key, iri) pairs per block — small by
    # construction — so the final combine is a driver-side pandas groupby
    # instead of a Ray shuffle (one less all-to-all; at extreme entity
    # cardinality switch back to partial.groupby(["key","iri"]).sum("cnt")).
    pdf = partial.to_pandas()
    if pdf.empty:
        return pd.DataFrame(columns=["iri", "canonical"])
    col = "cnt"
    pdf = pdf.groupby(["key", "iri"], as_index=False)["cnt"].sum()
    # Arg-max per key: max count, then lexicographically smallest IRI.
    pdf = pdf.sort_values(["key", col, "iri"], ascending=[True, False, True])
    canon = pdf.groupby("key", sort=False).first().rename(columns={"iri": "canonical"})
    out = pdf.merge(canon["canonical"], left_on="key", right_index=True)
    return out[["iri", "canonical"]].reset_index(drop=True)


def _argmax_mapping(pdf: pd.DataFrame, entity_ns: str) -> pd.DataFrame:
    """(iri, cnt) rows → variant→canonical mapping (max count, lex-min ties)."""
    if pdf.empty:
        return pd.DataFrame(columns=["iri", "canonical"])
    import pyarrow as _pa

    iri_arr = _pa.array(pdf["iri"], _pa.string())
    pdf = pdf.assign(key=_norm_key(_local_name(iri_arr, entity_ns)).to_pylist())
    pdf = pdf.groupby(["key", "iri"], as_index=False)["cnt"].sum()
    pdf = pdf.sort_values(["key", "cnt", "iri"], ascending=[True, False, True])
    canon = pdf.groupby("key", sort=False).first().rename(columns={"iri": "canonical"})
    out = pdf.merge(canon["canonical"], left_on="key", right_index=True)
    return out[["iri", "canonical"]].reset_index(drop=True)


def mapping_from_entity_records(records_ds, entity_ns: str) -> pd.DataFrame:
    """Build the mapping from rec='entity' partial-count rows emitted by the
    extraction tasks — no extra pass over the triple table."""
    def _ent(t: pa.Table) -> pa.Table:
        # A rec-partitioned checkpoint read arrives pre-filtered without the
        # rec column; mixed record streams still carry it.
        if "rec" in t.column_names:
            t = t.filter(pc.equal(t["rec"], "entity"))
        return pa.table({"iri": t["subject"], "cnt": t["no_triples"]})

    ent = records_ds.map_batches(_ent, batch_format="pyarrow")
    return _argmax_mapping(ent.to_pandas(), entity_ns)


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


def canonicalization_mapping_ds(records_ds, entity_ns: str,
                                num_coarse: int | None = 32):
    """Fully-DISTRIBUTED mapping build (the 100-TB path; round-1 verdict:
    the driver-side pandas arg-max caps out when distinct surface forms run
    to billions). ONE exchange: rec='entity' partial rows hash-partition by
    ``key`` alone, so each coarse task holds every (key, iri) vote of its
    keys and does the sum AND the per-key arg-max in the same vectorized
    pass — a (key, iri) groupby().aggregate here would pay Ray's
    per-distinct-group overhead (see coarse_group_reduce) and still need a
    second exchange for the arg-max. Nothing touches the driver."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    def ent_rows(t: pa.Table) -> pa.Table:
        ent = (t.filter(pc.equal(t["rec"], "entity"))
               if "rec" in t.column_names else t)
        iri = ent["subject"].combine_chunks().cast(pa.string())
        return pa.table({
            "key": _norm_key(_local_name(iri, entity_ns)),
            "iri": iri,
            "cnt": ent["no_triples"].combine_chunks().cast(pa.int64()),
        })

    def sum_argmax(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized arg-max over ALL keys of the coarse partition at once:
        # max count, lexicographically-smallest IRI tie-break
        if g.empty:
            return pd.DataFrame({"iri": pd.Series(dtype=object),
                                 "canonical": pd.Series(dtype=object)})
        g = g.groupby(["key", "iri"], as_index=False)["cnt"].sum()
        g = g.sort_values(["key", "cnt", "iri"], ascending=[True, False, True])
        canon = g.groupby("key", sort=False)["iri"].first().rename("canonical")
        out = g.merge(canon, left_on="key", right_index=True)
        out = out[out["iri"] != out["canonical"]]
        return out[["iri", "canonical"]]

    return coarse_group_reduce(
        records_ds.map_batches(ent_rows, batch_format="pyarrow"),
        ["key"], sum_argmax, num_coarse=num_coarse,
    )


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
        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import default_join_partitions

        num_partitions = default_join_partitions()
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


def canonicalize_entities(triples_ds, entity_ns: str):
    """Full canonicalization: mapping build (small shuffle) + broadcast
    rewrite. Returns (rewritten_ds, mapping_df)."""
    mapping_df = canonicalization_mapping(triples_ds, entity_ns)
    mapping = {
        r.iri: r.canonical
        for r in mapping_df.itertuples()
        if r.iri != r.canonical
    }
    return apply_canonical_mapping(triples_ds, mapping), mapping_df
