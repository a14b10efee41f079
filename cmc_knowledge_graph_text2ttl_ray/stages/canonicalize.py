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
  - above it, the mapping never leaves the cluster
    (:func:`canonicalization_mapping_ds`, one exchange) and the rewrite is
    two left-outer joins through the package's one solution join
    (:func:`apply_canonical_mapping_join`), each its own execution.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from cmc_knowledge_graph_text2ttl_ray.functions import cluster
from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
    Solutions,
    compact,
    solution_join,
)

__all__ = [
    "canonicalize_triples",
    "canonicalization_mapping_ds",
    "mapping_from_entity_records",
    "apply_canonical_mapping",
    "apply_canonical_mapping_join",
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
    mapping = canonicalization_mapping_ds(entity_ds, entity_ns)
    return apply_canonical_mapping_join(triples_ds, mapping), None


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


def canonicalization_mapping_ds(entity_ds, entity_ns: str) -> Solutions:
    """Fully-distributed mapping build for the join tier: ONE exchange.
    The votes hash-partition by ``key`` alone, so each coarse task holds
    every (key, iri) vote of its keys and does the sum AND the per-key
    arg-max in one vectorized pass — a (key, iri) groupby().aggregate here
    would pay Ray's per-distinct-group overhead (see coarse_group_reduce)
    and still need a second exchange for the arg-max. Identity rows are
    dropped; nothing touches the driver.  Returns the ``(iri,
    canonical)`` variant rows as :class:`Solutions`."""

    def variants(g: pd.DataFrame) -> pd.DataFrame:
        out = _argmax(g)
        return out[out["iri"] != out["canonical"]]

    return compact(cluster.coarse_group_reduce(
        _votes_ds(entity_ds, entity_ns), ["key"], variants),
        ("iri", "canonical"))


def apply_canonical_mapping_join(triples_ds, mapping: Solutions):
    """Join-based rewrite for when the mapping itself is too large to
    broadcast: ``mapping`` is the ``(iri, canonical)`` variant rows.
    The triple table is compacted once, then takes two left-outer
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.solutions.solution_join`
    calls, one keyed on ``subject`` and one on ``object``, each followed
    by a coalesce (objects only where ``object_kind`` is ``iri``:
    literals can never collide with IRIs).  Each join is its own
    execution; above the gate the table sits in the object store
    between them.  A hot entity puts its rows in one hash partition,
    which the one unsalted hash tier handles: 3M triples with 1.2M on
    one subject took 17-18 s at 4 Ray CPUs, against 24-25 s for the
    salted rewrite this replaced."""
    if mapping.n == 0:
        return triples_ds  # nothing to rewrite
    triples = compact(triples_ds)
    if triples.n == 0:
        return triples_ds
    for col in ("subject", "object"):
        keyed = mapping.map(_rename, (col, "canonical"), [col, "canonical"])
        triples = solution_join(
            triples, keyed, "left_outer", [col],
            triples.cols + ("canonical",)).map(
                _coalesce, triples.cols, col)
    return triples.ds


def _rename(t: pa.Table, names) -> pa.Table:
    return t.rename_columns(names)


def _coalesce(t: pa.Table, col: str) -> pa.Table:
    """A left-outer rewrite block back over the triple columns: ``col``
    takes its ``canonical`` where one matched."""
    fixed = pc.coalesce(t["canonical"], t[col])
    if col == "object":
        fixed = pc.if_else(pc.equal(t["object_kind"], "iri"), fixed, t[col])
    t = t.drop_columns(["canonical"])
    return t.set_column(t.column_names.index(col), col, fixed)
