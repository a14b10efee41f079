"""Incremental KG construction: generation-based delta publishing.

The north-rule deployment is a continuously-crawled corpus: new page
shards arrive forever, and re-materializing the whole KG per shard is a
non-starter at 10^12 documents.  This module gives the KG the same
incremental story the dedup family already has
(``pipelines/dedup.py::new_shard_minhash_dedup``):

- ``kg_new_triples``  — triples present in a fresh extraction but NOT in
  the published KG (one-sided set difference; ONE hash exchange over
  pre-deduped rows, membership by FULL identity, never the 64-bit hash).
- ``publish_generation`` — write a delta as the next ``gen-NNNNN``
  directory under the KG root via the bucketed, manifest-resumable TTL
  sink.  ``sources/ttl.ttl_dataset`` reads the root recursively, so a KG
  is the UNION of its generations (LSM-style: append generations,
  compact offline by rewriting into one generation when desired).
- ``kg_incremental_update`` — the end-to-end shard step: extract from
  the new pages, diff against the published root, publish only the
  delta.  Cost per shard = extraction of the shard + one read of the
  published KG + one exchange sized by the two triple sets; the
  published corpus of PAGES is never re-extracted.

Reference parity note: the reference reruns its whole per-document batch
(kg_text_to_ttl runner) per invocation and overwrites per-doc TTL files
— the incremental semantics here (published KG = set union of emitted
triples; a rerun adds nothing) match its set-dedup output model
(rdflib Graph set semantics, text_to_turtle_processor.py:66-83).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["kg_new_triples", "publish_generation", "kg_incremental_update",
           "compact_generations", "kg_as_of", "list_generations"]

_GEN_PREFIX = "gen-"


def kg_new_triples(triples_ds, published_path: str,
                   num_partitions: int | None = None):
    """Rows of ``triples_ds`` whose (subject, predicate, object, kind,
    lang, datatype) identity does not occur in the published KG at
    ``published_path`` (a TTL shard dir / generation root / single file).

    Scale shape mirrors ``sources/ttl.kg_diff``: both sides pre-dedup
    in-block, co-locate on ``hash(identity) % P`` (ONE all-to-all), and
    the per-partition combine drops published identities vectorized —
    only the actual delta flows downstream."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import (
        _est_ttl_rows,
        ttl_dataset,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import (
        IDENTITY_COLS,
        add_identity_hash,
    )

    published = ttl_dataset(published_path)
    if num_partitions is None:
        num_partitions = default_coarse_partitions(
            max(_est_ttl_rows(published_path), 1))

    def tag(side: int):
        def pre(batch: pa.Table) -> pd.DataFrame:
            df = add_identity_hash(batch, keep_cols=IDENTITY_COLS)
            df = df.drop_duplicates(subset=IDENTITY_COLS)
            df["side"] = np.int64(side)
            df["part"] = (df["h"] % num_partitions).astype("int64")
            return df

        return pre

    both = published.map_batches(tag(0), batch_format="pyarrow").union(
        triples_ds.map_batches(tag(1), batch_format="pyarrow"))

    out_schema = pa.schema([(c, pa.string()) for c in IDENTITY_COLS])

    def keep_new(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(subset=IDENTITY_COLS + ["side"])
        # membership by FULL identity, not the 64-bit hash: birthday
        # collisions at billions of triples must not cancel a genuinely
        # new triple against an unrelated published one
        grp = g.groupby(IDENTITY_COLS, dropna=False, sort=False)["side"]
        new_only = (grp.transform("min") == 1)
        keep = g[new_only & (g["side"] == 1)]
        if keep.empty:
            return out_schema.empty_table()
        return pa.Table.from_pandas(keep[IDENTITY_COLS], schema=out_schema,
                                    preserve_index=False)

    return (both.groupby("part")
            .map_groups(keep_new, batch_format="pandas"))


def _next_generation(fs, base: str) -> str:
    from pyarrow.fs import FileSelector

    existing = []
    for info in fs.get_file_info(FileSelector(base, allow_not_found=True)):
        name = info.path.rsplit("/", 1)[-1]
        if name.startswith(_GEN_PREFIX) and name[len(_GEN_PREFIX):].isdigit():
            existing.append(int(name[len(_GEN_PREFIX):]))
    return f"{_GEN_PREFIX}{(max(existing) + 1 if existing else 0):05d}"


def publish_generation(triples_ds, kg_root: str,
                       prefixes: dict[str, str] | None = None,
                       num_buckets: int = 64,
                       compression: str | None = None,
                       filesystem=None) -> dict:
    """Write ``triples_ds`` as the next ``gen-NNNNN`` under ``kg_root``
    (bucketed deduped TTL shards + per-generation manifest).  Returns
    ``{"generation": name, "path": dir, "manifest": manifest}``."""
    from cmc_knowledge_graph_text2ttl_ray.functions import fsio
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_ttl_partitions,
    )

    fs, base = fsio.resolve_fs(kg_root, filesystem)
    fsio.makedirs(fs, base)
    gen = _next_generation(fs, base)
    gen_dir = fsio.fs_join(base, gen)
    manifest = write_ttl_partitions(
        triples_ds, gen_dir, prefixes=prefixes, num_buckets=num_buckets,
        compression=compression, filesystem=fs,
    )
    return {"generation": gen, "path": gen_dir, "manifest": manifest}


def list_generations(kg_root: str) -> list[str]:
    """Generation names under a KG root, oldest first."""
    import os

    if not os.path.isdir(kg_root):
        return []
    return sorted(n for n in os.listdir(kg_root)
                  if n.startswith(_GEN_PREFIX)
                  and n[len(_GEN_PREFIX):].isdigit())


def kg_as_of(kg_root: str, generation: str | int):
    """Time-travel read: the KG as of ``generation`` (inclusive) — the
    union of all generations up to it, i.e. exactly what
    ``ttl_dataset(kg_root)`` returned right after that generation was
    published.  ``generation`` is a name (``"gen-00002"``) or an int.
    Because generations are append-only and immutable, this is pure
    read-side filtering — no snapshot copies, the lineage story of the
    incremental pipeline.  Removal-aware: a root touched by
    ``pipelines/kg_update.sparql_update`` resolves tombstones up to the
    cutoff (``kg_update.kg_read``); append-only roots keep the pure
    union path."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import kg_read

    return kg_read(kg_root, generation)


def compact_generations(kg_root: str, out_root: str | None = None,
                        prefixes: dict[str, str] | None = None,
                        num_buckets: int = 64,
                        compression: str | None = None) -> dict:
    """Rewrite the union of all generations under ``kg_root`` as a single
    ``gen-00000`` under ``out_root`` (default ``<kg_root>.compacted``) —
    the LSM compaction step once read amplification (many small
    generations) outweighs rewrite cost.  Non-destructive: the caller
    swaps the roots after validating (an in-place directory swap is not
    atomic across filesystems, so the engine never deletes the old root
    itself).  The sink's fused dedup shuffle collapses any triple
    republished across generations, and the removal-aware read folds
    ``sparql_update`` tombstones away — a compacted root is pure adds
    again.  Returns the ``publish_generation`` dict plus
    ``out_root``."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import kg_read

    out_root = out_root or kg_root.rstrip("/") + ".compacted"
    pub = publish_generation(kg_read(kg_root), out_root,
                             prefixes=prefixes, num_buckets=num_buckets,
                             compression=compression)
    pub["out_root"] = out_root
    return pub


def kg_incremental_update(pages_ds, kg_root: str,
                          prefixes: dict[str, str] | None = None,
                          num_buckets: int = 64,
                          compression: str | None = None,
                          min_new_triples: int = 1,
                          store_dir: str | None = None,
                          **kg_kwargs) -> dict:
    """One crawl-shard step: extract triples from ``pages_ds``, keep only
    those absent from the published KG at ``kg_root``, publish the delta
    as a new generation (skipped when the delta has fewer than
    ``min_new_triples`` rows — an all-duplicate shard appends nothing).

    ``store_dir``: optionally keep a predicate-bucketed Parquet
    :class:`~cmc_knowledge_graph_text2ttl_ray.sources.triple_store.TripleStore` in step
    with the generation log — the delta rows are APPENDED (new files in
    the partition dirs, nothing rewritten), so the query-optimized
    layout never needs a rebuild.

    Returns ``{"new_triples": Dataset (materialized), "n_new": int,
    "generation": str | None, "path": str | None}``."""
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

    result = run_kg_pipeline(pages_ds, **kg_kwargs)
    has_published = os.path.isdir(kg_root) and any(
        name.startswith(_GEN_PREFIX) for name in os.listdir(kg_root))
    new = (kg_new_triples(result["triples"], kg_root)
           if has_published else
           result["triples"].select_columns(
               ["subject", "predicate", "object", "object_kind",
                "object_lang", "object_datatype"]))
    # the delta both gates publishing (count) and feeds the sink: pin it
    # once — it is bounded by the SHARD's novel-triple count, not the KG
    new = new.materialize()
    n_new = new.count()
    if n_new < min_new_triples:
        return {"new_triples": new, "n_new": n_new,
                "generation": None, "path": None}
    pub = publish_generation(new, kg_root, prefixes=prefixes,
                             num_buckets=num_buckets,
                             compression=compression)
    if store_dir is not None:
        from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
            write_triple_store,
        )

        write_triple_store(
            new, store_dir,
            append=os.path.isfile(
                os.path.join(store_dir, "_predicates.json")))
    return {"new_triples": new, "n_new": n_new,
            "generation": pub["generation"], "path": pub["path"]}
