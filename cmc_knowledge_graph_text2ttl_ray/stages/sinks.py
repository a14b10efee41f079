"""Sinks: bucketed Turtle / N-Quads / TriG / JSON-LD shard writers with
manifest-based resume.

Replaces the reference's ``FileOutputHandler.write_turtle`` (one TTL per
document, kg_text_to_ttl/text_to_turtle_processor.py:66-83) with a
partitioned layout fit for 100 TB runs. The public writers are thin
callers of one private writer, :func:`_write_buckets`, which they hand
their identity columns, bucket columns, serializer, extension and
manifest count key:

- Rows are bucketed by ``hash(bucket columns) % num_buckets`` — one output
  shard per bucket, written independently, so a failed run resumes by
  skipping buckets already recorded in ``manifest.json`` (north rule:
  per-partition checkpoints + lineage). A layout change (format, or
  plain ↔ gzip) invalidates the whole manifest.
- **Dedup is fused into the bucket shuffle**: identical rows hash to the
  same bucket, so an in-block pre-dedup before the exchange plus a
  vectorized in-group ``drop_duplicates`` (and the serializer's set
  semantics) give global exact dedup with ONE all-to-all exchange.
- Within a bucket the serializer sorts the rows, so shard bytes are
  deterministic regardless of partitioning / execution order.
- All I/O goes through ``pyarrow.fs``: ``out_dir`` may be a local path, an
  ``s3://``/``file://`` URI, or an fs-relative path paired with an injected
  ``filesystem``. The resolved filesystem is pickled into the write tasks,
  so every shard lands on the SAME storage regardless of which node runs
  it (round-2 verdict: worker-local ``open()`` fragments shards).
"""

from __future__ import annotations

import functools
import gzip
import json
import re

import pandas as pd
import pyarrow as pa

from cmc_knowledge_graph_text2ttl_ray.functions import fsio

from cmc_knowledge_graph_text2ttl_ray.functions.turtle import serialize_triples
from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import IDENTITY_COLS

__all__ = ["write_ttl_partitions", "write_ttl_per_doc", "read_manifest",
           "write_quad_partitions", "write_jsonld_partitions",
           "records_to_quads", "mint_graph_iri", "QUAD_IDENTITY_COLS"]


def read_manifest(out_dir: str, filesystem=None) -> dict:
    fs, base = fsio.resolve_fs(out_dir, filesystem)
    path = fsio.fs_join(base, "manifest.json")
    if fsio.exists(fs, path):
        return json.loads(fsio.read_text(fs, path))
    return {"buckets": {}}


def _rows(df: pd.DataFrame, cols: list[str]) -> list[tuple]:
    """DataFrame → row tuples over ``cols`` for the serializers: a missing
    lang / datatype is ``None``, a missing graph ``""`` (default graph)."""

    def values(c: str):
        col = df[c]
        if c in ("object_lang", "object_datatype", "graph"):
            # astype(object) FIRST: on a float64 all-missing column,
            # .where(..., None) keeps NaN (float64 can't hold None) and
            # would leak '@nan' lang tags into the output
            col = col.astype(object).where(col.notna(),
                                           "" if c == "graph" else None)
        return col.to_numpy()

    # zip over numpy object arrays ≈ 5× faster than itertuples+isna
    return list(zip(*(values(c) for c in cols)))


def _write_buckets(ds, out_dir: str, *, identity_cols: list[str],
                   bucket_cols: str | list[str], serialize, ext: str,
                   count_key: str, layout: dict, num_buckets: int,
                   resume: bool, filesystem) -> dict:
    """The shared bucketed writer: one exchange on ``hash(bucket_cols) %
    num_buckets``, one exactly-deduped ``part-NNNNN{ext}[.gz]`` shard per
    bucket, and ``manifest.json`` (bucket → ``count_key`` + path, plus the
    ``layout`` tags; ``compression: "gzip"`` among them gzips the shards).
    Returns the manifest.

    A single column name hashes as a Series, a list as a DataFrame: the
    two give different values, and each format's bucket layout is fixed
    by the one it has always used."""
    fs, base = fsio.resolve_fs(out_dir, filesystem)
    fsio.makedirs(fs, base)
    manifest = read_manifest(out_dir, filesystem) if resume else {"buckets": {}}
    # A layout change invalidates the whole manifest: otherwise resume
    # would skip every bucket and silently keep the old layout, and a
    # partial rewrite would leave BOTH part-N.ttl and part-N.ttl.gz for
    # the readers to double-read (round-3 review). A manifest without a
    # compression tag predates gzip shards, so it is plain.
    if any(manifest.get(k, "none" if k == "compression" else v) != v
           for k, v in layout.items()):
        manifest = {"buckets": {}}
    manifest.update(layout)
    done = set(manifest["buckets"])
    gz = layout.get("compression") == "gzip"

    def pre(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        # tolerate minimal sources (no lang/datatype columns)
        for c in identity_cols:
            if c not in df.columns:
                df[c] = None
        df = df[identity_cols].copy()
        h = pd.util.hash_pandas_object(df[bucket_cols], index=False).to_numpy()
        df["bucket"] = (h % num_buckets).astype("int64")
        return df.drop_duplicates(subset=identity_cols)

    def write_group(group: pd.DataFrame) -> pd.DataFrame:
        bucket = int(group["bucket"].iloc[0])
        if str(bucket) in done:
            return pd.DataFrame({"bucket": [bucket], "n": [-1], "path": [""]})
        rows = _rows(group.drop_duplicates(subset=identity_cols),
                     identity_cols)
        data = serialize(rows).encode("utf-8")
        name = f"part-{bucket:05d}{ext}"
        # drop the other layout's shard for this bucket, if a previous run
        # wrote it — the readers take both extensions
        try:
            fs.delete_file(fsio.fs_join(
                base, name + ("" if gz else ".gz")))
        except OSError:
            pass
        if gz:
            # text compresses 8-10×; on disk/network-bound storage the
            # sink is bandwidth-limited (mtime=0: bytes stay deterministic)
            name += ".gz"
            data = gzip.compress(data, mtime=0)
        path = fsio.fs_join(base, name)
        fsio.replace_bytes(fs, path, data)  # atomic per-partition commit
        return pd.DataFrame({"bucket": [bucket], "n": [len(set(rows))],
                             "path": [path]})

    written = (ds.map_batches(pre, batch_format="pyarrow")
               .groupby("bucket")
               .map_groups(write_group, batch_format="pandas").to_pandas())
    for r in written.itertuples():
        if r.n >= 0:
            manifest["buckets"][str(int(r.bucket))] = {count_key: int(r.n),
                                                       "path": r.path}
    fsio.replace_text(fs, fsio.fs_join(base, "manifest.json"),
                      json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def write_ttl_partitions(
    triples_ds,
    out_dir: str,
    prefixes: dict[str, str] | None = None,
    num_buckets: int = 64,
    resume: bool = True,
    filesystem=None,
    compression: str | None = None,
) -> dict:
    """Write the triple dataset as bucketed, exactly-deduped TTL shards.

    Returns the manifest dict (bucket → n_triples + path). Buckets present
    in an existing manifest are skipped when ``resume``;
    ``compression="gzip"`` writes ``.ttl.gz`` shards, which ``ttl_dataset``
    reads back.
    """
    return _write_buckets(
        triples_ds, out_dir, identity_cols=IDENTITY_COLS,
        bucket_cols=IDENTITY_COLS,
        serialize=functools.partial(serialize_triples, prefixes=prefixes),
        ext=".ttl", count_key="n_triples",
        layout={"compression": compression or "none"},
        num_buckets=num_buckets, resume=resume, filesystem=filesystem)


def write_ttl_per_doc(records_ds, out_dir: str, prefixes: dict[str, str] | None = None,
                      ttl_format: str = "turtle", filesystem=None):
    """Reference-parity output layout: one ``<doc>.ttl`` per document
    (FileOutputHandler.write_turtle, text_to_turtle_processor.py:66-83 +
    runner :409-410), with rdflib-style set-dedup *within* the document.
    ``ttl_format="longturtle"`` emits the reference's longturtle STYLE
    (processor.py:80) via
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.turtle.serialize_longturtle`.

    Intended for small corpora / drop-in compatibility; the scalable layout
    is :func:`write_ttl_partitions`. One task per group of documents; file
    name = cleaned basename of the url.
    """
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import serialize_longturtle
    from cmc_knowledge_graph_text2ttl_ray.stages.triples import clean_doc_name

    serializer = serialize_longturtle if ttl_format == "longturtle" else serialize_triples
    fs, base = fsio.resolve_fs(out_dir, filesystem)
    fsio.makedirs(fs, base)
    prefixes = prefixes or {}

    def write_docs(part: pd.DataFrame) -> pd.DataFrame:
        # one task per COARSE PARTITION of documents (hash(doc_url)), not
        # per doc — Ray's sort-based map_groups pays ~1 ms per distinct
        # group; the per-doc work here is only the inherent file write
        part = part[part["rec"] == "triple"]
        urls, paths, counts = [], [], []
        for url, group in part.groupby("doc_url", sort=False):
            rows = _rows(group, IDENTITY_COLS)
            name = clean_doc_name(url.rsplit("/", 1)[-1] or url)
            path = fsio.fs_join(base, f"{name}.ttl")
            fsio.write_text(fs, path, serializer(rows, prefixes))
            urls.append(url)
            paths.append(path)
            counts.append(len(set(rows)))
        return pd.DataFrame({"doc_url": urls, "path": paths,
                             "n_triples": counts})

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    return coarse_group_reduce(records_ds, ["doc_url"], write_docs)


# --------------------------------------------------------------------------
# Named-graph (quad) sinks — N-Quads + TriG
# --------------------------------------------------------------------------
#
# The reference keeps document provenance in the OUTPUT FILE NAME (one TTL
# per document, text_to_turtle_processor.py:66-83).  The engine's scalable
# equivalent is a named graph per document: ``records_to_quads`` mints a
# graph IRI from ``doc_url`` and the quad sinks below reuse the bucketed
# manifest-resume writer of ``write_ttl_partitions`` (same determinism,
# same fused dedup, identity now INCLUDES the graph: the same triple
# asserted by two documents is two distinct quads).

QUAD_IDENTITY_COLS = IDENTITY_COLS + ["graph"]

_RE_ABS_IRI = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*:")
_RE_BAD_IRI_CHAR = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def mint_graph_iri(url: str) -> str:
    """doc_url → named-graph IRI: an absolute IRI with no forbidden
    characters passes through; anything else (relative paths, spaces)
    is %-encoded under ``urn:graft:doc:`` so every minted value is a
    valid N-Quads IRIREF."""
    from urllib.parse import quote

    if url and _RE_ABS_IRI.match(url) and not _RE_BAD_IRI_CHAR.search(url):
        return url
    return "urn:graft:doc:" + quote(url or "", safe="")


def records_to_quads(records_ds):
    """Extraction-record rows (``rec == 'triple'``) → quad rows with a
    ``graph`` column minted from ``doc_url`` (vectorized)."""

    def to_quads(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # a pre-filtered triple source (e.g. the hive `rec=triple`
        # checkpoint partition) carries no `rec` column — pass through
        if "rec" in t.column_names:
            t = t.filter(pc.equal(t["rec"], "triple"))
        # mint once per DISTINCT url in the block (many triples per doc),
        # then a vectorized dictionary lookup
        urls = t["doc_url"]
        uniq = pc.unique(urls).to_pylist()
        lut = {u: mint_graph_iri(u) for u in uniq}
        graphs = pa.array((lut[u] for u in urls.to_pylist()),
                          type=pa.string(), size=len(t))
        keep = t.select([c for c in IDENTITY_COLS])
        return keep.append_column("graph", graphs)

    return records_ds.map_batches(to_quads, batch_format="pyarrow")


def write_quad_partitions(
    quads_ds,
    out_dir: str,
    fmt: str = "nquads",
    prefixes: dict[str, str] | None = None,
    num_buckets: int = 64,
    resume: bool = True,
    filesystem=None,
    compression: str | None = None,
) -> dict:
    """Write a quad dataset as bucketed, exactly-deduped shards.

    ``fmt="nquads"`` buckets by full quad identity (line-oriented output:
    any quad may live in any shard).  ``fmt="trig"`` buckets by
    ``hash(graph)`` ONLY, so each named graph is contiguous in exactly one
    shard — the property a reader needs to process a graph (= document)
    without touching other shards.  Both share the TTL sink's guarantees:
    manifest resume per bucket, deterministic shard bytes independent of
    partitioning, one all-to-all exchange with dedup fused into it.
    """
    from cmc_knowledge_graph_text2ttl_ray.functions.nquads import (
        serialize_nquads,
        serialize_trig,
    )

    if fmt not in ("nquads", "trig"):
        raise ValueError(f"fmt must be 'nquads' or 'trig', got {fmt!r}")
    if fmt == "nquads":
        bucket_cols, ext, serialize = (QUAD_IDENTITY_COLS, ".nq",
                                       serialize_nquads)
    else:
        bucket_cols, ext = "graph", ".trig"
        serialize = functools.partial(serialize_trig, prefixes=prefixes)
    return _write_buckets(
        quads_ds, out_dir, identity_cols=QUAD_IDENTITY_COLS,
        bucket_cols=bucket_cols, serialize=serialize, ext=ext,
        count_key="n_quads",
        layout={"compression": compression or "none", "format": fmt},
        num_buckets=num_buckets, resume=resume, filesystem=filesystem)


def write_jsonld_partitions(
    triples_ds,
    out_dir: str,
    num_buckets: int = 64,
    resume: bool = True,
    filesystem=None,
) -> dict:
    """Bucketed, exactly-deduped expanded-JSON-LD shards — the third
    sink format beside TTL and N-Quads/TriG, same manifest-resume and
    pyarrow.fs contracts as :func:`write_ttl_partitions` (expanded form
    is context-free, so shards concatenate into one dataset by simple
    union)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.jsonld import (
        serialize_jsonld,
    )

    return _write_buckets(
        triples_ds, out_dir, identity_cols=IDENTITY_COLS,
        bucket_cols=IDENTITY_COLS, serialize=serialize_jsonld,
        ext=".jsonld", count_key="n_triples", layout={"format": "jsonld"},
        num_buckets=num_buckets, resume=resume, filesystem=filesystem)
