"""Solution sets and the package's one hash join.

A :class:`Solutions` is a table held as the object refs of its non-empty
Arrow blocks, its column names and its exact row count.  Narrow
operators (scans of materialized sources, broadcast probes,
projections, padding, BIND / VALUES / FILTER) run as remote tasks on the
block refs (:meth:`Solutions.map`), each a few milliseconds, where a Ray
Data execution costs ~75 ms of fixed set-up.  Ray Data runs only the
wide operators and the lineage of lazy sources; :func:`compact` turns
their output back into block refs.  An empty set holds no blocks; its
:attr:`Solutions.ds` is a typed empty table.

:func:`solution_join` joins two sets on same-named key columns in two
tiers chosen by their exact row counts, and both tiers make the same
pyarrow join call, so they give the same rows:

- when the side that may be broadcast (the smaller one for an inner
  join, the right one otherwise) has at most
  ``functions.cluster.BROADCAST_JOIN_ROWS`` rows, one task concatenates
  it and every block of the other side joins it with ``pa.Table.join``
  in its own task — no shuffle, no aggregator actors;
- above the gate both sides go through Ray's distributed hash join
  (``Dataset.join``), partition count derived from the smaller side and
  the cluster (``default_join_partitions``).

Every SPARQL, inference and SHACL join, the build's canonical rewrite
and the dedup family's cluster labeling go through it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import pyarrow as pa

__all__ = ["Solutions", "compact", "solution_join"]


def _run_block(fn, block, *args):
    out = fn(_arrow_block(block), *args)
    return out, out.num_rows


@functools.cache
def _block_task():
    import ray

    return ray.remote(num_returns=2)(_run_block)


class Solutions(NamedTuple):
    """A solution set: ``blocks`` are the object refs of its non-empty
    Arrow tables, ``cols`` its columns (for a SPARQL set its variables,
    names without ``?``, known from the query — never read back from
    the blocks, whose columns are ``cols`` in this order) and ``n`` its
    exact row count."""

    blocks: tuple
    cols: tuple
    n: int

    @classmethod
    def empty(cls, cols):
        return cls((), tuple(cols), 0)

    @property
    def ds(self):
        """The set as a Dataset, for a wide operator or a caller outside
        the solution operators; an empty set is a typed empty table."""
        import ray.data

        if not self.blocks:
            return ray.data.from_arrow(_str_schema(self.cols).empty_table())
        return ray.data.from_arrow_refs(list(self.blocks))

    def map(self, fn, cols, *args) -> "Solutions":
        """``fn(block, *args) -> pa.Table`` as one remote task per block,
        giving the set over ``cols``.  Each task also returns its row
        count, so the result's ``n`` is exact; empty outputs are
        dropped.  Object refs in ``args`` reach ``fn`` as their values
        (Ray resolves top-level task arguments)."""
        if not self.blocks:
            return Solutions.empty(cols)
        import ray

        fn_ref = ray.put(fn)
        outs = [_block_task().remote(fn_ref, b, *args) for b in self.blocks]
        counts = ray.get([c for _, c in outs])
        return Solutions(tuple(t for (t, _), k in zip(outs, counts) if k),
                         tuple(cols), sum(counts))

    def select(self, cols) -> "Solutions":
        cols = tuple(cols)
        return self if cols == self.cols else self.map(_select, cols,
                                                       list(cols))


def _select(t: pa.Table, cols) -> pa.Table:
    return t.select(cols)


def _union(parts, cols) -> Solutions:
    """Bag union of solution sets whose blocks all have columns
    ``cols``: their block lists, concatenated."""
    return Solutions(tuple(b for p in parts for b in p.blocks), tuple(cols),
                     sum(p.n for p in parts))


def _str_schema(cols) -> pa.Schema:
    return pa.schema([(c, pa.string()) for c in cols])


def _arrow_block(block) -> pa.Table:
    """``block`` (Arrow or pandas) as an Arrow table; a column that a
    pandas hop typed ``null`` (all None) becomes a string column."""
    t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(
        block, preserve_index=False).replace_schema_metadata(None)
    if not any(pa.types.is_null(f.type) for f in t.schema):
        return t
    return pa.table({c: (t[c].cast(pa.string())
                         if pa.types.is_null(t[c].type) else t[c])
                     for c in t.column_names})


def _blocks(ds):
    """Refs and total rows of a Dataset's non-empty blocks, from the
    bundles of ``materialize()`` (which runs nothing for an already
    materialized Dataset)."""
    refs, n = [], 0
    for bundle in ds.materialize().iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows:
                refs.append(ref)
                n += meta.num_rows
    return tuple(refs), n


def compact(ds, cols=None) -> Solutions:
    """The output of a wide operator, or a lazy source's lineage, as
    :class:`Solutions` over ``cols``: ONE execution, whose bundles give
    the block refs and row counts.  A map fused into that execution
    turns every block into Arrow; empty blocks are dropped.  ``cols=None``
    takes the columns from the materialized output's schema, for a table
    whose columns only its source knows (the build's triple records)."""
    m = ds.map_batches(_arrow_block, batch_format="pyarrow",
                       batch_size=None).materialize()
    refs, n = _blocks(m)
    if cols is None:
        cols = m.schema().names if n else ()
    return Solutions(refs, tuple(cols), n)


def _reblock(s: Solutions):
    """``s`` as a Dataset of non-empty blocks, about 50k rows each, for
    ``Dataset.join``.  Ray's hash shuffle broadcasts each side's schema
    from its FIRST shuffled block only, and an empty first block
    silently skips the broadcast — data-less partitions then crash
    pyarrow's join with "No match for key field"
    (hash_shuffle.py::_shuffle_block's num_rows==0 early return).  So
    every hash-tier input goes through here."""
    return s.ds.repartition(max(1, min(200, -(-s.n // 50_000))))


def _concat_tables(*tables: pa.Table) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default")


@functools.cache
def _concat_task():
    import ray

    return ray.remote(_concat_tables)


def solution_join(left, right, join_type, on, cols,
                  num_partitions=None) -> Solutions:
    """Join two non-empty :class:`Solutions` on the same-named key
    columns ``on`` into the set over ``cols`` (a subset of the joined
    columns): ``join_type`` is ``inner``, ``left_outer``, ``left_anti``
    or ``left_semi``.

    Two tiers, same rows.  When the side that may be broadcast — the
    smaller one for ``inner``, only the right one otherwise — has at
    most ``functions.cluster.BROADCAST_JOIN_ROWS`` rows (read at call
    time), it takes :func:`_broadcast_join`: no Ray Data execution at
    all.  Otherwise it is a ``Dataset.join`` hash shuffle of the
    :func:`_reblock`-ed sides over ``num_partitions`` partitions
    (default: one per 50k rows of the smaller side, capped by
    ``default_join_partitions``), compacted back into block refs, so
    every hash join is its own execution."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster

    on = list(on)
    gate = cluster.BROADCAST_JOIN_ROWS
    if join_type == "inner" and left.n < right.n and left.n <= gate:
        return _broadcast_join(right, left, join_type, on, cols)
    if right.n <= gate:
        return _broadcast_join(left, right, join_type, on, cols)
    np_join = num_partitions or max(1, min(
        cluster.default_join_partitions(), -(-min(left.n, right.n) // 50_000)))
    # Ray sizes each join's aggregator actors at up to half the
    # cluster's CPUs, and the shuffle tasks that feed them each need a
    # CPU, so at 1-2 CPUs the tasks wait on the actors' reservation
    # forever.  The aggregators only buffer and finalize partitions;
    # they hold no CPU.
    joined = _reblock(left).join(
        _reblock(right), join_type=join_type, num_partitions=np_join,
        on=tuple(on), aggregator_ray_remote_args={"num_cpus": 0})
    return compact(joined.select_columns(list(cols)), cols)


def _broadcast_join(stream, small, join_type, on, cols) -> Solutions:
    """Broadcast tier of :func:`solution_join`: ONE task concatenates
    ``small``'s blocks into an object-store table (never fetched into
    the calling process), then one task per ``stream`` block joins it
    with ``pa.Table.join`` — the call Ray's hash join makes per
    partition, so null keys never match and keys coalesce alike.  The
    table reaches each probe as a top-level task argument, so Ray hands
    it over before the task starts instead of the task blocking on
    ``ray.get``."""
    table = _concat_task().remote(*small.blocks)
    return stream.map(_probe, cols, table, on,
                      join_type.replace("_", " "), list(cols))


def _probe(t: pa.Table, small: pa.Table, on, verb, cols) -> pa.Table:
    return t.join(small, keys=on, join_type=verb).select(cols)
