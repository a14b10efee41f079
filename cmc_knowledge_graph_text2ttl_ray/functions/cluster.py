"""Small cluster-sizing helpers shared across pipelines."""

from __future__ import annotations

__all__ = ["sized_read_parquet",
           "default_join_partitions", "default_coarse_partitions",
           "BROADCAST_JOIN_ROWS",
           "sorted_lookup",
           "parquet_rows_hint"]


def parquet_rows_hint(path: str, column: str | None = None,
                      per_row_bytes: int | None = None) -> int:
    """Cheap (metadata-only) row-count hint for sizing coarse partitions.

    Plain: the parquet row count. With ``column`` + ``per_row_bytes``:
    an estimate for TOKEN-MULTIPLIED derived tables (exploded spans,
    word rows) — the column's total uncompressed byte size divided by the
    expected bytes per derived row, floored at the row count. This is what
    lets span/word coarse reduces scale their partition count with the
    DERIVED cardinality (corpus tokens), not the document count."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = (sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                              recursive=True))
             if os.path.isdir(path) else [path])
    n_rows, total = 0, 0
    for f in files:
        md = pq.read_metadata(f)
        n_rows += md.num_rows
        if column is None or per_row_bytes is None:
            continue
        try:
            ci = md.schema.names.index(column)
        except ValueError:
            continue
        for rg in range(md.num_row_groups):
            total += md.row_group(rg).column(ci).total_uncompressed_size
    if column is None or per_row_bytes is None or total == 0:
        return n_rows
    return max(n_rows, total // max(1, per_row_bytes))


def sorted_lookup(keys, queries):
    """Vectorized membership + position lookup into a SORTED key array:
    ``(found_mask, positions)``; positions are meaningful only where
    ``found_mask`` is True.

    This is the broadcast-dimension join idiom (searchsorted → clip →
    equality check) used by every `q*` shape that ships a small sorted
    side via ``ray.put``. Centralized because two hand-rolled copies
    shipped without the equality check or the empty-array guard — an
    absent key silently matched its nearest neighbor (round-3 review)."""
    import numpy as np

    q = np.asarray(queries)
    if len(keys) == 0:
        return np.zeros(len(q), dtype=bool), np.zeros(len(q), dtype=np.int64)
    pos = np.clip(np.searchsorted(keys, q), 0, len(keys) - 1)
    return np.asarray(keys)[pos] == q, pos


def sized_read_parquet(path: str, columns=None,
                       rows_per_block: int = 50_000):
    """``read_parquet`` with ``override_num_blocks`` derived from the
    file's metadata row count (ceil(rows / rows_per_block), floor 1).

    Ray's default splits EVERY read into ~2×CPU blocks regardless of
    size, so a pipeline that unions several small-table reads schedules
    hundreds of sub-millisecond tasks and its first all-to-all pays
    seconds of pure scheduling (measured: a 6-branch union of 48-block
    reads put 336 blocks into one Sort — 11.5 s wall for 2 s of task
    time). Deriving the block count from the data keeps small inputs to
    a handful of tasks while big inputs still split by rows."""
    import ray
    import ray.data

    try:
        n = int(parquet_rows_hint(path))
    except Exception:
        return ray.data.read_parquet(path, columns=columns)
    cpus = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    # small tables: one block per ~2k rows up to the default ~2xCPU;
    # large tables: never fewer than ceil(rows / rows_per_block), so the
    # 100-TB read still splits by data volume, not cluster size
    blocks = max(-(-n // rows_per_block),
                 min(2 * cpus, max(1, -(-n // 2_000))))
    return ray.data.read_parquet(path, columns=columns,
                                 override_num_blocks=blocks)


def default_join_partitions(divisor: int = 4, floor: int = 2) -> int:
    """Join/aggregator partition count derived from the cluster: each
    ``ds.join`` spawns one HashShuffleAggregator actor per partition, so
    the pool must stay well under the CPU count or it starves the rest of
    the pipeline (observed deadlocks on small clusters)."""
    import ray

    return max(floor, int(ray.cluster_resources().get("CPU", 8)) // divisor)


# Solution joins (functions/solutions.py::solution_join) whose broadcastable
# side has at most this many rows skip the hash shuffle: that side goes to
# the object store once and every block of the other side probes it with
# ``pa.Table.join``. Measured crossover (inner join of two compacted
# 2-column string tables, Ray at 2 CPUs on a 4-vCPU host, broadcast vs
# hash shuffle, median wall of 2-3 interleaved runs): broadcast is
# faster for every small side up to 800k rows (800k vs 0.8M / 3.2M /
# 6.4M streamed rows: 3.7 vs 9.4 s, 14.4 vs 24.4 s, 24.4 vs 34.6 s;
# 100k vs 1.6M: 1.6 vs 9.4 s); at 1.6M they tie against a 3.2M stream
# (25.7 vs 26.0 s) and at 3.2M the shuffle wins (56 vs 37 s), because
# every probe block rebuilds the small side's hash table. 0 disables
# the tier. The same gate picks the build's canonical rewrite
# (stages/canonicalize.py::canonicalize_triples): at most this many
# rec='entity' rows take the ray.put dict rewrite, more take two solution
# joins. Read at call time, so a test can monkeypatch it.
BROADCAST_JOIN_ROWS = 800_000


def default_coarse_partitions(n_rows: int, rows_per_part: int = 200_000,
                              floor: int | None = None) -> int:
    """Coarse-partition count for groupby().map_groups self-merge stages
    (MinHash/SimHash candidate generation): each partition is processed by
    ONE task, so the count must grow with the data — a constant means a
    task holding n_rows/constant rows, linear in corpus size (round-2
    verdict). Floor = cluster CPUs so small inputs still use every core."""
    import ray

    if floor is None:
        floor = max(2, int(ray.cluster_resources().get("CPU", 8)))
    return max(floor, -(-int(n_rows) // rows_per_part))


def coarse_group_reduce(ds, keys, combine, num_coarse: int | None = None,
                        n_rows_hint: int | None = None):
    """High-cardinality replacement for ``ds.groupby(keys).aggregate(...)``.

    Ray's sort-based aggregate pays ~1 ms of per-distinct-group overhead
    in each reduce task (measured: a 293k-group Count took 72 s at 8
    blocks, 384 s at 1 block — while this pattern runs it in 0.2 s). For
    group counts in the tens of thousands and up, exchange rows on
    ``hash(keys) % num_coarse`` instead and let ``combine`` — a
    vectorized pandas reduction that MUST itself collapse duplicates, e.g.
    ``lambda g: g.groupby(keys, as_index=False).sum()`` — run once per
    coarse partition at C speed.

    ``combine`` receives each partition's rows WITHOUT the internal
    ``_cpart`` column. Each coarse partition is one task: size
    ``num_coarse`` with the data — pass ``n_rows_hint`` when the input row
    count is known or estimable (:func:`parquet_rows_hint` gives a
    metadata-only estimate, incl. token-multiplied derived tables). The
    default, cluster CPUs × 4, is CLUSTER-proportional, not constant: on a
    fleet sized to the data (the 100-TB deployment premise) per-task rows
    stay ≈ data / (4 × total cores); the hint matters most when the input
    multiplies the base table (spans, words) beyond that ratio.
    """
    import numpy as np
    import pandas as pd
    import ray

    keys = list(keys)
    if num_coarse is None:
        if n_rows_hint is not None:
            num_coarse = default_coarse_partitions(n_rows_hint)
        else:
            num_coarse = max(2, int(ray.cluster_resources()
                                    .get("CPU", 8)) * 4)

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        h = pd.util.hash_pandas_object(df[keys], index=False) \
            .to_numpy(np.uint64)
        out = df.copy()
        out["_cpart"] = (h % np.uint64(num_coarse)).astype("int64")
        return out

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        return combine(g.drop(columns=["_cpart"]))

    return (ds.map_batches(add_part, batch_format="pandas")
            .groupby("_cpart")
            .map_groups(reduce_part, batch_format="pandas"))
