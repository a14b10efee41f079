"""Distributed clustering over the ``embeddings`` table — k-means (Lloyd)
and SemDeDup-style semantic deduplication.

Scale shapes:

- **k-means**: centroids broadcast per iteration (k × dim — driver-small by
  construction); each batch computes vectorized assignments and emits ONE
  (k × dim) partial-sum frame (``np.add.at``), so the per-iteration shuffle
  is O(k·dim·n_blocks), independent of the corpus row count. The corpus
  itself streams and never shuffles. Deterministic strided-seed init (no
  RNG) so reruns converge identically.
- **semantic dedup**: composes the IVF-bucketed near-dup pair generator
  (``similarity.embedding_near_dup_pairs`` — no all-pairs anywhere) with the
  distributed connected-components labeling (``graph_algos``), then labels
  the embedding table with an adaptive broadcast / hash-join pass, exactly
  like text fuzzy-dedup.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

__all__ = ["kmeans_fit", "kmeans_assign", "kmeans_cluster_stats",
           "semantic_dedup"]


def _emb(sf_dir: str):
    return ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id", "embedding"])


def _to_matrix(col) -> np.ndarray:
    return np.vstack([np.asarray(v, dtype=np.float64) for v in col])


def _seed_centroids(ds, k: int) -> np.ndarray:
    """Deterministic init: evenly-strided vec_ids (same scheme as
    ``similarity.build_ivf_centroids``) — reruns at any parallelism get the
    same seeds."""
    import pyarrow.compute as pc

    total = ds.count()
    stride = max(1, total // k)
    seed_ids = pa.array(sorted(range(0, stride * k, stride)), pa.int64())

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["vec_id"], value_set=seed_ids))

    seeds = (ds.map_batches(keep, batch_format="pyarrow")
             .to_pandas().sort_values("vec_id"))
    return _to_matrix(seeds["embedding"])[:k]


def kmeans_fit(sf_dir: str, k: int = 16, max_iters: int = 20,
               tol: float = 1e-6, driver_threshold: int = 100_000):
    """Lloyd's k-means with true squared-euclidean assignment.

    Returns ``(centroids, info)`` where ``info`` records per-iteration
    inertia (always non-increasing) and the final iteration count.

    Below ``driver_threshold`` rows the iteration loop runs on the driver
    over one pulled matrix (each distributed iteration is a full Dataset
    execution whose fixed overhead dwarfs the math at small n); past it,
    the loop is the broadcast-centroids + (k × dim)-partials shape with
    the corpus streaming every iteration and never shuffling.
    """
    import ray

    ds = _emb(sf_dir).materialize()  # re-read per iteration from the pin
    centroids = _seed_centroids(ds, k)
    inertia_hist: list[float] = []

    if ds.count() <= driver_threshold:
        mat = _to_matrix(ds.to_pandas().sort_values("vec_id")["embedding"])
        counts = np.zeros(k, dtype=np.int64)
        for it in range(max_iters):
            d2 = ((centroids * centroids).sum(axis=1)[None, :]
                  - 2.0 * (mat @ centroids.T))
            idx = np.argmin(d2, axis=1)
            best = d2[np.arange(len(mat)), idx] + (mat * mat).sum(axis=1)
            inertia_hist.append(float(best.sum()))
            sums = np.zeros_like(centroids)
            counts = np.zeros(k, dtype=np.int64)
            np.add.at(sums, idx, mat)
            np.add.at(counts, idx, 1)
            new_c = centroids.copy()
            nz = counts > 0
            new_c[nz] = sums[nz] / counts[nz, None]
            shift = float(np.max(np.linalg.norm(new_c - centroids, axis=1)))
            centroids = new_c
            if shift <= tol:
                break
        return centroids, {"n_iters": it + 1, "inertia": inertia_hist,
                           "counts": counts}

    for it in range(max_iters):
        c_ref = ray.put(centroids)

        def partials(df: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(c_ref)
            mat = _to_matrix(df["embedding"])
            # argmin ||x-c||^2 = argmin ||c||^2 - 2 x.c  (vectorized)
            d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (mat @ c.T)
            idx = np.argmin(d2, axis=1)
            best = d2[np.arange(len(mat)), idx] + (mat * mat).sum(axis=1)
            sums = np.zeros_like(c)
            counts = np.zeros(len(c), dtype=np.int64)
            np.add.at(sums, idx, mat)
            np.add.at(counts, idx, 1)
            return pd.DataFrame({
                "cluster": np.arange(len(c), dtype=np.int64),
                "vsum": list(sums),
                "count": counts,
                "inertia": np.where(np.arange(len(c)) == 0,
                                    float(best.sum()), 0.0),
            })

        parts = ds.map_batches(partials, batch_format="pandas").to_pandas()
        sums = np.zeros_like(centroids)
        counts = np.zeros(len(centroids), dtype=np.int64)
        for r in parts.itertuples():
            sums[r.cluster] += np.asarray(r.vsum)
            counts[r.cluster] += r.count
        inertia_hist.append(float(parts["inertia"].sum()))
        new_c = centroids.copy()
        nz = counts > 0
        new_c[nz] = sums[nz] / counts[nz, None]
        shift = float(np.max(np.linalg.norm(new_c - centroids, axis=1)))
        centroids = new_c
        if shift <= tol:
            break

    return centroids, {"n_iters": it + 1, "inertia": inertia_hist,
                       "counts": counts}


def kmeans_assign(sf_dir: str, centroids: np.ndarray):
    """(vec_id, cluster, sq_dist): nearest-centroid assignment, streamed."""
    import ray

    c_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        from cmc_knowledge_graph_text2ttl_ray.functions.rounding import round_half_away

        c = ray.get(c_ref)
        mat = _to_matrix(df["embedding"])
        d2 = (c * c).sum(axis=1)[None, :] - 2.0 * (mat @ c.T)
        idx = np.argmin(d2, axis=1)
        best = d2[np.arange(len(mat)), idx] + (mat * mat).sum(axis=1)
        return pd.DataFrame({
            "vec_id": df["vec_id"].astype("int64"),
            "cluster": idx.astype(np.int64),
            "sq_dist": round_half_away(np.maximum(best, 0.0), 6),
        })

    return _emb(sf_dir).map_batches(assign, batch_format="pandas")


def kmeans_cluster_stats(sf_dir: str, k: int = 16, max_iters: int = 20):
    """Fit + per-cluster (n, mean_sq_dist) via one small groupby — the
    cluster-level corpus map used for curation (e.g. picking clusters to
    down-sample)."""
    from ray.data.aggregate import Count, Mean

    centroids, _ = kmeans_fit(sf_dir, k=k, max_iters=max_iters)
    assigned = kmeans_assign(sf_dir, centroids)
    out = (assigned.groupby("cluster")
           .aggregate(Count(alias_name="n"),
                      Mean("sq_dist", alias_name="mean_sq_dist")))

    def tidy(df: pd.DataFrame) -> pd.DataFrame:
        from cmc_knowledge_graph_text2ttl_ray.functions.rounding import round_half_away

        if df.empty:
            return pd.DataFrame({"cluster": pd.Series(dtype="int64"),
                                 "n": pd.Series(dtype="int64"),
                                 "mean_sq_dist": pd.Series(dtype="float64")})
        return pd.DataFrame({
            "cluster": df["cluster"].astype("int64"),
            "n": df["n"].astype("int64"),
            "mean_sq_dist": round_half_away(
                df["mean_sq_dist"].to_numpy(dtype=np.float64), 4),
        })

    return out.map_batches(tidy, batch_format="pandas").sort("cluster")


def semantic_dedup(sf_dir: str, threshold: float = 0.95, **pair_kwargs):
    """SemDeDup-style semantic dedup: cosine near-dup pairs (IVF-bucketed,
    multi-assigned — no all-pairs) → connected components → one survivor
    (min vec_id) per semantic cluster.

    Returns (vec_id, cluster_id, keep) for every embedding row.
    """
    import ray
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        connected_components,
        label_clusters,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.similarity import (
        embedding_near_dup_pairs,
    )

    pairs = embedding_near_dup_pairs(sf_dir, threshold=threshold,
                                     **pair_kwargs)
    cc = connected_components(pairs, "vec_a", "vec_b")
    vecs = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                                 columns=["vec_id"])
    return label_clusters(vecs, "vec_id", cc)
