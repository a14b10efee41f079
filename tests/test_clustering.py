"""Distributed k-means + semantic dedup over embeddings."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def clustered_dir(tmp_path_factory):
    """60 vectors around 3 well-separated centers, with planted
    near-identical duplicates (ids 50/51 ~ id 0, id 52 ~ id 20)."""
    rng = np.random.RandomState(7)
    centers = np.array([[10.0] * 8, [-10.0] * 8,
                        [10.0, -10.0] * 4])
    rows = []
    for i in range(50):
        c = centers[i % 3]
        rows.append((i, c + rng.normal(0, 0.05, 8), i % 3))
    base0 = rows[0][1]
    base20 = rows[20][1]
    rows.append((50, base0 + 1e-4, 0))
    rows.append((51, base0 - 1e-4, 0))
    rows.append((52, base20 + 1e-4, 2))
    d = tmp_path_factory.mktemp("kmeans")
    pq.write_table(
        pa.table({
            "vec_id": pa.array([r[0] for r in rows], pa.int64()),
            "embedding": pa.array([list(map(float, r[1])) for r in rows],
                                  pa.list_(pa.float32())),
        }),
        str(d / "embeddings.parquet"))
    truth = {r[0]: r[2] for r in rows}
    return str(d), truth


def test_kmeans_recovers_planted_clusters(ray_session, clustered_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        kmeans_assign,
        kmeans_fit,
    )

    sf, truth = clustered_dir
    centroids, info = kmeans_fit(sf, k=3, max_iters=10)
    # inertia is non-increasing across Lloyd iterations
    hist = info["inertia"]
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))
    out = kmeans_assign(sf, centroids).to_pandas()
    # perfect purity: every ground-truth cluster maps to exactly one label
    merged = out.assign(truth=[truth[v] for v in out["vec_id"]])
    for t, grp in merged.groupby("truth"):
        assert grp["cluster"].nunique() == 1
    assert merged.groupby("cluster")["truth"].nunique().max() == 1


def test_kmeans_assign_matches_bruteforce(ray_session, clustered_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        kmeans_assign,
        kmeans_fit,
    )

    sf, _ = clustered_dir
    centroids, _ = kmeans_fit(sf, k=3, max_iters=5)
    got = kmeans_assign(sf, centroids).to_pandas().sort_values("vec_id")
    emb = pq.read_table(f"{sf}/embeddings.parquet").to_pandas().sort_values("vec_id")
    mat = np.vstack([np.asarray(v, dtype=np.float64) for v in emb["embedding"]])
    d2 = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert got["cluster"].tolist() == d2.argmin(axis=1).tolist()
    np.testing.assert_allclose(got["sq_dist"].to_numpy(),
                               d2.min(axis=1), atol=1e-4)


def test_kmeans_cluster_stats_shape(ray_session, clustered_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        kmeans_cluster_stats,
    )

    sf, _ = clustered_dir
    stats = kmeans_cluster_stats(sf, k=3, max_iters=5).to_pandas()
    assert list(stats.columns) == ["cluster", "n", "mean_sq_dist"]
    assert stats["n"].sum() == 53
    assert (stats["mean_sq_dist"] >= 0).all()


def test_semantic_dedup_collapses_planted(ray_session, clustered_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        semantic_dedup,
    )

    sf, _ = clustered_dir
    out = semantic_dedup(sf, threshold=0.999999).to_pandas().set_index("vec_id")
    assert len(out) == 53
    # planted near-identical copies collapse onto the original
    assert out.loc[50, "cluster_id"] == 0 and not out.loc[50, "keep"]
    assert out.loc[51, "cluster_id"] == 0 and not out.loc[51, "keep"]
    assert out.loc[52, "cluster_id"] == 20 and not out.loc[52, "keep"]
    assert out.loc[0, "keep"] and out.loc[20, "keep"]
    # random in-cluster neighbors (cosine < threshold) survive
    survivors = out["keep"].sum()
    assert survivors == 50


def test_semantic_dedup_hash_tier_matches_broadcast(ray_session, clustered_dir,
                                                    monkeypatch):
    """At gate 0 the cluster labeling takes the hash-join tier and
    gives the default run's frame."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.clustering import (
        semantic_dedup,
    )

    sf, _ = clustered_dir

    def run():
        return semantic_dedup(sf, threshold=0.999999).to_pandas() \
            .sort_values("vec_id").reset_index(drop=True)

    want = run()
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    pd.testing.assert_frame_equal(run(), want)
    assert (~want["keep"]).sum() == 3
