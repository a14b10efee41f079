"""Quality-aware fuzzy-dedup survivor selection."""

import random

import pyarrow as pa
import pyarrow.parquet as pq
import pandas as pd
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
    fuzzy_dedup_best_quality,
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fq")
    random.seed(9)
    words = [f"word{i}" for i in range(300)]
    base = " ".join(random.choices(words, k=60))
    rows = [
        (0, base + " !!! ### 12345 @@@"),           # dirty near-dup of 2
        (1, " ".join(random.choices(words, k=60))),  # unrelated
        (2, base),                                   # clean copy, HIGHER id
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string())}),
        d / "documents.parquet",
    )
    return str(d)


def test_highest_quality_survives(ray_session, corpus_dir):
    out = fuzzy_dedup_best_quality(corpus_dir, threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    keep = dict(zip(out["doc_id"], out["keep"]))
    cl = dict(zip(out["doc_id"], out["cluster_id"]))
    # {0, 2} cluster together; the clean doc 2 wins despite 0 < 2
    assert cl[0] == cl[2] != cl[1]
    assert keep[2] and not keep[0]
    assert keep[1]  # singleton keeps itself
    # exactly one survivor per cluster
    assert out.groupby("cluster_id")["keep"].sum().eq(1).all()


def test_distributed_path_matches_broadcast(ray_session, corpus_dir,
                                           monkeypatch):
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster

    a = fuzzy_dedup_best_quality(corpus_dir, threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    b = fuzzy_dedup_best_quality(corpus_dir, threshold=0.5) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
