"""Incremental KG construction (pipelines/kg_incremental.py).

Oracle strategy: the generation-based incremental path must agree with
plain full runs — new_triples == set(shard KG) - set(published KG), and
the union of generations read back == set union of both runs' triples.
"""

import pandas as pd
import pytest

from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
    kg_incremental_update,
)
from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
    synthesize_pages_table,
)
from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset

IDENTITY = ["subject", "predicate", "object", "object_kind",
            "object_lang", "object_datatype"]


def _pages(indexes):
    import ray.data

    return ray.data.from_arrow(synthesize_pages_table(list(indexes)))


def _triple_set(ds_or_df):
    df = ds_or_df if isinstance(ds_or_df, pd.DataFrame) else ds_or_df.to_pandas()
    df = df[[c for c in IDENTITY if c in df.columns]]
    return {tuple(None if pd.isna(v) else v for v in row)
            for row in df.itertuples(index=False)}


@pytest.fixture(scope="module")
def incremental_root(ray_session, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("kg_gens") / "kg")
    first = kg_incremental_update(_pages(range(0, 30)), root)
    return root, first


def test_first_shard_publishes_everything(incremental_root):
    root, first = incremental_root
    full = run_kg_pipeline(_pages(range(0, 30)))
    want = _triple_set(full["triples"])
    assert first["generation"] == "gen-00000"
    assert first["n_new"] == len(want)
    assert _triple_set(ttl_dataset(root)) == want


def test_overlapping_shard_publishes_only_the_delta(incremental_root):
    root, _ = incremental_root
    second = kg_incremental_update(_pages(range(15, 45)), root)
    set_a = _triple_set(run_kg_pipeline(_pages(range(0, 30)))["triples"])
    set_b = _triple_set(run_kg_pipeline(_pages(range(15, 45)))["triples"])
    assert second["generation"] == "gen-00001"
    assert _triple_set(second["new_triples"]) == set_b - set_a
    assert second["n_new"] == len(set_b - set_a)
    # the union of generations IS the union KG
    assert _triple_set(ttl_dataset(root)) == set_a | set_b

    # idempotence: replaying the same shard appends nothing
    third = kg_incremental_update(_pages(range(15, 45)), root)
    assert third["n_new"] == 0
    assert third["generation"] is None
    assert _triple_set(ttl_dataset(root)) == set_a | set_b

    # time travel: as-of gen-00000 is exactly the first shard's KG
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        kg_as_of,
        list_generations,
    )

    assert list_generations(root) == ["gen-00000", "gen-00001"]
    assert _triple_set(kg_as_of(root, 0)) == set_a
    assert _triple_set(kg_as_of(root, "gen-00001")) == set_a | set_b
    with pytest.raises(ValueError, match="unknown generation"):
        kg_as_of(root, 7)

    # LSM compaction: union of generations rewritten as one generation,
    # set-identical, non-destructive
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        compact_generations,
    )

    pub = compact_generations(root)
    assert pub["generation"] == "gen-00000"
    gens = [n for n in os.listdir(pub["out_root"]) if n.startswith("gen-")]
    assert gens == ["gen-00000"]
    assert _triple_set(ttl_dataset(pub["out_root"])) == set_a | set_b
    # original root untouched
    assert _triple_set(ttl_dataset(root)) == set_a | set_b
