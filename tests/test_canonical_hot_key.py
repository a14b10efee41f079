"""The canonical rewrite's hash tier on a hot entity (north-rule case:
one entity on a large share of pages puts that share of the triple
table into one join partition)."""
import numpy as np
import pandas as pd
import ray.data

from cmc_knowledge_graph_text2ttl_ray.functions import cluster
from cmc_knowledge_graph_text2ttl_ray.functions.solutions import compact
from cmc_knowledge_graph_text2ttl_ray.stages.canonicalize import (
    apply_canonical_mapping,
    apply_canonical_mapping_join,
)

NS = "http://example.org/entity/"


def _triples(n_hot=3000, n_cold=500):
    rng = np.random.default_rng(5)
    subj = ([f"{NS}Hot_Corp"] * n_hot
            + [f"{NS}c{i}" for i in rng.integers(0, 200, n_cold)])
    obj = ([f"{NS}hot_corp"] * (n_hot // 2)            # variant, rewritten
           + ["\"lit\""] * (n_hot - n_hot // 2)        # literal, untouched
           + [f"{NS}o{i}" for i in rng.integers(0, 200, n_cold)])
    kind = (["iri"] * (n_hot // 2) + ["literal"] * (n_hot - n_hot // 2)
            + ["iri"] * n_cold)
    return pd.DataFrame({
        "subject": subj,
        "predicate": ["http://example.org/p"] * (n_hot + n_cold),
        "object": obj,
        "object_kind": kind,
    })


def _mapping():
    return pd.DataFrame({
        "iri": [f"{NS}hot_corp", f"{NS}c7"],
        "canonical": [f"{NS}Hot_Corp", f"{NS}c7_canon"],
    })


def test_hot_key_join_matches_broadcast(ray_session, monkeypatch):
    """At gate 0 both rewrite joins take the hash tier; the hot key's
    rows land in one partition and come out as the broadcast rewrite's
    rows: hot variant objects and cold subjects rewritten, literals
    untouched."""
    tdf = _triples()
    cols = ["subject", "predicate", "object", "object_kind"]

    def rows(ds):
        return ds.to_pandas()[cols].sort_values(cols).reset_index(drop=True)

    mdf = _mapping()
    broadcast = rows(apply_canonical_mapping(
        ray.data.from_pandas(tdf).repartition(6),
        dict(zip(mdf["iri"], mdf["canonical"]))))
    monkeypatch.setattr(cluster, "BROADCAST_JOIN_ROWS", 0)
    joined = rows(apply_canonical_mapping_join(
        ray.data.from_pandas(tdf).repartition(6),
        compact(ray.data.from_pandas(mdf), ("iri", "canonical"))))
    pd.testing.assert_frame_equal(joined, broadcast)
    # the hot variant object really was rewritten to the canonical
    assert (joined["object"] == f"{NS}hot_corp").sum() == 0
    assert (joined["object"] == f"{NS}Hot_Corp").sum() > 0
    # cold mapping applied on subjects, literals untouched
    assert (joined["subject"] == f"{NS}c7").sum() == 0
    assert (joined["object"] == "\"lit\"").sum() > 0
