"""Near-duplicate detection correctness on a constructed corpus."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def dup_dir(tmp_path_factory):
    """documents.parquet with known near-dup pairs and distinct docs."""
    base = "the quick brown fox jumps over the lazy dog near the river bank " * 6
    texts = {
        0: base,
        1: base.replace("lazy", "sleepy"),            # near-dup of 0
        2: base,                                       # exact dup of 0
        3: "completely different words about ray data pipelines and arrow "
           "columns shuffles and actor pools " * 6,
        4: "yet another unrelated text with its own vocabulary entirely "
           "about turtles graphs and triples " * 6,
    }
    d = tmp_path_factory.mktemp("dupdocs")
    table = pa.table(
        {
            "doc_id": pa.array(list(texts), pa.int64()),
            "text": pa.array(list(texts.values()), pa.string()),
        }
    )
    pq.write_table(table, str(d / "documents.parquet"))
    return str(d)


def test_minhash_finds_near_dups(ray_session, dup_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(dup_dir, threshold=0.6).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 2) in found  # exact dup
    assert (0, 1) in found and (1, 2) in found  # near-dups
    # unrelated docs never pair up
    assert not any(3 in p or 4 in p for p in found)


def test_simhash_near_dups(ray_session, dup_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import simhash_near_dup_pairs

    pairs = simhash_near_dup_pairs(dup_dir, max_hamming=6).to_pandas()
    found = {(int(a), int(b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (0, 2) in found
    assert not any((3, x) in found or (x, 3) in found for x in (0, 1, 2))


def test_ngram_jaccard_verification(ray_session, dup_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        minhash_lsh_pairs,
        ngram_jaccard_verify,
    )

    pairs = minhash_lsh_pairs(dup_dir, threshold=0.5).to_pandas()
    verified = ngram_jaccard_verify(dup_dir, pairs)
    exact = verified[(verified["doc_a"] == 0) & (verified["doc_b"] == 2)]
    assert len(exact) == 1 and exact["jaccard"].iloc[0] == 1.0
    near = verified[(verified["doc_a"] == 0) & (verified["doc_b"] == 1)]
    assert len(near) == 1 and 0.5 < near["jaccard"].iloc[0] < 1.0


def test_exact_dedup_on_dups(ray_session, dup_dir):
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import exact_dedup

    out = exact_dedup(dup_dir).to_pandas()
    # 5 docs, one exact pair (0,2) → 4 distinct hashes, min doc_id kept
    assert len(out) == 4
    assert 0 in set(out["doc_id"]) and 2 not in set(out["doc_id"])


def test_entity_linking_exact_and_fuzzy(ray_session):
    """Candidate-gen hash lookup + 3-gram Jaccard scoring vs the company KB."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import extraction_records
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.stages.linking import EntityLinker, link_entities

    kb_ttl = open("workflows/company_kb.ttl", encoding="utf8").read()
    recs = extraction_records(pages_dataset(100, override_num_blocks=4))
    links = link_entities(recs, kb_ttl, "http://example.org/entity/").to_pandas()
    assert len(links) > 10
    # the hot entity links to its KB node with a perfect exact score
    acme = links[links["kb_entity"] == "http://example.org/kb/acme_corp"]
    assert not acme.empty and (acme["score"] == 1.0).any()

    # unit-level: exact, fuzzy variant, and a rejection
    linker = EntityLinker(kb_ttl, "http://example.org/entity/")
    assert linker.link_surface("Acme Corp")[0].endswith("/acme_corp")
    kb, score, method = linker.link_surface("ACME  Corp")  # case/space variant
    assert kb.endswith("/acme_corp") and score == 1.0  # normalization → exact
    fuzzy = linker.link_surface("Acme Corporation")
    assert fuzzy is not None and fuzzy[0].endswith("/acme_corp") and fuzzy[1] < 1.0
    assert linker.link_surface("Zzzzz Qqqqq GmbH XYZ") is None


def test_minhash_distributed_fallback_path(ray_session, dup_dir):
    """Past max_driver_pairs the join-based verify path must give the same
    answer as the driver-bounded fast path."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    fast = minhash_lsh_pairs(dup_dir, threshold=0.6).to_pandas()
    dist = minhash_lsh_pairs(dup_dir, threshold=0.6, max_driver_pairs=0).to_pandas()
    cols = ["doc_a", "doc_b", "est_jaccard"]
    f = fast[cols].sort_values(cols).reset_index(drop=True)
    d = dist[cols].sort_values(cols).reset_index(drop=True)
    assert f.equals(d)
    assert len(f) >= 3


def test_clean_corpus_writes_deduped_output(ray_session, dup_dir, tmp_path):
    """Corpus-prep end-to-end: quality filter + dedup + joined text output."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.corpus_prep import clean_corpus

    out = str(tmp_path / "clean")
    winners = clean_corpus(dup_dir, min_tokens=5, out_dir=out).to_pandas()
    # docs 0 and 2 are identical → one winner (doc 0); 5 docs → 4 winners
    assert len(winners) == 4
    assert 0 in set(winners["doc_id"]) and 2 not in set(winners["doc_id"])
    cleaned = ray.data.read_parquet(out).to_pandas()
    assert sorted(cleaned["doc_id"]) == sorted(winners["doc_id"])
    assert "text" in cleaned.columns and cleaned["text"].str.len().min() > 0


def test_minhash_recall_on_planted_corpus(ray_session, tmp_path):
    """Recall check at CI scale: every planted near-dup pair is recovered."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(800)]
    texts, planted = [], []
    for i in range(300):
        texts.append(" ".join(rng.choice(vocab, size=60)))
    for j in range(40):
        src = int(rng.randint(0, 300))
        words = texts[src].split()
        for _ in range(3):
            words[int(rng.randint(0, len(words)))] = str(rng.choice(vocab))
        texts.append(" ".join(words))
        planted.append((src, 300 + j))
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"),
    )
    pairs = minhash_lsh_pairs(str(d), threshold=0.6).to_pandas()
    found = {(min(a, b), max(a, b)) for a, b in zip(pairs["doc_a"], pairs["doc_b"])}
    hits = sum(1 for p in planted if (min(p), max(p)) in found)
    assert hits / len(planted) >= 0.95


def test_minhash_sig_spill_checkpoint_path(ray_session, dup_dir, tmp_path):
    """sig_spill_docs=0 forces the parquet signature checkpoint; the pair
    set must equal the object-store-pinned path, and the checkpoint must be
    reused on a second run."""
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    ckpt = str(tmp_path / "sigs")
    base = minhash_lsh_pairs(dup_dir, threshold=0.6).to_pandas()
    spill = minhash_lsh_pairs(dup_dir, threshold=0.6, sig_spill_docs=0,
                              sig_checkpoint_dir=ckpt).to_pandas()
    cols = ["doc_a", "doc_b", "est_jaccard"]
    assert base[cols].sort_values(cols).reset_index(drop=True).equals(
        spill[cols].sort_values(cols).reset_index(drop=True))
    assert os.path.exists(os.path.join(ckpt, "_DONE"))
    mtime = max(os.path.getmtime(os.path.join(ckpt, f))
                for f in os.listdir(ckpt))
    again = minhash_lsh_pairs(dup_dir, threshold=0.6, sig_spill_docs=0,
                              sig_checkpoint_dir=ckpt).to_pandas()
    assert len(again) == len(spill)
    assert max(os.path.getmtime(os.path.join(ckpt, f))
               for f in os.listdir(ckpt)) == mtime


def test_minhash_pair_spill_equivalence(ray_session, dup_dir, tmp_path):
    """pair_spill_docs=0 forces the candidate-pair parquet checkpoint (the
    100-TB path — no unbounded object-store pin); the final pair set must
    equal the in-memory-pinned path, the checkpoint must be reused on a
    second run, and a bands change must rebuild it."""
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    ckpt = str(tmp_path / "pairs")
    base = minhash_lsh_pairs(dup_dir, threshold=0.6).to_pandas()
    spill = minhash_lsh_pairs(dup_dir, threshold=0.6, pair_spill_docs=0,
                              pair_checkpoint_dir=ckpt).to_pandas()
    cols = ["doc_a", "doc_b", "est_jaccard"]
    assert base[cols].sort_values(cols).reset_index(drop=True).equals(
        spill[cols].sort_values(cols).reset_index(drop=True))
    assert len(spill) >= 1
    assert os.path.exists(os.path.join(ckpt, "_DONE"))
    mtime = os.path.getmtime(os.path.join(ckpt, "_DONE"))
    again = minhash_lsh_pairs(dup_dir, threshold=0.6, pair_spill_docs=0,
                              pair_checkpoint_dir=ckpt).to_pandas()
    assert len(again) == len(spill)
    assert os.path.getmtime(os.path.join(ckpt, "_DONE")) == mtime  # reused
    rebands = minhash_lsh_pairs(dup_dir, threshold=0.6, bands=8,
                                pair_spill_docs=0,
                                pair_checkpoint_dir=ckpt).to_pandas()
    assert os.path.getmtime(os.path.join(ckpt, "_DONE")) > mtime  # rebuilt
    assert len(rebands) >= 1


def test_minhash_pair_spill_distributed_verify_path(ray_session, dup_dir, tmp_path):
    """Pair spill composed with the past-max_driver_pairs join verify path:
    the spilled parquet pairs must feed the distributed hash joins too."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    base = minhash_lsh_pairs(dup_dir, threshold=0.6).to_pandas()
    dist = minhash_lsh_pairs(
        dup_dir, threshold=0.6, max_driver_pairs=0, pair_spill_docs=0,
        pair_checkpoint_dir=str(tmp_path / "pairs")).to_pandas()
    cols = ["doc_a", "doc_b", "est_jaccard"]
    assert base[cols].sort_values(cols).reset_index(drop=True).equals(
        dist[cols].sort_values(cols).reset_index(drop=True))


def test_minhash_sig_spill_invalidates_on_param_change(ray_session, dup_dir, tmp_path):
    """Round-3 review: an explicit sig_checkpoint_dir reused with different
    signature parameters must REBUILD, not reshape stale signatures."""
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import minhash_lsh_pairs

    ckpt = str(tmp_path / "sigs")
    a = minhash_lsh_pairs(dup_dir, threshold=0.6, num_perm=64, sig_spill_docs=0,
                          sig_checkpoint_dir=ckpt).to_pandas()
    mtime = os.path.getmtime(os.path.join(ckpt, "_DONE"))
    b = minhash_lsh_pairs(dup_dir, threshold=0.6, num_perm=32, bands=8,
                          sig_spill_docs=0, sig_checkpoint_dir=ckpt).to_pandas()
    assert os.path.getmtime(os.path.join(ckpt, "_DONE")) > mtime  # rebuilt
    assert len(a) and len(b)


def test_repetition_and_lm_scores(ray_session, dup_dir):
    """Gopher-style repetition stats + trigram LM scoring: a pathological
    repeated-word doc must show high dup/top-word fractions, and LM scores
    are deterministic with plausible magnitudes."""
    import numpy as np

    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        lm_scores,
        repetition_stats,
    )

    rep = repetition_stats(dup_dir).to_pandas().set_index("doc_id")
    assert (rep["dup_word_frac"] >= 0).all() and (rep["dup_word_frac"] <= 1).all()
    assert (rep["top_word_frac"] > 0).all()
    assert (rep["n_distinct_words"] <= rep["n_words"]).all()
    lm = lm_scores(dup_dir).to_pandas().set_index("doc_id")
    assert (lm["lm_bits_per_trigram"] > 0).all()
    assert lm["n_trigrams"].sum() > 0
    lm2 = lm_scores(dup_dir).to_pandas().set_index("doc_id")
    # values are deterministic; row ORDER across blocks is not a contract
    assert lm.sort_index().equals(lm2.sort_index())


def test_span_dedup_semantics(ray_session, tmp_path_factory):
    """First occurrence wins across docs AND within a doc; a doc whose
    every span was seen earlier drops entirely."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import span_exact_dedup

    w = lambda pfx: " ".join(f"{pfx}{i}" for i in range(4))  # one 4-word span
    texts = {
        # doc 0: spans A B A  (A repeats within the doc)
        0: " ".join([w("a"), w("b"), w("a")]),
        # doc 1: spans B C    (B already seen in doc 0)
        1: " ".join([w("b"), w("c")]),
        # doc 2: spans A B    (all seen) → doc drops
        2: " ".join([w("a"), w("b")]),
    }
    d = tmp_path_factory.mktemp("spandocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(d / "documents.parquet"))

    out = span_exact_dedup(str(d), chunk_words=4).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {0: " ".join([w("a"), w("b")]), 1: w("c")}


def test_span_dedup_partial_tail_span(ray_session, tmp_path_factory):
    """Spans shorter than chunk_words (doc tails) dedup as their own unit
    and never merge with full-length spans sharing a prefix."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import span_exact_dedup

    texts = {0: "x0 x1 x2 x3 t0 t1", 1: "t0 t1", 2: "x0 x1"}
    d = tmp_path_factory.mktemp("taildocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(d / "documents.parquet"))

    out = span_exact_dedup(str(d), chunk_words=4).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    # doc 1's "t0 t1" tail-span duplicates doc 0's tail; doc 2's "x0 x1"
    # is NOT a duplicate of doc 0's full first span
    assert got == {0: "x0 x1 x2 x3 t0 t1", 2: "x0 x1"}


def test_boilerplate_removal_drops_all_occurrences(ray_session,
                                                   tmp_path_factory):
    """A span shared across >max_doc_freq docs is removed from EVERY doc
    (unlike span_dedup's keep-first); within-doc repeats of a non-shared
    span survive; all-boilerplate docs drop entirely."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        boilerplate_span_removal,
    )

    w = lambda pfx: " ".join(f"{pfx}{i}" for i in range(4))
    banner = w("nav")
    texts = {
        0: " ".join([banner, w("a"), w("a")]),  # banner + repeated unique
        1: " ".join([w("b"), banner]),
        2: banner,                               # all boilerplate → drops
        3: w("c"),
    }
    d = tmp_path_factory.mktemp("boilerdocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(d / "documents.parquet"))

    expected = {0: " ".join([w("a"), w("a")]), 1: w("b"), 3: w("c")}
    out = boilerplate_span_removal(str(d), chunk_words=4).to_pandas()
    assert dict(zip(out["doc_id"], out["text"])) == expected
    # forced distributed keep-list path ≡ broadcast path
    out2 = boilerplate_span_removal(str(d), chunk_words=4,
                                    broadcast_threshold=0).to_pandas()
    assert dict(zip(out2["doc_id"], out2["text"])) == expected


def test_top_ngrams_doc_boundaries_and_trigram(ray_session, tmp_path_factory):
    """N-grams never cross document boundaries; n=3 counts are exact."""
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import top_ngrams

    texts = {0: "a b c", 1: "c a b", 2: "a b c"}
    d = tmp_path_factory.mktemp("ngramdocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(d / "documents.parquet"))

    bi = top_ngrams(str(d), n=2, k=10).to_pandas()
    got = dict(zip(bi["ngram"], bi["cnt"]))
    # "c c" (doc 0 tail + doc 1 head) must NOT appear
    assert got == {"a b": 3, "b c": 2, "c a": 1}

    tri = top_ngrams(str(d), n=3, k=10).to_pandas()
    got3 = dict(zip(tri["ngram"], tri["cnt"]))
    assert got3 == {"a b c": 2, "c a b": 1}


def test_new_shard_dedup_broadcast_and_join_paths_agree(ray_session):
    """The size-aware broadcast probe and the distributed left-outer join
    must produce identical (doc_id, is_dup, dup_of) rows."""
    import pandas as pd

    from cmc_knowledge_graph_text2ttl_ray.pipelines.dedup import (
        new_shard_exact_dedup,
    )

    sf = "/root/testdata/sf0.001"
    fast = new_shard_exact_dedup(sf)
    slow = new_shard_exact_dedup(sf, broadcast_threshold=0)
    pd.testing.assert_frame_equal(fast, slow)
    assert (fast["doc_id"] % 10 == 0).all()
    # duplicates point at a real corpus doc, novels at the -1 sentinel
    dups = fast[fast["is_dup"] == 1]
    assert (dups["dup_of"] % 10 != 0).all() or dups.empty
    assert (fast.loc[fast["is_dup"] == 0, "dup_of"] == -1).all()

def test_gopher_filter_rule_semantics(ray_session, tmp_path_factory):
    """Each named rule fires on its planted violation; keep is their AND."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.text_analysis import (
        gopher_quality_filter,
    )

    texts = {
        0: "the " + " ".join(f"word{i}" for i in range(40)),   # keeps
        1: "the quick fox",                                    # too few words
        2: " ".join(["123 456 789 000"] * 12) + " the",        # non-alpha words
        3: " ".join(f"w{i}" for i in range(40)),               # no stopwords
    }
    d = tmp_path_factory.mktemp("gopherdocs")
    pq.write_table(pa.table({
        "doc_id": pa.array(list(texts), pa.int64()),
        "text": pa.array(list(texts.values()), pa.string()),
    }), str(d / "documents.parquet"))

    out = gopher_quality_filter(str(d)).to_pandas() \
        .set_index("doc_id").sort_index()
    assert bool(out.loc[0, "keep"])
    assert not bool(out.loc[1, "rule_n_words"]) and not bool(out.loc[1, "keep"])
    assert not bool(out.loc[2, "rule_alpha"]) and not bool(out.loc[2, "keep"])
    assert int(out.loc[2, "stopword_hits"]) == 1
    assert not bool(out.loc[3, "rule_stopwords"]) and not bool(out.loc[3, "keep"])
    # word-count arithmetic matches split semantics exactly
    assert int(out.loc[0, "n_words"]) == 41
