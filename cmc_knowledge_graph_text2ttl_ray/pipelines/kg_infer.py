"""Rule-based KG inference: CONSTRUCT and semi-naive forward chaining.

The construction pipeline materializes extracted triples; this module is
the enrichment layer on top — SPARQL-CONSTRUCT-style derivation (match a
BGP, emit templated triples) and Datalog-style forward chaining to a
fixpoint (transitive closure of ``locatedIn``-like predicates, type
inheritance through ``subClassOf`` chains, ...).

Scale shape
-----------
- ``construct`` is :func:`~cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query.bgp_query`
  (distributed hash joins over binding tables) plus ONE vectorized
  ``map_batches`` expansion — no extra exchange.
- ``forward_chain`` is **semi-naive**: after the first round, each rule
  body is re-evaluated once per body pattern with that pattern bound to
  the round's DELTA (everything derived last round) and the others to
  the full graph — so round *k* joins are sized by the delta, not the
  accumulated closure.  New-fact detection is the generation machinery's
  set difference (hash co-partitioned anti-join on full identity,
  ``kg_incremental.kg_new_triples``-shaped), and the closure is
  re-materialized once per round.  Rounds are bounded by rule-graph
  depth (ontology hierarchies are shallow); per-round cost is
  rules × body-size BGP evaluations over delta-sized inputs.  Inputs
  of at most :data:`DRIVER_ROWS` triples run the same semi-naive loop
  driver-side in pandas.
- Every hierarchy closure (``rdfs_closure``'s ``subClassOf`` /
  ``subPropertyOf``, ``owl_lite_closure``'s transitive properties,
  ``owl_equivalence_closure``'s equivalences) is ONE ``forward_chain``
  call with one transitive rule per predicate, so it inherits both
  tiers.
- Every join of two computed sets (the rdfs pair maps past
  ``functions.cluster.BROADCAST_JOIN_ROWS``, the sameAs labeling, the
  PageRank lookup) is ``solutions.solution_join``, which picks its
  broadcast or hash-shuffle tier by the sets' exact row counts.

Binding values are lexical strings; template objects default to
``object_kind="iri"`` — declare ``{"object_kind": "literal", ...}`` per
template when deriving literals (the honest limitation of string-typed
binding tables, documented rather than guessed).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["Rule", "construct", "forward_chain", "rdfs_closure",
           "owl_lite_closure", "sameas_from_functional",
           "owl_equivalence_closure", "dred_delete",
           "merge_equivalent_entities", "kg_entity_pagerank"]

_TRIPLE_COLS = ("subject", "predicate", "object",
                "object_kind", "object_lang", "object_datatype")

_TRIPLES_SCHEMA = pa.schema([(c, pa.string()) for c in _TRIPLE_COLS])

# Forward-chaining and DRed inputs of at most this many triples run the
# semi-naive loop driver-side in pandas (:func:`_pd_forward_chain`,
# :func:`_pd_dred`), where the distributed loop's fixed per-round Ray
# overhead would dominate; larger ones run as Ray Data rounds.  Read at
# call time, like ``functions.cluster.BROADCAST_JOIN_ROWS``: 0 forces
# the distributed loop.
DRIVER_ROWS = 200_000


class Rule:
    """``body`` (BGP patterns) ⇒ ``head`` (template triples).

    Each head template is ``(s, p, o)`` of variables/constants plus an
    optional 4th dict entry for object typing:
    ``("?e", "locatedIn", "?c")`` or
    ``("?e", "label", "?name", {"object_kind": "literal",
    "object_lang": "en"})``.
    """

    def __init__(self, body: list[Sequence[str]],
                 head: list[Sequence], name: str = ""):
        if not body or not head:
            raise ValueError("Rule needs non-empty body and head")
        self.body = [tuple(p) for p in body]
        self.head = [tuple(t) for t in head]
        self.name = name
        body_vars = {v for p in self.body for v in p
                     if isinstance(v, str) and v.startswith("?")}
        for tmpl in self.head:
            for term in tmpl[:3]:
                if isinstance(term, str) and term.startswith("?") \
                        and term not in body_vars:
                    raise ValueError(
                        f"head variable {term} not bound by the body")
        self.body_vars = sorted(body_vars)


def _expand_templates(head: list[Sequence]):
    """Vectorized binding-table → triples expansion for one rule head."""
    def expand(t: pa.Table) -> pa.Table:
        n = len(t)
        parts = []
        for tmpl in head:
            s, p, o = tmpl[:3]
            meta = tmpl[3] if len(tmpl) > 3 else {}
            cols = {}
            for name, term in (("subject", s), ("predicate", p),
                               ("object", o)):
                if isinstance(term, str) and term.startswith("?"):
                    cols[name] = t[term[1:]].cast(pa.string())
                else:
                    cols[name] = pa.array([term] * n, pa.string())
            cols["object_kind"] = pa.array(
                [meta.get("object_kind", "iri")] * n, pa.string())
            cols["object_lang"] = pa.array(
                [meta.get("object_lang")] * n, pa.string())
            cols["object_datatype"] = pa.array(
                [meta.get("object_datatype")] * n, pa.string())
            parts.append(pa.table(cols, schema=_TRIPLES_SCHEMA))
        return pa.concat_tables(parts) if parts \
            else _TRIPLES_SCHEMA.empty_table()

    return expand


def construct(triples, patterns, head: list[Sequence], graph: str | None = None,
              **bgp_kwargs):
    """SPARQL-CONSTRUCT: evaluate the BGP, emit one set of ``head``
    template triples per solution (deduped).  Returns a Dataset in the
    pipeline triple schema, composable with the sinks / generations.

    ``graph``: optionally stamp every derived triple with a target named
    graph (a constant ``graph`` column) — the result is quad-shaped and
    flows straight into ``write_quad_partitions`` / GRAPH queries, the
    conventional home for materialized inferences (kept separate from
    asserted source graphs)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

    rule = Rule(patterns, head)  # validates head vars against body
    sols = bgp_query(triples, patterns, project=rule.body_vars,
                     distinct=True, **bgp_kwargs)
    derived = sols.map_batches(_expand_templates(rule.head),
                               batch_format="pyarrow")
    out = _dedup_triples(derived)
    if graph is None:
        return out

    def stamp(t: pa.Table) -> pa.Table:
        return t.append_column("graph", pa.array([graph] * len(t),
                                                 pa.string()))

    return out.map_batches(stamp, batch_format="pyarrow")


def _dedup_triples(ds, num_partitions: int | None = None):
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    cols = list(_TRIPLE_COLS)
    return coarse_group_reduce(
        ds, cols, lambda g: g.drop_duplicates(subset=cols),
        num_coarse=num_partitions)


def _empty_triples():
    import ray.data

    return ray.data.from_arrow(_TRIPLES_SCHEMA.empty_table())


def _norm_triples(ds):
    """Project any triple-shaped Dataset onto the pipeline's 6-column
    string schema.  Missing typing columns become nulls, except a
    missing or null ``object_kind``, which becomes ``"iri"`` — the
    typing a rule head gives a derived fact, so a closure never
    re-derives a base fact that differs from it only in typing."""
    def pick(t: pa.Table) -> pa.Table:
        cols = {}
        for c in _TRIPLE_COLS:
            cols[c] = (t[c].cast(pa.string()) if c in t.column_names
                       else pa.nulls(len(t), pa.string()))
        cols["object_kind"] = pc.fill_null(cols["object_kind"], "iri")
        return pa.table(cols, schema=_TRIPLES_SCHEMA)

    return ds.map_batches(pick, batch_format="pyarrow")


def _transitive(pred: str) -> Rule:
    return Rule([("?a", pred, "?b"), ("?b", pred, "?c")],
                [("?a", pred, "?c")], name=f"trans:{pred}")


def _new_vs_known(candidates, known, num_partitions: int,
                  keep_known: bool = False):
    """Set difference ``candidates - known`` on full triple identity
    (hash co-partition, one exchange — kg_incremental shape); with
    ``keep_known`` the intersection ``candidates ∩ known`` instead."""
    cols = list(_TRIPLE_COLS)

    def tag(side: int):
        def pre(t: pa.Table) -> pd.DataFrame:
            df = t.select(cols).to_pandas().drop_duplicates(subset=cols)
            df["side"] = np.int64(side)
            h = pd.util.hash_pandas_object(df[cols], index=False) \
                .to_numpy(np.uint64)
            df["part"] = (h % np.uint64(num_partitions)).astype("int64")
            return df

        return pre

    both = known.map_batches(tag(0), batch_format="pyarrow").union(
        candidates.map_batches(tag(1), batch_format="pyarrow"))

    def keep(g: pd.DataFrame) -> pa.Table:
        g = g.drop_duplicates(subset=cols + ["side"])
        grp = g.groupby(cols, dropna=False, sort=False)["side"]
        in_known = grp.transform("min") == 0
        out = g[(in_known == keep_known) & (g["side"] == 1)]
        return pa.Table.from_pandas(out[cols], schema=_TRIPLES_SCHEMA,
                                    preserve_index=False)

    return (both.groupby("part")
            .map_groups(keep, batch_format="pandas"))


def _hashed_graph(edges, what: str):
    """The IRI edges ``edges`` (``solutions.Solutions`` over ``a``,
    ``b``) with 64-bit md5 ids ``ha`` / ``hb``, and their node table
    ``(h, iri)`` — ``(edges, nodes)``, both Solutions.  An
    EXACT collision check (distinct IRIs per hash, inside the same
    exchange that dedups the node table) fails fast rather than
    silently merging unrelated entities."""
    import hashlib

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import compact

    def h64(vals):
        return pa.array(
            [int.from_bytes(hashlib.md5(v.encode("utf-8")).digest()[:8],
                            "big", signed=False) - (1 << 63) for v in vals],
            pa.int64())

    def hash_ids(t: pa.Table) -> pa.Table:
        return t.append_column("ha", h64(t["a"].to_pylist())) \
                .append_column("hb", h64(t["b"].to_pylist()))

    edges = edges.map(hash_ids, ("a", "b", "ha", "hb"))

    def node_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "h": pa.concat_arrays([t["ha"].combine_chunks(),
                                   t["hb"].combine_chunks()]),
            "iri": pa.concat_arrays([t["a"].combine_chunks(),
                                     t["b"].combine_chunks()]),
        })

    def dedup_nodes(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(subset=["h", "iri"])
        if g["h"].duplicated().any():
            raise ValueError(
                f"64-bit IRI hash collision — {what} aborted (rehash "
                "with a different salt or use dense ids)")
        return g

    nodes = compact(coarse_group_reduce(
        edges.ds.map_batches(node_rows, batch_format="pyarrow"),
        ["h"], dedup_nodes), ("h", "iri"))
    return edges, nodes


def merge_equivalent_entities(triples, sameas_pred: str,
                              drop_merged_selfloops: bool = True) -> dict:
    """``owl:sameAs`` smushing: treat ``sameas_pred`` edges as an
    equivalence relation, pick one canonical IRI per equivalence class
    (the lexicographic minimum — deterministic across runs and
    partitionings), and rewrite every subject / IRI object through the
    mapping.  Returns ``{"triples": Dataset, "mapping": Dataset
    (iri → canonical, identity rows excluded), "n_mapped": int}``.

    Scale shape: equivalence edges are a tiny fraction of the KG — the
    component labeling runs on the edge set only
    (``graph_algos.connected_components``: numpy driver path below its
    edge threshold, pointer-doubling rounds above).  IRIs enter CC as
    64-bit md5 ids (:func:`_hashed_graph`, exact collision check).  The
    node labeling and the canonical lookup are
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.solutions.solution_join`
    joins.  The rewrite broadcasts a mapping of at most
    ``functions.cluster.BROADCAST_JOIN_ROWS`` rows (``ray.put`` once,
    dictionary-encoded per block); above it the rewrite is two left-outer
    solution joins (``canonicalize.apply_canonical_mapping_join``) — the
    same adaptive pair the canonicalization stage uses."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        Solutions,
        compact,
        solution_join,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        connected_components,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        _pattern_scan,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.canonicalize import (
        apply_canonical_mapping,
        apply_canonical_mapping_join,
    )

    if hasattr(triples, "scan_for_predicate"):
        full = triples.scan_for_predicate(None)
        pair_src = triples.scan_for_predicate(sameas_pred)
    else:
        full = pair_src = triples

    pairs = _pattern_scan(pair_src, ("?a", sameas_pred, "?b"))
    if pairs.n == 0:
        return {"triples": full, "n_mapped": 0,
                "mapping": Solutions.empty(("iri", "canonical")).ds}
    pairs, nodes = _hashed_graph(pairs, "merge")
    cc = connected_components(
        pairs.ds.select_columns(["ha", "hb"]), a="ha", b="hb")

    # canonical per cluster = min IRI; mapping = iri -> canonical
    cc = cc.map_batches(lambda t: pa.table(
        {"h": t["node"], "cluster_id": t["cluster_id"]}),
        batch_format="pyarrow")
    labeled = solution_join(nodes, compact(cc, ("h", "cluster_id")),
                            "inner", ["h"], ("iri", "cluster_id"))

    def min_iri(g):
        return (g.groupby("cluster_id", as_index=False)["iri"].min()
                .rename(columns={"iri": "canonical"}))

    canon = compact(cluster.coarse_group_reduce(labeled.ds, ["cluster_id"],
                                                min_iri),
                    ("cluster_id", "canonical"))
    mapping = solution_join(
        labeled, canon, "inner", ["cluster_id"], ("iri", "canonical")).map(
            lambda t: t.filter(pc.invert(pc.equal(t["iri"],
                                                  t["canonical"]))),
            ("iri", "canonical"))
    mapping_ds, n_mapped = mapping.ds, mapping.n

    if n_mapped <= cluster.BROADCAST_JOIN_ROWS:
        mdict = {}
        for batch in mapping_ds.iter_batches(batch_format="pyarrow"):
            mdict.update(zip(batch["iri"].to_pylist(),
                             batch["canonical"].to_pylist()))
        out = apply_canonical_mapping(full, mdict)
    else:
        out = apply_canonical_mapping_join(full, mapping)

    if drop_merged_selfloops:
        def drop_loops(t: pa.Table) -> pa.Table:
            keep = pc.invert(pc.and_(
                pc.equal(t["predicate"], sameas_pred),
                pc.equal(t["subject"], t["object"])))
            return t.filter(pc.fill_null(keep, True))

        out = out.map_batches(drop_loops, batch_format="pyarrow")
    return {"triples": out, "mapping": mapping_ds, "n_mapped": n_mapped}


def kg_entity_pagerank(triples, damping: float = 0.85, iters: int = 4,
                       top_k: int | None = None):
    """Entity importance over the KG's IRI→IRI link graph: every triple
    whose object is an IRI is a directed edge subject→object;
    :func:`~cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos.pagerank` runs over
    64-bit md5 node ids (:func:`_hashed_graph`, the same exact
    collision guard as the sameAs merge), ranks map back to IRIs
    through one ``solutions.solution_join``.  Returns an ``(iri,
    rank)`` Dataset, optionally the ``top_k`` by rank (deterministic IRI
    tie-break)."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.graph_algos import (
        pagerank,
    )
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        compact,
        solution_join,
    )

    if hasattr(triples, "scan_for_predicate"):
        triples = triples.scan_for_predicate(None)

    def edge_rows(t: pa.Table) -> pa.Table:
        if "object_kind" in t.column_names:
            # a null kind reads as "iri", as in _norm_triples
            kind = pc.fill_null(t["object_kind"].cast(pa.string()), "iri")
            t = t.filter(pc.equal(kind, "iri"))
        return pa.table({"a": t["subject"].cast(pa.string()),
                         "b": t["object"].cast(pa.string())})

    edges = compact(triples.map_batches(edge_rows, batch_format="pyarrow"),
                    ("a", "b"))
    if edges.n == 0:
        return ray.data.from_arrow(pa.table(
            {"iri": pa.array([], pa.string()),
             "rank": pa.array([], pa.float64())}))
    edges, nodes = _hashed_graph(edges, "pagerank")

    ranks = pagerank(edges.ds.map_batches(
        lambda t: pa.table({"src": t["ha"], "dst": t["hb"]}),
        batch_format="pyarrow"), damping=damping, iters=iters)
    ranks = ranks.map_batches(
        lambda t: pa.table({"h": t["node"], "rank": t["rank"]}),
        batch_format="pyarrow")
    out = solution_join(nodes, compact(ranks, ("h", "rank")), "inner",
                        ["h"], ("iri", "rank")).ds
    if top_k is not None:
        out = out.sort(["rank", "iri"], descending=[True, False]) \
                 .limit(top_k)
    return out


# In-frame sentinel for null typing columns (pandas merge keys must not
# be NaN).  NOT "\x00": numpy fixed-width unicode strips trailing NULs,
# silently turning that sentinel into "".
_PD_NULL = "\x1f@null@\x1f"


def _pd_pattern_scan(facts: pd.DataFrame, pattern) -> pd.DataFrame:
    """Driver-side twin of ``kg_query._pattern_scan``: constants become
    boolean masks, variables become binding columns, repeated variables
    become in-scan equality filters."""
    first: dict[str, str] = {}
    mask = None
    for col, term in zip(("subject", "predicate", "object"), pattern):
        if isinstance(term, str) and term.startswith("?"):
            if term in first:
                m = facts[first[term]] == facts[col]
            else:
                first[term] = col
                continue
        else:
            m = facts[col] == term
        mask = m if mask is None else (mask & m)
    sub = facts if mask is None else facts[mask]
    return pd.DataFrame({v[1:]: sub[c].to_numpy()
                         for v, c in first.items()})


def _pd_bgp(facts: pd.DataFrame, rule: Rule,
            sources: list | None = None) -> pd.DataFrame:
    """Driver-side BGP evaluation with pandas merges, same join order
    heuristic as the distributed path (``_plan_order_indices``)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        _plan_order_indices,
    )

    binding = None
    for i in _plan_order_indices(rule.body):
        src = facts if sources is None or sources[i] is None \
            else sources[i]
        t = _pd_pattern_scan(src, rule.body[i]).drop_duplicates()
        if binding is None:
            binding = t
        else:
            shared = [c for c in binding.columns if c in t.columns]
            binding = binding.merge(t, on=shared, how="inner")
        if binding.empty:
            return binding
    return binding.drop_duplicates()


def _pd_expand_head(binding: pd.DataFrame, head) -> pd.DataFrame:
    n = len(binding)
    frames = []
    for tmpl in head:
        meta = tmpl[3] if len(tmpl) > 3 else {}

        def col(term):
            if isinstance(term, str) and term.startswith("?"):
                return binding[term[1:]].astype(str).to_numpy()
            return np.repeat(term, n)

        frames.append(pd.DataFrame({
            "subject": col(tmpl[0]),
            "predicate": col(tmpl[1]),
            "object": col(tmpl[2]),
            "object_kind": np.repeat(meta.get("object_kind", "iri"), n),
            "object_lang": np.repeat(
                meta.get("object_lang") or _PD_NULL, n),
            "object_datatype": np.repeat(
                meta.get("object_datatype") or _PD_NULL, n),
        }))
    return pd.concat(frames, ignore_index=True)


_TYPING_COLS = ["object_kind", "object_lang", "object_datatype"]


def _pd_norm(df: pd.DataFrame) -> pd.DataFrame:
    """A driver-side triple frame with sentinel-filled typing nulls,
    deduped."""
    cols = list(_TRIPLE_COLS)
    if df.empty and not set(cols) <= set(df.columns):
        # a zero-BLOCK dataset to_pandas()-es to a column-less frame
        # (the upstream filter emptied every block)
        df = pd.DataFrame({c: pd.Series(dtype="object") for c in cols})
    out = df[cols].copy()
    for c in _TYPING_COLS:
        out[c] = out[c].fillna(_PD_NULL)
    return out.drop_duplicates()


def _pd_minus(a: pd.DataFrame, b: pd.DataFrame) -> pd.DataFrame:
    cols = list(_TRIPLE_COLS)
    probe = a.merge(b[cols], on=cols, how="left", indicator=True)
    return probe[probe["_merge"] == "left_only"][cols]


def _pd_wrap(df: pd.DataFrame):
    """A :func:`_pd_norm`-ed frame back as a triples Dataset."""
    import ray.data

    out = df.copy()
    for c in _TYPING_COLS:
        out[c] = out[c].where(out[c] != _PD_NULL, None)
    return ray.data.from_arrow(pa.Table.from_pandas(
        out, schema=_TRIPLES_SCHEMA, preserve_index=False))


def _pd_forward_chain(facts: pd.DataFrame, rules: list[Rule],
                      max_rounds: int,
                      seed: pd.DataFrame | None) -> dict:
    """Driver-side semi-naive fixpoint — identical semantics to the
    distributed loop (incl. ``seed_delta`` incremental maintenance),
    for graphs below the :data:`DRIVER_ROWS` gate."""
    cols = list(_TRIPLE_COLS)
    closure = _pd_norm(facts)
    seeded = seed is not None
    delta = closure
    if seeded:
        delta = _pd_minus(_pd_norm(seed), closure)
        closure = pd.concat([closure, delta], ignore_index=True)

    derived_frames: list[pd.DataFrame] = []
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        first_round = rounds == 1 and not seeded
        cands = []
        for rule in rules:
            evals = [None] if first_round else range(len(rule.body))
            for i in evals:
                srcs = (None if i is None else
                        [delta if j == i else None
                         for j in range(len(rule.body))])
                b = _pd_bgp(closure, rule, srcs)
                if len(b):
                    cands.append(_pd_expand_head(b, rule.head))
        if cands:
            cand = pd.concat(cands,
                             ignore_index=True).drop_duplicates(subset=cols)
            new = _pd_minus(cand, closure)
        else:
            new = closure.iloc[0:0]
        if new.empty:
            rounds -= 1
            break
        derived_frames.append(new)
        closure = pd.concat([closure, new], ignore_index=True)
        delta = new

    derived = (pd.concat(derived_frames, ignore_index=True)
               if derived_frames else closure.iloc[0:0])
    return {"spill_dir": None, "closure": _pd_wrap(closure),
            "derived": _pd_wrap(derived), "rounds": rounds,
            "n_derived": len(derived)}


def forward_chain(triples, rules: list[Rule], max_rounds: int = 12,
                  num_partitions: int | None = None,
                  spill_rows: int = 5_000_000,
                  spill_dir: str | None = None,
                  seed_delta=None) -> dict:
    """Apply ``rules`` to a fixpoint (or ``max_rounds``).  Returns
    ``{"closure": Dataset, "derived": Dataset, "rounds": int,
    "n_derived": int, "spill_dir": str | None}`` — ``closure`` is
    base ∪ derived.

    Round 1 evaluates each body against the base graph; later rounds are
    semi-naive (one evaluation per body pattern with that pattern bound
    to the previous round's delta), so convergence work tracks the delta
    size.  Facts already known never re-enter the delta, guaranteeing
    termination on finite domains.

    **Incremental maintenance**: pass ``seed_delta`` (a triple Dataset of
    NEW facts) when ``triples`` is an ALREADY-CLOSED graph — a previous
    run's ``closure`` or a published generation.  Round 1 then skips the
    full-graph evaluation and goes straight to semi-naive with the (seed
    minus closure) facts as the delta, so a crawl-shard update costs
    delta-sized joins, never a re-closure of the accumulated KG —
    additions-only maintenance, the counterpart of
    ``kg_incremental.kg_new_triples`` (retractions go through
    ``kg_update``'s tombstones instead).  ``derived`` excludes both the
    base and the seed; ``closure`` includes all three.  If ``triples``
    is NOT a fixpoint the result still only adds derivations reachable
    from the seed (equivalence-tested against full re-closure).

    The closure is re-consumed by every rule body every round, so it
    must be reused: below ``spill_rows`` base triples it pins in the
    object store (materialize — cheapest at test/benchmark scale);
    above it the base and each round's delta round-trip through scratch
    parquet (``spill_dir`` or a fresh /tmp dir, returned as
    ``"spill_dir"``) and the closure is a UNION OF STREAMING READS —
    nothing closure-sized ever pins, the 100-TB path.  The returned
    datasets reference the spill files, so the CALLER owns the
    directory's lifetime.  At the other end of the scale, graphs whose
    base + seed fit under :data:`DRIVER_ROWS` (read at call time) run
    the identical semi-naive loop driver-side in pandas
    (:func:`_pd_forward_chain`, distributed-equivalence-tested) — the
    distributed loop's fixed per-round Ray-execution overhead dwarfs
    toy ontologies."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

    if hasattr(triples, "scan_for_predicate"):
        triples = triples.scan_for_predicate(None)

    full = _norm_triples(triples).materialize()
    n_full = full.count()
    if num_partitions is None:
        num_partitions = default_coarse_partitions(max(n_full, 1))
    spilling = n_full > spill_rows

    seed = None
    n_seed = 0
    if seed_delta is not None:
        seed = _norm_triples(seed_delta).materialize()
        n_seed = seed.count()
    if not spilling and n_full + n_seed <= DRIVER_ROWS:
        # Graphs (and seeds) far below corpus scale: the distributed
        # loop pays rules × body-size sequential Ray executions per
        # round in fixed overhead; the pandas twin runs the identical
        # semi-naive semantics driver-side (repo-standard
        # threshold-gated small path, distributed-equivalence-tested).
        return _pd_forward_chain(
            full.to_pandas(), rules, max_rounds,
            seed.to_pandas() if seed is not None else None)
    spill_base = None
    if spilling:
        import os

        from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
            scratch_dir,
            spill_roundtrip,
        )

        spill_base = spill_dir or scratch_dir("graft_fchain_")
        # one execution-free write from the already-materialized blocks,
        # then the pin is released and every consumer streams from disk
        full = spill_roundtrip(full, os.path.join(spill_base, "base"),
                               _TRIPLES_SCHEMA)

    delta = full
    seeded = seed is not None
    if seeded:
        seed_new = _new_vs_known(seed, full, num_partitions).materialize()
        if seed_new.count() == 0:
            return {"spill_dir": spill_base, "closure": full,
                    "derived": _empty_triples(), "rounds": 0,
                    "n_derived": 0}
        if spilling:
            import os

            from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
                spill_roundtrip,
            )

            seed_new = spill_roundtrip(
                seed_new, os.path.join(spill_base, "seed"),
                _TRIPLES_SCHEMA)
        delta = seed_new
        full = full.union(seed_new)
        if not spilling:
            full = full.materialize()

    derived_parts = []
    n_derived = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        first_round = rounds == 1 and not seeded
        cand_parts = []
        for rule in rules:
            if first_round:
                evals = [None]  # body over the base graph once
            else:
                evals = range(len(rule.body))  # semi-naive: delta at i
            for i in evals:
                sources = (None if i is None else
                           [delta if j == i else None
                            for j in range(len(rule.body))])
                sols = bgp_query(full, rule.body,
                                 project=rule.body_vars, distinct=True,
                                 pattern_sources=sources)
                cand_parts.append(
                    sols.map_batches(_expand_templates(rule.head),
                                     batch_format="pyarrow"))
        cand = cand_parts[0]
        for extra in cand_parts[1:]:
            cand = cand.union(extra)
        new = _new_vs_known(cand, full, num_partitions).materialize()
        n_new = new.count()
        if n_new == 0:
            rounds -= 1  # this round added nothing
            break
        if spilling:
            import os

            from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
                spill_roundtrip,
            )

            new = spill_roundtrip(
                new, os.path.join(spill_base, f"delta-{rounds:03d}"),
                _TRIPLES_SCHEMA)
        derived_parts.append(new)
        n_derived += n_new  # deltas are disjoint (new-vs-known per round)
        delta = new
        full = full.union(new)
        if not spilling:  # spilled closure = union of streaming reads
            full = full.materialize()

    if derived_parts:
        derived = derived_parts[0]
        for extra in derived_parts[1:]:
            derived = derived.union(extra)
        if not spilling:
            derived = derived.materialize()
    else:
        derived = _empty_triples()
    return {"spill_dir": spill_base,
            "closure": full, "derived": derived,
            "rounds": rounds, "n_derived": n_derived}


# ---------------------------------------------------------------------------
# RDFS (ρDF) entailment closure
# ---------------------------------------------------------------------------

_RDFS_VOCAB = {
    "type": "rdf:type",
    "subClassOf": "rdfs:subClassOf",
    "subPropertyOf": "rdfs:subPropertyOf",
    "domain": "rdfs:domain",
    "range": "rdfs:range",
}


def _prepare_base(triples, num_partitions, spill_rows: int,
                  spill_dir: str | None, prefix: str = "graft_rdfs_"):
    """Shared closure-pipeline intake: normalize onto the 6-column
    triple schema, materialize, size partitions, and either COALESCE
    (small multi-file corpora over-split into tiny blocks, and the
    derivation DAGs fan ``base`` out ~10× — inst / dom / rng / sup all
    re-map it — so over-splitting multiplies into per-block overhead
    that dwarfs the compute) or SPILL to scratch parquet past
    ``spill_rows`` (nothing corpus-sized stays pinned).  The big regime
    never sees a repartition — reads produce right-sized blocks there.
    Returns ``(base, n_base, num_partitions, spill_base)``."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )

    if hasattr(triples, "scan_for_predicate"):
        triples = triples.scan_for_predicate(None)
    base = _norm_triples(triples).materialize()
    n_base = base.count()
    if num_partitions is None:
        num_partitions = default_coarse_partitions(max(n_base, 1))
    spill_base = None
    if n_base <= spill_rows:
        target = max(1, -(-n_base // 200_000))
        if base.num_blocks() > 4 * target:
            base = base.repartition(target).materialize()
    else:
        import os

        from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
            scratch_dir,
            spill_roundtrip,
        )

        spill_base = spill_dir or scratch_dir(prefix)
        base = spill_roundtrip(base, os.path.join(spill_base, "base"),
                               _TRIPLES_SCHEMA)
    return base, n_base, num_partitions, spill_base


def _apply_pair_map(inst, pairs, key_col: str, build):
    """Inner-join the triple Dataset ``inst`` on ``inst[key_col]`` to the
    schema pairs ``pairs`` (``solutions.Solutions`` over
    ``(key_col, "_sup")``) and emit ``build(joined_frame)`` triples.

    Schema closures are ontology-sized: up to
    ``functions.cluster.BROADCAST_JOIN_ROWS`` pairs, one task concatenates
    them and every ``inst`` batch probes that table inside ONE
    ``map_batches`` — a streaming map, because above ``spill_rows``
    ``inst`` is a streaming read that must not be pinned.  Past the gate
    both sides go through
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.solutions.solution_join`
    and the output is pinned."""
    import ray

    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        _concat_task,
        _probe,
        compact,
        solution_join,
    )

    cols = list(_TRIPLE_COLS)
    joined_cols = cols + ["_sup"]

    def emit(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(build(t.to_pandas()),
                                    schema=_TRIPLES_SCHEMA,
                                    preserve_index=False)

    if pairs.n == 0:
        return _empty_triples()
    if pairs.n <= cluster.BROADCAST_JOIN_ROWS:
        table = _concat_task().remote(*pairs.blocks)

        def apply(t: pa.Table) -> pa.Table:
            return emit(_probe(t, ray.get(table), [key_col], "inner",
                               joined_cols))

        return inst.map_batches(apply, batch_format="pyarrow")
    left = compact(inst, cols)
    if left.n == 0:
        return _empty_triples()
    return solution_join(left, pairs, "inner", [key_col],
                         joined_cols).map(emit, cols).ds


def rdfs_closure(triples, vocab: dict[str, str] | None = None,
                 num_partitions: int | None = None,
                 max_rounds: int = 32,
                 spill_rows: int = 5_000_000,
                 spill_dir: str | None = None) -> dict:
    """Materialize the RDFS entailment of ``triples`` for the minimal
    ρDF fragment (``subClassOf`` / ``subPropertyOf`` / ``domain`` /
    ``range`` / ``type``) and return
    ``{"closure", "derived", "n_derived", "rounds", "spill_dir"}``
    (same contract as :func:`forward_chain`; ``derived`` is deduped and
    disjoint from the base; ``rounds`` is the schema fixpoint's).

    Evaluation is STRATIFIED rather than a naive instance-level
    fixpoint — sound and complete for this fragment because instance
    rules never feed schema rules (Muñoz, Pérez & Gutierrez, *Simple
    and Efficient Minimal RDFS*, J. Web Semantics 2009):

    1. schema fixpoints: transitive closures of ``subClassOf`` (rdfs11)
       and ``subPropertyOf`` (rdfs5) — ONE filtered scan of the four
       schema predicates, closed by ONE :func:`forward_chain` call with
       one transitive rule per hierarchy (ontologies are tiny next to
       the instance corpus, so below :data:`DRIVER_ROWS` that runs
       driver-side in pandas);
    2. rdfs7 property inheritance: ONE join of the instance triples
       against the closed sub→super-property map, rewriting the
       predicate and PRESERVING the object's stored typing (a head
       template can't — this is why it isn't a generic :class:`Rule`);
    3. rdfs2/rdfs3 domain & range typing over base ∪ step-2 (so
       ``p ⊑ q, q domain C`` fires through the rewritten triples);
       range skips literal objects (typing a literal is vacuous);
    4. rdfs9 type inheritance: ONE join of all ``type`` triples
       (base ∪ steps 3) against the closed sub→super-class map.

    The axiomatic rules (rdfs4/6/8/10 reflexivity and
    ``rdfs:Resource`` typing) are intentionally omitted — standard ρDF
    practice, they only add trivial triples.

    Scale shape: the instance corpus is touched by streaming joins
    only — with ontology-sized schema closures (at most
    ``functions.cluster.BROADCAST_JOIN_ROWS`` pairs per map) each
    derivation step is a broadcast ``map_batches`` (zero instance
    exchange; :func:`_apply_pair_map`); the final dedup-and-subtract is
    the one ``hash(identity) % P`` exchange over the derived set.  Past
    the gate a step is a
    :func:`~cmc_knowledge_graph_text2ttl_ray.functions.solutions.solution_join`
    join, whose pinned output spills to scratch parquet past
    ``spill_rows`` before the next join is planned.  ``vocab``
    overrides the predicate IRIs (defaults ``rdf:type`` /
    ``rdfs:*``)."""
    from cmc_knowledge_graph_text2ttl_ray.functions import cluster
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        _pattern_scan,
    )

    v = dict(_RDFS_VOCAB)
    if vocab:
        v.update(vocab)
    base, n_base, num_partitions, spill_base = _prepare_base(
        triples, num_partitions, spill_rows, spill_dir)

    # --- schema closures (rdfs5 / rdfs11) ------------------------------
    schema_preds = pa.array([v["subClassOf"], v["subPropertyOf"],
                             v["domain"], v["range"]], pa.string())
    schema = forward_chain(
        base.map_batches(
            lambda t: t.filter(pc.is_in(t["predicate"],
                                        value_set=schema_preds)),
            batch_format="pyarrow"),
        [_transitive(v["subClassOf"]), _transitive(v["subPropertyOf"])],
        max_rounds=max_rounds)

    def pairs(pred: str, key_col: str):
        return _pattern_scan(schema["closure"], ("?k", pred, "?s"),
                             rename={"k": key_col, "s": "_sup"})

    def build_sp(m: pd.DataFrame) -> pd.DataFrame:
        m = m.copy()
        m["predicate"] = m["_sup"]
        return m[list(_TRIPLE_COLS)]

    def build_typed(subj_col: str):
        def build(m: pd.DataFrame) -> pd.DataFrame:
            n = len(m)
            return pd.DataFrame({
                "subject": m[subj_col].astype(str).to_numpy(),
                "predicate": np.repeat(v["type"], n),
                "object": m["_sup"].astype(str).to_numpy(),
                "object_kind": np.repeat("iri", n),
                "object_lang": pd.Series([None] * n, dtype=object),
                "object_datatype": pd.Series([None] * n, dtype=object),
            })

        return build

    def derive(ds, pred: str, key_col: str, build, name: str):
        # hash-tier outputs are pinned; spill the large ones (see the
        # docstring's scale-shape note)
        nonlocal spill_base
        pmap = pairs(pred, key_col)
        out = _apply_pair_map(ds, pmap, key_col, build)
        if pmap.n <= cluster.BROADCAST_JOIN_ROWS or \
                out.count() <= spill_rows:
            return out
        import os

        from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
            scratch_dir,
            spill_roundtrip,
        )

        if spill_base is None:
            spill_base = spill_dir or scratch_dir("graft_rdfs_")
        return spill_roundtrip(out, os.path.join(spill_base, name),
                               _TRIPLES_SCHEMA)

    # rdfs7: predicate rewrite preserving object typing
    derived_sp = derive(base, v["subPropertyOf"], "predicate", build_sp,
                        "sp")
    inst = base.union(derived_sp)

    # rdfs2 / rdfs3 over base ∪ rewritten triples
    dom_types = derive(inst, v["domain"], "predicate",
                       build_typed("subject"), "dom")

    def iri_objects(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["object_kind"], "iri"))

    rng_types = derive(inst.map_batches(iri_objects, batch_format="pyarrow"),
                       v["range"], "predicate", build_typed("object"), "rng")

    # rdfs9: supertype join over every type triple derived so far
    all_types = inst.filter(expr=f'predicate == "{v["type"]}"') \
                    .union(dom_types).union(rng_types)
    sup_types = derive(all_types, v["subClassOf"], "object",
                       build_typed("subject"), "sup")

    candidates = (schema["derived"]
                  .union(derived_sp).union(dom_types)
                  .union(rng_types).union(sup_types))
    new = _new_vs_known(candidates, base, num_partitions).materialize()
    n_derived = new.count()
    return {"closure": base.union(new), "derived": new,
            "n_derived": n_derived,
            "rounds": schema["rounds"],
            "spill_dir": spill_base}


# ---------------------------------------------------------------------------
# OWL-lite property-semantics closure
# ---------------------------------------------------------------------------

_OWL_VOCAB = {
    "type": "rdf:type",
    "inverseOf": "owl:inverseOf",
    "symmetric": "owl:SymmetricProperty",
    "transitive": "owl:TransitiveProperty",
}


def owl_lite_closure(triples, vocab: dict[str, str] | None = None,
                     num_partitions: int | None = None,
                     max_rounds: int = 32,
                     spill_rows: int = 5_000_000,
                     spill_dir: str | None = None) -> dict:
    """Materialize the property-semantics entailment of ``triples`` for
    the OWL 2 RL fragment ``owl:inverseOf`` / ``owl:SymmetricProperty``
    / ``owl:TransitiveProperty`` (rules prp-inv1/2, prp-symp, prp-trp).
    Same contract as :func:`rdfs_closure` / :func:`forward_chain`:
    ``{"closure", "derived", "n_derived", "rounds", "spill_dir"}`` with
    ``derived`` deduped and disjoint from the base.

    Evaluation is STRATIFIED — one pass each, provably a fixpoint for
    this fragment:

    1. swap pass over the base: inverse rewrites (both directions of
       every ``owl:inverseOf`` pair) and symmetric self-swaps, one
       vectorized broadcast ``map_batches`` (swaps are involutions, so
       a second application of step 1 can derive nothing new).
       Triples with literal objects never swap — a literal can't be a
       subject;
    2. per-property transitive fixpoints via ONE semi-naive
       :func:`forward_chain` over base ∪ step-1 edges of the declared
       transitive properties (so a transitive property fed by its
       inverse, or a symmetric-transitive property, closes over its
       full edge set — the transitive closure of a symmetric relation
       is itself symmetric, so step 2 needs no symmetric re-pass);
    3. swap pass over step-2's derivations — this is what completes
       ``p owl:inverseOf q`` with ``q`` transitive: ``closure(q)``
       mirrors back onto ``p``.  Nothing feeds back: a step-3 triple's
       predicate is transitive only if it was already closed in
       step 2, and its mirror is closure(q) which step 2 finished.

    The declared-property schema (inverse pairs, symmetric/transitive
    membership) is property-count-sized and is collected to the driver
    unconditionally — unlike class hierarchies there is no plausible
    regime where it approaches corpus scale.  Instance data only ever
    streams: the swap passes are stateless ``map_batches``, the
    transitive fixpoint inherits :func:`forward_chain`'s spill
    behavior (a transitive edge set at or below :data:`DRIVER_ROWS` —
    the declared-transitive-predicate SUBSET of the corpus, usually
    orders of magnitude smaller — closes driver-side in pandas), and
    the final dedup-and-subtract is the one ``hash(identity) % P``
    exchange."""
    import ray

    v = dict(_OWL_VOCAB)
    if vocab:
        v.update(vocab)
    base, n_base, num_partitions, spill_base = _prepare_base(
        triples, num_partitions, spill_rows, spill_dir,
        prefix="graft_owl_")
    cols = list(_TRIPLE_COLS)
    empty = _empty_triples()

    schema_preds = pa.array([v["inverseOf"], v["type"]], pa.string())
    schema_ds = base.map_batches(
        lambda t: t.filter(pc.is_in(t["predicate"],
                                    value_set=schema_preds)),
        batch_format="pyarrow").materialize()
    sdf = (schema_ds.to_pandas() if schema_ds.count()
           else pd.DataFrame(columns=cols))
    inv = sdf[sdf["predicate"] == v["inverseOf"]]
    types = sdf[sdf["predicate"] == v["type"]]
    sym = set(types.loc[types["object"] == v["symmetric"], "subject"])
    trans = sorted(set(
        types.loc[types["object"] == v["transitive"], "subject"]))

    # p → set of predicates its swapped triple carries: q for each
    # inverseOf partner (both directions), p itself when symmetric
    targets: dict[str, set] = {}
    for s, o in zip(inv["subject"], inv["object"]):
        targets.setdefault(str(s), set()).add(str(o))
        targets.setdefault(str(o), set()).add(str(s))
    for p in sym:
        targets.setdefault(str(p), set()).add(str(p))

    swap_ref = None
    if targets:
        swap_ref = ray.put(pd.DataFrame(
            [(p, t) for p in sorted(targets) for t in sorted(targets[p])],
            columns=["_p", "_t"]))

    def swapped(ds):
        if swap_ref is None:
            return empty

        def apply(t: pa.Table) -> pa.Table:
            df = t.select(cols).to_pandas()
            m = df[df["object_kind"] == "iri"].merge(
                ray.get(swap_ref), left_on="predicate", right_on="_p",
                how="inner")
            n = len(m)
            out = pd.DataFrame({
                "subject": m["object"].astype(str).to_numpy(),
                "predicate": m["_t"].to_numpy(),
                "object": m["subject"].astype(str).to_numpy(),
                "object_kind": np.repeat("iri", n),
                "object_lang": pd.Series([None] * n, dtype=object),
                "object_datatype": pd.Series([None] * n, dtype=object),
            })
            return pa.Table.from_pandas(out, schema=_TRIPLES_SCHEMA,
                                        preserve_index=False)

        return ds.map_batches(apply, batch_format="pyarrow")

    derived_swap = swapped(base)
    inst = base.union(derived_swap) if targets else base

    rounds = 0
    derived_trans = empty
    if trans:
        tp = pa.array(trans, pa.string())
        fc = forward_chain(
            inst.map_batches(
                lambda t: t.filter(pc.is_in(t["predicate"], value_set=tp)),
                batch_format="pyarrow"),
            [_transitive(p) for p in trans],
            max_rounds=max_rounds, num_partitions=num_partitions,
            spill_rows=spill_rows)
        derived_trans = fc["derived"]
        rounds = fc["rounds"]

    candidates = derived_swap.union(derived_trans) \
                             .union(swapped(derived_trans))
    new = _new_vs_known(candidates, base, num_partitions).materialize()
    n_derived = new.count()
    return {"closure": base.union(new), "derived": new,
            "n_derived": n_derived, "rounds": rounds,
            "spill_dir": spill_base}


# ---------------------------------------------------------------------------
# Functional / inverse-functional property entity resolution (prp-fp, prp-ifp)
# ---------------------------------------------------------------------------

_FUNC_VOCAB = {
    "type": "rdf:type",
    "functional": "owl:FunctionalProperty",
    "inverseFunctional": "owl:InverseFunctionalProperty",
    "sameAs": "owl:sameAs",
}

_SEP = "\x1f"


def sameas_from_functional(triples, vocab: dict[str, str] | None = None,
                           num_partitions: int | None = None,
                           merge: bool = False,
                           spill_rows: int = 5_000_000,
                           spill_dir: str | None = None) -> dict:
    """Derive ``owl:sameAs`` identity edges from declared
    ``owl:FunctionalProperty`` / ``owl:InverseFunctionalProperty``
    semantics (OWL 2 RL prp-fp / prp-ifp) — the classic web-KG
    entity-resolution move ("two nodes sharing an email are the same
    entity"; "two spellings of one order's owner are the same
    customer").

    Returns ``{"pairs": Dataset (6-col sameAs triples, deduped,
    canonical-star orientation), "n_pairs": int, "spill_dir": ...}``;
    with ``merge=True`` additionally smushes the input through
    :func:`merge_equivalent_entities` over base ∪ derived pairs and
    adds its ``{"triples", "mapping", "n_mapped"}``.

    Semantics per group:

    - prp-ifp: for each inverse-functional ``p`` and each distinct
      VALUE (object compared with its full typing — kind, language,
      datatype: ``"5"^^xsd:int`` never groups with ``"5"@en``), all
      subjects sharing it are pairwise sameAs;
    - prp-fp: for each functional ``p`` and each subject, all its IRI
      objects are pairwise sameAs.  Literal objects never merge — OWL
      gives functional-literal conflicts no useful entailment here.

    A k-member group emits k−1 STAR edges to its lexicographic-min
    member, not the k² clique — equivalent under the downstream
    connected-components closure and linear in the group size, so a
    hot shared value (an empty email on half the crawl) costs O(k),
    not O(k²).

    Scale shape: the property declarations are property-count-sized
    and collected to the driver; instance rows stream through one
    stateless projection ``map_batches``, then the ONE
    ``hash(group) % P`` exchange of :func:`coarse_group_reduce`
    co-locates each (property, value) group and emits its star edges
    vectorized; a second coarse exchange on the pair identity dedups
    globally.  Nothing corpus-sized is pinned (shares
    :func:`_prepare_base`'s coalesce/spill intake)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    v = dict(_FUNC_VOCAB)
    if vocab:
        v.update(vocab)
    base, n_base, num_partitions, spill_base = _prepare_base(
        triples, num_partitions, spill_rows, spill_dir,
        prefix="graft_funcsame_")

    decl = pa.array([v["functional"], v["inverseFunctional"]], pa.string())
    schema_ds = base.map_batches(
        lambda t: t.filter(pc.and_(
            pc.equal(t["predicate"], v["type"]),
            pc.is_in(t["object"], value_set=decl))),
        batch_format="pyarrow").materialize()
    sdf = (schema_ds.to_pandas() if schema_ds.count()
           else pd.DataFrame(columns=list(_TRIPLE_COLS)))
    fp = sorted(set(sdf.loc[sdf["object"] == v["functional"], "subject"]))
    ifp = sorted(set(
        sdf.loc[sdf["object"] == v["inverseFunctional"], "subject"]))

    out: dict = {"pairs": _empty_triples(), "n_pairs": 0,
                 "spill_dir": spill_base}
    if fp or ifp:
        fp_set, ifp_set = set(fp), set(ifp)

        def members(df: pd.DataFrame) -> pd.DataFrame:
            frames = []
            if ifp_set:
                m = df[df["predicate"].isin(ifp_set)]
                if len(m):
                    # full value typing in the key: kind + lang + datatype
                    gkey = ("I" + _SEP + m["predicate"] + _SEP
                            + m["object"].astype(str) + _SEP
                            + m["object_kind"].fillna("iri") + _SEP
                            + m["object_lang"].fillna("") + _SEP
                            + m["object_datatype"].fillna(""))
                    frames.append(pd.DataFrame(
                        {"gkey": gkey, "member": m["subject"]}))
            if fp_set:
                kind = df["object_kind"].fillna("iri")
                m = df[df["predicate"].isin(fp_set) & (kind == "iri")]
                if len(m):
                    gkey = ("F" + _SEP + m["predicate"] + _SEP
                            + m["subject"])
                    frames.append(pd.DataFrame(
                        {"gkey": gkey, "member": m["object"]}))
            if not frames:
                return pd.DataFrame({"gkey": pd.Series(dtype=object),
                                     "member": pd.Series(dtype=object)})
            return pd.concat(frames, ignore_index=True)

        def star_edges(g: pd.DataFrame) -> pd.DataFrame:
            g = g.drop_duplicates(["gkey", "member"])
            mn = g.groupby("gkey")["member"].transform("min")
            hit = g[g["member"] != mn]
            return pd.DataFrame({"subject": mn[hit.index].to_numpy(),
                                 "object": hit["member"].to_numpy()})

        raw = coarse_group_reduce(
            base.map_batches(members, batch_format="pandas"),
            ["gkey"], star_edges, num_coarse=num_partitions)
        # distinct (subject, object) pairs may repeat across gkeys
        # (two orders assert the same spelling variant): one more
        # coarse exchange on the pair identity dedups globally.
        pairs = coarse_group_reduce(
            raw, ["subject", "object"],
            lambda g: g.drop_duplicates(["subject", "object"]),
            num_coarse=num_partitions)

        def to_triples(df: pd.DataFrame) -> pa.Table:
            n = len(df)
            return pa.Table.from_pandas(pd.DataFrame({
                "subject": df["subject"].to_numpy(),
                "predicate": np.repeat(v["sameAs"], n),
                "object": df["object"].to_numpy(),
                "object_kind": np.repeat("iri", n),
                "object_lang": pd.Series([None] * n, dtype=object),
                "object_datatype": pd.Series([None] * n, dtype=object),
            }), schema=_TRIPLES_SCHEMA, preserve_index=False)

        pairs = pairs.map_batches(to_triples,
                                  batch_format="pandas").materialize()
        out["pairs"] = pairs
        out["n_pairs"] = pairs.count()

    if merge:
        merged = merge_equivalent_entities(
            base.union(out["pairs"]), v["sameAs"])
        out.update(triples=merged["triples"], mapping=merged["mapping"],
                   n_mapped=merged["n_mapped"])
    return out


# ---------------------------------------------------------------------------
# OWL equivalence closure (equivalentClass / equivalentProperty)
# ---------------------------------------------------------------------------

_EQ_VOCAB = {
    "equivalentClass": "owl:equivalentClass",
    "equivalentProperty": "owl:equivalentProperty",
    "subClassOf": "rdfs:subClassOf",
    "subPropertyOf": "rdfs:subPropertyOf",
}


def owl_equivalence_closure(triples, vocab: dict[str, str] | None = None,
                            num_partitions: int | None = None,
                            max_rounds: int = 32,
                            spill_rows: int = 5_000_000,
                            spill_dir: str | None = None) -> dict:
    """Materialize ``owl:equivalentClass`` / ``owl:equivalentProperty``
    entailment (OWL 2 RL cax-eqc1/2, scm-eqc1/2, scm-eqp1/2 +
    symmetry/transitivity of the eq relations): each equivalence is
    closed symmetric-transitively, rewritten into BOTH
    ``rdfs:subClassOf`` / ``rdfs:subPropertyOf`` directions, and the
    instance consequences (type lifting, predicate lifting) come from
    ONE composed :func:`rdfs_closure` pass over base ∪ the expansion.
    Same contract as the other closure entries: ``{"closure",
    "derived", "n_derived", "rounds", "spill_dir"}``, ``derived``
    deduped and disjoint from the base.

    Scale shape: equivalence declarations relate class/property NAMES —
    schema-sized by construction.  Their symmetric-transitive closure is
    ONE :func:`forward_chain` call, one transitive rule per equivalence
    predicate over the declared pairs and their mirrors (driver-side
    pandas below :data:`DRIVER_ROWS`, the same treatment
    :func:`rdfs_closure` gives ontology hierarchies); instance data only
    ever streams through the composed ``rdfs_closure`` (broadcast
    schema, stateless ``map_batches``, one final dedup-and-subtract
    exchange)."""
    v = dict(_EQ_VOCAB)
    if vocab:
        v.update(vocab)
    base, n_base, num_partitions, spill_base = _prepare_base(
        triples, num_partitions, spill_rows, spill_dir,
        prefix="graft_eq_")

    eq_class, eq_prop = v["equivalentClass"], v["equivalentProperty"]
    eq_preds = pa.array([eq_class, eq_prop], pa.string())

    def mirrored(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["predicate"], value_set=eq_preds))
        s, p, o = (t[c].chunks for c in ("subject", "predicate", "object"))
        return pa.table({"subject": pa.chunked_array(s + o, pa.string()),
                         "predicate": pa.chunked_array(p + p, pa.string()),
                         "object": pa.chunked_array(o + s, pa.string())})

    eq = forward_chain(base.map_batches(mirrored, batch_format="pyarrow"),
                       [_transitive(eq_class), _transitive(eq_prop)],
                       max_rounds=max_rounds, num_partitions=num_partitions,
                       spill_rows=spill_rows)
    if eq["closure"].count() == 0:
        return {"closure": base, "derived": _empty_triples(),
                "n_derived": 0, "rounds": 0, "spill_dir": spill_base}

    def with_sub(t: pa.Table) -> pa.Table:
        sub = pc.if_else(pc.equal(t["predicate"], eq_class),
                         v["subClassOf"], v["subPropertyOf"])
        return pa.concat_tables([t, t.set_column(1, "predicate", sub)])

    expansion = eq["closure"].map_batches(with_sub, batch_format="pyarrow")
    sub = rdfs_closure(base.union(expansion),
                       num_partitions=num_partitions,
                       max_rounds=max_rounds, spill_rows=spill_rows)
    rounds = max(eq["rounds"], sub["rounds"])

    candidates = expansion.union(sub["derived"])
    new = _new_vs_known(candidates, base, num_partitions).materialize()
    n_derived = new.count()
    return {"closure": base.union(new), "derived": new,
            "n_derived": n_derived, "rounds": rounds,
            "spill_dir": spill_base}


# ---------------------------------------------------------------------------
# DRed deletion with rederivation (incremental maintenance under retraction)
# ---------------------------------------------------------------------------

def _pd_dred(closure_df: pd.DataFrame, base_df: pd.DataFrame,
             deletions_df: pd.DataFrame, rules: list[Rule],
             max_rounds: int) -> dict:
    """Driver-side DRed, identical semantics to the distributed path."""
    cols = list(_TRIPLE_COLS)

    def inter(a, b):
        return a.merge(b[cols].drop_duplicates(), on=cols, how="inner")

    full = _pd_norm(closure_df)
    base = _pd_norm(base_df)
    dels = inter(_pd_norm(deletions_df), full)
    if dels.empty:
        return {"closure": _pd_wrap(full),
                "removed": _pd_wrap(full.iloc[0:0]),
                "n_removed": 0, "rounds_over": 0, "rounds_red": 0}

    # --- overdeletion: semi-naive from the deleted facts ---------------
    over = dels
    delta = dels
    rounds_over = 0
    for rounds_over in range(1, max_rounds + 1):
        cands = []
        for rule in rules:
            for i in range(len(rule.body)):
                srcs = [delta if j == i else None
                        for j in range(len(rule.body))]
                b = _pd_bgp(full, rule, srcs)
                if len(b):
                    cands.append(_pd_expand_head(b, rule.head))
        if cands:
            cand = pd.concat(cands,
                             ignore_index=True).drop_duplicates(subset=cols)
            new = _pd_minus(inter(cand, full), over)
        else:
            new = full.iloc[0:0]
        if new.empty:
            rounds_over -= 1
            break
        over = pd.concat([over, new], ignore_index=True)
        delta = new

    keep = _pd_minus(full, over)
    # --- rederivation: head bound to the candidate set -----------------
    cand_set = _pd_minus(over, dels)
    readd = inter(cand_set, _pd_minus(base, dels))  # EDB survivors
    keep = pd.concat([keep, readd], ignore_index=True)
    cand_set = _pd_minus(cand_set, readd)
    delta = readd
    rounds_red = 0
    first = True
    while len(cand_set) and rounds_red < max_rounds:
        cands = []
        for rule in rules:
            for tmpl in rule.head:
                head_pat = tuple(tmpl[:3])
                if not _pd_pattern_vars_exist(head_pat):
                    b = _pd_bgp(keep, rule)
                    if len(b):
                        hit = inter(_pd_expand_head(b.iloc[:1], [tmpl]),
                                    cand_set)
                        if len(hit):
                            cands.append(hit)
                    continue
                aug = Rule(list(rule.body) + [head_pat], [tmpl])
                if first:
                    srcs_list = [[None] * len(rule.body) + [cand_set]]
                else:
                    srcs_list = [
                        [delta if j == i else None
                         for j in range(len(rule.body))] + [cand_set]
                        for i in range(len(rule.body))]
                for srcs in srcs_list:
                    b = _pd_bgp(keep, aug, srcs)
                    if len(b):
                        cands.append(_pd_expand_head(b, [tmpl]))
        if not cands:
            break
        cand = pd.concat(cands,
                         ignore_index=True).drop_duplicates(subset=cols)
        new = inter(cand, cand_set)
        if new.empty:
            break
        keep = pd.concat([keep, new], ignore_index=True)
        cand_set = _pd_minus(cand_set, new)
        delta = new
        first = False
        rounds_red += 1

    removed = _pd_minus(full, keep)
    return {"closure": _pd_wrap(keep), "removed": _pd_wrap(removed),
            "n_removed": len(removed), "rounds_over": rounds_over,
            "rounds_red": rounds_red}


def _pd_pattern_vars_exist(pattern) -> bool:
    return any(isinstance(t, str) and t.startswith("?") for t in pattern)


def dred_delete(closure, rules: list[Rule], deletions, base,
                num_partitions: int | None = None,
                max_rounds: int = 12) -> dict:
    """Retract ``deletions`` (base facts) from an already-materialized
    ``closure`` under ``rules`` using **DRed**
    (delete-and-rederive, Gupta/Mumick/Subrahmanian): the counterpart
    of :func:`forward_chain`'s ``seed_delta`` additions path, so the
    two together maintain a 100-TB entailed KG under both kinds of
    change without ever re-closing it.

    Phases, both DELTA-sized:

    1. **Overdeletion** — semi-naive from the deleted facts: a closure
       fact joins the overdeletion set when some rule instantiation
       that yields it uses an already-overdeleted fact (body pattern i
       bound to the round's delta, the rest to the pre-deletion
       closure).  Cost tracks the dependency cone of the deletions,
       never the closure size.
    2. **Rederivation** — an overdeleted fact returns if it is itself a
       surviving base fact, or some rule re-derives it from RETAINED
       facts only.  The search is head-restricted: each rule body is
       joined WITH ITS HEAD PATTERN BOUND TO THE CANDIDATE SET (the
       overdeleted non-base facts), so rederivation joins start from
       the delta too — no full rule re-evaluation over the kept
       closure.  Facts that only support each other in a cycle with no
       external support are NOT rederived (bodies evaluate against the
       kept set, which excludes all candidates).

    ``base`` is the EDB (extracted) fact set — required, because
    rederivation must know which facts hold without derivation.
    Returns ``{"closure", "removed", "n_removed", "rounds_over",
    "rounds_red"}`` with ``removed`` = old closure − new closure
    (includes the deletions themselves).

    Up to :data:`DRIVER_ROWS` closure facts (read at call time) the
    identical algorithm runs driver-side in pandas (:func:`_pd_dred`,
    distributed-equivalence-tested)."""
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

    if hasattr(closure, "scan_for_predicate"):
        closure = closure.scan_for_predicate(None)
    full = _norm_triples(closure).materialize()
    n_full = full.count()
    if num_partitions is None:
        num_partitions = default_coarse_partitions(max(n_full, 1))
    base_n = _norm_triples(base).materialize()
    dels_n = _norm_triples(deletions).materialize()

    if n_full <= DRIVER_ROWS:
        return _pd_dred(full.to_pandas(), base_n.to_pandas(),
                        dels_n.to_pandas(), rules, max_rounds)

    dels = _new_vs_known(dels_n, full, num_partitions,
                         keep_known=True).materialize()
    if dels.count() == 0:
        return {"closure": full, "removed": _empty_triples(),
                "n_removed": 0, "rounds_over": 0, "rounds_red": 0}

    # --- overdeletion ---------------------------------------------------
    over = dels
    delta = dels
    rounds_over = 0
    for rounds_over in range(1, max_rounds + 1):
        cand_parts = []
        for rule in rules:
            for i in range(len(rule.body)):
                srcs = [delta if j == i else None
                        for j in range(len(rule.body))]
                sols = bgp_query(full, rule.body, project=rule.body_vars,
                                 distinct=True, pattern_sources=srcs)
                cand_parts.append(sols.map_batches(
                    _expand_templates(rule.head), batch_format="pyarrow"))
        cand = cand_parts[0]
        for extra in cand_parts[1:]:
            cand = cand.union(extra)
        hit = _new_vs_known(cand, full, num_partitions, keep_known=True)
        new = _new_vs_known(hit, over, num_partitions).materialize()
        if new.count() == 0:
            rounds_over -= 1
            break
        over = over.union(new).materialize()
        delta = new

    keep = _new_vs_known(full, over, num_partitions).materialize()
    # --- rederivation ----------------------------------------------------
    cand_set = _new_vs_known(over, dels, num_partitions).materialize()
    surviving_base = _new_vs_known(base_n, dels, num_partitions)
    readd = _new_vs_known(cand_set, surviving_base, num_partitions,
                          keep_known=True).materialize()
    if readd.count():
        keep = keep.union(readd).materialize()
        cand_set = _new_vs_known(cand_set, readd,
                                 num_partitions).materialize()
    delta = readd
    rounds_red = 0
    first = True
    while cand_set.count() and rounds_red < max_rounds:
        cand_parts = []
        for rule in rules:
            for tmpl in rule.head:
                head_pat = tuple(tmpl[:3])
                if not _pd_pattern_vars_exist(head_pat):
                    sols = bgp_query(keep, rule.body,
                                     project=rule.body_vars[:1],
                                     distinct=True)
                    if sols.limit(1).count():
                        one = ray.data.from_arrow(pa.table({
                            "subject": [head_pat[0]],
                            "predicate": [head_pat[1]],
                            "object": [head_pat[2]]}))
                        cand_parts.append(one.map_batches(
                            _expand_templates([tmpl]),
                            batch_format="pyarrow"))
                    continue
                aug = Rule(list(rule.body) + [head_pat], [tmpl])
                if first:
                    srcs_list = [[None] * len(rule.body) + [cand_set]]
                else:
                    srcs_list = [
                        [delta if j == i else None
                         for j in range(len(rule.body))] + [cand_set]
                        for i in range(len(rule.body))]
                for srcs in srcs_list:
                    sols = bgp_query(keep, aug.body,
                                     project=aug.body_vars,
                                     distinct=True, pattern_sources=srcs)
                    cand_parts.append(sols.map_batches(
                        _expand_templates([tmpl]),
                        batch_format="pyarrow"))
        if not cand_parts:
            break
        cand = cand_parts[0]
        for extra in cand_parts[1:]:
            cand = cand.union(extra)
        new = _new_vs_known(cand, cand_set, num_partitions,
                            keep_known=True).materialize()
        if new.count() == 0:
            break
        keep = keep.union(new).materialize()
        cand_set = _new_vs_known(cand_set, new,
                                 num_partitions).materialize()
        delta = new
        first = False
        rounds_red += 1

    removed = _new_vs_known(full, keep, num_partitions).materialize()
    return {"closure": keep, "removed": removed,
            "n_removed": removed.count(), "rounds_over": rounds_over,
            "rounds_red": rounds_red}
