"""Distributed BGP (basic-graph-pattern) querying over a triples Dataset.

The reference evaluates ``select:`` SPARQL only against small per-actor
reference graphs (kg_text_to_ttl mapping lookups; reimplemented in
``state/graph_index.py``).  This module is the *scale* path for the same
conjunctive-pattern semantics: a SPARQL-style BGP evaluated over the
MATERIALIZED triple table (the engine's own KG output, a ``ttl_dataset``
read-back, or any Dataset in the pipeline's triple schema) with
distributed joins — the post-construction query story of a
kg_construct engine.

Semantics
---------
A pattern is a ``(subject, predicate, object)`` tuple; a term starting
with ``"?"`` is a variable, anything else is a constant matched against
the column's lexical value (IRIs and literals share the ``object``
column; ``object_kind`` disambiguates when it matters — pass
``object_kind_filter`` per query if needed).  The result is one row per
solution mapping, one column per projected variable.

Scale shape
-----------
- Each pattern becomes ONE filtered projection of the triple table:
  constants are pushed into a vectorized ``pyarrow.compute`` mask and
  only the variable columns survive, so what enters the joins is the
  few-column binding table, never full triple rows.  Over a
  materialized source (``materialize()``, ``from_arrow``) the scan is
  one remote task per source block; over a lazy source it fuses into
  the one execution that runs the source's lineage.
- Patterns are joined on ALL shared variables through the package's
  one solution join (``functions/solutions.py::solution_join``, also
  used by every SPARQL join in ``sparql_dist.py``): a side of at most
  ``functions.cluster.BROADCAST_JOIN_ROWS`` rows is broadcast to one
  probe task per block of the other side, a larger one takes Ray's
  distributed hash join.  Join order is chosen by true cardinality
  (smallest binding table first, then the smallest connected one); a
  selectivity heuristic (most-constant patterns first — a bound
  predicate+object is the classic most-selective SPARQL access path)
  checks connectivity up front so no cross product is ever formed;
  disconnected pattern groups are rejected.
- ``distinct`` dedups via ``coarse_group_reduce`` (in-block combiner +
  one hash exchange), never a driver-side collect.

Solution sets: every operator passes a ``functions.solutions.Solutions``
— the object refs of the set's non-empty Arrow blocks, its variables
and its exact row count — and narrow operators run as remote tasks on
the block refs.  Columns are static (SPARQL 1.1 §18.2.1: a group's
in-scope variables follow from its syntax), so no operator asks a
Dataset for its schema.
"""

from __future__ import annotations

from collections.abc import Sequence

import pyarrow as pa
import pyarrow.compute as pc

from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
    Solutions,
    _blocks,
    _str_schema,
    compact,
    solution_join,
)

__all__ = ["bgp_query", "khop_subgraph", "kg_profile",
           "event_triples", "order_triples", "rdfs_demo_triples",
           "owl_demo_triples", "sameas_demo_triples", "eq_demo_triples"]

_POS_COLS = ("subject", "predicate", "object")
_QUAD_COLS = ("subject", "predicate", "object", "graph")


def _sized_read(path: str, columns=None):
    """Metadata-sized read (functions/cluster.py::sized_read_parquet):
    the KG encodings union several small-table reads, and Ray's default
    ~2xCPU blocks per read turn their first all-to-all into hundreds of
    sub-millisecond tasks (see order_triples)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        sized_read_parquet,
    )

    return sized_read_parquet(path, columns=columns)


def _is_var(term: str) -> bool:
    return isinstance(term, str) and term.startswith("?")


def _pattern_vars(pattern: Sequence[str]) -> list[str]:
    seen: list[str] = []
    for term in pattern:
        if _is_var(term) and term not in seen:
            seen.append(term)
    return seen


def _selectivity_key(pattern: Sequence[str]) -> tuple:
    """Heuristic access-path cost (lower = more selective = join earlier):
    count of unbound positions, with a bound object worth slightly more
    than a bound subject than a bound predicate (predicates are the
    lowest-cardinality column in a KG, so a predicate-only pattern is the
    least selective single-constant scan)."""
    n_vars = sum(1 for t in pattern if _is_var(t))
    bonus = 0
    if not _is_var(pattern[2]):
        bonus -= 3
    if not _is_var(pattern[0]):
        bonus -= 2
    if not _is_var(pattern[1]):
        bonus -= 1
    if len(pattern) > 3 and not _is_var(pattern[3]):
        bonus -= 2  # a bound graph prunes like a bound subject
    return (n_vars, bonus)


def _pattern_scan(triples, pattern: Sequence[str],
                  rename: dict[str, str] | None = None) -> "Solutions":
    """ONE filtered projection: constants → pyarrow mask, variables →
    renamed binding columns.  Repeated variables inside the pattern
    (e.g. ``(?x, p, ?x)``) become in-scan column-equality filters.

    ``rename`` maps output column names (var without ``?``) to final
    names.  Over a materialized source the scan is one task per source
    block; over a lazy one it runs inside the source's execution."""
    cols = _POS_COLS if len(pattern) == 3 else _QUAD_COLS
    rename = rename or {}
    var_cols = _pattern_vars(pattern)
    out_names = [rename.get(v[1:], v[1:]) for v in var_cols]
    out_schema = _str_schema(out_names)

    if hasattr(triples, "scan_for_predicate"):
        # predicate-bucketed TripleStore: a constant predicate prunes
        # the read to its bucket before the scan filter runs
        triples = triples.scan_for_predicate(
            None if _is_var(pattern[1]) else pattern[1])

    def scan(t: pa.Table) -> pa.Table:
        mask = None
        first_col: dict[str, str] = {}
        for col, term in zip(cols, pattern):
            if _is_var(term):
                if term in first_col:
                    m = pc.equal(t[first_col[term]], t[col])
                else:
                    first_col[term] = col
                    continue
            else:
                m = pc.equal(t[col], term)
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            t = t.filter(pc.fill_null(mask, False))
        return pa.table(
            {n: pc.cast(t[first_col[v]], pa.string())
             for v, n in zip(var_cols, out_names)},
            schema=out_schema,
        )

    if _is_materialized(triples):
        return _source_blocks(triples).map(scan, out_names)
    return compact(triples.map_batches(scan, batch_format="pyarrow"),
                   out_names)


def _is_materialized(ds) -> bool:
    from ray.data.dataset import MaterializedDataset

    return isinstance(ds, MaterializedDataset)


def _plan_order_indices(patterns: list[Sequence[str]]) -> list[int]:
    """Most-selective pattern first, then greedy by shared-variable
    connectivity (never introduces a cross product).  Returns indices
    into ``patterns`` so per-pattern metadata (e.g. semi-naive source
    overrides) survives the reorder."""
    remaining = sorted(range(len(patterns)),
                       key=lambda i: _selectivity_key(patterns[i]))
    order = [remaining.pop(0)]
    bound = set(_pattern_vars(patterns[order[0]]))
    while remaining:
        for pos, i in enumerate(remaining):
            if bound & set(_pattern_vars(patterns[i])):
                order.append(remaining.pop(pos))
                bound |= set(_pattern_vars(patterns[i]))
                break
        else:
            raise ValueError(
                "Disconnected BGP: no remaining pattern shares a variable "
                f"with the bound set {sorted(bound)} — a cross product "
                "does not scale and is rejected; bridge the groups with a "
                "shared variable."
            )
    return order


def _source_blocks(ds) -> Solutions:
    """A materialized triples source's blocks, taken as they are, for
    a :meth:`Solutions.map` to read (its ``cols`` stay empty; the task
    converts a pandas block)."""
    refs, n = _blocks(ds)
    return Solutions(refs, (), n)


def _distinct_keys(keys):
    """Block fn: a block's distinct ``keys`` tuples as strings — all a
    semi / anti join needs of its right side."""
    keys = list(keys)

    def fn(t: pa.Table) -> pa.Table:
        return pa.table({c: t[c].cast(pa.string()) for c in keys}) \
                 .group_by(keys).aggregate([])

    return fn


def _validate_patterns(patterns):
    if not patterns:
        raise ValueError("bgp_query needs at least one pattern")
    for pat in patterns:
        if len(pat) not in (3, 4):
            raise ValueError(
                f"pattern must be (s, p, o) or (s, p, o, g), got {pat!r}")
        if not _pattern_vars(pat):
            raise ValueError(
                f"pattern {pat!r} has no variables; constant-only "
                "assertions belong in a filter, not a BGP join"
            )


def _join_group(triples, patterns, num_partitions, pattern_sources=None):
    """Inner-join one connected pattern group into :class:`Solutions`
    over the group's variables.

    Join order is TRUE-cardinality greedy: every pattern is scanned
    first (each scan knows its row count), then joins start from the
    smallest binding table and always attach the smallest connected
    remainder.  The static selectivity heuristic
    (:func:`_plan_order_indices`) is kept only for the upfront
    connectivity check, where it raises on cross products.

    ``pattern_sources``: optional per-pattern source Datasets (aligned
    with ``patterns``; ``None`` entries fall back to ``triples``) — the
    semi-naive evaluation hook: a rule body re-evaluated with one
    pattern bound to the round's DELTA scans only the delta there."""
    patterns = list(patterns)
    _plan_order_indices(patterns)  # connectivity check (raises)
    all_vars = sorted({v[1:] for p in patterns for v in _pattern_vars(p)})

    def _src(i):
        if pattern_sources is not None and pattern_sources[i] is not None:
            return pattern_sources[i]
        return triples

    scans = []
    for i, pat in enumerate(patterns):
        scan = _pattern_scan(_src(i), pat)
        if scan.n == 0:
            return Solutions.empty(all_vars)
        scans.append(scan)

    acc = scans.pop(min(range(len(scans)), key=lambda i: scans[i].n))
    while scans:
        nxt = min((i for i, s in enumerate(scans)
                   if set(acc.cols) & set(s.cols)),
                  key=lambda i: scans[i].n)
        rhs = scans.pop(nxt)
        acc = solution_join(
            acc, rhs, "inner", sorted(set(acc.cols) & set(rhs.cols)),
            sorted(set(acc.cols) | set(rhs.cols)),
            num_partitions=num_partitions)
        if acc.n == 0:
            return Solutions.empty(all_vars)
    return acc


def _pad(schema: pa.Schema):
    """Block fn: the block over ``schema``'s columns, in its order and
    types; a column the block lacks is all-null — an OPTIONAL side with
    no solutions extends every row unbound, a UNION arm leaves the
    other arms' variables unbound."""
    def fn(t: pa.Table) -> pa.Table:
        return pa.table(
            {f.name: (t[f.name].cast(f.type) if f.name in t.column_names
                      else pa.nulls(len(t), f.type)) for f in schema},
            schema=schema)

    return fn


_FILTER_OPS = {
    "=": pc.equal, "!=": pc.not_equal, "<": pc.less, "<=": pc.less_equal,
    ">": pc.greater, ">=": pc.greater_equal,
}


def _solution_filter(filters):
    """Block fn of vectorized solution filters.  Each filter is
    ``(?var, op, value)`` with op in ``= != < <= > >= is_null not_null``
    (string comparison — bindings are lexical values), or a callable
    ``fn(pa.Table) -> BooleanArray``.  SPARQL semantics: a comparison on
    an unbound (null) variable does not match; ``is_null`` selects the
    unbound rows an OPTIONAL group left behind."""
    def mask_batch(t: pa.Table) -> pa.Table:
        mask = None
        for f in filters:
            if callable(f):
                m = f(t)
            else:
                var, op, value = f
                col = t[var.lstrip("?")]
                if op == "is_null":
                    m = pc.is_null(col)
                elif op == "not_null":
                    m = pc.is_valid(col)
                elif op in _FILTER_OPS:
                    m = pc.fill_null(_FILTER_OPS[op](col, value), False)
                else:
                    raise ValueError(f"unknown filter op {op!r}")
            mask = m if mask is None else pc.and_(mask, m)
        return t.filter(mask) if mask is not None else t

    return mask_batch


def bgp_query(
    triples,
    patterns: list[Sequence[str]],
    project: list[str] | None = None,
    distinct: bool = False,
    num_partitions: int | None = None,
    optional_patterns: list[Sequence[str]] | None = None,
    minus_patterns: list[Sequence[str]] | None = None,
    filters: list | None = None,
    pattern_sources: list | None = None,
    optional_groups: list[list[Sequence[str]]] | None = None,
):
    """Evaluate a conjunctive triple-pattern query over a triples Dataset.

    ``triples`` needs ``subject`` / ``predicate`` / ``object`` columns
    (the pipeline's triple schema; extra columns are ignored).  Returns a
    materialized Dataset with one ``string`` column per variable (names
    without the ``?``), restricted to ``project`` if given.

    A materialized input (``materialize()``, ``from_arrow``) is scanned
    block by block in remote tasks, with no Ray Data execution.  A lazy
    input runs its lineage once per pattern scan (Ray datasets are
    lazy): parquet-backed inputs re-read pruned (cheap); COMPUTED triple
    encodings should be ``materialize()``d by the caller before a
    multi-pattern query, or every pattern re-runs the encoding.

    ``optional_patterns``: ONE internally-connected OPTIONAL group,
    left-outer-joined to the required solutions on their shared
    variables (SPARQL ``OPTIONAL { }``) — unmatched rows carry nulls.
    ``optional_groups``: SEVERAL such groups, applied sequentially in
    order; each group must share variables with the REQUIRED patterns
    (sharing only a previous OPTIONAL's possibly-null variables would
    need SPARQL's per-binding substitution semantics — a left-outer
    join on a null key silently differs, so it is rejected).
    ``minus_patterns``: ONE internally-connected group subtracted from
    the solutions on shared variables (SPARQL ``MINUS`` / ``FILTER NOT
    EXISTS`` over shared vars) — a ``left_anti`` :func:`solution_join`.
    ``num_partitions`` applies to joins that take the hash-shuffle tier.
    ``filters``: solution filters applied after all joins (see
    :func:`_solution_filter`); combine with ``("?v", "is_null", None)``
    for the classic OPTIONAL-based negation.
    """
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    opt_groups = list(optional_groups or [])
    if optional_patterns:
        opt_groups.insert(0, optional_patterns)
    sols = _bgp_solutions(triples, patterns, num_partitions, opt_groups,
                          minus_patterns, pattern_sources)
    cols = [v.lstrip("?") for v in project] if project else sorted(
        sols.cols)
    if filters:
        sols = sols.map(_solution_filter(filters), sols.cols)
    sols = sols.select(cols)
    if distinct and sols.n:
        return coarse_group_reduce(
            sols.ds, cols, lambda g: g.drop_duplicates(subset=cols))
    return sols.ds


def _bgp_solutions(triples, patterns, num_partitions=None, opt_groups=(),
                   minus_patterns=None, pattern_sources=None) -> Solutions:
    """:func:`bgp_query`'s joins — required patterns, OPTIONAL groups,
    MINUS — as :class:`Solutions` over every variable they bind."""
    _validate_patterns(patterns)
    for grp in opt_groups:
        _validate_patterns(grp)
    acc = _join_group(triples, patterns, num_partitions,
                      pattern_sources=pattern_sources)
    bound = set(acc.cols)
    if acc.n == 0:
        return Solutions.empty(sorted(
            bound | {v[1:] for grp in opt_groups for pat in grp
                     for v in _pattern_vars(pat)}))

    for grp in opt_groups:
        opt_vars = {v[1:] for pat in grp for v in _pattern_vars(pat)}
        shared = sorted(set(acc.cols) & opt_vars)
        if (bound & opt_vars) - set(shared):
            raise NotImplementedError(
                "OPTIONAL group shares a previous OPTIONAL's "
                "possibly-null variables — per-binding substitution "
                "semantics are not supported distributed")
        if not shared:
            raise ValueError(
                "OPTIONAL group shares no variable with the required "
                "patterns — an unconstrained cross product is rejected")
        opt = _join_group(triples, grp, num_partitions)
        extra = sorted(opt_vars - bound)
        if opt.n == 0:
            cols = sorted(bound) + extra
            acc = acc.map(_pad(_str_schema(cols)), cols)
        else:
            acc = solution_join(acc, opt, "left_outer", shared,
                                sorted(bound) + extra,
                                num_partitions=num_partitions)
        bound |= opt_vars

    if minus_patterns:
        _validate_patterns(minus_patterns)
        mvars = {v[1:] for pat in minus_patterns for v in _pattern_vars(pat)}
        shared = sorted(bound & mvars)
        if not shared:
            raise ValueError(
                "MINUS group shares no variable with the solutions — "
                "the subtraction would be a no-op or a cross product")
        mins = _join_group(triples, minus_patterns, num_partitions)
        if mins.n:
            # the subtrahend's distinct join keys (anti join needs key
            # presence only)
            acc = solution_join(
                acc, mins.map(_distinct_keys(shared), shared), "left_anti",
                shared, acc.cols, num_partitions=num_partitions)
    return acc


def khop_subgraph(triples, seeds, k: int = 2, direction: str = "both",
                  max_frontier: int = 1_000_000):
    """DESCRIBE-style neighborhood: every triple within ``k`` hops of the
    ``seeds`` (IRIs), following edges forward (``"out"``), backward
    (``"in"``) or ``"both"``.  Returns the deduped subgraph Dataset.

    Scale shape: the frontier is the BROADCAST side (``ray.put`` once per
    hop, vectorized ``pc.is_in`` inside ``map_batches`` — the triple
    table is scanned once per hop, never shuffled).  The frontier itself
    is driver-held, correct for the DESCRIBE use case (entity pages,
    debugging, sampling); it grows with the k-hop ball, so a
    ``max_frontier`` guard fails fast with guidance instead of silently
    collecting a connected component into the driver."""
    import ray

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    if direction not in ("out", "in", "both"):
        raise ValueError(f"direction must be out/in/both, got {direction!r}")
    if hasattr(triples, "scan_for_predicate"):
        triples = triples.scan_for_predicate(None)
    frontier = sorted(set(seeds))
    visited = set(frontier)
    hop_datasets = []
    for _hop in range(k):
        ref = ray.put(frontier)

        def edge_scan(t: pa.Table, ref=ref) -> pa.Table:
            front = pa.array(ray.get(ref), pa.string())
            mask = None
            if direction in ("out", "both"):
                mask = pc.is_in(t["subject"], value_set=front)
            if direction in ("in", "both"):
                m2 = pc.is_in(t["object"], value_set=front)
                mask = m2 if mask is None else pc.or_(mask, m2)
            return t.filter(pc.fill_null(mask, False))

        hop = triples.map_batches(edge_scan, batch_format="pyarrow") \
                     .materialize()
        hop_datasets.append(hop)
        # next frontier: endpoint nodes not yet visited (distinct is
        # pushed into the scan result, which is hop-ball-sized)
        ends = set()
        for batch in hop.iter_batches(batch_format="pyarrow"):
            if direction in ("out", "both"):
                ends.update(batch["object"].to_pylist())
            if direction in ("in", "both"):
                ends.update(batch["subject"].to_pylist())
        frontier = sorted(ends - visited)
        visited |= ends
        if len(visited) > max_frontier:
            raise ValueError(
                f"k-hop ball exceeded max_frontier={max_frontier} nodes "
                f"at hop {_hop + 1}; this neighborhood is a large "
                "connected component — use graph_algos.connected_"
                "components / bgp_query instead of DESCRIBE")
        if not frontier:
            break

    sub = hop_datasets[0]
    for extra in hop_datasets[1:]:
        sub = sub.union(extra)
    cols = [c for c in ("subject", "predicate", "object", "object_kind",
                        "object_lang", "object_datatype")
            if c in sub.schema().names]
    sub = sub.select_columns(cols) if cols != sub.schema().names else sub
    return coarse_group_reduce(
        sub, cols, lambda g: g.drop_duplicates(subset=cols))


def kg_profile(triples):
    """Per-predicate KG profile: triple count, EXACT distinct subject /
    object counts, literal vs IRI object split.  The ontology-level
    summary a KG owner reads before publishing (vocabulary drift, new
    predicates appearing in a crawl, literal/IRI mix shifts).

    Scale shape: ONE exchange on ``hash(predicate)`` via
    ``coarse_group_reduce``; each partition computes its predicates'
    counts and nuniques in a single vectorized pandas pass.  Caveat: a
    predicate's rows co-locate (exact distincts require it), so the
    hottest predicate bounds partition size — for sketch-grade profiles
    at extreme skew use the HLL family instead of exact counts."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    if hasattr(triples, "scan_for_predicate"):
        triples = triples.scan_for_predicate(None)

    def pick(t: pa.Table) -> pa.Table:
        cols = {"predicate": t["predicate"].cast(pa.string()),
                "subject": t["subject"].cast(pa.string()),
                "object": t["object"].cast(pa.string())}
        cols["is_literal"] = (
            pc.cast(pc.equal(t["object_kind"], "literal"), pa.int64())
            if "object_kind" in t.column_names
            else pa.nulls(len(t), pa.int64()))
        return pa.table(cols)

    def combine(g):
        agg = g.groupby("predicate", as_index=False).agg(
            n_triples=("subject", "size"),
            n_subjects=("subject", "nunique"),
            n_objects=("object", "nunique"),
            n_literal=("is_literal", "sum"),
        )
        agg["n_literal"] = agg["n_literal"].fillna(0).astype("int64")
        agg["n_iri"] = agg["n_triples"] - agg["n_literal"]
        return agg

    return coarse_group_reduce(
        triples.map_batches(pick, batch_format="pyarrow"),
        ["predicate"], combine)


def event_triples(sf_dir: str):
    """Deterministic triple encoding of the events table —
    ``(user:<id>, <event_type>, <YYYY-MM-DD>)`` — the small-scale stand-in
    for a real KG when exercising :func:`bgp_query` against a DuckDB
    oracle (the SQL side encodes the same strings from the same rows)."""
    import ray.data

    ds = _sized_read(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"])

    def enc(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        subj = pc.binary_join_element_wise(
            "user:", pc.cast(t["user_id"], pa.string()), "")
        return pa.table({
            "subject": subj,
            "predicate": t["event_type"],
            "object": day,
            "object_kind": pa.array(["literal"] * len(t), pa.string()),
        })

    return ds.map_batches(enc, batch_format="pyarrow")


def _iri(prefix: str, col) -> pa.ChunkedArray:
    """Demo-encoding IRIs: ``prefix`` + each value of ``col``."""
    return pc.binary_join_element_wise(prefix, pc.cast(col, pa.string()), "")


def _tbl(subject, predicate: str, obj, kind: str = "iri") -> pa.Table:
    """Demo-encoding triples with one predicate and one object kind."""
    n = len(subject)
    return pa.table({
        "subject": subject,
        "predicate": pa.array([predicate] * n, pa.string()),
        "object": obj,
        "object_kind": pa.array([kind] * n, pa.string()),
    })


def _const_triples(rows):
    """Constant ``(s, p, o)`` or ``(s, p, o, kind)`` rows (kind defaults
    to ``iri``) as a Dataset."""
    import ray.data

    cols = zip(*[(*r, "iri")[:4] for r in rows])
    return ray.data.from_arrow(pa.table(
        {name: pa.array(c, pa.string()) for name, c in zip(
            ("subject", "predicate", "object", "object_kind"), cols)}))


def order_triples(sf_dir: str):
    """Deterministic triple encoding of the orders→customer→nation chain:
    ``(order:<o>, placed_by, cust:<c>)`` ∪ ``(cust:<c>, in_nation,
    nation:<n>)`` ∪ ``(nation:<n>, has_name, <n_name>)`` — a three-hop
    KG shape over relational testdata for oracle-checked BGP joins.

    Reads are metadata-sized (sized_read_parquet): the three-branch union
    otherwise inherits Ray's ~2×CPU blocks PER read and every downstream
    all-to-all pays per-block scheduling for hundreds of tiny tasks."""
    orders = _sized_read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = _sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    nation = _sized_read(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])

    def enc_orders(t: pa.Table) -> pa.Table:
        return _tbl(_iri("order:", t["o_orderkey"]), "placed_by",
                    _iri("cust:", t["o_custkey"]))

    def enc_cust(t: pa.Table) -> pa.Table:
        return _tbl(_iri("cust:", t["c_custkey"]), "in_nation",
                    _iri("nation:", t["c_nationkey"]))

    def enc_nation(t: pa.Table) -> pa.Table:
        return _tbl(_iri("nation:", t["n_nationkey"]), "has_name",
                    pc.cast(t["n_name"], pa.string()), "literal")

    return (orders.map_batches(enc_orders, batch_format="pyarrow")
            .union(cust.map_batches(enc_cust, batch_format="pyarrow"))
            .union(nation.map_batches(enc_nation, batch_format="pyarrow")))


def rdfs_demo_triples(sf_dir: str):
    """RDFS-annotated triple encoding of the testdata for the
    oracle-checked ``rdfs_closure`` entry: class tree
    ``nation:<n> ⊑ region:<r> ⊑ class:world`` (plus
    ``class:Order ⊑ class:Thing``, ``class:Customer ⊑ class:Agent``),
    property chain ``placed_by ⊑ involves ⊑ related_to`` with
    ``rdfs:domain class:Order`` / ``rdfs:range class:Customer`` on
    ``placed_by``, and a literal-valued ``has_name ⊑ labeled`` with a
    range (``class:Label``) that must NOT type its literal objects.
    Instances: ``(cust:<c>, rdf:type, nation:<n>)``,
    ``(order:<o>, placed_by, cust:<c>)``,
    ``(cust:<c>, has_name, <c_name>)``.  Every ρDF entailment over
    this encoding has a closed plain-join SQL form — see
    ``oracle_sql()['kg_rdfs_closure']``."""
    orders = _sized_read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = _sized_read(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_name"])
    nation = _sized_read(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_regionkey"])
    region = _sized_read(
        f"{sf_dir}/region.parquet", columns=["r_regionkey"])

    def enc_orders(t: pa.Table) -> pa.Table:
        return _tbl(_iri("order:", t["o_orderkey"]), "placed_by",
                    _iri("cust:", t["o_custkey"]))

    def enc_cust(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            _tbl(_iri("cust:", t["c_custkey"]), "rdf:type",
                 _iri("nation:", t["c_nationkey"])),
            _tbl(_iri("cust:", t["c_custkey"]), "has_name",
                 pc.cast(t["c_name"], pa.string()), "literal"),
        ])

    def enc_nation(t: pa.Table) -> pa.Table:
        return _tbl(_iri("nation:", t["n_nationkey"]), "rdfs:subClassOf",
                    _iri("region:", t["n_regionkey"]))

    def enc_region(t: pa.Table) -> pa.Table:
        n = len(t)
        return _tbl(_iri("region:", t["r_regionkey"]), "rdfs:subClassOf",
                    pa.array(["class:world"] * n, pa.string()))

    onto = _const_triples([
        ("class:Order", "rdfs:subClassOf", "class:Thing"),
        ("class:Customer", "rdfs:subClassOf", "class:Agent"),
        ("placed_by", "rdfs:subPropertyOf", "involves"),
        ("involves", "rdfs:subPropertyOf", "related_to"),
        ("placed_by", "rdfs:domain", "class:Order"),
        ("placed_by", "rdfs:range", "class:Customer"),
        ("has_name", "rdfs:subPropertyOf", "labeled"),
        ("has_name", "rdfs:range", "class:Label"),
    ])

    return (orders.map_batches(enc_orders, batch_format="pyarrow")
            .union(cust.map_batches(enc_cust, batch_format="pyarrow"))
            .union(nation.map_batches(enc_nation, batch_format="pyarrow"))
            .union(region.map_batches(enc_region, batch_format="pyarrow"))
            .union(onto))


def owl_demo_triples(sf_dir: str):
    """OWL-lite-annotated triple encoding of the testdata for the
    oracle-checked ``owl_lite_closure`` entry:

    - ``ships_to owl:inverseOf supplied_by`` over
      ``(supp:<s>, ships_to, nation:<n>)`` — prp-inv derives one
      ``supplied_by`` mirror per supplier;
    - ``same_region_as`` declared both ``owl:SymmetricProperty`` and
      ``owl:TransitiveProperty`` over the per-region nation CHAIN
      (consecutive nationkeys within each region) — the closure is
      every ordered same-region pair incl. self-loops, minus the base
      chain edges;
    - ``within rdf:type owl:TransitiveProperty`` over the hierarchy
      ``cust:<c> → nation:<n> → region:<r> → class:world``;
    - a literal-valued ``labeled_as owl:inverseOf label_of`` whose
      triples must NOT swap (a literal can't be a subject).

    Every entailment has a closed SQL form — see
    ``oracle_sql()['kg_owl_closure']``."""
    import pyarrow.parquet as pq

    cust = _sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    supp = _sized_read(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])

    def enc_cust(t: pa.Table) -> pa.Table:
        return _tbl(_iri("cust:", t["c_custkey"]), "within",
                    _iri("nation:", t["c_nationkey"]))

    def enc_supp(t: pa.Table) -> pa.Table:
        return _tbl(_iri("supp:", t["s_suppkey"]), "ships_to",
                    _iri("nation:", t["s_nationkey"]))

    # nation/region are ≤25-row dimension tables: build the chain and
    # hierarchy edges driver-side (same broadcast-dimension treatment
    # the relational family uses).
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_regionkey"]) \
            .to_pandas().sort_values(["n_regionkey", "n_nationkey"])
    reg = pq.read_table(f"{sf_dir}/region.parquet",
                        columns=["r_regionkey"]).to_pandas()
    rows: list[tuple[str, ...]] = []
    for _, grp in nat.groupby("n_regionkey"):
        keys = grp["n_nationkey"].tolist()
        rows += [(f"nation:{a}", "same_region_as", f"nation:{b}")
                 for a, b in zip(keys, keys[1:])]
    rows += [(f"nation:{r.n_nationkey}", "within",
              f"region:{r.n_regionkey}") for r in nat.itertuples()]
    rows += [(f"region:{k}", "within", "class:world")
             for k in reg["r_regionkey"]]
    # literal objects on an invertible predicate: must never swap
    nat_names = pq.read_table(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"]).to_pandas()
    rows += [(f"nation:{r.n_nationkey}", "labeled_as", str(r.n_name),
              "literal") for r in nat_names.itertuples()]
    rows += [
        ("ships_to", "owl:inverseOf", "supplied_by"),
        ("labeled_as", "owl:inverseOf", "label_of"),
        ("same_region_as", "rdf:type", "owl:SymmetricProperty"),
        ("same_region_as", "rdf:type", "owl:TransitiveProperty"),
        ("within", "rdf:type", "owl:TransitiveProperty"),
    ]
    return (cust.map_batches(enc_cust, batch_format="pyarrow")
            .union(supp.map_batches(enc_supp, batch_format="pyarrow"))
            .union(_const_triples(rows)))


def sameas_demo_triples(sf_dir: str):
    """Functional/inverse-functional-property entity-resolution demo
    encoding for the oracle-checked ``sameas_from_functional`` entries:

    - ``owner`` declared ``owl:FunctionalProperty``, asserted TWICE per
      order with two URI spellings of the same customer
      (``cust:<c>`` and ``customer:<c>``) — the classic
      same-entity-two-schemes web-KG situation; prp-fp derives one
      spelling-variant sameAs pair per distinct ordering customer;
    - ``contact_key`` declared ``owl:InverseFunctionalProperty`` with
      literal value ``key:<c_custkey % 100>`` — customers sharing a
      contact key are the same entity; prp-ifp derives the per-group
      star edges to the lexicographic-min member;
    - a decoy multi-valued but UNDECLARED predicate (``clicked``)
      that must derive nothing.

    Components chain (``customer:<c>`` ↔ ``cust:<c>`` ↔ its %100
    group), so the ``merge=True`` canonical mapping genuinely
    exercises transitive smushing while staying in closed SQL form —
    see ``oracle_sql()['kg_sameas_pairs' / 'kg_sameas_canonical']``."""
    orders = _sized_read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = _sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def enc_orders(t: pa.Table) -> pa.Table:
        o = _iri("order:", t["o_orderkey"])
        return pa.concat_tables([
            _tbl(o, "owner", _iri("cust:", t["o_custkey"])),
            _tbl(o, "owner", _iri("customer:", t["o_custkey"])),
            # decoy: multi-valued, undeclared — must derive nothing
            _tbl(o, "clicked", _iri("page:", t["o_orderkey"])),
        ])

    def enc_cust(t: pa.Table) -> pa.Table:
        grp = pa.chunked_array([pa.array(
            t["c_custkey"].to_numpy() % 100, pa.int64())])
        return _tbl(_iri("cust:", t["c_custkey"]), "contact_key",
                    _iri("key:", grp), "literal")

    onto = _const_triples([
        ("owner", "rdf:type", "owl:FunctionalProperty"),
        ("contact_key", "rdf:type", "owl:InverseFunctionalProperty"),
    ])
    return (orders.map_batches(enc_orders, batch_format="pyarrow")
            .union(cust.map_batches(enc_cust, batch_format="pyarrow"))
            .union(onto))


def eq_demo_triples(sf_dir: str):
    """owl:equivalentClass / equivalentProperty demo encoding for the
    oracle-checked ``owl_equivalence_closure`` entry: a 3-class
    equivalence chain ``class:Customer ≡ class:Client ≡ class:Buyer``
    over per-customer type triples, and ``placed_by ≡ ordered_by``
    over per-order instance triples.  Every entailment — the
    symmetric-transitive eq closures (incl. self-loops), the full
    sub-hierarchy expansions, the type lifting and the predicate
    lifting — has a closed SQL form; see
    ``oracle_sql()['kg_eq_closure']``."""
    orders = _sized_read(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])
    cust = _sized_read(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"])

    def enc_orders(t: pa.Table) -> pa.Table:
        return _tbl(_iri("order:", t["o_orderkey"]), "placed_by",
                    _iri("cust:", t["o_custkey"]))

    def enc_cust(t: pa.Table) -> pa.Table:
        n = len(t)
        return _tbl(_iri("cust:", t["c_custkey"]), "rdf:type",
                    pa.chunked_array([pa.array(["class:Customer"] * n)]))

    onto = _const_triples([
        ("class:Customer", "owl:equivalentClass", "class:Client"),
        ("class:Client", "owl:equivalentClass", "class:Buyer"),
        ("placed_by", "owl:equivalentProperty", "ordered_by"),
    ])
    return (orders.map_batches(enc_orders, batch_format="pyarrow")
            .union(cust.map_batches(enc_cust, batch_format="pyarrow"))
            .union(onto))


def order_quads(sf_dir: str):
    """Deterministic QUAD encoding (named graph per customer nation) of
    the orders→customer chain — the engine's named-graph demo source for
    oracle-checked GRAPH queries:

    - graph ``urn:g:<N_NAME>`` (spaces → ``_``) holds every triple about
      that nation's customers and their orders
    - ``(cust:<c>, segment, <c_mktsegment>)``
    - ``(order:<o>, placed_by, cust:<c>)`` and
      ``(order:<o>, priority, <o_orderpriority>)``

    Nation (25 rows) is a driver-side broadcast lookup; orders get their
    customer's graph through ONE :func:`solution_join` on ``o_custkey``.
    """
    import pandas as pd

    nation = _sized_read(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name"]).to_pandas()
    ndict = {int(k): "urn:g:" + str(v).replace(" ", "_")
             for k, v in zip(nation["n_nationkey"], nation["n_name"])}

    cust = _sized_read(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_nationkey", "c_mktsegment"])
    orders = _sized_read(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"])

    def enc_cust(df: pd.DataFrame) -> pd.DataFrame:
        g = df["c_nationkey"].map(ndict)
        subj = "cust:" + df["c_custkey"].astype(str)
        return pd.DataFrame({
            "subject": subj,
            "predicate": "segment",
            "object": df["c_mktsegment"].astype(str),
            "object_kind": "literal",
            "graph": g,
        })

    cust_graph = cust.map_batches(
        lambda df: pd.DataFrame({"o_custkey": df["c_custkey"],
                                 "graph": df["c_nationkey"].map(ndict)}),
        batch_format="pandas")
    order_cols = ("o_orderkey", "o_custkey", "o_orderpriority")
    joined = solution_join(
        compact(orders, order_cols),
        compact(cust_graph, ("o_custkey", "graph")), "inner",
        ["o_custkey"], order_cols + ("graph",)).ds

    def enc_orders(df: pd.DataFrame) -> pd.DataFrame:
        osubj = "order:" + df["o_orderkey"].astype(str)
        by = pd.DataFrame({
            "subject": osubj,
            "predicate": "placed_by",
            "object": "cust:" + df["o_custkey"].astype(str),
            "object_kind": "iri",
            "graph": df["graph"],
        })
        pr = pd.DataFrame({
            "subject": osubj,
            "predicate": "priority",
            "object": df["o_orderpriority"].astype(str),
            "object_kind": "literal",
            "graph": df["graph"],
        })
        return pd.concat([by, pr], ignore_index=True)

    return (cust.map_batches(enc_cust, batch_format="pandas")
            .union(joined.map_batches(enc_orders, batch_format="pandas")))
