"""SPARQL UPDATE over the generation-based KG.

The incremental KG (``pipelines/kg_incremental.py``) is an LSM of
append-only ``gen-NNNNN`` generations.  This module adds the WRITE side
of SPARQL 1.1 Update on top of it:

- ``INSERT DATA { triples }``  — publish the literal triples as the
  next generation (set semantics: re-inserting is a no-op on reads).
- ``DELETE DATA { triples }``  — publish TOMBSTONES: the generation
  carries a ``_removals/`` subdirectory of bucketed parquet identity
  shards instead of (or besides) TTL adds.
- ``DELETE WHERE { patterns }`` — the pattern group is both the query
  and the delete template.
- ``DELETE { t } INSERT { t } WHERE { group }`` — the general modify
  form; the WHERE group gets the full distributed SPARQL group
  evaluator (paths, FILTER, OPTIONAL, UNION — ``sparql_dist``), the
  templates expand vectorized per solution (``kg_infer``'s machinery).

Read semantics (``kg_read`` / removal-aware ``kg_as_of``): per triple
IDENTITY, the LAST generation that touched it decides — present iff it
was an add (within one generation, add wins: SPARQL runs DELETE before
INSERT inside a single update operation, so a triple both deleted and
re-inserted survives).  Roots with no removals take the pure-union
fast path, byte-identical to ``ttl_dataset(root)`` — ZERO added cost
for append-only KGs.  The resolve is ONE hash exchange over
pre-deduped identities (the ``kg_new_triples`` shape,
kg_incremental.py:42) — no driver materialization.

Deletions are matched against the CURRENT KG by lexical
(subject, predicate, object) equality and tombstoned with the stored
rows' FULL identity (kind/lang/datatype from the KG, not the update
text) — deleting a triple the update spells with different typing
still removes the stored row, and tombstones for absent triples are
never written.

Legacy-reader compatibility: removal shards are parquet, which
``sources/ttl.ttl_dataset`` (extension-filtered to ``.ttl``/
``.ttl.gz``) silently skips — a pre-update reader sees a stale
SUPERSET (deleted triples still visible), never garbage.

Reference parity: the reference has no update story at all (each run
overwrites per-doc TTL files, text_to_turtle_processor.py:66-83); this
is additive capability required by a long-lived 100-TB KG.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = [
    "sparql_update",
    "kg_read",
    "parse_triple_block",
    "publish_update",
    "write_removal_partitions",
]

REMOVALS_DIR = "_removals"
_XSD = "http://www.w3.org/2001/XMLSchema#"
_RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_RE_PREFIX_DECL = re.compile(r"PREFIX\s+(\w*):\s*<([^>]*)>", re.IGNORECASE)
_RE_TERM = re.compile(
    r"""\?(\w+)                                   # 1 var
      | <([^>]*)>                                 # 2 iri
      | "((?:[^"\\]|\\.)*)"                       # 3 literal body
        (?:@([\w\-]+)|\^\^(?:<([^>]*)>|(\w*:[\w\-.]+)))?  # 4 lang 5/6 dt
      | ([+-]?\d+\.\d+)                           # 7 decimal
      | ([+-]?\d+)                                # 8 integer
      | \ba\b(?P<a>)                              # rdf:type keyword
      | (\w*:[\w\-.]*)                            # 10 prefixed name
    """, re.VERBOSE)


def _expand_pname(pname: str, prefixes: dict[str, str]) -> str:
    pfx, local = pname.split(":", 1)
    if pfx not in prefixes:
        raise ValueError(f"undeclared prefix {pfx!r} in {pname!r}")
    return prefixes[pfx] + local


def _parse_terms(stmt: str, prefixes: dict[str, str]):
    """Tokenize one ``s p o`` template statement into three terms:
    ``("var", name)`` or ``("const", value, meta)`` — ``meta`` carries
    the object-typing dict (kind / lang / datatype) the triple schema
    needs and the SPARQL group parser drops."""
    out = []
    pos = 0
    while pos < len(stmt):
        m = _RE_TERM.match(stmt, pos)
        if m is None:
            if stmt[pos].isspace():
                pos += 1
                continue
            raise ValueError(f"cannot parse term at {stmt[pos:]!r}")
        pos = m.end()
        if m.group(1):
            out.append(("var", m.group(1)))
        elif m.group(2) is not None:
            out.append(("const", m.group(2), {"object_kind": "iri"}))
        elif m.group(3) is not None:
            meta = {"object_kind": "literal"}
            if m.group(4):
                meta["object_lang"] = m.group(4)
            elif m.group(5):
                meta["object_datatype"] = m.group(5)
            elif m.group(6):
                meta["object_datatype"] = _expand_pname(
                    m.group(6), prefixes)
            out.append(("const",
                        m.group(3).replace('\\"', '"').replace(
                            "\\\\", "\\"),
                        meta))
        elif m.group(7) is not None:
            out.append(("const", m.group(7),
                        {"object_kind": "literal",
                         "object_datatype": _XSD + "decimal"}))
        elif m.group(8) is not None:
            out.append(("const", m.group(8),
                        {"object_kind": "literal",
                         "object_datatype": _XSD + "integer"}))
        elif m.group("a") is not None:
            out.append(("const", _RDF_TYPE, {"object_kind": "iri"}))
        elif m.group(10) is not None:
            out.append(("const", _expand_pname(m.group(10), prefixes),
                        {"object_kind": "iri"}))
    if len(out) != 3:
        raise ValueError(
            f"template statement needs exactly 3 terms, got {len(out)}: "
            f"{stmt!r}")
    for kind, *rest in out[:2]:
        if kind == "const" and rest[1].get("object_kind") == "literal":
            raise ValueError(
                f"literal in subject/predicate position: {stmt!r}")
    return out


def parse_triple_block(block: str, prefixes: dict[str, str],
                       allow_vars: bool = True):
    """Parse an UPDATE triple block into ``kg_infer``-style template
    tuples ``(s, p, o, meta)`` — terms are ``?var`` strings or expanded
    constants, ``meta`` is the object-typing dict."""
    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    templates = []
    for stmt in GraphIndex._split_statements(block):
        if not stmt.strip():
            continue
        terms = _parse_terms(stmt, prefixes)
        tmpl = []
        meta = {}
        for i, term in enumerate(terms):
            if term[0] == "var":
                if not allow_vars:
                    raise ValueError(
                        f"variable ?{term[1]} in a DATA block")
                tmpl.append("?" + term[1])
            else:
                tmpl.append(term[1])
                if i == 2:
                    meta = term[2]
        templates.append((tmpl[0], tmpl[1], tmpl[2], meta))
    if not templates:
        raise ValueError("empty triple block")
    return templates


# ---------------------------------------------------------------------------
# removals channel + LSM read
# ---------------------------------------------------------------------------


def write_removal_partitions(triples_ds, out_dir: str,
                             num_buckets: int = 64,
                             filesystem=None) -> dict:
    """Tombstone sink: bucketed, deduped, DETERMINISTIC parquet identity
    shards (sorted rows, one file per bucket via ``pyarrow.fs`` — the
    same placement contract as the TTL sink)."""
    from cmc_knowledge_graph_text2ttl_ray.functions import fsio
    from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import (
        IDENTITY_COLS,
        add_identity_hash,
    )

    fs, base = fsio.resolve_fs(out_dir, filesystem)
    fsio.makedirs(fs, base)

    def pre(batch: pa.Table) -> pd.DataFrame:
        df = add_identity_hash(batch, keep_cols=IDENTITY_COLS)
        df = df.drop_duplicates(subset=IDENTITY_COLS)
        df["bucket"] = (df["h"] % num_buckets).astype("int64")
        return df.drop(columns=["h"])

    out_schema = pa.schema([(c, pa.string()) for c in IDENTITY_COLS])

    def write_group(group: pd.DataFrame) -> pd.DataFrame:
        import io

        import pyarrow.parquet as pq

        bucket = int(group["bucket"].iloc[0])
        group = group.drop_duplicates(subset=IDENTITY_COLS) \
                     .sort_values(IDENTITY_COLS) \
                     .reset_index(drop=True)
        tbl = pa.Table.from_pandas(group[IDENTITY_COLS],
                                   schema=out_schema,
                                   preserve_index=False)
        buf = io.BytesIO()
        pq.write_table(tbl, buf, compression="zstd")
        path = fsio.fs_join(base, f"del-{bucket:05d}.parquet")
        fsio.replace_bytes(fs, path, buf.getvalue())
        return pd.DataFrame({"bucket": [bucket],
                             "n_removed": [len(group)]})

    written = (triples_ds.map_batches(pre, batch_format="pyarrow")
               .groupby("bucket")
               .map_groups(write_group, batch_format="pandas")
               .to_pandas())
    manifest = {"buckets": {str(int(r.bucket)): int(r.n_removed)
                            for r in written.itertuples()}}
    fsio.replace_text(fs, fsio.fs_join(base, "manifest.json"),
                      json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def _gen_paths(kg_root: str, generation=None):
    import os

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        list_generations,
    )

    gens = list_generations(kg_root)
    if generation is not None:
        if isinstance(generation, int):
            generation = f"gen-{generation:05d}"
        if generation not in gens:
            raise ValueError(
                f"unknown generation {generation!r}; root has {gens}")
        gens = [g for g in gens if g <= generation]
    return [(i, os.path.join(kg_root, g)) for i, g in enumerate(gens)]


def kg_read(kg_root: str, generation=None,
            num_partitions: int | None = None):
    """Removal-aware KG read (optionally as of ``generation``,
    inclusive).  No removals anywhere → the pure union of generation
    TTL shards (identical to ``ttl_dataset``, zero exchange).  With
    removals: tag every add/tombstone with its generation index, ONE
    ``hash(identity) % P`` exchange, and per partition keep each
    identity iff its LAST touch was an add (per-generation tie: add
    wins — DELETE precedes INSERT inside one update)."""
    import os

    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        default_coarse_partitions,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import (
        _est_ttl_rows,
        ttl_dataset,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import (
        IDENTITY_COLS,
        add_identity_hash,
    )

    def _has_ttl(d: str) -> bool:
        for _root, _dirs, files in os.walk(d):
            if any(f.endswith((".ttl", ".ttl.gz")) for f in files):
                return True
        return False

    pairs = _gen_paths(kg_root, generation)
    out_schema = pa.schema([(c, pa.string()) for c in IDENTITY_COLS])
    if not pairs:
        return ray.data.from_arrow(out_schema.empty_table())
    del_dirs = [(i, os.path.join(p, REMOVALS_DIR)) for i, p in pairs
                if os.path.isdir(os.path.join(p, REMOVALS_DIR))]
    add_pairs = [(i, p) for i, p in pairs if _has_ttl(p)]
    adds = None
    for _i, p in add_pairs:
        ds = ttl_dataset(p)
        adds = ds if adds is None else adds.union(ds)
    if adds is None:
        adds = ray.data.from_arrow(out_schema.empty_table())
    if not del_dirs:
        return adds

    if num_partitions is None:
        num_partitions = default_coarse_partitions(
            max(_est_ttl_rows(kg_root), 1))

    def tag(gen_idx: int, op: int):
        def pre(batch: pa.Table) -> pd.DataFrame:
            df = add_identity_hash(batch, keep_cols=IDENTITY_COLS)
            df = df.drop_duplicates(subset=IDENTITY_COLS)
            df["gen"] = np.int64(gen_idx)
            df["op"] = np.int64(op)
            df["part"] = (df["h"] % num_partitions).astype("int64")
            return df

        return pre

    tagged = None
    for i, p in add_pairs:
        ds = ttl_dataset(p).map_batches(tag(i, 1),
                                        batch_format="pyarrow")
        tagged = ds if tagged is None else tagged.union(ds)
    for i, d in del_dirs:
        ds = ray.data.read_parquet(
            d, file_extensions=["parquet"]).map_batches(
            tag(i, 0), batch_format="pyarrow")
        tagged = ds if tagged is None else tagged.union(ds)

    def resolve(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["gen", "op"], kind="stable")
        last = g.drop_duplicates(subset=IDENTITY_COLS, keep="last")
        keep = last[last["op"] == 1]
        if keep.empty:
            return out_schema.empty_table()
        return pa.Table.from_pandas(keep[IDENTITY_COLS],
                                    schema=out_schema,
                                    preserve_index=False)

    return tagged.groupby("part").map_groups(resolve,
                                             batch_format="pandas")


# ---------------------------------------------------------------------------
# publish
# ---------------------------------------------------------------------------


def publish_update(kg_root: str, adds_ds=None, removals_ds=None,
                   prefixes: dict[str, str] | None = None,
                   num_buckets: int = 64,
                   compression: str | None = None,
                   filesystem=None) -> dict:
    """Write ONE new generation carrying ``adds_ds`` TTL shards and/or
    ``removals_ds`` tombstone shards."""
    from cmc_knowledge_graph_text2ttl_ray.functions import fsio
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_incremental import (
        _next_generation,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
        write_ttl_partitions,
    )

    if adds_ds is None and removals_ds is None:
        raise ValueError("publish_update needs adds and/or removals")
    fs, base = fsio.resolve_fs(kg_root, filesystem)
    fsio.makedirs(fs, base)
    gen = _next_generation(fs, base)
    gen_dir = fsio.fs_join(base, gen)
    fsio.makedirs(fs, gen_dir)
    out = {"generation": gen, "path": gen_dir,
           "n_added": 0, "n_removed": 0}
    if adds_ds is not None:
        manifest = write_ttl_partitions(
            adds_ds, gen_dir, prefixes=prefixes, num_buckets=num_buckets,
            compression=compression, filesystem=fs)
        out["n_added"] = sum(b["n_triples"]
                             for b in manifest["buckets"].values())
    if removals_ds is not None:
        rm = write_removal_partitions(
            removals_ds, fsio.fs_join(gen_dir, REMOVALS_DIR),
            num_buckets=num_buckets, filesystem=fs)
        out["n_removed"] = sum(rm["buckets"].values())
    return out


def _templates_dataset(templates, prefixes):
    """Constant templates (DATA blocks) → a one-block triples Dataset."""
    import ray.data

    rows = {"subject": [], "predicate": [], "object": [],
            "object_kind": [], "object_lang": [], "object_datatype": []}
    for s, p, o, meta in templates:
        rows["subject"].append(s)
        rows["predicate"].append(p)
        rows["object"].append(o)
        rows["object_kind"].append(meta.get("object_kind", "iri"))
        rows["object_lang"].append(meta.get("object_lang"))
        rows["object_datatype"].append(meta.get("object_datatype"))
    return ray.data.from_arrow(pa.table(
        {k: pa.array(v, pa.string()) for k, v in rows.items()}))


def _match_stored(kg_ds, spo_ds, num_partitions=None):
    """Full-identity rows of ``kg_ds`` whose (subject, predicate,
    object) appears in ``spo_ds`` — the delete-template → stored-row
    match (tombstones carry the STORED typing; absent triples yield no
    tombstone)."""
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        Solutions,
        compact,
        solution_join,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        _distinct_keys,
    )
    from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import (
        IDENTITY_COLS,
    )

    keys = ["subject", "predicate", "object"]
    left = compact(kg_ds.select_columns(IDENTITY_COLS), IDENTITY_COLS)
    right = compact(spo_ds.map_batches(_distinct_keys(keys),
                                        batch_format="pyarrow"), keys)
    if left.n == 0 or right.n == 0:
        return Solutions.empty(IDENTITY_COLS).ds
    return solution_join(left, right, "left_semi", keys, IDENTITY_COLS,
                         num_partitions=num_partitions).ds


def _collect_bgp_patterns(elements):
    """All (s, p, o) triple patterns reachable in a parsed group —
    including inside OPTIONAL / MINUS / UNION arms (any of them can
    bind a variable that reaches an INSERT template)."""
    pats = []
    for kind, payload in elements:
        if kind == "bgp":
            pats.extend(payload)
        elif kind in ("optional", "minus"):
            pats.extend(_collect_bgp_patterns(payload))
        elif kind == "union":
            for arm in payload:
                pats.extend(_collect_bgp_patterns(arm))
    return pats


def _object_var_typing(ins_tmpls, elements):
    """Typing plan for each variable in INSERT-template OBJECT position.

    The distributed solution tables are lexical strings (one column per
    variable), so the RDF term typing must be recovered:

    - ``("iri", None)`` — the WHERE binds the var in subject or
      predicate position somewhere: every binding is an IRI by the RDF
      data model, no lookup needed.
    - ``("lookup", preds|None)`` — bound only in object position: the
      stored typing is recovered from the CURRENT KG by a distributed
      join on the lexical value, pruned to the binding patterns'
      constant predicates when they all are (``None`` = unrestricted —
      a variable or path predicate binds it).
    - ``("literal", None)`` — not bound by any triple pattern
      (BIND / VALUES / subquery-computed): plain literal, the honest
      default for a string-valued computation (documented limitation,
      same policy as ``kg_infer``'s string-typed binding tables).
    """
    want = {o[1:] for _s, _p, o, _m in ins_tmpls if o.startswith("?")}
    pats = _collect_bgp_patterns(elements)
    out = {}
    for v in want:
        preds: set[str] = set()
        obj_bound = iri_bound = unrestricted = False
        for s, p, o in pats:
            if s == ("var", v) or p == ("var", v):
                iri_bound = True
            if o == ("var", v):
                obj_bound = True
                if p[0] == "const":
                    preds.add(p[1])
                else:
                    unrestricted = True
        if iri_bound:
            out[v] = ("iri", None)
        elif obj_bound:
            out[v] = ("lookup", None if unrestricted else
                      frozenset(preds))
        else:
            out[v] = ("literal", None)
    return out


_NULL_SENT = "\x00"


def _typing_map(kg_ds, preds):
    """Distinct lexical object value → stored typing, pruned to
    ``preds`` when given.  A value stored under several typings (rare —
    e.g. ``"Alice"`` both plain and ``@en``) resolves deterministically
    to the lexicographically smallest (kind, lang, datatype), nulls
    last; the solution table already collapsed those bindings to one
    lexical row, so one inserted typing per value is the faithful
    cardinality."""
    import pyarrow.compute as pc

    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )

    t_cols = ["object_kind", "object_lang", "object_datatype"]

    def pre(t: pa.Table) -> pd.DataFrame:
        if preds is not None:
            t = t.filter(pc.is_in(t["predicate"],
                                  pa.array(sorted(preds), pa.string())))
        return t.select(["object"] + t_cols).to_pandas().drop_duplicates()

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        for c in t_cols:  # sentinel only in typing cols, never object
            g[c] = g[c].fillna(_NULL_SENT)
        g = g.sort_values(["object"] + t_cols)
        g = g.drop_duplicates(subset="object", keep="first")
        for c in t_cols:
            g[c] = g[c].where(g[c] != _NULL_SENT)
        return g

    map_schema = pa.schema([(c, pa.string())
                            for c in ["object"] + t_cols])

    def as_strings(t: pa.Table) -> pa.Table:
        # all-null lang/datatype columns infer as Arrow null type,
        # which the hash join rejects for non-key fields
        return pa.table({c: t[c].cast(pa.string())
                         for c in map_schema.names}, schema=map_schema)

    return coarse_group_reduce(
        kg_ds.map_batches(pre, batch_format="pyarrow"),
        ["object"], resolve).map_batches(as_strings,
                                         batch_format="pyarrow")


def _typed_inserts(kg_ds, sols, ins_tmpls, elements, num_partitions):
    """Solution table → FULL-identity inserted triples.  Templates with
    constant objects (or vars provably IRI / defaulted literal) expand
    vectorized in one pass; lookup-typed vars expand to (s, p, o) and
    recover typing with ONE left-outer join per distinct predicate
    restriction against the KG's distinct-value typing map (unmatched
    values — shouldn't happen for object-bound vars — fall back to
    plain literal)."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import (
        _dedup_triples,
        _expand_templates,
    )
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        compact,
        solution_join,
    )

    typing = _object_var_typing(ins_tmpls, elements)
    direct, lookup_groups = [], {}
    for s, p, o, meta in ins_tmpls:
        if not o.startswith("?"):
            direct.append((s, p, o, meta))
            continue
        kind, preds = typing[o[1:]]
        if kind == "iri":
            direct.append((s, p, o, {"object_kind": "iri"}))
        elif kind == "literal":
            direct.append((s, p, o, {"object_kind": "literal"}))
        else:
            lookup_groups.setdefault(preds, []).append((s, p, o))

    parts = []
    if direct:
        parts.append(sols.map_batches(_expand_templates(direct),
                                      batch_format="pyarrow"))
    t_cols = ["object_kind", "object_lang", "object_datatype"]
    for preds, tmpls in lookup_groups.items():
        spo = sols.map_batches(
            _expand_spo([(s, p, o, {}) for s, p, o in tmpls]),
            batch_format="pyarrow")
        left = compact(spo, ["subject", "predicate", "object"])
        if left.n == 0:
            continue
        right = compact(_typing_map(kg_ds, preds), ["object"] + t_cols)
        if right.n == 0:
            # nothing stored under these predicates: literal fallback
            joined = left.ds.map_batches(
                lambda t: t.append_column(
                    "object_kind",
                    pa.array(["literal"] * len(t), pa.string()))
                .append_column("object_lang",
                               pa.nulls(len(t), pa.string()))
                .append_column("object_datatype",
                               pa.nulls(len(t), pa.string())),
                batch_format="pyarrow")
        else:
            joined = solution_join(left, right, "left_outer", ["object"],
                                   left.cols + tuple(t_cols),
                                   num_partitions=num_partitions).ds

            def fill(t: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                kind = pc.fill_null(t["object_kind"].cast(pa.string()),
                                    "literal")
                cols = {"subject": t["subject"].cast(pa.string()),
                        "predicate": t["predicate"].cast(pa.string()),
                        "object": t["object"].cast(pa.string()),
                        "object_kind": kind,
                        "object_lang":
                            t["object_lang"].cast(pa.string()),
                        "object_datatype":
                            t["object_datatype"].cast(pa.string())}
                return pa.table(cols)

            joined = joined.map_batches(fill, batch_format="pyarrow")
        parts.append(joined)

    if not parts:
        import ray.data

        cols = ["subject", "predicate", "object"] + t_cols
        return ray.data.from_arrow(pa.schema(
            [(c, pa.string()) for c in cols]).empty_table())
    out = parts[0]
    for extra in parts[1:]:
        out = out.union(extra)
    return _dedup_triples(out)


def _expand_spo(templates):
    """Vectorized (s, p, o)-only template expansion per solution row."""
    def expand(t: pa.Table) -> pa.Table:
        n = len(t)
        parts = []
        for s, p, o, _meta in templates:
            cols = {}
            for name, term in (("subject", s), ("predicate", p),
                               ("object", o)):
                if term.startswith("?"):
                    cols[name] = t[term[1:]].cast(pa.string())
                else:
                    cols[name] = pa.array([term] * n, pa.string())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts) if parts else pa.table(
            {c: pa.array([], pa.string())
             for c in ("subject", "predicate", "object")})

    return expand


_RE_INSERT_DATA = re.compile(r"\bINSERT\s+DATA\s*(?=\{)", re.IGNORECASE)
_RE_DELETE_DATA = re.compile(r"\bDELETE\s+DATA\s*(?=\{)", re.IGNORECASE)
_RE_DELETE_WHERE = re.compile(r"\bDELETE\s+WHERE\s*(?=\{)", re.IGNORECASE)
_RE_DELETE = re.compile(r"\bDELETE\s*(?=\{)", re.IGNORECASE)
_RE_INSERT = re.compile(r"\bINSERT\s*(?=\{)", re.IGNORECASE)
_RE_WHERE = re.compile(r"\bWHERE\s*(?=\{)", re.IGNORECASE)


def _split_operations(body: str) -> list[str]:
    """Split a SPARQL 1.1 Update request body into its ``;``-separated
    operations — ``;`` counts only at brace depth 0 and outside quoted
    literals / ``<IRI>`` terms (a ``;`` inside a template or WHERE group
    belongs to that group's own grammar)."""
    ops, depth, start, i, n = [], 0, 0, 0, len(body)
    while i < n:
        c = body[i]
        if c == '"':
            i += 1
            while i < n and body[i] != '"':
                i += 2 if body[i] == "\\" else 1
        elif c == "<":
            while i < n and body[i] != ">":
                i += 1
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        elif c == ";" and depth == 0:
            ops.append(body[start:i])
            start = i + 1
        i += 1
    ops.append(body[start:])
    return [o for o in ops if o.strip()]


def sparql_update(kg_root: str, update: str,
                  prefixes: dict[str, str] | None = None,
                  num_partitions: int | None = None,
                  num_buckets: int = 64,
                  compression: str | None = None,
                  spill_rows: int = 5_000_000) -> dict:
    """Apply a SPARQL 1.1 Update REQUEST to the KG at ``kg_root`` —
    one operation, or a ``;``-separated sequence applied in order
    (each operation sees its predecessors' effects, per §3: "operations
    are executed in lexical order"), each publishing one generation.

    Operation forms: ``INSERT DATA`` / ``DELETE DATA`` / ``DELETE
    WHERE`` / ``DELETE {} INSERT {} WHERE {}`` (either template
    optional).  The WHERE group supports the full distributed SPARQL
    group grammar (paths, FILTER, OPTIONAL, UNION — ``sparql_dist``).
    Returns ``{"op", "generation", "path", "n_added", "n_removed"}``;
    a sequence returns ``op="sequence"`` with summed counts, the LAST
    generation, and the per-operation dicts under ``"operations"``.

    The resolved KG and the WHERE solution table each feed several
    consumers (group evaluation, tombstone match, typed-insert lookup),
    so both are reused — as object-store pins below ``spill_rows``
    estimated triples (metadata-only estimate, no extra parse pass),
    and as per-call scratch parquet on disk above it, so a 100-TB KG
    streams through every consumer instead of pinning in memory (the
    same spill treatment the dedup family gives signatures and
    candidate pairs)."""
    pfx = dict(prefixes or {})
    pfx.update({m.group(1): m.group(2)
                for m in _RE_PREFIX_DECL.finditer(update)})
    full_body = _RE_PREFIX_DECL.sub("", update)
    ops = _split_operations(full_body)
    if len(ops) > 1:
        results = [
            _apply_one_update(kg_root, op, pfx, num_partitions,
                              num_buckets, compression, spill_rows)
            for op in ops
        ]
        return {"op": "sequence",
                "operations": results,
                "generation": results[-1]["generation"],
                "path": results[-1]["path"],
                "n_added": sum(r["n_added"] for r in results),
                "n_removed": sum(r["n_removed"] for r in results)}
    return _apply_one_update(kg_root, full_body, pfx, num_partitions,
                             num_buckets, compression, spill_rows)


def _apply_one_update(kg_root: str, body: str, pfx: dict,
                      num_partitions, num_buckets, compression,
                      spill_rows) -> dict:
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        _group_dataset,
    )
    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    def block_after(m):
        start = body.index("{", m.end() - 1)
        return GraphIndex._read_group(body, start)

    m = _RE_INSERT_DATA.search(body)
    if m:
        block, _ = block_after(m)
        tmpls = parse_triple_block(block, pfx, allow_vars=False)
        pub = publish_update(kg_root,
                             adds_ds=_templates_dataset(tmpls, pfx),
                             prefixes=pfx, num_buckets=num_buckets,
                             compression=compression)
        return {"op": "insert_data", **pub}

    m = _RE_DELETE_DATA.search(body)
    if m:
        block, _ = block_after(m)
        tmpls = parse_triple_block(block, pfx, allow_vars=False)
        tombs = _match_stored(kg_read(kg_root),
                              _templates_dataset(tmpls, pfx),
                              num_partitions)
        pub = publish_update(kg_root, removals_ds=tombs,
                             num_buckets=num_buckets)
        return {"op": "delete_data", **pub}

    m = _RE_DELETE_WHERE.search(body)
    if m:
        block, _ = block_after(m)
        del_tmpls = parse_triple_block(block, pfx)
        ins_tmpls, where_block = [], block
    else:
        del_tmpls, ins_tmpls = [], []
        pos = 0
        m_d = _RE_DELETE.search(body)
        if m_d:
            block, pos = block_after(m_d)
            del_tmpls = parse_triple_block(block, pfx)
        m_i = _RE_INSERT.search(body, pos)
        if m_i:
            block, pos = block_after(m_i)
            ins_tmpls = parse_triple_block(block, pfx)
        if not del_tmpls and not ins_tmpls:
            raise ValueError(
                f"unrecognized SPARQL UPDATE form: {body[:120]!r}")
        m_w = _RE_WHERE.search(body, pos)
        if not m_w:
            raise ValueError("DELETE/INSERT needs a WHERE group")
        where_block, _ = block_after(m_w)

    import os

    from cmc_knowledge_graph_text2ttl_ray.functions.checkpoint import (
        scratch_cleanup,
        scratch_dir,
        spill_roundtrip,
    )
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import _est_ttl_rows
    from cmc_knowledge_graph_text2ttl_ray.stages.dedup_triples import (
        IDENTITY_COLS,
    )

    spill = _est_ttl_rows(kg_root) > spill_rows
    scratch = scratch_dir("graft_sparql_update_") if spill else None
    try:
        if spill:
            kg = spill_roundtrip(
                kg_read(kg_root), os.path.join(scratch, "kg"),
                pa.schema([(c, pa.string()) for c in IDENTITY_COLS]))
        else:
            kg = kg_read(kg_root).materialize()
        elements = GraphIndex()._parse_group(where_block, pfx)
        sols = _group_dataset(kg, elements, num_partitions)
        sol_vars = list(sols.cols)
        for s, p, o, _meta in del_tmpls + ins_tmpls:
            for term in (s, p, o):
                if term.startswith("?") and term[1:] not in sol_vars:
                    raise ValueError(
                        f"template variable {term} not bound by WHERE")
        if spill:
            sols = spill_roundtrip(
                sols.ds, os.path.join(scratch, "sols"),
                pa.schema([(n, pa.string()) for n in sol_vars]))
        else:
            sols = sols.ds

        adds_ds = removals_ds = None
        if del_tmpls:
            from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
                coarse_group_reduce,
            )

            spo_cols = ["subject", "predicate", "object"]
            spo = coarse_group_reduce(
                sols.map_batches(_expand_spo(del_tmpls),
                                 batch_format="pyarrow"),
                spo_cols,
                lambda g, _c=tuple(spo_cols):
                    g.drop_duplicates(subset=list(_c)))
            removals_ds = _match_stored(kg, spo, num_partitions)
        if ins_tmpls:
            adds_ds = _typed_inserts(kg, sols, ins_tmpls, elements,
                                     num_partitions)
        pub = publish_update(kg_root, adds_ds=adds_ds,
                             removals_ds=removals_ds, prefixes=pfx,
                             num_buckets=num_buckets,
                             compression=compression)
    finally:
        if scratch is not None:
            scratch_cleanup(scratch)
    return {"op": "modify" if ins_tmpls else "delete_where", **pub}
