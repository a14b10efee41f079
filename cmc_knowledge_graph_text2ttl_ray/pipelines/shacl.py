"""SHACL-lite shape validation over a triples Dataset.

The KG pipeline's publish gate checks literal lexical forms per
(predicate, datatype) cell (``pipelines/kg.validate_triples``); this
module adds the SHAPE level — per-class structural constraints in the
style of SHACL node/property shapes (W3C SHACL, core constraint
components only):

- ``min_count`` / ``max_count`` of a property at a focus node
- ``node_kind`` (``"iri"`` / ``"literal"``) and ``datatype`` of values
- ``pattern`` (regex on literal lexical forms)
- ``in_values`` (closed value set)
- ``class_`` (IRI values must carry ``rdf:type <class>``)

Scale shape: one focus-node scan per shape (constant-predicate ``rdf:
type`` pattern — pruned to its bucket on a ``TripleStore``), one value
scan per property shape, semi-joined to the focus set; count
constraints are one ``groupby(focus).count()`` left-outer-joined back
to the focus set; ``class_`` membership is an anti-join against the
typed-node set.  Every join is ``solutions.solution_join``: a
broadcast probe while the smaller side fits
``functions.cluster.BROADCAST_JOIN_ROWS``, a hash shuffle past it.
The output is a violations Dataset ``(focus, shape, path, constraint,
detail)`` — empty means conformant, and the publish step can gate on
``.count() == 0`` the same way the literal gate does.
"""

from __future__ import annotations

import re

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["PropertyShape", "NodeShape", "validate_shapes", "RDF_TYPE"]

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_VIOL_SCHEMA = pa.schema([
    ("focus", pa.string()), ("shape", pa.string()), ("path", pa.string()),
    ("constraint", pa.string()), ("detail", pa.string()),
])


class PropertyShape:
    def __init__(self, path: str, min_count: int = 0,
                 max_count: int | None = None,
                 node_kind: str | None = None,
                 datatype: str | None = None,
                 pattern: str | None = None,
                 in_values: list[str] | None = None,
                 class_: str | None = None):
        self.path = path
        self.min_count = min_count
        self.max_count = max_count
        self.node_kind = node_kind
        self.datatype = datatype
        self.pattern = pattern
        self.in_values = in_values
        self.class_ = class_


class NodeShape:
    def __init__(self, name: str, target_class: str,
                 properties: list[PropertyShape]):
        self.name = name
        self.target_class = target_class
        self.properties = properties


def validate_shapes(triples, shapes: list[NodeShape],
                    rdf_type: str = RDF_TYPE):
    """Validate every shape; returns the violations Dataset (see module
    doc).  Non-target nodes and unlisted properties are never touched —
    cost scales with the targeted subgraph, not the KG."""
    from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
        coarse_group_reduce,
    )
    from cmc_knowledge_graph_text2ttl_ray.functions.solutions import (
        compact,
        solution_join,
    )
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import (
        _pattern_scan,
    )

    import ray.data

    def empty():
        return ray.data.from_arrow(_VIOL_SCHEMA.empty_table())

    def viol_table(focus, shape, path, constraint, detail):
        n = len(focus)
        return pa.table({
            "focus": pa.array(focus, pa.string()),
            "shape": pa.array([shape] * n, pa.string()),
            "path": pa.array([path] * n, pa.string()),
            "constraint": pa.array([constraint] * n, pa.string()),
            "detail": pa.array(detail, pa.string()),
        }, schema=_VIOL_SCHEMA)

    val_cols = ("focus", "value", "object_kind", "object_datatype")
    parts = []
    for shape in shapes:
        focus = _pattern_scan(triples,
                              ("?focus", rdf_type, shape.target_class))
        if focus.n == 0:
            continue
        for ps in shape.properties:
            # value scan restricted to this property; full triple columns
            # needed for kind/datatype checks, so scan the raw pattern
            # and semi-join to the focus set
            src = (triples.scan_for_predicate(ps.path)
                   if hasattr(triples, "scan_for_predicate") else triples)

            def pick(t: pa.Table, ps=ps) -> pa.Table:
                t = t.filter(pc.fill_null(
                    pc.equal(t["predicate"], ps.path), False))
                cols = {"focus": t["subject"].cast(pa.string()),
                        "value": t["object"].cast(pa.string())}
                for c in ("object_kind", "object_datatype"):
                    cols[c] = (t[c].cast(pa.string())
                               if c in t.column_names
                               else pa.nulls(len(t), pa.string()))
                return pa.table(cols)

            vals = compact(src.map_batches(pick, batch_format="pyarrow"),
                           val_cols)
            if vals.n:
                vals = solution_join(vals, focus, "left_semi", ["focus"],
                                     val_cols)

            # ---- count constraints (per-focus, zero included) ----
            if ps.min_count > 0 or ps.max_count is not None:
                if vals.n == 0:
                    if ps.min_count > 0:
                        def all_missing(t: pa.Table, ps=ps, shape=shape) -> pa.Table:
                            f = t["focus"].to_pylist()
                            return viol_table(
                                f, shape.name, ps.path, "minCount",
                                ["0"] * len(f))

                        parts.append(focus.ds.map_batches(
                            all_missing, batch_format="pyarrow"))
                else:
                    counted = compact(vals.ds.groupby("focus").count(),
                                      ("focus", "count()"))
                    joined = solution_join(focus, counted, "left_outer",
                                           ["focus"], ("focus", "count()"))

                    def count_viols(t: pa.Table, ps=ps, shape=shape) -> pa.Table:
                        cnt = pc.fill_null(
                            pc.cast(t["count()"], pa.int64()), 0)
                        f = t["focus"].to_pylist()
                        c = cnt.to_pylist()
                        out = []
                        for fi, ci in zip(f, c):
                            if ci < ps.min_count:
                                out.append((fi, "minCount", str(ci)))
                            elif ps.max_count is not None \
                                    and ci > ps.max_count:
                                out.append((fi, "maxCount", str(ci)))
                        if not out:
                            return _VIOL_SCHEMA.empty_table()
                        return viol_table(
                            [o[0] for o in out], shape.name, ps.path,
                            None, [o[2] for o in out]) \
                            .set_column(3, "constraint",
                                        pa.array([o[1] for o in out],
                                                 pa.string()))

                    parts.append(joined.ds.map_batches(
                        count_viols, batch_format="pyarrow"))

            if vals.n == 0:
                continue

            # ---- vectorized per-value constraints ----
            def value_viols(t: pa.Table, ps=ps, shape=shape) -> pa.Table:
                tables = []
                f = t["focus"]
                v = t["value"]
                if ps.node_kind is not None:
                    bad = pc.invert(pc.fill_null(
                        pc.equal(t["object_kind"], ps.node_kind), True))
                    sub = t.filter(bad)
                    tables.append(viol_table(
                        sub["focus"].to_pylist(), shape.name, ps.path,
                        "nodeKind", sub["value"].to_pylist()))
                if ps.datatype is not None:
                    bad = pc.invert(pc.fill_null(
                        pc.equal(t["object_datatype"], ps.datatype),
                        False))
                    sub = t.filter(bad)
                    tables.append(viol_table(
                        sub["focus"].to_pylist(), shape.name, ps.path,
                        "datatype", sub["value"].to_pylist()))
                if ps.pattern is not None:
                    ok = pc.match_substring_regex(v, ps.pattern)
                    sub = t.filter(pc.invert(pc.fill_null(ok, False)))
                    tables.append(viol_table(
                        sub["focus"].to_pylist(), shape.name, ps.path,
                        "pattern", sub["value"].to_pylist()))
                if ps.in_values is not None:
                    ok = pc.is_in(v, value_set=pa.array(
                        ps.in_values, pa.string()))
                    sub = t.filter(pc.invert(pc.fill_null(ok, False)))
                    tables.append(viol_table(
                        sub["focus"].to_pylist(), shape.name, ps.path,
                        "in", sub["value"].to_pylist()))
                tables = [x for x in tables if len(x)]
                if not tables:
                    return _VIOL_SCHEMA.empty_table()
                return pa.concat_tables(tables)

            if any(x is not None for x in (ps.node_kind, ps.datatype,
                                           ps.pattern, ps.in_values)):
                parts.append(vals.ds.map_batches(value_viols,
                                                 batch_format="pyarrow"))

            # ---- class constraint: IRI values must be typed ----
            if ps.class_ is not None:
                typed = _pattern_scan(triples, ("?value", rdf_type, ps.class_))
                untyped = vals.map(
                    lambda t: t.filter(pc.equal(t["object_kind"], "iri")),
                    val_cols)
                if untyped.n and typed.n:
                    untyped = solution_join(untyped, typed, "left_anti",
                                            ["value"], val_cols)

                def class_viols(t: pa.Table, ps=ps, shape=shape) -> pa.Table:
                    return viol_table(
                        t["focus"].to_pylist(), shape.name, ps.path,
                        "class", t["value"].to_pylist())

                parts.append(untyped.ds.map_batches(
                    class_viols, batch_format="pyarrow"))

    if not parts:
        return empty()
    out = parts[0]
    for extra in parts[1:]:
        out = out.union(extra)
    cols = list(_VIOL_SCHEMA.names)
    return coarse_group_reduce(
        out, cols, lambda g: g.drop_duplicates(subset=cols))
