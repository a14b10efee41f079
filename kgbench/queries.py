"""The six SPARQL query shapes of the ``query`` workload, each with a twin
written in SQL over a triple table ``t(subject, predicate, object,
object_kind, object_lang, object_datatype)``.

The SQL twin is what DuckDB runs to check the distributed SPARQL result;
both sides project the same columns in the same order, and the results
are compared as multisets. Every shape returns rows on the benchmark
corpus (a MINUS whose right side removes everything would check nothing).
"""

from __future__ import annotations

EX = "http://example.org/kg/"
_PREFIX = f"PREFIX ex: <{EX}> "


def _p(local: str) -> str:
    return f"'{EX}{local}'"


# name -> (SPARQL, SQL). Order is the order of one round.
SHAPES: dict[str, tuple[str, str]] = {
    # 3-pattern star BGP on the report subject
    "star": (
        "SELECT ?d ?r ?c ?a WHERE { ?d ex:revenue ?r . ?d ex:currency ?c . "
        "?d ex:auditedOn ?a . }",
        f"""SELECT r.subject, r.object, c.object, a.object FROM t r
            JOIN t c ON c.subject = r.subject AND c.predicate = {_p('currency')}
            JOIN t a ON a.subject = r.subject AND a.predicate = {_p('auditedOn')}
            WHERE r.predicate = {_p('revenue')}""",
    ),
    # 2-hop chain: document -> entity -> place
    "chain": (
        "SELECT ?d ?e ?city WHERE { ?d ex:mentions ?e . "
        "?e ex:headquarteredIn ?city . }",
        f"""SELECT m.subject, m.object, h.object FROM t m
            JOIN t h ON h.subject = m.object AND h.predicate = {_p('headquarteredIn')}
            WHERE m.predicate = {_p('mentions')} AND m.object_kind = 'iri'""",
    ),
    "optional": (
        "SELECT ?d ?e ?city WHERE { ?d ex:filedBy ?e . "
        "OPTIONAL { ?e ex:headquarteredIn ?city . } }",
        f"""SELECT f.subject, f.object, h.object FROM t f
            LEFT JOIN t h ON h.subject = f.object AND f.object_kind = 'iri'
                AND h.predicate = {_p('headquarteredIn')}
            WHERE f.predicate = {_p('filedBy')}""",
    ),
    # mentions that are not also the filing entity of the same report
    "minus": (
        "SELECT ?d ?e WHERE { ?d ex:mentions ?e . "
        "MINUS { ?d ex:filedBy ?e . } }",
        f"""SELECT m.subject, m.object FROM t m
            WHERE m.predicate = {_p('mentions')} AND NOT EXISTS (
                SELECT 1 FROM t f WHERE f.predicate = {_p('filedBy')}
                AND f.subject = m.subject AND f.object = m.object
                AND f.object_kind = m.object_kind)""",
    ),
    "group": (
        "SELECT ?e (COUNT(?d) AS ?n) WHERE { ?d ex:mentions ?e . } GROUP BY ?e",
        f"""SELECT object, COUNT(*) FROM t WHERE predicate = {_p('mentions')}
            GROUP BY object""",
    ),
    # sequence path with a one-or-more closure
    "path": (
        "SELECT ?e ?x WHERE { ?e ex:headquarteredIn/ex:inCountry+ ?x . }",
        f"""WITH RECURSIVE c(v, x) AS (
                SELECT subject, object FROM t WHERE predicate = {_p('inCountry')}
                UNION
                SELECT c.v, t.object FROM c JOIN t ON t.subject = c.x
                    AND t.predicate = {_p('inCountry')})
            SELECT h.subject, c.x FROM t h JOIN c ON c.v = h.object
            WHERE h.predicate = {_p('headquarteredIn')}""",
    ),
}


def sparql(shape: str) -> str:
    return _PREFIX + SHAPES[shape][0]
