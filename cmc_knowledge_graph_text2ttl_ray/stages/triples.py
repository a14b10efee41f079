"""Triple-extraction stage.

The engine analogue of the reference's per-document loop
(kg_text_to_ttl/text_to_turtle_runner.py:311-431): for every page run each
workflow, keep the best result per document (sort key
``(no_triples, no_matches, total_match_len)`` desc, runner :402-407), and
emit triple ROWS.

Ray-Data-first design decisions:

- This is a callable class: the compiled plans + lookup graphs are
  indexed once in ``__init__`` (the reference recompiles regexes per op
  invocation — text_to_turtle_processor.py:1233 etc.). Construction
  costs under a millisecond, so ``pipelines.kg.extraction_records`` builds
  one per batch inside a plain task, which Ray Data fuses with the
  HTML→text map before it.
- All W workflows are evaluated inside one UDF call per row, so best-of
  selection needs NO groupby/shuffle (SURVEY §2.5 A2).
- Output is a flat Arrow table of records with a ``rec`` discriminator:
  ``triple`` rows, one ``stats`` row per document (lineage/metrics), and
  ``error`` rows for per-document failures — errors never fail the block
  (reference writes ``.err`` files and continues, runner :389-394).
"""

from __future__ import annotations

import re
import traceback

import pyarrow as pa

from cmc_knowledge_graph_text2ttl_ray.state.interpreter import WorkflowInterpreter
from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex
from cmc_knowledge_graph_text2ttl_ray.state import plan as P

__all__ = ["TripleExtractor", "RECORDS_SCHEMA", "collect_prefixes", "clean_doc_name"]

RECORDS_SCHEMA = pa.schema(
    [
        ("doc_url", pa.string()),
        ("workflow", pa.string()),
        ("rec", pa.string()),  # triple | stats | error
        ("subject", pa.string()),
        ("predicate", pa.string()),
        ("object", pa.string()),
        ("object_kind", pa.string()),
        ("object_lang", pa.string()),
        ("object_datatype", pa.string()),
        ("no_matches", pa.int64()),
        ("no_triples", pa.int64()),
        ("total_match_len", pa.int64()),
        ("score", pa.float64()),
        ("error", pa.string()),
    ]
)

_RE_WS_RUN = re.compile(r"\s+")
_RE_NON_ASCII = re.compile(r"[^\x20-\x7f]")


def clean_doc_name(name: str) -> str:
    """Reference clean-name rule (runner :312-317): strip the extension,
    collapse each whitespace RUN to one '-', then map every char outside
    \x20-\x7f to '-'."""
    import os.path

    trunk, _ = os.path.splitext(name)
    return _RE_NON_ASCII.sub("-", _RE_WS_RUN.sub("-", trunk))


def collect_prefixes(plans) -> dict[str, str]:
    """Statically collect every prefix: declaration of the plan tree(s),
    recursing through every nested op container (sub-sequences, object
    op-sequences, match-dimensions do-i-j bodies, …)."""
    out: dict[str, str] = {}

    def walk(node):
        if isinstance(node, P.PrefixOp):
            out[node.prefix] = node.iri
        if hasattr(node, "__dataclass_fields__"):
            for f_name in node.__dataclass_fields__:
                walk(getattr(node, f_name))
        elif isinstance(node, (tuple, list)):
            for item in node:
                walk(item)

    if not isinstance(plans, (list, tuple)):
        plans = [plans]
    for plan in plans:
        for step in plan.steps:
            walk(step)
    return out


class TripleExtractor:
    """Batch UDF: page batch (Arrow) → extraction-record batch (Arrow).

    :param plans: one or more :class:`CompiledPlan` (pre-compiled on the
        driver and shipped with the task — broadcast small-side state).
    :param graphs_ttl: optional named Turtle texts for ``select:`` lookups;
        indexed once per instance here.
    :param text_column: column holding the extracted document text.
    :param allow_exec: forwarded to the interpreter (embedded-Python gate).
    """

    def __init__(
        self,
        plans,
        graphs_ttl: dict[str, str] | None = None,
        text_column: str = "text",
        url_column: str = "url",
        allow_exec: bool = True,
        allow_remote: bool = False,
        entity_ns: str | None = None,
        max_text_chars: int = 4_000_000,
    ) -> None:
        if not isinstance(plans, (list, tuple)):
            plans = [plans]
        graphs = {
            name: GraphIndex.from_turtle(ttl) for name, ttl in (graphs_ttl or {}).items()
        }
        self._interps = [
            (plan.name, plan.trigger,
             WorkflowInterpreter(plan, graphs=graphs, allow_exec=allow_exec,
                                 allow_remote=allow_remote))
            for plan in plans
        ]
        self._text_column = text_column
        self._url_column = url_column
        self._entity_ns = entity_ns
        self._max_text_chars = max_text_chars

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch[self._url_column].to_pylist()
        texts = batch[self._text_column].to_pylist()
        rows: list[dict] = []
        for url, text in zip(urls, texts):
            rows.extend(self._process_doc(url, text))
        if self._entity_ns is not None:
            # Per-batch partial entity-mention counts (rec='entity') — the
            # canonicalization combiner, so the mapping build needs no extra
            # pass over the triple table (SURVEY §2.5 A4).
            ns = self._entity_ns
            counts: dict[str, int] = {}
            for r in rows:
                if r["rec"] != "triple":
                    continue
                s_val = r["subject"]
                if s_val.startswith(ns):
                    counts[s_val] = counts.get(s_val, 0) + 1
                o_val = r["object"]
                if r["object_kind"] == "iri" and o_val.startswith(ns):
                    counts[o_val] = counts.get(o_val, 0) + 1
            rows.extend(
                {"rec": "entity", "subject": iri, "no_triples": cnt}
                for iri, cnt in counts.items()
            )
        # Columnar assembly (from_pylist over wide sparse dicts is ~2× slower)
        cols = {name: [None] * len(rows) for name in RECORDS_SCHEMA.names}
        for i, r in enumerate(rows):
            for k, v in r.items():
                cols[k][i] = v
        return pa.Table.from_arrays(
            [pa.array(cols[f.name], type=f.type) for f in RECORDS_SCHEMA],
            schema=RECORDS_SCHEMA,
        )

    # -- per document -------------------------------------------------------

    def _process_doc(self, url: str, text: str | None) -> list[dict]:
        if not text:
            # Reference: empty extraction → warn + skip (runner :335-339).
            return [
                {"doc_url": url, "workflow": "", "rec": "error", "error": "empty-text"}
            ]
        doc = clean_doc_name(url.rsplit("/", 1)[-1] or url)
        best = None  # (sort_key, wf_name, DocResult)
        errors = []
        if len(text) > self._max_text_chars:
            # Giant-row guard: one multi-MB page must not stall an actor on a
            # catastrophic regex (the reference has no such guard; its only
            # truncation is the first-</html> rule, runner :124-128).
            text = text[: self._max_text_chars]
            errors.append(
                {"doc_url": url, "workflow": "", "rec": "error",
                 "error": f"truncated-to-{self._max_text_chars}-chars"}
            )
        for wf_name, trigger, interp in self._interps:
            if trigger is not None and trigger.search(text) is None:
                continue  # routed away: this specialist cannot apply here
            try:
                res = interp.run(
                    text, variables={"doc": doc, "docname": url, "docpathname": url}
                )
            except Exception:
                errors.append(
                    {
                        "doc_url": url,
                        "workflow": wf_name,
                        "rec": "error",
                        "error": traceback.format_exc(limit=3),
                    }
                )
                continue
            key = (res.no_triples, res.no_matches, res.total_match_len)
            if best is None or key > best[0]:
                best = (key, wf_name, res)
        out = errors
        if best is None:
            return out
        _, wf_name, res = best
        for s, p, o, kind, lang, dtype in res.triples:
            out.append(
                {
                    "doc_url": url,
                    "workflow": wf_name,
                    "rec": "triple",
                    "subject": s,
                    "predicate": p,
                    "object": o,
                    "object_kind": kind,
                    "object_lang": lang,
                    "object_datatype": dtype,
                }
            )
        out.append(
            {
                "doc_url": url,
                "workflow": wf_name,
                "rec": "stats",
                "no_matches": res.no_matches,
                "no_triples": res.no_triples,
                "total_match_len": res.total_match_len,
                "score": res.score,
            }
        )
        return out
