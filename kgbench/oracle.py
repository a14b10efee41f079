"""Expected outputs computed apart from the Ray pipeline, and the checks
that compare the program's outputs against them.

The benchmark process starts :func:`serve` in a child process and sends it
commands over a pipe, so the oracle's memory and CPU never count towards
the program's figures. The expectations are:

- **triples**: each page runs through the single-document path
  (``WorkflowInterpreter.run`` for every workflow whose trigger matches,
  keeping the best by ``(no_triples, no_matches, total_match_len)``), then
  entity IRIs are canonicalized in pandas (key = lower-cased local name
  with runs of ``_`` collapsed; canonical = most-mentioned variant,
  lexicographically smallest on ties), then the distinct triples are taken;
- **text**: the generator's golden ``text`` column, byte for byte;
- **queries**: each SPARQL shape's SQL twin, run by DuckDB over the
  expected triple table.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import pickle
import re
import sys
import time
import traceback

ENTITY_NS = "http://example.org/entity/"
HOT = re.compile(r"acme\s+corp", re.IGNORECASE)
IDENTITY = ("subject", "predicate", "object", "object_kind", "object_lang",
            "object_datatype")


def _doc_name(url: str) -> str:
    """The per-document ``doc`` variable: the url's basename without its
    extension, whitespace runs and characters outside 0x20-0x7f as '-'."""
    trunk = os.path.splitext(url.rsplit("/", 1)[-1] or url)[0]
    return re.sub(r"[^\x20-\x7f]", "-", re.sub(r"\s+", "-", trunk))


def _norm(v):
    """One result cell as a comparable Python value (None for unbound)."""
    if v is None:
        return None
    if isinstance(v, float) and v != v:
        return None
    if hasattr(v, "item"):  # numpy scalar
        v = v.item()
    return v if isinstance(v, int) else str(v)


def multiset(rows) -> collections.Counter:
    return collections.Counter(tuple(_norm(v) for v in r) for r in rows)


def compare_multisets(got: collections.Counter, want: collections.Counter,
                      what: str) -> list[str]:
    if got == want:
        return []
    missing = sum((want - got).values())
    extra = sum((got - want).values())
    sample = list((want - got).elements())[:1] + list((got - want).elements())[:1]
    return [f"{what}: {missing} rows missing, {extra} rows extra; e.g. {sample}"]


def read_shards(ttl_dir: str) -> dict[str, bytes]:
    """Shard file name -> bytes, for every ``.ttl`` / ``.ttl.gz`` in the dir."""
    out = {}
    for path in sorted(glob.glob(os.path.join(ttl_dir, "part-*.ttl*"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


class Oracle:
    def __init__(self):
        self.expected: set[tuple] | None = None
        self.text_problems: list[str] = []
        self.sql_expected: dict[str, collections.Counter] = {}
        self.reference_shards: dict[str, bytes] | None = None
        self.summary: dict = {}

    # -- expectations -----------------------------------------------------

    def prepare(self, corpus_dir: str, with_queries: bool) -> dict:
        import pandas as pd
        import pyarrow.parquet as pq

        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
            default_graphs,
            default_plans,
        )
        from cmc_knowledge_graph_text2ttl_ray.stages.extract import (
            extract_text_batch,
        )
        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex
        from cmc_knowledge_graph_text2ttl_ray.state.interpreter import (
            WorkflowInterpreter,
        )

        table = pq.read_table(corpus_dir)
        urls = table["url"].to_pylist()
        golden = table["text"].to_pylist()

        got_text = extract_text_batch(table.drop_columns(["text"]))["text"].to_pylist()
        bad = [u for u, g, x in zip(urls, golden, got_text)
               if (g or "").encode() != (x or "").encode()]
        self.text_problems = ([f"html->text differs from the golden text on "
                               f"{len(bad)} pages, e.g. {bad[0]}"] if bad else [])

        graphs = {n: GraphIndex.from_turtle(t) for n, t in default_graphs().items()}
        interps = [(p.trigger, WorkflowInterpreter(p, graphs=graphs))
                   for p in default_plans()]
        records, runs, nonempty, errors = [], 0, 0, 0
        for url, text in zip(urls, golden):
            if not text:
                continue
            nonempty += 1
            best = None
            variables = {"doc": _doc_name(url), "docname": url, "docpathname": url}
            for trigger, interp in interps:
                if trigger is not None and trigger.search(text) is None:
                    continue
                runs += 1
                try:
                    res = interp.run(text, variables=variables)
                except Exception:  # the stage records these and skips them
                    errors += 1
                    continue
                key = (res.no_triples, res.no_matches, res.total_match_len)
                if best is None or key > best[0]:
                    best = (key, res)
            if best is not None:
                records.extend(tuple(t) for t in best[1].triples)

        votes = collections.Counter()
        for s, _p, o, kind, _l, _d in records:
            if s.startswith(ENTITY_NS):
                votes[s] += 1
            if kind == "iri" and o.startswith(ENTITY_NS):
                votes[o] += 1
        ent = pd.DataFrame({"iri": list(votes), "cnt": list(votes.values())})
        ent["key"] = (ent["iri"].str[len(ENTITY_NS):].str.lower()
                      .str.replace(r"_+", "_", regex=True))
        ent = ent.sort_values(["key", "cnt", "iri"], ascending=[True, False, True])
        canon = ent.groupby("key", sort=False)["iri"].first()
        mapping = dict(zip(ent["iri"], ent["key"].map(canon)))
        self.expected = {
            (mapping.get(s, s), p, mapping.get(o, o) if kind == "iri" else o,
             kind, lang, dtype)
            for s, p, o, kind, lang, dtype in records
        }
        self.summary = {
            "pages": len(urls), "nonempty_pages": nonempty, "interpreter_runs": runs,
            "interpreter_errors": errors,
            "triple_records": len(records), "distinct_triples": len(self.expected),
            "entities": len(mapping),
            "variants_rewritten": sum(1 for k, v in mapping.items() if k != v),
            # pages naming the hot entity in any of its surface variants
            "hot_entity_share": sum(1 for t in golden if t and HOT.search(t)) / len(urls),
        }
        if with_queries:
            self._prepare_queries()
        return self.summary

    def _prepare_queries(self) -> None:
        import duckdb
        import pandas as pd

        from kgbench.queries import SHAPES

        t = pd.DataFrame(list(self.expected), columns=list(IDENTITY))
        con = duckdb.connect()
        try:
            con.register("t", t)
            for shape, (_sparql, sql) in SHAPES.items():
                self.sql_expected[shape] = multiset(con.execute(sql).fetchall())
        finally:
            con.close()

    # -- checks (each returns a list of problems; empty = correct) ---------

    def check_shards(self, ttl_dir: str) -> list[str]:
        """Shards parse back to the expected triple set; the manifest counts
        match the parsed counts; no triple sits in two shards."""
        from cmc_knowledge_graph_text2ttl_ray.functions.turtle import parse_turtle

        problems = []
        with open(os.path.join(ttl_dir, "manifest.json"), encoding="utf8") as fh:
            manifest = json.load(fh)
        listed = {os.path.basename(b["path"]): int(b["n_triples"])
                  for b in manifest["buckets"].values()}
        shards = read_shards(ttl_dir)
        if set(listed) != set(shards):
            problems.append(f"manifest lists {sorted(set(listed) - set(shards))[:3]} "
                            f"missing on disk, disk has {sorted(set(shards) - set(listed))[:3]} "
                            "not in the manifest")
        union: set[tuple] = set()
        total = 0
        for name, data in shards.items():
            rows, _prefixes = parse_turtle(data.decode("utf-8"))
            rows = [tuple(r) for r in rows]
            distinct = set(rows)
            if len(distinct) != len(rows):
                problems.append(f"{name}: {len(rows) - len(distinct)} repeated triples")
            if name in listed and listed[name] != len(rows):
                problems.append(f"{name}: manifest says {listed[name]} triples, "
                                f"parsed {len(rows)}")
            total += len(distinct)
            union |= distinct
        if total != len(union):
            problems.append(f"{total - len(union)} triples appear in two shards")
        if union != self.expected:
            missing = self.expected - union
            extra = union - self.expected
            problems.append(f"shards differ from the expected triples: "
                            f"{len(missing)} missing, {len(extra)} extra; e.g. "
                            f"{list(missing)[:1] + list(extra)[:1]}")
        return problems

    def check_build(self, ttl_dir: str) -> list[str]:
        return self.text_problems + self.check_shards(ttl_dir)

    def set_reference(self, ttl_dir: str) -> list[str]:
        """Keep the build's shards as the byte reference for republish."""
        problems = self.check_shards(ttl_dir)
        self.reference_shards = read_shards(ttl_dir)
        return problems

    def check_republish(self, ttl_dir: str) -> list[str]:
        problems = []
        shards = read_shards(ttl_dir)
        ref = self.reference_shards or {}
        if set(shards) != set(ref):
            problems.append(f"republish wrote {len(shards)} shards, build wrote {len(ref)}")
        differ = [n for n in shards if n in ref and shards[n] != ref[n]]
        if differ:
            problems.append(f"{len(differ)} shards differ in bytes from the build, "
                            f"e.g. {differ[0]}")
        return problems + self.check_shards(ttl_dir)

    def check_kg(self, rows: list[tuple]) -> list[str]:
        """The KG read back (``ttl_dataset``) is the expected triple set."""
        return compare_multisets(multiset(rows), multiset(self.expected),
                                 "KG read-back")

    def check_query(self, shape: str, rows: list[tuple]) -> list[str]:
        problems = compare_multisets(multiset(rows), self.sql_expected[shape],
                                     f"query {shape} vs SQL")
        if not rows:
            problems.append(f"query {shape} returned no rows")
        return problems

    # -- in-process layer timings for the traced run -----------------------

    def layer_probe(self, corpus_dir: str, ttl_dir: str) -> dict:
        import pyarrow.parquet as pq

        from cmc_knowledge_graph_text2ttl_ray.functions.turtle import (
            serialize_triples,
        )
        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import (
            default_graphs,
            default_plans,
        )
        from cmc_knowledge_graph_text2ttl_ray.sources.ttl import parse_ttl_table
        from cmc_knowledge_graph_text2ttl_ray.stages.extract import (
            extract_text_batch,
        )
        from cmc_knowledge_graph_text2ttl_ray.stages.triples import (
            TripleExtractor,
            collect_prefixes,
        )

        table = pq.read_table(corpus_dir).drop_columns(["text"])
        spans = []

        def timed(name, fn):
            t0 = time.time()
            out = fn()
            spans.append({"name": name, "start": t0, "end": time.time()})
            return out, spans[-1]["end"] - t0

        extracted, extract_s = timed("extract", lambda: extract_text_batch(table))
        plans = default_plans()
        extractor = TripleExtractor(plans=plans, graphs_ttl=default_graphs(),
                                    entity_ns=ENTITY_NS)
        batches = [extracted.slice(i, 64) for i in range(0, extracted.num_rows, 64)]
        outs, interp_s = timed("interpreter", lambda: [extractor(b) for b in batches])
        emitted = sum(o["rec"].to_pylist().count("triple") for o in outs)
        rows = list(self.expected)
        prefixes = collect_prefixes(plans)
        _ttl, ser_s = timed("turtle.serialize", lambda: serialize_triples(rows, prefixes))
        shards = read_shards(ttl_dir)
        parsed, parse_s = timed("turtle.parse", lambda: sum(
            parse_ttl_table(d.decode("utf-8"), n).num_rows for n, d in shards.items()))
        n = table.num_rows
        return {
            "spans": spans,
            "extract.s": extract_s,
            "extract.pages_per_s": n / extract_s,
            "interpreter.s": interp_s,
            "interpreter.pages_per_s": n / interp_s,
            "interpreter.triples_emitted": emitted,
            "interpreter.runs_per_page": (self.summary["interpreter_runs"]
                                          / max(1, self.summary["nonempty_pages"])),
            "turtle.serialize_triples_per_s": len(rows) / ser_s,
            "turtle.parse_triples_per_s": parsed / parse_s,
        }


def serve(inp, out) -> None:
    """Check-process loop: pickled ``(method, args)`` in, ``("ok", value)``
    or ``("error", traceback)`` out, until the input ends."""
    oracle = Oracle()
    while True:
        try:
            method, args = pickle.load(inp)
        except EOFError:
            return
        try:
            reply = ("ok", getattr(oracle, method)(*args))
        except Exception:
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, out)
        out.flush()


if __name__ == "__main__":
    # replies travel on the original stdout; anything the libraries print
    # goes to stderr instead
    reply_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    serve(sys.stdin.buffer, reply_out)
