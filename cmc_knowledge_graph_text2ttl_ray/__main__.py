"""CLI entry point.

Mirrors the reference CLI shape (kg_text_to_ttl/text_to_turtle_runner.py:
480-604: workflows + documents + ``-d var=value`` definitions) re-expressed
for the Ray engine:

    # full pipeline over a parquet page corpus (or synth:N pages)
    python -m cmc_knowledge_graph_text2ttl_ray run \
        --workflow workflows/webpage_kg.yaml --workflow workflows/titles_only.yaml \
        --pages /data/pages_parquet --out /tmp/kg_out --num-cpus 32

    # single document through the interpreter (no Ray) — library parity
    python -m cmc_knowledge_graph_text2ttl_ray doc \
        --workflow workflows/webpage_kg.yaml --text page.html -d doc=mydoc

Designed for ``ray job submit -- python -m cmc_knowledge_graph_text2ttl_ray run ...``
on a real cluster; locally it owns its Ray session (guarded init).
"""

from __future__ import annotations

import argparse
import glob
import json
import re
import sys


def _parse_defs(defs: list[str]) -> dict[str, str]:
    out = {}
    for d in defs:
        m = re.match(r"([\w-]+)=(.*)", d)
        if not m:
            raise SystemExit(f"Invalid -d definition (want name=value): {d}")
        out[m.group(1)] = m.group(2)
    return out


def cmd_doc(args) -> int:
    from cmc_knowledge_graph_text2ttl_ray.state.plan import compile_workflow_file
    from cmc_knowledge_graph_text2ttl_ray.state.interpreter import WorkflowInterpreter
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import serialize_triples

    plans = [compile_workflow_file(w) for w in args.workflow]
    graphs = {}
    for g in args.graph or []:
        name, _, path = g.partition("=")
        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

        graphs[name] = GraphIndex.from_file(path)
    if args.text.lower().endswith(".pdf"):
        # reference parity: PDFs go through table recognition first
        # (text_to_turtle_runner.py:131-141 get_pdf_content)
        from cmc_knowledge_graph_text2ttl_ray.functions.pdf import pdf_to_xhtml

        with open(args.text, "rb") as fh:
            text = pdf_to_xhtml(fh.read())
    else:
        with open(args.text, encoding="utf8") as fh:
            text = fh.read()
    variables = _parse_defs(args.define or [])
    best = None
    for plan in plans:
        interp = WorkflowInterpreter(plan, graphs=graphs)
        res = interp.run(text, variables=dict(variables))
        key = (res.no_triples, res.no_matches, res.total_match_len)
        if best is None or key > best[0]:
            best = (key, plan.name, res)
    _, wf_name, res = best
    sys.stderr.write(
        f"workflow={wf_name} matches={res.no_matches} triples={res.no_triples} "
        f"score={res.score:.3f}\n"
    )
    sys.stdout.write(serialize_triples(res.triples, res.prefixes))
    return 0


def cmd_run(args) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.state.plan import compile_workflow_file

    if args.pages.startswith("synth:"):
        pages = pages_dataset(int(args.pages.split(":", 1)[1]))
    elif args.pages.startswith("pdf:"):
        # PDF corpus ingestion: every file under the path becomes one row
        # (url=path, pdf=bytes); the extraction stage routes pdf columns
        # through the pure-Python parser + table recognizer
        import pyarrow as pa

        pages = ray.data.read_binary_files(
            args.pages.split(":", 1)[1], include_paths=True
        ).map_batches(
            lambda t: pa.table({"url": t["path"], "pdf": t["bytes"]}),
            batch_format="pyarrow",
        )
    elif args.pages.startswith("docs:"):
        # office/e-mail corpus ingestion (docx/odt/rtf/eml — the Tika
        # analogue): every file becomes one row (url=path, doc=bytes)
        import pyarrow as pa

        pages = ray.data.read_binary_files(
            args.pages.split(":", 1)[1], include_paths=True
        ).map_batches(
            lambda t: pa.table({"url": t["path"], "doc": t["bytes"]}),
            batch_format="pyarrow",
        )
    elif args.pages.startswith("warc:"):
        # Common-Crawl-style WARC shards (plain or .warc.gz): one file per
        # read task, response records → pages-schema rows
        from cmc_knowledge_graph_text2ttl_ray.sources.warc import warc_dataset

        pages = warc_dataset(args.pages.split(":", 1)[1])
    elif args.pages.startswith("jsonl:") or args.pages.endswith(".jsonl"):
        # line-delimited JSON only (pyarrow's reader); a conventional JSON
        # array file is NOT supported — convert to .jsonl first
        path = args.pages.split(":", 1)[1] if args.pages.startswith("jsonl:") else args.pages
        pages = ray.data.read_json(path)
    elif args.pages.startswith("csv:") or args.pages.endswith(".csv"):
        path = (args.pages.split(":", 1)[1]
                if args.pages.startswith("csv:") else args.pages)
        pages = ray.data.read_csv(path)
    else:
        pages = ray.data.read_parquet(args.pages)

    plans = [compile_workflow_file(w) for w in args.workflow] if args.workflow else None
    graphs_ttl = None
    if args.graph:
        graphs_ttl = {}
        for g in args.graph:
            name, _, path = g.partition("=")
            with open(path, encoding="utf8") as fh:
                graphs_ttl[name] = fh.read()

    result = run_kg_pipeline(
        pages,
        plans=plans,
        graphs_ttl=graphs_ttl,
        out_dir=args.out,
        num_buckets=args.num_buckets,
        resume=not args.no_resume,
        ttl_compression=("gzip" if args.ttl_gzip else None),
        output_format=args.output_format,
        # pdf: sources are a lazy map plan (schema unknown without running
        # the executor) — route explicitly instead of the auto sniff
        source=("pdf" if args.pages.startswith("pdf:")
                else "doc" if args.pages.startswith("docs:")
                else "html" if args.pages.startswith("warc:") else "auto"),
    )
    summary = {
        "buckets": len(result["manifest"]["buckets"]),
        "n_triples": sum(b.get("n_triples", b.get("n_quads", 0))
                         for b in result["manifest"]["buckets"].values()),
        "entities": (len(result["entity_mapping"])
                     if result["entity_mapping"] is not None else None),
        "timings": {k: round(v, 2) for k, v in result["timings"].items()},
        "out_dir": args.out,
    }
    print(json.dumps(summary))
    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    """SPARQL SELECT against a published KG: a TTL shard dir /
    generations root (``ttl_dataset``) or a predicate-bucketed Parquet
    triple store (auto-detected by its ``_predicates.json``)."""
    import os

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_query,
    )

    if os.path.isfile(os.path.join(args.kg, "_predicates.json")):
        from cmc_knowledge_graph_text2ttl_ray.sources.triple_store import (
            TripleStore,
        )

        source = TripleStore(args.kg)
    elif os.path.isfile(os.path.join(args.kg, "_quadstore.json")):
        # graph-bucketed quad store: constant-GRAPH queries prune
        from cmc_knowledge_graph_text2ttl_ray.sources.quad_store import (
            QuadStore,
        )

        source = QuadStore(args.kg)
    elif (glob.glob(os.path.join(args.kg, "gen-*", "_graph_removals.json"))
          or glob.glob(os.path.join(args.kg, "gen-*", "*.nq"))
          or glob.glob(os.path.join(args.kg, "gen-*", "*.nq.gz"))
          or glob.glob(os.path.join(args.kg, "*.nq"))
          or glob.glob(os.path.join(args.kg, "*.nq.gz"))):
        # quad roots: a kg_quads generations root resolves graph
        # retractions; a bare .nq shard dir is a plain union read
        if glob.glob(os.path.join(args.kg, "gen-*")):
            from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_quads import (
                quad_read,
            )

            source = quad_read(args.kg).materialize()
        else:
            from cmc_knowledge_graph_text2ttl_ray.sources.nquads_src import (
                nquads_dataset,
            )

            source = nquads_dataset(args.kg).materialize()
    elif glob.glob(os.path.join(args.kg, "gen-*", "_removals")):
        # a generations root touched by SPARQL Update carries tombstone
        # shards; the plain TTL union would show deleted triples
        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import (
            kg_read,
        )

        source = kg_read(args.kg).materialize()
    else:
        from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset

        source = ttl_dataset(args.kg).materialize()

    if args.sparql_file:
        with open(args.sparql_file, encoding="utf8") as fh:
            query = fh.read()
    else:
        query = args.sparql
    result = sparql_query(source, query)
    if args.out:
        result = result.materialize()  # written and counted: run it once
        result.write_parquet(args.out)
        print(json.dumps({"out": args.out, "n_rows": result.count()}))
    else:
        df = result.limit(args.max_print).to_pandas()
        print(df.to_csv(index=False), end="")
    ray.shutdown()
    return 0


def cmd_update(args) -> int:
    """SPARQL 1.1 Update against a generations-root KG: each operation
    (or ``;``-separated sequence) publishes tombstone/add generations;
    reads through ``query`` resolve them removal-aware."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_update import (
        sparql_update,
    )

    if args.sparql_file:
        with open(args.sparql_file, encoding="utf8") as fh:
            update = fh.read()
    else:
        update = args.sparql
    pub = sparql_update(args.kg, update, num_buckets=args.num_buckets)
    print(json.dumps({k: v for k, v in pub.items() if k != "operations"}
                     | ({"n_operations": len(pub["operations"])}
                        if "operations" in pub else {})))
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cmc_knowledge_graph_text2ttl_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="full KG pipeline over a page corpus")
    p_run.add_argument("--workflow", action="append", help="workflow YAML (repeatable)")
    p_run.add_argument("--pages", required=True,
                       help="parquet path/dir of pages, synth:N for the synthetic corpus, "
                            "pdf:DIR for a directory of PDF files, docs:DIR for "
                            "docx/odt/rtf/eml files, jsonl:PATH / *.jsonl "
                            "for JSON-LINES page records (not JSON arrays), "
                            "or csv:PATH / *.csv")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--graph", action="append", help="name=path.ttl lookup graph (repeatable)")
    p_run.add_argument("--num-cpus", type=int, default=32)
    p_run.add_argument("--num-buckets", type=int, default=64)
    p_run.add_argument("--no-resume", action="store_true")
    p_run.add_argument("--ttl-gzip", action="store_true",
                       help="write gzip'd TTL shards (8-10x smaller; "
                            "storage-bandwidth-bound sinks)")
    p_run.add_argument("--output-format",
                       choices=["turtle", "nquads", "trig", "jsonld"],
                       default="turtle", dest="output_format",
                       help="turtle = bucketed TTL shards; nquads/trig = "
                            "named-graph-per-document quad shards; "
                            "jsonld = expanded-JSON-LD shards")
    p_run.set_defaults(fn=cmd_run)

    p_q = sub.add_parser(
        "query", help="SPARQL SELECT/ASK/DESCRIBE over a published KG "
                      "(TTL dir, generations root, or Parquet triple store)")
    p_q.add_argument("--kg", required=True,
                     help="TTL shard dir / generations root / triple-store dir")
    g = p_q.add_mutually_exclusive_group(required=True)
    g.add_argument("--sparql", help="query text")
    g.add_argument("--sparql-file", help="file containing the query")
    p_q.add_argument("--out", help="write full result as parquet here "
                                   "(default: print CSV to stdout)")
    p_q.add_argument("--max-print", type=int, default=100,
                     help="row cap for stdout printing (default 100)")
    p_q.add_argument("--num-cpus", type=int, default=32)
    p_q.set_defaults(fn=cmd_query)

    p_u = sub.add_parser(
        "update", help="SPARQL 1.1 Update (INSERT/DELETE DATA, DELETE "
                       "WHERE, DELETE/INSERT WHERE, ;-sequences) against "
                       "a generations-root KG")
    p_u.add_argument("--kg", required=True, help="generations root")
    gu = p_u.add_mutually_exclusive_group(required=True)
    gu.add_argument("--sparql", help="update text")
    gu.add_argument("--sparql-file", help="file containing the update")
    p_u.add_argument("--num-buckets", type=int, default=64)
    p_u.add_argument("--num-cpus", type=int, default=32)
    p_u.set_defaults(fn=cmd_update)

    p_doc = sub.add_parser("doc", help="run one document through the interpreter")
    p_doc.add_argument("--workflow", action="append", required=True)
    p_doc.add_argument("--text", required=True, help="document text/HTML file")
    p_doc.add_argument("--graph", action="append")
    p_doc.add_argument("-d", "--define", action="append",
                       help="variable definition name=value (repeatable)")
    p_doc.set_defaults(fn=cmd_doc)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
