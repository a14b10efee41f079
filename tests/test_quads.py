"""Named-graph (quad) layer: N-Quads/TriG serialization, quad sinks,
graph minting, 4-term BGP patterns, and the SPARQL ``GRAPH`` clause.

Reference parity note: the reference keeps document provenance in output
FILE NAMES (one TTL per doc, text_to_turtle_processor.py:66-83); the
engine's named-graph-per-document layout is the scalable equivalent.
"""

import gzip
import os

import pandas as pd
import pytest

import ray
import ray.data

from cmc_knowledge_graph_text2ttl_ray.functions.nquads import (
    parse_nquads,
    serialize_nquads,
    serialize_trig,
)
from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
    mint_graph_iri,
    read_manifest,
    records_to_quads,
    write_quad_partitions,
)

QUADS = [
    ("urn:s1", "urn:p", "urn:o", "iri", None, None, "urn:g1"),
    ("urn:s1", "urn:p", 'he said "hi"\n', "literal", None, None, "urn:g1"),
    ("urn:s2", "urn:p", "42", "literal", None,
     "http://www.w3.org/2001/XMLSchema#integer", ""),
    ("urn:s3", "urn:p", "bonjour", "literal", "fr", None, "urn:g2"),
]


def _quads_df(rows):
    return pd.DataFrame(rows, columns=[
        "subject", "predicate", "object", "object_kind",
        "object_lang", "object_datatype", "graph"])


class TestNQuadsText:
    def test_round_trip_and_determinism(self):
        nq = serialize_nquads(QUADS)
        assert serialize_nquads(reversed(QUADS)) == nq  # order-independent
        back = parse_nquads(nq)
        assert serialize_nquads(back) == nq
        # default-graph row has NO graph term
        assert '"42"^^<http://www.w3.org/2001/XMLSchema#integer> .' in nq
        assert '\\"hi\\"\\n' in nq  # ECHAR escaping

    def test_none_and_empty_field_variants_collapse(self):
        a = ("urn:s", "urn:p", "urn:o", "iri", None, None, "urn:g")
        b = ("urn:s", "urn:p", "urn:o", "iri", "", "", "urn:g")
        assert serialize_nquads([a, b]) == serialize_nquads([a])

    def test_bad_iri_rejected(self):
        with pytest.raises(ValueError, match="forbidden"):
            serialize_nquads([("urn:s with space", "urn:p", "urn:o",
                               "iri", None, None, "")])

    def test_trig_blocks(self):
        trig = serialize_trig(QUADS, {"xsd": "http://www.w3.org/2001/XMLSchema#"})
        # deterministic: graphs sorted, default graph first at top level
        assert trig.index("<urn:s2>") < trig.index("<urn:g1> {")
        assert trig.index("<urn:g1> {") < trig.index("<urn:g2> {")
        assert trig.count("{") == trig.count("}") == 2
        assert "@prefix xsd:" in trig
        assert "42" in trig  # integer shorthand inside turtle body


class TestMintGraphIri:
    def test_absolute_url_passthrough(self):
        assert mint_graph_iri("https://ex.org/a.html") == "https://ex.org/a.html"

    def test_relative_or_unsafe_encoded(self):
        assert mint_graph_iri("docs/f 1.html") == "urn:graft:doc:docs%2Ff%201.html"
        assert mint_graph_iri("http://x/a b") == (
            "urn:graft:doc:http%3A%2F%2Fx%2Fa%20b")
        # every minted value is a valid N-Quads IRIREF
        serialize_nquads([("urn:s", "urn:p", "urn:o", "iri", None, None,
                           mint_graph_iri("weird <url>\twith\nbad chars"))])


class TestQuadSink:
    def _write(self, tmp_path, rows, fmt, **kw):
        ds = ray.data.from_pandas(_quads_df(rows))
        return write_quad_partitions(ds, str(tmp_path), fmt=fmt,
                                     num_buckets=4, **kw)

    def test_nquads_partition_independent_dedup_roundtrip(self, ray_session,
                                                          tmp_path):
        rows = QUADS + [QUADS[0]]  # a duplicate quad must collapse
        self._write(tmp_path / "a", rows, "nquads")
        ds2 = ray.data.from_pandas(_quads_df(rows)).repartition(5)
        write_quad_partitions(ds2, str(tmp_path / "b"), fmt="nquads",
                              num_buckets=4)

        def read_all(d):
            txt = ""
            for f in sorted(os.listdir(d)):
                if f.endswith(".nq"):
                    txt += open(os.path.join(d, f)).read()
            return txt

        a, b = read_all(tmp_path / "a"), read_all(tmp_path / "b")
        assert a == b  # deterministic shard bytes regardless of blocks
        parsed = parse_nquads(a)
        want = {(s, p, o, k, lg, dt, g) for s, p, o, k, lg, dt, g in QUADS}
        got = {(s, p, o, k, lg or None, dt or None, g)
               for s, p, o, k, lg, dt, g in parsed}
        assert got == want

    @pytest.mark.parametrize("fmt", ["turtle", "nquads", "trig", "jsonld"])
    def test_resume_skips_written_buckets(self, ray_session, tmp_path, fmt):
        # every format's sink runs on the one bucketed writer
        from cmc_knowledge_graph_text2ttl_ray.stages.sinks import (
            write_jsonld_partitions,
            write_ttl_partitions,
        )

        def write(**kw):
            if fmt in ("nquads", "trig"):
                return self._write(tmp_path, QUADS, fmt, **kw)
            sink = (write_ttl_partitions if fmt == "turtle"
                    else write_jsonld_partitions)
            return sink(ray.data.from_pandas(_quads_df(QUADS)),
                        str(tmp_path), num_buckets=4, **kw)

        m1 = write()
        n_buckets = len(m1["buckets"])
        # tamper one shard; resume must NOT rewrite it
        path = sorted(m1["buckets"].values(), key=lambda e: e["path"])[0]["path"]
        open(path, "w").write("# tampered\n")
        m2 = write()
        assert len(m2["buckets"]) == n_buckets
        assert open(path).read() == "# tampered\n"
        # resume=False rewrites
        write(resume=False)
        assert open(path).read() != "# tampered\n"

    def test_gzip_layout(self, ray_session, tmp_path):
        self._write(tmp_path, QUADS, "nquads", compression="gzip")
        gz = [f for f in os.listdir(tmp_path) if f.endswith(".nq.gz")]
        assert gz
        txt = b"".join(gzip.open(os.path.join(tmp_path, f)).read()
                       for f in sorted(gz)).decode()
        assert len(parse_nquads(txt)) == len(QUADS)

    def test_trig_graph_contiguity(self, ray_session, tmp_path):
        # 40 graphs over 4 buckets: each graph must land in EXACTLY one shard
        rows = [(f"urn:s{i}", "urn:p", f"v{i}", "literal", None, None,
                 f"urn:g{i % 40}") for i in range(200)]
        self._write(tmp_path, rows, "trig")
        seen = {}
        for f in sorted(os.listdir(tmp_path)):
            if not f.endswith(".trig"):
                continue
            body = open(os.path.join(tmp_path, f)).read()
            for g in range(40):
                if f"<urn:g{g}> {{" in body:
                    assert g not in seen, f"graph urn:g{g} split across shards"
                    seen[g] = f
        assert len(seen) == 40
        mani = read_manifest(str(tmp_path))
        assert mani["format"] == "trig"

    def test_format_change_invalidates_resume(self, ray_session, tmp_path):
        self._write(tmp_path, QUADS, "nquads")
        self._write(tmp_path, QUADS, "trig")  # same dir, new format
        mani = read_manifest(str(tmp_path))
        assert mani["format"] == "trig"
        assert all(e["path"].endswith(".trig")
                   for e in mani["buckets"].values())


class TestRecordsToQuads:
    def test_graph_minted_per_doc(self, ray_session):
        recs = pd.DataFrame([
            {"doc_url": "https://ex.org/a", "rec": "triple", "subject": "urn:s",
             "predicate": "urn:p", "object": "x", "object_kind": "literal",
             "object_lang": None, "object_datatype": None},
            {"doc_url": "https://ex.org/a", "rec": "stats"},
            {"doc_url": "rel/path b", "rec": "triple", "subject": "urn:t",
             "predicate": "urn:p", "object": "urn:o", "object_kind": "iri",
             "object_lang": None, "object_datatype": None},
        ])
        out = records_to_quads(ray.data.from_pandas(recs)).to_pandas()
        assert len(out) == 2  # stats row dropped
        by_subj = out.set_index("subject")["graph"].to_dict()
        assert by_subj["urn:s"] == "https://ex.org/a"
        assert by_subj["urn:t"] == "urn:graft:doc:rel%2Fpath%20b"


def _demo_quads():
    return _quads_df([
        ("urn:c1", "urn:p:seg", "BUILDING", "literal", None, None, "urn:g:DE"),
        ("urn:c2", "urn:p:seg", "AUTO", "literal", None, None, "urn:g:FR"),
        ("urn:c3", "urn:p:seg", "BUILDING", "literal", None, None, "urn:g:FR"),
        ("urn:o1", "urn:p:by", "urn:c1", "iri", None, None, "urn:g:DE"),
        ("urn:o2", "urn:p:by", "urn:c2", "iri", None, None, "urn:g:FR"),
        # o3's placed_by lives in DE but c3's segment triple is in FR:
        # a same-graph join must NOT pair them
        ("urn:o3", "urn:p:by", "urn:c3", "iri", None, None, "urn:g:DE"),
    ])


class TestGraphClause:
    def test_quad_bgp_same_graph_join(self, ray_session):
        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_query import bgp_query

        ds = ray.data.from_pandas(_demo_quads())
        out = bgp_query(ds, [("?o", "urn:p:by", "?c", "?g"),
                             ("?c", "urn:p:seg", "BUILDING", "?g")]).to_pandas()
        assert sorted(map(tuple, out[["o", "c", "g"]].values.tolist())) == [
            ("urn:o1", "urn:c1", "urn:g:DE")]

    def test_graph_var_through_sparql(self, ray_session):
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        ds = ray.data.from_pandas(_demo_quads())
        out = sparql_select(
            ds, "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } "
                "GROUP BY ?g ORDER BY ?g").to_pandas()
        assert out.to_dict("records") == [
            {"g": "urn:g:DE", "n": 3}, {"g": "urn:g:FR", "n": 3}]

    def test_graph_const_through_sparql(self, ray_session):
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        ds = ray.data.from_pandas(_demo_quads())
        out = sparql_select(
            ds, 'SELECT ?c WHERE { GRAPH <urn:g:FR> { ?c <urn:p:seg> ?s } } '
                "ORDER BY ?c").to_pandas()
        assert out["c"].tolist() == ["urn:c2", "urn:c3"]

    def test_graph_mixed_with_default_union_pattern(self, ray_session):
        # a pattern OUTSIDE GRAPH scans the union of all graphs
        # (documented rdflib default_union deviation)
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        ds = ray.data.from_pandas(_demo_quads())
        out = sparql_select(
            ds, 'SELECT ?o ?g WHERE { ?o <urn:p:by> ?c . '
                'GRAPH ?g { ?c <urn:p:seg> "BUILDING" } } ORDER BY ?o').to_pandas()
        # o1 (c1 in DE) and o3 (c3's seg triple in FR) both qualify here
        assert out.to_dict("records") == [
            {"o": "urn:o1", "g": "urn:g:DE"}, {"o": "urn:o3", "g": "urn:g:FR"}]

    def test_triple_only_source_rejected(self, ray_session):
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        ds = ray.data.from_pandas(_demo_quads().drop(columns=["graph"]))
        with pytest.raises(Exception, match="quad source|graph"):
            sparql_select(
                ds, "SELECT ?c WHERE { GRAPH <urn:g:FR> { ?c ?p ?o } }"
            ).to_pandas()

    def test_in_memory_evaluator_rejects_graph(self):
        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import (
            GraphIndex,
            QueryError,
        )

        g = GraphIndex([("urn:s", "urn:p", "urn:o")])
        with pytest.raises(QueryError, match="GRAPH"):
            g.query("SELECT ?s WHERE { GRAPH ?g { ?s ?p ?o } }")

    def test_paths_inside_graph_var_enumerate(self, ray_session):
        # round-5: paths under GRAPH ?var evaluate per enumerated
        # named graph — closures stay within each graph
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        ds = ray.data.from_pandas(_demo_quads())
        out = sparql_select(
            ds, "SELECT ?g ?a ?b WHERE { GRAPH ?g { "
                "?a <urn:p:by>+ ?b } }").to_pandas()
        got = sorted(map(tuple, out[["g", "a", "b"]].values.tolist()))
        assert got == [("urn:g:DE", "urn:o1", "urn:c1"),
                       ("urn:g:DE", "urn:o3", "urn:c3"),
                       ("urn:g:FR", "urn:o2", "urn:c2")]


class TestPipelineQuadOutput:
    def test_run_kg_pipeline_nquads(self, ray_session, tmp_path):
        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
        from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset

        pages = pages_dataset(60, override_num_blocks=4)
        run_kg_pipeline(pages, out_dir=str(tmp_path),
                        output_format="nquads")
        nq_dir = os.path.join(tmp_path, "nq")
        mani = read_manifest(nq_dir)
        assert mani["format"] == "nquads"
        text = ""
        for f in sorted(os.listdir(nq_dir)):
            if f.endswith(".nq"):
                text += open(os.path.join(nq_dir, f)).read()
        rows = parse_nquads(text)
        assert rows, "pipeline produced no quads"
        # every quad carries a per-document graph IRI
        assert all(r[6] for r in rows)
        # graph set == minted doc urls that produced triples
        ttl_run = run_kg_pipeline(pages, out_dir=str(tmp_path / "t"))
        n_ttl = sum(e["n_triples"]
                    for e in ttl_run["manifest"]["buckets"].values())
        # quads >= deduped triples: the same triple from two docs is two quads
        assert len(rows) >= n_ttl


class TestNQuadsReader:
    def test_sink_reader_round_trip(self, ray_session, tmp_path):
        ds = ray.data.from_pandas(_quads_df(QUADS))
        write_quad_partitions(ds, str(tmp_path), fmt="nquads", num_buckets=3)
        from cmc_knowledge_graph_text2ttl_ray.sources.nquads_src import nquads_dataset

        back = nquads_dataset(str(tmp_path)).to_pandas()
        assert len(back) == len(QUADS)
        want = {(s, p, o, k, lg, dt, g) for s, p, o, k, lg, dt, g in QUADS}
        got = {tuple(None if pd.isna(x) else x for x in r)
               for r in back.itertuples(index=False, name=None)}
        assert got == want
        # the read-back dataset answers GRAPH queries directly
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )

        out = sparql_select(
            nquads_dataset(str(tmp_path)).materialize(),
            "SELECT DISTINCT ?s WHERE { GRAPH <urn:g1> { ?s ?p ?o } } "
            "ORDER BY ?s"
        ).to_pandas()
        assert out["s"].tolist() == ["urn:s1"]

    def test_gzip_read_back(self, ray_session, tmp_path):
        ds = ray.data.from_pandas(_quads_df(QUADS))
        write_quad_partitions(ds, str(tmp_path), fmt="nquads", num_buckets=2,
                              compression="gzip")
        from cmc_knowledge_graph_text2ttl_ray.sources.nquads_src import nquads_dataset

        assert nquads_dataset(str(tmp_path)).count() == len(QUADS)


def test_cli_run_output_format_nquads(ray_session, tmp_path):
    from cmc_knowledge_graph_text2ttl_ray.__main__ import main

    wf = tmp_path / "wf.yaml"
    wf.write_text(
        "- prefix: ex\n  iri: http://e/\n"
        "- match: \"<title>(.*?)</title>\"\n  as: t\n  do:\n"
        "    - subject: ex:d\n      predicate: ex:t\n"
        "      object:\n        text: \"@{t.1}\"\n")
    out = tmp_path / "out"
    main(["run", "--workflow", str(wf), "--pages", "synth:20",
          "--out", str(out), "--num-cpus", "4", "--num-buckets", "4",
          "--output-format", "nquads"])
    nq_files = [f for f in os.listdir(out / "nq") if f.endswith(".nq")]
    assert nq_files
    rows = parse_nquads("".join(
        open(out / "nq" / f).read() for f in nq_files))
    assert rows and all(r[6].startswith("https://site") for r in rows)


def test_construct_into_named_graph(ray_session, tmp_path):
    """CONSTRUCT with a target graph: derived triples are quad-shaped and
    flow into the quad sink + GRAPH queries."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg_infer import construct
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )

    base = pd.DataFrame([
        ("urn:o1", "urn:by", "urn:c1", "iri"),
        ("urn:c1", "urn:in", "urn:n1", "iri"),
    ], columns=["subject", "predicate", "object", "object_kind"])
    derived = construct(
        ray.data.from_pandas(base).materialize(),
        [("?o", "urn:by", "?c"), ("?c", "urn:in", "?n")],
        [("?o", "urn:from", "?n")],
        graph="urn:g:derived")
    write_quad_partitions(derived, str(tmp_path), fmt="nquads",
                          num_buckets=2)
    out = sparql_select(
        derived.materialize(),
        "SELECT ?o ?n WHERE { GRAPH <urn:g:derived> { ?o <urn:from> ?n } }"
    ).to_pandas()
    assert out.to_dict("records") == [{"o": "urn:o1", "n": "urn:n1"}]


class TestGraphDifferential:
    """Distributed GRAPH lowering vs the in-memory quad evaluator on
    randomized quad sets — the same differential-oracle treatment the
    triple-side SPARQL front end gets."""

    QUERIES = [
        'SELECT ?g ?o WHERE { GRAPH ?g { ?o <urn:by> ?c . '
        '?c <urn:seg> "B" } }',
        'SELECT ?c ?s WHERE { GRAPH <urn:g1> { ?c <urn:seg> ?s } }',
        "SELECT ?g (COUNT(*) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } } "
        "GROUP BY ?g",
        'SELECT ?o ?g WHERE { ?o <urn:by> ?c . '
        'GRAPH ?g { ?c <urn:seg> "A" } }',
        # GRAPH composes inside OPTIONAL and FILTER EXISTS through the
        # recursive group evaluation on BOTH paths
        'SELECT ?o ?s WHERE { ?o <urn:by> ?c . '
        'OPTIONAL { GRAPH <urn:g1> { ?c <urn:seg> ?s } } }',
        'SELECT ?o WHERE { ?o <urn:by> ?c . '
        'FILTER EXISTS { GRAPH <urn:g2> { ?c <urn:seg> ?x } } }',
    ]

    def test_matches_in_memory_evaluator(self, ray_session):
        import numpy as np

        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_select,
        )
        from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

        rng = np.random.default_rng(5)
        rows, graphs = [], []
        for i in range(120):
            g = f"urn:g{rng.integers(0, 4)}"
            if rng.random() < 0.5:
                rows.append((f"urn:c{rng.integers(0, 12)}", "urn:seg",
                             "AB"[int(rng.integers(0, 2))], "literal"))
            else:
                rows.append((f"urn:o{i}", "urn:by",
                             f"urn:c{rng.integers(0, 12)}", "iri"))
            graphs.append(g)
        df = pd.DataFrame(rows, columns=["subject", "predicate", "object",
                                         "object_kind"])
        df["graph"] = graphs
        ds = ray.data.from_pandas(df).repartition(4).materialize()
        mem = GraphIndex([(s, p, o) for s, p, o, _ in rows], graphs=graphs)

        for q in self.QUERIES:
            got = sparql_select(ds, q).to_pandas()
            got = {tuple(str(v) for v in r)
                   for r in got[sorted(got.columns)].itertuples(
                       index=False, name=None)}
            want_rows = mem.query(q)
            cols = sorted({c for r in want_rows for c in r}) if want_rows \
                else []
            # unbound: distributed yields None, in-memory omits the key —
            # both stringify to 'None'
            want = {tuple(str(r.get(c)) for c in cols) for r in want_rows}
            assert got == want, q


def test_graph_var_excludes_default_graph(ray_session):
    """SPARQL §13.3: GRAPH ?g ranges over NAMED graphs only — rows in
    the default graph ("" / null) must not bind, on either path."""
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
        sparql_select,
    )
    from cmc_knowledge_graph_text2ttl_ray.state.graph_index import GraphIndex

    df = pd.DataFrame({
        "subject": ["urn:a", "urn:b"], "predicate": ["urn:p", "urn:p"],
        "object": ["x", "y"], "object_kind": ["literal", "literal"],
        "graph": ["urn:g1", ""]})
    got = sparql_select(
        ray.data.from_pandas(df),
        "SELECT ?g ?s WHERE { GRAPH ?g { ?s ?p ?o } }").to_pandas()
    assert got.to_dict("records") == [{"g": "urn:g1", "s": "urn:a"}]
    mem = GraphIndex(list(zip(df.subject, df.predicate, df.object)),
                     graphs=list(df.graph))
    assert mem.query("SELECT ?g ?s WHERE { GRAPH ?g { ?s ?p ?o } }") == [
        {"g": "urn:g1", "s": "urn:a"}]
    # the default-graph row is still reachable OUTSIDE GRAPH (union view)
    assert sparql_select(
        ray.data.from_pandas(df),
        "SELECT ?s WHERE { ?s ?p ?o }").count() == 2
