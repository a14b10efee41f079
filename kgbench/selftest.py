#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 kgbench/selftest.py

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports.
2. Every workload runs in quick mode (tiny corpus, every check), untraced
   and traced, with 0 failed operations and every metric reported, and no
   process of the run is alive afterwards.
3. An operation that runs past its deadline counts as failed, the run ends
   cleanly and leaves no process behind.
4. Each output check catches a fault planted in a copy of a real output.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAG_VAR = "KGBENCH_SELFTEST_TAG"


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}", flush=True)


def tagged_alive(tag: str) -> list[int]:
    """Live processes whose environment carries ``tag`` (inherited by every
    process a run starts, Ray's included)."""
    needle = f"{TAG_VAR}={tag}".encode()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                if needle in fh.read().split(b"\0"):
                    with open(f"/proc/{name}/stat") as st:
                        if st.read().rsplit(")", 1)[1].split()[0] != "Z":
                            pids.append(int(name))
        except OSError:
            continue
    return pids


def run_bench(*args: str) -> tuple[subprocess.CompletedProcess, str]:
    tag = uuid.uuid4().hex
    env = dict(os.environ, **{TAG_VAR: tag})
    proc = subprocess.run([sys.executable, os.path.join("kgbench", "run.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    return proc, tag


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json() -> None:
    from kgbench.queries import SHAPES
    from kgbench.run import END_TO_END, PER_LAYER, SHAPE_NAMES

    expect(tuple(SHAPES) == SHAPE_NAMES, "run.py SHAPE_NAMES = queries.py SHAPES")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as fh:
        spec = json.load(fh)
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
           == END_TO_END, "BENCHMARK.json end_to_end = run.py END_TO_END")
    expect({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
           == PER_LAYER, "BENCHMARK.json per_layer = run.py PER_LAYER")


def test_quick_runs() -> None:
    from kgbench.run import END_TO_END, PER_LAYER

    for workload in ("build", "republish", "query"):
        for trace in (0, 1):
            proc, tag = run_bench("--workload", workload, "--quick",
                                  "--trace", str(trace))
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit 0 (stderr tail: "
                   f"{proc.stderr[-800:] if proc.returncode else ''})")
            res = last_json(proc)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: correct, {res['attempted']} attempted, 0 failed")
            want = PER_LAYER if trace else END_TO_END
            expect(set(res["metrics"]) == set(want), f"{what}: every metric reported")
            expect(not tagged_alive(tag), f"{what}: no process of the run alive")


def test_deadline() -> None:
    proc, tag = run_bench("--workload", "build", "--quick", "--op-deadline", "0.5")
    expect(proc.returncode == 0, f"deadline run: exit 0 (stderr tail: "
           f"{proc.stderr[-800:] if proc.returncode else ''})")
    res = last_json(proc)
    expect(res["attempted"] == 1 and res["failed"] == 1,
           "deadline run: the operation past its deadline counts as failed")
    expect(not tagged_alive(tag), "deadline run: no process of the run alive")


def _rewrite_shard(path: str, edit) -> None:
    """Parse a shard, apply ``edit`` to its triple list, serialize it back."""
    from cmc_knowledge_graph_text2ttl_ray.functions.turtle import (
        parse_turtle,
        serialize_triples,
    )

    with open(path, encoding="utf8") as fh:
        rows, prefixes = parse_turtle(fh.read())
    with open(path, "w", encoding="utf8") as fh:
        fh.write(serialize_triples(edit([tuple(r) for r in rows]), prefixes))


def _set_manifest_count(ttl_dir: str, shard: str, delta: int) -> None:
    path = os.path.join(ttl_dir, "manifest.json")
    with open(path, encoding="utf8") as fh:
        manifest = json.load(fh)
    for b in manifest["buckets"].values():
        if os.path.basename(b["path"]) == shard:
            b["n_triples"] += delta
    with open(path, "w", encoding="utf8") as fh:
        json.dump(manifest, fh)


def test_planted_faults() -> None:
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import sparql_query
    from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset
    from kgbench.oracle import Oracle
    from kgbench.queries import SHAPES, sparql
    from kgbench.run import RAY_TEMP, RUN_BASE, ray_init_kwargs, write_corpus

    work = os.path.join(RUN_BASE, f"selftest-{os.getpid()}")
    os.makedirs(work)
    ray.init(**ray_init_kwargs())
    try:
        ray.data.DataContext.get_current().enable_progress_bars = False
        corpus = write_corpus(os.path.join(work, "corpus"), 7, 60)
        run_kg_pipeline(ray.data.read_parquet(corpus), out_dir=os.path.join(work, "kg"),
                        resume=False)
        ttl = os.path.join(work, "kg", "ttl")
        oracle = Oracle()
        oracle.prepare(corpus, True)
        expect(oracle.check_build(ttl) == [], "build check passes on the real output")

        def planted(name: str, plant) -> None:
            bad = os.path.join(work, "bad")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(ttl, bad)
            shards = sorted(f for f in os.listdir(bad) if f.startswith("part-"))
            plant(bad, shards)
            expect(oracle.check_shards(bad) != [], f"shard check catches: {name}")

        def drop_one(bad, shards):
            _rewrite_shard(os.path.join(bad, shards[0]), lambda r: r[1:])
            _set_manifest_count(bad, shards[0], -1)  # only the oracle can tell

        def copy_across(bad, shards):
            from cmc_knowledge_graph_text2ttl_ray.functions.turtle import parse_turtle

            with open(os.path.join(bad, shards[0]), encoding="utf8") as fh:
                first = tuple(parse_turtle(fh.read())[0][0])
            _rewrite_shard(os.path.join(bad, shards[1]), lambda r: r + [first])
            _set_manifest_count(bad, shards[1], +1)

        planted("one triple dropped from one shard", drop_one)
        planted("one triple copied into a second shard", copy_across)
        planted("a manifest count off by one",
                lambda bad, shards: _set_manifest_count(bad, shards[0], +1))

        bad_corpus = os.path.join(work, "bad_corpus")
        shutil.copytree(corpus, bad_corpus)
        first = sorted(os.listdir(bad_corpus))[0]
        table = pq.read_table(os.path.join(bad_corpus, first))
        html = table["html"].to_pylist()
        i = next(k for k, h in enumerate(html) if h)
        html[i] = html[i].replace(b"<h1>", b"<h1>x", 1)
        pq.write_table(table.set_column(table.column_names.index("html"), "html",
                                        [html]), os.path.join(bad_corpus, first))
        text_oracle = Oracle()
        text_oracle.prepare(bad_corpus, False)
        expect(text_oracle.text_problems != [],
               "text check catches: one page's html changed against its golden text")

        expect(oracle.set_reference(ttl) == [] and oracle.check_republish(ttl) == [],
               "republish check passes on identical shards")
        bad = os.path.join(work, "bad_republish")
        shutil.copytree(ttl, bad)
        shard = sorted(f for f in os.listdir(bad) if f.startswith("part-"))[0]
        with open(os.path.join(bad, shard), "a", encoding="utf8") as fh:
            fh.write("\n")  # same triples, different bytes
        expect(oracle.check_shards(bad) == [] and oracle.check_republish(bad) != [],
               "republish check catches: shard bytes differ but parse the same")

        kg = ttl_dataset(ttl).materialize()
        kg_rows = list(kg.to_pandas().itertuples(index=False, name=None))
        expect(oracle.check_kg(kg_rows) == [], "KG read-back check passes")
        expect(oracle.check_kg(kg_rows[1:]) != [], "KG read-back check catches: one row dropped")
        for shape in SHAPES:
            rows = list(sparql_query(kg, sparql(shape)).materialize().to_pandas()
                        .itertuples(index=False, name=None))
            expect(oracle.check_query(shape, rows) == [], f"query {shape}: matches SQL")
            expect(oracle.check_query(shape, rows[1:]) != [],
                   f"query {shape}: check catches one row removed")
            expect(oracle.check_query(shape, rows + rows[:1]) != [],
                   f"query {shape}: check catches one row repeated")
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    test_benchmark_json()
    test_planted_faults()
    test_deadline()
    test_quick_runs()
    print("selftest passed")
