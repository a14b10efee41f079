#!/usr/bin/env python3
"""Knowledge-graph benchmark: ``build``, ``republish`` and ``query``.

    python3 kgbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 kgbench/run.py --workload query --quick      # tiny corpus, all checks

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked. The last line on
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the spans to ``.kgbench_run/traces/``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_BASE = os.path.join(ROOT, ".kgbench_run")
RAY_TEMP = os.path.join(RUN_BASE, "ray")  # one run at a time per checkout

RAY_CPUS = 2             # fixed logical CPUs; at 1 the extractor pool stalls
OBJECT_STORE_BYTES = 512 * 1024 ** 2
# corpus pages per workload (multiples of 10); the query workload's cost
# is Ray's per-join fixed overhead, so its KG is built from fewer pages
PAGES = {"build": 1000, "republish": 1000, "query": 500}
QUICK_PAGES = 60
WARMUP_PAGES = 60
CORPUS_FILES = 4
SEED_WINDOWS = 100_000   # seed -> page-index window [seed % W * pages, ...)
SETUP_REPS = 3           # setup_s is the median of this many set-ups
OP_DEADLINE_S = 90.0
SETUP_DEADLINE_S = 60.0
LAST_ROUND_START_S = 140.0  # no round starts later than this after launch
WORK_LIMIT_S = 160.0        # every deadline ends by then; teardown follows

END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SHAPE_NAMES = ("star", "chain", "optional", "minus", "group", "path")
PER_LAYER = {
    "sources.pages_read_s": ("s", "lower"),
    "sources.ttl_read_s": ("s", "lower"),
    "extract.s": ("s", "lower"),
    "extract.pages_per_s": ("pages/s", "higher"),
    "interpreter.s": ("s", "lower"),
    "interpreter.pages_per_s": ("pages/s", "higher"),
    "interpreter.runs_per_page": ("ratio", "lower"),
    "interpreter.triples_emitted": ("count", "lower"),
    "kg.extract_phase_s": ("s", "lower"),
    "kg.metrics_s": ("s", "lower"),
    "kg.checkpoint_bytes": ("bytes", "lower"),
    "kg.unaccounted_s": ("s", "lower"),
    "canonicalize.s": ("s", "lower"),
    "canonicalize.entities": ("count", "lower"),
    "canonicalize.variants_rewritten": ("count", "lower"),
    "sinks.s": ("s", "lower"),
    "sinks.triples_in": ("count", "lower"),
    "sinks.triples_out": ("count", "lower"),
    "sinks.dedup_ratio": ("ratio", "higher"),
    "sinks.bucket_skew": ("ratio", "lower"),
    "sinks.bytes": ("bytes", "lower"),
    "turtle.serialize_triples_per_s": ("triples/s", "higher"),
    "turtle.parse_triples_per_s": ("triples/s", "higher"),
    "cluster.coarse_group_reduce_rows_per_s": ("rows/s", "higher"),
    **{f"sparql.{s}.{k}": u for s in SHAPE_NAMES for k, u in (
        ("plan_s", ("s", "lower")), ("exec_s", ("s", "lower")),
        ("rows", ("count", "higher")), ("joins", ("count", "lower")))},
    "ray.init_s": ("s", "lower"),
    "rss.driver_peak_mb": ("MB", "lower"),
    "rss.worker_peak_mb": ("MB", "lower"),
    "trace.span_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.datasets": ("count", "lower"),
}


class OpTimeout(Exception):
    pass


def run_with_deadline(fn, deadline_s: float):
    """Run ``fn`` in a daemon thread; raise :class:`OpTimeout` when it has
    not returned within ``deadline_s`` (teardown then ends the run)."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed to the caller below
            box["error"] = exc

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(deadline_s)
    if th.is_alive():
        raise OpTimeout(f"operation still running after {deadline_s:.0f} s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def du(path: str) -> int:
    total = 0
    for base, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def write_corpus(path: str, seed: int, n_pages: int) -> str:
    """Seeded page corpus as Parquet: the seed picks the page-index window
    given to the program's deterministic generator. Windows are multiples
    of 10 pages, so every seed has the same template mix."""
    import numpy as np
    import pyarrow.parquet as pq

    from cmc_knowledge_graph_text2ttl_ray.sources.pages import (
        synthesize_pages_table,
    )

    start = (seed % SEED_WINDOWS) * n_pages
    os.makedirs(path)
    per = -(-n_pages // CORPUS_FILES)
    for f in range(CORPUS_FILES):
        lo, hi = start + f * per, min(start + n_pages, start + (f + 1) * per)
        if lo < hi:
            pq.write_table(synthesize_pages_table(np.arange(lo, hi)),
                           os.path.join(path, f"pages-{f:02d}.parquet"))
    return path


def ray_init_kwargs() -> dict:
    """``ray.init`` arguments of every benchmark process."""
    kwargs = dict(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                  object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
                  logging_level="ERROR")
    # Ray's socket paths (<temp>/session_<date>_<pid>/sockets/...) must fit
    # AF_UNIX's 107 bytes; a longer checkout path leaves Ray's session
    # files in its default temp dir
    if len(RAY_TEMP) + 64 <= 107:
        kwargs["_temp_dir"] = RAY_TEMP
    return kwargs


def count_rows(groups) -> "pd.DataFrame":
    """``coarse_group_reduce`` combine for the cluster probe."""
    return groups.groupby("predicate", as_index=False).size()


class Probe:
    """The oracle (kgbench/oracle.py) in a child process, spoken to with
    pickled messages over its stdin and stdout."""

    def __init__(self, tracker):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "kgbench.oracle"], cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        tracker.excluded.add(self.proc.pid)

    def call(self, method: str, *args, timeout: float = 120.0):
        pickle.dump((method, args), self.proc.stdin)
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"check process: {method} took over {timeout:.0f} s")
        status, value = pickle.load(self.proc.stdout)
        if status != "ok":
            raise RuntimeError(f"check process: {method} failed\n{value}")
        return value

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(5)
        self.proc.stdout.close()


class Bench:
    """One run: set-up, the measured rounds and the traced layer pass."""

    def __init__(self, args, run_dir, tracer, probe):
        self.args = args
        self.workload = args.workload
        self.run_dir = run_dir
        self.tracer = tracer
        self.probe = probe
        self.kg_calls: list[dict] = []
        self.problems: list[str] = []
        self.corpus = self.out = self.kg = None
        self.records_listing = None
        self.query_layers: dict[str, list[dict]] = {s: [] for s in SHAPE_NAMES}

    # -- program calls -----------------------------------------------------

    def pipeline(self, corpus: str, out_dir: str, resume: bool, tag: str) -> float:
        """One ``run_kg_pipeline`` call over the corpus, read as the CLI's
        ``run --pages DIR`` reads it. Returns its wall time."""
        import ray.data

        from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline

        tr = self.tracer
        with tr.span("kg.run_kg_pipeline"):
            t0 = time.time()
            res = run_kg_pipeline(ray.data.read_parquet(corpus), out_dir=out_dir,
                                  resume=resume)
            t1 = time.time()
        if tr.enabled and tag != "warmup":
            parent = tr.last_span_id("kg.run_kg_pipeline")
            start = t0  # the program reports durations; lay them end to end
            for key, name in (("extract", "kg.extract"), ("canonicalize",
                              "canonicalize"), ("ttl_write", "sinks"),
                              ("metrics", "kg.metrics")):
                dur = res["timings"].get(key, 0.0)
                tr.add_span(name, start, start + dur, parent)
                start += dur
            self.kg_calls.append({"tag": tag, "wall": t1 - t0,
                                  "layers": self._kg_layers(res, t1 - t0, out_dir)})
        return t1 - t0

    @staticmethod
    def _kg_layers(res, wall: float, out_dir: str) -> dict:
        import glob

        import pyarrow.parquet as pq

        tm = res["timings"]
        counts = [b["n_triples"] for b in res["manifest"]["buckets"].values()]
        n_in = sum(pq.read_metadata(f).num_rows for f in glob.glob(
            os.path.join(out_dir, "records", "rec=triple", "*.parquet")))
        mapping = res["entity_mapping"]
        n_out = sum(counts)
        return {
            "kg.extract_phase_s": tm["extract"],
            "kg.metrics_s": tm["metrics"],
            "kg.checkpoint_bytes": du(os.path.join(out_dir, "records")),
            "kg.unaccounted_s": wall - sum(tm.values()),
            "trace.span_share": sum(tm.values()) / wall,
            "canonicalize.s": tm["canonicalize"],
            "canonicalize.entities": len(mapping),
            "canonicalize.variants_rewritten": int(
                (mapping["iri"] != mapping["canonical"]).sum()),
            "sinks.s": tm["ttl_write"],
            "sinks.triples_in": n_in,
            "sinks.triples_out": n_out,
            "sinks.dedup_ratio": n_out / max(1, n_in),
            "sinks.bucket_skew": max(counts) / (n_out / len(counts)),
            "sinks.bytes": du(os.path.join(out_dir, "ttl")),
        }

    def sparql(self, shape: str) -> tuple[float, list[tuple]]:
        """One query run to completion; returns (wall, result rows)."""
        from cmc_knowledge_graph_text2ttl_ray.pipelines.sparql_dist import (
            sparql_query,
        )
        from kgbench.queries import sparql
        from kgbench.spans import all_to_all_ops

        tr = self.tracer
        with tr.span(f"sparql.{shape}"):
            t0 = time.time()
            with tr.span("sparql.plan"):
                ds = sparql_query(self.kg, sparql(shape))
            t1 = time.time()
            with tr.span("sparql.exec"):
                done = ds.materialize()
            t2 = time.time()
        rows = list(done.to_pandas().itertuples(index=False, name=None))
        if tr.enabled:
            joins = sum(all_to_all_ops(d["operators"])
                        for d in tr.datasets_between(t0, t2))
            self.query_layers[shape].append({
                f"sparql.{shape}.plan_s": t1 - t0, f"sparql.{shape}.exec_s": t2 - t1,
                f"sparql.{shape}.rows": len(rows), f"sparql.{shape}.joins": joins})
        return t2 - t0, rows

    def read_kg(self, ttl_dir: str):
        from cmc_knowledge_graph_text2ttl_ray.sources.ttl import ttl_dataset

        with self.tracer.span("sources.ttl_read"):
            return ttl_dataset(ttl_dir).materialize()

    # -- set-up ------------------------------------------------------------

    def setup_once(self, rep: int, n_pages: int) -> None:
        d = self.run_dir
        self.corpus = write_corpus(os.path.join(d, f"corpus{rep}"), self.args.seed,
                                   n_pages)
        self.out = os.path.join(d, f"kg{rep}")
        if self.workload == "build":
            warm = write_corpus(os.path.join(d, f"warm{rep}"), self.args.seed,
                                WARMUP_PAGES)
            self.pipeline(warm, os.path.join(d, f"warmout{rep}"), False, "warmup")
        else:
            self.pipeline(self.corpus, self.out, False, "setup")
        if self.workload == "query":
            self.kg = None
            self.kg = self.read_kg(os.path.join(self.out, "ttl"))

    def after_setup(self) -> dict:
        """Expected outputs for this corpus, plus the set-up's own checks."""
        summary = self.probe.call("prepare", self.corpus,
                                  self.workload == "query" or self.tracer.enabled)
        if self.workload == "republish":
            self.problems += self.probe.call(
                "set_reference", os.path.join(self.out, "ttl"))
            self.records_listing = self._listing(os.path.join(self.out, "records"))
        if self.workload == "query":
            rows = list(self.kg.to_pandas().itertuples(index=False, name=None))
            self.problems += self.probe.call("check_kg", rows)
        return summary

    @staticmethod
    def _listing(path: str) -> list:
        return sorted((os.path.relpath(os.path.join(b, f), path),
                       os.stat(os.path.join(b, f)).st_mtime_ns)
                      for b, _d, fs in os.walk(path) for f in fs)

    # -- operations --------------------------------------------------------

    def round_ops(self):
        """The operations of one round, each returning (wall, problems)."""
        if self.workload == "build":
            return [self.op_build]
        if self.workload == "republish":
            return [self.op_republish]
        return [lambda s=s: self.op_query(s) for s in SHAPE_NAMES]

    def op_build(self):
        shutil.rmtree(self.out, ignore_errors=True)
        wall = self.pipeline(self.corpus, self.out, False, "op")
        return wall, self.probe.call("check_build", os.path.join(self.out, "ttl"))

    def op_republish(self):
        shutil.rmtree(os.path.join(self.out, "ttl"))
        wall = self.pipeline(self.corpus, self.out, True, "op")
        problems = self.probe.call("check_republish", os.path.join(self.out, "ttl"))
        if self._listing(os.path.join(self.out, "records")) != self.records_listing:
            problems.append("the records checkpoint was rewritten instead of resumed")
        return wall, problems

    def op_query(self, shape: str):
        wall, rows = self.sparql(shape)
        return wall, self.probe.call("check_query", shape, rows)

    # -- traced layer pass -------------------------------------------------

    def layer_pass(self) -> dict:
        """Per-layer timings that the workload's operations do not give
        directly: reads, the coarse shuffle, the SPARQL shapes (when the
        workload has no query ops), and the in-process kernels."""
        import ray.data

        from cmc_knowledge_graph_text2ttl_ray.functions.cluster import (
            coarse_group_reduce,
        )

        tr = self.tracer
        tr.op = "layers"
        ttl_dir = os.path.join(self.out, "ttl")
        out = {}
        with tr.span("sources.pages_read"):
            t0 = time.time()
            ray.data.read_parquet(self.corpus).materialize()
            out["sources.pages_read_s"] = time.time() - t0
        t0 = time.time()
        kg = self.read_kg(ttl_dir)
        out["sources.ttl_read_s"] = time.time() - t0
        n = kg.count()
        with tr.span("cluster.coarse_group_reduce"):
            t0 = time.time()
            coarse_group_reduce(kg.select_columns(["predicate"]), ["predicate"],
                                count_rows).materialize()
            out["cluster.coarse_group_reduce_rows_per_s"] = n / (time.time() - t0)
        if self.workload != "query":
            self.kg = kg
            for shape in SHAPE_NAMES:
                _wall, rows = self.sparql(shape)
                self.problems += self.probe.call("check_query", shape, rows)
        probe = self.probe.call("layer_probe", self.corpus, ttl_dir)
        for sp in probe.pop("spans"):
            tr.add_span("probe." + sp["name"], sp["start"], sp["end"])
        out.update(probe)
        return out


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("build", "republish", "query"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"{QUICK_PAGES}-page corpus, one set-up, one round")
    ap.add_argument("--op-deadline", type=float, default=OP_DEADLINE_S)
    args = ap.parse_args(argv)
    launched = time.monotonic()

    # an operation abandoned at its deadline must not start a second Ray
    # cluster from its thread once teardown has shut the first one down
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    try:
        import cmc_knowledge_graph_text2ttl_ray  # noqa: F401
    except ImportError as exc:
        print(f"kgbench: cannot import the engine from {ROOT}: {exc}", file=sys.stderr)
        return 2
    from kgbench.procs import ProcessTracker
    from kgbench.spans import Tracer

    n_pages = QUICK_PAGES if args.quick else PAGES[args.workload]
    reps = 1 if args.quick else SETUP_REPS
    run_dir = os.path.join(RUN_BASE, f"{args.workload}-s{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(RUN_BASE, "traces")
    os.makedirs(run_dir)
    os.makedirs(trace_dir, exist_ok=True)

    tracker = ProcessTracker()
    tracker.start()
    tracer = Tracer(enabled=bool(args.trace))
    probe = Probe(tracker)
    bench = Bench(args, run_dir, tracer, probe)
    attempted = failed = 0
    result = None
    ray_started = False
    timed_out = False  # a thread still runs an abandoned call into Ray
    try:
        import ray

        tracer.op = "setup"
        with tracer.span("ray.init"):
            t0 = time.time()
            ray.init(**ray_init_kwargs())
            ray_started = True
            init_s = time.time() - t0
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        tracer.capture_dataset_stats(True)
        t0 = time.time()
        # workers that cannot import the engine make the actor pool retry its
        # constructor forever; find that out in seconds instead
        ray.get(ray.remote(_engine_importable).remote(), timeout=60)
        start_s = init_s + time.time() - t0

        setup_times = []
        for rep in range(reps):
            t0 = time.time()
            run_with_deadline(lambda: bench.setup_once(rep, n_pages),
                              min(SETUP_DEADLINE_S, WORK_LIMIT_S - (time.monotonic() - launched)))
            setup_times.append(time.time() - t0)
        summary = bench.after_setup()
        print(f"kgbench: {args.workload} seed={args.seed} corpus={json.dumps(summary)}",
              file=sys.stderr)

        rounds: list[tuple[bool, float]] = []
        op_walls: list[float] = []
        measured = 0.0
        while not timed_out:
            # traced runs alternate untraced and traced rounds: the gap
            # between the two is the tracing overhead
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if rounds and len({t for t, _ in rounds}) == 1 + args.trace:
                if args.quick or measured >= args.seconds:
                    break
                if time.monotonic() - launched + rounds[-1][1] > LAST_ROUND_START_S:
                    break
            tracer.enabled = traced
            tracer.op = f"round{len(rounds)}"
            tracer.capture_dataset_stats(traced)
            round_wall = 0.0
            for op in bench.round_ops():
                attempted += 1
                try:
                    left = WORK_LIMIT_S - (time.monotonic() - launched)
                    wall, problems = run_with_deadline(op, min(args.op_deadline, left))
                except OpTimeout as exc:
                    failed += 1
                    timed_out = True
                    print(f"kgbench: {exc}", file=sys.stderr)
                    break
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                if problems:
                    failed += 1
                    print("kgbench: wrong result: " + "; ".join(problems), file=sys.stderr)
                    continue
                round_wall += wall
                if not traced:
                    op_walls.append(wall)
            if not timed_out:
                measured += round_wall
                rounds.append((traced, round_wall))

        print(f"kgbench: round walls {[round(w, 3) for _t, w in rounds]}", file=sys.stderr)
        tracker.sample()
        driver_mb, worker_mb = tracker.peak_mb()
        untraced_rounds = [w for t, w in rounds if not t]
        if not args.trace:
            metrics = {
                "setup_s": start_s + median(setup_times),
                "op_p50_s": median(op_walls),
                "round_s": median(untraced_rounds),
                "peak_rss_mb": max(driver_mb, worker_mb),
            }
            units = END_TO_END
        elif timed_out:
            metrics, units = {}, PER_LAYER
        else:
            tracer.enabled = True
            tracer.capture_dataset_stats(True)
            layers = bench.layer_pass()
            op_calls = [c for c in bench.kg_calls if c["tag"] == "op"]
            kg_calls = op_calls or [c for c in bench.kg_calls if c["tag"] == "setup"]
            for name in kg_calls[0]["layers"]:
                layers[name] = median([c["layers"][name] for c in kg_calls])
            for shape_rows in bench.query_layers.values():
                for name in shape_rows[0]:
                    layers[name] = median([r[name] for r in shape_rows])
            traced_rounds = [w for t, w in rounds if t]
            layers.update({
                "ray.init_s": init_s,
                "rss.driver_peak_mb": driver_mb,
                "rss.worker_peak_mb": worker_mb,
                "trace.overhead_share": median(traced_rounds) / median(untraced_rounds) - 1,
                "trace.datasets": len(tracer.datasets),
            })
            metrics, units = layers, PER_LAYER
            path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-{os.getpid()}.json")
            tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                "ray_cpus": RAY_CPUS, "corpus": summary,
                                "rounds": rounds, "per_layer": layers})
            print(f"kgbench: trace written to {path}", file=sys.stderr)
        correct = not bench.problems
        if bench.problems:
            print("kgbench: wrong result outside the operations: " + "; ".join(bench.problems),
                  file=sys.stderr)
        if not timed_out:
            missing = set(units) - set(metrics)
            if missing:
                raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": float(v), "unit": units[k][0]}
                              for k, v in metrics.items() if math.isfinite(v)}}
    except OpTimeout as exc:
        timed_out = True
        print(f"kgbench: set-up: {exc}", file=sys.stderr)
    except Exception:
        traceback.print_exc()
    finally:
        if ray_started:
            tracer.capture_dataset_stats(False)
        probe.stop()
        if timed_out and result is not None:
            # print first: the process ends with os._exit below
            print(json.dumps(result), flush=True)
        if ray_started and not timed_out:
            th = threading.Thread(target=_shutdown_ray, daemon=True)
            th.start()
            th.join(30)
        # After a missed deadline ray.shutdown() is not called: the abandoned
        # thread would touch the shut-down core worker, which ends the
        # process with status 1. The run's processes are killed instead.
        tracker.stop()
        killed, survivors = tracker.wait_all_gone(grace_s=0 if timed_out else 20)
        if killed and not timed_out:
            print(f"kgbench: killed processes that outlived teardown: {killed}",
                  file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(RAY_TEMP, ignore_errors=True)
    if survivors:
        print(f"kgbench: processes still alive after the run: {survivors}",
              file=sys.stderr)
        return 1
    if result is None:
        return 1
    if timed_out:
        sys.stderr.flush()
        os._exit(0)
    print(json.dumps(result))
    return 0


def _engine_importable() -> bool:
    import cmc_knowledge_graph_text2ttl_ray  # noqa: F401

    return True


def _shutdown_ray() -> None:
    import ray

    ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
