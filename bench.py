#!/usr/bin/env python
"""Benchmark harness.

Default: run the headline KG pipeline + representative queries over
``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) at ``$RAY_GRAFT_CPUS``
(default 32) and print ONE JSON line.

``--scaling``: run the headline pipeline twice in fresh processes
(num_cpus=8 and num_cpus=32) on the same input and report both throughputs
plus scaling efficiency ``(T32/T8)/4`` (sandbox stand-in for N vs 4N nodes).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

BENCH_QUERIES = [
    "q1_pricing_summary",
    "q3_top_orders",
    "q4_order_priority",
    "q12_priority_by_returnflag",
    "orders_per_segment",
    "events_daily",
    "docs_token_stats",
    "docs_exact_dedup",
    "docs_minhash_pairs",
    "docs_simhash_pairs",
    "corpus_clean_winners",
    "knn_cosine",
    "knn_ivf",
    "q7_nation_volume",
    "q18_large_orders",
    "docs_fuzzy_dedup",
    "emb_kmeans",
    "q8_market_share",
    "docs_top_bigrams",
    "emb_label_centroids",
    "docs_bm25_topk",
    "events_type_quantiles",
    "parts_triangles",
    "docs_pack_sequences",
    "docs_weighted_sample",
    "emb_centroid_confusion",
    "q9_profit_by_nation_year",
    "q20_dominant_suppliers",
    "docs_url_dedup",
    "events_user_running_totals",
    "events_value_quantiles_sketch",
    "docs_dsir_weights",
    "docs_epoch_shuffle",
    "docs_heavy_words_sketch",
    "docs_new_shard_near_dedup",
    "docs_boilerplate_removal",
    "docs_gopher_filter",
    "kg_bgp_same_day",
    "kg_bgp_orders_by_nation",
    "kg_bgp_click_no_purchase",
    "kg_construct_order_nation",
    "kg_sparql_path_order_nations",
    "kg_khop_nation",
    "kg_shacl_violations",
    "kg_sameas_merge_orders",
    "docs_substring_dedup",
    "kg_triple_diff",
    "docs_unigram_token_stats",
    "kg_profile_events",
    "kg_update_relabel_clicks",
    "kg_rdfs_closure",
    "kg_owl_closure",
    "kg_sameas_pairs",
    "kg_graph_building_orders",
    "kg_void_properties",
    "kg_fingerprint_graphs",
]


def _calib_loop(_=None) -> int:
    x = 0
    for i in range(20_000_000):
        x += i
    return x


def _cpu_calibration() -> dict:
    """Fixed CPU workloads, timed: one single-core loop and the same loop
    on 8 processes at once. The sandbox host throttles single-core speed
    AND multi-core capacity independently (observed 0.9-2.7 s single-core,
    and parallel slowdowns with a fast single core, within one hour);
    recording both with every sample lets absolute numbers be compared
    across machine-days."""
    from concurrent.futures import ProcessPoolExecutor

    t0 = time.perf_counter()
    _calib_loop()
    single = time.perf_counter() - t0
    with ProcessPoolExecutor(max_workers=8) as ex:
        t0 = time.perf_counter()
        list(ex.map(_calib_loop, range(8)))
        par8 = time.perf_counter() - t0
    # the virtio disk is the biggest noise source (measured 53-250 MB/s
    # across windows; the pipeline writes ~200 MB at sf0.1)
    import tempfile

    probe = os.urandom(50 * 1024 * 1024)
    fd, path = tempfile.mkstemp(prefix="graft_disk_probe_", dir="/tmp")
    try:
        t0 = time.perf_counter()
        with os.fdopen(fd, "wb") as f:
            f.write(probe)
            f.flush()
            os.fsync(f.fileno())
        disk = time.perf_counter() - t0
    finally:
        try:
            os.remove(path)
        except OSError:
            pass
    return {"single_sec": round(single, 3), "par8_sec": round(par8, 3),
            "disk_mb_s": round(50 / disk, 1)}


def _consume(result) -> int:
    """Force full execution; return row count."""
    if hasattr(result, "count"):
        return result.count()
    return len(result)


def _quiet_ray_data_logs():
    """Silence Ray's internal 'Failed to hash the schemas (for
    deduplication): unhashable type: dict' WARNING — a known Ray-internal
    metrics nuisance fired when block schemas carry dict metadata in
    ray.data._internal.arrow_ops.transform_pyarrow:181 (it falls back to
    full schema unification; nothing is wrong). A worker_process_setup_hook
    does NOT reach Ray Data's internal HashShuffleAggregator actors
    (verified empirically: 8 warnings with the hook, 0 with this), so
    instead write Ray Data's own logging config — its DEFAULT_CONFIG plus
    the one sub-logger pinned to ERROR — and point RAY_DATA_LOGGING_CONFIG
    at it BEFORE ray.init; every process that imports ray.data (drivers,
    workers, shuffle aggregators) applies it in configure_logging()."""
    import copy
    import logging

    try:
        import yaml
        from ray.data._internal.logging import DEFAULT_CONFIG

        cfg = copy.deepcopy(DEFAULT_CONFIG)
        # second nuisance: 'Operator produced a RefBundle with a different
        # schema ... new schema: []' (streaming_executor_state.py) — fired
        # when a reduce partition is legitimately empty (schema-less
        # block); results are unaffected
        for noisy in (
            "ray.data._internal.arrow_ops.transform_pyarrow",
            "ray.data._internal.execution.streaming_executor_state",
        ):
            cfg["loggers"][noisy] = {
                "level": "ERROR", "handlers": ["file", "console"],
                "propagate": False,
            }
        path = "/tmp/graft_ray_data_logging.yaml"
        with open(path, "w") as f:
            yaml.safe_dump(cfg, f)
        os.environ["RAY_DATA_LOGGING_CONFIG"] = path
    except Exception:
        pass  # fall through to driver-only silencing
    for noisy in (
        "ray.data._internal.arrow_ops.transform_pyarrow",
        "ray.data._internal.execution.streaming_executor_state",
    ):
        logging.getLogger(noisy).setLevel(logging.ERROR)


def run_workload(num_cpus: int) -> dict:
    _quiet_ray_data_logs()  # must precede ray.init: env var inherited by workers
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from cmc_knowledge_graph_text2ttl_ray.sources.pages import pages_dataset
    from cmc_knowledge_graph_text2ttl_ray.pipelines.kg import run_kg_pipeline
    import __ray_entry__
    import pyarrow.parquet as pq

    out_dir = f"/tmp/graft_bench_out_{num_cpus}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # Headline: full KG construction (extract → triples → canonicalize →
    # dedup → TTL shards), streaming end-to-end, over the deterministic
    # synthetic page corpus scaled to the sf dir (10 pages per document row;
    # the scaling run uses 80× so compute dominates fixed startup costs and
    # the N vs 4N comparison measures the pipeline, not Ray spin-up).
    mult = int(os.environ.get("GRAFT_PAGES_PER_DOC", "10"))
    n_pages = mult * pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    # benchmarking hygiene: fork the Ray worker pool and exercise the
    # partitioned-parquet write path on a trivial dataset so the measured
    # run isn't charged one-time process spin-up / lazy code loading
    # (measured ~3 s on the first partitioned write of a session, ~0.5 s
    # after), then flush pending page-cache writeback from previous runs
    warm_dir = "/tmp/graft_bench_warmup"
    shutil.rmtree(warm_dir, ignore_errors=True)
    ray.data.range(10_000).map_batches(
        lambda b: {"id": b["id"], "k": b["id"] % 2}
    ).write_parquet(warm_dir, partition_cols=["k"])
    shutil.rmtree(warm_dir, ignore_errors=True)
    os.sync()
    cpu_calib = _cpu_calibration()
    t0 = time.perf_counter()
    pages = pages_dataset(n_pages, override_num_blocks=max(64, num_cpus * 4))
    # gzip'd shards: the sink is storage-bandwidth-bound (TTL compresses
    # 8-10×), and this sandbox throttles sustained disk I/O to single-digit
    # MB/s under load — compression is what a 100-TB deployment does anyway
    result = run_kg_pipeline(pages, out_dir=out_dir, resume=False,
                             checkpoint_records=not os.environ.get("GRAFT_SKIP_QUERIES"),
                             ttl_compression="gzip")
    n_triples = sum(b["n_triples"] for b in result["manifest"]["buckets"].values())
    kg_wall = time.perf_counter() - t0

    queries = {}
    if not os.environ.get("GRAFT_SKIP_QUERIES"):
        q = __ray_entry__.queries()
        for name in BENCH_QUERIES:
            t0 = time.perf_counter()
            _consume(q[name](SF_DIR))
            queries[name] = round(time.perf_counter() - t0, 3)

    ray.shutdown()
    shutil.rmtree(out_dir, ignore_errors=True)  # keep /tmp page cache clean
    return {
        "metric": "kg_pipeline_wall_sec",
        "value": round(kg_wall, 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": num_cpus,
        # the host's real core count: `nproc` follows OMP_NUM_THREADS,
        # so it can print 1 on a multi-core host
        "host_cpus": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "n_pages": int(n_pages),
        "n_triples": int(n_triples),
        "pages_per_sec": round(n_pages / kg_wall, 1),
        "triples_per_sec": round(n_triples / kg_wall, 1),
        "cpu_calib": cpu_calib,
        "phases": {k: round(v, 2) for k, v in result["timings"].items()},
    }


def run_scaling() -> dict:
    # 4 vs 16 pinned cores: both ends fit the box with headroom, so the
    # comparison measures pipeline scaling, not single-node memory-bandwidth
    # saturation at full core count (N and 4N per the scaling criterion).
    lo, hi = int(os.environ.get("GRAFT_SCALE_LO", "4")), int(os.environ.get("GRAFT_SCALE_HI", "16"))
    results = {}
    for n in (lo, hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(n),
                   GRAFT_PAGES_PER_DOC=os.environ.get("GRAFT_PAGES_PER_DOC", "160"),
                   GRAFT_SKIP_QUERIES="1")
        os.sync()       # flush page-cache writeback from any previous run
        time.sleep(8)   # let the previous child's raylet + writeback settle
        # Pin the child to n physical cores: ray.init(num_cpus=n) only caps
        # Ray task slots, not actual CPU use by worker-side pandas/pyarrow or
        # the driver — taskset makes the N vs 4N comparison honest (the
        # sandbox stand-in for N- vs 4N-node clusters).
        out = subprocess.run(
            ["taskset", "-c", f"0-{n - 1}", sys.executable, __file__, "--child"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        results[n] = json.loads(out.stdout.strip().splitlines()[-1])
    eff = (results[hi]["triples_per_sec"] / results[lo]["triples_per_sec"]) / (hi / lo)
    # The two children run minutes apart on a co-tenant box whose per-core
    # speed fluctuates (the single-core calib probe, measured immediately
    # before each run, has varied 0.6-1.2 s the same day). Normalizing by
    # the calib ratio removes that between-window skew: if the high child's
    # cores were 20% slower, its throughput is scaled back up 20%.
    calib_ratio = None
    try:
        calib_ratio = (results[hi]["cpu_calib"]["single_sec"]
                       / results[lo]["cpu_calib"]["single_sec"])
    except (KeyError, TypeError, ZeroDivisionError):
        pass
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "value_calib_normalized": (round(eff * calib_ratio, 3)
                                   if calib_ratio else None),
        "unit": "ratio",
        "sf": SF_DIR,
        "low": {"num_cpus": lo, "triples_per_sec": results[lo]["triples_per_sec"],
                "wall_sec": results[lo]["value"],
                "cpu_calib": results[lo].get("cpu_calib")},
        "high": {"num_cpus": hi, "triples_per_sec": results[hi]["triples_per_sec"],
                 "wall_sec": results[hi]["value"],
                 "cpu_calib": results[hi].get("cpu_calib")},
        "n_pages": results[hi]["n_pages"],
        "num_cpus": hi,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--child" in sys.argv:
        print(json.dumps(run_workload(NUM_CPUS)))
    else:
        print(json.dumps(run_workload(NUM_CPUS)))
