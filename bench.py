"""Benchmark CLI (SURVEY.md §3.3, §6).

Default mode: replays the CDC WAL (the headline ``cdc_replay`` row) and
runs the ``BENCH_QUERIES`` over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) in one local Ray session with
``num_cpus=$RAY_GRAFT_CPUS`` (default 32). Every row is best-of-2 with
both walls recorded. Prints ONE JSON line:

    {"metric": "bench_total_sec", "value": N, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "host_cpus": N,
     "warmup": false, "arrow_pool": "...", "cdc_events_per_s": N,
     "ledger_us": {stage: µs/event of the best replay's ledger}, ...}

``--scaling``: replays the same WAL in a fresh child process per
parallelism level of ``SCALING_PAIRS``, interleaving the levels in
``SCALING_ROUNDS`` rounds, and reports each pair's scaling efficiency
from the per-level minimum wall (plus one ratio per round). Each child
runs an untimed warm-up replay first, so the timed replay measures
steady-state throughput. Scaling children write their lake under
``$RAY_GRAFT_SCALING_LAKE`` (default /dev/shm/etl_ray_bench).

``host_cpus`` (the affinity mask), ``warmup`` (whether the timed
replay followed an untimed one) and ``arrow_pool`` (the Arrow allocator
an engine task runs on, from one ``util.run_tasks`` probe) record the
protocol: walls compare only between records that agree on them.

Owns its Ray session (scripts do; library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# Fixed-size object store, identical at every parallelism level, so the
# scaling pairs compare compute parallelism rather than whatever
# fraction of free memory Ray would size the store to (0 = Ray default).
OBJECT_STORE_BYTES = \
    int(os.environ.get("RAY_GRAFT_STORE_GB", "24")) * 1024**3

# WAL sizing for the CDC headline job (same input for both modes).
# Update-heavy churn, ~7.8 events/key ⇒ ~17M events: large enough that
# per-event work (audit/sha256/merge/encode) dominates per-window fixed
# overhead (task spin-up, commit barrier).
CDC_KEYS, CDC_REPOS, CDC_EPOCHS, CDC_PARTITIONS = 2_200_000, 11_000, 4, 128
CDC_UPDATE_P = 0.85
# zstd-3 WAL files (see the etl_ray/state/merge.py compression note).
WAL_DIR = f"/tmp/etl_ray_bench/wal4_k{CDC_KEYS}_e{CDC_EPOCHS}_p{CDC_UPDATE_P}"

SCALING_PAIRS = ((8, 32), (4, 16))  # N→4N pairs
SCALING_ROUNDS = 3
# Scaling children write their lake to tmpfs by default: the levels
# share one disk here, whereas each node of a real N→4N cluster brings
# its own (BASELINE.md round 4). Set RAY_GRAFT_SCALING_LAKE to a disk
# path for a disk-backed protocol; the record names the root used.
SCALING_LAKE_ROOT = os.environ.get(
    "RAY_GRAFT_SCALING_LAKE",
    "/dev/shm/etl_ray_bench" if os.path.isdir("/dev/shm")
    else "/tmp/etl_ray_bench")

BENCH_QUERIES = [
    "agg_group_q1",       # groupby shuffle over lineitem 600k
    "join_inner",         # distributed hash join orders×customer
    "join_star_region",   # join + broadcast dims + rollup
    "window_hourly",      # event-time window aggregate
    "count_distinct",     # two-stage distinct aggregate
    "dedup_exact",        # content-hash dedup
    "dedup_minhash",      # shingle→minhash→LSH→verify
    "token_histogram",    # explode + partial-agg shuffle
    "ann_topk",           # brute-force cosine top-k
    "hash_sha256",        # per-row invariant hash
    "q3_shipping_priority",  # 3-way join + rollup + top-k composite
    "sessionize",         # gap-based session windows
]


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        kw = ({"object_store_memory": OBJECT_STORE_BYTES}
              if OBJECT_STORE_BYTES else {})
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR", **kw)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False


def _warm_workers(num_cpus: int) -> None:
    """Untimed: spin up the session's worker pool and import the engine
    in each worker, so the first timed row measures the pipeline, not
    process spawn."""
    import ray

    def _warm(b):
        import etl_ray.state.merge  # noqa: F401
        import etl_ray.state.schema  # noqa: F401
        return b

    ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4) \
        .map_batches(_warm, batch_format="pyarrow").count()


def _preread(wal_dir: str) -> None:
    """Untimed: read every WAL file once so the replay starts from the
    page cache, not from whatever an earlier run left on disk."""
    for root, _, names in os.walk(wal_dir):
        for name in names:
            with open(os.path.join(root, name), "rb") as f:
                while f.read(1 << 24):
                    pass


def _protocol(warmup: bool) -> dict:
    from etl_ray.util import run_tasks

    def _task_pool() -> str:
        import pyarrow as pa

        return pa.default_memory_pool().backend_name

    return {"host_cpus": len(os.sched_getaffinity(0)), "warmup": warmup,
            "arrow_pool": run_tasks(_task_pool, [()])[0]}


def _consume(res) -> int:
    """Fully execute a query result; return its row count."""
    import pyarrow as pa

    if isinstance(res, pa.Table):
        return len(res)
    if hasattr(res, "count"):
        return res.count()
    return len(res)


def run_queries() -> dict:
    _init_ray(NUM_CPUS)
    from etl_ray.pipelines.cdc import replay
    from etl_ray.pipelines.queries import QUERIES
    from etl_ray.pipelines.scalarq import token_histogram

    _warm_workers(NUM_CPUS)
    bench_qs = dict(QUERIES)
    bench_qs["token_histogram"] = token_histogram  # bench-only (unregistered)

    # CDC replay headline FIRST, in the warm-but-clean session: run
    # after the queries it was billed their object-store churn and
    # writeback backlog (up to +30%).
    wal = _ensure_wal(WAL_DIR)
    lake = os.path.join(os.path.dirname(WAL_DIR), "lake")
    _preread(wal)
    runs = []
    for _ in range(2):
        shutil.rmtree(lake, ignore_errors=True)
        os.sync()  # the previous trial's writeback must not bill this one
        runs.append(replay(wal, lake, CDC_EPOCHS,
                           num_partitions=CDC_PARTITIONS))
    best = min(runs, key=lambda r: r["wall_s"])
    timings = {"cdc_replay": round(best["wall_s"], 3)}

    trials: dict[str, list[float]] = {}
    for name in BENCH_QUERIES:
        walls = []
        for _ in range(2):
            t0 = time.perf_counter()
            _consume(bench_qs[name](SF_DIR))
            walls.append(round(time.perf_counter() - t0, 3))
        trials[name] = walls
        timings[name] = min(walls)
    return {
        "metric": "bench_total_sec",
        "value": round(sum(timings.values()), 3),
        "unit": "sec",
        "queries": timings,
        "sf": _sf_from_dir(SF_DIR),
        "num_cpus": NUM_CPUS,
        **_protocol(warmup=False),
        "cdc_events_per_s": round(best["events_per_s"], 1),
        "cdc_n_events": best["n_events"],
        "cdc_trial_walls": [round(r["wall_s"], 3) for r in runs],
        "ledger_us": {k: round(v, 2)
                      for k, v in best["ledger"]["us_per_event"].items()},
        "query_trial_walls": trials,
    }


def _sf_from_dir(d: str):
    base = os.path.basename(d.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return base


def _ensure_wal(wal_dir: str) -> str:
    """Generate the bench WAL once; reuse across runs (deterministic)."""
    done = os.path.join(wal_dir, "_DONE")
    if os.path.exists(done):
        return wal_dir
    shutil.rmtree(wal_dir, ignore_errors=True)
    from etl_ray.sources.corpus import generate_corpus
    from etl_ray.sources.wal import generate_wal

    corpus = generate_corpus(CDC_KEYS, n_repos=CDC_REPOS)
    generate_wal(corpus, wal_dir, n_epochs=CDC_EPOCHS, n_repos=CDC_REPOS,
                 update_p=CDC_UPDATE_P)
    with open(done, "w") as f:
        f.write("ok")
    return wal_dir


def run_cdc_child(num_cpus: int) -> None:
    """Child-process entry: replay the shared WAL at one parallelism,
    after an untimed warm-up replay, and print the timed replay's
    record."""
    _init_ray(num_cpus)
    wal = _ensure_wal(WAL_DIR)
    lake = os.path.join(SCALING_LAKE_ROOT, f"lake_c{num_cpus}")
    shutil.rmtree(lake, ignore_errors=True)
    from etl_ray.pipelines.cdc import replay

    _warm_workers(num_cpus)
    _preread(wal)
    # A fresh child's first replay pays every worker's one-time heap
    # first-touch, a session constant that a long-running ingest
    # amortizes to zero; the warm-up replay takes it off the timed one.
    warm_lake = lake + "_warm"
    shutil.rmtree(warm_lake, ignore_errors=True)
    replay(wal, warm_lake, CDC_EPOCHS, num_partitions=CDC_PARTITIONS)
    shutil.rmtree(warm_lake, ignore_errors=True)

    s = replay(wal, lake, CDC_EPOCHS, num_partitions=CDC_PARTITIONS)
    shutil.rmtree(lake, ignore_errors=True)  # free tmpfs pages promptly
    print(json.dumps({"num_cpus": num_cpus, "n_events": s["n_events"],
                      "wall_s": round(s["wall_s"], 3),
                      "events_per_s": round(s["events_per_s"], 1),
                      "lake_root": SCALING_LAKE_ROOT,
                      **_protocol(warmup=True)}))


def run_scaling() -> dict:
    """Same job in a fresh Ray session per level; reports every pair's
    efficiency from the per-level minimum wall across rounds."""
    # generate the WAL once up front (in its own session, then shut down)
    _init_ray(NUM_CPUS)
    _ensure_wal(WAL_DIR)
    import ray

    ray.shutdown()

    def _child(n: int) -> dict:
        # settle the previous child's writeback so it does not bill this one
        os.sync()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cdc-child", str(n)],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        line = [l for l in out.stdout.splitlines() if l.startswith("{")][-1]
        return json.loads(line)

    levels = sorted({n for pair in SCALING_PAIRS for n in pair})
    # Interleaved rounds: each round runs the whole ladder within a few
    # minutes, so a slow stretch of the host lands on every level of
    # that round rather than on one level's trials.
    round_runs = [{n: _child(n) for n in levels}
                  for _ in range(SCALING_ROUNDS)]
    best = {n: min((rr[n] for rr in round_runs), key=lambda r: r["wall_s"])
            for n in levels}

    detail = {}
    for lo, hi in SCALING_PAIRS:
        t_lo, t_hi = best[lo]["events_per_s"], best[hi]["events_per_s"]
        detail[f"eff_{lo}_to_{hi}"] = round(
            (t_hi / t_lo) / (hi / lo) if t_lo > 0 else 0.0, 3)
        detail[f"round_effs_{lo}_to_{hi}"] = [
            round((rr[hi]["events_per_s"] / rr[lo]["events_per_s"])
                  / (hi / lo), 3)
            for rr in round_runs if rr[lo]["events_per_s"] > 0]
    for n in levels:
        detail[f"events_per_s@{n}"] = best[n]["events_per_s"]
        detail[f"wall_s@{n}"] = best[n]["wall_s"]
        detail[f"trial_walls@{n}"] = [rr[n]["wall_s"] for rr in round_runs]
    lo, hi = SCALING_PAIRS[0]
    return {
        "metric": "cdc_scaling_efficiency",
        "value": detail[f"eff_{lo}_to_{hi}"],
        "unit": "ratio",
        "queries": detail,
        "sf": _sf_from_dir(SF_DIR),
        "num_cpus": hi,
        "n_events": best[hi]["n_events"],
        **{k: best[hi][k]
           for k in ("lake_root", "host_cpus", "warmup", "arrow_pool")},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--cdc-child", type=int, default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    import ray

    if args.cdc_child is not None:
        run_cdc_child(args.cdc_child)
    elif args.scaling:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_queries()))
    if ray.is_initialized():
        ray.shutdown()


if __name__ == "__main__":
    main()
