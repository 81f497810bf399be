"""Per-layer metrics from one traced pass, and the trace report.

A traced run measures one untraced pass, then one pass with spans on
(``tracing.Tracer``), then probes the layers the spans cannot see
from the driver (worker-side ingest stages, raw fragment reads, the
change feed). Every metric in ``PER_LAYER`` is reported on every
workload; a layer the workload does not exercise reports 0.

    python3 perfbench/layers.py perfbench/_work/results/<file>.json

prints the report of a saved traced run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from stats import median
from tracing import Tracer, stage_costs
from workloads import Queries

QUERY_NAMES = Queries.NAMES
SELF_LAYERS = ["bench", "cdc", "manifest", "lineage", "lake", "views",
               "query"]

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this
PER_LAYER = [
    ("wal.decode_us_per_event", "us", "lower"),
    ("wal.bytes_per_event", "bytes", "lower"),
    ("merge.prep_us_per_event", "us", "lower"),
    ("merge.write_us_per_event", "us", "lower"),
    ("merge.rows_out_per_event", "ratio", "lower"),
    ("merge.bytes_out_per_row", "bytes", "lower"),
    ("cdc.apply_window_s", "s", "lower"),
    ("cdc.orchestration_s_per_window", "s", "lower"),
    ("manifest.high_watermarks_s", "s", "lower"),
    ("manifest.live_file_counts_s", "s", "lower"),
    ("manifest.commit_epoch_s", "s", "lower"),
    ("manifest.visible_entry_files_s", "s", "lower"),
    ("manifest.reads_per_call", "count", "lower"),
    ("lineage.write_s", "s", "lower"),
    ("lake.compact_s", "s", "lower"),
    ("lake.compactions", "count", "lower"),
    ("lake.compact_bytes_rewritten", "bytes", "lower"),
    ("lake.scan_files", "count", "lower"),
    ("lake.scan_read_s", "s", "lower"),
    ("lake.rows_read_per_row_out", "ratio", "lower"),
    ("lake.lookup_files_read", "count", "lower"),
    ("lake.bytes_per_live_byte", "ratio", "lower"),
    ("views.feed_s", "s", "lower"),
    ("views.feed_rows", "count", "lower"),
    *[(f"query.{n}_s", "s", "lower") for n in QUERY_NAMES],
    *[(f"{layer}.self_s", "s", "lower") for layer in SELF_LAYERS],
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
]
UNITS = {n: u for n, u, _ in PER_LAYER}


def traced_pass(wl, ctx, run_dir: str, untraced: list):
    """One pass with spans on; returns (metrics, spans, pass ops)."""
    tracer = Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        ops = wl.run_pass(ctx, os.path.join(run_dir, "pass"))
    finally:
        tracer.uninstall()
        ctx.tracer = None
    probes = _probes(wl, run_dir)
    base = median([sum(op.wall_s for op in p) for p in untraced])
    traced_work = sum(op.wall_s for op in ops)
    m = _metrics(tracer, probes)
    m["trace.overhead_frac"] = traced_work / base - 1
    return ({k: (m[k], UNITS[k]) for k in UNITS}, tracer.spans, ops)


def _probes(wl, run_dir: str) -> dict:
    """Driver-side measurements of work the spans cannot see."""
    from etl_ray.state import manifest as mf

    out: dict = {}
    scratch = os.path.join(run_dir, "probe")
    shutil.rmtree(scratch, ignore_errors=True)
    if wl.name in ("bulk_ingest", "tail_ingest"):
        lake_dir = wl.last_lake
        P = mf.last_manifest(lake_dir)["num_partitions"]
        # a prefix of the tail's epochs is enough for per-event costs
        epochs = list(range(min(wl.epochs, 16)))
        out["stage"] = stage_costs(wl.wal, epochs, P, scratch)
        out["compact_bytes"] = sum(
            os.path.getsize(os.path.join(d, n))
            for d, _, ns in os.walk(os.path.join(lake_dir, mf.DATA_DIR))
            for n in ns if n.startswith("base-"))
    if wl.name == "lake_reads":
        import pyarrow.parquet as pq
        import ray

        from etl_ray.state import lake

        files = mf.committed_files(wl.lake)
        t0 = time.perf_counter()
        rows = sum(pq.read_table(f).num_rows for f in files)
        out["scan_read_s"] = time.perf_counter() - t0
        out["scan_files"] = len(files)
        out["rows_read_per_row_out"] = rows / max(1, wl.scan_rows)
        out["bytes_per_live_byte"] = (sum(os.path.getsize(f) for f in files)
                                      / max(1, wl.scan_bytes))
        last = mf.last_wal_epoch(wl.lake)
        t0 = time.perf_counter()
        feed = ray.get(lake.changes_between(
            wl.lake, wl.view_from, last).to_arrow_refs())
        out["feed_s"] = time.perf_counter() - t0
        out["feed_rows"] = sum(t.num_rows for t in feed)
    shutil.rmtree(scratch, ignore_errors=True)
    return out


def _metrics(tr: Tracer, probes: dict) -> dict:
    m = {n: 0.0 for n in UNITS}
    st = probes.get("stage")
    if st:
        for k in ("decode_us_per_event", "bytes_per_event"):
            m[f"wal.{k}"] = st[k]
        for k in ("prep_us_per_event", "write_us_per_event",
                  "rows_out_per_event", "bytes_out_per_row"):
            m[f"merge.{k}"] = st[k]
    windows = [s for s in tr.spans if s["name"] == "cdc.apply_window"]
    if windows:
        m["cdc.apply_window_s"] = median(
            [s["end"] - s["start"] for s in windows])
        if st:
            m["cdc.orchestration_s_per_window"] = median(
                [s["end"] - s["start"]
                 - s.get("n_events", 0) * st["stage_us_per_event"] / 1e6
                 for s in windows])
    for f in ("high_watermarks", "live_file_counts", "commit_epoch",
              "visible_entry_files"):
        m[f"manifest.{f}_s"] = sum(tr.durations(f"manifest.{f}"))
    m["manifest.reads_per_call"] = tr.manifest_reads_per_call()
    m["lineage.write_s"] = sum(tr.durations("lineage.write_lineage"))
    m["lake.compact_s"] = sum(tr.durations("lake.compact"))
    m["lake.compactions"] = len(tr.durations("lake.compact"))
    m["lake.compact_bytes_rewritten"] = probes.get("compact_bytes", 0)
    for k in ("scan_files", "scan_read_s", "rows_read_per_row_out",
              "bytes_per_live_byte"):
        m[f"lake.{k}"] = probes.get(k, 0)
    lookups = [s for s in tr.spans if s["name"] == "lake.lookup"]
    if lookups:
        m["lake.lookup_files_read"] = (
            sum(s.get("parquet_reads", 0) for s in lookups) / len(lookups))
    m["views.feed_s"] = probes.get("feed_s", 0)
    m["views.feed_rows"] = probes.get("feed_rows", 0)
    for n in QUERY_NAMES:
        m[f"query.{n}_s"] = sum(tr.durations(f"query.{n}"))
    selfs = tr.self_times()
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["trace.spans"] = len(tr.spans)
    return m


def report(res: dict) -> None:
    """Print a traced run's layer self times and per-layer metrics."""
    pl = res["per_layer"]
    print(f"-- trace report: {res['workload']} seed={res['seed']}")
    print("   layer self time (driver-side spans; bench = Ray execution "
          "outside any wrapped engine function)")
    for layer in SELF_LAYERS:
        v, u = pl[f"{layer}.self_s"]
        print(f"     {layer:<10} {v:>12.4f} {u}")
    print("   per-layer metrics (0 = layer not exercised by this workload)")
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            continue
        v, u = pl[name]
        print(f"     {name:<34} {v:>14.6g} {u}")
    work = res["pass_work_s"]
    print(f"   tracing overhead: traced pass {work[-1]:.4f} s vs untraced "
          f"{work[0]:.4f} s ({pl['trace.overhead_frac'][0]:+.2%})")


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as f:
            report(json.load(f))
