"""Single-process fault attribution INSIDE the fragment-writer stage.

The round-5 stage-level audit (BASELINE.md) showed the reduce/write
stage adds ~0.50 faults/event on top of read+prep (~0.15). This tool
re-runs the _write body's substeps on real prepared batches in ONE
process with resource.getrusage minflt deltas around each substep, so
the residual fault volume is attributed to a specific allocation site
rather than guessed.

Usage: python tools/write_substep_audit.py [--rows 2000000]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def flt() -> int:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt + r.ru_majflt


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--rows", type=int, default=2_000_000)
    args = ap.parse_args()

    import bench
    from etl_ray import util
    from etl_ray.sources import wal as wal_mod
    from etl_ray.state import schema as schema_mod
    from etl_ray.state.merge import bucket_of, prepare_events, payload_schema
    from etl_ray.util import take_runs, sha256_hex_with_prefix, \
        lww_keep_indices

    wal_dir = bench._ensure_wal(bench.WAL_DIR)
    # read epoch-0 files directly (single process, no Ray) in 64k-row
    # batches; a replay task hands the writer packed blocks of Ray's
    # target block size instead (wal.read_blocks)
    files = sorted(
        os.path.join(r, n) for r, _, ns in os.walk(wal_dir) for n in ns
        if n.endswith(".parquet") and "epoch=0" in r + n)
    if not files:
        files = sorted(
            os.path.join(r, n) for r, _, ns in os.walk(wal_dir)
            for n in ns if n.endswith(".parquet"))
    prep = prepare_events(bench.CDC_PARTITIONS)
    batches: list[pa.Table] = []
    got = 0
    for f in files:
        t = pq.read_table(f)
        for b in t.to_batches(max_chunksize=65_536):
            batches.append(prep(pa.Table.from_batches([b])))
            got += len(b)
            if got >= args.rows:
                break
        if got >= args.rows:
            break
    n_events = sum(len(b) for b in batches)
    wal_schema = pq.read_schema(files[0])
    schema = payload_schema(wal_schema)
    schema_b64 = schema_mod.to_b64(schema)
    print(f"prepared {n_events} events in {len(batches)} batches; "
          f"chunks/batch={batches[0]['lsn'].num_chunks}")

    num_buckets = bench.CDC_PARTITIONS
    out_dir = "/tmp/etl_ray_substep_audit"
    import shutil
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    agg: dict[str, list[float]] = {}

    def step(name, f0, t0):
        f1, t1 = flt(), time.perf_counter()
        agg.setdefault(name, [0, 0.0])
        agg[name][0] += f1 - f0
        agg[name][1] += t1 - t0
        return f1, t1

    frag_i = 0
    for batch in batches:
        f0, t0 = flt(), time.perf_counter()
        lsn = batch["lsn"].to_numpy()
        epochs = batch["epoch"].to_numpy().astype(np.int64)
        kh = batch["_kh"].to_numpy()
        bucket = bucket_of(kh, bench.CDC_PARTITIONS, num_buckets)
        f0, t0 = step("np_cols", f0, t0)

        gi = np.arange(len(batch))
        keep_g, _ = lww_keep_indices(
            kh, lsn, take_runs(batch.select(
                [c for c in ("repo", "path") if c in batch.column_names]),
                gi), extra=epochs)
        f0, t0 = step("lww", f0, t0)

        keep = gi[keep_g]
        fin = keep[np.lexsort((lsn[keep], bucket[keep], epochs[keep]))]
        f0, t0 = step("lexsort", f0, t0)

        reduced = take_runs(batch, fin)
        f0, t0 = step("take_runs", f0, t0)

        sha, shp = sha256_hex_with_prefix(reduced["content"])
        f0, t0 = step("sha256", f0, t0)

        payload = schema_mod.conform(
            reduced.drop_columns([c for c in reduced.column_names
                                  if c not in schema.names]), schema)
        for c in ("lsn", "op"):
            payload = payload.append_column(c, reduced[c])
        payload = payload.append_column("content_sha256", sha)
        f0, t0 = step("conform", f0, t0)

        dmask = pc.equal(reduced["op"], "D") \
            .to_numpy(zero_copy_only=False).astype(bool)
        f0, t0 = step("dmask", f0, t0)

        # one write per batch (range-fragment packing writes ~1-4 files
        # per batch on the bench shape; model the dominant single write)
        path = os.path.join(out_dir, f"frag-{frag_i}.parquet")
        frag_i += 1
        pq.write_table(payload, path, compression="zstd",
                       compression_level=3, row_group_size=128 * 1024)
        f0, t0 = step("pq_write", f0, t0)

    total_f = sum(v[0] for v in agg.values())
    print(f"\n{'substep':<12} {'minflt':>12} {'f/ev':>8} {'GB':>8} "
          f"{'wall_s':>8}")
    for k, (f, w) in sorted(agg.items(), key=lambda kv: -kv[1][0]):
        print(f"{k:<12} {f:>12} {f/n_events:>8.3f} "
              f"{f*4096/1e9:>8.2f} {w:>8.2f}")
    print(f"{'TOTAL':<12} {total_f:>12} {total_f/n_events:>8.3f} "
          f"{total_f*4096/1e9:>8.2f}")
    shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
