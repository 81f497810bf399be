"""Resumable snapshot export: lake → partitioned Parquet directory.

The consumer-facing counterpart of the ingest sink: materialize the
lake's converged state (optionally time-travelled) as plain Parquet,
one file per natural key bucket under ``out_dir/bucket=K/``, so any
downstream engine can read it without this library. Two properties the
100-TB design brief demands:

* **Resumable**: output file names are deterministic
  (``part-e<epoch>.parquet``) and each bucket task SKIPS work when its
  file already exists — a crashed export re-run redoes only the
  missing buckets; the ``_SUCCESS`` marker (with row counts) is
  written last, only after every bucket landed.
* **Pruned**: every row of a key lives in its bucket
  (``merge.bucket_of``), so each bucket task reads only its bucket's
  visible files, keeps the rows routed to its bucket (a range fragment
  can serve several buckets), and resolves max-lsn per key — no
  full-lake read per task, no shuffle at all.

Row-set equality with ``read_lake()`` is pinned by tests, including a
hot-key lake.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.merge import KEY_COLS, bucket_of
from etl_ray.util import key_hash64, lww_keep_indices, take_runs


@ray.remote
def _export_bucket(files: list[str], out_path: str, schema_b64: str,
                   key: int, P: int, num_buckets: int) -> dict:
    """Read one bucket's files, keep the bucket's rows, resolve LWW,
    write one Parquet file (atomic, skip-if-exists)."""
    if os.path.exists(out_path):
        return {"key": key, "n_rows": pq.read_metadata(out_path).num_rows,
                "skipped": True}
    schema = schema_mod.from_b64(schema_b64)
    full = pa.schema(list(schema) + [pa.field("lsn", pa.int64()),
                                     pa.field("op", pa.string()),
                                     pa.field("content_sha256",
                                              pa.string())])
    parts = []
    for f in files:
        t = pq.read_table(f)
        t = schema_mod.conform(t, full)
        keep = bucket_of(key_hash64(t, KEY_COLS), P, num_buckets) == key
        if keep.any():
            parts.append(t.filter(pa.array(keep)))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    out_schema = pa.schema([f for f in full if f.name not in ("lsn", "op")])
    if not parts:
        table = out_schema.empty_table()
    else:
        t = pa.concat_tables(parts).combine_chunks()
        lsn = t["lsn"].to_numpy()
        kh = key_hash64(t, KEY_COLS)
        keep, mixed = lww_keep_indices(kh, lsn, t.select(KEY_COLS))
        if mixed:  # 64-bit hash collision between two distinct keys
            order = np.argsort(-lsn, kind="stable")
            df = t.select(KEY_COLS).to_pandas()
            keep_m = ~df.iloc[order].duplicated().to_numpy()
            keep = np.sort(order[keep_m])
        latest = take_runs(t, keep)
        live = latest.filter(pc.not_equal(latest["op"], "D"))
        table = live.drop_columns(["lsn", "op"])
    tmp = f"{out_path}.tmp.{os.getpid()}"
    # level 3: smaller + faster-decoding than the default (merge.py note)
    pq.write_table(table, tmp, compression="zstd", compression_level=3)
    os.replace(tmp, out_path)
    return {"key": key, "n_rows": len(table), "skipped": False}


def export_snapshot(lake_dir: str, out_dir: str,
                    as_of_epoch: int | None = None) -> dict:
    """Export the converged (or time-travelled) lake state to
    ``out_dir/bucket=K/part-e<epoch>.parquet``; returns a summary.
    Re-running after a crash skips finished buckets (see module doc)."""
    man = (mf.last_manifest(lake_dir) if as_of_epoch is None
           else mf.manifest_as_of(lake_dir, as_of_epoch))
    if man is None:
        raise FileNotFoundError(f"no committed manifest in {lake_dir}")
    # the per-bucket row filter recomputes the key hash; a lake
    # persisted under another hash version would export stale or
    # missing rows with no error — fence at read time (ADVICE r3)
    mf.check_key_hash(lake_dir)
    epoch = (mf.last_wal_epoch(lake_dir) if as_of_epoch is None
             else as_of_epoch)
    P, B = man["num_partitions"], man["num_buckets"]
    vis = mf.visible_entry_files(lake_dir, as_of_epoch=as_of_epoch)
    refs = []
    for k, files in sorted(vis.items()):
        if not files:
            continue
        out_path = os.path.join(out_dir, f"bucket={k}",
                                f"part-e{epoch}.parquet")
        refs.append(_export_bucket.remote(
            list(dict.fromkeys(files)), out_path, man["schema_b64"], k,
            P, B))
    results = ray.get(refs)
    summary = {"lake": lake_dir, "out_dir": out_dir, "epoch": int(epoch),
               "n_buckets": len(results),
               "n_rows": int(sum(r["n_rows"] for r in results)),
               "n_skipped": int(sum(r["skipped"] for r in results))}
    tmp = os.path.join(out_dir, f"._SUCCESS.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(summary, f)
    os.replace(tmp, os.path.join(out_dir, "_SUCCESS"))
    return summary
