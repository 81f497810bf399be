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
  (``merge.bucket_of``), so each bucket task runs the lake's shared
  merge-on-read kernel (``lake._resolve_bucket``, the one every lake
  read uses) over only its bucket's visible files — no full-lake read
  per task, no shuffle at all.

Row-set equality with ``read_lake()`` is pinned by tests, including a
hot-key lake.
"""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq

from etl_ray.state import manifest as mf
from etl_ray.state.lake import _resolve_bucket
from etl_ray.state.merge import _atomic_write
from etl_ray.util import run_tasks


def export_snapshot(lake_dir: str, out_dir: str,
                    as_of_epoch: int | None = None) -> dict:
    """Export the converged (or time-travelled) lake state to
    ``out_dir/bucket=K/part-e<epoch>.parquet``; returns a summary.
    Re-running after a crash skips finished buckets (see module doc)."""
    snap = mf.snapshot(lake_dir, as_of_epoch)
    if snap.last is None:
        raise FileNotFoundError(f"no committed manifest in {lake_dir}")
    # the per-bucket row filter recomputes the key hash; a lake
    # persisted under another hash version would export stale or
    # missing rows with no error — fence at read time (ADVICE r3)
    snap.check_key_hash()
    epoch = snap.wal_epoch if as_of_epoch is None else as_of_epoch
    P, B, schema = snap.num_partitions, snap.num_buckets, snap.schema
    vis = snap.visible_files()

    def _export_bucket(bucket: int, files: list[str]) -> dict:
        """Resolve one bucket with the shared kernel and write one
        Parquet file (atomic, skip-if-exists)."""
        out_path = os.path.join(out_dir, f"bucket={bucket}",
                                f"part-e{epoch}.parquet")
        if os.path.exists(out_path):
            return {"n_rows": pq.read_metadata(out_path).num_rows,
                    "skipped": True}
        table = _resolve_bucket(files, bucket, P, B, schema)
        os.makedirs(os.path.dirname(out_path), exist_ok=True)
        _atomic_write(table, out_path)  # the lake's one write policy
        return {"n_rows": len(table), "skipped": False}

    results = run_tasks(_export_bucket,
                        [(k, fs) for k, fs in sorted(vis.items()) if fs])
    summary = {"lake": lake_dir, "out_dir": out_dir, "epoch": int(epoch),
               "n_buckets": len(results),
               "n_rows": int(sum(r["n_rows"] for r in results)),
               "n_skipped": int(sum(r["skipped"] for r in results))}
    tmp = os.path.join(out_dir, f"._SUCCESS.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(summary, f)
    os.replace(tmp, os.path.join(out_dir, "_SUCCESS"))
    return summary
