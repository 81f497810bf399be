"""Resumable snapshot export: lake → partitioned Parquet directory.

The consumer-facing counterpart of the ingest sink: materialize the
lake's converged state (optionally time-travelled) as plain Parquet,
one file per natural key bucket under ``out_dir/bucket=K/``, so any
downstream engine can read it without this library. Two properties the
100-TB design brief demands:

* **Resumable**: output file names are deterministic
  (``part-e<epoch>.parquet``) and the driver LEAVES OUT every bucket
  whose file already exists, reading its row count from the file's
  footer — a crashed export re-run starts tasks for the missing
  buckets only; the ``_SUCCESS`` marker (with row counts) is written
  last, only after every bucket landed.
* **Pruned**: every row of a key lives in its bucket
  (``merge.bucket_of``), so each bucket is one task of the lake's
  bucket runner (``lake.bucket_tasks``, the one every lake read uses)
  over only its bucket's visible files — no full-lake read per task,
  no shuffle at all.

Row-set equality with ``read_lake()`` is pinned by tests, including a
hot-key lake.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from etl_ray.state import manifest as mf
from etl_ray.state.lake import bucket_tasks
from etl_ray.state.merge import _atomic_write


def export_snapshot(lake_dir: str, out_dir: str,
                    as_of_epoch: int | None = None) -> dict:
    """Export the converged (or time-travelled) lake state to
    ``out_dir/bucket=K/part-e<epoch>.parquet``; returns a summary.
    Re-running after a crash skips finished buckets (see module doc)."""
    snap = mf.snapshot(lake_dir, as_of_epoch)
    if snap.last is None:
        raise FileNotFoundError(f"no committed manifest in {lake_dir}")
    epoch = snap.wal_epoch if as_of_epoch is None else as_of_epoch

    def _out(bucket: int) -> str:
        return os.path.join(out_dir, f"bucket={bucket}",
                            f"part-e{epoch}.parquet")

    def _export_bucket(bucket: int, table: pa.Table) -> int:
        os.makedirs(os.path.dirname(_out(bucket)), exist_ok=True)
        _atomic_write(table, _out(bucket))  # the lake's one write policy
        return len(table)

    todo, done = {}, []  # a finished bucket: its footer's row count
    for k, fs in snap.visible_files().items():
        if fs and os.path.exists(_out(k)):
            done.append(pq.read_metadata(_out(k)).num_rows)
        elif fs:
            todo[k] = fs
    written = ray.get(bucket_tasks(snap, todo, None, _export_bucket))
    summary = {"lake": lake_dir, "out_dir": out_dir, "epoch": int(epoch),
               "n_buckets": len(done) + len(written),
               "n_rows": int(sum(done) + sum(written)),
               "n_skipped": len(done)}
    tmp = os.path.join(out_dir, f"._SUCCESS.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(summary, f)
    os.replace(tmp, os.path.join(out_dir, "_SUCCESS"))
    return summary
