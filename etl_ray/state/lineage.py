"""Lineage / metrics sink (SURVEY.md §2.1 S7, BASELINE.json:6).

Per-(epoch, bucket) lineage records — event offset (lsn) ranges, row
counts, checksums — are produced by the fragment writers as manifest
entries; this module flattens the committed manifest log into a small
Parquet table for downstream metrics consumers.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.state import manifest as mf


def lineage_table(lake_dir: str) -> pa.Table:
    return snapshot_lineage(mf.snapshot(lake_dir))


def snapshot_lineage(snap: mf.Snapshot) -> pa.Table:
    """One row per (committed manifest, bucket entry) of ``snap``. Base
    manifests are rewrites, not ingests: n_events is 0 by construction,
    and the ``base`` flag lets metrics consumers separate compaction I/O
    from WAL ingest."""
    rows = [{"epoch": man.get("epoch", seq), "seq": seq,
             "base": bool(man.get("base")), "pid": int(pid_s), **e}
            for seq, man in snap.docs
            for pid_s, e in man["partitions"].items()]
    if not rows:
        return pa.Table.from_pylist([], schema=pa.schema(
            [("epoch", pa.int64()), ("pid", pa.int64())]))
    return pa.Table.from_pylist(rows)


def write_lineage(lake_dir: str, out_path: str | None = None) -> str:
    return write_snapshot_lineage(mf.snapshot(lake_dir), out_path)


def write_snapshot_lineage(snap: mf.Snapshot,
                           out_path: str | None = None) -> str:
    out_path = out_path or os.path.join(snap.lake_dir, "_lineage",
                                        "lineage.parquet")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tmp = out_path + ".tmp"
    pq.write_table(snapshot_lineage(snap), tmp)
    os.replace(tmp, out_path)
    return out_path
