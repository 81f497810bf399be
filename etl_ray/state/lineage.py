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
    rows = []
    for seq in mf.committed_epochs(lake_dir):
        man = mf.read_manifest(lake_dir, seq)
        base = bool(man.get("base"))
        for pid_s, e in man["partitions"].items():
            # base manifests are rewrites, not ingests: n_events is 0 by
            # construction, and the `base` flag lets metrics consumers
            # separate compaction I/O from WAL ingest
            rows.append({"epoch": man.get("epoch", seq), "seq": seq,
                         "base": base, "pid": int(pid_s), **e})
    if not rows:
        return pa.Table.from_pylist([], schema=pa.schema(
            [("epoch", pa.int64()), ("pid", pa.int64())]))
    return pa.Table.from_pylist(rows)


def write_lineage(lake_dir: str, out_path: str | None = None) -> str:
    out_path = out_path or os.path.join(lake_dir, "_lineage", "lineage.parquet")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tmp = out_path + ".tmp"
    pq.write_table(lineage_table(lake_dir), tmp)
    os.replace(tmp, out_path)
    return out_path
