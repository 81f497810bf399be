"""Lineage / metrics export (SURVEY.md §2.1 S7, BASELINE.json:6).

Per-(epoch, bucket) lineage records — event offset (lsn) ranges, row
counts, checksums — are produced by the fragment writers as manifest
entries. ``lineage_table`` flattens the committed manifest log into a
small Arrow table on demand (``cli lineage`` and the ``cdc_lineage``
query read it); ``write_lineage`` exports that table as one Parquet
file for downstream metrics consumers. Nothing is written during a
replay.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

from etl_ray.state import manifest as mf


def lineage_table(lake_dir: str) -> pa.Table:
    """One row per (committed manifest, bucket entry). Base manifests
    are rewrites, not ingests: n_events is 0 by construction, and the
    ``base`` flag lets metrics consumers separate compaction I/O from
    WAL ingest."""
    rows = [{"epoch": man.get("epoch", seq), "seq": seq,
             "base": bool(man.get("base")), "pid": int(pid_s), **e}
            for seq, man in mf.snapshot(lake_dir).docs
            for pid_s, e in man["partitions"].items()]
    if not rows:
        return pa.Table.from_pylist([], schema=pa.schema(
            [("epoch", pa.int64()), ("pid", pa.int64())]))
    return pa.Table.from_pylist(rows)


def write_lineage(lake_dir: str, out_path: str | None = None) -> str:
    """Export ``lineage_table`` to ``out_path`` (default
    ``lake_dir/_lineage/lineage.parquet``) atomically; returns the path."""
    out_path = out_path or os.path.join(lake_dir, "_lineage",
                                        "lineage.parquet")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tmp = out_path + ".tmp"
    pq.write_table(lineage_table(lake_dir), tmp)
    os.replace(tmp, out_path)
    return out_path
