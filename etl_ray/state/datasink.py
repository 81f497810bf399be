"""Idiomatic Ray Data sink for the CDC lake: ``ds.write_datasink(LakeSink)``.

API-parity surface for SURVEY.md §2.1 S3: the same two-phase commit the
replay loop drives (phase 1: bucket-partitioned fragment writes inside
the distributed write tasks; phase 2: per-epoch manifest commits with
monotonic fencing) packaged as a ``ray.data.Datasink``, so any
WAL-shaped Dataset can be loaded with the native write API:

    ds = ray.data.read_parquet(...)          # lsn/epoch/op + payload
    ds.write_datasink(LakeSink(lake_dir, num_partitions=128))

``write()`` runs distributed (prep + fragment write per block, exactly
the replay's ingest stage); ``on_write_complete()`` runs on the
driver and performs the fenced commits — a failed job commits nothing
and the orphan fragments stay invisible to readers (manifest.py
fencing rules).
"""

from __future__ import annotations

from typing import Any, Iterable

import pyarrow as pa

import ray
from ray.data import Datasink
from ray.data.datasource import WriteResult

from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.lake import auto_compact
from etl_ray.state.merge import (BUCKET_SPAN, make_fragment_writer,
                                 payload_schema, prepare_events)


class LakeSink(Datasink):
    """Two-phase CDC lake sink (bucket fragment writes + fenced commits).

    Parameters mirror ``cdc.replay``: ``num_partitions`` fixes key
    routing (a resumed lake must keep it), ``schema`` is the unified
    payload schema. When omitted it is inferred per block and unified
    as the write streams (add-column / type-widen evolution mid-dataset
    commits the widened union; incompatible drift raises) — pass it
    explicitly only to pin an authoritative schema up front.

    Memory: Ray 2.49's Write operator tees the block iterator before it
    calls ``write`` and then lists every block for its stats
    (``ray/data/_internal/planner/plan_write_op.py:46,68``), so a write
    task holds all of its input blocks until it ends, whereas a
    ``cdc.apply_window`` ingest task holds one packed block at a time
    (``wal.read_blocks``).
    """

    def __init__(self, lake_dir: str, num_partitions: int = 32,
                 schema: pa.Schema | None = None,
                 auto_compact: int | None = None):
        self.lake_dir = lake_dir
        self.num_partitions = num_partitions
        self.num_buckets = max(1, num_partitions // BUCKET_SPAN)
        self._schema = schema
        self._schema_b64 = None
        self._hwm_ref = None
        # live-files-per-key threshold that triggers a partial
        # compaction after the commits (mirrors cdc.replay)
        self.auto_compact = auto_compact

    def on_write_start(self) -> None:
        import os

        os.makedirs(self.lake_dir, exist_ok=True)
        snap = mf.snapshot(self.lake_dir)
        snap.check_key_hash()
        if snap.last is not None:
            # resumed lake: partitioning is defined by the manifest log
            self.num_partitions = snap.num_partitions
            self.num_buckets = snap.num_buckets
        self._hwm_ref = ray.put(snap.hwm)
        if self._schema is not None:
            self._schema = schema_mod.unify(snap.schema, self._schema)
            self._schema_b64 = schema_mod.to_b64(self._schema)

    def write(self, blocks: Iterable[pa.Table], ctx) -> list[dict]:
        prep = prepare_events(self.num_partitions)
        rows: list[dict] = []
        writer = None
        cur: pa.Schema | None = None  # task-local unified payload schema
        for block in blocks:
            if not isinstance(block, pa.Table):
                block = pa.Table.from_pandas(block)
            if len(block) == 0:
                continue
            if self._schema_b64 is not None:
                b64 = self._schema_b64  # explicit schema is authoritative
                if writer is None:
                    writer = make_fragment_writer(
                        self.lake_dir, b64, self._hwm_ref,
                        self.num_partitions, self.num_buckets)
            else:
                # no schema given: unify PER BLOCK, not once per task —
                # a task whose first block predates a mid-dataset
                # add-column/widen evolution must not silently conform
                # later blocks down to the narrow schema (unify raises
                # loudly on non-widening conflicts)
                unified = schema_mod.unify(cur, payload_schema(block.schema))
                if writer is None or not unified.equals(cur):
                    cur = unified
                    b64 = schema_mod.to_b64(cur)
                    writer = make_fragment_writer(
                        self.lake_dir, b64, self._hwm_ref,
                        self.num_partitions, self.num_buckets)
            rows.extend(writer(prep(block)).to_pylist())
        if self._schema_b64 is None and cur is not None:
            # ship the task's final schema to the driver: fragments of
            # one commit may disagree (pre-evolution blocks wrote
            # narrow files); the commit schema must be the global union
            # so readers backfill the gaps as nulls
            b64 = schema_mod.to_b64(cur)
            for r in rows:
                r["schema_b64"] = b64
        return rows

    def on_write_complete(self, write_result: "WriteResult[Any]") -> None:
        entries: list[dict] = [r for task_rows in write_result.write_returns
                               for r in task_rows]
        if not entries:
            return
        snap = mf.snapshot(self.lake_dir)  # the commits build on it
        schema = self._schema
        if schema is None:
            # schema wasn't given: union of every write task's unified
            # payload schema (shipped in the entry rows) + the lake's
            # current schema — mixed-evolution datasets commit the
            # widened union, narrow fragments backfill as nulls on read
            schema = snap.schema
            for b64 in {r.get("schema_b64") for r in entries} - {None}:
                schema = schema_mod.unify(schema, schema_mod.from_b64(b64))
            if schema is None:  # no task saw a non-empty block
                import os

                import pyarrow.parquet as pq

                rel = next(f for r in entries for f in r["files"])
                file_schema = pq.read_schema(
                    os.path.join(self.lake_dir, rel))
                schema = pa.schema(
                    [f for f in file_schema
                     if f.name not in ("lsn", "op", "content_sha256")])
        epochs = sorted({int(r["epoch"]) for r in entries})
        snap, _ = mf.commit_entry_rows(snap, epochs, entries, schema,
                                       self.num_partitions, self.num_buckets)
        if self.auto_compact:
            auto_compact(snap, self.auto_compact)

    def get_name(self) -> str:
        return f"LakeSink({self.lake_dir})"

    @property
    def supports_distributed_writes(self) -> bool:
        return True
