"""Idiomatic Ray Data sink for the CDC lake: ``ds.write_datasink(LakeSink)``.

API-parity surface for SURVEY.md §2.1 S3: the replay's two-phase commit
(phase 1: bucket-partitioned fragment writes inside the distributed
write tasks; phase 2: per-epoch manifest commits with monotonic
fencing) packaged as a ``ray.data.Datasink``, so any WAL-shaped Dataset
can be loaded with the native write API:

    ds = ray.data.read_parquet(...)          # lsn/epoch/op + payload
    ds.write_datasink(LakeSink(lake_dir, num_partitions=128))

The sink runs the replay's own ingest path (``pipelines.cdc``):
``on_write_start`` is ``open_lake``, each ``write`` task runs
``make_ingest``'s function over its blocks (dropping its stage ledger:
the sink writes no run record), and ``on_write_complete`` is
``commit_rows`` on the driver. A failed job commits nothing and the
orphan fragments stay invisible to readers (manifest.py fencing rules).
"""

from __future__ import annotations

from typing import Any, Iterable

import pyarrow as pa

import ray
from ray.data import Datasink
from ray.data.datasource import WriteResult

from etl_ray.pipelines.cdc import commit_rows, make_ingest, open_lake
from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.merge import payload_schema


class LakeSink(Datasink):
    """Two-phase CDC lake sink (bucket fragment writes + fenced commits).

    Parameters mirror ``cdc.replay``: ``num_partitions`` fixes key
    routing (a resumed lake keeps its own), and ``auto_compact`` is the
    live-files-per-bucket threshold that triggers a partial compaction
    after the commits.

    Schema: each write task unifies the payload schemas of all its
    blocks once and conforms them to that union; the commit unifies the
    lake's schema with every task's. Add-column and type-widen evolution
    mid-dataset thus commits the widened union (narrow fragments
    backfill as nulls on read), and incompatible drift raises.

    Memory: Ray 2.49's Write operator tees the block iterator before it
    calls ``write`` and then lists every block for its stats
    (``ray/data/_internal/planner/plan_write_op.py:46,68``), so a write
    task holds all of its input blocks until it ends anyway; unifying
    over them first costs no memory. A ``cdc.replay`` ingest task holds
    one packed block at a time (``wal.read_blocks``).
    """

    def __init__(self, lake_dir: str, num_partitions: int = 32,
                 auto_compact: int | None = None):
        self.lake_dir = lake_dir
        self.num_partitions = num_partitions
        self.auto_compact = auto_compact
        self._hwm_ref = None

    def on_write_start(self) -> None:
        snap, self.num_partitions = open_lake(self.lake_dir,
                                              self.num_partitions)
        self._hwm_ref = ray.put(snap.hwm)

    def write(self, blocks: Iterable[pa.Table], ctx) -> list[dict]:
        blocks = [b if isinstance(b, pa.Table) else pa.Table.from_pandas(b)
                  for b in blocks]
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return []
        schema = None
        for b in blocks:
            schema = schema_mod.unify(schema, payload_schema(b.schema))
        b64 = schema_mod.to_b64(schema)
        rows, _ = make_ingest(self.lake_dir, b64, self._hwm_ref,
                              self.num_partitions)(blocks)
        for r in rows:  # the commit schema is the union over tasks
            r["schema_b64"] = b64
        return rows

    def on_write_complete(self, write_result: "WriteResult[Any]") -> None:
        entries = [r for rows in write_result.write_returns for r in rows]
        if not entries:
            return
        snap = mf.snapshot(self.lake_dir)  # the commits build on it
        schema = snap.schema
        for b64 in {r["schema_b64"] for r in entries}:
            schema = schema_mod.unify(schema, schema_mod.from_b64(b64))
        commit_rows(snap, sorted({int(r["epoch"]) for r in entries}),
                    entries, schema, self.num_partitions, self.auto_compact)

    def get_name(self) -> str:
        return f"LakeSink({self.lake_dir})"

    @property
    def supports_distributed_writes(self) -> bool:
        return True
