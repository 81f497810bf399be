"""ORC reader/writer for Ray Data — the custom-datasource extension
pattern (SURVEY.md §2.1 S6 aux formats, §2.10 extension surface).

Ray 2.49 ships no ``read_orc``; this module adds one the idiomatic way:
a ``FileBasedDatasource`` subclass whose ``_read_stream`` yields one
Arrow table PER ORC STRIPE — so a huge ORC file streams through the
executor stripe by stripe instead of materializing whole, and file
parallelism/locality/partition filtering all come from the base class.
The writer mirrors the engine's other sinks: one content-addressed file
per block from inside ``map_batches`` (deterministic names → idempotent
under task retry).
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa

import ray.data
from ray.data.datasource import FileBasedDatasource

from etl_ray.util import gather


class OrcDatasource(FileBasedDatasource):
    """Stripe-streaming ORC file source."""

    _FILE_EXTENSIONS = ["orc"]

    def _open_input_source(self, filesystem, path, **open_args):
        # ORC needs random access (footer + stripe index), not a
        # sequential stream
        return filesystem.open_input_file(path, **open_args)

    def _read_stream(self, f: "pa.NativeFile", path: str):
        from pyarrow import orc

        reader = orc.ORCFile(f)
        if reader.nstripes == 0:
            from pyarrow import Table

            yield Table.from_pylist([], schema=reader.schema)
            return
        for i in range(reader.nstripes):
            # read_stripe returns a RecordBatch; blocks must be Tables
            yield pa.Table.from_batches([reader.read_stripe(i)])


def read_orc(paths, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet``-style entry point for ORC files/dirs."""
    return ray.data.read_datasource(OrcDatasource(paths, **kwargs))


def write_orc(ds: "ray.data.Dataset", out_dir: str) -> int:
    """Write a Dataset as ORC, one content-addressed file per block.

    Returns the number of files written. Idempotent under task retry
    (deterministic names, atomic rename, never overwrites).
    """
    os.makedirs(out_dir, exist_ok=True)

    def _write(t: pa.Table) -> pa.Table:
        from pyarrow import orc

        if len(t) == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        sample = t.slice(0, min(64, len(t)))
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, sample.schema) as w:
            w.write_table(sample)
        digest = hashlib.sha1(sink.getvalue().to_pybytes()
                              + str(len(t)).encode()).hexdigest()[:12]
        path = os.path.join(out_dir, f"part-{digest}.orc")
        if not os.path.exists(path):
            tmp = f"{path}.tmp.{os.getpid()}"
            orc.write_table(t, tmp)
            os.replace(tmp, path)
        return pa.table({"n": pa.array([len(t)], pa.int64())})

    return len(gather(ds.map_batches(_write, batch_format="pyarrow")))
