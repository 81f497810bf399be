"""In-memory spans around the engine's public module functions, and
in-process timing of the worker-side ingest stages.

Spans are recorded by replacing module attributes with timing wrappers
for the duration of a traced pass (``Tracer.install`` /
``Tracer.uninstall``). The engine calls its own layers through module
attributes (``mf.high_watermarks``, ``lineage_mod.write_lineage``, ...),
so nested calls are captured with their parent. Work inside Ray
workers is not visible to driver-side spans; ``stage_costs`` times the
same stage functions the workers run, in this process, on the
workload's own WAL batches.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

MANIFEST_FUNCS = ["high_watermarks", "live_file_counts", "commit_epoch",
                  "commit_base", "visible_entry_files", "committed_files",
                  "change_files", "manifest_as_of", "last_manifest",
                  "last_wal_epoch", "current_schema", "lake_mode",
                  "check_key_hash"]


class Tracer:
    """Spans (name, start, end, parent, trace) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "trace": sid if parent is None else self.spans[parent]["trace"],
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _patch(self, module, attr: str, fn) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def wrap(self, modules: list, attr: str, name: str, on_result=None):
        """Replace ``attr`` on every module in ``modules`` (the defining
        module and any module that imported it by name) with a wrapper
        that records a span."""
        orig = getattr(modules[0], attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, out)
                return out

        for m in modules:
            self._patch(m, attr, traced)

    def count(self, module, attr: str, key: str) -> None:
        """Count calls of ``module.attr`` on the innermost open span."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            if self._stack:
                rec = self.spans[self._stack[-1]]
                rec[key] = rec.get(key, 0) + 1
            return orig(*args, **kwargs)

        self._patch(module, attr, counted)

    def install(self) -> None:
        import pyarrow.parquet as pq

        from etl_ray.pipelines import cdc
        from etl_ray.state import lake, lineage, views
        from etl_ray.state import manifest as mf

        def _events(rec, out):
            rec["n_events"] = sum(s["n_events"] for s in out)

        self.wrap([cdc], "replay", "cdc.replay")
        self.wrap([cdc], "apply_window", "cdc.apply_window", _events)
        for f in MANIFEST_FUNCS:
            self.wrap([mf], f, f"manifest.{f}")
        self.count(mf, "read_manifest", "manifest_reads")
        self.wrap([lineage], "write_lineage", "lineage.write_lineage")
        self.wrap([lake, views], "read_lake", "lake.read_lake")
        self.wrap([lake, views], "changes_between", "lake.changes_between")
        self.wrap([lake], "lookup", "lake.lookup")
        self.wrap([lake], "compact", "lake.compact")
        self.wrap([views], "create_view", "views.create_view")
        self.wrap([views], "refresh_view", "views.refresh_view")
        self.count(pq, "read_table", "parquet_reads")

    def uninstall(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    # ------------------------------------------------------ summaries

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per layer (span-name prefix): span time minus the time its
        child spans cover."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for s in self.spans:
            layer = s["name"].split(".", 1)[0]
            out[layer] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def manifest_reads_per_call(self) -> float:
        """Manifest files read per outermost manifest-layer call."""
        by_id = {s["id"]: s for s in self.spans}
        outer = reads = 0
        for s in self.spans:
            reads += s.get("manifest_reads", 0)
            if s["name"].startswith("manifest.") and not (
                    s["parent"] is not None
                    and by_id[s["parent"]]["name"].startswith("manifest.")):
                outer += 1
        return reads / outer if outer else 0.0


def stage_costs(wal_dir: str, epochs: list[int], num_partitions: int,
                scratch_lake: str) -> dict:
    """Time WAL decode, ``prepare_events`` and the fragment writer in
    this process over the given epochs; returns per-event costs and
    write volumes."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from etl_ray.state import merge
    from etl_ray.state import schema as schema_mod

    unified = None
    for k in epochs:
        unified = schema_mod.unify(unified, merge.payload_schema(
            pads.dataset(f"{wal_dir}/epoch={k}").schema))
    schema_b64 = schema_mod.to_b64(unified)
    nb = max(1, num_partitions // merge.BUCKET_SPAN)
    prep = merge.prepare_events(num_partitions)
    write = merge.make_fragment_writer(scratch_lake, schema_b64, None,
                                       num_partitions, nb)
    decode = prep_s = write_s = 0.0
    events = wal_bytes = rows_out = 0
    for k in epochs:
        d = f"{wal_dir}/epoch={k}"
        for name in sorted(os.listdir(d)):
            p = os.path.join(d, name)
            wal_bytes += os.path.getsize(p)
            t0 = time.perf_counter()
            t = pq.read_table(p)
            t1 = time.perf_counter()
            pt = prep(t)
            t2 = time.perf_counter()
            entries = write(pt)
            t3 = time.perf_counter()
            decode += t1 - t0
            prep_s += t2 - t1
            write_s += t3 - t2
            events += len(t)
            rows_out += sum(entries["n_rows"].to_pylist())
    out_bytes = sum(os.path.getsize(os.path.join(d, n))
                    for d, _, ns in os.walk(scratch_lake) for n in ns
                    if n.endswith(".parquet"))
    ev = max(1, events)
    return {
        "events": events,
        "decode_us_per_event": decode / ev * 1e6,
        "bytes_per_event": wal_bytes / ev,
        "prep_us_per_event": prep_s / ev * 1e6,
        "write_us_per_event": write_s / ev * 1e6,
        "rows_out_per_event": rows_out / ev,
        "bytes_out_per_row": out_bytes / max(1, rows_out),
        "stage_us_per_event": (decode + prep_s + write_s) / ev * 1e6,
    }
