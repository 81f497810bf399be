"""The flagship CDC replay pipeline (SURVEY.md §3.1).

Replay processes the WAL in **windows of epochs**. Each window is one
Ray task per planned group, with no shuffle and no Ray Data execution:

    open_lake                                  # driver, once: fence,
                                               #   resumed P
    wal.plan_scan(wal, window)                 # S2: footers, read once
                                               #   on the driver →
                                               #   schema + row-group
                                               #   groups
    util.run_tasks(one task per group):
      wal.read_blocks                          # row groups packed into
                                               #   blocks of Ray's target
                                               #   block size
      → make_ingest's function:
        prepare_events, per block              # M9 audit + key hash
        → make_fragment_writer, per block      # A1/A3/A4: per-task LWW
                                               #   reduce, M7 sha256,
                                               #   bucket fragment writes
        → manifest entry rows                  # tiny, one per
                                               #   (epoch, bucket, block)
    commit_rows                                # driver: fenced commits,
                                               #   auto-compaction

``open_lake``, ``make_ingest`` and ``commit_rows`` are the one ingest
path: ``state.datasink.LakeSink`` runs the same three from Ray Data's
write hooks.

The driver reads each window file's Parquet footer once: the footers
give the window's unified schema and each row group's row count. It
splits the row groups into one group per ingest slot
(``util.task_slots()``, at the CPU width of every engine task),
largest first to the least-loaded group (``wal.group_pieces``), and
each group is one task that reads, preps and writes. Ray's Parquet
datasource, with its remote footer fetches and sampling, is not used,
and neither is a Ray Data streaming executor: for a fixed plan it only
adds a fixed start cost per window (SURVEY.md, write-task sizing). The
plan is a pure function of the sorted row-group list, the row counts
and the slot count, so a retried task rewrites byte-identical,
content-addressed fragments.

Memory: a task decodes its group one row group at a time and packs the
row groups into blocks of Ray's target block size
(``DataContext.target_max_block_size``, 128 MiB by default, read on the
driver), the bound Ray Data's output buffer applied. Prep and the
writer run once per block, so a task holds about one packed block of
decoded events plus the writer's reduced copy of it, however large the
window or the group. A group below the target size is one block: the
writer runs once per task and an epoch gets as few fragment files per
task as ``merge.MIN_FRAG_ROWS`` packing allows (one below 8,192 rows).
Larger groups cost one writer call, and so up to one fragment file per
(epoch, bucket), per block. The window (``DEFAULT_WINDOW`` epochs)
bounds the entry rows and the driver's commit work.

The repartition-by-key is the bucket-partitioned file layout
(``merge.bucket_of``); per-key max-lsn resolution across tasks and
epochs is merge-on-read (``state.lake.read_lake``). Commits then run
strictly sequentially in epoch order with monotonic fencing (S3 phase
2, ``manifest.commit_entry_rows``), so crash/resume granularity is one
window: whatever prefix committed before a crash is skipped on resume,
the rest recomputes (fragment writes are deterministic + idempotent).

The driver holds only: the window loop, the running unified schema, and
the commits. Merge state (per-bucket lsn high-watermarks) is broadcast
via ray.put and persisted in manifests (BASELINE.json:6,14).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from collections.abc import Iterable

import pyarrow as pa

import ray
from ray.data import DataContext

from etl_ray.sources import wal as wal_mod
from etl_ray.state import lake as lake_mod
from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.merge import (BUCKET_SPAN, make_fragment_writer,
                                 payload_schema, prepare_events)
from etl_ray.util import (count, lap, mark, retain_heap, run_tasks,
                          take_ledger, task_slots)

# epochs per window; bounds the entry rows and the
# uncommitted fragments a crash can lose (tune to cluster size at scale)
DEFAULT_WINDOW = 8


def open_lake(lake_dir: str, num_partitions: int) -> tuple[mf.Snapshot, int]:
    """Ingest phase 0 (driver): create the lake, take its snapshot and
    refuse a lake routed under another key-hash or layout version before
    any fragment is written into it. A resumed lake keeps its original
    partitioning, since bucket ownership (routing and high-watermarks)
    is defined by P. Returns the snapshot and the P to ingest with."""
    os.makedirs(lake_dir, exist_ok=True)
    snap = mf.snapshot(lake_dir)
    snap.check_key_hash()
    if snap.last is not None:
        num_partitions = snap.num_partitions
    return snap, num_partitions


def make_ingest(lake_dir: str, schema_b64: str, hwm_ref,
                num_partitions: int):
    """Ingest phase 1: the function a worker runs over an iterable of
    WAL-shaped blocks. Per block it audits and key-hashes the events
    (``prepare_events``), then LWW-reduces them and writes the bucket
    fragments, conformed to ``schema_b64`` (``make_fragment_writer``).
    It runs under the worker's heap policy (``util.retain_heap``) and
    returns the manifest entry rows, one per (epoch, bucket, block),
    and the task's ledger (``util.take_ledger``)."""
    prep = prepare_events(num_partitions)
    write = make_fragment_writer(lake_dir, schema_b64, hwm_ref,
                                 num_partitions, _num_buckets(num_partitions))

    def _ingest(blocks: Iterable[pa.Table]) -> tuple[list[dict], Counter]:
        heap = retain_heap()
        take_ledger()  # drop what this worker timed outside an ingest
        rows = [r for block in blocks for r in write(prep(block)).to_pylist()]
        count("tasks_off_heap_policy", not heap)
        return rows, take_ledger()

    return _ingest


def commit_rows(snap: mf.Snapshot, epochs: list[int], rows: list[dict],
                schema: pa.Schema, num_partitions: int,
                auto_compact: int | None
                ) -> tuple[mf.Snapshot, dict[int, dict[int, dict]], bool]:
    """Ingest phase 2 (driver): the fenced per-epoch commits of the entry
    rows (``manifest.commit_entry_rows``), then a compaction of every
    bucket with more than ``auto_compact`` live files (None disables).
    Returns the snapshot after, epoch → its committed partitions, and
    whether a compaction ran. Times the ``commit`` and ``compact`` stages."""
    m = mark()
    snap, committed = mf.commit_entry_rows(snap, epochs, rows, schema,
                                           num_partitions,
                                           _num_buckets(num_partitions))
    m = lap("commit", m)
    compacted = (lake_mod.auto_compact(snap, auto_compact)
                 if auto_compact else None)
    lap("compact", m)
    if compacted is None:
        return snap, committed, False
    return compacted, committed, True


def _num_buckets(num_partitions: int) -> int:
    return max(1, num_partitions // BUCKET_SPAN)


def apply_window(wal_dir: str, lake_dir: str, epochs: list[int],
                 num_partitions: int) -> list[dict]:
    """Apply a window of epochs; commit each in ascending order.

    One Ray task per ingest slot reads its row-group group of the
    window (unified schema) and runs :func:`make_ingest`'s function
    over it, block by block (``merge.make_fragment_writer`` handles
    multi-epoch batches). Entry rows carry their epoch; the commit loop
    (:func:`commit_rows`) stays strictly sequential per epoch
    (monotonic fencing). A window-unified schema keeps all fragments of
    the window mutually compatible.
    """
    snap, num_partitions = open_lake(lake_dir, num_partitions)
    return _apply_window(wal_dir, snap, epochs, num_partitions, None)[1]


def _apply_window(wal_dir: str, snap: mf.Snapshot, epochs: list[int],
                  num_partitions: int, auto_compact: int | None
                  ) -> tuple[mf.Snapshot, list[dict], bool, list[Counter]]:
    """``apply_window`` on ``snap``, then ``auto_compact``: also returns
    the snapshot after, whether a compaction ran and the ingest tasks'
    ledgers. Times the ``plan`` and ``tasks`` stages."""
    epochs = [k for k in epochs if k > snap.wal_epoch]
    if not epochs:
        return snap, [], False, []
    m = mark()
    wal_schema, groups = wal_mod.plan_scan(wal_dir, epochs, task_slots())
    unified = schema_mod.unify(snap.schema, payload_schema(wal_schema))
    schema_b64 = schema_mod.to_b64(unified)
    hwm_ref = ray.put(snap.hwm)
    ingest = make_ingest(snap.lake_dir, schema_b64, hwm_ref, num_partitions)
    block_bytes = DataContext.get_current().target_max_block_size

    def _read_and_ingest(group: list[wal_mod.Piece]) -> tuple[list, Counter]:
        return ingest(wal_mod.read_blocks(wal_schema, group, block_bytes))

    m = lap("plan", m)
    done = run_tasks(_read_and_ingest, [(g,) for g in groups])
    lap("tasks", m)
    # ≤ (epochs × buckets × blocks) tiny rows
    outs, ledgers = zip(*done)
    rows = [r for rs in outs for r in rs]

    snap, committed, compacted = commit_rows(snap, epochs, rows, unified,
                                             num_partitions, auto_compact)
    return snap, [{
        "epoch": k,
        "n_events": sum(e["n_events"] for e in partitions.values()),
        "n_rows": sum(e["n_rows"] for e in partitions.values()),
        "n_quarantined": sum(e["n_quarantined"]
                             for e in partitions.values()),
    } for k, partitions in committed.items()], compacted, list(ledgers)


# live fragments per bucket before the replay loop schedules a
# compaction: bounds a long-running lake's read
# amplification. Sized so steady-state reads merge O(threshold) files
# while compaction (a full resolve+rewrite) stays rare relative to
# epoch ingest — tune DOWN for read-heavy lakes.
AUTO_COMPACT_FRAGMENTS = 512


def replay(wal_dir: str, lake_dir: str, n_epochs: int, num_partitions: int = 32,
           stop_after: int | None = None, window: int = DEFAULT_WINDOW,
           auto_compact: int | None = AUTO_COMPACT_FRAGMENTS) -> dict:
    """Replay the WAL into the lake, resuming from the committed checkpoint.

    ``stop_after=k`` simulates a crash after k epochs (for resume tests).
    ``auto_compact`` schedules a compaction whenever any bucket's
    live data-file count exceeds it (None disables). Returns a summary
    with events/sec over the epochs actually applied and the run's
    stage ledger (:func:`_run_ledger`).
    """
    # the commits below fold into the snapshot
    snap, num_partitions = open_lake(lake_dir, num_partitions)
    seq0 = snap.seq
    start = snap.wal_epoch + 1
    end = n_epochs if stop_after is None else min(n_epochs, start + stop_after)
    take_ledger()  # drop what this process timed before the run
    t0 = time.perf_counter()
    total_events = 0
    n_compactions = 0
    applied, windows = [], []
    for w0 in range(start, end, window):
        tw = time.perf_counter()
        snap, ss, compacted, wt = _apply_window(
            wal_dir, snap, list(range(w0, min(w0 + window, end))),
            num_partitions, auto_compact)
        dw = round(time.perf_counter() - tw, 3)
        for s in ss:
            s["window_wall_s"] = dw
            total_events += s["n_events"]
            applied.append(s)
        n_compactions += compacted
        windows.append(wt)
    wall = time.perf_counter() - t0
    out = {
        "epochs_applied": len(applied),
        "first_epoch": start,
        "n_events": total_events,
        "wall_s": wall,
        "events_per_s": total_events / wall if wall > 0 else 0.0,
        "n_compactions": n_compactions,
        "summaries": applied,
        "ledger": _run_ledger(snap, seq0, windows, total_events),
    }
    _write_run_metrics(lake_dir, out)
    return out


WORKER_STAGES = ("decode", "prep", "filter", "quarantine", "lww", "sort",
                 "gather", "sha256", "conform", "write")
DRIVER_STAGES = ("plan", "tasks", "commit", "compact")


def _run_ledger(snap: mf.Snapshot, seq0: int, windows: list[list[Counter]],
                n_events: int) -> dict:
    """The run record's ``ledger``: the ingest tasks' ledgers summed with
    this process's, per event; max / mean rows per bucket committed
    after ``seq0`` and events per task in the worst window."""
    led = sum((t for w in windows for t in w), take_ledger())
    rows = Counter()
    for seq, doc in snap.docs:
        if seq > seq0 and not doc.get("base"):
            for b, e in doc["partitions"].items():
                rows[b] += e["n_rows"]
    ev, stages = max(1, n_events), WORKER_STAGES + DRIVER_STAGES
    return {
        "n_events": n_events,
        "us_per_event": {k: round(led[k + "_s"] / ev * 1e6, 3)
                         for k in stages},
        "faults_per_event": {k: round(led[k + "_flt"] / ev, 4)
                             for k in stages},
        **{c: led[c] for c in ("rows_in", "rows_out", "bytes_in",
                               "bytes_out")},
        "bucket_row_skew": _skew([rows[str(b)] for b in range(
            snap.num_buckets or 1)]),
        "task_event_skew": max((_skew([t["rows_in"] for t in w])
                                for w in windows), default=0.0),
        "heap_policy": led["tasks_off_heap_policy"] == 0,
    }


def _skew(xs: list[int]) -> float:
    """max / mean (0 for no rows)."""
    return round(max(xs) * len(xs) / sum(xs), 3) if sum(xs) else 0.0


def _write_run_metrics(lake_dir: str, summary: dict) -> None:
    """Persist one metrics record per replay run under
    ``lake_dir/_metrics/`` (BASELINE.json:6 metrics surface) — the
    run-history an operator dashboards: epochs applied, event counts,
    wall, throughput, compactions, per-epoch summaries."""
    import json

    d = os.path.join(lake_dir, "_metrics")
    os.makedirs(d, exist_ok=True)
    seq = len([n for n in os.listdir(d) if n.startswith("run-")])
    while True:
        try:  # put-if-absent: a run finishing alongside may take seq
            return mf.put_if_absent(os.path.join(d, f"run-{seq}.json"),
                                    json.dumps(summary))
        except FileExistsError:
            seq += 1
