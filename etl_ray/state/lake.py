"""Merge-on-read lake scan + compaction (SURVEY.md §2.1 S4).

The lake's committed state is the set of fragment files listed in
committed manifests. Every row of a key lives in one bucket
(``merge.bucket_of``) and the manifest lists each bucket's files, so
every reader resolves bucket by bucket with one kernel,
``_resolve_bucket``: scan the bucket's visible files, keep the rows
routed to the bucket, and keep per (repo, path) the row with the max
lsn, dropping delete tombstones unless asked for them. One runner,
``bucket_tasks``, launches it: one plain Ray task per bucket
(``util.submit_tasks``, at the CPU width of every engine task) for
``read_lake``, ``changes_between``, the views, ``compact`` and
``export``, and no reader shuffles rows between tasks. The runner is
also where every per-bucket resolve meets the key-hash routing fence
(``Snapshot.check_key_hash``), so a new reader cannot skip it. The
first two readers return the tasks' tables as a materialized Dataset,
the only Ray Data object in this module. A point lookup reads one
bucket's files, and compacting a set of buckets needs no rows from any
other bucket.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

import ray

from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.merge import KEY_COLS, _atomic_write, bucket_of
from etl_ray.util import (dataset, key_hash64, lww_keep_indices,
                          run_tasks, sha256_hex_with_prefix, sha_prefix64,
                          submit_tasks, take_runs, task_slots)


def _resolve_bucket(files: list[str], bucket: int, P: int, B: int,
                    schema: pa.Schema, keep_deletes: bool = False
                    ) -> pa.Table:
    """The merge-on-read kernel: one bucket's visible files → its
    resolved rows.

    One ``pyarrow.dataset`` scan of ``files`` with ``schema`` plus
    ``lsn, op, content_sha256`` (columns missing from pre-evolution
    files come back as nulls), keeps the rows routed to ``bucket`` (a
    range fragment can serve several buckets), then the per-key
    max-lsn row. Tombstones are dropped with ``lsn, op`` (state read)
    or kept with them (change feed).

    Hash-keyed exact LWW (util.lww_keep_indices); the resolve must emit
    exactly one row per key, so the pathological mixed-hash-run case
    falls back to a string-keyed dedup of the key columns.
    """
    full = pa.schema(list(schema) + [pa.field("lsn", pa.int64()),
                                     pa.field("op", pa.string()),
                                     pa.field("content_sha256", pa.string())])
    t = pds.dataset(list(dict.fromkeys(files)), schema=full,
                    format="parquet").to_table()
    kh = key_hash64(t, KEY_COLS)
    mine = bucket_of(kh, P, B) == bucket
    t, kh = t.filter(pa.array(mine)), kh[mine]
    lsn = t["lsn"].to_numpy()
    keep, mixed = lww_keep_indices(kh, lsn, t.select(KEY_COLS))
    if mixed:  # two distinct keys share a 64-bit hash in this bucket
        order = np.argsort(-lsn, kind="stable")
        df = t.select(KEY_COLS).to_pandas()
        keep_m = ~df.iloc[order].duplicated().to_numpy()
        keep = np.sort(order[keep_m])
    latest = take_runs(t, keep)  # keep is ascending — run gather
    if keep_deletes:
        return latest
    live = latest.filter(pc.not_equal(latest["op"], "D"))
    return live.drop_columns(["lsn", "op"])


def _pruned(schema: pa.Schema, columns: list[str] | None) -> pa.Schema:
    """``schema`` cut to ``columns`` plus the key; KeyError on a name
    the lake does not have."""
    if columns is None:
        return schema
    unknown = set(columns) - set(schema.names)
    if unknown:
        raise KeyError(f"unknown lake columns {sorted(unknown)}; "
                       f"schema has {schema.names}")
    return pa.schema([f for f in schema
                      if f.name in set(columns) | set(KEY_COLS)])


def bucket_tasks(snap: mf.Snapshot, files: dict[int, list[str]],
                 columns: list[str] | None = None, then=None, *args,
                 keep_deletes: bool = False) -> list[ray.ObjectRef]:
    """The one launcher of ``_resolve_bucket``: one plain Ray task per
    non-empty bucket of ``files``, returning the bucket's rows (payload
    pruned to ``columns``) or ``then(bucket, rows, *args)``. Returns the
    refs in bucket order; the tasks start now. An ObjectRef in ``args``
    reaches ``then`` as its value. [] for a lake with no schema.

    Every per-bucket resolve passes the routing fence here: the row
    filter replays the manifest's routing with this build's key hash,
    so a lake written under another key-hash version would lose rows
    silently."""
    snap.check_key_hash()
    if snap.schema is None:
        return []
    P, B = snap.num_partitions, snap.num_buckets
    schema = _pruned(snap.schema, columns)

    def _bucket(bucket: int, fs: list[str], *a):
        t = _resolve_bucket(fs, bucket, P, B, schema, keep_deletes)
        return t if then is None else then(bucket, t, *a)

    return submit_tasks(_bucket, [(k, fs, *args)
                                  for k, fs in sorted(files.items()) if fs])


def read_lake(lake_dir: str, columns: list[str] | None = None,
              as_of_epoch: int | None = None) -> "ray.data.Dataset":
    """Scan the converged state of the lake (merge-on-read): one
    ``bucket_tasks`` task per bucket with visible files, so the task
    count is the manifest's bucket count.

    ``columns`` prunes the payload at the Parquet read — only the
    requested columns plus the merge metadata (key, lsn, op, sha) leave
    storage, so a 2-column scan of a wide lake doesn't ship `content`.
    Unknown column names raise KeyError up front (a typo otherwise
    surfaces as an opaque Arrow read error); schema-evolution gaps
    (a column absent from pre-evolution delta files) are backfilled as
    nulls by passing the unified schema to the scan.

    ``as_of_epoch`` TIME-TRAVELS: the scan sees only delta files (and
    the schema) of WAL epochs ≤ it — the state the lake converged to at
    that checkpoint. Reaches back at most to the newest compaction base
    at or before the epoch (vacuum deletes older deltas, the standard
    VACUUM/time-travel trade-off).

    The Dataset is materialized: the bucket tasks start at the call,
    and the Dataset holds their tables, not a plan.
    """
    snap = mf.snapshot(lake_dir, as_of_epoch)
    return dataset(bucket_tasks(snap, snap.visible_files(), columns),
                   snap.schema or pa.schema([]))


def lookup(lake_dir: str, repo: str, path: str) -> dict | None:
    """POINT LOOKUP of one (repo, path) key — no lake scan.

    The manifest prunes the file set to the visible files of the key's
    one bucket (``merge.bucket_of``, the writers' routing). The data
    read then costs

    1. ONE key-column scan of the bucket's files: a single
       ``pyarrow.dataset`` scan reads only ``repo, path, lsn, op``,
       filters on the key, and keeps the max-lsn version and the file
       holding it. It opens every candidate file but decodes no
       payload. Parquet statistics prune no file: fragments are sorted
       by (epoch, bucket, lsn), so every file's key min/max spans the
       key;
    2. if that version is live, ONE filtered read of the winning file
       for the full row. A tombstone or a never-written key returns
       None after step 1.

    The row is conformed to the lake's current schema, so it has the
    same columns and types as the key's ``read_lake`` row (plus
    ``lsn``). At scale this is the index-free read path a serving
    layer would wrap in an actor holding decoded manifests.
    """
    snap = mf.snapshot(lake_dir)
    if snap.last is None:
        return None
    # the bucket probe below replays PERSISTED routing — a lake written
    # under another key-hash version would silently return None / stale
    # rows, so fence at read time too (ADVICE r3)
    snap.check_key_hash()
    kh = key_hash64(pa.table({"repo": pa.array([repo]),
                              "path": pa.array([path])}), KEY_COLS)
    bucket = int(bucket_of(kh, snap.num_partitions, snap.num_buckets)[0])
    # manifest-pruned file set: the bucket's visible files
    files = list(dict.fromkeys(snap.visible_files().get(bucket, [])))

    # step 1: winning version (lsn, op, file) from the key columns only
    key_schema = pa.schema([("repo", pa.string()), ("path", pa.string()),
                            ("lsn", pa.int64()), ("op", pa.string())])
    is_key = (pds.field("repo") == repo) & (pds.field("path") == path)
    scan = pds.dataset(files, schema=key_schema, format="parquet").scanner(
        columns=["lsn", "op"], filter=is_key)
    best: tuple[int, str, str] | None = None
    for tb in scan.scan_batches():
        b = tb.record_batch
        if b.num_rows == 0:
            continue
        lsns = b["lsn"].to_numpy()
        i = int(np.argmax(lsns))
        if best is None or lsns[i] > best[0]:
            best = (int(lsns[i]), b["op"][i].as_py(), tb.fragment.path)
    if best is None or best[1] == "D":
        return None

    # step 2: the full row, from the winning file only
    lsn, _, winner = best
    t = pq.read_table(winner, filters=[("repo", "=", repo),
                                       ("path", "=", path),
                                       ("lsn", "=", lsn)])
    row_schema = pa.schema(
        list(snap.schema)
        + [pa.field("lsn", pa.int64()),
           pa.field("content_sha256", pa.string())])
    return schema_mod.conform(t.slice(0, 1), row_schema).to_pylist()[0]


def changes_between(lake_dir: str, from_epoch: int,
                    to_epoch: int) -> "ray.data.Dataset":
    """CDC CHANGE FEED: the net per-key change between two checkpoints.

    Reads ONLY the delta files of WAL epochs in (from_epoch, to_epoch]
    (manifest-pruned — no full-lake scan) and resolves each bucket's
    deltas in ``bucket_tasks``, keeping tombstones: one row per
    changed key with ``op`` = upsert after-image ("I"/"U", payload as of
    to_epoch) or "D", plus the deciding ``lsn``. Applying the feed to
    the as-of-from_epoch state reproduces the as-of-to_epoch state
    exactly (tested) — the engine is therefore both a CDC consumer and
    a CDC producer for downstream incremental pipelines.
    """
    snap = mf.snapshot(lake_dir, to_epoch)
    refs = bucket_tasks(snap, snap.change_files(from_epoch),
                        keep_deletes=True)
    return dataset(refs, pa.schema([
        ("repo", pa.string()), ("path", pa.string()), ("op", pa.string()),
        ("lsn", pa.int64())]))


def audit_lake(lake_dir: str, verify_content: bool = False) -> dict:
    """AUDIT SCAN: re-verify the lake's committed checksums against the
    bytes actually on disk (the eemeter-style audit step, turned on the
    lake itself).

    A re-read of every visible data file, one task per slot, recomputes
    the GLOBAL xor of content-sha256 prefixes and the total row count
    and compares them against the same quantities folded from the committed
    per-bucket manifest entries (xor is position-invariant, so a range
    fragment serving several bucket entries is read once and still
    checks against all of them; any bit rot, truncation or tampering
    flips the global xor). With ``verify_content=True`` the scan also
    re-hashes ``content`` and counts rows whose stored
    ``content_sha256`` no longer matches (a full integrity pass instead
    of trusting stored hashes).
    """
    snap = mf.snapshot(lake_dir)
    empty = {"rows_expected": 0, "rows_scanned": 0, "checksum_ok": True,
             "content_mismatches": 0}
    if snap.last is None:
        return empty

    # expected global (xor of entry checksums, sum of rows) over the
    # same visible entries the readers merge, and their files
    exp_xor, exp_rows, files = 0, 0, {}
    for es in snap.visible.values():
        for e in es:
            exp_xor ^= int(e["checksum"], 16)
            exp_rows += e["n_rows"]
            files.update(dict.fromkeys(mf.entry_files(lake_dir, e)))
    if not files:
        return {**empty, "rows_expected": exp_rows,
                "checksum_ok": exp_rows == 0}

    cols = ["content_sha256"] + (["content"] if verify_content else [])

    def _scan(paths: list[str]) -> tuple[int, int, int]:
        xor, n, bad = np.uint64(0), 0, 0
        for p in paths:
            t = pq.read_table(p, columns=cols)
            stored = t["content_sha256"]
            xor ^= np.bitwise_xor.reduce(sha_prefix64(stored))
            n += len(t)
            if verify_content:
                sha, _ = sha256_hex_with_prefix(t["content"])
                # a null on one side only is a mismatch too
                bad += pc.sum(pc.coalesce(
                    pc.not_equal(sha, stored),
                    pc.not_equal(pc.is_null(sha), pc.is_null(stored)))
                ).as_py() or 0
        return int(xor), n, bad

    # one task per slot, over an equal share of the files
    paths = list(files)
    k = min(len(paths), task_slots())
    got = run_tasks(_scan, [(paths[i::k],) for i in range(k)])
    got_xor = int(np.bitwise_xor.reduce(
        np.array([x for x, _, _ in got], np.uint64)))
    rows = sum(n for _, n, _ in got)
    return {
        "rows_expected": exp_rows,
        "rows_scanned": rows,
        "checksum_ok": got_xor == exp_xor and rows == exp_rows,
        "content_mismatches": sum(b for _, _, b in got),
    }


def vacuum(lake_dir: str) -> dict:
    """Garbage-collect data files no committed manifest references.

    Removes (a) pre-base delta files made invisible by a compaction
    base, (b) orphan fragments from crashed runs whose epoch was never
    committed, and (c) stale ``*.tmp.*`` files from interrupted atomic
    writes. Safe because readers only ever open files listed in
    committed manifests (mf.committed_files) and a resumed replay
    deterministically rewrites any uncommitted epoch's fragments under
    the same content-addressed names. Like Delta VACUUM, it must not
    run concurrently with an active writer (an in-flight epoch's
    phase-1 files are not yet referenced). Returns deletion counts.
    """
    referenced = {os.path.abspath(p) for p in mf.committed_files(lake_dir)}
    data_root = os.path.join(lake_dir, mf.DATA_DIR)
    n_data = n_tmp = 0
    for root, _, names in os.walk(data_root):
        for name in names:
            p = os.path.abspath(os.path.join(root, name))
            if ".tmp." in name:
                os.unlink(p)
                n_tmp += 1
            elif name.endswith(".parquet") and p not in referenced:
                os.unlink(p)
                n_data += 1
    return {"deleted_data_files": n_data, "deleted_tmp_files": n_tmp,
            "live_files": len(referenced)}


def compact(lake_dir: str, buckets: list[int] | None = None) -> int:
    """Rewrite lake data to one resolved base file per bucket.

    ``buckets=None`` compacts the whole lake (FULL base manifest:
    readers then ignore all earlier manifests). ``buckets=[...]``
    compacts only those buckets (PARTIAL base), with the target set
    first CLOSED over shared range-fragment files: a file is rewritten
    only if every bucket it serves is being compacted, so every row of
    a visible file still belongs to a visible entry (``audit_lake`` and
    ``vacuum`` rely on it).

    Each target bucket is one ``bucket_tasks`` task: it resolves the
    bucket's visible files, writes the bucket's base file and returns
    its entry — no rows cross tasks. Base rows carry
    lsn=0 / op="I" (any later event out-lives them under LWW),
    tombstones are dropped, and entries carry n_events=0 (rewrites, not
    WAL events — lineage event sums stay equal to the WAL count).
    Returns the compacted live-row count. A commit that lands between
    the snapshot and the base makes it raise (``manifest.commit_base``).
    """
    return compact_snapshot(mf.snapshot(lake_dir), buckets)[1]


def auto_compact(snap: mf.Snapshot, threshold: int) -> mf.Snapshot | None:
    """Compact only the buckets with more than ``threshold`` live files;
    the snapshot after the base, or None if no bucket is over."""
    over = [k for k, fs in snap.visible_files().items()
            if len(set(fs)) > threshold]
    return compact_snapshot(snap, over)[0] if over else None


def compact_snapshot(snap: mf.Snapshot, buckets: list[int] | None = None
                     ) -> tuple[mf.Snapshot, int]:
    """``compact`` on ``snap``: (the snapshot after, live-row count)."""
    if snap.last is None:
        return snap, 0
    lake_dir, seq = snap.lake_dir, snap.seq + 1
    vis = snap.visible_files()

    targets: set[int] | None = None
    if buckets is not None:
        owners: dict[str, set[int]] = {}
        for k, fs in vis.items():
            for f in fs:
                owners.setdefault(f, set()).add(k)
        targets = set(buckets)
        while True:  # closure over shared range-fragment files
            grown = set().union(targets, *(owners[f] for k in targets
                                           for f in vis.get(k, [])))
            if grown == targets:
                break
            targets = grown
        vis = {k: vis.get(k, []) for k in targets}
        if not any(vis.values()):
            return snap, 0

    def _write_base(bucket: int, t: pa.Table) -> tuple[int, dict]:
        n = len(t)
        rel = os.path.join(mf.DATA_DIR, f"bucket={bucket}",
                           f"base-{seq}.parquet")
        if n:
            base = (t.drop_columns(["content_sha256"])
                    .append_column("lsn", pa.array(np.zeros(n, np.int64)))
                    .append_column("op", pa.array(["I"] * n, pa.string()))
                    .append_column("content_sha256", t["content_sha256"]))
            path = os.path.join(lake_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _atomic_write(base, path)
        checksum = int(np.bitwise_xor.reduce(
            sha_prefix64(t["content_sha256"])))
        return bucket, mf.entry(files=[rel], lsn_min=0, lsn_max=0,
                                n_rows=n, checksum=f"{checksum:016x}")

    # a bucket left without live rows wrote no file: it gets the empty
    # covered-bucket entry below
    partitions = {k: e for k, e in ray.get(bucket_tasks(
        snap, vis, None, _write_base)) if e["n_rows"]}
    n_live = sum(e["n_rows"] for e in partitions.values())
    # every covered bucket carries its high-watermark forward, so
    # resume-after-compact still fences; one left without live rows (all
    # deleted, or none in the subset) gets an empty entry: files reset
    for p in (set(snap.hwm) if targets is None else targets):
        partitions.setdefault(p, mf.entry())["hwm"] = snap.hwm.get(p, -1)
    return (mf.commit_base(snap, partitions, partial=targets is not None),
            int(n_live))
