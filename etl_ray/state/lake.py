"""Merge-on-read lake scan + compaction (SURVEY.md §2.1 S4).

The lake's committed state is the set of delta files listed in committed
manifests. A scan resolves last-writer-wins per key across all deltas:
group rows by (unsalted) key-hash partition and keep, per (repo, path),
the row with the max lsn, dropping delete tombstones.

Partitioning note (documented assumption): the resolve groupby uses a
recomputed ``upid = hash64(repo,path) % P`` — *unsalted*, so a key whose
epoch writes were salted across partitions still lands in exactly one
resolve group. The shuffle moves each delta file's rows once.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from etl_ray.state import manifest as mf
from etl_ray.state import schema as schema_mod
from etl_ray.state.merge import KEY_COLS
from etl_ray.util import (add_pid_column, key_hash64, lww_keep_indices,
                          take_runs)


def _resolve_group(group: pa.Table, keep_deletes: bool = False) -> pa.Table:
    """Within one key-hash partition: per-key max-lsn row; tombstones
    dropped (state read) or kept (change feed).

    Hash-keyed exact LWW (util.lww_keep_indices); the resolve must emit
    exactly one row per key, so the pathological mixed-hash-run case
    falls back to the string-keyed duplicated() path.
    """
    lsn = group["lsn"].to_numpy()
    kh = key_hash64(group, KEY_COLS)
    keep, mixed = lww_keep_indices(kh, lsn, group.select(KEY_COLS))
    if mixed:  # two distinct keys share a 64-bit hash in this partition
        order = np.argsort(-lsn, kind="stable")
        df = group.select(KEY_COLS).to_pandas()
        keep_m = ~df.iloc[order].duplicated().to_numpy()
        keep = np.sort(order[keep_m])
    latest = take_runs(group, keep)  # keep is ascending — run gather
    if keep_deletes:
        return latest.drop_columns(["upid"])
    live = latest.filter(pc.not_equal(latest["op"], "D"))
    return live.drop_columns(["upid", "lsn", "op"])


def read_lake(lake_dir: str, num_partitions: int | None = None,
              keep_sha: bool = True,
              columns: list[str] | None = None,
              as_of_epoch: int | None = None,
              _files: list[str] | None = None,
              _keep_deletes: bool = False) -> "ray.data.Dataset":
    """Scan the converged state of the lake (merge-on-read).

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
    """
    files = (_files if _files is not None
             else mf.committed_files(lake_dir, as_of_epoch=as_of_epoch))
    man = (mf.last_manifest(lake_dir) if as_of_epoch is None
           else mf.manifest_as_of(lake_dir, as_of_epoch))
    schema = (None if man is None
              else schema_mod.from_b64(man["schema_b64"]))
    if not files or schema is None:
        return ray.data.from_arrow(
            pa.Table.from_pylist([], schema=schema or pa.schema([])))
    P = num_partitions or man["num_partitions"]

    lake_schema = schema
    if columns is not None:
        unknown = set(columns) - set(schema.names)
        if unknown:
            raise KeyError(
                f"unknown lake columns {sorted(unknown)}; "
                f"schema has {schema.names}")
        schema = pa.schema([f for f in schema
                            if f.name in set(columns) | set(KEY_COLS)])
    full = pa.schema(list(schema) + [pa.field("lsn", pa.int64()),
                                     pa.field("op", pa.string()),
                                     pa.field("content_sha256", pa.string())])

    def _conform(t: pa.Table) -> pa.Table:
        t = schema_mod.conform(t, full)
        return add_pid_column(t, KEY_COLS, P, pid_col="upid")

    read_cols = None if columns is None else list(
        dict.fromkeys([*KEY_COLS, *columns, "lsn", "op", "content_sha256"]))
    # passing the unified schema (projected to the read columns) makes
    # the scan evolution-safe: delta files written before an add-column
    # gain the column as nulls instead of failing the projection
    by_name = {f.name: f for f in lake_schema}
    by_name.update({"lsn": pa.field("lsn", pa.int64()),
                    "op": pa.field("op", pa.string()),
                    "content_sha256": pa.field("content_sha256", pa.string())})
    read_schema = pa.schema([by_name[c] for c in
                             (read_cols if read_cols is not None else by_name)])
    ds = ray.data.read_parquet(files, columns=read_cols, schema=read_schema)
    ds = ds.map_batches(_conform, batch_format="pyarrow")
    out = ds.groupby("upid").map_groups(
        lambda g: _resolve_group(g, keep_deletes=_keep_deletes),
        batch_format="pyarrow")
    if not keep_sha:
        out = out.drop_columns(["content_sha256"])
    return out


def lookup(lake_dir: str, repo: str, path: str) -> dict | None:
    """POINT LOOKUP of one (repo, path) key — no lake scan.

    The manifest prunes the file set: the key's bucket plus its salt
    span (same hash routing the writers used) selects only the entries
    covering those buckets. The data read then costs

    1. ONE key-column scan of all candidate files: a single
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
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    from etl_ray.state.merge import SALT_FACTOR

    man = mf.last_manifest(lake_dir)
    if man is None:
        return None
    # the candidate-bucket probe below replays PERSISTED routing — a
    # lake written under another key-hash version would silently return
    # None / stale rows, so fence at read time too (ADVICE r3)
    mf.check_key_hash(lake_dir)
    P = man["num_partitions"]
    mode = mf.lake_mode(lake_dir) or "sorted"
    kh = int(key_hash64(pa.table({"repo": pa.array([repo]),
                                  "path": pa.array([path])}), KEY_COLS)[0])
    # candidate partition keys: the key's own pid PLUS its salt span (a
    # hot epoch may have routed some of its events to salted pids)
    cand = {(kh + s) % P for s in range(SALT_FACTOR)}
    if mode == "direct":
        nb = man.get("num_buckets", max(1, P // 8))
        cand = {p * nb // P for p in cand}

    # manifest-pruned file set: only files visible for candidate keys
    # (visible_entry_files handles full AND partial compaction bases)
    vis = mf.visible_entry_files(lake_dir)
    files = list(dict.fromkeys(
        f for k in sorted(cand) for f in vis.get(k, [])))

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
        list(schema_mod.from_b64(man["schema_b64"]))
        + [pa.field("lsn", pa.int64()),
           pa.field("content_sha256", pa.string())])
    return schema_mod.conform(t.slice(0, 1), row_schema).to_pylist()[0]


def changes_between(lake_dir: str, from_epoch: int,
                    to_epoch: int) -> "ray.data.Dataset":
    """CDC CHANGE FEED: the net per-key change between two checkpoints.

    Reads ONLY the delta files of WAL epochs in (from_epoch, to_epoch]
    (manifest-pruned — no full-lake scan) and resolves max-lsn per key
    across them, keeping tombstones: one row per changed key with
    ``op`` = upsert after-image ("I"/"U", payload as of to_epoch) or
    "D", plus the deciding ``lsn``. Applying the feed to the
    as-of-from_epoch state reproduces the as-of-to_epoch state exactly
    (tested) — the engine is therefore both a CDC consumer and a CDC
    producer for downstream incremental pipelines.
    """
    mf.check_key_hash(lake_dir)  # defensive read-side version fence
    files = mf.change_files(lake_dir, from_epoch, to_epoch)
    man = mf.manifest_as_of(lake_dir, to_epoch)
    if not files or man is None:
        return ray.data.from_arrow(pa.Table.from_pylist(
            [], schema=pa.schema([("repo", pa.string()),
                                  ("path", pa.string()),
                                  ("op", pa.string()),
                                  ("lsn", pa.int64())])))
    schema = schema_mod.from_b64(man["schema_b64"])
    P = man["num_partitions"]
    full = pa.schema(list(schema) + [pa.field("lsn", pa.int64()),
                                     pa.field("op", pa.string()),
                                     pa.field("content_sha256", pa.string())])

    def _conform(t: pa.Table) -> pa.Table:
        t = schema_mod.conform(t, full)
        return add_pid_column(t, KEY_COLS, P, pid_col="upid")

    ds = ray.data.read_parquet(files, schema=full)
    ds = ds.map_batches(_conform, batch_format="pyarrow")
    return ds.groupby("upid").map_groups(
        lambda g: _resolve_group(g, keep_deletes=True),
        batch_format="pyarrow")


def audit_lake(lake_dir: str, verify_content: bool = False) -> dict:
    """AUDIT SCAN: re-verify the lake's committed checksums against the
    bytes actually on disk (the eemeter-style audit step, turned on the
    lake itself).

    A distributed re-read of every visible delta file recomputes the
    GLOBAL xor of content-sha256 prefixes and the total row count and
    compares them against the same quantities folded from the committed
    manifest entries (xor is position-invariant, so hot-key salting —
    which makes a row's written bucket non-recomputable from its key —
    cannot blind the check; any bit rot, truncation or tampering flips
    the global xor). With ``verify_content=True`` the scan also
    re-hashes ``content`` and counts rows whose stored
    ``content_sha256`` no longer matches (a full integrity pass instead
    of trusting stored hashes).
    """
    from etl_ray.util import sha256_hex_with_prefix

    vis = mf.visible_entry_files(lake_dir)
    man = mf.last_manifest(lake_dir)
    empty = {"rows_expected": 0, "rows_scanned": 0, "checksum_ok": True,
             "content_mismatches": 0}
    if man is None:
        return empty

    # expected global (xor of entry checksums, sum of rows) — same
    # per-key visibility walk as the readers, then folded
    state: dict[int, tuple[int, int]] = {}
    for seq in mf.committed_epochs(lake_dir):
        m = mf.read_manifest(lake_dir, seq)
        if m.get("base"):
            if m.get("partial"):
                for k_s in m["partitions"]:
                    state[int(k_s)] = (0, 0)
            else:
                state = {}
        for k_s, e in m["partitions"].items():
            k = int(k_s)
            cs, nr = state.get(k, (0, 0))
            state[k] = (cs ^ int(e["checksum"], 16), nr + e["n_rows"])
    exp_xor, exp_rows = 0, 0
    for k in vis:
        cs, nr = state.get(k, (0, 0))
        exp_xor ^= cs
        exp_rows += nr

    files = list(dict.fromkeys(f for fs in vis.values() for f in fs))
    if not files:
        return {**empty, "rows_expected": exp_rows,
                "checksum_ok": exp_rows == 0}

    def _scan(t: pa.Table) -> pa.Table:
        pre = np.array([int(s[:16], 16) if s is not None else 0
                        for s in t["content_sha256"].to_pylist()],
                       dtype=np.uint64)
        bad = 0
        if verify_content:
            sha, _ = sha256_hex_with_prefix(t["content"])
            bad = sum(1 for a, b in zip(sha.to_pylist(),
                                        t["content_sha256"].to_pylist())
                      if a != b)
        x = (np.bitwise_xor.reduce(pre) if len(pre) else np.uint64(0))
        return pa.table({
            # signed VIEW of the uint64 xor (int64 column type)
            "xor": pa.array([int(np.uint64(x).astype(np.int64))], pa.int64()),
            "n": pa.array([len(t)], pa.int64()),
            "bad_content": pa.array([bad], pa.int64()),
        })

    ds = ray.data.read_parquet(
        files, columns=["content_sha256"]
        + (["content"] if verify_content else []))
    got = ds.map_batches(_scan, batch_format="pyarrow").to_pandas()
    got_xor = 0
    for x in got.xor:
        got_xor ^= int(x) & 0xFFFFFFFFFFFFFFFF
    rows = int(got.n.sum())
    return {
        "rows_expected": exp_rows,
        "rows_scanned": rows,
        "checksum_ok": got_xor == exp_xor and rows == exp_rows,
        "content_mismatches": int(got.bad_content.sum()),
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
    import os

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
    """Rewrite lake data to one resolved base file per partition key.

    ``buckets=None`` compacts the whole lake (FULL base manifest:
    readers then ignore all earlier manifests); base rows carry lsn=0 /
    op="I" (everything else is reset, so any later event out-lives them
    under LWW) and tombstones are dropped. ``buckets=[...]`` compacts
    only those keys (PARTIAL base), with the target set CLOSED twice
    before anything is rewritten:

    1. over shared range-fragment files (a file is rewritten only if
       every key it serves is being compacted), and
    2. over the NATURAL bucket of every row found in those files — a
       hot-key-salted event lives under bucket(hash+salt) but its base
       row must land in (and therefore reset) bucket(hash); without
       this closure a partial base for a salted bucket would reset a
       bucket whose deltas were never read, silently losing every
       other key in it (a cheap key-columns-only distributed scan of
       the candidate files drives the expansion to a fixpoint).

    Partial-base rows additionally keep their REAL lsn/op — including
    delete tombstones: a compacted key may still have salted rows in
    un-compacted buckets, and only true lsns let merge-on-read resolve
    those leftovers correctly (lsn=0 would resurrect them; a dropped
    tombstone would resurrect an older salted upsert).

    Either way the base PRESERVES the lake's ingest keying (bucket-
    keyed for direct, pid-keyed for sorted) and n_events=0 (rewrites,
    not WAL events — lineage event sums stay equal to the WAL count).
    Returns the compacted live-row count.
    """
    import os

    man = mf.last_manifest(lake_dir)
    if man is None:
        return 0
    # compaction re-buckets rows with THIS build's key hash and carries
    # hwm/covered keys from the persisted manifests — version-mixed
    # routing would commit a base that loses keys; fence first
    mf.check_key_hash(lake_dir)
    schema = mf.current_schema(lake_dir)
    P = man["num_partitions"]
    mode = mf.lake_mode(lake_dir) or "sorted"
    num_buckets = man.get("num_buckets")
    seq = mf.last_committed(lake_dir) + 1
    schema_b64 = schema_mod.to_b64(schema)

    def _bkey(t: pa.Table) -> pa.Table:
        t = add_pid_column(t, KEY_COLS, P, pid_col="_bkey")
        if mode == "direct" and num_buckets:
            b = (t["_bkey"].to_numpy().astype(np.int64)
                 * num_buckets // P).astype(np.int32)
            t = t.set_column(t.schema.get_field_index("_bkey"), "_bkey",
                             pa.array(b, pa.int32()))
        return t

    def _natural_keys(files: list[str]) -> set[int]:
        """Distinct natural entry-keys of the rows in ``files`` — a
        key-columns-only distributed scan (per-block distinct, tiny
        driver merge)."""

        def _d(t: pa.Table) -> pa.Table:
            b = _bkey(t)["_bkey"].to_numpy()
            return pa.table({"k": pa.array(np.unique(b), pa.int32())})

        ds = ray.data.read_parquet(files, columns=list(KEY_COLS))
        return {r["k"] for r in
                ds.map_batches(_d, batch_format="pyarrow").take_all()}

    subset_files: list[str] | None = None
    targets: set[int] | None = None
    if buckets is not None:
        vis = mf.visible_entry_files(lake_dir)
        owners: dict[str, set[int]] = {}
        for k, fs in vis.items():
            for f in fs:
                owners.setdefault(f, set()).add(k)
        targets = set(buckets)
        while True:
            while True:  # closure 1: shared range-fragment files
                grown = set().union(*(owners[f] for k in targets
                                      for f in vis.get(k, [])), targets) \
                    if any(vis.get(k) for k in targets) else targets
                if grown == targets:
                    break
                targets = grown
            subset_files = list(dict.fromkeys(
                f for k in sorted(targets) for f in vis.get(k, [])))
            if not subset_files:
                return 0
            # closure 2: natural buckets of salted rows (see docstring)
            extra = _natural_keys(subset_files) - targets
            if not extra:
                break
            targets |= extra

    is_partial = targets is not None

    def _write_base(group: pa.Table) -> pa.Table:
        schema_l = schema_mod.from_b64(schema_b64)
        key = int(group["_bkey"][0].as_py())
        g0 = group.drop_columns(["_bkey"])
        if is_partial:  # real lsn/op survive the conform, re-appended
            lsn_arr = g0["lsn"].combine_chunks()
            op_arr = g0["op"].combine_chunks()
        g = schema_mod.conform(
            g0.drop_columns([c for c in g0.column_names
                             if c not in schema_l.names
                             and c != "content_sha256"]), schema_l)
        if is_partial:
            g = g.append_column("lsn", lsn_arr)
            g = g.append_column("op", op_arr)
        else:
            g = g.append_column("lsn", pa.array(np.zeros(len(g), np.int64)))
            g = g.append_column("op", pa.array(["I"] * len(g), pa.string()))
        g = g.append_column("content_sha256", group["content_sha256"])
        checksum = 0
        for sh in g["content_sha256"].to_pylist():
            if sh is not None:
                checksum ^= int(sh[:16], 16)
        lsn_np = g["lsn"].to_numpy()
        n_tomb = int(pc.sum(pc.cast(pc.equal(g["op"], "D"),
                                    pa.int64())).as_py() or 0)
        sub = f"bucket={key}" if mode == "direct" else f"pid={key}"
        rel = os.path.join(mf.DATA_DIR, sub, f"base-{seq}.parquet")
        path = os.path.join(lake_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        from etl_ray.state.merge import _atomic_write

        _atomic_write(g, path)
        return pa.table({
            "pid": pa.array([key], pa.int32()),
            "files": pa.array([[rel]], pa.list_(pa.string())),
            "lsn_min": pa.array([int(lsn_np.min())], pa.int64()),
            "lsn_max": pa.array([int(lsn_np.max())], pa.int64()),
            "n_events": pa.array([0], pa.int64()),
            "n_upserts": pa.array([0], pa.int64()),
            # retained tombstones (partial bases only; lineage-neutral
            # like the rest of the rewrite counts)
            "n_deletes": pa.array([n_tomb], pa.int64()),
            "n_rows": pa.array([len(g)], pa.int64()),
            "n_quarantined": pa.array([0], pa.int64()),
            "checksum": pa.array([f"{checksum:016x}"], pa.string()),
            "hwm": pa.array([-1], pa.int64()),
        })

    resolved = read_lake(lake_dir, _files=subset_files,
                         _keep_deletes=is_partial)
    entries = (resolved.map_batches(_bkey, batch_format="pyarrow")
               .groupby("_bkey").map_groups(_write_base,
                                            batch_format="pyarrow"))
    rows = entries.take_all()
    partitions = {int(r["pid"]): {k: r[k] for k in r if k != "pid"}
                  for r in rows}
    if targets is not None:
        stray = set(partitions) - targets
        if stray:  # closure 2 guarantees this never happens
            raise RuntimeError(
                "partial compaction produced base entries for keys "
                f"{sorted(stray)} outside the closed target set "
                f"{sorted(targets)} — committing would reset un-rewritten "
                "buckets and lose their deltas")
    n_live = sum(e["n_rows"] - e["n_deletes"] for e in partitions.values())
    # carry forward high-watermarks so resume-after-compact still fences
    hwm = mf.high_watermarks(lake_dir)
    for p, e in partitions.items():
        e["hwm"] = max(e["hwm"], hwm.get(p, -1))
    # covered keys that became empty (all rows deleted or no rows in
    # the subset) still need their hwm carried / files reset
    covered = (set(hwm) if targets is None else targets)
    for p in covered:
        if p not in partitions:
            partitions[p] = {
                "files": [], "lsn_min": -1, "lsn_max": -1, "n_events": 0,
                "n_upserts": 0, "n_deletes": 0, "n_rows": 0,
                "n_quarantined": 0, "checksum": "0" * 16,
                "hwm": hwm.get(p, -1),
            }
    mf.commit_base(lake_dir, schema, partitions, P, mode, num_buckets,
                   partial=targets is not None)
    return int(n_live)
