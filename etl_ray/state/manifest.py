"""Per-epoch transaction manifest log — the exactly-once commit point.

Layout (BASELINE.json:6 "per-partition transaction manifests plus
monotonic epoch fencing"; design after the Delta Lake transaction log,
PAPERS.md):

    lake_dir/
      data/bucket=<b>/epoch=<k>-b<lo>-<hi>-<digest>.parquet
                                        fragment files (phase 1); one
                                        file may serve buckets lo..hi
      data/bucket=<b>/base-<n>.parquet  compaction base of bucket b
      _manifests/epoch=<n>.json         commit records (phase 2, atomic)

A manifest records, per bucket: the fragment files, lsn offset range,
row/upsert/delete counts, a checksum (xor of row content-sha256
prefixes) and the bucket's new lsn high-watermark — the lineage
record mandated by BASELINE.json:6. The commit is a single
``os.replace`` of a temp file → atomic on POSIX.

Manifest SEQUENCE (the ``epoch=<n>`` in the filename) is decoupled from
the WAL epoch a manifest commits: WAL commits and compaction BASE
manifests share one monotonic log, and every doc carries ``epoch`` (the
WAL epoch it covers — a base carries the last WAL epoch forward),
``num_partitions`` and ``num_buckets``. Resume therefore reads
``last_wal_epoch``, never the raw sequence.

Fencing rules:
  * WAL epochs commit in strictly increasing order (monotonic fence);
  * committing an epoch <= the last committed one is a no-op (idempotent
    replay) — never a rewrite;
  * a data file for an uncommitted epoch is invisible to readers (they
    only read files listed in committed manifests), so a crash between
    phase 1 and phase 2 leaves no partial state.
"""

from __future__ import annotations

import json
import os
import tempfile

import pyarrow as pa

from etl_ray.state import schema as schema_mod
from etl_ray.util import KEY_HASH_VERSION

MANIFEST_DIR = "_manifests"
DATA_DIR = "data"


class EpochFencingError(RuntimeError):
    pass


def _mdir(lake_dir: str) -> str:
    return os.path.join(lake_dir, MANIFEST_DIR)


def manifest_path(lake_dir: str, epoch: int) -> str:
    return os.path.join(_mdir(lake_dir), f"epoch={epoch}.json")


def committed_epochs(lake_dir: str) -> list[int]:
    d = _mdir(lake_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for name in os.listdir(d):
        if name.startswith("epoch=") and name.endswith(".json"):
            out.append(int(name[len("epoch="):-len(".json")]))
    return sorted(out)


def last_committed(lake_dir: str) -> int:
    """Last committed manifest SEQUENCE number (not the WAL epoch)."""
    eps = committed_epochs(lake_dir)
    return eps[-1] if eps else -1


def read_manifest(lake_dir: str, seq: int) -> dict:
    with open(manifest_path(lake_dir, seq)) as f:
        return json.load(f)


def last_manifest(lake_dir: str) -> dict | None:
    last = last_committed(lake_dir)
    return None if last < 0 else read_manifest(lake_dir, last)


def last_wal_epoch(lake_dir: str) -> int:
    """The last WAL epoch applied to the lake (bases carry it forward).
    This — not the manifest sequence — is the replay resume point."""
    man = last_manifest(lake_dir)
    return -1 if man is None else man.get("epoch", -1)


def lake_mode(lake_dir: str) -> str | None:
    """Ingest keying of the lake: always "direct" (bucket-keyed
    fragments), or None before the first commit."""
    return None if last_manifest(lake_dir) is None else "direct"


def current_schema(lake_dir: str) -> pa.Schema | None:
    """The unified schema as of the last committed epoch."""
    man = last_manifest(lake_dir)
    return None if man is None else schema_mod.from_b64(man["schema_b64"])


def manifest_as_of(lake_dir: str, epoch: int) -> dict | None:
    """The newest committed manifest covering WAL epochs ≤ ``epoch``
    (time-travel anchor: its schema and partitioning are the lake's
    state as of that epoch)."""
    out = None
    for seq in committed_epochs(lake_dir):
        m = read_manifest(lake_dir, seq)
        if m.get("epoch", -1) <= epoch:
            out = m
    return out


def high_watermarks(lake_dir: str) -> dict[int, int]:
    """bucket → max committed lsn across all committed manifests
    (A3 dedup index; bases carry each bucket's watermark forward)."""
    hwm: dict[int, int] = {}
    for ep in committed_epochs(lake_dir):
        for pid_s, entry in read_manifest(lake_dir, ep)["partitions"].items():
            pid = int(pid_s)
            hwm[pid] = max(hwm.get(pid, -1), entry["hwm"])
    return hwm


def live_file_counts(lake_dir: str) -> dict[int, int]:
    """bucket → number of distinct data files a reader must merge —
    the read-amplification signal that schedules compaction."""
    return {k: len(dict.fromkeys(fs)) for k, fs in
            visible_entry_files(lake_dir).items() if fs}


def merge_entry_rows(rows: list[dict]) -> dict:
    """Combine several fragment-writer entry rows for one (epoch, bucket)
    into a single manifest partition entry (files concat, lsn range
    union, count sums, checksum xor)."""
    out = {
        "files": [f for r in rows for f in r["files"]],
        "lsn_min": min((r["lsn_min"] for r in rows if r["lsn_min"] >= 0),
                       default=-1),
        "lsn_max": max(r["lsn_max"] for r in rows),
        "n_events": sum(r["n_events"] for r in rows),
        "n_upserts": sum(r["n_upserts"] for r in rows),
        "n_deletes": sum(r["n_deletes"] for r in rows),
        "n_rows": sum(r["n_rows"] for r in rows),
        "n_quarantined": sum(r["n_quarantined"] for r in rows),
        "hwm": max(r["hwm"] for r in rows),
    }
    checksum = 0
    for r in rows:
        checksum ^= int(r["checksum"], 16)
    out["checksum"] = f"{checksum:016x}"
    return out


def _write_doc(lake_dir: str, seq: int, doc: dict) -> None:
    os.makedirs(_mdir(lake_dir), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=_mdir(lake_dir), suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(doc, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, manifest_path(lake_dir, seq))  # atomic commit point


def commit_epoch(lake_dir: str, epoch: int, schema: pa.Schema,
                 partitions: dict[int, dict], num_partitions: int,
                 num_buckets: int | None = None) -> bool:
    """Phase-2 commit of one WAL epoch. Returns True if committed,
    False if it already was.

    Raises EpochFencingError on out-of-order commits (epoch gaps or a
    stale writer racing ahead of the log).
    """
    last_wal = last_wal_epoch(lake_dir)
    if epoch <= last_wal:
        return False  # idempotent replay of an already-committed epoch
    if epoch != last_wal + 1:
        raise EpochFencingError(
            f"cannot commit epoch {epoch}: last committed is {last_wal} "
            "(epochs are fenced to commit monotonically, no gaps)")
    check_key_hash(lake_dir)
    doc = {
        "epoch": epoch,
        "num_partitions": num_partitions,
        "num_buckets": num_buckets,
        "key_hash_version": KEY_HASH_VERSION,
        "schema_b64": schema_mod.to_b64(schema),
        "partitions": {str(p): e for p, e in sorted(partitions.items())},
    }
    _write_doc(lake_dir, last_committed(lake_dir) + 1, doc)
    return True


def commit_entry_rows(lake_dir: str, epochs: list[int], rows: list[dict],
                      schema: pa.Schema, num_partitions: int,
                      num_buckets: int) -> dict[int, dict[int, dict]]:
    """Phase-2 commit of fragment-writer entry rows: for each epoch in
    ascending order, merge each bucket's rows into one partition entry
    and commit the epoch (fenced; an epoch without rows commits empty).
    Returns epoch → the partitions it committed, in commit order."""
    out = {}
    for k in sorted(epochs):
        by_bucket: dict[int, list[dict]] = {}
        for r in rows:
            if int(r["epoch"]) == k:
                by_bucket.setdefault(int(r["pid"]), []).append(r)
        partitions = {b: merge_entry_rows(rs) for b, rs in by_bucket.items()}
        commit_epoch(lake_dir, k, schema, partitions, num_partitions,
                     num_buckets)
        out[k] = partitions
    return out


def check_key_hash(lake_dir: str) -> None:
    """Partition routing (pid/bucket per key) is persisted in the
    manifest log; mixing manifests written under different key-hash
    functions silently misroutes keys, so refuse loudly. Enforced on
    BOTH sides: commits (commit_epoch / commit_base) and every read
    path that consumes persisted routing — lookup's bucket probe and
    every ``lake._resolve_bucket`` caller (read_lake, the change feed,
    compaction, export), whose per-bucket row filter keeps only the
    rows this build's hash routes to the bucket. The version also
    fences layout changes: lakes written before v3 may hold hot-key
    rows outside their key's bucket."""
    man = last_manifest(lake_dir)
    if man is None:
        return
    ver = man.get("key_hash_version", 1)
    if ver != KEY_HASH_VERSION:
        raise RuntimeError(
            f"lake at {lake_dir} was written with key_hash_version={ver}; "
            f"this build routes keys with version {KEY_HASH_VERSION} — "
            "fully compact/rewrite the lake before extending it")


def commit_base(lake_dir: str, schema: pa.Schema, partitions: dict[int, dict],
                num_partitions: int, num_buckets: int,
                partial: bool = False) -> int:
    """Commit a compaction BASE manifest. A full base replaces all
    earlier manifests for readers; a PARTIAL base replaces only the
    visible files of the buckets it covers (bucket-subset compaction).
    Carries the last WAL epoch forward so resume and fencing are
    unaffected. Returns its sequence."""
    check_key_hash(lake_dir)
    seq = last_committed(lake_dir) + 1
    doc = {
        "epoch": last_wal_epoch(lake_dir),
        "num_partitions": num_partitions,
        "num_buckets": num_buckets,
        "base": True,
        "key_hash_version": KEY_HASH_VERSION,
        "schema_b64": schema_mod.to_b64(schema),
        "partitions": {str(p): e for p, e in sorted(partitions.items())},
    }
    if partial:
        doc["partial"] = True
    _write_doc(lake_dir, seq, doc)
    return seq


def entry_files(lake_dir: str, entry: dict) -> list[str]:
    """Absolute paths of one manifest entry's data files (none if the
    entry holds no rows)."""
    if entry["n_rows"] <= 0:
        return []
    return [os.path.join(lake_dir, rel) for rel in entry["files"]]


def visible_entries(lake_dir: str,
                    as_of_epoch: int | None = None) -> dict[int, list[dict]]:
    """Per-bucket lists of the committed entries a reader must merge.

    Replays the manifest log: a FULL base (``base: true``) resets every
    bucket's visible set to the base's own entries; a PARTIAL base
    (``base`` + ``partial: true``, written by bucket-subset compaction)
    resets only the buckets it covers; ordinary epoch manifests append.
    ``as_of_epoch`` time-travels by ignoring manifests past that WAL
    epoch (vacuum limits how far back this reaches — pre-base deltas it
    deleted are gone, the Delta/Iceberg VACUUM trade-off).
    """
    by_key: dict[int, list[dict]] = {}
    for seq in committed_epochs(lake_dir):
        m = read_manifest(lake_dir, seq)
        if as_of_epoch is not None and m.get("epoch", -1) > as_of_epoch:
            continue
        if m.get("base"):
            if m.get("partial"):
                for k_s in m["partitions"]:
                    by_key[int(k_s)] = []
            else:
                by_key = {}
        for k_s, entry in m["partitions"].items():
            by_key.setdefault(int(k_s), []).append(entry)
    return by_key


def visible_entry_files(lake_dir: str,
                        as_of_epoch: int | None = None
                        ) -> dict[int, list[str]]:
    """Per-bucket lists of data files a reader must merge (the files of
    ``visible_entries``)."""
    return {k: [f for e in es for f in entry_files(lake_dir, e)]
            for k, es in visible_entries(lake_dir, as_of_epoch).items()}


def committed_files(lake_dir: str,
                    as_of_epoch: int | None = None) -> list[str]:
    """All delta files visible to readers (see visible_entry_files).
    Range fragments are shared by several bucket entries — deduped,
    order-preserving."""
    files = []
    for fs in visible_entry_files(lake_dir, as_of_epoch).values():
        files.extend(fs)
    return list(dict.fromkeys(files))


def change_files(lake_dir: str, from_epoch: int,
                 to_epoch: int) -> dict[int, list[str]]:
    """bucket → delta files carrying the WAL epochs in (from_epoch,
    to_epoch] — the CDC change-feed file set. Base manifests are
    rewrites, not changes, and are skipped."""
    by_key: dict[int, list[str]] = {}
    for seq in committed_epochs(lake_dir):
        m = read_manifest(lake_dir, seq)
        if m.get("base"):
            continue
        if from_epoch < m.get("epoch", -1) <= to_epoch:
            for k_s, entry in m["partitions"].items():
                by_key.setdefault(int(k_s), []).extend(
                    entry_files(lake_dir, entry))
    missing = [f for f in dict.fromkeys(f for fs in by_key.values()
                                        for f in fs)
               if not os.path.exists(f)]
    if missing:
        raise FileNotFoundError(
            f"change feed for WAL epochs ({from_epoch}, {to_epoch}] needs "
            f"{len(missing)} delta file(s) already reclaimed by vacuum "
            f"after compaction (e.g. {os.path.relpath(missing[0], lake_dir)})"
            " — this history range is no longer reproducible (the "
            "time-travel/VACUUM trade-off documented on read_lake)")
    return by_key
