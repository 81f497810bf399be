"""Per-epoch transaction manifest log — the exactly-once commit point.

Layout (BASELINE.json:6 "per-partition transaction manifests plus
monotonic epoch fencing"; design after the Delta Lake transaction log,
PAPERS.md):

    lake_dir/
      data/bucket=<b>/epoch=<k>-b<lo>-<hi>-<digest>.parquet
                                        fragment files (phase 1); one
                                        file may serve buckets lo..hi
      data/bucket=<b>/base-<n>.parquet  compaction base of bucket b
      _manifests/epoch=<n>.json         commit records (phase 2)

A manifest records, per bucket: the fragment files, lsn offset range,
row/upsert/delete counts, a checksum (xor of row content-sha256
prefixes) and the bucket's new lsn high-watermark — the lineage
record mandated by BASELINE.json:6.

Manifest SEQUENCE (the ``epoch=<n>`` in the filename) is decoupled from
the WAL epoch a manifest commits: WAL commits and compaction BASE
manifests share one monotonic log, and every doc carries ``epoch`` (the
WAL epoch it covers — a base carries the last WAL epoch forward),
``num_partitions`` and ``num_buckets``.

ONE FOLD: ``snapshot`` reads the log once into a frozen ``Snapshot``;
every engine call takes one. A commit on snapshot S ``os.link``s a
fsynced temp file to ``epoch=<S.seq + 1>.json`` (put-if-absent: no
commit replaces another) and folds the doc into S.

Fencing rules:
  * WAL epochs commit in strictly increasing order (monotonic fence); a
    WAL commit whose sequence another commit took re-folds and
    re-fences, a compaction base raises (its resolve missed that one);
  * committing an epoch <= the last committed one is a no-op (idempotent
    replay) — never a rewrite;
  * a data file for an uncommitted epoch is invisible to readers (they
    only read files listed in committed manifests), so a crash between
    phase 1 and phase 2 leaves no partial state.
"""

from __future__ import annotations

import dataclasses
import errno
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


def manifest_path(lake_dir: str, seq: int) -> str:
    return os.path.join(lake_dir, MANIFEST_DIR, f"epoch={seq}.json")


def read_manifest(lake_dir: str, seq: int) -> dict:
    with open(manifest_path(lake_dir, seq)) as f:
        return json.load(f)


def entry_files(lake_dir: str, entry: dict) -> list[str]:
    """Absolute paths of one manifest entry's data files (none if the
    entry holds no rows)."""
    if entry["n_rows"] <= 0:
        return []
    return [os.path.join(lake_dir, rel) for rel in entry["files"]]


@dataclasses.dataclass(frozen=True)
class Snapshot:
    """The lake's committed state folded from its manifest log; the
    key-hash version is the NEWEST manifest's, also after ``as_of``."""

    lake_dir: str
    docs: tuple[tuple[int, dict], ...]  # (seq, doc) in commit order
    visible: dict[int, list[dict]]  # bucket → entries a reader merges
    hwm: dict[int, int]  # bucket → max committed lsn (A3 dedup index)
    key_hash_version: int | None
    last: dict | None = None
    seq: int = -1
    wal_epoch: int = -1  # the replay resume point (bases carry it)
    schema: pa.Schema | None = None
    num_partitions: int | None = None
    num_buckets: int | None = None

    def as_of(self, epoch: int) -> Snapshot:
        """Time travel: the fold of the manifests of WAL epochs <=
        ``epoch`` (as far back as vacuum left their files)."""
        return _fold(self.lake_dir, [d for d in self.docs
                                     if d[1].get("epoch", -1) <= epoch],
                     self.key_hash_version)

    def check_key_hash(self) -> None:
        """Refuse routing (bucket per key) or layout persisted under
        another key-hash version: commits and readers would misroute."""
        if self.key_hash_version not in (None, KEY_HASH_VERSION):
            raise RuntimeError(
                f"lake at {self.lake_dir} was written with key_hash_version"
                f"={self.key_hash_version}; this build routes keys with "
                f"version {KEY_HASH_VERSION} — rewrite the lake first")

    def visible_files(self) -> dict[int, list[str]]:
        return {k: [f for e in es for f in entry_files(self.lake_dir, e)]
                for k, es in self.visible.items()}

    def change_files(self, from_epoch: int) -> dict[int, list[str]]:
        """bucket → delta files of the folded WAL epochs past
        ``from_epoch`` (the change feed; bases are not changes)."""
        by_key: dict[int, list[str]] = {}
        for _, m in self.docs:
            if not m.get("base") and m.get("epoch", -1) > from_epoch:
                for k_s, entry in m["partitions"].items():
                    by_key.setdefault(int(k_s), []).extend(
                        entry_files(self.lake_dir, entry))
        missing = [f for fs in by_key.values() for f in fs
                   if not os.path.exists(f)]
        if missing:
            raise FileNotFoundError(
                f"change feed from WAL epoch {from_epoch} needs {missing[0]}"
                ", reclaimed by vacuum (time-travel/VACUUM trade-off)")
        return by_key


def _fold(lake_dir: str, docs: list[tuple[int, dict]],
          key_hash_version: int | None) -> Snapshot:
    """The one loop over the log: a FULL base resets every bucket's
    entries, a PARTIAL base the buckets it covers; epochs append."""
    visible: dict[int, list[dict]] = {}
    hwm: dict[int, int] = {}
    for _, doc in docs:
        if doc.get("base"):
            visible = ({k: es for k, es in visible.items()
                        if str(k) not in doc["partitions"]}
                       if doc.get("partial") else {})
        for k_s, entry in doc["partitions"].items():
            visible.setdefault(int(k_s), []).append(entry)
            hwm[int(k_s)] = max(hwm.get(int(k_s), -1), entry["hwm"])
    if not docs:
        return Snapshot(lake_dir, (), visible, hwm, key_hash_version)
    seq, last = docs[-1]
    return Snapshot(lake_dir, tuple(docs), visible, hwm, key_hash_version,
                    last, seq, last.get("epoch", -1),
                    schema_mod.from_b64(last["schema_b64"]),
                    last["num_partitions"], last["num_buckets"])


def snapshot(lake_dir: str, as_of_epoch: int | None = None) -> Snapshot:
    """List ``_manifests/`` once, read each manifest once, fold."""
    d = os.path.join(lake_dir, MANIFEST_DIR)
    names = os.listdir(d) if os.path.isdir(d) else []
    docs = [(seq, read_manifest(lake_dir, seq)) for seq in sorted(
        int(n[len("epoch="):-len(".json")]) for n in names
        if n.startswith("epoch=") and n.endswith(".json"))]
    snap = _fold(lake_dir, docs, docs[-1][1].get("key_hash_version", 1)
                 if docs else None)
    return snap if as_of_epoch is None else snap.as_of(as_of_epoch)


def last_manifest(lake_dir: str) -> dict | None:
    return snapshot(lake_dir).last


def last_wal_epoch(lake_dir: str) -> int:
    return snapshot(lake_dir).wal_epoch


def lake_mode(lake_dir: str) -> str | None:
    return None if snapshot(lake_dir).last is None else "direct"


def current_schema(lake_dir: str) -> pa.Schema | None:
    return snapshot(lake_dir).schema


def manifest_as_of(lake_dir: str, epoch: int) -> dict | None:
    return snapshot(lake_dir, epoch).last


def high_watermarks(lake_dir: str) -> dict[int, int]:
    return snapshot(lake_dir).hwm


def live_file_counts(lake_dir: str) -> dict[int, int]:
    return {k: len(set(fs)) for k, fs in
            visible_entry_files(lake_dir).items() if fs}


def check_key_hash(lake_dir: str) -> None:
    snapshot(lake_dir).check_key_hash()


def visible_entry_files(lake_dir: str, as_of_epoch: int | None = None
                        ) -> dict[int, list[str]]:
    return snapshot(lake_dir, as_of_epoch).visible_files()


def committed_files(lake_dir: str,
                    as_of_epoch: int | None = None) -> list[str]:
    return list(dict.fromkeys(f for fs in visible_entry_files(
        lake_dir, as_of_epoch).values() for f in fs))


def change_files(lake_dir: str, from_epoch: int,
                 to_epoch: int) -> dict[int, list[str]]:
    return snapshot(lake_dir, to_epoch).change_files(from_epoch)


def put_if_absent(path: str, text: str) -> None:
    """Create ``path`` holding ``text`` by ``os.link`` of a fsynced temp
    file; FileExistsError if the name is taken (nothing is replaced).
    Needs hard links: some FUSE and SMB mounts cannot hold a lake."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.link(tmp, path)
    except OSError as e:  # FileExistsError (EEXIST) passes unchanged
        if e.errno not in (errno.EPERM, errno.ENOTSUP, errno.EOPNOTSUPP):
            raise
        raise OSError(e.errno, "manifest commits need hard links (os.link) "
                      f"on the lake's filesystem; {os.path.dirname(path)} "
                      f"refused one: {e.strerror}") from e
    finally:
        os.unlink(tmp)


def _write_doc(snap: Snapshot, doc: dict) -> Snapshot:
    """Commit ``doc`` at ``snap.seq + 1`` and fold it into ``snap``.
    Every commit passes the routing fence here."""
    snap.check_key_hash()
    os.makedirs(os.path.join(snap.lake_dir, MANIFEST_DIR), exist_ok=True)
    put_if_absent(manifest_path(snap.lake_dir, snap.seq + 1),
                  json.dumps(doc))
    return _fold(snap.lake_dir, snap.docs + ((snap.seq + 1, doc),),
                 KEY_HASH_VERSION)


def append_epoch(snap: Snapshot, epoch: int, schema: pa.Schema,
                 partitions: dict[int, dict], num_partitions: int,
                 num_buckets: int | None = None) -> tuple[Snapshot, bool]:
    """Phase-2 commit of one WAL epoch on ``snap``: (the snapshot after,
    False if already committed). EpochFencingError on an epoch gap."""
    doc = {"epoch": epoch, "num_partitions": num_partitions,
           "num_buckets": num_buckets, "key_hash_version": KEY_HASH_VERSION,
           "schema_b64": schema_mod.to_b64(schema),
           "partitions": {str(p): e for p, e in sorted(partitions.items())}}
    while True:
        if epoch <= snap.wal_epoch:
            return snap, False
        if epoch != snap.wal_epoch + 1:
            raise EpochFencingError(
                f"cannot commit epoch {epoch}: last committed is "
                f"{snap.wal_epoch} (epochs are fenced to commit "
                "monotonically, no gaps)")
        try:
            return _write_doc(snap, doc), True
        except FileExistsError:  # lost the sequence: re-fold, re-fence
            snap = snapshot(snap.lake_dir)


def commit_epoch(lake_dir: str, epoch: int, schema: pa.Schema,
                 partitions: dict[int, dict], num_partitions: int,
                 num_buckets: int | None = None) -> bool:
    return append_epoch(snapshot(lake_dir), epoch, schema, partitions,
                        num_partitions, num_buckets)[1]


def entry(**fields) -> dict:
    """A manifest partition entry: the one that holds no rows (no files,
    lsn range -1, zero counts, checksum 0, hwm -1) with ``fields``
    applied over it."""
    return {"files": [], "lsn_min": -1, "lsn_max": -1, "n_events": 0,
            "n_upserts": 0, "n_deletes": 0, "n_rows": 0, "n_quarantined": 0,
            "checksum": "0" * 16, "hwm": -1, **fields}


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


def commit_entry_rows(snap: Snapshot, epochs: list[int], rows: list[dict],
                      schema: pa.Schema, num_partitions: int,
                      num_buckets: int
                      ) -> tuple[Snapshot, dict[int, dict[int, dict]]]:
    """Phase-2 commit of fragment-writer entry rows: per epoch, in order,
    merge each bucket's rows into one entry and commit (an epoch without
    rows commits empty). Returns the snapshot after and epoch → its
    committed partitions."""
    out = {}
    for k in sorted(epochs):
        by_bucket: dict[int, list[dict]] = {}
        for r in rows:
            if int(r["epoch"]) == k:
                by_bucket.setdefault(int(r["pid"]), []).append(r)
        out[k] = {b: merge_entry_rows(rs) for b, rs in by_bucket.items()}
        snap, _ = append_epoch(snap, k, schema, out[k], num_partitions,
                               num_buckets)
    return snap, out


def commit_base(snap: Snapshot, partitions: dict[int, dict],
                partial: bool = False) -> Snapshot:
    """Commit a compaction BASE (FULL, or PARTIAL: only the buckets it
    covers) resolved from ``snap`` at ``snap.seq + 1``, carrying the
    last WAL epoch forward. No retry: a commit that took the sequence
    is missing from the resolve, so raise EpochFencingError."""
    doc = {k: snap.last[k] for k in ("epoch", "num_partitions",
                                     "num_buckets", "schema_b64")}
    doc.update(base=True, key_hash_version=KEY_HASH_VERSION,
               partitions={str(p): e for p, e in sorted(partitions.items())})
    if partial:
        doc["partial"] = True
    try:
        return _write_doc(snap, doc)
    except FileExistsError:
        raise EpochFencingError(
            f"compaction of {snap.lake_dir} lost sequence {snap.seq + 1} "
            "to a commit it did not read; nothing committed — compact "
            "again") from None
