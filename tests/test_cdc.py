"""CDC engine tests: replay determinism, resume, idempotency, fencing,
schema evolution, compaction (SURVEY.md §5.3–5.5)."""

import hashlib
import shutil

import pyarrow.parquet as pq
import pytest

from etl_ray.pipelines.cdc import replay
from etl_ray.sources.corpus import generate_corpus
from etl_ray.sources.wal import generate_wal, reference_replay
from etl_ray.state import manifest as mf
from etl_ray.state.lake import compact, read_lake

N_KEYS, N_REPOS, N_EPOCHS, P = 200, 12, 4, 8
# the core equality tests at one bucket (P=8) and at eight (P=64), where
# each bucket's resolve keeps only its rows of shared range fragments
BUCKETINGS = pytest.mark.parametrize("P", [8, 64])


@pytest.fixture(scope="module")
def wal_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cdc")
    wal = str(d / "wal")
    corpus = generate_corpus(N_KEYS, n_repos=N_REPOS)
    generate_wal(corpus, wal, n_epochs=N_EPOCHS, n_repos=N_REPOS)
    return wal


@pytest.fixture(scope="module")
def ref_state(wal_dir):
    return reference_replay(wal_dir, N_EPOCHS)


def ref_shas(ref_state):
    return sorted(hashlib.sha256(v["content"].encode()).hexdigest()
                  for v in ref_state.values())


def lake_shas(lake_dir):
    tbl = read_lake(lake_dir).to_pandas()
    return sorted(tbl["content_sha256"].tolist())


@BUCKETINGS
def test_full_replay_matches_reference(wal_dir, ref_state, tmp_path, P):
    lake = str(tmp_path / "lake")
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s["epochs_applied"] == N_EPOCHS
    assert lake_shas(lake) == ref_shas(ref_state)
    # full-row equality incl. schema-evolution columns
    tbl = read_lake(lake).to_pandas()
    got = sorted(zip(tbl.repo, tbl.path, tbl.commit))
    want = sorted((v["repo"], v["path"], v["commit"]) for v in ref_state.values())
    assert got == want


def test_replay_plans_its_own_wal_scan(wal_dir, ref_state, tmp_path,
                                      monkeypatch):
    """The replay plans its WAL scan from the footers it reads itself:
    Ray's Parquet datasource (metadata fetch, sampling) is never used,
    the lake still equals the reference, and each epoch has at most one
    fragment file per read group (one group per ingest slot)."""
    import math
    import os

    import ray
    import ray.data

    from etl_ray.util import task_cpus

    def _no_parquet_datasource(*a, **kw):
        raise AssertionError("ray.data.read_parquet called")

    monkeypatch.setattr(ray.data, "read_parquet", _no_parquet_datasource)
    lake = str(tmp_path / "lake")
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=64)
    assert s["epochs_applied"] == N_EPOCHS
    assert lake_shas(lake) == ref_shas(ref_state)
    n_row_groups = sum(pq.read_metadata(f"{wal_dir}/epoch={k}/{n}")
                       .num_row_groups
                       for k in range(N_EPOCHS)
                       for n in os.listdir(f"{wal_dir}/epoch={k}"))
    slots = math.floor(ray.cluster_resources()["CPU"] / task_cpus())
    per_epoch = fragments_per_epoch(lake)
    assert len(per_epoch) == N_EPOCHS
    assert max(per_epoch.values()) <= min(n_row_groups, slots)


def test_replay_streams_large_groups_in_blocks(wal_dir, ref_state,
                                               tmp_path):
    """A group larger than Ray's target block size reaches prep and the
    writer in several blocks, so one task makes several writer calls,
    which can span an epoch boundary; the lake still equals the
    reference."""
    import math

    import ray
    from ray.data import DataContext

    from etl_ray.util import task_cpus

    ctx = DataContext.get_current()
    target = ctx.target_max_block_size
    ctx.target_max_block_size = 64 * 1024  # a fixture group is ~450 KB
    try:
        lake = str(tmp_path / "lake")
        s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    finally:
        ctx.target_max_block_size = target
    assert s["epochs_applied"] == N_EPOCHS
    assert lake_shas(lake) == ref_shas(ref_state)
    # more fragment files in an epoch than tasks: the writer ran per block
    slots = math.floor(ray.cluster_resources()["CPU"] / task_cpus())
    assert max(fragments_per_epoch(lake).values()) > slots


def fragments_per_epoch(lake_dir) -> dict[str, int]:
    """Committed fragment files per epoch (the name's first field)."""
    import os

    per_epoch: dict[str, set] = {}
    for f in mf.committed_files(lake_dir):
        per_epoch.setdefault(os.path.basename(f).split("-")[0],
                             set()).add(f)
    return {k: len(v) for k, v in per_epoch.items()}


def test_resume_from_checkpoint_reconverges(wal_dir, ref_state, tmp_path):
    lake = str(tmp_path / "lake")
    s1 = replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    assert s1["epochs_applied"] == 2
    assert mf.snapshot(lake).seq == 1
    # "crash" happened here; a fresh replay resumes from the manifest log
    s2 = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s2["first_epoch"] == 2
    assert lake_shas(lake) == ref_shas(ref_state)


def test_double_apply_is_idempotent(wal_dir, ref_state, tmp_path):
    from etl_ray.pipelines.cdc import apply_window
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    before = lake_shas(lake)
    # re-apply the last epoch: commit is a no-op, hwm filter drops all events
    apply_window(wal_dir, lake, [N_EPOCHS - 1], P)
    assert mf.snapshot(lake).seq == N_EPOCHS - 1
    assert lake_shas(lake) == before


def test_epoch_fencing(wal_dir, tmp_path):
    from etl_ray.state.manifest import EpochFencingError, commit_epoch
    import pyarrow as pa
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, 2, num_partitions=P, stop_after=2)
    with pytest.raises(EpochFencingError):
        commit_epoch(lake, 5, pa.schema([("x", pa.int64())]), {}, P)
    # stale (already committed) epoch commit is a silent no-op
    assert commit_epoch(lake, 0, pa.schema([("x", pa.int64())]), {}, P) is False


def test_schema_evolution(wal_dir, tmp_path):
    """Epochs >= E/2 add stars:int64 and widen size int32→int64."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    schema = mf.current_schema(lake)
    assert schema.field("stars").type == "int64"
    assert schema.field("size").type == "int64"
    # pre-evolution epoch files really were written narrow
    e0 = pq.read_schema(f"{wal_dir}/epoch=0/" +
                        __import__("os").listdir(f"{wal_dir}/epoch=0")[0])
    assert "stars" not in e0.names
    assert e0.field("size").type == "int32"


@BUCKETINGS
def test_compaction_preserves_state(wal_dir, ref_state, tmp_path, P):
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    before = lake_shas(lake)
    n = compact(lake)
    assert n == len(ref_state)
    assert lake_shas(lake) == before
    # compaction reduced the visible file count to ≤ P
    assert len(mf.committed_files(lake)) <= P


def test_compaction_preserves_mode_and_resume(wal_dir, ref_state, tmp_path):
    """Compacting a lake mid-stream must keep its bucket keying
    (bucket-keyed watermarks) and replay must resume from the correct
    WAL epoch past the base manifest."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    compact(lake)
    assert mf.lake_mode(lake) == "direct"
    assert mf.last_wal_epoch(lake) == 1  # base carries the WAL epoch forward
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s["first_epoch"] == 2
    assert lake_shas(lake) == ref_shas(ref_state)


def test_auto_compact_bounds_file_count(tmp_path):
    """Over 12 churning epochs with a tight auto-compact threshold, the
    live data-file count a reader must merge stays bounded instead of
    growing linearly with epochs."""
    d = str(tmp_path / "wal12")
    corpus = generate_corpus(120, n_repos=8)
    generate_wal(corpus, d, n_epochs=12, n_repos=8, update_p=0.8)
    lake = str(tmp_path / "lake12")
    s = replay(d, lake, 12, num_partitions=P, window=2, auto_compact=4)
    assert s["n_compactions"] >= 2
    counts = mf.live_file_counts(lake)
    # bound: one base + at most (threshold + one window's writes) deltas
    assert max(counts.values()) <= 4 + 2 * P + 1
    # and the lake still converges to the reference interpreter
    ref = reference_replay(d, 12)
    assert lake_shas(lake) == sorted(
        hashlib.sha256(v["content"].encode()).hexdigest()
        for v in ref.values())


def test_replay_and_auto_compact_run_no_ray_data(wal_dir, ref_state,
                                                 tmp_path, monkeypatch):
    """A replay, its auto-compaction and a snapshot export run their
    planned tasks as plain Ray tasks: with Ray Data's item source and
    ``take_all`` patched to raise, they still complete, and the lake
    equals the reference."""
    import ray.data

    from etl_ray.state.export import export_snapshot

    def _no_ray_data(*a, **kw):
        raise AssertionError("Ray Data execution started")

    monkeypatch.setattr(ray.data, "from_items", _no_ray_data)
    monkeypatch.setattr(ray.data.Dataset, "take_all", _no_ray_data)
    lake = str(tmp_path / "lake")
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P, window=1,
               auto_compact=1)
    out = export_snapshot(lake, str(tmp_path / "export"))
    monkeypatch.undo()
    assert s["epochs_applied"] == N_EPOCHS
    assert s["n_compactions"] >= 1
    assert lake_shas(lake) == ref_shas(ref_state)
    assert out["n_rows"] == len(ref_state)


def test_readers_run_no_ray_data(wal_dir, ref_state, tmp_path, monkeypatch):
    """The merge-on-read readers (the scan, the change feed, the view
    build and refresh) and the audit run their tasks as plain Ray
    tasks: with Ray Data's sources, ``map_batches``, ``take_all`` and
    ``iter_batches`` patched to raise, they still complete and agree
    with the reference replay."""
    import pandas as pd
    import pyarrow as pa
    import ray
    import ray.data

    from etl_ray.state.lake import audit_lake, changes_between
    from etl_ray.state.views import create_view, read_view, refresh_view

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=64)

    def _no_ray_data(*a, **kw):
        raise AssertionError("Ray Data execution started")

    for owner, name in ((ray.data, "from_items"), (ray.data, "read_parquet"),
                        (ray.data.Dataset, "map_batches"),
                        (ray.data.Dataset, "take_all"),
                        (ray.data.Dataset, "iter_batches")):
        monkeypatch.setattr(owner, name, _no_ray_data)
    state = pa.concat_tables(ray.get(read_lake(lake).to_arrow_refs()))
    feed = pa.concat_tables(ray.get(
        changes_between(lake, 1, N_EPOCHS - 1).to_arrow_refs()))
    vdir = str(tmp_path / "view")
    create_view(lake, vdir, ["lang"], ["size"], as_of_epoch=1)
    refresh_view(lake, vdir)
    audit = audit_lake(lake, verify_content=True)
    monkeypatch.undo()

    def sha(v):
        return hashlib.sha256(v["content"].encode()).hexdigest()

    assert sorted(state["content_sha256"].to_pylist()) == ref_shas(ref_state)
    # the feed applied to the epoch-1 state gives the final state
    got = {k: sha(v) for k, v in reference_replay(wal_dir, 2).items()}
    for r in feed.select(["repo", "path", "op", "content_sha256"]).to_pylist():
        if r["op"] == "D":
            got.pop((r["repo"], r["path"]), None)
        else:
            got[(r["repo"], r["path"])] = r["content_sha256"]
    assert got == {k: sha(v) for k, v in ref_state.items()}
    ref = pd.DataFrame(list(ref_state.values())).groupby(
        "lang", dropna=False)["size"]
    want = pd.DataFrame({"n": ref.size(), "sum_size": ref.sum()})
    view = read_view(vdir).to_pandas().set_index("lang")
    assert view.loc[want.index, ["n", "sum_size"]].astype("int64").equals(
        want.astype("int64"))
    assert len(view) == len(want)
    # the audit reads every visible row version, live or superseded
    assert audit["checksum_ok"] and audit["content_mismatches"] == 0
    assert audit["rows_scanned"] == audit["rows_expected"] >= len(ref_state)


def test_replay_failed_task_commits_nothing_past_checkpoint(
        wal_dir, ref_state, tmp_path, monkeypatch):
    """A writer that raises inside its ingest task fails the replay
    with the writer's own error; no manifest past the checkpoint is
    committed, and a clean re-run converges on the reference."""
    from etl_ray.pipelines import cdc

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=1)
    assert mf.snapshot(lake).seq == 0

    def _poisoned_writer(*a, **kw):
        def _write(batch):
            raise RuntimeError("injected writer failure")
        return _write

    # patched on the driver, so the poisoned closure is what the tasks get
    monkeypatch.setattr(cdc, "make_fragment_writer", _poisoned_writer)
    with pytest.raises(RuntimeError, match="injected writer failure"):
        replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    monkeypatch.undo()
    assert mf.snapshot(lake).seq == 0
    assert mf.last_wal_epoch(lake) == 0

    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s["first_epoch"] == 1
    assert lake_shas(lake) == ref_shas(ref_state)


def test_pruned_read_across_schema_evolution(wal_dir, tmp_path):
    """Column-pruned read_lake must work for a column ADDED mid-stream
    (absent from pre-evolution delta files → backfilled null), and an
    unknown column must raise KeyError up front, not an Arrow error."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    t = read_lake(lake, columns=["stars", "size"]).to_pandas()
    full = read_lake(lake).to_pandas()
    assert len(t) == len(full)
    assert set(t.columns) == {"repo", "path", "stars", "size",
                              "content_sha256"}
    got = t.sort_values(["repo", "path"]).stars.fillna(-1).tolist()
    want = full.sort_values(["repo", "path"]).stars.fillna(-1).tolist()
    assert got == want
    with pytest.raises(KeyError):
        read_lake(lake, columns=["no_such_column"])


def _bucket(repo, path, P, B):
    import pyarrow as pa

    from etl_ray.state.merge import bucket_of
    from etl_ray.util import key_hash64

    kh = key_hash64(pa.table({"repo": pa.array([repo]),
                              "path": pa.array([path])}), ["repo", "path"])
    return int(bucket_of(kh, P, B)[0])


def test_partial_compaction(wal_dir, tmp_path):
    """Bucket-subset compaction on a fully compacted lake: a
    hand-written epoch (an update, a delete and an insert, keys in two
    buckets, rows interleaved so every write task's range fragment
    serves both) makes the shared-file closure exactly those two
    buckets. Every other bucket keeps its base file; state, lookup,
    audit, vacuum, resume and the vacuumed change feed stay correct."""
    import os

    import pyarrow as pa

    from etl_ray.state.lake import (audit_lake, changes_between, lookup,
                                    vacuum)

    P2, B = 64, 8
    wal = str(tmp_path / "wal")
    for k in range(N_EPOCHS - 1):
        shutil.copytree(f"{wal_dir}/epoch={k}", f"{wal}/epoch={k}")
    prev = reference_replay(wal, N_EPOCHS - 1)
    by_bucket = {}
    for repo, path in sorted(prev):
        by_bucket.setdefault(_bucket(repo, path, P2, B), []).append(
            (repo, path))
    b1, b2 = sorted(by_bucket, key=lambda b: -len(by_bucket[b]))[:2]
    new_key = next((f"org/new{i}", "n.py") for i in range(10000)
                   if _bucket(f"org/new{i}", "n.py", P2, B) == b1)
    deleted = by_bucket[b2][0]
    lsn = 1 + max(pq.read_table(f"{wal}/epoch={k}", columns=["lsn"])
                  ["lsn"].to_numpy().max() for k in range(N_EPOCHS - 1))
    schema = pq.read_schema(
        f"{wal}/epoch={N_EPOCHS - 2}/"
        + sorted(os.listdir(f"{wal}/epoch={N_EPOCHS - 2}"))[0])

    def ev(lsn, epoch, op, key, content):
        return {"lsn": lsn, "epoch": epoch, "op": op, "repo": key[0],
                "path": key[1], "commit": f"c{lsn}", "lang": "py",
                "content": content, "size": 7, "stars": 3}

    def write_epoch(k, rows):
        os.makedirs(f"{wal}/epoch={k}")
        pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                       f"{wal}/epoch={k}/part-0.parquet")

    e = []
    for i, pair in enumerate(zip(by_bucket[b1][:16], by_bucket[b2][1:17])):
        for j, key in enumerate(pair):  # b1, b2, b1, b2, ... updates
            e.append(ev(lsn + 2 * i + j, N_EPOCHS - 1, "U", key,
                        f"upd-{key[0]}-{key[1]}"))
    e.append(ev(lsn + 100, N_EPOCHS - 1, "D", deleted, None))
    e.append(ev(lsn + 101, N_EPOCHS - 1, "I", new_key, "inserted"))
    write_epoch(N_EPOCHS - 1, e)
    # the next epoch re-inserts the deleted key and updates the new one
    write_epoch(N_EPOCHS, [ev(lsn + 200, N_EPOCHS, "I", deleted, "back"),
                           ev(lsn + 201, N_EPOCHS, "U", new_key, "v2")])

    def shas(n_epochs):
        ref = reference_replay(wal, n_epochs)
        return sorted(hashlib.sha256(v["content"].encode()).hexdigest()
                      for v in ref.values())

    lake = str(tmp_path / "lake")
    replay(wal, lake, N_EPOCHS - 1, num_partitions=P2)
    compact(lake)
    bases = mf.visible_entry_files(lake)
    assert all(len(fs) == 1 and "base-" in fs[0] for fs in bases.values())
    replay(wal, lake, N_EPOCHS, num_partitions=P2)

    compact(lake, buckets=[b1])
    man = mf.last_manifest(lake)
    assert man["partial"] and set(map(int, man["partitions"])) == {b1, b2}
    vis = mf.visible_entry_files(lake)
    for k, fs in bases.items():
        if k not in (b1, b2):
            assert vis[k] == fs, k  # untouched: still its full base
    for k in (b1, b2):  # a partial base follows the full-base rule
        t = pq.read_table(vis[k][0], columns=["lsn", "op"])
        assert len(vis[k]) == 1 and set(t["op"].to_pylist()) == {"I"}
        assert set(t["lsn"].to_pylist()) == {0}
    assert lake_shas(lake) == shas(N_EPOCHS)

    vacuum(lake)
    assert lake_shas(lake) == shas(N_EPOCHS)
    assert lookup(lake, *deleted) is None
    live = read_lake(lake).to_pandas()
    assert deleted not in set(zip(live.repo, live.path))
    assert lookup(lake, *new_key)["content"] == "inserted"
    upd = by_bucket[b2][1]
    assert lookup(lake, *upd)["content"] == f"upd-{upd[0]}-{upd[1]}"
    assert audit_lake(lake)["checksum_ok"]

    s = replay(wal, lake, N_EPOCHS + 1, num_partitions=P2)
    assert s["first_epoch"] == N_EPOCHS
    assert lake_shas(lake) == shas(N_EPOCHS + 1)
    assert lookup(lake, *deleted)["content"] == "back"
    assert lookup(lake, *new_key)["content"] == "v2"

    # vacuumed change-feed history now fails loudly, not mid-scan
    with pytest.raises(FileNotFoundError, match="vacuum"):
        changes_between(lake, -1, 0)


def test_point_lookup(wal_dir, ref_state, tmp_path):
    """lookup() must return exactly the converged row for present keys
    and None for deleted/unknown ones — without scanning the lake."""
    from etl_ray.state.lake import lookup

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    items = list(ref_state.items())
    for (repo, path), want in items[:10]:
        got = lookup(lake, repo, path)
        assert got is not None
        assert got["commit"] == want["commit"]
        assert got["content"] == want["content"]
    assert lookup(lake, "no/such", "src/nope.py") is None
    # a key the reference deleted must be absent
    full = read_lake(lake).to_pandas()
    live = set(zip(full.repo, full.path))
    deleted = None
    import os

    for k in range(N_EPOCHS):
        d = f"{wal_dir}/epoch={k}"
        for f in os.listdir(d):
            t = pq.read_table(os.path.join(d, f), columns=["repo", "path", "op"])
            for r, p, o in zip(t["repo"].to_pylist(), t["path"].to_pylist(),
                               t["op"].to_pylist()):
                if o == "D" and (r, p) not in live:
                    deleted = (r, p)
                    break
    if deleted is not None:
        assert lookup(lake, *deleted) is None


def test_lookup_row_equals_read_lake_row(tmp_path):
    """lookup() returns exactly the key's read_lake row (every column,
    current schema) on a lake replayed in two calls across the schema
    evolution, with a hot key updated 3,200 times in one epoch —
    before and after partial compaction + vacuum. Keys last written
    before the evolution must come back with the evolved columns
    (``stars`` null), not their file's."""
    import os

    import pyarrow as pa

    from etl_ray.state.lake import lookup, vacuum

    P = 64  # 8 buckets of 8 pids
    hot = "org/hot0"

    def ev(lsn, epoch, op, repo, v, stars=None):
        r = {"lsn": lsn, "epoch": epoch, "op": op, "repo": repo,
             "path": "x.py", "commit": f"c{lsn}", "lang": "py",
             "content": None if op == "D" else f"{repo}-v{v}",
             "size": lsn % 97}
        if epoch:
            r["stars"] = stars
        return r

    cold = [f"org/c{j}" for j in range(30)]
    e0 = [ev(j, 0, "I", k, 0) for j, k in enumerate(cold)]
    # 3200 events: every read block the replay splits the epoch into
    # writes its own version of the hot key
    e0 += [ev(100 + j, 0, "I" if j == 0 else "U", hot, j)
           for j in range(3200)]
    e1 = [ev(5000 + j, 1, "U", cold[j], 1, stars=j if j % 2 else None)
          for j in range(8)]
    e1 += [ev(5100, 1, "D", cold[8], 1), ev(5101, 1, "I", "org/new", 1, 5)]

    narrow = pa.schema([
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()), ("size", pa.int32())])
    wide = narrow.set(narrow.get_field_index("size"),
                      pa.field("size", pa.int64())).append(
        pa.field("stars", pa.int64()))
    wal = str(tmp_path / "wal")
    for k, (rows, schema) in enumerate(((e0, narrow), (e1, wide))):
        os.makedirs(f"{wal}/epoch={k}")
        pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                       f"{wal}/epoch={k}/part-0.parquet")

    lake = str(tmp_path / "lake")
    replay(wal, lake, 1, num_partitions=P)
    replay(wal, lake, 2, num_partitions=P)
    assert mf.current_schema(lake).field("size").type == pa.int64()

    def check(stage):
        rows = read_lake(lake).take_all()
        assert len(rows) == 30 - 1 + 2, stage
        for want in rows:
            got = lookup(lake, want["repo"], want["path"])
            assert got is not None, (stage, want["repo"])
            assert {c: got.get(c, "<absent>") for c in want} == want, (
                stage, want["repo"])
        by_repo = {r["repo"]: r for r in rows}
        assert by_repo[hot]["content"] == f"{hot}-v3199", stage
        assert by_repo[cold[20]]["stars"] is None, stage  # epoch-0 key
        assert lookup(lake, cold[8], "x.py") is None, stage  # deleted
        assert lookup(lake, "no/such", "x.py") is None, stage

    check("after replay")
    compact(lake, buckets=[_bucket(hot, "x.py", P, 8)])
    assert mf.last_manifest(lake)["partial"]
    vacuum(lake)
    check("after partial compact + vacuum")


def test_single_hot_key_salting_spreads_partitions(tmp_path, monkeypatch):
    """ONE key carrying ~8k updates in one epoch (plus a cold tail).
    Salting is gone; the per-task LWW reduce bounds the key's skew
    instead, to at most one row per write block. LWW yields its
    max-lsn row, lineage still counts every WAL event, and lookup
    opens only the key's bucket's files."""
    import os

    import pyarrow as pa
    import pyarrow.dataset as pds

    from etl_ray.state import lake as lake_mod
    from etl_ray.state.lineage import lineage_table

    n_hot = 8192
    rows = []
    for lsn in range(n_hot):  # the hot key: every event updates it
        rows.append({
            "lsn": lsn, "epoch": 0, "op": "I" if lsn == 0 else "U",
            "repo": "org0/hot", "path": "src/h.py", "commit": f"c{lsn}",
            "lang": "py", "content": f"hot-v{lsn}", "size": 6,
        })
    for k in range(50):  # cold tail
        rows.append({
            "lsn": n_hot + k, "epoch": 0, "op": "I",
            "repo": f"org1/cold{k}", "path": "src/c.py",
            "commit": f"k{k}", "lang": "py", "content": f"cold-{k}",
            "size": 6,
        })
    schema = pa.schema([
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()), ("size", pa.int64()),
    ])
    wal = str(tmp_path / "wal_hot")
    os.makedirs(f"{wal}/epoch=0")
    pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                   f"{wal}/epoch=0/part-0.parquet")

    P2 = 64
    lake = str(tmp_path / "lake_hot")
    replay(wal, lake, 1, num_partitions=P2)
    lin = lineage_table(lake).to_pandas()
    assert lin.n_events.sum() == len(rows)
    # at most one stored row of the hot key per write block: every
    # fragment file holds rows of one writer call
    per_file = [pq.read_table(f, columns=["repo"])["repo"].to_pylist()
                .count("org0/hot") for f in mf.committed_files(lake)]
    assert max(per_file) == 1
    final = read_lake(lake).to_pandas()
    hot = final[final.repo == "org0/hot"]
    assert len(hot) == 1
    assert hot.iloc[0].content == f"hot-v{n_hot - 1}"
    assert len(final) == 51

    # lookup reads exactly the key's bucket: before compaction (range
    # fragments may serve every bucket) and after it (one base file
    # per bucket, so any other bucket's file would show)
    real = pds.dataset
    for stage in ("fragments", "compacted"):
        if stage == "compacted":
            compact(lake)
        want = set(mf.visible_entry_files(lake)[
            _bucket("org0/hot", "src/h.py", P2, 8)])
        opened = []

        def spy(source, *a, **kw):
            opened.append(set(source))
            return real(source, *a, **kw)

        monkeypatch.setattr(pds, "dataset", spy)
        got = lake_mod.lookup(lake, "org0/hot", "src/h.py")
        monkeypatch.setattr(pds, "dataset", real)
        assert got["content"] == f"hot-v{n_hot - 1}", stage
        assert opened == [want], stage
    assert len(want) == 1 < len(mf.committed_files(lake))


def test_partial_compact_salted_hot_keys_and_vacuum(tmp_path):
    """Partial compaction + vacuum over hot keys whose versions are
    spread across many write blocks' fragments (the case salting used
    to make hard): K1 takes 8k updates, K2 4k upserts then a delete,
    interleaved so every fragment serves both keys' buckets. Compacting
    K1's bucket closes over K2's; the partial base must keep K1's
    max-lsn row (no stale version resurrects), keep K2 deleted, and
    keep every cold key of both buckets through vacuum."""
    import os

    import pyarrow as pa

    from etl_ray.state.lake import (audit_lake, changes_between, lookup,
                                    vacuum)

    P2, B = 64, 8
    k1 = next(f"org/h{i}" for i in range(10000))
    b1 = _bucket(k1, "x.py", P2, B)
    k2 = next(f"org/h{i}" for i in range(1, 10000)
              if _bucket(f"org/h{i}", "x.py", P2, B) != b1)
    b2 = _bucket(k2, "x.py", P2, B)

    def ev(lsn, epoch, op, repo, content):
        return {"lsn": lsn, "epoch": epoch, "op": op, "repo": repo,
                "path": "x.py", "commit": f"c{lsn}", "lang": "py",
                "content": content, "size": 1}

    colds = [f"org/c{j}" for j in range(400)]
    e0 = [ev(j, 0, "I", c, f"cold-{j}") for j, c in enumerate(colds)]
    e0 += [ev(500, 0, "I", k1, "h1-v0"), ev(501, 0, "I", k2, "h2-v0")]
    cold_buckets = {_bucket(c, "x.py", P2, B) for c in colds}
    assert {b1, b2} <= cold_buckets  # colds share both hot buckets
    e1 = []
    lsn = 1000
    for j in range(8192):  # K1, K2, K1, K1, K2, ... interleaved
        e1.append(ev(lsn, 1, "U", k1, f"h1-v{lsn}"))
        h1_last = f"h1-v{lsn}"
        lsn += 1
        if j % 2 == 0:
            e1.append(ev(lsn, 1, "U", k2, f"h2-v{lsn}"))
            lsn += 1
    e1.append(ev(lsn, 1, "D", k2, None))

    schema = pa.schema([
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()), ("size", pa.int64()),
    ])
    wal = str(tmp_path / "wal_pc")
    for k, rows in enumerate((e0, e1)):
        os.makedirs(f"{wal}/epoch={k}")
        pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                       f"{wal}/epoch={k}/part-0.parquet")
    lake = str(tmp_path / "lake_pc")
    replay(wal, lake, 1, num_partitions=P2, auto_compact=None)
    compact(lake)
    bases = mf.visible_entry_files(lake)
    replay(wal, lake, 2, num_partitions=P2, auto_compact=None)

    def check_state(stage):
        final = read_lake(lake).to_pandas()
        by_key = dict(zip(final.repo, final.content))
        assert by_key.get(k1) == h1_last, stage   # no stale version
        assert k2 not in by_key, stage            # delete survives
        assert sum(r.startswith("org/c") for r in by_key) == 400, stage
        assert len(final) == 401, stage

    check_state("before compaction")
    compact(lake, buckets=[b1])
    man = mf.last_manifest(lake)
    assert man["partial"] and set(map(int, man["partitions"])) == {b1, b2}
    vis = mf.visible_entry_files(lake)
    for k, fs in bases.items():
        if k not in (b1, b2):
            assert vis[k] == fs, k  # untouched: still its full base
    vacuum(lake)
    check_state("after partial compact + vacuum")
    # every row of a hot key lives in its own bucket's files
    for k, fs in vis.items():
        repos = set()
        for f in fs:
            repos |= set(pq.read_table(f, columns=["repo"])["repo"]
                         .to_pylist())
        assert (k1 in repos) == (k == b1), k
        assert k2 not in repos, k

    assert lookup(lake, k1, "x.py")["content"] == h1_last
    assert lookup(lake, k2, "x.py") is None
    assert audit_lake(lake)["checksum_ok"]

    # vacuumed change-feed history now fails loudly, not mid-scan
    with pytest.raises(FileNotFoundError, match="vacuum"):
        changes_between(lake, -1, 0)


@BUCKETINGS
def test_time_travel_and_change_feed(wal_dir, ref_state, tmp_path, P):
    """as-of reads reproduce any checkpoint's state, and the change feed
    between two checkpoints replays one state into the other exactly."""
    from etl_ray.state.lake import changes_between

    lake = str(tmp_path / "lake")
    # window=2: epochs {0,1} commit with their own (pre-evolution)
    # unified schema, {2,3} with the evolved one
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, window=2)

    # time travel: state as of epoch 1 == reference replay of epochs 0-1
    ref2 = reference_replay(wal_dir, 2)
    asof = read_lake(lake, as_of_epoch=1).to_pandas()
    assert sorted(asof.content_sha256) == sorted(
        hashlib.sha256(v["content"].encode()).hexdigest()
        for v in ref2.values())
    # pre-evolution schema as of epoch 1: no stars column yet
    assert "stars" not in asof.columns

    # change-feed composition law at EVERY split point a:
    # state(as-of a) + feed(a, N-1] == final state
    for a in range(N_EPOCHS - 1):
        base = read_lake(lake, as_of_epoch=a).to_pandas()
        feed = changes_between(lake, a, N_EPOCHS - 1).to_pandas()
        state = {(r.repo, r.path): r.content_sha256
                 for r in base.itertuples()}
        for r in feed.sort_values("lsn").itertuples():
            if r.op == "D":
                state.pop((r.repo, r.path), None)
            else:
                state[(r.repo, r.path)] = r.content_sha256
        assert sorted(state.values()) == ref_shas(ref_state), f"split {a}"


def test_incompatible_evolution_fails_without_partial_commit(wal_dir,
                                                             tmp_path):
    """An unmergeable schema change (size: int -> list) must raise
    SchemaEvolutionError BEFORE any of the window commits — the lake
    stays exactly at its pre-window checkpoint."""
    import os
    import shutil

    import pyarrow as pa

    from etl_ray.state.schema import SchemaEvolutionError

    wal2 = str(tmp_path / "wal_bad")
    shutil.copytree(wal_dir, wal2)
    # epoch 2 re-typed incompatibly
    bad_dir = f"{wal2}/epoch=2"
    name = sorted(os.listdir(bad_dir))[0]
    t = pq.read_table(os.path.join(bad_dir, name))
    t = t.set_column(t.schema.get_field_index("size"), "size",
                     pa.array([[1]] * len(t), pa.list_(pa.int64())))
    for f in os.listdir(bad_dir):
        os.unlink(os.path.join(bad_dir, f))
    pq.write_table(t, os.path.join(bad_dir, name))

    lake = str(tmp_path / "lake")
    replay(wal2, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    with pytest.raises(SchemaEvolutionError):
        replay(wal2, lake, N_EPOCHS, num_partitions=P)
    assert mf.last_wal_epoch(lake) == 1  # nothing past the checkpoint


def test_audit_lake_detects_corruption(wal_dir, tmp_path):
    """audit_lake passes on a healthy lake (incl. content re-hash) and
    flags a corrupted delta file."""
    import os

    import pyarrow as pa

    from etl_ray.state.lake import audit_lake

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    out = audit_lake(lake, verify_content=True)
    assert out["checksum_ok"] and out["content_mismatches"] == 0
    assert out["rows_scanned"] == out["rows_expected"] > 0

    # corrupt one visible file: flip a row's content, keep stored sha
    victim = mf.committed_files(lake)[0]
    t = pq.read_table(victim)
    col = t["content"].to_pylist()
    i = next(j for j, v in enumerate(col) if v is not None)
    col[i] = (col[i] or "") + "!corrupted!"
    t = t.set_column(t.schema.get_field_index("content"), "content",
                     pa.array(col, pa.string()))
    pq.write_table(t, victim, compression="zstd")
    out2 = audit_lake(lake, verify_content=True)
    assert out2["content_mismatches"] >= 1
    # and a checksum-level corruption (stored sha changed) is caught too
    shas = t["content_sha256"].to_pylist()
    shas[i] = "0" * 64
    t = t.set_column(t.schema.get_field_index("content_sha256"),
                     "content_sha256", pa.array(shas, pa.string()))
    pq.write_table(t, victim, compression="zstd")
    assert audit_lake(lake)["checksum_ok"] is False


def test_vacuum_after_compact_and_crash(wal_dir, ref_state, tmp_path):
    """vacuum deletes pre-base deltas, crash orphans and stale tmp files
    but never a referenced file; the lake stays correct and resumable."""
    import os

    from etl_ray.state.lake import vacuum

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    compact(lake)
    # plant a crash orphan + a stale tmp in the data dir
    os.makedirs(f"{lake}/data/bucket=0", exist_ok=True)
    with open(f"{lake}/data/bucket=0/epoch=9-deadbeef.parquet", "wb") as f:
        f.write(b"orphan")
    with open(f"{lake}/data/bucket=0/x.parquet.tmp.123", "wb") as f:
        f.write(b"tmp")
    out = vacuum(lake)
    assert out["deleted_data_files"] >= 1  # pre-base deltas + orphan
    assert out["deleted_tmp_files"] == 1
    on_disk = {os.path.join(r, n) for r, _, ns in os.walk(f"{lake}/data")
               for n in ns}
    assert on_disk == {os.path.abspath(p) for p in mf.committed_files(lake)}
    # still correct, still resumable to full convergence
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s["first_epoch"] == 2
    assert lake_shas(lake) == ref_shas(ref_state)


def test_lake_datasink_api(wal_dir, ref_state, tmp_path):
    """ds.write_datasink(LakeSink) — the native Ray Data sink API —
    must converge identically to replay(), and a duplicate write of the
    same events must be a fenced no-op (exactly-once)."""
    from etl_ray.sources.wal import read_epochs
    from etl_ray.state.datasink import LakeSink

    lake = str(tmp_path / "lake")
    ds = read_epochs(wal_dir, list(range(N_EPOCHS)))
    ds.write_datasink(LakeSink(lake, num_partitions=P))
    assert lake_shas(lake) == ref_shas(ref_state)
    assert mf.last_wal_epoch(lake) == N_EPOCHS - 1
    # duplicate write: hwm filter drops every event, commits are no-ops
    read_epochs(wal_dir, list(range(N_EPOCHS))).write_datasink(
        LakeSink(lake, num_partitions=P))
    assert lake_shas(lake) == ref_shas(ref_state)
    assert mf.last_wal_epoch(lake) == N_EPOCHS - 1


def test_lake_datasink_two_stage_evolution(wal_dir, ref_state, tmp_path):
    """Two successive sink writes straddling the schema-evolution
    boundary (epochs 0-1 narrow, 2-3 evolved) must unify schemas across
    commits and converge to the reference."""
    from etl_ray.sources.wal import read_epochs
    from etl_ray.state.datasink import LakeSink

    lake = str(tmp_path / "lake")
    half = N_EPOCHS // 2
    read_epochs(wal_dir, list(range(half))).write_datasink(
        LakeSink(lake, num_partitions=P))
    assert "stars" not in mf.current_schema(lake).names
    read_epochs(wal_dir, list(range(half, N_EPOCHS))).write_datasink(
        LakeSink(lake, num_partitions=P))
    schema = mf.current_schema(lake)
    assert schema.field("stars").type == "int64"
    assert schema.field("size").type == "int64"
    assert lake_shas(lake) == ref_shas(ref_state)


def test_lake_datasink_auto_compact(wal_dir, ref_state, tmp_path):
    """A sink with auto_compact bounds live file counts after the write
    and still converges to the reference."""
    from etl_ray.sources.wal import read_epochs
    from etl_ray.state.datasink import LakeSink

    lake = str(tmp_path / "lake")
    read_epochs(wal_dir, list(range(N_EPOCHS))).write_datasink(
        LakeSink(lake, num_partitions=P, auto_compact=1))
    counts = mf.live_file_counts(lake)
    assert max(counts.values()) <= 1 + 1  # base (+ closure remainder)
    assert lake_shas(lake) == ref_shas(ref_state)


def test_lake_datasink_failed_write_commits_nothing(wal_dir, tmp_path):
    """If any write task fails, the sink's phase-2 never runs: the lake
    has NO committed manifests and its files stay invisible."""
    import pyarrow as pa

    from etl_ray.sources.wal import read_epochs
    from etl_ray.state.datasink import LakeSink

    lake = str(tmp_path / "lake")

    def _poison(t: pa.Table) -> pa.Table:
        raise RuntimeError("injected mid-job failure")

    ds = read_epochs(wal_dir, list(range(N_EPOCHS))).map_batches(
        _poison, batch_format="pyarrow")
    with pytest.raises(Exception):
        ds.write_datasink(LakeSink(lake, num_partitions=P))
    assert mf.snapshot(lake).seq == -1
    assert mf.committed_files(lake) == []
    assert read_lake(lake).count() == 0


def test_wal_generation_partition_independent(tmp_path):
    """The synthesized event set must be a pure function of the corpus
    keys — identical regardless of how the corpus is batched across
    tasks (every draw is hash-derived per key, never stream-positional)."""
    outs = []
    for par in (1, 7):
        d = str(tmp_path / f"wal_p{par}")
        corpus = generate_corpus(150, n_repos=6, parallelism=par)
        generate_wal(corpus, d, n_epochs=3, n_repos=6)
        evs = []
        for k in range(3):
            t = pq.read_table(f"{d}/epoch={k}")
            evs.extend(zip(t["lsn"].to_pylist(), t["op"].to_pylist(),
                           t["repo"].to_pylist(), t["path"].to_pylist(),
                           t["content"].to_pylist()))
        outs.append(sorted(evs))
    assert outs[0] == outs[1]


def test_stale_writer_cannot_corrupt(wal_dir, ref_state, tmp_path):
    """A stale/raced writer re-applying an old epoch is fenced at both
    levels: the manifest commit is a no-op and existing data files are
    never overwritten."""
    import os

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    before = lake_shas(lake)
    mtimes = {}
    for root, _, names in os.walk(lake):
        for n in names:
            p = os.path.join(root, n)
            mtimes[p] = os.path.getmtime(p)
    # re-apply epoch 0 directly (simulates a stale worker racing behind)
    from etl_ray.pipelines.cdc import apply_window

    assert apply_window(wal_dir, lake, [0], P) == []
    for p, m in mtimes.items():
        assert os.path.getmtime(p) == m  # no file rewritten
    assert lake_shas(lake) == before


def test_run_metrics_persisted(wal_dir, tmp_path):
    """Each replay run leaves a metrics record under _metrics/ —
    resume runs append their own."""
    import json
    import os

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    d = os.path.join(lake, "_metrics")
    runs = sorted(os.listdir(d))
    assert len(runs) == 2
    with open(os.path.join(d, runs[1])) as f:
        m = json.load(f)
    assert m["first_epoch"] == 2
    assert m["n_events"] > 0 and m["events_per_s"] > 0
    assert {"epochs_applied", "wall_s", "n_compactions"} <= set(m)
    # the stage ledger the engine's own tasks and driver measured
    import math

    led = m["ledger"]
    stages = {"decode", "prep", "filter", "quarantine", "lww", "sort",
              "gather", "sha256", "conform", "write",
              "plan", "tasks", "commit", "compact"}
    assert set(led["us_per_event"]) == set(led["faults_per_event"]) == stages
    assert led["n_events"] == m["n_events"] == led["rows_in"]
    nums = [*led["us_per_event"].values(), *led["faults_per_event"].values(),
            *(led[k] for k in ("rows_out", "bytes_in", "bytes_out",
                               "bucket_row_skew", "task_event_skew"))]
    assert all(math.isfinite(v) and v >= 0 for v in nums)
    assert led["us_per_event"]["decode"] > 0 and led["bytes_out"] > 0
    assert led["heap_policy"] is True


def test_run_metrics_never_overwrite_a_record(tmp_path):
    """A run whose record number another run already took (two runs
    finishing together) writes the next free number instead of
    replacing that record."""
    import json
    import os

    from etl_ray.pipelines.cdc import _write_run_metrics

    lake = str(tmp_path / "lake")
    d = os.path.join(lake, "_metrics")
    os.makedirs(d)
    with open(os.path.join(d, "run-1.json"), "w") as f:
        json.dump({"run": "other"}, f)
    _write_run_metrics(lake, {"run": "this"})
    assert sorted(os.listdir(d)) == ["run-1.json", "run-2.json"]
    for name, want in (("run-1.json", "other"), ("run-2.json", "this")):
        with open(os.path.join(d, name)) as f:
            assert json.load(f) == {"run": want}


def test_lineage_counts(wal_dir, tmp_path):
    from etl_ray.state.lineage import lineage_table
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    lin = lineage_table(lake).to_pandas()
    wal_total = sum(pq.read_metadata(f"{wal_dir}/epoch={k}/" + f).num_rows
                    for k in range(N_EPOCHS)
                    for f in __import__("os").listdir(f"{wal_dir}/epoch={k}"))
    assert lin["n_events"].sum() == wal_total
    assert (lin["lsn_max"] >= lin["lsn_min"]).all()


def test_lake_datasink_mid_dataset_evolution_single_write(tmp_path):
    """ONE sink write (schema=None) over a dataset whose blocks straddle
    an add-column evolution must commit the widened union — the evolved
    column's values survive regardless of which task/block order the
    writer saw (the old per-task first-block inference silently dropped
    them)."""
    import pyarrow as pa

    import ray.data
    from etl_ray.state.datasink import LakeSink

    def rows(lo, hi, with_stars):
        out = []
        for i in range(lo, hi):
            r = {"lsn": i, "epoch": 0, "op": "I", "repo": f"org/r{i}",
                 "path": "a.py", "commit": f"c{i}", "lang": "py",
                 "content": f"v{i}", "size": i}
            if with_stars:
                r["stars"] = i * 10
            out.append(r)
        return out

    narrow = pa.Table.from_pylist(rows(0, 300, False))
    wide = pa.Table.from_pylist(rows(300, 600, True))
    lake = str(tmp_path / "lake_evo1")
    # one Dataset, blocks with differing schemas, one write
    ray.data.from_arrow([narrow, wide]).write_datasink(
        LakeSink(lake, num_partitions=8))
    import pandas as pd

    schema = mf.current_schema(lake)
    assert "stars" in schema.names
    final = read_lake(lake).to_pandas()
    by_repo = dict(zip(final.repo, final.stars))
    assert len(final) == 600
    assert by_repo["org/r450"] == 4500      # evolved values survived
    assert pd.isna(by_repo["org/r10"])      # pre-evolution backfilled


@BUCKETINGS
def test_incremental_view_maintenance(wal_dir, tmp_path, P):
    """Materialized view (count + int sum per group) maintained from
    the change feed: incremental refresh == full recompute at EVERY
    epoch checkpoint, stepwise == one-jump, and a caught-up refresh is
    an idempotent no-op. Retraction correctness is exercised by the
    WAL's updates (size changes move sums) and deletes (keys leave
    their group)."""
    from etl_ray.state.views import (create_view, read_view,
                                     refresh_view, view_meta)

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)

    def recompute(epoch):
        t = read_lake(lake, columns=["lang", "size"],
                      as_of_epoch=epoch).to_pandas()
        g = t.groupby("lang", dropna=False)
        out = g.size().rename("n").to_frame()
        out["sum_size"] = g["size"].sum().astype("int64")
        return out.reset_index().sort_values("lang", ignore_index=True)

    cols = ["lang", "n", "sum_size"]
    vdir = str(tmp_path / "view")
    create_view(lake, vdir, ["lang"], ["size"], as_of_epoch=0)
    assert read_view(vdir).to_pandas()[cols].equals(recompute(0)[cols])
    for e in range(1, N_EPOCHS):
        refresh_view(lake, vdir, to_epoch=e)
        got = read_view(vdir).to_pandas()[cols].reset_index(drop=True)
        assert got.equals(recompute(e)[cols]), f"drift at epoch {e}"
        assert view_meta(vdir)["as_of_epoch"] == e

    # one-jump 0 -> last equals the stepwise result
    vdir2 = str(tmp_path / "view2")
    create_view(lake, vdir2, ["lang"], ["size"], as_of_epoch=0)
    refresh_view(lake, vdir2)
    assert read_view(vdir2).to_pandas()[cols].equals(
        read_view(vdir).to_pandas()[cols])

    # caught-up refresh: no-op, same state, same checkpoint
    before = read_view(vdir).to_pandas()
    meta = refresh_view(lake, vdir)
    assert meta["as_of_epoch"] == N_EPOCHS - 1
    assert read_view(vdir).to_pandas().equals(before)


def test_change_feed_gathers_run_their_plan_once(wal_dir, tmp_path,
                                                monkeypatch):
    """The view refresh and the ``cdc_changes`` query gather their
    change feeds without ``to_arrow_refs`` on a lazy plan, which would
    run the plan a second time to fetch its schema."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from etl_ray.pipelines import cdcq
    from etl_ray.state.views import create_view, refresh_view, view_meta

    orig = ray.data.Dataset.to_arrow_refs

    def _materialized_only(self, *a, **kw):
        assert isinstance(self, MaterializedDataset), \
            "to_arrow_refs on a lazy plan runs it twice"
        return orig(self, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "to_arrow_refs",
                        _materialized_only)
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    vdir = str(tmp_path / "view")
    create_view(lake, vdir, ["lang"], ["size"], as_of_epoch=0)
    assert refresh_view(lake, vdir)["as_of_epoch"] == N_EPOCHS - 1
    assert view_meta(vdir)["as_of_epoch"] == N_EPOCHS - 1
    sf = str(tmp_path / "sf")
    try:
        assert len(cdcq.cdc_changes(sf)) > 0
    finally:
        shutil.rmtree(cdcq._workdir(sf, "changes"), ignore_errors=True)


def test_export_snapshot_resumable_and_salt_correct(wal_dir, ref_state,
                                                    tmp_path):
    """Snapshot export == read_lake row set (sha multiset vs the
    reference interpreter), a re-run after deleting _SUCCESS skips
    every finished bucket, a deleted bucket file is re-exported without
    touching the others, and a hot key (one version per write block)
    exports its newest value under its own bucket."""
    import glob
    import os

    import pyarrow as pa

    from etl_ray.state.export import export_snapshot

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=64)  # B=8 buckets
    out = str(tmp_path / "snap")
    s = export_snapshot(lake, out)
    files = sorted(glob.glob(f"{out}/bucket=*/*.parquet"))
    got = sorted(sha for f in files
                 for sha in pq.read_table(f)["content_sha256"].to_pylist())
    assert got == ref_shas(ref_state)
    assert s["n_buckets"] == len(files) and s["n_skipped"] == 0

    # resume: everything-finished re-run skips all buckets
    os.remove(f"{out}/_SUCCESS")
    s2 = export_snapshot(lake, out)
    assert s2["n_skipped"] == s["n_buckets"]
    # resume: one missing bucket file is redone, others untouched
    victim = files[0]
    os.remove(victim)
    mtimes = {f: os.path.getmtime(f) for f in files[1:]}
    s3 = export_snapshot(lake, out)
    assert s3["n_skipped"] == s["n_buckets"] - 1
    assert os.path.exists(victim)
    assert all(os.path.getmtime(f) == t for f, t in mtimes.items())

    # hot key: 8193 updates in one epoch, several stored versions
    P2 = 64
    rows = [{"lsn": i, "epoch": 0, "op": "I" if i == 0 else "U",
             "repo": "org/hot", "path": "x.py", "commit": f"c{i}",
             "lang": "py", "content": f"v{i}", "size": 1}
            for i in range(8193)]
    rows += [{"lsn": 9000 + i, "epoch": 0, "op": "I", "repo": "org/cold",
              "path": f"f{i}.py", "commit": f"k{i}", "lang": "py",
              "content": f"cold{i}", "size": 1} for i in range(50)]
    wal2 = str(tmp_path / "wal_hot")
    d = os.path.join(wal2, "epoch=0")
    os.makedirs(d)
    pq.write_table(pa.Table.from_pylist(rows), f"{d}/part-0.parquet")
    lake2 = str(tmp_path / "lake_hot")
    replay(wal2, lake2, 1, num_partitions=P2)
    out2 = str(tmp_path / "snap_hot")
    export_snapshot(lake2, out2)
    snap = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(f"{out2}/bucket=*/*.parquet")]
    ).to_pandas()
    hot = snap[snap.repo == "org/hot"]
    assert len(hot) == 1 and hot.iloc[0]["content"] == "v8192"
    assert len(snap) == 51
    # and the hot row sits under its own bucket
    bf = glob.glob(f"{out2}/bucket={_bucket('org/hot', 'x.py', P2, 8)}/"
                   "*.parquet")
    assert any("v8192" in pq.read_table(f)["content"].to_pylist()
               for f in bf)


def test_lake_reads_run_no_all_to_all(wal_dir, ref_state, tmp_path,
                                      monkeypatch):
    """Every lake read resolves bucket by bucket from the manifest's
    file lists. With Ray Data's groupby (an all-to-all shuffle) made to
    raise in the driver, an 8-bucket lake still reads, time-travels,
    feeds changes, refreshes a view, compacts (partial, then full) and
    exports to exactly the reference replay's state."""
    import glob

    import ray.data

    from etl_ray.state.export import export_snapshot
    from etl_ray.state.lake import changes_between
    from etl_ray.state.views import create_view, read_view, refresh_view

    P2 = 64  # 8 buckets, range fragments shared between them
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P2)

    def no_shuffle(self, *a, **kw):
        raise AssertionError("a lake read ran a Ray Data groupby")

    monkeypatch.setattr(ray.data.Dataset, "groupby", no_shuffle)
    want = ref_shas(ref_state)
    assert lake_shas(lake) == want
    t = read_lake(lake, columns=["size"]).to_pandas()
    assert list(t.columns) == ["repo", "path", "size", "content_sha256"]
    assert sorted(zip(t.repo, t.path, t["size"])) == sorted(
        (*k, v["size"]) for k, v in ref_state.items())

    # time travel + change feed: state(as of 1) + feed(1, N-1] == final
    asof = read_lake(lake, as_of_epoch=1).to_pandas()
    assert sorted(asof.content_sha256) == sorted(
        hashlib.sha256(v["content"].encode()).hexdigest()
        for v in reference_replay(wal_dir, 2).values())
    state = dict(zip(zip(asof.repo, asof.path), asof.content_sha256))
    feed = changes_between(lake, 1, N_EPOCHS - 1).to_pandas()
    for r in feed.itertuples():  # one row per changed key
        if r.op == "D":
            state.pop((r.repo, r.path), None)
        else:
            state[(r.repo, r.path)] = r.content_sha256
    assert sorted(state.values()) == want

    # view: as-of-1 scan, then a feed + retraction-scan refresh
    vdir = str(tmp_path / "view")
    create_view(lake, vdir, ["lang"], ["size"], as_of_epoch=1)
    refresh_view(lake, vdir)
    groups = {}
    for v in ref_state.values():
        n, total = groups.get(v["lang"], (0, 0))
        groups[v["lang"]] = (n + 1, total + v["size"])
    view = read_view(vdir).to_pandas()
    assert dict(zip(view.lang, zip(view.n, view.sum_size))) == groups

    b = _bucket(*next(iter(ref_state)), P2, 8)
    assert compact(lake, buckets=[b]) > 0
    assert mf.last_manifest(lake)["partial"]
    assert lake_shas(lake) == want
    assert compact(lake) == len(ref_state)
    assert lake_shas(lake) == want

    out = str(tmp_path / "snap")
    export_snapshot(lake, out)
    assert sorted(sha for f in glob.glob(f"{out}/bucket=*/*.parquet")
                  for sha in pq.read_table(f)["content_sha256"]
                  .to_pylist()) == want


def test_layout_fence_refuses_older_lakes(wal_dir, tmp_path):
    """A lake whose manifests carry an older key_hash_version (routing
    or layout, e.g. hot-key salting) is refused by every path that
    consumes persisted routing."""
    import json
    import os

    from etl_ray.state.export import export_snapshot
    from etl_ray.state.lake import changes_between, lookup
    from etl_ray.state.views import create_view

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, 2, num_partitions=P)
    d = os.path.join(lake, mf.MANIFEST_DIR)
    for name in os.listdir(d):
        with open(os.path.join(d, name)) as f:
            doc = json.load(f)
        doc["key_hash_version"] = 2
        with open(os.path.join(d, name), "w") as f:
            json.dump(doc, f)
    for call in (lambda: replay(wal_dir, lake, N_EPOCHS, num_partitions=P),
                 lambda: lookup(lake, "org0/repo0", "src/a.py"),
                 lambda: read_lake(lake).count(),
                 lambda: changes_between(lake, 0, 1).count(),
                 lambda: create_view(lake, str(tmp_path / "view"), ["lang"]),
                 lambda: compact(lake),
                 lambda: export_snapshot(lake, str(tmp_path / "snap"))):
        with pytest.raises(RuntimeError, match="key_hash_version=2"):
            call()
    assert mf.last_wal_epoch(lake) == 1  # nothing committed past it


def test_view_crash_between_state_files_recovers(wal_dir, tmp_path):
    """A refresh that crashed after writing the new view file but
    BEFORE the meta flip must leave readers on the old committed
    state, and the re-run must apply the delta onto that old state
    (no double-counting) — the atomic two-file swap (ADVICE r3)."""
    import os

    import pyarrow as pa

    from etl_ray.state.views import (create_view, read_view,
                                     refresh_view, view_meta)

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    vdir = str(tmp_path / "view")
    create_view(lake, vdir, ["lang"], ["size"], as_of_epoch=0)
    before = read_view(vdir).to_pandas()

    # simulated crash artifact: the epoch-named view file landed,
    # meta.json did not — fill it with garbage to prove readers and
    # the re-run never trust an uncommitted state file
    orphan = os.path.join(vdir, f"view-e{N_EPOCHS - 1}.parquet")
    pq.write_table(pa.table({"lang": ["xx"], "n": [999],
                             "sum_size": [999]}), orphan)
    assert read_view(vdir).to_pandas().equals(before)
    assert view_meta(vdir)["as_of_epoch"] == 0

    refresh_view(lake, vdir)
    t = read_lake(lake, columns=["lang", "size"]).to_pandas()
    g = t.groupby("lang", dropna=False)
    want = g.size().rename("n").to_frame()
    want["sum_size"] = g["size"].sum().astype("int64")
    want = want.reset_index().sort_values("lang", ignore_index=True)
    got = read_view(vdir).to_pandas()[["lang", "n", "sum_size"]]
    assert got.reset_index(drop=True).equals(want)
    # the orphan was superseded and GC'd after the committed flip
    assert view_meta(vdir)["view_file"] == f"view-e{N_EPOCHS - 1}.parquet"


def test_view_int_group_column(wal_dir, tmp_path):
    """Grouping a view by an INT column must survive empty partial
    blocks (the changed-key retraction filter guarantees some): the
    empty partial's group-column type comes from the input schema, not
    a hardcoded string (ADVICE r3)."""
    from etl_ray.state.views import create_view, read_view, refresh_view

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    vdir = str(tmp_path / "view_int")
    create_view(lake, vdir, ["size"], [], as_of_epoch=0)
    refresh_view(lake, vdir)

    t = read_lake(lake, columns=["size"]).to_pandas()
    want = (t.groupby("size", dropna=False).size().rename("n")
            .reset_index().sort_values("size", ignore_index=True))
    got = (read_view(vdir).to_pandas()[["size", "n"]]
           .sort_values("size", ignore_index=True))
    assert got["n"].astype("int64").equals(want["n"].astype("int64"))
    assert got["size"].astype("int64").equals(want["size"].astype("int64"))


def test_compaction_racing_a_wal_commit_fails_loudly(wal_dir, ref_state,
                                                     tmp_path, monkeypatch):
    """A WAL commit that lands between a compaction's per-bucket resolve
    and its base commit makes the compaction raise, not commit a base
    that hides the epoch: the lake equals the reference before and after
    vacuum reclaims the orphan base, and a later compaction succeeds."""
    import ray

    from etl_ray.pipelines.cdc import apply_window
    from etl_ray.state import lake as lake_mod
    from etl_ray.state.lake import vacuum

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P,
           stop_after=N_EPOCHS - 1)
    resolve = lake_mod.bucket_tasks

    def resolve_then_wal_commit(*args, **kwargs):
        refs = resolve(*args, **kwargs)
        ray.get(refs)
        apply_window(wal_dir, lake, [N_EPOCHS - 1], P)
        return refs

    monkeypatch.setattr(lake_mod, "bucket_tasks", resolve_then_wal_commit)
    with pytest.raises(mf.EpochFencingError):
        compact(lake)
    monkeypatch.undo()
    want = ref_shas(ref_state)
    assert mf.last_wal_epoch(lake) == N_EPOCHS - 1
    assert lake_shas(lake) == want
    assert vacuum(lake)["deleted_data_files"] >= 1  # the orphan base
    assert lake_shas(lake) == want
    assert compact(lake) == len(want)
    assert mf.last_manifest(lake)["base"]
    assert lake_shas(lake) == want


def _rival_commits_first(monkeypatch, rival) -> None:
    """The next manifest write first runs ``rival`` (a whole commit):
    the writer folded the log before the rival committed and links its
    doc after it."""
    write = mf._write_doc

    def rival_then_write(*args):
        monkeypatch.setattr(mf, "_write_doc", write)
        rival()
        return write(*args)

    monkeypatch.setattr(mf, "_write_doc", rival_then_write)


def test_commit_racing_a_commit_of_its_epoch_is_a_noop(wal_dir, tmp_path,
                                                        monkeypatch):
    """Two commits of one WAL epoch that folded the same sequence: the
    rival's manifest is not overwritten, and the later commit is the
    idempotent no-op for an already committed epoch."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P,
           stop_after=N_EPOCHS - 1)
    seq, epoch = mf.snapshot(lake).seq + 1, N_EPOCHS - 1
    schema = mf.current_schema(lake)
    ghost = {"files": [], "lsn_min": -1, "lsn_max": -1, "n_events": 0,
             "n_upserts": 0, "n_deletes": 0, "n_rows": 0,
             "n_quarantined": 0, "checksum": "0" * 16, "hwm": 99}
    _rival_commits_first(monkeypatch, lambda: mf.commit_epoch(
        lake, epoch, schema, {}, P))
    assert mf.commit_epoch(lake, epoch, schema, {0: ghost}, P) is False
    assert mf.snapshot(lake).seq == seq
    assert mf.read_manifest(lake, seq)["partitions"] == {}
    assert mf.last_wal_epoch(lake) == epoch


def test_commit_racing_a_compaction_lands_at_next_sequence(
        wal_dir, ref_state, tmp_path, monkeypatch):
    """A WAL commit that folded the sequence a compaction base then took
    re-folds and lands at the next sequence; the base stays and the lake
    equals the reference."""
    from etl_ray.pipelines.cdc import apply_window

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P,
           stop_after=N_EPOCHS - 1)
    seq = mf.snapshot(lake).seq + 1
    _rival_commits_first(monkeypatch, lambda: compact(lake))
    assert apply_window(wal_dir, lake, [N_EPOCHS - 1], P)[0]["n_events"] > 0
    assert mf.read_manifest(lake, seq)["base"]
    assert mf.read_manifest(lake, seq + 1)["epoch"] == N_EPOCHS - 1
    assert mf.snapshot(lake).seq == seq + 1
    assert lake_shas(lake) == ref_shas(ref_state)


def test_engine_calls_fold_the_manifest_log_once(wal_dir, tmp_path,
                                                 monkeypatch):
    """On a lake of N >= 8 manifests, one replay call that applies one
    epoch (no compaction) reads each manifest at most once, and read_lake,
    lookup, changes_between and compact each read at most N; every call
    lists _manifests/ at most once."""
    import os

    from etl_ray.state import lake as lake_mod

    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P,
           stop_after=N_EPOCHS - 1)
    for _ in range(5):
        compact(lake)
    n = mf.snapshot(lake).seq + 1
    assert n >= 8
    reads, lists = [], []
    read, listdir = mf.read_manifest, os.listdir

    def counted_read(lake_dir, seq):
        reads.append(seq)
        return read(lake_dir, seq)

    def counted_listdir(path="."):
        if str(path).rstrip("/").endswith(mf.MANIFEST_DIR):
            lists.append(path)
        return listdir(path)

    monkeypatch.setattr(mf, "read_manifest", counted_read)
    monkeypatch.setattr(os, "listdir", counted_listdir)

    def counted(call):
        reads.clear()
        lists.clear()
        out = call()
        assert len(lists) <= 1
        return out, list(reads)

    s, got = counted(lambda: replay(wal_dir, lake, N_EPOCHS,
                                    num_partitions=P))
    assert s["epochs_applied"] == 1 and s["n_compactions"] == 0
    assert len(got) == len(set(got)) and set(got) <= set(range(n))
    n += 1
    for call in (lambda: lake_mod.read_lake(lake),
                 lambda: lake_mod.read_lake(lake, as_of_epoch=1),
                 lambda: lake_mod.lookup(lake, "org0/repo0", "src/a.py"),
                 lambda: lake_mod.changes_between(lake, 1, N_EPOCHS - 1),
                 lambda: compact(lake)):
        assert len(counted(call)[1]) <= n
