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


def test_full_replay_matches_reference(wal_dir, ref_state, tmp_path):
    lake = str(tmp_path / "lake")
    s = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s["epochs_applied"] == N_EPOCHS
    assert lake_shas(lake) == ref_shas(ref_state)
    # full-row equality incl. schema-evolution columns
    tbl = read_lake(lake).to_pandas()
    got = sorted(zip(tbl.repo, tbl.path, tbl.commit))
    want = sorted((v["repo"], v["path"], v["commit"]) for v in ref_state.values())
    assert got == want


def test_resume_from_checkpoint_reconverges(wal_dir, ref_state, tmp_path):
    lake = str(tmp_path / "lake")
    s1 = replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2)
    assert s1["epochs_applied"] == 2
    assert mf.last_committed(lake) == 1
    # "crash" happened here; a fresh replay resumes from the manifest log
    s2 = replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    assert s2["first_epoch"] == 2
    assert lake_shas(lake) == ref_shas(ref_state)


def test_double_apply_is_idempotent(wal_dir, ref_state, tmp_path):
    from etl_ray.pipelines.cdc import apply_epoch
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    before = lake_shas(lake)
    # re-apply the last epoch: commit is a no-op, hwm filter drops all events
    apply_epoch(wal_dir, lake, N_EPOCHS - 1, P)
    assert mf.last_committed(lake) == N_EPOCHS - 1
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


def test_compaction_preserves_state(wal_dir, ref_state, tmp_path):
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P)
    before = lake_shas(lake)
    n = compact(lake)
    assert n == len(ref_state)
    assert lake_shas(lake) == before
    # compaction reduced the visible file count to ≤ P
    assert len(mf.committed_files(lake)) <= P


def test_direct_and_sorted_modes_converge_identically(wal_dir, ref_state,
                                                      tmp_path):
    """The shuffle-free direct-write ingest and the sorted per-partition
    merge must produce the same final table (and match the reference)."""
    ld, ls = str(tmp_path / "ld"), str(tmp_path / "ls")
    replay(wal_dir, ld, N_EPOCHS, num_partitions=P, mode="direct")
    replay(wal_dir, ls, N_EPOCHS, num_partitions=P, mode="sorted")
    assert lake_shas(ld) == lake_shas(ls) == ref_shas(ref_state)


def test_resumed_lake_keeps_its_mode(wal_dir, tmp_path):
    """A lake started in sorted mode must resume in sorted mode (the
    manifest watermark index is keyed differently per mode)."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2,
           mode="sorted")
    assert mf.lake_mode(lake) == "sorted"
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, mode="direct")
    assert mf.lake_mode(lake) == "sorted"  # direct request was overridden


def test_compaction_preserves_mode_and_resume(wal_dir, ref_state, tmp_path):
    """Compacting a direct-mode lake mid-stream must keep the lake in
    direct mode (bucket-keyed watermarks) and replay must resume from
    the correct WAL epoch past the base manifest."""
    lake = str(tmp_path / "lake")
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, stop_after=2,
           mode="direct")
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


def test_partial_compaction(wal_dir, ref_state, tmp_path):
    """Bucket-subset compaction rewrites only the targeted keys' files
    (closed over shared fragments), leaves other keys' deltas alone,
    keeps every read surface correct, and composes with vacuum."""
    from etl_ray.state.lake import lookup, vacuum

    lake = str(tmp_path / "lake")
    # sorted mode: delta files are pid-pure, so the shared-file closure
    # is trivial and bucket-subset semantics are observable at this
    # scale (direct-mode range fragments at tiny scale share one file
    # per task across all buckets → closure rightly degenerates to full)
    replay(wal_dir, lake, N_EPOCHS, num_partitions=P, mode="sorted")
    before_counts = mf.live_file_counts(lake)
    hot = max(before_counts, key=before_counts.get)
    n = compact(lake, buckets=[hot])
    assert n > 0
    after = mf.live_file_counts(lake)
    assert after[hot] <= 1  # hot key now reads one base file
    # untouched keys outside the closure keep their delta counts
    vis = mf.visible_entry_files(lake)
    untouched = [k for k in before_counts
                 if k != hot and after.get(k) == before_counts[k]]
    assert untouched  # the partial base did NOT reset the whole lake
    # full state still equals the reference
    assert lake_shas(lake) == ref_shas(ref_state)
    # point lookups stay correct after vacuum removes replaced files
    vacuum(lake)
    assert lake_shas(lake) == ref_shas(ref_state)
    (repo, path), want = next(iter(ref_state.items()))
    got = lookup(lake, repo, path)
    assert got is not None and got["commit"] == want["commit"]


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
    current schema) on a direct-mode lake replayed in two calls across
    the schema evolution, with a salted hot key whose winning version
    sits in a salt-span bucket — before and after partial compaction
    + vacuum. Keys last written before the evolution must come back
    with the evolved columns (``stars`` null), not their file's."""
    import os

    import pyarrow as pa

    from etl_ray.state.lake import lookup, vacuum
    from etl_ray.state.lineage import lineage_table
    from etl_ray.state.merge import SALT_FACTOR
    from etl_ray.util import key_hash64

    P = 64  # direct mode: 8 buckets of 8 pids

    def pid_of(repo):
        return int(key_hash64(pa.table(
            {"repo": pa.array([repo]), "path": pa.array(["x.py"])}),
            ["repo", "path"])[0]) % P

    # a hot key whose natural pid ends a bucket: every non-zero salt
    # routes its events to the NEXT bucket
    hot = next(f"org/hot{i}" for i in range(10000)
               if pid_of(f"org/hot{i}") % 8 == 7
               and pid_of(f"org/hot{i}") < P - 1)

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
    # 3200 events: the replay splits the epoch into 8 blocks, each
    # holding more hot events than the per-batch salting threshold;
    # the last one has lsn % SALT_FACTOR == 3, so it is written under
    # a salted bucket
    e0 += [ev(100 + j, 0, "I" if j == 0 else "U", hot, j)
           for j in range(3200)]
    assert e0[-1]["lsn"] % SALT_FACTOR == 3
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
    replay(wal, lake, 1, num_partitions=P, mode="direct")
    # salting precondition: the hot key's salted events (7 of every 8)
    # were counted under the bucket after its natural one, which holds
    # only a few cold keys otherwise
    hot_bucket = pid_of(hot) * 8 // P
    lin = lineage_table(lake).to_pandas()
    assert lin[lin.pid == hot_bucket + 1].n_events.sum() >= 525
    replay(wal, lake, 2, num_partitions=P, mode="direct")
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
    compact(lake, buckets=[hot_bucket])
    assert mf.last_manifest(lake)["partial"]
    vacuum(lake)
    check("after partial compact + vacuum")


def test_single_hot_key_salting_spreads_partitions(tmp_path):
    """ONE key carrying more events than SALT_THRESHOLD in a batch must
    be salted across several merge partitions (the sorted-mode skew
    bound) while LWW still converges to that key's max-lsn event."""
    import os

    import pyarrow as pa

    from etl_ray.state.lineage import lineage_table
    from etl_ray.state.merge import SALT_THRESHOLD

    n_hot = SALT_THRESHOLD * 2
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

    lake = str(tmp_path / "lake_hot")
    replay(wal, lake, 1, num_partitions=16, mode="sorted")
    lin = lineage_table(lake).to_pandas()
    # the hot key's events were salted across >= 4 merge partitions
    # (unsalted routing would put all 8192+ events on ONE pid)
    assert (lin.n_events >= SALT_THRESHOLD // 8).sum() >= 4
    # and LWW across the salted partitions still yields the max-lsn row
    final = read_lake(lake).to_pandas()
    hot = final[final.repo == "org0/hot"]
    assert len(hot) == 1
    assert hot.iloc[0].content == f"hot-v{n_hot - 1}"
    assert len(final) == 51


def test_time_travel_and_change_feed(wal_dir, ref_state, tmp_path):
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
    assert mf.last_committed(lake) == -1
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
    from etl_ray.pipelines.cdc import apply_epoch

    out = apply_epoch(wal_dir, lake, 0, P)
    assert out.get("skipped") is True
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


def test_partial_compact_salted_hot_keys_and_vacuum(tmp_path):
    """The hot-key-salting × partial-compaction interaction (sorted
    mode, pid-level entries so the scenarios stay isolated):

    1. compacting a SPILL pid (one a hot key's salted events landed on)
       must expand the target set to the key's natural pid — otherwise
       the partial base resets a pid whose deltas were never read and
       vacuum permanently deletes every other key in it;
    2. a partial base must keep REAL lsns — a lsn=0 base row for a hot
       key loses to the key's older salted rows left in un-compacted
       pids (stale resurrection);
    3. a partial base must keep delete TOMBSTONES — dropping one
       resurrects an older salted upsert from an un-compacted pid.
    """
    import os

    import pyarrow as pa

    from etl_ray.state.lake import (audit_lake, changes_between, lookup,
                                    vacuum)
    from etl_ray.util import key_hash64

    P = 64

    def pid_of(repo, path):
        # int() BEFORE the modulus: np.uint64 % python-int promotes to
        # float64 and mangles the low bits
        return int(key_hash64(pa.table(
            {"repo": pa.array([repo]), "path": pa.array([path])}),
            ["repo", "path"])[0]) % P

    # deterministic search: two hot keys whose natural pids sit mid-
    # bucket (salt span q..q+7 doesn't wrap) with disjoint spans
    hot = []
    i = 0
    while len(hot) < 2 and i < 10000:
        name = f"org/h{i}"
        q = pid_of(name, "x.py")
        if q <= 48 and all(abs(q - q0) > 8 for _, q0 in hot):
            hot.append((name, q))
        i += 1
    (k1, q1), (k2, q2) = hot

    rows = []
    # K1: 8193 updates, lsns 0..8192. max lsn 8192 ≡ 0 (mod 8) → salt 0
    # → natural pid q1; lsns ≡ 7 salt to q1+7.
    for lsn in range(8193):
        rows.append({"lsn": lsn, "epoch": 0,
                     "op": "I" if lsn == 0 else "U", "repo": k1,
                     "path": "x.py", "commit": f"c{lsn}", "lang": "py",
                     "content": f"h1-v{lsn}", "size": 1})
    # K2: 4096 upserts at lsns ≡ 7 (mod 8) → all salt to q2+7, then a
    # DELETE at lsn 60000 ≡ 0 → salt 0 → natural pid q2.
    for j in range(4096):
        lsn = 10007 + 8 * j
        rows.append({"lsn": lsn, "epoch": 0,
                     "op": "I" if j == 0 else "U", "repo": k2,
                     "path": "x.py", "commit": f"d{lsn}", "lang": "py",
                     "content": f"h2-v{lsn}", "size": 1})
    rows.append({"lsn": 60000, "epoch": 0, "op": "D", "repo": k2,
                 "path": "x.py", "commit": "del", "lang": "py",
                 "content": None, "size": 1})
    # cold tail: 400 keys spread over all pids (the data the pre-fix
    # partial base silently loses)
    cold_pids = {}
    for j in range(400):
        name = f"org/c{j}"
        rows.append({"lsn": 70000 + j, "epoch": 0, "op": "I",
                     "repo": name, "path": "c.py", "commit": f"k{j}",
                     "lang": "py", "content": f"cold-{j}", "size": 1})
        cold_pids.setdefault(pid_of(name, "c.py"), name)
    # scenario preconditions: colds exist in every pid we compact/reset
    assert q1 in cold_pids and q2 in cold_pids

    schema = pa.schema([
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()), ("size", pa.int64()),
    ])
    wal = str(tmp_path / "wal_pc")
    os.makedirs(f"{wal}/epoch=0")
    pq.write_table(pa.Table.from_pylist(rows, schema=schema),
                   f"{wal}/epoch=0/part-0.parquet")
    lake = str(tmp_path / "lake_pc")
    replay(wal, lake, 1, num_partitions=P, mode="sorted",
           auto_compact=None)

    # precondition: salting actually spilled K1 to q1+7 and K2 to q2+7
    vis = mf.visible_entry_files(lake)
    for spill, key in ((q1 + 7, k1), (q2 + 7, k2)):
        got = set()
        for f in vis.get(spill, []):
            got |= set(pq.read_table(f, columns=["repo"])["repo"].to_pylist())
        assert key in got, "salting precondition not met"

    def check_state(stage):
        final = read_lake(lake).to_pandas()
        by_key = dict(zip(final.repo, final.content))
        assert by_key.get(k1) == "h1-v8192", stage       # scenario 2
        assert k2 not in by_key, stage                   # scenario 3
        assert sum(r.startswith("org/c") for r in by_key) == 400, stage
        assert len(final) == 401, stage                  # scenario 1

    # stage 1: compact a spill pid of K1 → closure must pull in q1
    compact(lake, buckets=[q1 + 7])
    man = mf.last_manifest(lake)
    assert man["partial"] and str(q1) in man["partitions"]
    vacuum(lake)
    check_state("after spill-pid compact + vacuum")

    # stage 2: compact K2's natural pid → tombstone must survive
    compact(lake, buckets=[q2])
    vacuum(lake)
    check_state("after tombstone-pid compact + vacuum")

    assert lookup(lake, k1, "x.py")["content"] == "h1-v8192"
    assert lookup(lake, k2, "x.py") is None
    assert audit_lake(lake)["checksum_ok"]

    # vacuumed change-feed history now fails loudly, not mid-scan
    with pytest.raises(FileNotFoundError, match="vacuum"):
        changes_between(lake, -1, 0)


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


def test_incremental_view_maintenance(wal_dir, tmp_path):
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
        t = read_lake(lake, columns=["lang", "size"], as_of_epoch=epoch,
                      keep_sha=False).to_pandas()
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


def test_export_snapshot_resumable_and_salt_correct(wal_dir, ref_state,
                                                    tmp_path):
    """Snapshot export == read_lake row set (sha multiset vs the
    reference interpreter), a re-run after deleting _SUCCESS skips
    every finished bucket, a deleted bucket file is re-exported without
    touching the others, and an engineered salted hot key (its max-lsn
    row living under a salted pid, not its natural one) exports its
    newest value — the salt-span closure at work."""
    import glob
    import os

    import pyarrow as pa

    from etl_ray.state.export import export_snapshot
    from etl_ray.util import key_hash64

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

    # salted hot key: 8193 updates in one epoch salt across pids
    # q..q+7; the max-lsn event (lsn 8192 ≡ 0 mod 8) stays on the
    # natural pid but lsn 8191 lands on q+7 — export must not pick it
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
    # and the hot row's bucket is its NATURAL bucket
    kh = int(key_hash64(pa.table({"repo": pa.array(["org/hot"]),
                                  "path": pa.array(["x.py"])}),
                        ["repo", "path"])[0])
    nat_bucket = (kh % P2) * (P2 // 8) // P2
    bf = glob.glob(f"{out2}/bucket={nat_bucket}/*.parquet")
    assert any("v8192" in pq.read_table(f)["content"].to_pylist()
               for f in bf)


def test_export_fully_salted_key_not_lost(tmp_path):
    """A hot key whose every surviving event salted AWAY from its
    natural pid (all lsns ≡ 7 mod SALT_FACTOR) leaves its natural
    entry empty — the export must still emit it, under its natural
    bucket, via the reverse salt span (regression: export used to
    launch tasks only for entry keys with visible files)."""
    import glob
    import os

    import pyarrow as pa

    from etl_ray.state.export import export_snapshot

    P2 = 64
    rows = [{"lsn": 7 + 8 * j, "epoch": 0, "op": "I" if j == 0 else "U",
             "repo": "org/ghost", "path": "x.py", "commit": f"c{j}",
             "lang": "py", "content": f"g{j}", "size": 1}
            for j in range(4096)]
    rows.append({"lsn": 2, "epoch": 0, "op": "I", "repo": "org/other",
                 "path": "y.py", "commit": "k", "lang": "py",
                 "content": "other", "size": 1})
    wal = str(tmp_path / "wal")
    d = os.path.join(wal, "epoch=0")
    os.makedirs(d)
    pq.write_table(pa.Table.from_pylist(rows), f"{d}/part-0.parquet")
    lake = str(tmp_path / "lake")
    replay(wal, lake, 1, num_partitions=P2, mode="sorted")

    out = str(tmp_path / "snap")
    export_snapshot(lake, out)
    snap = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(f"{out}/bucket=*/*.parquet")]
    ).to_pandas()
    ghost = snap[snap.repo == "org/ghost"]
    assert len(ghost) == 1 and ghost.iloc[0]["content"] == "g4095"
    assert len(snap) == 2


def test_export_salt_span_closure_any_bucketing():
    """span_keys/reverse_span must close over every salted landing
    bucket for ANY (P, B) pair — including B that does not divide P,
    where the old floor-division upper bound dropped the bucket's last
    natural pid and the closure could omit the entry holding a hot
    key's max-lsn row (ADVICE r3)."""
    from etl_ray.state.export import reverse_span, span_keys
    from etl_ray.state.merge import SALT_FACTOR

    for P2, B in [(64, 8), (12, 5), (13, 5), (7, 3), (96, 7),
                  (33, 33), (10, 1), (19, 6)]:
        for p in range(P2):
            nat = p * B // P2
            span = set(span_keys(nat, P2, B, "direct", SALT_FACTOR))
            for s in range(SALT_FACTOR):
                b_s = ((p + s) % P2) * B // P2
                # forward closure: every bucket a salted row of a
                # key natural to `nat` can land in is read by nat's task
                assert b_s in span, (P2, B, p, s)
                # reverse closure: the landing bucket's reverse span
                # names `nat`, so nat's export task is LAUNCHED even if
                # its natural entry is empty (fully-salted ghost key)
                assert nat in reverse_span(b_s, P2, B, "direct",
                                           SALT_FACTOR), (P2, B, p, s)
    # sorted mode: pid-keyed spans are plain modular windows
    assert span_keys(6, 8, 8, "sorted", 4) == [6, 7, 0, 1]
    assert reverse_span(1, 8, 8, "sorted", 4) == [1, 0, 7, 6]


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
    t = read_lake(lake, columns=["lang", "size"], keep_sha=False).to_pandas()
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

    t = read_lake(lake, columns=["size"], keep_sha=False).to_pandas()
    want = (t.groupby("size", dropna=False).size().rename("n")
            .reset_index().sort_values("size", ignore_index=True))
    got = (read_view(vdir).to_pandas()[["size", "n"]]
           .sort_values("size", ignore_index=True))
    assert got["n"].astype("int64").equals(want["n"].astype("int64"))
    assert got["size"].astype("int64").equals(want["size"].astype("int64"))
