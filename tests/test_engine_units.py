"""Unit tests for engine internals: the hot-key skew bound,
audit/quarantine routing, the Step/Pipeline extension surface,
partition-id determinism, and that every engine definition is reached."""

import ast
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.state.merge import prepare_events


def _wal_table(rows):
    cols = {
        "lsn": pa.int64(), "epoch": pa.int32(), "op": pa.string(),
        "repo": pa.string(), "path": pa.string(), "commit": pa.string(),
        "lang": pa.string(), "content": pa.string(), "size": pa.int64(),
    }
    return pa.table({c: pa.array([r.get(c) for r in rows], t)
                     for c, t in cols.items()})


def _ev(lsn, op="I", repo="org0/repo0", path="src/a.py", content="x = 1"):
    return {"lsn": lsn, "epoch": 0, "op": op, "repo": repo, "path": path,
            "commit": f"c{lsn}", "lang": "py", "content": content,
            "size": 5}


def test_hot_key_salting_spreads_partitions(tmp_path):
    """A hot key is no longer salted across partitions: every one of
    its events keeps the key's own pid, and the fragment writer's
    per-batch LWW reduce writes ONE row for it (its max-lsn event) —
    the skew bound that replaced salting. Cold keys stay on one pid
    each and keep one row each; lineage counts every event."""
    from etl_ray.state import schema as schema_mod
    from etl_ray.state.merge import (bucket_of, make_fragment_writer,
                                     payload_schema)

    P, B = 64, 8
    n_hot = 4096
    hot = [_ev(i, op="I" if i == 0 else "U", content=f"v{i}")
           for i in range(n_hot)]
    cold = [_ev(10_000_000 + i, path=f"src/cold_{i}.py") for i in range(3)]
    wal = _wal_table(hot + cold)
    t = prepare_events(P)(wal)
    pid = t["pid"].to_numpy()
    paths = np.array(t["path"].to_pylist())
    assert len(np.unique(pid[paths == "src/a.py"])) == 1   # not salted
    for i in range(3):
        assert len(np.unique(pid[paths == f"src/cold_{i}.py"])) == 1

    lake = str(tmp_path / "lake")
    entries = make_fragment_writer(
        lake, schema_mod.to_b64(payload_schema(wal.schema)), None, P, B)(t)\
        .to_pylist()
    hot_b = int(bucket_of(t["_kh"].to_numpy()[:1], P, B)[0])
    assert sum(e["n_events"] for e in entries) == n_hot + 3
    assert sum(e["n_rows"] for e in entries) == 1 + 3
    assert sum(e["n_events"] for e in entries if e["pid"] == hot_b) >= n_hot
    files = {f for e in entries for f in e["files"]}
    written = pa.concat_tables(
        pq.read_table(os.path.join(lake, f)) for f in sorted(files))
    rows = {r["path"]: r for r in written.to_pylist()}
    assert len(written) == 4 and len(rows) == 4
    assert rows["src/a.py"]["lsn"] == n_hot - 1
    assert rows["src/a.py"]["content"] == f"v{n_hot - 1}"


def test_prepare_events_audit_flags():
    rows = [
        _ev(1),                                    # good insert
        _ev(2, op="X"),                            # bad op
        _ev(3, repo=None),                         # null key
        {**_ev(4), "content": None},               # insert without content
        {**_ev(5, op="D"), "content": None,
         "commit": None, "lang": None, "size": None},  # delete: ok w/o content
    ]
    t = prepare_events(8)(_wal_table(rows))
    assert t["audit_ok"].to_pylist() == [True, False, False, False, True]
    reasons = t["audit_reason"].to_pylist()
    assert reasons[0] is None and reasons[1] == "audit_failed"


def test_expr_helpers_match_duckdb_scalars():
    """The expr helpers' DuckDB semantics, checked directly on Arrow
    arrays (floor, coalesce, list_flatten, 1-based substr)."""
    import duckdb

    from etl_ray.functions import expr

    con = duckdb.connect()
    s = pa.array(["alpha", "Beta", None, "gamma ray"])
    nums = pa.array([1.5, -2.25, 0.0, 9.0])
    lists = pa.array([[1, 2, 3], [], [5], [7, 8]],
                     pa.list_(pa.int64()))

    def sql1(e, **kw):
        return con.execute(f"SELECT {e}", kw or None).fetchone()[0]

    assert expr.floor(nums).to_pylist() == \
        [sql1(f"floor({v!r})") for v in nums.to_pylist()]
    assert expr.coalesce(s, pa.array(["x"] * 4)).to_pylist() == \
        ["alpha", "Beta", "x", "gamma ray"]
    assert expr.list_flatten(lists).to_pylist() == [1, 2, 3, 5, 7, 8]
    assert expr.substr(pa.array(["abcdef"]), 2, 3).to_pylist() == \
        [sql1("substr('abcdef', 2, 3)")]


def test_orc_datasource_streams_stripes(tmp_path, ray_session):
    """The custom ORC datasource must stream one block per stripe and
    round-trip values exactly."""
    from pyarrow import orc

    from etl_ray.sources.orc import read_orc

    t = pa.table({"x": pa.array(range(10_000), pa.int64()),
                  "s": pa.array([f"v{i}" for i in range(10_000)])})
    path = str(tmp_path / "multi.orc")
    orc.write_table(t, path, stripe_size=16 * 1024)  # force many stripes
    assert orc.ORCFile(path).nstripes > 1
    ds = read_orc(path)
    back = ds.to_pandas().sort_values("x").reset_index(drop=True)
    assert list(back.x) == list(range(10_000))
    assert back.s.iloc[123] == "v123"
    # block count reflects stripe streaming, not whole-file reads
    assert ds.materialize().num_blocks() > 1


def test_quarantine_routing_and_lineage(tmp_path, ray_session):
    """Bad events are quarantined (counted, side-filed), good events land
    in the lake."""
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import read_lake
    from etl_ray.state.lineage import lineage_table

    rows = ([_ev(i, path=f"src/f{i}.py") for i in range(20)]
            + [_ev(100 + i, op="X", path=f"src/bad{i}.py") for i in range(5)])
    wal = str(tmp_path / "wal")
    os.makedirs(f"{wal}/epoch=0")
    pq.write_table(_wal_table(rows), f"{wal}/epoch=0/part-0.parquet")
    lake = str(tmp_path / "lake")
    replay(wal, lake, 1, num_partitions=8)
    assert read_lake(lake).count() == 20
    lin = lineage_table(lake).to_pandas()
    assert lin["n_quarantined"].sum() == 5
    qdir = os.path.join(lake, "_quarantine")
    assert any(f.endswith(".parquet")
               for _, _, fs in os.walk(qdir) for f in fs)


def test_step_pipeline_compose(ray_session):
    import pyarrow.compute as pc

    import ray.data
    from etl_ray.pipelines.steps import (FilterStep, MapBatchesStep,
                                         Pipeline, SelectStep)

    ds = ray.data.range(100).map_batches(
        lambda t: pa.table({"x": t["id"]}), batch_format="pyarrow")
    pipe = Pipeline([
        MapBatchesStep("double", lambda t: t.append_column(
            "y", pc.multiply(t["x"], 2))),
        FilterStep("big", lambda t: pc.greater(t["y"], 100)),
        SelectStep(["y"]),
    ])
    out = pipe(ds).take_all()
    assert sorted(r["y"] for r in out) == list(range(102, 200, 2))
    with pytest.raises(TypeError):
        Pipeline([lambda ds: ds])  # bare callables are not Steps


def test_pid_routing_stable_across_processes():
    """hash64_str / key_hash64 must be process-stable (manifest-recorded
    partition ownership depends on them). Golden constants pin the
    polars row-hash values: if a library upgrade changes them,
    KEY_HASH_VERSION must be bumped (manifest.py fences mixed lakes)."""
    from etl_ray.util import hash64_str, key_hash64

    arr = pa.array(["org0/repo0\x00src/a.py", "b", "c"])
    h = hash64_str(arr)
    assert h.dtype == np.uint64
    assert list(h) == [8268208477124168340, 1337274829852096493,
                       10257678464519005255]
    t = pa.table({"repo": pa.array(["org0/repo0", "org1/r", "x"]),
                  "path": pa.array(["src/a.py", "lib/b.rs", "y"])})
    assert list(key_hash64(t, ["repo", "path"])) == [
        16257734406611662070, 12533470933925625283, 11312593743846405611]


def test_embedding_matrix_zero_copy_equivalence():
    """embedding_matrix must equal the to_pylist path it replaced, on
    plain, chunked, and SLICED list arrays (slice offsets are the
    classic raw-.values bug), and refuse ragged/null columns."""
    from etl_ray.util import embedding_matrix

    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
            [7.0, 8.0, 9.0], [0.5, -1.5, 2.5]]
    arr = pa.array(rows, type=pa.list_(pa.float32()))
    expect = np.array(rows, dtype=np.float64).astype(np.float32)
    got = embedding_matrix(arr)
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, expect.astype(np.float64))

    sliced = arr.slice(1, 2)
    np.testing.assert_array_equal(
        embedding_matrix(sliced),
        expect[1:3].astype(np.float64))

    chunked = pa.chunked_array([arr.slice(0, 2), arr.slice(2, 2)])
    np.testing.assert_array_equal(
        embedding_matrix(chunked), expect.astype(np.float64))

    assert embedding_matrix(pa.array([], pa.list_(pa.float32()))).size == 0

    with pytest.raises(ValueError):
        embedding_matrix(pa.array([[1.0], [1.0, 2.0]],
                                  type=pa.list_(pa.float32())))
    with pytest.raises(ValueError):
        embedding_matrix(pa.array([[1.0, 2.0], None],
                                  type=pa.list_(pa.float32())))


def test_rolling_poly_matches_naive_reference():
    """rolling_poly/segment_unique must reproduce the per-doc loops
    they replaced (same uint64 wraparound arithmetic), across window
    edge cases: n<k, n==k, n>k, and many segments."""
    from etl_ray.util import rolling_poly, segment_unique

    rng = np.random.RandomState(7)
    base = np.uint64(1099511628211)
    for width in (3, 4):
        weights = base ** np.arange(width - 1, -1, -1, dtype=np.uint64)
        lengths = rng.randint(1, 12, size=200)
        flat = rng.randint(0, 2**63, size=int(lengths.sum()),
                           dtype=np.uint64)
        # naive reference (the pre-r3 per-doc loop)
        ref_vals, ref_counts = [], []
        pos = 0
        for n in lengths:
            h = flat[pos:pos + n]
            pos += n
            if n < width:
                acc = np.uint64(0)
                for v in h:
                    acc = acc * base + v
                ref_vals.append(np.array([acc], dtype=np.uint64))
            else:
                win = np.lib.stride_tricks.sliding_window_view(h, width)
                ref_vals.append((win * weights).sum(
                    axis=1, dtype=np.uint64))
            ref_counts.append(len(ref_vals[-1]))
        got_vals, got_counts = rolling_poly(flat, lengths, width, base)
        np.testing.assert_array_equal(got_counts, ref_counts)
        np.testing.assert_array_equal(got_vals, np.concatenate(ref_vals))

        # segment_unique == np.unique per segment
        gu_vals, gu_counts = segment_unique(got_vals, got_counts)
        exp = [np.unique(v) for v in ref_vals]
        np.testing.assert_array_equal(gu_counts, [len(e) for e in exp])
        np.testing.assert_array_equal(gu_vals, np.concatenate(exp))

    # degenerate: no segments at all
    v, c = rolling_poly(np.empty(0, np.uint64), np.empty(0, np.int64),
                        3, base)
    assert len(v) == 0 and len(c) == 0


def test_task_cpus_reservation_widths(monkeypatch):
    """util.task_cpus reserves max(1, cpus//8) slots at every level: the
    effective task width floor(cpus / task_cpus) must be exactly
    cpus - max(1, cpus//8) (32→28, 16→14, 8→7, 4→3), with no float
    rounding losing an extra slot."""
    import math

    import ray as ray_mod

    from etl_ray import util

    for cpus, want_width in ((1, 1), (2, 1), (3, 2), (4, 3), (8, 7),
                             (16, 14), (32, 28), (64, 56), (256, 224)):
        monkeypatch.setattr(ray_mod, "cluster_resources",
                            lambda c=cpus: {"CPU": float(c)})
        tc = util.task_cpus()
        assert tc >= 1.0
        assert math.floor(cpus / tc) == want_width, (cpus, tc)
        assert util.task_slots() == want_width


def test_wal_scan_groups_balanced_and_deterministic():
    """wal.group_pieces puts every (file, row group) piece in exactly
    one of min(pieces, slots) groups, gives the same groups for the
    same inputs in any order, and keeps the largest group within one
    piece's rows of the smallest. Pieces of one file spread across
    slots, so a one-file window still fills them."""
    from etl_ray.sources.wal import group_pieces

    rng = np.random.default_rng(5)
    for n_files, max_rgs, slots in ((1, 1, 3), (1, 4, 3), (3, 1, 3),
                                    (32, 1, 3), (7, 3, 16), (50, 2, 7)):
        pieces = [(f"wal/epoch={i % 4}/part-{i:03d}.parquet", g)
                  for i in range(n_files)
                  for g in range(int(rng.integers(1, max_rgs + 1)))]
        rows = rng.integers(0, 16_385, len(pieces)).tolist()
        groups = group_pieces(pieces, rows, slots)
        assert len(groups) == min(len(pieces), slots)
        flat = [p for g in groups for p in g]
        assert sorted(flat) == sorted(pieces)  # each piece exactly once
        assert group_pieces(pieces, rows, slots) == groups
        # input order does not change the plan
        rev = group_pieces(pieces[::-1], rows[::-1], slots)
        assert rev == groups
        n_rows = dict(zip(pieces, rows))
        load = [sum(n_rows[p] for p in g) for g in groups]
        assert max(load) - min(load) <= max(rows)
    one_file = [("wal/epoch=0/part-a.parquet", g) for g in range(4)]
    assert len(group_pieces(one_file, [16_384] * 4, 3)) == 3


def test_wal_read_pieces_yields_row_groups_under_unified_schema(tmp_path):
    """wal.read_pieces decodes one row group per yield, in piece order,
    and reads a pre-evolution file under the unified schema (stars =
    null, size widened), so a read task never holds more than one row
    group beyond what Ray has already packed into blocks."""
    import types

    from etl_ray.sources.wal import read_pieces
    from etl_ray.state import schema as schema_mod

    old = pa.table({"lsn": pa.array(range(10), pa.int64()),
                    "size": pa.array(range(10), pa.int32())})
    new = pa.table({"lsn": pa.array(range(10, 14), pa.int64()),
                    "size": pa.array(range(4), pa.int64()),
                    "stars": pa.array(range(4), pa.int64())})
    pq.write_table(old, tmp_path / "a.parquet", row_group_size=4)
    pq.write_table(new, tmp_path / "b.parquet", row_group_size=4)
    schema = schema_mod.unify(old.schema, new.schema)
    pieces = [(str(tmp_path / "a.parquet"), 2),
              (str(tmp_path / "a.parquet"), 0),
              (str(tmp_path / "b.parquet"), 0)]
    it = read_pieces(schema, pieces)
    assert isinstance(it, types.GeneratorType)  # decodes per next()
    got = list(it)
    assert [t.num_rows for t in got] == [2, 4, 4]
    assert all(t.schema == schema for t in got)
    assert got[0]["lsn"].to_pylist() == [8, 9]
    assert got[1]["stars"].null_count == 4
    assert got[2]["stars"].to_pylist() == [0, 1, 2, 3]


def test_take_runs_matches_table_take_across_layouts():
    """util.take_runs == Table.take for every chunk layout / index order
    (it exists to avoid take's full-chunk concatenation, measured at
    3.2× the output bytes in fresh-page faults on the ingest)."""
    from etl_ray.util import take_runs

    rng = np.random.default_rng(11)
    t = pa.table({"a": pa.array(np.arange(200)),
                  "s": pa.array([f"v{i}" * (i % 5) for i in range(200)]),
                  "f": pa.array(rng.normal(size=200))})
    layouts = [
        t,                                                   # single chunk
        pa.concat_tables([t.slice(0, 50), t.slice(50, 150)]),
        pa.concat_tables([t.slice(0, 7), t.slice(7, 0),      # empty chunk
                          t.slice(7, 100), t.slice(107, 93)]),
    ]
    idxs = [np.array([], dtype=np.int64), np.arange(200),
            np.arange(0, 200, 7), rng.permutation(200),
            np.array([199, 0, 50, 49]), np.repeat([13, 60], 3)]
    for tm in layouts:
        for idx in idxs:
            exp = tm.take(pa.array(idx.astype(np.int64))).to_pylist()
            assert take_runs(tm, idx).to_pylist() == exp

    # a small interleaved gather (runs of 1-2 rows over 3 chunks) takes
    # the one-concat path; runs of ≥ 16 rows are gathered run by run
    small = pa.concat_tables([t.slice(0, 50), t.slice(50, 55),
                              t.slice(105, 50)])
    inter = rng.permutation(155)[:100]
    runs = np.concatenate([np.arange(120, 150), np.arange(0, 40),
                           np.arange(60, 100)])
    for idx, chunks in ((inter, 1), (runs, 3)):
        got = take_runs(small, idx)
        assert got.to_pylist() == small.take(pa.array(idx)).to_pylist()
        assert got.column("a").num_chunks == chunks


def test_sha256_hex_chunked_nulls_and_empties():
    """Chunk-aware vectorized sha: identical digests/prefixes to
    hashlib over any chunk layout, incl. nulls, empty strings,
    all-empty chunks, slices, and large_string."""
    import hashlib

    from etl_ray.util import sha256_hex_with_prefix, sha_prefix64

    vals = ["hello", None, "", "x" * 3000, "world", None, "y"]
    exp = [hashlib.sha256(v.encode()).hexdigest() if v is not None
           else None for v in vals]
    exp_pre = [int.from_bytes(bytes.fromhex(e[:16]), "big") if e else 0
               for e in exp]
    variants = [
        pa.array(vals),
        pa.chunked_array([pa.array(vals[:2]), pa.array(vals[2:5]),
                          pa.array(vals[5:]), pa.array([], pa.string())]),
        pa.array(vals, pa.large_string()),
    ]
    for col in variants:
        sha, pre = sha256_hex_with_prefix(col)
        assert sha.to_pylist() == exp
        assert pre.tolist() == exp_pre
        # the stored hex parses back to the same prefixes (null → 0)
        hexes = pa.chunked_array([sha.slice(0, 3), sha.slice(3)])
        for h in (sha, hexes, hexes.cast(pa.large_string())):
            assert sha_prefix64(h).tolist() == exp_pre
    sl = pa.array(vals).slice(1, 5)
    sha, pre = sha256_hex_with_prefix(sl)
    assert sha.to_pylist() == exp[1:6]
    sha, _ = sha256_hex_with_prefix(pa.chunked_array([pa.array(["", ""])]))
    assert sha.to_pylist() == [hashlib.sha256(b"").hexdigest()] * 2
    sha, pre = sha256_hex_with_prefix(pa.array([], pa.string()))
    assert len(sha) == 0 and len(pre) == 0


def test_ingest_returns_its_task_ledger(tmp_path, monkeypatch):
    """Beside its entry rows, the ingest function returns what its
    stages cost in this process, and counts a task that ran without
    the heap policy."""
    from etl_ray.pipelines import cdc
    from etl_ray.state import schema as schema_mod
    from etl_ray.state.merge import payload_schema

    t = _wal_table([_ev(1), _ev(2, path="src/b.py"), _ev(3, op="U")])
    monkeypatch.setattr(cdc, "retain_heap", lambda: False)
    ingest = cdc.make_ingest(str(tmp_path), schema_mod.to_b64(
        payload_schema(t.schema)), None, 8)
    rows, led = ingest([t])
    assert sum(r["n_events"] for r in rows) == led["rows_in"] == 3
    assert sum(r["n_rows"] for r in rows) == led["rows_out"] == 2
    assert led["bytes_out"] > 0 and led["tasks_off_heap_policy"] == 1
    for k in ("prep", "filter", "quarantine", "lww", "sort", "gather",
              "sha256", "conform", "write"):
        assert led[f"{k}_s"] > 0, k
    _, led = ingest([t])  # each call takes only its own costs
    assert led["rows_in"] == 3


def test_put_if_absent_without_hard_links_fails_clearly(tmp_path,
                                                       monkeypatch):
    """A filesystem that refuses hard links fails the commit with an
    error that names the requirement; nothing is committed and no temp
    file is left. A taken name still raises FileExistsError as is."""
    import errno

    from etl_ray.state import manifest as mf

    def _no_link(src, dst):
        raise PermissionError(errno.EPERM, "Operation not permitted")

    target = tmp_path / "epoch=0.json"
    monkeypatch.setattr(os, "link", _no_link)
    with pytest.raises(OSError, match="need hard links") as info:
        mf.put_if_absent(str(target), "{}")
    assert info.value.errno == errno.EPERM
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    mf.put_if_absent(str(target), "{}")
    with pytest.raises(FileExistsError):
        mf.put_if_absent(str(target), "{}")
    assert os.listdir(tmp_path) == ["epoch=0.json"]


def test_import_leaves_data_context_untouched():
    """Importing the driver contract and building the query registry
    must not change the process-wide Ray Data DataContext, nor Arrow's
    default memory pool (a separate process, so no earlier test has
    imported the engine)."""
    import subprocess
    import sys

    script = """
import pyarrow as pa
from ray.data import DataContext
ctx = DataContext.get_current()
before = {k: repr(v) for k, v in vars(ctx).items()}
pool = pa.default_memory_pool().backend_name
import __ray_entry__
__ray_entry__.queries()
after = {k: repr(v) for k, v in vars(DataContext.get_current()).items()}
changed = sorted(k for k in before.keys() | after.keys()
                 if before.get(k) != after.get(k))
assert DataContext.get_current() is ctx and not changed, changed
assert pa.default_memory_pool().backend_name == pool, pool
print("OK", len(before))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run([sys.executable, "-c", script], cwd=root,
                       env=dict(os.environ, PYTHONPATH=root),
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0 and r.stdout.startswith("OK"), \
        r.stdout + r.stderr[-3000:]


def test_engine_tasks_run_on_the_system_pool():
    """An engine task (``util.run_tasks``) runs under the heap policy:
    glibc's mallopt accepts both settings, so the worker's Arrow pool
    is the system allocator, whatever the driver's pool is."""
    from etl_ray.util import run_tasks

    def _pool() -> str:
        import pyarrow as pa

        return pa.default_memory_pool().backend_name

    assert run_tasks(_pool, [(), ()]) == ["system", "system"]


def test_blocks_and_gather_run_a_plan_once(ray_session, monkeypatch):
    """``util.blocks``/``gather`` bring a plan back from one execution:
    with ``Dataset.limit`` (the schema probe of ``to_arrow_refs``) made
    to raise, a lazy map keeps its blocks, their order and their rows;
    an all-filtered plan gives one typed empty table; a zero-block
    ``util.dataset`` and a materialized input work; ``util.concat``
    promotes null columns; and
    ``merge_partials`` and ``top_k`` give their empty results on an
    input with no row."""
    import pyarrow.compute as pc
    import ray.data

    from etl_ray.pipelines._qutil import merge_partials, top_k
    from etl_ray.util import blocks, concat, dataset, gather

    def no_probe(self, *a, **kw):
        raise AssertionError("a Ray Data schema probe ran")

    monkeypatch.setattr(ray.data.Dataset, "limit", no_probe)
    monkeypatch.setattr(ray.data.DataContext.get_current().execution_options,
                        "preserve_order", True)
    t = pa.table({"k": pa.array(range(12), pa.int64()),
                  "v": pa.array([f"r{i}" for i in range(12)])})
    src = ray.data.from_arrow([t.slice(0, 5), t.slice(5, 4), t.slice(9)])
    lazy = src.map_batches(
        lambda b: b.append_column("w", pc.multiply(b["k"], 2)),
        batch_format="pyarrow", batch_size=None)
    parts = ray.get(blocks(lazy))
    assert [p["k"].to_pylist() for p in parts] == \
        [list(range(5)), list(range(5, 9)), list(range(9, 12))]
    got = gather(lazy)
    assert got.column_names == ["k", "v", "w"]
    assert got["k"].to_pylist() == list(range(12))
    assert got["w"].to_pylist() == [2 * i for i in range(12)]

    none = src.map_batches(lambda b: b.filter(pc.greater(b["k"], 99)),
                           batch_format="pyarrow")
    empty = gather(none)
    assert empty.num_rows == 0 and empty.schema == t.schema
    assert gather(dataset([], t.schema)).schema == t.schema
    assert gather(dataset([], pa.schema([]))) == pa.table({})
    nulls = pa.table({"k": pa.array([None], pa.null())})
    assert concat([pa.table({}), nulls, t.slice(0, 1)]).schema == \
        pa.schema([("k", pa.int64()), ("v", pa.string())])
    assert concat([]) == pa.table({})
    mat = lazy.materialize()
    assert [r.hex() for r in blocks(mat)] == [r.hex() for r in blocks(mat)]
    assert gather(mat).equals(got)

    # a map over no row runs no UDF: its blocks have no columns
    partials = none.map_batches(
        lambda b: pa.table({"k": b["k"], "n": pc.add(b["k"], 1)}),
        batch_format="pyarrow")
    g = merge_partials(partials, ["k"], [("n", "sum")])
    assert g.column_names == ["k", "n"] and g.num_rows == 0
    assert top_k(none, [("k", "descending")], 3).equals(
        t.schema.empty_table())
    assert top_k(dataset([], pa.schema([])), [("k", "descending")], 3) == \
        pa.table({})
    assert top_k(lazy, [("k", "descending")], 3)["k"].to_pylist() == \
        [11, 10, 9]


# Engine definitions no root reaches, kept on purpose.
UNREACHED_ON_PURPOSE = {
    "reference_replay": "test oracle: the CDC tests' pure-Python LWW replay",
    "embedding_neardup_brute": "test oracle: the O(N²) pair scan that "
                               "embedding_neardup must equal",
    "read_epochs": "the WAL Dataset source of the LakeSink tests",
}


def _mentions(node) -> set[str]:
    """The names ``node``'s code mentions: identifiers, attribute names
    and identifier-valued strings (the lazy API table and the tracer
    name functions by string). An import mentions nothing."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            out.add(n.value)
    return out


def test_every_engine_definition_is_reachable():
    """A name-reachability scan of ``etl_ray/`` (``ast`` only, no Ray).
    Roots: the ``@register``ed queries, dunder definitions (the lazy
    ``etl_ray.__getattr__`` API), all of ``cli.py``, the ``steps.py``
    classes, module-level code, and every name in ``bench.py``,
    ``__ray_entry__.py``, ``tools/`` and ``perfbench/``. A top-level
    function, class or constant is live once a live definition mentions
    its name; what stays unreached must be exactly the allowlist."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    live: set[str] = set()
    for path in [root / "bench.py", root / "__ray_entry__.py",
                 *(root / "tools").glob("*.py"),
                 *(root / "perfbench").glob("*.py")]:
        live |= _mentions(ast.parse(path.read_text()))
    defs: dict[str, list] = {}
    for path in sorted((root / "etl_ray").rglob("*.py")):
        mod = path.relative_to(root).as_posix()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [node.target.id]
            else:
                names = []
            registered = any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None)
                == "register" for d in getattr(node, "decorator_list", []))
            if (not names or names[0].startswith("__") or registered
                    or mod == "etl_ray/cli.py"
                    or (mod.endswith("/steps.py")
                        and isinstance(node, ast.ClassDef))):
                live |= _mentions(node)
            else:
                for name in names:
                    defs.setdefault(name, []).append((mod, node))
    todo = list(live)
    while todo:
        for _, node in defs.pop(todo.pop(), []):
            new = _mentions(node) - live
            live |= new
            todo += new
    extra = {f"{mod}:{node.lineno} {name}":
             f"{node.end_lineno - node.lineno + 1} lines"
             for name, found in sorted(defs.items()) for mod, node in found
             if name not in UNREACHED_ON_PURPOSE}
    assert not extra, f"engine definitions that only tests reach: {extra}"
    assert set(defs) == set(UNREACHED_ON_PURPOSE)
