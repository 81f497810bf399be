"""Property-based tests (SURVEY.md §5.6, hypothesis): LWW semantics,
partition-count invariance, schema unification laws."""

import os

import hypothesis.strategies as st
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings

from etl_ray.state import schema as schema_mod

# ---------------------------------------------------------- schema laws


def test_unify_widens_and_adds():
    a = pa.schema([("x", pa.int32()), ("s", pa.string())])
    b = pa.schema([("x", pa.int64()), ("y", pa.float64())])
    u = schema_mod.unify(a, b)
    assert u.field("x").type == pa.int64()
    assert set(u.names) == {"x", "s", "y"}


def test_unify_rejects_incompatible():
    a = pa.schema([("x", pa.int64())])
    b = pa.schema([("x", pa.list_(pa.string()))])
    with pytest.raises(schema_mod.SchemaEvolutionError):
        schema_mod.unify(a, b)


def test_conform_backfills_nulls():
    t = pa.table({"x": pa.array([1, 2], pa.int32())})
    u = pa.schema([("x", pa.int64()), ("y", pa.string())])
    out = schema_mod.conform(t, u)
    assert out.schema == u
    assert out["y"].null_count == 2


@given(st.lists(st.sampled_from(["i32", "i64", "f64"]), min_size=1,
                max_size=6))
@settings(max_examples=30, deadline=None)
def test_unify_is_monotone_widening(kinds):
    """Folding unify over any sequence of schemas never narrows."""
    lattice = {"i32": pa.int32(), "i64": pa.int64(), "f64": pa.float64()}
    rank = {"i32": 0, "i64": 1, "f64": 2}
    cur = None
    best = -1
    for k in kinds:
        cur = schema_mod.unify(cur, pa.schema([("x", lattice[k])]))
        best = max(best, rank[k])
        assert rank[{pa.int32(): "i32", pa.int64(): "i64",
                     pa.float64(): "f64"}[cur.field("x").type]] >= best


# ------------------------------------------------ LWW keep-set primitive


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60),  # key ids
       st.integers(1, 4),        # hash buckets — forces collisions
       st.booleans())            # with extra grouping
@settings(max_examples=60, deadline=None)
def test_lww_keep_indices_exact_vs_string_dedup(kids, n_hash, use_extra):
    """The hash-keyed keep-set must NEVER drop a row the string-keyed
    reference keeps — even under forced hash collisions (distinct keys
    sharing one hash; hash stays a pure function of the key). Extra kept
    rows are allowed only in mixed-run collision cases (and flagged)."""
    import numpy as np
    import pandas as pd

    from etl_ray.util import lww_keep_indices

    n = len(kids)
    keys = [f"k{kid}" for kid in kids]
    # collision-forcing hash, still a pure function of the key
    kh = np.array([kid % n_hash for kid in kids], dtype=np.uint64)
    lsn = np.arange(n, dtype=np.int64)
    extra = (lsn % 2).astype(np.int64) if use_extra else None

    keep, mixed = lww_keep_indices(kh, lsn, pa.array(keys, pa.string()),
                                   extra=extra)

    # reference: string-keyed max-lsn per (key[, extra])
    df = pd.DataFrame({"key": keys, "lsn": lsn})
    if extra is not None:
        df["extra"] = extra
        grp = ["key", "extra"]
    else:
        grp = ["key"]
    want = set(df.sort_values("lsn").groupby(grp).tail(1).index)

    got = set(int(i) for i in keep)
    assert want <= got            # never loses the max-lsn row of a key
    if not mixed:
        assert got == want        # exact whenever no mixed collision run
    # any extra kept row must still be its own key's non-winning event,
    # never a fabricated index
    assert got <= set(range(n))


# ------------------------------------------------------- LWW replay law

_EVENT = st.tuples(
    st.integers(min_value=0, max_value=7),        # key id
    st.sampled_from(["I", "U", "D"]),             # op
)


@given(st.lists(_EVENT, min_size=1, max_size=40),
       st.sampled_from([1, 3, 8]))                # partition counts
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_lww_final_state_matches_dict_interpreter(tmp_path_factory, events,
                                                  num_partitions):
    """For ANY event sequence and ANY partition count, the replayed lake
    equals the trivial dict interpreter's final state."""
    import ray

    if not ray.is_initialized():  # hypothesis may outrun the fixture
        pytest.skip("ray session not up")
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import read_lake

    rows = []
    state = {}
    for lsn, (kid, op) in enumerate(events):
        key = f"src/f{kid}.py"
        content = None if op == "D" else f"content-{kid}-v{lsn}"
        rows.append({
            "lsn": lsn, "epoch": 0 if lsn < len(events) // 2 else 1,
            "op": op, "repo": "org0/repo0", "path": key,
            "commit": f"c{lsn}", "lang": "py", "content": content,
            "size": None if content is None else len(content),
        })
    # dict interpreter (lsn order == list order here)
    for r in rows:
        if r["op"] == "D":
            state.pop(r["path"], None)
        else:
            state[r["path"]] = r["content"]

    schema = pa.schema([
        ("lsn", pa.int64()), ("epoch", pa.int32()), ("op", pa.string()),
        ("repo", pa.string()), ("path", pa.string()),
        ("commit", pa.string()), ("lang", pa.string()),
        ("content", pa.string()), ("size", pa.int64()),
    ])
    base = tmp_path_factory.mktemp("prop")
    for ep in (0, 1):
        sub = [r for r in rows if r["epoch"] == ep]
        os.makedirs(base / "wal" / f"epoch={ep}", exist_ok=True)
        pq.write_table(
            pa.Table.from_pylist(sub, schema=schema) if sub else
            pa.Table.from_pylist([], schema=schema),
            base / "wal" / f"epoch={ep}" / "part-0.parquet")
    replay(str(base / "wal"), str(base / "lake"), 2,
           num_partitions=num_partitions)
    got = read_lake(str(base / "lake")).to_pandas()
    if len(got) == 0:  # empty lake loses its schema through to_pandas
        assert state == {}
    else:
        assert sorted(zip(got.path, got.content)) == sorted(state.items())
