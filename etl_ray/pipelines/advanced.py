"""Advanced / composite operators: as-of join, windowed analytics,
statistical aggregates, set ops, staging sink round-trip.

These cover the SURVEY §2 rows that compose several primitives — each
documents its partitioning assumption where it has one.
"""

from __future__ import annotations

import hashlib
import shutil

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

import ray

from etl_ray.pipelines._qutil import (fixed_point, fixed_point_scalar,
                                      half_away_int64, merge_partials,
                                      read, shard_apply)
from etl_ray.pipelines.queries import register
from etl_ray.util import gather

# ------------------------------------------------------------- as-of join


@register(
    "asof_join",
    """WITH rates AS (
           SELECT DISTINCT date_trunc('hour', ts) AS rts,
                  CAST(epoch(date_trunc('hour', ts)) % 97 AS BIGINT) AS rate
           FROM events WHERE hour(ts) % 3 = 0
       )
       SELECT e.event_id, r.rate
       FROM events e ASOF JOIN rates r ON e.ts >= r.rts""",
)
def asof_join(sf_dir: str):
    """As-of (backward) join of the event stream against a sparse,
    time-ordered rate table.

    Partitioning assumption: the small side (rates) is broadcast sorted
    (ray.put once); each batch resolves its as-of match with one
    np.searchsorted — no shuffle. The rates table is DERIVED
    DISTRIBUTED (per-block distinct hour marks → tiny driver distinct
    over ≤ blocks × span-hours rows — never a driver read of the fact
    table's full ts column).
    """
    ds = read(sf_dir, "events", ["event_id", "ts"])

    def _marks(t: pa.Table) -> pa.Table:
        hours = pc.unique(pc.floor_temporal(t["ts"], unit="hour")
                          .combine_chunks())
        hod = pc.hour(hours)
        keep = hours.filter(pc.equal(pc.subtract(hod, pc.multiply(
            pc.divide(hod, 3), 3)), 0))  # hour(ts) % 3 == 0
        return pa.table({"rts_us": keep.cast(pa.int64())})

    marks_us = np.unique(gather(ds.map_batches(_marks, batch_format="pyarrow"))
                         ["rts_us"].to_numpy())
    rate = (marks_us // 10**6) % 97  # epoch-seconds % 97
    ref = ray.put((marks_us, rate))

    def _probe(t: pa.Table) -> pa.Table:
        marks_us, rates = ray.get(ref)
        ts = t["ts"].cast(pa.int64()).to_numpy()
        idx = np.searchsorted(marks_us, ts, side="right") - 1
        ok = idx >= 0  # events before the first mark have no match (inner)
        return pa.table({
            "event_id": t["event_id"].take(pa.array(np.flatnonzero(ok))),
            "rate": pa.array(rates[idx[ok]], pa.int64()),
        })

    return ds.map_batches(_probe, batch_format="pyarrow")


# --------------------------------------------------------- window analytics


@register(
    "window_running_sum",
    """SELECT event_id,
              CAST(ROUND(SUM(value) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id) * 100)
                  AS BIGINT) AS run_c
       FROM events""",
)
def window_running_sum(sf_dir: str):
    """Per-key running sum (SQL window function) on the key-hash
    exchange: the exchange key is the window partition key, and each
    shard runs one sort by (user_id, ts, event_id) — a total in-group
    order, so the cumulative doubles are bit-identical to the oracle's
    — and one segmented cumsum (polars ``cum_sum().over``)."""
    ds = read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def _cum(t: pa.Table) -> pa.Table:
        t = t.sort_by([("user_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        run = pl.from_arrow(t.select(["user_id", "value"])).select(
            pl.col("value").cum_sum().over("user_id")).to_series()
        # sign-aware half-away-from-zero = SQL ROUND (floor(x+0.5) would
        # round negative halves the wrong way)
        return pa.table({"event_id": t["event_id"],
                         "run_c": half_away_int64(run.to_numpy() * 100)})

    return shard_apply(ds, ["user_id"], _cum)


@register(
    "agg_stats",
    """SELECT l_returnflag,
              CAST(ROUND(STDDEV_SAMP(l_quantity) * 10000) AS BIGINT) AS std_e4,
              MIN(l_quantity) AS min_qty, MAX(l_quantity) AS max_qty,
              COUNT(*) AS n
       FROM lineitem GROUP BY l_returnflag""",
)
def agg_stats(sf_dir: str):
    """G2 statistical aggregates (sample stddev, ddof=1 both sides):
    one Arrow ``group_by`` per key-hash shard, each over whole groups."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def _stats(t: pa.Table) -> pa.Table:
        g = t.group_by("l_returnflag").aggregate([
            ("l_quantity", "stddev", pc.VarianceOptions(ddof=1)),
            ("l_quantity", "min"), ("l_quantity", "max"),
            ([], "count_all")])
        return fixed_point(pa.table({
            "l_returnflag": g["l_returnflag"],
            "std_e4": g["l_quantity_stddev"],
            "min_qty": g["l_quantity_min"], "max_qty": g["l_quantity_max"],
            "n": g["count_all"]}), "std_e4", 10000)

    return shard_apply(ds, ["l_returnflag"], _stats)


# ------------------------------------------------------------------ set ops


def _sided(ds, col: str, tag: str, side: int):
    """Project to (tag, key:int64, side) — per-block distinct pre-reduce
    so the exchange moves one row per distinct (key, side) per block."""
    def _f(t: pa.Table) -> pa.Table:
        k = pc.unique(pc.cast(t[col], pa.int64()).combine_chunks())
        return pa.table({"tag": pa.array([tag] * len(k), pa.string()),
                         "key": k,
                         "side": pa.array(np.full(len(k), side, np.int64))})
    return ds.map_batches(_f, batch_format="pyarrow")


@register(
    "set_ops",
    """SELECT 'intersect' AS tag, nationkey AS key FROM (
           SELECT CAST(c_nationkey AS BIGINT) AS nationkey FROM customer
           INTERSECT
           SELECT CAST(s_nationkey AS BIGINT) AS nationkey FROM supplier)
       UNION ALL
       SELECT 'except' AS tag, key FROM (
           SELECT CAST(c_custkey AS BIGINT) AS key FROM customer
           EXCEPT
           SELECT CAST(o_custkey AS BIGINT) AS key FROM orders
           WHERE o_totalprice > 300000)""",
)
def set_ops(sf_dir: str):
    """U2 intersect + except in one tagged result, as ONE key-hash
    exchange and no join: every side's distinct keys carry their set
    operation's tag and a side id, and each shard groups by (tag, key)
    keeping the min/max side. intersect = key seen on both sides
    (min=0, max=1); except = key seen only on the left (max=0). One
    all-to-all on pre-reduced pairs serves both operations."""
    def _keep(t: pa.Table) -> pa.Table:
        g = t.group_by(["tag", "key"]).aggregate(
            [("side", "min"), ("side", "max")])
        want_max = pc.if_else(pc.equal(g["tag"], "intersect"), 1, 0)
        return g.filter(pc.and_(pc.equal(g["side_min"], 0),
                                pc.equal(g["side_max"], want_max))
                        ).select(["tag", "key"])

    big = read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 300000)),
        batch_format="pyarrow")
    sides = [
        _sided(read(sf_dir, "customer", ["c_nationkey"]), "c_nationkey",
               "intersect", 0),
        _sided(read(sf_dir, "supplier", ["s_nationkey"]), "s_nationkey",
               "intersect", 1),
        _sided(read(sf_dir, "customer", ["c_custkey"]), "c_custkey",
               "except", 0),
        _sided(big, "o_custkey", "except", 1)]
    return shard_apply(sides[0].union(*sides[1:]), ["tag", "key"], _keep)


# ------------------------------------------------------------------ staging


@register(
    "staging_roundtrip",
    "SELECT lang, COUNT(*) AS n FROM documents GROUP BY lang",
)
def staging_roundtrip(sf_dir: str):
    """S5 + S1: write lang-partitioned staging Parquet (the resumable
    layout — one directory per partition value), read it back, and
    aggregate. The oracle checks the round-trip lost nothing."""
    out = "/tmp/etl_ray_q/staging-" + hashlib.sha1(
        sf_dir.encode()).hexdigest()[:10]
    shutil.rmtree(out, ignore_errors=True)
    ds = read(sf_dir, "documents", ["doc_id", "lang"])
    ds.write_parquet(out, partition_cols=["lang"])
    return _count_by(ray.data.read_parquet(out), "lang")


def _count_by(ds, key: str) -> pa.Table:
    """(key, n): per-block counts merged on the driver — the key
    domains counted here (languages, event types) are tiny."""
    def _f(t: pa.Table) -> pa.Table:
        g = t.group_by(key).aggregate([([], "count_all")])
        return pa.table({key: g[key], "n": g["count_all"]})

    return merge_partials(ds.map_batches(_f, batch_format="pyarrow"),
                          [key], [("n", "sum")])


@register(
    "file_roundtrip",
    """SELECT 'csv' AS fmt, event_type, COUNT(*) AS n
       FROM events GROUP BY event_type
       UNION ALL
       SELECT 'json' AS fmt, event_type, COUNT(*) AS n
       FROM events GROUP BY event_type
       UNION ALL
       SELECT 'orc' AS fmt, event_type, COUNT(*) AS n
       FROM events GROUP BY event_type""",
)
def file_roundtrip(sf_dir: str):
    """S6 aux readers: parquet → CSV, JSONL and ORC staging →
    read_csv / read_json / the custom ORC datasource
    (etl_ray.sources.orc — ray ships no read_orc; ours streams per
    stripe) → aggregate, tagged per format. The oracle checks every
    round-trip lost nothing."""
    from etl_ray.sources.orc import read_orc, write_orc

    h = hashlib.sha1(sf_dir.encode()).hexdigest()[:10]
    ds = read(sf_dir, "events", ["event_id", "event_type"])
    outs = {}
    for fmt in ("csv", "json", "orc"):
        out = f"/tmp/etl_ray_q/{fmt}-{h}"
        shutil.rmtree(out, ignore_errors=True)
        outs[fmt] = out
    ds.write_csv(outs["csv"])
    ds.write_json(outs["json"])
    write_orc(ds, outs["orc"])

    parts = []
    for fmt, reader in (("csv", ray.data.read_csv),
                        ("json", ray.data.read_json),
                        ("orc", read_orc)):
        t = _count_by(reader(outs[fmt]), "event_type")
        parts.append(t.append_column(
            "fmt", pa.array([fmt] * len(t), pa.string())))
    return pa.concat_tables(parts)


def _hist_quantile(vals, cnts, q: float) -> float:
    """Exact continuous quantile from a (value, count) histogram —
    DuckDB quantile_cont semantics: position (n-1)·q, linear
    interpolation between the two straddling order statistics."""
    n = int(cnts.sum())
    pos = (n - 1) * q
    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
    cum = np.cumsum(cnts)
    v_lo = vals[np.searchsorted(cum, lo, side="right")]
    v_hi = vals[np.searchsorted(cum, hi, side="right")]
    return float(v_lo + (pos - lo) * (v_hi - v_lo))


@register(
    "agg_quantile",
    """SELECT l_returnflag,
              CAST(ROUND(quantile_cont(l_quantity, 0.25) * 10000) AS BIGINT)
                  AS p25_e4,
              CAST(ROUND(quantile_cont(l_quantity, 0.50) * 10000) AS BIGINT)
                  AS p50_e4,
              CAST(ROUND(quantile_cont(l_quantity, 0.75) * 10000) AS BIGINT)
                  AS p75_e4
       FROM lineitem GROUP BY l_returnflag""",
)
def agg_quantile(sf_dir: str):
    """G2 grouped quantiles, the 100-TB-safe way: values are
    bounded-cardinality, so each block pre-aggregates a (key, value,
    count) histogram, the driver merges histograms (not raw rows), and
    the exact interpolated quantile is computed from the tiny merged
    histogram. For unbounded-cardinality values this becomes a t-digest
    merge with the same pipeline shape."""
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def _partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["l_returnflag", "l_quantity"]).aggregate(
            [("l_quantity", "count")])
        return pa.table({"l_returnflag": g["l_returnflag"],
                         "l_quantity": g["l_quantity"],
                         "n": pc.cast(g["l_quantity_count"], pa.int64())})

    df = merge_partials(ds.map_batches(_partial, batch_format="pyarrow"),
                        ["l_returnflag", "l_quantity"], [("n", "sum")]
                        ).to_pandas()  # tiny: flags × distinct quantities
    rows = []
    for flag, g in df.groupby("l_returnflag"):
        g = g.sort_values("l_quantity")
        vals = g["l_quantity"].to_numpy(dtype=np.float64)
        cnts = g["n"].to_numpy(dtype=np.int64)
        row = {"l_returnflag": flag}
        for q, name in ((0.25, "p25_e4"), (0.50, "p50_e4"), (0.75, "p75_e4")):
            row[name] = fixed_point_scalar(_hist_quantile(vals, cnts, q), 10000)
        rows.append(row)
    return pa.Table.from_pylist(rows)
