"""Relational operator conformance queries (SURVEY.md §2.2, §2.4–2.7).

Each query is the Ray-Data-first expression of one operator family —
vectorized Arrow batches, equal keys brought together only where the
operator needs it (group/join/sort/distinct, all through ``_qutil``),
broadcast for small sides — and is paired with the DuckDB SQL the
driver checks it against.

Floating-point policy: any column produced by an *aggregation* (whose
value depends on summation order) is ROUNDed identically on both sides;
purely per-row arithmetic (×, −, abs) is IEEE-deterministic and left
exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from etl_ray.functions import expr
from etl_ray.pipelines._qutil import (fixed_point, merge_partials, read,
                                      shard_apply, shard_join, top_k)
from etl_ray.pipelines.queries import register

# ------------------------------------------------------------ filter / project


@register(
    "filter_rows",
    """SELECT l_orderkey, l_partkey, l_quantity
       FROM lineitem WHERE l_quantity > 45 AND l_returnflag = 'R'""",
)
def filter_rows(sf_dir: str):
    """M2: vectorized batch-level predicate (not ds.filter(row_fn))."""
    ds = read(sf_dir, "lineitem",
              ["l_orderkey", "l_partkey", "l_quantity", "l_returnflag"])

    def _f(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.greater(t["l_quantity"], 45),
                       pc.equal(t["l_returnflag"], "R"))
        return t.filter(mask).drop_columns(["l_returnflag"])

    return ds.map_batches(_f, batch_format="pyarrow")


@register(
    "project_rename",
    "SELECT o_orderkey AS okey, o_orderstatus AS status FROM orders",
)
def project_rename(sf_dir: str):
    """M1: column select + rename."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_orderstatus"])
    return ds.rename_columns({"o_orderkey": "okey", "o_orderstatus": "status"})


@register(
    "with_column_case",
    """SELECT l_orderkey, l_linenumber,
              l_extendedprice * (1 - l_discount) AS revenue,
              CASE WHEN l_extendedprice * (1 - l_discount) > 60000 THEN 'big'
                   WHEN l_extendedprice * (1 - l_discount) > 20000 THEN 'mid'
                   ELSE 'small' END AS bucket
       FROM lineitem""",
)
def with_column_case(sf_dir: str):
    """M3: computed projection + multi-branch CASE WHEN in one pass
    (per-row arithmetic — exact, no rounding; the CASE compares the
    identical IEEE double on both sides)."""
    ds = read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])

    def _f(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1, t["l_discount"]))
        bucket = expr.if_else(
            pc.greater(rev, 60000), "big",
            expr.if_else(pc.greater(rev, 20000), "mid", "small"))
        return (t.select(["l_orderkey", "l_linenumber"])
                .append_column("revenue", rev)
                .append_column("bucket", bucket))

    return ds.map_batches(_f, batch_format="pyarrow")


# ------------------------------------------------------------------ aggregates


@register(
    "agg_global",
    """SELECT COUNT(*) AS n, SUM(l_quantity) AS sum_qty,
              CAST(ROUND(AVG(l_discount) * 1000000) AS BIGINT) AS avg_disc_e6,
              MIN(l_shipdate) AS min_ship, MAX(l_shipdate) AS max_ship
       FROM lineitem""",
)
def agg_global(sf_dir: str):
    """G1: global aggregates — one partial row per block, merged on the
    driver; the average is (sum, count) after the merge.

    sum_qty stays double (quantities are integral, so the sum is exact);
    avg_disc is emitted fixed-point e6 (see _qutil.fixed_point).
    """
    ds = read(sf_dir, "lineitem", ["l_quantity", "l_discount", "l_shipdate"])

    def _partial(t: pa.Table) -> pa.Table:
        return pa.table({
            "n": [len(t)], "sum_qty": [pc.sum(t["l_quantity"])],
            "sum_disc": [pc.sum(t["l_discount"])],
            "n_disc": [pc.count(t["l_discount"])],
            "min_ship": [pc.min(t["l_shipdate"])],
            "max_ship": [pc.max(t["l_shipdate"])]})

    g = merge_partials(
        ds.map_batches(_partial, batch_format="pyarrow"), [],
        [("n", "sum"), ("sum_qty", "sum"), ("sum_disc", "sum"),
         ("n_disc", "sum"), ("min_ship", "min"), ("max_ship", "max")])
    g = g.append_column("avg_disc_e6", pc.divide(
        g["sum_disc"], pc.cast(g["n_disc"], pa.float64())))
    return fixed_point(g, "avg_disc_e6", 1_000_000).drop_columns(
        ["sum_disc", "n_disc"])


@register(
    "agg_group_q1",
    """SELECT l_returnflag, l_linestatus,
              SUM(l_quantity) AS sum_qty,
              CAST(ROUND(SUM(l_extendedprice) * 100) AS BIGINT) AS sum_base_price_c,
              CAST(ROUND(SUM(l_extendedprice * (1 - l_discount))) AS BIGINT)
                  AS sum_disc_price_r,
              CAST(ROUND(AVG(l_quantity) * 10000) AS BIGINT) AS avg_qty_e4,
              COUNT(*) AS count_order
       FROM lineitem GROUP BY l_returnflag, l_linestatus""",
)
def agg_group_q1(sf_dir: str):
    """G2: TPC-H Q1-shaped grouped aggregate with MAP-SIDE PARTIALS.

    With ~6 groups no shuffle is needed: each block pre-aggregates to
    ≤6 rows of (sums, count) and the driver merges the 6 × n_blocks
    partial rows — the canonical combiner shape for 100-TB grouped
    aggregates. The average is derived from (sum, count) after the
    merge (l_quantity is integral, so the sum — and hence the quotient
    — is exact in double on both engines).
    """
    ds = read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount"])

    def _partial(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(1, t["l_discount"]))
        t = t.append_column("disc_price", disc)
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate([
            ("l_quantity", "sum"), ("l_extendedprice", "sum"),
            ("disc_price", "sum"), ("l_quantity", "count")])
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "sum_qty": g["l_quantity_sum"],
            "sum_base_price_c": g["l_extendedprice_sum"],
            "sum_disc_price_r": g["disc_price_sum"],
            "count_order": pc.cast(g["l_quantity_count"], pa.int64()),
        })

    t = merge_partials(
        ds.map_batches(_partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        [(c, "sum") for c in ("sum_qty", "sum_base_price_c",
                              "sum_disc_price_r", "count_order")])
    avg = pc.divide(t["sum_qty"], pc.cast(t["count_order"], pa.float64()))
    t = t.append_column("avg_qty_e4", avg)
    t = fixed_point(t, "sum_base_price_c", 100)
    t = fixed_point(t, "sum_disc_price_r", 1)
    return fixed_point(t, "avg_qty_e4", 10000)


@register(
    "group_having",
    """SELECT o_custkey, COUNT(*) AS n FROM orders
       GROUP BY o_custkey HAVING COUNT(*) >= 3""",
)
def group_having(sf_dir: str):
    """G3 grouped count + HAVING, one Arrow group_by per exchange shard."""
    ds = read(sf_dir, "orders", ["o_custkey"])

    def _count(t: pa.Table) -> pa.Table:
        g = t.group_by("o_custkey").aggregate([([], "count_all")])
        out = pa.table({"o_custkey": g["o_custkey"], "n": g["count_all"]})
        return out.filter(pc.greater_equal(out["n"], 3))

    return shard_apply(ds, ["o_custkey"], _count)


@register(
    "count_distinct",
    """SELECT l_returnflag, COUNT(DISTINCT l_partkey) AS n_parts
       FROM lineitem GROUP BY l_returnflag""",
)
def count_distinct(sf_dir: str):
    """G5 exact count-distinct on the key-hash exchange.

    Each block first drops its duplicate (flag, partkey) pairs; the
    exchange then routes pairs by l_partkey, so every copy of a pair
    meets in one shard and the shards' distinct sets are disjoint. Per
    shard one Arrow distinct + count per flag; the ≤ 3 × shards partial
    counts are summed on the driver.
    """
    ds = read(sf_dir, "lineitem", ["l_returnflag", "l_partkey"])
    local = ds.map_batches(
        lambda t: t.group_by(["l_returnflag", "l_partkey"]).aggregate([]),
        batch_format="pyarrow")

    def _count(t: pa.Table) -> pa.Table:
        g = (t.group_by(["l_returnflag", "l_partkey"]).aggregate([])
             .group_by("l_returnflag").aggregate([([], "count_all")]))
        return pa.table({"l_returnflag": g["l_returnflag"],
                         "n_parts": g["count_all"]})

    return merge_partials(shard_apply(local, ["l_partkey"], _count),
                          ["l_returnflag"], [("n_parts", "sum")])


# ----------------------------------------------------------------------- joins


@register(
    "join_inner",
    """SELECT o_orderkey, c_name, o_totalprice
       FROM orders JOIN customer ON o_custkey = c_custkey""",
)
def join_inner(sf_dir: str):
    """J1: hash equi-join, both sides distributed."""
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    j = shard_join(orders, cust, "inner",
                   on=("o_custkey",), right_on=("c_custkey",))
    return j.select_columns(["o_orderkey", "c_name", "o_totalprice"])


@register(
    "join_left_count",
    """SELECT c_custkey, c_name, COUNT(o_orderkey) AS n_orders
       FROM customer LEFT JOIN orders ON c_custkey = o_custkey
       GROUP BY c_custkey, c_name""",
)
def join_left_count(sf_dir: str):
    """J1 left outer + grouped count of the nullable side, counted in
    the join's own shards (the group key holds the join key)."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def _count(t: pa.Table) -> pa.Table:
        g = t.group_by(["c_custkey", "c_name"]).aggregate(
            [("o_orderkey", "count")])
        return pa.table({"c_custkey": g["c_custkey"], "c_name": g["c_name"],
                         "n_orders": g["o_orderkey_count"]})

    return shard_join(cust, orders, "left_outer", on=("c_custkey",),
                      right_on=("o_custkey",), then=_count)


@register(
    "join_semi_anti",
    """SELECT 'semi' AS tag, o_orderkey, o_custkey FROM orders
       WHERE EXISTS (SELECT 1 FROM customer
                     WHERE c_custkey = o_custkey AND c_acctbal > 5000)
       UNION ALL
       SELECT 'anti' AS tag, o_orderkey, o_custkey FROM orders
       WHERE NOT EXISTS (SELECT 1 FROM customer
                         WHERE c_custkey = o_custkey AND c_acctbal > 5000)""",
)
def join_semi_anti(sf_dir: str):
    """J2 semi + anti join in one tagged result: orders whose customer
    IS / IS NOT in the high-balance set, from one left-outer join (one
    exchange). A matched order carries its customer's balance and is
    ``semi``, an unmatched one a null and is ``anti``; ``c_custkey`` is
    unique, so no order is duplicated."""
    def _tag(t: pa.Table) -> pa.Table:
        # no high-balance customer at all: the right side sends no columns
        hit = (pc.is_valid(t["c_acctbal"]) if "c_acctbal" in t.column_names
               else pa.array(np.zeros(len(t), bool)))
        return t.select(["o_orderkey", "o_custkey"]).append_column(
            "tag", pc.if_else(hit, "semi", "anti"))

    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    rich = read(sf_dir, "customer", ["c_custkey", "c_acctbal"]).map_batches(
        lambda t: t.filter(pc.greater(t["c_acctbal"], 5000)),
        batch_format="pyarrow")
    return shard_join(orders, rich, "left_outer", on=("o_custkey",),
                      right_on=("c_custkey",), then=_tag)


@register(
    "join_star_region",
    """SELECT r_name, COUNT(*) AS n_orders,
              CAST(ROUND(SUM(o_totalprice) * 100) AS BIGINT) AS revenue_c
       FROM orders
       JOIN customer ON o_custkey = c_custkey
       JOIN nation ON c_nationkey = n_nationkey
       JOIN region ON n_regionkey = r_regionkey
       GROUP BY r_name""",
)
def join_star_region(sf_dir: str):
    """Star-schema rollup: one distributed join + broadcast dims.

    customer↔orders is the only large-large join; nation→region is
    pre-joined driver-side (30 rows) and broadcast as a single lookup.
    Each join output block is rolled up to ≤ 5 (region, count, sum)
    partial rows by one Arrow group_by — map-side partials, as in
    agg_group_q1 — and the partials are merged on the driver.
    """
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    region = pq.read_table(f"{sf_dir}/region.parquet")
    # pre-join the two dims driver-side (30 rows) → one broadcast lookup
    rname_of = {r["r_regionkey"]: r["r_name"] for r in region.to_pylist()}
    nk = nation["n_nationkey"].combine_chunks()
    rnames = pa.array([rname_of[rk] for rk in
                       nation["n_regionkey"].to_pylist()], pa.string())
    ref = ray.put((nk, rnames))

    orders = read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    j = shard_join(orders, cust, "inner",
                   on=("o_custkey",), right_on=("c_custkey",))

    def _probe(t: pa.Table) -> pa.Table:
        keys, names = ray.get(ref)
        idx = pc.index_in(t["c_nationkey"], value_set=keys)
        g = pa.table({"r_name": pc.take(names, idx),
                      "o_totalprice": t["o_totalprice"]}).group_by(
            "r_name").aggregate([([], "count_all"), ("o_totalprice", "sum")])
        return pa.table({"r_name": g["r_name"], "n_orders": g["count_all"],
                         "revenue_c": g["o_totalprice_sum"]})

    out = merge_partials(j.map_batches(_probe, batch_format="pyarrow"),
                         ["r_name"],
                         [("n_orders", "sum"), ("revenue_c", "sum")])
    return fixed_point(out, "revenue_c", 100)


# -------------------------------------------------- sort / distinct / set ops


@register(
    "sort_topk",
    """SELECT o_orderkey, o_totalprice FROM orders
       ORDER BY o_totalprice DESC LIMIT 10""",
)
def sort_topk(sf_dir: str):
    """O1/O2: sort + limit as a per-block top-k, then a driver merge."""
    ds = read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return top_k(ds, [("o_totalprice", "descending")], 10)


@register(
    "distinct_multi",
    "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem",
)
def distinct_multi(sf_dir: str):
    """G4 multi-column distinct: per-block distinct, then a driver
    distinct of the partials (the flag × status domain is tiny)."""
    keys = ["l_returnflag", "l_linestatus"]
    ds = read(sf_dir, "lineitem", keys)
    local = ds.map_batches(lambda t: t.group_by(keys).aggregate([]),
                           batch_format="pyarrow")
    return merge_partials(local, keys, [])


@register(
    "union_all",
    """SELECT c_nationkey AS nationkey FROM customer
       UNION ALL SELECT s_nationkey AS nationkey FROM supplier""",
)
def union_all(sf_dir: str):
    a = read(sf_dir, "customer", ["c_nationkey"]).rename_columns(
        {"c_nationkey": "nationkey"})
    b = read(sf_dir, "supplier", ["s_nationkey"]).rename_columns(
        {"s_nationkey": "nationkey"})
    return a.union(b)
