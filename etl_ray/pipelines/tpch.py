"""TPC-H-shaped composite pipelines — multi-join + aggregate + top-k
compositions that exercise operator chaining depth (the conformance
queries elsewhere test operators mostly in isolation)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.pipelines._qutil import (fixed_point, merge_partials, read,
                                      shard_join, top_k)
from etl_ray.pipelines.queries import register
from etl_ray.util import gather


@register(
    "q6_forecast_revenue",
    """SELECT CAST(ROUND(SUM(l_extendedprice * l_discount) * 100) AS BIGINT)
              AS revenue_c,
              COUNT(*) AS n
       FROM lineitem
       WHERE l_shipdate >= TIMESTAMP '1996-01-01'
         AND l_shipdate < TIMESTAMP '1997-01-01'
         AND l_discount BETWEEN 0.05 AND 0.07
         AND l_quantity < 24""",
)
def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6 shape: tight filter + global aggregate. The read prunes
    to 4 columns; the filter is one vectorized kernel per batch."""
    ds = read(sf_dir, "lineitem",
              ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def _f(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"],
                                 pa.scalar("1996-01-01T00:00:00")
                                 .cast(pa.timestamp("us"))),
                pc.less(t["l_shipdate"],
                        pa.scalar("1997-01-01T00:00:00")
                        .cast(pa.timestamp("us")))),
            pc.and_(
                pc.and_(pc.greater_equal(t["l_discount"], 0.05),
                        pc.less_equal(t["l_discount"], 0.07)),
                pc.less(t["l_quantity"], 24)))
        t = t.filter(m)
        rev = pc.multiply(t["l_extendedprice"], t["l_discount"])
        return pa.table({"revenue_c": [pc.sum(rev)], "n": [len(t)]})

    out = merge_partials(ds.map_batches(_f, batch_format="pyarrow"), [],
                         [("revenue_c", "sum"), ("n", "sum")])
    return fixed_point(out, "revenue_c", 100)


@register(
    "q3_shipping_priority",
    """SELECT l_orderkey,
              CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 100)
                   AS BIGINT) AS revenue_c,
              o_orderdate
       FROM customer JOIN orders ON c_custkey = o_custkey
                     JOIN lineitem ON l_orderkey = o_orderkey
       WHERE c_mktsegment = 'BUILDING'
         AND o_orderdate < TIMESTAMP '1998-06-01'
       GROUP BY l_orderkey, o_orderdate
       ORDER BY revenue_c DESC, l_orderkey LIMIT 10""",
)
def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape: filtered 3-way join → grouped revenue → top-k.

    The customer side is filtered before the join (predicate pushdown).
    The customer semi-join is a BROADCAST `pc.is_in` probe (one
    `ray.put` of the filtered key array, no shuffle — ~⅕ of customers
    qualify, so this removes one of the two all-to-all joins).
    Top-k = ``_qutil.top_k`` with a deterministic orderkey tie-break
    matching the oracle.
    """
    import ray

    cust = read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
                   .select(["c_custkey"]),
        batch_format="pyarrow")
    orders = read(sf_dir, "orders",
                  ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"],
                                   pa.scalar("1998-06-01T00:00:00")
                                   .cast(pa.timestamp("us")))),
        batch_format="pyarrow")
    li = read(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount"])

    kref = ray.put(gather(cust)["c_custkey"].combine_chunks())

    def _semi(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["o_custkey"], value_set=ray.get(kref)))

    j1 = orders.map_batches(_semi, batch_format="pyarrow")

    # revenue per (orderkey, orderdate) inside the join's shards: the
    # group key holds the join key, so every group is whole in one shard
    def _rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1, t["l_discount"]))
        g = pa.table({"l_orderkey": t["l_orderkey"],
                      "o_orderdate": t["o_orderdate"], "rev": rev}).group_by(
            ["l_orderkey", "o_orderdate"]).aggregate([("rev", "sum")])
        return fixed_point(pa.table({"l_orderkey": g["l_orderkey"],
                                     "revenue_c": g["rev_sum"],
                                     "o_orderdate": g["o_orderdate"]}),
                           "revenue_c", 100)

    grouped = shard_join(li, j1, "inner", on=("l_orderkey",),
                         right_on=("o_orderkey",), then=_rev)
    return top_k(grouped, [("revenue_c", "descending"),
                           ("l_orderkey", "ascending")], 10)


@register(
    "q10_returned_items",
    """SELECT c_custkey, c_name,
              CAST(ROUND(SUM(l_extendedprice * (1 - l_discount)) * 100)
                   AS BIGINT) AS revenue_c
       FROM customer JOIN orders ON c_custkey = o_custkey
                     JOIN lineitem ON l_orderkey = o_orderkey
       WHERE l_returnflag = 'R'
       GROUP BY c_custkey, c_name
       ORDER BY revenue_c DESC, c_custkey LIMIT 20""",
)
def q10_returned_items(sf_dir: str):
    """TPC-H Q10 shape: lost-revenue rollup over returned items."""
    cust = read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = read(sf_dir, "lineitem",
              ["l_orderkey", "l_extendedprice", "l_discount",
               "l_returnflag"]).map_batches(
        lambda t: t.filter(pc.equal(t["l_returnflag"], "R")),
        batch_format="pyarrow")

    j1 = shard_join(li, orders, "inner",
                    on=("l_orderkey",), right_on=("o_orderkey",))

    # revenue per customer inside the second join's shards (the group
    # key holds its join key)
    def _rev(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(1, t["l_discount"]))
        g = pa.table({"c_custkey": t["o_custkey"], "c_name": t["c_name"],
                      "rev": rev}).group_by(["c_custkey", "c_name"]).aggregate(
            [("rev", "sum")])
        return fixed_point(pa.table({"c_custkey": g["c_custkey"],
                                     "c_name": g["c_name"],
                                     "revenue_c": g["rev_sum"]}),
                           "revenue_c", 100)

    grouped = shard_join(j1, cust, "inner", on=("o_custkey",),
                         right_on=("c_custkey",), then=_rev)
    return top_k(grouped, [("revenue_c", "descending"),
                           ("c_custkey", "ascending")], 20)
