"""Scalar-function conformance queries (SURVEY.md §2.8, M5–M8).

String / date / math / list / json / hash functions, each expressed as
a vectorized pyarrow.compute kernel inside ``map_batches`` and matched
against the DuckDB equivalent. Per-row arithmetic is IEEE-deterministic
so doubles are compared exact; only transcendentals (ln/sqrt) are
rounded identically on both sides to absorb libm last-bit differences.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.functions import expr
from etl_ray.pipelines._qutil import read, shard_apply
from etl_ray.pipelines.queries import register
from etl_ray.util import as_array, sha256_hex_array

# ---------------------------------------------------------------- strings


@register(
    "string_funcs",
    """SELECT p_partkey, upper(p_name) AS uname, lower(p_brand) AS lbrand,
              CAST(length(p_name) AS BIGINT) AS name_len,
              substr(p_type, 1, 4) AS type4,
              concat(p_brand, ':', p_type) AS brand_type,
              p_name LIKE '%gear%' AS has_gear,
              p_type LIKE 'SM%' AS is_sm
       FROM part""",
)
def string_funcs(sf_dir: str):
    """§2.8 strings incl. SQL LIKE (%, _ wildcards) as boolean columns."""
    ds = read(sf_dir, "part", ["p_partkey", "p_name", "p_brand", "p_type"])

    def _f(t: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": t["p_partkey"],
            "uname": expr.upper(t["p_name"]),
            "lbrand": expr.lower(t["p_brand"]),
            "name_len": pc.cast(expr.length(t["p_name"]), pa.int64()),
            "type4": expr.substr(t["p_type"], 1, 4),
            "brand_type": expr.concat(t["p_brand"], t["p_type"], sep=":"),
            "has_gear": expr.like(t["p_name"], "%gear%"),
            "is_sm": expr.like(t["p_type"], "SM%"),
        })

    return ds.map_batches(_f, batch_format="pyarrow")


@register(
    "regex_replace_trim",
    """SELECT doc_id, regexp_matches(text, 'join .*filter') AS has_jf,
              replace(source, 'src', 'source-') AS src_name,
              trim(concat('  ', lang, '  ')) AS lang_trim
       FROM documents""",
)
def regex_replace_trim(sf_dir: str):
    ds = read(sf_dir, "documents", ["doc_id", "text", "source", "lang"])

    def _f(t: pa.Table) -> pa.Table:
        padded = expr.concat(pa.array(["  "] * len(t)), t["lang"],
                             pa.array(["  "] * len(t)), sep="")
        return pa.table({
            "doc_id": t["doc_id"],
            "has_jf": expr.regexp_matches(t["text"], "join .*filter"),
            "src_name": expr.replace(t["source"], "src", "source-"),
            "lang_trim": expr.trim(padded),
        })

    return ds.map_batches(_f, batch_format="pyarrow")


# ------------------------------------------------------------------- dates


@register(
    "date_parts",
    """SELECT event_id, year(ts) AS y, month(ts) AS m, day(ts) AS d,
              hour(ts) AS h FROM events""",
)
def date_parts(sf_dir: str):
    ds = read(sf_dir, "events", ["event_id", "ts"])

    def _f(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "y": expr.year(t["ts"]),
            "m": expr.month(t["ts"]),
            "d": expr.day(t["ts"]),
            "h": pc.cast(pc.hour(t["ts"]), pa.int64()),
        })

    return ds.map_batches(_f, batch_format="pyarrow")


@register(
    "window_hourly",
    """SELECT date_trunc('hour', ts) AS hour, event_type,
              COUNT(*) AS n,
              CAST(ROUND(SUM(value) * 100) AS BIGINT) AS total_c
       FROM events GROUP BY hour, event_type""",
)
def window_hourly(sf_dir: str):
    """Tumbling event-time window = truncate + grouped aggregate
    (G2/§2.9), one Arrow ``group_by`` per key-hash shard."""
    from etl_ray.pipelines._qutil import fixed_point

    ds = read(sf_dir, "events", ["ts", "event_type", "value"])

    def _f(t: pa.Table) -> pa.Table:
        return t.append_column("hour", expr.date_trunc(t["ts"], "hour"))

    def _agg(t: pa.Table) -> pa.Table:
        g = t.group_by(["hour", "event_type"]).aggregate(
            [([], "count_all"), ("value", "sum")])
        return fixed_point(pa.table({
            "hour": g["hour"], "event_type": g["event_type"],
            "n": g["count_all"], "total_c": g["value_sum"]}), "total_c", 100)

    return shard_apply(ds.map_batches(_f, batch_format="pyarrow"),
                       ["hour", "event_type"], _agg)


# -------------------------------------------------------------------- math


@register(
    "math_funcs",
    """SELECT l_orderkey, l_linenumber,
              CAST(ROUND(sqrt(l_extendedprice) * 10000) AS BIGINT)
                  AS sqrt_price_e4,
              CAST(ROUND(ln(l_extendedprice) * 1000000) AS BIGINT)
                  AS ln_price_e6,
              ceil(l_quantity / 7) AS qty_c7,
              abs(l_discount - 0.05) AS disc_dev
       FROM lineitem""",
)
def math_funcs(sf_dir: str):
    """§2.8 math kernels. sqrt/ln outputs are emitted FIXED-POINT:
    ``round(x, n)`` as a double is hash-fragile across engines — both
    sides round to the same abstract decimal but may pick different
    nearest doubles (pyarrow 108.89999999999999 vs DuckDB 108.9,
    observed at sf0.1) — whereas ``ROUND(x·10^n)`` as int64 is
    bit-stable. Per-row arithmetic (ceil of an exact division, abs of
    a subtraction) is IEEE-deterministic and stays double."""
    from etl_ray.pipelines._qutil import fixed_point

    ds = read(sf_dir, "lineitem",
              ["l_orderkey", "l_linenumber", "l_extendedprice",
               "l_quantity", "l_discount"])

    def _f(t: pa.Table) -> pa.Table:
        out = pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "sqrt_price_e4": expr.sqrt(t["l_extendedprice"]),
            "ln_price_e6": expr.ln(t["l_extendedprice"]),
            "qty_c7": expr.ceil(pc.divide(t["l_quantity"], 7)),
            "disc_dev": expr.abs_(pc.subtract(t["l_discount"], 0.05)),
        })
        out = fixed_point(out, "sqrt_price_e4", 10000)
        return fixed_point(out, "ln_price_e6", 1_000_000)

    return ds.map_batches(_f, batch_format="pyarrow")


# ------------------------------------------------------------- json / hash


@register(
    "json_extract",
    """SELECT event_id,
              CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
       FROM events""",
)
def json_extract(sf_dir: str):
    """M6: typed field extraction from a JSON-string column."""
    ds = read(sf_dir, "events", ["event_id", "props"])

    def _f(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": t["event_id"],
            "k": expr.json_extract_int64(t["props"], "k"),
        })

    return ds.map_batches(_f, batch_format="pyarrow")


@register(
    "hash_sha256",
    "SELECT doc_id, sha256(text) AS sha FROM documents",
)
def hash_sha256(sf_dir: str):
    """M7: the per-row content-hash invariant (BASELINE.json:2)."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"],
                         "sha": sha256_hex_array(t["text"])})

    return ds.map_batches(_f, batch_format="pyarrow")


# ---------------------------------------------------------------- explode


@register(
    "explode_tokens",
    """SELECT doc_id, unnest(string_split(text, ' ')) AS token
       FROM documents WHERE doc_id < 50""",
)
def explode_tokens(sf_dir: str):
    """M8 flat_map/explode — vectorized: list offsets drive the repeat of
    doc_id, no Python-per-row loop."""
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["doc_id"], 50))
        toks = pc.split_pattern(t["text"], " ")
        toks = as_array(toks)
        lengths = pc.list_value_length(toks)
        ids = pa.array(
            t["doc_id"].to_numpy().repeat(lengths.to_numpy()), pa.int64())
        return pa.table({"doc_id": ids, "token": pc.list_flatten(toks)})

    return ds.map_batches(_f, batch_format="pyarrow")


def token_histogram(sf_dir: str):
    """Explode → grouped count with a partial pre-aggregate per batch
    (the 100-TB-safe shape: the key-hash exchange moves one row per
    distinct token per batch, not one row per token occurrence).
    Unregistered — the gate covers M8 via explode_tokens and heavy
    hitters via topk_frequent_tokens; bench.py still times this
    pipeline."""
    ds = read(sf_dir, "documents", ["text"])

    def _total(t: pa.Table) -> pa.Table:
        t = sum_counts(t)
        return t.filter(pc.greater_equal(t["n"], 100))

    return shard_apply(ds.map_batches(token_counts, batch_format="pyarrow"),
                       ["token"], _total)


def token_counts(t: pa.Table) -> pa.Table:
    """(token, n): occurrences of each space-separated token of ``text``."""
    toks = pc.list_flatten(pc.split_pattern(t["text"], " "))
    g = pa.table({"token": toks}).group_by("token").aggregate(
        [([], "count_all")])
    return pa.table({"token": g["token"], "n": g["count_all"]})


def sum_counts(t: pa.Table) -> pa.Table:
    """(token, n) partial counts summed per token."""
    g = t.group_by("token").aggregate([("n", "sum")])
    return pa.table({"token": g["token"], "n": g["n_sum"]})
