"""Scalar-function layer: thin wrappers over pyarrow.compute with DuckDB
semantics (SURVEY.md §2.8), used inside ``map_batches`` bodies.

Each helper takes/returns Arrow arrays so callers stay zero-copy and
vectorized. Where pyarrow and DuckDB disagree on conventions (1-based
substr, like-pattern syntax), the wrapper adapts to DuckDB so the
driver's oracle comparison is exact.
"""

from __future__ import annotations

import json
import re

import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.util import as_array

# ---------------------------------------------------------------- strings


def lower(a):
    return pc.utf8_lower(a)


def upper(a):
    return pc.utf8_upper(a)


def trim(a):
    return pc.utf8_trim_whitespace(a)


def length(a):
    """Character length (DuckDB length())."""
    return pc.utf8_length(a)


def substr(a, start: int, n: int | None = None):
    """DuckDB substr(s, start, n) — 1-based start."""
    start0 = start - 1
    stop = None if n is None else start0 + n
    return pc.utf8_slice_codeunits(a, start0, stop)


def concat(*arrays, sep: str = ""):
    return pc.binary_join_element_wise(*arrays, sep)


def like(a, pattern: str):
    """SQL LIKE (%, _ wildcards)."""
    return pc.match_like(a, pattern)


def regexp_matches(a, pattern: str):
    return pc.match_substring_regex(a, pattern)


def replace(a, old: str, new: str):
    return pc.replace_substring(a, old, new)


# ------------------------------------------------------------------ dates


def year(a):
    return pc.cast(pc.year(a), pa.int64())


def month(a):
    return pc.cast(pc.month(a), pa.int64())


def day(a):
    return pc.cast(pc.day(a), pa.int64())


def date_trunc(a, unit: str):
    """DuckDB date_trunc('hour'|'day'|'month'|'year', ts)."""
    return pc.floor_temporal(a, unit=unit)


# ------------------------------------------------------------------- math


def abs_(a):
    return pc.abs(a)


def floor(a):
    return pc.floor(a)


def ceil(a):
    return pc.ceil(a)


def ln(a):
    return pc.ln(a)


def sqrt(a):
    return pc.sqrt(a)


def if_else(cond, t, f):
    return pc.if_else(cond, t, f)


def coalesce(*arrays):
    return pc.coalesce(*arrays)


# ------------------------------------------------------------------ lists


def list_flatten(a):
    return pc.list_flatten(a)


# ------------------------------------------------------------------- json


def json_extract_int64(col: pa.ChunkedArray | pa.Array, key: str) -> pa.Array:
    """Extract an integer field from a JSON-string column → int64.

    Hot path is fully vectorized: one ``pc.extract_regex`` over the
    column (RE2 partial match), numeric cast in Arrow. Rows the regex
    misses (nested/escaped forms) fall back to per-row ``json.loads``
    — on the synthetic props format that set is empty. Matches DuckDB
    ``CAST(json_extract_string(col, '$.key') AS BIGINT)``.
    """
    arr = as_array(col)
    pat = r'"%s"\s*:\s*(?P<v>-?\d+(?:\.\d+)?)' % re.escape(key)
    ext = pc.extract_regex(arr, pattern=pat)
    vs = pc.struct_field(ext, "v")
    # float64 intermediate handles "12.0"-style values; trunc matches
    # int(float(x)) toward-zero semantics
    out = pc.cast(pc.trunc(pc.cast(vs, pa.float64())), pa.int64())
    missed = pc.and_(pc.is_valid(arr), pc.is_null(vs))
    if pc.any(missed).as_py():
        idx = pc.indices_nonzero(missed).to_numpy()
        py = out.to_pylist()
        raw = arr.take(pa.array(idx)).to_pylist()
        for i, s in zip(idx, raw):
            try:
                v = json.loads(s).get(key)
                py[i] = None if v is None else int(v)
            except (ValueError, AttributeError):
                py[i] = None
        out = pa.array(py, type=pa.int64())
    return out
