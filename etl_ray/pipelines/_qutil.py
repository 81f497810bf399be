"""Shared helpers for the operator-conformance query layer.

Every query reads the driver tables with explicit column pruning
(`read_parquet(columns=...)`) so only the needed columns leave storage
— at 100 TB a full-width read for a 2-column transform is the first
thing that breaks (SURVEY.md §"prune at the read").

Every query that needs equal keys together — joins, many-group
aggregates, sessionization — goes through one key-hash exchange
(:func:`shard_apply`, :func:`shard_join`): each row is routed to shard
``key_hash64(keys) % join_partitions()`` and one vectorized Arrow
kernel runs per shard. The exchange is Ray Data's task-based sort
shuffle on the small integer shard column, with one reduce partition
per shard, followed by one map call per shard: it starts no actors, so
it runs in a session of any width, and nothing here touches the
process-wide ``DataContext``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from etl_ray.util import key_hash64, session_cpus

# Shard-count cap for the key-hash exchange. At sf0.01 this is plenty;
# a cluster run sizes it to ~2×cores with 64–128 MiB blocks.
JOIN_PARTITIONS = 16

SHARD = "_shard"
_SIDE = "_side"
_PREFIX = ("l:", "r:")  # keeps the two sides' columns apart in one block
JOIN_TYPES = {"inner": "inner", "left_outer": "left outer",
              "right_outer": "right outer", "full_outer": "full outer",
              "left_semi": "left semi", "left_anti": "left anti"}

Kernel = Callable[[pa.Table], pa.Table]


def join_partitions(cap: int = JOIN_PARTITIONS) -> int:
    """Shard count of the key-hash exchange: the session's CPUs, capped,
    and never below 2.

    One kernel call per shard; more shards than CPUs only add calls,
    fewer leave reduce tasks without a whole shard to work on. At 1
    shard the sort's boundaries would be ``[]``, which Ray reads as none
    given: it would sample the input and keep its block count, the path
    :func:`_exchange` exists to avoid.
    """
    return max(2, min(cap, session_cpus()))


def shard_of(t: pa.Table, keys: Sequence[str], n: int) -> np.ndarray:
    """The one routing function: the shard (in ``[0, n)``) of each row,
    ``key_hash64`` of its ``keys`` columns mod ``n``. Rows with equal
    keys — nulls included — always land in the same shard."""
    return (key_hash64(t, list(keys)) % np.uint64(n)).astype(np.int64)


def _exchange(tagged: "ray.data.Dataset", kernel: Kernel,
              n: int) -> "ray.data.Dataset":
    """Run ``kernel`` once per shard of rows that carry a SHARD column.

    The sort's fixed boundaries 1..n-1 make reduce partition i exactly
    shard i, one block each: no sampling pass, and the output has n
    blocks whatever the input had (a sampled sort keeps the input's
    block count, which compounds across chained joins).
    """
    def _per_shard(t: pa.Table) -> pa.Table:
        return kernel(t.drop_columns([SHARD]))

    _per_shard.__name__ = getattr(kernel, "__name__", "exchange")
    return (tagged.sort(SHARD, boundaries=list(range(1, n)))
            .map_batches(_per_shard, batch_size=None, batch_format="pyarrow"))


def shard_apply(ds: "ray.data.Dataset", keys: Sequence[str],
                kernel: Kernel) -> "ray.data.Dataset":
    """Key-hash exchange: ``kernel`` sees every row of its shard at once,
    so a grouped operator keyed on (a superset of) ``keys`` is exact per
    shard with one vectorized pass — no per-row Python, no actors."""
    n = join_partitions()

    def _tag(t: pa.Table) -> pa.Table:
        return t.append_column(SHARD, pa.array(shard_of(t, keys, n)))

    return _exchange(ds.map_batches(_tag, batch_format="pyarrow"), kernel, n)


def shard_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               join_type: str, on: Sequence[str],
               right_on: Sequence[str] | None = None,
               then: Kernel | None = None) -> "ray.data.Dataset":
    """Hash equi-join on the key-hash exchange.

    Both sides are routed by their key columns and unioned into one
    layout — each side's columns prefixed, the other side's null-filled
    by the shuffle's concat, a ``_side`` tag per row — and each shard
    runs ``pa.Table.join``. The output is exactly Arrow's: left columns,
    then the right side's non-key columns (keys coalesced; a null key
    matches nothing). ``join_type`` is one of JOIN_TYPES. ``then``, if
    given, runs on each shard's join output in the same task: any
    aggregate grouped by a superset of the join key is exact there,
    since all of a group's rows share one shard.

    A side with rows sends one all-null row per shard, tagged with no
    side, so every shard sees both sides' column types even where one
    side has no rows. A side with no rows at all sends nothing; it then
    joins as a table of only its key columns.
    """
    if join_type not in JOIN_TYPES:
        raise ValueError(f"join_type {join_type!r} not in {sorted(JOIN_TYPES)}")
    keys = (list(on), list(right_on or on))
    n = join_partitions()

    def _tagger(side: int):
        prefix = _PREFIX[side]

        def _tag(t: pa.Table) -> pa.Table:
            rows = t.rename_columns([prefix + c for c in t.column_names])
            carrier = pa.table({f.name: pa.nulls(n, f.type)
                                for f in rows.schema})
            out = pa.concat_tables([rows, carrier])
            sides = np.full(len(out), -1, np.int8)
            sides[:len(t)] = side
            shards = np.concatenate([shard_of(t, keys[side], n),
                                     np.arange(n, dtype=np.int64)])
            return (out.append_column(_SIDE, pa.array(sides))
                    .append_column(SHARD, pa.array(shards)))

        _tag.__name__ = f"shard_join_{'lr'[side]}"
        return _tag

    def _side_rows(t: pa.Table, side: int) -> pa.Table | None:
        prefix = _PREFIX[side]
        cols = [c for c in t.column_names if c.startswith(prefix)]
        if not cols:
            return None
        rows = t.filter(pc.equal(t[_SIDE], side)).select(cols)
        return rows.rename_columns([c[len(prefix):] for c in cols])

    def _join(t: pa.Table) -> pa.Table:
        lt, rt = _side_rows(t, 0), _side_rows(t, 1)
        if lt is None:  # an empty side: its keys, typed like the other's
            lt = pa.table({k: pa.array([], rt[r].type)
                           for k, r in zip(*keys)})
        if rt is None:
            rt = pa.table({r: pa.array([], lt[k].type)
                           for k, r in zip(*keys)})
        out = lt.join(rt, keys=keys[0], right_keys=keys[1],
                      join_type=JOIN_TYPES[join_type])
        return then(out) if then is not None else out

    tagged = (left.map_batches(_tagger(0), batch_format="pyarrow")
              .union(right.map_batches(_tagger(1), batch_format="pyarrow")))
    return _exchange(tagged, _join, n)


def merge_partials(ds: "ray.data.Dataset", keys: Sequence[str],
                   sums: Sequence[str]) -> pa.Table:
    """Driver-side final merge of per-task partial aggregates: sum each
    of ``sums`` per ``keys``. The partials are a few rows per task, so
    one Arrow ``group_by`` on the driver replaces a second shuffle."""
    parts = [b for b in ds.iter_batches(batch_size=None,
                                        batch_format="pyarrow")
             if b.num_columns]  # a shard with no rows passes as no columns
    if not parts:  # no input rows: no groups
        return pa.table({c: pa.array([]) for c in [*keys, *sums]})
    g = pa.concat_tables(parts).group_by(list(keys)).aggregate(
        [(c, "sum") for c in sums])
    return pa.table({c: g[c] for c in keys}
                    | {c: g[f"{c}_sum"] for c in sums})


def read(sf_dir: str, table: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Column-pruned parquet read with a METADATA-FREE schema.

    The testdata parquet files embed a `pandas` metadata dict, which
    makes their Arrow schemas UNHASHABLE (pa.Schema.__hash__ hashes the
    metadata dict) — every schema unify in read/shuffle workers then
    logs `Failed to hash the schemas (for deduplication)` and skips its
    dedup fast path. Passing the footer schema stripped of metadata
    keeps every downstream block schema clean and hashable; the footer
    read is one driver-side open per query."""
    import pyarrow.parquet as pq

    path = f"{sf_dir}/{table}.parquet"
    sch = pq.read_schema(path).remove_metadata()
    if columns is not None:  # schema must match the projected batches
        sch = pa.schema([sch.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=sch)


def one_row_table(row: dict, schema: pa.Schema | None = None) -> pa.Table:
    """Materialize a global-aggregate result dict as a 1-row Arrow table."""
    return pa.Table.from_pylist([row], schema=schema)


def fixed_point(t: pa.Table, col: str, scale: int) -> pa.Table:
    """Replace a double column with round(x*scale) as int64.

    Aggregated doubles differ from the DuckDB oracle in the last ulp
    (summation order), so emitting them raw or decimal-rounded is
    hash-fragile. Fixed-point integers are bit-stable: the matching SQL
    is ``CAST(ROUND(x * scale) AS BIGINT)``.
    """
    v = pc.round(pc.multiply(t[col], float(scale)), ndigits=0,
                 round_mode="half_towards_infinity")
    return t.set_column(t.schema.get_field_index(col), col,
                        pc.cast(v, pa.int64()))


def fixed_point_scalar(x: float, scale: int = 1) -> int:
    """Driver-side scalar twin of :func:`fixed_point`.

    Sign-aware half-away-from-zero (SQL ROUND semantics) — Python's
    ``round()`` is banker's rounding and numpy's ``floor(x+0.5)`` is
    half-up, both of which diverge from DuckDB on exact .5 values.
    """
    import math

    return int(math.copysign(math.floor(abs(x) * scale + 0.5), x))


def half_away_int64(x):
    """Vectorized sign-aware half-away-from-zero → np.int64 array."""
    x = np.asarray(x, dtype=np.float64)
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
