"""Shared helpers for the operator-conformance query layer.

Every query reads the driver tables with explicit column pruning
(`read_parquet(columns=...)`) so only the needed columns leave storage
— at 100 TB a full-width read for a 2-column transform is the first
thing that breaks (SURVEY.md §"prune at the read").

Every way the query layer brings equal keys together lives here, and
none runs a Ray Data shuffle (``Dataset.groupby``/``aggregate``/``sort``):
:func:`merge_partials` merges per-block partial aggregates on the
driver where the group count is bounded (flags, one global row);
:func:`shard_apply` and :func:`shard_join` serve open key domains
(joins, many-group aggregates, sessionization) with one key-hash
exchange — row to shard ``key_hash64(keys) % join_partitions()``, one
vectorized Arrow kernel per shard, :func:`each_group` where a group
needs Python; :func:`top_k` is a per-block head and a driver sort. Each
takes its input's blocks through ``util.blocks`` or ``util.gather``:
one execution of the plan, never a second one to fetch its schema.

The exchange is plain engine tasks (``util.submit_tasks``), the
map/reduce shape of Exoshuffle (Luan et al., "Exoshuffle: An Extensible
Shuffle Architecture", SIGCOMM 2023): each input is materialized, one
split task per input block returns one zero-copy slice per shard, and
one reduce task per shard takes those slices as arguments, concatenates
them and runs the kernel. It starts no actors, so it runs in a session
of any width, and nothing here touches the process-wide ``DataContext``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from etl_ray.util import (blocks, concat, dataset, gather, key_hash64,
                          submit_tasks, task_slots)

# Shard-count cap for the key-hash exchange. At sf0.01 this is plenty;
# a cluster run sizes it to ~2×cores with 64–128 MiB blocks.
JOIN_PARTITIONS = 16

JOIN_TYPES = {"inner": "inner", "left_outer": "left outer",
              "right_outer": "right outer", "full_outer": "full outer",
              "left_semi": "left semi", "left_anti": "left anti"}

Kernel = Callable[[pa.Table], pa.Table]


def join_partitions() -> int:
    """Shard count of the key-hash exchange: the width of every engine
    task (``util.task_slots``), capped at ``JOIN_PARTITIONS``. One
    reduce task per shard; more shards than slots only add tasks."""
    return min(JOIN_PARTITIONS, task_slots())


def shard_of(t: pa.Table, keys: Sequence[str], n: int) -> np.ndarray:
    """The one routing function: the shard (in ``[0, n)``) of each row,
    ``key_hash64`` of its ``keys`` columns mod ``n``. Rows with equal
    keys — nulls included — always land in the same shard."""
    return (key_hash64(t, list(keys)) % np.uint64(n)).astype(np.int64)


def _split(t: pa.Table, keys: Sequence[str], n: int) -> tuple[pa.Table, ...]:
    """One block cut into its ``n`` shards: one take in shard order,
    then zero-copy slices."""
    shard = shard_of(t, keys, n)
    t = t.take(pa.array(np.argsort(shard, kind="stable")))
    ends = np.cumsum(np.bincount(shard, minlength=n))
    return tuple(t.slice(s, e - s) for s, e in zip([0, *ends[:-1]], ends))


def _shards(ds: "ray.data.Dataset", keys: Sequence[str],
            n: int) -> list[list[ray.ObjectRef]]:
    """The map side: ``ds`` materialized, then per shard the refs of its
    slice of every input block ([] per shard for an input with none)."""
    refs = blocks(ds)
    if n == 1:  # the blocks are the one shard's slices
        return [refs]
    parts = submit_tasks(_split, [(b, keys, n) for b in refs],
                         num_returns=n)
    return [[p[s] for p in parts] for s in range(n)]


def shard_apply(ds: "ray.data.Dataset", keys: Sequence[str],
                kernel: Kernel) -> "ray.data.Dataset":
    """Key-hash exchange: ``kernel`` sees every row of its shard at once,
    so a grouped operator keyed on (a superset of) ``keys`` is exact per
    shard with one vectorized pass — no per-row Python, no actors. An
    input with no block gives one empty block with no columns."""
    shards = _shards(ds, keys, join_partitions())
    if not shards[0]:
        return dataset([], pa.schema([]))

    def _reduce(*parts: pa.Table) -> pa.Table:
        return kernel(concat(parts))

    return dataset(submit_tasks(_reduce, shards), pa.schema([]))


def shard_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               join_type: str, on: Sequence[str],
               right_on: Sequence[str] | None = None,
               then: Kernel | None = None) -> "ray.data.Dataset":
    """Hash equi-join on the key-hash exchange.

    Both sides are routed by their key columns to the same shards, and
    each shard's reduce task concatenates its left and right slices
    apart and runs ``pa.Table.join``. The output is exactly Arrow's:
    left columns, then the right side's non-key columns (keys coalesced;
    a null key matches nothing). ``join_type`` is one of JOIN_TYPES.
    ``then``, if given, runs on each shard's join output in the same
    task: any aggregate grouped by a superset of the join key is exact
    there, since all of a group's rows share one shard.

    A side with no block joins as a table of only its key columns,
    typed like the other side's; with no block on either side the
    output is one empty block with no columns.
    """
    if join_type not in JOIN_TYPES:
        raise ValueError(f"join_type {join_type!r} not in {sorted(JOIN_TYPES)}")
    lk, rk = list(on), list(right_on or on)
    n = join_partitions()
    ls, rs = _shards(left, lk, n), _shards(right, rk, n)
    n_left, n_right = len(ls[0]), len(rs[0])
    if not n_left and not n_right:
        return dataset([], pa.schema([]))

    def _join(*parts: pa.Table) -> pa.Table:
        lt = concat(parts[:n_left]) if n_left else None
        rt = concat(parts[n_left:]) if n_right else None
        if lt is None:  # an empty side: its keys, typed like the other's
            lt = pa.table({k: pa.array([], rt[r].type)
                           for k, r in zip(lk, rk)})
        if rt is None:
            rt = pa.table({r: pa.array([], lt[k].type)
                           for k, r in zip(lk, rk)})
        out = lt.join(rt, keys=lk, right_keys=rk,
                      join_type=JOIN_TYPES[join_type])
        return then(out) if then is not None else out

    return dataset(submit_tasks(_join, [(*a, *b) for a, b in zip(ls, rs)]),
                   pa.schema([]))


def merge_partials(ds: "ray.data.Dataset", keys: Sequence[str],
                   aggs: Sequence[tuple[str, str]]) -> pa.Table:
    """Driver-side final merge of per-task partial aggregates: each
    Arrow ``(column, function)`` of ``aggs`` (``sum``, ``min`` or
    ``max``) per ``keys`` group, named as its column; ``keys=[]`` merges
    to one global row. The partials are a few rows per task, so one
    Arrow ``group_by`` on the driver replaces a shuffle."""
    names = [*keys, *(c for c, _ in aggs)]
    t = gather(ds)
    if not t.num_columns:  # no input block: no groups
        return pa.table({c: pa.array([]) for c in names})
    g = t.group_by(list(keys)).aggregate(list(aggs))
    return g.select([*keys, *(f"{c}_{f}" for c, f in aggs)]) \
        .rename_columns(names)


def top_k(ds: "ray.data.Dataset", sort_keys: Sequence[tuple[str, str]],
          k: int) -> pa.Table:
    """The first ``k`` rows of ``ds`` in ``sort_keys`` order (Arrow
    ``(column, "ascending" | "descending")`` pairs). Each block keeps
    its own first ``k`` in one engine task — a row outside them is
    outside the global first ``k`` — and the driver sorts the
    ≤ k × blocks survivors. An input whose blocks have no columns gives
    ``pa.table({})``."""
    def _head(t: pa.Table) -> pa.Table:
        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k]) \
            if len(t) else t

    heads = ray.get(submit_tasks(_head, [(b,) for b in blocks(ds)]))
    return _head(concat(heads))


def each_group(t: pa.Table, keys: Sequence[str],
               fn: Kernel) -> list[pa.Table]:
    """``fn`` on every group of ``t`` (rows with equal ``keys``) that
    has two rows or more. One sort and a vectorized scan for where the
    keys change find the groups, so Python runs once per such group
    and never for a singleton."""
    t = t.sort_by([(k, "ascending") for k in keys])
    cols = [t[k].to_numpy() for k in keys]
    starts = np.flatnonzero(np.r_[True, np.any(
        [c[1:] != c[:-1] for c in cols], axis=0)])
    ends = np.r_[starts[1:], len(t)]
    return [fn(t.slice(s, e - s)) for s, e in zip(starts, ends) if e - s > 1]


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
