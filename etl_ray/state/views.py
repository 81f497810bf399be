"""Incrementally-maintained materialized views over the lake.

The canonical downstream consumer of a CDC engine (Hudi/Delta
"incremental query" pattern): a grouped aggregate over the lake's
CURRENT state, refreshed from the change feed instead of rescanned.
A refresh from checkpoint ``f`` to ``t`` reads

  * the change feed of ``changes_between(lake, f, t)`` — the net
    per-key after-images and tombstones, manifest-pruned to the delta
    files of epochs (f, t] (no full-lake scan), and
  * the PRIOR contribution of exactly the changed keys — the as-of-f
    state of only the buckets that hold a changed key, each filtered
    by the changed key-hash set (retraction side),

both through the lake's one bucket runner (``lake.bucket_tasks``), and
applies ``view += agg(after-images) − agg(prior rows)`` per group. Each
retraction and build task aggregates its own rows (``_bucket_partial``),
so only a few rows per bucket reach the driver.
Incremental == recompute is pinned by tests at every epoch split.

Supported aggregates are the retractable ones: ``n`` (row count) and
integer sums. min/max are NOT retractable from a delta alone (a
retracted max needs a rescan of its group) and are deliberately
unsupported. Group cardinality is assumed small (the view itself is
driver-held, like every other manifest-sized artifact here); the
changed-key broadcast is 8 bytes/key — the same bounded-broadcast
class as the dedup verify path.

State layout under ``view_dir``: ``view.parquet`` (one row per group)
+ ``meta.json`` (spec + the checkpoint epoch it is valid as of), both
written atomically; a crashed refresh leaves the previous state
intact and re-runs idempotently.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from etl_ray.state import manifest as mf
# read_lake, changes_between: perfbench's tracer wraps them here
from etl_ray.state.lake import (bucket_tasks, changes_between,  # noqa: F401
                                read_lake)
from etl_ray.state.merge import bucket_of
from etl_ray.util import key_hash64

_KEY_COLS = ["repo", "path"]


def _group_partial(t: pa.Table, group_cols: list[str],
                   sum_cols: list[str]) -> pa.Table:
    """(count, sums) per group of one table: what each bucket task
    returns, and applied directly to driver-held tables."""
    if len(t) == 0:
        # group-column types must come from the INPUT schema — a
        # hardcoded string() conflicts with int group columns
        # whenever an empty bucket appears (ADVICE r3), which the
        # changed-key filter guarantees
        return pa.table({c: pa.array([], t.schema.field(c).type)
                         for c in group_cols} |
                        {"n": pa.array([], pa.int64())} |
                        {f"sum_{c}": pa.array([], pa.int64())
                         for c in sum_cols})
    df = t.select(group_cols + sum_cols).to_pandas()
    g = df.groupby(group_cols, dropna=False, sort=False)
    out = g.size().rename("n").to_frame()
    for c in sum_cols:
        out[f"sum_{c}"] = g[c].sum().astype("int64")
    return pa.Table.from_pandas(out.reset_index(), preserve_index=False)


def _bucket_partial(bucket: int, t: pa.Table, changed: np.ndarray | None,
                    group_cols: list[str], sum_cols: list[str]
                    ) -> pa.Table:
    """A bucket task's ``_group_partial``: of all its rows, or of those
    whose key hash is in ``changed``."""
    if changed is not None:
        t = t.filter(pa.array(np.isin(key_hash64(t, _KEY_COLS), changed)))
    return _group_partial(t, group_cols, sum_cols)


def _partials(refs: list, sum_cols: list[str],
              sign: int = 1) -> list[pd.DataFrame]:
    """The bucket tasks' partials, counts and sums times ``sign`` (−1
    retracts); ``_combine`` merges their groups."""
    num = ["n"] + [f"sum_{c}" for c in sum_cols]
    frames = [t.to_pandas() for t in ray.get(refs) if len(t)]
    for f in frames:
        f[num] *= sign
    return frames


def _combine(frames: list[pd.DataFrame], group_cols: list[str],
             sum_cols: list[str]) -> pd.DataFrame:
    num = ["n"] + [f"sum_{c}" for c in sum_cols]
    frames = [f for f in frames if len(f)]
    if not frames:
        return pd.DataFrame(columns=group_cols + num)
    out = (pd.concat(frames, ignore_index=True)
           .groupby(group_cols, dropna=False, sort=False)[num]
           .sum().reset_index())
    out = out[out["n"] > 0]  # groups whose last member left
    return out.sort_values(group_cols, ignore_index=True)


def _write_state(view_dir: str, df: pd.DataFrame, meta: dict) -> None:
    """Atomic two-file state swap: the view lands under an EPOCH-NAMED
    file first, then meta.json atomically flips to point at it — the
    single commit point. A crash between the two writes leaves the old
    meta referencing the old (untouched) file, so a re-run re-applies
    the delta onto the un-advanced state instead of double-counting
    (ADVICE r3). Superseded view files are GC'd only after the flip."""
    os.makedirs(view_dir, exist_ok=True)
    fname = f"view-e{int(meta['as_of_epoch'])}.parquet"
    tmp = os.path.join(view_dir, f".{fname}.tmp.{os.getpid()}")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), tmp)
    # power-loss ordering: the view bytes must be durable BEFORE the
    # meta flip can name them, and the directory entries durable after
    # both renames — otherwise a durable meta.json can point at a
    # missing/truncated view file (ADVICE r4)
    with open(tmp, "rb") as f:
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(view_dir, fname))
    meta = dict(meta, view_file=fname)
    tmp = os.path.join(view_dir, f".meta.tmp.{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(view_dir, "meta.json"))  # commit point
    try:
        dfd = os.open(view_dir, os.O_RDONLY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)
    except OSError:
        pass
    for name in os.listdir(view_dir):  # best-effort GC of old states
        if (name.startswith("view") and name.endswith(".parquet")
                and name != fname):
            try:
                os.unlink(os.path.join(view_dir, name))
            except OSError:
                pass


def read_view(view_dir: str) -> pa.Table:
    """The materialized rows (one per group), sorted by group.

    A concurrent refresh's post-flip GC can unlink the file this
    reader resolved from a pre-flip meta.json; on FileNotFoundError
    re-read meta once — the newly committed file is guaranteed
    present (ADVICE r4)."""
    for attempt in (0, 1):
        fname = view_meta(view_dir).get("view_file", "view.parquet")
        try:
            return pq.read_table(os.path.join(view_dir, fname))
        except FileNotFoundError:
            if attempt:
                raise
    raise AssertionError("unreachable")


def view_meta(view_dir: str) -> dict:
    with open(os.path.join(view_dir, "meta.json")) as f:
        return json.load(f)


def create_view(lake_dir: str, view_dir: str, group_cols: list[str],
                sum_cols: list[str] | None = None,
                as_of_epoch: int | None = None) -> dict:
    """Materialize ``SELECT group_cols, count(*) AS n, sum(c) AS sum_c
    ... FROM lake GROUP BY group_cols`` at a checkpoint (default: the
    lake's latest committed epoch), one full scan."""
    sum_cols = sum_cols or []
    snap = mf.snapshot(lake_dir, as_of_epoch)
    epoch = snap.wal_epoch if as_of_epoch is None else as_of_epoch
    refs = bucket_tasks(snap, snap.visible_files(), group_cols + sum_cols,
                        _bucket_partial, None, group_cols, sum_cols)
    df = _combine(_partials(refs, sum_cols), group_cols, sum_cols)
    meta = {"group_cols": group_cols, "sum_cols": sum_cols,
            "as_of_epoch": int(epoch)}
    _write_state(view_dir, df, meta)
    return meta


def refresh_view(lake_dir: str, view_dir: str,
                 to_epoch: int | None = None) -> dict:
    """Advance the view to ``to_epoch`` (default: latest) from the
    change feed — cost scales with the CHANGED keys, not the lake."""
    meta = view_meta(view_dir)
    group_cols, sum_cols = meta["group_cols"], meta["sum_cols"]
    f_epoch = meta["as_of_epoch"]
    snap = mf.snapshot(lake_dir)
    t_epoch = snap.wal_epoch if to_epoch is None else to_epoch
    if t_epoch <= f_epoch:
        return meta  # nothing newer; idempotent no-op

    at_t = snap.as_of(t_epoch)
    feed = [t for t in ray.get(bucket_tasks(
        at_t, at_t.change_files(f_epoch), group_cols + sum_cols,
        keep_deletes=True)) if t.num_rows]
    if not feed:
        meta["as_of_epoch"] = int(t_epoch)
        _write_state(view_dir, read_view(view_dir).to_pandas(), meta)
        return meta
    keys = pa.concat_tables([t.select(_KEY_COLS) for t in feed])
    changed = np.unique(key_hash64(keys, _KEY_COLS))

    # additions: after-images of upserted keys as of t_epoch, already
    # driver-held — aggregated here, not shipped back through Ray
    adds = pa.concat_tables(
        [t.filter(pc.not_equal(t["op"], "D"))
          .select(group_cols + sum_cols) for t in feed],
        promote_options="default")
    add_df = _group_partial(adds, group_cols, sum_cols).to_pandas()

    # retractions: the changed keys' contribution as of f_epoch, from
    # the buckets that hold them only; the hash set is one task argument
    buckets = set(bucket_of(changed, snap.num_partitions,
                            snap.num_buckets).tolist())
    at_f = snap.as_of(f_epoch)
    files = {k: fs for k, fs in at_f.visible_files().items()
             if k in buckets}
    refs = bucket_tasks(at_f, files, group_cols + sum_cols, _bucket_partial,
                        ray.put(changed), group_cols, sum_cols)
    subs = _partials(refs, sum_cols, -1)

    prior = read_view(view_dir).to_pandas()
    df = _combine([prior, *subs, add_df], group_cols, sum_cols)
    meta["as_of_epoch"] = int(t_epoch)
    _write_state(view_dir, df, meta)
    return meta
