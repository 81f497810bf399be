"""The four workloads: bulk_ingest, tail_ingest, lake_reads, queries.

Each workload builds its inputs from the seed (``setup``), then runs
timed passes of public engine calls (``run_pass``), checking every
call's output against the DuckDB oracle right after it (outside the
timed region). A pass returns one ``Op`` per engine call.

Engine functions are always reached through their modules
(``cdc.replay``, ``lake.lookup``, ...) so a traced pass sees them
through the tracer's wrappers.
"""

from __future__ import annotations

import os
import shutil
import sys
import time
from dataclasses import dataclass

import pyarrow as pa

from inputs import WalSpec, make_query_tables, make_wal
from oracle import Oracle, lake_digest, lookup_ok, same_frame
from stats import TooFewSamples, median, percentile


@dataclass
class Op:
    kind: str
    wall_s: float
    ok: bool
    items: int = 0


@dataclass
class Ctx:
    seed: int
    threads: int
    tracer: object = None  # tracing.Tracer during a traced pass

    def span(self, name: str):
        from contextlib import nullcontext

        return nullcontext() if self.tracer is None else self.tracer.span(name)


def _scan_table(lake_dir: str) -> pa.Table:
    """Full merge-on-read scan, materialized on the driver."""
    import ray

    from etl_ray.state import lake

    return pa.concat_tables(ray.get(lake.read_lake(lake_dir).to_arrow_refs()))


def _timed(ctx: Ctx, span: str, fn):
    """Run ``fn`` as one engine call under span ``span``; returns
    (result, wall seconds, error)."""
    t0 = time.perf_counter()
    out, err = None, None
    try:
        with ctx.span(span):
            out = fn()
    except Exception as e:  # noqa: BLE001 - a failed call is counted, not fatal
        err = e
    return out, time.perf_counter() - t0, err


def _pcts(values: list[float], scale: float, unit: str, name: str) -> dict:
    out = {f"{name}_p50": (median(values) * scale, unit)}
    try:
        out[f"{name}_p90"] = (percentile(values, 90) * scale, unit)
    except TooFewSamples:
        pass
    out[f"{name}_n"] = (len(values), "count")
    return out


class Workload:
    name = ""

    def __init__(self, scale: str):
        self.sizes = self.SIZES[scale]

    def setup(self, ctx: Ctx, d: str) -> None:
        """Build the inputs from the seed; repeated per run (timed)."""
        raise NotImplementedError

    def prepare(self, ctx: Ctx, d: str) -> None:
        """One-time engine state and warm-up on the last setup (timed)."""

    def run_pass(self, ctx: Ctx, d: str) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, passes: list[list[Op]]) -> dict:
        """The workload's own end-to-end figures, by name: value, unit."""
        raise NotImplementedError


class BulkIngest(Workload):
    name = "bulk_ingest"
    SIZES = {"full": {"wal": WalSpec(keys=10_000, epochs=4, update_p=0.85,
                                     hot_updates=200)},
             "smoke": {"wal": WalSpec(keys=600, epochs=2, update_p=0.85,
                                      hot_updates=20)}}
    REPLAYS = 3

    def setup(self, ctx, d):
        spec = self.sizes["wal"]
        self.wal = os.path.join(d, "wal")
        make_wal(spec, self.wal, ctx.seed)
        self.epochs = spec.epochs
        self.oracle = Oracle(self.wal, ctx.threads).at(spec.epochs - 1)

    def prepare(self, ctx, d):
        from etl_ray.pipelines import cdc

        # warm-up: a one-epoch replay starts the workers and their imports
        cdc.replay(self.wal, os.path.join(d, "warm"), 1)

    def run_pass(self, ctx, d):
        """``REPLAYS`` fresh replays of the WAL. The first lake is checked
        against the oracle; a later one passes if it is identical to it
        (``lake_digest``), else it is checked against the oracle too."""
        from etl_ray.pipelines import cdc

        ops, verified = [], None
        for i in range(self.REPLAYS):
            lake_dir = os.path.join(d, f"lake{i}")
            shutil.rmtree(lake_dir, ignore_errors=True)
            out, wall, err = _timed(ctx, "bench.replay", lambda: cdc.replay(
                self.wal, lake_dir, self.epochs))
            ok = err is None
            if ok and (verified is None or lake_digest(lake_dir) != verified):
                ok = self.oracle.compare_state(_scan_table(lake_dir))["ok"]
                if ok and verified is None:
                    verified = lake_digest(lake_dir)
            ops.append(Op("replay", wall, ok, out["n_events"] if out else 0))
            self.last_lake = lake_dir
        return ops

    def named_metrics(self, passes):
        ops = [op for p in passes for op in p]
        return {"ingest_events_per_s": (
            median([op.items / op.wall_s for op in ops]), "1/s"),
            "replay_s": (median([op.wall_s for op in ops]), "s"),
            "replays": (len(ops), "count")}


class TailIngest(Workload):
    name = "tail_ingest"
    # Every epoch adds 8 fragments per bucket (one per read block), so
    # the default auto-compaction threshold (512) first fires after 64
    # epochs: on this host that history costs ~18 s to build and the
    # compaction ~14 s, more than a run can spend. The tail caller sets
    # auto_compact=96 instead, so one compaction stall (after epoch 13)
    # falls inside every pass.
    AUTO_COMPACT = 96
    SIZES = {"full": {"wal": WalSpec(keys=1_500, epochs=24, update_p=0.85,
                                     hot_updates=8)},
             "smoke": {"wal": WalSpec(keys=200, epochs=6, update_p=0.85,
                                      hot_updates=4)}}

    def setup(self, ctx, d):
        spec = self.sizes["wal"]
        self.wal = os.path.join(d, "wal")
        make_wal(spec, self.wal, ctx.seed)
        self.epochs = spec.epochs
        self.oracle = Oracle(self.wal, ctx.threads).at(spec.epochs - 1)

    def prepare(self, ctx, d):
        from etl_ray.pipelines import cdc

        # warm-up: a one-epoch replay starts the workers and their imports
        cdc.replay(self.wal, os.path.join(d, "warm"), 1)

    def run_pass(self, ctx, d):
        from etl_ray.pipelines import cdc

        lake_dir = os.path.join(d, "lake")
        shutil.rmtree(lake_dir, ignore_errors=True)
        ops = []
        for k in range(1, self.epochs + 1):
            out, wall, err = _timed(ctx, "bench.epoch", lambda k=k: cdc.replay(
                self.wal, lake_dir, k, auto_compact=self.AUTO_COMPACT))
            ops.append(Op("epoch", wall, err is None,
                          out["n_events"] if out else 0))
        # the converged lake is the output of the last call
        ops[-1].ok = ops[-1].ok and self.oracle.compare_state(
            _scan_table(lake_dir))["ok"]
        self.last_lake = lake_dir
        return ops

    def named_metrics(self, passes):
        walls = [op.wall_s for p in passes for op in p]
        events = sum(op.items for p in passes for op in p)
        return {"tail_events_per_s": (events / sum(walls), "1/s"),
                **_pcts(walls, 1.0, "s", "epoch_latency_s")}


class LakeReads(Workload):
    name = "lake_reads"
    SIZES = {"full": {"wal": WalSpec(keys=3_000, epochs=4, update_p=0.5,
                                     hot_updates=8),
                      "lookups": 30, "view_lag": 2},
             "smoke": {"wal": WalSpec(keys=300, epochs=4, update_p=0.5,
                                      hot_updates=4),
                       "lookups": 20, "view_lag": 2}}
    GROUP, SUMS = ["lang"], ["size"]

    def setup(self, ctx, d):
        spec = self.sizes["wal"]
        self.wal = os.path.join(d, "wal")
        self.lake = os.path.join(d, "lake")
        make_wal(spec, self.wal, ctx.seed)
        last = spec.epochs - 1
        self.oracle = Oracle(self.wal, ctx.threads).at(last)
        self.keys = self.oracle.lookup_keys(self.sizes["lookups"], ctx.seed)
        self.expected = {(r, p): self.oracle.expected_row(r, p)
                         for _, r, p in self.keys}
        self.view_want = self.oracle.view_expected(self.GROUP, self.SUMS)
        self.view_from = last - self.sizes["view_lag"]

    def prepare(self, ctx, d):
        from etl_ray.pipelines import cdc
        from etl_ray.state import views

        cdc.replay(self.wal, self.lake, self.sizes["wal"].epochs)
        self.view0 = os.path.join(d, "view0")
        views.create_view(self.lake, self.view0, self.GROUP, self.SUMS,
                          as_of_epoch=self.view_from)

    def run_pass(self, ctx, d):
        from etl_ray.state import lake, views

        ops = []
        t, wall, err = _timed(ctx, "bench.scan", lambda: _scan_table(self.lake))
        ok = err is None and self.oracle.compare_state(t)["ok"]
        if ok:
            self.scan_rows, self.scan_bytes = t.num_rows, t.nbytes
        ops.append(Op("scan", wall, ok, t.num_rows if t is not None else 0))
        for _, repo, path in self.keys:
            got, wall, err = _timed(
                ctx, "bench.lookup", lambda r=repo, p=path: lake.lookup(self.lake, r, p))
            ops.append(Op("lookup", wall, err is None and lookup_ok(
                got, self.expected[(repo, path)]), int(got is not None)))
        view = os.path.join(d, "view")
        shutil.rmtree(view, ignore_errors=True)
        shutil.copytree(self.view0, view)
        _, wall, err = _timed(
            ctx, "bench.refresh", lambda: views.refresh_view(self.lake, view))
        got = None if err else views.read_view(view).to_pandas()
        ok = err is None and same_frame(got, self.view_want)
        if not ok:
            print(f"perfbench: refresh_view mismatch (error={err!r})\n"
                  f"got:\n{got}\nwant:\n{self.view_want}", file=sys.stderr)
        ops.append(Op("refresh", wall, ok))
        return ops

    def named_metrics(self, passes):
        ops = [op for p in passes for op in p]
        return {"scan_s": (median([o.wall_s for o in ops if o.kind == "scan"]), "s"),
                **_pcts([o.wall_s for o in ops if o.kind == "lookup"], 1e3,
                        "ms", "lookup_ms"),
                "view_refresh_s": (median(
                    [o.wall_s for o in ops if o.kind == "refresh"]), "s")}


class Queries(Workload):
    name = "queries"
    NAMES = ["agg_group_q1", "join_inner", "join_star_region",
             "count_distinct", "dedup_minhash", "sessionize"]
    TABLES = ["region", "nation", "customer", "orders", "lineitem",
              "documents", "events"]
    SIZES = {"full": {"sf": 0.01, "warm_sf": 0.0002},
             "smoke": {"sf": 0.0005, "warm_sf": 0.0002}}

    def setup(self, ctx, d):
        import duckdb

        import __ray_entry__

        self.tables = os.path.join(d, "tables")
        make_query_tables(self.tables, self.sizes["sf"], ctx.seed)
        con = duckdb.connect()
        con.execute(f"SET threads = {ctx.threads}")
        for t in self.TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{self.tables}/{t}.parquet')")
        oracle_sql = __ray_entry__.oracle_sql()
        self.want = {n: con.execute(oracle_sql[n]).df() for n in self.NAMES}
        self.queries = __ray_entry__.queries()

    def prepare(self, ctx, d):
        # warm-up: the first Ray Data execution of a session pays
        # seconds of one-time start-up; run one query on tiny tables
        warm = os.path.join(d, "warm")
        make_query_tables(warm, self.sizes["warm_sf"], ctx.seed)
        self.queries["agg_group_q1"](warm).to_pandas()

    def run_pass(self, ctx, d):
        ops = []
        for n in self.NAMES:
            df, wall, err = _timed(
                ctx, f"query.{n}",
                lambda n=n: self.queries[n](self.tables).to_pandas())
            ops.append(Op(f"query.{n}", wall,
                          err is None and same_frame(df, self.want[n]),
                          len(df) if df is not None else 0))
        return ops

    def named_metrics(self, passes):
        out = {"queries_total_s": (median(
            [sum(o.wall_s for o in p) for p in passes]), "s")}
        for n in self.NAMES:
            out[f"{n}_s"] = (median([o.wall_s for p in passes for o in p
                                     if o.kind == f"query.{n}"]), "s")
        return out


WORKLOADS = {w.name: w for w in (BulkIngest, TailIngest, LakeReads, Queries)}
