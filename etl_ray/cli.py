"""CLI entry points — the ``ray job submit`` surface (SURVEY.md §3.3).

    python -m etl_ray.cli gen-wal --keys 10000 --epochs 4 --out /tmp/wal
    python -m etl_ray.cli replay --wal /tmp/wal --lake /tmp/lake --epochs 4
    python -m etl_ray.cli compact --lake /tmp/lake
    python -m etl_ray.cli vacuum --lake /tmp/lake
    python -m etl_ray.cli lineage --lake /tmp/lake

Each subcommand prints one JSON line. This module owns its Ray session
(guarded init — the library never calls ray.init); under
``ray job submit`` the job driver context is reused as-is.
"""

from __future__ import annotations

import argparse
import json


def _ensure_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "logging_level": "ERROR"}
        if num_cpus is not None:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_gen_wal(args) -> dict:
    from etl_ray.sources.corpus import generate_corpus
    from etl_ray.sources.wal import generate_wal

    corpus = generate_corpus(args.keys, n_repos=args.repos)
    out = generate_wal(corpus, args.out, n_epochs=args.epochs,
                       n_repos=args.repos, update_p=args.update_p)
    return {"wal": args.out, **out}


def cmd_replay(args) -> dict:
    from etl_ray.pipelines.cdc import replay

    s = replay(args.wal, args.lake, args.epochs,
               num_partitions=args.partitions, window=args.window,
               stop_after=args.stop_after)
    s.pop("summaries", None)
    return {"lake": args.lake, **s}


def cmd_compact(args) -> dict:
    from etl_ray.state.lake import compact

    n = compact(args.lake)
    return {"lake": args.lake, "live_rows": n}


def cmd_vacuum(args) -> dict:
    from etl_ray.state.lake import vacuum

    return {"lake": args.lake, **vacuum(args.lake)}


def cmd_changes(args) -> dict:
    from etl_ray.state.lake import changes_between
    from etl_ray.util import gather

    df = gather(changes_between(args.lake, args.from_epoch,
                                args.to_epoch)).to_pandas()
    ops = df["op"].value_counts().to_dict() if len(df) else {}
    return {"lake": args.lake, "from": args.from_epoch, "to": args.to_epoch,
            "n_changes": len(df),
            "n_deletes": int(ops.get("D", 0)),
            "n_upserts": int(len(df) - ops.get("D", 0))}


def cmd_audit(args) -> dict:
    from etl_ray.state.lake import audit_lake

    return {"lake": args.lake,
            **audit_lake(args.lake, verify_content=args.verify_content)}


def cmd_query(args) -> dict:
    """Run one registered conformance query by name (the driver's
    queries() surface, from the shell)."""
    import pyarrow as pa

    from etl_ray.pipelines.queries import QUERIES
    from etl_ray.util import gather

    if args.name not in QUERIES:
        names = ", ".join(sorted(QUERIES))
        raise SystemExit(f"unknown query {args.name!r}; one of: {names}")
    res = QUERIES[args.name](args.sf_dir)
    df = (res if isinstance(res, pa.Table) else gather(res)).to_pandas()
    out = {"query": args.name, "sf_dir": args.sf_dir, "n_rows": len(df),
           "columns": sorted(map(str, df.columns))}
    if args.head:
        out["head"] = df.head(args.head).to_dict("records")
    return out


def cmd_export(args) -> dict:
    from etl_ray.state.export import export_snapshot

    return export_snapshot(args.lake, args.out, as_of_epoch=args.as_of)


def cmd_view_create(args) -> dict:
    from etl_ray.state.views import create_view

    return {"view": args.view,
            **create_view(args.lake, args.view, args.group.split(","),
                          args.sum.split(",") if args.sum else [],
                          as_of_epoch=args.as_of)}


def cmd_view_refresh(args) -> dict:
    from etl_ray.state.views import read_view, refresh_view

    meta = refresh_view(args.lake, args.view, to_epoch=args.to_epoch)
    return {"view": args.view, "n_groups": len(read_view(args.view)),
            **meta}


def cmd_lineage(args) -> dict:
    from etl_ray.state.lineage import lineage_table

    t = lineage_table(args.lake).to_pandas()
    return {
        "lake": args.lake,
        "epochs": int(t["epoch"].nunique()) if len(t) else 0,
        "n_events": int(t["n_events"].sum()) if len(t) else 0,
        "n_rows": int(t["n_rows"].sum()) if len(t) else 0,
        "n_quarantined": int(t["n_quarantined"].sum()) if len(t) else 0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="etl_ray")
    ap.add_argument("--num-cpus", type=int, default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-wal")
    g.add_argument("--keys", type=int, required=True)
    g.add_argument("--repos", type=int, default=None)
    g.add_argument("--epochs", type=int, default=4)
    g.add_argument("--update-p", type=float, default=0.5)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_wal)

    r = sub.add_parser("replay")
    r.add_argument("--wal", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--epochs", type=int, required=True)
    r.add_argument("--partitions", type=int, default=64)
    r.add_argument("--window", type=int, default=8)
    r.add_argument("--stop-after", type=int, default=None)
    r.set_defaults(fn=cmd_replay)

    c = sub.add_parser("compact")
    c.add_argument("--lake", required=True)
    c.set_defaults(fn=cmd_compact)

    v = sub.add_parser("vacuum")
    v.add_argument("--lake", required=True)
    v.set_defaults(fn=cmd_vacuum)

    au = sub.add_parser("audit")
    au.add_argument("--lake", required=True)
    au.add_argument("--verify-content", action="store_true")
    au.set_defaults(fn=cmd_audit)

    ch = sub.add_parser("changes")
    ch.add_argument("--lake", required=True)
    ch.add_argument("--from-epoch", type=int, required=True)
    ch.add_argument("--to-epoch", type=int, required=True)
    ch.set_defaults(fn=cmd_changes)

    li = sub.add_parser("lineage")
    li.add_argument("--lake", required=True)
    li.set_defaults(fn=cmd_lineage)

    ex = sub.add_parser("export")
    ex.add_argument("--lake", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--as-of", type=int, default=None)
    ex.set_defaults(fn=cmd_export)

    vc = sub.add_parser("view-create")
    vc.add_argument("--lake", required=True)
    vc.add_argument("--view", required=True)
    vc.add_argument("--group", required=True,
                    help="comma-separated group columns")
    vc.add_argument("--sum", default="",
                    help="comma-separated int columns to sum")
    vc.add_argument("--as-of", type=int, default=None)
    vc.set_defaults(fn=cmd_view_create)

    vr = sub.add_parser("view-refresh")
    vr.add_argument("--lake", required=True)
    vr.add_argument("--view", required=True)
    vr.add_argument("--to-epoch", type=int, default=None)
    vr.set_defaults(fn=cmd_view_refresh)

    q = sub.add_parser("query")
    q.add_argument("--name", required=True)
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--head", type=int, default=0)
    q.set_defaults(fn=cmd_query)

    args = ap.parse_args(argv)
    if args.cmd == "gen-wal" and args.repos is None:
        args.repos = max(1, args.keys // 20)
    _ensure_ray(args.num_cpus)
    print(json.dumps(args.fn(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
