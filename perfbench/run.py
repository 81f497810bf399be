"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the workload's inputs from the
seed, measures passes of public engine calls until their wall time adds
up to ``--seconds`` (at least one pass), checks every call's output
against the DuckDB oracle, and prints as the last stdout line one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Everything a run writes stays under ``perfbench/_work/``; the full
record of each run goes to ``perfbench/_work/results/``.

``--scale smoke`` runs tiny inputs (checks included);
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from stats import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(WORK, "results")
# input set-up (generation and oracle) is repeated this many times per
# run; setup_s = session start + median input set-up + one-time prepare
# (warm-up, lake and view building)
SETUP_REPS = 3


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    missing = [p for p in ("etl_ray/pipelines/cdc.py", "__ray_entry__.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        _fail(f"not a checkout of the engine: missing {', '.join(missing)} "
              f"under {ROOT}")


def _setup(wl, ctx, run_dir: str) -> tuple[list[float], float]:
    """Repeated input set-up walls, then the one-time prepare wall."""
    walls = []
    for i in range(SETUP_REPS):
        d = os.path.join(run_dir, f"setup{i}")
        t0 = time.perf_counter()
        wl.setup(ctx, d)
        walls.append(time.perf_counter() - t0)
        if i + 1 < SETUP_REPS:
            shutil.rmtree(d, ignore_errors=True)
    t0 = time.perf_counter()
    wl.prepare(ctx, d)
    return walls, time.perf_counter() - t0


def _passes(wl, ctx, run_dir: str, seconds: float) -> list:
    """Passes until their timed engine calls add up to ``seconds``."""
    passes = []
    while not passes or sum(map(_work_s, passes)) < seconds:
        passes.append(wl.run_pass(ctx, os.path.join(run_dir, "pass")))
    return passes


def _work_s(p) -> float:
    return sum(op.wall_s for op in p)


def end_to_end(passes, setup_s: float, rss_bytes: int) -> dict:
    ops = [op for p in passes for op in p]
    return {
        "setup_s": (setup_s, "s"),
        "work_s": (median([_work_s(p) for p in passes]), "s"),
        "ok_op_frac": (sum(op.ok for op in ops) / len(ops), "frac"),
        "peak_rss_mb": (rss_bytes / 2**20, "MB"),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool,
            scale: str) -> dict:
    import hostfit
    from workloads import WORKLOADS, Ctx

    wl = WORKLOADS[name](scale)
    run_dir = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    session = hostfit.Session(ROOT, WORK)
    try:
        start_s = session.start()
        ctx = Ctx(seed=seed, threads=session.cpus)
        setup_walls, prepare_s = _setup(wl, ctx, run_dir)
        setup_s = start_s + median(setup_walls) + prepare_s
        passes = _passes(wl, ctx, run_dir, 0 if trace else seconds)
        layers, spans = {}, []
        if trace:
            from layers import traced_pass

            layers, spans, traced = traced_pass(wl, ctx, run_dir, passes)
            passes.append(traced)
        rss = hostfit.peak_rss_bytes()
        provenance = session.provenance(seed)
    finally:
        session.close()
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = [op for p in passes for op in p]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale, "provenance": provenance,
        "session_start_s": start_s, "setup_walls_s": setup_walls,
        "prepare_s": prepare_s,
        "passes": len(passes), "pass_work_s": [_work_s(p) for p in passes],
        "attempted": len(ops), "failed": sum(not op.ok for op in ops),
        "end_to_end": end_to_end(passes, setup_s, rss),
        "named": wl.named_metrics(passes),
        "per_layer": layers,
        "ops": [(op.kind, op.wall_s, op.ok, op.items) for op in ops],
        "spans": spans,
    }


def _print_block(res: dict) -> None:
    print(f"== {res['workload']} seed={res['seed']} trace={int(res['trace'])}"
          f" passes={res['passes']} ops={res['attempted']}"
          f" failed={res['failed']}")
    p = res["provenance"]
    print(f"   host_cpus={p['host_cpus']} object_store_bytes="
          f"{p['object_store_bytes']} data_fs={p['data_fs']} ray={p['ray']}"
          f" pyarrow={p['pyarrow']} duckdb={p['duckdb']}")
    n_ops = max(1, res["attempted"])
    rows = {**res["named"], "setup_s": res["end_to_end"]["setup_s"],
            "failed_op_frac": (res["failed"] / n_ops, "frac"),
            "peak_rss_mb": res["end_to_end"]["peak_rss_mb"]}
    for k, (v, unit) in rows.items():
        print(f"   {k:<28} {v:>14.6g} {unit}")
    if res["trace"]:
        from layers import report

        report(res)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    # a terminated run still shuts its Ray session down (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _check_checkout()
    sys.path.insert(0, ROOT)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        _fail(f"unknown workload {unknown[0]}; one of {', '.join(WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    results = []
    for n in names:
        res = run_one(n, args.seed, args.seconds, bool(args.trace), args.scale)
        path = os.path.join(
            RESULTS, f"{n}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(res, f, indent=1)
        _print_block(res)
        results.append(res)
    metrics = {}
    for res in results:
        src = res["per_layer"] if args.trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in src.items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
