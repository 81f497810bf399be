"""Seeded workload inputs.

The CDC workloads get a corpus and a WAL made by the engine's own
generators (``generate_corpus``, ``generate_wal``) from the run's seed.
The query workload gets TPC-H-shaped tables written here with numpy
from the same seed, with the column names and types of the
repository's test tables (TESTDATA.md), so every registered query and
its ``oracle_sql()`` run on them unchanged.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class WalSpec:
    keys: int          # corpus rows = distinct (repo, path) keys
    epochs: int
    update_p: float    # geometric update-count parameter per key
    hot_updates: int   # extra updates of the Zipf-hottest repo
    keys_per_repo: int = 50


def make_wal(spec: WalSpec, wal_dir: str, seed: int) -> dict:
    """Generate the WAL for ``spec`` under ``wal_dir``; returns
    ``{"n_events", "n_epochs"}``. Schema evolution (``stars`` added,
    ``size`` widened) happens at epoch ``epochs // 2``."""
    from etl_ray.sources.corpus import generate_corpus
    from etl_ray.sources.wal import generate_wal

    n_repos = max(1, spec.keys // spec.keys_per_repo)
    corpus = generate_corpus(spec.keys, n_repos=n_repos, seed=seed)
    return generate_wal(corpus, wal_dir, n_epochs=spec.epochs,
                        n_repos=n_repos, seed=seed,
                        hot_updates=spec.hot_updates,
                        update_p=spec.update_p)


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file below
    ``root`` (sorted), for byte-identity checks."""
    h = hashlib.sha256()
    for d, _, names in sorted(os.walk(root)):
        for n in sorted(names):
            p = os.path.join(d, n)
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


# ------------------------------------------------------- query tables

_WORDS = ("a the key agg row scan slow fast table value part hash merge "
          "batch spark line sort window order data column join small "
          "customer query big stream filter group vector").split()
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


def make_query_tables(out_dir: str, sf: float, seed: int) -> dict[str, int]:
    """Write region, nation, customer, orders, lineitem, documents and
    events parquet files (test-table schemas, the columns the
    benchmark's queries read) at scale ``sf``; returns row counts."""
    rng = np.random.default_rng([seed, 0x51])
    os.makedirs(out_dir, exist_ok=True)
    n_cust = max(10, int(150_000 * sf))
    n_ord = max(10, int(1_500_000 * sf))
    n_li = max(10, int(6_000_000 * sf))
    n_part = max(10, int(200_000 * sf))
    n_doc = max(20, int(50_000 * sf))
    n_ev = max(20, int(1_000_000 * sf))
    n_user = max(5, int(15_000 * sf))

    tables = {
        "region": pa.table({
            "r_regionkey": pa.array(np.arange(5), pa.int32()),
            "r_name": pa.array(_REGIONS)}),
        "nation": pa.table({
            "n_nationkey": pa.array(np.arange(25), pa.int32()),
            "n_name": pa.array([f"NATION{i}" for i in range(25)]),
            "n_regionkey": pa.array(np.arange(25) % 5, pa.int32())}),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(1, n_cust + 1), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}"
                                for i in range(1, n_cust + 1)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(
                np.round(rng.uniform(-999.99, 9999.99, n_cust), 2))}),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(1, n_ord + 1), pa.int64()),
            # some customers have no orders (the left-join case)
            "o_custkey": pa.array(
                rng.integers(1, max(2, int(n_cust * 0.9)), n_ord), pa.int64()),
            "o_totalprice": pa.array(
                np.round(rng.uniform(800.0, 500_000.0, n_ord), 2))}),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(1, n_ord + 1, n_li),
                                   pa.int64()),
            "l_partkey": pa.array(rng.integers(1, n_part + 1, n_li),
                                  pa.int64()),
            "l_quantity": pa.array(
                rng.integers(1, 51, n_li).astype(np.float64)),
            "l_extendedprice": pa.array(
                np.round(rng.uniform(900.0, 100_000.0, n_li), 2)),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0),
            "l_returnflag": pa.array(
                np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)]),
            "l_linestatus": pa.array(
                np.array(["F", "O"])[rng.integers(0, 2, n_li)])}),
        "documents": _documents(rng, n_doc),
        "events": _events(rng, n_ev, n_user),
    }
    counts = {}
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
        counts[name] = t.num_rows
    return counts


def _documents(rng: np.random.Generator, n: int) -> pa.Table:
    """Random 40-90 word texts; one doc in ten is a near-duplicate of an
    earlier doc with its last word changed (3-shingle Jaccard >= 0.94,
    so MinHash-LSH at 16 bands x 4 rows finds every such pair with
    probability 1 - 1e-11, and random pairs stay far below 0.5)."""
    words = np.array(_WORDS)
    texts: list[str] = []
    for i in range(n):
        if i >= 10 and rng.random() < 0.1:
            src = texts[int(rng.integers(0, i))].split(" ")
            src[-1] = words[int(rng.integers(0, len(words)))]
            texts.append(" ".join(src))
        else:
            k = int(rng.integers(40, 91))
            texts.append(" ".join(words[rng.integers(0, len(words), k)]))
    return pa.table({"doc_id": pa.array(np.arange(n), pa.int64()),
                     "text": pa.array(texts)})


def _events(rng: np.random.Generator, n: int, n_user: int) -> pa.Table:
    """Click-stream events over 30 days; per-user gaps straddle the
    30-minute session boundary."""
    start = np.datetime64("2024-01-01T00:00:00", "us")
    offs = np.sort(rng.integers(0, 30 * 86_400_000_000, n))
    return pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(start + offs.astype("timedelta64[us]"),
                       pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, n_user, n), pa.int64())})
