"""Correctness oracle, independent of the engine (DuckDB over the raw
inputs).

The expected lake state is a last-writer-wins replay of the WAL in SQL:
per (repo, path) the highest-lsn event that passes the audit rule, kept
unless it is a delete, with ``sha256(content)`` computed by DuckDB. The
lake is then compared as a multiset of (repo, path, commit,
content_sha256), where the sha is recomputed from the content the lake
returned, so a row whose content changed under an unchanged stored
sha still fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import duckdb
import pandas as pd
import pyarrow as pa


class Oracle:
    """Expected CDC state of one WAL, queryable at any applied epoch."""

    def __init__(self, wal_dir: str, threads: int = 1):
        self.con = duckdb.connect()
        self.con.execute(f"SET threads = {int(threads)}")
        self.con.execute(f"""
            CREATE TABLE ev AS
            SELECT lsn, epoch, op, repo, path, "commit", lang, content,
                   CAST(size AS BIGINT) AS size
            FROM read_parquet('{wal_dir}/*/*.parquet', union_by_name = true,
                              hive_partitioning = false)""")
        self._epoch = None

    def at(self, max_epoch: int) -> "Oracle":
        """Materialize the expected state after WAL epochs <= max_epoch
        as tables ``expected`` (live rows) and ``deleted`` (keys whose
        last event is a delete)."""
        if self._epoch == max_epoch:
            return self
        self.con.execute(f"""
            CREATE OR REPLACE TABLE last AS
            SELECT * FROM ev
            WHERE epoch <= {int(max_epoch)}
              AND op IN ('I', 'U', 'D') AND repo IS NOT NULL
              AND path IS NOT NULL AND (op = 'D' OR content IS NOT NULL)
            QUALIFY row_number() OVER (PARTITION BY repo, path
                                       ORDER BY lsn DESC) = 1""")
        self.con.execute("""
            CREATE OR REPLACE TABLE expected AS
            SELECT repo, path, "commit", lang, size,
                   sha256(content) AS content_sha256
            FROM last WHERE op <> 'D'""")
        self.con.execute("""
            CREATE OR REPLACE TABLE deleted AS
            SELECT repo, path FROM last WHERE op = 'D'""")
        self._epoch = max_epoch
        return self

    def compare_state(self, got: pa.Table) -> dict:
        """Multiset comparison of a scanned lake table (needs repo,
        path, commit, content, content_sha256) with ``expected``.
        Returns counts of rows only in the lake (``extra``), only in
        the oracle (``missing``) and rows whose stored sha differs from
        the sha of their content (``bad_sha``)."""
        self.con.register("got_raw", got.select(
            ["repo", "path", "commit", "content", "content_sha256"]))
        try:
            extra, missing, bad_sha = self.con.execute("""
                WITH got AS (
                    SELECT repo, path, "commit",
                           sha256(content) AS content_sha256,
                           content_sha256 AS stored_sha
                    FROM got_raw)
                SELECT
                  (SELECT count(*) FROM (
                     SELECT repo, path, "commit", content_sha256 FROM got
                     EXCEPT ALL
                     SELECT repo, path, "commit", content_sha256
                     FROM expected)),
                  (SELECT count(*) FROM (
                     SELECT repo, path, "commit", content_sha256
                     FROM expected
                     EXCEPT ALL
                     SELECT repo, path, "commit", content_sha256 FROM got)),
                  (SELECT count(*) FROM got
                   WHERE stored_sha IS DISTINCT FROM content_sha256)
            """).fetchone()
        finally:
            self.con.unregister("got_raw")
        return {"extra": extra, "missing": missing, "bad_sha": bad_sha,
                "ok": extra == 0 and missing == 0 and bad_sha == 0}

    def lookup_keys(self, n: int, seed: int) -> list[tuple[str, str, str]]:
        """``n`` seeded probe keys as (kind, repo, path): about 70%
        live, 15% deleted and 15% never written."""
        n_del = n * 15 // 100
        n_live = n - n_del - n * 15 // 100
        live = self.con.execute(
            "SELECT repo, path FROM expected ORDER BY repo, path").fetchall()
        dele = self.con.execute(
            "SELECT repo, path FROM deleted ORDER BY repo, path").fetchall()
        rng = random.Random(seed)
        out = [("live", *k) for k in rng.sample(live, min(n_live, len(live)))]
        out += [("deleted", *k) for k in rng.sample(dele, min(n_del, len(dele)))]
        repos = sorted({k[0] for k in live}) or ["org0/repo0"]
        out += [("absent", rng.choice(repos), f"src/never/{seed}_{i}.py")
                for i in range(n - len(out))]
        rng.shuffle(out)
        return out

    def expected_row(self, repo: str, path: str) -> dict | None:
        r = self.con.execute(
            'SELECT "commit", content_sha256 FROM expected '
            "WHERE repo = ? AND path = ?", [repo, path]).fetchone()
        return None if r is None else {"commit": r[0], "content_sha256": r[1]}

    def view_expected(self, group_cols: list[str],
                      sum_cols: list[str]) -> pd.DataFrame:
        g = ", ".join(group_cols)
        sums = "".join(f", CAST(sum({c}) AS BIGINT) AS sum_{c}"
                       for c in sum_cols)
        return self.con.execute(
            f"SELECT {g}, count(*) AS n{sums} FROM expected GROUP BY {g}"
        ).df()


def lake_digest(lake_dir: str) -> str:
    """Digest of a lake's committed state: every data file's path and
    bytes, and every manifest with its file lists sorted (entry rows
    may arrive in any order). Two replays of one WAL that produce the
    same digest hold the same lake."""
    h = hashlib.sha256()
    for sub in ("data", "_manifests"):
        root = os.path.join(lake_dir, sub)
        for d, _, names in sorted(os.walk(root)):
            for n in sorted(names):
                p = os.path.join(d, n)
                h.update(os.path.relpath(p, lake_dir).encode() + b"\0")
                if sub == "data":
                    with open(p, "rb") as f:
                        h.update(hashlib.sha256(f.read()).digest())
                    continue
                with open(p) as f:
                    doc = json.load(f)
                for e in doc.get("partitions", {}).values():
                    if "files" in e:
                        e["files"] = sorted(e["files"])
                h.update(json.dumps(doc, sort_keys=True).encode())
    return h.hexdigest()


def lookup_ok(got: dict | None, want: dict | None) -> bool:
    """A lookup result agrees with the oracle row (or its absence),
    with the returned content hashing to the expected sha."""
    if want is None:
        return got is None
    if got is None:
        return False
    sha = hashlib.sha256(got["content"].encode()).hexdigest()
    return (got["commit"] == want["commit"]
            and got["content_sha256"] == want["content_sha256"] == sha)


def frame_hash(df: pd.DataFrame) -> str:
    """Order-insensitive value hash: columns by name, rows by repr."""
    df = df.reindex(sorted(df.columns), axis=1)
    lines = sorted("\x1f".join(repr(v) for v in row)
                   for row in df.itertuples(index=False))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def same_frame(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """Row count, column names and value hash all agree."""
    return (len(got) == len(want)
            and sorted(got.columns) == sorted(want.columns)
            and frame_hash(got) == frame_hash(want))

