"""Stream-shaped operators over the bounded events log: sessionization
and mergeable sketches (SURVEY.md §2.9 + guide patterns).

Ray Data has no watermarks; event-time logic runs as a key-hash
exchange + ordered in-group logic (sessionize) or as per-block
mergeable state (HLL sketch: one small sketch per block, merged in a
tiny final stage — the canonical way to avoid shuffling raw values for
approximate aggregates at 100 TB).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.pipelines._qutil import read, shard_apply, top_k
from etl_ray.pipelines.queries import register
from etl_ray.util import gather

SESSION_GAP_MIN = 30


@register(
    "sessionize",
    f"""WITH d AS (
           SELECT user_id,
                  CASE WHEN LAG(ts) OVER w IS NULL
                            OR ts - LAG(ts) OVER w > INTERVAL {SESSION_GAP_MIN} MINUTE
                       THEN 1 ELSE 0 END AS new_s
           FROM events
           WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
       )
       SELECT user_id, CAST(SUM(new_s) AS BIGINT) AS n_sessions
       FROM d GROUP BY user_id""",
)
def sessionize(sf_dir: str):
    """Gap-based session windows: a session break is a >30-min silence.

    Runs on the key-hash exchange keyed on user_id: each shard holds
    MANY users and one vectorized pass (sort by (user_id, ts,
    event_id), boundary mask = new-user OR gap, Arrow sum per user)
    counts every user's sessions at once — at 100× users a per-user
    Python call would be the cost. Correct because sessionization only
    needs per-user co-location, not one group per user.
    """
    ds = read(sf_dir, "events", ["user_id", "ts", "event_id"])
    gap = np.timedelta64(SESSION_GAP_MIN * 60, "s")

    def _sess(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[
            ("user_id", "ascending"), ("ts", "ascending"),
            ("event_id", "ascending")]))
        uid = t["user_id"].to_numpy()
        ts = t["ts"].to_numpy()
        new_s = np.ones(len(t), dtype=np.int64)
        new_s[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap)
        g = pa.table({"user_id": t["user_id"], "n": new_s}).group_by(
            "user_id").aggregate([("n", "sum")])
        return pa.table({"user_id": g["user_id"], "n_sessions": g["n_sum"]})

    return shard_apply(ds, ["user_id"], _sess)


# ------------------------------------------------------------- HLL sketch

HLL_P = 12  # 4096 registers → ~1.6% standard error


def _hll_registers(values: np.ndarray) -> np.ndarray:
    """Vectorized HyperLogLog register fold of 64-bit hashes."""
    idx = (values >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = values << np.uint64(HLL_P)
    # rank = leading zeros of the remaining 64-P bits, + 1
    rank = np.full(len(values), 64 - HLL_P + 1, dtype=np.uint8)
    nz = rest != 0
    # log2 via float conversion is exact for the leading-bit position
    lead = np.zeros(len(values), dtype=np.uint8)
    lead[nz] = (63 - np.floor(np.log2(rest[nz].astype(np.float64)))).astype(np.uint8)
    rank[nz] = np.minimum(lead[nz] + 1, 64 - HLL_P + 1)
    regs = np.zeros(1 << HLL_P, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = float(len(regs))
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting small-range fix
    return float(est)


@register("sketch_hll_partkeys")
def sketch_hll_partkeys(sf_dir: str):
    """Approximate count-distinct of l_partkey via HyperLogLog.

    One 4 KiB sketch per block (map_batches), merged with an elementwise
    max on the driver — nothing but sketches crosses the wire, vs the
    exact two-phase groupby in `count_distinct`. Rows-only oracle; the
    accuracy bound (±5%) is asserted in tests/test_queries.py.
    """
    ds = read(sf_dir, "lineitem", ["l_partkey"])

    def _sketch(t: pa.Table) -> pa.Table:
        vals = pd.util.hash_array(t["l_partkey"].to_numpy(), categorize=False)
        regs = _hll_registers(vals)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    sketches = gather(ds.map_batches(_sketch, batch_format="pyarrow"))
    merged = np.zeros(1 << HLL_P, dtype=np.uint8)
    for s in sketches["regs"].to_pylist():
        merged = np.maximum(merged, np.frombuffer(s, dtype=np.uint8))
    return pa.table({"approx_n_parts": pa.array(
        [int(round(hll_estimate(merged)))], pa.int64())})


@register(
    "topk_frequent_tokens",
    """SELECT token, CAST(cnt AS BIGINT) AS n FROM (
           SELECT token, COUNT(*) AS cnt, ROW_NUMBER() OVER (
               ORDER BY COUNT(*) DESC, token) AS rk
           FROM (SELECT unnest(string_split(text, ' ')) AS token
                 FROM documents)
           GROUP BY token
       ) WHERE rk <= 15""",
)
def topk_frequent_tokens(sf_dir: str):
    """Heavy hitters: partial per-block counts → per-token sum on the
    key-hash exchange → ``top_k``. Counts are final after the sum, so
    only ≤ 15 rows per block reach the driver (the full distinct-token
    table is billions of rows at web scale). Deterministic tie-break on
    the token value (matches the oracle's ORDER BY cnt DESC, token)."""
    from etl_ray.pipelines.scalarq import sum_counts, token_counts

    ds = read(sf_dir, "documents", ["text"])
    total = shard_apply(ds.map_batches(token_counts, batch_format="pyarrow"),
                        ["token"], sum_counts)
    return top_k(total, [("n", "descending"), ("token", "ascending")], 15)
