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

import ray

from etl_ray.pipelines._qutil import (min_max, read, shard_apply, shard_of,
                                      top_k)
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


# ------------------------------------------- incremental sessionization


@ray.remote
class SessionShard:
    """Stateful shard actor for INCREMENTAL sessionization: holds, for
    one hash shard of the user-id space, each user's last-seen event
    time and running session count across event-time micro-batches.

    Protocol (the pattern for any stateful event-time window at
    100 TB): state is sharded by the window partition key (no global
    state); producers ``buffer()`` shard-pure slices of the OPEN window
    in any order; the driver's watermark advance calls
    ``seal_window()``, which folds the buffered rows (sorted) into the
    carried per-user state. An actor restart loses only its shard, and
    shard state is a pure fold over that shard's events — replaying the
    shard's windows reconstructs it (same recovery story as the CDC
    lake's deterministic delta rewrite).
    """

    def __init__(self, gap_s: int):
        self.gap = np.timedelta64(gap_s, "s")
        self.last_ts: dict = {}
        self.n_sessions: dict = {}
        self._buf: list[pa.Table] = []

    def buffer(self, t: pa.Table) -> int:
        self._buf.append(t)
        return len(t)

    def seal_window(self) -> int:
        if not self._buf:
            return 0
        df = pa.concat_tables(self._buf).to_pandas()
        self._buf = []
        df = df.sort_values(["ts", "event_id"])
        for uid, g in df.groupby("user_id", sort=False):
            ts = g["ts"].to_numpy()
            # in-batch session breaks (vectorized) ...
            breaks = int((np.diff(ts) > self.gap).sum())
            # ... plus the boundary break vs carried state
            prev = self.last_ts.get(uid)
            first_new = 1 if prev is None or (ts[0] - prev) > self.gap else 0
            self.n_sessions[uid] = (self.n_sessions.get(uid, 0)
                                    + breaks + first_new)
            self.last_ts[uid] = ts[-1]
        return len(df)

    def flush(self) -> pa.Table:
        users = sorted(self.n_sessions)
        return pa.table({
            "user_id": pa.array(users, pa.int64()),
            "n_sessions": pa.array([self.n_sessions[u] for u in users],
                                   pa.int64()),
        })


def sessionize_incremental(sf_dir: str, n_windows: int = 6,
                           n_shards: int = 4):
    """Incremental gap-session counts over event-time micro-batches.

    The bounded `events` table is replayed as ``n_windows`` consecutive
    event-time slices; each slice's blocks are routed shard-pure to
    ``n_shards`` stateful `SessionShard` actors (user-hash
    partitioning) and sealed on watermark advance. Produces exactly the
    batch `sessionize` result (asserted in tests) — the unregistered
    streaming twin of that query (the gate covers the semantics through
    `sessionize`'s SQL oracle). The per-window rescan of the bounded
    table stands in for a true tailing source; a WAL-backed deployment
    feeds `buffer()` straight from the tailer.
    """
    ds = read(sf_dir, "events", ["user_id", "ts", "event_id"])
    lo, hi = (x.cast(pa.timestamp("ns")).value for x in min_max(ds, "ts"))
    edges = [lo + (hi - lo + 1) * i // n_windows for i in range(n_windows + 1)]

    shards = [SessionShard.remote(SESSION_GAP_MIN * 60)
              for _ in range(n_shards)]

    def _route(t: pa.Table) -> pa.Table:
        return t.append_column(
            "shard", pa.array(shard_of(t, ["user_id"], n_shards)))

    unit_mult = {"s": 10**9, "ms": 10**6, "us": 10**3, "ns": 1}

    for w in range(n_windows):
        t0, t1 = edges[w], edges[w + 1]

        def _win(t: pa.Table, t0=t0, t1=t1) -> pa.Table:
            import pyarrow.compute as pc

            mult = unit_mult[t.schema.field("ts").type.unit]
            ns = pc.multiply(pc.cast(t["ts"], pa.int64()), mult)
            return t.filter(pc.and_(pc.greater_equal(ns, t0),
                                    pc.less(ns, t1)))

        def _send(t: pa.Table) -> pa.Table:
            # split the block by shard INSIDE the task and push slices
            # straight to the shard actors — rows never touch the
            # driver (the driver only barriers on counts)
            import pyarrow.compute as pc

            waits = []
            for sid in (np.unique(t["shard"].to_numpy()) if len(t) else []):
                sub = t.filter(pc.equal(t["shard"], int(sid)))
                waits.append(shards[int(sid)].buffer.remote(
                    sub.drop_columns(["shard"])))
            n = sum(ray.get(waits)) if waits else 0
            return pa.table({"n": pa.array([n], pa.int64())})

        win = (ds.map_batches(_win, batch_format="pyarrow")
               .map_batches(_route, batch_format="pyarrow")
               .map_batches(_send, batch_format="pyarrow"))
        win.count()  # barrier: all of window w buffered
        # watermark advance: every shard folds window w before w+1 opens
        ray.get([s.seal_window.remote() for s in shards])

    out = pa.concat_tables(ray.get([s.flush.remote() for s in shards]))
    for s in shards:
        ray.kill(s)
    return out


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


# ----------------------------------------------------- t-digest sketch


class TDigest:
    """Merging t-digest (Dunning) for approximate quantiles of
    UNBOUNDED-cardinality values — the scale path `agg_quantile`'s
    histogram pre-aggregation hands over to when the value domain stops
    being enumerable. Mergeable: one small digest per block, merged
    associatively (HLL-style), so nothing but centroid arrays crosses
    the wire. Accuracy concentrates at the tails (k1 size bound
    ∝ q(1-q)), the property quantile monitoring actually needs."""

    __slots__ = ("means", "weights", "compression")

    def __init__(self, means: np.ndarray, weights: np.ndarray,
                 compression: int = 100):
        self.means = means
        self.weights = weights
        self.compression = compression

    @classmethod
    def from_values(cls, vals: np.ndarray, compression: int = 100) -> "TDigest":
        vals = np.asarray(vals, dtype=np.float64)
        return cls(*cls._compress(vals, np.ones(len(vals)), compression),
                   compression)

    def merge(self, other: "TDigest") -> "TDigest":
        return TDigest(*self._compress(
            np.concatenate([self.means, other.means]),
            np.concatenate([self.weights, other.weights]),
            self.compression), self.compression)

    @staticmethod
    def _compress(means: np.ndarray, weights: np.ndarray,
                  delta: int) -> tuple[np.ndarray, np.ndarray]:
        if len(means) == 0:
            return means, weights
        order = np.argsort(means, kind="stable")
        m, w = means[order], weights[order]
        total = float(w.sum())
        out_m: list[float] = []
        out_w: list[float] = []
        cur_m, cur_w, seen = float(m[0]), float(w[0]), 0.0
        for i in range(1, len(m)):
            q_mid = (seen + (cur_w + w[i]) / 2) / total
            cap = max(1.0, 4.0 * total * q_mid * (1 - q_mid) / delta)
            if cur_w + w[i] <= cap:
                cur_m = (cur_m * cur_w + float(m[i]) * float(w[i])) \
                    / (cur_w + float(w[i]))
                cur_w += float(w[i])
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                seen += cur_w
                cur_m, cur_w = float(m[i]), float(w[i])
        out_m.append(cur_m)
        out_w.append(cur_w)
        return np.array(out_m), np.array(out_w)

    def quantile(self, q: float) -> float:
        m, w = self.means, self.weights
        if len(m) == 0:
            return float("nan")
        total = w.sum()
        target = q * total
        cum = np.cumsum(w) - w / 2  # centroid midpoints
        if target <= cum[0]:
            return float(m[0])
        if target >= cum[-1]:
            return float(m[-1])
        i = int(np.searchsorted(cum, target) - 1)
        frac = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(m[i] + frac * (m[i + 1] - m[i]))

    def to_bytes(self) -> bytes:
        return (np.int64(len(self.means)).tobytes()
                + self.means.tobytes() + self.weights.tobytes())

    @classmethod
    def from_bytes(cls, b: bytes, compression: int = 100) -> "TDigest":
        n = int(np.frombuffer(b, np.int64, 1)[0])
        means = np.frombuffer(b, np.float64, n, 8).copy()
        weights = np.frombuffer(b, np.float64, n, 8 + 8 * n).copy()
        return cls(means, weights, compression)


def sketch_quantiles_prices(sf_dir: str, qs=(0.5, 0.95, 0.99)):
    """Approximate order-price quantiles via per-block t-digests merged
    on the driver — the unbounded-domain counterpart of agg_quantile's
    exact histogram path (unregistered; rank-accuracy pinned in tests)."""
    ds = read(sf_dir, "orders", ["o_totalprice"])

    def _sketch(t: pa.Table) -> pa.Table:
        d = TDigest.from_values(t["o_totalprice"].to_numpy())
        return pa.table({"td": pa.array([d.to_bytes()], pa.binary())})

    merged: TDigest | None = None
    for raw in gather(ds.map_batches(_sketch, batch_format="pyarrow"))["td"] \
            .to_pylist():
        d = TDigest.from_bytes(raw)
        merged = d if merged is None else merged.merge(d)
    return pa.table({
        "q": pa.array(list(qs), pa.float64()),
        "value": pa.array([merged.quantile(q) for q in qs], pa.float64()),
    })


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
