"""Similarity search over embedding columns (list<float>).

- ann_topk:  brute-force cosine top-k against a broadcast query matrix —
  the exactness baseline, oracle-checked against DuckDB window SQL.
- ann_ivf:   IVF-bucketed variant — deterministic k-means-lite
  centroids, cells searched with NPROBE > 1; the scale path (rows-only,
  but tested for recall vs brute force in tests/test_textops.py).

Partitioning assumption (documented per SURVEY §2 custom-operator
rule): the query matrix is small enough to broadcast (ray.put once,
read per actor); the base table streams through map_batches blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from etl_ray.pipelines._qutil import read
from etl_ray.pipelines.queries import register
from etl_ray.util import embedding_matrix, gather

N_QUERIES = 5
TOP_K = 10
# IVF cells, shared by ann_ivf and the cell-bucketed embedding near-dup,
# and the cells ann_ivf searches per query
N_CELLS = 16
NPROBE = 4


def _load_queries(sf_dir: str):
    """Load ONLY the query rows (filtered parquet read — row-group
    predicate pushdown). The driver never holds the base matrix; at
    100 TB the full-table load this replaced is a driver OOM."""
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"],
                        filters=[("vec_id", "<", N_QUERIES)])
    ids = emb["vec_id"].to_numpy()
    M = embedding_matrix(emb["embedding"])
    return ids, M / np.linalg.norm(M, axis=1, keepdims=True)


SAMPLE_MAX = 4096


def _sample_normalized(ds, n_rows: int):
    """Distributed deterministic sample of the embedding matrix:
    every-stride-th row per block (map_batches) → tiny driver reduce of
    ≤SAMPLE_MAX normalized vectors. The full matrix never leaves the
    workers."""
    stride = max(1, n_rows // SAMPLE_MAX)

    def _take(t: pa.Table) -> pa.Table:
        idx = pa.array(np.arange(0, len(t), stride, dtype=np.int64))
        return t.take(idx)

    sampled = gather(ds.map_batches(_take, batch_format="pyarrow"))
    M = embedding_matrix(sampled["embedding"])
    return M / np.linalg.norm(M, axis=1, keepdims=True)


def _merge_topk(t: pa.Table) -> pa.Table:
    """Driver merge of per-block (query_id, neighbor_id, sim) partials:
    per query, rank by sim desc, tie-break neighbor_id asc (matches the
    SQL), keep the first TOP_K."""
    q = t["query_id"].to_numpy()
    n = t["neighbor_id"].to_numpy()
    s = t["sim"].to_numpy()
    keep_q, keep_n = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for qi in np.unique(q):
        m = q == qi
        order = np.lexsort((n[m], -s[m]))[:TOP_K]
        keep_q.append(np.full(len(order), qi))
        keep_n.append(n[m][order])
    return pa.table({
        "query_id": pa.array(np.concatenate(keep_q), pa.int64()),
        "neighbor_id": pa.array(np.concatenate(keep_n), pa.int64()),
    })


@register(
    "ann_topk",
    f"""SELECT query_id, neighbor_id FROM (
           SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                  ROW_NUMBER() OVER (
                      PARTITION BY q.vec_id
                      ORDER BY list_cosine_similarity(
                          CAST(q.embedding AS DOUBLE[]),
                          CAST(e.embedding AS DOUBLE[])) DESC, e.vec_id
                  ) AS rk
           FROM embeddings q, embeddings e
           WHERE q.vec_id < {N_QUERIES} AND e.vec_id != q.vec_id
       ) WHERE rk <= {TOP_K}""",
)
def ann_topk(sf_dir: str):
    """Brute-force cosine top-k: one float64 matmul per block against the
    broadcast query matrix, then a per-block partial top-k and a final
    tiny merge on the driver (k × n_queries rows)."""
    qids, Q = _load_queries(sf_dir)
    ref = ray.put((qids, Q))

    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _block_topk(t: pa.Table) -> pa.Table:
        q_ids, q_m = ray.get(ref)
        X = embedding_matrix(t["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        bids = t["vec_id"].to_numpy()
        sims = q_m @ Xn.T  # (n_queries, block)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            s = sims[qi].copy()
            s[bids == q_ids[qi]] = -np.inf  # exclude self
            k = min(TOP_K, len(bids))
            idx = np.argpartition(-s, k - 1)[:k]
            out_q.append(np.full(k, q_ids[qi], dtype=np.int64))
            out_n.append(bids[idx].astype(np.int64))
            out_s.append(s[idx])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "sim": pa.array(np.concatenate(out_s)),
        })

    # final merge: n_queries × (k × n_blocks) rows — tiny
    return _merge_topk(gather(ds.map_batches(_block_topk,
                                             batch_format="pyarrow")))


def fit_centroids(ds) -> np.ndarray:
    """Deterministic normalized k-means centroids (8 Lloyd iterations
    from evenly-strided seeds) over a DISTRIBUTED sample (every
    stride-th row per block, ≤SAMPLE_MAX vectors reduced to the
    driver) — the full matrix never leaves the workers. Shared by
    ann_ivf and the cell-bucketed embedding near-dup."""
    Sn = _sample_normalized(ds, ds.count())
    seeds = Sn[:: max(1, len(Sn) // N_CELLS)][:N_CELLS]
    C = seeds.copy()
    for _ in range(8):
        assign = (Sn @ C.T).argmax(axis=1)
        for c in range(len(C)):
            m = assign == c
            if m.any():
                v = Sn[m].mean(axis=0)
                C[c] = v / np.linalg.norm(v)
    return C


@register("ann_ivf")
def ann_ivf(sf_dir: str):
    """IVF approximate top-k: assign vectors to ``N_CELLS`` centroid
    cells, search only the ``NPROBE`` closest cells per query.

    Centroids are a deterministic k-means (8 Lloyd iterations from
    evenly-strided seeds) over a DISTRIBUTED sample (every-stride-th
    row per block, ≤4096 vectors reduced to the driver) — the full
    matrix never leaves the workers. The cell assignment is the
    partitioning key; each query ships to NPROBE cells only, so the
    per-query work is ~NPROBE/N_CELLS of brute force.
    """
    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = fit_centroids(ds)
    qids, Q = _load_queries(sf_dir)
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :NPROBE]  # cells per query
    ref = ray.put((qids, Q, C, probe))

    def _cell_topk(t: pa.Table) -> pa.Table:
        q_ids, q_m, cents, probe_cells = ray.get(ref)
        X = embedding_matrix(t["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        bids = t["vec_id"].to_numpy()
        cell = (Xn @ cents.T).argmax(axis=1)
        out_q, out_n, out_s = [], [], []
        for qi in range(len(q_ids)):
            m = np.isin(cell, probe_cells[qi]) & (bids != q_ids[qi])
            if not m.any():
                continue
            s = q_m[qi] @ Xn[m].T
            k = min(TOP_K, int(m.sum()))
            idx = np.argpartition(-s, k - 1)[:k]
            out_q.append(np.full(k, q_ids[qi], dtype=np.int64))
            out_n.append(bids[m][idx].astype(np.int64))
            out_s.append(s[idx])
        if not out_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            "neighbor_id": pa.array(np.concatenate(out_n)),
            "sim": pa.array(np.concatenate(out_s)),
        })

    return _merge_topk(gather(ds.map_batches(_cell_topk,
                                             batch_format="pyarrow")))
