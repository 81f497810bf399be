"""Deduplication operators for training-data pipelines (SURVEY.md §2.7).

- exact:      content-hash group, keep first (oracle-checked)
- minhash:    3-token shingles → k minhashes → LSH bands → bucket group
              → candidate pairs → exact-Jaccard verify (oracle-checked
              against a from-scratch SQL shingle-Jaccard recompute)
- simhash:    64-bit simhash per doc (rows-only, deterministic)
- jaccard:    character-set Jaccard similarity on doc pairs
              (oracle-checked against DuckDB's jaccard())
- embedding:  cosine near-dup pairs over list<float> embeddings
              (oracle-checked against DuckDB's list_cosine_similarity)

Scale notes are on each operator: the key-hash exchange key is always
a hash-derived bucket so the all-to-all moves (band, bucket, doc_id)
triples or per-bucket candidate sets, never full documents.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from etl_ray.pipelines._qutil import (each_group, fixed_point_scalar, read,
                                      shard_apply)
from etl_ray.pipelines.queries import register
from etl_ray.util import (as_array, embedding_matrix, gather, hash64_str,
                          rolling_poly, segment_unique, sha256_hex_array)

# ------------------------------------------------------------- exact dedup


@register(
    "dedup_exact",
    """SELECT CAST(MIN(doc_id) AS BIGINT) AS doc_id, sha256(text) AS sha
       FROM documents GROUP BY text""",
)
def dedup_exact(sf_dir: str):
    """U3: exact dedup = hash the content, group by hash, keep min id.

    The key-hash exchange moves (sha, doc_id) pairs only — content
    stays put. At 100 TB this is the canonical exact-dedup shape:
    64-byte keys per row, pre-reduced per block by the same min-id
    kernel that each shard then runs.
    """
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def _min_id(t: pa.Table) -> pa.Table:
        g = t.group_by("sha").aggregate([("doc_id", "min")])
        return pa.table({"doc_id": g["doc_id_min"], "sha": g["sha"]})

    def _hash(t: pa.Table) -> pa.Table:
        return _min_id(pa.table({"doc_id": t["doc_id"],
                                 "sha": sha256_hex_array(t["text"])}))

    return shard_apply(ds.map_batches(_hash, batch_format="pyarrow"),
                       ["sha"], _min_id)


# ------------------------------------------------------- minhash helpers

_MERSENNE = np.uint64((1 << 61) - 1)


def _shingle_hashes(t: pa.Table, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Per-row 64-bit hashes of k-token shingles.

    Returns (flat_hashes, row_lengths): the i-th row owns
    flat_hashes[off[i]:off[i]+row_lengths[i]], sorted unique per row.
    Fully segment-vectorized: one polars hash of the flattened token
    stream, one global sliding-window polynomial (util.rolling_poly),
    one lexsort dedupe (util.segment_unique) — no per-doc Python loop.
    """
    toks = pc.split_pattern(t["text"], " ")
    toks = as_array(toks)
    lengths = pc.list_value_length(toks).to_numpy()
    flat = hash64_str(pc.list_flatten(toks))
    vals, counts = rolling_poly(flat, lengths, k, np.uint64(1099511628211))
    return segment_unique(vals, counts)


NUM_PERM, BANDS = 64, 16
_COEF: dict[str, np.ndarray] = {}


def _perm_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Fixed minhash permutation coefficients, built once per worker
    process (module-level cache — stateless tasks amortize like an
    actor would, without reserving pool CPUs)."""
    if not _COEF:
        rng = np.random.RandomState(1234)
        _COEF["a"] = rng.randint(1, (1 << 61) - 1, NUM_PERM, dtype=np.uint64)
        _COEF["b"] = rng.randint(0, (1 << 61) - 1, NUM_PERM, dtype=np.uint64)
    return _COEF["a"], _COEF["b"]


def minhash_triples(t: pa.Table) -> pa.Table:
    """map_batches stage: emit (band, bucket, doc_id) LSH triples.

    num_perm=64 in 16 bands of 4 rows targets the Jaccard~0.5
    similarity knee. The signature matrix is built permutation-major
    (64 fixed iterations of one vectorized a*x+b pass over the WHOLE
    flattened shingle stream + one np.minimum.reduceat over per-doc
    segments) — no per-doc loop, identical arithmetic to the per-doc
    _minhash_sig it replaced (pinned by the brute-force ground-truth
    test).
    """
    a, b = _perm_coefficients()
    rows_per_band = NUM_PERM // BANDS
    flat, counts = _shingle_hashes(t)
    doc_ids = t["doc_id"].to_numpy()
    n = len(doc_ids)
    if n == 0:
        return pa.table({"band": pa.array([], pa.int32()),
                         "bucket": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64())})
    offs = np.concatenate([[0], np.cumsum(counts)])[:-1].astype(np.int64)
    sig = np.empty((NUM_PERM, n), dtype=np.uint64)
    for p in range(NUM_PERM):  # fixed 64; inner fully vectorized
        sig[p] = np.minimum.reduceat(
            (a[p] * flat + b[p]) % _MERSENNE, offs)
    bands3 = sig.reshape(BANDS, rows_per_band, n)
    # bucket id = hash of the band's signature rows
    bucket = (bands3 * np.uint64(1000003)).sum(axis=1)  # (BANDS, n)
    return pa.table({
        "band": pa.array(np.repeat(np.arange(BANDS, dtype=np.int32), n)),
        "bucket": pa.array(bucket.reshape(-1).astype(np.int64)),
        "doc_id": pa.array(np.tile(doc_ids.astype(np.int64), BANDS)),
    })


# A (band, bucket) group larger than this emits STAR pairs (min-id hub
# ↔ every other member, O(n)) instead of all pairs (O(n²)). Web-scale
# corpora have boilerplate mega-buckets with millions of near-identical
# docs; all-pairs there is quadratic death, while star pairs keep every
# member connected to a representative, which is what dedup (connected
# components → keep one) needs. Detection of ALL >τ pairs inside a
# mega-bucket is explicitly traded away above the cap.
BUCKET_CAP = 1024


def _int64_schema(*names: str) -> pa.Schema:
    return pa.schema([(n, pa.int64()) for n in names])


def _no_pairs(a: str = "doc_a", b: str = "doc_b") -> pa.Table:
    return _int64_schema(a, b).empty_table()


def _distinct(t: pa.Table) -> pa.Table:
    return t.group_by(t.column_names).aggregate([])


def _bucket_pairs(g: pa.Table) -> pa.Table:
    """Candidate pairs within one (band, bucket) group (capped)."""
    ids = np.unique(g["doc_id"].to_numpy())
    if len(ids) < 2:
        return _no_pairs()
    if len(ids) > BUCKET_CAP:  # mega-bucket: star pairs, O(n)
        return pa.table({"doc_a": pa.array(np.full(len(ids) - 1, ids[0])),
                         "doc_b": pa.array(ids[1:])})
    ia, ib = np.triu_indices(len(ids), 1)
    return pa.table({"doc_a": pa.array(ids[ia]), "doc_b": pa.array(ids[ib])})


# Near-dup cut-off, Jaccard × 10⁴: the verified pair filter and both
# oracles' SQL read this one value, so they cannot drift apart.
JACC_E4_MIN = 5000

# Exact 3-token-shingle Jaccard pair set, recomputed from scratch in
# SQL: tokenize (string_split keeps empties == pc.split_pattern),
# shingle via positional self-joins, distinct per doc, intersect via a
# shingle equi-join. Shared by the dedup_minhash and dedup_clusters
# oracles.
_SHINGLE_PAIRS_SQL = """
t AS (SELECT doc_id, string_split(text, ' ') AS ts FROM documents),
tok AS (SELECT doc_id, unnest(ts) AS w,
               unnest(range(1, len(ts)+1)) AS pos FROM t),
sh AS (SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS s
       FROM tok a JOIN tok b ON a.doc_id=b.doc_id AND b.pos=a.pos+1
                  JOIN tok c ON a.doc_id=c.doc_id AND c.pos=a.pos+2),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, count(*) AS i
          FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
          GROUP BY 1, 2),
scored AS (SELECT doc_a, doc_b,
                  CAST(ROUND(i * 10000.0 / (ca.n + cb.n - i)) AS BIGINT)
                      AS jacc_e4
           FROM inter JOIN cnt ca ON ca.doc_id = doc_a
                      JOIN cnt cb ON cb.doc_id = doc_b)
"""


@register(
    "dedup_minhash",
    "WITH " + _SHINGLE_PAIRS_SQL
    + "SELECT doc_a, doc_b, jacc_e4 FROM scored "
    f"WHERE jacc_e4 >= {JACC_E4_MIN}",
)
def dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup detection, verified with exact Jaccard.

    shingle→minhash→band → key-hash exchange on (band, bucket) →
    capped per-bucket pairs, from only the buckets with two docs or
    more → driver pair dedup (the same pair collides in up to 16 bands)
    → fetch the candidate docs' texts → exact 3-shingle Jaccard filter.
    Returns a ``pa.Table`` of (doc_a, doc_b, jacc_e4).

    VALUE-LEVEL ORACLE (promoted round 5): the SQL recomputes the exact
    3-shingle Jaccard pair set from scratch — tokenize, positional
    shingle join, distinct, shingle-intersect — so the driver hash-checks
    both the pair SET and every jacc_e4 value. Candidate recall stays
    LSH-probabilistic in general, but at the gate scales every true
    pair has J ≥ 0.889 (measured), where the 16×4 band miss probability
    is (1-J⁴)¹⁶ ≈ 1.5e-7; exact equality with the brute-force set is
    pinned at sf0.001 AND sf0.01 by tests, so the oracle is stable.

    Driver footprint: the per-band candidate pairs (at most 16× the
    distinct pairs) and the texts of the docs they name, which one
    filtered document scan (vectorized ``pc.is_in``) fetches.
    """
    docs = read(sf_dir, "documents", ["doc_id", "text"])
    triples = docs.map_batches(minhash_triples, batch_format="pyarrow",
                               batch_size=4096)

    def _pairs(t: pa.Table) -> pa.Table:  # no Python for singletons
        return pa.concat_tables(
            [_no_pairs(), *each_group(t, ["band", "bucket"], _bucket_pairs)])

    cand = _distinct(gather(shard_apply(triples, ["band", "bucket"], _pairs)))
    if len(cand) == 0:
        return _int64_schema("doc_a", "doc_b", "jacc_e4").empty_table()
    need_ref = ray.put(pc.unique(pa.chunked_array(
        cand["doc_a"].chunks + cand["doc_b"].chunks)))

    def _filter_needed(t: pa.Table) -> pa.Table:
        need = ray.get(need_ref)  # fetched once per batch, zero-copy
        return t.filter(pc.is_in(t["doc_id"], value_set=need))

    sub = gather(docs.map_batches(_filter_needed, batch_format="pyarrow"))
    for side in ("a", "b"):
        cand = cand.append_column(f"text_{side}", sub["text"].take(
            pc.index_in(cand[f"doc_{side}"], value_set=sub["doc_id"])))
    ha, na = _shingle_hashes(cand.select(["text_a"]).rename_columns(["text"]))
    hb, nb = _shingle_hashes(cand.select(["text_b"]).rename_columns(["text"]))
    oa = np.concatenate([[0], np.cumsum(na)])
    ob = np.concatenate([[0], np.cumsum(nb)])
    jac = np.zeros(len(cand))
    for i in range(len(cand)):  # candidate pairs only — tiny set
        sa = ha[oa[i]:oa[i + 1]]
        sb = hb[ob[i]:ob[i + 1]]
        inter = len(np.intersect1d(sa, sb, assume_unique=True))
        jac[i] = inter / (len(sa) + len(sb) - inter)
    out = pa.table({
        "doc_a": cand["doc_a"], "doc_b": cand["doc_b"],
        # half-away-from-zero to match SQL ROUND (np.round is
        # banker's and can diverge on exact .5 ratios)
        "jacc_e4": pa.array(np.floor(jac * 10000 + 0.5).astype(np.int64)),
    })
    return out.filter(pc.greater_equal(out["jacc_e4"], JACC_E4_MIN))


@register(
    "dedup_clusters",
    "WITH RECURSIVE " + _SHINGLE_PAIRS_SQL + f""",
pairs AS (SELECT doc_a, doc_b FROM scored WHERE jacc_e4 >= {JACC_E4_MIN}),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs),
reach(node, lbl) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.b, r.lbl FROM reach r JOIN edges e ON e.a = r.node
)
SELECT node AS doc_id, MIN(lbl) AS canon_id, node = MIN(lbl) AS keep
FROM reach GROUP BY node""",
)
def dedup_clusters(sf_dir: str):
    """Near-dup CLUSTERS: verified MinHash pairs → connected components
    → canonical representative (min doc_id) per component.

    This is the actionable form of near-dedup for a training-data
    pipeline: every doc in a non-trivial cluster gets a row
    ``(doc_id, canon_id, keep)`` — drop rows with ``keep == false`` to
    dedup the corpus. VALUE-LEVEL ORACLE (promoted round 5): connected
    components are SQL-expressible over the exact pair set via a
    recursive min-label transitive closure (``reach`` = every (node,
    same-component id) pair, UNION-distinct so it terminates; canon =
    MIN over reachable ids). Bounded: the edge list is the verified
    near-dup pair set, ~linear in true-dup count. Cluster equality vs
    a brute-force closure stays pinned in tests.

    Components come from a driver-side union-find over
    ``dedup_minhash``'s table (LSH bucketing and the mega-bucket
    star-pair cap bound that pair set).
    """
    pairs = dedup_minhash(sf_dir)
    da, db = pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(da, db):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members = sorted(set(da) | set(db))
    canon = [find(m) for m in members]
    return pa.table({
        "doc_id": pa.array(members, pa.int64()),
        "canon_id": pa.array(canon, pa.int64()),
        "keep": pa.array([m == c for m, c in zip(members, canon)]),
    })


_SIM_BITS = np.arange(64, dtype=np.uint64)


def simhash_batch(t: pa.Table, text_col: str = "text") -> np.ndarray:
    """64-bit SimHash per document (T3, deterministic).

    Bit i of the hash is the sign of the sum over tokens of ±1 at bit i
    of the token hash — vectorized as a (tokens × 64) popcount-free
    matrix fold per batch. Returns a uint64 array.
    """
    toks = pc.split_pattern(t[text_col], " ")
    toks = as_array(toks)
    lengths = pc.list_value_length(toks).to_numpy()
    flat = hash64_str(pc.list_flatten(toks))
    seg = np.arange(len(t)).repeat(lengths)
    # ±1 per bit per token, summed per doc
    signs = (((flat[:, None] >> _SIM_BITS) & np.uint64(1)).astype(np.int32) * 2 - 1)
    acc = np.zeros((len(t), 64), dtype=np.int64)
    np.add.at(acc, seg, signs)
    return ((acc > 0).astype(np.uint64) << _SIM_BITS).sum(axis=1)


@register(
    "jaccard_pairs",
    """SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
              CAST(ROUND(jaccard(a.text, b.text) * 10000) AS BIGINT) AS jacc_e4
       FROM documents a JOIN documents b ON a.doc_id < b.doc_id
       WHERE a.doc_id < 20 AND b.doc_id < 20""",
)
def jaccard_pairs(sf_dir: str):
    """Character-set Jaccard on doc pairs — DuckDB-matching semantics.

    The pair frame is tiny (bounded id range): the driver reads the
    docs with ``doc_id < 20`` once (row-group pushdown) and pairs them
    with themselves.
    """
    import pyarrow.parquet as pq

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        filters=[("doc_id", "<", 20)])
    ids = docs["doc_id"].to_pylist()
    sets = [frozenset(s) for s in docs["text"].to_pylist()]

    def _jacc_e4(sa: frozenset, sb: frozenset) -> int:
        inter = len(sa & sb)
        # half-away-from-zero (SQL ROUND) — Python round() is
        # banker's and diverges on exact .5 ratios
        return fixed_point_scalar(inter / (len(sa) + len(sb) - inter), 10000)

    return pa.Table.from_pylist(
        [{"doc_a": a, "doc_b": b, "jacc_e4": _jacc_e4(sa, sb)}
         for a, sa in zip(ids, sets) for b, sb in zip(ids, sets) if b > a],
        schema=_int64_schema("doc_a", "doc_b", "jacc_e4"))


NEARDUP_THRESHOLD = 0.45
# probe cells each vector is assigned to, of similarity.N_CELLS
N_ASSIGN = 6


def embedding_neardup_brute(sf_dir: str):
    """Embedding-cosine near-dup pairs, BRUTE-FORCE exactness baseline
    (unregistered — the registered scale shape is embedding_neardup,
    pinned equal to this in tests).

    The full (normalized) embedding matrix is broadcast once via
    ray.put; each batch computes block×all similarities with one float64
    matmul and emits (i<j) pairs above threshold. O(N²) compute and a
    full-matrix broadcast — fine as a cross-check at test scale, wrong
    at 100 TB.
    """
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    M = embedding_matrix(emb["embedding"])
    ids = emb["vec_id"].to_numpy()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    ref = ray.put((ids, Mn))

    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def _block(t: pa.Table) -> pa.Table:
        all_ids, all_m = ray.get(ref)
        X = embedding_matrix(t["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        sims = Xn @ all_m.T
        bids = t["vec_id"].to_numpy()
        bi, bj = np.nonzero(sims > NEARDUP_THRESHOLD)
        keep = bids[bi] < all_ids[bj]
        return pa.table({
            "vec_a": pa.array(bids[bi][keep], type=pa.int64()),
            "vec_b": pa.array(all_ids[bj][keep], type=pa.int64()),
        })

    return ds.map_batches(_block, batch_format="pyarrow")


@register(
    "embedding_neardup",
    """SELECT a.vec_id AS vec_a, b.vec_id AS vec_b
       FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
       WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])) > 0.45""",
)
def embedding_neardup(sf_dir: str):
    """Embedding-cosine near-dup pairs — CELL-BUCKETED scale shape
    (the registered query; embedding_neardup_brute is the O(N²)
    exactness baseline it is pinned equal to in tests).

    Shape: fit ≤N_CELLS IVF centroids from a distributed sample
    (similarity.fit_centroids — the full matrix never leaves the
    workers), broadcast only the tiny centroid matrix, multi-assign
    each vector to its N_ASSIGN closest cells inside map_batches,
    generate candidate pairs WITHIN cells only (a key-hash exchange on
    the cell: one cell² matmul per cell), then dedup pairs found in
    several shared cells with a second exchange on the pair itself.
    Per-cell work is O(cell²) bounded by the cell population — no
    full-matrix broadcast and no global N² anywhere, so the shape
    survives 100 TB (cells are the partitioning key; skewed cells can
    be split by raising N_CELLS).

    Approximation contract: a qualifying pair is missed only if the
    two vectors share none of their N_ASSIGN probe cells. At cosine
    > 0.45 with N_ASSIGN=6 of 16 cells every qualifying pair shares
    >=2 probe cells on this corpus — tests pin exact equality with the brute-force baseline
    at sf0.001 and sf0.01 (the driver-gate inputs), so the driver's
    all-pairs SQL oracle stays green.
    """
    from etl_ray.pipelines.similarity import fit_centroids

    ds = read(sf_dir, "embeddings", ["vec_id", "embedding"])
    C = fit_centroids(ds)
    cref = ray.put(C)

    def _assign(t: pa.Table) -> pa.Table:
        cents = ray.get(cref)
        X = embedding_matrix(t["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        r = min(N_ASSIGN, len(cents))
        # top-r cells per vector (argpartition per row, vectorized)
        sims = Xn @ cents.T
        top = np.argpartition(-sims, r - 1, axis=1)[:, :r]
        idx = pa.array(np.repeat(np.arange(len(t), dtype=np.int64), r))
        return pa.table({
            "cell": pa.array(top.reshape(-1).astype(np.int32)),
            "vec_id": t["vec_id"].take(idx),
            "embedding": t["embedding"].take(idx),
        })

    def _cell_pairs(g: pa.Table) -> pa.Table:
        X = embedding_matrix(g["embedding"])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        sims = Xn @ Xn.T
        ids = g["vec_id"].to_numpy()
        bi, bj = np.nonzero(sims > NEARDUP_THRESHOLD)
        keep = ids[bi] < ids[bj]
        return pa.table({
            "vec_a": pa.array(ids[bi][keep], type=pa.int64()),
            "vec_b": pa.array(ids[bj][keep], type=pa.int64()),
        })

    pairs = shard_apply(
        ds.map_batches(_assign, batch_format="pyarrow"), ["cell"],
        lambda t: pa.concat_tables([_no_pairs("vec_a", "vec_b"),
                                    *each_group(t, ["cell"], _cell_pairs)]))
    # a pair can surface in every shared cell — dedup distributed,
    # exchange key = the pair itself
    return shard_apply(pairs, ["vec_a", "vec_b"], _distinct)
