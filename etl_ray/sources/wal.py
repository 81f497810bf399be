"""Synthetic WAL (change-event log) generator + reader (FIXTURES.md §2).

Event schema (epoch-partitioned Parquet, ``wal_dir/epoch=K/``):

    lsn:int64  epoch:int32  op:string(I|U|D)  repo path commit lang
    content:string  size:int32|int64  [stars:int64 from epoch >= E/2]

Semantics (BASELINE.json:6): events keyed by ``(repo, path)`` in commit
order. ``lsn`` is the ordering authority — strictly increasing per key,
globally unique; block/file order is never relied on.

Generation is deterministic (seed) and distributed: per corpus key, a
lifecycle ``I → Geometric(p) updates (× Zipf(1.3) hot-repo
multiplier) → D w.p. 0.15`` is synthesized FULLY VECTORIZED inside
``map_batches`` — every random draw is a splitmix64 hash of
``(key_hash, draw_index)``, so the event set is a pure function of the
key and independent of batch partitioning. Each event draws a uniform
priority ``u`` (sorted per key so commit order holds) and the global
interleave is ``lsn = f(u)`` — monotone in u, so epochs are simply
``epoch = floor(u * E)``: equal-ish-sized contiguous lsn ranges with no
global sort or sequential pass. Each task writes its events straight
into ``epoch=K/`` partition files (single streaming pass — no
materialize + per-epoch filter re-scans, no object-store residency).

Schema evolution (BASELINE.json:6,14 "add-column/type-widen"): epochs
``>= E//2`` add ``stars:int64`` and widen ``size:int32 → int64``.
"""

from __future__ import annotations

import hashlib
import os
import random
from collections.abc import Iterable, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.fs as pafs
import pyarrow.parquet as pq

import ray
import ray.data

from etl_ray.sources.corpus import _VOCAB, SEED
from etl_ray.state import schema as schema_mod
from etl_ray.util import count, gather, key_hash64, lap, mark, session_cpus

DELETE_P = 0.15
ZIPF_A = 1.3

_C_UPD = np.uint64(0x9E3779B97F4A7C15)
_C_DEL = np.uint64(0xC2B2AE3D27D4EB4F)
_C_TB = np.uint64(0x165667B19E3779F9)
_C_PRIO = np.uint64(0x27D4EB2F165667C5)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 (wrapping mults)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _unit(x: np.ndarray) -> np.ndarray:
    """uint64 hash → uniform float64 in [0, 1)."""
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


_CONTENT_BLOB: list[str] = []  # one per worker process
_BLOB_TOKENS = 200_000
_MAX_CONTENT = 4096


def _content_blob() -> str:
    if not _CONTENT_BLOB:
        rng = random.Random(f"{SEED}:blob")
        _CONTENT_BLOB.append(" ".join(rng.choices(_VOCAB, k=_BLOB_TOKENS)))
    return _CONTENT_BLOB[0]


_BLOB_BYTES: list[np.ndarray] = []  # ASCII view of the blob, per process


def _blob_bytes() -> np.ndarray:
    if not _BLOB_BYTES:
        _BLOB_BYTES.append(
            np.frombuffer(_content_blob().encode(), dtype=np.uint8))
    return _BLOB_BYTES[0]


def _validity(live: np.ndarray) -> pa.Buffer:
    """Arrow validity bitmap (LSB-first) from a bool mask."""
    return pa.py_buffer(np.packbits(live, bitorder="little").tobytes())


def _string_slices_from_blob(blob: np.ndarray, off: np.ndarray,
                             ln: np.ndarray, live: np.ndarray) -> pa.Array:
    """StringArray of blob[off[i]:off[i]+ln[i]] per live row (null for
    dead rows), assembled into ONE preallocated byte buffer with an
    O(rows) loop of numpy slice-copies (each a memcpy of ~2 KB). The
    blob is ASCII, so byte == char offsets.

    Deliberately NOT an index-array gather: np.repeat/arange over the
    total char count materializes ~24 bytes of fresh int64 index per
    output byte, and this sandbox's first-touch page-fault cost makes
    large fresh allocations ~50× slower than warm memory — measured
    12 s/batch for the gather vs ~30 ms for this loop."""
    total = len(live)
    lens = np.where(live, ln, 0).astype(np.int64)
    nchars = int(lens.sum())
    if nchars >= 2**31:  # int32 StringArray offsets would silently wrap
        raise ValueError(
            f"batch content totals {nchars} bytes, over the 2 GiB "
            "int32-offset StringArray limit — lower the generator batch "
            "size (or switch this assembler to LargeStringArray)")
    offsets = np.zeros(total + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(lens)
    data = np.empty(nchars, np.uint8)
    for s, o, l in zip(off[live].tolist(), offsets[:-1][live].tolist(),
                       ln[live].tolist()):
        data[o:o + l] = blob[s:s + l]
    return pa.StringArray.from_buffers(
        total, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data.tobytes()),
        _validity(live), int((~live).sum()))


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIB_SHIFTS = np.arange(60, -1, -4, dtype=np.uint64)


def _hex_fixed_width(words: list[np.ndarray],
                     live: np.ndarray) -> pa.Array:
    """StringArray of concatenated 16-hex renderings of uint64 lanes
    per live row (null for dead rows) — vectorized nibble indexing, no
    per-row format calls."""
    total = len(live)
    width = 16 * len(words)
    if total * width >= 2**31:  # same int32-offset wrap guard as above
        raise ValueError(
            f"hex batch totals {total * width} bytes, over the 2 GiB "
            "int32-offset StringArray limit — lower the batch size")
    chars = np.empty((total, width), dtype=np.uint8)
    for j, x in enumerate(words):
        nib = ((x[:, None] >> _NIB_SHIFTS) & np.uint64(0xF)).astype(np.intp)
        chars[:, 16 * j:16 * (j + 1)] = _HEX_DIGITS[nib]
    lens = np.where(live, width, 0).astype(np.int64)
    offsets = np.zeros(total + 1, dtype=np.int32)
    offsets[1:] = np.cumsum(lens)
    data = chars[live].reshape(-1)
    return pa.StringArray.from_buffers(
        total, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data.tobytes()),
        _validity(live), int((~live).sum()))


def _synth_events(batch: pa.Table, n_repos: int, n_epochs: int, seed: int,
                  hot_updates: int, update_p: float) -> pa.Table:
    """Vectorized per-key lifecycle synthesis (module docstring)."""
    B = len(batch)
    repos = pd.Series(batch["repo"].to_pandas())
    kh = key_hash64(batch, ["repo", "path"]) ^ np.uint64(seed)

    # geometric(update_p) update count: N = floor(ln(U) / ln(p))
    u_upd = np.maximum(_unit(_mix64(kh ^ _C_UPD)), 1e-300)
    n_upd = np.floor(np.log(u_upd) / np.log(update_p)).astype(np.int64) \
        if update_p > 0 else np.zeros(B, np.int64)
    n_upd = np.minimum(n_upd, 512)  # tail clamp, same support as before
    # Zipf-weighted hot-repo extras (rank = trailing repo digits, else hash)
    idx_s = repos.str.rsplit("repo", n=1).str[-1]
    num = pd.to_numeric(idx_s, errors="coerce")
    fallback = (kh % np.uint64(max(1, n_repos))).astype(np.float64)
    repo_idx = np.where(num.isna(), fallback, num.fillna(0).to_numpy())
    n_upd = n_upd + (hot_updates * (repo_idx + 1.0) ** -ZIPF_A).astype(np.int64)
    deleted = _unit(_mix64(kh ^ _C_DEL)) < DELETE_P

    n_events = 1 + n_upd + deleted.astype(np.int64)
    total = int(n_events.sum())
    offsets = np.concatenate([[0], np.cumsum(n_events)])
    key_row = np.repeat(np.arange(B), n_events)
    within = np.arange(total) - offsets[key_row]

    # per-event uniform priority, sorted within key = commit order
    prio = _unit(_mix64(kh[key_row] ^ _mix64(
        within.astype(np.uint64) + _C_PRIO)))
    order = np.lexsort((prio, key_row))
    prio = prio[order]  # key_row/within unchanged: lexsort keeps key grouping

    tb = _mix64(kh ^ _C_TB) & np.uint64(0x7FF)
    lsn = ((prio * float(1 << 52)).astype(np.uint64) << np.uint64(11)) \
        | tb[key_row]
    epoch = np.minimum(n_epochs - 1, (prio * n_epochs).astype(np.int64))

    is_ins = within == 0
    is_del = deleted[key_row] & (within == n_events[key_row] - 1)
    op = np.where(is_del, "D", np.where(is_ins, "I", "U")).astype(object)
    version = within + 1

    # after-images (nulls for deletes). content = deterministic slice of
    # a shared vocab blob — O(1) per row, no per-row RNG stream
    blob = _content_blob()
    blob_span = len(blob) - _MAX_CONTENT - 1
    ch = _mix64(kh[key_row] ^ _mix64(version.astype(np.uint64)))
    off = (ch % np.uint64(blob_span)).astype(np.int64)
    ln = (64 + (ch >> np.uint64(32)) % np.uint64(_MAX_CONTENT - 64)) \
        .astype(np.int64)
    live = ~is_del
    repo_l = repos.to_numpy()
    path_l = batch["path"].to_numpy(zero_copy_only=False)
    lang_l = batch["lang"].to_numpy(zero_copy_only=False)

    # content column built with ONE gather from the shared blob buffer
    # (offset arithmetic — no per-event Python slicing; the blob is
    # ASCII so byte offsets == char offsets), assembled into an Arrow
    # StringArray via from_buffers with deletes as nulls
    contents = _string_slices_from_blob(_blob_bytes(), off, ln, live)
    # commit ids from the already-vectorized splitmix stream: 32-hex of
    # two independent finalizer lanes per (key, version) — replaces the
    # per-event sha1 (fixture realism only needs uniqueness+determinism)
    c1 = _mix64(ch ^ np.uint64(0xA5A5A5A55A5A5A5A))
    c2 = _mix64(ch ^ np.uint64(0x3C3C3C3CC3C3C3C3))
    commits = _hex_fixed_width([c1, c2], live)
    size = np.where(live, ln, 0)
    stars = size * 7 % 1000

    return pa.table({
        "lsn": pa.array(lsn.astype(np.int64)),
        "epoch": pa.array(epoch.astype(np.int32)),
        "op": pa.array(op, pa.string()),
        "repo": pa.array(repo_l[key_row], pa.string()),
        "path": pa.array(path_l[key_row], pa.string()),
        "commit": commits,
        "lang": pa.array(np.where(live, lang_l[key_row], None), pa.string()),
        "content": contents,
        "size": pa.array(np.where(live, size, None), pa.int64()),
        "stars": pa.array(np.where(live, stars, None), pa.int64()),
    })


def _epoch_table(t: pa.Table, pre_evolution: bool) -> pa.Table:
    if not pre_evolution:
        return t
    # pre-evolution schema: no stars column, size is int32
    return t.drop_columns(["stars"]).set_column(
        t.schema.get_field_index("size"), "size", t["size"].cast(pa.int32()))


def generate_wal(corpus: "ray.data.Dataset", wal_dir: str, n_epochs: int,
                 n_repos: int, seed: int = SEED, hot_updates: int = 8,
                 update_p: float = 0.5) -> dict:
    """Materialize an epoch-partitioned WAL under ``wal_dir``.

    Writes ``wal_dir/epoch=K/part-*.parquet`` per epoch with the
    epoch-appropriate schema (size:int32, no stars before E//2;
    size:int64 + stars:int64 after), in ONE streaming pass: each map
    task synthesizes its keys' events vectorized, splits them by epoch,
    and writes the partition files itself (content-addressed names →
    idempotent under task retry). Returns ``{"n_events", "n_epochs"}``.
    """
    evolve_from = n_epochs // 2

    def _gen_write(batch: pa.Table) -> pa.Table:
        ev = _synth_events(batch, n_repos, n_epochs, seed, hot_updates,
                           update_p)
        ev = ev.sort_by([("epoch", "ascending"), ("lsn", "ascending")])
        eps = ev["epoch"].to_numpy()
        bounds = (np.flatnonzero(np.diff(eps)) + 1).tolist()
        out_e, out_n = [], []
        for s, e in zip([0] + bounds, bounds + [len(ev)]):
            part = ev.slice(s, e - s)
            k = int(eps[s])
            part = _epoch_table(part, k < evolve_from)
            lsns = part["lsn"]
            digest = hashlib.sha1(
                f"{k}:{len(part)}:{lsns[0]}:{lsns[-1]}".encode()
            ).hexdigest()[:12]
            d = os.path.join(wal_dir, f"epoch={k}")
            os.makedirs(d, exist_ok=True)
            path = os.path.join(d, f"part-{digest}.parquet")
            if not os.path.exists(path):
                tmp = f"{path}.tmp.{os.getpid()}"
                # 16,384-row groups. A row group is the replay's scan
                # unit (read_epochs): the planner balances groups of
                # them across ingest slots, and a read task decodes and
                # yields one at a time, so the groups bound both the
                # plan's imbalance and each decode's buffers. A
                # one-row-group-per-file layout was A/B'd in
                # round 5 and REGRESSED (same-window fault audit @32:
                # 1.15-1.19 vs 0.77 faults/event, wall +20%): decoding
                # a whole 65k-row group allocates huge-class buffers
                # per column per file that the allocator never retains,
                # while 16k groups decode into reusable small extents.
                # The multi-chunk tables this yields cost nothing
                # downstream (util.take_runs). zstd level 3: ~20%
                # smaller than the default level AND 2× faster to
                # decode on this content (state/merge.py note)
                pq.write_table(part, tmp, compression="zstd",
                               compression_level=3,
                               row_group_size=16_384)
                os.replace(tmp, path)
            out_e.append(k)
            out_n.append(len(part))
        return pa.table({"epoch": pa.array(out_e, pa.int32()),
                         "n": pa.array(out_n, pa.int64())})

    counts = gather(corpus.map_batches(_gen_write, batch_format="pyarrow"))
    n_events = int(counts["n"].to_numpy().sum()) if counts.num_columns else 0
    # guard: an epoch no task hit still needs a (schema-correct) file
    for k in range(n_epochs):
        d = os.path.join(wal_dir, f"epoch={k}")
        if not os.path.isdir(d) or not os.listdir(d):
            os.makedirs(d, exist_ok=True)
            empty = _epoch_table(
                _synth_events(pa.table({"repo": pa.array([], pa.string()),
                                        "path": pa.array([], pa.string()),
                                        "lang": pa.array([], pa.string())}),
                              n_repos, n_epochs, seed, hot_updates, update_p),
                k < evolve_from)
            pq.write_table(empty, os.path.join(d, "part-empty.parquet"))
    return {"n_events": n_events, "n_epochs": n_epochs}


Piece = tuple[str, int]  # (WAL file path, row-group index)


def plan_scan(wal_dir: str, epochs: list[int],
              slots: int) -> tuple[pa.Schema, list[list[Piece]]]:
    """Plan a window's WAL scan from its Parquet footers, read once on
    the driver: the unified WAL schema, and the window's row groups
    split by :func:`group_pieces` into one group per slot (a read task
    the session runs at once)."""
    sch, pieces, rows = None, [], []
    for k in epochs:
        d = f"{wal_dir}/epoch={k}"
        for name in sorted(os.listdir(d)):
            if name.endswith(".parquet"):
                path = os.path.join(d, name)
                meta = pq.read_metadata(path)
                sch = schema_mod.unify(sch, meta.schema.to_arrow_schema())
                for i in range(meta.num_row_groups):
                    pieces.append((path, i))
                    rows.append(meta.row_group(i).num_rows)
    if not pieces:
        raise FileNotFoundError(f"no WAL row groups for epochs {epochs} "
                                f"under {wal_dir}")
    return sch, group_pieces(pieces, rows, slots)


def group_pieces(pieces: list[Piece], rows: list[int],
                 slots: int) -> list[list[Piece]]:
    """Split (file, row group) pieces into ``min(len(pieces), slots)``
    groups of near-equal row counts: largest piece first, each to the
    least-loaded group (ties by piece, then by group index). A pure
    function of its inputs, so a retried task reads the same rows and
    rewrites byte-identical, content-addressed fragments.
    Greedy-to-least-loaded keeps the largest group within one piece's
    rows of the smallest, and a window with fewer files than slots
    still fills every slot once its files have enough row groups."""
    n = min(len(pieces), max(1, slots))
    groups: list[list[Piece]] = [[] for _ in range(n)]
    load = [0] * n
    for i in sorted(range(len(pieces)), key=lambda i: (-rows[i], pieces[i])):
        g = min(range(n), key=lambda j: (load[j], j))
        groups[g].append(pieces[i])
        load[g] += rows[i]
    return [sorted(g) for g in groups]


def read_pieces(schema: pa.Schema,
                pieces: Iterable[Piece]) -> Iterator[pa.Table]:
    """Decode pieces one row group at a time, in order, under the
    unified schema: pre-evolution files get ``stars`` = null and
    ``size`` widened. Each decode is the ledger's ``decode`` stage
    (``read_blocks``' concat is zero-copy and not timed)."""
    fs, fmt = pafs.LocalFileSystem(), pads.ParquetFileFormat()
    for path, rg in pieces:
        m = mark()
        t = fmt.make_fragment(path, fs,
                              row_groups=[rg]).to_table(schema=schema)
        lap("decode", m)
        count("bytes_in", t.nbytes)
        yield t


def read_blocks(schema: pa.Schema, pieces: Iterable[Piece],
                max_bytes: int) -> Iterator[pa.Table]:
    """:func:`read_pieces` packed into blocks: row groups accumulate
    until they reach ``max_bytes`` (pass Ray's target block size,
    ``DataContext.target_max_block_size``, the bound its output buffer
    applies). A consumer holds about one block, however many pieces it
    reads."""
    buf, size = [], 0
    for t in read_pieces(schema, pieces):
        buf.append(t)
        size += t.nbytes
        if size >= max_bytes:
            yield pa.concat_tables(buf)
            buf, size = [], 0
    if buf:
        yield pa.concat_tables(buf)


def read_epochs(wal_dir: str, epochs: list[int]) -> "ray.data.Dataset":
    """Read a WINDOW of epochs as one Dataset, planned by the engine:
    :func:`plan_scan` reads the footers once and groups the row groups,
    one group per CPU, and each group is one streaming read task that
    yields a row group at a time (:func:`read_pieces`; Ray's output
    buffer packs them into blocks of its target size). Ray lists,
    samples and footer-fetches nothing, and the whole window is one
    streaming execution."""
    schema, groups = plan_scan(wal_dir, epochs, session_cpus())

    def _read_group(batch: pa.Table) -> Iterator[pa.Table]:
        yield from read_pieces(schema, zip(batch["path"][0].as_py(),
                                           batch["row_group"][0].as_py()))

    return ray.data.from_items(
        [{"path": [p for p, _ in g], "row_group": [i for _, i in g]}
         for g in groups], override_num_blocks=len(groups),
    ).map_batches(_read_group, batch_size=1, batch_format="pyarrow")


def reference_replay(wal_dir: str, n_epochs: int) -> dict[tuple[str, str], dict]:
    """Single-process reference LWW interpreter (SURVEY.md §5.3).

    Deliberately trivial — the in-repo stand-in for the unavailable
    reference replay: read every epoch with pyarrow, sort by lsn, apply
    dict upserts. Returns {key: row} of live rows.
    """
    tables = []
    for k in range(n_epochs):
        t = pq.read_table(f"{wal_dir}/epoch={k}")
        if "stars" not in t.column_names:
            t = t.append_column("stars", pa.nulls(len(t), pa.int64()))
        t = t.set_column(t.schema.get_field_index("size"), "size",
                         t["size"].cast(pa.int64()))
        tables.append(t.select(["lsn", "op", "repo", "path", "commit",
                                "lang", "content", "size", "stars"]))
    all_ev = pa.concat_tables(tables)
    order = np.argsort(all_ev["lsn"].to_numpy(), kind="stable")
    rows = all_ev.to_pylist()
    state: dict[tuple[str, str], dict] = {}
    for i in order:
        r = rows[i]
        key = (r["repo"], r["path"])
        if r["op"] == "D":
            state.pop(key, None)
        else:
            state[key] = r
    return state
