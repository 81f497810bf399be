"""Shared vectorized helpers: hashing, partition-id routing, table
utils, and the engine's task runner.

The helpers run inside ``map_batches`` hot paths, so everything here is
either a pyarrow.compute kernel, a numpy/pandas vectorized call, or (for
sha256, which has no vectorized kernel anywhere in the stack) a tight
Python loop over an Arrow column that is explicitly the per-row invariant
hash mandated by BASELINE.json:2 ("100% sha256 row-equality").

Importing this module changes no process-wide state. The heap policy
(:func:`retain_heap`) is applied by the engine's own tasks
(:func:`submit_tasks` and the ingest), in the worker that runs them.
"""

from __future__ import annotations

import binascii
import ctypes
import ctypes.util
import functools
import hashlib
import resource
import time
from collections import Counter
from collections.abc import Sequence

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

import ray

# Version tag for the key-hash function (recorded in lake manifests:
# partition routing is persisted, so a lake written under one hash
# version must never be read/extended under another).
#   v1: pandas siphash over per-row Python string objects (round 1-2)
#   v2: polars row hash over Arrow buffers (no per-row Python string
#       materialization — the v1 path built tens of millions of
#       transient PyObjects per bench replay and dominated DRAM traffic)
#   v3: same hash, no hot-key salting
KEY_HASH_VERSION = 3


def sha256_hex_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """sha256 hex digest per string element (nulls propagate)."""
    return sha256_hex_with_prefix(col)[0]


def as_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """ChunkedArray → contiguous Array WITHOUT the silent full copy that
    ``combine_chunks()`` performs even for a single chunk (measured:
    ~0.5 fresh-page faults/row on 2 KB strings — it invisibly doubled
    the ingest stage's fault volume, the resource this host's guest
    kernel collapses under). Zero-copy for the 0/1-chunk cases every
    map_batches hot path actually sees."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 1:
            return col.chunk(0)
        if col.num_chunks == 0:
            return pa.array([], type=col.type)
        return col.combine_chunks()
    return col


def sha256_hex_with_prefix(
        col: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(hex digests, uint64 first-8-byte prefixes) per string element.

    sha256 has no vectorized kernel in pyarrow/numpy; this is a Python
    loop by necessity, kept as the *only* per-row loop in the engine and
    used solely for the content-hash invariant + content-addressed
    dedup. It hashes memoryview slices of the Arrow UTF-8 data buffer
    directly — no per-row Python string materialization or re-encode —
    and returns the integer prefix alongside so manifest checksums
    never re-parse hex strings.
    """
    n = len(col)
    if n == 0:
        return pa.array([], type=pa.string()), np.zeros(0, dtype=np.uint64)
    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    # Output layout is built VECTORIZED around the per-row digest loop:
    # raw digests land in ONE preallocated bytearray (32 B/row), hex
    # encoding is ONE binascii.hexlify over it, and the Arrow column is
    # assembled zero-copy via StringArray.from_buffers with uniform
    # 64-byte offsets. Input chunks are walked IN PLACE — no
    # combine_chunks (a full data copy even for one chunk). The previous
    # shape (combine + one Python str + hex() per row into a list, then
    # pa.array) allocated ~10× more and measurably dominated the ingest
    # stage's fresh-page fault volume — the per-event fault budget this
    # host's guest kernel collapses under (BASELINE.md round-4
    # parallel-fault axis).
    raw = bytearray(32 * n)
    digest = hashlib.sha256
    valid_all: np.ndarray | None = None
    base = 0
    for arr in chunks:
        m = len(arr)
        if m == 0:
            continue
        validity, offs_buf, data = arr.buffers()
        odt = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        offs = np.frombuffer(offs_buf, dtype=odt, count=m + 1,
                             offset=arr.offset * odt().itemsize)
        if validity is not None and arr.null_count:
            bits = np.unpackbits(
                np.frombuffer(validity, np.uint8), bitorder="little")
            valid = bits[arr.offset:arr.offset + m].astype(bool)
            if valid_all is None:
                valid_all = np.ones(n, dtype=bool)
            valid_all[base:base + m] = valid
            idx = np.flatnonzero(valid)
        else:
            idx = range(m)
        # data can be None for all-empty-string chunks; the offsets then
        # address zero-length slices of an empty view (sha256(b"") is
        # still a real digest)
        mv = memoryview(data) if data is not None else memoryview(b"")
        for i in idx:
            o = (base + i) << 5
            raw[o:o + 32] = digest(mv[offs[i]:offs[i + 1]]).digest()
        base += m
    pre = np.frombuffer(raw, dtype=">u8").reshape(n, 4)[:, 0] \
        .astype(np.uint64)  # big-endian first-8-bytes, null slots 0
    hexdata = binascii.hexlify(raw)  # lowercase, 64 chars per row
    out_offs = np.arange(0, 64 * (n + 1), 64, dtype=np.int32)
    if valid_all is not None:
        vbuf = pa.py_buffer(np.packbits(valid_all, bitorder="little"))
        null_count = int(n - valid_all.sum())
    else:
        vbuf, null_count = None, 0
    out = pa.Array.from_buffers(
        pa.utf8(), n,
        [vbuf, pa.py_buffer(out_offs), pa.py_buffer(hexdata)],
        null_count=null_count)
    return out, pre


def sha_prefix64(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """The uint64 prefix (first 16 hex digits; null → 0) of each hex
    ``content_sha256`` that manifest checksums xor, in one unhexlify."""
    n = len(col)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    hx = as_array(pc.fill_null(pc.utf8_slice_codeunits(col, 0, 16),
                               "0" * 16).cast(pa.string()))
    offs = np.frombuffer(hx.buffers()[1], dtype=np.int32, count=n + 1,
                         offset=hx.offset * 4)
    if offs[-1] - offs[0] != 16 * n:
        raise ValueError("content_sha256 holds a value of fewer than 16 "
                         "hex digits")
    raw = binascii.unhexlify(memoryview(hx.buffers()[2])[offs[0]:offs[-1]])
    return np.frombuffer(raw, dtype=">u8").astype(np.uint64)


def take_runs(t: pa.Table, indices: np.ndarray) -> pa.Table:
    """Row gather WITHOUT the full-table chunk concatenation that
    ``pa.Table.take`` performs on multi-chunk input (measured on the
    ingest: take on an 11-chunk 2 KB/row batch faulted ~3.2× the output
    bytes — the single largest fresh-page fault source in the engine).

    Splits ``indices`` into maximal runs that stay inside one chunk,
    takes each run from its chunk alone, and reassembles zero-copy with
    ``Table.from_batches`` — total allocation is exactly the output
    rows. Falls back to plain ``take`` for single-chunk tables and for
    index orders whose runs average fewer than 16 rows, where a take
    per run costs more than the concat (measured: 155 rows of 2 KB in
    110 runs over 3 chunks, 3.9 ms run by run against 0.06 ms for
    ``take``)."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) == 0:
        return t.schema.empty_table()
    # zero-length batches would alias a cumsum boundary and misroute
    # searchsorted hits into an empty batch
    batches = [b for b in t.to_batches() if len(b)]
    if len(batches) <= 1:
        return t.take(pa.array(idx))
    starts = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in batches], out=starts[1:])
    cid = np.searchsorted(starts, idx, side="right") - 1
    cuts = np.flatnonzero(np.diff(cid)) + 1
    if 16 * (len(cuts) + 1) > len(idx):
        return t.take(pa.array(idx))  # short runs: one concat is cheaper
    pieces = []
    for s, e in zip(np.concatenate(([0], cuts)),
                    np.concatenate((cuts, [len(idx)]))):
        c = int(cid[s])
        pieces.append(batches[c].take(pa.array(idx[s:e] - starts[c])))
    return pa.Table.from_batches(pieces, schema=t.schema)


def hash64_str(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Deterministic vectorized 64-bit hash of one column.

    Runs at Arrow-buffer level (polars' native row hash, fixed seed) —
    no per-row Python object materialization. Stable across processes
    and across resume for a fixed polars version (verified by test);
    any value change must bump KEY_HASH_VERSION because partition
    routing is persisted in lake manifests.
    """
    col = as_array(col)
    return pl.from_arrow(col).hash(seed=0).to_numpy().astype(np.uint64)


def key_hash64(tbl: pa.Table, cols: list[str]) -> np.ndarray:
    """Deterministic 64-bit hash of a multi-column key, buffer-level.

    Hashes the columns TOGETHER (polars ``hash_rows``) — no
    intermediate concatenated string column is ever built, which
    halves the string-allocation traffic of the ingest hot path.
    """
    return (pl.from_arrow(tbl.select(cols)).hash_rows(seed=0)
            .to_numpy().astype(np.uint64))


def rolling_poly(flat: np.ndarray, lengths: np.ndarray, width: int,
                 base: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Polynomial hash of every ``width``-window within each segment of
    a flattened uint64 stream — the shared kernel behind shingling
    (dedup) and winnowing fingerprints (textops), with NO per-segment
    Python loop (VERDICT r2 #7).

    ``flat`` is the concatenation of per-row token hashes; ``lengths``
    the per-row token counts. A segment of n >= width tokens yields its
    n-width+1 sliding windows, each hashed sum(h_j * base^(width-1-j))
    (uint64 wraparound, exactly the arithmetic of the per-doc loops
    this replaces); a shorter segment yields ONE value, the polynomial
    over its full length. Returns (values, counts) with values
    segment-major in window order and counts[i] the window count of
    segment i (always >= 1 for non-empty lengths).

    Vectorization: one global sliding_window_view over the whole
    stream, then a gather of the per-segment window start positions
    built with repeat/cumsum offset arithmetic; sub-width segments are
    grouped by length (< width distinct lengths) and batched.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    n_seg = len(lengths)
    weights = base ** np.arange(width - 1, -1, -1, dtype=np.uint64)
    offs = np.concatenate([[0], np.cumsum(lengths)])
    counts = np.maximum(lengths - width + 1, 1)
    out_offs = np.concatenate([[0], np.cumsum(counts)])
    out = np.zeros(int(out_offs[-1]), dtype=np.uint64)
    if n_seg == 0:
        return out, counts
    big = lengths >= width
    if big.any():
        win = np.lib.stride_tricks.sliding_window_view(flat, width)
        allv = (win * weights).sum(axis=1, dtype=np.uint64)
        cb = counts[big]
        within = (np.arange(int(cb.sum()), dtype=np.int64)
                  - np.repeat(np.concatenate([[0], np.cumsum(cb)])[:-1], cb))
        src = np.repeat(offs[:-1][big], cb) + within
        dst = np.repeat(out_offs[:-1][big], cb) + within
        out[dst] = allv[src]
    small = ~big
    if small.any():
        for ln in np.unique(lengths[small]):  # < width iterations
            m = small & (lengths == ln)
            if ln == 0:
                continue  # empty token list: fingerprint 0
            idx = offs[:-1][m][:, None] + np.arange(ln)
            out[out_offs[:-1][m]] = (
                flat[idx] * weights[-ln:]).sum(axis=1, dtype=np.uint64)
    return out, counts


def segment_unique(values: np.ndarray,
                   counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment sorted-unique of a segment-major uint64 stream,
    fully vectorized (lexsort + adjacent-dedupe) — equivalent to
    np.unique per segment without the per-segment loop."""
    seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = np.lexsort((values, seg))
    sv, ss = values[order], seg[order]
    keep = np.ones(len(sv), dtype=bool)
    if len(sv) > 1:
        keep[1:] = (sv[1:] != sv[:-1]) | (ss[1:] != ss[:-1])
    return sv[keep], np.bincount(
        ss[keep], minlength=len(counts)).astype(np.int64)


def embedding_matrix(col: pa.ChunkedArray | pa.Array,
                     dtype=np.float64) -> np.ndarray:
    """(rows, dim) matrix from a ``list<float>`` column, zero-copy.

    Arrow list arrays store one flat values buffer plus offsets;
    ``flatten()`` exposes the logical values (slice-safe) and
    ``to_numpy`` views the buffer without copying. The only copy is the
    final float32→float64 widen the math needs. The ``to_pylist()``
    path this replaces materialized O(rows × dim) Python floats per
    block (VERDICT r2 "What's wrong" #2).

    Embedding columns are non-null and uniform-length by construction;
    raises on either violation rather than mis-reshaping.
    """
    arr = as_array(col)
    n = len(arr)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if arr.null_count:
        raise ValueError("embedding column has nulls")
    lens = pc.list_value_length(arr).to_numpy()
    dim = int(lens[0])
    if not (lens == dim).all():
        raise ValueError("ragged embedding column")
    vals = arr.flatten().to_numpy(zero_copy_only=True)
    M = vals.reshape(n, dim)
    return M if M.dtype == dtype else M.astype(dtype)


def lww_keep_indices(kh: np.ndarray, lsn: np.ndarray,
                     keys: pa.Table | pa.Array,
                     extra: np.ndarray | None = None
                     ) -> tuple[np.ndarray, bool]:
    """Exact vectorized last-writer-wins keep-set.

    Returns (ascending indices of the max-lsn row per key, mixed_run
    flag). Rows are grouped by the 64-bit key hash ``kh`` (plus the
    optional ``extra`` int grouping, e.g. epoch) and sorted lsn-desc;
    a row is a duplicate only if BOTH its hash-run neighbour's hash AND
    its actual key match — so a hash collision can never drop a
    distinct key. ``keys`` is the key columns as a Table (compared
    per-column on hash-adjacent rows only — no concatenated key string
    is ever built) or a single Array. The pathological interleave (two
    different keys sharing one hash, alternating within the run)
    under-dedups — extra rows are kept, never lost; callers needing
    exactly-one-row-per-key re-run the string-keyed path when
    ``mixed_run`` is True.
    """
    if extra is None:
        order = np.lexsort((-lsn, kh))
    else:
        order = np.lexsort((-lsn, kh, extra))
    kh_s = kh[order]
    eq = kh_s[1:] == kh_s[:-1]
    if extra is not None:
        ex_s = extra[order]
        eq &= ex_s[1:] == ex_s[:-1]
    eq = np.concatenate([[False], eq])
    if not eq.any():
        return np.sort(order), False
    cols = (keys.columns if isinstance(keys, pa.Table) else [keys])
    ord_arr = pa.array(order)
    eq_key: np.ndarray | None = None
    for c in cols:
        cs = as_array(c).take(ord_arr)
        e = pc.fill_null(pc.equal(cs.slice(1), cs.slice(0, len(cs) - 1)),
                         False).to_numpy(zero_copy_only=False)
        eq_key = e if eq_key is None else (eq_key & e)
    eq_key = np.concatenate([[False], eq_key])
    dup = eq & eq_key
    mixed = bool((eq & ~eq_key).any())
    return np.sort(order[~dup]), mixed


@functools.cache
def retain_heap() -> bool:
    """Keep freed batch buffers mapped in this process; idempotent.

    Fresh-page faults are what a wide ingest collapses under on a
    shared host (BASELINE.md, parallel-fault axis), so engine tasks
    reuse their heap instead of re-faulting it between batches. glibc's
    ``mallopt`` turns off heap trimming (``M_TRIM_THRESHOLD``) and
    serves buffers up to 1 GiB from the heap (``M_MMAP_THRESHOLD``), and
    Arrow's pool becomes glibc malloc: jemalloc purges its huge-class
    buffers on free, whatever its decay setting. Measured: a repeated
    131 MB ``take()`` faults 0 pages per iteration, against 131 MB
    under untuned jemalloc or glibc (BASELINE.md round 5). The pool is
    swapped only when both ``mallopt`` calls return 1, so on a non-glibc
    platform the process keeps Arrow's default pool. Called by the
    engine's own tasks (:func:`submit_tasks`, the ingest), never at import.
    Returns whether the policy is in force.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")
                              or "libc.so.6").mallopt
    except (OSError, AttributeError):  # no glibc
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # M_TRIM_THRESHOLD = -1, M_MMAP_THRESHOLD = -3
    if mallopt(-1, 2**31 - 1) != 1 or mallopt(-3, 1 << 30) != 1:
        return False
    pa.set_memory_pool(pa.system_memory_pool())
    return True


# This process's stage ledger: ``<stage>_s`` (wall seconds) and
# ``<stage>_flt`` (minor faults) per stage, plus row and byte counters.
# Ingest stages add to it (:func:`lap`, :func:`count`: module functions,
# so a closure shipped to a worker reaches the worker's ledger, not a
# pickled copy); the ingest and replay take it.
_LEDGER: Counter = Counter()


def mark() -> tuple[float, int]:
    """(wall clock, minor faults of this process and its threads)."""
    return (time.perf_counter(),
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)


def lap(stage: str, since: tuple[float, int]) -> tuple[float, int]:
    """Add the wall time and minor faults since ``since`` (a
    :func:`mark`) to ``stage``; returns the mark of now."""
    now = mark()
    _LEDGER[stage + "_s"] += now[0] - since[0]
    _LEDGER[stage + "_flt"] += now[1] - since[1]
    return now


def count(name: str, n: int) -> None:
    _LEDGER[name] += n


def take_ledger() -> Counter:
    """This process's ledger since the last take; resets it."""
    out = Counter(_LEDGER)
    _LEDGER.clear()
    return out


def session_cpus() -> int:
    """CPUs of the connected Ray session (8 when there is none)."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # noqa: BLE001 — uninitialised session
        return 8


# Fraction of a node's CPU slots RESERVED (never running engine tasks):
# max(1, ⌊cpus/8⌋) slots stay free at every level (32→28, 16→14, 8→7,
# 4→3 concurrent tasks) for the raylet, the kernel page-fault path, and
# — on shared hypervisors — for the host to keep guest spinlock holders
# running. Measured on the bench VM in a contended window: 32 concurrent
# zstd-decode processes spent 39-84 s of SYSTEM time (page-fault lock
# contention; walls 4× the 24-process run) while ≤27-wide ran at
# per-process speed, and the full replay @32 measured 68 s full-width
# vs 27 s with one slot in eight reserved, same window. Standard
# capacity practice (Spark/YARN reserve per-node cores the same way).
# Every engine task (ingest, lake reads, compaction, export, audit) runs
# at this one width, so a read after an ingest runs on the ingest's
# workers instead of starting one more worker inside the read.


def task_cpus() -> float:
    """Per-task CPU request of every engine task (the reservation
    above)."""
    cpus = session_cpus()
    reserve = max(1, cpus // 8)
    if cpus - reserve < 1:  # 1-CPU session: nothing to reserve
        return 1.0
    # tiny epsilon below the exact ratio so floor(cpus/task_cpus) is
    # never one short of the target width through float rounding
    return max(1.0, cpus / (cpus - reserve) - 0.002)


def task_slots() -> int:
    """Engine tasks the session runs at once: ⌊cpus / task_cpus()⌋."""
    return int(session_cpus() // task_cpus())


@ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError],
            scheduling_strategy="DEFAULT")
def _call(fn, *args):
    retain_heap()
    return fn(*args)


def submit_tasks(fn, calls: list[tuple], num_returns: int = 1) -> list:
    """One Ray task per call of ``fn(*args)``, each at :func:`task_cpus`;
    their result refs in call order. With ``num_returns`` > 1, ``fn``
    returns that many values and each call gives a list of as many refs.
    The tasks take the options Ray Data gives its map tasks
    (``ray/data/_internal/remote_fn.py``): system errors retried without
    limit, default scheduling (no inherited placement group). An
    exception ``fn`` raises is not retried; it raises where the ref is
    got. Each task runs under :func:`retain_heap`."""
    task = _call.options(num_cpus=task_cpus(), num_returns=num_returns)
    return [task.remote(fn, *args) for args in calls]


def run_tasks(fn, calls: list[tuple]) -> list:
    """``[fn(*args) for args in calls]``, run by :func:`submit_tasks`.
    Three such tasks take ~6 ms where a Ray Data execution of the same
    three takes ~64 ms (SURVEY.md, write-task sizing)."""
    return ray.get(submit_tasks(fn, calls))


def dataset(refs: list[ray.ObjectRef],
            empty: pa.Schema) -> "ray.data.Dataset":
    """The tables behind ``refs`` (engine task results) as a
    materialized Dataset, no plan: one empty table of schema ``empty``
    when there are none. :func:`blocks` is the other direction."""
    import ray.data

    if not refs:
        return ray.data.from_arrow(empty.empty_table())
    return ray.data.from_arrow_refs(refs)


def blocks(ds: "ray.data.Dataset") -> list[ray.ObjectRef]:
    """The Arrow block refs of ``ds``'s plan from exactly one execution
    (``materialize``, then its ref bundles); a Dataset that is already
    materialized runs nothing. Engine plans map with
    ``batch_format="pyarrow"``, so their blocks come back as Arrow
    tables. ``to_arrow_refs`` would add a ``limit(1)`` execution to
    fetch the schema."""
    return [r for b in ds.materialize().iter_internal_ref_bundles()
            for r in b.block_refs]


def concat(tables: Sequence[pa.Table]) -> pa.Table:
    """``tables`` as one: those with rows concatenated, else the first
    with columns (typed, empty), else ``pa.table({})``. The concat
    promotes: a column one table lacks, or holds as the null type, comes
    out as nulls of the others' type; any other type clash raises."""
    typed = [t for t in tables if t.num_columns]
    rows = [t for t in typed if len(t)] or typed[:1]
    return pa.concat_tables(rows, promote_options="default") if rows \
        else pa.table({})


def gather(ds: "ray.data.Dataset") -> pa.Table:
    """``ds``'s blocks from :func:`blocks` as one table on the driver
    (:func:`concat`)."""
    return concat(ray.get(blocks(ds)))
