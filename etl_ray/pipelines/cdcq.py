"""CDC pipelines exposed through the conformance-query registry.

These are the flagship (non-SQL-expressible) pipelines — the driver
records a rows-only check; determinism of the row count is guaranteed by
the seeded WAL generator + the replay-determinism tests.
"""

from __future__ import annotations

import hashlib
import shutil

from etl_ray.pipelines.queries import register


def _workdir(sf_dir: str, tag: str) -> str:
    h = hashlib.sha1(f"{sf_dir}:{tag}".encode()).hexdigest()[:10]
    return f"/tmp/etl_ray_q/{tag}-{h}"


def _wal(sf_dir: str, tag: str) -> str:
    """Fresh work dir holding the fixed smoke-scale WAL (400 keys, 16
    repos, 4 epochs) at ``<base>/wal``; returns ``base``."""
    from etl_ray.sources.corpus import generate_corpus
    from etl_ray.sources.wal import generate_wal

    base = _workdir(sf_dir, tag)
    shutil.rmtree(base, ignore_errors=True)
    corpus = generate_corpus(400, n_repos=16)
    generate_wal(corpus, f"{base}/wal", n_epochs=4, n_repos=16)
    return base


@register("cdc_replay")
def cdc_replay(sf_dir: str):
    """Full WAL replay → converged lake state (SURVEY.md §3.1).

    Sized by sf_dir only through a fixed smoke-scale corpus (the WAL is
    synthesized — TESTDATA's tables don't carry change events).
    """
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import read_lake

    base = _wal(sf_dir, "replay")
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8)
    return read_lake(f"{base}/lake")


@register("cdc_resume")
def cdc_resume(sf_dir: str):
    """Kill-at-epoch-k + resume-from-checkpoint replay; returns the
    reconverged lake (identical to cdc_replay's by the determinism
    invariant)."""
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import read_lake

    base = _wal(sf_dir, "resume")
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8,
           stop_after=2)  # simulated crash
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8)
    return read_lake(f"{base}/lake")


@register("cdc_compact")
def cdc_compact(sf_dir: str):
    """Replay then compact the lake to one resolved base per partition
    (S4); returns the compacted current state — identical row set to
    cdc_replay's by the compaction-preserves-state invariant."""
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import compact, read_lake

    base = _wal(sf_dir, "compact")
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8)
    compact(f"{base}/lake")
    return read_lake(f"{base}/lake")


@register("cdc_lineage")
def cdc_lineage(sf_dir: str):
    """Per-partition lineage records (offset ranges, counts, checksums)
    for a completed replay — BASELINE.json:6 metrics surface."""
    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lineage import lineage_table

    base = _wal(sf_dir, "lineage")
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8)
    return lineage_table(f"{base}/lake")


@register("cdc_changes")
def cdc_changes(sf_dir: str):
    """CDC change feed + time travel, driver-visible (VERDICT r2
    "missing" #3): one row per key net-changed in WAL epochs (2, 4],
    from changes_between (manifest-pruned delta scan, tombstones kept),
    tagged on the driver with ``existed_at_2`` from a
    read_lake(as_of_epoch=2) time-travel scan. Before returning, the composition law
    |as_of_2| + feed-inserts-of-new-keys - feed-deletes-of-old-keys ==
    |current| is asserted — if either surface drifts, this registry row
    errors (or its count moves) in CORRECTNESS_r{N} instead of only in
    pytest."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.pipelines.cdc import replay
    from etl_ray.state.lake import changes_between, read_lake
    from etl_ray.util import gather, key_hash64

    base = _wal(sf_dir, "changes")
    replay(f"{base}/wal", f"{base}/lake", 4, num_partitions=8)

    lake, keys = f"{base}/lake", ["repo", "path"]
    at2 = gather(read_lake(lake, as_of_epoch=2, columns=["size"]))
    feed = gather(changes_between(lake, 2, 4))
    existed = np.isin(key_hash64(feed, keys), key_hash64(at2, keys))
    out = feed.select(["repo", "path", "op", "lsn"]).append_column(
        "existed_at_2", pa.array(existed))

    # composition law: time travel + feed must reproduce the current
    # state's cardinality exactly
    is_del = pc.equal(out["op"], "D").combine_chunks().to_numpy(
        zero_copy_only=False)
    added = int((~is_del & ~existed).sum())
    deleted = int((is_del & existed).sum())
    current = read_lake(lake, columns=["size"]).count()
    if len(at2) + added - deleted != current:
        raise RuntimeError(
            f"change-feed composition violated: |as_of_2|={len(at2)} "
            f"+{added} -{deleted} != |current|={current}")
    return out
