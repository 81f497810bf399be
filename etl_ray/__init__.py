"""etl_ray — a Ray-Data-native CDC / incremental-ingest + data-processing engine.

Built from scratch against the capability set in SURVEY.md (the reference
repo ``jgoldsmith-gpt/etl`` is characterised there; `/root/reference` is
empty in this sandbox — see SURVEY.md §0 — so the binding spec is
BASELINE.json's north rule / north star plus the driver harness).

Architecture:

- Every block is a ``pyarrow.Table`` (``batch_format="pyarrow"``
  end-to-end, zero-copy from the object store). A table is either a
  ``ray.data.Dataset`` or, once small and final (a merged aggregate, a
  top-k, a driver-built pair frame), a ``pyarrow.Table``.
- The Ray Data boundary has two directions, both in ``util.py``:
  ``blocks``/``gather`` bring a plan's blocks back from exactly one
  execution (materialized first, so no ``limit(1)`` schema probe), and
  ``dataset`` wraps engine task results as a materialized Dataset.
- Query reads and stateless transforms run on Ray Data: column-pruned
  ``read_parquet`` and vectorized ``map_batches`` over
  ``pyarrow.compute`` kernels; partial aggregation happens inside
  ``map_batches``; small sides are broadcast via ``ray.put``. Stateful
  per-query transforms (language id, media decoders) are callable
  classes run as Ray Data actor pools. No query runs a Ray Data
  shuffle (``Dataset.groupby``/``aggregate``/``sort``): every group,
  join, distinct and top-k goes through ``pipelines/_qutil.py`` —
  driver-merged partials for bounded group counts, the key-hash
  exchange for open key domains, a per-block head for top-k.
- The engine's own wide steps run as plain Ray tasks
  (``util.submit_tasks``, one per-task CPU width): CDC ingest, audit,
  the queries' key-hash exchange (``_qutil.shard_apply``,
  ``shard_join``) and every per-bucket lake step. The lake's readers
  and rewriters (scan, change feed, views, compaction, export) start
  their tasks through one runner, ``state.lake.bucket_tasks``, which
  owns the key-hash routing fence. Those that return a Dataset build
  it from their tasks' refs (``util.dataset``). ``read_epochs`` and ``LakeSink``
  still build Ray Data plans. None of these task paths starts an actor.
- The engine declares no Ray actor class of its own; the only actors it
  starts are the workers of the Ray Data actor-pool stages above.
- The CDC sink is a two-phase, manifest-committed Parquet lake with
  monotonic epoch fencing (Delta-Lake-style transaction log, see
  PAPERS.md: Delta Lake, VLDB 2020), so replay from any checkpoint
  reconverges to the identical final table.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` — the
driver, ``bench.py`` and the pytest session fixture own the Ray session.
"""

__version__ = "0.2.0"


def __getattr__(name):
    """Lazy top-level API (keeps `import etl_ray` free of ray.data
    import cost until a surface is touched)."""
    from importlib import import_module

    api = {
        "replay": ("etl_ray.pipelines.cdc", "replay"),
        "read_lake": ("etl_ray.state.lake", "read_lake"),
        "compact": ("etl_ray.state.lake", "compact"),
        "vacuum": ("etl_ray.state.lake", "vacuum"),
        "changes_between": ("etl_ray.state.lake", "changes_between"),
        "lookup": ("etl_ray.state.lake", "lookup"),
        "audit_lake": ("etl_ray.state.lake", "audit_lake"),
        "LakeSink": ("etl_ray.state.datasink", "LakeSink"),
        "generate_wal": ("etl_ray.sources.wal", "generate_wal"),
        "generate_corpus": ("etl_ray.sources.corpus", "generate_corpus"),
        "Pipeline": ("etl_ray.pipelines.steps", "Pipeline"),
        "QUERIES": ("etl_ray.pipelines.queries", "QUERIES"),
        "ORACLE": ("etl_ray.pipelines.queries", "ORACLE"),
    }
    if name in api:
        mod, attr = api[name]
        return getattr(import_module(mod), attr)
    raise AttributeError(f"module 'etl_ray' has no attribute {name!r}")
