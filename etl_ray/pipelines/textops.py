"""Text-analysis operators for training-data pipelines: token counting,
quality scoring, language ID, document fingerprinting.

All stages are vectorized `map_batches` transforms over the `documents`
table; the language-ID stage is a callable class (actor pool) because it
holds compiled state (stopword tables) — the pattern a real fasttext-
style model loader would use.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from etl_ray.pipelines._qutil import read
from etl_ray.pipelines.queries import register
from etl_ray.util import as_array, hash64_str, rolling_poly


def _token_lists(t: pa.Table, col: str = "text"):
    toks = pc.split_pattern(t[col], " ")
    return as_array(toks)


@register(
    "text_quality",
    """SELECT doc_id,
              CAST(length(text) AS BIGINT) AS n_chars2,
              CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
              CAST(ROUND(len(list_distinct(string_split(text, ' '))) * 10000.0
                         / len(string_split(text, ' '))) AS BIGINT) AS uniq_e4
       FROM documents""",
)
def text_quality(sf_dir: str):
    """Quality-score components: char/token counts + type-token ratio.

    The distinct-per-row count is computed with one pandas groupby over
    the flattened (row_id, token) pairs — no Python loop per row.
    """
    ds = read(sf_dir, "documents", ["doc_id", "text"])

    def _f(t: pa.Table) -> pa.Table:
        toks = _token_lists(t)
        lengths = pc.list_value_length(toks).to_numpy()
        seg = np.arange(len(t)).repeat(lengths)
        flat = pc.list_flatten(toks).to_pandas()
        nuniq = pd.Series(flat.values).groupby(seg).nunique()
        nuniq = nuniq.reindex(np.arange(len(t)), fill_value=0).to_numpy()
        # floor(x+0.5) = DuckDB ROUND's half-away-from-zero (positive x);
        # np.round would use half-to-even and diverge on exact halves.
        uniq_e4 = np.floor(
            nuniq * 10000.0 / np.maximum(lengths, 1) + 0.5).astype(np.int64)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_chars2": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            "n_tokens": pa.array(lengths.astype(np.int64)),
            "uniq_e4": pa.array(uniq_e4),
        })

    return ds.map_batches(_f, batch_format="pyarrow")


class LangId:
    """Heuristic language ID over token frequencies (actor-pool stage).

    Stand-in for a fasttext-style classifier: state (marker-token tables)
    is built once per actor in __init__; __call__ scores batches
    vectorized. Not SQL-expressible — rows-only oracle.
    """

    MARKERS = {
        "en": {"the", "a", "of", "and", "to", "value", "row", "data"},
        "code": {"def", "return", "fn", "let", "struct", "impl", "func",
                 "var", "void", "int"},
    }

    def __init__(self):
        self.tables = {k: frozenset(v) for k, v in self.MARKERS.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        toks = _token_lists(t)
        lengths = pc.list_value_length(toks).to_numpy()
        seg = np.arange(len(t)).repeat(lengths)
        flat = pd.Series(pc.list_flatten(toks).to_pandas().values)
        scores = {}
        for lang, table in self.tables.items():
            hit = flat.isin(table).to_numpy()
            s = np.zeros(len(t))
            np.add.at(s, seg, hit)
            scores[lang] = s / np.maximum(lengths, 1)
        langs = sorted(scores)
        mat = np.stack([scores[l] for l in langs], axis=1)
        pred = np.array(langs, dtype=object)[mat.argmax(axis=1)]
        return pa.table({
            "doc_id": t["doc_id"],
            "text": t["text"],  # pass-through for downstream signal stages
            "lang_pred": pa.array(pred, pa.string()),
            "score_e4": pa.array(np.round(mat.max(axis=1) * 10000).astype(np.int64)),
        })


FP_W = 4
_FP_B = np.uint64(1000003)


def fingerprint_batch(t: pa.Table, text_col: str = "text") -> np.ndarray:
    """Winnowing-style document fingerprints (rolling polynomial hash).

    Per doc: 64-bit rolling hash over 4-token windows, fingerprint = min
    hash (content-defined, stable under token-preserving reflow).
    Segment-vectorized end to end: one global sliding-window polynomial
    over the flattened token stream (util.rolling_poly — identical
    uint64 arithmetic to the per-doc loop it replaced) + one
    np.minimum.reduceat over per-doc window segments.
    """
    toks = _token_lists(t, text_col)
    lengths = pc.list_value_length(toks).to_numpy()
    flat = hash64_str(pc.list_flatten(toks))
    vals, counts = rolling_poly(flat, lengths, FP_W, _FP_B)
    if len(vals) == 0:
        return np.zeros(len(t), dtype=np.uint64)
    offs = np.concatenate([[0], np.cumsum(counts)])[:-1].astype(np.int64)
    return np.minimum.reduceat(vals, offs)


@register("text_signals")
def text_signals(sf_dir: str):
    """Per-document signal sheet: language ID (T8, actor-pool stage) +
    winnowing fingerprint (T11) + 64-bit SimHash (T3), one streamed
    pipeline over `documents`. All three are deterministic but not
    SQL-expressible — rows-only oracle; value-level behavior is pinned
    by tests (marker preference, fingerprint stability, simhash
    hamming-distance separation). The carried n_tokens column IS
    SQL-checkable and is pinned against DuckDB in the sf0.001 sweep —
    drift anywhere in this pipeline's tokenization now fails a
    value-level check, not just the rows-only count (VERDICT r2 #8)."""
    from etl_ray.pipelines.dedup import simhash_batch

    ds = read(sf_dir, "documents", ["doc_id", "text"])
    tagged = ds.map_batches(LangId, batch_format="pyarrow", batch_size=4096,
                            concurrency=2)

    def _signals(t: pa.Table) -> pa.Table:
        fps = fingerprint_batch(t)
        sim = simhash_batch(t)
        return pa.table({
            "doc_id": t["doc_id"],
            "lang_pred": t["lang_pred"],
            "score_e4": t["score_e4"],
            "n_tokens": pc.cast(pc.list_value_length(_token_lists(t)),
                                pa.int64()),
            "fp": pa.array([f"{v:016x}" for v in fps], pa.string()),
            "simhash": pa.array([f"{v:016x}" for v in sim], pa.string()),
            "band16": pa.array((sim >> np.uint64(48)).astype(np.int64)),
        })

    return tagged.map_batches(_signals, batch_format="pyarrow")
