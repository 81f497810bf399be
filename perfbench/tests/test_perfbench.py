"""Tests of the benchmark's own code: the percentile helper, the
seeded WAL generation, and the oracle's power to catch a wrong lake.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import shutil
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, ROOT]

from inputs import WalSpec, make_wal, tree_digest  # noqa: E402
from stats import TooFewSamples, median, percentile  # noqa: E402

SPEC = WalSpec(keys=300, epochs=3, update_p=0.7, hot_updates=4)


def test_tail_percentile_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile([float(i) for i in range(99)], 90)
    assert percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 999, 99)
    percentile([1.0] * 1000, 99)
    assert median([3.0]) == 3.0
    assert median([1.0, 2.0, 10.0]) == 2.0


@pytest.fixture(scope="module")
def session():
    import hostfit

    work = os.path.join(BENCH, "_work", "tests")
    shutil.rmtree(work, ignore_errors=True)
    s = hostfit.Session(ROOT, work)
    s.start()
    yield work
    s.close()
    shutil.rmtree(work, ignore_errors=True)


def test_wal_generation_is_seeded(session):
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        d = os.path.join(session, f"wal{i}")
        make_wal(SPEC, d, seed)
        digests.append(tree_digest(d))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.fixture(scope="module")
def lake(session):
    from etl_ray.pipelines import cdc
    from oracle import Oracle

    wal = os.path.join(session, "wal")
    make_wal(SPEC, wal, 11)
    lake_dir = os.path.join(session, "lake")
    cdc.replay(wal, lake_dir, SPEC.epochs)
    return lake_dir, Oracle(wal).at(SPEC.epochs - 1)


def _scan(lake_dir):
    from workloads import _scan_table

    return _scan_table(lake_dir)


def _rewrite(lake_dir, fn):
    """Apply ``fn`` to every data file of the lake, in place."""
    for d, _, names in os.walk(os.path.join(lake_dir, "data")):
        for n in names:
            p = os.path.join(d, n)
            t = pq.read_table(p)
            pq.write_table(fn(t).cast(t.schema), p)


def _victim(oracle):
    return oracle.con.execute(
        "SELECT repo, path FROM expected ORDER BY repo, path LIMIT 1"
    ).fetchone()


def _is_key(t, repo, path):
    return pc.and_(pc.equal(t["repo"], repo), pc.equal(t["path"], path))


def test_oracle_accepts_the_lake(lake):
    lake_dir, oracle = lake
    assert oracle.compare_state(_scan(lake_dir))["ok"]


def test_oracle_catches_altered_content(lake, tmp_path):
    lake_dir, oracle = lake
    copy = str(tmp_path / "lake")
    shutil.copytree(lake_dir, copy)
    repo, path = _victim(oracle)

    def alter(t):
        hit = _is_key(t, repo, path)
        content = pc.if_else(hit, pc.binary_join_element_wise(
            t["content"], pa.scalar("!"), ""), t["content"])
        return t.set_column(t.schema.get_field_index("content"), "content",
                            content)

    _rewrite(copy, alter)
    res = oracle.compare_state(_scan(copy))
    assert not res["ok"]
    assert res["bad_sha"] == 1 and res["missing"] == 1


def test_oracle_catches_dropped_key(lake, tmp_path):
    lake_dir, oracle = lake
    copy = str(tmp_path / "lake")
    shutil.copytree(lake_dir, copy)
    repo, path = _victim(oracle)
    _rewrite(copy, lambda t: t.filter(pc.invert(_is_key(t, repo, path))))
    res = oracle.compare_state(_scan(copy))
    assert not res["ok"]
    assert res["missing"] == 1 and res["extra"] == 0
