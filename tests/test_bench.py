"""bench.py at toy scale: the printed record fits the driver's tail and
carries its protocol fields, and the run writes nothing under /sys or
/proc."""

import builtins
import io
import json
import os

import pytest

import bench

SF = "/root/testdata/sf0.001"
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND


def _kernel_path(path) -> bool:
    if isinstance(path, int):
        return False
    p = os.path.abspath(os.fsdecode(path))
    return any(p == r or p.startswith(r + "/") for r in ("/sys", "/proc"))


@pytest.fixture
def no_kernel_writes(monkeypatch):
    """Raise on any write-mode open of a /sys or /proc path, without
    passing the call through."""
    real_open, real_os_open = builtins.open, os.open

    def spy_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+") and _kernel_path(file):
            raise AssertionError(f"write-mode open of {file!r}")
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & _WRITE_FLAGS and _kernel_path(path):
            raise AssertionError(f"write-mode os.open of {path!r}")
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(os, "open", spy_os_open)


@pytest.mark.skipif(not os.path.isdir(SF), reason="sf0.001 test data absent")
def test_bench_headline_fits_driver_tail(tmp_path, monkeypatch,
                                         no_kernel_writes):
    for k, v in {"CDC_KEYS": 2_000, "CDC_REPOS": 20, "CDC_EPOCHS": 2,
                 "CDC_PARTITIONS": 16, "WAL_DIR": str(tmp_path / "wal"),
                 "SF_DIR": SF, "NUM_CPUS": 4,
                 "BENCH_QUERIES": ["agg_group_q1", "token_histogram"]}.items():
        monkeypatch.setattr(bench, k, v)
    # the spy is live and refuses rather than forwards
    with pytest.raises(AssertionError):
        open("/proc/sys/vm/compact_memory", "w")
    with pytest.raises(AssertionError):
        os.open("/sys/kernel/mm/transparent_hugepage/enabled", os.O_WRONLY)

    result = bench.run_queries()

    line = json.dumps(result)
    assert len(line) <= 2000, len(line)
    for key in ("metric", "value", "unit", "queries", "num_cpus", "host_cpus",
                "warmup", "arrow_pool", "cdc_events_per_s", "ledger_us"):
        assert key in result, key
    assert set(result["queries"]) == {"cdc_replay", "agg_group_q1",
                                      "token_histogram"}
    assert len(result["cdc_trial_walls"]) == 2
    assert {"decode", "write", "plan", "commit"} <= set(result["ledger_us"])
    assert result["warmup"] is False
    assert result["host_cpus"] == len(os.sched_getaffinity(0))
    # the run's lake sits beside the WAL
    assert (tmp_path / "lake" / "_manifests").is_dir()
