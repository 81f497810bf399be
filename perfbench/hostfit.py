"""Ray session sized to the host, run provenance, and process bookkeeping.

The session is derived from this host alone: ``num_cpus`` is the CPU
count this process may use (``host_cpus``) and the object store is a
share of the memory that is available now. Everything the session
writes (logs, spill files, sockets) stays under the checkout.
"""

from __future__ import annotations

import glob
import os
import shutil
import signal
import sys
import tempfile
import time

# share of MemAvailable given to the object store, with hard limits:
# the benchmark's working sets are a few hundred MB, and the host's
# memory is shared with other tenants
OBJECT_STORE_SHARE = 0.05
OBJECT_STORE_MIN = 256 << 20
OBJECT_STORE_MAX = 1 << 30
# read blocks per CPU. Ray Data's default minimum of 200 read blocks is
# sized for a cluster; on a 1-CPU host it turns every merge-on-read
# scan into a 200 x 200 sort shuffle (a 17k-row lake scan measured
# 90 s at 224 blocks against 4 s at 8).
READ_BLOCKS_PER_CPU = 2
# Unix socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_SOCKET_SUFFIX = 64


def host_cpus() -> int:
    """CPUs this process may run on: ``os.cpu_count()`` narrowed by the
    affinity mask. (``nproc`` may print less when ``OMP_NUM_THREADS``
    is set; that limits OpenMP pools, not the CPUs. A 1-CPU session is
    also not an option for the query workload: each hash join's two
    shuffle aggregators reserve 0.5 CPU each and starve the join's own
    read tasks, so the join never finishes.)"""
    return min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))


def mem_available_bytes() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("MemAvailable missing from /proc/meminfo")


def fs_type(path: str) -> str:
    """Filesystem type of the mount that holds ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1].replace("\\040", " ")
            if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) > len(best):
                best, kind = mnt, parts[2]
    return kind


class Session:
    """A local Ray session owned by the benchmark process.

    ``start()`` returns the wall time it took; ``close()`` shuts Ray
    down and waits until every process the session started has exited.
    """

    def __init__(self, root: str, work_dir: str):
        self.root = root
        self.work_dir = work_dir
        self.cpus = host_cpus()
        self.object_store_bytes = int(min(OBJECT_STORE_MAX, max(
            OBJECT_STORE_MIN, OBJECT_STORE_SHARE * mem_available_bytes())))
        self.temp_dir = os.path.join(work_dir, "ray")
        self._own_temp = None
        if len(self.temp_dir) + _SOCKET_SUFFIX > 107:
            # the checkout path is too long for Ray's socket names
            self._own_temp = tempfile.mkdtemp(prefix="pbray")
            self.temp_dir = self._own_temp
            print(f"perfbench: checkout path too long for Ray sockets; "
                  f"session files go to {self.temp_dir} (removed at exit)",
                  file=sys.stderr)

    def start(self) -> float:
        import ray
        from ray.data import DataContext

        # Ray workers import the engine from the checkout
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.root, os.environ.get("PYTHONPATH")) if p)
        os.makedirs(self.temp_dir, exist_ok=True)
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.cpus,
                 object_store_memory=self.object_store_bytes,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        ctx.read_op_min_num_blocks = READ_BLOCKS_PER_CPU * self.cpus
        return time.perf_counter() - t0

    def provenance(self, seed: int) -> dict:
        import duckdb
        import pyarrow
        import ray

        return {
            "os_cpu_count": os.cpu_count(),
            "host_cpus": self.cpus,
            "mem_available_bytes": mem_available_bytes(),
            "object_store_bytes": self.object_store_bytes,
            "read_op_min_num_blocks": READ_BLOCKS_PER_CPU * self.cpus,
            "data_fs": fs_type(self.work_dir),
            "seed": seed,
            "python": sys.version.split()[0],
            "ray": ray.__version__,
            "pyarrow": pyarrow.__version__,
            "duckdb": duckdb.__version__,
        }

    def close(self) -> None:
        import ray

        procs = descendants(os.getpid())
        if ray.is_initialized():
            ray.shutdown()
        wait_gone(procs)
        if self._own_temp:
            shutil.rmtree(self._own_temp, ignore_errors=True)
        else:  # this session's logs; runs would otherwise pile them up
            for d in glob.glob(os.path.join(
                    self.temp_dir, f"session_*_{os.getpid()}")):
                shutil.rmtree(d, ignore_errors=True)


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (from /proc parent links)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    if state == "Z":  # our own zombie child: reap it
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


def wait_gone(pids: list[int], timeout: float = 30.0) -> None:
    """Wait for ``pids`` to exit; SIGKILL whatever outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        live = [p for p in pids if _alive(p)]
        if not live:
            return
        time.sleep(0.1)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 5
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)


def peak_rss_bytes() -> int:
    """Sum of VmHWM (peak resident set) over this process and every
    process below it — the driver, the Ray daemons and the workers."""
    total = 0
    for pid in [os.getpid(), *descendants(os.getpid())]:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total
