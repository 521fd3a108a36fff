"""Machine and provenance record, and peak-RSS measurement.

Every result states the machine it ran on: core count, Python version,
CPU model, load average before and after, the source revision and the
workload's seed and parameters.  The checkout the benchmark runs in may
not be a git repository, so the revision is the git commit when one is
available and always a digest of the ``src`` tree.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import threading
from typing import Dict, Iterable, Optional

__all__ = ["PeakRss", "nproc", "provenance", "source_digest"]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of the ``src`` tree's
    ``.py`` and ``.toml`` files."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".py", ".toml")):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str) -> Dict[str, object]:
    """The machine and source fields of a result record."""
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root),
    }


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _vm_hwm_kb(pid: str = "self") -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


class PeakRss:
    """Peak resident set of this process plus its child processes.

    The parent's high-water mark is reset at :meth:`start` (Linux
    ``clear_refs``), so set-up done before the measured region does not
    count.  Children -- process-mode shard workers and the queue
    manager -- are polled every ``interval`` seconds from a background
    thread while :meth:`start` ... :meth:`stop` is open; each child's
    own high-water mark is kept, and the result is the sum.
    """

    def __init__(self, interval: float = 0.2, children: bool = False) -> None:
        self.interval = interval
        self.children = children
        self._child_peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError:
            pass  # peak then covers the whole process lifetime
        if self.children:
            self._thread = threading.Thread(target=self._poll, daemon=True)
            self._thread.start()

    @staticmethod
    def _child_pids() -> Iterable[int]:
        pids = []
        tasks = f"/proc/{os.getpid()}/task"
        try:
            for tid in os.listdir(tasks):
                with open(f"{tasks}/{tid}/children", encoding="ascii") as handle:
                    pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            pass
        return pids

    def _sample(self) -> None:
        for pid in self._child_pids():
            kb = _vm_hwm_kb(str(pid))
            if kb is not None and kb > self._child_peaks.get(pid, 0):
                self._child_peaks[pid] = kb

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def sample(self) -> None:
        """Take one child sample now (call before children are reaped)."""
        if self.children:
            self._sample()

    def stop(self) -> float:
        """Stop polling; peak RSS in MB (parent + children)."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        parent_kb = _vm_hwm_kb() or 0
        return (parent_kb + sum(self._child_peaks.values())) / 1024.0
