"""Host probes: environment stamp, process trees, PSS, and leak checks.

Linux only (reads ``/proc`` and lists ``/dev/shm``).
"""

from __future__ import annotations

import glob
import os
import platform
import socket
import time
from pathlib import Path
from typing import Any

#: Prefix of the data plane's shared-memory segments (repro.backends.shm).
SHM_GLOB = "/dev/shm/repro-zc-*"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git``; ``"unknown"`` outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(root: Path, mode: str) -> dict[str, Any]:
    """What must match before two results may be compared."""
    import numpy

    from repro import kernels

    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var, "unset")
                         for var in BLAS_VARS},
        "kernels": kernels.current_mode(),
        "git_sha": git_sha(root),
        "mode": mode,
    }


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (walks ``/proc/*/task/*/children``)."""
    found: list[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        for path in glob.glob(f"/proc/{parent}/task/*/children"):
            try:
                kids = [int(tok) for tok in Path(path).read_text().split()]
            except OSError:
                continue
            found.extend(kids)
            stack.extend(kids)
    return found


def pss_mb(pids: list[int]) -> float:
    """Proportional set size summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/smaps_rollup").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("Pss:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident set size (``VmHWM``) summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot, from ``/proc/stat``.

    Steal is time the hypervisor gave this VM's CPUs to someone else; a
    run with high steal measured the host, not the program.
    """
    fields = [int(tok) for tok in
              Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def shm_segments() -> set[str]:
    return set(glob.glob(SHM_GLOB))


def leaks(worker_pids: list[int], shm_before: set[str],
          journal_dir: str | None, grace: float = 5.0) -> dict[str, Any]:
    """Fleet workers still alive, new shm segments, journal temp files.

    Waits up to ``grace`` seconds for worker processes to be reaped
    before calling them survivors.
    """
    deadline = time.monotonic() + grace
    survivors = [pid for pid in worker_pids if alive(pid)]
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = [pid for pid in survivors if alive(pid)]
    temps: list[str] = []
    if journal_dir is not None and os.path.isdir(journal_dir):
        temps = [name for name in os.listdir(journal_dir)
                 if name.startswith(".tmp-")]
    return {"workers": survivors,
            "shm": sorted(shm_segments() - shm_before),
            "journal_tmp": temps}
