"""In-memory spans around the public calls of each layer (traced runs).

The benchmark never edits the program: it wraps public functions and
methods from the outside, records one span per call, and restores the
originals on :meth:`Tracer.uninstall`.  Spans carry the id of the job
they belong to, so one job's spans nest as

    client -> accept / queue / execute -> driver / bsp_run -> backend_run

plus the journal appends, scheduler calls and protocol frame writes the
gateway makes for it.  Clock: ``time.perf_counter`` of this process, so
a traced run must host the gateway in-process (``serve_in_background``).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

now = time.perf_counter


@dataclass
class Span:
    name: str
    job: str | None
    parent: str | None
    start: float
    end: float

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclass
class Counters:
    """Totals the per-job metrics divide by the number of jobs."""

    scheduler_s: float = 0.0
    frames: int = 0
    frame_bytes: int = 0
    journal_s: float = 0.0
    journal_records: int = 0
    journal_bytes: int = 0

    def minus(self, other: "Counters") -> "Counters":
        return Counters(*(a - b for a, b in zip(asdict(self).values(),
                                                asdict(other).values())))


#: Span name -> the span it nests under (the layer that caused it).
#: ``queue_in``/``queue_out`` are instants: the job enters the scheduler's
#: queue and is leased from it.
PARENT = {
    "accept": "client", "queue_in": "client", "queue_out": "client",
    "execute": "client",
    "journal": "client", "scheduler": "client", "publish": "client",
    "driver": "execute", "bsp_run": "execute", "backend_run": "bsp_run",
}


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    _restore: list[tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- recording ----------------------------------------------------------

    def add(self, name: str, job: str | None, start: float,
            end: float) -> None:
        self.spans.append(Span(name, job, PARENT.get(name), start, end))

    def snapshot(self) -> Counters:
        with self._lock:
            return Counters(**asdict(self.counters))

    def _bump(self, **deltas: float) -> None:
        with self._lock:
            for key, value in deltas.items():
                setattr(self.counters, key,
                        getattr(self.counters, key) + value)

    def _job(self) -> str | None:
        return getattr(self._local, "job", None)

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name: str) -> Callable[[Any], Any]:
        """Wrapper factory: one span per call, under the current job."""
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                t0 = now()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.add(name, self._job(), t0, now())
            return wrapper
        return make

    def install(self) -> None:
        """Wrap the service, apps, core and backends layers' public calls."""
        from repro.backends.processes import BspPool
        from repro.backends.tcp import TcpMesh
        from repro.core import runtime
        from repro.harness import runner
        from repro.service import protocol
        from repro.service.fleet import FleetSlot
        from repro.service.journal import JobJournal
        from repro.service.scheduler import Scheduler

        tracer = self

        def run_job(original):
            @functools.wraps(original)
            def wrapper(slot, record, *args, **kwargs):
                tracer._local.job = record.job_id
                t0 = now()
                try:
                    return original(slot, record, *args, **kwargs)
                finally:
                    tracer.add("execute", record.job_id, t0, now())
                    tracer._local.job = None
            return wrapper

        def scheduler_call(original):
            @functools.wraps(original)
            def wrapper(sched, *args, **kwargs):
                t0 = now()
                result = original(sched, *args, **kwargs)
                t1 = now()
                tracer._bump(scheduler_s=t1 - t0)
                if original.__name__ == "submit":
                    tracer.add("queue_in", args[0].job_id, t1, t1)
                elif original.__name__ == "next_job" and result is not None:
                    tracer.add("queue_out", result.job_id, t1, t1)
                elif original.__name__ == "finish":
                    tracer.add("scheduler", args[0].job_id, t0, t1)
                return result
            return wrapper

        def journal_append(original):
            @functools.wraps(original)
            def wrapper(journal, kind, job_id=None, **fields):
                size0 = _size(journal.path)
                t0 = now()
                try:
                    return original(journal, kind, job_id, **fields)
                finally:
                    t1 = now()
                    tracer.add("journal", job_id, t0, t1)
                    tracer._bump(journal_s=t1 - t0, journal_records=1,
                                 journal_bytes=_size(journal.path) - size0)
            return wrapper

        def encode_frame(original):
            @functools.wraps(original)
            def wrapper(obj):
                frame = original(obj)
                tracer._bump(frames=1, frame_bytes=len(frame))
                return frame
            return wrapper

        def write_frame(original):
            @functools.wraps(original)
            async def wrapper(writer, obj):
                t0 = now()
                try:
                    await original(writer, obj)
                finally:
                    job = obj.get("job")
                    if isinstance(job, dict):
                        tracer.add("publish", job.get("job_id"), t0, now())
            return wrapper

        self._patch(FleetSlot, "run_job", run_job)
        for name in ("submit", "next_job", "finish"):
            self._patch(Scheduler, name, scheduler_call)
        self._patch(JobJournal, "append", journal_append)
        self._patch(protocol, "encode_frame", encode_frame)
        self._patch(protocol, "write_frame", write_frame)
        self._patch(runner, "run_app", self._timed("driver"))
        self._patch(BspPool, "run", self._timed("backend_run"))
        self._patch(TcpMesh, "run", self._timed("backend_run"))
        # Apps bind ``bsp_run`` at import; wrap every module's binding.
        original = runtime.bsp_run
        wrapped = self._timed("bsp_run")(original)
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro") and module is not None
                    and getattr(module, "bsp_run", None) is original):
                self._restore.append((module, "bsp_run", original))
                setattr(module, "bsp_run", wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- per-job views ------------------------------------------------------

    def by_job(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.job is not None:
                grouped[span.job].append(span)
        return grouped

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([asdict(span) for span in self.spans], fh)


def job_view(spans: list[Span]) -> dict[str, Any]:
    """One job's layer times (ms) and the share its named spans cover."""
    first = {}
    total: dict[str, float] = defaultdict(float)
    for span in spans:
        first.setdefault(span.name, span)
        total[span.name] += span.ms
    view: dict[str, Any] = {name: total[name] for name in total}
    if "queue_in" in first and "queue_out" in first:
        view["queue"] = (first["queue_out"].start
                         - first["queue_in"].start) * 1e3
    client = first.get("client")
    if client is None:
        return view
    calls = [(s.start, s.end) for s in spans
             if s.name not in ("client", "queue_in", "queue_out")]
    if "queue" in view:
        calls.append((first["queue_in"].start, first["queue_out"].start))
    # The two hand-offs between wrapped calls: lease -> executor thread
    # picks the job up, and fleet returns -> client holds the terminal
    # frame (event-loop wake-up, socket, client thread).
    waits = []
    execute = first.get("execute")
    if execute is not None:
        waits.append((execute.end, client.end))
        if "queue_out" in first:
            waits.append((first["queue_out"].start, execute.start))
    duration = client.end - client.start
    by_calls = _covered(calls, client.start, client.end)
    view["call_coverage"] = by_calls / duration
    view["handoff"] = (duration - by_calls) * 1e3
    view["coverage"] = _covered(calls + waits, client.start,
                                client.end) / duration
    return view


def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class KernelCounter:
    """Count and time every registered kernel through ``kernels.register``.

    Used around the in-process simulator replay (the paper's own
    W-measurement method); ``bh_walk`` also reports the interaction count
    it returns.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.bh_interactions = 0
        self._restore: list[tuple[str, str, Callable]] = []

    def __enter__(self) -> "KernelCounter":
        from repro import kernels

        mode = kernels.current_mode()
        for name in kernels.names():
            original = kernels.get(name, mode)
            self._restore.append((name, mode, original))
            kernels.register(name, mode, self._wrap(name, original))
        return self

    def _wrap(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            t0 = now()
            result = original(*args, **kwargs)
            self.seconds[name] += now() - t0
            self.calls[name] += 1
            if name == "bh_walk":
                self.bh_interactions += int(result[1].sum())
            return result
        return wrapper

    def __exit__(self, *exc: Any) -> None:
        from repro import kernels

        for name, mode, original in self._restore:
            kernels.register(name, mode, original)
        self._restore.clear()
