"""TCP socket backend — the paper's PC-LAN platform (Appendix B.3).

One OS process per virtual processor, connected in a full TCP mesh, so
the same Green BSP programs that run on the shared-memory and process
backends run across *separate machines*.  Communication still happens
only at superstep boundaries: each rank buckets its outgoing packets per
destination during the superstep and, at the boundary, ships **one
combined frame per peer** using the exact pickle-5 out-of-band layout of
:mod:`~repro.backends.frames` — so ``seq``/``h`` accounting (and hence
every ledger) is bit-identical to the other backends.

``bspSynch`` is one round over the mesh, as in B.3's PC-LAN library
where the total exchange itself is the barrier: in
:func:`~repro.backends.exchange.peer_order` (B.3's pairing discipline)
every rank sends each awaited peer exactly one ``TAG_PKT`` frame per
superstep — its combined bucket, or an empty final frame when the
bucket is empty — and passes superstep ``s`` once it holds every
awaited peer's final frame for ``s``.  Per-link TCP FIFO bounds
run-ahead to one superstep (a peer cannot finish ``s+1`` before our
step-``s+1`` frame, which we only send after passing ``s``), and a
dropped frame stalls its receiver forever, which supervision reports as
a :class:`~repro.core.errors.DeadlockError`.

``strict`` (the default) and ``relaxed`` run this same protocol over
every link.  Only ``sync="elide"`` differs: with a declared
:class:`~repro.bsplib.CommPattern` it sends along ``sends_to`` links and
awaits ``receives_from`` links only, so non-neighbours exchange nothing.
A checkpoint cut fences the next boundary back onto every link.  All
modes deliver bit-identical results and ledgers.  See
:class:`_MeshChannel`.

All sockets are non-blocking and serviced by one
:mod:`selectors`-based event loop per rank, so serialization, sends, and
receives overlap — the loop *is* Appendix B.3's "receivers actively
empty the pipe" discipline, which is what makes two peers pushing large
boundary frames at each other deadlock-free.

Supervision mirrors the process backend (whose helpers it reuses): every
rank keeps a control connection to its supervisor carrying heartbeats
(piggybacked on inbound data: at most one per 0.25 s while frames
arrive) and the final outcome; the supervisor multiplexes those sockets
with each rank's ``Process.sentinel``, so a SIGKILLed rank surfaces as
:class:`~repro.core.errors.WorkerCrashError` within milliseconds and
flat heartbeats at the deadline become a
:class:`~repro.core.errors.DeadlockError`.  Mesh sockets carry
``SO_KEEPALIVE`` so a vanished *machine* (no FIN, no RST) eventually
dies too.  Peer-death propagates in-band: EOF from a peer that never
sent its departure sentinel aborts the survivor's exchange.

The transport is *survivable* (DESIGN "Failure-mode matrix").  Every
mesh frame carries a sequenced, CRC-protected envelope; each link keeps
a retransmit journal of unacked frames, so a CRC-damaged frame is
NACKed and resent surgically, while structural stream damage, a dropped
connection, or an injected RST resets just that link: the pair's higher
rank re-dials the lower rank's still-bound listener (session epoch =
launch token folded with the mesh generation) and replays the journal
from the peer's receive cursor.  Ledgers and results stay bit-identical
through all of it.  A *dead rank* is healed one level up: the mesh
supervisor aborts the run on the survivors, forks a replacement, and
re-rendezvouses everyone at the next generation (``TAG_REMESH``), so a
checkpointed run resumes on the healed mesh without tearing down the
surviving processes.  ``integrity=False`` switches all of it off for
overhead measurement.

Three execution modes:

* **one-shot** (plain ``TcpBackend()``): ``run()`` forks ``p`` fresh
  ranks on localhost; programs need not be picklable (fork inherits
  them).  The parent pre-binds the rendezvous listener so rank 0 inherits
  it — no port race.
* **persistent** (``TcpBackend.pool(p)`` / :class:`TcpMesh`): ranks and
  mesh stay up across runs; programs are shipped by pickle, so they must
  be module-level callables.  Unlike :class:`~repro.backends.processes.
  BspPool` there is no fence protocol: an aborted boundary can leave a
  half-flushed frame in a socket stream, so a failed run marks the mesh
  dirty and the next run rebuilds it — except a worker *crash*, which
  ``TcpMesh`` heals in place by re-forking only the dead ranks.
* **SPMD** (:class:`TcpSpmdBackend`): one already-launched rank per
  machine (``python -m repro.harness launch-tcp --rank r ...``); every
  invocation runs the same program and all-gathers outcomes at the end.
  After a failed run, ``remesh()`` re-admits the surviving ranks (and a
  relaunched replacement) at the next generation.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Any, Sequence

from .. import faults
from ..core.api import Bsp
from ..core.errors import (
    BspConfigError,
    BspUsageError,
    PacketError,
    RemeshError,
    SynchronizationError,
    WorkerCrashError,
)
from ..core.packets import Packet, PacketRuns
from .base import (
    Backend,
    BackendRun,
    Program,
    check_pattern_sends,
    check_sync,
    describe_workers,
)
from .exchange import peer_order
from .frames import TAG_DEAD, TAG_LEFT, TAG_PKT, Frame
from .processes import (
    _Abort,
    _CRASH_GRACE,
    _CRASH_GRACE_ABNORMAL,
    _join_escalating,
    _raise_run_failure,
    _timeout_failure,
    _worker_statuses,
    PoolHealth,
)
from . import tcp_wire as wire
from .tcp_launch import (
    MeshFabric,
    bind_listener,
    connect_retry,
    relink_accept,
    relink_dial,
    rendezvous_fabric,
)

_TOKEN_COUNTER = itertools.count(1)

#: NACK-driven resends of one sequence number before the channel gives
#: up on surgical repair and resets the whole link (journal replay).
_MAX_RETRANSMITS = 4

#: Selector data sentinels for the two non-peer waitables a channel may
#: multiplex: the fabric's own listener (inbound relink dials) and the
#: control link (supervisor aborts during a run).
_LISTENER = "listener"
_CTRL = "ctrl"


def _next_token() -> int:
    """A launch token no stale mesh on this host will guess."""
    return (os.getpid() << 20) ^ next(_TOKEN_COUNTER)


class _PeerLost(BaseException):
    """A mesh peer's stream ended without a departure sentinel."""

    def __init__(self, peer: int):
        super().__init__(f"peer {peer} connection lost mid-run")
        self.peer = peer


class _LinkState:
    """Durable per-link transport state, outliving any one connection.

    Sequence numbers, the retransmit journal, and the receive cursor are
    properties of the *link* (the rank pair), not of the socket: a
    reconnected socket resumes exactly where the dead one stopped, and
    in pool mode the numbering continues across runs on the same mesh.

    ``journal`` maps ``seq -> encoded chunks`` (a byte snapshot, never
    aliasing program arrays) for every sent frame the peer has not yet
    cumulatively acked.  ``stash`` is the receive-side reorder buffer
    that makes a NACK resend of one frame sufficient.
    """

    __slots__ = ("dec", "tx_seq", "rx_next", "peer_ack", "journal",
                 "attempts", "stash", "retransmits", "reconnects", "dups",
                 "corrupts")

    def __init__(self) -> None:
        self.dec = wire.FrameDecoder()
        self.tx_seq = 0          # next sequence number to assign
        self.rx_next = 0         # next sequence number expected inbound
        self.peer_ack = 0        # highest cumulative ack seen from peer
        self.journal: dict[int, list] = {}
        self.attempts: dict[int, int] = {}
        self.stash: dict[int, Frame] = {}
        self.retransmits = 0
        self.reconnects = 0
        self.dups = 0
        self.corrupts = 0


# ---------------------------------------------------------------------------
# Rank side: the mesh channel (event loop + one-round boundary)
# ---------------------------------------------------------------------------


class _MeshChannel:
    """Superstep-boundary exchange over a socket mesh (one rank's view).

    Every mode runs one round (:meth:`exchange`): exactly one TAG_PKT
    frame per live out-link (an empty bucket becomes an empty final
    frame) with the header's ``more`` bit cleared, and the rank passes
    the barrier as soon as every awaited peer's final for the step is in
    and its own outbound queues are drained.  Per-link TCP FIFO bounds
    run-ahead to one superstep.  **strict** (default) and **relaxed**
    use every link.  **elide**, with a declared
    :class:`~repro.bsplib.CommPattern`, sends finals only along
    ``sends_to`` links and awaits only ``receives_from`` links —
    non-neighbours exchange nothing at all.
    """

    def __init__(self, rank: int, nprocs: int,
                 socks: dict[int, socket.socket], run_id: int,
                 ctrl: "_CtrlLink | None", *,
                 links: dict[int, _LinkState] | None = None,
                 sync: str = "strict",
                 fabric: MeshFabric | None = None,
                 integrity: bool = True,
                 heartbeat_interval: float = 0.25,
                 reconnect_timeout: float = 5.0,
                 watch_ctrl: bool = False):
        self._rank = rank
        self._nprocs = nprocs
        self._socks = dict(socks)
        self._run_id = run_id
        self._ctrl = ctrl
        self._sync = sync
        self._fabric = fabric
        self._integrity = integrity
        self._reconnect_timeout = reconnect_timeout
        self._pattern = None
        #: One-shot: the next boundary uses every link, even in elide
        #: (checkpoint cuts).
        self._fence = False
        #: Heartbeat piggybacking state: inbound data frames since the
        #: last control beat, and when that beat was.
        self._data_beats = 0
        self._last_beat = time.monotonic()
        self._hb_interval = heartbeat_interval
        self._hb_sent = (0, 0)
        self._peers = peer_order(nprocs, rank)
        self._sel = selectors.DefaultSelector()
        self._link = links if links is not None else {
            peer: _LinkState() for peer in self._socks}
        self._out: dict[int, deque] = {p: deque() for p in self._socks}
        self._mask: dict[int, int] = {}
        self._departed: set[int] = set()
        self._eof: set[int] = set()
        #: Peers whose reconnect we are passively awaiting (they dial
        #: us, per the pair rule) -> monotonic deadline.
        self._waiting: dict[int, float] = {}
        self._gathering = False
        #: Per-step stashes; TCP per-link ordering bounds them to one
        #: step of run-ahead, but the dicts handle the general case.
        self._data: dict[int, dict[int, list[Packet]]] = {}
        #: Boundary completion: peers whose final (``more == 0``) frame
        #: for a step has arrived.
        self._final: dict[int, set[int]] = {}
        self._results: dict[int, Any] = {}
        for peer, sock in self._socks.items():
            sock.setblocking(False)
            self._sel.register(sock, selectors.EVENT_READ, peer)
            self._mask[peer] = selectors.EVENT_READ
        self._listening = False
        if fabric is not None and integrity and fabric.listener is not None:
            fabric.listener.setblocking(False)
            self._sel.register(fabric.listener, selectors.EVENT_READ,
                               _LISTENER)
            self._listening = True
        self._ctrl_watched = False
        if watch_ctrl and ctrl is not None:
            # Watch the control socket inside the mesh event loop so a
            # supervisor TAG_ABORT interrupts a rank stalled mid-barrier
            # (its peers are dead; no in-band frame is coming).
            ctrl._sock.setblocking(False)
            ctrl.watched = True
            self._sel.register(ctrl._sock, selectors.EVENT_READ, _CTRL)
            self._ctrl_watched = True
        if ctrl is not None:
            ctrl.beat(-1)  # marks "the run actually started here"

    # -- plumbing ------------------------------------------------------------

    def _enqueue(self, peer: int, chunks: Sequence[Any]) -> None:
        q = self._out.get(peer)
        if q is None:  # peer connection already closed
            return
        for chunk in chunks:
            mv = memoryview(chunk)
            if mv.format != "B" or mv.ndim != 1:
                mv = mv.cast("B")
            if mv.nbytes:
                q.append(mv)
        self._update_mask(peer)

    def _post(self, peer: int, chunks: Sequence[Any], *,
              eager: bool = False, corrupt: bool = False,
              dup: bool = False) -> None:
        """Sequence, journal, and transmit one encoded frame to ``peer``.

        With integrity on, the frame gets the link's next sequence number
        (plus a piggybacked cumulative ack) via :func:`wire.reenvelope`
        and a journal entry retained until the peer acks past it.  The
        entry snapshots the payload bytes: a rank passes the boundary —
        and its program may mutate the arrays the chunks alias — before
        the peer's ack arrives, so the journal must never alias them.
        ``corrupt``/``dup`` are fault-injection knobs: the journal always
        keeps the clean single copy, so recovery repairs the damage.
        """
        link = self._link.get(peer)
        if self._integrity and link is not None:
            seq = link.tx_seq
            link.tx_seq += 1
            out = wire.reenvelope(chunks, seq, link.rx_next)
            link.journal[seq] = [
                c if isinstance(c, bytes) else bytes(c) for c in out]
            if corrupt:
                trailer = bytes(out[-1])
                out = list(out)
                out[-1] = bytes((trailer[0] ^ 0xFF,)) + trailer[1:]
        else:
            out = list(chunks)
        if eager and not dup:
            self._send_now(peer, out)
        else:
            self._enqueue(peer, out)
            if dup:
                self._enqueue(peer, out)

    def _send_now(self, peer: int, chunks: Sequence[Any]) -> None:
        """Send eagerly on the (almost always writable) socket.

        The boundary sends one small frame per link; pushing it
        straight into the kernel skips the queue's two selector
        re-registrations and one write-ready select round per link per
        step.  On backpressure the unsent tail falls back to the queued
        path, so ordering and the drain invariant are untouched.
        """
        q = self._out.get(peer)
        sock = self._socks.get(peer)
        if q is None or sock is None:
            return
        if q:  # earlier bytes still queued: keep the link FIFO
            self._enqueue(peer, chunks)
            return
        try:
            for i, chunk in enumerate(chunks):
                mv = memoryview(chunk)
                if mv.format != "B" or mv.ndim != 1:
                    mv = mv.cast("B")
                off = 0
                while off < mv.nbytes:
                    try:
                        off += sock.send(mv[off:] if off else mv)
                    except (BlockingIOError, InterruptedError):
                        self._enqueue(
                            peer, [mv[off:]] + list(chunks[i + 1:]))
                        return
        except OSError:
            # The frame (if sequenced) is journaled: abandon this send
            # and let reconnect-replay deliver it.
            self._link_down(peer)

    def _update_mask(self, peer: int) -> None:
        sock = self._socks.get(peer)
        if sock is None:
            return
        want = 0 if peer in self._eof else selectors.EVENT_READ
        if self._out.get(peer):
            want |= selectors.EVENT_WRITE
        cur = self._mask.get(peer, 0)
        if want == cur:
            return
        if cur and want:
            self._sel.modify(sock, want, peer)
        elif want:
            self._sel.register(sock, want, peer)
        else:
            self._sel.unregister(sock)
        self._mask[peer] = want

    def _drop_sock(self, peer: int) -> None:
        """Discard ``peer``'s socket and queue, keeping the link state."""
        sock = self._socks.pop(peer, None)
        if sock is not None:
            if self._mask.get(peer):
                try:
                    self._sel.unregister(sock)
                except (KeyError, ValueError):
                    pass
            try:
                sock.close()
            except OSError:
                pass
        self._mask[peer] = 0
        self._out.pop(peer, None)

    def _close_peer(self, peer: int) -> None:
        self._eof.add(peer)
        self._waiting.pop(peer, None)
        self._drop_sock(peer)

    def _can_heal(self, peer: int) -> bool:
        return self._fabric is not None and self._integrity

    def _link_down(self, peer: int) -> None:
        """A peer's connection died: heal it or abort the run.

        With a fabric (and integrity on), the link is re-established
        under the rendezvous pair rule — the higher rank of the pair
        re-dials the lower's still-bound listener; the lower waits for
        the dial (serviced by ``_pump`` via the listener registration),
        with a deadline.  Everything unacked replays from the journal.
        """
        if peer in self._departed or peer in self._eof:
            self._close_peer(peer)
            return
        if not self._can_heal(peer):
            self._close_peer(peer)
            raise _PeerLost(peer)
        self._drop_sock(peer)
        fabric = self._fabric
        link = self._link[peer]
        if fabric.dials(peer):
            # Dial in short slices, draining the watched control socket
            # between them: when the peer is dead (not merely dropped)
            # the supervisor's abort must be able to interrupt this
            # wait, or every surviving dialer stalls out the full
            # reconnect window before the heal can begin.
            deadline = time.monotonic() + self._reconnect_timeout
            while True:
                if self._ctrl_watched:
                    self._read_ctrl()  # raises _Abort on supervisor abort
                now = time.monotonic()
                if now >= deadline:
                    self._close_peer(peer)
                    raise _PeerLost(peer)
                try:
                    sock, peer_rx = relink_dial(
                        fabric, peer, link.rx_next,
                        min(deadline, now + 0.25))
                    break
                except (SynchronizationError, OSError):
                    continue
            self._resume_link(peer, sock, peer_rx)
        else:
            self._waiting[peer] = time.monotonic() + self._reconnect_timeout

    def _resume_link(self, peer: int, sock: socket.socket,
                     peer_rx: int) -> None:
        """Splice a fresh connection into the link, replaying the journal."""
        link = self._link[peer]
        if any(s not in link.journal for s in range(peer_rx, link.tx_seq)):
            # A frame the peer claims it never received is gone from the
            # journal, so it was acked — impossible unless the peer lies
            # about its cursor; the link cannot be made whole.
            try:
                sock.close()
            except OSError:
                pass
            self._close_peer(peer)
            raise _PeerLost(peer)
        sock.setblocking(False)
        self._waiting.pop(peer, None)
        self._eof.discard(peer)
        self._socks[peer] = sock
        if self._fabric is not None:
            self._fabric.socks[peer] = sock
        self._out[peer] = deque()
        link.dec = wire.FrameDecoder()  # mid-frame debris died with the sock
        link.attempts.clear()
        link.reconnects += 1
        self._sel.register(sock, selectors.EVENT_READ, peer)
        self._mask[peer] = selectors.EVENT_READ
        for s in range(peer_rx, link.tx_seq):
            self._enqueue(peer, wire.reenvelope(link.journal[s], s,
                                                link.rx_next))

    def _accept_relinks(self) -> None:
        """Service inbound reconnect dials on the fabric listener."""
        fabric = self._fabric
        while True:
            try:
                sock, _ = fabric.listener.accept()
            except (BlockingIOError, InterruptedError, OSError):
                return
            got = relink_accept(fabric, sock,
                                lambda p: self._link[p].rx_next)
            if got is None:
                continue
            peer, peer_rx = got
            if not (0 <= peer < self._nprocs and peer != self._rank
                    and peer in self._link) or peer in self._departed:
                try:
                    sock.close()
                except OSError:
                    pass
                continue
            if peer in self._socks:  # stale half-open socket superseded
                self._drop_sock(peer)
            self._resume_link(peer, sock, peer_rx)

    def _read_ctrl(self) -> None:
        """Drain the watched control socket; supervisor aborts raise."""
        ctrl = self._ctrl
        try:
            data = ctrl._sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            try:
                self._sel.unregister(ctrl._sock)
            except (KeyError, ValueError):
                pass
            self._ctrl_watched = False
            return
        abort = False
        for frame in ctrl._dec.feed(data):
            if frame.tag == wire.TAG_ABORT:
                if frame.run_id == self._run_id and not self._gathering:
                    abort = True
                continue  # stale abort of an earlier run: drop
            # Not ours (TAG_REMESH, TAG_RUN...): leave it for the rank
            # loop's blocking recv, which drains _ready first.
            ctrl._dec._ready.append(frame)
        if abort:
            raise _Abort()

    def _inject_reset(self, peer: int) -> None:
        """Fault injection: abort the TCP connection (RST, not FIN)."""
        sock = self._socks.get(peer)
        if sock is not None:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            except OSError:
                pass
        self._link_down(peer)

    def _pump(self, timeout: float = 0.05) -> None:
        if self._waiting:
            now = time.monotonic()
            for peer, deadline in list(self._waiting.items()):
                if now > deadline:
                    self._close_peer(peer)
                    raise _PeerLost(peer)
        if not any(self._mask.values()) and not self._listening \
                and not self._ctrl_watched:
            return
        for key, events in self._sel.select(timeout):
            peer = key.data
            if peer == _LISTENER:
                self._accept_relinks()
                continue
            if peer == _CTRL:
                self._read_ctrl()
                continue
            if events & selectors.EVENT_WRITE:
                self._flush(peer)
            if events & selectors.EVENT_READ:
                self._read(peer)

    def _flush(self, peer: int) -> None:
        q = self._out.get(peer)
        sock = self._socks.get(peer)
        if q is None or sock is None:
            return
        try:
            while q:
                sent = sock.send(q[0])
                if sent < len(q[0]):
                    q[0] = q[0][sent:]
                    break
                q.popleft()
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._link_down(peer)
            return
        self._update_mask(peer)

    def _read(self, peer: int) -> None:
        sock = self._socks.get(peer)
        if sock is None:
            return
        try:
            data = sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            self._link_down(peer)
            return
        link = self._link.get(peer)
        if link is None:
            return
        try:
            frames = link.dec.feed(data)
        except PacketError:
            # Structural stream damage: the framing itself cannot be
            # trusted, so surgical NACK repair is impossible — reset the
            # connection and replay the journal.
            link.corrupts += 1
            if self._can_heal(peer) and peer not in self._departed:
                self._link_down(peer)
                return
            raise
        for frame in frames:
            self._ingest(peer, frame)

    def _ingest(self, peer: int, frame: Frame) -> None:
        """Link-level filter: NACK/dup/reorder handling before dispatch."""
        link = self._link.get(peer)
        if frame.tag == wire.TAG_CORRUPT:
            # CRC mismatch, framing intact: ask for exactly that frame.
            if link is not None:
                link.corrupts += 1
            if frame.seq < 0 or not self._integrity:
                self._link_down(peer)  # unsequenced: cannot NACK
                return
            self._enqueue(peer, wire.encode_frame(
                wire.TAG_NACK, self._run_id, frame.seq, self._rank,
                crc=self._integrity))
            return
        if frame.tag == wire.TAG_NACK:
            self._retransmit(peer, frame.step)
            return
        if link is not None and frame.seq >= 0:
            if frame.ack > link.peer_ack:
                for s in range(link.peer_ack, frame.ack):
                    link.journal.pop(s, None)
                    link.attempts.pop(s, None)
                link.peer_ack = frame.ack
            if frame.seq < link.rx_next:
                link.dups += 1  # retransmit overlap or injected duplicate
                return
            if frame.seq > link.rx_next:
                link.stash[frame.seq] = frame  # reorder (post-NACK) gap
                return
            link.rx_next += 1
            self._handle(frame)
            while link.rx_next in link.stash:
                nxt = link.stash.pop(link.rx_next)
                link.rx_next += 1
                self._handle(nxt)
            return
        self._handle(frame)

    def _retransmit(self, peer: int, seq: int) -> None:
        """Resend journal entry ``seq`` in answer to a peer NACK."""
        link = self._link.get(peer)
        if link is None:
            return
        n = link.attempts.get(seq, 0) + 1
        link.attempts[seq] = n
        entry = link.journal.get(seq)
        if entry is None or n > _MAX_RETRANSMITS:
            # Either the damage outlived the retry budget or the entry is
            # gone (already acked): escalate to a full link reset.
            self._link_down(peer)
            return
        link.retransmits += 1
        self._enqueue(peer, wire.reenvelope(entry, seq, link.rx_next))

    def _handle(self, frame: Frame) -> None:
        tag = frame.tag
        if tag == TAG_LEFT:
            if frame.run_id == self._run_id:
                self._departed.add(frame.src)
            return
        if tag == TAG_DEAD:
            if frame.run_id == self._run_id and not self._gathering:
                raise _Abort()
            return
        if frame.run_id != self._run_id:
            return  # debris from an earlier, failed run on this mesh
        if tag == TAG_PKT:
            self._data_beats += 1
            self._data.setdefault(frame.step, {})[frame.src] = \
                frame.packets(self._rank)
            if frame.more == 0:
                self._final.setdefault(frame.step, set()).add(frame.src)
        elif tag == wire.TAG_RESULT:
            self._results[frame.src] = wire.frame_object(frame)

    # -- the ExchangeChannel contract ---------------------------------------

    def declare_pattern(self, pattern) -> None:
        """Declare the static communication pattern of this rank.

        In ``elide`` mode the pattern prunes the boundary to its true
        edges; in every mode a declared pattern (with ``validate=True``)
        turns out-of-pattern sends into a
        :class:`~repro.core.errors.BspUsageError` at the next boundary.
        """
        self._pattern = pattern

    def fence_next_sync(self) -> None:
        """Send and await on *every* link at the next boundary, even in
        elide (checkpoint cuts need a full fence in every mode)."""
        self._fence = True

    def _counters(self) -> tuple[int, int]:
        return (sum(l.retransmits for l in self._link.values()),
                sum(l.reconnects for l in self._link.values()))

    def _beat(self, step: int) -> None:
        """Heartbeat, piggybacked on inbound data traffic.

        Inbound data frames prove the fabric is moving, so a busy rank
        may skip the control-socket beat — but never for longer than the
        configured ``heartbeat_interval`` (default 0.25s), which keeps
        the supervisor's flat-heartbeat deadlock triage valid (its stall
        window is >= 1s, so keep the interval well under that).  A
        deadlocked rank stops reaching boundaries, stops beating either
        way, and still goes flat.

        Beats also carry this rank's cumulative (retransmits, reconnects)
        counters whenever they changed, and a change is never skipped, so
        the supervisor's ``health()`` sees link-level repair live.
        """
        if self._ctrl is None:
            return
        now = time.monotonic()
        busy = self._data_beats > 0
        self._data_beats = 0
        totals = self._counters()
        if totals == self._hb_sent:
            if busy and now - self._last_beat < self._hb_interval:
                return
            meta = None
        else:
            self._hb_sent = totals
            meta = pickle.dumps(totals)
        self._last_beat = now
        self._ctrl.beat(step, meta)

    def exchange(self, pid: int, step: int,
                 outbox: list[Packet]) -> PacketRuns:
        """One-round boundary: the all-to-all data frames are the barrier.

        Exactly one TAG_PKT frame per out-link (an empty bucket becomes
        an empty final frame) with ``more == 0``; the barrier passes as
        soon as every awaited peer's final for this step is in hand and
        our outbound queues are drained (queued chunks reference live
        program arrays, so returning earlier would let the program
        mutate bytes still on their way to a socket).  Run-ahead is
        bounded to one superstep by per-link TCP FIFO: a peer cannot
        pass step ``s`` before our step-``s`` final, which we only send
        after passing step ``s-1``.
        """
        self._beat(step)
        run_id, rank = self._run_id, self._rank
        # Fault-injection hook — one attribute load + None test when off.
        plan = faults._ACTIVE
        if plan is not None:
            plan.at_boundary(rank, step, self._nprocs, outbox)
            if plan.has_network_faults():
                for peer in plan.reset_peers(
                        rank, step,
                        [q for q in self._peers if q in self._socks]):
                    self._inject_reset(peer)
        buckets: dict[int, list[Packet]] = {}
        for pkt in outbox:
            buckets.setdefault(pkt.dst, []).append(pkt)
        pattern = self._pattern
        if pattern is not None:
            check_pattern_sends(rank, step, buckets, pattern)
        if self._sync == "elide" and pattern is not None \
                and not self._fence:
            out_targets = [q for q in self._peers if q in pattern.sends_to]
            expect = pattern.receives_from
        else:
            out_targets = expect = self._peers
        self._fence = False
        empty_final = None  # identical for every empty link: encode once
        for peer in out_targets:
            if peer in self._departed:
                continue
            corrupt = dup = False
            if plan is not None:
                if plan.drops_frame(rank, step, peer):
                    continue  # lost message: the peer stalls on our final
                delay = plan.slow_link(rank, step, peer)
                if delay:
                    time.sleep(delay)
                corrupt = plan.corrupts_frame(rank, step, peer)
                dup = plan.duplicates_frame(rank, step, peer)
            bucket = buckets.get(peer)
            if bucket:
                chunks = wire.encode_packet_frame(run_id, step, rank,
                                                  bucket,
                                                  crc=self._integrity)
            else:
                if empty_final is None:
                    empty_final = wire.encode_packet_frame(
                        run_id, step, rank, (), crc=self._integrity)
                chunks = empty_final
            # reenvelope inside _post re-addresses the shared empty final
            # per peer.
            self._post(peer, chunks, eager=True, corrupt=corrupt, dup=dup)
            if plan is not None:
                plan.count_frame(rank)
        while True:
            final = self._final.get(step, ())
            if all(q in final or q in self._departed for q in expect) \
                    and not any(self._out.values()):
                break
            self._pump()
        self._final.pop(step, None)
        got = self._data.pop(step, {})
        own = buckets.get(rank)
        if own is not None:
            got[rank] = own
        # One run per source, each seq-sorted: canonical order once
        # concatenated by src.  Empty finals decoded to empty runs, which
        # PacketRuns drops, so every ledger matches the simulator.
        return PacketRuns(got.items())

    def depart(self) -> None:
        # Note: a peer being in ``_departed`` does NOT mean it stopped
        # reading — in SPMD mode it still pumps this link through the
        # result all-gather, and must see our LEFT before our EOF.  Only
        # an already-dead link is skipped.
        plan = faults._ACTIVE
        for peer in self._peers:
            if peer in self._eof:
                continue
            if plan is not None and plan.drops_depart(self._rank, peer):
                continue
            self._post(peer, wire.encode_frame(
                TAG_LEFT, self._run_id, 0, self._rank,
                crc=self._integrity))
        # Passing the last boundary does not prove our final frames
        # arrived intact: a peer may still NACK one.  Keep serving the
        # links until every peer has departed too (its LEFT follows its
        # last boundary, so no NACK for ours can come after it).
        self._drain(timeout=30.0, settle=True)

    def die(self) -> None:
        for peer in self._peers:
            if peer in self._eof:
                continue
            self._post(peer, wire.encode_frame(
                TAG_DEAD, self._run_id, 0, self._rank,
                crc=self._integrity))
        self._drain(timeout=5.0)

    def _drain(self, timeout: float, *, settle: bool = False) -> None:
        """Best-effort flush of every outbound queue; with ``settle``,
        also pump until every peer has departed or its link is gone."""
        deadline = time.monotonic() + timeout
        while (any(self._out.values()) or (settle and any(
                q not in self._departed and q not in self._eof
                for q in self._peers))) and time.monotonic() < deadline:
            try:
                self._pump()
            except _Abort:
                break  # the run is over either way
            except _PeerLost:
                # That link's queue died with it (_close_peer popped it);
                # the other peers still need their frames — a departing
                # rank that stops flushing LEFTs here turns one lost link
                # into a cascade of peers seeing EOF with no LEFT.
                continue

    # -- SPMD result all-gather ---------------------------------------------

    def broadcast_result(self, outcome: tuple) -> None:
        chunks = wire.encode_object_frame(
            wire.TAG_RESULT, self._run_id, 0, self._rank, outcome,
            crc=self._integrity)
        for peer in self._peers:
            if peer not in self._eof:
                self._post(peer, chunks)
        self._drain(timeout=30.0)

    def gather_results(self, nprocs: int, timeout: float) -> dict[int, Any]:
        self._gathering = True  # a peer's TAG_DEAD precedes its outcome
        deadline = time.monotonic() + timeout
        want = [q for q in self._peers if q < nprocs]
        while not all(q in self._results for q in want):
            if time.monotonic() > deadline:
                missing = [q for q in want if q not in self._results]
                raise SynchronizationError(
                    f"timed out gathering outcomes from ranks {missing}")
            self._pump(0.1)
        return dict(self._results)

    def shutdown(self, *, close: bool = True) -> None:
        # Final counter flush: repairs made during the last boundary
        # happened after its beat, so report them before the outcome.
        if self._ctrl is not None and self._counters() != self._hb_sent:
            self._beat(-1)
        for peer, mask in list(self._mask.items()):
            if mask and peer in self._socks:
                try:
                    self._sel.unregister(self._socks[peer])
                except (KeyError, ValueError):
                    pass
        self._mask.clear()
        if self._listening and self._fabric is not None \
                and self._fabric.listener is not None:
            try:
                self._sel.unregister(self._fabric.listener)
            except (KeyError, ValueError):
                pass
            self._listening = False
        if self._ctrl_watched and self._ctrl is not None:
            try:
                self._sel.unregister(self._ctrl._sock)
            except (KeyError, ValueError):
                pass
            self._ctrl._sock.setblocking(True)
            self._ctrl.watched = False
            self._ctrl_watched = False
        self._sel.close()
        if close:
            for sock in self._socks.values():
                # Consume anything still unread (a peer's crossing LEFT,
                # typically): closing with pending inbound makes the
                # kernel send RST instead of FIN, and the RST discards
                # our own final frames still buffered at the peer.
                try:
                    sock.setblocking(False)
                    while sock.recv(1 << 16):
                        pass
                except OSError:
                    pass
                try:
                    sock.close()
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# Rank side: control link + rank mains
# ---------------------------------------------------------------------------


class _CtrlLink:
    """A rank's blocking control connection to its supervisor."""

    def __init__(self, sock: socket.socket, rank: int):
        self._sock = sock
        self._rank = rank
        self._dec = wire.FrameDecoder()
        #: True while a mesh channel has this socket registered
        #: non-blocking in its selector (abort watching); sends then
        #: toggle blocking mode around the write.
        self.watched = False

    def _send(self, chunks: Sequence[Any]) -> None:
        if self.watched:
            self._sock.setblocking(True)
            try:
                wire.send_chunks(self._sock, chunks)
            finally:
                self._sock.setblocking(False)
        else:
            wire.send_chunks(self._sock, chunks)

    def hello(self) -> None:
        self._send(wire.encode_object_frame(
            wire.TAG_HELLO, 0, 0, self._rank, self._rank))

    def beat(self, step: int, meta: bytes | None = None) -> None:
        try:
            self._send(wire.encode_frame(
                wire.TAG_HB, 0, step, self._rank, meta))
        except OSError:  # supervisor gone; the run is ending anyway
            pass

    def result(self, outcome: tuple) -> None:
        # The stream guarantees this frame precedes our EOF, so the
        # supervisor's "EOF before result" test is exactly "crashed".
        self._send(wire.encode_object_frame(
            wire.TAG_RESULT, outcome[1], 0, self._rank, outcome))

    def recv(self) -> Frame | None:
        return wire.recv_frame(self._sock, self._dec)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def _run_program(channel: _MeshChannel, rank: int, nprocs: int, run_id: int,
                 program: Program, args: Sequence[Any],
                 kwargs: dict[str, Any]) -> tuple:
    """Run one program instance; returns the rank's outcome tuple."""
    bsp = Bsp(rank, nprocs, channel)
    try:
        result = program(bsp, *args, **kwargs)
        ledger = bsp._finish()
        channel.depart()
        return ("ok", run_id, rank, result, ledger)
    except (_Abort, _PeerLost):
        return ("aborted", run_id, rank, None, None)
    except BaseException:  # noqa: BLE001 - reported to the supervisor
        try:
            channel.die()
        except BaseException:  # pragma: no cover - mesh already gone
            pass
        return ("error", run_id, rank, traceback.format_exc(), None)


def _connect_ctrl(parent_addr: tuple[str, int], rank: int) -> _CtrlLink:
    # Retried with backoff+jitter: a freshly forked rank can dial before
    # the supervisor's accept loop is servicing the listener backlog.
    sock = connect_retry(parent_addr, time.monotonic() + 30.0,
                         what="supervisor control listener")
    ctrl = _CtrlLink(sock, rank)
    ctrl.hello()
    return ctrl


def _oneshot_rank(rank: int, nprocs: int, coord_addr: tuple[str, int],
                  parent_addr: tuple[str, int],
                  coord_listener: socket.socket | None, token: int,
                  program: Program, args: Sequence[Any],
                  kwargs: dict[str, Any], sync: str = "strict",
                  heartbeat_interval: float = 0.25,
                  integrity: bool = True,
                  reconnect_timeout: float = 5.0) -> None:
    """Forked rank main for a one-shot run (program inherited via fork)."""
    if rank != 0 and coord_listener is not None:
        coord_listener.close()  # inherited fd; only rank 0 may own it
    ctrl = _connect_ctrl(parent_addr, rank)
    fabric = rendezvous_fabric(
        rank, nprocs, coord_addr, token=token,
        coordinator_listener=coord_listener if rank == 0 else None)
    # No fabric is handed to the channel: a one-shot run has no
    # supervisor abort path, so waiting out a reconnect window on a
    # *dead* peer would only delay the teardown — frame integrity
    # (CRC + NACK retransmit) stays on, link loss aborts as before.
    channel = _MeshChannel(rank, nprocs, fabric.socks, 0, ctrl, sync=sync,
                           integrity=integrity,
                           heartbeat_interval=heartbeat_interval,
                           reconnect_timeout=reconnect_timeout)
    try:
        outcome = _run_program(channel, rank, nprocs, 0, program, args,
                               kwargs)
    finally:
        channel.shutdown()
    ctrl.result(outcome)
    fabric.close()
    ctrl.close()


def _pool_rank(rank: int, capacity: int, coord_addr: tuple[str, int],
               parent_addr: tuple[str, int],
               coord_listener: socket.socket | None, token: int,
               heartbeat_interval: float = 0.25, integrity: bool = True,
               reconnect_timeout: float = 5.0,
               generation: int = 0) -> None:
    """Persistent rank loop: execute runs shipped over the control link."""
    if rank != 0 and coord_listener is not None:
        coord_listener.close()
    ctrl = _connect_ctrl(parent_addr, rank)
    fabric = rendezvous_fabric(
        rank, capacity, coord_addr, token=token, generation=generation,
        coordinator_listener=coord_listener if rank == 0 else None)
    # Link state (decoder, sequence numbers, journal) persists across
    # runs: numbering is a property of the connection, and leftover
    # frames of a failed run are dropped by run_id.
    links = {peer: _LinkState() for peer in fabric.socks}
    if generation > 0:
        # A replacement rank forked mid-heal: report that the remesh
        # epoch reached us so the supervisor can finish the heal.
        ctrl.result(("remeshed", generation, rank, None, None))
    while True:
        frame = ctrl.recv()
        if frame is None or frame.tag == wire.TAG_CLOSE:
            break
        if frame.tag == wire.TAG_REMESH:
            gen, coord = wire.frame_object(frame)
            keep = None
            try:
                if rank == 0:
                    # Keep our well-known listener: survivors re-dial it.
                    keep, fabric.listener = fabric.listener, None
                fabric.close()
                fabric = rendezvous_fabric(
                    rank, capacity, tuple(coord), token=token,
                    generation=gen, coordinator_listener=keep)
            except BaseException:  # noqa: BLE001 - reported upward
                if keep is not None:
                    try:
                        keep.close()
                    except OSError:
                        pass
                ctrl.result(("error", gen, rank, traceback.format_exc(),
                             None))
                break
            links = {peer: _LinkState() for peer in fabric.socks}
            ctrl.result(("remeshed", gen, rank, None, None))
            continue
        if frame.tag != wire.TAG_RUN:
            continue  # e.g. a stale TAG_ABORT that raced our outcome
        run_id, nprocs, blob, sync = wire.frame_object(frame)
        try:
            program, args, kwargs = pickle.loads(blob)
        except BaseException:  # noqa: BLE001 - reported to the supervisor
            ctrl.result(("error", run_id, rank, traceback.format_exc(),
                         None))
            continue
        sub = {q: fabric.socks[q] for q in range(nprocs)
               if q != rank and q in fabric.socks}
        channel = _MeshChannel(rank, nprocs, sub, run_id, ctrl,
                               links=links, sync=sync,
                               fabric=fabric if integrity else None,
                               integrity=integrity,
                               heartbeat_interval=heartbeat_interval,
                               reconnect_timeout=reconnect_timeout,
                               watch_ctrl=True)
        outcome = _run_program(channel, rank, nprocs, run_id, program, args,
                               kwargs)
        channel.shutdown(close=False)
        ctrl.result(outcome)
    fabric.close()
    ctrl.close()


# ---------------------------------------------------------------------------
# Supervisor side: control-plane links and supervised collection
# ---------------------------------------------------------------------------


class _Link:
    """Supervisor's view of one rank's control connection."""

    __slots__ = ("sock", "dec", "eof", "rank")

    def __init__(self, sock: socket.socket):
        sock.setblocking(False)
        self.sock = sock
        self.dec = wire.FrameDecoder()
        self.eof = False
        self.rank: int | None = None  # known once TAG_HELLO arrives

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _HbTable:
    """Adapter giving ``_timeout_failure`` its ``heartbeat(pid)`` probe."""

    def __init__(self, counts: list[int]):
        self._counts = counts

    def heartbeat(self, pid: int) -> int:
        return self._counts[pid]


def _drain_link(link: _Link, handle) -> None:
    """Read everything currently available on a supervisor-side link."""
    while not link.eof:
        try:
            data = link.sock.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            link.eof = True
            return
        for frame in link.dec.feed(data):
            handle(link, frame)


def _collect_tcp(nprocs: int, run_id: int, procs: Sequence[Any],
                 links: dict[int, _Link], timeout: float, *,
                 listener: socket.socket | None = None,
                 anon: list[_Link] | None = None,
                 stats: dict[int, tuple] | None = None
                 ) -> list[tuple | None]:
    """Supervised gather of one outcome per rank over the control plane.

    Mirrors ``processes._collect_outcomes``: multiplexes every control
    socket, the hello listener (one-shot mode, where ranks are still
    dialing in) and each missing rank's ``Process.sentinel`` through
    :func:`multiprocessing.connection.wait`.  A control-socket EOF plus a
    dead process and no buffered result is a :class:`WorkerCrashError`
    within the crash-grace window; the expired deadline goes through the
    shared :func:`~repro.backends.processes._timeout_failure` triage
    (crash / deadlock / merely slow).
    """
    start = time.monotonic()
    deadline = start + timeout
    outcomes: list[tuple | None] = [None] * nprocs
    got = 0
    hb_counts = [0] * nprocs
    hb_when = [start] * nprocs
    hbtable = _HbTable(hb_counts)
    anon = anon if anon is not None else []

    def handle(link: _Link, frame: Frame) -> None:
        nonlocal got
        if frame.tag == wire.TAG_HELLO:
            link.rank = wire.frame_object(frame)
            links[link.rank] = link
            if link in anon:
                anon.remove(link)
            return
        rank = link.rank
        if rank is None or rank >= nprocs:
            return  # idle mesh rank of a smaller run
        if frame.tag == wire.TAG_HB:
            hb_counts[rank] += 1
            hb_when[rank] = time.monotonic()
            if frame.meta is not None and stats is not None:
                try:
                    stats[rank] = pickle.loads(frame.meta)
                except Exception:
                    pass  # malformed piggyback: the beat still counts
        elif frame.tag == wire.TAG_RESULT:
            outcome = wire.frame_object(frame)
            tag, rid = outcome[0], outcome[1]
            if rid != run_id or tag == "remeshed":
                return  # stray reply from an earlier run / late heal ack
            if outcomes[rank] is None:
                got += 1
            outcomes[rank] = (tag, outcome[3], outcome[4])

    while got < nprocs:
        now = time.monotonic()
        remaining = deadline - now
        if remaining <= 0:
            raise _timeout_failure(nprocs, outcomes, procs, hbtable,
                                   hb_when, timeout)
        missing = [pid for pid in range(nprocs) if outcomes[pid] is None]
        waitables: list[Any] = []
        if listener is not None:
            waitables.append(listener)
        for link in list(links.values()) + list(anon):
            if link.eof:
                continue
            if link.rank is not None and (link.rank >= nprocs
                                          or outcomes[link.rank] is not None):
                continue
            waitables.append(link.sock)
        waitables += [procs[pid].sentinel for pid in missing]
        mp_connection.wait(waitables, timeout=min(remaining, 0.25))
        if listener is not None:
            while True:
                try:
                    sock, _ = listener.accept()
                except (BlockingIOError, socket.timeout, OSError):
                    break
                anon.append(_Link(sock))
        for link in list(anon) + list(links.values()):
            _drain_link(link, handle)
        crashed = [pid for pid in missing
                   if outcomes[pid] is None and not procs[pid].is_alive()]
        if not crashed:
            continue
        for pid in crashed:
            procs[pid].join(timeout=1.0)  # reap, so exitcode is final
        # The victim's result may still be in its socket buffer (an exit
        # right after reporting): TCP keeps buffered bytes readable after
        # death, so one short grace drain before declaring a crash.
        window = _CRASH_GRACE if any(procs[pid].exitcode == 0
                                     for pid in crashed) \
            else _CRASH_GRACE_ABNORMAL
        grace = time.monotonic() + window
        while any(outcomes[pid] is None for pid in crashed):
            for pid in crashed:
                link = links.get(pid)
                if link is not None:
                    _drain_link(link, handle)
            if time.monotonic() >= grace:
                break
            time.sleep(0.005)
        lost = [pid for pid in crashed if outcomes[pid] is None]
        if lost:
            proc = procs[lost[0]]
            proc.join(timeout=1.0)
            detail = describe_workers(_worker_statuses(
                nprocs, outcomes, procs, hbtable, hb_when, time.monotonic()))
            raise WorkerCrashError(lost[0], proc.exitcode, os_pid=proc.pid,
                                   detail=detail)
    return outcomes


# ---------------------------------------------------------------------------
# The backends
# ---------------------------------------------------------------------------


class TcpMesh:
    """A persistent local TCP mesh: ``p`` rank processes alive across runs.

    The socket analogue of :class:`~repro.backends.processes.BspPool`:
    rendezvous + full-mesh connect cost tens of milliseconds, so a
    harness sweep keeps the ranks and ships ``(program, args)`` per run
    by pickle (module-level callables only).  Runs may use any
    ``nprocs <= capacity``; idle ranks sit out.

    Failure policy differs from ``BspPool``: a byte stream cannot be
    fenced — an aborted boundary may leave a half-flushed frame that
    desynchronizes the receiver's decoder forever — so a failed run
    (error, deadlock) marks the mesh dirty and the next ``run()``
    rebuilds ranks and sockets from scratch.  A worker *crash* is
    instead healed in place when ``heal_in_place`` is on: only the dead
    ranks are re-forked and every rank re-rendezvouses at the next mesh
    generation, which is what lets a checkpointed ``bsp_run(...,
    retries=...)`` resume on the same mesh within milliseconds instead
    of rebuilding the world.
    """

    def __init__(self, nprocs: int, *, host: str = "127.0.0.1",
                 join_timeout: float = 120.0, heal_in_place: bool = True,
                 max_heals: int = 8, heartbeat_interval: float = 0.25,
                 integrity: bool = True, reconnect_timeout: float = 5.0):
        Backend.check_nprocs(nprocs)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise BspConfigError(
                "the tcp backend requires a fork-capable platform") from exc
        self._capacity = nprocs
        self._host = host
        self._join_timeout = join_timeout
        self._heal_in_place = heal_in_place
        self._max_heals = max_heals
        self._heartbeat_interval = heartbeat_interval
        self._integrity = integrity
        self._reconnect_timeout = reconnect_timeout
        self._run_id = 0
        self._closed = False
        self._dirty = False
        # Supervision counters surfaced by health(), mirroring BspPool.
        # A WorkerCrashError first tries an in-place heal ("re-fork"):
        # only the dead ranks are re-forked and the mesh re-rendezvouses
        # at a new generation; any other failed run (or a failed heal)
        # still re-forks the whole rank set at the next run ("rebuild").
        self._generation = 0
        self._restarts = 0
        self._heals = 0
        self._heal_kinds: list[str] = []
        self._last_fault: str | None = None
        #: Per-rank (retransmits, reconnects) piggybacked on heartbeats,
        #: plus the folded totals of ranks that no longer exist.
        self._stats: dict[int, tuple] = {}
        self._stats_base = (0, 0)
        # One run at a time per mesh (BspPool.run parity): the barrier
        # and stream-dirtying discipline assume a single in-flight run.
        self._run_lock = threading.Lock()
        self._token = 0
        self._coord_addr: tuple[str, int] | None = None
        self._parent_addr: tuple[str, int] | None = None
        self._parent_listener: socket.socket | None = None
        self._links: dict[int, _Link] = {}
        self._procs: list[Any] = []
        self._build()

    # -- lifecycle ----------------------------------------------------------

    def _build(self) -> None:
        self._token = _next_token()
        coord_listener = bind_listener(self._host)
        # The parent listener stays bound for the life of the mesh:
        # replacement ranks forked by a heal dial it to register.
        self._parent_listener = bind_listener(self._host)
        self._coord_addr = coord_listener.getsockname()
        self._parent_addr = self._parent_listener.getsockname()
        self._procs = [
            self._ctx.Process(
                target=_pool_rank,
                args=(rank, self._capacity, self._coord_addr,
                      self._parent_addr, coord_listener, self._token,
                      self._heartbeat_interval, self._integrity,
                      self._reconnect_timeout, 0),
                name=f"bsp-tcp-pool-{rank}",
                daemon=True,
            )
            for rank in range(self._capacity)
        ]
        for proc in self._procs:
            proc.start()
        coord_listener.close()  # rank 0 inherited it; parent's copy is done
        self._links = {}
        deadline = time.monotonic() + 30.0
        self._parent_listener.settimeout(0.2)
        try:
            while len(self._links) < self._capacity:
                if time.monotonic() > deadline:
                    raise SynchronizationError(
                        "tcp mesh build timed out waiting for rank "
                        "control connections")
                dead = [r for r, p in enumerate(self._procs)
                        if not p.is_alive()]
                if dead:
                    proc = self._procs[dead[0]]
                    proc.join(timeout=1.0)
                    now = time.monotonic()
                    detail = describe_workers(_worker_statuses(
                        self._capacity, [None] * self._capacity,
                        self._procs, None, [now] * self._capacity, now))
                    raise WorkerCrashError(dead[0], proc.exitcode,
                                           os_pid=proc.pid, detail=detail)
                try:
                    sock, _ = self._parent_listener.accept()
                except socket.timeout:
                    continue
                link = _Link(sock)
                hello_deadline = time.monotonic() + 5.0
                while link.rank is None and not link.eof \
                        and time.monotonic() < hello_deadline:
                    _drain_link(link, self._note_hello)
                    if link.rank is None:
                        time.sleep(0.002)
                if link.rank is None or not 0 <= link.rank < self._capacity:
                    link.close()
                    continue
                self._links[link.rank] = link
        except BaseException:
            self._parent_listener.close()
            self._parent_listener = None
            raise
        self._dirty = False

    @staticmethod
    def _note_hello(link: _Link, frame: Frame) -> None:
        if frame.tag == wire.TAG_HELLO:
            link.rank = wire.frame_object(frame)

    def _teardown(self, *, graceful: bool) -> None:
        if graceful:
            for link in self._links.values():
                try:
                    wire.send_chunks(link.sock, wire.encode_frame(
                        wire.TAG_CLOSE, 0, 0, -1))
                except OSError:
                    pass
        _join_escalating(self._procs, grace=5.0 if graceful else 0.5)
        for link in self._links.values():
            link.close()
        self._links = {}
        if self._parent_listener is not None:
            try:
                self._parent_listener.close()
            except OSError:
                pass
            self._parent_listener = None

    def _fold_stats(self, ranks: Sequence[int] | None = None) -> None:
        """Fold (a subset of) per-rank link counters into the base.

        Called before a rank process is replaced or the mesh is rebuilt,
        so ``health()`` totals survive the process that produced them.
        """
        base_rt, base_rc = self._stats_base
        for rank in list(self._stats) if ranks is None else ranks:
            rt, rc = self._stats.pop(rank, (0, 0))
            base_rt += rt
            base_rc += rc
        self._stats_base = (base_rt, base_rc)

    def close(self) -> None:
        """Shut the ranks down; the mesh is unusable afterwards."""
        if not self._closed:
            self._closed = True
            self._teardown(graceful=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "TcpMesh":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def capacity(self) -> int:
        """Maximum ``nprocs`` a run on this mesh may use."""
        return self._capacity

    def health(self) -> PoolHealth:
        """Supervision snapshot (``BspPool.health`` parity).

        ``restarts_left`` is ``-1``: a mesh has no restart budget — a
        crash is healed in place when possible, and every other failed
        run is followed by a full rebuild at the next ``run()``.
        ``retransmits``/``reconnects`` aggregate the link-repair
        counters every rank piggybacks on its heartbeats.
        """
        alive = 0 if self._closed else \
            sum(1 for proc in self._procs if proc.is_alive())
        base_rt, base_rc = self._stats_base
        return PoolHealth(
            generation=self._generation,
            restarts=self._restarts,
            restarts_left=-1,
            last_fault=self._last_fault,
            alive=alive,
            capacity=self._capacity,
            heal_kinds=tuple(self._heal_kinds),
            retransmits=base_rt + sum(v[0] for v in self._stats.values()),
            reconnects=base_rc + sum(v[1] for v in self._stats.values()),
        )

    # -- running ------------------------------------------------------------

    def run(self, program: Program, nprocs: int | None = None,
            args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        if self._closed:
            raise BspConfigError("TcpMesh is closed")
        nprocs = self._capacity if nprocs is None else nprocs
        Backend.check_nprocs(nprocs)
        check_sync(sync)
        if nprocs > self._capacity:
            raise BspConfigError(
                f"run of {nprocs} processors on a mesh of {self._capacity}")
        try:
            blob = pickle.dumps((program, args, kwargs or {}))
        except Exception as exc:
            raise BspUsageError(
                "a persistent tcp mesh ships the program by pickle; use a "
                "module-level function (not a lambda/closure) or a fresh "
                "TcpBackend(), whose fork inherits the program") from exc
        if not self._run_lock.acquire(blocking=False):
            raise BspUsageError(
                "TcpMesh.run() called while another run is in flight on "
                "this mesh; a mesh executes one job at a time — lease one "
                "mesh per concurrent job (repro.service keeps a warm "
                "fleet for exactly this) or create another TcpMesh")
        try:
            return self._run_locked(nprocs, blob, sync)
        finally:
            self._run_lock.release()

    def _run_locked(self, nprocs: int, blob: bytes, sync: str) -> BackendRun:
        if self._dirty:
            self._fold_stats()
            self._teardown(graceful=False)
            self._build()
            self._generation += 1
            self._restarts += self._capacity
            self._heal_kinds.append("rebuild")
        self._run_id += 1
        run_id = self._run_id
        t0 = time.perf_counter()
        payload = (run_id, nprocs, blob, sync)
        for rank in range(nprocs):
            self._send_ctrl(self._links[rank], wire.encode_object_frame(
                wire.TAG_RUN, run_id, 0, -1, payload))
        try:
            outcomes = _collect_tcp(nprocs, run_id, self._procs[:nprocs],
                                    self._links, self._join_timeout,
                                    stats=self._stats)
        except WorkerCrashError as exc:
            self._last_fault = f"{type(exc).__name__}: {exc}"
            healed = False
            if self._heal_in_place and self._heals < self._max_heals:
                try:
                    healed = self._heal(run_id)
                except Exception:  # pragma: no cover - heal is best-effort
                    healed = False
            if not healed:
                self._dirty = True
            raise
        except SynchronizationError as exc:
            self._dirty = True
            self._last_fault = f"{type(exc).__name__}: {exc}"
            raise
        except KeyboardInterrupt:
            # An interactive abort must not strand rank processes behind
            # wedged sockets: escalate terminate→kill and close the mesh.
            # Checkpoint shards already published by the interrupted run
            # stay on disk, so a checkpointing run remains resumable.
            self._closed = True
            self._last_fault = "KeyboardInterrupt"
            self._teardown(graceful=False)
            raise
        wall = time.perf_counter() - t0
        if any(o is None or o[0] != "ok" for o in outcomes):
            self._dirty = True  # streams may hold half-flushed frames
            _raise_run_failure(outcomes)
        results = [o[1] for o in outcomes]  # type: ignore[index]
        ledgers = [o[2] for o in outcomes]  # type: ignore[index]
        return BackendRun(results=results, ledgers=ledgers, wall_seconds=wall)

    # -- in-run rank replacement --------------------------------------------

    def _heal(self, run_id: int) -> bool:
        """Replace dead ranks in place; survivors re-rendezvous.

        The sequence: abort the wedged run on every survivor (their
        channels watch the control socket, so a rank stalled mid-barrier
        on a dead peer wakes promptly), fork replacements for the dead
        ranks at the next mesh generation, ship ``TAG_REMESH`` with the
        new epoch to the survivors, and wait for every rank — survivor
        and replacement — to ack the new generation.  Returns ``True``
        when the mesh is whole again; any failure leaves the mesh dirty
        for the usual full rebuild.
        """
        dead = [r for r, p in enumerate(self._procs) if not p.is_alive()]
        if not dead or len(dead) >= self._capacity:
            return False
        gen = self._generation + 1
        self._fold_stats(dead)
        abort = wire.encode_frame(wire.TAG_ABORT, run_id, 0, -1)
        for rank in list(self._links):
            if rank in dead:
                self._links.pop(rank).close()
                continue
            try:
                self._send_ctrl(self._links[rank], abort)
            except OSError:
                return False
        for rank in dead:
            self._procs[rank].join(timeout=1.0)  # reap the corpse
        # If rank 0 died, its well-known coordinator listener died with
        # it: bind a fresh one for the replacement to inherit.
        coord_listener = None
        if 0 in dead:
            coord_listener = bind_listener(self._host)
            self._coord_addr = coord_listener.getsockname()
        try:
            for rank in dead:
                proc = self._ctx.Process(
                    target=_pool_rank,
                    args=(rank, self._capacity, self._coord_addr,
                          self._parent_addr, coord_listener, self._token,
                          self._heartbeat_interval, self._integrity,
                          self._reconnect_timeout, gen),
                    name=f"bsp-tcp-pool-{rank}",
                    daemon=True,
                )
                proc.start()
                self._procs[rank] = proc
        finally:
            if coord_listener is not None:
                coord_listener.close()  # the replacement inherited it
        remesh = wire.encode_object_frame(
            wire.TAG_REMESH, gen, 0, -1, (gen, tuple(self._coord_addr)))
        for rank, link in self._links.items():
            try:
                self._send_ctrl(link, remesh)
            except OSError:
                return False
        if not self._await_remesh(gen):
            return False
        self._generation = gen
        self._restarts += len(dead)
        self._heals += 1
        self._heal_kinds.append("re-fork")
        self._dirty = False
        return True

    def _await_remesh(self, gen: int) -> bool:
        """Collect one ``remeshed`` ack per rank for generation ``gen``,
        registering the replacement ranks' fresh control connections."""
        acked: set[int] = set()
        failed = False
        anon: list[_Link] = []
        listener = self._parent_listener
        if listener is None:  # pragma: no cover - build failed earlier
            return False
        listener.settimeout(0.0)
        deadline = time.monotonic() + 30.0

        def handle(link: _Link, frame: Frame) -> None:
            nonlocal failed
            if frame.tag == wire.TAG_HELLO:
                link.rank = wire.frame_object(frame)
                self._links[link.rank] = link
                if link in anon:
                    anon.remove(link)
            elif frame.tag == wire.TAG_RESULT:
                outcome = wire.frame_object(frame)
                if outcome[0] == "remeshed" and outcome[1] == gen \
                        and link.rank is not None:
                    acked.add(link.rank)
                elif outcome[0] == "error" and outcome[1] == gen:
                    failed = True

        # One selector over the listener and every control link: acks
        # arrive the moment they are readable, with no fixed accept
        # timeout padding each loop round (MTTR is the product here).
        sel = selectors.DefaultSelector()
        try:
            sel.register(listener, selectors.EVENT_READ)
            registered = set()
            while len(acked) < self._capacity:
                if failed or time.monotonic() > deadline:
                    return False
                if any(not p.is_alive() for p in self._procs):
                    return False
                for link in list(anon) + list(self._links.values()):
                    if id(link) not in registered and not link.eof:
                        try:
                            sel.register(link.sock, selectors.EVENT_READ)
                        except (KeyError, ValueError, OSError):
                            pass
                        registered.add(id(link))
                ready = {key.fileobj for key, _ in sel.select(timeout=0.05)}
                if listener in ready:
                    try:
                        sock, _ = listener.accept()
                    except (BlockingIOError, socket.timeout, OSError):
                        pass
                    else:
                        anon.append(_Link(sock))
                for link in list(anon) + list(self._links.values()):
                    _drain_link(link, handle)
                    if link.eof and link.rank is not None \
                            and link.rank not in acked:
                        return False
                    if link.eof:
                        try:
                            sel.unregister(link.sock)
                        except (KeyError, ValueError):
                            pass
                anon = [link for link in anon if not link.eof]
            return True
        finally:
            sel.close()

    @staticmethod
    def _send_ctrl(link: _Link, chunks: Sequence[Any]) -> None:
        # The supervisor side keeps sockets non-blocking for collection;
        # control sends (a pickled program can be large) need blocking
        # semantics for the moment of the write.
        link.sock.setblocking(True)
        try:
            wire.send_chunks(link.sock, chunks)
        finally:
            link.sock.setblocking(False)


class TcpBackend(Backend):
    """One process per virtual processor over a real TCP mesh (B.3)."""

    name = "tcp"

    def __init__(self, *, join_timeout: float = 120.0,
                 host: str = "127.0.0.1", mesh: TcpMesh | None = None,
                 heartbeat_interval: float = 0.25, integrity: bool = True,
                 reconnect_timeout: float = 5.0):
        self._join_timeout = join_timeout
        self._host = host
        self._mesh = mesh
        self._owns_mesh = False
        self._heartbeat_interval = heartbeat_interval
        self._integrity = integrity
        self._reconnect_timeout = reconnect_timeout
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise BspConfigError(
                "the tcp backend requires a fork-capable platform") from exc

    @classmethod
    def pool(cls, nprocs: int, *, host: str = "127.0.0.1",
             join_timeout: float = 120.0, heal_in_place: bool = True,
             max_heals: int = 8, heartbeat_interval: float = 0.25,
             integrity: bool = True,
             reconnect_timeout: float = 5.0) -> "TcpBackend":
        """A backend bound to its own persistent :class:`TcpMesh`.

        Usable as a context manager::

            with TcpBackend.pool(4) as backend:
                for config in sweep:
                    backend.run(program, 4, args=config)

        Ranks rendezvous and mesh once; every ``run()`` reuses them.
        Programs are shipped by pickle (module-level callables only).
        """
        backend = cls(join_timeout=join_timeout, host=host,
                      heartbeat_interval=heartbeat_interval,
                      integrity=integrity,
                      reconnect_timeout=reconnect_timeout,
                      mesh=TcpMesh(nprocs, host=host,
                                   join_timeout=join_timeout,
                                   heal_in_place=heal_in_place,
                                   max_heals=max_heals,
                                   heartbeat_interval=heartbeat_interval,
                                   integrity=integrity,
                                   reconnect_timeout=reconnect_timeout))
        backend._owns_mesh = True
        return backend

    def __enter__(self) -> "TcpBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the owned mesh, if any (no-op for one-shot backends)."""
        if self._owns_mesh and self._mesh is not None:
            self._mesh.close()

    def health(self) -> PoolHealth | None:
        """The bound mesh's supervision snapshot; ``None`` when one-shot."""
        return None if self._mesh is None else self._mesh.health()

    def run(
        self,
        program: Program,
        nprocs: int,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        *,
        sync: str = "strict",
    ) -> BackendRun:
        self.check_nprocs(nprocs)
        check_sync(sync)
        kwargs = kwargs or {}
        if self._mesh is not None:
            return self._mesh.run(program, nprocs, args=args, kwargs=kwargs,
                                  sync=sync)
        ctx = self._ctx
        token = _next_token()
        # Pre-bind the rendezvous listener in the parent: rank 0 inherits
        # the bound socket, so rank 1's first dial cannot race the bind.
        coord_listener = bind_listener(self._host)
        parent_listener = bind_listener(self._host)
        coord_addr = coord_listener.getsockname()
        parent_addr = parent_listener.getsockname()
        parent_listener.setblocking(False)
        procs = [
            ctx.Process(
                target=_oneshot_rank,
                args=(rank, nprocs, coord_addr, parent_addr, coord_listener,
                      token, program, args, kwargs, sync,
                      self._heartbeat_interval, self._integrity,
                      self._reconnect_timeout),
                name=f"bsp-tcp-{rank}",
                daemon=True,
            )
            for rank in range(nprocs)
        ]
        t0 = time.perf_counter()
        for proc in procs:
            proc.start()
        coord_listener.close()
        links: dict[int, _Link] = {}
        anon: list[_Link] = []
        try:
            outcomes = _collect_tcp(nprocs, 0, procs, links,
                                    self._join_timeout,
                                    listener=parent_listener, anon=anon)
        finally:
            # Near-instant after a clean run (ranks already exited); after
            # a failure the grace only delays SIGTERM to stuck ranks.
            _join_escalating(procs, grace=2.0)
            parent_listener.close()
            for link in list(links.values()) + anon:
                link.close()
        wall = time.perf_counter() - t0
        _raise_run_failure(outcomes)
        results = [o[1] for o in outcomes]  # type: ignore[index]
        ledgers = [o[2] for o in outcomes]  # type: ignore[index]
        return BackendRun(results=results, ledgers=ledgers, wall_seconds=wall)


class TcpSpmdBackend(Backend):
    """One *already-launched* rank of a (possibly multi-host) mesh.

    Every participating invocation — one per host, started by
    ``python -m repro.harness launch-tcp --rank r --coordinator h:p`` —
    constructs this backend with its own rank and the shared coordinator
    address, then calls ``bsp_run`` with the *same* program and
    arguments.  Each rank executes its share over the mesh; outcomes are
    all-gathered at the end, so every rank returns the complete
    :class:`BackendRun` (rank 0's invocation typically reports).

    Supervision here is in-band only (there is no common parent): a
    vanished peer surfaces via EOF/``SO_KEEPALIVE`` as an aborted run,
    not as an attributed :class:`WorkerCrashError`.  A failed run marks
    the mesh broken — relaunch the ranks rather than reusing it.
    """

    name = "tcp-spmd"

    def __init__(self, rank: int, nprocs: int,
                 coordinator: tuple[str, int], *, token: int = 0,
                 bind_host: str | None = None, timeout: float = 60.0,
                 generation: int = 0, integrity: bool = True,
                 reconnect_timeout: float = 5.0):
        Backend.check_nprocs(nprocs)
        if not 0 <= rank < nprocs:
            raise BspConfigError(f"rank {rank} out of range({nprocs})")
        self._rank = rank
        self._nprocs = nprocs
        self._timeout = timeout
        self._integrity = integrity
        self._reconnect_timeout = reconnect_timeout
        self._fabric = rendezvous_fabric(
            rank, nprocs, coordinator, token=token,
            generation=generation, bind_host=bind_host, timeout=timeout)
        self._links = {p: _LinkState() for p in self._fabric.socks}
        self._run_id = 0
        self._dirty = False
        self._last_fault: str | None = None
        self._heal_kinds: list[str] = []

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def generation(self) -> int:
        return self._fabric.generation

    def remesh(self) -> int:
        """Re-admit this rank to the mesh at the next generation.

        Called by *every* participating rank after a failed run (the
        harness ``launch-tcp --max-heals`` retry loop does this): each
        rank tears its links down and re-rendezvouses under
        ``fold_token(token, generation + 1)``, so survivors and a
        relaunched replacement rank meet in a fresh epoch while stale
        sockets from the old one are refused.  Returns the new
        generation; failure raises :class:`RemeshError` (relaunch all
        ranks then).
        """
        fabric = self._fabric
        gen = fabric.generation + 1
        keep = None
        if self._rank == 0:
            # The well-known coordinator listener must survive the epoch.
            keep, fabric.listener = fabric.listener, None
        fabric.close()
        try:
            self._fabric = rendezvous_fabric(
                self._rank, self._nprocs, fabric.coordinator,
                token=fabric.token, generation=gen,
                bind_host=fabric.bind_host, coordinator_listener=keep,
                timeout=self._timeout)
        except BaseException as exc:
            if keep is not None:
                try:
                    keep.close()
                except OSError:
                    pass
            raise RemeshError(
                f"rank {self._rank}: remesh to generation {gen} failed: "
                f"{exc}") from exc
        self._links = {p: _LinkState() for p in self._fabric.socks}
        self._dirty = False
        self._heal_kinds.append("re-admit")
        return gen

    def health(self) -> PoolHealth:
        """In-band supervision snapshot (no parent: alive == nprocs)."""
        return PoolHealth(
            generation=self._fabric.generation,
            restarts=0,
            restarts_left=-1,
            last_fault=self._last_fault,
            alive=self._nprocs,
            capacity=self._nprocs,
            heal_kinds=tuple(self._heal_kinds),
            retransmits=sum(l.retransmits for l in self._links.values()),
            reconnects=sum(l.reconnects for l in self._links.values()),
        )

    def run(
        self,
        program: Program,
        nprocs: int,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        *,
        sync: str = "strict",
    ) -> BackendRun:
        if nprocs != self._nprocs:
            raise BspConfigError(
                f"this mesh has {self._nprocs} ranks; cannot run "
                f"nprocs={nprocs}")
        check_sync(sync)
        if self._dirty:
            raise BspConfigError(
                "mesh streams may be corrupt after a failed run; call "
                "remesh() on every rank (or relaunch them)")
        self._run_id += 1
        run_id = self._run_id
        channel = _MeshChannel(
            self._rank, nprocs, dict(self._fabric.socks), run_id, None,
            links=self._links, sync=sync,
            fabric=self._fabric if self._integrity else None,
            integrity=self._integrity,
            reconnect_timeout=self._reconnect_timeout)
        t0 = time.perf_counter()
        try:
            outcome = _run_program(channel, self._rank, nprocs, run_id,
                                   program, args, kwargs or {})
            channel.broadcast_result(outcome)
            try:
                gathered = channel.gather_results(nprocs, self._timeout)
            except (_Abort, _PeerLost) as exc:
                self._dirty = True
                self._last_fault = f"{type(exc).__name__}: {exc}"
                raise SynchronizationError(
                    f"a peer vanished while gathering outcomes: {exc!r}"
                ) from None
        finally:
            channel.shutdown(close=False)
        wall = time.perf_counter() - t0
        gathered[self._rank] = outcome
        outcomes: list[tuple | None] = [None] * nprocs
        for r, oc in gathered.items():
            if 0 <= r < nprocs:
                outcomes[r] = (oc[0], oc[3], oc[4])
        if any(o is None or o[0] != "ok" for o in outcomes):
            self._dirty = True
            self._last_fault = "run failure (see raised error)"
            _raise_run_failure(outcomes)
        results = [o[1] for o in outcomes]  # type: ignore[index]
        ledgers = [o[2] for o in outcomes]  # type: ignore[index]
        return BackendRun(results=results, ledgers=ledgers, wall_seconds=wall)

    def close(self) -> None:
        self._fabric.close()
